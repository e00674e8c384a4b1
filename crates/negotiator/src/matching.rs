//! NegotiaToR Matching (§3.2, Algorithm 1): the three-step, non-iterative
//! REQUEST / GRANT / ACCEPT matching that every ToR runs distributedly.
//!
//! The functions here are pure with respect to the fabric: they take the
//! messages a ToR has received and its persistent ring state, and produce
//! the messages it sends next. The epoch engine (`crate::sim`) wires them
//! into the pipelined, in-band schedule of Figure 4.

use crate::rings::Ring;
use sim::Xoshiro256;
use topology::Topology;

/// A grant message: destination `dst` offers its ingress `port` to a
/// requesting source (which must then transmit on its egress port of the
/// same index — AWGR wiring makes the two port indices equal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// Granting destination ToR.
    pub dst: usize,
    /// Offered port index.
    pub port: usize,
}

/// An accepted match at a source: egress `port` will transmit to `dst` for
/// the whole scheduled phase of the epoch the accept takes effect in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Accept {
    /// Destination ToR.
    pub dst: usize,
    /// Source egress port.
    pub port: usize,
}

/// Persistent GRANT-side arbiter state of one destination ToR.
///
/// Parallel network: a single ring shared by all ports (Figure 3(b)).
/// Thin-clos: one ring per ingress port over that port's source group
/// (Figure 3(c)).
///
/// Each port goes to the usable requester nearest its ring's pointer,
/// ports in ascending order — what one [`Ring::pick`] per port over the
/// requesters usable on it gives, and what [`GrantArbiter::grant_into`]
/// gives bit for bit in one [`Ring::sweep`] per ring.
#[derive(Debug, Clone)]
pub struct GrantArbiter {
    shared: bool,
    /// One ring when `shared`, else one per port.
    rings: Vec<Ring>,
    /// Reused per-port candidate buffer of the fallback scan.
    filtered: Vec<usize>,
}

impl GrantArbiter {
    /// Build the arbiter for destination `dst` on `topo`.
    pub fn new<T: Topology>(topo: &T, dst: usize, rng: &mut Xoshiro256) -> Self {
        let shared = topo.shared_grant_ring();
        let ports = if shared { 1 } else { topo.net().n_ports };
        GrantArbiter {
            shared,
            rings: (0..ports)
                .map(|p| Ring::new(topo.grant_scope(dst, p), rng))
                .collect(),
            filtered: Vec::new(),
        }
    }

    /// Port-level GRANT: allocate every usable port of `dst` to the
    /// received ToR-level `requests`. `usable(src, port)` filters out
    /// ports/links the failure detector has excluded. Returns
    /// `(src, port)` pairs — the grant messages to send back.
    pub fn grant(
        &mut self,
        n_ports: usize,
        requests: &[usize],
        usable: impl FnMut(usize, usize) -> bool,
    ) -> Vec<(usize, usize)> {
        let (mut marks, mut out) = (Vec::new(), Vec::new());
        self.grant_into(n_ports, requests, usable, &mut marks, &mut out);
        out
    }

    /// [`GrantArbiter::grant`] writing into caller-owned buffers, so the
    /// epoch hot path can reuse them across every destination: `out` is
    /// cleared first, and `marks` is a ToR-id bitmap, clear on entry and
    /// on return, grown to the largest requester id.
    ///
    /// Each requester is marked once (duplicates are harmless). Each ring
    /// then sweeps its members once, clockwise from its pointer, for the
    /// picks of the ports it serves — all of them for the shared ring,
    /// cycling through the requesters when there are fewer than ports;
    /// its own port for a thin-clos one. The first pick `usable` refuses
    /// hands that port and the ring's later ones to the per-port scan:
    /// one [`Ring::pick`] over the requests usable on the port. Returns
    /// the candidates looked at: every request marked, plus every request
    /// each fallback port filtered.
    // lint: hot-path
    pub fn grant_into(
        &mut self,
        n_ports: usize,
        requests: &[usize],
        mut usable: impl FnMut(usize, usize) -> bool,
        marks: &mut Vec<u64>,
        out: &mut Vec<(usize, usize)>,
    ) -> u64 {
        out.clear();
        if requests.is_empty() {
            return 0;
        }
        for &src in requests {
            if src / 64 >= marks.len() {
                marks.resize(src / 64 + 1, 0);
            }
            marks[src / 64] |= 1 << (src % 64);
        }
        let mut scanned = requests.len() as u64;
        let per_ring = if self.shared { n_ports } else { 1 };
        let mut filtered = std::mem::take(&mut self.filtered);
        for (first, ring) in (0..n_ports).step_by(per_ring.max(1)).zip(&mut self.rings) {
            let want = per_ring.min(n_ports - first);
            let base = out.len();
            // lint: allow(H001) `out` is the caller's scratch; it keeps its capacity
            let found = ring.sweep(marks, want, |src| out.push((src, first)));
            if found == 0 {
                continue; // no requester in this ring: no port of it is granted
            }
            let mut taken = 0;
            while taken < want {
                let (src, port) = (out[base + taken % found].0, first + taken);
                if !usable(src, port) {
                    break;
                }
                if taken < found {
                    out[base + taken].1 = port;
                } else {
                    // lint: allow(H001) `out` is the caller's scratch; it keeps its capacity
                    out.push((src, port));
                }
                taken += 1;
            }
            out.truncate(base + taken);
            if taken > 0 {
                ring.advance_past(out[base + taken - 1].0);
            }
            for port in first + taken..first + want {
                filtered.clear();
                filtered.extend(requests.iter().copied().filter(|&s| usable(s, port)));
                scanned += requests.len() as u64;
                if let Some(src) = ring.pick(&filtered) {
                    // lint: allow(H001) `out` is the caller's scratch; it keeps its capacity
                    out.push((src, port));
                }
            }
        }
        self.filtered = filtered;
        for &src in requests {
            marks[src / 64] = 0;
        }
        scanned
    }
}

/// Persistent ACCEPT-side arbiter state of one source ToR: one ring per
/// egress port over the destinations that port can reach.
#[derive(Debug, Clone)]
pub struct AcceptArbiter {
    rings: Vec<Ring>,
    /// Reused per-port candidate buffer (no per-call allocation).
    candidates: Vec<usize>,
}

impl AcceptArbiter {
    /// Build the arbiter for source `src` on `topo`.
    pub fn new<T: Topology>(topo: &T, src: usize, rng: &mut Xoshiro256) -> Self {
        let rings = (0..topo.net().n_ports)
            .map(|p| Ring::new(topo.accept_scope(src, p), rng))
            .collect();
        AcceptArbiter {
            rings,
            candidates: Vec::new(),
        }
    }

    /// Port-level ACCEPT: for each egress port, accept at most one of the
    /// `grants` received for it. `usable(dst, port)` filters excluded
    /// links. Returns the accepted matches.
    pub fn accept(
        &mut self,
        n_ports: usize,
        grants: &[Grant],
        usable: impl FnMut(usize, usize) -> bool,
    ) -> Vec<Accept> {
        let mut out = Vec::new();
        self.accept_into(n_ports, grants, usable, &mut out);
        out
    }

    /// [`AcceptArbiter::accept`] writing into a caller-owned buffer, so the
    /// epoch hot path can reuse one allocation across every source (`out`
    /// is cleared first).
    pub fn accept_into(
        &mut self,
        n_ports: usize,
        grants: &[Grant],
        mut usable: impl FnMut(usize, usize) -> bool,
        out: &mut Vec<Accept>,
    ) {
        out.clear();
        self.candidates.clear();
        let mut candidates = std::mem::take(&mut self.candidates);
        for port in 0..n_ports {
            candidates.clear();
            candidates.extend(
                grants
                    .iter()
                    .filter(|g| g.port == port && usable(g.dst, port))
                    .map(|g| g.dst),
            );
            if let Some(dst) = self.rings[port].pick(&candidates) {
                out.push(Accept { dst, port });
            }
        }
        self.candidates = candidates;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::{AnyTopology, NetworkConfig, TopologyKind};

    fn par() -> AnyTopology {
        AnyTopology::build(TopologyKind::Parallel, NetworkConfig::small_for_tests())
    }

    fn thin() -> AnyTopology {
        AnyTopology::build(TopologyKind::ThinClos, NetworkConfig::small_for_tests())
    }

    #[test]
    fn grant_allocates_every_port_on_parallel() {
        let topo = par();
        let mut rng = Xoshiro256::new(3);
        let mut arb = GrantArbiter::new(&topo, 0, &mut rng);
        // Two requesters on a 4-port ToR → 2 grants each (Figure 3(a)).
        let grants = arb.grant(4, &[5, 9], |_, _| true);
        assert_eq!(grants.len(), 4);
        let to5 = grants.iter().filter(|&&(s, _)| s == 5).count();
        let to9 = grants.iter().filter(|&&(s, _)| s == 9).count();
        assert_eq!((to5, to9), (2, 2));
        // Ports are distinct.
        let mut ports: Vec<usize> = grants.iter().map(|&(_, p)| p).collect();
        ports.sort_unstable();
        assert_eq!(ports, vec![0, 1, 2, 3]);
    }

    #[test]
    fn grant_on_thin_clos_respects_port_scopes() {
        let topo = thin();
        let mut rng = Xoshiro256::new(4);
        // dst 0 is in group 0; its ingress port p hears group (0 - p) mod 4.
        let mut arb = GrantArbiter::new(&topo, 0, &mut rng);
        // Requesters: 4 (group 1), 8 (group 2). Group 1 reaches dst group 0
        // via egress/ingress port 3; group 2 via port 2.
        let grants = arb.grant(4, &[4, 8], |_, _| true);
        assert_eq!(grants.len(), 2);
        assert!(grants.contains(&(4, 3)));
        assert!(grants.contains(&(8, 2)));
    }

    #[test]
    fn grant_usable_filter_excludes_links() {
        let topo = par();
        let mut rng = Xoshiro256::new(5);
        let mut arb = GrantArbiter::new(&topo, 0, &mut rng);
        // Port 1 unusable entirely; src 5 unusable on port 0.
        let grants = arb.grant(4, &[5], |s, p| p != 1 && !(s == 5 && p == 0));
        let ports: Vec<usize> = grants.iter().map(|&(_, p)| p).collect();
        assert_eq!(ports, vec![2, 3]);
    }

    #[test]
    fn accept_takes_one_grant_per_port() {
        let topo = par();
        let mut rng = Xoshiro256::new(6);
        let mut arb = AcceptArbiter::new(&topo, 2, &mut rng);
        let grants = vec![
            Grant { dst: 1, port: 0 },
            Grant { dst: 9, port: 0 },
            Grant { dst: 9, port: 2 },
        ];
        let accepts = arb.accept(4, &grants, |_, _| true);
        assert_eq!(accepts.len(), 2);
        let port0: Vec<_> = accepts.iter().filter(|a| a.port == 0).collect();
        assert_eq!(port0.len(), 1, "exactly one accept per port");
        assert!(accepts.iter().any(|a| a.port == 2 && a.dst == 9));
    }

    #[test]
    fn accept_fairness_alternates_destinations() {
        let topo = par();
        let mut rng = Xoshiro256::new(7);
        let mut arb = AcceptArbiter::new(&topo, 0, &mut rng);
        let grants = vec![Grant { dst: 3, port: 0 }, Grant { dst: 5, port: 0 }];
        let mut wins = std::collections::BTreeMap::new();
        for _ in 0..10 {
            let a = arb.accept(4, &grants, |_, _| true);
            *wins.entry(a[0].dst).or_insert(0) += 1;
        }
        assert_eq!(wins[&3], 5);
        assert_eq!(wins[&5], 5);
    }

    #[test]
    fn full_cycle_produces_valid_matching() {
        use topology::{validate_matching, MatchEntry};
        // All 16 ToRs request all others; run GRANT then ACCEPT and check
        // the resulting matching is collision-free on both topologies.
        for topo in [par(), thin()] {
            let n = topo.net().n_tors;
            let s = topo.net().n_ports;
            let mut rng = Xoshiro256::new(11);
            let mut grant_arbs: Vec<GrantArbiter> = (0..n)
                .map(|d| GrantArbiter::new(&topo, d, &mut rng))
                .collect();
            let mut accept_arbs: Vec<AcceptArbiter> = (0..n)
                .map(|d| AcceptArbiter::new(&topo, d, &mut rng))
                .collect();

            // Everyone requests everyone.
            let mut grants_by_src: Vec<Vec<Grant>> = vec![Vec::new(); n];
            #[allow(clippy::needless_range_loop)] // dst drives several arrays
            for dst in 0..n {
                let requests: Vec<usize> = (0..n).filter(|&x| x != dst).collect();
                for (src, port) in grant_arbs[dst].grant(s, &requests, |_, _| true) {
                    grants_by_src[src].push(Grant { dst, port });
                }
            }
            let mut entries = Vec::new();
            for src in 0..n {
                for a in accept_arbs[src].accept(s, &grants_by_src[src], |_, _| true) {
                    entries.push(MatchEntry {
                        src,
                        port: a.port,
                        dst: a.dst,
                    });
                }
            }
            assert!(!entries.is_empty());
            validate_matching(&topo, &entries).expect("matching must be collision-free");
        }
    }

    #[test]
    fn saturation_efficiency_near_theory() {
        // §3.2.2: with everyone requesting everyone, the accepted fraction
        // of grants approaches 1 − (1 − 1/n)^n. Statistical test over many
        // epochs on the 16-ToR parallel network (expected ≈ 0.644).
        let topo = par();
        let n = topo.net().n_tors;
        let s = topo.net().n_ports;
        let mut rng = Xoshiro256::new(13);
        let mut grant_arbs: Vec<GrantArbiter> = (0..n)
            .map(|d| GrantArbiter::new(&topo, d, &mut rng))
            .collect();
        let mut accept_arbs: Vec<AcceptArbiter> = (0..n)
            .map(|d| AcceptArbiter::new(&topo, d, &mut rng))
            .collect();
        let (mut grants_total, mut accepts_total) = (0usize, 0usize);
        for _ in 0..400 {
            let mut grants_by_src: Vec<Vec<Grant>> = vec![Vec::new(); n];
            #[allow(clippy::needless_range_loop)] // dst drives several arrays
            for dst in 0..n {
                let requests: Vec<usize> = (0..n).filter(|&x| x != dst).collect();
                for (src, port) in grant_arbs[dst].grant(s, &requests, |_, _| true) {
                    grants_by_src[src].push(Grant { dst, port });
                }
            }
            for src in 0..n {
                grants_total += grants_by_src[src].len();
                accepts_total += accept_arbs[src]
                    .accept(s, &grants_by_src[src], |_, _| true)
                    .len();
            }
        }
        let ratio = accepts_total as f64 / grants_total as f64;
        let theory = 1.0 - (1.0 - 1.0 / n as f64).powi(n as i32);
        // Round-robin rings are *more* regular than the random model, so
        // allow a generous band around the theoretical value.
        assert!(
            (ratio - theory).abs() < 0.15,
            "ratio {ratio:.3} vs theory {theory:.3}"
        );
    }
}
