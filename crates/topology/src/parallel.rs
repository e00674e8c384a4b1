//! The parallel network topology (Figure 1(a)).
//!
//! `S` AWGRs, each with `N` ports; AWGR `p` interconnects port `p` of every
//! ToR. Any ToR can therefore reach any other through any of its `S` ports,
//! and traffic leaving egress port `p` always arrives on the destination's
//! ingress port `p`.
//!
//! ## Predefined-phase pattern
//!
//! One all-to-all round takes `⌈(N−1)/S⌉` timeslots. In slot `t`, port `p`
//! of ToR `i` transmits to `(i + offset) mod N` where
//! `offset = t·S + rotate(p) + 1`; over one round the offsets sweep
//! `1..=⌈(N−1)/S⌉·S`, touching every other ToR exactly once (offsets that
//! would alias to self are skipped). `rotate` applies the per-epoch rotation
//! of §3.6.1: shifting which *port* carries which offset means a ToR pair
//! exchanges scheduling messages over a different physical link each epoch,
//! so a single failed link cannot permanently silence a pair.

use crate::config::{NetworkConfig, TopologyKind};
use crate::traits::{RingScope, Topology};

/// Figure 1(a): one high-port-count AWGR per ToR port index.
#[derive(Debug, Clone)]
pub struct ParallelNet {
    net: NetworkConfig,
    slots: usize,
}

impl ParallelNet {
    /// Build over `net`. Any ToR count works with any port count up to it
    /// (only thin-clos needs `n_tors` divisible by `n_ports`); when
    /// `⌈(N−1)/S⌉·S` exceeds `N` the round's last offsets wrap and the
    /// nearest pairs meet twice.
    pub fn new(net: NetworkConfig) -> Self {
        assert!(net.n_tors >= 2, "need at least two ToRs");
        assert!(
            (1..=net.n_tors).contains(&net.n_ports),
            "need between one uplink port and one per ToR ({}), got {}",
            net.n_tors,
            net.n_ports
        );
        let slots = (net.n_tors - 1).div_ceil(net.n_ports);
        ParallelNet { net, slots }
    }

    /// The destination offset carried by `(slot, port)` under rotation
    /// `rot`, in `1..=slots·S`.
    fn offset(&self, rot: u64, slot: usize, port: usize) -> usize {
        let s = self.net.n_ports;
        let rotated = (port + (rot as usize % s)) % s;
        slot * s + rotated + 1
    }

    /// Every port reaches, and hears, every ToR but its own.
    fn everyone_but(&self, tor: usize) -> RingScope {
        RingScope {
            start: 0,
            span: self.net.n_tors,
            skip: tor,
        }
    }
}

impl Topology for ParallelNet {
    fn net(&self) -> &NetworkConfig {
        &self.net
    }

    fn kind(&self) -> TopologyKind {
        TopologyKind::Parallel
    }

    fn predefined_slots(&self) -> usize {
        self.slots
    }

    fn predefined_dst(&self, rot: u64, slot: usize, tor: usize, port: usize) -> Option<usize> {
        debug_assert!(slot < self.slots && tor < self.net.n_tors && port < self.net.n_ports);
        let n = self.net.n_tors;
        let off = self.offset(rot, slot, port);
        if off.is_multiple_of(n) {
            return None; // would point at self (only possible when S ∤ N−1)
        }
        Some((tor + off) % n)
    }

    fn predefined_src(&self, rot: u64, slot: usize, tor: usize, port: usize) -> Option<usize> {
        let n = self.net.n_tors;
        let off = self.offset(rot, slot, port);
        if off.is_multiple_of(n) {
            return None;
        }
        Some((tor + n - off % n) % n)
    }

    fn rotation_period(&self) -> usize {
        self.net.n_ports // offset() reduces `rot` modulo S
    }

    fn port_reaches(&self, src: usize, _port: usize, dst: usize) -> bool {
        src != dst && src < self.net.n_tors && dst < self.net.n_tors
    }

    fn grant_scope(&self, dst: usize, _port: usize) -> RingScope {
        self.everyone_but(dst)
    }

    fn accept_scope(&self, src: usize, _port: usize) -> RingScope {
        self.everyone_but(src)
    }

    fn shared_grant_ring(&self) -> bool {
        true // Figure 3(b): one GRANT ring per destination ToR
    }

    fn pair_port(&self, _src: usize, _dst: usize) -> Option<usize> {
        None // any port reaches any destination
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper() -> ParallelNet {
        ParallelNet::new(NetworkConfig::paper_default())
    }

    #[test]
    fn paper_scale_has_16_predefined_slots() {
        // ⌈127/8⌉ = 16, matching §4.1's 16 × 60 ns = 0.96 µs phase.
        assert_eq!(paper().predefined_slots(), 16);
    }

    #[test]
    fn one_round_is_all_to_all_exactly_once() {
        let t = paper();
        for rot in [0u64, 1, 5] {
            for tor in [0usize, 17, 127] {
                let mut seen = vec![0u32; t.net().n_tors];
                for slot in 0..t.predefined_slots() {
                    for port in 0..t.net().n_ports {
                        if let Some(dst) = t.predefined_dst(rot, slot, tor, port) {
                            assert_ne!(dst, tor, "never self");
                            seen[dst] += 1;
                        }
                    }
                }
                for (dst, &count) in seen.iter().enumerate() {
                    if dst == tor {
                        assert_eq!(count, 0);
                    } else {
                        assert_eq!(count, 1, "tor {tor} should reach {dst} exactly once");
                    }
                }
            }
        }
    }

    #[test]
    fn src_is_inverse_of_dst() {
        let t = paper();
        for rot in [0u64, 3] {
            for slot in 0..t.predefined_slots() {
                for port in 0..t.net().n_ports {
                    for tor in [0usize, 50, 127] {
                        if let Some(dst) = t.predefined_dst(rot, slot, tor, port) {
                            assert_eq!(t.predefined_src(rot, slot, dst, port), Some(tor));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ingress_is_collision_free_per_slot() {
        // In any slot, each (dst, ingress port) pair hears at most one source.
        let t = paper();
        let n = t.net().n_tors;
        let s = t.net().n_ports;
        for slot in 0..t.predefined_slots() {
            let mut hit = vec![false; n * s];
            for tor in 0..n {
                for port in 0..s {
                    if let Some(dst) = t.predefined_dst(2, slot, tor, port) {
                        let key = dst * s + port;
                        assert!(!hit[key], "ingress collision at dst {dst} port {port}");
                        hit[key] = true;
                    }
                }
            }
        }
    }

    #[test]
    fn rotation_moves_pairs_across_ports() {
        let t = paper();
        // Under rotation, the port over which ToR 0 reaches ToR 1 changes.
        let port_for_dst = |rot: u64| -> usize {
            for slot in 0..t.predefined_slots() {
                for port in 0..t.net().n_ports {
                    if t.predefined_dst(rot, slot, 0, port) == Some(1) {
                        return port;
                    }
                }
            }
            panic!("pair (0,1) not connected");
        };
        let ports: Vec<usize> = (0..8).map(port_for_dst).collect();
        let distinct: std::collections::BTreeSet<_> = ports.iter().collect();
        assert_eq!(distinct.len(), 8, "8 rotations should use 8 distinct ports");
    }

    #[test]
    fn any_port_reaches_any_other_tor() {
        let t = paper();
        assert!(t.port_reaches(0, 0, 127));
        assert!(t.port_reaches(0, 7, 1));
        assert!(!t.port_reaches(5, 3, 5), "never self");
        assert_eq!(t.pair_port(0, 1), None);
    }

    #[test]
    fn grant_scope_is_everyone_else() {
        let t = paper();
        let scope = t.grant_scope(10, 0);
        assert_eq!(scope.len(), 127);
        assert!(!scope.contains(10));
        assert_eq!(t.accept_scope(10, 5), scope);
    }

    #[test]
    fn non_divisible_sizes_skip_self_offsets() {
        // 6 ToRs × 3 ports: ⌈5/3⌉ = 2 slots, offsets 1..=6; offset 6 ≡ 0 (mod 6)
        // would be self and must yield None.
        let net = NetworkConfig {
            n_tors: 6,
            n_ports: 3,
            ..NetworkConfig::small_for_tests()
        };
        let t = ParallelNet::new(net);
        let mut nones = 0;
        for slot in 0..t.predefined_slots() {
            for port in 0..3 {
                if t.predefined_dst(0, slot, 0, port).is_none() {
                    nones += 1;
                }
            }
        }
        assert_eq!(nones, 1);
    }
}
