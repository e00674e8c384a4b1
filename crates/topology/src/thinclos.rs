//! The thin-clos topology (Figure 1(b), after TONAK-LION [40, 52]).
//!
//! ToRs are partitioned into `S` groups of `G = N/S` members; write ToR
//! `i = G·a + b` with group `a` and member `b`. Egress port `p` of every ToR
//! in group `a` is spliced into AWGR `(a, p)` (a `G`-port device), whose
//! output side feeds ingress port `p` of every ToR in group `(a + p) mod S`.
//!
//! Consequences, all matching §2/§3.2 of the paper:
//!
//! * each egress port reaches exactly one *group* of `G` ToRs;
//! * each ordered ToR pair is connected by exactly one egress/ingress port
//!   pair, `p = (group(dst) − group(src)) mod S`;
//! * a destination's ingress port `p` can hear only the `G` ToRs of source
//!   group `(group(dst) − p) mod S`, so GRANT rings are per-port and small
//!   (Figure 3(c));
//! * the fabric uses `S²` AWGRs of `G` ports each — at paper scale,
//!   64 × 16-port AWGRs for 128 ToRs × 8 ports.
//!
//! ## Predefined-phase pattern
//!
//! One all-to-all round takes `G` timeslots (`W` in the paper's notation).
//! In slot `t`, port `p` of ToR `(a, b)` transmits to member `(b + t) mod G`
//! of group `(a + p) mod S`; staggering by `b` keeps every AWGR
//! collision-free in every slot. The §3.6.1 rotation trick does not apply
//! here (each pair has exactly one physical path), so `rot` is ignored —
//! the paper instead suggests relaying scheduling messages around failures
//! on this topology.

use crate::config::{NetworkConfig, TopologyKind};
use crate::traits::{RingScope, Topology};

/// Figure 1(b): `S²` low-port-count AWGRs, grouped reachability.
#[derive(Debug, Clone)]
pub struct ThinClos {
    net: NetworkConfig,
    /// Group size `G = N/S`, also the AWGR port count `W`.
    group: usize,
}

impl ThinClos {
    /// Build over `net` (panics if `n_tors` is not divisible by `n_ports`).
    pub fn new(net: NetworkConfig) -> Self {
        net.validate();
        let group = net.n_tors / net.n_ports;
        ThinClos { net, group }
    }

    /// Group index of `tor`.
    pub fn group_of(&self, tor: usize) -> usize {
        tor / self.group
    }

    /// Member index of `tor` within its group.
    pub fn member_of(&self, tor: usize) -> usize {
        tor % self.group
    }

    /// The members of `group`, without `tor` (a port of `tor`'s own group
    /// neither reaches nor hears `tor` itself).
    fn group_but(&self, group: usize, tor: usize) -> RingScope {
        RingScope {
            start: group * self.group,
            span: self.group,
            skip: tor,
        }
    }
}

impl Topology for ThinClos {
    fn net(&self) -> &NetworkConfig {
        &self.net
    }

    fn kind(&self) -> TopologyKind {
        TopologyKind::ThinClos
    }

    fn predefined_slots(&self) -> usize {
        self.group
    }

    fn predefined_dst(&self, _rot: u64, slot: usize, tor: usize, port: usize) -> Option<usize> {
        debug_assert!(slot < self.group && tor < self.net.n_tors && port < self.net.n_ports);
        let s = self.net.n_ports;
        let (a, b) = (self.group_of(tor), self.member_of(tor));
        let dst_group = (a + port) % s;
        let dst = dst_group * self.group + (b + slot) % self.group;
        (dst != tor).then_some(dst)
    }

    fn predefined_src(&self, _rot: u64, slot: usize, tor: usize, port: usize) -> Option<usize> {
        let s = self.net.n_ports;
        let (c, d) = (self.group_of(tor), self.member_of(tor));
        let src_group = (c + s - port % s) % s;
        let src = src_group * self.group + (d + self.group - slot % self.group) % self.group;
        (src != tor).then_some(src)
    }

    fn rotation_period(&self) -> usize {
        1 // each pair has one physical path; `rot` is ignored
    }

    fn port_reaches(&self, src: usize, port: usize, dst: usize) -> bool {
        src != dst && (self.group_of(src) + port) % self.net.n_ports == self.group_of(dst)
    }

    fn grant_scope(&self, dst: usize, port: usize) -> RingScope {
        let s = self.net.n_ports;
        let src_group = (self.group_of(dst) + s - port % s) % s;
        self.group_but(src_group, dst)
    }

    fn accept_scope(&self, src: usize, port: usize) -> RingScope {
        let dst_group = (self.group_of(src) + port) % self.net.n_ports;
        self.group_but(dst_group, src)
    }

    fn shared_grant_ring(&self) -> bool {
        false // Figure 3(c): one GRANT ring per ingress port
    }

    fn pair_port(&self, src: usize, dst: usize) -> Option<usize> {
        if src == dst {
            return None;
        }
        let s = self.net.n_ports;
        Some((self.group_of(dst) + s - self.group_of(src) % s) % s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper() -> ThinClos {
        ThinClos::new(NetworkConfig::paper_default())
    }

    #[test]
    fn paper_scale_dimensions() {
        let t = paper();
        assert_eq!(t.predefined_slots(), 16, "W = 16 timeslots per round");
    }

    #[test]
    fn one_round_is_all_to_all_exactly_once() {
        let t = paper();
        for tor in [0usize, 31, 127] {
            let mut seen = vec![0u32; t.net().n_tors];
            for slot in 0..t.predefined_slots() {
                for port in 0..t.net().n_ports {
                    if let Some(dst) = t.predefined_dst(0, slot, tor, port) {
                        seen[dst] += 1;
                    }
                }
            }
            for (dst, &count) in seen.iter().enumerate() {
                assert_eq!(
                    count,
                    u32::from(dst != tor),
                    "tor {tor} -> {dst} coverage wrong"
                );
            }
        }
    }

    #[test]
    fn src_is_inverse_of_dst() {
        let t = paper();
        for slot in 0..t.predefined_slots() {
            for port in 0..t.net().n_ports {
                for tor in [0usize, 64, 127] {
                    if let Some(dst) = t.predefined_dst(0, slot, tor, port) {
                        assert_eq!(t.predefined_src(0, slot, dst, port), Some(tor));
                    }
                }
            }
        }
    }

    #[test]
    fn ingress_is_collision_free_per_slot() {
        let t = paper();
        let (n, s) = (t.net().n_tors, t.net().n_ports);
        for slot in 0..t.predefined_slots() {
            let mut hit = vec![false; n * s];
            for tor in 0..n {
                for port in 0..s {
                    if let Some(dst) = t.predefined_dst(0, slot, tor, port) {
                        let key = dst * s + port;
                        assert!(!hit[key], "collision at dst {dst} port {port}");
                        hit[key] = true;
                    }
                }
            }
        }
    }

    #[test]
    fn exactly_one_port_per_ordered_pair() {
        let t = paper();
        for src in [0usize, 17, 127] {
            for dst in 0..t.net().n_tors {
                if src == dst {
                    assert_eq!(t.pair_port(src, dst), None);
                    continue;
                }
                let ports: Vec<usize> = (0..t.net().n_ports)
                    .filter(|&p| t.port_reaches(src, p, dst))
                    .collect();
                assert_eq!(ports.len(), 1, "pair ({src},{dst}) should have one port");
                assert_eq!(t.pair_port(src, dst), Some(ports[0]));
            }
        }
    }

    #[test]
    fn grant_scope_is_the_source_group() {
        let t = paper();
        // Ingress port 3 of ToR 40 (group 2) hears group (2 - 3) mod 8 = 7.
        let scope = t.grant_scope(40, 3);
        assert_eq!(scope.len(), 16);
        assert!(scope.iter().all(|s| t.group_of(s) == 7));
        // Port 0 hears the destination's own group, minus itself.
        let own = t.grant_scope(40, 0);
        assert_eq!(own.len(), 15);
        assert!(!own.contains(40));
    }
}
