//! The predefined schedule, materialized.
//!
//! The predefined round-robin pattern is a pure function of
//! `(rotation, slot, tor, port)` and the rotation cycles
//! ([`Topology::rotation_period`]: the parallel network revisits the same
//! port↔offset mapping every `S` epochs, thin-clos ignores rotation), so
//! the whole schedule fits a table: per `(rotation, slot)` a dense,
//! `(src, port)`-ordered list of the connections that exist in that slot.
//! Iterating a list visits exactly the pairs `predefined_dst` returns
//! `Some` for, in the same order.
//!
//! Neither engine holds this table: it is `rotations × slots × n · s`
//! entries (100 MB on a 1024 × 8 fabric), and both walk the schedule's
//! closed-form inverse instead ([`crate::PredefinedLanes`] and the
//! [`crate::LaneTable`] over it). It stays as the plain-to-read reference
//! the closed form is tested against (`lanes.rs`) and as the topology
//! layer's cost probe in the repo benchmark.

use crate::traits::Topology;

/// One directed predefined-phase connection: `src` transmits on egress
/// `port` and the light lands on the same ingress port index of `dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredefinedConn {
    /// Transmitting ToR.
    pub src: u32,
    /// Egress port at `src` (= ingress port at `dst`; AWGR wiring).
    pub port: u32,
    /// Receiving ToR.
    pub dst: u32,
}

/// The fully materialized predefined schedule of one topology.
#[derive(Debug, Clone)]
pub struct PredefinedCache {
    rot_period: usize,
    slots: usize,
    /// Connection lists indexed by `(rot % rot_period) * slots + slot`,
    /// each in ascending `(src, port)` order.
    conns: Vec<Vec<PredefinedConn>>,
}

impl PredefinedCache {
    /// Materialize `topo`'s schedule for every distinct rotation.
    pub fn build<T: Topology + ?Sized>(topo: &T) -> Self {
        let n = topo.net().n_tors;
        let s = topo.net().n_ports;
        let slots = topo.predefined_slots();
        let rot_period = topo.rotation_period();
        let mut conns = Vec::with_capacity(rot_period * slots);
        for rot in 0..rot_period {
            for slot in 0..slots {
                let mut list = Vec::with_capacity(n * s);
                for src in 0..n {
                    for port in 0..s {
                        if let Some(dst) = topo.predefined_dst(rot as u64, slot, src, port) {
                            list.push(PredefinedConn {
                                src: src as u32,
                                port: port as u32,
                                dst: dst as u32,
                            });
                        }
                    }
                }
                conns.push(list);
            }
        }
        PredefinedCache {
            rot_period,
            slots,
            conns,
        }
    }

    /// Connections of predefined `slot` under rotation `rot`, in the same
    /// `(src, port)` order the direct triple loop visits.
    #[inline]
    pub fn slot_conns(&self, rot: u64, slot: usize) -> &[PredefinedConn] {
        let r = (rot % self.rot_period as u64) as usize;
        &self.conns[r * self.slots + slot]
    }

    /// Number of distinct rotations cached.
    pub fn rotation_period(&self) -> usize {
        self.rot_period
    }

    /// Timeslots per all-to-all round.
    pub fn slots(&self) -> usize {
        self.slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{NetworkConfig, TopologyKind};
    use crate::traits::AnyTopology;

    #[test]
    fn cache_matches_direct_evaluation_for_all_rotations() {
        for kind in [TopologyKind::Parallel, TopologyKind::ThinClos] {
            let topo = AnyTopology::build(kind, NetworkConfig::paper_default());
            let cache = PredefinedCache::build(&topo);
            let (n, s) = (topo.net().n_tors, topo.net().n_ports);
            // Rotations beyond the period must alias back into the table.
            for rot in [0u64, 1, 7, 8, 13, 1_000_003] {
                for slot in 0..topo.predefined_slots() {
                    let mut direct = Vec::new();
                    for src in 0..n {
                        for port in 0..s {
                            if let Some(dst) = topo.predefined_dst(rot, slot, src, port) {
                                direct.push(PredefinedConn {
                                    src: src as u32,
                                    port: port as u32,
                                    dst: dst as u32,
                                });
                            }
                        }
                    }
                    assert_eq!(
                        cache.slot_conns(rot, slot),
                        direct.as_slice(),
                        "{kind:?} rot {rot} slot {slot}"
                    );
                }
            }
        }
    }

    #[test]
    fn rotation_periods_match_topology_semantics() {
        let par = AnyTopology::build(TopologyKind::Parallel, NetworkConfig::paper_default());
        let thin = AnyTopology::build(TopologyKind::ThinClos, NetworkConfig::paper_default());
        assert_eq!(PredefinedCache::build(&par).rotation_period(), 8);
        assert_eq!(PredefinedCache::build(&thin).rotation_period(), 1);
    }
}
