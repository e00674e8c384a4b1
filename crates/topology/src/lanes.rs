//! The predefined schedule, inverted in closed form.
//!
//! [`Topology::predefined_dst`] answers "whom does `(slot, tor, port)`
//! talk to". An engine that tracks which *pairs* have something to say
//! needs the opposite: in which timeslots, and over which of the source's
//! connections, does the pair `src → dst` meet — without a table of all
//! `n · s · slots` connections to search.
//!
//! Both round-robin rules make that arithmetic once the per-epoch rotation
//! is factored out. Call the rotation-invariant index of a connection
//! within its `(slot, src)` group its **lane**:
//!
//! * parallel network — lane `l` of slot `t` carries destination offset
//!   `t·S + l + 1`, whatever the epoch; the rotation of §3.6.1 only decides
//!   which *port* drives the lane (`port = (l − rot) mod S`);
//! * thin-clos — the lane is the port (the schedule ignores `rot`): lane
//!   `l` of slot `t` reaches member `(b + t) mod G` of group `(a + l) mod S`.
//!
//! So a pair's `(slot, lane)`s never change ([`PredefinedLanes::pair_lanes`]),
//! a live lane's destination is an addition and a conditional subtraction
//! ([`PredefinedLanes::dst`]), and visiting a group's lanes in the order
//! [`PredefinedLanes::port_order`] gives is visiting its connections in
//! ascending port order — the order [`crate::PredefinedCache::slot_conns`]
//! lists them in.

use crate::config::TopologyKind;
use crate::traits::Topology;
use std::ops::Range;

/// Closed-form inverse of one topology's predefined schedule.
#[derive(Debug, Clone, Copy)]
pub struct PredefinedLanes {
    kind: TopologyKind,
    n: usize,
    s: usize,
    slots: usize,
    /// Thin-clos group size `G` (unused on the parallel network).
    group: usize,
}

/// What the lanes of one `(slot, src)` group share, computed once per
/// group so that [`PredefinedLanes::dst`] divides nothing.
#[derive(Debug, Clone, Copy)]
pub enum LaneOrigin {
    /// Parallel network: `src + slot·S + 1`, lane 0's unwrapped destination.
    Parallel(usize),
    /// Thin-clos: the source's group and the destination member index.
    ThinClos {
        /// Group of the source ToR.
        group: usize,
        /// `(member(src) + slot) mod G`.
        member: usize,
    },
}

/// The `(slot, lane)`s over which one ordered pair meets in a round: one,
/// or two when the parallel network's offsets wrap past `n` (none for a
/// ToR and itself).
#[derive(Debug, Clone)]
pub struct PairLanes {
    items: [(usize, usize); 2],
    len: usize,
    pos: usize,
}

impl Iterator for PairLanes {
    type Item = (usize, usize);

    #[inline]
    fn next(&mut self) -> Option<(usize, usize)> {
        (self.pos < self.len).then(|| {
            self.pos += 1;
            self.items[self.pos - 1]
        })
    }
}

impl PredefinedLanes {
    /// The inverse of `topo`'s schedule.
    pub fn new<T: Topology + ?Sized>(topo: &T) -> Self {
        let (n, s) = (topo.net().n_tors, topo.net().n_ports);
        // Offsets stay below 2n (at most two connections per pair and
        // round) and `src + offset` below 3n only while S ≤ N; both
        // constructors enforce it.
        assert!(s <= n, "more ports ({s}) than ToRs ({n})");
        assert!(n <= u32::MAX as usize / 2, "offsets must fit 32 bits");
        PredefinedLanes {
            kind: topo.kind(),
            n,
            s,
            slots: topo.predefined_slots(),
            group: n / s,
        }
    }

    /// Timeslots per all-to-all round.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Lanes per `(slot, src)` group (= ports per ToR).
    pub fn width(&self) -> usize {
        self.s
    }

    /// How far rotation `rot` shifts lanes against ports.
    #[inline]
    fn shift(&self, rot: u64) -> usize {
        match self.kind {
            TopologyKind::Parallel => (rot % self.s as u64) as usize,
            TopologyKind::ThinClos => 0,
        }
    }

    /// The egress port that drives `lane` under rotation `rot`.
    #[inline]
    pub fn port(&self, lane: usize, rot: u64) -> usize {
        let shift = self.shift(rot);
        if lane >= shift {
            lane - shift
        } else {
            lane + self.s - shift
        }
    }

    /// The lane ranges that, walked one after the other, visit a group's
    /// lanes in ascending port order under rotation `rot`.
    #[inline]
    pub fn port_order(&self, rot: u64) -> [Range<usize>; 2] {
        let shift = self.shift(rot);
        [shift..self.s, 0..shift]
    }

    /// The shared part of the destinations of `(slot, src)`'s lanes.
    #[inline]
    pub fn origin(&self, slot: usize, src: usize) -> LaneOrigin {
        match self.kind {
            TopologyKind::Parallel => LaneOrigin::Parallel(src + slot * self.s + 1),
            TopologyKind::ThinClos => LaneOrigin::ThinClos {
                group: src / self.group,
                member: wrap(src % self.group + slot, self.group),
            },
        }
    }

    /// Destination of `lane` in the group `origin` describes. Meaningful
    /// only for lanes [`Self::pair_lanes`] lists — the round-robin rule
    /// leaves the lane that would point a ToR at itself unconnected.
    #[inline]
    pub fn dst(&self, origin: LaneOrigin, lane: usize) -> usize {
        match origin {
            LaneOrigin::Parallel(base) => wrap(wrap(base + lane, self.n), self.n),
            LaneOrigin::ThinClos { group, member } => {
                wrap(group + lane, self.s) * self.group + member
            }
        }
    }

    /// Split a parallel-network offset index into `(slot, lane)`. GRANT
    /// calls this once per granted pair and epoch, so the division is done
    /// in 32 bits (several times cheaper than 64 on most cores; offsets
    /// stay below `2n`).
    #[inline]
    fn slot_lane(&self, o: usize) -> (usize, usize) {
        let (o, s) = (o as u32, self.s as u32);
        ((o / s) as usize, (o % s) as usize)
    }

    /// Every `(slot, lane)` whose connection runs `src → dst`, in
    /// ascending slot order; none for `src == dst`.
    #[inline]
    pub fn pair_lanes(&self, src: usize, dst: usize) -> PairLanes {
        debug_assert!(src < self.n && dst < self.n);
        let mut items = [(0, 0); 2];
        if src == dst {
            return PairLanes {
                items,
                len: 0,
                pos: 0,
            };
        }
        let mut len = 1;
        match self.kind {
            TopologyKind::Parallel => {
                // Offsets `d` and, when the round's `slots·S` offsets wrap
                // past `n`, `d + n`; offset `o + 1` is lane `o mod S` of
                // slot `o / S`.
                let o = if dst > src {
                    dst - src
                } else {
                    dst + self.n - src
                } - 1;
                items[0] = self.slot_lane(o);
                let again = o + self.n;
                if again < self.slots * self.s {
                    items[1] = self.slot_lane(again);
                    len = 2;
                }
            }
            TopologyKind::ThinClos => {
                let (a, b) = (src / self.group, src % self.group);
                let (c, d) = (dst / self.group, dst % self.group);
                items[0] = (
                    wrap(d + self.group - b, self.group),
                    wrap(c + self.s - a, self.s),
                );
            }
        }
        PairLanes { items, len, pos: 0 }
    }
}

/// `x mod m` for `x < 2m`.
#[inline]
fn wrap(x: usize, m: usize) -> usize {
    if x >= m {
        x - m
    } else {
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{PredefinedCache, PredefinedConn};
    use crate::config::NetworkConfig;
    use crate::traits::AnyTopology;

    fn fabrics() -> Vec<AnyTopology> {
        let net = |n_tors, n_ports| NetworkConfig {
            n_tors,
            n_ports,
            ..NetworkConfig::small_for_tests()
        };
        let mut out = Vec::new();
        // 10×4 and 70×4: S ∤ N−1 and slots·S > N, so the pairs at offsets
        // 1 and 2 meet twice a round (parallel only — thin-clos needs S | N).
        for (n, s) in [(10, 4), (70, 4), (6, 3), (2, 2), (16, 4), (128, 8)] {
            out.push(AnyTopology::build(TopologyKind::Parallel, net(n, s)));
            if n % s == 0 {
                out.push(AnyTopology::build(TopologyKind::ThinClos, net(n, s)));
            }
        }
        out
    }

    /// `(slot, lane)` is listed for `(src, dst)` iff the schedule connects
    /// `src` to `dst` in `slot` over the lane's port — at every rotation
    /// of a period and one beyond it.
    #[test]
    fn pair_lanes_invert_predefined_dst() {
        for topo in fabrics() {
            let lanes = PredefinedLanes::new(&topo);
            let (n, s) = (topo.net().n_tors, topo.net().n_ports);
            let case = format!("{:?} {n}x{s}", topo.kind());
            let mut doubles = 0;
            for rot in 0..=topo.rotation_period() as u64 {
                for src in 0..n {
                    for dst in 0..n {
                        let listed: Vec<_> = lanes.pair_lanes(src, dst).collect();
                        doubles += usize::from(listed.len() == 2);
                        for slot in 0..lanes.slots() {
                            for lane in 0..s {
                                let port = lanes.port(lane, rot);
                                let connected =
                                    topo.predefined_dst(rot, slot, src, port) == Some(dst);
                                assert_eq!(
                                    listed.contains(&(slot, lane)),
                                    connected,
                                    "{case} rot {rot}: {src}->{dst} slot {slot} lane {lane}"
                                );
                                if connected {
                                    let origin = lanes.origin(slot, src);
                                    assert_eq!(lanes.dst(origin, lane), dst, "{case}");
                                }
                            }
                        }
                    }
                }
            }
            let wraps = topo.kind() == TopologyKind::Parallel && lanes.slots() * s > n;
            assert_eq!(doubles > 0, wraps, "{case}: double connections");
        }
    }

    /// Walking a `(slot, src)` group's connected lanes in `port_order` is
    /// walking `PredefinedCache::slot_conns` — same connections, same order.
    #[test]
    fn port_order_walk_reproduces_the_cached_slot_lists() {
        for topo in fabrics() {
            let lanes = PredefinedLanes::new(&topo);
            let cache = PredefinedCache::build(&topo);
            let n = topo.net().n_tors;
            for rot in 0..=topo.rotation_period() as u64 {
                for slot in 0..lanes.slots() {
                    let mut walked = Vec::new();
                    for src in 0..n {
                        let origin = lanes.origin(slot, src);
                        for lane in lanes.port_order(rot).into_iter().flatten() {
                            let dst = lanes.dst(origin, lane);
                            if lanes.pair_lanes(src, dst).any(|at| at == (slot, lane)) {
                                walked.push(PredefinedConn {
                                    src: src as u32,
                                    port: lanes.port(lane, rot) as u32,
                                    dst: dst as u32,
                                });
                            }
                        }
                    }
                    assert_eq!(
                        walked.as_slice(),
                        cache.slot_conns(rot, slot),
                        "{:?} {n} ToRs rot {rot} slot {slot}",
                        topo.kind()
                    );
                }
            }
        }
    }
}
