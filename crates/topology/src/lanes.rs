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
//!
//! [`LaneTable`] is the state built on that inverse: per `(src, slot)` one
//! bit per lane, a *superset* of the connections whose pair has something
//! to send. An engine marks a pair's lanes where the pair's state turns
//! non-empty and clears a lane only on the visit that finds nothing left,
//! so a phase walking the set bits ([`LaneMasks::next_lane`],
//! [`LaneMasks::is_set`]) visits, in `slot_conns` order, every connection
//! whose visit would change state. The negotiator's predefined phase and
//! the oblivious rotor both do, in every epoch and slot, failures
//! included: a down or gray link changes what a visit does, not which
//! connections hold something. A pass that must look at every connection
//! whatever it holds — the negotiator's detector reading its dummies —
//! walks the closed form instead: [`PredefinedLanes::dst`] from a port's
//! egress end, [`PredefinedLanes::src`] from its ingress end.

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
    #[inline]
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Lanes per `(slot, src)` group (= ports per ToR).
    #[inline]
    pub fn width(&self) -> usize {
        self.s
    }

    /// Bytes holding one group's lane bits in a [`LaneTable`].
    #[inline]
    fn stride(&self) -> usize {
        self.s.div_ceil(8)
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

    /// Source of the connection that `lane` of `slot` lands at `dst`:
    /// the inverse of [`Self::dst`], and `dst` itself for the unconnected
    /// lane. What a pass needs that looks at each port from its ingress
    /// end.
    #[inline]
    pub fn src(&self, slot: usize, dst: usize, lane: usize) -> usize {
        match self.kind {
            TopologyKind::Parallel => {
                let offset = wrap(slot * self.s + lane + 1, self.n);
                wrap(dst + self.n - offset, self.n)
            }
            TopologyKind::ThinClos => {
                let (group, member) = (dst / self.group, dst % self.group);
                wrap(group + self.s - lane, self.s) * self.group
                    + wrap(member + self.group - slot, self.group)
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

/// Indices of the set bits of `words`, ascending.
#[inline]
pub fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + bit
            })
        })
    })
}

/// The lane masks of every source: `(src · slots + slot) · stride` is the
/// first of the `stride = ⌈S / 8⌉` bytes holding the lane bits of one
/// `(src, slot)` group — row-major by source, so a shard owns a contiguous
/// window ([`LaneMasks`]), and one byte per group up to 8 ports.
#[derive(Debug, Clone)]
pub struct LaneTable {
    lanes: PredefinedLanes,
    bits: Vec<u8>,
}

/// A window of the [`LaneTable`] covering the source rows from `first`.
#[derive(Debug)]
pub struct LaneMasks<'a> {
    lanes: PredefinedLanes,
    first: usize,
    bits: &'a mut [u8],
}

impl LaneTable {
    /// All lanes clear, for the `n` sources of the fabric `lanes` inverts.
    pub fn new(lanes: PredefinedLanes, n: usize) -> Self {
        LaneTable {
            lanes,
            bits: vec![0; n * lanes.slots() * lanes.stride()],
        }
    }

    /// The schedule inverse the lanes are numbered by.
    #[inline]
    pub fn lanes(&self) -> PredefinedLanes {
        self.lanes
    }

    /// Every lane of the pair `src → dst` is set.
    pub fn is_marked(&self, src: usize, dst: usize) -> bool {
        let stride = self.lanes.stride();
        self.lanes.pair_lanes(src, dst).all(|(slot, lane)| {
            let at = (src * self.lanes.slots() + slot) * stride;
            self.bits[at + lane / 8] & (1 << (lane % 8)) != 0
        })
    }

    /// The window covering every source.
    #[inline]
    pub fn all(&mut self) -> LaneMasks<'_> {
        LaneMasks {
            lanes: self.lanes,
            first: 0,
            bits: &mut self.bits,
        }
    }
}

impl<'a> LaneMasks<'a> {
    /// The schedule inverse the lanes are numbered by.
    #[inline]
    pub fn lanes(&self) -> PredefinedLanes {
        self.lanes
    }

    /// The windows covering the first `rows` sources and the rest.
    pub fn split_at(self, rows: usize) -> (LaneMasks<'a>, LaneMasks<'a>) {
        let row_bytes = self.lanes.slots() * self.lanes.stride();
        let (head, tail) = self.bits.split_at_mut(rows * row_bytes);
        (
            LaneMasks { bits: head, ..self },
            LaneMasks {
                first: self.first + rows,
                bits: tail,
                ..self
            },
        )
    }

    /// Where the lane bits of `(src, slot)` start.
    #[inline]
    pub fn group(&self, src: usize, slot: usize) -> usize {
        ((src - self.first) * self.lanes.slots() + slot) * self.lanes.stride()
    }

    /// No lane of the group at `at` is set.
    #[inline]
    pub fn is_idle(&self, at: usize) -> bool {
        self.bits[at..at + self.lanes.stride()]
            .iter()
            .all(|&b| b == 0)
    }

    /// The first set lane of the group at `at` within `lanes`.
    #[inline]
    pub fn next_lane(&self, at: usize, lanes: Range<usize>) -> Option<usize> {
        let mut lane = lanes.start;
        while lane < lanes.end {
            let rest = self.bits[at + lane / 8] >> (lane % 8);
            if rest != 0 {
                let found = lane + rest.trailing_zeros() as usize;
                return (found < lanes.end).then_some(found);
            }
            lane = (lane / 8 + 1) * 8;
        }
        None
    }

    /// Is `lane` of the group at `at` set?
    #[inline]
    pub fn is_set(&self, at: usize, lane: usize) -> bool {
        self.bits[at + lane / 8] & (1 << (lane % 8)) != 0
    }

    /// Clear `lane` of the group at `at`: its visit found nothing left.
    #[inline]
    pub fn clear(&mut self, at: usize, lane: usize) {
        self.bits[at + lane / 8] &= !(1 << (lane % 8));
    }

    /// Set every lane of the pair `src → dst`: the pair just gained
    /// something to send.
    #[inline]
    pub fn mark(&mut self, src: usize, dst: usize) {
        for (slot, lane) in self.lanes.pair_lanes(src, dst) {
            let at = self.group(src, slot);
            self.bits[at + lane / 8] |= 1 << (lane % 8);
        }
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

    /// Walking a `(slot, src)` group's lanes in `port_order`, numbering
    /// the ports as they come and skipping the one lane that points a ToR
    /// at itself, is walking `PredefinedCache::slot_conns`: same
    /// connections, same order — the order the negotiator's predefined
    /// phase and the rotor visit their set lanes in. `src` inverts every
    /// lane's `dst`, the unconnected one included.
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
                        let order = lanes.port_order(rot).into_iter().flatten();
                        for (port, lane) in order.enumerate() {
                            assert_eq!(port, lanes.port(lane, rot));
                            let dst = lanes.dst(origin, lane);
                            assert_eq!(lanes.src(slot, dst, lane), src);
                            let connected = lanes.pair_lanes(src, dst).any(|at| at == (slot, lane));
                            assert_eq!(connected, dst != src);
                            if connected {
                                walked.push(PredefinedConn {
                                    src: src as u32,
                                    port: port as u32,
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

    #[test]
    fn ones_walks_set_bits_in_ascending_order() {
        assert_eq!(ones(&[]).count(), 0);
        let words = [1 | 1 << 63, 0, 1 << 5];
        assert_eq!(ones(&words).collect::<Vec<_>>(), vec![0, 63, 133]);
    }

    /// Marked lanes come back from `next_lane` in range order, survive a
    /// split by source row, and masks wider than a byte (12 ports) work
    /// like narrow ones.
    #[test]
    fn lane_masks_mark_find_and_clear_across_byte_boundaries() {
        let net = NetworkConfig {
            n_tors: 24,
            n_ports: 12,
            ..NetworkConfig::small_for_tests()
        };
        let topo = AnyTopology::build(TopologyKind::ThinClos, net);
        let lanes = PredefinedLanes::new(&topo);
        let mut table = LaneTable::new(lanes, 24);
        let (_, mut window) = table.all().split_at(5);
        let masks = &mut window;
        // Thin-clos: lane = destination group − source group, slot =
        // member difference; ToR 7 = (3, 1).
        for dst in [9, 23, 1] {
            masks.mark(7, dst);
        }
        let at = masks.group(7, 0);
        assert!(!masks.is_idle(at));
        assert!(masks.is_idle(masks.group(7, 1)) && masks.is_idle(masks.group(6, 0)));
        let walk = |masks: &LaneMasks<'_>, range: Range<usize>| {
            let mut found = Vec::new();
            let mut from = range.start;
            while let Some(lane) = masks.next_lane(at, from..range.end) {
                found.push(lane);
                from = lane + 1;
            }
            found
        };
        assert_eq!(walk(masks, 0..12), vec![1, 8, 9]);
        assert_eq!(walk(masks, 2..9), vec![8]);
        assert_eq!(walk(masks, 9..12), vec![9]);
        let set: Vec<_> = (0..12).filter(|&lane| masks.is_set(at, lane)).collect();
        assert_eq!(set, walk(masks, 0..12));
        masks.clear(at, 8);
        assert_eq!(walk(masks, 0..12), vec![1, 9]);
        assert!(table.is_marked(7, 9) && table.is_marked(7, 1) && !table.is_marked(7, 23));
    }
}
