//! Live-pair state: which of the `n · (n − 1)` pairs the epoch kernel has
//! to look at.
//!
//! NegotiaToR schedules from binary demand, so an epoch's work should
//! track the pairs that have something to say. Two bit sets, maintained
//! where pair state changes, let REQUEST and the healthy predefined phase
//! visit those pairs and no others — in the order the full scans visited
//! them:
//!
//! * the **non-empty bitmap** — per source one bit per destination, set
//!   exactly while the pair's queue holds bytes ([`SrcRows::note_enqueue`]
//!   / [`SrcRows::note_dequeue`]); [`ones`] walks a source's row in
//!   ascending destination order;
//! * the **lane masks** ([`LaneTable`]) — per `(src, slot)` one bit per
//!   lane ([`topology::PredefinedLanes`]) of the source's predefined
//!   connections, a *superset* of the connections whose pair has backlog
//!   or an outgoing scheduling message. A bit is set when the pair's queue
//!   turns non-empty or a `msg_flags` bit is raised, and cleared only by
//!   the predefined-phase visit that finds nothing left — so phases that
//!   do not consult the masks (the observed predefined phase) need not
//!   maintain them, and healthy and observed epochs may interleave.

use sim::shard::Shard;
use std::ops::Range;
use topology::PredefinedLanes;

/// Indices of the set bits of `words`, ascending.
pub(super) fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
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
pub(super) struct LaneTable {
    lanes: PredefinedLanes,
    bits: Vec<u8>,
}

/// A window of the [`LaneTable`] covering the source rows from `first`.
pub(super) struct LaneMasks<'a> {
    pub(super) lanes: PredefinedLanes,
    first: usize,
    bits: &'a mut [u8],
}

fn stride(lanes: &PredefinedLanes) -> usize {
    lanes.width().div_ceil(8)
}

impl LaneTable {
    pub(super) fn new(lanes: PredefinedLanes, n: usize) -> Self {
        LaneTable {
            lanes,
            bits: vec![0; n * lanes.slots() * stride(&lanes)],
        }
    }

    /// Every lane of the pair `src → dst` is set.
    #[cfg(debug_assertions)]
    pub(super) fn is_marked(&self, src: usize, dst: usize) -> bool {
        let stride = stride(&self.lanes);
        self.lanes.pair_lanes(src, dst).all(|(slot, lane)| {
            let at = (src * self.lanes.slots() + slot) * stride;
            self.bits[at + lane / 8] & (1 << (lane % 8)) != 0
        })
    }

    pub(super) fn all(&mut self) -> LaneMasks<'_> {
        LaneMasks {
            lanes: self.lanes,
            first: 0,
            bits: &mut self.bits,
        }
    }

    /// One window per shard, in shard order (`shards` tile `[0, n)`).
    pub(super) fn split(&mut self, shards: &[Shard]) -> Vec<LaneMasks<'_>> {
        let mut rest = self.all();
        let mut out = Vec::with_capacity(shards.len());
        for shard in shards {
            let (head, tail) = rest.split_at(shard.len());
            out.push(head);
            rest = tail;
        }
        out
    }
}

impl<'a> LaneMasks<'a> {
    pub(super) fn split_at(self, rows: usize) -> (LaneMasks<'a>, LaneMasks<'a>) {
        let row_bytes = self.lanes.slots() * stride(&self.lanes);
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
    pub(super) fn group(&self, src: usize, slot: usize) -> usize {
        ((src - self.first) * self.lanes.slots() + slot) * stride(&self.lanes)
    }

    /// No lane of the group at `at` is set.
    #[inline]
    pub(super) fn is_idle(&self, at: usize) -> bool {
        self.bits[at..at + stride(&self.lanes)]
            .iter()
            .all(|&b| b == 0)
    }

    /// The first set lane of the group at `at` within `lanes`.
    #[inline]
    pub(super) fn next_lane(&self, at: usize, lanes: Range<usize>) -> Option<usize> {
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

    #[inline]
    pub(super) fn clear(&mut self, at: usize, lane: usize) {
        self.bits[at + lane / 8] &= !(1 << (lane % 8));
    }

    /// Set every lane of the pair `src → dst`: the pair just gained
    /// backlog or an outgoing scheduling message.
    #[inline]
    pub(super) fn mark(&mut self, src: usize, dst: usize) {
        for (slot, lane) in self.lanes.pair_lanes(src, dst) {
            let at = self.group(src, slot);
            self.bits[at + lane / 8] |= 1 << (lane % 8);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::{AnyTopology, NetworkConfig, TopologyKind};

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
        let shards = [Shard { start: 0, end: 5 }, Shard { start: 5, end: 24 }];
        let mut windows = table.split(&shards);
        let masks = &mut windows[1];
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
        masks.clear(at, 8);
        assert_eq!(walk(masks, 0..12), vec![1, 9]);
    }
}
