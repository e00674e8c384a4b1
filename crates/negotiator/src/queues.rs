//! Per-destination queues with PIAS-style mice prioritization (§3.1, §3.4.2).
//!
//! Every ToR keeps one queue per destination ToR. Arriving flow data is
//! split across three priority levels by cumulative byte count — the
//! information-agnostic PIAS scheme \[3\]: the first 1 KB of a flow is
//! highest priority, the next 9 KB middle, the remainder lowest (§4.1).
//! Dequeueing always serves the highest non-empty level; within a level,
//! FIFO. A flow's bytes therefore leave in order (its priority only ever
//! demotes), which is what keeps per-flow delivery in order end-to-end
//! (§3.6.5).
//!
//! With priority queues disabled everything lands on one level, giving the
//! plain FIFO of the "w/o PQ" configurations.
//!
//! # Storage
//!
//! The queues are one [`sim::pairs::PairLists`] — per pair a `[u32; 3]` head
//! and tail table, per source ToR one arena of segment slots (the layout,
//! and the two-load rule it keeps, are documented there) — with one list
//! per priority level. A slot is 32 B: the `Node` payload `{ flow, bytes,
//! enqueued, relayed }` is packed to 4-byte alignment so the store's 4-byte
//! link fits in what would otherwise be its padding.
//!
//! What the store does not keep is per-pair byte totals: the engine's
//! `queue_bytes` mirror already holds the sum, and the per-level sums are a
//! walk of the list ([`PairView::level_bytes`]) for the tests and debug
//! checks that want them. The one per-level figure the engine reads every
//! epoch — a pair's direct elephant backlog, for selective relay — has a
//! table of its own, allocated only when asked for.

use sim::pairs::{Front, Pair, PairLists};
use sim::time::Nanos;

/// Number of PIAS levels (§4.1 uses three).
pub const PRIORITY_LEVELS: usize = 3;

/// The lowest level: elephant remainders and relay-forwarded bytes.
const ELEPHANT: usize = PRIORITY_LEVELS - 1;

/// One packet's worth of dequeued data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Owning flow.
    pub flow: u64,
    /// Payload bytes (≤ the per-packet payload limit).
    pub bytes: u64,
    /// Priority level the bytes came from (0 = highest).
    pub priority: usize,
    /// True when the bytes arrived over a relay hop and are being forwarded
    /// (traffic-aware selective relay, Appendix A.2.2) — the intermediate
    /// ToR's relay-buffer accounting needs to see them leave.
    pub relayed: bool,
}

/// One segment's bytes dequeued for consecutive packets
/// ([`PairQueues::dequeue_run`]): `count` packets, every one `max_payload`
/// bytes but the last, which carries the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// Owning flow.
    pub flow: u64,
    /// Payload bytes of the whole run.
    pub bytes: u64,
    /// Packets the run fills.
    pub count: usize,
    /// Priority level the bytes came from (0 = highest).
    pub priority: usize,
    /// True when the bytes arrived over a relay hop (see [`Packet::relayed`]).
    pub relayed: bool,
}

impl Run {
    /// Payload of the run's last packet, in `1..=max_payload`.
    #[inline]
    pub fn last_bytes(&self, max_payload: u64) -> u64 {
        self.bytes - (self.count as u64 - 1) * max_payload
    }

    /// The run as the packets `count` single dequeues would have taken,
    /// in order.
    pub fn packets(self, max_payload: u64) -> impl Iterator<Item = Packet> {
        (0..self.count).map(move |i| Packet {
            flow: self.flow,
            bytes: if i + 1 == self.count {
                self.last_bytes(max_payload)
            } else {
                max_payload
            },
            priority: self.priority,
            relayed: self.relayed,
        })
    }
}

/// A segment: contiguous bytes of one flow at one priority level. Packed to
/// 4-byte alignment: 28 B, so that with the store's link a slot is 32 B.
/// (Its fields are read and written by value; a reference to one would be
/// unaligned.)
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(4))]
struct Node {
    flow: u64,
    /// Bytes still queued; never zero while the node is on a pair's list.
    bytes: u64,
    /// When the segment was enqueued (HoL waiting-delay measurements for
    /// the informative-requests variant, Appendix A.2.3).
    enqueued: Nanos,
    relayed: bool,
}

type Store = PairLists<Node, PRIORITY_LEVELS>;

const _: () = assert!(Store::SLOT_BYTES == 32);

/// Take up to `cap` bytes off the head segment of `level` as one packet; a
/// segment that empties is unlinked and freed.
#[inline]
fn take(mut head: Front<'_, Node>, level: usize, cap: u64) -> Packet {
    let bytes = head.bytes.min(cap);
    head.bytes -= bytes;
    let packet = Packet {
        flow: head.flow,
        bytes,
        priority: level,
        relayed: head.relayed,
    };
    if head.bytes == 0 {
        head.pop();
    }
    packet
}

/// The per-destination queues of every source ToR of a fabric (see the
/// module docs for the layout). Reads go through [`PairQueues::pair`].
#[derive(Debug)]
pub struct PairQueues {
    lists: Store,
    /// Lowest-level bytes of each pair that were *not* relay-forwarded —
    /// what selective relay's qualification reads for every pair every
    /// epoch. Empty unless asked for at construction.
    elephants: Vec<u64>,
}

/// Read-only view of one pair's queue.
#[derive(Debug, Clone, Copy)]
pub struct PairView<'a> {
    lists: Pair<'a, Node, PRIORITY_LEVELS>,
    elephant: Option<u64>,
}

impl PairQueues {
    /// Empty queues for `sources × dests` pairs. `track_elephants` keeps
    /// [`PairView::elephant_backlog`] O(1) at 8 B per pair — for selective
    /// relay, which reads it for every pair every epoch.
    pub fn new(sources: usize, dests: usize, track_elephants: bool) -> Self {
        let pairs = sources * dests;
        PairQueues {
            lists: Store::new(sources, dests),
            elephants: vec![0; if track_elephants { pairs } else { 0 }],
        }
    }

    /// The queues themselves, for callers written as
    /// `queues.all().enqueue_flow(..)`.
    pub fn all(&mut self) -> &mut Self {
        self
    }

    /// The queue of pair `src → dst`.
    #[inline]
    pub fn pair(&self, src: usize, dst: usize) -> PairView<'_> {
        PairView {
            lists: self.lists.pair(src, dst),
            elephant: self.elephants.get(src * self.lists.width() + dst).copied(),
        }
    }

    /// Segment nodes `src`'s arena holds, queued and free together: the
    /// high-water count of segments the source has had queued at once.
    pub fn segments_allocated(&self, src: usize) -> usize {
        self.lists.slots_allocated(src)
    }

    /// Check `src`'s arena and lists against each other and report every
    /// pair's queued bytes to `pair_bytes(dst, bytes)`. Panics unless each
    /// node is on exactly one pair list or the free list, queued segments
    /// are non-empty, each tail names its list's last node and the elephant
    /// table (when kept) agrees with the lists.
    pub fn audit(&self, src: usize, mut pair_bytes: impl FnMut(usize, u64)) {
        self.lists.audit(src);
        for dst in 0..self.lists.width() {
            let view = self.pair(src, dst);
            let mut bytes = 0;
            for node in (0..PRIORITY_LEVELS).flat_map(|level| view.segments(level)) {
                let queued = node.bytes;
                assert!(queued > 0, "({src}, {dst}): empty segment queued");
                bytes += queued;
            }
            pair_bytes(dst, bytes);
            if let Some(tracked) = view.elephant {
                let direct = view.level_bytes(ELEPHANT) - view.relayed_bytes();
                assert_eq!(tracked, direct, "({src}, {dst}): elephant table");
            }
        }
    }

    /// Account `bytes` of priority `level` that left pair `row` in the
    /// elephant table (a no-op where the table is not kept).
    #[inline]
    fn note_taken(&mut self, row: usize, level: usize, relayed: bool, bytes: u64) {
        if !self.elephants.is_empty() && level == ELEPHANT && !relayed {
            self.elephants[row] -= bytes;
        }
    }

    /// Append one segment to the pair's FIFO at `level`.
    #[inline]
    fn push(&mut self, src: usize, dst: usize, level: usize, node: Node) {
        self.lists.push_back(src, dst, level, node);
        if !self.elephants.is_empty() && level == ELEPHANT && !node.relayed {
            self.elephants[self.lists.index(src, dst)] += node.bytes;
        }
    }

    /// Enqueue `bytes` of `flow` for `src → dst` at `now`, split across
    /// priority levels by the PIAS `thresholds` (cumulative byte
    /// boundaries, e.g. `[1000, 10000]`). With `pias` false, all bytes go
    /// to level 0 (plain FIFO).
    #[allow(clippy::too_many_arguments)] // a flow's coordinates and the PIAS setting
    pub fn enqueue_flow(
        &mut self,
        src: usize,
        dst: usize,
        flow: u64,
        bytes: u64,
        now: Nanos,
        pias: bool,
        thresholds: [u64; PRIORITY_LEVELS - 1],
    ) {
        debug_assert!(bytes > 0, "flows carry at least one byte");
        let segment = |bytes| Node {
            flow,
            bytes,
            enqueued: now,
            relayed: false,
        };
        if !pias {
            self.push(src, dst, 0, segment(bytes));
            return;
        }
        let mut remaining = bytes;
        let mut prev_boundary = 0u64;
        for (level, &boundary) in thresholds.iter().enumerate() {
            let take = remaining.min(boundary - prev_boundary);
            if take > 0 {
                self.push(src, dst, level, segment(take));
                remaining -= take;
            }
            prev_boundary = boundary;
        }
        if remaining > 0 {
            self.push(src, dst, ELEPHANT, segment(remaining));
        }
    }

    /// Enqueue relay-forwarded bytes at the lowest priority level (the
    /// intermediate ToR side of traffic-aware selective relay; relayed data
    /// never outranks the intermediate's own traffic).
    pub fn enqueue_relay(
        &mut self,
        via: usize,
        final_dst: usize,
        flow: u64,
        bytes: u64,
        now: Nanos,
    ) {
        debug_assert!(bytes > 0);
        let node = Node {
            flow,
            bytes,
            enqueued: now,
            relayed: true,
        };
        self.push(via, final_dst, ELEPHANT, node);
    }

    /// Dequeue one packet of at most `max_payload` bytes from a specific
    /// priority level of `src → dst`.
    #[inline]
    pub fn dequeue_level_packet(
        &mut self,
        src: usize,
        dst: usize,
        level: usize,
        max_payload: u64,
    ) -> Option<Packet> {
        debug_assert!(max_payload > 0);
        let row = self.lists.index(src, dst);
        let packet = take(self.lists.front_mut(src, dst, level)?, level, max_payload);
        self.note_taken(row, level, packet.relayed, packet.bytes);
        Some(packet)
    }

    /// Dequeue one packet of at most `max_payload` bytes from the highest
    /// non-empty priority level. One packet carries bytes of one flow only
    /// (a short segment yields a short packet — the slot still costs full
    /// slot time, as on the wire).
    #[inline]
    pub fn dequeue_packet(&mut self, src: usize, dst: usize, max_payload: u64) -> Option<Packet> {
        let level = self.lists.pair(src, dst).first_nonempty()?;
        self.dequeue_level_packet(src, dst, level, max_payload)
    }

    /// Dequeue one packet from the *lowest* priority level only — used by
    /// the traffic-aware selective relay variant, which relays elephant
    /// (lowest-priority) data exclusively (Appendix A.2.2).
    pub fn dequeue_lowest_packet(
        &mut self,
        src: usize,
        dst: usize,
        max_payload: u64,
    ) -> Option<Packet> {
        self.dequeue_level_packet(src, dst, ELEPHANT, max_payload)
    }

    /// Dequeue one packet of at most `max_payload` bytes for a selective
    /// relay first hop: from the lowest priority level, the only one relayed
    /// (Appendix A.2.2), while that level's head is the source's own data.
    /// A head that was itself relayed here yields `None` — a packet takes
    /// two hops at most.
    pub fn dequeue_relay_packet(
        &mut self,
        src: usize,
        dst: usize,
        max_payload: u64,
    ) -> Option<Packet> {
        if self.lists.pair(src, dst).front(ELEPHANT)?.relayed {
            return None;
        }
        self.dequeue_lowest_packet(src, dst, max_payload)
    }

    /// Dequeue the head segment of the highest non-empty priority level as
    /// one run of at most `room` packets of at most `max_payload` bytes:
    /// the whole segment when it fits, else its first `room` full packets.
    /// The run holds exactly what that many calls of
    /// [`PairQueues::dequeue_packet`] would take ([`Run::packets`]), so the
    /// scheduled phase drains a matched queue one segment at a time
    /// instead of one packet at a time.
    #[inline]
    pub fn dequeue_run(
        &mut self,
        src: usize,
        dst: usize,
        max_payload: u64,
        room: usize,
    ) -> Option<Run> {
        debug_assert!(max_payload > 0 && room > 0);
        let level = self.lists.pair(src, dst).first_nonempty()?;
        let row = self.lists.index(src, dst);
        let mut head = self.lists.front_mut(src, dst, level)?;
        let count = head.bytes.div_ceil(max_payload).min(room as u64);
        let bytes = head.bytes.min(count * max_payload);
        head.bytes -= bytes;
        let run = Run {
            flow: head.flow,
            bytes,
            count: count as usize,
            priority: level,
            relayed: head.relayed,
        };
        if head.bytes == 0 {
            head.pop();
        }
        self.note_taken(row, level, run.relayed, bytes);
        Some(run)
    }
}

impl<'a> PairView<'a> {
    /// The segments queued at `level`, head first.
    fn segments(&self, level: usize) -> impl Iterator<Item = &'a Node> + 'a {
        self.lists.iter(level)
    }

    /// Nothing queued at any level?
    pub fn is_empty(&self) -> bool {
        self.lists.is_empty()
    }

    /// The highest non-empty priority level: the one the next
    /// [`PairQueues::dequeue_packet`] takes from.
    pub fn first_level(&self) -> Option<usize> {
        self.lists.first_nonempty()
    }

    /// Enqueue time of the head-of-line segment at `level`, if any
    /// (Appendix A.2.3's weighted HoL waiting delay).
    pub fn hol_enqueued(&self, level: usize) -> Option<Nanos> {
        self.lists.front(level).map(|s| s.enqueued)
    }

    /// Bytes queued at one priority level (a walk of the level's list).
    pub fn level_bytes(&self, level: usize) -> u64 {
        self.segments(level).map(|s| s.bytes).sum()
    }

    /// Total queued bytes (a walk of every list; the engine reads its
    /// `queue_bytes` mirror instead).
    pub fn total_bytes(&self) -> u64 {
        (0..PRIORITY_LEVELS).map(|l| self.level_bytes(l)).sum()
    }

    /// Queued bytes that arrived over a relay hop (forwarding backlog; a
    /// walk of the lowest level, the only one relayed bytes join).
    pub fn relayed_bytes(&self) -> u64 {
        let relayed = self.segments(ELEPHANT).filter(|s| s.relayed);
        relayed.map(|s| s.bytes).sum()
    }

    /// Lowest-level bytes that are the source's own — the backlog relay
    /// qualification looks at, already-relayed data excluded so it never
    /// cascades through a second relay. O(1) where the store tracks it.
    pub fn elephant_backlog(&self) -> u64 {
        self.elephant
            .unwrap_or_else(|| self.level_bytes(ELEPHANT) - self.relayed_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TH: [u64; 2] = [1_000, 10_000];

    /// One pair's store, driven through pair `0 → 0`.
    struct One(PairQueues);

    impl One {
        fn new() -> Self {
            One(PairQueues::new(1, 1, false))
        }
        fn flow(&mut self, flow: u64, bytes: u64, now: Nanos, pias: bool) {
            self.0.enqueue_flow(0, 0, flow, bytes, now, pias, TH);
        }
        fn relay(&mut self, flow: u64, bytes: u64, now: Nanos) {
            self.0.enqueue_relay(0, 0, flow, bytes, now);
        }
        fn dequeue(&mut self, cap: u64) -> Option<Packet> {
            self.0.dequeue_packet(0, 0, cap)
        }
        fn view(&self) -> PairView<'_> {
            self.0.pair(0, 0)
        }
    }

    #[test]
    fn pias_splits_a_large_flow_across_levels() {
        let mut q = One::new();
        q.flow(7, 50_000, 0, true);
        assert_eq!(q.view().level_bytes(0), 1_000);
        assert_eq!(q.view().level_bytes(1), 9_000);
        assert_eq!(q.view().level_bytes(2), 40_000);
        assert_eq!(q.view().total_bytes(), 50_000);
    }

    #[test]
    fn small_flow_stays_at_top_priority() {
        let mut q = One::new();
        q.flow(1, 800, 0, true);
        assert_eq!(q.view().level_bytes(0), 800);
        assert_eq!(q.view().level_bytes(1), 0);
    }

    #[test]
    fn mid_size_flow_spans_two_levels() {
        let mut q = One::new();
        q.flow(1, 5_000, 0, true);
        assert_eq!(q.view().level_bytes(0), 1_000);
        assert_eq!(q.view().level_bytes(1), 4_000);
        assert_eq!(q.view().level_bytes(2), 0);
    }

    #[test]
    fn without_pias_everything_is_fifo() {
        let mut q = One::new();
        q.flow(1, 50_000, 0, false);
        q.flow(2, 500, 1, false);
        assert_eq!(q.view().level_bytes(0), 50_500);
        // Elephant 1 fully drains before mice 2 — head-of-line blocking.
        let p = q.dequeue(1_115).unwrap();
        assert_eq!(p.flow, 1);
    }

    #[test]
    fn pias_lets_late_mice_bypass_earlier_elephant_tail() {
        let mut q = One::new();
        q.flow(1, 50_000, 0, true); // elephant first
        q.flow(2, 500, 1, true); // mice later

        // Elephant's first 1 KB is level 0 and FIFO-ahead of the mice…
        assert_eq!(q.dequeue(1_115).unwrap().flow, 1);
        // …but the mice's 500 B now outranks the elephant's levels 1/2.
        let p = q.dequeue(1_115).unwrap();
        assert_eq!((p.flow, p.bytes, p.priority), (2, 500, 0));
    }

    #[test]
    fn dequeue_respects_packet_size_and_flow_boundaries() {
        let mut q = One::new();
        q.flow(1, 2_500, 0, true);
        // Level 0 holds 1000 B: one full packet caps at that segment.
        let p = q.dequeue(1_115).unwrap();
        assert_eq!((p.flow, p.bytes, p.priority), (1, 1_000, 0));
        let p = q.dequeue(1_115).unwrap();
        assert_eq!((p.flow, p.bytes, p.priority), (1, 1_115, 1));
        let p = q.dequeue(1_115).unwrap();
        assert_eq!((p.flow, p.bytes, p.priority), (1, 385, 1));
        assert!(q.dequeue(1_115).is_none());
        assert!(q.view().is_empty());
        assert_eq!(q.view().total_bytes(), 0);
    }

    #[test]
    fn per_flow_byte_order_is_preserved() {
        // Priority only demotes, so a flow's own bytes always leave in order.
        let mut q = One::new();
        q.flow(1, 12_000, 0, true);
        q.flow(2, 12_000, 5, true);
        let mut seen = std::collections::BTreeMap::new();
        let mut last_prio: std::collections::BTreeMap<u64, usize> = Default::default();
        while let Some(p) = q.dequeue(1_115) {
            *seen.entry(p.flow).or_insert(0u64) += p.bytes;
            let lp = last_prio.entry(p.flow).or_insert(0);
            assert!(p.priority >= *lp, "flow priority must only demote");
            *lp = p.priority;
        }
        assert_eq!(seen[&1], 12_000);
        assert_eq!(seen[&2], 12_000);
    }

    #[test]
    fn hol_enqueue_times() {
        let mut q = One::new();
        assert_eq!(q.view().hol_enqueued(0), None);
        q.flow(1, 20_000, 42, true);
        assert_eq!(q.view().hol_enqueued(0), Some(42));
        assert_eq!(q.view().hol_enqueued(2), Some(42));
        // The head moves on once the first segment is gone.
        q.flow(2, 500, 77, true);
        assert_eq!(q.dequeue(1_115).unwrap().flow, 1);
        assert_eq!(q.view().hol_enqueued(0), Some(77));
    }

    /// Runs taken until `limit` packets' room is used up, expanded into
    /// packets, against `limit` single dequeues: the same packets, and the
    /// same bytes left at every level.
    #[test]
    fn runs_equal_repeated_single_dequeues() {
        let build = || {
            let mut q = One::new();
            q.flow(1, 12_000, 0, true);
            q.flow(2, 500, 1, true);
            q.relay(3, 4_000, 2);
            q.flow(4, 27, 3, true);
            q
        };
        for limit in [1usize, 5, 9, 100] {
            let mut a = build();
            let mut b = build();
            let (mut runs, mut taken) = (Vec::new(), 0);
            while taken < limit {
                let Some(run) = a.0.dequeue_run(0, 0, 1_115, limit - taken) else {
                    break;
                };
                taken += run.count;
                runs.push(run);
            }
            let batch: Vec<Packet> = runs.iter().flat_map(|r| r.packets(1_115)).collect();
            let mut single = Vec::new();
            for _ in 0..limit {
                match b.dequeue(1_115) {
                    Some(p) => single.push(p),
                    None => break,
                }
            }
            assert_eq!(batch, single, "limit {limit}");
            assert_eq!(a.view().relayed_bytes(), b.view().relayed_bytes());
            for level in 0..PRIORITY_LEVELS {
                assert_eq!(a.view().level_bytes(level), b.view().level_bytes(level));
            }
        }
        // One run per segment: level 0's three flows, then flow 1's level 1.
        let mut q = build();
        let counts: Vec<(u64, usize)> = (0..4)
            .map(|_| q.0.dequeue_run(0, 0, 1_115, 100).unwrap())
            .map(|r| (r.flow, r.count))
            .collect();
        assert_eq!(counts, [(1, 1), (2, 1), (4, 1), (1, 9)]);
    }

    #[test]
    fn dequeue_lowest_skips_mice_levels() {
        let mut q = One::new();
        q.flow(1, 50_000, 0, true);
        q.flow(2, 500, 0, true);
        let p = q.0.dequeue_lowest_packet(0, 0, 1_115).unwrap();
        assert_eq!((p.flow, p.priority), (1, 2));
        assert_eq!(q.view().total_bytes(), 50_500 - 1_115);
    }

    #[test]
    fn relayed_bytes_follow_the_relayed_segments() {
        for tracked in [false, true] {
            let mut store = PairQueues::new(1, 2, tracked);
            store.enqueue_flow(0, 1, 1, 30_000, 0, true, TH);
            store.enqueue_relay(0, 1, 2, 1_115, 1);
            store.enqueue_relay(0, 1, 3, 700, 2);
            let view = store.pair(0, 1);
            assert_eq!(view.level_bytes(2), 20_000 + 1_815);
            assert_eq!(view.relayed_bytes(), 1_815);
            assert_eq!(view.elephant_backlog(), 20_000);
            // Drain the elephant remainder, then the first relayed segment.
            let drained: u64 = (0..3)
                .map(|_| store.dequeue_run(0, 1, 1_115, 28).unwrap().bytes)
                .sum();
            assert_eq!(drained, 30_000);
            let p = store.dequeue_lowest_packet(0, 1, 1_115).unwrap();
            assert_eq!((p.flow, p.bytes, p.relayed), (2, 1_115, true));
            let view = store.pair(0, 1);
            assert_eq!((view.relayed_bytes(), view.elephant_backlog()), (700, 0));
            assert!(store.pair(0, 0).is_empty());
            store.audit(0, |dst, bytes| assert_eq!(bytes, [0, 700][dst]));
        }
    }
}
