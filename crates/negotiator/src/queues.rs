//! Per-destination queues with PIAS-style mice prioritization (§3.1, §3.4.2).
//!
//! Every ToR keeps one queue per destination ToR. Arriving flow data is
//! split across three priority levels by cumulative byte count — the
//! information-agnostic PIAS scheme [3]: the first 1 KB of a flow is
//! highest priority, the next 9 KB middle, the remainder lowest (§4.1).
//! Dequeueing always serves the highest non-empty level; within a level,
//! FIFO. A flow's bytes therefore leave in order (its priority only ever
//! demotes), which is what keeps per-flow delivery in order end-to-end
//! (§3.6.5).
//!
//! With priority queues disabled everything lands on one level, giving the
//! plain FIFO of the "w/o PQ" configurations.
//!
//! # Layout
//!
//! A fabric has `n²` pairs and, at any moment, far fewer queued segments
//! than that (a 1024-ToR fabric at 10 % load: ~44 k live pairs of 1 M), so
//! [`PairQueues`] stores the two apart:
//!
//! * **Per pair, two dense tables** of `[u32; 3]` — the head and the tail of
//!   the pair's FIFO at each level, as *index + 1* into the source's arena,
//!   so all-zero is "empty" and `vec![[0; 3]; n * n]` is one `alloc_zeroed`:
//!   24 B of address space per pair, and resident pages only where a pair
//!   has ever held data. (The `VecDeque` triple this replaces was 136 B per
//!   pair whose dangling-but-non-null pointers had to be *written* for every
//!   pair: 142 MB at 1024 ToRs before the first flow.) A tail is meaningful
//!   only while its head is non-zero, so dequeues never touch the tail table.
//! * **Per source ToR, one arena** of 32-byte segment nodes `{ flow, bytes,
//!   enqueued, next, relayed }`, linked per `(pair, level)` and recycled
//!   through an intrusive free list (`next` of a free node is the next free
//!   node). A source's pairs share its arena, so nodes one destination frees
//!   are reused by another and the arena's size tracks the source's
//!   high-water backlog in segments, not the fabric. Arenas are per source
//!   because sources are what shards own: a [`PairRows`] window splits the
//!   tables and the arenas at the same row, and no index ever crosses it.
//!
//! **The two-load rule.** A dequeue is `heads[src · n + dst]` — an address
//! computed from the pair — then the node it names: two dependent loads,
//! what `VecDeque::front_mut` cost. The arena's base pointer is a third
//! load but not a dependent one (it is indexed by `src`, known up front).
//! Two earlier prototypes of sparse pair state kept the queue *body* behind
//! a stored handle instead — a slab with a `u32` index per pair, and
//! `Vec<Option<Box<_>>>` — which made the chain pair → handle → body →
//! segment, and that one extra dependent load cost the all-to-all predefined
//! phase +50 %. Whatever replaces this layout must keep the head at a
//! computed address.
//!
//! What the store does not keep is per-pair byte totals: the engine's
//! `queue_bytes` mirror already holds the sum, and the per-level sums are a
//! walk of the list ([`PairView::level_bytes`]) for the tests and debug
//! checks that want them. The one per-level figure the engine reads every
//! epoch — a pair's direct elephant backlog, for selective relay — has a
//! table of its own, allocated only when asked for.

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

/// Per-level list links of one pair: arena index + 1, `0` = none.
type Links = [u32; PRIORITY_LEVELS];

/// A contiguous run of one flow's bytes at one priority level, and the
/// link to the segment behind it (or, on the free list, the next free node).
#[derive(Debug, Clone, Copy)]
struct Node {
    flow: u64,
    /// Bytes still queued; never zero while the node is on a pair's list.
    bytes: u64,
    /// When the segment was enqueued (HoL waiting-delay measurements for
    /// the informative-requests variant, Appendix A.2.3).
    enqueued: Nanos,
    next: u32,
    relayed: bool,
}

const _: () = assert!(std::mem::size_of::<Node>() == 32);

/// One source ToR's segment nodes.
#[derive(Debug, Default)]
struct Arena {
    nodes: Vec<Node>,
    /// Head of the free list (link form).
    free: u32,
}

impl Arena {
    /// Store `node`, reusing a freed slot when there is one; its link.
    #[inline]
    fn alloc(&mut self, node: Node) -> u32 {
        let link = self.free;
        if link != 0 {
            let slot = &mut self.nodes[link as usize - 1];
            self.free = slot.next;
            *slot = node;
            return link;
        }
        self.nodes.push(node);
        u32::try_from(self.nodes.len()).expect("one source queues at most u32::MAX segments")
    }

    /// Take up to `cap` bytes off the segment at `*head` (non-zero) as one
    /// packet; a segment that empties is unlinked and freed.
    #[inline]
    fn take(&mut self, head: &mut u32, level: usize, cap: u64) -> Packet {
        let link = *head;
        let node = &mut self.nodes[link as usize - 1];
        let bytes = node.bytes.min(cap);
        node.bytes -= bytes;
        let packet = Packet {
            flow: node.flow,
            bytes,
            priority: level,
            relayed: node.relayed,
        };
        if node.bytes == 0 {
            *head = node.next;
            node.next = self.free;
            self.free = link;
        }
        packet
    }
}

/// The per-destination queues of every source ToR of a fabric (see the
/// module docs for the layout). Reads go through [`PairQueues::pair`],
/// everything that moves bytes through a row window ([`PairQueues::all`]).
#[derive(Debug)]
pub struct PairQueues {
    /// Destinations per source (the row width of the pair tables).
    n: usize,
    heads: Vec<Links>, // src * n + dst
    tails: Vec<Links>, // likewise; meaningful while the head is non-zero
    arenas: Vec<Arena>,
    /// Lowest-level bytes of each pair that were *not* relay-forwarded —
    /// what selective relay's qualification reads for every pair every
    /// epoch. Empty unless asked for at construction.
    elephants: Vec<u64>,
}

/// The rows of [`PairQueues`] belonging to a contiguous range of sources,
/// with their arenas. Sources and destinations are fabric-wide ids; a
/// source outside the window is an out-of-bounds panic.
#[derive(Debug)]
pub struct PairRows<'a> {
    start: usize,
    n: usize,
    heads: &'a mut [Links],
    tails: &'a mut [Links],
    arenas: &'a mut [Arena],
    elephants: &'a mut [u64],
}

/// Read-only view of one pair's queue.
#[derive(Debug, Clone, Copy)]
pub struct PairView<'a> {
    heads: Links,
    nodes: &'a [Node],
    elephant: Option<u64>,
}

impl PairQueues {
    /// Empty queues for `sources × dests` pairs. `track_elephants` keeps
    /// [`PairView::elephant_backlog`] O(1) at 8 B per pair — for selective
    /// relay, which reads it for every pair every epoch.
    pub fn new(sources: usize, dests: usize, track_elephants: bool) -> Self {
        let pairs = sources * dests;
        PairQueues {
            n: dests,
            heads: vec![[0; PRIORITY_LEVELS]; pairs],
            tails: vec![[0; PRIORITY_LEVELS]; pairs],
            arenas: (0..sources).map(|_| Arena::default()).collect(),
            elephants: vec![0; if track_elephants { pairs } else { 0 }],
        }
    }

    /// The window over every source.
    pub fn all(&mut self) -> PairRows<'_> {
        PairRows {
            start: 0,
            n: self.n,
            heads: &mut self.heads,
            tails: &mut self.tails,
            arenas: &mut self.arenas,
            elephants: &mut self.elephants,
        }
    }

    /// The queue of pair `src → dst`.
    #[inline]
    pub fn pair(&self, src: usize, dst: usize) -> PairView<'_> {
        let row = src * self.n + dst;
        PairView {
            heads: self.heads[row],
            nodes: &self.arenas[src].nodes,
            elephant: self.elephants.get(row).copied(),
        }
    }

    /// Segment nodes `src`'s arena holds, queued and free together: the
    /// high-water count of segments the source has had queued at once.
    pub fn segments_allocated(&self, src: usize) -> usize {
        self.arenas[src].nodes.len()
    }

    /// Check `src`'s arena and lists against each other and report every
    /// pair's queued bytes to `pair_bytes(dst, bytes)`. Panics unless each
    /// node is on exactly one pair list or the free list, queued segments
    /// are non-empty, each tail names its list's last node and the elephant
    /// table (when kept) agrees with the lists.
    pub fn audit(&self, src: usize, mut pair_bytes: impl FnMut(usize, u64)) {
        let arena = &self.arenas[src];
        let mut seen = vec![false; arena.nodes.len()];
        let mut visit = |link: u32| {
            let was = std::mem::replace(&mut seen[link as usize - 1], true);
            assert!(!was, "source {src}: segment {} is linked twice", link - 1);
            &arena.nodes[link as usize - 1]
        };
        for dst in 0..self.n {
            let row = src * self.n + dst;
            let (mut bytes, mut direct_elephant) = (0, 0);
            for level in 0..PRIORITY_LEVELS {
                let (mut link, mut last) = (self.heads[row][level], 0);
                while link != 0 {
                    let node = visit(link);
                    assert!(node.bytes > 0, "({src}, {dst}): empty segment queued");
                    bytes += node.bytes;
                    if level == ELEPHANT && !node.relayed {
                        direct_elephant += node.bytes;
                    }
                    (last, link) = (link, node.next);
                }
                assert!(
                    last == 0 || self.tails[row][level] == last,
                    "({src}, {dst}): level {level} tail is not the list's last segment"
                );
            }
            if let Some(&tracked) = self.elephants.get(row) {
                assert_eq!(tracked, direct_elephant, "({src}, {dst}): elephant table");
            }
            pair_bytes(dst, bytes);
        }
        let mut link = arena.free;
        while link != 0 {
            link = visit(link).next;
        }
        assert!(
            seen.iter().all(|&s| s),
            "source {src}: a segment is on no list (leaked)"
        );
    }
}

/// Account a packet that left pair `row` in the elephant table (a no-op
/// where the table is not kept).
#[inline]
fn note_taken(elephants: &mut [u64], row: usize, packet: &Packet) {
    if !elephants.is_empty() && packet.priority == ELEPHANT && !packet.relayed {
        elephants[row] -= packet.bytes;
    }
}

impl<'a> PairRows<'a> {
    /// Split into the first `rows` sources and the rest.
    pub fn split_at(self, rows: usize) -> (PairRows<'a>, PairRows<'a>) {
        let pairs = rows * self.n;
        let (heads, heads_rest) = self.heads.split_at_mut(pairs);
        let (tails, tails_rest) = self.tails.split_at_mut(pairs);
        let (arenas, arenas_rest) = self.arenas.split_at_mut(rows);
        let (elephants, elephants_rest) =
            self.elephants.split_at_mut(pairs.min(self.elephants.len()));
        (
            PairRows {
                heads,
                tails,
                arenas,
                elephants,
                ..self
            },
            PairRows {
                start: self.start + rows,
                heads: heads_rest,
                tails: tails_rest,
                arenas: arenas_rest,
                elephants: elephants_rest,
                ..self
            },
        )
    }

    /// Window-local source index and pair row.
    #[inline]
    fn locate(&self, src: usize, dst: usize) -> (usize, usize) {
        let local = src - self.start;
        (local, local * self.n + dst)
    }

    /// Append one segment to the pair's FIFO at `level`.
    #[inline]
    fn push(&mut self, local: usize, row: usize, level: usize, node: Node) {
        let arena = &mut self.arenas[local];
        let link = arena.alloc(node);
        if self.heads[row][level] == 0 {
            self.heads[row][level] = link;
        } else {
            arena.nodes[self.tails[row][level] as usize - 1].next = link;
        }
        self.tails[row][level] = link;
        if !self.elephants.is_empty() && level == ELEPHANT && !node.relayed {
            self.elephants[row] += node.bytes;
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
        let (local, row) = self.locate(src, dst);
        let segment = |bytes| Node {
            flow,
            bytes,
            enqueued: now,
            next: 0,
            relayed: false,
        };
        if !pias {
            self.push(local, row, 0, segment(bytes));
            return;
        }
        let mut remaining = bytes;
        let mut prev_boundary = 0u64;
        for (level, &boundary) in thresholds.iter().enumerate() {
            let take = remaining.min(boundary - prev_boundary);
            if take > 0 {
                self.push(local, row, level, segment(take));
                remaining -= take;
            }
            prev_boundary = boundary;
        }
        if remaining > 0 {
            self.push(local, row, ELEPHANT, segment(remaining));
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
        let (local, row) = self.locate(via, final_dst);
        let node = Node {
            flow,
            bytes,
            enqueued: now,
            next: 0,
            relayed: true,
        };
        self.push(local, row, ELEPHANT, node);
    }

    /// One packet off the head of `level`, if the level holds anything.
    #[inline]
    fn take(&mut self, local: usize, row: usize, level: usize, cap: u64) -> Option<Packet> {
        debug_assert!(cap > 0);
        let head = &mut self.heads[row][level];
        if *head == 0 {
            return None;
        }
        let packet = self.arenas[local].take(head, level, cap);
        note_taken(self.elephants, row, &packet);
        Some(packet)
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
        let (local, row) = self.locate(src, dst);
        self.take(local, row, level, max_payload)
    }

    /// Dequeue one packet of at most `max_payload` bytes from the highest
    /// non-empty priority level. One packet carries bytes of one flow only
    /// (a short segment yields a short packet — the slot still costs full
    /// slot time, as on the wire).
    #[inline]
    pub fn dequeue_packet(&mut self, src: usize, dst: usize, max_payload: u64) -> Option<Packet> {
        let (local, row) = self.locate(src, dst);
        let level = self.heads[row].iter().position(|&head| head != 0)?;
        self.take(local, row, level, max_payload)
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

    /// Dequeue up to `max_packets` packets of at most `max_payload` bytes
    /// each, appending to `out` (not cleared): one call pulls a full
    /// scheduled phase's worth of packets for a matched port, amortizing
    /// the per-packet dispatch the epoch engine used to pay slot by slot.
    /// Equivalent to calling [`PairRows::dequeue_packet`] `max_packets`
    /// times and stopping at the first `None`.
    pub fn dequeue_packets_into(
        &mut self,
        src: usize,
        dst: usize,
        max_payload: u64,
        max_packets: usize,
        out: &mut Vec<Packet>,
    ) {
        debug_assert!(max_payload > 0);
        let (local, row) = self.locate(src, dst);
        let arena = &mut self.arenas[local];
        let end = out.len() + max_packets;
        // Nothing is enqueued meanwhile, so "highest non-empty level
        // first" is the levels drained in order.
        for level in 0..PRIORITY_LEVELS {
            let head = &mut self.heads[row][level];
            while *head != 0 && out.len() < end {
                let packet = arena.take(head, level, max_payload);
                note_taken(self.elephants, row, &packet);
                out.push(packet);
            }
        }
    }
}

impl PairView<'_> {
    /// The segments queued at `level`, head first.
    fn segments(&self, level: usize) -> impl Iterator<Item = &Node> {
        let mut link = self.heads[level];
        std::iter::from_fn(move || {
            let node = &self.nodes[(link as usize).checked_sub(1)?];
            link = node.next;
            Some(node)
        })
    }

    /// Nothing queued at any level?
    pub fn is_empty(&self) -> bool {
        self.heads == [0; PRIORITY_LEVELS]
    }

    /// Enqueue time of the head-of-line segment at `level`, if any
    /// (Appendix A.2.3's weighted HoL waiting delay).
    pub fn hol_enqueued(&self, level: usize) -> Option<Nanos> {
        self.segments(level).next().map(|s| s.enqueued)
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
            self.0.all().enqueue_flow(0, 0, flow, bytes, now, pias, TH);
        }
        fn relay(&mut self, flow: u64, bytes: u64, now: Nanos) {
            self.0.all().enqueue_relay(0, 0, flow, bytes, now);
        }
        fn dequeue(&mut self, cap: u64) -> Option<Packet> {
            self.0.all().dequeue_packet(0, 0, cap)
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

    #[test]
    fn batch_dequeue_equals_repeated_single_dequeues() {
        let build = || {
            let mut q = One::new();
            q.flow(1, 12_000, 0, true);
            q.flow(2, 500, 1, true);
            q.relay(3, 4_000, 2);
            q.flow(4, 27, 3, true);
            q
        };
        for limit in [0usize, 1, 5, 100] {
            let mut a = build();
            let mut b = build();
            let mut batch = Vec::new();
            a.0.all()
                .dequeue_packets_into(0, 0, 1_115, limit, &mut batch);
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
    }

    #[test]
    fn dequeue_lowest_skips_mice_levels() {
        let mut q = One::new();
        q.flow(1, 50_000, 0, true);
        q.flow(2, 500, 0, true);
        let p = q.0.all().dequeue_lowest_packet(0, 0, 1_115).unwrap();
        assert_eq!((p.flow, p.priority), (1, 2));
        assert_eq!(q.view().total_bytes(), 50_500 - 1_115);
    }

    #[test]
    fn relayed_bytes_follow_the_relayed_segments() {
        for tracked in [false, true] {
            let mut store = PairQueues::new(1, 2, tracked);
            store.all().enqueue_flow(0, 1, 1, 30_000, 0, true, TH);
            store.all().enqueue_relay(0, 1, 2, 1_115, 1);
            store.all().enqueue_relay(0, 1, 3, 700, 2);
            let view = store.pair(0, 1);
            assert_eq!(view.level_bytes(2), 20_000 + 1_815);
            assert_eq!(view.relayed_bytes(), 1_815);
            assert_eq!(view.elephant_backlog(), 20_000);
            // Drain the elephant remainder, then the first relayed segment.
            let mut out = Vec::new();
            store.all().dequeue_packets_into(0, 1, 1_115, 28, &mut out);
            assert_eq!(out.iter().map(|p| p.bytes).sum::<u64>(), 30_000);
            let p = store.all().dequeue_lowest_packet(0, 1, 1_115).unwrap();
            assert_eq!((p.flow, p.bytes, p.relayed), (2, 1_115, true));
            let view = store.pair(0, 1);
            assert_eq!((view.relayed_bytes(), view.elephant_backlog()), (700, 0));
            assert!(store.pair(0, 0).is_empty());
            store.audit(0, |dst, bytes| assert_eq!(bytes, [0, 700][dst]));
        }
    }

    #[test]
    fn a_window_owns_its_sources_rows_and_arenas() {
        let mut store = PairQueues::new(4, 4, true);
        {
            let (mut low, mut high) = store.all().split_at(1);
            low.enqueue_flow(0, 3, 1, 20_000, 0, true, TH);
            high.enqueue_flow(1, 0, 2, 500, 0, true, TH);
            let (_, mut last) = high.split_at(2);
            last.enqueue_flow(3, 2, 3, 20_000, 5, true, TH);
            assert_eq!(last.dequeue_packet(3, 2, 1_115).unwrap().flow, 3);
        }
        assert_eq!(store.pair(0, 3).total_bytes(), 20_000);
        assert_eq!(store.pair(1, 0).total_bytes(), 500);
        assert_eq!(store.pair(3, 2).elephant_backlog(), 10_000);
        assert_eq!(store.segments_allocated(2), 0);
        for src in 0..4 {
            store.audit(src, |_, _| {});
        }
    }
}
