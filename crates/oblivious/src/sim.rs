//! The rotor + VLB engine.
//!
//! Time is a sequence of identical timeslots; in slot `t` the fabric is
//! configured to round-robin match `t mod R` (same pattern functions as
//! NegotiaToR's predefined phase), so every ToR pair connects once per
//! round of `R` slots per port. There is no control plane: each ToR just
//! transmits whatever it has queued for the neighbor the rotor currently
//! offers.
//!
//! Valiant Load Balancing: arriving data is *sprayed* across intermediates.
//! Mice-level bytes (PIAS levels 0/1) are bound per packet to a uniformly
//! random intermediate; bulk bytes (level 2) are bound per bundle of
//! [`ObliviousConfig`]`::bundle_chunks` packets. A chunk reaching its
//! intermediate is queued in that ToR's per-final-destination relay FIFO —
//! *no priority there* (§4.1: prioritization applies at sources only),
//! which is how relayed elephants end up blocking mice in the middle of
//! the network.
//!
//! Congestion control (the paper notes traffic-oblivious designs need one
//! "to avoid buffer overflow at intermediate ToRs"): relay buffers are
//! shallow and per-pair; a source withholds first-hop traffic toward an
//! intermediate whose buffer for that final destination is full. The
//! resulting head-of-line stalls and wasted slots are precisely the
//! "relayed traffic competes for bandwidth" degradation of §2.
//!
//! Within a slot a source serves, in order: bound mice packets for this
//! neighbor, then alternates between second-hop relay forwarding and
//! first-hop bulk injection — FIFO-fair competition between the two hops,
//! which is what caps heavy-load goodput near the worst case.
//!
//! The fabric offers `n · S` connections every slot, but a connection
//! whose pair has nothing queued — no bound segment at any level, no relay
//! FIFO entry — wastes its slot without touching any state. So the rotor
//! visits only the connections whose lane bit is set
//! ([`topology::LaneTable`], the live-lane masks the negotiator's
//! predefined phase walks): a pair is marked where one of its four queues
//! turns non-empty, and a lane is cleared by the visit that finds all four
//! empty. The walk keeps the `(src, port)` order of a pass over every
//! connection, so credits taken and returned within a slot interleave as
//! they always did; [`RotorStats`] counts the visits.
//!
//! The data path is one [`sim::pairs::PairLists`] with four lists per pair,
//! the store the negotiator's queues use: at pair `(src, via)`, lists 0–2
//! are the bound PIAS levels a source holds for intermediate `via`, and
//! list 3 is the relay FIFO intermediate `src` holds for final destination
//! `via`. A visit to connection `src → via` reads all four at one computed
//! pair index, so row `src` owns them and their 16-byte segment slots in
//! one arena: a segment is its flow id, final destination and length, 32
//! bits each, plus the arena's link. A flow id is 32 bits because
//! [`FlowTrace::new`] refuses a trace whose dense ids would not fit; it is
//! widened only where a delivery reaches the tracker. A pair that never
//! queues anything costs 32 B of zeroed heads and tails; queue memory
//! follows the segments actually queued.
//! In-flight relay credits (`relay_claim`) stay a dense table, and the
//! debug builds check at every phase snapshot that each equals its relay
//! FIFO's bytes plus the first hops still in flight toward it, and that
//! the running backlog count equals what the lists hold.

use crate::config::ObliviousConfig;
use metrics::{EpochEngine, FlowTracker, PhaseCounters, RunFrame, RunReport};
use sim::pairs::PairLists;
use sim::time::Nanos;
use sim::{BandwidthSeries, Xoshiro256};
use std::ops::{Deref, DerefMut};
use topology::{AnyTopology, LaneTable, PredefinedLanes, Topology, TopologyKind};
use workload::{Flow, FlowTrace};

/// A data unit bound to a VLB intermediate, waiting at the source — or,
/// landed there, waiting in the intermediate's relay FIFO.
#[derive(Debug, Clone, Copy)]
struct BoundSeg {
    flow: u32,
    final_dst: u32,
    bytes: u32,
}

/// Lists per pair: PIAS levels 0/1 (mice, sprayed per packet) and 2 (bulk,
/// per bundle; without PQ only it is used), then the relay FIFO.
const LISTS: usize = 4;
const BULK: usize = 2;
const RELAY: usize = 3;

const _: () = assert!(PairLists::<BoundSeg, LISTS>::SLOT_BYTES == 16);

/// A chunk in flight on its first hop, to intermediate `to`.
#[derive(Debug, Clone, Copy)]
struct Inflight {
    to: u32,
    seg: BoundSeg,
}

const _: () = assert!(std::mem::size_of::<Inflight>() == 16);

/// Recording options for the baseline.
#[derive(Debug, Clone, Default)]
pub struct ObliviousRecording {
    /// Per-destination final-delivery bandwidth series window.
    pub rx_window: Option<Nanos>,
    /// Per-destination transit (first-hop arrivals) series window —
    /// Figure 18's light-grey dots.
    pub transit_window: Option<Nanos>,
}

/// Deterministic work counters of a run: what the rotor looked at, and
/// what came of it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RotorStats {
    /// Connections the slot walk stopped at (lane bit set), down links
    /// included.
    pub conns_visited: u64,
    /// Visits that put a packet on the wire (mice, relay or bulk).
    pub packets_sent: u64,
    /// Visits that sent nothing because the only queued data was bulk
    /// whose relay buffer at the intermediate was full.
    pub credit_blocked: u64,
}

/// A rotor connection whose lane bit is set.
#[derive(Debug, Clone, Copy, Default)]
struct LiveConn {
    src: u32,
    via: u32,
    lane: u32,
}

/// What a rotor connection's visit came to.
enum Visit {
    /// One packet left.
    Sent,
    /// Nothing left, but bulk waits behind a full relay buffer.
    Blocked,
    /// All four of the pair's queues are empty.
    Idle,
}

/// The data path: everything a connection's visit reads or moves. Kept
/// apart from the lane masks so the slot walk can hold both.
struct RotorQueues {
    n: usize,
    payload: u64,
    /// Per (src, via): the three priority FIFOs of segments bound at `src`
    /// to intermediate `via`, and the relay FIFO `src` forwards to final
    /// destination `via` (see the module docs).
    lists: PairLists<BoundSeg, LISTS>,
    /// Bytes on every pair's lists: the backlog a phase snapshot reports,
    /// kept as segments come and go (a walk of the lists at each of 24
    /// snapshots cost a saturated 128-ToR run 12 % of its epochs per second
    /// on a 2-core host).
    queued: u64,
    /// Per (intermediate, final): queued + in-flight relay bytes, checked
    /// by the sender-side admission control (credits). Only bulk waits for
    /// credit; mice are sent regardless, so a claim can exceed the relay
    /// buffer (`relay_pair_packets × payload`) and is kept as 64 bits.
    relay_claim: Vec<u64>,
    /// Alternation bit per (src, via): relay-first vs inject-first.
    alt: Vec<bool>,
    /// First-hop chunks in flight, indexed by arrival slot.
    inflight: Vec<Vec<Inflight>>,
    rx_final: Vec<BandwidthSeries>,
}

/// The traffic-oblivious simulator.
pub struct ObliviousSim {
    cfg: ObliviousConfig,
    n: usize,
    round: usize,
    slot_len: Nanos,

    q: RotorQueues,
    /// Lane masks of the rotor connections whose pair `(src, via)` may
    /// have something queued on one of its lists — a superset, cleared
    /// lazily — which is all the slot walk visits.
    live: LaneTable,
    /// The live connections of the slot being played: `n · S` entries,
    /// overwritten from the front every slot.
    conns: Vec<LiveConn>,
    /// Reused landing buffer, swapped against the in-flight ring slots.
    landing: Vec<Inflight>,
    stats: RotorStats,

    /// The run state and loop shared with the negotiator engine. The
    /// rotor has no failure detection — a down link simply wastes its
    /// slots (data stays queued at the sender), the §2 degradation
    /// scenario timelines exercise — and no control plane, so of the fault
    /// families only the link-state ones (flap, partition) have any
    /// effect, and its trace carries `phase`, `fault` and flow-span events
    /// only.
    frame: RunFrame,

    rx_transit: Vec<BandwidthSeries>,
    rng: Xoshiro256,
    /// Each pair's in-flight first hops, as `debug_verify_mirrors` sums
    /// them: kept between snapshots so the check allocates nothing.
    #[cfg(debug_assertions)]
    audit_claimed: std::cell::Cell<Vec<u64>>,
    /// Test oracle: mark every lane before each tick, which makes the
    /// slot walk the pass over every connection.
    #[cfg(test)]
    dense: bool,
    /// Test oracle: walk every live flow's spans at every traced slot, the
    /// quiet ones included (`EpochEngine::full_span_walk`).
    #[cfg(test)]
    full_walk: bool,
}

impl Deref for ObliviousSim {
    type Target = RunFrame;
    fn deref(&self) -> &RunFrame {
        &self.frame
    }
}

impl DerefMut for ObliviousSim {
    fn deref_mut(&mut self) -> &mut RunFrame {
        &mut self.frame
    }
}

impl ObliviousSim {
    /// Build the baseline over `cfg` on `kind` (the paper runs it on
    /// thin-clos; performance is identical on the parallel network).
    pub fn new(cfg: ObliviousConfig, kind: TopologyKind) -> Self {
        Self::with_recording(cfg, kind, ObliviousRecording::default())
    }

    /// Build with bandwidth-series recording enabled.
    pub fn with_recording(
        cfg: ObliviousConfig,
        kind: TopologyKind,
        rec: ObliviousRecording,
    ) -> Self {
        let topo = AnyTopology::build(kind, cfg.net.clone());
        let n = cfg.net.n_tors;
        let round = topo.predefined_slots();
        let slot_len = cfg.slot_len();
        let payload = cfg.payload();
        assert!(
            payload * cfg.bundle_chunks as u64 <= u32::MAX as u64,
            "a bundle of {} packets of {payload} B overflows a segment's 32-bit length",
            cfg.bundle_chunks
        );
        // Ring buffer deep enough for transmission + propagation.
        let depth = 2 + ((cfg.net.propagation_delay + slot_len) / slot_len) as usize;
        let series = |window: Option<Nanos>| match window {
            Some(w) => (0..n).map(|_| BandwidthSeries::new(w)).collect(),
            None => Vec::new(),
        };
        ObliviousSim {
            n,
            round,
            slot_len,
            q: RotorQueues {
                n,
                payload,
                lists: PairLists::new(n, n),
                queued: 0,
                relay_claim: vec![0; n * n],
                alt: vec![false; n * n],
                inflight: vec![Vec::new(); depth],
                rx_final: series(rec.rx_window),
            },
            live: LaneTable::new(PredefinedLanes::new(&topo), n),
            conns: vec![LiveConn::default(); n * cfg.net.n_ports],
            landing: Vec::new(),
            stats: RotorStats::default(),
            frame: RunFrame::new(&cfg.net),
            rx_transit: series(rec.transit_window),
            rng: Xoshiro256::new(cfg.seed),
            cfg,
            #[cfg(debug_assertions)]
            audit_claimed: Default::default(),
            #[cfg(test)]
            dense: false,
            #[cfg(test)]
            full_walk: false,
        }
    }

    /// Slot length in ns.
    pub fn slot_len(&self) -> Nanos {
        self.slot_len
    }

    /// One all-to-all rotor round in ns.
    pub fn round_len(&self) -> Nanos {
        self.round as Nanos * self.slot_len
    }

    /// Final-delivery bandwidth series of `dst` (requires recording).
    pub fn rx_final(&self, dst: usize) -> Option<&BandwidthSeries> {
        self.q.rx_final.get(dst)
    }

    /// Transit-arrival bandwidth series of `dst` (requires recording).
    pub fn rx_transit(&self, dst: usize) -> Option<&BandwidthSeries> {
        self.rx_transit.get(dst)
    }

    /// Bytes of the first hops in flight: sent by a source, not yet landed
    /// at their intermediate. Neither delivered nor in any queue's backlog.
    pub fn inflight_bytes(&self) -> u64 {
        let chunks = self.q.inflight.iter().flatten();
        chunks.map(|c| c.seg.bytes as u64).sum()
    }

    /// The run's work counters so far.
    pub fn stats(&self) -> RotorStats {
        self.stats
    }

    /// Segment slots the ToRs' arenas hold, queued and free together — the
    /// high-water count of segments each ToR has had queued at once, summed
    /// — and the bytes those slots take.
    pub fn segment_arenas(&self) -> (usize, usize) {
        let lists = &self.q.lists;
        let slots = (0..self.n).map(|row| lists.slots_allocated(row)).sum();
        let bytes = (0..self.n).map(|row| lists.arena_bytes(row)).sum();
        (slots, bytes)
    }

    /// Pick a uniform random intermediate other than `src` (the final
    /// destination is allowed — that fraction is effectively direct).
    fn pick_via(&mut self, src: usize) -> usize {
        let mut via = self.rng.index(self.n - 1);
        if via >= src {
            via += 1;
        }
        via
    }

    /// Queue `bytes` of `flow` at priority `level`, bound to a random
    /// intermediate.
    fn bind(&mut self, src: usize, level: usize, flow: u32, dst: usize, bytes: u64) {
        let via = self.pick_via(src);
        let seg = BoundSeg {
            flow,
            final_dst: dst as u32,
            // At most a bundle: fits, checked at construction.
            bytes: bytes as u32,
        };
        if self.q.push(src, via, level, seg) {
            self.live.mark(src, via);
        }
    }

    fn enqueue_flow(&mut self, flow: u32, src: usize, dst: usize, bytes: u64) {
        let payload = self.q.payload;
        let bundle = payload * self.cfg.bundle_chunks as u64;
        // Bytes of the flow at each level, and the unit they are sprayed
        // in: the first KB and the next 9 KB per packet, the bulk per
        // bundle; without PQ everything is bulk.
        let levels = if self.cfg.priority_queues {
            let th = self.cfg.pias_thresholds();
            [
                (bytes.min(th[0]), payload),
                (bytes.saturating_sub(th[0]).min(th[1] - th[0]), payload),
                (bytes.saturating_sub(th[1]), bundle),
            ]
        } else {
            [(0, payload), (0, payload), (bytes, bundle)]
        };
        for (level, (mut rest, unit)) in levels.into_iter().enumerate() {
            while rest > 0 {
                let take = rest.min(unit);
                self.bind(src, level, flow, dst, take);
                rest -= take;
            }
        }
    }

    /// Play `trace` for `duration` ns and report.
    pub fn run(&mut self, trace: &FlowTrace, duration: Nanos) -> RunReport {
        metrics::frame::run(self, trace, duration)
    }

    /// Debug-build check of the data path at a phase snapshot: every
    /// ToR's arena holds each slot on exactly one list or the free list
    /// ([`PairLists::audit`]), the lane masks cover every pair with
    /// anything queued, the backlog mirror is what the lists hold, and each
    /// relay credit equals the bytes in its relay FIFO plus the first hops
    /// in flight toward it.
    #[cfg(debug_assertions)]
    fn debug_verify_mirrors(&self) {
        let n = self.n;
        let bytes = |seg: &BoundSeg| seg.bytes as u64;
        let mut queued = 0;
        let mut claimed = self.audit_claimed.take();
        claimed.clear();
        claimed.resize(n * n, 0);
        for c in self.q.inflight.iter().flatten() {
            claimed[c.to as usize * n + c.seg.final_dst as usize] += c.seg.bytes as u64;
        }
        for src in 0..n {
            self.q.lists.audit(src);
            for via in 0..n {
                let lists = self.q.lists.pair(src, via);
                if !lists.is_empty() {
                    debug_assert!(
                        self.live.is_marked(src, via),
                        "queued pair ({src}, {via}) is missing a lane bit"
                    );
                }
                queued += (0..LISTS)
                    .flat_map(|l| lists.iter(l))
                    .map(bytes)
                    .sum::<u64>();
                let pair = src * n + via;
                let relay: u64 = lists.iter(RELAY).map(bytes).sum();
                debug_assert_eq!(
                    self.q.relay_claim[pair],
                    claimed[pair] + relay,
                    "relay credit of ({src}, {via}) is not its queued + in-flight bytes"
                );
            }
        }
        debug_assert_eq!(self.q.queued, queued, "backlog mirror drifted");
        self.audit_claimed.set(claimed);
    }

    #[cfg(test)]
    fn mark_all(&mut self) {
        for src in 0..self.n {
            for via in 0..self.n {
                self.live.mark(src, via);
            }
        }
    }
}

impl RotorQueues {
    /// Append `seg` to `list` of pair `(src, via)`; true when the list
    /// turned non-empty.
    #[inline]
    fn push(&mut self, src: usize, via: usize, list: usize, seg: BoundSeg) -> bool {
        self.queued += seg.bytes as u64;
        self.lists.push_back(src, via, list, seg)
    }

    /// Unlink the head of `list` of pair `(src, via)`.
    #[inline]
    fn pop(&mut self, src: usize, via: usize, list: usize) -> Option<BoundSeg> {
        let seg = self.lists.pop_front(src, via, list)?;
        self.queued -= seg.bytes as u64;
        Some(seg)
    }

    /// Transmit at most one packet on the rotor connection `src → via`.
    fn serve_slot(
        &mut self,
        src: usize,
        via: usize,
        arrive: Nanos,
        arrive_slot: usize,
        per_pair_cap: u64,
        tracker: &mut FlowTracker,
    ) -> Visit {
        let pair = src * self.n + via;
        // 1. Bound mice packets for this neighbor (levels 0, then 1).
        for level in 0..2 {
            // Mice ignore the relay cap: their volume is negligible and
            // Sirius-style flow control reserves headroom for them.
            if let Some(seg) = self.pop(src, via, level) {
                self.send_hop1(via, seg, arrive, arrive_slot, tracker);
                return Visit::Sent;
            }
        }
        // 2. Alternate second-hop forwarding with first-hop bulk injection.
        let relay_first = self.alt[pair];
        for attempt in 0..2 {
            let do_relay = relay_first ^ (attempt == 1);
            if do_relay {
                if let Some(seg) = self.pop(src, via, RELAY) {
                    let bytes = seg.bytes as u64;
                    let claim = &mut self.relay_claim[pair];
                    assert!(*claim >= bytes, "relay credit of ({src}, {via}) under-run");
                    *claim -= bytes;
                    self.deliver_final(via, seg.flow, bytes, arrive, tracker);
                    self.alt[pair] = false; // injection's turn next
                    return Visit::Sent;
                }
            } else {
                // First-hop bulk injection, subject to the relay credit of
                // the (via, final) buffer.
                if let Some(mut head) = self.lists.front_mut(src, via, BULK) {
                    let seg = *head;
                    let rc = via * self.n + seg.final_dst as usize;
                    let direct = seg.final_dst as usize == via;
                    if direct || self.relay_claim[rc] + self.payload <= per_pair_cap {
                        // Send one packet off the head segment.
                        let take = (seg.bytes as u64).min(self.payload) as u32;
                        head.bytes -= take;
                        if head.bytes == 0 {
                            head.pop();
                        }
                        self.queued -= take as u64;
                        let chunk = BoundSeg { bytes: take, ..seg };
                        self.send_hop1(via, chunk, arrive, arrive_slot, tracker);
                        self.alt[pair] = true; // relay's turn next
                        return Visit::Sent;
                    }
                    // Head-of-line blocked by a full relay buffer: fall
                    // through to the other side of the alternation.
                }
            }
        }
        // Slot wasted — rotor quantization at work. The mice levels and
        // the relay FIFO had nothing, or a packet would have left, so the
        // pair is idle unless bulk waits.
        if self.lists.pair(src, via).is_empty() {
            Visit::Idle
        } else {
            Visit::Blocked
        }
    }

    fn send_hop1(
        &mut self,
        via: usize,
        seg: BoundSeg,
        arrive: Nanos,
        arrive_slot: usize,
        tracker: &mut FlowTracker,
    ) {
        if seg.final_dst as usize == via {
            // The random intermediate happened to be the destination:
            // effectively a direct one-hop delivery.
            self.deliver_final(via, seg.flow, seg.bytes as u64, arrive, tracker);
            return;
        }
        self.relay_claim[via * self.n + seg.final_dst as usize] += seg.bytes as u64;
        self.inflight[arrive_slot].push(Inflight {
            to: via as u32,
            seg,
        });
    }

    fn deliver_final(
        &mut self,
        dst: usize,
        flow: u32,
        bytes: u64,
        at: Nanos,
        tracker: &mut FlowTracker,
    ) {
        tracker.deliver(u64::from(flow), bytes, at);
        if let Some(series) = self.rx_final.get_mut(dst) {
            series.record(at, bytes);
        }
    }
}

impl EpochEngine for ObliviousSim {
    /// One rotor timeslot.
    fn tick_len(&self) -> Nanos {
        self.slot_len
    }

    /// Backlog covers bound segments at sources and relay FIFOs at
    /// intermediates, in flight the first hops of the in-flight ring;
    /// grants and accepts stay zero — the rotor never negotiates.
    fn phase_counters(&self) -> PhaseCounters {
        #[cfg(debug_assertions)]
        self.debug_verify_mirrors();
        PhaseCounters {
            backlog_bytes: self.q.queued,
            in_flight_bytes: self.inflight_bytes(),
            ..PhaseCounters::default()
        }
    }

    #[cfg(test)]
    fn full_span_walk(&self) -> bool {
        self.full_walk
    }

    // lint: hot-path
    fn tick(
        &mut self,
        t: u64,
        now: Nanos,
        flows: &[Flow],
        mut cursor: usize,
        tracker: &mut FlowTracker,
    ) -> usize {
        let n = self.n;
        let depth = self.q.inflight.len();
        let prop = self.cfg.net.propagation_delay;
        let per_pair_cap = self.cfg.relay_pair_packets as u64 * self.q.payload;
        #[cfg(test)]
        if self.dense {
            self.mark_all();
        }
        // Inject flows due by this slot.
        while cursor < flows.len() && flows[cursor].arrival <= now {
            let f = flows[cursor];
            // Lossless: a trace's ids are below `workload::MAX_FLOWS`.
            self.enqueue_flow(f.id as u32, f.src, f.dst, f.bytes);
            cursor += 1;
        }
        let masks = &mut self.live;
        // Land first-hop chunks whose flight ends at this slot (the
        // landing buffer is swapped, not reallocated, each slot). Only a
        // FIFO turning non-empty marks: the bits of a FIFO that already
        // holds something are set.
        let mut landing = std::mem::take(&mut self.landing);
        landing.clear();
        std::mem::swap(&mut landing, &mut self.q.inflight[(t as usize) % depth]);
        for c in &landing {
            let (to, d) = (c.to as usize, c.seg.final_dst as usize);
            // lint: allow(H001) reuses a freed arena slot; the arena grows only at a new backlog high
            if self.q.push(to, d, RELAY, c.seg) {
                masks.mark(to, d);
            }
            if let Some(series) = self.rx_transit.get_mut(to) {
                series.record(now, c.seg.bytes as u64);
            }
        }
        landing.clear();
        self.landing = landing;

        let arrive = now + self.slot_len + prop;
        let arrive_slot =
            (t as usize + (self.slot_len + prop).div_ceil(self.slot_len) as usize) % depth;
        let slot = (t % self.round as u64) as usize;
        let any_failed = !self.frame.failures.healthy();
        // Gather the slot's live connections, in (src, port) order — the
        // rotor never rotates its round-robin rule, and at rotation 0 a
        // connection's lane is its egress port. Nothing the visits do
        // marks a lane — a first hop goes to the in-flight ring, a second
        // hop to the tracker — so the list holds every connection whose
        // visit could change state. Gathering first keeps the visits a
        // loop over a flat list, whose next queues the core can fetch
        // while it waits on this one's: walking the masks between visits
        // cost the heavy-load run 10 %.
        let sched = masks.lanes();
        let width = sched.width();
        let conns = &mut self.conns[..];
        let mut found = 0;
        for src in 0..n {
            let group = masks.group(src, slot);
            if masks.is_idle(group) {
                continue;
            }
            let origin = sched.origin(slot, src);
            // Every lane of a live group is written; a clear one is
            // overwritten by the next (no branch on the mask's bits).
            for lane in 0..width {
                conns[found] = LiveConn {
                    src: src as u32,
                    via: sched.dst(origin, lane) as u32,
                    lane: lane as u32,
                };
                found += usize::from(masks.is_set(group, lane));
            }
        }
        let mut stats = self.stats;
        stats.conns_visited += found as u64;
        for conn in &conns[..found] {
            let (src, via, lane) = (conn.src as usize, conn.via as usize, conn.lane as usize);
            // A down fiber silently wastes the slot; the rotor has no
            // feedback channel to learn about it. Whatever is queued stays
            // queued, and the lane stays set.
            if any_failed && !self.frame.failures.link_up(src, via, lane) {
                continue;
            }
            match self
                .q
                .serve_slot(src, via, arrive, arrive_slot, per_pair_cap, tracker)
            {
                Visit::Sent => stats.packets_sent += 1,
                Visit::Blocked => stats.credit_blocked += 1,
                // The pair's other connection of the round, if any, clears
                // its own bit.
                Visit::Idle => masks.clear(masks.group(src, slot), lane),
            }
        }
        self.stats = stats;
        cursor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::NetworkConfig;
    use workload::{Flow, FlowTrace, IncastWorkload};

    fn small_cfg() -> ObliviousConfig {
        ObliviousConfig::paper_default(NetworkConfig::small_for_tests())
    }

    fn single_flow(bytes: u64) -> FlowTrace {
        FlowTrace::new(vec![Flow {
            id: 0,
            src: 0,
            dst: 5,
            bytes,
            arrival: 0,
        }])
    }

    /// The quiet-slot span walk against the full walk, which `full_walk`
    /// makes every traced slot take: both topologies, Hadoop at 90 % and
    /// 20 % load plus an incast burst, a failed-link window, PIAS on and off, and a
    /// 1 024-event ring that overwrites. Same trace bytes.
    #[test]
    fn quiet_span_walk_matches_the_full_walk() {
        use metrics::trace::FlightRecorder;
        use topology::FaultAction;
        use workload::{FlowSizeDist, PoissonWorkload, WorkloadSpec};

        for kind in [TopologyKind::Parallel, TopologyKind::ThinClos] {
            for (pias, load, capacity) in [
                (true, 0.9, 1 << 20),
                (false, 0.2, 1 << 20),
                (true, 0.9, 1_024),
            ] {
                let play = |full_walk: bool| {
                    let net = NetworkConfig {
                        n_tors: 16,
                        n_ports: 4,
                        ..NetworkConfig::small_for_tests()
                    };
                    let mut cfg = ObliviousConfig::paper_default(net);
                    cfg.priority_queues = pias;
                    let mut sim = ObliviousSim::new(cfg, kind);
                    sim.full_walk = full_walk;
                    sim.set_recorder(FlightRecorder::with_capacity(capacity, 16));
                    let fail = FaultAction::FailRandom {
                        ratio: 0.1,
                        seed: 3,
                    };
                    sim.schedule_fault(40_000, fail);
                    sim.schedule_fault(100_000, FaultAction::RepairAll);
                    let hadoop = PoissonWorkload::new(WorkloadSpec {
                        dist: FlowSizeDist::hadoop(),
                        load,
                        n_tors: 16,
                        host_bps: sim.cfg.net.host_bandwidth.bps(),
                    })
                    .generate(400_000, 7);
                    let incast = IncastWorkload {
                        degree: 12,
                        flow_bytes: 1_000,
                        n_tors: 16,
                        start: 50_000,
                    }
                    .generate(5);
                    sim.run(&hadoop.merge(incast), 500_000);
                    let rec = sim.take_recorder().unwrap();
                    (rec.dropped(), rec.render_ndjson("oblivious"))
                };
                let (quiet, full) = (play(false), play(true));
                let case = format!("{kind:?} pias {pias} load {load} capacity {capacity}");
                assert_eq!(quiet.0 > 0, capacity == 1_024, "{case}: drops");
                assert!(quiet == full, "{case}: traces differ");
            }
        }
    }

    #[test]
    fn mice_flow_takes_two_hops() {
        let mut s = ObliviousSim::new(small_cfg(), TopologyKind::ThinClos);
        let round = s.round_len();
        let prop = 2_000;
        let trace = single_flow(500);
        s.run(&trace, 1_000_000);
        let fct = s.tracker().fct(&trace.flows()[0]).expect("must complete");
        // Two propagation delays are unavoidable; two round waits bound it.
        assert!(fct >= 2 * prop, "fct {fct} must include two hops");
        assert!(fct <= 2 * (round + prop) + 10_000, "fct {fct} too slow");
    }

    #[test]
    fn elephant_completes() {
        for kind in [TopologyKind::ThinClos, TopologyKind::Parallel] {
            let mut s = ObliviousSim::new(small_cfg(), kind);
            let r = s.run(&single_flow(500_000), 10_000_000);
            assert_eq!(r.all.completed, 1, "{kind:?}");
        }
    }

    #[test]
    fn incast_grows_mildly_with_degree() {
        let finish = |degree: usize| {
            let trace = IncastWorkload {
                degree,
                flow_bytes: 1_000,
                n_tors: 16,
                start: 10_000,
            }
            .generate(3);
            let mut s = ObliviousSim::new(small_cfg(), TopologyKind::ThinClos);
            s.run(&trace, 5_000_000);
            RunReport::burst_finish_time(&trace, s.tracker()).expect("completes")
        };
        let f2 = finish(2);
        let f14 = finish(14);
        assert!(f14 >= f2, "more senders cannot finish faster");
    }

    #[test]
    fn deterministic_per_seed() {
        let trace = single_flow(50_000);
        let fct = |seed: u64| {
            let mut cfg = small_cfg();
            cfg.seed = seed;
            let mut s = ObliviousSim::new(cfg, TopologyKind::ThinClos);
            s.run(&trace, 5_000_000);
            s.tracker().fct(&trace.flows()[0])
        };
        assert_eq!(fct(4), fct(4));
    }

    #[test]
    fn no_pq_blocks_mice_behind_elephants() {
        // Same trace with and without PQ: an elephant enqueued just before
        // a mice flow to the same destination.
        let trace = FlowTrace::new(vec![
            Flow {
                id: 0,
                src: 0,
                dst: 5,
                bytes: 3_000_000,
                arrival: 0,
            },
            Flow {
                id: 1,
                src: 0,
                dst: 5,
                bytes: 500,
                arrival: 100,
            },
        ]);
        let run = |pq: bool| {
            let mut cfg = small_cfg();
            cfg.priority_queues = pq;
            let mut s = ObliviousSim::new(cfg, TopologyKind::ThinClos);
            s.run(&trace, 100_000_000);
            s.tracker()
                .fct(&trace.flows()[1])
                .expect("mice must finish")
        };
        let with_pq = run(true);
        let without_pq = run(false);
        assert!(
            without_pq > 2 * with_pq,
            "PQ should protect mice: with {with_pq}, without {without_pq}"
        );
    }

    #[test]
    fn relay_credit_is_conserved() {
        // After everything drains, all claims must return to zero.
        let trace = single_flow(200_000);
        let mut s = ObliviousSim::new(small_cfg(), TopologyKind::ThinClos);
        s.run(&trace, 50_000_000);
        assert_eq!(s.tracker().completed_count(), 1);
        assert!(s.q.relay_claim.iter().all(|&c| c == 0), "claims leaked");
        let n = s.n;
        assert!((0..n * n).all(|pair| s.q.lists.pair(pair / n, pair % n).is_empty()));
    }

    /// Mice are sent without the credit check, so a relay claim is not
    /// bounded by the relay buffer: a mice incast piles more first hops on
    /// a `(via, final)` pair than `relay_pair_packets` packets. The credit
    /// law holds all the same — every claim is its relay FIFO's bytes plus
    /// the first hops in flight toward it.
    #[test]
    fn mice_overrun_the_relay_buffer_but_keep_the_credit_law() {
        let mut cfg = small_cfg();
        cfg.relay_pair_packets = 4;
        let cap = cfg.relay_pair_packets as u64 * cfg.payload();
        let trace = IncastWorkload {
            degree: 15,
            flow_bytes: 9_000,
            n_tors: 16,
            start: 0,
        }
        .generate(7);
        assert_eq!(trace.mice_count(), 15);
        let mut s = ObliviousSim::new(cfg, TopologyKind::ThinClos);
        let horizon = 3 * s.round_len();
        s.run(&trace, horizon);
        let n = s.n;
        let final_dst = trace.flows()[0].dst;
        let (pair, claim) = (0..n * n)
            .map(|pair| (pair, s.q.relay_claim[pair]))
            .max_by_key(|&(_, claim)| claim)
            .unwrap();
        assert_eq!(
            pair % n,
            final_dst,
            "only the incast's destination is relayed to"
        );
        assert!(
            claim > cap,
            "the burst must overrun the {cap} B relay buffer; the largest claim is {claim} B"
        );
        let mut law = vec![0u64; n * n];
        for c in s.q.inflight.iter().flatten() {
            law[c.to as usize * n + c.seg.final_dst as usize] += c.seg.bytes as u64;
        }
        for (pair, owed) in law.iter_mut().enumerate() {
            let relay = s.q.lists.pair(pair / n, pair % n);
            *owed += relay.iter(RELAY).map(|seg| seg.bytes as u64).sum::<u64>();
            assert_eq!(s.q.relay_claim[pair], *owed, "relay credit of pair {pair}");
        }
    }

    /// A segment's length is 32 bits; a bundle that cannot fit is refused
    /// up front instead of truncated flow by flow.
    #[test]
    #[should_panic(expected = "overflows a segment's 32-bit length")]
    fn oversized_bundle_is_refused_at_construction() {
        let mut cfg = small_cfg();
        cfg.bundle_chunks = u32::MAX / 1_000;
        ObliviousSim::new(cfg, TopologyKind::ThinClos);
    }

    #[test]
    fn transit_series_sees_relay_traffic() {
        let mut s = ObliviousSim::with_recording(
            small_cfg(),
            TopologyKind::ThinClos,
            ObliviousRecording {
                rx_window: Some(10_000),
                transit_window: Some(10_000),
            },
        );
        s.run(&single_flow(100_000), 20_000_000);
        let transit_total: u64 = (0..16)
            .map(|d| {
                s.rx_transit(d)
                    .unwrap()
                    .bytes_per_window()
                    .iter()
                    .sum::<u64>()
            })
            .sum();
        assert!(transit_total > 0, "VLB must generate transit traffic");
        let final_total: u64 = (0..16)
            .map(|d| {
                s.rx_final(d)
                    .unwrap()
                    .bytes_per_window()
                    .iter()
                    .sum::<u64>()
            })
            .sum();
        assert_eq!(final_total, 100_000);
    }
}

/// The live-lane walk against the pass over every connection: with every
/// lane marked before each tick (`dense`) the rotor visits all `n · S`
/// connections of the slot, as it did before it had masks to consult.
#[cfg(test)]
mod dense_oracle_tests {
    use super::*;
    use metrics::{PhaseProbe, PhaseSnapshot};
    use proptest::prelude::*;
    use topology::failures::LinkDir;
    use topology::{FaultAction, FlapTargets, NetworkConfig, PartitionSpec};
    use workload::{FlowSizeDist, MixedWorkload, WorkloadSpec};

    const DURATION: Nanos = 160_000;

    /// 16×4 on both topologies; parallel 70×4, where the pairs at offsets
    /// 1 and 2 meet twice a round and the last slot's group is partly
    /// unconnected; thin-clos 24×12, whose groups take two mask bytes.
    const FABRICS: [(TopologyKind, usize, usize); 4] = [
        (TopologyKind::ThinClos, 16, 4),
        (TopologyKind::Parallel, 16, 4),
        (TopologyKind::Parallel, 70, 4),
        (TopologyKind::ThinClos, 24, 12),
    ];

    /// What makes one case: the traffic, the relay buffer depth (shallow
    /// ones credit-block) and when the links misbehave.
    #[derive(Debug, Clone, Copy)]
    struct Case {
        seed: u64,
        load: f64,
        incast_degree: usize,
        relay_pair_packets: u32,
        fault_at: Nanos,
    }

    type Played = (
        RunReport,
        Vec<Option<Nanos>>,
        Vec<PhaseSnapshot>,
        RotorStats,
    );

    fn play(case: Case, fabric: (TopologyKind, usize, usize), pq: bool, dense: bool) -> Played {
        let (kind, n_tors, n_ports) = fabric;
        let net = NetworkConfig {
            n_tors,
            n_ports,
            ..NetworkConfig::small_for_tests()
        };
        let (trace, _) = MixedWorkload {
            background: WorkloadSpec {
                dist: FlowSizeDist::hadoop(),
                load: case.load,
                n_tors,
                host_bps: net.host_bandwidth.bps(),
            },
            incast_degree: case.incast_degree,
            incast_flow_bytes: 20_000,
            incast_load: 0.2,
        }
        .generate(DURATION / 2, case.seed);
        let mut cfg = ObliviousConfig::paper_default(net);
        cfg.priority_queues = pq;
        cfg.relay_pair_packets = case.relay_pair_packets;
        cfg.seed = case.seed;
        let mut sim = ObliviousSim::new(cfg, kind);
        sim.dense = dense;
        // A link failed mid-run and repaired, a flap and a partition.
        let at = case.fault_at;
        let link = FaultAction::FailLink {
            tor: case.seed as usize % n_tors,
            port: (case.seed >> 8) as usize % n_ports,
            dir: LinkDir::Egress,
        };
        sim.schedule_fault(at, link);
        sim.schedule_fault(at + 30_000, FaultAction::RepairAll);
        let flap = FaultAction::FlapStart {
            targets: FlapTargets::Random {
                ratio: 0.2,
                seed: case.seed,
            },
            up: 2_000,
            down: 3_000,
        };
        sim.schedule_fault(at + 10_000, flap);
        sim.schedule_fault(at + 50_000, FaultAction::FlapStop);
        let split = PartitionSpec::Random {
            groups: 2,
            seed: case.seed,
        };
        sim.schedule_fault(at + 40_000, FaultAction::Partition(split));
        sim.schedule_fault(at + 60_000, FaultAction::Heal);
        // Snapshots run the lane-mask invariant check in this (debug) build.
        sim.set_phase_probe(PhaseProbe::new((1..8).map(|k| k * DURATION / 8).collect()));
        let report = sim.run(&trace, DURATION);
        let done = (0..trace.len() as u64)
            .map(|id| sim.tracker().completion(id))
            .collect();
        let snaps = sim.phase_probe().unwrap().snapshots().to_vec();
        (report, done, snaps, sim.stats())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Same report, same completion time of every flow, same backlog
        /// at every snapshot, same packets sent and credit stalls — from
        /// fewer visits.
        #[test]
        fn live_walk_matches_the_dense_walk(
            seed in any::<u64>(),
            load in 0.1f64..1.2,
            incast_degree in 2usize..15,
            relay_pair_packets in 2u32..100,
            fault_at in 5_000u64..80_000,
        ) {
            let case = Case { seed, load, incast_degree, relay_pair_packets, fault_at };
            for fabric in FABRICS {
                for pq in [true, false] {
                    let live = play(case, fabric, pq, false);
                    let dense = play(case, fabric, pq, true);
                    prop_assert!(live.0.all.completed > 0, "{fabric:?}: nothing completed");
                    prop_assert!(live.0 == dense.0, "{fabric:?} pq {pq}: reports differ");
                    prop_assert!(live.1 == dense.1, "{fabric:?} pq {pq}: completions differ");
                    prop_assert_eq!(&live.2, &dense.2, "{:?} pq {}: snapshots", fabric, pq);
                    let (l, d) = (live.3, dense.3);
                    prop_assert_eq!(l.packets_sent, d.packets_sent);
                    prop_assert_eq!(l.credit_blocked, d.credit_blocked);
                    prop_assert!(
                        l.conns_visited < d.conns_visited,
                        "{fabric:?}: {} live visits, {} dense", l.conns_visited, d.conns_visited
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod topology_equivalence_tests {
    use super::*;
    use topology::NetworkConfig;
    use workload::{FlowSizeDist, PoissonWorkload, WorkloadSpec};

    /// §4.1: "Its relay-enabled round-robin scheduling cannot utilize the
    /// sufficient connectivity of the parallel networks, resulting in
    /// identical performance on both topologies." The rotor schedule and
    /// VLB spreading see only neighbor sequences, so the two topologies
    /// should deliver near-identical aggregate results.
    #[test]
    fn baseline_performs_alike_on_both_topologies() {
        let duration = 400_000;
        let trace = PoissonWorkload::new(WorkloadSpec {
            dist: FlowSizeDist::hadoop(),
            load: 0.8,
            n_tors: 16,
            host_bps: 200_000_000_000,
        })
        .generate(duration, 31);
        let run = |kind: TopologyKind| {
            let mut s = ObliviousSim::new(
                ObliviousConfig::paper_default(NetworkConfig::small_for_tests()),
                kind,
            );
            let r = s.run(&trace, duration);
            r.goodput.delivered_bytes
        };
        let thin = run(TopologyKind::ThinClos) as f64;
        let par = run(TopologyKind::Parallel) as f64;
        let ratio = par / thin;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "goodput should match across topologies: parallel/thin = {ratio:.3}"
        );
    }
}
