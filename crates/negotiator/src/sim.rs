//! The NegotiaToR epoch engine: a deterministic, slot-synchronous
//! packet-level simulator of the full architecture (§3).
//!
//! One call to [`NegotiatorSim::run`] plays a flow trace through the
//! two-phase epochs of Figure 2:
//!
//! * **Epoch start** — the three pipelined scheduling steps (Figure 4):
//!   ACCEPT consumes the grants delivered during the previous epoch and
//!   fixes this epoch's scheduled-phase matching; GRANT consumes the
//!   requests delivered during the previous epoch; REQUEST reads the
//!   per-destination queues. Each step's outgoing messages ride this
//!   epoch's predefined phase and are consumed one epoch later, giving the
//!   ≈2-epoch scheduling delay of §3.3.1.
//! * **Predefined phase** — round-robin all-to-all timeslots carrying
//!   scheduling messages, dummy/feedback messages (fault detection,
//!   §3.6.1) and one piggybacked data packet per connected pair (§3.4.1).
//! * **Scheduled phase** — the accepted matches transmit packets from the
//!   per-destination queues until the epoch ends or the queues empty.
//!
//! Collisions are impossible by construction (GRANT serializes each ingress
//! port, ACCEPT each egress port); integration tests assert this against
//! `topology::validate_matching` anyway.
//!
//! # Where the code lives
//!
//! The run loop — clock, fault timeline, phase probe, flight
//! recorder, report — is [`metrics::frame`], shared with the oblivious
//! engine; this file supplies the epoch ([`EpochEngine::tick`]). Every
//! phase has exactly one body. The per-ToR ones live in `sim/parallel.rs`:
//! ACCEPT, GRANT, REQUEST and the batched scheduled phase as single passes
//! over the fabric, and the predefined phase in row-window form, run at
//! whatever shard count `SimOptions::workers` asks for, one shard
//! included. In the scheduled phase each matched queue drains as one
//! batch, split only at its own pair's arrivals, and the batch leaves as
//! segment runs — a queue's head segment, or as much of it as the batch
//! has room for — each landed as one delivery instead of one per packet.
//! What stays here is the selective-relay steps and their slot-major
//! scheduled phase (a relayed packet joins another ToR's queue mid-phase,
//! once it has landed there), iterative matching, and the detector's
//! reading of the dummies (`observe_epoch`).
//!
//! Failures change what the predefined phase's dummies report (§3.6.1),
//! not which connections carry messages and data: one predefined phase
//! runs in every epoch, and the dummies are a pass of their own.
//!
//! The state is grouped by who touches it, which is what lets a phase
//! borrow exactly its share: `SrcQueues` (the per-source data path, a
//! shard owns its rows), `Outbox` (scheduling messages written at epoch
//! start, read-only during the predefined phase) and `Landing` (where
//! cross-ToR effects arrive). An epoch's work tracks its traffic, not the
//! fabric's `n²` pairs: REQUEST walks a per-source bitmap of non-empty
//! queues, the predefined phase walks per-`(src, slot)` masks of
//! the connections whose pair has backlog or messages
//! ([`topology::LaneTable`], over the closed-form schedule inverse
//! [`topology::PredefinedLanes`]),
//! ACCEPT builds a dense active-match list the scheduled phase iterates,
//! and scheduling messages are found through a flags byte per pair. The
//! queues are [`crate::queues::PairQueues`] — per pair list heads in
//! zero-initialized tables, the segments in one arena per source ToR — so
//! a queued segment costs an arena slot, reused once it drains. The hot
//! path is allocation-free in steady state: every per-epoch buffer is
//! reused, the predefined phase's shards are fixed at construction, and an
//! arena grows only when its source's backlog reaches a new high in
//! segments. `tests/scale.rs` (`steady_state_epochs_allocate_nothing`)
//! holds a saturated run of 400 epochs to the bytes of one of 200.
//! `tests/golden_report.rs` holds the engine to committed golden reports.
//!
//! # Per-pair bytes
//!
//! What a pair costs whether or not it ever holds data is one budget, and
//! a table no reader in the configured mode uses is not built. Per
//! ordered ToR pair, construction allocates:
//!
//! * in every mode, 33 B: the queue list heads and tails (24), the
//!   `queue_bytes` mirror (8) and `msg_flags` (1) — a request in `Base`
//!   and `Iterative` is the `REQ_FLAG` bit alone;
//! * in `DataSize`, `HolDelay`, `Stateful` and `Projector`, the modes
//!   whose GRANT reads a request's value, `Outbox::req` (8);
//! * in `Projector`, `Outbox::req_port` (2, a `u16` port binding);
//! * in `Stateful`, `enqueued_total` and `reported_total` (8 + 8) and a
//!   `DemandMatrix` row entry (8);
//! * under selective relay, the per-pair elephant backlog (8). Its relay
//!   messages are per-ToR lists, and its per-port tables — the backlog
//!   sums (8), `active_relay` (32) and `port_granted` (1) — are built
//!   under relay alone.
//!
//! A traced run adds `metrics::trace::FlowSpans`' 12 B. Everything else
//! is per ToR or per port. `tests/scale.rs`
//! (`pair_tables_fit_one_budget_per_mode`) holds each configuration to
//! its sum. The budget is on allocated bytes, not resident memory: the
//! tables are zero-initialized, and whether an untouched zero page is
//! resident is up to the allocator. Fresh pages cost nothing until
//! written, but a process that builds engines more than once (the
//! benchmark's warm passes, `paper serve`, sweeps) gets reused memory
//! back, zeroes it, and so makes every page of every table resident.
//!
//! The engine also hosts the Appendix A.2 design variants via
//! [`SchedulerMode`] and [`SimOptions::selective_relay`] — only the
//! scheduling logic changes, never the data path, mirroring the paper's
//! methodology. Two deliberate simulation simplifications: flows are
//! injected at timeslot granularity (the paper's packet simulator injects
//! continuously; a timeslot is 60–90 ns), and the stateful variant's
//! accept-feedback reaches the demand matrix one epoch early (the revert
//! path is exercised identically).

use crate::config::NegotiatorConfig;
use crate::fault::FaultDetector;
use crate::matching::{Accept, AcceptArbiter, Grant, GrantArbiter};
use crate::queues::{Packet, PairQueues, PairRows, Run, PRIORITY_LEVELS};
use crate::stats::SchedStats;
use crate::theory::PIPELINE_DELAY_EPOCHS;
use crate::variants::greedy;
use crate::variants::informative;
use crate::variants::iterative::IterativeMatcher;
use crate::variants::projector;
use crate::variants::relay::{self, RelayBuffer, RelayPolicy, RelayRequest};
use crate::variants::stateful::DemandMatrix;
use metrics::{
    trace::{FlightRecorder, FlowSpans, TraceCursor},
    EpochEngine, FlowTracker, MatchRatioRecorder, PhaseCounters, RunFrame, RunReport,
};
use sim::shard::Shard;
use sim::time::Nanos;
use sim::{BandwidthSeries, Xoshiro256};
use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};
use topology::{
    AnyTopology, LaneMasks, LaneTable, LinkFailures, PredefinedLanes, ThinClos, Topology,
    TopologyKind,
};
use workload::{Flow, FlowTrace};

pub use topology::inject::FaultAction;

mod parallel;
use parallel::{Event, Sink, SlotClock};

/// Which scheduling logic runs on top of the common data path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedulerMode {
    /// NegotiaToR Matching as published (§3.2).
    Base,
    /// Appendix A.2.1: iterative matching with `rounds` request/grant/accept
    /// rounds; each extra round delays activation by three epochs.
    Iterative {
        /// Number of matching rounds (1 = equivalent delay to `Base`).
        rounds: usize,
    },
    /// Appendix A.2.3, goodput-oriented: requests carry queue sizes.
    DataSize,
    /// Appendix A.2.3, FCT-oriented: requests carry weighted HoL delays.
    HolDelay {
        /// Mice/elephant weighting (paper's best: 0.001).
        alpha: f64,
    },
    /// Appendix A.2.4: destinations keep demand matrices.
    Stateful,
    /// Appendix A.2.5: ProjecToR-style per-port, delay-prioritized requests.
    Projector,
}

impl SchedulerMode {
    /// Whether GRANT reads a value off each request. NegotiaToR Matching
    /// computes from binary demand (§3.2), so `Base` and `Iterative`
    /// requests are a presence bit alone.
    fn requests_carry_values(self) -> bool {
        !matches!(self, SchedulerMode::Base | SchedulerMode::Iterative { .. })
    }
}

/// Engine options beyond the paper-default configuration.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Scheduling logic.
    pub mode: SchedulerMode,
    /// Traffic-aware selective relay (thin-clos only, Appendix A.2.2).
    pub selective_relay: bool,
    /// Record per-destination receive-bandwidth series with this window
    /// (Appendix A.3 micro-observations); `None` disables.
    pub rx_window: Option<Nanos>,
    /// Record the network-wide delivery series with this window
    /// (fault-tolerance bandwidth plots); `None` disables.
    pub total_rx_window: Option<Nanos>,
    /// §3.6.5 receiver-side traffic management: model the ToR→host
    /// downlink with a bounded receive buffer of this many bytes. The
    /// buffer drains at the host-aggregate rate; while it is more than
    /// half full the ToR withholds grants (backpressure), so fabric
    /// speedup cannot overrun ToR memory. `None` (the paper's evaluation
    /// setting) treats ToRs as sinks.
    pub host_buffer_bytes: Option<u64>,
    /// Intra-run worker threads for the predefined phase (`--workers`).
    /// ToRs are partitioned into contiguous shards (`sim::shard`), the
    /// phase body runs once per shard and the shards' effects replay in
    /// the order of one pass, so any value — including the default `1`,
    /// one shard on the caller's thread — produces byte-identical reports,
    /// selective relay included. A determinism check, not a speed-up: two
    /// workers have mostly been measured slower than one
    /// (`sim/parallel.rs`).
    pub workers: usize,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            mode: SchedulerMode::Base,
            selective_relay: false,
            rx_window: None,
            total_rx_window: None,
            host_buffer_bytes: None,
            workers: 1,
        }
    }
}

/// A request as seen by the destination after the predefined phase.
#[derive(Debug, Clone, Copy)]
struct ReqIn {
    src: usize,
    /// Mode-specific priority value (bytes, weighted delay, new bytes…).
    value: f64,
    /// Pre-bound port for `Projector`; `usize::MAX` otherwise.
    port: usize,
}

/// Per-pair outgoing-message presence bits (`msg_flags`): the predefined
/// phase reads one byte per connection instead of probing the request
/// array and three bucket vectors.
const REQ_FLAG: u8 = 1;
const GRANT_FLAG: u8 = 2;
const RELAY_REQ_FLAG: u8 = 4;
const RELAY_GRANT_FLAG: u8 = 8;

/// One entry of the per-epoch active-transmission list: a `(src, port)`
/// slot that will transmit during the scheduled phase. Direct matches
/// carry their destination; relay slots are looked up in `active_relay`
/// (their remaining volume mutates mid-phase).
#[derive(Debug, Clone, Copy)]
struct ActiveTx {
    /// `src * n_ports + port`.
    slot: u32,
    /// Destination ToR for direct matches (unused for relay slots).
    dst: u32,
    /// True when the slot carries a relay grant instead of a match.
    relay: bool,
}

/// A selective-relay first hop on its way to the intermediate `via`: sent
/// in a scheduled slot, it lands at `at` — the slot's end plus propagation
/// — and joins `via`'s queue toward `final_dst` at the first injection
/// point at or after that.
#[derive(Debug, Clone, Copy)]
struct FirstHop {
    at: Nanos,
    via: u32,
    final_dst: u32,
    flow: u64,
    bytes: u64,
}

/// Reusable per-epoch buffers: every `Vec` the scheduling steps used to
/// allocate afresh each epoch lives here instead, cleared and reused so
/// steady-state epochs perform no heap allocation.
#[derive(Debug, Default)]
struct SimScratch {
    /// Swapped against `inbox_grants[src]` in ACCEPT.
    grants_in: Vec<(Grant, u64)>,
    /// Grant messages stripped of their stateful debit.
    grants: Vec<Grant>,
    /// ACCEPT output.
    accepts: Vec<Accept>,
    /// Swapped against `inbox_requests[dst]` in GRANT.
    reqs: Vec<ReqIn>,
    /// Requesting sources (base/stateful GRANT input).
    srcs: Vec<usize>,
    /// GRANT output pairs.
    grant_pairs: Vec<(usize, usize)>,
    /// GRANT's requester bitmap over ToR ids, clear between destinations
    /// ([`GrantArbiter::grant_into`]).
    grant_marks: Vec<u64>,
    /// Mutable request values (informative GRANT).
    vals: Vec<(usize, f64)>,
    /// Per-port usable subset of `vals`.
    usable_vals: Vec<(usize, f64)>,
    /// Projector port requests.
    preqs: Vec<projector::PortRequest>,
    /// The ports that serve a matched queue in the scheduled phase,
    /// ascending.
    ports: Vec<usize>,
    /// `up[q]`: how many of `ports[..q]` have their link up (`m + 1`
    /// entries).
    up: Vec<usize>,
    /// Mid-phase arrivals of the matched pairs: `(src, dst, index)` into
    /// the phase's flows, sorted.
    arrivals: Vec<(u32, u32, u32)>,
    /// One source's queued bytes per destination, as
    /// `debug_verify_mirrors` walks them.
    #[cfg(debug_assertions)]
    audit_queued: Vec<u64>,
}

/// The per-source data path: every ToR's per-destination queues with the
/// mirrors and buffers that move with them. Row-major by source, so a
/// shard owns a contiguous window of each array — and its sources' segment
/// arenas ([`SrcRows`]). Every per-pair table here is zero-initialized:
/// nothing is written to it at construction.
struct SrcQueues {
    n: usize,
    s: usize,
    /// PIAS priority queues on, and their demotion thresholds.
    pias: bool,
    pias_th: [u64; 2],
    /// The queues themselves: per-pair list heads (src * n + dst) over one
    /// segment arena per source ([`crate::queues`]), with the direct
    /// elephant backlog per pair under selective relay.
    pairs: PairQueues,
    /// Lifetime enqueued bytes (src * n + dst): what a `Stateful` request
    /// reports the growth of. That mode only, else empty.
    enqueued_total: Vec<u64>,
    /// Dense mirror of every queue's total bytes (src * n + dst), updated
    /// on each enqueue/dequeue: REQUEST and the piggyback probe read this
    /// contiguous array instead of the queues' lists, which keep no totals.
    queue_bytes: Vec<u64>,
    /// Words per source in `nonempty`.
    words: usize,
    /// Non-empty bitmap: bit `dst % 64` of word `src * words + dst / 64`
    /// is set exactly while `queue_bytes > 0`. What REQUEST and the
    /// backlog counters walk instead of all `n²` mirrors.
    nonempty: Vec<u64>,
    /// Lane masks of the connections whose pair has backlog or outgoing
    /// messages — what the predefined phase walks. A pair is marked when
    /// its queue turns non-empty or a `msg_flags` bit is raised, and a
    /// lane cleared only by the visit that finds nothing left — in a
    /// failure epoch too, where a down or gray link leaves the pair its
    /// backlog and flags and so its bit.
    lane_masks: LaneTable,
    /// Per-port direct-backlog sums (selective relay only, else empty):
    /// tor * s + port, maintained incrementally so the relay steps'
    /// busy-port checks are O(1) instead of O(n).
    backlog_by_port: Vec<u64>,
    /// The thin-clos fabric whose closed-form pair port indexes
    /// `backlog_by_port` (selective relay only).
    relay_fabric: Option<ThinClos>,
    relay_buffers: Vec<RelayBuffer>,
}

/// A window of [`SrcQueues`] covering the source rows of one shard — the
/// whole fabric for whole-fabric code ([`SrcQueues::all`]). Everything
/// that moves bytes in or out of a queue goes through here, so the mirrors
/// and relay buffers cannot drift from the queues they shadow.
struct SrcRows<'a> {
    shard: Shard,
    n: usize,
    s: usize,
    pias: bool,
    pias_th: [u64; 2],
    pairs: PairRows<'a>,
    enqueued_total: &'a mut [u64],
    queue_bytes: &'a mut [u64],
    words: usize,
    nonempty: &'a mut [u64],
    lane_masks: LaneMasks<'a>,
    backlog_by_port: &'a mut [u64],
    relay_fabric: Option<&'a ThinClos>,
    relay_buffers: &'a mut [RelayBuffer],
}

impl SrcQueues {
    fn all(&mut self) -> SrcRows<'_> {
        SrcRows {
            shard: Shard {
                start: 0,
                end: self.n,
            },
            n: self.n,
            s: self.s,
            pias: self.pias,
            pias_th: self.pias_th,
            pairs: self.pairs.all(),
            enqueued_total: &mut self.enqueued_total,
            queue_bytes: &mut self.queue_bytes,
            words: self.words,
            nonempty: &mut self.nonempty,
            lane_masks: self.lane_masks.all(),
            backlog_by_port: &mut self.backlog_by_port,
            relay_fabric: self.relay_fabric.as_ref(),
            relay_buffers: &mut self.relay_buffers,
        }
    }

    /// Destinations `src` holds bytes for, ascending.
    fn live_dsts(&self, src: usize) -> impl Iterator<Item = usize> + '_ {
        topology::lanes::ones(&self.nonempty[src * self.words..(src + 1) * self.words])
    }

    /// Bytes queued at `src`, all destinations together.
    fn backlog_of(&self, src: usize) -> u64 {
        self.live_dsts(src)
            .map(|dst| self.queue_bytes[src * self.n + dst])
            .sum()
    }

    /// One window per shard, in shard order, each split off as it is
    /// taken. `shards` must tile `[0, n)` contiguously ascending, as
    /// `sim::shard::partition` guarantees.
    fn windows<'a>(&'a mut self, shards: &'a [Shard]) -> impl Iterator<Item = SrcRows<'a>> + 'a {
        assert_eq!(
            shards.last().map_or(0, |s| s.end),
            self.n,
            "shards must cover every source"
        );
        shards.iter().scan(Some(self.all()), |rest, shard| {
            let rows = rest.take()?;
            assert_eq!(shard.start, rows.shard.start, "shards must be contiguous");
            let (head, tail) = rows.split_at(shard.len());
            *rest = Some(tail);
            Some(head)
        })
    }
}

impl<'a> SrcRows<'a> {
    fn split_at(self, rows: usize) -> (SrcRows<'a>, SrcRows<'a>) {
        let mid = self.shard.start + rows;
        // The mode-only tables are empty outside their mode.
        let port_rows = (rows * self.s).min(self.backlog_by_port.len());
        let enqueued_rows = (rows * self.n).min(self.enqueued_total.len());
        let (pairs, pairs_rest) = self.pairs.split_at(rows);
        let (enqueued, enqueued_rest) = self.enqueued_total.split_at_mut(enqueued_rows);
        let (bytes, bytes_rest) = self.queue_bytes.split_at_mut(rows * self.n);
        let (nonempty, nonempty_rest) = self.nonempty.split_at_mut(rows * self.words);
        let (lanes, lanes_rest) = self.lane_masks.split_at(rows);
        let (backlog, backlog_rest) = self.backlog_by_port.split_at_mut(port_rows);
        let (buffers, buffers_rest) = self.relay_buffers.split_at_mut(rows);
        let head = SrcRows {
            shard: Shard {
                start: self.shard.start,
                end: mid,
            },
            pairs,
            enqueued_total: enqueued,
            queue_bytes: bytes,
            nonempty,
            lane_masks: lanes,
            backlog_by_port: backlog,
            relay_buffers: buffers,
            ..self
        };
        let tail = SrcRows {
            shard: Shard {
                start: mid,
                end: self.shard.end,
            },
            pairs: pairs_rest,
            enqueued_total: enqueued_rest,
            queue_bytes: bytes_rest,
            nonempty: nonempty_rest,
            lane_masks: lanes_rest,
            backlog_by_port: backlog_rest,
            relay_buffers: buffers_rest,
            ..self
        };
        (head, tail)
    }

    #[inline]
    fn row(&self, src: usize, dst: usize) -> usize {
        (src - self.shard.start) * self.n + dst
    }

    /// Word index and mask of the pair's bit in the non-empty bitmap.
    #[inline]
    fn nonempty_bit(&self, src: usize, dst: usize) -> (usize, u64) {
        (
            (src - self.shard.start) * self.words + dst / 64,
            1 << (dst % 64),
        )
    }

    /// Enqueue every flow of `flows[cursor..]` that has arrived by `now`
    /// and whose source lies in this window; flows of other shards'
    /// sources are skipped (their shard enqueues them). Returns the
    /// advanced cursor.
    fn inject(&mut self, flows: &[Flow], mut cursor: usize, now: Nanos) -> usize {
        while cursor < flows.len() && flows[cursor].arrival <= now {
            let f = &flows[cursor];
            cursor += 1;
            if (self.shard.start..self.shard.end).contains(&f.src) {
                self.enqueue(f);
            }
        }
        cursor
    }

    /// Queue every first hop of `hops[cursor..]` that has landed by `now`
    /// at its intermediate, when that lies in this window; other shards'
    /// intermediates are skipped (their shard queues them). `hops` is in
    /// landing order. Returns the advanced cursor.
    fn land(&mut self, hops: &[FirstHop], mut cursor: usize, now: Nanos) -> usize {
        while let Some(h) = hops.get(cursor).filter(|h| h.at <= now) {
            cursor += 1;
            let (via, final_dst) = (h.via as usize, h.final_dst as usize);
            if (self.shard.start..self.shard.end).contains(&via) {
                self.pairs
                    .enqueue_relay(via, final_dst, h.flow, h.bytes, h.at);
                self.note_enqueue(via, final_dst, h.bytes);
            }
        }
        cursor
    }

    /// Enqueue flow `f`, whose source lies in this window.
    fn enqueue(&mut self, f: &Flow) {
        self.pairs.enqueue_flow(
            f.src,
            f.dst,
            f.id,
            f.bytes,
            f.arrival,
            self.pias,
            self.pias_th,
        );
        if !self.enqueued_total.is_empty() {
            let row = self.row(f.src, f.dst);
            self.enqueued_total[row] += f.bytes;
        }
        self.note_enqueue(f.src, f.dst, f.bytes);
    }

    /// Mirror an enqueue into the dense byte counts, the live-pair state
    /// (a queue turning non-empty) and (selective relay) the per-port
    /// direct-backlog cache.
    #[inline]
    fn note_enqueue(&mut self, src: usize, dst: usize, bytes: u64) {
        let row = self.row(src, dst);
        if self.queue_bytes[row] == 0 && bytes > 0 {
            let (word, bit) = self.nonempty_bit(src, dst);
            self.nonempty[word] |= bit;
            self.lane_masks.mark(src, dst);
        }
        self.queue_bytes[row] += bytes;
        if let Some(i) = self.backlog_slot(src, dst) {
            self.backlog_by_port[i] += bytes;
        }
    }

    /// The `backlog_by_port` entry that pair `src → dst`'s direct backlog
    /// counts toward (selective relay only): its closed-form thin-clos
    /// port. A self pair has no port and counts toward port 0.
    #[inline]
    fn backlog_slot(&self, src: usize, dst: usize) -> Option<usize> {
        let port = self.relay_fabric?.pair_port(src, dst).unwrap_or(0);
        Some((src - self.shard.start) * self.s + port)
    }

    /// Account `bytes` that left queue `src → dst`; `relayed` of them came
    /// out of `src`'s relay buffer. See [`Self::note_enqueue`].
    #[inline]
    fn note_dequeue(&mut self, src: usize, dst: usize, bytes: u64, relayed: u64) {
        let row = self.row(src, dst);
        self.queue_bytes[row] -= bytes;
        if self.queue_bytes[row] == 0 {
            // The lane masks clear lazily, at the pair's next visit.
            let (word, bit) = self.nonempty_bit(src, dst);
            self.nonempty[word] &= !bit;
        }
        if let Some(i) = self.backlog_slot(src, dst) {
            self.backlog_by_port[i] -= bytes;
        }
        if relayed > 0 {
            self.relay_buffers[src - self.shard.start].release(relayed);
        }
    }

    #[inline]
    fn sent(&mut self, src: usize, dst: usize, pkt: Option<Packet>) -> Option<Packet> {
        let pkt = pkt?;
        self.note_dequeue(src, dst, pkt.bytes, if pkt.relayed { pkt.bytes } else { 0 });
        Some(pkt)
    }

    /// Debug and test builds: the segment `src → dst` sends next from
    /// `level` (its highest non-empty one for `None`) was enqueued by `now`,
    /// the start of the slot it leaves in. A relayed packet joins its
    /// intermediate's queue when it lands, so it cannot leave before.
    #[inline]
    fn check_departure(&self, src: usize, dst: usize, level: Option<usize>, now: Nanos) {
        if cfg!(any(test, debug_assertions)) {
            let pair = self.pairs.pair(src, dst);
            let head = level.or_else(|| pair.first_level());
            if let Some(at) = head.and_then(|l| pair.hol_enqueued(l)) {
                assert!(
                    at <= now,
                    "a segment of {src} → {dst} enqueued at {at} ns leaves in a slot starting at {now} ns"
                );
            }
        }
    }

    /// Dequeue one packet of at most `cap` payload bytes from `src → dst`,
    /// highest priority first, in a slot that starts at `now`.
    #[inline]
    fn dequeue_packet(&mut self, src: usize, dst: usize, cap: u64, now: Nanos) -> Option<Packet> {
        self.check_departure(src, dst, None, now);
        let pkt = self.pairs.dequeue_packet(src, dst, cap);
        self.sent(src, dst, pkt)
    }

    /// Dequeue one packet of the source's own lowest-priority data for a
    /// relay first hop, in a slot that starts at `now`
    /// ([`PairRows::dequeue_relay_packet`]).
    fn dequeue_relay_packet(
        &mut self,
        src: usize,
        dst: usize,
        cap: u64,
        now: Nanos,
    ) -> Option<Packet> {
        self.check_departure(src, dst, Some(PRIORITY_LEVELS - 1), now);
        let pkt = self.pairs.dequeue_relay_packet(src, dst, cap);
        self.sent(src, dst, pkt)
    }

    /// Dequeue the head segment of `src → dst`'s highest non-empty level
    /// as one run of at most `room` packets of at most `cap` payload bytes
    /// ([`PairRows::dequeue_run`]).
    #[inline]
    fn dequeue_run(&mut self, src: usize, dst: usize, cap: u64, room: usize) -> Option<Run> {
        let run = self.pairs.dequeue_run(src, dst, cap, room)?;
        self.note_dequeue(src, dst, run.bytes, if run.relayed { run.bytes } else { 0 });
        Some(run)
    }

    /// A first hop toward intermediate `via` is sent: its bytes hold room
    /// in `via`'s relay buffer from now until they are forwarded.
    fn admit_relay(&mut self, via: usize, bytes: u64) {
        self.relay_buffers[via - self.shard.start].admit(bytes);
    }

    /// One scheduled-slot transmission of the direct match `src → dst` on
    /// `port` in scheduled slot `k`, which starts at `now`.
    #[inline]
    #[allow(clippy::too_many_arguments)] // one packet's full coordinates
    fn serve_direct_slot(
        &mut self,
        failures: &LinkFailures,
        src: usize,
        port: usize,
        dst: usize,
        k: usize,
        now: Nanos,
        cap: u64,
        stats: &mut SchedStats,
        sink: &mut Sink<'_>,
    ) {
        if let Some(pkt) = self.dequeue_packet(src, dst, cap, now) {
            if failures.link_up(src, dst, port) {
                stats.scheduled_packets += 1;
                stats.scheduled_bytes += pkt.bytes;
                stats.scheduled_deliveries += 1;
                sink.emit(Event::Data {
                    slot: k as u32,
                    dst: dst as u32,
                    flow: pkt.flow,
                    bytes: pkt.bytes,
                });
            } else {
                stats.lost_packets += 1;
                stats.lost_bytes += pkt.bytes;
            }
        } else {
            stats.overscheduled_slots += 1;
        }
    }
}

/// Pipeline outboxes: the scheduling messages each ToR computed at epoch
/// start, waiting for their predefined connection. Presence is a bit in
/// `NegotiatorSim::msg_flags`, so a connection looks only at what its pair
/// has: the request value, and its share of the sender's short message
/// lists — a ToR grants at most one source per ingress port, an
/// intermediate at most one relay per port, and a source asks at most two
/// intermediates per qualifying destination. Each list is per ToR in push
/// order and read filtered by peer. The per-pair tables are built only in
/// the modes whose GRANT reads them (the module doc's budget); elsewhere
/// they are empty and a request carries the `REQ_FLAG` bit alone.
struct Outbox {
    n: usize,
    req: Vec<f64>,      // src * n + dst (live iff REQ_FLAG set); valued modes only
    req_port: Vec<u16>, // likewise; `Projector` only, `u16::MAX` = unbound
    grants: Vec<Vec<(u32, u32, u64)>>, // per granter, push order: (requester, port, debit)
    relay_reqs: Vec<Vec<RelayRequest>>, // per source, push order (selective relay only)
    relay_grants: Vec<Vec<(u32, u32, u32, u64)>>, // per via: (requester, port, final, vol)
}

/// Where cross-ToR effects arrive: the inboxes the next epoch start
/// consumes, and the delivery bookkeeping of the destination ToRs.
/// [`Landing::apply`] is the one definition of what each effect does.
struct Landing {
    inbox_requests: Vec<Vec<ReqIn>>,                         // per dst
    inbox_grants: Vec<Vec<(Grant, u64)>>,                    // per src: (grant, stateful debit)
    inbox_relay_req: Vec<Vec<RelayRequest>>,                 // per via
    inbox_relay_grant: Vec<Vec<(usize, usize, usize, u64)>>, // per src: (via, port, final, vol)
    /// §3.6.5 receiver-side buffers (empty unless `host_buffer_bytes` set).
    rx_buffer: Vec<u64>,
    rx_series: Vec<BandwidthSeries>,
    total_rx: Option<BandwidthSeries>,
}

/// The full NegotiaToR simulator.
pub struct NegotiatorSim {
    cfg: NegotiatorConfig,
    topo: AnyTopology,
    opts: SimOptions,
    /// The run state and loop shared with the oblivious engine:
    /// ground-truth links and their schedules, probe, recorder, tracker.
    frame: RunFrame,

    // Derived constants.
    n: usize,
    s: usize,
    pre_slots: usize,
    pre_slot_len: Nanos,
    epoch_len: Nanos,
    pb_payload: u64,
    sched_payload: u64,
    /// Bytes one port can move in one scheduled phase (grant debit unit).
    epoch_capacity: u64,

    // Per-ToR state.
    q: SrcQueues,
    grant_arbs: Vec<GrantArbiter>,
    accept_arbs: Vec<AcceptArbiter>,

    // The message pipeline: outboxes filled at epoch start and drained by
    // the predefined phase into the landing inboxes, consumed next epoch
    // start.
    out: Outbox,
    land: Landing,
    msg_flags: Vec<u8>,        // src * n + dst: REQ/GRANT/RELAY_* presence
    req_dirty: Vec<u32>,       // indices with REQ_FLAG set this epoch
    grant_dirty: Vec<u32>,     // non-empty grant buckets, cleared per epoch
    relay_req_dirty: Vec<u32>, // likewise for the relay buckets
    relay_grant_dirty: Vec<u32>,
    port_granted: Vec<bool>, // granter * s + port (relay leftover-port check); relay only
    active: Vec<Option<usize>>, // src * s + port -> dst
    /// Dense (src, port)-ordered transmissions of this epoch's scheduled
    /// phase — what the phase iterates instead of all `n · s` slots.
    active_list: Vec<ActiveTx>,

    // Variant state.
    matrices: Vec<DemandMatrix>, // stateful (empty otherwise)
    reported_total: Vec<u64>,    // src * n + dst: bytes already reported (stateful only)
    iter_pending: VecDeque<Vec<Vec<Accept>>>, // iterative activation queue
    relay_policy: RelayPolicy,
    relay_reqs_in: Vec<RelayRequest>, // swapped against `inbox_relay_req[via]`
    relay_grants_in: Vec<(usize, usize, usize, u64)>, // against `inbox_relay_grant[src]`
    active_relay: Vec<Option<(usize, usize, u64)>>, // src*s+port -> (via, final, vol left); relay only
    /// Relay first hops sent but not yet queued at their intermediate, in
    /// landing order; their bytes are the run's `in_flight_bytes`.
    first_hops: Vec<FirstHop>,

    detector: FaultDetector,

    host_drain_per_epoch: u64,

    // Metrics.
    match_rec: MatchRatioRecorder,
    stats: SchedStats,

    /// The per-epoch buffers of the whole-fabric phases.
    scratch: SimScratch,
    /// The predefined phase's shards and their lanes (merge queues,
    /// counters), fixed at construction and retained across epochs.
    par: parallel::ParState,
    /// Test oracle: mark every lane at each epoch start, which makes the
    /// predefined phase visit every connection of the round.
    #[cfg(test)]
    dense: bool,
    /// Test oracle: run every scheduled phase through the slot-major walk
    /// that selective relay uses, instead of the batched body.
    #[cfg(test)]
    slot_major: bool,
    /// Test oracle: walk every live flow's spans at every traced epoch,
    /// the quiet ones included (`EpochEngine::full_span_walk`).
    #[cfg(test)]
    full_walk: bool,
}

impl Deref for NegotiatorSim {
    type Target = RunFrame;
    fn deref(&self) -> &RunFrame {
        &self.frame
    }
}

impl DerefMut for NegotiatorSim {
    fn deref_mut(&mut self) -> &mut RunFrame {
        &mut self.frame
    }
}

impl NegotiatorSim {
    /// Paper-default simulator over `cfg` on `kind`.
    pub fn new(cfg: NegotiatorConfig, kind: TopologyKind) -> Self {
        Self::with_options(cfg, kind, SimOptions::default())
    }

    /// Simulator with explicit options (variants, recording).
    pub fn with_options(cfg: NegotiatorConfig, kind: TopologyKind, opts: SimOptions) -> Self {
        let topo = AnyTopology::build(kind, cfg.net.clone());
        if opts.selective_relay {
            assert_eq!(
                kind,
                TopologyKind::ThinClos,
                "selective relay targets the thin-clos topology (Appendix A.2.2)"
            );
        }
        let n = cfg.net.n_tors;
        let s = cfg.net.n_ports;
        let pre_slots = topo.predefined_slots();
        let mut rng = Xoshiro256::new(cfg.seed);
        let grant_arbs = (0..n)
            .map(|d| GrantArbiter::new(&topo, d, &mut rng))
            .collect();
        let accept_arbs = (0..n)
            .map(|t| AcceptArbiter::new(&topo, t, &mut rng))
            .collect();
        let sched_payload = cfg.scheduled_payload();
        let epoch_capacity = sched_payload * cfg.epoch.scheduled_slots as u64;
        let epoch_len = cfg.epoch.epoch_len(pre_slots);
        let stateful = matches!(opts.mode, SchedulerMode::Stateful);
        let selective_relay = opts.selective_relay;
        let relay_fabric = match &topo {
            AnyTopology::ThinClos(fabric) if selective_relay => Some(fabric.clone()),
            _ => None,
        };
        let relay_tors = if selective_relay { n } else { 0 };
        let relay_ports = relay_tors * s;
        let projector = matches!(opts.mode, SchedulerMode::Projector);
        assert!(
            !projector || s < u16::MAX as usize,
            "Projector binds ports as u16: {s} ports"
        );
        let pairs_if = |built: bool| if built { n * n } else { 0 };
        let words = n.div_ceil(64);
        NegotiatorSim {
            frame: RunFrame::new(&cfg.net),
            n,
            s,
            pre_slots,
            pre_slot_len: cfg.epoch.predefined_slot(),
            epoch_len,
            pb_payload: cfg.piggyback_payload().max(1),
            sched_payload: sched_payload.max(1),
            epoch_capacity,
            q: SrcQueues {
                n,
                s,
                pias: cfg.priority_queues,
                pias_th: cfg.pias_thresholds(),
                pairs: PairQueues::new(n, n, selective_relay),
                enqueued_total: vec![0; pairs_if(stateful)],
                queue_bytes: vec![0; n * n],
                words,
                nonempty: vec![0; n * words],
                lane_masks: LaneTable::new(PredefinedLanes::new(&topo), n),
                backlog_by_port: vec![0; relay_ports],
                relay_fabric,
                relay_buffers: (0..n).map(|_| RelayBuffer::default()).collect(),
            },
            grant_arbs,
            accept_arbs,
            out: Outbox {
                n,
                req: vec![0.0; pairs_if(opts.mode.requests_carry_values())],
                req_port: vec![u16::MAX; pairs_if(projector)],
                grants: vec![Vec::new(); n],
                relay_reqs: vec![Vec::new(); relay_tors],
                relay_grants: vec![Vec::new(); relay_tors],
            },
            land: Landing {
                inbox_requests: vec![Vec::new(); n],
                inbox_grants: vec![Vec::new(); n],
                inbox_relay_req: vec![Vec::new(); n],
                inbox_relay_grant: vec![Vec::new(); n],
                rx_buffer: vec![
                    0;
                    if opts.host_buffer_bytes.is_some() {
                        n
                    } else {
                        0
                    }
                ],
                rx_series: match opts.rx_window {
                    Some(w) => (0..n).map(|_| BandwidthSeries::new(w)).collect(),
                    None => Vec::new(),
                },
                total_rx: opts.total_rx_window.map(BandwidthSeries::new),
            },
            msg_flags: vec![0; n * n],
            req_dirty: Vec::new(),
            grant_dirty: Vec::new(),
            relay_req_dirty: Vec::new(),
            relay_grant_dirty: Vec::new(),
            port_granted: vec![false; relay_ports],
            active: vec![None; n * s],
            active_list: Vec::with_capacity(n * s),
            matrices: if stateful {
                (0..n).map(|_| DemandMatrix::new(n)).collect()
            } else {
                Vec::new()
            },
            reported_total: vec![0; pairs_if(stateful)],
            iter_pending: VecDeque::new(),
            relay_policy: RelayPolicy::default_for(epoch_capacity),
            relay_reqs_in: Vec::new(),
            relay_grants_in: Vec::new(),
            active_relay: vec![None; relay_ports],
            first_hops: Vec::new(),
            detector: FaultDetector::new(n, s),
            host_drain_per_epoch: cfg.net.host_bandwidth.bytes_in(epoch_len),
            match_rec: MatchRatioRecorder::new(),
            stats: SchedStats::default(),
            scratch: SimScratch::default(),
            par: parallel::ParState::new(n, opts.workers),
            #[cfg(test)]
            dense: false,
            #[cfg(test)]
            slot_major: false,
            #[cfg(test)]
            full_walk: false,
            cfg,
            topo,
            opts,
        }
    }

    /// Epoch length in ns for this configuration/topology.
    pub fn epoch_len(&self) -> Nanos {
        self.epoch_len
    }

    /// Directed links where the detector's exclusion set disagrees with
    /// ground truth: `(false positives, false negatives)`. Gray failures
    /// produce false positives (the link is up for data but its dummies
    /// drop); clean failures show up as false negatives until the
    /// two-epoch detection window closes.
    fn detector_divergence(&self) -> (u64, u64) {
        let failures = &self.frame.failures;
        let (mut fp, mut fn_) = (0, 0);
        for tor in 0..self.n {
            for port in 0..self.s {
                for (excluded, down) in [
                    (
                        self.detector.egress_excluded(tor, port),
                        failures.egress_down(tor, port),
                    ),
                    (
                        self.detector.ingress_excluded(tor, port),
                        failures.ingress_down(tor, port),
                    ),
                ] {
                    match (excluded, down) {
                        (true, false) => fp += 1,
                        (false, true) => fn_ += 1,
                        _ => {}
                    }
                }
            }
        }
        (fp, fn_)
    }

    /// Per-epoch match-ratio record of the completed run.
    pub fn match_recorder(&self) -> &MatchRatioRecorder {
        &self.match_rec
    }

    /// Aggregate scheduler counters of the run so far.
    pub fn stats(&self) -> &SchedStats {
        &self.stats
    }

    /// Receive-bandwidth series of ToR `dst` (requires `rx_window`).
    pub fn rx_series(&self, dst: usize) -> Option<&BandwidthSeries> {
        self.land.rx_series.get(dst)
    }

    /// Network-wide delivery series (requires `total_rx_window`).
    pub fn total_rx(&self) -> Option<&BandwidthSeries> {
        self.land.total_rx.as_ref()
    }

    /// Play `trace` for `duration` ns of simulated time and report.
    ///
    /// The engine may stop early once every flow has completed and all
    /// queues are drained; goodput is still normalized over `duration`.
    pub fn run(&mut self, trace: &FlowTrace, duration: Nanos) -> RunReport {
        metrics::frame::run(self, trace, duration)
    }

    /// Debug-build check that the incremental mirrors still equal fresh
    /// sums over the queues they shadow — every pair's lists walked, every
    /// arena node found on exactly one pair list or the free list
    /// ([`PairQueues::audit`]) — and that the live-pair state covers every
    /// pair with backlog or an outgoing message.
    #[cfg(debug_assertions)]
    fn debug_verify_mirrors(&mut self) {
        let n = self.n;
        let q = &self.q;
        let mut queued = std::mem::take(&mut self.scratch.audit_queued);
        queued.clear();
        queued.resize(n, 0);
        for src in 0..n {
            q.pairs.audit(src, |dst, bytes| queued[dst] = bytes);
            for (dst, &bytes) in queued.iter().enumerate() {
                let idx = src * n + dst;
                debug_assert_eq!(
                    q.queue_bytes[idx], bytes,
                    "queue-bytes mirror drifted at ({src}, {dst})"
                );
                if self.msg_flags[idx] != 0 || bytes > 0 {
                    debug_assert!(
                        q.lane_masks.is_marked(src, dst),
                        "live pair ({src}, {dst}) is missing a lane bit"
                    );
                }
            }
            debug_assert!(
                q.live_dsts(src).eq((0..n).filter(|&dst| queued[dst] > 0)),
                "non-empty bitmap drifted at source {src}"
            );
            if q.backlog_by_port.is_empty() {
                continue;
            }
            for port in 0..self.s {
                let reached =
                    (0..n).filter(|&dst| dst != src && self.topo.port_reaches(src, port, dst));
                debug_assert_eq!(
                    reached.map(|dst| queued[dst]).sum::<u64>(),
                    q.backlog_by_port[src * self.s + port],
                    "backlog cache drifted at tor {src} port {port}"
                );
            }
        }
        self.scratch.audit_queued = queued;
    }

    // ------------------------------------------------------------------
    // Epoch-start scheduling (the three pipelined steps)
    // ------------------------------------------------------------------

    fn epoch_start(&mut self, epoch: u64, t0: Nanos) {
        // §3.6.5: hosts drain the receive buffers at the downlink rate.
        for b in &mut self.land.rx_buffer {
            *b = b.saturating_sub(self.host_drain_per_epoch);
        }
        #[cfg(debug_assertions)]
        self.debug_verify_mirrors();
        #[cfg(test)]
        if self.dense {
            let mut masks = self.q.lane_masks.all();
            (0..self.n).for_each(|src| (0..self.n).for_each(|dst| masks.mark(src, dst)));
        }
        if let SchedulerMode::Iterative { rounds } = self.opts.mode {
            self.epoch_start_iterative(rounds);
        } else {
            self.step_accept();
            self.step_grant(epoch);
            self.step_request(t0);
            if self.opts.selective_relay {
                self.relay_request_step(epoch);
            }
        }
        self.rebuild_active_list();
    }

    /// Collapse `active` (and, under selective relay, `active_relay`) into
    /// the dense, (src, port)-ordered transmission list the scheduled
    /// phase iterates — matched slots only, in exactly the order the old
    /// full `n · s` sweep visited them.
    // lint: hot-path
    fn rebuild_active_list(&mut self) {
        self.active_list.clear();
        let relay = self.opts.selective_relay;
        for slot in 0..self.n * self.s {
            if let Some(dst) = self.active[slot] {
                // lint: allow(H001) pushes into retained capacity — active_list is cleared, never shrunk
                self.active_list.push(ActiveTx {
                    slot: slot as u32,
                    dst: dst as u32,
                    relay: false,
                });
            } else if relay && self.active_relay[slot].is_some() {
                // lint: allow(H001) pushes into retained capacity — active_list is cleared, never shrunk
                self.active_list.push(ActiveTx {
                    slot: slot as u32,
                    dst: 0,
                    relay: true,
                });
            }
        }
    }

    /// Clear last epoch's undelivered request flags. Request presence is a
    /// bit in `msg_flags` (plus the value in the outbox), so only the
    /// stragglers need clearing — no per-epoch sweep over all `n²` pairs.
    fn clear_requests(&mut self) {
        for &i in &self.req_dirty {
            self.msg_flags[i as usize] &= !REQ_FLAG;
        }
        self.req_dirty.clear();
    }

    /// Drop every grant listed last epoch (touched granters only).
    fn clear_grant_buckets(&mut self) {
        for &i in &self.grant_dirty {
            self.out.grants[i as usize / self.n].clear();
            self.msg_flags[i as usize] &= !GRANT_FLAG;
        }
        self.grant_dirty.clear();
        self.port_granted.fill(false); // empty outside selective relay
    }

    /// Iterative mode: compute the whole multi-round match now, activate it
    /// `2 + 3·(rounds−1)` epochs later (Appendix A.2.1's delay model).
    fn epoch_start_iterative(&mut self, rounds: usize) {
        let threshold = self.cfg.request_threshold_bytes();
        let mut requests: Vec<Vec<usize>> = vec![Vec::new(); self.n];
        for src in 0..self.n {
            for dst in self.q.live_dsts(src) {
                self.stats.request_pairs_scanned += 1;
                if dst != src && self.q.queue_bytes[src * self.n + dst] > threshold {
                    requests[dst].push(src);
                }
            }
        }
        let matches = IterativeMatcher::compute(
            &self.topo,
            &requests,
            &mut self.grant_arbs,
            &mut self.accept_arbs,
            rounds,
        );
        self.iter_pending.push_back(matches);
        let delay = (PIPELINE_DELAY_EPOCHS + IterativeMatcher::extra_delay_epochs(rounds)) as usize;
        self.active.fill(None);
        if self.iter_pending.len() > delay {
            let matches = self.iter_pending.pop_front().unwrap();
            for (src, accepts) in matches.iter().enumerate() {
                for a in accepts {
                    self.active[src * self.s + a.port] = Some(a.dst);
                }
            }
        }
        // Keep the predefined phase silent on requests/grants; messages are
        // modeled as equal-size bundles either way (§A.2.1's fairness note).
        self.clear_requests();
        self.clear_grant_buckets();
    }

    // ------------------------------------------------------------------
    // Selective relay steps (Appendix A.2.2) — whole-fabric epilogues of
    // ACCEPT, GRANT and REQUEST, run only when the option is on
    // ------------------------------------------------------------------

    /// Direct backlog whose only path uses `port` of `tor` (thin-clos):
    /// an O(1) read of the incrementally maintained per-port sums.
    fn direct_backlog_via_port(&self, tor: usize, port: usize) -> u64 {
        self.q.backlog_by_port[tor * self.s + port]
    }

    /// Relay accepts: egress ports ACCEPT left over take relay grants.
    fn relay_accept_step(&mut self) {
        self.active_relay.fill(None);
        let mut relay_grants = std::mem::take(&mut self.relay_grants_in);
        for src in 0..self.n {
            relay_grants.clear();
            std::mem::swap(&mut relay_grants, &mut self.land.inbox_relay_grant[src]);
            for &(via, port, final_dst, vol) in &relay_grants {
                let slot = src * self.s + port;
                if self.active[slot].is_none()
                    && self.active_relay[slot].is_none()
                    && self.detector.usable(src, via, port)
                {
                    self.active_relay[slot] = Some((via, final_dst, vol));
                }
            }
        }
        relay_grants.clear();
        self.relay_grants_in = relay_grants;
    }

    fn relay_request_step(&mut self, epoch: u64) {
        for &i in &self.relay_req_dirty {
            self.out.relay_reqs[i as usize / self.n].clear();
            self.msg_flags[i as usize] &= !RELAY_REQ_FLAG;
        }
        self.relay_req_dirty.clear();
        for src in 0..self.n {
            for dst in 0..self.n {
                if dst == src {
                    continue;
                }
                if !relay::pair_qualifies(self.q.pairs.pair(src, dst), &self.relay_policy) {
                    continue;
                }
                // Scan a rotating window of intermediates; keep up to two
                // whose shared egress link is not busy with direct traffic.
                let mut found = 0;
                for j in 0..(2 * self.s).min(self.n - 2) {
                    let via = (src + 1 + ((epoch as usize + j) % (self.n - 1))) % self.n;
                    if via == src || via == dst {
                        continue;
                    }
                    let p1 = match self.topo.pair_port(src, via) {
                        Some(p) => p,
                        None => continue,
                    };
                    if relay::port_busy(self.direct_backlog_via_port(src, p1), &self.relay_policy) {
                        continue;
                    }
                    let idx = src * self.n + via;
                    if self.msg_flags[idx] & RELAY_REQ_FLAG == 0 {
                        self.relay_req_dirty.push(idx as u32);
                        self.msg_flags[idx] |= RELAY_REQ_FLAG;
                        self.q.lane_masks.all().mark(src, via);
                    }
                    self.out.relay_reqs[src].push(RelayRequest {
                        src,
                        via,
                        final_dst: dst,
                    });
                    found += 1;
                    if found == 2 {
                        break;
                    }
                }
            }
        }
    }

    /// Intermediates grant leftover ports to relay requests. Direct grants
    /// already marked their ports in `port_granted`; relay grants extend
    /// the same per-epoch map.
    fn relay_grant_step(&mut self) {
        for &i in &self.relay_grant_dirty {
            self.out.relay_grants[i as usize / self.n].clear();
            self.msg_flags[i as usize] &= !RELAY_GRANT_FLAG;
        }
        self.relay_grant_dirty.clear();
        let mut reqs = std::mem::take(&mut self.relay_reqs_in);
        for via in 0..self.n {
            reqs.clear();
            std::mem::swap(&mut reqs, &mut self.land.inbox_relay_req[via]);
            if reqs.is_empty() {
                continue;
            }
            let mut space = self.q.relay_buffers[via].space(&self.relay_policy);
            for &r in &reqs {
                let p = match self.topo.pair_port(r.src, via) {
                    Some(p) => p,
                    None => continue,
                };
                if self.port_granted[via * self.s + p] || !self.detector.usable(r.src, via, p) {
                    continue;
                }
                // The intermediate's own egress toward the final destination
                // must not be busy with high-volume direct traffic.
                let p2 = match self.topo.pair_port(via, r.final_dst) {
                    Some(p2) => p2,
                    None => continue,
                };
                if relay::port_busy(self.direct_backlog_via_port(via, p2), &self.relay_policy) {
                    continue;
                }
                let vol = self.relay_policy.grant_volume.min(space);
                if vol == 0 {
                    break;
                }
                space -= vol;
                self.port_granted[via * self.s + p] = true;
                let idx = via * self.n + r.src;
                if self.msg_flags[idx] & RELAY_GRANT_FLAG == 0 {
                    self.relay_grant_dirty.push(idx as u32);
                    self.msg_flags[idx] |= RELAY_GRANT_FLAG;
                    self.q.lane_masks.all().mark(via, r.src);
                }
                self.out.relay_grants[via].push((r.src as u32, p as u32, r.final_dst as u32, vol));
            }
        }
        reqs.clear();
        self.relay_reqs_in = reqs;
    }

    // ------------------------------------------------------------------
    // The two phases
    // ------------------------------------------------------------------

    /// The scheduled phase (§3.3): each accepted match sends from its
    /// per-destination queue until the phase ends. Outside selective relay
    /// each matched queue drains as one batch ([`Self::scheduled_batched`]).
    /// Relay runs the slot-major walk below, every matched slot once per
    /// scheduled slot with that slot's arrivals injected first — the flows,
    /// then the first hops that have landed: a relayed packet joins another
    /// ToR's queue mid-phase, which may forward it later in the same phase.
    /// A first hop lands at its slot's end plus propagation, 20-odd slots
    /// later at paper defaults. Slots outside the active list are
    /// unmatched for the whole phase (arithmetic, not iteration); relay
    /// slots that drain mid-phase count from then on.
    fn scheduled_phase(
        &mut self,
        flows: &[Flow],
        mut cursor: usize,
        t0: Nanos,
        tracker: &mut FlowTracker,
    ) -> usize {
        let sched_start = t0 + self.pre_slots as Nanos * self.pre_slot_len;
        let slot_len = self.cfg.epoch.scheduled_slot;
        let k_slots = self.cfg.epoch.scheduled_slots;
        if k_slots == 0 {
            return cursor;
        }
        // Arrival time of scheduled slot `k`'s transmissions.
        let clock = SlotClock {
            first: sched_start + slot_len + self.cfg.net.propagation_delay,
            slot_len,
        };
        #[cfg(test)]
        let slot_major = self.opts.selective_relay || self.slot_major;
        #[cfg(not(test))]
        let slot_major = self.opts.selective_relay;
        if !slot_major {
            return self.scheduled_batched(flows, cursor, sched_start, clock, tracker);
        }
        let total_slots = (self.n * self.s) as u64;
        let failures = &self.frame.failures;
        let mut rows = self.q.all();
        let mut sink = Sink::Apply {
            land: &mut self.land,
            tracker,
            clock,
        };
        let mut landed = 0;
        for k in 0..k_slots {
            let slot_start = sched_start + k as Nanos * slot_len;
            cursor = rows.inject(flows, cursor, slot_start);
            landed = rows.land(&self.first_hops, landed, slot_start);
            self.stats.unmatched_slots += total_slots - self.active_list.len() as u64;
            for e in &self.active_list {
                let slot = e.slot as usize;
                let (src, port) = (slot / self.s, slot % self.s);
                if !e.relay {
                    rows.serve_direct_slot(
                        failures,
                        src,
                        port,
                        e.dst as usize,
                        k,
                        slot_start,
                        self.sched_payload,
                        &mut self.stats,
                        &mut sink,
                    );
                } else if let Some((via, final_dst, vol)) = self.active_relay[slot] {
                    if vol == 0 {
                        continue;
                    }
                    let cap = self.sched_payload.min(vol);
                    // Drained once the lowest level is empty or its head
                    // was itself relayed here: two hops at most.
                    let Some(pkt) = rows.dequeue_relay_packet(src, final_dst, cap, slot_start)
                    else {
                        self.active_relay[slot] = None;
                        continue;
                    };
                    self.active_relay[slot] = Some((via, final_dst, vol - pkt.bytes));
                    if failures.link_up(src, via, port) {
                        rows.admit_relay(via, pkt.bytes);
                        let hop = FirstHop {
                            at: clock.arrive(k as u32),
                            via: via as u32,
                            final_dst: final_dst as u32,
                            flow: pkt.flow,
                            bytes: pkt.bytes,
                        };
                        debug_assert!(self.first_hops.last().is_none_or(|h| h.at <= hop.at));
                        self.first_hops.push(hop);
                    } else {
                        self.stats.lost_packets += 1;
                        self.stats.lost_bytes += pkt.bytes;
                    }
                } else {
                    self.stats.unmatched_slots += 1;
                }
            }
        }
        self.first_hops.drain(..landed);
        cursor
    }

    /// What this epoch's dummies told the detector (§3.6.1). Every
    /// connection of the round carries one, and a port's observation is
    /// whether any dummy over it got through: its link up and not gray (a
    /// gray link drops it, [`SchedStats::control_dropped`]). One
    /// closed-form walk of the round, each port seen from both of its
    /// ends, that reads link state and nothing else.
    fn observe_epoch(&mut self, epoch: u64) {
        let sched = self.q.lane_masks.lanes();
        let (failures, faults) = (&self.frame.failures, &self.frame.faults);
        for tor in 0..self.n {
            for lane in 0..self.s {
                let port = sched.port(lane, epoch);
                let (mut sent, mut delivered) = (false, false);
                let (mut listened, mut heard) = (false, false);
                for slot in 0..sched.slots() {
                    let dst = sched.dst(sched.origin(slot, tor), lane);
                    if dst != tor {
                        self.stats.predefined_conns_visited += 1;
                        let up = failures.link_up(tor, dst, port);
                        let gray = up && faults.gray_drops(epoch, tor, dst);
                        self.stats.control_dropped += u64::from(gray);
                        sent = true;
                        delivered |= up && !gray;
                    }
                    let src = sched.src(slot, tor, lane);
                    if src != tor {
                        listened = true;
                        heard = heard
                            || failures.link_up(src, tor, port)
                                && !faults.gray_drops(epoch, src, tor);
                    }
                }
                if sent {
                    self.detector.observe_egress(tor, port, delivered);
                }
                if listened {
                    self.detector.observe_ingress(tor, port, heard);
                }
            }
        }
    }
}

impl EpochEngine for NegotiatorSim {
    fn tick_len(&self) -> Nanos {
        self.epoch_len
    }

    fn phase_counters(&self) -> PhaseCounters {
        let (fp, fn_) = self.detector_divergence();
        PhaseCounters {
            backlog_bytes: (0..self.n).map(|tor| self.q.backlog_of(tor)).sum(),
            grants: self.stats.grants_issued,
            accepts: self.stats.accepts_made,
            control_dropped: self.stats.control_dropped,
            detector_fp_links: fp,
            detector_fn_links: fn_,
            in_flight_bytes: self.first_hops.iter().map(|h| h.bytes).sum(),
            lost_bytes: self.stats.lost_bytes,
            ..PhaseCounters::default()
        }
    }

    /// One epoch (Figure 2): the scheduling steps, then the two phases.
    // lint: hot-path
    fn tick(
        &mut self,
        epoch: u64,
        t0: Nanos,
        flows: &[Flow],
        mut cursor: usize,
        tracker: &mut FlowTracker,
    ) -> usize {
        let mut rows = self.q.all();
        cursor = rows.inject(flows, cursor, t0);
        let landed = rows.land(&self.first_hops, 0, t0);
        self.first_hops.drain(..landed);
        self.epoch_start(epoch, t0);
        // No link down, no partition, a quiescent detector, no gray
        // window: every connection is up and usable, and all-success
        // observations would change no detector state.
        let healthy = self.frame.failures.healthy()
            && self.detector.is_quiescent()
            && !self.frame.faults.gray_active();
        cursor = self.predefined_phase(flows, cursor, epoch, t0, healthy, tracker);
        cursor = self.scheduled_phase(flows, cursor, t0, tracker);
        if !healthy {
            self.observe_epoch(epoch);
        }
        cursor
    }

    /// Control-plane deltas, detector transitions and this epoch's
    /// pair-level REQUEST / GRANT / ACCEPT stamps. Reads the same merged
    /// state the phase counters read: the dirty lists hold this epoch's
    /// REQUEST pairs and GRANT buckets as *sets* (the steps concatenate
    /// per-lane lists in shard order, so the set is worker-invariant), and
    /// stamping is idempotent, so their order never matters. Only traced
    /// runs pay for the divergence scan.
    fn trace_control(
        &mut self,
        rec: &mut FlightRecorder,
        spans: &mut FlowSpans,
        epoch: u64,
        t0: Nanos,
    ) {
        let (fp, fn_) = self.detector_divergence();
        rec.epoch_counters(
            t0,
            epoch,
            TraceCursor {
                requests: self.stats.requests_sent,
                grants: self.stats.grants_issued,
                accepts: self.stats.accepts_made,
                control_dropped: self.stats.control_dropped,
                detector_fp: fp,
                detector_fn: fn_,
            },
        );
        for &idx in &self.req_dirty {
            let (src, dst) = (idx as usize / self.n, idx as usize % self.n);
            spans.mark_request(src as u32, dst as u32, epoch);
        }
        for &idx in &self.grant_dirty {
            // Buckets are granter * n + requester; the flow pair runs
            // requester → granter.
            let (granter, requester) = (idx as usize / self.n, idx as usize % self.n);
            spans.mark_grant(requester as u32, granter as u32, epoch);
        }
        for tx in &self.active_list {
            // Relay slots forward another pair's traffic; only direct
            // matches are pair-level ACCEPTs.
            if !tx.relay {
                let src = tx.slot as usize / self.s;
                spans.mark_accept(src as u32, tx.dst, epoch);
            }
        }
    }

    /// Per-ToR backlog watermarks (traced runs only), summed over each
    /// ToR's non-empty queues.
    fn trace_backlog(&self, rec: &mut FlightRecorder, epoch: u64, t0: Nanos) {
        for tor in 0..self.n {
            rec.backlog_sample(t0, epoch, tor, self.q.backlog_of(tor));
        }
    }

    #[cfg(test)]
    fn full_span_walk(&self) -> bool {
        self.full_walk
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::trace::FlightRecorder;
    use topology::{failures::LinkDir, FlapTargets, NetworkConfig, PartitionSpec};
    use workload::{Flow, FlowSizeDist, FlowTrace, IncastWorkload, PoissonWorkload, WorkloadSpec};

    fn small_cfg() -> NegotiatorConfig {
        NegotiatorConfig::paper_default(NetworkConfig::small_for_tests())
    }

    fn single_flow(bytes: u64, arrival: Nanos) -> FlowTrace {
        FlowTrace::new(vec![Flow {
            id: 0,
            src: 0,
            dst: 5,
            bytes,
            arrival,
        }])
    }

    #[test]
    fn mice_flow_bypasses_scheduling_delay_via_piggyback() {
        // A 500 B flow fits one piggyback packet: it should complete within
        // roughly one epoch + propagation, far below the 2-epoch delay.
        let mut s = NegotiatorSim::new(small_cfg(), TopologyKind::Parallel);
        let epoch = s.epoch_len();
        let trace = single_flow(500, 0);
        let report = s.run(&trace, 50 * epoch);
        let fct = s
            .tracker()
            .fct(&trace.flows()[0])
            .expect("flow must complete");
        assert!(
            fct < 2 * epoch,
            "piggybacked mice FCT {fct} should beat the 2-epoch delay ({})",
            2 * epoch
        );
        assert_eq!(report.mice.completed, 1);
    }

    #[test]
    fn piggyback_disabled_pays_the_scheduling_delay() {
        let mut cfg = small_cfg();
        cfg.piggyback = false;
        let mut s = NegotiatorSim::new(cfg, TopologyKind::Parallel);
        let epoch = s.epoch_len();
        let trace = single_flow(500, 0);
        s.run(&trace, 50 * epoch);
        let fct = s
            .tracker()
            .fct(&trace.flows()[0])
            .expect("flow must complete");
        assert!(
            fct >= 2 * epoch,
            "without PB the flow waits for the pipeline: fct {fct}"
        );
        assert!(fct < 5 * epoch, "but not forever: fct {fct}");
    }

    #[test]
    fn elephant_flow_completes_via_scheduled_phase() {
        for kind in [TopologyKind::Parallel, TopologyKind::ThinClos] {
            let mut s = NegotiatorSim::new(small_cfg(), kind);
            let epoch = s.epoch_len();
            let report = s.run(&single_flow(500_000, 0), 600 * epoch);
            assert_eq!(
                s.tracker().completed_count(),
                1,
                "{kind:?}: elephant must finish"
            );
            assert!(report.all.completed == 1);
        }
    }

    #[test]
    fn incast_finishes_fast_regardless_of_degree() {
        // §4.2/Figure 7(a): piggybacking serves each sender its own
        // predefined slot, so finish time is flat in degree.
        let mut finish = Vec::new();
        for degree in [2usize, 8, 14] {
            let trace = IncastWorkload {
                degree,
                flow_bytes: 1_000,
                n_tors: 16,
                start: 10_000,
            }
            .generate(3);
            let mut s = NegotiatorSim::new(small_cfg(), TopologyKind::Parallel);
            let epoch = s.epoch_len();
            s.run(&trace, 100 * epoch);
            let t =
                RunReport::burst_finish_time(&trace, s.tracker()).expect("incast must complete");
            finish.push(t);
        }
        let spread = *finish.iter().max().unwrap() as f64 / *finish.iter().min().unwrap() as f64;
        assert!(
            spread < 2.5,
            "incast finish should be nearly flat in degree: {finish:?}"
        );
    }

    #[test]
    fn deterministic_runs() {
        let trace = single_flow(100_000, 123);
        let run = |seed: u64| {
            let mut cfg = small_cfg();
            cfg.seed = seed;
            let mut s = NegotiatorSim::new(cfg, TopologyKind::Parallel);
            s.run(&trace, 500_000);
            s.tracker().fct(&trace.flows()[0])
        };
        assert_eq!(run(1), run(1));
    }

    #[test]
    fn match_ratio_recorded_under_load() {
        let trace = FlowTrace::new(
            (0..16)
                .flat_map(|src| {
                    (0..16).filter(move |&d| d != src).map(move |dst| Flow {
                        id: 0,
                        src,
                        dst,
                        bytes: 200_000,
                        arrival: 0,
                    })
                })
                .collect(),
        );
        let mut s = NegotiatorSim::new(small_cfg(), TopologyKind::Parallel);
        let epoch = s.epoch_len();
        s.run(&trace, 100 * epoch);
        let ratio = s.match_recorder().overall_ratio().expect("grants happened");
        assert!(ratio > 0.3 && ratio <= 1.0, "ratio {ratio}");
    }

    #[test]
    fn failed_links_reduce_then_recover_bandwidth() {
        let trace = single_flow(100_000_000, 0); // effectively infinite source
        let mut cfg = small_cfg();
        cfg.piggyback = true;
        let mut s = NegotiatorSim::with_options(
            cfg,
            TopologyKind::Parallel,
            SimOptions {
                total_rx_window: Some(10_000),
                ..SimOptions::default()
            },
        );
        let epoch = s.epoch_len();
        let fail_at = 60 * epoch;
        let repair_at = 160 * epoch;
        s.schedule_fault(
            fail_at,
            FaultAction::FailRandom {
                ratio: 0.25,
                seed: 7,
            },
        );
        s.schedule_fault(repair_at, FaultAction::RepairAll);
        s.run(&trace, 260 * epoch);
        let rx = s.total_rx().unwrap();
        let before = rx.mean_gbps(10 * epoch, fail_at);
        let during = rx.mean_gbps(fail_at + 10 * epoch, repair_at);
        let after = rx.mean_gbps(repair_at + 10 * epoch, 250 * epoch);
        assert!(before > 0.0);
        assert!(
            during < before * 0.95,
            "failures must cost bandwidth: before {before}, during {during}"
        );
        assert!(
            after > during,
            "recovery must restore bandwidth: during {during}, after {after}"
        );
    }

    #[test]
    fn selective_relay_runs_and_delivers_on_thin_clos() {
        let mut s = NegotiatorSim::with_options(
            small_cfg(),
            TopologyKind::ThinClos,
            SimOptions {
                selective_relay: true,
                ..SimOptions::default()
            },
        );
        let epoch = s.epoch_len();
        let report = s.run(&single_flow(2_000_000, 0), 3000 * epoch);
        assert_eq!(report.all.completed, 1, "elephant must fully arrive");
    }

    #[test]
    fn selective_relay_charges_ports_past_255() {
        // Two ToRs per group on 260 ports: pair 0 → 514 (group 257) leaves
        // by port 257, past a byte's range. Charging it to any other port
        // fails the debug mirror check ("backlog cache drifted") and the
        // asserts below.
        let net = NetworkConfig {
            n_tors: 520,
            n_ports: 260,
            ..NetworkConfig::small_for_tests()
        };
        let mut s = NegotiatorSim::with_options(
            NegotiatorConfig::paper_default(net),
            TopologyKind::ThinClos,
            SimOptions {
                selective_relay: true,
                ..SimOptions::default()
            },
        );
        let trace = FlowTrace::new(vec![Flow {
            id: 0,
            src: 0,
            dst: 514,
            bytes: 100_000_000,
            arrival: 0,
        }]);
        let epoch = s.epoch_len();
        s.run(&trace, 2 * epoch);
        let queued = s.q.backlog_of(0);
        assert!(queued > 0, "the flow must still be queued");
        assert_eq!(s.direct_backlog_via_port(0, 257), queued);
        assert_eq!(s.direct_backlog_via_port(0, 1), 0);
    }

    #[test]
    #[should_panic(expected = "thin-clos")]
    fn selective_relay_rejected_on_parallel() {
        NegotiatorSim::with_options(
            small_cfg(),
            TopologyKind::Parallel,
            SimOptions {
                selective_relay: true,
                ..SimOptions::default()
            },
        );
    }

    #[test]
    fn variant_modes_all_run_to_completion() {
        for mode in [
            SchedulerMode::Iterative { rounds: 3 },
            SchedulerMode::DataSize,
            SchedulerMode::HolDelay { alpha: 0.001 },
            SchedulerMode::Stateful,
            SchedulerMode::Projector,
        ] {
            let mut s = NegotiatorSim::with_options(
                small_cfg(),
                TopologyKind::Parallel,
                SimOptions {
                    mode,
                    ..SimOptions::default()
                },
            );
            let epoch = s.epoch_len();
            let report = s.run(&single_flow(300_000, 0), 1000 * epoch);
            assert_eq!(report.all.completed, 1, "{mode:?} must deliver the flow");
        }
    }

    #[test]
    fn stats_capture_bypass_and_overscheduling() {
        // A small flow (one piggyback packet) delivered entirely via PB.
        let mut s = NegotiatorSim::new(small_cfg(), TopologyKind::Parallel);
        let epoch = s.epoch_len();
        s.run(&single_flow(500, 0), 20 * epoch);
        let st = *s.stats();
        assert_eq!(st.piggyback_packets, 1);
        assert_eq!(st.piggyback_bytes, 500);
        assert_eq!(st.scheduled_packets, 0, "no scheduled data needed");
        assert_eq!(st.piggyback_share(), 1.0);
        assert_eq!(st.lost_packets, 0);

        // A large flow drains mostly through the scheduled phase, and the
        // stateless pipeline over-schedules the tail: grants keep arriving
        // for an already-empty queue.
        let mut s = NegotiatorSim::new(small_cfg(), TopologyKind::Parallel);
        s.run(&single_flow(200_000, 0), 200 * epoch);
        let st = *s.stats();
        assert!(st.scheduled_bytes > st.piggyback_bytes);
        assert!(
            st.overscheduled_slots > 0,
            "stateless scheduling must waste some tail slots"
        );
        assert!(st.requests_sent > 0);
        assert!(st.accepts_made <= st.grants_issued);
    }

    #[test]
    fn lost_packets_counted_under_ground_failures() {
        let mut s = NegotiatorSim::new(small_cfg(), TopologyKind::Parallel);
        let epoch = s.epoch_len();
        s.schedule_fault(
            0,
            FaultAction::FailRandom {
                ratio: 0.3,
                seed: 2,
            },
        );
        s.run(&single_flow(500_000, 0), 50 * epoch);
        assert!(
            s.stats().lost_packets > 0,
            "undetected failures must lose packets in flight"
        );
    }

    #[test]
    fn host_backpressure_caps_receive_rate() {
        // One hot destination fed by many sources; with §3.6.5 enabled and
        // a small receive buffer, sustained delivery cannot exceed the
        // host-aggregate rate by much, while the unbounded setting enjoys
        // the full 2x fabric speedup.
        let trace = FlowTrace::new(
            (1..16)
                .map(|src| Flow {
                    id: 0,
                    src,
                    dst: 0,
                    bytes: 400_000,
                    arrival: 0,
                })
                .collect(),
        );
        let run = |buffer: Option<u64>| {
            let mut s = NegotiatorSim::with_options(
                small_cfg(),
                TopologyKind::Parallel,
                SimOptions {
                    host_buffer_bytes: buffer,
                    ..SimOptions::default()
                },
            );
            let epoch = s.epoch_len();
            s.run(&trace, 600 * epoch);
            // Received rate at the hot ToR while the burst drains, in Gbps.
            let finish =
                RunReport::burst_finish_time(&trace, s.tracker()).expect("burst must complete");
            (s.tracker().delivered_payload() * 8) as f64 / finish as f64
        };
        let unbounded = run(None);
        let bounded = run(Some(100_000));
        // Hosts drain at 200 Gbps on the test fabric; the fabric can push
        // 400 Gbps into one ToR.
        assert!(
            unbounded > 250.0,
            "unbounded should use speedup: {unbounded}"
        );
        assert!(
            bounded < unbounded * 0.85,
            "backpressure must throttle: bounded {bounded} vs unbounded {unbounded}"
        );
        assert!(bounded > 100.0, "but data must still flow: {bounded}");
    }

    #[test]
    fn goodput_reflects_offered_load() {
        // Saturating all-to-all: goodput should be substantial.
        let trace = FlowTrace::new(
            (0..16)
                .flat_map(|src| {
                    (0..16).filter(move |&d| d != src).map(move |dst| Flow {
                        id: 0,
                        src,
                        dst,
                        bytes: 1_000_000,
                        arrival: 0,
                    })
                })
                .collect(),
        );
        let mut s = NegotiatorSim::new(small_cfg(), TopologyKind::Parallel);
        let dur = 300 * s.epoch_len();
        let report = s.run(&trace, dur);
        assert!(
            report.goodput.normalized() > 0.5,
            "normalized goodput {}",
            report.goodput.normalized()
        );
    }

    /// Parallel 16 × 4 and 70 × 4 (pairs at offsets 1 and 2 meet twice a
    /// round), thin-clos 16 × 4, and thin-clos with selective relay.
    const FAULT_FABRICS: [(TopologyKind, usize, bool); 4] = [
        (TopologyKind::Parallel, 16, false),
        (TopologyKind::Parallel, 70, false),
        (TopologyKind::ThinClos, 16, false),
        (TopologyKind::ThinClos, 16, true),
    ];

    fn fault_sim((kind, n_tors, relay): (TopologyKind, usize, bool)) -> NegotiatorSim {
        let net = NetworkConfig {
            n_tors,
            n_ports: 4,
            ..NetworkConfig::small_for_tests()
        };
        let opts = SimOptions {
            selective_relay: relay,
            ..SimOptions::default()
        };
        NegotiatorSim::with_options(NegotiatorConfig::paper_default(net), kind, opts)
    }

    /// The live-lane walk against the pass over every connection, which
    /// `dense` makes of it by marking every lane at each epoch start: a
    /// loaded fabric through a random failure and its repair, a flap, a
    /// partition and a gray window, healthy epochs between them. Same
    /// report, same completion of every flow, same counters but visits.
    #[test]
    fn live_walk_matches_the_dense_walk_under_faults() {
        for fabric in FAULT_FABRICS {
            let play = |dense: bool| {
                let mut sim = fault_sim(fabric);
                sim.dense = dense;
                let epoch = sim.epoch_len();
                let flap = FlapTargets::Random {
                    ratio: 0.1,
                    seed: 4,
                };
                let actions = [
                    FaultAction::FailRandom {
                        ratio: 0.1,
                        seed: 3,
                    },
                    FaultAction::RepairAll,
                    FaultAction::FlapStart {
                        targets: flap,
                        up: 2 * epoch,
                        down: epoch,
                    },
                    FaultAction::FlapStop,
                    FaultAction::Partition(PartitionSpec::Random { groups: 2, seed: 5 }),
                    FaultAction::Heal,
                    FaultAction::GrayStart {
                        drop_prob: 0.5,
                        seed: 6,
                        tors: None,
                    },
                    FaultAction::GrayStop,
                ];
                for (i, action) in actions.into_iter().enumerate() {
                    sim.schedule_fault((5 + 6 * i as u64) * epoch, action);
                }
                let trace = PoissonWorkload::new(WorkloadSpec {
                    dist: FlowSizeDist::hadoop(),
                    load: 0.6,
                    n_tors: fabric.1,
                    host_bps: sim.cfg.net.host_bandwidth.bps(),
                })
                .generate(56 * epoch, 5);
                let report = sim.run(&trace, 56 * epoch);
                let done: Vec<_> = (0..trace.len() as u64)
                    .map(|id| sim.tracker().completion(id))
                    .collect();
                (report, done, *sim.stats())
            };
            let ((live, live_done, l), (dense, dense_done, d)) = (play(false), play(true));
            assert!(
                l.lost_packets > 0 && l.control_dropped > 0,
                "{fabric:?}: no fault bit"
            );
            assert!(
                live == dense && live_done == dense_done,
                "{fabric:?}: runs differ"
            );
            assert!(l.predefined_conns_visited < d.predefined_conns_visited);
            let visits = |st| SchedStats {
                predefined_conns_visited: 0,
                ..st
            };
            assert_eq!(visits(l), visits(d), "{fabric:?}: counters differ");
        }
    }

    /// An idle fabric, one gray epoch that drops every dummy, and one link
    /// down during it: `control_dropped` is the round's connections whose
    /// link is up, counted here from `Topology::predefined_dst`.
    #[test]
    fn a_gray_epoch_drops_one_dummy_per_up_connection() {
        for fabric in FAULT_FABRICS {
            let mut sim = fault_sim(fabric);
            let (epoch, gray_epoch, (tor, port)) = (sim.epoch_len(), 3, (1, 2));
            let down = FaultAction::FailLink {
                tor,
                port,
                dir: LinkDir::Egress,
            };
            let gray = FaultAction::GrayStart {
                drop_prob: 1.0,
                seed: 1,
                tors: None,
            };
            sim.schedule_fault(gray_epoch * epoch, down);
            sim.schedule_fault(gray_epoch * epoch, gray);
            sim.schedule_fault((gray_epoch + 1) * epoch, FaultAction::GrayStop);
            sim.schedule_fault((gray_epoch + 1) * epoch, FaultAction::RepairAll);
            sim.run(&FlowTrace::new(Vec::new()), 10 * epoch);
            let mut failures = LinkFailures::new(sim.n, sim.s);
            failures.fail(tor, port, LinkDir::Egress);
            let (mut conns, mut up) = (0, 0);
            for slot in 0..sim.pre_slots {
                for src in 0..sim.n {
                    for p in 0..sim.s {
                        if let Some(dst) = sim.topo.predefined_dst(gray_epoch, slot, src, p) {
                            conns += 1;
                            up += u64::from(failures.link_up(src, dst, p));
                        }
                    }
                }
            }
            assert!(up < conns, "{fabric:?}: a link is down");
            assert_eq!(sim.stats().control_dropped, up, "{fabric:?}");
        }
    }

    /// The batched scheduled phase against the slot-major walk, which
    /// `slot_major` makes every phase take: Hadoop at 90–100 % load
    /// (mid-phase arrivals, queues that several ports serve), PIAS on and
    /// off, a failed-link window that loses scheduled packets, host
    /// backpressure, one shard and three, and bandwidth series attached.
    /// Same report, completion of every flow, counters, series windows and
    /// trace — the batch landing one delivery per run where the walk lands
    /// one per packet.
    #[test]
    fn batched_phase_matches_the_slot_major_walk() {
        let inputs = [
            (true, 1.0, 1, false),
            (false, 0.9, 3, false),
            (true, 0.95, 3, false),
            (false, 1.0, 1, false),
            (true, 0.95, 1, true),
        ];
        for (kind, n_tors, relay) in FAULT_FABRICS {
            for (pias, load, workers, series) in inputs {
                let play = |slot_major: bool| {
                    let net = NetworkConfig {
                        n_tors,
                        n_ports: 4,
                        ..NetworkConfig::small_for_tests()
                    };
                    let mut cfg = NegotiatorConfig::paper_default(net);
                    cfg.priority_queues = pias;
                    let window = series.then_some(1_000);
                    let opts = SimOptions {
                        selective_relay: relay,
                        host_buffer_bytes: Some(100_000),
                        workers,
                        rx_window: window,
                        total_rx_window: window,
                        ..SimOptions::default()
                    };
                    let mut sim = NegotiatorSim::with_options(cfg, kind, opts);
                    sim.slot_major = slot_major;
                    sim.set_recorder(FlightRecorder::with_capacity(1 << 20, n_tors));
                    let epoch = sim.epoch_len();
                    let fail = FaultAction::FailRandom {
                        ratio: 0.1,
                        seed: 3,
                    };
                    sim.schedule_fault(8 * epoch, fail);
                    sim.schedule_fault(16 * epoch, FaultAction::RepairAll);
                    let trace = PoissonWorkload::new(WorkloadSpec {
                        dist: FlowSizeDist::hadoop(),
                        load,
                        n_tors,
                        host_bps: sim.cfg.net.host_bandwidth.bps(),
                    })
                    .generate(30 * epoch, 7);
                    let report = sim.run(&trace, 30 * epoch);
                    let done: Vec<_> = (0..trace.len() as u64)
                        .map(|id| sim.tracker().completion(id))
                        .collect();
                    let windows: Vec<Vec<u64>> = (0..n_tors)
                        .filter_map(|dst| sim.rx_series(dst))
                        .chain(sim.total_rx())
                        .map(|w| w.bytes_per_window().to_vec())
                        .collect();
                    let ndjson = sim.take_recorder().unwrap().render_ndjson("negotiator");
                    (report, done, *sim.stats(), windows, ndjson)
                };
                let (batched, walked) = (play(false), play(true));
                let case = format!(
                    "{kind:?} {n_tors} relay {relay} pias {pias} load {load} series {series}"
                );
                assert!(batched.2.lost_packets > 0, "{case}: nothing lost");
                assert!(batched.0 == walked.0, "{case}: reports differ");
                assert!(batched.1 == walked.1, "{case}: completions differ");
                assert_eq!(
                    without_deliveries(batched.2),
                    without_deliveries(walked.2),
                    "{case}: counters differ"
                );
                let (runs, packets) = (batched.2.scheduled_deliveries, walked.2.scheduled_packets);
                assert!(runs > 0 && runs <= packets, "{case}: {runs} deliveries");
                if !relay {
                    assert_eq!(walked.2.scheduled_deliveries, packets, "{case}");
                    assert!(series || runs < packets, "{case}: one delivery per packet");
                }
                assert_eq!(batched.3.len(), if series { n_tors + 1 } else { 0 });
                assert!(batched.3 == walked.3, "{case}: series differ");
                assert!(batched.4 == walked.4, "{case}: traces differ");
            }
        }
        // A multi-port queue whose runs ride one failed port: the elephant
        // of `a_mid_phase_mouse_on_a_multi_port_queue_leaves_at_its_own_slot`
        // holds all four ports of its source when one of them fails,
        // undetected, and a mouse arrives mid-phase. Failing the first
        // port loses the mouse too.
        for port in [0, 2] {
            let play = |slot_major: bool| {
                let mut sim = NegotiatorSim::new(small_cfg(), TopologyKind::Parallel);
                sim.slot_major = slot_major;
                let epoch = sim.epoch_len();
                let down = FaultAction::FailLink {
                    tor: 0,
                    port,
                    dir: LinkDir::Egress,
                };
                sim.schedule_fault(6 * epoch, down);
                let mouse = 6 * epoch + sim.pre_slots as Nanos * sim.pre_slot_len + 3_000;
                let flow = |bytes, arrival| Flow {
                    id: 0,
                    src: 0,
                    dst: 5,
                    bytes,
                    arrival,
                };
                let trace = FlowTrace::new(vec![flow(10_000_000, 0), flow(1_000, mouse)]);
                let report = sim.run(&trace, 8 * epoch);
                let done = [0, 1].map(|id| sim.tracker().completion(id));
                (report, done, without_deliveries(*sim.stats()))
            };
            let (batched, walked) = (play(false), play(true));
            // At least one phase's worth of the failed port's slots.
            let k = small_cfg().epoch.scheduled_slots as u64;
            assert!(batched.2.lost_packets >= k, "port {port}: too little lost");
            assert_eq!(batched.1[1].is_some(), port != 0, "port {port}: the mouse");
            assert!(batched.0 == walked.0, "port {port}: reports differ");
            assert_eq!(batched.1, walked.1, "port {port}: completions differ");
            assert_eq!(batched.2, walked.2, "port {port}: counters differ");
        }
    }

    /// `st` with the one counter the batched phase and the slot-major walk
    /// count differently zeroed.
    fn without_deliveries(st: SchedStats) -> SchedStats {
        SchedStats {
            scheduled_deliveries: 0,
            ..st
        }
    }

    /// The quiet-epoch span walk against the full walk, which `full_walk`
    /// makes every traced epoch take: both topologies, Hadoop at 90 % and
    /// 20 % load (where epochs stamp pairs but complete no flow) plus an
    /// incast burst, a failed-link window, PIAS on and off, and a
    /// 1 024-event ring that overwrites. Same trace bytes.
    #[test]
    fn quiet_span_walk_matches_the_full_walk() {
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
                    let mut cfg = NegotiatorConfig::paper_default(net);
                    cfg.priority_queues = pias;
                    let mut sim = NegotiatorSim::new(cfg, kind);
                    sim.full_walk = full_walk;
                    sim.set_recorder(FlightRecorder::with_capacity(capacity, 16));
                    let epoch = sim.epoch_len();
                    let fail = FaultAction::FailRandom {
                        ratio: 0.1,
                        seed: 3,
                    };
                    sim.schedule_fault(8 * epoch, fail);
                    sim.schedule_fault(16 * epoch, FaultAction::RepairAll);
                    let hadoop = PoissonWorkload::new(WorkloadSpec {
                        dist: FlowSizeDist::hadoop(),
                        load,
                        n_tors: 16,
                        host_bps: sim.cfg.net.host_bandwidth.bps(),
                    })
                    .generate(60 * epoch, 7);
                    let incast = IncastWorkload {
                        degree: 12,
                        flow_bytes: 1_000,
                        n_tors: 16,
                        start: 12 * epoch,
                    }
                    .generate(5);
                    sim.run(&hadoop.merge(incast), 80 * epoch);
                    let rec = sim.take_recorder().unwrap();
                    (rec.dropped(), rec.render_ndjson("negotiator"))
                };
                let (quiet, full) = (play(false), play(true));
                let case = format!("{kind:?} pias {pias} load {load} capacity {capacity}");
                assert_eq!(quiet.0 > 0, capacity == 1_024, "{case}: drops");
                assert!(quiet == full, "{case}: traces differ");
            }
        }
    }

    /// A thin-clos selective-relay fabric before its first epoch: source 0
    /// holds a 10 MB elephant toward `fin` — behind `relayed` bytes
    /// relayed through 0 toward `fin`, when non-zero — and a relay slot on
    /// 0's port toward `via` carries it on. With `direct`, `via`'s port
    /// toward `fin` is matched to `fin` as well. Returns the sim, its
    /// trace, `via`, `fin` and the relay slot.
    fn relay_triangle(
        direct: bool,
        relayed: u64,
    ) -> (NegotiatorSim, FlowTrace, usize, usize, usize) {
        let mut sim = NegotiatorSim::with_options(
            small_cfg(),
            TopologyKind::ThinClos,
            SimOptions {
                selective_relay: true,
                ..SimOptions::default()
            },
        );
        let (n, s) = (sim.n, sim.s);
        let port = |a, b| sim.topo.pair_port(a, b);
        let (via, fin) = (1..n)
            .flat_map(|via| (1..n).map(move |fin| (via, fin)))
            .find(|&(via, fin)| {
                via != fin
                    && port(0, via).is_some()
                    && port(via, fin).is_some()
                    && port(0, fin).is_some()
            })
            .expect("thin-clos has relay triangles");
        let (p1, p2) = (port(0, via).unwrap(), port(via, fin).unwrap());
        let trace = FlowTrace::new(vec![Flow {
            id: 0,
            src: 0,
            dst: fin,
            bytes: 10_000_000,
            arrival: 0,
        }]);
        let mut rows = sim.q.all();
        if relayed > 0 {
            let hop = FirstHop {
                at: 0,
                via: 0,
                final_dst: fin as u32,
                flow: 0,
                bytes: relayed,
            };
            rows.land(&[hop], 0, 0);
        }
        rows.enqueue(&trace.flows()[0]);
        let slot = p1;
        sim.active_relay[slot] = Some((via, fin, u64::MAX));
        if direct {
            sim.active[via * s + p2] = Some(fin);
        }
        sim.rebuild_active_list();
        (sim, trace, via, fin, slot)
    }

    /// A relay first hop joins its intermediate's queue when it lands — the
    /// end of its slot plus 2 µs of propagation, 23 scheduled slots later
    /// here — so an intermediate matched to the final destination forwards
    /// only the hops sent in a phase's first few slots within that phase,
    /// one a slot, and the rest are still in flight when it ends. Queued
    /// at once, every hop was forwarded in the slot it was sent in, before
    /// it had arrived; debug and test builds also assert that no segment
    /// leaves in a slot that starts before it was enqueued.
    #[test]
    fn a_relayed_packet_leaves_its_intermediate_after_it_lands() {
        let (mut sim, trace, via, fin, _) = relay_triangle(true, 0);
        let mut tracker = FlowTracker::new(&trace);
        sim.scheduled_phase(trace.flows(), 1, 0, &mut tracker);
        let (k_slots, slot_len) = (sim.cfg.epoch.scheduled_slots, sim.cfg.epoch.scheduled_slot);
        let sched_start = sim.pre_slots as Nanos * sim.pre_slot_len;
        let last_start = sched_start + (k_slots as Nanos - 1) * slot_len;
        let lands = |k: usize| sched_start + (k as Nanos + 1) * slot_len + 2_000;
        let landed = (0..k_slots).filter(|&k| lands(k) <= last_start).count();
        assert!(landed > 0 && landed < k_slots, "{landed} of {k_slots} land");
        let st = sim.stats;
        assert_eq!(
            st.scheduled_packets, landed as u64,
            "{via} → {fin} forwarded"
        );
        assert_eq!(tracker.delivered_payload(), st.scheduled_bytes);
        assert_eq!(sim.first_hops.len(), k_slots - landed, "hops in flight");
        let in_flight = sim.phase_counters().in_flight_bytes;
        assert_eq!(in_flight, (k_slots - landed) as u64 * sim.sched_payload);
    }

    /// A packet takes two hops at most: a source whose lowest level starts
    /// with bytes relayed through it sends nothing on its relay slot, which
    /// counts as drained, and the relayed bytes wait for a direct match.
    #[test]
    fn a_relayed_segment_is_not_relayed_again() {
        let (mut sim, trace, _, fin, slot) = relay_triangle(false, 5_000);
        let queued = |sim: &NegotiatorSim| {
            let pair = sim.q.pairs.pair(0, fin);
            (pair.total_bytes(), pair.relayed_bytes())
        };
        let before = queued(&sim);
        assert_eq!(before.1, 5_000);
        let mut tracker = FlowTracker::new(&trace);
        sim.scheduled_phase(trace.flows(), 1, 0, &mut tracker);
        assert_eq!(queued(&sim), before, "the relayed head stays put");
        assert!(sim.first_hops.is_empty(), "nothing was relayed");
        assert_eq!(sim.active_relay[slot], None, "the relay slot drained");
    }

    /// PIAS inside a scheduled phase: one elephant pair holds every port of
    /// its destination, and a 1 KB flow of the same pair arriving after
    /// scheduled slot `j − 1` starts, and no later than slot `j` starts,
    /// leaves first, on the run's first port in slot `j`.
    #[test]
    fn a_mid_phase_mouse_on_a_multi_port_queue_leaves_at_its_own_slot() {
        let (epoch_no, j) = (6, 7);
        for slot_major in [false, true] {
            let probe = NegotiatorSim::new(small_cfg(), TopologyKind::Parallel);
            let slot_len = probe.cfg.epoch.scheduled_slot;
            let sched_start =
                epoch_no * probe.epoch_len() + probe.pre_slots as Nanos * probe.pre_slot_len;
            let slot_start = |k: u64| sched_start + k * slot_len;
            for arrival in [slot_start(j - 1) + 1, slot_start(j)] {
                let mut sim = NegotiatorSim::new(small_cfg(), TopologyKind::Parallel);
                sim.slot_major = slot_major;
                let flow = |bytes, arrival| Flow {
                    id: 0,
                    src: 0,
                    dst: 5,
                    bytes,
                    arrival,
                };
                let trace = FlowTrace::new(vec![flow(10_000_000, 0), flow(1_000, arrival)]);
                sim.run(&trace, (epoch_no + 2) * sim.epoch_len());
                let matched = &sim.active[..sim.s];
                assert!(matched.iter().all(|&d| d == Some(5)), "{matched:?}");
                assert_eq!(
                    sim.tracker().completion(1),
                    Some(slot_start(j + 1) + sim.cfg.net.propagation_delay),
                    "slot-major {slot_major}, arrival {arrival}"
                );
            }
        }
    }
}
