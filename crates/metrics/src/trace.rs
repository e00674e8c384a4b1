//! Deterministic flight recorder: a bounded ring of epoch-stamped events.
//!
//! Both engines can carry a [`FlightRecorder`] (behind an `Option`, so the
//! off state costs one branch per epoch); events are emitted from the run
//! loop the engines share ([`crate::frame::run`]), between ticks — after
//! the shards of the tick have merged — so a trace is a pure function of
//! (config, seed) and byte-identical at any `--workers` count. The ring is
//! preallocated at construction and never grows: recording is a store into
//! existing capacity, with no wall-clock reads and no allocation on the
//! hot path (lint D002/H001 apply to this module — `metrics` is an engine
//! zone). When the ring fills, the oldest events are overwritten and
//! counted in `dropped`, so a trace always holds the most recent window.
//!
//! Rendering to NDJSON ([`FlightRecorder::render_ndjson`]) happens once,
//! after the run, and costs a write per event: each line's fixed key text
//! and decimal digits go straight into one buffer reserved from the event
//! count, with no JSON tree per line. The text form is consumed by `paper
//! scenario --trace`, the daemon's `GET /jobs/{id}/trace` and the `paper
//! trace` summarizer; its field layout is documented in the README
//! "Observability" section and stamped with [`TRACE_SCHEMA_VERSION`].

use crate::json::Json;
use crate::phase::PhaseCounters;
use sim::time::Nanos;

/// Version stamped on every `trace_start` line. Bump on any change to
/// event names or field layout. v2 added the causal flow-lifecycle span
/// events (`flow_born` … `flow_complete`).
pub const TRACE_SCHEMA_VERSION: u64 = 2;

/// Default ring capacity (events). Chosen so a daemon retaining traces for
/// its full job table stays bounded: 16 Ki events × 56 B = 896 KiB per
/// trace before rendering.
pub const DEFAULT_TRACE_CAPACITY: usize = 16_384;

// The 56 B a ring slot takes, which the figure above rests on.
const _: () = assert!(std::mem::size_of::<TraceEvent>() == 56);

/// What a [`TraceEvent`] records. The three payload words `a`/`b`/`c` (and
/// `d`) are interpreted per kind — see each variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// Control-plane outcomes for one epoch: `a` = REQUESTs sent, `b` =
    /// GRANTs issued, `c` = ACCEPTs made (deltas since the previous
    /// epoch). Emitted only when at least one delta is nonzero.
    Sched,
    /// Control messages dropped (gray failures): `a` = dropped this epoch,
    /// `b` = cumulative total.
    ControlDrop,
    /// Fault-detector divergence from ground truth changed: `a` = links
    /// currently excluded but healthy (false positives), `b` = links down
    /// but not excluded (false negatives).
    Detector,
    /// Scheduled fault activity applied at this epoch: `a` = injected
    /// fault actions (flap/partition/gray/greedy), `b` = plain link
    /// fail/repair events, `c` = cumulative total of both.
    Fault,
    /// A ToR's queued backlog reached a new high-water mark: `a` = ToR
    /// index, `b` = backlog bytes. Emitted when the backlog first becomes
    /// nonzero and thereafter only when it doubles the previous mark, so
    /// a congested run cannot flood the ring.
    Backlog,
    /// A workload phase boundary passed: `a` = phase index, `b` =
    /// delivered bytes, `c` = backlog bytes, `d` = partitioned ToRs.
    Phase,
    /// A flow arrived at its source ToR: `a` = flow id, `b` = src ToR,
    /// `c` = dst ToR, `d` = flow bytes.
    FlowBorn,
    /// First REQUEST covering the flow's (src, dst) pair after its birth:
    /// `a` = flow id, `b` = src ToR, `c` = dst ToR.
    FlowRequest,
    /// First GRANT covering the flow's pair: same payload as
    /// [`TraceEventKind::FlowRequest`].
    FlowGrant,
    /// First ACCEPT (scheduled transmission slot) covering the flow's
    /// pair: same payload as [`TraceEventKind::FlowRequest`].
    FlowAccept,
    /// The flow's first payload bytes were dequeued toward the
    /// destination: `a` = flow id, `b` = bytes sent so far.
    FlowFirstTx,
    /// The flow's last byte was delivered (completion *is* last-packet
    /// dequeue at the destination ToR): `a` = flow id, `b` = FCT in ns,
    /// `c` = src ToR, `d` = dst ToR.
    FlowComplete,
}

impl TraceEventKind {
    /// The `"event"` field value on the NDJSON line.
    pub fn name(self) -> &'static str {
        match self {
            TraceEventKind::Sched => "sched",
            TraceEventKind::ControlDrop => "control_drop",
            TraceEventKind::Detector => "detector",
            TraceEventKind::Fault => "fault",
            TraceEventKind::Backlog => "backlog_watermark",
            TraceEventKind::Phase => "phase",
            TraceEventKind::FlowBorn => "flow_born",
            TraceEventKind::FlowRequest => "flow_request",
            TraceEventKind::FlowGrant => "flow_grant",
            TraceEventKind::FlowAccept => "flow_accept",
            TraceEventKind::FlowFirstTx => "flow_first_tx",
            TraceEventKind::FlowComplete => "flow_complete",
        }
    }

    /// The NDJSON keys of the payload words, in `a`, `b`, `c`, `d` order;
    /// a kind renders as many words as it has keys.
    fn fields(self) -> &'static [&'static str] {
        match self {
            TraceEventKind::Sched => &["requests", "grants", "accepts"],
            TraceEventKind::ControlDrop => &["dropped", "total"],
            TraceEventKind::Detector => &["fp_links", "fn_links"],
            TraceEventKind::Fault => &["injected", "link_events", "total"],
            TraceEventKind::Backlog => &["tor", "bytes"],
            TraceEventKind::Phase => &[
                "phase",
                "delivered_bytes",
                "backlog_bytes",
                "partitioned_tors",
            ],
            TraceEventKind::FlowBorn => &["flow", "src", "dst", "bytes"],
            TraceEventKind::FlowRequest
            | TraceEventKind::FlowGrant
            | TraceEventKind::FlowAccept => &["flow", "src", "dst"],
            TraceEventKind::FlowFirstTx => &["flow", "sent_bytes"],
            TraceEventKind::FlowComplete => &["flow", "fct_ns", "src", "dst"],
        }
    }
}

/// One fixed-size recorded event. `Copy` so ring writes are plain stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time of the epoch (or slot) that emitted the event.
    pub at: Nanos,
    /// Epoch (negotiator) or slot (oblivious) index.
    pub epoch: u64,
    /// Event kind; selects the meaning of the payload words.
    pub kind: TraceEventKind,
    /// First payload word.
    pub a: u64,
    /// Second payload word.
    pub b: u64,
    /// Third payload word.
    pub c: u64,
    /// Fourth payload word.
    pub d: u64,
}

/// Cumulative engine counters the recorder diffs against between epochs.
/// Engines fill whichever fields they track; the recorder turns them into
/// delta/transition events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCursor {
    /// REQUEST messages sent so far.
    pub requests: u64,
    /// GRANTs issued so far.
    pub grants: u64,
    /// ACCEPTs made so far.
    pub accepts: u64,
    /// Control messages dropped so far.
    pub control_dropped: u64,
    /// Current detector false-positive link count.
    pub detector_fp: u64,
    /// Current detector false-negative link count.
    pub detector_fn: u64,
}

/// Preallocated, bounded recorder of [`TraceEvent`]s.
///
/// Construct with [`FlightRecorder::with_capacity`], hand it to an engine
/// before `run()`, take it back afterwards and render. All recording
/// methods are allocation-free; `n_tors` sizes the per-ToR watermark table
/// up front.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    events: Vec<TraceEvent>,
    head: usize,
    dropped: u64,
    last: TraceCursor,
    watermarks: Vec<u64>,
}

impl FlightRecorder {
    /// Recorder holding at most `capacity` events, tracking backlog
    /// watermarks for `n_tors` ToRs. `capacity` must be nonzero.
    pub fn with_capacity(capacity: usize, n_tors: usize) -> FlightRecorder {
        assert!(capacity > 0, "flight recorder capacity must be nonzero");
        FlightRecorder {
            events: Vec::with_capacity(capacity),
            head: 0,
            dropped: 0,
            last: TraceCursor::default(),
            watermarks: vec![0; n_tors],
        }
    }

    /// Recorder with [`DEFAULT_TRACE_CAPACITY`].
    pub fn new(n_tors: usize) -> FlightRecorder {
        FlightRecorder::with_capacity(DEFAULT_TRACE_CAPACITY, n_tors)
    }

    /// Events currently held, oldest first.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events overwritten after the ring filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    // lint: hot-path
    /// Append one event, overwriting the oldest when full. Called from
    /// engine main loops: a branch and a store, nothing else.
    #[inline]
    pub fn record(&mut self, ev: TraceEvent) {
        if self.events.len() < self.events.capacity() {
            // lint: allow(H001) push into preallocated capacity; the ring never grows
            self.events.push(ev);
        } else {
            self.events[self.head] = ev;
            self.head += 1;
            if self.head == self.events.len() {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }

    // lint: hot-path
    /// Diff `now` against the previous epoch's cursor and emit `sched`,
    /// `control_drop` and `detector` events for whatever changed.
    #[inline]
    pub fn epoch_counters(&mut self, at: Nanos, epoch: u64, now: TraceCursor) {
        let (dr, dg, da) = (
            now.requests - self.last.requests,
            now.grants - self.last.grants,
            now.accepts - self.last.accepts,
        );
        if dr | dg | da != 0 {
            self.record(TraceEvent {
                at,
                epoch,
                kind: TraceEventKind::Sched,
                a: dr,
                b: dg,
                c: da,
                d: 0,
            });
        }
        let dd = now.control_dropped - self.last.control_dropped;
        if dd != 0 {
            self.record(TraceEvent {
                at,
                epoch,
                kind: TraceEventKind::ControlDrop,
                a: dd,
                b: now.control_dropped,
                c: 0,
                d: 0,
            });
        }
        if now.detector_fp != self.last.detector_fp || now.detector_fn != self.last.detector_fn {
            self.record(TraceEvent {
                at,
                epoch,
                kind: TraceEventKind::Detector,
                a: now.detector_fp,
                b: now.detector_fn,
                c: 0,
                d: 0,
            });
        }
        self.last = now;
    }

    // lint: hot-path
    /// Record fault-schedule activity: `injected` adversarial actions and
    /// `links` plain fail/repair events applied at this epoch. No-op when
    /// both are zero.
    #[inline]
    pub fn fault_applied(&mut self, at: Nanos, epoch: u64, injected: u64, links: u64, total: u64) {
        if injected | links != 0 {
            self.record(TraceEvent {
                at,
                epoch,
                kind: TraceEventKind::Fault,
                a: injected,
                b: links,
                c: total,
                d: 0,
            });
        }
    }

    // lint: hot-path
    /// Offer one ToR's current backlog; emits a `backlog_watermark` event
    /// only when it first becomes nonzero or doubles the previous mark.
    #[inline]
    pub fn backlog_sample(&mut self, at: Nanos, epoch: u64, tor: usize, bytes: u64) {
        let mark = &mut self.watermarks[tor];
        if bytes > 0 && (*mark == 0 || bytes >= *mark * 2) {
            *mark = bytes;
            self.record(TraceEvent {
                at,
                epoch,
                kind: TraceEventKind::Backlog,
                a: tor as u64,
                b: bytes,
                c: 0,
                d: 0,
            });
        }
    }

    // lint: hot-path
    /// Record a workload phase boundary from the same counters the
    /// [`crate::PhaseProbe`] snapshot carries.
    #[inline]
    pub fn phase_boundary(&mut self, at: Nanos, epoch: u64, phase: u64, c: &PhaseCounters) {
        self.record(TraceEvent {
            at,
            epoch,
            kind: TraceEventKind::Phase,
            a: phase,
            b: c.delivered_bytes,
            c: c.backlog_bytes,
            d: c.partitioned_tors,
        });
    }

    /// Iterate events oldest-first (accounting for ring wrap).
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        let (wrapped, recent) = if self.dropped > 0 {
            let (a, b) = self.events.split_at(self.head);
            (b, a)
        } else {
            (&self.events[..], &self.events[..0])
        };
        wrapped.iter().chain(recent.iter())
    }

    /// Render the trace as NDJSON: a `trace_start` header, one line per
    /// event oldest-first, and a `trace_end` footer carrying the held and
    /// dropped counts. Event lines are written straight into one buffer
    /// reserved up front (`write_event_line`); only the header and
    /// footer, which carry the caller's `system` label and so need
    /// escaping, go through [`Json`].
    pub fn render_ndjson(&self, system: &str) -> String {
        let mut out = String::with_capacity((self.events.len() + 2) * LINE_BYTES_HINT);
        let mut start = Json::object();
        start
            .push("event", "trace_start")
            .push("schema_version", TRACE_SCHEMA_VERSION)
            .push("system", system)
            .push("capacity", self.events.capacity() as u64);
        out.push_str(&start.render_compact());
        out.push('\n');
        for ev in self.events() {
            write_event_line(&mut out, ev);
        }
        let mut end = Json::object();
        end.push("event", "trace_end")
            .push("system", system)
            .push("events", self.events.len() as u64)
            .push("dropped", self.dropped);
        out.push_str(&end.render_compact());
        out.push('\n');
        out
    }
}

/// Bytes [`FlightRecorder::render_ndjson`] reserves per line: a little
/// above the mean event line of the curated scenarios (~85 B), so one
/// reservation usually holds the whole trace.
const LINE_BYTES_HINT: usize = 96;

// lint: hot-path
/// Append one event as a compact JSON object and a newline:
/// `{"event":…,"epoch":…,"t_ns":…` then the kind's
/// [`TraceEventKind::fields`] over the payload words `a`, `b`, `c`, `d`,
/// in that order. Keys and event names are plain ASCII identifiers that
/// JSON needs no escape for, so they are pushed as they are.
fn write_event_line(out: &mut String, ev: &TraceEvent) {
    out.push_str("{\"event\":\"");
    out.push_str(ev.kind.name());
    out.push_str("\",\"epoch\":");
    push_u64(out, ev.epoch);
    out.push_str(",\"t_ns\":");
    push_u64(out, ev.at);
    for (key, value) in ev.kind.fields().iter().zip([ev.a, ev.b, ev.c, ev.d]) {
        out.push_str(",\"");
        out.push_str(key);
        out.push_str("\":");
        push_u64(out, value);
    }
    out.push_str("}\n");
}

// lint: hot-path
/// Append `v` in decimal, as [`Json::UInt`] renders it, without going
/// through `core::fmt`.
#[inline]
fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20]; // u64::MAX has 20 digits
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[i..]).expect("ASCII digits"));
}

/// Milestone bits a flow passes through, in causal order.
mod milestone {
    pub const BORN: u8 = 1 << 0;
    pub const REQUESTED: u8 = 1 << 1;
    pub const GRANTED: u8 = 1 << 2;
    pub const ACCEPTED: u8 = 1 << 3;
    pub const FIRST_TX: u8 = 1 << 4;
}

/// Causal flow-lifecycle span tracker: turns per-epoch engine state into
/// `flow_born → flow_request → flow_grant → flow_accept → flow_first_tx →
/// flow_complete` events on a [`FlightRecorder`].
///
/// The control plane negotiates per (src, dst) ToR *pair*, not per flow,
/// so engines stamp pair-level activity ([`FlowSpans::mark_request`] and
/// friends) with the epoch it happened in — stamping is idempotent and
/// order-independent, which is what keeps span bytes identical when a
/// parallel shard merge delivers the same pair set in a different order.
/// [`FlowSpans::sweep`] then walks the live flows in flow-id order (the
/// one deterministic order) and emits each flow's first crossing of each
/// milestone. On a tick where no pair was stamped and no flow completed,
/// such a walk can emit only `flow_first_tx` events, so the run frame
/// calls [`FlowSpans::sweep_waiting`] instead, which walks only the flows
/// still awaiting their first transmission and emits the same events in
/// the same order. All state is preallocated at construction
/// ([`FlowSpans::new`]); recording is allocation-free and reads no clock,
/// same discipline as the recorder itself.
#[derive(Debug, Clone)]
pub struct FlowSpans {
    n_tors: usize,
    /// Per-flow milestone bits (indexed by flow id).
    flags: Vec<u8>,
    src: Vec<u32>,
    dst: Vec<u32>,
    bytes: Vec<u64>,
    arrival: Vec<u64>,
    /// Per pair (src * n_tors + dst), the most recent REQUEST, GRANT and
    /// ACCEPT epoch as its [`stamp`], `0` = never: one zero-initialized
    /// table of 12 B per pair, written only where a pair negotiates.
    pair_stamps: Vec<[u32; 3]>,
    /// Born-but-incomplete flow ids, maintained in ascending id order.
    live: Vec<u32>,
    /// The ids of `live` without [`milestone::FIRST_TX`], in ascending id
    /// order: what [`FlowSpans::sweep_waiting`] walks.
    waiting: Vec<u32>,
    /// Whether a pair was stamped since the last sweep.
    stamped: bool,
    /// Next flow id to be born (flows are born in ascending id order, the
    /// injection order, so this is also the born count).
    born_next: usize,
}

/// Columns of [`FlowSpans::pair_stamps`].
const REQUEST: usize = 0;
const GRANT: usize = 1;
const ACCEPT: usize = 2;

/// The pair stamp of `epoch`: `epoch + 1`, so that `0` can mean "never".
/// Panics past `u32::MAX - 1` epochs rather than wrap.
#[inline]
fn stamp(epoch: u64) -> u32 {
    u32::try_from(epoch + 1).expect("pair stamps hold epochs below u32::MAX")
}

impl FlowSpans {
    /// Span tracker for a run of `n_flows` flows over `n_tors` ToRs.
    /// Everything the hot path touches is sized here.
    pub fn new(n_tors: usize, n_flows: usize) -> FlowSpans {
        FlowSpans {
            n_tors,
            flags: vec![0; n_flows],
            src: vec![0; n_flows],
            dst: vec![0; n_flows],
            bytes: vec![0; n_flows],
            arrival: vec![0; n_flows],
            pair_stamps: vec![[0; 3]; n_tors * n_tors],
            live: Vec::with_capacity(n_flows),
            waiting: Vec::with_capacity(n_flows),
            stamped: false,
            born_next: 0,
        }
    }

    /// Flows currently born but not yet complete.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Whether a pair was stamped since the last sweep. When none was and
    /// no flow completed since then either, a [`Self::sweep`] would emit
    /// only `flow_first_tx` events, and [`Self::sweep_waiting`] emits the
    /// same ones: a pair's stamp equals this tick's only if it was marked
    /// this tick, and a flow completes only through a delivery, which
    /// moves [`crate::FlowTracker::completed_count`].
    pub fn stamped(&self) -> bool {
        self.stamped
    }

    /// The next flow id awaiting birth — engines birth `flows[next_born()
    /// .. injected]` each epoch, in id order.
    pub fn next_born(&self) -> usize {
        self.born_next
    }

    // lint: hot-path
    /// Record a flow's arrival at its source ToR and start tracking it.
    /// Flows must be born in ascending id order (the injection order).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn born(
        &mut self,
        rec: &mut FlightRecorder,
        at: Nanos,
        epoch: u64,
        id: u32,
        src: u32,
        dst: u32,
        bytes: u64,
        arrival: Nanos,
    ) {
        let i = id as usize;
        debug_assert_eq!(i, self.born_next, "flows must be born in id order");
        self.born_next = i + 1;
        self.flags[i] = milestone::BORN;
        self.src[i] = src;
        self.dst[i] = dst;
        self.bytes[i] = bytes;
        self.arrival[i] = arrival;
        // lint: allow(H001) push into capacity preallocated for every flow
        self.live.push(id);
        // lint: allow(H001) push into capacity preallocated for every flow
        self.waiting.push(id);
        rec.record(TraceEvent {
            at,
            epoch,
            kind: TraceEventKind::FlowBorn,
            a: id as u64,
            b: src as u64,
            c: dst as u64,
            d: bytes,
        });
    }

    // lint: hot-path
    /// Stamp a REQUEST sent for pair `src → dst` at `epoch`. Idempotent
    /// and order-independent; events are emitted later by [`Self::sweep`].
    #[inline]
    pub fn mark_request(&mut self, src: u32, dst: u32, epoch: u64) {
        self.mark(src, dst, REQUEST, epoch);
    }

    // lint: hot-path
    /// Stamp a GRANT issued for pair `src → dst` at `epoch`.
    #[inline]
    pub fn mark_grant(&mut self, src: u32, dst: u32, epoch: u64) {
        self.mark(src, dst, GRANT, epoch);
    }

    // lint: hot-path
    /// Stamp an ACCEPT (scheduled slot) for pair `src → dst` at `epoch`.
    #[inline]
    pub fn mark_accept(&mut self, src: u32, dst: u32, epoch: u64) {
        self.mark(src, dst, ACCEPT, epoch);
    }

    #[inline]
    fn mark(&mut self, src: u32, dst: u32, step: usize, epoch: u64) {
        self.pair_stamps[src as usize * self.n_tors + dst as usize][step] = stamp(epoch);
        self.stamped = true;
    }

    // lint: hot-path
    /// Walk the live flows in flow-id order, emit every milestone crossed
    /// this `epoch`, and retire completed flows. `flow_state` reports a
    /// flow's `(remaining_bytes, completion_time)` — completion is
    /// last-byte delivery, so `flow_complete` doubles as the last-packet
    /// dequeue span end. Compacts `live` and rebuilds `waiting` in place;
    /// no allocation.
    #[inline]
    pub fn sweep(
        &mut self,
        rec: &mut FlightRecorder,
        at: Nanos,
        epoch: u64,
        mut flow_state: impl FnMut(u32) -> (u64, Option<Nanos>),
    ) {
        let now = stamp(epoch);
        self.stamped = false;
        self.waiting.clear();
        let mut w = 0usize;
        for r in 0..self.live.len() {
            let id = self.live[r];
            let i = id as usize;
            let (src, dst) = (self.src[i], self.dst[i]);
            let stamps = self.pair_stamps[src as usize * self.n_tors + dst as usize];
            let steps: [(u8, u32, TraceEventKind); 3] = [
                (
                    milestone::REQUESTED,
                    stamps[REQUEST],
                    TraceEventKind::FlowRequest,
                ),
                (milestone::GRANTED, stamps[GRANT], TraceEventKind::FlowGrant),
                (
                    milestone::ACCEPTED,
                    stamps[ACCEPT],
                    TraceEventKind::FlowAccept,
                ),
            ];
            for (bit, stamped, kind) in steps {
                if self.flags[i] & bit == 0 && stamped == now {
                    self.flags[i] |= bit;
                    rec.record(TraceEvent {
                        at,
                        epoch,
                        kind,
                        a: id as u64,
                        b: src as u64,
                        c: dst as u64,
                        d: 0,
                    });
                }
            }
            let (remaining, completion) = flow_state(id);
            if self.flags[i] & milestone::FIRST_TX == 0 && remaining < self.bytes[i] {
                self.flags[i] |= milestone::FIRST_TX;
                rec.record(TraceEvent {
                    at,
                    epoch,
                    kind: TraceEventKind::FlowFirstTx,
                    a: id as u64,
                    b: self.bytes[i] - remaining,
                    c: 0,
                    d: 0,
                });
            }
            if let Some(done) = completion {
                rec.record(TraceEvent {
                    at,
                    epoch,
                    kind: TraceEventKind::FlowComplete,
                    a: id as u64,
                    b: done - self.arrival[i],
                    c: src as u64,
                    d: dst as u64,
                });
                continue; // retired: drop from the live list
            }
            self.live[w] = id;
            w += 1;
            if self.flags[i] & milestone::FIRST_TX == 0 {
                // lint: allow(H001) push into capacity preallocated for every flow
                self.waiting.push(id);
            }
        }
        self.live.truncate(w);
    }

    // lint: hot-path
    /// The quiet-tick form of [`Self::sweep`], for a tick on which no pair
    /// was stamped ([`Self::stamped`]) and no flow completed: walk only the
    /// flows awaiting their first transmission, in flow-id order, and emit
    /// `flow_first_tx` for each that `remaining` (its undelivered bytes)
    /// shows has sent. Compacts `waiting` in place; no allocation.
    #[inline]
    pub fn sweep_waiting(
        &mut self,
        rec: &mut FlightRecorder,
        at: Nanos,
        epoch: u64,
        mut remaining: impl FnMut(u32) -> u64,
    ) {
        let mut w = 0usize;
        for r in 0..self.waiting.len() {
            let id = self.waiting[r];
            let i = id as usize;
            let left = remaining(id);
            if left < self.bytes[i] {
                self.flags[i] |= milestone::FIRST_TX;
                rec.record(TraceEvent {
                    at,
                    epoch,
                    kind: TraceEventKind::FlowFirstTx,
                    a: id as u64,
                    b: self.bytes[i] - left,
                    c: 0,
                    d: 0,
                });
                continue; // sent: no longer waiting
            }
            self.waiting[w] = id;
            w += 1;
        }
        self.waiting.truncate(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(epoch: u64, a: u64) -> TraceEvent {
        TraceEvent {
            at: epoch * 100,
            epoch,
            kind: TraceEventKind::Sched,
            a,
            b: 0,
            c: 0,
            d: 0,
        }
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_dropped() {
        let mut r = FlightRecorder::with_capacity(3, 0);
        for i in 0..5 {
            r.record(ev(i, i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let epochs: Vec<u64> = r.events().map(|e| e.epoch).collect();
        assert_eq!(epochs, vec![2, 3, 4], "oldest-first after wrap");
    }

    #[test]
    fn capacity_never_grows() {
        let mut r = FlightRecorder::with_capacity(4, 0);
        let cap = r.events.capacity();
        for i in 0..100 {
            r.record(ev(i, 0));
        }
        assert_eq!(r.events.capacity(), cap);
    }

    #[test]
    fn epoch_counters_emit_deltas_only_on_change() {
        let mut r = FlightRecorder::with_capacity(16, 0);
        let mut c = TraceCursor {
            requests: 5,
            grants: 3,
            accepts: 2,
            ..TraceCursor::default()
        };
        r.epoch_counters(100, 1, c);
        assert_eq!(r.len(), 1);
        let first = *r.events().next().unwrap();
        assert_eq!((first.a, first.b, first.c), (5, 3, 2));
        // Nothing changed: no new event.
        r.epoch_counters(200, 2, c);
        assert_eq!(r.len(), 1);
        // Drops and a detector transition land as separate events.
        c.control_dropped = 7;
        c.detector_fp = 1;
        r.epoch_counters(300, 3, c);
        let kinds: Vec<TraceEventKind> = r.events().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TraceEventKind::Sched,
                TraceEventKind::ControlDrop,
                TraceEventKind::Detector
            ]
        );
    }

    #[test]
    fn backlog_watermark_requires_doubling() {
        let mut r = FlightRecorder::with_capacity(16, 2);
        r.backlog_sample(0, 0, 1, 100); // first nonzero: emit
        r.backlog_sample(1, 1, 1, 150); // below 2x: silent
        r.backlog_sample(2, 2, 1, 200); // 2x: emit
        r.backlog_sample(3, 3, 0, 50); // other ToR: emit
        let marks: Vec<(u64, u64)> = r
            .events()
            .filter(|e| e.kind == TraceEventKind::Backlog)
            .map(|e| (e.a, e.b))
            .collect();
        assert_eq!(marks, vec![(1, 100), (1, 200), (0, 50)]);
    }

    #[test]
    fn fault_applied_is_silent_when_nothing_fired() {
        let mut r = FlightRecorder::with_capacity(4, 0);
        r.fault_applied(0, 0, 0, 0, 0);
        assert!(r.is_empty());
        r.fault_applied(100, 1, 2, 1, 3);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn ndjson_round_trips_and_carries_schema_version() {
        let mut r = FlightRecorder::with_capacity(8, 1);
        r.epoch_counters(
            100,
            1,
            TraceCursor {
                requests: 1,
                grants: 1,
                accepts: 1,
                ..TraceCursor::default()
            },
        );
        r.backlog_sample(100, 1, 0, 64);
        r.phase_boundary(
            200,
            2,
            0,
            &PhaseCounters {
                delivered_bytes: 1024,
                backlog_bytes: 64,
                ..PhaseCounters::default()
            },
        );
        let text = r.render_ndjson("negotiator");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5, "start + 3 events + end");
        let start = Json::parse(lines[0]).unwrap();
        assert_eq!(
            start.get("schema_version").and_then(Json::as_u64),
            Some(TRACE_SCHEMA_VERSION)
        );
        for line in &lines {
            Json::parse(line).expect("every trace line parses as JSON");
        }
        let end = Json::parse(lines[4]).unwrap();
        assert_eq!(end.get("events").and_then(Json::as_u64), Some(3));
        assert_eq!(end.get("dropped").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn flow_spans_emit_the_causal_lifecycle_once() {
        let mut r = FlightRecorder::with_capacity(64, 2);
        let mut s = FlowSpans::new(2, 1);
        // Epoch 0: birth + REQUEST, nothing sent yet.
        s.born(&mut r, 0, 0, 0, 0, 1, 1_000, 0);
        s.mark_request(0, 1, 0);
        s.sweep(&mut r, 0, 0, |_| (1_000, None));
        // Epoch 1: GRANT arrives; re-sweeping must not re-emit the request.
        s.mark_grant(0, 1, 1);
        s.sweep(&mut r, 100, 1, |_| (1_000, None));
        // Epoch 2: ACCEPT + first bytes move.
        s.mark_accept(0, 1, 2);
        s.sweep(&mut r, 200, 2, |_| (600, None));
        // Epoch 3: last byte delivered; flow retires.
        s.sweep(&mut r, 300, 3, |_| (0, Some(250)));
        assert_eq!(s.live_count(), 0);
        let kinds: Vec<TraceEventKind> = r.events().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TraceEventKind::FlowBorn,
                TraceEventKind::FlowRequest,
                TraceEventKind::FlowGrant,
                TraceEventKind::FlowAccept,
                TraceEventKind::FlowFirstTx,
                TraceEventKind::FlowComplete,
            ]
        );
        let done = r.events().last().unwrap();
        assert_eq!((done.a, done.b, done.c, done.d), (0, 250, 0, 1));
        // Retired flows never re-emit, even if the pair stays active.
        s.mark_request(0, 1, 4);
        s.sweep(&mut r, 400, 4, |_| (0, Some(250)));
        assert_eq!(r.len(), 6);
    }

    #[test]
    fn flow_spans_stale_pair_stamps_do_not_leak_into_later_flows() {
        let mut r = FlightRecorder::with_capacity(64, 2);
        let mut s = FlowSpans::new(2, 2);
        s.born(&mut r, 0, 0, 0, 0, 1, 100, 0);
        s.mark_request(0, 1, 0);
        s.sweep(&mut r, 0, 0, |_| (100, None));
        // Flow 1 on the same pair is born two epochs later: the epoch-0
        // REQUEST stamp must not be attributed to it.
        s.born(&mut r, 200, 2, 1, 0, 1, 100, 200);
        s.sweep(&mut r, 200, 2, |id| (100, (id == 0).then_some(150)));
        let requests = r
            .events()
            .filter(|e| e.kind == TraceEventKind::FlowRequest)
            .count();
        assert_eq!(requests, 1, "only flow 0 saw the epoch-0 REQUEST");
        assert_eq!(s.live_count(), 1);
    }

    #[test]
    fn flow_span_events_render_with_named_fields() {
        let mut r = FlightRecorder::with_capacity(16, 2);
        let mut s = FlowSpans::new(2, 1);
        s.born(&mut r, 0, 0, 0, 1, 0, 512, 0);
        s.mark_request(1, 0, 0);
        s.sweep(&mut r, 0, 0, |_| (0, Some(90)));
        let text = r.render_ndjson("negotiator");
        assert!(text.contains(
            "\"event\":\"flow_born\",\"epoch\":0,\"t_ns\":0,\"flow\":0,\"src\":1,\"dst\":0,\"bytes\":512"
        ));
        assert!(text.contains("\"event\":\"flow_request\""));
        assert!(text.contains("\"event\":\"flow_first_tx\""));
        assert!(text.contains(
            "\"event\":\"flow_complete\",\"epoch\":0,\"t_ns\":0,\"flow\":0,\"fct_ns\":90"
        ));
        for line in text.lines() {
            Json::parse(line).expect("every span line parses");
        }
    }

    /// The per-line rendering `render_ndjson` used before it wrote lines
    /// directly: a [`Json`] object per event, rendered compact.
    fn oracle_line(ev: &TraceEvent) -> String {
        let mut line = Json::object();
        line.push("event", ev.kind.name())
            .push("epoch", ev.epoch)
            .push("t_ns", ev.at);
        match ev.kind {
            TraceEventKind::Sched => {
                line.push("requests", ev.a)
                    .push("grants", ev.b)
                    .push("accepts", ev.c);
            }
            TraceEventKind::ControlDrop => {
                line.push("dropped", ev.a).push("total", ev.b);
            }
            TraceEventKind::Detector => {
                line.push("fp_links", ev.a).push("fn_links", ev.b);
            }
            TraceEventKind::Fault => {
                line.push("injected", ev.a)
                    .push("link_events", ev.b)
                    .push("total", ev.c);
            }
            TraceEventKind::Backlog => {
                line.push("tor", ev.a).push("bytes", ev.b);
            }
            TraceEventKind::Phase => {
                line.push("phase", ev.a)
                    .push("delivered_bytes", ev.b)
                    .push("backlog_bytes", ev.c)
                    .push("partitioned_tors", ev.d);
            }
            TraceEventKind::FlowBorn => {
                line.push("flow", ev.a)
                    .push("src", ev.b)
                    .push("dst", ev.c)
                    .push("bytes", ev.d);
            }
            TraceEventKind::FlowRequest
            | TraceEventKind::FlowGrant
            | TraceEventKind::FlowAccept => {
                line.push("flow", ev.a).push("src", ev.b).push("dst", ev.c);
            }
            TraceEventKind::FlowFirstTx => {
                line.push("flow", ev.a).push("sent_bytes", ev.b);
            }
            TraceEventKind::FlowComplete => {
                line.push("flow", ev.a)
                    .push("fct_ns", ev.b)
                    .push("src", ev.c)
                    .push("dst", ev.d);
            }
        }
        let mut text = line.render_compact();
        text.push('\n');
        text
    }

    const KINDS: [TraceEventKind; 12] = [
        TraceEventKind::Sched,
        TraceEventKind::ControlDrop,
        TraceEventKind::Detector,
        TraceEventKind::Fault,
        TraceEventKind::Backlog,
        TraceEventKind::Phase,
        TraceEventKind::FlowBorn,
        TraceEventKind::FlowRequest,
        TraceEventKind::FlowGrant,
        TraceEventKind::FlowAccept,
        TraceEventKind::FlowFirstTx,
        TraceEventKind::FlowComplete,
    ];

    /// Every kind, with `at`, `epoch` and each payload word at 0, 1 and
    /// `u64::MAX`: the direct line equals the JSON tree's byte for byte
    /// and parses back to the same numbers.
    #[test]
    fn event_lines_equal_the_json_tree_rendering() {
        let values = [0, 1, u64::MAX];
        for kind in KINDS {
            for i in 0..values.len().pow(6) {
                let pick = |k: u32| values[i / values.len().pow(k) % values.len()];
                let ev = TraceEvent {
                    at: pick(0),
                    epoch: pick(1),
                    kind,
                    a: pick(2),
                    b: pick(3),
                    c: pick(4),
                    d: pick(5),
                };
                let mut line = String::new();
                write_event_line(&mut line, &ev);
                assert_eq!(line, oracle_line(&ev), "{ev:?}");
                let parsed = Json::parse(line.trim_end()).expect("the line parses");
                assert_eq!(
                    parsed.get("event").and_then(Json::as_str),
                    Some(kind.name())
                );
                assert_eq!(parsed.get("epoch").and_then(Json::as_u64), Some(ev.epoch));
                assert_eq!(parsed.get("t_ns").and_then(Json::as_u64), Some(ev.at));
                for (key, word) in kind.fields().iter().zip([ev.a, ev.b, ev.c, ev.d]) {
                    assert_eq!(parsed.get(key).and_then(Json::as_u64), Some(word), "{key}");
                }
            }
        }
    }

    /// A `system` label JSON must escape reaches the header and footer
    /// escaped, and the whole trace equals the tree rendering.
    #[test]
    fn header_and_footer_escape_the_system_label() {
        let system = "nego \"quoted\" \\ path";
        let mut r = FlightRecorder::with_capacity(4, 0);
        for i in 0..6 {
            r.record(ev(i, i * 3));
        }
        let text = r.render_ndjson(system);
        let mut start = Json::object();
        start
            .push("event", "trace_start")
            .push("schema_version", TRACE_SCHEMA_VERSION)
            .push("system", system)
            .push("capacity", 4u64);
        let mut want = start.render_compact() + "\n";
        for e in r.events() {
            want.push_str(&oracle_line(e));
        }
        let mut end = Json::object();
        end.push("event", "trace_end")
            .push("system", system)
            .push("events", 4u64)
            .push("dropped", 2u64);
        want.push_str(&(end.render_compact() + "\n"));
        assert_eq!(text, want);
        let lines: Vec<&str> = text.lines().collect();
        for line in [lines[0], lines[lines.len() - 1]] {
            let v = Json::parse(line).expect("header and footer parse");
            assert_eq!(v.get("system").and_then(Json::as_str), Some(system));
        }
    }

    #[test]
    fn rendering_is_deterministic() {
        let build = || {
            let mut r = FlightRecorder::with_capacity(4, 1);
            for i in 0..9 {
                r.record(ev(i, i * 7));
            }
            r.render_ndjson("oblivious")
        };
        assert_eq!(build(), build());
    }
}
