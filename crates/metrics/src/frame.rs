//! The run frame both epoch engines share.
//!
//! A run of either engine is the same loop around a different scheduling
//! policy: advance the clock one tick (an epoch for the negotiator, a
//! rotor slot for the oblivious baseline), snapshot the phase probe when a
//! boundary passed, apply the fault schedule, play the tick, emit the
//! tick's flow spans, stop once everything drained, then close the probe
//! and build the report. [`run`] is that loop, written once; [`RunFrame`]
//! is the state it needs (ground-truth links and the fault timeline that
//! changes them, probe, flight recorder, the finished run's tracker), held
//! by both engines and reached through `Deref`, so the scheduling and
//! attachment calls (`schedule_fault`, `set_phase_probe`, `tracker`, …)
//! are defined here and nowhere else. An engine supplies only
//! [`EpochEngine`]: its tick length, its tick, its side of the counters.

use std::ops::DerefMut;

use sim::time::Nanos;
use topology::{FaultAction, FaultModel, LinkFailures, NetworkConfig};
use workload::{Flow, FlowTrace};

use crate::fct::{FlowTracker, RunReport};
use crate::phase::{PhaseCounters, PhaseProbe};
use crate::trace::{FlightRecorder, FlowSpans};

/// Engine-independent state of one simulation run.
#[derive(Debug)]
pub struct RunFrame {
    n_tors: usize,
    host_bps: u64,
    /// Ground-truth link state, mutated only by the timeline below.
    pub failures: LinkFailures,
    /// The fault timeline: link failures and repairs, flaps, partitions,
    /// gray failures, greedy ToRs.
    pub faults: FaultModel,
    probe: Option<PhaseProbe>,
    /// Flight recorder (`None` = tracing off: one branch per tick).
    recorder: Option<Box<FlightRecorder>>,
    tracker: Option<FlowTracker>,
    /// Flows the finished run never injected: those arriving after the
    /// last tick it played.
    not_injected: usize,
    ran_duration: Nanos,
    ran: bool,
}

impl RunFrame {
    /// Frame for a run over the fabric `net` describes.
    pub fn new(net: &NetworkConfig) -> Self {
        RunFrame {
            n_tors: net.n_tors,
            host_bps: net.host_bandwidth.bps(),
            failures: LinkFailures::new(net.n_tors, net.n_ports),
            faults: FaultModel::new(),
            probe: None,
            recorder: None,
            tracker: None,
            not_injected: 0,
            ran_duration: 0,
            ran: false,
        }
    }

    /// Schedule a fault action at absolute time `at` (see
    /// [`topology::FaultModel`] for the families and ordering rules).
    pub fn schedule_fault(&mut self, at: Nanos, action: FaultAction) {
        self.faults.schedule(at, action);
    }

    /// Attach a phase-boundary probe; its snapshots are readable via
    /// [`Self::phase_probe`] after the run.
    pub fn set_phase_probe(&mut self, probe: PhaseProbe) {
        self.probe = Some(probe);
    }

    /// The phase probe, once attached (complete after the run).
    pub fn phase_probe(&self) -> Option<&PhaseProbe> {
        self.probe.as_ref()
    }

    /// Attach a flight recorder. Events are emitted from [`run`]'s loop,
    /// between ticks, so the trace is byte-identical from run to run. Off
    /// (the default) costs one branch per tick.
    pub fn set_recorder(&mut self, recorder: FlightRecorder) {
        self.recorder = Some(Box::new(recorder));
    }

    /// The attached flight recorder, if any (complete after the run).
    pub fn recorder(&self) -> Option<&FlightRecorder> {
        self.recorder.as_deref()
    }

    /// Detach and return the flight recorder.
    pub fn take_recorder(&mut self) -> Option<FlightRecorder> {
        self.recorder.take().map(|b| *b)
    }

    /// Per-flow tracker of the completed run.
    pub fn tracker(&self) -> &FlowTracker {
        self.tracker.as_ref().expect("call run() first")
    }

    /// How many of the trace's flows the finished run never injected: the
    /// last ones, arriving after the last tick it played. Their bytes are
    /// offered but neither delivered nor queued — the term that closes
    /// `offered = delivered + backlog + in flight + not injected + lost`.
    pub fn not_injected(&self) -> usize {
        self.not_injected
    }

    /// Build a report restricted to flows where `tags[id]` is true
    /// (Figure 13(a) separates background from incast traffic).
    pub fn report_subset(&self, trace: &FlowTrace, tags: &[bool]) -> RunReport {
        self.report(trace, Some(tags))
    }

    fn report(&self, trace: &FlowTrace, subset: Option<&[bool]>) -> RunReport {
        RunReport::build(
            trace,
            self.tracker(),
            self.ran_duration,
            self.n_tors,
            self.host_bps,
            subset,
        )
    }

    /// Apply every fault action due by `now`.
    fn apply_schedule(&mut self, now: Nanos, tick: u64) {
        let before = self.faults.applied();
        self.faults.epoch_update(now, &mut self.failures);
        if let Some(rec) = self.recorder.as_deref_mut() {
            let (links, injected) = self.faults.applied();
            rec.fault_applied(
                now,
                tick,
                (injected - before.1) as u64,
                (links - before.0) as u64,
                (links + injected) as u64,
            );
        }
    }
}

/// What an engine adds to the shared run loop: its scheduling policy.
pub trait EpochEngine: DerefMut<Target = RunFrame> {
    /// Simulated length of one loop tick.
    fn tick_len(&self) -> Nanos;

    /// The engine's side of the cumulative phase counters: backlog, in
    /// flight, lost, control plane, detector. The frame fills in
    /// `delivered_bytes` and `partitioned_tors`.
    fn phase_counters(&self) -> PhaseCounters;

    /// Play tick number `tick`, starting at `now`: inject the flows of
    /// `flows[cursor..]` that arrive within it, move data, report every
    /// delivery to `tracker`. Returns the advanced cursor.
    fn tick(
        &mut self,
        tick: u64,
        now: Nanos,
        flows: &[Flow],
        cursor: usize,
        tracker: &mut FlowTracker,
    ) -> usize;

    /// Traced runs: emit the tick's control-plane events and stamp its
    /// pair-level REQUEST / GRANT / ACCEPT activity into `spans`. Called
    /// after the tick's flow births, before the span sweep.
    fn trace_control(
        &mut self,
        _rec: &mut FlightRecorder,
        _spans: &mut FlowSpans,
        _tick: u64,
        _now: Nanos,
    ) {
    }

    /// Traced runs: emit the tick's closing samples, after the span sweep.
    fn trace_backlog(&self, _rec: &mut FlightRecorder, _tick: u64, _now: Nanos) {}

    /// Test oracle hook: `true` makes every traced tick walk every live
    /// flow ([`FlowSpans::sweep`]) even when no pair was stamped and no
    /// flow completed, the ticks [`run`] otherwise gives the quiet walk
    /// ([`FlowSpans::sweep_waiting`]). Engines override it only in their
    /// own `#[cfg(test)]` builds, to compare the two walks.
    #[doc(hidden)]
    fn full_span_walk(&self) -> bool {
        false
    }
}

/// Snapshot the engine's cumulative counters into the probe and the trace:
/// for every boundary at or before `now`, or — `None`, once the run is
/// over — for every boundary the (possibly early) exit left unvisited,
/// each stamped at its nominal time. Debug builds check the byte law on
/// the way: every byte of the `injected` flows is delivered, queued, in
/// flight or lost.
fn snapshot<E: EpochEngine>(
    engine: &mut E,
    tracker: &FlowTracker,
    injected: &[Flow],
    now: Option<Nanos>,
    tick: u64,
) {
    let mut counters = engine.phase_counters();
    counters.delivered_bytes = tracker.delivered_payload();
    counters.partitioned_tors = engine.failures.partitioned_tors() as u64;
    let c = &counters;
    debug_assert_eq!(
        injected.iter().map(|f| f.bytes).sum::<u64>(),
        c.delivered_bytes + c.backlog_bytes + c.in_flight_bytes + c.lost_bytes,
        "byte law at tick {tick}: injected = delivered {} + backlog {} + in flight {} + lost {}",
        c.delivered_bytes,
        c.backlog_bytes,
        c.in_flight_bytes,
        c.lost_bytes
    );
    let frame: &mut RunFrame = engine;
    let probe = frame.probe.as_mut().expect("caller checked the probe");
    let before = probe.snapshots().len();
    match now {
        Some(now) => probe.record(now, counters),
        None => probe.finish(counters),
    }
    if let Some(rec) = frame.recorder.as_deref_mut() {
        for (phase, snap) in probe.snapshots().iter().enumerate().skip(before) {
            rec.phase_boundary(now.unwrap_or(snap.at), tick, phase as u64, &counters);
        }
    }
}

/// Play `trace` through `engine` for `duration` ns of simulated time and
/// report. The loop may stop early once every flow has completed and the
/// fault schedule is drained; goodput is still normalized over `duration`.
pub fn run<E: EpochEngine>(engine: &mut E, trace: &FlowTrace, duration: Nanos) -> RunReport {
    assert!(!engine.ran, "a simulator runs once; build a new one");
    engine.ran = true;
    engine.ran_duration = duration;
    let mut tracker = FlowTracker::new(trace);
    let flows = trace.flows();
    let mut cursor = 0usize;
    // Span tracking is sized for the whole trace up front so the per-tick
    // emission below stays allocation-free.
    let mut spans = engine
        .recorder
        .is_some()
        .then(|| FlowSpans::new(engine.n_tors, flows.len()));
    // Completed flows as of the last span sweep.
    let mut swept_completed = 0usize;
    let tick_len = engine.tick_len();

    let mut tick: u64 = 0;
    // lint: hot-path
    loop {
        let now = tick * tick_len;
        if now >= duration {
            break;
        }
        if engine.probe.as_ref().is_some_and(|p| p.due(now)) {
            snapshot(engine, &tracker, &flows[..cursor], Some(now), tick);
        }
        engine.apply_schedule(now, tick);
        cursor = engine.tick(tick, now, flows, cursor, &mut tracker);
        // Span emission iterates live flows in flow-id order, which keeps
        // span bytes independent of the order the tick visited them in.
        if let Some(spans) = spans.as_mut() {
            let mut rec = engine
                .recorder
                .take()
                .expect("spans exist only when tracing");
            for f in &flows[spans.next_born()..cursor] {
                // `f.id as u32` is lossless: a trace's ids are below
                // `workload::MAX_FLOWS`.
                spans.born(
                    &mut rec,
                    now,
                    tick,
                    f.id as u32,
                    f.src as u32,
                    f.dst as u32,
                    f.bytes,
                    f.arrival,
                );
            }
            engine.trace_control(&mut rec, spans, tick, now);
            // With no pair stamped and no flow completed since the last
            // sweep, only first transmissions can be new: walk only the
            // flows still waiting for theirs.
            let completed = tracker.completed_count();
            if spans.stamped() || completed != swept_completed || engine.full_span_walk() {
                spans.sweep(&mut rec, now, tick, |id| {
                    (tracker.remaining(id as u64), tracker.completion(id as u64))
                });
            } else {
                spans.sweep_waiting(&mut rec, now, tick, |id| tracker.remaining(id as u64));
            }
            swept_completed = completed;
            engine.trace_backlog(&mut rec, tick, now);
            engine.recorder = Some(rec);
        }
        tick += 1;

        // Early exit when nothing is left anywhere.
        if cursor >= flows.len()
            && tracker.completed_count() == flows.len()
            && engine.faults.is_drained()
        {
            break;
        }
    }
    if engine.probe.is_some() {
        snapshot(engine, &tracker, &flows[..cursor], None, tick);
    }
    engine.not_injected = flows.len() - cursor;
    engine.tracker = Some(tracker);
    engine.report(trace, None)
}

#[cfg(test)]
mod tests {
    use std::ops::Deref;

    use super::*;
    use crate::trace::TraceEventKind;

    /// A scripted engine: flows arrive at their arrival tick, and each
    /// tick delivers the listed `(flow, bytes)` and stamps the listed
    /// REQUEST pairs. It reports as backlog what it injected and has not
    /// delivered, plus `skew`.
    struct Scripted {
        frame: RunFrame,
        deliveries: Vec<(u64, u64, u64)>,
        requests: Vec<(u64, u32, u32)>,
        full_walk: bool,
        queued: u64,
        skew: u64,
    }

    impl Deref for Scripted {
        type Target = RunFrame;
        fn deref(&self) -> &RunFrame {
            &self.frame
        }
    }

    impl DerefMut for Scripted {
        fn deref_mut(&mut self) -> &mut RunFrame {
            &mut self.frame
        }
    }

    impl EpochEngine for Scripted {
        fn tick_len(&self) -> Nanos {
            100
        }

        fn phase_counters(&self) -> PhaseCounters {
            PhaseCounters {
                backlog_bytes: self.queued + self.skew,
                ..PhaseCounters::default()
            }
        }

        fn tick(
            &mut self,
            tick: u64,
            now: Nanos,
            flows: &[Flow],
            mut cursor: usize,
            tracker: &mut FlowTracker,
        ) -> usize {
            while cursor < flows.len() && flows[cursor].arrival <= now {
                self.queued += flows[cursor].bytes;
                cursor += 1;
            }
            for &(at, flow, bytes) in &self.deliveries {
                if at == tick {
                    tracker.deliver(flow, bytes, now);
                    self.queued -= bytes;
                }
            }
            cursor
        }

        fn trace_control(
            &mut self,
            _rec: &mut FlightRecorder,
            spans: &mut FlowSpans,
            tick: u64,
            _now: Nanos,
        ) {
            for &(at, src, dst) in &self.requests {
                if at == tick {
                    spans.mark_request(src, dst, tick);
                }
            }
        }

        fn full_span_walk(&self) -> bool {
            self.full_walk
        }
    }

    /// Tick 1 is quiet (flow 0's first bytes only), tick 2 stamps flow 1's
    /// pair, and on tick 3 low-id flow 0 completes while high-id flow 1
    /// first transmits: its events come out in id order, and both walks
    /// render the same trace.
    #[test]
    fn a_tick_with_a_completion_walks_every_live_flow_in_id_order() {
        let play = |full_walk: bool| {
            let net = NetworkConfig::small_for_tests();
            let flow = |id, src, dst| Flow {
                id,
                src,
                dst,
                bytes: 1_000,
                arrival: 0,
            };
            let trace = FlowTrace::new(vec![flow(0, 0, 1), flow(1, 2, 3)]);
            let mut engine = Scripted {
                frame: RunFrame::new(&net),
                deliveries: vec![(1, 0, 500), (3, 0, 500), (3, 1, 300), (4, 1, 700)],
                requests: vec![(2, 2, 3)],
                full_walk,
                queued: 0,
                skew: 0,
            };
            engine.set_recorder(FlightRecorder::with_capacity(64, net.n_tors));
            run(&mut engine, &trace, 10_000);
            engine.take_recorder().expect("attached")
        };
        let quiet = play(false);
        let spans: Vec<(TraceEventKind, u64, u64)> =
            quiet.events().map(|e| (e.kind, e.epoch, e.a)).collect();
        assert_eq!(
            spans,
            vec![
                (TraceEventKind::FlowBorn, 0, 0),
                (TraceEventKind::FlowBorn, 0, 1),
                (TraceEventKind::FlowFirstTx, 1, 0),
                (TraceEventKind::FlowRequest, 2, 1),
                (TraceEventKind::FlowComplete, 3, 0),
                (TraceEventKind::FlowFirstTx, 3, 1),
                (TraceEventKind::FlowComplete, 4, 1),
            ]
        );
        assert_eq!(
            quiet.render_ndjson("scripted"),
            play(true).render_ndjson("scripted")
        );
    }

    /// The byte law at the phase boundaries: a run whose backlog accounts
    /// for every injected byte passes, one byte too many trips the check.
    #[cfg(debug_assertions)]
    #[test]
    fn an_unbalanced_counter_trips_the_byte_law() {
        let play = |skew: u64| {
            let net = NetworkConfig::small_for_tests();
            let flow = |id, arrival| Flow {
                id,
                src: 0,
                dst: 1,
                bytes: 1_000,
                arrival,
            };
            let trace = FlowTrace::new(vec![flow(0, 0), flow(1, 250)]);
            let mut engine = Scripted {
                frame: RunFrame::new(&net),
                deliveries: vec![(1, 0, 400), (4, 0, 600), (5, 1, 1_000)],
                requests: Vec::new(),
                full_walk: false,
                queued: 0,
                skew,
            };
            engine.set_phase_probe(PhaseProbe::new(vec![200, 400, 10_000]));
            run(&mut engine, &trace, 10_000);
            let snaps = engine.phase_probe().expect("attached").snapshots().to_vec();
            snaps
                .iter()
                .map(|s| s.counters.backlog_bytes)
                .collect::<Vec<_>>()
        };
        assert_eq!(play(0), [600, 1_600, 0]);
        let tripped = std::panic::catch_unwind(|| play(1)).expect_err("skew 1 must trip");
        let message = tripped
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        assert!(message.contains("byte law at tick 2"), "{message}");
    }
}
