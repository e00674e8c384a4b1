//! Scenario compilation: a validated [`ScenarioSpec`] becomes the inputs a
//! deterministic run needs — the flow trace covering every phase, one
//! timed [`FaultAction`] list for the engines' fault schedule, and the
//! phase-boundary times the [`metrics::PhaseProbe`] snapshots at.
//! Compilation is pure: the same spec (and trace files) always yields the
//! same inputs, which is what extends the sweep engine's `--jobs`
//! byte-identity guarantee to scenarios.
//!
//! **Eager, in [`compile`]:** the epoch length, the horizon, the fault
//! timeline, the boundaries — and everything a spec does
//! not determine, which is the contents of replayed trace files. Those are
//! read, parsed, range-checked against the fabric, filtered to their phase
//! and offset to its start here, so every error a scenario can raise
//! (unreadable file, malformed line, out-of-range ToR) surfaces before
//! anything is queued or simulated.
//!
//! **Derived, per execution:** the synthetic flows. A poisson / incast /
//! all-to-all phase is a closed form of its parameters, its seed lane, the
//! fabric and the epoch length, so `compile` keeps only that recipe
//! ([`LazyTrace`]); the generators run, and the merged trace is sorted and
//! renumbered, when an execution asks for its flows
//! ([`LazyTrace::make`]) — once per execution, handed to every engine it
//! runs and dropped with it. So a held compiled scenario costs its recipe,
//! not its flows. The first synthesis records the flow count and offered
//! bytes, which [`LazyTrace::flow_count`] and [`LazyTrace::total_bytes`]
//! answer from then on. Synthesis cannot fail: the spec validation already
//! bounded every parameter it takes. Answering "is this run cached?"
//! ([`CompiledScenario::content_hash`]) reads the recipe, never the flows,
//! so a cache hit costs O(spec).

use std::ops::Deref;
use std::path::Path;
use std::sync::{Arc, OnceLock};

use crate::spec::{ScenarioSpec, WorkloadPhase};
use negotiator::NegotiatorConfig;
use sim::time::Nanos;
use topology::{AnyTopology, FaultAction, Topology};
use workload::{
    load_trace, AllToAllWorkload, Flow, FlowTrace, IncastWorkload, PoissonWorkload, WorkloadSpec,
};

/// Where one phase's flows come from: the generator call that makes them
/// or, for a replayed trace file, the flows themselves.
#[derive(Debug)]
enum PhaseSource {
    /// Poisson arrivals over `[0, len)`, offset to `start`.
    Poisson {
        workload: PoissonWorkload,
        start: Nanos,
        len: Nanos,
        seed: u64,
    },
    /// A burst at `first.start`, repeated every `step` while before `end`;
    /// burst `k` draws from `seed + k`.
    Incast {
        first: IncastWorkload,
        step: Option<Nanos>,
        end: Nanos,
        seed: u64,
    },
    /// One shuffle at the phase start.
    AllToAll(AllToAllWorkload),
    /// A trace file's flows: checked, filtered and offset by `compile`.
    Replayed(Vec<Flow>),
}

impl PhaseSource {
    fn flows_into(&self, flows: &mut Vec<Flow>) {
        match self {
            PhaseSource::Poisson {
                workload,
                start,
                len,
                seed,
            } => flows.extend(workload.generate(*len, *seed).flows().iter().map(|f| Flow {
                arrival: f.arrival + start,
                ..*f
            })),
            PhaseSource::Incast {
                first,
                step,
                end,
                seed,
            } => {
                let mut burst = first.clone();
                let mut k = 0u64;
                loop {
                    flows.extend_from_slice(burst.generate(seed.wrapping_add(k)).flows());
                    match step {
                        Some(step) if burst.start + step < *end => {
                            burst.start += step;
                            k += 1;
                        }
                        _ => break,
                    }
                }
            }
            PhaseSource::AllToAll(workload) => flows.extend_from_slice(workload.generate().flows()),
            PhaseSource::Replayed(replayed) => flows.extend_from_slice(replayed),
        }
    }
}

/// A scenario's flow trace, kept as its recipe.
///
/// Holds the per-phase recipe `compile` lowered the spec to, the flow
/// count and offered bytes its first synthesis recorded, and a memo of the
/// merged, time-sorted [`FlowTrace`] that only direct readers fill: it
/// derefs to the trace, making and keeping it. An execution asks
/// [`LazyTrace::make`] instead, which makes the flows for that execution
/// alone (or shares the memo when a direct reader filled it), so nothing
/// outlives the execution but the counts. Clones share all three.
#[derive(Debug, Clone)]
pub struct LazyTrace(Arc<TraceCell>);

#[derive(Debug)]
struct TraceCell {
    sources: Vec<PhaseSource>,
    /// `(flows, offered bytes)`, recorded by the first synthesis.
    counts: OnceLock<(usize, u64)>,
    merged: OnceLock<Arc<FlowTrace>>,
}

impl LazyTrace {
    fn new(sources: Vec<PhaseSource>) -> Self {
        LazyTrace(Arc::new(TraceCell {
            sources,
            counts: OnceLock::new(),
            merged: OnceLock::new(),
        }))
    }

    /// Run the generators and merge their flows, recording the counts.
    fn synthesize(&self) -> FlowTrace {
        let mut flows = Vec::new();
        for source in &self.0.sources {
            source.flows_into(&mut flows);
        }
        let trace = FlowTrace::new(flows);
        // A concurrent synthesis records the same pair; either may win.
        let _ = self.0.counts.set((trace.len(), trace.total_bytes()));
        trace
    }

    /// The memoized trace, synthesizing it if no direct reader has yet.
    fn force(&self) -> &FlowTrace {
        self.0.merged.get_or_init(|| Arc::new(self.synthesize()))
    }

    /// The flows for one execution: the memo when a direct reader made it,
    /// else a fresh synthesis that nothing here keeps — the execution's
    /// runs hold it, and the last of them drops it.
    pub fn make(&self) -> Arc<FlowTrace> {
        match self.0.merged.get() {
            Some(trace) => Arc::clone(trace),
            None => Arc::new(self.synthesize()),
        }
    }

    /// How many flows the trace has. Reads the counts the first synthesis
    /// recorded; before any, synthesizes once to record them and keeps
    /// none of the flows.
    pub fn flow_count(&self) -> usize {
        self.counts().0
    }

    /// The bytes every flow of the trace offers, read like
    /// [`LazyTrace::flow_count`].
    pub fn total_bytes(&self) -> u64 {
        self.counts().1
    }

    fn counts(&self) -> (usize, u64) {
        match self.0.counts.get() {
            Some(&counts) => counts,
            None => {
                let trace = self.synthesize();
                (trace.len(), trace.total_bytes())
            }
        }
    }

    /// Phase `i`'s replayed flows, if it replays a trace file — the one
    /// part of the trace the content hash has to read.
    pub(crate) fn replayed(&self, phase: usize) -> Option<&[Flow]> {
        match &self.0.sources[phase] {
            PhaseSource::Replayed(flows) => Some(flows),
            _ => None,
        }
    }
}

impl Deref for LazyTrace {
    type Target = FlowTrace;
    fn deref(&self) -> &FlowTrace {
        self.force()
    }
}

/// A scenario compiled down to simulator inputs. A value: the fields are
/// `compile`'s outputs, and the trace recipe and the memoised digest are
/// derived from them — build another with [`compile`] rather than editing
/// one.
#[derive(Debug, Clone)]
pub struct CompiledScenario {
    /// The validated spec this was compiled from.
    pub spec: ScenarioSpec,
    /// NegotiaToR epoch length on this fabric — the scenario's time unit.
    /// Both engines share these absolute boundaries, so their series align.
    pub epoch_len: Nanos,
    /// Simulated horizon: `total_epochs · epoch_len`.
    pub duration: Nanos,
    /// Every phase's flows, merged and time-sorted, as their recipe: each
    /// execution makes them ([`LazyTrace::make`]) and drops them with its
    /// last run, so holding the compiled scenario costs the recipe and the
    /// recorded counts, not the flows.
    pub trace: LazyTrace,
    /// Everything that happens to the fabric, as engine fault-schedule
    /// entries sorted by time: `action` events, phase `faults` blocks
    /// (start at phase start, stop at phase end) and `inject` events.
    /// Among equal-time entries link actions come first, then phase
    /// faults in phase order (a phase's stops before the next phase's
    /// starts at a shared boundary), then injects.
    pub timeline: Vec<(Nanos, FaultAction)>,
    /// Phase-end times, strictly increasing — the probe's boundaries.
    pub boundaries: Vec<Nanos>,
    /// [`CompiledScenario::content_hash`], computed once.
    pub(crate) digest: OnceLock<u64>,
}

/// Compile `spec`. `base_dir` anchors relative trace paths (the scenario
/// file's directory). Trace problems — unreadable file, malformed line,
/// out-of-range ToR — are the one error class that can outlive spec
/// validation, and they too fail here, before any simulation starts.
pub fn compile(spec: ScenarioSpec, base_dir: &Path) -> Result<CompiledScenario, String> {
    let topo = AnyTopology::build(spec.topology, spec.net.clone());
    let epoch_len = NegotiatorConfig::paper_default(spec.net.clone())
        .epoch
        .epoch_len(topo.predefined_slots());
    let duration = spec.total_epochs() * epoch_len;

    let mut sources = Vec::with_capacity(spec.phases.len());
    for (i, phase) in spec.phases.iter().enumerate() {
        let start_ns = phase.start_epoch * epoch_len;
        let end_ns = phase.end_epoch * epoch_len;
        let phase_len = end_ns - start_ns;
        // Every phase draws from its own deterministic seed lane.
        let seed = spec.seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        sources.push(match &phase.workload {
            WorkloadPhase::Poisson { dist, load } => PhaseSource::Poisson {
                workload: PoissonWorkload::new(WorkloadSpec {
                    dist: dist.clone(),
                    load: *load,
                    n_tors: spec.net.n_tors,
                    host_bps: spec.net.host_bandwidth.bps(),
                }),
                start: start_ns,
                len: phase_len,
                seed,
            },
            WorkloadPhase::Incast {
                degree,
                flow_bytes,
                every_epochs,
            } => PhaseSource::Incast {
                first: IncastWorkload {
                    degree: *degree,
                    flow_bytes: *flow_bytes,
                    n_tors: spec.net.n_tors,
                    start: start_ns,
                },
                step: every_epochs.map(|e| e * epoch_len),
                end: end_ns,
                seed,
            },
            WorkloadPhase::AllToAll { flow_bytes } => PhaseSource::AllToAll(AllToAllWorkload {
                flow_bytes: *flow_bytes,
                n_tors: spec.net.n_tors,
                start: start_ns,
            }),
            WorkloadPhase::Trace { path } => {
                let full = base_dir.join(path);
                let trace = load_trace(&full)
                    .map_err(|e| format!("phase '{}': {}: {e}", phase.label, full.display()))?;
                for (k, f) in trace.flows().iter().enumerate() {
                    if f.src >= spec.net.n_tors || f.dst >= spec.net.n_tors {
                        return Err(format!(
                            "phase '{}': {}: flow #{k} uses ToR {} but the fabric has {} ToRs",
                            phase.label,
                            full.display(),
                            f.src.max(f.dst),
                            spec.net.n_tors
                        ));
                    }
                }
                // Trace arrivals are relative to the phase start; flows
                // landing past the phase end are dropped.
                PhaseSource::Replayed(
                    trace
                        .flows()
                        .iter()
                        .filter(|f| f.arrival < phase_len)
                        .map(|f| Flow {
                            arrival: f.arrival + start_ns,
                            ..*f
                        })
                        .collect(),
                )
            }
        });
    }

    // Phase faults first, walking phases in order: a phase's stop entries
    // are pushed before the next phase's starts at the same boundary, and
    // the stable sort below preserves that insertion order (which is the
    // order `FaultModel::schedule` applies equal-time actions in). Link
    // actions sort ahead of both: a link's state depends on who holds it,
    // not on arrival order, so "action then inject" and "inject then
    // action" at one epoch are the same run and get the same key.
    let mut timeline: Vec<(Nanos, FaultAction)> = Vec::new();
    for phase in &spec.phases {
        let start_ns = phase.start_epoch * epoch_len;
        let end_ns = phase.end_epoch * epoch_len;
        for fault in &phase.faults {
            timeline.push((start_ns, fault.to_action(epoch_len)));
            if let Some(stop) = fault.stop_action() {
                timeline.push((end_ns, stop));
            }
        }
    }
    for event in &spec.events {
        let at = event.at_epoch * epoch_len;
        timeline.push((at, event.inject.to_action(epoch_len)));
    }
    timeline.sort_by_key(|(at, action)| (*at, !action.is_link_action()));

    let boundaries = spec
        .phases
        .iter()
        .map(|p| p.end_epoch * epoch_len)
        .collect();
    Ok(CompiledScenario {
        epoch_len,
        duration,
        trace: LazyTrace::new(sources),
        timeline,
        boundaries,
        spec,
        digest: OnceLock::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::parse_scenario;

    fn spec(phases_events: &str) -> ScenarioSpec {
        parse_scenario(&format!(
            r#"{{
  "name": "c", "topology": "parallel", "tors": 16, "ports": 4,
  {phases_events}
}}"#
        ))
        .unwrap()
    }

    #[test]
    fn phases_tile_the_trace_and_boundaries() {
        let s = spec(
            r#""phases": [
    {"workload": "poisson", "load": 50, "epochs": [0, 100]},
    {"workload": "incast", "degree": 8, "flow_bytes": 1000, "epochs": [100, 120]},
    {"workload": "poisson", "load": 25, "epochs": [120, 200]}
  ]"#,
        );
        let c = compile(s, Path::new(".")).unwrap();
        assert_eq!(c.boundaries.len(), 3);
        assert_eq!(c.duration, 200 * c.epoch_len);
        assert_eq!(c.boundaries[2], c.duration);
        // The incast burst arrives exactly at its phase start.
        let burst: Vec<_> = c
            .trace
            .flows()
            .iter()
            .filter(|f| f.arrival == 100 * c.epoch_len)
            .collect();
        assert_eq!(burst.len(), 8);
        // All arrivals stay inside the horizon.
        assert!(c.trace.flows().iter().all(|f| f.arrival < c.duration));
    }

    #[test]
    fn repeated_incast_bursts() {
        let s = spec(
            r#""phases": [
    {"workload": "incast", "degree": 4, "flow_bytes": 1000,
     "every_epochs": 10, "epochs": [0, 35]}
  ]"#,
        );
        let c = compile(s, Path::new(".")).unwrap();
        // Bursts at epochs 0, 10, 20, 30.
        assert_eq!(c.trace.len(), 4 * 4);
    }

    #[test]
    fn events_become_failure_actions_in_time_order() {
        let s = spec(
            r#""phases": [{"workload": "poisson", "load": 50, "epochs": [0, 100]}],
  "events": [
    {"at_epoch": 60, "action": "repair_links"},
    {"at_epoch": 20, "action": "fail_links",
     "links": [{"tor": 1, "port": 0, "dir": "egress"},
               {"tor": 2, "port": 1, "dir": "ingress"}]},
    {"at_epoch": 40, "action": "fail_random", "ratio": 0.1}
  ]"#,
        );
        let c = compile(s, Path::new(".")).unwrap();
        assert_eq!(c.timeline.len(), 4, "two links + random + repair");
        assert!(c.timeline.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(matches!(
            c.timeline[0].1,
            FaultAction::FailLink { tor: 1, .. }
        ));
        assert!(matches!(c.timeline[3].1, FaultAction::RepairAll));
    }

    /// The timeline as `(time, short kind)` pairs.
    fn kinds_of(c: &CompiledScenario) -> Vec<(Nanos, &'static str)> {
        c.timeline
            .iter()
            .map(|(at, a)| {
                let kind = match a {
                    FaultAction::FailLink { .. } => "link+",
                    FaultAction::FailRandom { .. } => "random+",
                    FaultAction::RepairAll => "link-",
                    FaultAction::GrayStart { .. } => "gray+",
                    FaultAction::GrayStop => "gray-",
                    FaultAction::GreedyStart { .. } => "greedy+",
                    FaultAction::GreedyStop => "greedy-",
                    FaultAction::Partition(_) => "part+",
                    FaultAction::Heal => "part-",
                    _ => "other",
                };
                (*at, kind)
            })
            .collect()
    }

    #[test]
    fn phase_faults_and_inject_events_merge_in_stable_time_order() {
        let s = spec(
            r#""phases": [
    {"workload": "poisson", "load": 50, "epochs": [0, 50],
     "faults": {"gray": {"drop_prob": 0.5}}},
    {"workload": "poisson", "load": 50, "epochs": [50, 100],
     "faults": {"greedy": {"tors": [2]}}}
  ],
  "events": [
    {"at_epoch": 50, "inject": {"kind": "partition", "groups": 2}},
    {"at_epoch": 75, "inject": {"kind": "heal"}}
  ]"#,
        );
        let c = compile(s, Path::new(".")).unwrap();
        // gray start@0, [gray stop, greedy start, partition]@50·len,
        // heal@75·len, greedy stop@100·len — stops before the next
        // phase's starts at the shared boundary, events after both.
        let kinds = kinds_of(&c);
        let e = c.epoch_len;
        assert_eq!(
            kinds,
            vec![
                (0, "gray+"),
                (50 * e, "gray-"),
                (50 * e, "greedy+"),
                (50 * e, "part+"),
                (75 * e, "part-"),
                (100 * e, "greedy-"),
            ]
        );
        // Epoch-denominated flap durations convert at the epoch length.
        let s = spec(
            r#""phases": [{"workload": "poisson", "load": 50, "epochs": [0, 50]}],
  "events": [{"at_epoch": 5, "inject": {"kind": "flap_start", "ratio": 0.2,
              "up_epochs": 3, "down_epochs": 2}}]"#,
        );
        let c = compile(s, Path::new(".")).unwrap();
        assert!(matches!(
            c.timeline[0],
            (at, FaultAction::FlapStart { up, down, .. })
                if at == 5 * c.epoch_len && up == 3 * c.epoch_len && down == 2 * c.epoch_len
        ));
    }

    #[test]
    fn equal_epoch_actions_order_links_then_phase_faults_then_injects() {
        // At epoch 50: an inject spelled before an action, a phase ending
        // and the next starting. Link actions come first (both links of
        // the one event), then the phase stop and start, then the inject
        // — whichever way round the file lists the events.
        let phases = r#""phases": [
    {"workload": "poisson", "load": 50, "epochs": [0, 50],
     "faults": {"gray": {"drop_prob": 0.5}}},
    {"workload": "poisson", "load": 50, "epochs": [50, 100],
     "faults": {"greedy": {"tors": [2]}}}
  ]"#;
        let inject = r#"{"at_epoch": 50, "inject": {"kind": "partition", "groups": 2, "seed": 3}}"#;
        let action = r#"{"at_epoch": 50, "action": "fail_links",
     "links": [{"tor": 1, "port": 0}, {"tor": 2, "port": 1, "dir": "ingress"}]}"#;
        let later = r#"{"at_epoch": 60, "action": "repair_links"}"#;
        let e = compile(spec(phases), Path::new(".")).unwrap().epoch_len;
        for events in [[inject, action, later], [later, action, inject]] {
            let s = spec(&format!("{phases},\n  \"events\": [{}]", events.join(", ")));
            let c = compile(s, Path::new(".")).unwrap();
            assert_eq!(
                kinds_of(&c),
                vec![
                    (0, "gray+"),
                    (50 * e, "link+"),
                    (50 * e, "link+"),
                    (50 * e, "gray-"),
                    (50 * e, "greedy+"),
                    (50 * e, "part+"),
                    (60 * e, "link-"),
                    (100 * e, "greedy-"),
                ]
            );
            assert!(matches!(
                c.timeline[1].1,
                FaultAction::FailLink { tor: 1, .. }
            ));
        }
    }

    #[test]
    fn same_spec_compiles_identically() {
        let build = || {
            let s = spec(r#""phases": [{"workload": "poisson", "load": 80, "epochs": [0, 50]}]"#);
            compile(s, Path::new(".")).unwrap()
        };
        let (a, b) = (build(), build());
        assert_eq!(a.trace.flows(), b.trace.flows());
        assert_eq!(a.boundaries, b.boundaries);
    }

    #[test]
    fn missing_trace_file_fails_at_compile_time() {
        let s =
            spec(r#""phases": [{"workload": "trace", "path": "no_such.tsv", "epochs": [0, 10]}]"#);
        let err = compile(s, Path::new("/nonexistent")).unwrap_err();
        assert!(err.contains("no_such.tsv"), "{err}");
    }
}
