//! The one engine driver, and the scenario runs built on it.
//!
//! A [`System`] describes a run's engine — which one, on which topology,
//! configured how — and [`System::build`] is the only place either
//! simulator is constructed for a scenario or a paper experiment. What
//! follows construction (fault timeline, phase probe, flight recorder,
//! `run`, tracker, subset reports) is the engines' shared
//! [`RunFrame`], which the built [`Engine`] derefs to, so that code is
//! written against the frame, once, whichever engine is inside.
//!
//! [`build_runs`] wraps a compiled scenario and the flows its execution
//! made into one deferred closure per engine, each owning (or
//! `Arc`-sharing) everything it needs so the harness can execute it on any
//! worker thread. The closure plays those flows with the fault timeline
//! and phase probe attached, then derives the per-phase series — returning
//! plain data, never touching shared state.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use crate::compile::CompiledScenario;
use crate::series::{self, PhaseStat};
use crate::spec::{EngineKind, ScenarioSpec};
use metrics::{trace::FlightRecorder, PhaseProbe, RunFrame, RunReport, RunSummary};
use negotiator::{NegotiatorConfig, NegotiatorSim, SimOptions};
use oblivious::{ObliviousConfig, ObliviousSim};
use sim::time::Nanos;
use topology::TopologyKind;
use workload::FlowTrace;

/// A system under test: one engine on one topology, fully configured.
#[derive(Debug, Clone)]
pub enum System {
    /// NegotiaToR, with its scheduling variant in the options.
    Negotiator(TopologyKind, NegotiatorConfig, SimOptions),
    /// The traffic-oblivious rotor baseline.
    Oblivious(TopologyKind, ObliviousConfig),
}

impl System {
    /// Construct the simulator. Either engine runs on the caller's thread
    /// and owns none of its own.
    pub fn build(self) -> Engine {
        match self {
            System::Negotiator(kind, cfg, opts) => {
                Engine::Negotiator(Box::new(NegotiatorSim::with_options(cfg, kind, opts)))
            }
            System::Oblivious(kind, cfg) => {
                Engine::Oblivious(Box::new(ObliviousSim::new(cfg, kind)))
            }
        }
    }
}

/// A built [`System`]: either simulator behind the run frame they share.
pub enum Engine {
    /// A NegotiaToR simulator.
    Negotiator(Box<NegotiatorSim>),
    /// A traffic-oblivious simulator.
    Oblivious(Box<ObliviousSim>),
}

impl Deref for Engine {
    type Target = RunFrame;
    fn deref(&self) -> &RunFrame {
        match self {
            Engine::Negotiator(sim) => sim,
            Engine::Oblivious(sim) => sim,
        }
    }
}

impl DerefMut for Engine {
    fn deref_mut(&mut self) -> &mut RunFrame {
        match self {
            Engine::Negotiator(sim) => sim,
            Engine::Oblivious(sim) => sim,
        }
    }
}

impl Engine {
    /// Play `trace` for `duration` ns and report (`metrics::frame::run`).
    pub fn run(&mut self, trace: &FlowTrace, duration: Nanos) -> RunReport {
        match self {
            Engine::Negotiator(sim) => sim.run(trace, duration),
            Engine::Oblivious(sim) => sim.run(trace, duration),
        }
    }

    /// The NegotiaToR simulator, for what only it records (match ratio,
    /// scheduler statistics, epoch length).
    pub fn negotiator(&self) -> Option<&NegotiatorSim> {
        match self {
            Engine::Negotiator(sim) => Some(sim),
            Engine::Oblivious(_) => None,
        }
    }
}

impl EngineKind {
    /// This engine at the paper's defaults on the scenario's fabric and
    /// topology, in the scenario's scheduling mode. Engine-internal
    /// randomness (arbiter rings, VLB spray) follows the scenario seed so
    /// two scenarios differing only in `seed` diverge everywhere, not just
    /// in the workload.
    pub fn system(self, spec: &ScenarioSpec) -> System {
        let seed = spec.seed ^ 0xDC0C_0FFE;
        match self {
            EngineKind::Negotiator => System::Negotiator(
                spec.topology,
                NegotiatorConfig {
                    seed,
                    ..NegotiatorConfig::paper_default(spec.net.clone())
                },
                SimOptions {
                    mode: spec.mode,
                    ..SimOptions::default()
                },
            ),
            EngineKind::Oblivious => System::Oblivious(
                spec.topology,
                ObliviousConfig {
                    seed,
                    ..ObliviousConfig::paper_default(spec.net.clone())
                },
            ),
        }
    }
}

/// One live progress notification: a phase boundary just passed inside a
/// running engine. Purely observational — sinks receive no counters and
/// cannot influence the run, so attaching one preserves byte-identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseProgress {
    /// System label of the run reporting progress (`nego/parallel`, ...).
    pub system: String,
    /// Index of the phase that just completed (0-based).
    pub phase: usize,
    /// Total number of phases in the scenario.
    pub phases: usize,
    /// Label of the completed phase.
    pub label: String,
}

/// Shared callback the daemon hands to a run to stream per-phase progress
/// while the simulation executes on a worker thread.
pub type ProgressSink = Arc<dyn Fn(PhaseProgress) + Send + Sync>;

/// What one scenario run measured.
#[derive(Debug, Clone)]
pub struct ScenarioRunOutput {
    /// Whole-run aggregates (same digest every experiment reports).
    pub summary: RunSummary,
    /// Whole-run accepts/grants ratio (`None` for the oblivious engine).
    pub match_ratio: Option<f64>,
    /// The per-phase time series.
    pub series: Vec<PhaseStat>,
    /// The run's text block (the per-phase table).
    pub rendered: String,
    /// Flight-recorder NDJSON (only when the run was built with tracing;
    /// byte-identical from run to run, like every other output).
    pub trace: Option<String>,
}

/// One schedulable scenario run.
pub struct ScenarioRun {
    /// System label (`nego/parallel`, `oblivious/thin-clos`, ...).
    pub system: String,
    /// The deferred simulation; call on any thread.
    pub run: Box<dyn FnOnce() -> ScenarioRunOutput + Send + 'static>,
}

/// Build the scenario's runs, one per engine in spec order, each playing
/// `flows` — the execution's one copy of the scenario's trace
/// ([`LazyTrace::make`](crate::LazyTrace::make)), shared by every run.
///
/// `progress`, when given, is invoked from the worker thread as each
/// engine crosses each phase boundary. `trace` attaches the flight
/// recorder with that ring capacity in events: each run then fills
/// [`ScenarioRunOutput::trace`] with its NDJSON. Both are
/// observational — every other output byte is the same with or without
/// them, and none reaches results, hashes or cache keys.
pub fn build_runs(
    compiled: &CompiledScenario,
    flows: &Arc<FlowTrace>,
    progress: Option<ProgressSink>,
    trace: Option<usize>,
) -> Vec<ScenarioRun> {
    compiled
        .spec
        .engines
        .iter()
        .map(|&engine| {
            let system = engine.label(compiled.spec.topology);
            let compiled = compiled.clone(); // Arc-shared recipe, cloned spec
            let flows = Arc::clone(flows);
            let label = system.clone();
            let progress = progress.clone();
            ScenarioRun {
                system,
                run: Box::new(move || {
                    run_engine(engine, &compiled, &flows, &label, progress, trace)
                }),
            }
        })
        .collect()
}

/// Probe for this run's boundaries, wired to `progress` when present.
fn make_probe(
    compiled: &CompiledScenario,
    system: &str,
    progress: Option<ProgressSink>,
) -> PhaseProbe {
    let probe = PhaseProbe::new(compiled.boundaries.clone());
    let Some(sink) = progress else {
        return probe;
    };
    let labels: Vec<String> = compiled
        .spec
        .phases
        .iter()
        .map(|p| p.label.clone())
        .collect();
    let system = system.to_string();
    probe.with_observer(Arc::new(move |index, _at| {
        sink(PhaseProgress {
            system: system.clone(),
            phase: index,
            phases: labels.len(),
            label: labels.get(index).cloned().unwrap_or_default(),
        });
    }))
}

fn run_engine(
    engine: EngineKind,
    compiled: &CompiledScenario,
    flows: &FlowTrace,
    system: &str,
    progress: Option<ProgressSink>,
    record: Option<usize>,
) -> ScenarioRunOutput {
    let spec = &compiled.spec;
    let mut sim = engine.system(spec).build();
    for (at, action) in &compiled.timeline {
        sim.schedule_fault(*at, action.clone());
    }
    sim.set_phase_probe(make_probe(compiled, system, progress));
    if let Some(capacity) = record {
        sim.set_recorder(FlightRecorder::with_capacity(capacity, spec.net.n_tors));
    }
    let mut report = sim.run(flows, compiled.duration);
    let series = series::phase_stats(
        compiled,
        flows,
        sim.tracker(),
        sim.phase_probe().expect("probe attached").snapshots(),
    );
    ScenarioRunOutput {
        summary: report.summary(),
        match_ratio: sim
            .negotiator()
            .and_then(|nego| nego.match_recorder().overall_ratio()),
        rendered: series::render_stats(system, &series),
        series,
        trace: sim.take_recorder().map(|r| r.render_ndjson(system)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::spec::parse_scenario;
    use std::path::Path;

    fn compiled(extra: &str) -> CompiledScenario {
        let text = format!(
            r#"{{
  "name": "r", "topology": "parallel", "tors": 16, "ports": 4,
  "host_gbps": 200,
  "phases": [
    {{"label": "calm", "workload": "poisson", "load": 40, "epochs": [0, 60]}},
    {{"label": "storm", "workload": "poisson", "load": 90, "epochs": [60, 120]}}
  ]{extra}
}}"#
        );
        compile(parse_scenario(&text).unwrap(), Path::new(".")).unwrap()
    }

    #[test]
    fn both_engines_run_and_bucket_phases() {
        let c = compiled("");
        for run in build_runs(&c, &c.trace.make(), None, None) {
            let out = (run.run)();
            assert_eq!(out.series.len(), 2, "{}", run.system);
            assert!(out.series.iter().any(|p| p.completed > 0), "{}", run.system);
            // The storm phase offers more than double the calm load.
            assert!(
                out.series[1].delivered_bytes > out.series[0].delivered_bytes,
                "{}: {:?}",
                run.system,
                out.series
            );
            assert!(out.rendered.contains("per-phase time series"));
            let is_nego = run.system.starts_with("nego");
            assert_eq!(out.match_ratio.is_some(), is_nego, "{}", run.system);
            assert_eq!(
                out.series.iter().all(|p| p.match_ratio.is_none()),
                !is_nego,
                "{}",
                run.system
            );
        }
    }

    #[test]
    fn failure_event_dents_the_failed_phase() {
        // Fail a quarter of all links for the middle third of a
        // three-phase steady scenario: the negotiator's middle-phase
        // goodput must dip below both neighbors.
        let text = r#"{
  "name": "dent", "topology": "parallel", "tors": 16, "ports": 4,
  "host_gbps": 200,
  "engines": ["negotiator"],
  "phases": [
    {"workload": "poisson", "load": 100, "epochs": [0, 80]},
    {"workload": "poisson", "load": 100, "epochs": [80, 160]},
    {"workload": "poisson", "load": 100, "epochs": [160, 240]}
  ],
  "events": [
    {"at_epoch": 80, "action": "fail_random", "ratio": 0.25, "seed": 7},
    {"at_epoch": 160, "action": "repair_links"}
  ]
}"#;
        let c = compile(parse_scenario(text).unwrap(), Path::new(".")).unwrap();
        let runs = build_runs(&c, &c.trace.make(), None, None);
        assert_eq!(runs.len(), 1);
        let out = (runs.into_iter().next().unwrap().run)();
        let g: Vec<f64> = out.series.iter().map(|p| p.goodput_normalized).collect();
        assert!(
            g[1] < g[0] * 0.97 && g[1] < g[2],
            "failures must dent phase 1: {g:?}"
        );
    }

    #[test]
    fn phase_faults_dent_their_phase_and_fill_the_new_columns() {
        // A steady load with a gray middle phase: the detector false
        // positives and control drops must land in (exactly) that phase,
        // and data keeps flowing throughout.
        let text = r#"{
  "name": "gray", "topology": "parallel", "tors": 16, "ports": 4,
  "host_gbps": 200,
  "engines": ["negotiator"],
  "phases": [
    {"workload": "poisson", "load": 60, "epochs": [0, 60]},
    {"workload": "poisson", "load": 60, "epochs": [60, 120],
     "faults": {"gray": {"drop_prob": 1.0, "tors": [0, 1, 2]}}},
    {"workload": "poisson", "load": 60, "epochs": [120, 200]}
  ]
}"#;
        let c = compile(parse_scenario(text).unwrap(), Path::new(".")).unwrap();
        let out = (build_runs(&c, &c.trace.make(), None, None)
            .into_iter()
            .next()
            .unwrap()
            .run)();
        let s = &out.series;
        assert_eq!(s[0].control_dropped, 0, "{s:?}");
        assert!(s[1].control_dropped > 0, "{s:?}");
        assert!(s[1].detector_fp_links > 0, "{s:?}");
        assert_eq!(s[1].detector_fn_links, 0, "{s:?}");
        assert!(s.iter().all(|p| p.delivered_bytes > 0), "{s:?}");
        // The gray window ends with the phase: by the scenario end the
        // detector has re-included everything.
        assert_eq!(s[2].detector_fp_links, 0, "{s:?}");
        assert!(out.rendered.contains("ctl_drop"));
    }

    #[test]
    fn progress_sink_sees_every_phase_and_changes_nothing() {
        use std::sync::Mutex;
        let c = compiled("");
        let plain: Vec<_> = build_runs(&c, &c.trace.make(), None, None)
            .into_iter()
            .map(|r| (r.run)().rendered)
            .collect();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink: ProgressSink = {
            let seen = Arc::clone(&seen);
            Arc::new(move |p: PhaseProgress| seen.lock().unwrap().push(p))
        };
        let observed: Vec<_> = build_runs(&c, &c.trace.make(), Some(sink), None)
            .into_iter()
            .map(|r| (r.run)().rendered)
            .collect();
        assert_eq!(plain, observed, "observation must not perturb the run");
        let events = seen.lock().unwrap();
        // Two engines × two phases, in order per engine.
        assert_eq!(events.len(), 4, "{events:?}");
        for run in events.chunks(2) {
            assert_eq!(run[0].phase, 0);
            assert_eq!(run[0].label, "calm");
            assert_eq!(run[1].phase, 1);
            assert_eq!(run[1].label, "storm");
            assert!(run.iter().all(|p| p.phases == 2));
        }
    }

    #[test]
    fn run_output_is_deterministic() {
        let c = compiled("");
        let once = |c: &CompiledScenario| {
            let out: Vec<_> = build_runs(c, &c.trace.make(), None, None)
                .into_iter()
                .map(|r| (r.run)())
                .collect();
            out.iter()
                .map(|o| (o.rendered.clone(), o.series.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(once(&c), once(&c));
    }
}
