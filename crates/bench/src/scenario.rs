//! Harness side of the scenario engine: load a scenario file, compile it
//! (`scenario::compile`), wrap its engine runs into sweep [`RunSpec`](crate::sweep::RunSpec)-shaped
//! work, and execute them on the shared `--jobs` pool — the same machinery
//! (and therefore the same byte-identical-at-any-jobs guarantee) every
//! hard-coded experiment uses. The resulting [`SweepReport`] flows through
//! `results::write_reports` unchanged, so a scenario's JSON lands as
//! `results/scenario-<name>.json` with the per-phase time series under
//! each run's `metrics.series`.
//!
//! Batches dedupe before dispatch: every engine run carries a stable
//! content hash ([`CompiledScenario::run_hash`]), and [`run_batch`]
//! simulates each distinct hash once, fanning the result out to every
//! position that asked for it. The coalesced count is reported, never
//! silently swallowed. The serving daemon executes the exact same
//! assembly path ([`execute_with_progress`]), which is what makes a
//! served result byte-identical to an offline run.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use crate::profile::{self, Stage};
use crate::sweep::{Rendered, RunMeta, RunMetrics, RunResult, SweepReport};
use scenario::series::stats_to_json;
use sim::pool;
// Re-exported so the `paper` binary reaches the scenario crate's API
// through this module.
pub use scenario::{
    build_runs, compile, parse_scenario, CompiledScenario, PhaseProgress, ProgressSink,
    ScenarioRunOutput, WorkloadPhase,
};

/// Load, parse and validate a scenario file, compiling it to run inputs.
/// Every error is prefixed with the file path; validation errors point at
/// `line:column` inside it. Costs O(spec) unless the scenario replays a
/// trace file: synthetic flows are made when a run first needs them.
pub fn load(path: &Path) -> Result<CompiledScenario, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    load_str(&text, path)
}

/// [`load`] for scenario text that is already in memory (a daemon
/// submission body). `origin` names the source in errors; its parent
/// directory anchors relative trace paths.
pub fn load_str(text: &str, origin: &Path) -> Result<CompiledScenario, String> {
    let timer = profile::start(Stage::Compile);
    let spec = parse_scenario(text).map_err(|e| format!("{}:{e}", origin.display()))?;
    let base_dir = origin.parent().unwrap_or_else(|| Path::new("."));
    let compiled = compile(spec, base_dir).map_err(|e| format!("{}: {e}", origin.display()))?;
    timer.stop();
    Ok(compiled)
}

/// One completed scenario batch: the per-scenario reports (input order)
/// and how many engine runs were coalesced away by content-hash dedup.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// One report per input scenario, in input order.
    pub reports: Vec<SweepReport>,
    /// Engine runs that were *not* simulated because an identical run
    /// (same content hash) already was. 0 when every run was distinct.
    pub coalesced: usize,
}

/// Execute a compiled scenario across `jobs` pool workers with `workers`
/// intra-run shard workers per simulation, and assemble the sweep report
/// (rendered text + per-run metrics with series).
pub fn run(compiled: &CompiledScenario, jobs: usize, workers: usize) -> SweepReport {
    run_batch(std::slice::from_ref(compiled), jobs, workers)
        .reports
        .pop()
        .expect("one scenario in, one report out")
}

/// Execute a batch of compiled scenarios on one shared `jobs`-wide pool,
/// deduping identical engine runs (same [`CompiledScenario::run_hash`])
/// before dispatch: each distinct run simulates once and its output fans
/// out to every scenario/position that requested it. Reports come back in
/// input order and are byte-identical at any `jobs`.
pub fn run_batch(compiled: &[CompiledScenario], jobs: usize, workers: usize) -> BatchOutcome {
    // Map every (scenario, run) slot onto a deduped task list.
    let mut task_of_hash: HashMap<u64, usize> = HashMap::new();
    let mut tasks: Vec<pool::Task<(ScenarioRunOutput, f64)>> = Vec::new();
    // Per scenario: the (task index, system label, first occurrence) of
    // each of its runs, in engine order.
    let mut slots: Vec<Vec<(usize, String, bool)>> = Vec::new();
    let mut coalesced = 0usize;
    for c in compiled {
        synthesize(c);
        let runs = build_runs(c, None, workers, None);
        let mut scenario_slots = Vec::with_capacity(runs.len());
        for (engine, run) in c.spec.engines.iter().zip(runs) {
            let hash = c.run_hash(*engine);
            let (task, first) = match task_of_hash.get(&hash) {
                Some(&task) => {
                    coalesced += 1;
                    (task, false)
                }
                None => {
                    let task = tasks.len();
                    task_of_hash.insert(hash, task);
                    let body = run.run;
                    tasks.push(Box::new(move || {
                        let timer = profile::start(Stage::Execute);
                        let out = body();
                        (out, timer.stop())
                    }));
                    (task, true)
                }
            };
            scenario_slots.push((task, run.system, first));
        }
        slots.push(scenario_slots);
    }
    let outputs = pool::run_ordered(jobs, tasks);
    let reports = compiled
        .iter()
        .zip(slots)
        .map(|(c, scenario_slots)| {
            let runs = scenario_slots.into_iter().map(|(task, system, first)| {
                let (out, wall_secs) = &outputs[task];
                // Duplicates cost nothing on the wall; only the run that
                // actually simulated carries its cost.
                (system, out.clone(), if first { *wall_secs } else { 0.0 })
            });
            assemble(c, runs)
        })
        .collect();
    BatchOutcome { reports, coalesced }
}

/// Execute one compiled scenario **serially on the calling thread**,
/// streaming per-phase progress to `progress` as each engine crosses each
/// boundary. This is the daemon's job executor: one pool worker owns the
/// whole scenario; intra-scenario parallelism would fight the pool's own.
/// Output is byte-identical to [`run`] at any `jobs` — both go through
/// the same run closures and `assemble`.
pub fn execute_with_progress(
    compiled: &CompiledScenario,
    progress: Option<ProgressSink>,
    workers: usize,
) -> SweepReport {
    execute_inner(compiled, progress, workers, None).0
}

/// [`execute_with_progress`] with the flight recorder attached: also
/// returns the scenario's trace — each engine's NDJSON concatenated in
/// spec order. `capacity` overrides the per-engine ring size
/// (`--trace-capacity`; `None` = [`metrics::DEFAULT_TRACE_CAPACITY`]) and
/// shapes only the trace bytes — never the report, hashes or cache keys.
/// Both the CLI's `--trace` flag and the daemon's `GET /jobs/{id}/trace`
/// re-run call this, so an offline trace file and a served trace body are
/// byte-identical by construction. The report itself is byte-identical to
/// an untraced run.
pub fn execute_traced(
    compiled: &CompiledScenario,
    progress: Option<ProgressSink>,
    workers: usize,
    capacity: Option<usize>,
) -> (SweepReport, String) {
    let ring = capacity.unwrap_or(metrics::DEFAULT_TRACE_CAPACITY);
    execute_inner(compiled, progress, workers, Some(ring))
}

fn execute_inner(
    compiled: &CompiledScenario,
    progress: Option<ProgressSink>,
    workers: usize,
    trace: Option<usize>,
) -> (SweepReport, String) {
    let mut traces = String::new();
    synthesize(compiled);
    let runs = build_runs(compiled, progress, workers, trace)
        .into_iter()
        .map(|run| {
            let timer = profile::start(Stage::Execute);
            let mut out = (run.run)();
            let wall_secs = timer.stop();
            if let Some(one) = out.trace.take() {
                traces.push_str(&one);
            }
            (run.system, out, wall_secs)
        });
    (assemble(compiled, runs), traces)
}

/// Synthesize the scenario's flows if nothing has yet, charged to the
/// compile stage: `load_str` leaves them as a recipe so a cache hit never
/// pays for them, and a miss pays here — before its first engine starts,
/// so per-engine `wall_secs` and the execute stage stay engine-only.
fn synthesize(compiled: &CompiledScenario) {
    let timer = profile::start(Stage::Compile);
    compiled.trace.force();
    timer.stop();
}

/// The deterministic result document for a scenario report: the
/// timing-free JSON rendering plus a trailing newline — exactly the bytes
/// `paper scenario --json --no-timing` writes, the daemon serves, and the
/// cache stores.
pub fn deterministic_document(report: &SweepReport) -> String {
    let timer = profile::start(Stage::Render);
    let mut text = crate::results::experiment_json(report, None).render();
    text.push('\n');
    timer.stop();
    text
}

/// Assemble the scenario's [`SweepReport`] from its engine runs —
/// `(system label, output, wall seconds)` in spec order.
fn assemble(
    compiled: &CompiledScenario,
    runs: impl Iterator<Item = (String, ScenarioRunOutput, f64)>,
) -> SweepReport {
    let spec = &compiled.spec;
    let id: Arc<str> = format!("scenario-{}", spec.name).into();
    let results: Vec<RunResult> = runs
        .enumerate()
        .map(|(index, (system, out, wall_secs))| {
            let meta = RunMeta::new(id.clone(), index, system, spec.seed, compiled.duration);
            let mut metrics = RunMetrics::new(Rendered::Block(out.rendered))
                .with_series(stats_to_json(&out.series))
                .with_match_ratio(out.match_ratio);
            metrics.report = Some(out.summary);
            RunResult {
                meta,
                metrics,
                wall_secs,
            }
        })
        .collect();
    let mut artifact = format!("Scenario '{}'", spec.name);
    if !spec.description.is_empty() {
        artifact.push_str(": ");
        artifact.push_str(&spec.description);
    }
    let mut rendered = format!(
        "# Scenario '{}' — {} phases, {} events, {} flows over {} epochs ({:.3} ms)\n",
        spec.name,
        spec.phases.len(),
        spec.events.len(),
        compiled.trace.len(),
        spec.total_epochs(),
        compiled.duration as f64 / 1e6,
    );
    for result in &results {
        rendered.push('\n');
        rendered.push_str(result.block());
    }
    SweepReport {
        id,
        artifact,
        duration: compiled.duration,
        loads: Vec::new(),
        seed: spec.seed,
        results,
        rendered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results;

    const SMOKE: &str = r#"{
  "name": "adapter",
  "topology": "parallel",
  "tors": 16, "ports": 4, "host_gbps": 200,
  "seed": 5,
  "phases": [
    {"label": "warm", "workload": "poisson", "load": 50, "epochs": [0, 40]},
    {"label": "hot", "workload": "poisson", "load": 90, "epochs": [40, 80]}
  ],
  "events": [
    {"at_epoch": 40, "action": "fail_random", "ratio": 0.1, "seed": 3},
    {"at_epoch": 60, "action": "repair_links"}
  ]
}"#;

    fn compiled() -> CompiledScenario {
        compile(parse_scenario(SMOKE).unwrap(), Path::new(".")).unwrap()
    }

    #[test]
    fn scenario_report_carries_series_json() {
        let report = run(&compiled(), 2, 1);
        assert_eq!(&*report.id, "scenario-adapter");
        assert_eq!(report.results.len(), 2, "negotiator + oblivious");
        let json = results::experiment_json(&report, None);
        let runs = json.get("runs").unwrap().as_array().unwrap();
        for r in runs {
            let series = r
                .get("metrics")
                .unwrap()
                .get("series")
                .unwrap()
                .as_array()
                .unwrap();
            assert_eq!(series.len(), 2, "one row per phase");
            assert_eq!(series[0].get("label").unwrap().as_str(), Some("warm"));
            assert!(series[0]
                .get("goodput_normalized")
                .unwrap()
                .as_f64()
                .is_some());
        }
        // Round-trips through the parser.
        let text = json.render();
        assert_eq!(metrics::Json::parse(&text).unwrap(), json);
    }

    #[test]
    fn scenario_is_byte_identical_across_jobs() {
        let c = compiled();
        let serial = run(&c, 1, 1);
        let parallel = run(&c, 8, 1);
        assert_eq!(serial.rendered, parallel.rendered);
        let s = results::experiment_json(&serial, None).render();
        let p = results::experiment_json(&parallel, None).render();
        assert_eq!(s, p);
    }

    #[test]
    fn scenario_is_byte_identical_across_shard_workers() {
        let c = compiled();
        let sequential = run(&c, 1, 1);
        for workers in [2, 8] {
            let sharded = run(&c, 1, workers);
            assert_eq!(sequential.rendered, sharded.rendered, "{workers} workers");
            assert_eq!(
                deterministic_document(&sequential),
                deterministic_document(&sharded),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn serving_path_matches_batch_path_byte_for_byte() {
        let c = compiled();
        let batch = run(&c, 4, 1);
        let served = execute_with_progress(&c, None, 2);
        assert_eq!(batch.rendered, served.rendered);
        assert_eq!(
            deterministic_document(&batch),
            deterministic_document(&served)
        );
    }

    #[test]
    fn batch_coalesces_identical_runs_and_fans_out() {
        let c = compiled();
        // The same scenario twice: 4 requested engine runs, 2 simulated.
        let outcome = run_batch(&[c.clone(), c.clone()], 4, 1);
        assert_eq!(outcome.coalesced, 2);
        assert_eq!(outcome.reports.len(), 2);
        assert_eq!(outcome.reports[0].rendered, outcome.reports[1].rendered);
        assert_eq!(
            deterministic_document(&outcome.reports[0]),
            deterministic_document(&outcome.reports[1])
        );
        // Fan-out must produce the same bytes as simulating separately.
        let solo = run(&c, 4, 1);
        assert_eq!(outcome.reports[0].rendered, solo.rendered);
        // Duplicates carry no wall cost of their own.
        assert!(outcome.reports[1].runs_wall_secs() == 0.0);
        assert!(outcome.reports[0].runs_wall_secs() > 0.0);
        // Distinct scenarios coalesce nothing.
        let other = compile(
            parse_scenario(&SMOKE.replace("\"seed\": 5", "\"seed\": 6")).unwrap(),
            Path::new("."),
        )
        .unwrap();
        let outcome = run_batch(&[c, other], 4, 1);
        assert_eq!(outcome.coalesced, 0);
        assert_ne!(
            deterministic_document(&outcome.reports[0]),
            deterministic_document(&outcome.reports[1])
        );
    }
}
