//! The parallel sweep engine.
//!
//! Every experiment decomposes into independent, deterministic simulation
//! runs: [`crate::experiments::Experiment::specs`] expands the harness
//! [`Args`] into a flat list of [`RunSpec`]s, [`execute_specs`] plays them
//! across `--jobs N` worker threads (via [`sim::pool`]), and the results
//! come back **in spec order**, so the experiment's
//! [`render`](crate::experiments::Experiment::render) produces bytes
//! identical to a serial run. [`run_sweep`] goes one step further and
//! flattens *several* experiments into one shared worker pool, which is
//! what turns `paper all` from hours of serial sweeps into minutes.

use std::sync::Arc;

use crate::experiments::{Args, Experiment};
use metrics::RunReport;
use sim::pool;
use sim::time::Nanos;

/// Identity of one schedulable run: which experiment it belongs to, where
/// it sits in that experiment's spec order, and the (config, seed) pair
/// that makes it citable and machine-readable.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMeta {
    /// Experiment id (`fig9`, `table2`, `scenario-<name>`, ...). Owned:
    /// scenario names arrive over the wire, in any number.
    pub experiment: Arc<str>,
    /// Position in the experiment's spec order (render relies on it).
    pub index: usize,
    /// System / variant label for this run (e.g. `nego/parallel`).
    pub system: String,
    /// Offered load as a fraction, for load sweeps.
    pub load: Option<f64>,
    /// The experiment's own sweep parameter (name, value) — incast
    /// degree, reconfiguration delay, failure ratio, ...
    pub param: Option<(&'static str, f64)>,
    /// Workload seed of the run.
    pub seed: u64,
    /// Simulated horizon of the run in ns.
    pub duration: Nanos,
}

impl RunMeta {
    /// Meta for run `index` of `experiment`: workload seed `seed`, played
    /// for `duration` ns.
    pub fn new(
        experiment: impl Into<Arc<str>>,
        index: usize,
        system: impl Into<String>,
        seed: u64,
        duration: Nanos,
    ) -> Self {
        RunMeta {
            experiment: experiment.into(),
            index,
            system: system.into(),
            load: None,
            param: None,
            seed,
            duration,
        }
    }

    /// Set the offered load.
    pub fn load(mut self, load: f64) -> Self {
        self.load = Some(load);
        self
    }

    /// Set the experiment-specific sweep parameter.
    pub fn param(mut self, name: &'static str, value: f64) -> Self {
        self.param = Some((name, value));
        self
    }
}

/// What a run contributes to its experiment's rendered report.
#[derive(Debug, Clone, PartialEq)]
pub enum Rendered {
    /// Cell strings for one slice of a table row (row-per-parameter
    /// experiments).
    Cells(Vec<String>),
    /// A fully rendered block (CDF/time-series experiments where one run
    /// emits a whole sub-table).
    Block(String),
}

/// Everything one run measured: its rendered contribution plus the
/// machine-readable scalars the JSON emit carries.
///
/// Only the scalar [`RunSummary`] digest of a run's report is kept — a
/// full [`RunReport`] holds one FCT sample per flow, and a sweep retains
/// hundreds of run metrics until its reports are rendered.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Contribution to the experiment's text report.
    pub rendered: Rendered,
    /// Digest of the run's flow/goodput report, when it produced one.
    pub report: Option<metrics::RunSummary>,
    /// Overall per-epoch match ratio, when recorded.
    pub match_ratio: Option<f64>,
    /// Experiment-specific named scalars (finish times, failure ratios,
    /// over-scheduling counters, ...).
    pub extra: Vec<(&'static str, f64)>,
    /// Per-phase time series (scenario runs): a JSON array emitted under
    /// `metrics.series` in the results schema.
    pub series: Option<metrics::Json>,
}

impl RunMetrics {
    /// Metrics with no standard report (series/burst experiments).
    pub fn new(rendered: Rendered) -> Self {
        RunMetrics {
            rendered,
            report: None,
            match_ratio: None,
            extra: Vec::new(),
            series: None,
        }
    }

    /// Metrics condensed from a full [`RunReport`].
    pub fn with_report(rendered: Rendered, mut report: RunReport) -> Self {
        RunMetrics {
            rendered,
            report: Some(report.summary()),
            match_ratio: None,
            extra: Vec::new(),
            series: None,
        }
    }

    /// Attach a per-phase time series.
    pub fn with_series(mut self, series: metrics::Json) -> Self {
        self.series = Some(series);
        self
    }

    /// Attach a named scalar.
    pub fn push_extra(mut self, name: &'static str, value: f64) -> Self {
        self.extra.push((name, value));
        self
    }

    /// Attach the overall match ratio.
    pub fn with_match_ratio(mut self, ratio: Option<f64>) -> Self {
        self.match_ratio = ratio;
        self
    }
}

/// One schedulable unit of work: metadata plus the closure that runs the
/// simulation. The closure owns (or `Arc`-shares) everything it needs, so
/// specs can execute on any worker thread in any order.
pub struct RunSpec {
    /// Identity of the run.
    pub meta: RunMeta,
    run: Box<dyn FnOnce() -> RunMetrics + Send>,
}

impl RunSpec {
    /// A spec from its metadata and run closure.
    pub fn new(meta: RunMeta, run: impl FnOnce() -> RunMetrics + Send + 'static) -> Self {
        RunSpec {
            meta,
            run: Box::new(run),
        }
    }
}

impl std::fmt::Debug for RunSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunSpec").field("meta", &self.meta).finish()
    }
}

/// A completed run: the spec's metadata, what it measured, and how long
/// the simulation took on the wall.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Identity of the run.
    pub meta: RunMeta,
    /// What the run measured.
    pub metrics: RunMetrics,
    /// Wall-clock cost of this run in seconds (execution metadata — never
    /// part of determinism comparisons).
    pub wall_secs: f64,
}

impl RunResult {
    /// The run's table cells. Panics if the run rendered a block — that
    /// is a mismatch between an experiment's specs and its render.
    pub fn cells(&self) -> &[String] {
        match &self.metrics.rendered {
            Rendered::Cells(cells) => cells,
            Rendered::Block(_) => panic!(
                "{} run {} rendered a block where cells were expected",
                self.meta.experiment, self.meta.index
            ),
        }
    }

    /// The run's rendered block. Panics on cell runs (see [`Self::cells`]).
    pub fn block(&self) -> &str {
        match &self.metrics.rendered {
            Rendered::Block(block) => block,
            Rendered::Cells(_) => panic!(
                "{} run {} rendered cells where a block was expected",
                self.meta.experiment, self.meta.index
            ),
        }
    }

    /// The offered load; panics when the experiment has no load axis.
    pub fn load(&self) -> f64 {
        self.meta.load.expect("run has a load axis")
    }

    /// The sweep-parameter value; panics when the experiment has none.
    pub fn param(&self) -> f64 {
        self.meta.param.expect("run has a sweep parameter").1
    }
}

/// Execute specs across `jobs` workers, returning results in spec order.
pub fn execute_specs(specs: Vec<RunSpec>, jobs: usize) -> Vec<RunResult> {
    let (metas, runs): (Vec<_>, Vec<_>) = specs.into_iter().map(|s| (s.meta, s.run)).unzip();
    let tasks: Vec<pool::Task<(RunMetrics, f64)>> = runs
        .into_iter()
        .map(|run| -> pool::Task<(RunMetrics, f64)> {
            Box::new(move || {
                let started = std::time::Instant::now();
                let metrics = run();
                (metrics, started.elapsed().as_secs_f64())
            })
        })
        .collect();
    let outputs = pool::run_ordered(jobs, tasks);
    metas
        .into_iter()
        .zip(outputs)
        .map(|(meta, (metrics, wall_secs))| RunResult {
            meta,
            metrics,
            wall_secs,
        })
        .collect()
}

/// One experiment's completed sweep: the ordered results and the rendered
/// text report.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Experiment id.
    pub id: Arc<str>,
    /// Paper artifact description.
    pub artifact: String,
    /// Simulated duration per run in ns (the document's `config`).
    pub duration: Nanos,
    /// Load points of the sweep; empty when the experiment has no load
    /// axis of its own (scenarios).
    pub loads: Vec<f64>,
    /// Workload seed.
    pub seed: u64,
    /// Results in spec order.
    pub results: Vec<RunResult>,
    /// The experiment's text report (same bytes at any `--jobs`).
    pub rendered: String,
}

impl SweepReport {
    /// Total wall-clock spent inside this experiment's runs, in seconds
    /// (sum over runs — parallel sweeps overlap them).
    pub fn runs_wall_secs(&self) -> f64 {
        self.results.iter().map(|r| r.wall_secs).sum()
    }
}

/// Expand `experiments` into one flat spec list, execute it on a shared
/// `jobs`-wide pool, and reassemble per-experiment reports in order.
///
/// The flat pool is the point: a slow experiment no longer serializes the
/// ones queued behind it, and small experiments fill the stragglers' idle
/// workers.
pub fn run_sweep(
    experiments: &[&'static dyn Experiment],
    args: &Args,
    jobs: usize,
) -> Vec<SweepReport> {
    let mut counts = Vec::with_capacity(experiments.len());
    let mut flat = Vec::new();
    for exp in experiments {
        let specs = exp.specs(args);
        counts.push(specs.len());
        flat.extend(specs);
    }
    let mut rest = execute_specs(flat, jobs);
    let mut reports = Vec::with_capacity(experiments.len());
    for (exp, count) in experiments.iter().zip(counts) {
        let tail = rest.split_off(count);
        let results = std::mem::replace(&mut rest, tail);
        let rendered = exp.render(&results);
        reports.push(SweepReport {
            id: exp.id().into(),
            artifact: exp.artifact().into(),
            duration: args.duration,
            loads: args.loads.clone(),
            seed: args.seed,
            results,
            rendered,
        });
    }
    reports
}

/// [`run_sweep`] for a single experiment.
pub fn run_one(exp: &'static dyn Experiment, args: &Args, jobs: usize) -> SweepReport {
    run_sweep(&[exp], args, jobs)
        .pop()
        .expect("one experiment in, one report out")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(i: usize, v: f64) -> RunSpec {
        RunSpec::new(RunMeta::new("test", i, "sys", 1, 1), move || {
            RunMetrics::new(Rendered::Cells(vec![format!("{v}")])).push_extra("v", v)
        })
    }

    #[test]
    fn execute_preserves_spec_order() {
        for jobs in [1, 4] {
            let specs: Vec<RunSpec> = (0..10).map(|i| spec(i, i as f64 * 1.5)).collect();
            let results = execute_specs(specs, jobs);
            for (i, r) in results.iter().enumerate() {
                assert_eq!(r.meta.index, i);
                assert_eq!(r.metrics.extra, vec![("v", i as f64 * 1.5)]);
                assert_eq!(r.cells(), [format!("{}", i as f64 * 1.5)]);
            }
        }
    }

    #[test]
    fn meta_builder() {
        let m = RunMeta::new("fig8", 3, "nego/parallel", 9, 123)
            .load(0.5)
            .param("reconf_ns", 20.0);
        assert_eq!(m.load, Some(0.5));
        assert_eq!(m.param, Some(("reconf_ns", 20.0)));
        assert_eq!(m.duration, 123);
        assert_eq!(m.seed, 9);
    }

    #[test]
    #[should_panic(expected = "rendered a block")]
    fn cells_on_block_is_a_bug() {
        let r = RunResult {
            meta: RunMeta::new("x", 0, "s", 1, 1),
            metrics: RunMetrics::new(Rendered::Block("b".into())),
            wall_secs: 0.0,
        };
        r.cells();
    }
}
