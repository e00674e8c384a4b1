//! The experiment registry: one [`Experiment`] per table/figure of the
//! paper, each decomposed into independently schedulable runs so the
//! sweep engine (`crate::sweep`) can execute any mix of them in parallel.
//! [`EXPERIMENTS`] is the per-experiment index (`paper list` prints it):
//! the load sweeps are [`grid::Grid`] values — systems and tables written
//! down, expanded and rendered by one piece of code — and the experiments
//! whose runs need code of their own are closures behind the same trait.
//! Either way an engine is built through [`scenario::System`], the driver
//! `paper scenario` and the daemon use.

use crate::sweep::{RunResult, RunSpec};
use sim::time::Nanos;

pub mod ablation;
pub mod appendix;
pub mod deepdive;
pub mod grid;
pub mod main_results;
pub mod micro;
pub mod observe;

/// Harness-wide parameters.
#[derive(Debug, Clone)]
pub struct Args {
    /// Simulated duration per run (paper: 30 ms; default here: 5 ms).
    pub duration: Nanos,
    /// Load points for the sweeps (paper: 10–100%).
    pub loads: Vec<f64>,
    /// Workload seed (vary to get error bars across runs).
    pub seed: u64,
    /// Intra-run shard workers per simulation (`--workers`). Purely a
    /// wall-clock knob: reports are byte-identical at any value, so it
    /// never appears in run metadata or output.
    pub workers: usize,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            duration: crate::runs::DEFAULT_DURATION,
            loads: vec![0.10, 0.25, 0.50, 0.75, 1.00],
            seed: crate::runs::SEED,
            workers: 1,
        }
    }
}

/// One paper artifact, split into schedulable runs.
///
/// `specs` expands the harness [`Args`] into the experiment's flat run
/// list; `render` reassembles the executed results (always handed back in
/// spec order) into the same text report a serial loop would have printed.
/// Implementations must keep both sides deterministic — the determinism
/// suite asserts `--jobs N` output is byte-identical to `--jobs 1`.
pub trait Experiment: Sync {
    /// Registry id (`fig9`, `table2`, ...).
    fn id(&self) -> &'static str;
    /// The paper artifact this reproduces.
    fn artifact(&self) -> &'static str;
    /// Expand into independently schedulable runs.
    fn specs(&self, args: &Args) -> Vec<RunSpec>;
    /// Reassemble executed runs (in spec order) into the text report:
    /// unless overridden, the runs' rendered blocks one after the other.
    fn render(&self, results: &[RunResult]) -> String {
        results.iter().map(|r| r.block()).collect()
    }
}

/// Every experiment of the harness, in the paper's presentation order.
pub static EXPERIMENTS: &[&dyn Experiment] = &[
    &micro::Table2,
    &micro::Fig6,
    &micro::Fig7a,
    &micro::Fig7b,
    &micro::Fig8,
    &main_results::FIG9,
    &main_results::Fig10,
    &main_results::FIG11,
    &deepdive::FIG12A,
    &deepdive::FIG12B,
    &deepdive::Fig13a,
    &deepdive::FIG13B,
    &deepdive::FIG13C,
    &appendix::Fig14,
    &appendix::FIG15,
    &appendix::TABLE3,
    &appendix::TABLE4,
    &appendix::TABLE5,
    &appendix::TABLE6,
    &observe::Fig17,
    &observe::Fig18,
    &observe::Fig19,
    &ablation::AblThreshold,
    &ablation::AblRotation,
];

/// Look an experiment up by id.
pub fn find_experiment(id: &str) -> Option<&'static dyn Experiment> {
    EXPERIMENTS.iter().copied().find(|e| e.id() == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_findable() {
        let mut seen = std::collections::HashSet::new();
        for exp in EXPERIMENTS {
            assert!(seen.insert(exp.id()), "duplicate id {}", exp.id());
            assert_eq!(find_experiment(exp.id()).unwrap().id(), exp.id());
            assert!(!exp.artifact().is_empty());
        }
        assert_eq!(EXPERIMENTS.len(), 24);
        assert!(find_experiment("nope").is_none());
    }
}
