//! Deep-dive results (§4.4): parameter sensitivity (Figure 12) and the
//! alternative workloads (Figure 13).

use std::sync::Arc;

use super::grid::{matrix_table, nego_with, three_systems, Cell, Column, Grid, GridExperiment};
use super::main_results::load_sweep;
use super::{Args, Experiment};
use crate::runs::SEED;
use crate::sweep::{Rendered, RunMeta, RunMetrics, RunResult, RunSpec};
use metrics::report;
use topology::{NetworkConfig, TopologyKind};
use workload::{FlowSizeDist, FlowTrace, MixedWorkload, WorkloadSpec};

/// A sweep of one NegotiaToR knob on the parallel network: a column per
/// `(header, value)` point, each the paper default with `set(value)`
/// applied.
fn knob_sweep(
    param: &'static str,
    points: &[(&'static str, u64)],
    set: fn(&mut negotiator::NegotiatorConfig, u64),
    tables: Vec<(String, Cell)>,
) -> Grid {
    let net = NetworkConfig::paper_default();
    Grid {
        columns: points
            .iter()
            .map(|&(header, value)| {
                let system = nego_with(TopologyKind::Parallel, &net, |cfg, _| set(cfg, value));
                Column::new("nego/parallel", system)
                    .header(header)
                    .param(param, value as f64)
            })
            .collect(),
        tables,
        dist: FlowSizeDist::hadoop(),
        net,
    }
}

/// Figure 12(a): predefined-phase timeslot duration sweep (affects how
/// much data one piggybacked packet carries), parallel network.
pub static FIG12A: GridExperiment = GridExperiment {
    id: "fig12a",
    artifact: "Figure 12(a): predefined-phase timeslot sensitivity",
    grid: || {
        knob_sweep(
            "slot_ns",
            &[
                ("20ns", 20),
                ("30ns", 30),
                ("60ns", 60),
                ("90ns", 90),
                ("120ns", 120),
            ],
            |cfg, slot_ns| cfg.epoch.predefined_window = slot_ns - cfg.epoch.guardband,
            vec![(
                "Figure 12(a) — 99p mice FCT (us) vs predefined timeslot duration, parallel".into(),
                Cell::MiceP99Us,
            )],
        )
    },
};

/// Figure 12(b): scheduled-phase length sweep, parallel network.
pub static FIG12B: GridExperiment = GridExperiment {
    id: "fig12b",
    artifact: "Figure 12(b): scheduled-phase length sensitivity",
    grid: || {
        knob_sweep(
            "scheduled_slots",
            &[
                ("10", 10),
                ("30", 30),
                ("50", 50),
                ("100", 100),
                ("500", 500),
            ],
            |cfg, slots| cfg.epoch.scheduled_slots = slots as usize,
            vec![
                (
                    "Figure 12(b) — 99p mice FCT (ms) vs scheduled-phase slots, parallel".into(),
                    Cell::MiceP99Ms,
                ),
                (
                    "Figure 12(b) — normalized goodput vs scheduled-phase slots, parallel".into(),
                    Cell::Goodput,
                ),
            ],
        )
    },
};

/// Figure 13(a): Hadoop background randomly mixed with degree-20, 1 KB
/// incasts taking 2% of the downlink aggregate — one run per
/// (load, system), the mixed trace shared per load.
pub struct Fig13a;

/// Mean incast finish: group tagged flows by (arrival, dst) and take the
/// latest completion per burst. Bursts arriving in the last stretch of
/// the run cannot finish before the horizon and are excluded; an
/// unfinished earlier burst counts as the full horizon.
fn incast_finish(
    trace: &FlowTrace,
    tags: &[bool],
    duration: u64,
    tracker: &metrics::FlowTracker,
) -> Option<f64> {
    let cutoff = duration.saturating_sub(duration / 5);
    let mut bursts: std::collections::HashMap<(u64, usize), u64> = Default::default();
    for (f, &tag) in trace.flows().iter().zip(tags) {
        if !tag || f.arrival >= cutoff {
            continue;
        }
        let finish = match tracker.completion(f.id) {
            Some(done) => done - f.arrival,
            None => duration - f.arrival, // unfinished: lower bound
        };
        let e = bursts.entry((f.arrival, f.dst)).or_insert(0);
        *e = (*e).max(finish);
    }
    if bursts.is_empty() {
        return None;
    }
    Some(bursts.values().sum::<u64>() as f64 / bursts.len() as f64)
}

impl Experiment for Fig13a {
    fn id(&self) -> &'static str {
        "fig13a"
    }
    fn artifact(&self) -> &'static str {
        "Figure 13(a): Hadoop mixed with incasts"
    }
    fn specs(&self, args: &Args) -> Vec<RunSpec> {
        let net = NetworkConfig::paper_default();
        let mut specs = Vec::new();
        for &load in &args.loads {
            let mixed = MixedWorkload {
                background: WorkloadSpec {
                    dist: FlowSizeDist::hadoop(),
                    load,
                    n_tors: net.n_tors,
                    host_bps: net.host_bandwidth.bps(),
                },
                incast_degree: 20,
                incast_flow_bytes: 1_000,
                incast_load: 0.02,
            };
            let (trace, tags) = mixed.generate(args.duration, SEED);
            let bg_tags: Vec<bool> = tags.iter().map(|&t| !t).collect();
            let shared = Arc::new((trace, tags, bg_tags));
            for (name, system) in three_systems(&net) {
                let shared = Arc::clone(&shared);
                let duration = args.duration;
                let workers = args.workers;
                let meta = RunMeta::new(self.id(), specs.len(), name, SEED, duration).load(load);
                specs.push(RunSpec::new(meta, move || {
                    let (trace, tags, bg_tags) = &*shared;
                    let mut sim = system.build(workers);
                    let overall = sim.run(trace, duration);
                    let mut bg = sim.report_subset(trace, bg_tags);
                    let finish = incast_finish(trace, tags, duration, sim.tracker());
                    let cell = format!(
                        "{}/{}/{:.3}",
                        report::ms(bg.mice.p99_ns()),
                        finish.map_or("DNF".into(), report::ms),
                        overall.goodput.normalized()
                    );
                    let mut metrics = RunMetrics::with_report(Rendered::Cells(vec![cell]), bg)
                        .push_extra("overall_goodput", overall.goodput.normalized());
                    if let Some(f) = finish {
                        metrics = metrics.push_extra("incast_finish_ns", f);
                    }
                    metrics
                }));
            }
        }
        specs
    }
    fn render(&self, results: &[RunResult]) -> String {
        matrix_table(
            "Figure 13(a) — Hadoop + incast mix: background 99p mice FCT (ms) / mean incast finish (ms) / goodput",
            &["load", "nego/parallel", "nego/thin-clos", "oblivious/thin-clos"],
            results,
            0,
            |_, r| report::pct(r.load()),
        )
    }
}

/// Figure 13(b): the heavier web-search workload.
pub static FIG13B: GridExperiment = GridExperiment {
    id: "fig13b",
    artifact: "Figure 13(b): web-search workload",
    grid: || {
        load_sweep(
            "Figure 13(b) (web search)",
            NetworkConfig::paper_default(),
            FlowSizeDist::web_search(),
        )
    },
};

/// Figure 13(c): the lighter Google workload.
pub static FIG13C: GridExperiment = GridExperiment {
    id: "fig13c",
    artifact: "Figure 13(c): Google workload",
    grid: || {
        load_sweep(
            "Figure 13(c) (Google)",
            NetworkConfig::paper_default(),
            FlowSizeDist::google(),
        )
    },
};
