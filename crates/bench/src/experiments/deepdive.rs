//! Deep-dive results (§4.4): parameter sensitivity (Figure 12) and the
//! alternative workloads (Figure 13).

use std::sync::Arc;

use super::main_results::{load_sweep_render, load_sweep_specs};
use super::{Args, Experiment};
use crate::runs::{background_seeded, run_negotiator, SEED};
use crate::sweep::{Rendered, RunMeta, RunMetrics, RunResult, RunSpec};
use metrics::{report, RunReport, Table};
use negotiator::{NegotiatorConfig, NegotiatorSim, SimOptions};
use oblivious::{ObliviousConfig, ObliviousSim};
use topology::{NetworkConfig, TopologyKind};
use workload::{FlowSizeDist, FlowTrace, MixedWorkload, WorkloadSpec};

/// Figure 12(a): predefined-phase timeslot duration sweep (affects how
/// much data one piggybacked packet carries), parallel network.
pub struct Fig12a;

const FIG12A_SLOTS_NS: [u64; 5] = [20, 30, 60, 90, 120];

impl Experiment for Fig12a {
    fn id(&self) -> &'static str {
        "fig12a"
    }
    fn artifact(&self) -> &'static str {
        "Figure 12(a): predefined-phase timeslot sensitivity"
    }
    fn specs(&self, args: &Args) -> Vec<RunSpec> {
        let net = NetworkConfig::paper_default();
        let mut specs = Vec::new();
        for &load in &args.loads {
            let trace = Arc::new(background_seeded(
                FlowSizeDist::hadoop(),
                load,
                &net,
                args.duration,
                args.seed,
            ));
            for slot_ns in FIG12A_SLOTS_NS {
                let net = net.clone();
                let trace = Arc::clone(&trace);
                let duration = args.duration;
                let workers = args.workers;
                let meta = RunMeta::new(self.id(), specs.len(), "nego/parallel", args)
                    .load(load)
                    .param("slot_ns", slot_ns as f64);
                specs.push(RunSpec::new(meta, move || {
                    let mut cfg = NegotiatorConfig::paper_default(net.clone());
                    cfg.epoch.predefined_window = slot_ns - cfg.epoch.guardband;
                    let (mut rep, _) = run_negotiator(
                        cfg,
                        TopologyKind::Parallel,
                        SimOptions::default(),
                        &trace,
                        duration,
                        workers,
                    );
                    let cell = report::us(rep.mice.p99_ns());
                    RunMetrics::with_report(Rendered::Cells(vec![cell]), rep)
                }));
            }
        }
        specs
    }
    fn render(&self, results: &[RunResult]) -> String {
        let mut table = Table::new(
            "Figure 12(a) — 99p mice FCT (us) vs predefined timeslot duration, parallel",
            &["load", "20ns", "30ns", "60ns", "90ns", "120ns"],
        );
        for chunk in results.chunks(FIG12A_SLOTS_NS.len()) {
            let mut cells = vec![report::pct(chunk[0].load())];
            cells.extend(chunk.iter().map(|r| r.cells()[0].clone()));
            table.row(cells);
        }
        table.render()
    }
}

/// Figure 12(b): scheduled-phase length sweep, parallel network.
pub struct Fig12b;

const FIG12B_SLOTS: [usize; 5] = [10, 30, 50, 100, 500];

impl Experiment for Fig12b {
    fn id(&self) -> &'static str {
        "fig12b"
    }
    fn artifact(&self) -> &'static str {
        "Figure 12(b): scheduled-phase length sensitivity"
    }
    fn specs(&self, args: &Args) -> Vec<RunSpec> {
        let net = NetworkConfig::paper_default();
        let mut specs = Vec::new();
        for &load in &args.loads {
            let trace = Arc::new(background_seeded(
                FlowSizeDist::hadoop(),
                load,
                &net,
                args.duration,
                args.seed,
            ));
            for slots in FIG12B_SLOTS {
                let net = net.clone();
                let trace = Arc::clone(&trace);
                let duration = args.duration;
                let workers = args.workers;
                let meta = RunMeta::new(self.id(), specs.len(), "nego/parallel", args)
                    .load(load)
                    .param("scheduled_slots", slots as f64);
                specs.push(RunSpec::new(meta, move || {
                    let mut cfg = NegotiatorConfig::paper_default(net.clone());
                    cfg.epoch.scheduled_slots = slots;
                    let (mut rep, _) = run_negotiator(
                        cfg,
                        TopologyKind::Parallel,
                        SimOptions::default(),
                        &trace,
                        duration,
                        workers,
                    );
                    let cells = vec![
                        report::ms(rep.mice.p99_ns()),
                        format!("{:.3}", rep.goodput.normalized()),
                    ];
                    RunMetrics::with_report(Rendered::Cells(cells), rep)
                }));
            }
        }
        specs
    }
    fn render(&self, results: &[RunResult]) -> String {
        let mut fct = Table::new(
            "Figure 12(b) — 99p mice FCT (ms) vs scheduled-phase slots, parallel",
            &["load", "10", "30", "50", "100", "500"],
        );
        let mut gp = Table::new(
            "Figure 12(b) — normalized goodput vs scheduled-phase slots, parallel",
            &["load", "10", "30", "50", "100", "500"],
        );
        for chunk in results.chunks(FIG12B_SLOTS.len()) {
            let mut fct_cells = vec![report::pct(chunk[0].load())];
            let mut gp_cells = vec![report::pct(chunk[0].load())];
            for r in chunk {
                fct_cells.push(r.cells()[0].clone());
                gp_cells.push(r.cells()[1].clone());
            }
            fct.row(fct_cells);
            gp.row(gp_cells);
        }
        format!("{}\n{}", fct.render(), gp.render())
    }
}

/// Figure 13(a): Hadoop background randomly mixed with degree-20, 1 KB
/// incasts taking 2% of the downlink aggregate — one run per
/// (load, system), the mixed trace shared per load.
pub struct Fig13a;

/// The three systems of Figure 13(a)'s legend.
const FIG13A_SYSTEMS: &[&str] = &["nego/parallel", "nego/thin-clos", "oblivious/thin-clos"];

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
            for (sys, &name) in FIG13A_SYSTEMS.iter().enumerate() {
                let net = net.clone();
                let shared = Arc::clone(&shared);
                let duration = args.duration;
                let workers = args.workers;
                let meta = RunMeta::new(self.id(), specs.len(), name, args)
                    .load(load)
                    .seed(SEED);
                specs.push(RunSpec::new(meta, move || {
                    let (trace, tags, bg_tags) = &*shared;
                    let (mut bg, overall, finish) = match sys {
                        0 | 1 => {
                            let kind = if sys == 0 {
                                TopologyKind::Parallel
                            } else {
                                TopologyKind::ThinClos
                            };
                            let cfg = NegotiatorConfig::paper_default(net.clone());
                            let opts = SimOptions {
                                workers,
                                ..SimOptions::default()
                            };
                            let mut sim = NegotiatorSim::with_options(cfg, kind, opts);
                            sim.run(trace, duration);
                            let bg = sim.report_subset(trace, bg_tags);
                            let overall = RunReport::build(
                                trace,
                                sim.tracker(),
                                duration,
                                net.n_tors,
                                net.host_bandwidth.bps(),
                                None,
                            );
                            let finish = incast_finish(trace, tags, duration, sim.tracker());
                            (bg, overall, finish)
                        }
                        _ => {
                            let mut sim = ObliviousSim::new(
                                ObliviousConfig::paper_default(net.clone()),
                                TopologyKind::ThinClos,
                            );
                            sim.run(trace, duration);
                            let bg = sim.report_subset(trace, bg_tags);
                            let overall = RunReport::build(
                                trace,
                                sim.tracker(),
                                duration,
                                net.n_tors,
                                net.host_bandwidth.bps(),
                                None,
                            );
                            let finish = incast_finish(trace, tags, duration, sim.tracker());
                            (bg, overall, finish)
                        }
                    };
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
        let mut table = Table::new(
            "Figure 13(a) — Hadoop + incast mix: background 99p mice FCT (ms) / mean incast finish (ms) / goodput",
            &["load", "nego/parallel", "nego/thin-clos", "oblivious/thin-clos"],
        );
        for chunk in results.chunks(FIG13A_SYSTEMS.len()) {
            let mut cells = vec![report::pct(chunk[0].load())];
            cells.extend(chunk.iter().map(|r| r.cells()[0].clone()));
            table.row(cells);
        }
        table.render()
    }
}

/// Figure 13(b): the heavier web-search workload.
pub struct Fig13b;

impl Experiment for Fig13b {
    fn id(&self) -> &'static str {
        "fig13b"
    }
    fn artifact(&self) -> &'static str {
        "Figure 13(b): web-search workload"
    }
    fn specs(&self, args: &Args) -> Vec<RunSpec> {
        load_sweep_specs(
            self.id(),
            NetworkConfig::paper_default(),
            FlowSizeDist::web_search(),
            args,
        )
    }
    fn render(&self, results: &[RunResult]) -> String {
        load_sweep_render("Figure 13(b) (web search)", results)
    }
}

/// Figure 13(c): the lighter Google workload.
pub struct Fig13c;

impl Experiment for Fig13c {
    fn id(&self) -> &'static str {
        "fig13c"
    }
    fn artifact(&self) -> &'static str {
        "Figure 13(c): Google workload"
    }
    fn specs(&self, args: &Args) -> Vec<RunSpec> {
        load_sweep_specs(
            self.id(),
            NetworkConfig::paper_default(),
            FlowSizeDist::google(),
            args,
        )
    }
    fn render(&self, results: &[RunResult]) -> String {
        load_sweep_render("Figure 13(c) (Google)", results)
    }
}
