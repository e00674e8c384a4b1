//! Microbenchmarks (§4.2): Table 2, Figures 6, 7(a), 7(b), 8.

use std::sync::Arc;

use super::grid::{matrix_table, nego, nego_with, three_systems};
use super::{Args, Experiment};
use crate::runs::{full_load, SEED};
use crate::sweep::{Rendered, RunMeta, RunMetrics, RunResult, RunSpec};
use metrics::{report, RunReport, Table};
use scenario::System;
use topology::{AnyTopology, NetworkConfig, Topology, TopologyKind};
use workload::{AllToAllWorkload, FlowTrace, IncastWorkload};

/// Table 2's PB/PQ toggle grid.
const TABLE2_CONFIGS: &[(&str, bool, bool)] = &[
    ("-", false, false),
    ("PB", true, false),
    ("PQ", false, true),
    ("PB and PQ", true, true),
];

/// Table 2: mice FCT at 100% load with piggybacking (PB) and priority
/// queues (PQ) independently toggled, in epochs (99p/average).
pub struct Table2;

impl Experiment for Table2 {
    fn id(&self) -> &'static str {
        "table2"
    }
    fn artifact(&self) -> &'static str {
        "Table 2: PB/PQ ablation, mice FCT at 100% load"
    }
    fn specs(&self, args: &Args) -> Vec<RunSpec> {
        let (net, trace) = full_load(args);
        let mut specs = Vec::new();
        for &(label, pb, pq) in TABLE2_CONFIGS {
            for kind in [TopologyKind::Parallel, TopologyKind::ThinClos] {
                let net = net.clone();
                let trace = Arc::clone(&trace);
                let duration = args.duration;
                let workers = args.workers;
                let meta = RunMeta::new(
                    self.id(),
                    specs.len(),
                    format!("{label} / {}", kind.label()),
                    args.seed,
                    duration,
                )
                .load(1.0);
                specs.push(RunSpec::new(meta, move || {
                    let system = nego_with(kind, &net, |cfg, _| {
                        cfg.piggyback = pb;
                        cfg.priority_queues = pq;
                    });
                    let mut sim = system.build(workers);
                    let mut rep = sim.run(&trace, duration);
                    let epoch = sim.negotiator().expect("built one").epoch_len() as f64;
                    let cell = format!(
                        "{:.1}/{:.1}",
                        rep.mice.p99_ns() / epoch,
                        rep.mice.mean_ns() / epoch
                    );
                    RunMetrics::with_report(Rendered::Cells(vec![cell]), rep)
                        .push_extra("epoch_ns", epoch)
                }));
            }
        }
        specs
    }
    fn render(&self, results: &[RunResult]) -> String {
        matrix_table(
            "Table 2 — mice FCT in epochs (99p/avg) at 100% load",
            &["config", "parallel", "thin-clos"],
            results,
            0,
            |row, _| TABLE2_CONFIGS[row].0.to_string(),
        )
    }
}

/// Figure 6: CDF of mice flow FCT at 100% load, PB+PQ enabled — one run
/// per topology, each rendering its own CDF block.
pub struct Fig6;

impl Experiment for Fig6 {
    fn id(&self) -> &'static str {
        "fig6"
    }
    fn artifact(&self) -> &'static str {
        "Figure 6: CDF of mice FCT at 100% load"
    }
    fn specs(&self, args: &Args) -> Vec<RunSpec> {
        let (net, trace) = full_load(args);
        [TopologyKind::Parallel, TopologyKind::ThinClos]
            .into_iter()
            .enumerate()
            .map(|(index, kind)| {
                let net = net.clone();
                let trace = Arc::clone(&trace);
                let duration = args.duration;
                let workers = args.workers;
                let label = format!("nego/{}", kind.label());
                let meta = RunMeta::new(self.id(), index, label, args.seed, duration).load(1.0);
                RunSpec::new(meta, move || {
                    let mut sim = nego(kind, &net).build(workers);
                    let mut rep = sim.run(&trace, duration);
                    let epoch = sim.negotiator().expect("built one").epoch_len();
                    let mut table = Table::new(
                        format!("Figure 6 — mice FCT CDF at 100% load, {}", kind.label()),
                        &["fct_us", "cdf"],
                    );
                    for (v, f) in rep.mice.cdf.curve(24) {
                        table.row(vec![report::us(v), format!("{f:.3}")]);
                    }
                    let within = rep.mice.cdf.fraction_below(2.0 * epoch as f64);
                    let block = format!(
                        "{}1st epoch ends at {} us, 2nd at {} us; fraction within 2 epochs: {:.3}\n\n",
                        table.render(),
                        report::us(epoch as f64),
                        report::us(2.0 * epoch as f64),
                        within
                    );
                    RunMetrics::with_report(Rendered::Block(block), rep)
                        .push_extra("epoch_ns", epoch as f64)
                        .push_extra("fraction_within_2_epochs", within)
                })
            })
            .collect()
    }
}

/// Figure 7(a): incast finish time vs degree, 1 KB flows — one run per
/// (degree, system).
pub struct Fig7a;

const FIG7A_DEGREES: [usize; 6] = [1, 10, 20, 30, 40, 50];
/// Generous burst horizon; engines exit early when done.
const FIG7A_HORIZON: u64 = 3_000_000;

/// Run one burst trace on `system` and return its finish time, if every
/// flow completed.
fn burst_finish(system: System, trace: &FlowTrace, horizon: u64, workers: usize) -> Option<u64> {
    let mut sim = system.build(workers);
    sim.run(trace, horizon);
    RunReport::burst_finish_time(trace, sim.tracker())
}

impl Experiment for Fig7a {
    fn id(&self) -> &'static str {
        "fig7a"
    }
    fn artifact(&self) -> &'static str {
        "Figure 7(a): incast finish time vs degree"
    }
    fn specs(&self, args: &Args) -> Vec<RunSpec> {
        let net = NetworkConfig::paper_default();
        let mut specs = Vec::new();
        for degree in FIG7A_DEGREES {
            let trace = Arc::new(
                IncastWorkload {
                    degree,
                    flow_bytes: 1_000,
                    n_tors: net.n_tors,
                    start: 10_000,
                }
                .generate(SEED),
            );
            for (name, system) in three_systems(&net) {
                let trace = Arc::clone(&trace);
                let workers = args.workers;
                let meta = RunMeta::new(self.id(), specs.len(), name, SEED, FIG7A_HORIZON)
                    .param("degree", degree as f64);
                specs.push(RunSpec::new(meta, move || {
                    let t = burst_finish(system, &trace, FIG7A_HORIZON, workers)
                        .expect("incast must complete");
                    RunMetrics::new(Rendered::Cells(vec![report::us(t as f64)]))
                        .push_extra("finish_ns", t as f64)
                }));
            }
        }
        specs
    }
    fn render(&self, results: &[RunResult]) -> String {
        burst_table(
            "Figure 7(a) — incast finish time (us) vs degree",
            "degree",
            results,
        )
    }
}

/// Figure 7(b): average per-ToR goodput (Gbps) during a synchronized
/// all-to-all of equal-size flows — one run per (flow size, system).
pub struct Fig7b;

const FIG7B_SIZES_KB: [u64; 5] = [1, 5, 30, 100, 500];

impl Experiment for Fig7b {
    fn id(&self) -> &'static str {
        "fig7b"
    }
    fn artifact(&self) -> &'static str {
        "Figure 7(b): all-to-all goodput vs flow size"
    }
    fn specs(&self, args: &Args) -> Vec<RunSpec> {
        let net = NetworkConfig::paper_default();
        let mut specs = Vec::new();
        for kb in FIG7B_SIZES_KB {
            let trace = Arc::new(
                AllToAllWorkload {
                    flow_bytes: kb * 1_000,
                    n_tors: net.n_tors,
                    start: 10_000,
                }
                .generate(),
            );
            // Horizon scales with the volume; engines exit early when done.
            let horizon = 10_000_000 + kb * 2_000_000;
            for (name, system) in three_systems(&net) {
                let trace = Arc::clone(&trace);
                let (workers, n_tors) = (args.workers, net.n_tors);
                let meta = RunMeta::new(self.id(), specs.len(), name, args.seed, horizon)
                    .param("flow_kb", kb as f64);
                specs.push(RunSpec::new(meta, move || {
                    match burst_finish(system, &trace, horizon, workers) {
                        Some(t) if t > 0 => {
                            let gbps = (trace.total_bytes() * 8) as f64 / t as f64 / n_tors as f64;
                            RunMetrics::new(Rendered::Cells(vec![format!("{gbps:.0}")]))
                                .push_extra("goodput_gbps", gbps)
                                .push_extra("finish_ns", t as f64)
                        }
                        _ => RunMetrics::new(Rendered::Cells(vec!["DNF".into()])),
                    }
                }));
            }
        }
        specs
    }
    fn render(&self, results: &[RunResult]) -> String {
        burst_table(
            "Figure 7(b) — all-to-all average goodput (Gbps) vs flow size",
            "flow_kb",
            results,
        )
    }
}

/// A burst figure's table: a row per sweep-parameter value, a column per
/// system of [`three_systems`].
fn burst_table(title: &str, param: &str, results: &[RunResult]) -> String {
    let headers = [
        param,
        "nego/parallel",
        "nego/thin-clos",
        "oblivious/thin-clos",
    ];
    matrix_table(title, &headers, results, 0, |_, r| {
        format!("{}", r.param() as u64)
    })
}

/// Figure 8: goodput and mice FCT at 100% load under longer end-to-end
/// reconfiguration delays — one run per (topology, delay).
pub struct Fig8;

const FIG8_GUARDS: [u64; 4] = [10, 20, 50, 100];

impl Experiment for Fig8 {
    fn id(&self) -> &'static str {
        "fig8"
    }
    fn artifact(&self) -> &'static str {
        "Figure 8: reconfiguration-delay sweep at 100% load"
    }
    fn specs(&self, args: &Args) -> Vec<RunSpec> {
        let (net, trace) = full_load(args);
        let mut specs = Vec::new();
        for kind in [TopologyKind::Parallel, TopologyKind::ThinClos] {
            for guard in FIG8_GUARDS {
                let net = net.clone();
                let trace = Arc::clone(&trace);
                let duration = args.duration;
                let workers = args.workers;
                let label = format!("nego/{}", kind.label());
                let meta = RunMeta::new(self.id(), specs.len(), label, args.seed, duration)
                    .load(1.0)
                    .param("reconf_ns", guard as f64);
                specs.push(RunSpec::new(meta, move || {
                    let pre_slots = AnyTopology::build(kind, net.clone()).predefined_slots();
                    let system = nego_with(kind, &net, |cfg, _| {
                        cfg.epoch = cfg.epoch.with_guardband(guard, pre_slots)
                    });
                    let mut rep = system.build(workers).run(&trace, duration);
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
        let mut out = String::new();
        for (chunk, kind) in results
            .chunks(FIG8_GUARDS.len())
            .zip([TopologyKind::Parallel, TopologyKind::ThinClos])
        {
            let mut table = Table::new(
                format!(
                    "Figure 8 — reconfiguration-delay sweep at 100% load, {}",
                    kind.label()
                ),
                &["reconf_ns", "99p_fct_ms", "goodput"],
            );
            for r in chunk {
                let mut cells = vec![format!("{}", r.param() as u64)];
                cells.extend(r.cells().iter().cloned());
                table.row(cells);
            }
            out.push_str(&table.render());
            out.push('\n');
        }
        out
    }
}
