//! Microbenchmarks (§4.2): Table 2, Figures 6, 7(a), 7(b), 8.

use std::sync::Arc;

use super::{Args, Experiment};
use crate::runs::{background_seeded, run_negotiator, run_oblivious, SEED};
use crate::sweep::{Rendered, RunMeta, RunMetrics, RunResult, RunSpec};
use metrics::{report, RunReport, Table};
use negotiator::{NegotiatorConfig, SimOptions};
use oblivious::ObliviousConfig;
use topology::{NetworkConfig, TopologyKind};
use workload::{AllToAllWorkload, FlowSizeDist, IncastWorkload};

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
        let net = NetworkConfig::paper_default();
        let trace = Arc::new(background_seeded(
            FlowSizeDist::hadoop(),
            1.0,
            &net,
            args.duration,
            args.seed,
        ));
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
                    args,
                )
                .load(1.0);
                specs.push(RunSpec::new(meta, move || {
                    let mut cfg = NegotiatorConfig::paper_default(net.clone());
                    cfg.piggyback = pb;
                    cfg.priority_queues = pq;
                    let (mut rep, sim) =
                        run_negotiator(cfg, kind, SimOptions::default(), &trace, duration, workers);
                    let epoch = sim.epoch_len() as f64;
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
        let mut table = Table::new(
            "Table 2 — mice FCT in epochs (99p/avg) at 100% load",
            &["config", "parallel", "thin-clos"],
        );
        for (chunk, &(label, ..)) in results.chunks(2).zip(TABLE2_CONFIGS) {
            let mut cells = vec![label.to_string()];
            cells.extend(chunk.iter().map(|r| r.cells()[0].clone()));
            table.row(cells);
        }
        table.render()
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
        let net = NetworkConfig::paper_default();
        let trace = Arc::new(background_seeded(
            FlowSizeDist::hadoop(),
            1.0,
            &net,
            args.duration,
            args.seed,
        ));
        [TopologyKind::Parallel, TopologyKind::ThinClos]
            .into_iter()
            .enumerate()
            .map(|(index, kind)| {
                let net = net.clone();
                let trace = Arc::clone(&trace);
                let duration = args.duration;
                let workers = args.workers;
                let meta =
                    RunMeta::new(self.id(), index, format!("nego/{}", kind.label()), args)
                        .load(1.0);
                RunSpec::new(meta, move || {
                    let cfg = NegotiatorConfig::paper_default(net.clone());
                    let (mut rep, sim) =
                        run_negotiator(cfg, kind, SimOptions::default(), &trace, duration, workers);
                    let epoch = sim.epoch_len();
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
    fn render(&self, results: &[RunResult]) -> String {
        results.iter().map(|r| r.block()).collect()
    }
}

/// Figure 7(a): incast finish time vs degree, 1 KB flows — one run per
/// (degree, system).
pub struct Fig7a;

const FIG7A_DEGREES: [usize; 6] = [1, 10, 20, 30, 40, 50];
/// The three systems of Figures 7(a)/7(b)'s legends.
const BURST_SYSTEMS: &[&str] = &["nego/parallel", "nego/thin-clos", "oblivious/thin-clos"];
/// Generous burst horizon; engines exit early when done.
const FIG7A_HORIZON: u64 = 3_000_000;

/// Run one burst trace on system `sys` (index into [`BURST_SYSTEMS`]) and
/// return its finish time, if every flow completed.
fn burst_finish(
    sys: usize,
    net: &NetworkConfig,
    trace: &workload::FlowTrace,
    horizon: u64,
    workers: usize,
) -> Option<u64> {
    match sys {
        0 | 1 => {
            let kind = if sys == 0 {
                TopologyKind::Parallel
            } else {
                TopologyKind::ThinClos
            };
            let cfg = NegotiatorConfig::paper_default(net.clone());
            let (_, sim) =
                run_negotiator(cfg, kind, SimOptions::default(), trace, horizon, workers);
            RunReport::burst_finish_time(trace, sim.tracker())
        }
        _ => {
            let (_, sim) = run_oblivious(
                ObliviousConfig::paper_default(net.clone()),
                TopologyKind::ThinClos,
                trace,
                horizon,
            );
            RunReport::burst_finish_time(trace, sim.tracker())
        }
    }
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
            for (sys, &name) in BURST_SYSTEMS.iter().enumerate() {
                let net = net.clone();
                let trace = Arc::clone(&trace);
                let workers = args.workers;
                let meta = RunMeta::new(self.id(), specs.len(), name, args)
                    .param("degree", degree as f64)
                    .seed(SEED)
                    .duration(FIG7A_HORIZON);
                specs.push(RunSpec::new(meta, move || {
                    let t = burst_finish(sys, &net, &trace, FIG7A_HORIZON, workers)
                        .expect("incast must complete");
                    RunMetrics::new(Rendered::Cells(vec![report::us(t as f64)]))
                        .push_extra("finish_ns", t as f64)
                }));
            }
        }
        specs
    }
    fn render(&self, results: &[RunResult]) -> String {
        let mut table = Table::new(
            "Figure 7(a) — incast finish time (us) vs degree",
            &[
                "degree",
                "nego/parallel",
                "nego/thin-clos",
                "oblivious/thin-clos",
            ],
        );
        for chunk in results.chunks(BURST_SYSTEMS.len()) {
            let mut cells = vec![format!("{}", chunk[0].param() as usize)];
            cells.extend(chunk.iter().map(|r| r.cells()[0].clone()));
            table.row(cells);
        }
        table.render()
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
            for (sys, &name) in BURST_SYSTEMS.iter().enumerate() {
                let net = net.clone();
                let trace = Arc::clone(&trace);
                let workers = args.workers;
                let meta = RunMeta::new(self.id(), specs.len(), name, args)
                    .param("flow_kb", kb as f64)
                    .duration(horizon);
                specs.push(RunSpec::new(meta, move || {
                    match burst_finish(sys, &net, &trace, horizon, workers) {
                        Some(t) if t > 0 => {
                            let gbps =
                                (trace.total_bytes() * 8) as f64 / t as f64 / net.n_tors as f64;
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
        let mut table = Table::new(
            "Figure 7(b) — all-to-all average goodput (Gbps) vs flow size",
            &[
                "flow_kb",
                "nego/parallel",
                "nego/thin-clos",
                "oblivious/thin-clos",
            ],
        );
        for chunk in results.chunks(BURST_SYSTEMS.len()) {
            let mut cells = vec![format!("{}", chunk[0].param() as u64)];
            cells.extend(chunk.iter().map(|r| r.cells()[0].clone()));
            table.row(cells);
        }
        table.render()
    }
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
        let net = NetworkConfig::paper_default();
        let trace = Arc::new(background_seeded(
            FlowSizeDist::hadoop(),
            1.0,
            &net,
            args.duration,
            args.seed,
        ));
        let mut specs = Vec::new();
        for kind in [TopologyKind::Parallel, TopologyKind::ThinClos] {
            for guard in FIG8_GUARDS {
                let net = net.clone();
                let trace = Arc::clone(&trace);
                let duration = args.duration;
                let workers = args.workers;
                let meta = RunMeta::new(
                    self.id(),
                    specs.len(),
                    format!("nego/{}", kind.label()),
                    args,
                )
                .load(1.0)
                .param("reconf_ns", guard as f64);
                specs.push(RunSpec::new(meta, move || {
                    let mut cfg = NegotiatorConfig::paper_default(net.clone());
                    let pre_slots = pre_slots_for(&cfg, kind);
                    cfg.epoch = cfg.epoch.with_guardband(guard, pre_slots);
                    let (mut rep, _) =
                        run_negotiator(cfg, kind, SimOptions::default(), &trace, duration, workers);
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

/// Predefined-phase slot count of `kind` at `cfg`'s scale (§3.3.1:
/// `⌈(N−1)/S⌉` for the parallel network, `W = N/S` for thin-clos).
pub fn pre_slots_for(cfg: &NegotiatorConfig, kind: TopologyKind) -> usize {
    match kind {
        TopologyKind::Parallel => (cfg.net.n_tors - 1).div_ceil(cfg.net.n_ports),
        TopologyKind::ThinClos => cfg.net.n_tors / cfg.net.n_ports,
    }
}
