//! Main results (§4.3): Figures 9, 10 and the no-speedup Figure 11.

use std::sync::Arc;

use super::{Args, Experiment};
use crate::runs::{background_seeded, run_negotiator, run_oblivious};
use crate::sweep::{Rendered, RunMeta, RunMetrics, RunResult, RunSpec};
use metrics::{report, RunReport, Table};
use negotiator::{FailureAction, NegotiatorConfig, NegotiatorSim, SimOptions};
use oblivious::ObliviousConfig;
use sim::time::Nanos;
use topology::{NetworkConfig, TopologyKind};
use workload::{FlowSizeDist, FlowTrace};

/// The six systems of Figure 9's legend.
const SYSTEMS: &[(&str, Sys)] = &[
    ("nego/parallel", Sys::Nego(TopologyKind::Parallel, true)),
    (
        "nego/parallel w/o PQ",
        Sys::Nego(TopologyKind::Parallel, false),
    ),
    ("nego/thin-clos", Sys::Nego(TopologyKind::ThinClos, true)),
    (
        "nego/thin-clos w/o PQ",
        Sys::Nego(TopologyKind::ThinClos, false),
    ),
    ("oblivious/thin-clos", Sys::Oblv(true)),
    ("oblivious/thin-clos w/o PQ", Sys::Oblv(false)),
];

const SWEEP_HEADERS: &[&str] = &[
    "load",
    "nego/par",
    "par w/o PQ",
    "nego/thin",
    "thin w/o PQ",
    "oblv",
    "oblv w/o PQ",
];

#[derive(Clone, Copy)]
enum Sys {
    Nego(TopologyKind, bool),
    Oblv(bool),
}

/// One (system, trace) run.
fn measure(
    sys: Sys,
    net: &NetworkConfig,
    trace: &FlowTrace,
    duration: Nanos,
    workers: usize,
) -> RunReport {
    match sys {
        Sys::Nego(kind, pq) => {
            let mut cfg = NegotiatorConfig::paper_default(net.clone());
            cfg.priority_queues = pq;
            let (rep, _) =
                run_negotiator(cfg, kind, SimOptions::default(), trace, duration, workers);
            rep
        }
        Sys::Oblv(pq) => {
            let mut cfg = ObliviousConfig::paper_default(net.clone());
            cfg.priority_queues = pq;
            let (rep, _) = run_oblivious(cfg, TopologyKind::ThinClos, trace, duration);
            rep
        }
    }
}

/// Specs for the load sweep shared by Figures 9, 11, 13(b), 13(c): one run
/// per (load, system), the per-load trace `Arc`-shared across systems.
pub(super) fn load_sweep_specs(
    experiment: &'static str,
    net: NetworkConfig,
    dist: FlowSizeDist,
    args: &Args,
) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for &load in &args.loads {
        let trace = Arc::new(background_seeded(
            dist.clone(),
            load,
            &net,
            args.duration,
            args.seed,
        ));
        for &(name, sys) in SYSTEMS {
            let net = net.clone();
            let trace = Arc::clone(&trace);
            let duration = args.duration;
            let workers = args.workers;
            let meta = RunMeta::new(experiment, specs.len(), name, args).load(load);
            specs.push(RunSpec::new(meta, move || {
                let mut rep = measure(sys, &net, &trace, duration, workers);
                let cells = vec![
                    format!("{:.4}", rep.mice.p99_ns() / 1e6),
                    format!("{:.3}", rep.goodput.normalized()),
                ];
                RunMetrics::with_report(Rendered::Cells(cells), rep)
            }));
        }
    }
    specs
}

/// Render for [`load_sweep_specs`]: an FCT table and a goodput table.
pub(super) fn load_sweep_render(title: &str, results: &[RunResult]) -> String {
    let mut fct = Table::new(format!("{title} — 99p mice FCT (ms)"), SWEEP_HEADERS);
    let mut gp = Table::new(format!("{title} — normalized goodput"), SWEEP_HEADERS);
    for chunk in results.chunks(SYSTEMS.len()) {
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

/// Figure 9: FCT and goodput vs load on the Hadoop workload.
pub struct Fig9;

impl Experiment for Fig9 {
    fn id(&self) -> &'static str {
        "fig9"
    }
    fn artifact(&self) -> &'static str {
        "Figure 9: mice FCT and goodput vs load (main result)"
    }
    fn specs(&self, args: &Args) -> Vec<RunSpec> {
        load_sweep_specs(
            self.id(),
            NetworkConfig::paper_default(),
            FlowSizeDist::hadoop(),
            args,
        )
    }
    fn render(&self, results: &[RunResult]) -> String {
        load_sweep_render("Figure 9", results)
    }
}

/// Figure 11: the same sweep with no uplink speedup (§4.4).
pub struct Fig11;

impl Experiment for Fig11 {
    fn id(&self) -> &'static str {
        "fig11"
    }
    fn artifact(&self) -> &'static str {
        "Figure 11: FCT and goodput vs load without speedup"
    }
    fn specs(&self, args: &Args) -> Vec<RunSpec> {
        load_sweep_specs(
            self.id(),
            NetworkConfig::paper_no_speedup(),
            FlowSizeDist::hadoop(),
            args,
        )
    }
    fn render(&self, results: &[RunResult]) -> String {
        load_sweep_render("Figure 11 (no speedup)", results)
    }
}

/// Figure 10: bandwidth usage through simultaneous link failures and
/// recovery on the parallel network — one run per failure ratio.
pub struct Fig10;

const FIG10_RATIOS: [f64; 5] = [0.02, 0.04, 0.06, 0.08, 0.10];

impl Experiment for Fig10 {
    fn id(&self) -> &'static str {
        "fig10"
    }
    fn artifact(&self) -> &'static str {
        "Figure 10: bandwidth under link failure and recovery"
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
        let fail_at = args.duration / 3;
        let repair_at = 2 * args.duration / 3;
        // Goodput ramps while backlogs build at 100% load, so each phase is
        // measured over the window just before its end — the most settled
        // part.
        let window = args.duration / 8;
        FIG10_RATIOS
            .iter()
            .enumerate()
            .map(|(index, &ratio)| {
                let net = net.clone();
                let trace = Arc::clone(&trace);
                let duration = args.duration;
                let workers = args.workers;
                let meta = RunMeta::new(self.id(), index, "nego/parallel", args)
                    .load(1.0)
                    .param("failure_ratio", ratio);
                RunSpec::new(meta, move || {
                    let mut sim = NegotiatorSim::with_options(
                        NegotiatorConfig::paper_default(net.clone()),
                        TopologyKind::Parallel,
                        SimOptions {
                            total_rx_window: Some(20_000),
                            workers,
                            ..SimOptions::default()
                        },
                    );
                    sim.schedule_failure(
                        fail_at,
                        FailureAction::FailRandom {
                            ratio,
                            seed: crate::runs::SEED ^ (ratio * 1000.0) as u64,
                        },
                    );
                    sim.schedule_failure(repair_at, FailureAction::RepairAll);
                    sim.run(&trace, duration);
                    let rx = sim.total_rx().expect("series enabled");
                    let pre = rx.mean_gbps(fail_at - window, fail_at);
                    let during = rx.mean_gbps(repair_at - window, repair_at);
                    let post = rx.mean_gbps(duration - window, duration);
                    let cells = vec![
                        format!("{:.3}", during / pre),
                        format!("{:.3}", during / post),
                    ];
                    RunMetrics::new(Rendered::Cells(cells))
                        .push_extra("bw_pre_gbps", pre)
                        .push_extra("bw_during_gbps", during)
                        .push_extra("bw_post_gbps", post)
                })
            })
            .collect()
    }
    fn render(&self, results: &[RunResult]) -> String {
        let mut table = Table::new(
            "Figure 10 — bandwidth ratios across failure and recovery (100% load, parallel)",
            &[
                "failure_ratio",
                "BW_post_failure/BW_pre",
                "BW_pre_recovery/BW_post_recovery",
            ],
        );
        for r in results {
            let mut cells = vec![report::pct(r.param())];
            cells.extend(r.cells().iter().cloned());
            table.row(cells);
        }
        table.render()
    }
}
