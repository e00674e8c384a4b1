//! Main results (§4.3): Figures 9, 10 and the no-speedup Figure 11.

use std::sync::Arc;

use super::grid::{nego, nego_with, oblv, Cell, Column, Grid, GridExperiment};
use super::{Args, Experiment};
use crate::runs::full_load;
use crate::sweep::{Rendered, RunMeta, RunMetrics, RunResult, RunSpec};
use metrics::{report, Table};
use negotiator::{FaultAction, NegotiatorConfig, NegotiatorSim, SimOptions};
use topology::{NetworkConfig, TopologyKind};
use workload::FlowSizeDist;

/// The load sweep shared by Figures 9, 11, 13(b) and 13(c): the six
/// systems of Figure 9's legend on `net`, an FCT and a goodput table.
pub(super) fn load_sweep(title: &str, net: NetworkConfig, dist: FlowSizeDist) -> Grid {
    use TopologyKind::{Parallel, ThinClos};
    let no_pq = |cfg: &mut NegotiatorConfig, _: &mut SimOptions| cfg.priority_queues = false;
    Grid {
        columns: vec![
            Column::new("nego/parallel", nego(Parallel, &net)).header("nego/par"),
            Column::new("nego/parallel w/o PQ", nego_with(Parallel, &net, no_pq))
                .header("par w/o PQ"),
            Column::new("nego/thin-clos", nego(ThinClos, &net)).header("nego/thin"),
            Column::new("nego/thin-clos w/o PQ", nego_with(ThinClos, &net, no_pq))
                .header("thin w/o PQ"),
            Column::new("oblivious/thin-clos", oblv(&net, true)).header("oblv"),
            Column::new("oblivious/thin-clos w/o PQ", oblv(&net, false)).header("oblv w/o PQ"),
        ],
        tables: vec![
            (format!("{title} — 99p mice FCT (ms)"), Cell::MiceP99Ms),
            (format!("{title} — normalized goodput"), Cell::Goodput),
        ],
        dist,
        net,
    }
}

/// Figure 9: FCT and goodput vs load on the Hadoop workload.
pub static FIG9: GridExperiment = GridExperiment {
    id: "fig9",
    artifact: "Figure 9: mice FCT and goodput vs load (main result)",
    grid: || {
        load_sweep(
            "Figure 9",
            NetworkConfig::paper_default(),
            FlowSizeDist::hadoop(),
        )
    },
};

/// Figure 11: the same sweep with no uplink speedup (§4.4).
pub static FIG11: GridExperiment = GridExperiment {
    id: "fig11",
    artifact: "Figure 11: FCT and goodput vs load without speedup",
    grid: || {
        load_sweep(
            "Figure 11 (no speedup)",
            NetworkConfig::paper_no_speedup(),
            FlowSizeDist::hadoop(),
        )
    },
};

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
        let (net, trace) = full_load(args);
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
                let meta =
                    RunMeta::new(self.id(), index, "nego/parallel", args.seed, args.duration)
                        .load(1.0)
                        .param("failure_ratio", ratio);
                RunSpec::new(meta, move || {
                    let mut sim = NegotiatorSim::with_options(
                        NegotiatorConfig::paper_default(net.clone()),
                        TopologyKind::Parallel,
                        SimOptions {
                            total_rx_window: Some(20_000),
                            ..SimOptions::default()
                        },
                    );
                    sim.schedule_fault(
                        fail_at,
                        FaultAction::FailRandom {
                            ratio,
                            seed: crate::runs::SEED ^ (ratio * 1000.0) as u64,
                        },
                    );
                    sim.schedule_fault(repair_at, FaultAction::RepairAll);
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
