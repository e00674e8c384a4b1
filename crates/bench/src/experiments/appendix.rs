//! Appendix experiments: A.1 match-ratio validation (Figure 14) and the
//! A.2 design-space comparisons (Figure 15, Tables 3–6).

use std::sync::Arc;

use super::grid::{nego, nego_with, Cell, Column, Grid, GridExperiment};
use super::{Args, Experiment};
use crate::runs::full_load;
use crate::sweep::{Rendered, RunMeta, RunMetrics, RunSpec};
use metrics::Table;
use negotiator::{theory, SchedulerMode, SimOptions};
use topology::{NetworkConfig, TopologyKind};
use workload::FlowSizeDist;

/// Figure 14 (A.1): per-epoch match ratio at 100% load vs the closed-form
/// `E[Y] = 1 − (1 − 1/n)^n` — one run per topology.
pub struct Fig14;

impl Experiment for Fig14 {
    fn id(&self) -> &'static str {
        "fig14"
    }
    fn artifact(&self) -> &'static str {
        "Figure 14 (A.1): per-epoch match ratio vs theory"
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
                let label = format!("nego/{}", kind.label());
                let meta = RunMeta::new(self.id(), index, label, args.seed, duration).load(1.0);
                RunSpec::new(meta, move || {
                    let mut sim = nego(kind, &net).build();
                    let rep = sim.run(&trace, duration);
                    let rec = sim.negotiator().expect("built one").match_recorder();
                    let series = rec.series();
                    let mut table = Table::new(
                        format!(
                            "Figure 14 — match ratio per epoch, {} (100% load)",
                            kind.label()
                        ),
                        &["epoch", "match_ratio"],
                    );
                    let step = (series.len() / 16).max(1);
                    for (e, r) in series.iter().step_by(step) {
                        table.row(vec![e.to_string(), format!("{r:.3}")]);
                    }
                    let n = theory::competitors(kind, net.n_tors, net.n_ports);
                    let overall = rec.overall_ratio();
                    let expected = theory::expected_match_efficiency(n);
                    let block = format!(
                        "{}overall {:.3} vs theory E[Y](n={n}) = {:.3}\n\n",
                        table.render(),
                        overall.unwrap_or(0.0),
                        expected,
                    );
                    RunMetrics::with_report(Rendered::Block(block), rep)
                        .with_match_ratio(overall)
                        .push_extra("theory_match_ratio", expected)
                })
            })
            .collect()
    }
}

/// Figure 15 (A.2.1): iterative matching (no speedup) vs the non-iterative
/// algorithm with 2× speedup (the paper's pick), parallel network.
pub static FIG15: GridExperiment = GridExperiment {
    id: "fig15",
    artifact: "Figure 15 (A.2.1): iterative matching vs 2x speedup",
    grid: || {
        let net = NetworkConfig::paper_default();
        let flat = NetworkConfig::paper_no_speedup();
        let mut columns = vec![Column::new(
            "speedup 2x",
            nego(TopologyKind::Parallel, &net),
        )];
        for (label, rounds) in [("ITER_I", 1), ("ITER_III", 3), ("ITER_V", 5)] {
            let system = nego_with(TopologyKind::Parallel, &flat, |_, opts| {
                opts.mode = SchedulerMode::Iterative { rounds }
            });
            columns.push(Column::new(label, system).param("iterations", rounds as f64));
        }
        Grid {
            columns,
            tables: vec![
                (
                    "Figure 15 — 99p mice FCT (ms), parallel".into(),
                    Cell::MiceP99Ms,
                ),
                (
                    "Figure 15 — normalized goodput, parallel".into(),
                    Cell::Goodput,
                ),
            ],
            dist: FlowSizeDist::hadoop(),
            net,
        }
    },
};

/// A design variant: its column label and what it changes of the base.
type Variant = (&'static str, fn(&mut SimOptions));

/// Shape of Tables 3–6: the base design against variants of it on `kind`,
/// `99p mice FCT (us) / normalized goodput` per load.
fn variants(title: &str, kind: TopologyKind, variants: &[Variant]) -> Grid {
    let net = NetworkConfig::paper_default();
    let mut columns = vec![Column::new("Base", nego(kind, &net))];
    for &(label, set) in variants {
        columns.push(Column::new(
            label,
            nego_with(kind, &net, |_, opts| set(opts)),
        ));
    }
    Grid {
        columns,
        tables: vec![(title.into(), Cell::MiceP99UsAndGoodput)],
        dist: FlowSizeDist::hadoop(),
        net,
    }
}

/// Table 3 (A.2.2): traffic-aware selective relay on thin-clos.
pub static TABLE3: GridExperiment = GridExperiment {
    id: "table3",
    artifact: "Table 3 (A.2.2): traffic-aware selective relay",
    grid: || {
        variants(
            "Table 3 — selective relay, thin-clos: 99p mice FCT (us) / goodput",
            TopologyKind::ThinClos,
            &[("Two-Hop", |opts| opts.selective_relay = true)],
        )
    },
};

/// Table 4 (A.2.3): informative requests on the parallel network.
pub static TABLE4: GridExperiment = GridExperiment {
    id: "table4",
    artifact: "Table 4 (A.2.3): informative requests",
    grid: || {
        variants(
            "Table 4 — informative requests, parallel: 99p mice FCT (us) / goodput",
            TopologyKind::Parallel,
            &[
                ("Data-Size", |opts| opts.mode = SchedulerMode::DataSize),
                ("HoL-Delay", |opts| {
                    opts.mode = SchedulerMode::HolDelay { alpha: 0.001 }
                }),
            ],
        )
    },
};

/// Table 5 (A.2.4): stateful scheduling on the parallel network.
pub static TABLE5: GridExperiment = GridExperiment {
    id: "table5",
    artifact: "Table 5 (A.2.4): stateful scheduling",
    grid: || {
        variants(
            "Table 5 — stateful scheduling, parallel: 99p mice FCT (us) / goodput",
            TopologyKind::Parallel,
            &[("Stateful", |opts| opts.mode = SchedulerMode::Stateful)],
        )
    },
};

/// Table 6 (A.2.5): ProjecToR-style scheduling on the parallel network.
pub static TABLE6: GridExperiment = GridExperiment {
    id: "table6",
    artifact: "Table 6 (A.2.5): ProjecToR-style scheduling",
    grid: || {
        variants(
            "Table 6 — ProjecToR scheduling, parallel: 99p mice FCT (us) / goodput",
            TopologyKind::Parallel,
            &[("ProjecToR", |opts| opts.mode = SchedulerMode::Projector)],
        )
    },
};
