//! Micro-observations (Appendix A.3/A.4): receiver-bandwidth time series
//! under incast (Figure 17), all-to-all (Figure 18) and link failures
//! (Figure 19). Each system's series is one schedulable run emitting a
//! fully rendered block.

use std::sync::Arc;

use super::{Args, Experiment};
use crate::runs::SEED;
use crate::sweep::{Rendered, RunMeta, RunMetrics, RunSpec};
use metrics::Table;
use negotiator::{FaultAction, NegotiatorConfig, NegotiatorSim, SimOptions};
use oblivious::sim::ObliviousRecording;
use oblivious::{ObliviousConfig, ObliviousSim};
use sim::time::Nanos;
use sim::BandwidthSeries;
use topology::{NetworkConfig, TopologyKind};
use workload::{AllToAllWorkload, FlowTrace, IncastWorkload};

const WINDOW: Nanos = 1_000; // 1 µs sampling window for the series

fn series_rows(
    table: &mut Table,
    series: &BandwidthSeries,
    until: Nanos,
    extra: Option<&BandwidthSeries>,
) {
    for (t, gbps) in series.gbps_points() {
        if t > until {
            break;
        }
        let mut row = vec![format!("{:.1}", t as f64 / 1_000.0), format!("{gbps:.1}")];
        if let Some(e) = extra {
            let idx = (t / e.window()) as usize;
            let b = e.bytes_per_window().get(idx).copied().unwrap_or(0);
            row.push(format!("{:.1}", (b * 8) as f64 / e.window() as f64));
        }
        table.row(row);
    }
}

/// What Figures 17 and 18 share: a burst injected at 10 µs and the
/// bandwidth destination `dst` receives, one run per system — NegotiaToR
/// on both topologies, then the oblivious baseline, with the transit
/// (relay) traffic competing at the same receiver beside its final
/// traffic when `transit`.
struct RxFigure {
    figure: &'static str,
    trace: FlowTrace,
    dst: usize,
    seed: u64,
    horizon: Nanos,
    /// The series is printed up to here.
    until: Nanos,
    transit: bool,
}

impl RxFigure {
    fn specs(self, id: &'static str, workers: usize) -> Vec<RunSpec> {
        let RxFigure {
            figure,
            dst,
            seed,
            horizon,
            until,
            transit,
            ..
        } = self;
        let net = NetworkConfig::paper_default();
        let trace = Arc::new(self.trace);
        let mut specs = Vec::new();
        for kind in [TopologyKind::Parallel, TopologyKind::ThinClos] {
            let (net, trace) = (net.clone(), Arc::clone(&trace));
            let label = format!("nego/{}", kind.label());
            let meta = RunMeta::new(id, specs.len(), label, seed, horizon);
            specs.push(RunSpec::new(meta, move || {
                let mut sim = NegotiatorSim::with_options(
                    NegotiatorConfig::paper_default(net),
                    kind,
                    SimOptions {
                        rx_window: Some(WINDOW),
                        workers,
                        ..SimOptions::default()
                    },
                );
                sim.run(&trace, horizon);
                let mut table = Table::new(
                    format!("{figure} — receiver bandwidth, NegotiaToR {}", kind.label()),
                    &["time_us", "gbps"],
                );
                series_rows(&mut table, sim.rx_series(dst).unwrap(), until, None);
                RunMetrics::new(Rendered::Block(format!("{}\n", table.render())))
            }));
        }
        let meta = RunMeta::new(id, specs.len(), "oblivious/thin-clos", seed, horizon);
        specs.push(RunSpec::new(meta, move || {
            let mut sim = ObliviousSim::with_recording(
                ObliviousConfig::paper_default(net),
                TopologyKind::ThinClos,
                ObliviousRecording {
                    rx_window: Some(WINDOW),
                    transit_window: transit.then_some(WINDOW),
                },
            );
            sim.run(&trace, horizon);
            let mut table = if transit {
                Table::new(
                    format!("{figure} — receiver bandwidth, traffic-oblivious (final + transit)"),
                    &["time_us", "final_gbps", "transit_gbps"],
                )
            } else {
                Table::new(
                    format!("{figure} — receiver bandwidth, traffic-oblivious thin-clos"),
                    &["time_us", "gbps"],
                )
            };
            let rx = sim.rx_final(dst).unwrap();
            series_rows(&mut table, rx, until, sim.rx_transit(dst));
            RunMetrics::new(Rendered::Block(table.render()))
        }));
        specs
    }
}

/// Figure 17: receiver bandwidth during a degree-15 incast injected at
/// 10 µs, for the three systems.
pub struct Fig17;

impl Experiment for Fig17 {
    fn id(&self) -> &'static str {
        "fig17"
    }
    fn artifact(&self) -> &'static str {
        "Figure 17 (A.3): receiver bandwidth under incast"
    }
    fn specs(&self, args: &Args) -> Vec<RunSpec> {
        let trace = IncastWorkload {
            degree: 15,
            flow_bytes: 1_000,
            n_tors: NetworkConfig::paper_default().n_tors,
            start: 10_000,
        }
        .generate(SEED);
        let figure = RxFigure {
            figure: "Figure 17",
            dst: trace.flows()[0].dst,
            trace,
            seed: SEED,
            horizon: 60_000,
            until: 40_000,
            transit: false,
        };
        figure.specs(self.id(), args.workers)
    }
}

/// Figure 18: receiver bandwidth during a 30 KB all-to-all injected at
/// 10 µs; the oblivious system additionally shows the transit (relay)
/// traffic competing at the same receiver.
pub struct Fig18;

impl Experiment for Fig18 {
    fn id(&self) -> &'static str {
        "fig18"
    }
    fn artifact(&self) -> &'static str {
        "Figure 18 (A.3): receiver bandwidth under all-to-all"
    }
    fn specs(&self, args: &Args) -> Vec<RunSpec> {
        let trace = AllToAllWorkload {
            flow_bytes: 30_000,
            n_tors: NetworkConfig::paper_default().n_tors,
            start: 10_000,
        }
        .generate();
        let figure = RxFigure {
            figure: "Figure 18",
            trace,
            dst: 17, // "a randomly chosen destination"
            seed: args.seed,
            horizon: 600_000,
            until: 250_000,
            transit: true,
        };
        figure.specs(self.id(), args.workers)
    }
}

/// Figure 19: a single pair transmits continuously on the parallel network
/// while links fail at 100 µs and recover at 300 µs; per-epoch receiver
/// bandwidth shows the failure window and the zero-bandwidth epochs caused
/// by lost scheduling messages.
pub struct Fig19;

impl Experiment for Fig19 {
    fn id(&self) -> &'static str {
        "fig19"
    }
    fn artifact(&self) -> &'static str {
        "Figure 19 (A.4): bandwidth occupation under failures"
    }
    fn specs(&self, args: &Args) -> Vec<RunSpec> {
        let horizon = 400_000;
        let workers = args.workers;
        let meta = RunMeta::new(self.id(), 0, "nego/parallel", SEED, horizon);
        vec![RunSpec::new(meta, move || {
            let net = NetworkConfig::paper_default();
            let trace = FlowTrace::new(vec![workload::Flow {
                id: 0,
                src: 3,
                dst: 77,
                bytes: 1_000_000_000, // effectively endless
                arrival: 0,
            }]);
            let mut sim = NegotiatorSim::with_options(
                NegotiatorConfig::paper_default(net.clone()),
                TopologyKind::Parallel,
                SimOptions {
                    rx_window: Some(WINDOW),
                    workers,
                    ..SimOptions::default()
                },
            );
            let epoch = sim.epoch_len();
            sim.schedule_fault(
                100_000,
                FaultAction::FailRandom {
                    ratio: 0.10,
                    seed: SEED,
                },
            );
            sim.schedule_fault(300_000, FaultAction::RepairAll);
            sim.run(&trace, horizon);
            let rx = sim.rx_series(77).unwrap();
            let mut table = Table::new(
                "Figure 19 — pair bandwidth through failures (fail @100us, repair @300us)",
                &["time_us", "gbps"],
            );
            series_rows(&mut table, rx, horizon, None);
            let mut zero_epochs = 0;
            let mut total_epochs = 0;
            // Whole failure window, skipping the detection transient.
            let mut from = 100_000 + 5 * epoch;
            while from + epoch <= 300_000 {
                total_epochs += 1;
                if rx.mean_gbps(from, from + epoch) == 0.0 {
                    zero_epochs += 1;
                }
                from += epoch;
            }
            let block = format!(
                "{}\nzero-bandwidth epochs in failure window: {zero_epochs}/{total_epochs} \
                 (lost scheduling messages suspend the pair until the rotated round-robin \
                 rule routes them over healthy links)\n",
                table.render()
            );
            RunMetrics::new(Rendered::Block(block))
                .push_extra("zero_epochs", zero_epochs as f64)
                .push_extra("total_epochs", total_epochs as f64)
        })]
    }
}
