//! Ablations of design choices the paper motivates but does not sweep:
//!
//! * **Request threshold** (§3.4.1): raising the threshold from zero to
//!   three piggybacked packets avoids granting ports to pairs whose entire
//!   backlog will have left through piggybacking by activation time. The
//!   over-scheduled slot counter makes the waste visible.
//! * **Round-robin rule rotation** (§3.6.1): on the parallel network the
//!   predefined-phase mapping rotates every epoch so a ToR pair's
//!   scheduling messages traverse a different physical link each epoch.
//!   Without rotation, a single failed link permanently silences the pairs
//!   whose messages it carried.

use std::sync::Arc;

use super::grid::nego_with;
use super::{Args, Experiment};
use crate::runs::{full_load, SEED};
use crate::sweep::{Rendered, RunMeta, RunMetrics, RunResult, RunSpec};
use metrics::{report, Table};
use negotiator::{FaultAction, NegotiatorConfig, NegotiatorSim};
use topology::{NetworkConfig, TopologyKind};

/// Threshold ablation: goodput, mice FCT and over-scheduling waste as the
/// request threshold sweeps 0..6 piggyback packets — one run per
/// threshold.
pub struct AblThreshold;

const THRESHOLDS: [u64; 4] = [0, 1, 3, 6];

impl Experiment for AblThreshold {
    fn id(&self) -> &'static str {
        "abl-th"
    }
    fn artifact(&self) -> &'static str {
        "Ablation: request threshold vs over-scheduling waste"
    }
    fn specs(&self, args: &Args) -> Vec<RunSpec> {
        let (net, trace) = full_load(args);
        THRESHOLDS
            .iter()
            .enumerate()
            .map(|(index, &threshold)| {
                let net = net.clone();
                let trace = Arc::clone(&trace);
                let duration = args.duration;
                let meta = RunMeta::new(self.id(), index, "nego/parallel", args.seed, duration)
                    .load(1.0)
                    .param("threshold_packets", threshold as f64);
                RunSpec::new(meta, move || {
                    let system = nego_with(TopologyKind::Parallel, &net, |cfg, _| {
                        cfg.request_threshold_packets = threshold
                    });
                    let mut sim = system.build();
                    let mut rep = sim.run(&trace, duration);
                    let st = *sim.negotiator().expect("built one").stats();
                    let cells = vec![
                        report::us(rep.mice.p99_ns()),
                        format!("{:.3}", rep.goodput.normalized()),
                        st.overscheduled_slots.to_string(),
                        format!("{:.3}", st.scheduled_utilization()),
                    ];
                    RunMetrics::with_report(Rendered::Cells(cells), rep)
                        .push_extra("oversched_slots", st.overscheduled_slots as f64)
                        .push_extra("sched_util", st.scheduled_utilization())
                })
            })
            .collect()
    }
    fn render(&self, results: &[RunResult]) -> String {
        let mut table = Table::new(
            "Ablation — request threshold (piggyback packets), parallel, 100% load",
            &[
                "threshold",
                "99p_mice_us",
                "goodput",
                "oversched_slots",
                "sched_util",
            ],
        );
        for r in results {
            let mut cells = vec![format!("{}", r.param() as u64)];
            cells.extend(r.cells().iter().cloned());
            table.row(cells);
        }
        table.render()
    }
}

/// Rotation ablation: deliveries of a single pair under a targeted egress
/// link failure, with and without the §3.6.1 rotation. The rotated rule
/// keeps the pair's scheduling messages moving over surviving links; the
/// frozen rule can only recover through the fault detector's exclusions.
pub struct AblRotation;

/// The engine always rotates on the parallel network (the paper's
/// design); the "frozen" row uses thin-clos, whose single-path pairs
/// cannot rotate — exactly the §3.6.1 contrast.
const ROTATION_ROWS: &[(&str, TopologyKind)] = &[
    ("rotating (parallel)", TopologyKind::Parallel),
    ("frozen (thin-clos)", TopologyKind::ThinClos),
];

impl Experiment for AblRotation {
    fn id(&self) -> &'static str {
        "abl-rot"
    }
    fn artifact(&self) -> &'static str {
        "Ablation: predefined-rule rotation under failures"
    }
    fn specs(&self, _: &Args) -> Vec<RunSpec> {
        let horizon = 350_000;
        ROTATION_ROWS
            .iter()
            .enumerate()
            .map(|(index, &(label, kind))| {
                let meta = RunMeta::new(self.id(), index, label, SEED, horizon);
                RunSpec::new(meta, move || {
                    let net = NetworkConfig::paper_default();
                    let trace = workload::FlowTrace::new(vec![workload::Flow {
                        id: 0,
                        src: 3,
                        dst: 77,
                        bytes: 1_000_000_000,
                        arrival: 0,
                    }]);
                    let mut sim =
                        NegotiatorSim::new(NegotiatorConfig::paper_default(net.clone()), kind);
                    sim.schedule_fault(
                        50_000,
                        FaultAction::FailRandom {
                            ratio: 0.10,
                            seed: SEED,
                        },
                    );
                    sim.run(&trace, horizon);
                    let delivered_mb = sim.tracker().delivered_payload() as f64 / 1e6;
                    let lost = sim.stats().lost_packets;
                    let cells = vec![format!("{delivered_mb:.2}"), lost.to_string()];
                    RunMetrics::new(Rendered::Cells(cells))
                        .push_extra("delivered_mb", delivered_mb)
                        .push_extra("lost_packets", lost as f64)
                })
            })
            .collect()
    }
    fn render(&self, results: &[RunResult]) -> String {
        let mut table = Table::new(
            "Ablation — predefined-rule rotation under failures (single pair, 10% links down)",
            &["rotation", "delivered_mb_300us", "lost_packets"],
        );
        for r in results {
            let mut cells = vec![r.meta.system.clone()];
            cells.extend(r.cells().iter().cloned());
            table.row(cells);
        }
        table.render()
    }
}
