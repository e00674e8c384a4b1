//! Golden-report regression gate for the epoch-engine hot path.
//!
//! A mixed Poisson + incast workload is played through every scheduler
//! mode on both topologies (plus selective relay, a failure schedule, and
//! the traffic-oblivious baseline), and each `RunReport` is rendered
//! through `metrics::json` and compared byte-for-byte against the
//! committed golden file. Any hot-path rewrite must keep these bytes
//! identical — "faster" is only acceptable when it is also "the same".
//!
//! Regenerate (after a *deliberate* behavior change only) with:
//!
//! ```text
//! GOLDEN_REPORT_REGEN=1 cargo test --test golden_report
//! ```

use metrics::{Json, RunReport};
use negotiator::{FaultAction, NegotiatorConfig, NegotiatorSim, SchedulerMode, SimOptions};
use oblivious::{ObliviousConfig, ObliviousSim};
use topology::{NetworkConfig, TopologyKind};
use workload::{FlowSizeDist, FlowTrace, MixedWorkload, WorkloadSpec};

const DURATION: u64 = 200_000;
const GOLDEN_PATH: &str = "tests/golden/engine_reports.json";

fn mixed_trace(seed: u64) -> FlowTrace {
    let (trace, _tags) = MixedWorkload {
        background: WorkloadSpec {
            dist: FlowSizeDist::hadoop(),
            load: 0.7,
            n_tors: 16,
            host_bps: 200_000_000_000,
        },
        incast_degree: 8,
        incast_flow_bytes: 1_000,
        incast_load: 0.02,
    }
    .generate(DURATION, seed);
    trace
}

fn negotiator_report(
    kind: TopologyKind,
    opts: SimOptions,
    trace: &FlowTrace,
    failures: bool,
) -> RunReport {
    let cfg = NegotiatorConfig::paper_default(NetworkConfig::small_for_tests());
    let mut sim = NegotiatorSim::with_options(cfg, kind, opts);
    if failures {
        let epoch = sim.epoch_len();
        sim.schedule_fault(
            10 * epoch,
            FaultAction::FailRandom {
                ratio: 0.2,
                seed: 5,
            },
        );
        sim.schedule_fault(30 * epoch, FaultAction::RepairAll);
    }
    sim.run(trace, DURATION)
}

/// Every (label, report) pair the golden file pins.
fn all_reports() -> Vec<(String, RunReport)> {
    let trace = mixed_trace(17);
    let modes: [(&str, SchedulerMode); 6] = [
        ("base", SchedulerMode::Base),
        ("iterative2", SchedulerMode::Iterative { rounds: 2 }),
        ("datasize", SchedulerMode::DataSize),
        ("holdelay", SchedulerMode::HolDelay { alpha: 0.001 }),
        ("stateful", SchedulerMode::Stateful),
        ("projector", SchedulerMode::Projector),
    ];
    let mut out = Vec::new();
    for kind in [TopologyKind::Parallel, TopologyKind::ThinClos] {
        let kind_label = match kind {
            TopologyKind::Parallel => "parallel",
            TopologyKind::ThinClos => "thinclos",
        };
        for (mode_label, mode) in modes {
            let opts = SimOptions {
                mode,
                ..SimOptions::default()
            };
            out.push((
                format!("nego/{kind_label}/{mode_label}"),
                negotiator_report(kind, opts, &trace, false),
            ));
        }
    }
    // Selective relay is thin-clos only (Appendix A.2.2).
    out.push((
        "nego/thinclos/base+relay".to_string(),
        negotiator_report(
            TopologyKind::ThinClos,
            SimOptions {
                selective_relay: true,
                ..SimOptions::default()
            },
            &trace,
            false,
        ),
    ));
    // A failure schedule exercises the link-state path and the schedule
    // cursor.
    out.push((
        "nego/parallel/base+failures".to_string(),
        negotiator_report(TopologyKind::Parallel, SimOptions::default(), &trace, true),
    ));
    // The traffic-oblivious baseline walks the same round-robin schedule.
    let cfg = ObliviousConfig::paper_default(NetworkConfig::small_for_tests());
    let report = ObliviousSim::new(cfg, TopologyKind::ThinClos).run(&trace, DURATION);
    out.push(("oblivious/thinclos".to_string(), report));
    out
}

fn render_reports(reports: Vec<(String, RunReport)>) -> String {
    let mut root = Json::object();
    for (label, mut report) in reports {
        root.push(&label, report.to_json());
    }
    let mut text = root.render();
    text.push('\n');
    text
}

#[test]
fn engine_reports_match_committed_golden() {
    let rendered = render_reports(all_reports());
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH);
    if std::env::var_os("GOLDEN_REPORT_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate with GOLDEN_REPORT_REGEN=1",
            path.display()
        )
    });
    // Parse both sides first so a mismatch points at the first diverging
    // metric instead of a wall of JSON.
    let got = Json::parse(&rendered).expect("rendered reports parse");
    let want = Json::parse(&golden).expect("golden file parses");
    if got != want {
        for (key, value) in want.members().expect("golden is an object") {
            let current = got.get(key);
            if current != Some(value) {
                panic!(
                    "golden mismatch for '{key}':\n  golden:  {}\n  current: {}",
                    value.render(),
                    current.map_or("<missing>".to_string(), Json::render),
                );
            }
        }
        panic!("golden mismatch: extra keys in current output");
    }
    // Byte identity too: the renderer itself is part of the contract.
    assert_eq!(rendered, golden, "rendered bytes drifted");
}
