//! Failure drill: inject simultaneous optical-link failures mid-run,
//! watch delivered bandwidth degrade, then repair and watch it recover —
//! the §3.6.1/§4.3 fault-tolerance machinery in action.
//!
//! ToRs detect the failures from silent predefined-phase slots (every ToR
//! sends dummy/feedback messages even with nothing to schedule), broadcast
//! the detections, and exclude the affected links from GRANT/ACCEPT; once
//! dummies flow again the links are re-admitted.
//!
//! ```text
//! cargo run --release --example failure_drill
//! ```

use negotiator::FaultAction;
use negotiator::SimOptions;
use negotiator_dcn::prelude::*;

fn main() {
    let net = NetworkConfig::paper_default();
    let duration = 3_000_000;
    let fail_at = 1_000_000;
    let repair_at = 2_000_000;
    let trace = PoissonWorkload::new(WorkloadSpec {
        dist: FlowSizeDist::hadoop(),
        load: 1.0,
        n_tors: net.n_tors,
        host_bps: net.host_bandwidth.bps(),
    })
    .generate(duration, 99);

    for ratio in [0.02, 0.05, 0.10] {
        let mut sim = NegotiatorSim::with_options(
            NegotiatorConfig::paper_default(net.clone()),
            TopologyKind::Parallel,
            SimOptions {
                total_rx_window: Some(50_000),
                ..SimOptions::default()
            },
        );
        sim.schedule_fault(fail_at, FaultAction::FailRandom { ratio, seed: 1 });
        sim.schedule_fault(repair_at, FaultAction::RepairAll);
        sim.run(&trace, duration);

        let rx = sim.total_rx().expect("recording enabled");
        let w = 300_000;
        let before = rx.mean_gbps(fail_at - w, fail_at);
        let during = rx.mean_gbps(repair_at - w, repair_at);
        let after = rx.mean_gbps(duration - w, duration);
        println!(
            "{:>4.0}% of links failed: {:.0} Gbps -> {:.0} Gbps ({:.1}% of pre-failure) -> {:.0} Gbps after repair",
            ratio * 100.0,
            before,
            during,
            100.0 * during / before,
            after
        );
    }
    println!("\nA failed egress or ingress fiber silences every pair whose");
    println!("round-robin slot crosses it, so bandwidth drops more than the");
    println!("raw failure ratio; the per-epoch rotation of the round-robin");
    println!("rule keeps scheduling messages flowing over surviving links.");
}
