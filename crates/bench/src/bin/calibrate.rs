//! Quick shape calibration at paper scale (not a paper experiment):
//! one line per load comparing NegotiaToR and the baseline on goodput,
//! mice tail FCT and completion rate, with wall-clock timings.
//!
//! ```text
//! cargo run --release -p bench --bin calibrate [duration_ns] [relay_pair_packets]
//! ```
//!
//! Used to tune `ObliviousConfig::relay_pair_packets` — the shallow relay
//! buffer standing in for the congestion control the paper's baseline
//! assumes — and to spot-check engine performance.

use bench::experiments::grid::{nego, oblv};
use bench::runs::{background, SEED};
use scenario::System;
use topology::{NetworkConfig, TopologyKind};
use workload::FlowSizeDist;

fn main() {
    let duration: u64 = std::env::args()
        .nth(1)
        .map(|a| a.parse().unwrap())
        .unwrap_or(2_000_000);
    let net = NetworkConfig::paper_default();
    let mut baseline = oblv(&net, true);
    if let (System::Oblivious(_, cfg), Some(pk)) = (&mut baseline, std::env::args().nth(2)) {
        cfg.relay_pair_packets = pk.parse().unwrap();
    }
    for load in [0.25, 0.5, 1.0] {
        let trace = background(FlowSizeDist::hadoop(), load, &net, duration, SEED);
        let timed = |system: System| {
            let started = std::time::Instant::now();
            let report = system.build(1).run(&trace, duration);
            (report, started.elapsed())
        };
        let (mut rn, tn) = timed(nego(TopologyKind::Parallel, &net));
        let (mut ro, tob) = timed(baseline.clone());
        println!(
            "load {:>4}: NEGO goodput {:.3} mice99 {:>9.1}us cr {:.3} ({:?}) | OBLV goodput {:.3} mice99 {:>9.1}us cr {:.3} ({:?}) flows {}",
            load,
            rn.goodput.normalized(),
            rn.mice.p99_ns() / 1000.0,
            rn.mice.completion_rate(),
            tn,
            ro.goodput.normalized(),
            ro.mice.p99_ns() / 1000.0,
            ro.mice.completion_rate(),
            tob,
            trace.len()
        );
    }
}
