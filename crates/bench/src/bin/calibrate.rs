//! Quick shape calibration at paper scale (not a paper experiment):
//! one line per load comparing NegotiaToR and the baseline on goodput,
//! mice tail FCT and completion rate, with wall-clock timings.
//!
//! ```text
//! cargo run --release -p bench --bin calibrate [duration_ns] [relay_pair_packets]
//! ```
//!
//! Used to tune `ObliviousConfig::relay_pair_packets` (see DESIGN.md's
//! baseline-substitution note) and to spot-check engine performance.

use bench::runs::*;
use negotiator::{NegotiatorConfig, SimOptions};
use oblivious::ObliviousConfig;
use topology::{NetworkConfig, TopologyKind};
use workload::FlowSizeDist;

fn main() {
    let duration: u64 = std::env::args()
        .nth(1)
        .map(|a| a.parse().unwrap())
        .unwrap_or(2_000_000);
    let net = NetworkConfig::paper_default();
    for load in [0.25, 0.5, 1.0] {
        let trace = background(FlowSizeDist::hadoop(), load, &net, duration);
        let t0 = std::time::Instant::now();
        let (mut rn, _) = run_negotiator(
            NegotiatorConfig::paper_default(net.clone()),
            TopologyKind::Parallel,
            SimOptions::default(),
            &trace,
            duration,
            1,
        );
        let tn = t0.elapsed();
        let t1 = std::time::Instant::now();
        let mut ocfg = ObliviousConfig::paper_default(net.clone());
        if let Some(pk) = std::env::args().nth(2) {
            ocfg.relay_pair_packets = pk.parse().unwrap();
        }
        let (mut ro, _) = run_oblivious(ocfg, TopologyKind::ThinClos, &trace, duration);
        let tob = t1.elapsed();
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
