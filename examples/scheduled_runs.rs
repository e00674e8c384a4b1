//! Runs versus packets in the scheduled phase: play a scenario file's
//! negotiator run and print the packets its scheduled phase sent beside
//! the deliveries it applied (`SchedStats::scheduled_deliveries`, one per
//! segment run a matched queue sends).
//!
//! ```text
//! cargo run --release --example scheduled_runs -- benchmark/workloads/*.json
//! ```

use std::path::Path;

use negotiator_dcn::scenario::{compile, parse_scenario, EngineKind};

fn main() {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    assert!(!paths.is_empty(), "usage: scheduled_runs SCENARIO.json...");
    println!("scenario seed scheduled_packets scheduled_deliveries");
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("readable scenario file");
        let spec = parse_scenario(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        let dir = Path::new(&path).parent().unwrap_or(Path::new("."));
        let compiled = compile(spec, dir).unwrap_or_else(|e| panic!("{path}: {e}"));
        let mut sim = EngineKind::Negotiator.system(&compiled.spec).build(1);
        for (at, action) in &compiled.timeline {
            sim.schedule_fault(*at, action.clone());
        }
        sim.run(&compiled.trace, compiled.duration);
        let st = sim.negotiator().expect("a negotiator run").stats();
        println!(
            "{} {} {} {}",
            compiled.spec.name, compiled.spec.seed, st.scheduled_packets, st.scheduled_deliveries
        );
    }
}
