//! Shared experiment-run helpers: build a simulator, play a workload,
//! return the paper's metrics. Used by the `paper` binary, the criterion
//! benches, and calibration tests.

use metrics::RunReport;
use negotiator::{NegotiatorConfig, NegotiatorSim, SimOptions};
use oblivious::{ObliviousConfig, ObliviousSim};
use sim::time::Nanos;
use topology::{NetworkConfig, TopologyKind};
use workload::{FlowSizeDist, FlowTrace, PoissonWorkload, WorkloadSpec};

/// Default simulated duration of harness runs (paper: 30 ms; 5 ms keeps
/// the full suite to minutes while leaving percentiles stable).
pub const DEFAULT_DURATION: Nanos = 5_000_000;

/// Default workload seed.
pub const SEED: u64 = 20240804; // SIGCOMM'24 week

/// Build the paper's Poisson background trace at `load` over `net`.
pub fn background(
    dist: FlowSizeDist,
    load: f64,
    net: &NetworkConfig,
    duration: Nanos,
) -> FlowTrace {
    background_seeded(dist, load, net, duration, SEED)
}

/// [`background`] with an explicit workload seed (the harness's `--seed`).
pub fn background_seeded(
    dist: FlowSizeDist,
    load: f64,
    net: &NetworkConfig,
    duration: Nanos,
    seed: u64,
) -> FlowTrace {
    PoissonWorkload::new(WorkloadSpec {
        dist,
        load,
        n_tors: net.n_tors,
        host_bps: net.host_bandwidth.bps(),
    })
    .generate(duration, seed)
}

/// One NegotiaToR run: returns the report and the sim (for extra metrics).
///
/// `workers` is the intra-run shard worker count (`--workers`); reports
/// are byte-identical at any value, so it is purely a wall-clock knob.
pub fn run_negotiator(
    cfg: NegotiatorConfig,
    kind: TopologyKind,
    mut opts: SimOptions,
    trace: &FlowTrace,
    duration: Nanos,
    workers: usize,
) -> (RunReport, NegotiatorSim) {
    opts.workers = workers.max(1);
    let mut sim = NegotiatorSim::with_options(cfg, kind, opts);
    let report = sim.run(trace, duration);
    (report, sim)
}

/// One traffic-oblivious run. The rotor's slot loop is order-semantic
/// (relay credits, one RNG stream), so it takes no worker count.
pub fn run_oblivious(
    cfg: ObliviousConfig,
    kind: TopologyKind,
    trace: &FlowTrace,
    duration: Nanos,
) -> (RunReport, ObliviousSim) {
    let mut sim = ObliviousSim::new(cfg, kind);
    let report = sim.run(trace, duration);
    (report, sim)
}
