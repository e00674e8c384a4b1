//! What every experiment run starts from: the harness defaults and the
//! paper's background workload. Engines are built through
//! [`scenario::System`], the driver scenarios use too.

use std::sync::Arc;

use crate::experiments::Args;
use sim::time::Nanos;
use topology::NetworkConfig;
use workload::{FlowSizeDist, FlowTrace, PoissonWorkload, WorkloadSpec};

/// Default simulated duration of harness runs (paper: 30 ms; 5 ms keeps
/// the full suite to minutes while leaving percentiles stable).
pub const DEFAULT_DURATION: Nanos = 5_000_000;

/// Default workload seed.
pub const SEED: u64 = 20240804; // SIGCOMM'24 week

/// The paper's Poisson background trace at `load` over `net`, from
/// workload seed `seed` (the harness's `--seed`).
pub fn background(
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

/// The setting of every fixed-load experiment: the paper's fabric and its
/// Hadoop background at 100% load, shared by the experiment's runs.
pub fn full_load(args: &Args) -> (NetworkConfig, Arc<FlowTrace>) {
    let net = NetworkConfig::paper_default();
    let trace = background(FlowSizeDist::hadoop(), 1.0, &net, args.duration, args.seed);
    (net, Arc::new(trace))
}
