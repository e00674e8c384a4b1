//! Component microbenchmarks: the matching algorithm, the ring arbiter,
//! queue operations, and raw epoch-engine throughput. These guard the
//! simulator's own performance (a 30 ms paper-scale run must stay in
//! seconds), independent of the paper-shape benches.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use negotiator::matching::{AcceptArbiter, Grant, GrantArbiter};
use negotiator::queues::DestQueue;
use negotiator::rings::Ring;
use negotiator::{NegotiatorConfig, NegotiatorSim};
use oblivious::{ObliviousConfig, ObliviousSim};
use sim::Xoshiro256;
use topology::{AnyTopology, NetworkConfig, RingScope, Topology, TopologyKind};
use workload::{FlowSizeDist, PoissonWorkload, WorkloadSpec};

fn ring_pick(c: &mut Criterion) {
    // One ring of the paper fabric and one of a 1024-ToR fabric; a third
    // of the members compete, as at moderate load.
    for n in [128, 1024] {
        let scope = RingScope {
            start: 0,
            span: n,
            skip: n,
        };
        let mut ring = Ring::new(scope, &mut Xoshiro256::new(1));
        let candidates: Vec<usize> = (0..n).step_by(3).collect();
        c.bench_function(format!("ring_pick_{n}_members"), |b| {
            b.iter(|| ring.pick(std::hint::black_box(&candidates)))
        });
    }
}

fn grant_accept_cycle(c: &mut Criterion) {
    let topo = AnyTopology::build(TopologyKind::Parallel, NetworkConfig::paper_default());
    let n = topo.net().n_tors;
    let s = topo.net().n_ports;
    let mut rng = Xoshiro256::new(2);
    let mut grant_arbs: Vec<GrantArbiter> = (0..n)
        .map(|d| GrantArbiter::new(&topo, d, &mut rng))
        .collect();
    let mut accept_arbs: Vec<AcceptArbiter> = (0..n)
        .map(|t| AcceptArbiter::new(&topo, t, &mut rng))
        .collect();
    let requests: Vec<usize> = (0..n).collect();
    c.bench_function("grant_accept_cycle_128tors_saturated", |b| {
        b.iter(|| {
            let mut grants_by_src: Vec<Vec<Grant>> = vec![Vec::new(); n];
            for (dst, arb) in grant_arbs.iter_mut().enumerate() {
                let reqs: Vec<usize> = requests.iter().copied().filter(|&r| r != dst).collect();
                for (src, port) in arb.grant(s, &reqs, |_, _| true) {
                    grants_by_src[src].push(Grant { dst, port });
                }
            }
            let mut total = 0;
            for src in 0..n {
                total += accept_arbs[src]
                    .accept(s, &grants_by_src[src], |_, _| true)
                    .len();
            }
            total
        })
    });
}

fn queue_ops(c: &mut Criterion) {
    c.bench_function("destqueue_enqueue_dequeue_pias", |b| {
        b.iter_batched(
            DestQueue::new,
            |mut q| {
                for f in 0..32 {
                    q.enqueue_flow(f, 50_000, f, true, [1_000, 10_000]);
                }
                let mut total = 0u64;
                while let Some(p) = q.dequeue_packet(1_115) {
                    total += p.bytes;
                }
                total
            },
            BatchSize::SmallInput,
        )
    });
}

fn small_trace(load: f64, duration: u64) -> workload::FlowTrace {
    PoissonWorkload::new(WorkloadSpec {
        dist: FlowSizeDist::hadoop(),
        load,
        n_tors: 16,
        host_bps: 200_000_000_000,
    })
    .generate(duration, 7)
}

/// Paper-scale (128 ToRs × 8 ports) epoch throughput: a fixed number of
/// epochs at moderate load, so `epochs / reported-time` is the engine's
/// epochs/sec figure. The PR gate for hot-path work: this must not regress,
/// and hot-path rewrites should move it by integer factors. `wall_time` in
/// sweep results JSON is the same quantity aggregated over a whole
/// experiment (see README § Performance).
fn engine_epoch_throughput(c: &mut Criterion) {
    const EPOCHS: u64 = 200;
    for (label, kind, load) in [
        ("parallel_40load", TopologyKind::Parallel, 0.4),
        ("thinclos_40load", TopologyKind::ThinClos, 0.4),
    ] {
        let cfg = NegotiatorConfig::paper_default(NetworkConfig::paper_default());
        let probe = NegotiatorSim::new(cfg.clone(), kind);
        let duration = EPOCHS * probe.epoch_len();
        let trace = PoissonWorkload::new(WorkloadSpec {
            dist: FlowSizeDist::hadoop(),
            load,
            n_tors: cfg.net.n_tors,
            host_bps: cfg.net.host_bandwidth.bps(),
        })
        .generate(duration, 11);
        c.bench_function(
            format!("engine_epoch_throughput_{label}_{EPOCHS}epochs"),
            |b| {
                b.iter_batched(
                    || NegotiatorSim::new(cfg.clone(), kind),
                    |mut sim| sim.run(&trace, duration),
                    BatchSize::SmallInput,
                )
            },
        );
    }
}

fn negotiator_epoch_throughput(c: &mut Criterion) {
    let duration = 200_000; // ≈ 54 epochs on the 16-ToR fabric
    let trace = small_trace(1.0, duration);
    c.bench_function("negotiator_run_16tors_200us_full_load", |b| {
        b.iter_batched(
            || {
                NegotiatorSim::new(
                    NegotiatorConfig::paper_default(NetworkConfig::small_for_tests()),
                    TopologyKind::Parallel,
                )
            },
            |mut sim| sim.run(&trace, duration),
            BatchSize::SmallInput,
        )
    });
}

fn oblivious_slot_throughput(c: &mut Criterion) {
    let duration = 200_000;
    let trace = small_trace(1.0, duration);
    c.bench_function("oblivious_run_16tors_200us_full_load", |b| {
        b.iter_batched(
            || {
                ObliviousSim::new(
                    ObliviousConfig::paper_default(NetworkConfig::small_for_tests()),
                    TopologyKind::ThinClos,
                )
            },
            |mut sim| sim.run(&trace, duration),
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    ring_pick,
    grant_accept_cycle,
    queue_ops,
    negotiator_epoch_throughput,
    oblivious_slot_throughput,
    engine_epoch_throughput
);
criterion_main!(benches);
