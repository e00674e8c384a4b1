//! Byte-conservation and determinism properties of the two full engines:
//! nothing is ever delivered twice, everything offered is eventually
//! delivered (absent failures), every byte offered is accounted for at
//! any horizon, and a seed pins the whole run.

use metrics::frame::EpochEngine;
use negotiator::{NegotiatorConfig, NegotiatorSim, SchedulerMode, SimOptions};
use oblivious::{ObliviousConfig, ObliviousSim};
use proptest::prelude::*;
use topology::{FaultAction, NetworkConfig, TopologyKind};
use workload::{FlowSizeDist, PoissonWorkload, WorkloadSpec};

fn trace(load: f64, duration: u64, seed: u64) -> workload::FlowTrace {
    PoissonWorkload::new(WorkloadSpec {
        dist: FlowSizeDist::hadoop(),
        load,
        n_tors: 16,
        host_bps: 200_000_000_000,
    })
    .generate(duration, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// With a generous drain horizon and no failures, NegotiaToR delivers
    /// every byte of every flow exactly once, on both topologies.
    #[test]
    fn negotiator_conserves_bytes(
        seed in any::<u64>(),
        load in 0.1f64..0.7,
        kind_pick in any::<bool>(),
    ) {
        let kind = if kind_pick { TopologyKind::Parallel } else { TopologyKind::ThinClos };
        let gen_window = 300_000u64;
        let horizon = 60_000_000u64; // engines exit early once drained
        let t = trace(load, gen_window, seed);
        let mut sim = NegotiatorSim::new(
            NegotiatorConfig::paper_default(NetworkConfig::small_for_tests()),
            kind,
        );
        sim.run(&t, horizon);
        // FlowTracker::deliver panics on over-delivery, so completion of
        // every flow here implies exactly-once byte accounting.
        prop_assert_eq!(sim.tracker().completed_count(), t.len());
        prop_assert_eq!(sim.tracker().delivered_payload(), t.total_bytes());
    }

    /// Same conservation for the traffic-oblivious baseline (its VLB path
    /// must neither lose nor duplicate relayed chunks).
    #[test]
    fn oblivious_conserves_bytes(seed in any::<u64>(), load in 0.1f64..0.7) {
        let gen_window = 300_000u64;
        let horizon = 120_000_000u64;
        let t = trace(load, gen_window, seed);
        let mut sim = ObliviousSim::new(
            ObliviousConfig::paper_default(NetworkConfig::small_for_tests()),
            TopologyKind::ThinClos,
        );
        sim.run(&t, horizon);
        prop_assert_eq!(sim.tracker().completed_count(), t.len());
        prop_assert_eq!(sim.tracker().delivered_payload(), t.total_bytes());
    }

    /// Variant schedulers also conserve bytes.
    #[test]
    fn variants_conserve_bytes(seed in any::<u64>(), mode_pick in 0usize..5) {
        let mode = [
            SchedulerMode::Iterative { rounds: 3 },
            SchedulerMode::DataSize,
            SchedulerMode::HolDelay { alpha: 0.001 },
            SchedulerMode::Stateful,
            SchedulerMode::Projector,
        ][mode_pick];
        let t = trace(0.4, 200_000, seed);
        let mut sim = NegotiatorSim::with_options(
            NegotiatorConfig::paper_default(NetworkConfig::small_for_tests()),
            TopologyKind::Parallel,
            SimOptions { mode, ..SimOptions::default() },
        );
        sim.run(&t, 60_000_000);
        prop_assert_eq!(sim.tracker().completed_count(), t.len(), "{:?}", mode);
    }
}

#[test]
fn selective_relay_conserves_bytes() {
    let t = trace(0.5, 400_000, 77);
    let mut sim = NegotiatorSim::with_options(
        NegotiatorConfig::paper_default(NetworkConfig::small_for_tests()),
        TopologyKind::ThinClos,
        SimOptions {
            selective_relay: true,
            ..SimOptions::default()
        },
    );
    sim.run(&t, 120_000_000);
    assert_eq!(sim.tracker().completed_count(), t.len());
    assert_eq!(sim.tracker().delivered_payload(), t.total_bytes());
}

#[test]
fn engines_are_deterministic_end_to_end() {
    let t = trace(0.6, 400_000, 5);
    let run_nego = || {
        let mut sim = NegotiatorSim::new(
            NegotiatorConfig::paper_default(NetworkConfig::small_for_tests()),
            TopologyKind::Parallel,
        );
        let mut rep = sim.run(&t, 2_000_000);
        (rep.mice.p99_ns(), rep.goodput.delivered_bytes)
    };
    assert_eq!(run_nego(), run_nego());

    let run_oblv = || {
        let mut sim = ObliviousSim::new(
            ObliviousConfig::paper_default(NetworkConfig::small_for_tests()),
            TopologyKind::ThinClos,
        );
        let mut rep = sim.run(&t, 2_000_000);
        (rep.mice.p99_ns(), rep.goodput.delivered_bytes)
    };
    assert_eq!(run_oblv(), run_oblv());
}

// The exact law at a horizon that does not drain. Every byte offered is
// delivered, queued, in flight (the rotor's first hops), lost to a failed
// link (the negotiator's packets sent into one), or in a flow the run
// never injected because it arrives after the last tick.

/// A heavily loaded trace over `n_tors` ToRs of `net`, generated over
/// `window` ns.
fn heavy(net: &NetworkConfig, load: f64, window: u64, seed: u64) -> workload::FlowTrace {
    PoissonWorkload::new(WorkloadSpec {
        dist: FlowSizeDist::hadoop(),
        load,
        n_tors: net.n_tors,
        host_bps: net.host_bandwidth.bps(),
    })
    .generate(window, seed)
}

/// Bytes of the `k` flows a run never injected: the trace's last.
fn not_injected_bytes(t: &workload::FlowTrace, k: usize) -> u64 {
    t.flows()[t.len() - k..].iter().map(|f| f.bytes).sum()
}

/// 16 and 32 ToRs on both topologies at 95 % load, cut off 300 µs into a
/// trace generated over 400 µs: `offered = delivered + backlog +
/// not_injected + lost`, to the byte, with every term but `lost` non-zero.
#[test]
fn negotiator_balances_every_byte_at_an_undrained_horizon() {
    for n_tors in [16, 32] {
        let net = NetworkConfig {
            n_tors,
            ..NetworkConfig::small_for_tests()
        };
        for kind in [TopologyKind::Parallel, TopologyKind::ThinClos] {
            for seed in 1..=3 {
                let t = heavy(&net, 0.95, 400_000, seed);
                let mut sim =
                    NegotiatorSim::new(NegotiatorConfig::paper_default(net.clone()), kind);
                sim.run(&t, 300_000);
                let delivered = sim.tracker().delivered_payload();
                let backlog = sim.phase_counters().backlog_bytes;
                let skipped = not_injected_bytes(&t, sim.not_injected());
                let lost = sim.stats().lost_bytes;
                let at = format!("{n_tors} ToRs {kind:?} seed {seed}");
                assert!(delivered > 0 && backlog > 0 && skipped > 0, "{at}");
                assert_eq!(lost, 0, "{at}");
                assert_eq!(
                    t.total_bytes(),
                    delivered + backlog + skipped + lost,
                    "{at}"
                );
            }
        }
    }
}

/// The same law with 5 % of the links failing 100 µs in: what the failed
/// links swallowed is `lost`, to the byte, beside `lost_packets`.
#[test]
fn negotiator_balances_lost_bytes_under_a_link_failure() {
    let net = NetworkConfig {
        n_tors: 32,
        ..NetworkConfig::small_for_tests()
    };
    for kind in [TopologyKind::Parallel, TopologyKind::ThinClos] {
        let t = heavy(&net, 0.95, 400_000, 7);
        let mut sim = NegotiatorSim::new(NegotiatorConfig::paper_default(net.clone()), kind);
        let action = FaultAction::FailRandom {
            ratio: 0.05,
            seed: 3,
        };
        sim.schedule_fault(100_000, action);
        sim.run(&t, 300_000);
        let delivered = sim.tracker().delivered_payload();
        let backlog = sim.phase_counters().backlog_bytes;
        let skipped = not_injected_bytes(&t, sim.not_injected());
        let (lost, lost_packets) = (sim.stats().lost_bytes, sim.stats().lost_packets);
        assert!(
            lost > 0 && lost_packets > 0 && lost >= lost_packets,
            "{kind:?}"
        );
        assert_eq!(
            t.total_bytes(),
            delivered + backlog + skipped + lost,
            "{kind:?}"
        );
    }
}

/// The rotor at 16 and 32 ToRs, 95 % load, cut off 300 µs into a 400 µs
/// trace: `offered = delivered + backlog + in_flight + not_injected`, to
/// the byte, with every term non-zero.
#[test]
fn rotor_balances_every_byte_at_an_undrained_horizon() {
    for n_tors in [16, 32] {
        let net = NetworkConfig {
            n_tors,
            ..NetworkConfig::small_for_tests()
        };
        for kind in [TopologyKind::Parallel, TopologyKind::ThinClos] {
            for seed in 1..=3 {
                let t = heavy(&net, 0.95, 400_000, seed);
                let mut sim = ObliviousSim::new(ObliviousConfig::paper_default(net.clone()), kind);
                sim.run(&t, 300_000);
                let delivered = sim.tracker().delivered_payload();
                let backlog = sim.phase_counters().backlog_bytes;
                let in_flight = sim.inflight_bytes();
                let skipped = not_injected_bytes(&t, sim.not_injected());
                let at = format!("{n_tors} ToRs {kind:?} seed {seed}");
                assert!(
                    delivered > 0 && backlog > 0 && in_flight > 0 && skipped > 0,
                    "{at}"
                );
                assert_eq!(
                    t.total_bytes(),
                    delivered + backlog + in_flight + skipped,
                    "{at}"
                );
            }
        }
    }
}

/// Selective relay on 32 ToRs of thin-clos at 95 % load, cut off 300 µs
/// into a 400 µs trace, healthy and with 5 % of the links failing 100 µs
/// in: `offered = delivered + backlog + in_flight + not_injected + lost`,
/// to the byte. In flight are the first hops that have not yet landed at
/// their intermediate; the failure makes `lost` non-zero.
#[test]
fn relay_balances_every_byte_at_an_undrained_horizon() {
    let net = NetworkConfig {
        n_tors: 32,
        ..NetworkConfig::small_for_tests()
    };
    for fail in [false, true] {
        let t = heavy(&net, 0.95, 400_000, 7);
        let mut sim = NegotiatorSim::with_options(
            NegotiatorConfig::paper_default(net.clone()),
            TopologyKind::ThinClos,
            SimOptions {
                selective_relay: true,
                ..SimOptions::default()
            },
        );
        if fail {
            let action = FaultAction::FailRandom {
                ratio: 0.05,
                seed: 3,
            };
            sim.schedule_fault(100_000, action);
        }
        sim.run(&t, 300_000);
        let delivered = sim.tracker().delivered_payload();
        let counters = sim.phase_counters();
        let (backlog, in_flight) = (counters.backlog_bytes, counters.in_flight_bytes);
        let skipped = not_injected_bytes(&t, sim.not_injected());
        let lost = sim.stats().lost_bytes;
        let at = format!("failure {fail}");
        assert!(
            delivered > 0 && backlog > 0 && in_flight > 0 && skipped > 0,
            "{at}: delivered {delivered} backlog {backlog} in flight {in_flight} skipped {skipped}"
        );
        assert_eq!(lost > 0, fail, "{at}");
        assert_eq!(
            t.total_bytes(),
            delivered + backlog + in_flight + skipped + lost,
            "{at}"
        );
    }
}
