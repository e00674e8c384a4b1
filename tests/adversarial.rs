//! Adversarial fault injection, end to end through the epoch engines:
//! the four fault families (flap, partition, gray, greedy) must perturb
//! the simulation the way their semantics say — and none of them may
//! break the byte-identity promise at any `--workers` count, since every
//! fault decision is position-keyed or applied from the sequential
//! driver loop (see `topology::inject`).

use metrics::{PhaseProbe, RunReport};
use negotiator::stats::SchedStats;
use negotiator::{FaultAction, NegotiatorConfig, NegotiatorSim, SimOptions};
use oblivious::{ObliviousConfig, ObliviousSim};
use topology::failures::LinkDir;
use topology::inject::{FlapTargets, PartitionSpec};
use topology::{NetworkConfig, TopologyKind};
use workload::{FlowSizeDist, FlowTrace, PoissonWorkload, WorkloadSpec};

const DURATION: u64 = 150_000;

fn trace(seed: u64) -> FlowTrace {
    PoissonWorkload::new(WorkloadSpec {
        dist: FlowSizeDist::hadoop(),
        load: 0.6,
        n_tors: 16,
        host_bps: 200_000_000_000,
    })
    .generate(DURATION, seed)
}

fn sim(workers: usize) -> NegotiatorSim {
    let cfg = NegotiatorConfig::paper_default(NetworkConfig::small_for_tests());
    let opts = SimOptions {
        workers,
        ..SimOptions::default()
    };
    NegotiatorSim::with_options(cfg, TopologyKind::Parallel, opts)
}

/// Run to the end and return everything the byte-identity promise
/// covers: the report and the scheduler counters.
fn finish(mut s: NegotiatorSim, t: &FlowTrace) -> (RunReport, SchedStats) {
    let report = s.run(t, DURATION);
    (report, *s.stats())
}

/// Satellite property: gray-failure drop decisions are identical across
/// `--workers 1/8`. The gray window forces the whole-fabric observed
/// predefined phase, but the epoch-start steps stay sharded, so the whole
/// report — including the control-drop counter — must match byte for byte.
#[test]
fn gray_runs_are_identical_at_any_worker_count() {
    let t = trace(61);
    let run = |workers: usize| {
        let mut s = sim(workers);
        let epoch = s.epoch_len();
        s.schedule_fault(
            5 * epoch,
            FaultAction::GrayStart {
                drop_prob: 0.5,
                seed: 11,
                tors: None,
            },
        );
        s.schedule_fault(40 * epoch, FaultAction::GrayStop);
        finish(s, &t)
    };
    let (report_1, stats_1) = run(1);
    assert!(
        stats_1.control_dropped > 0,
        "a 50% gray window must drop some control traffic"
    );
    for workers in [2, 8] {
        let (report_w, stats_w) = run(workers);
        assert_eq!(report_1, report_w, "{workers} workers diverged (report)");
        assert_eq!(stats_1, stats_w, "{workers} workers diverged (stats)");
    }
}

/// Gray semantics: links stay up for data, so nothing is "lost", but the
/// detector — starved of its dummies — excludes healthy links, which the
/// phase counters report as false positives.
#[test]
fn gray_failure_misleads_the_detector_without_touching_data() {
    let t = trace(62);
    let mut s = sim(1);
    let epoch = s.epoch_len();
    s.schedule_fault(
        5 * epoch,
        FaultAction::GrayStart {
            drop_prob: 1.0,
            seed: 13,
            tors: Some(vec![0, 1]),
        },
    );
    s.schedule_fault(60 * epoch, FaultAction::GrayStop);
    s.set_phase_probe(PhaseProbe::new(vec![30 * epoch, DURATION]));
    let report = s.run(&t, DURATION);
    assert!(report.goodput.delivered_bytes > 0, "data still flows");
    let stats = s.stats();
    assert!(stats.control_dropped > 0, "control traffic dropped");
    assert_eq!(stats.lost_packets, 0, "gray links never lose data packets");
    let mid = s.phase_probe().expect("probe attached").snapshots()[0].counters;
    assert!(
        mid.detector_fp_links > 0,
        "total dummy loss must trick the detector into false exclusions"
    );
    assert_eq!(
        mid.detector_fn_links, 0,
        "no ground-truth failure exists to miss"
    );
}

/// A greedy granter floods unrequested grants: the run must stay
/// deterministic across worker counts, and goodput must suffer relative
/// to the clean run — stolen ports serve empty queues.
#[test]
fn greedy_tor_dents_goodput_and_stays_deterministic() {
    let t = trace(63);
    let run = |workers: usize, greedy: bool| {
        let mut s = sim(workers);
        if greedy {
            let epoch = s.epoch_len();
            s.schedule_fault(5 * epoch, FaultAction::GreedyStart { tors: vec![2, 9] });
        }
        finish(s, &t)
    };
    let clean = run(1, false);
    let hit = run(1, true);
    assert!(
        hit.0.goodput.delivered_bytes < clean.0.goodput.delivered_bytes,
        "greedy granting must cost goodput: {} !< {}",
        hit.0.goodput.delivered_bytes,
        clean.0.goodput.delivered_bytes
    );
    assert!(
        hit.1.grants_issued > clean.1.grants_issued,
        "a greedy granter floods grants"
    );
    for workers in [2, 8] {
        assert_eq!(hit, run(workers, true), "{workers} workers diverged");
    }
}

/// Flapping and partition faults drive plain `LinkFailures` state from
/// the sequential driver loop; runs crossing both must stay
/// worker-independent, and healing must let traffic finish.
#[test]
fn flap_and_partition_runs_are_identical_at_any_worker_count() {
    let t = trace(64);
    let run = |workers: usize| {
        let mut s = sim(workers);
        let epoch = s.epoch_len();
        s.schedule_fault(
            5 * epoch,
            FaultAction::FlapStart {
                targets: FlapTargets::Links(vec![
                    (0, 0, LinkDir::Egress),
                    (3, 1, LinkDir::Ingress),
                ]),
                up: 2 * epoch,
                down: epoch,
            },
        );
        s.schedule_fault(
            12 * epoch,
            FaultAction::Partition(PartitionSpec::Random { groups: 2, seed: 9 }),
        );
        s.schedule_fault(25 * epoch, FaultAction::Heal);
        s.schedule_fault(30 * epoch, FaultAction::FlapStop);
        finish(s, &t)
    };
    let sequential = run(1);
    assert!(
        sequential.0.goodput.delivered_bytes > 0,
        "nothing delivered"
    );
    for workers in [2, 8] {
        assert_eq!(sequential, run(workers), "{workers} workers diverged");
    }
}

/// The fault families on the 70-ToR × 4-port parallel fabric, whose pairs
/// at distance 1 and 2 meet twice a round (two lanes per pair) and whose
/// non-empty bitmap ends in a partial word: flapping links, a partition,
/// a gray window and a greedy granter, staggered so that observed and
/// healthy predefined phases alternate over the same lane masks. Report
/// and counters must match at every shard count.
#[test]
fn odd_fabric_fault_runs_are_identical_at_any_worker_count() {
    let net = NetworkConfig {
        n_tors: 70,
        n_ports: 4,
        ..NetworkConfig::small_for_tests()
    };
    let t = PoissonWorkload::new(WorkloadSpec {
        dist: FlowSizeDist::hadoop(),
        load: 0.6,
        n_tors: 70,
        host_bps: 200_000_000_000,
    })
    .generate(DURATION, 66);
    let run = |workers: usize| {
        let opts = SimOptions {
            workers,
            ..SimOptions::default()
        };
        let cfg = NegotiatorConfig::paper_default(net.clone());
        let mut s = NegotiatorSim::with_options(cfg, TopologyKind::Parallel, opts);
        let epoch = s.epoch_len();
        s.schedule_fault(
            4 * epoch,
            FaultAction::FlapStart {
                targets: FlapTargets::Links(vec![
                    (0, 0, LinkDir::Egress),
                    (69, 3, LinkDir::Ingress),
                ]),
                up: 2 * epoch,
                down: epoch,
            },
        );
        s.schedule_fault(10 * epoch, FaultAction::FlapStop);
        s.schedule_fault(
            18 * epoch,
            FaultAction::Partition(PartitionSpec::Random { groups: 2, seed: 9 }),
        );
        s.schedule_fault(21 * epoch, FaultAction::Heal);
        s.schedule_fault(
            30 * epoch,
            FaultAction::GrayStart {
                drop_prob: 0.5,
                seed: 11,
                tors: None,
            },
        );
        s.schedule_fault(34 * epoch, FaultAction::GrayStop);
        s.schedule_fault(26 * epoch, FaultAction::GreedyStart { tors: vec![1, 68] });
        finish(s, &t)
    };
    let one_shard = run(1);
    assert!(one_shard.0.goodput.delivered_bytes > 0, "nothing delivered");
    assert!(one_shard.1.control_dropped > 0, "the gray window must bite");
    for workers in [2, 3, 8] {
        assert_eq!(one_shard, run(workers), "{workers} workers diverged");
    }
}

/// A partition dents the oblivious engine too (cross-group slots waste),
/// and the partitioned-ToR gauge reads through its phase counters.
#[test]
fn oblivious_partition_applies_and_heals() {
    let t = trace(65);
    let run = |partitioned: bool| {
        let cfg = ObliviousConfig::paper_default(NetworkConfig::small_for_tests());
        let mut s = ObliviousSim::new(cfg, TopologyKind::ThinClos);
        if partitioned {
            s.schedule_fault(
                20_000,
                FaultAction::Partition(PartitionSpec::Explicit(
                    (0..16).map(|tor| (tor % 2) as u32).collect(),
                )),
            );
            s.schedule_fault(80_000, FaultAction::Heal);
        }
        s.set_phase_probe(PhaseProbe::new(vec![50_000, DURATION]));
        let report = s.run(&t, DURATION);
        let mid = s.phase_probe().expect("probe").snapshots()[0].counters;
        (report, mid)
    };
    let (clean, clean_mid) = run(false);
    let (split, split_mid) = run(true);
    assert_eq!(clean_mid.partitioned_tors, 0);
    assert_eq!(
        split_mid.partitioned_tors, 8,
        "an 8/8 split cuts 8 ToRs off the largest group"
    );
    assert!(
        split.goodput.delivered_bytes <= clean.goodput.delivered_bytes,
        "a partition cannot help an oblivious rotor"
    );
    assert_ne!(clean, split, "the partition must leave a mark");
}
