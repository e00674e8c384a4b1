//! Epoch work tracks traffic, not fabric size: REQUEST and the healthy
//! predefined phase look only at pairs that have backlog or scheduling
//! messages (`negotiator`'s live-pair state), so the same traffic costs
//! the same pair visits on a fabric four times the size, and GRANT looks
//! at each request once, not once per port. The work counters in
//! `SchedStats` make that checkable without a clock.
//!
//! The scheduled phase is held to it too: a matched queue leaves as
//! segment runs, and `SchedStats::scheduled_deliveries` counts one landing
//! per run where a packet-by-packet phase would count one per packet.
//!
//! The oblivious rotor is held to the same standard: a slot visits the
//! connections whose pair has something queued, not all `n · S`, and
//! `RotorStats` counts the visits.
//!
//! Arbiter state is held to the same standard with a byte count: a ring is
//! its pointer and a closed-form scope, so what a fabric's GRANT and ACCEPT
//! arbiters allocate per ToR does not depend on the number of ToRs. So is
//! the detector's pass over the dummies — the one an epoch with a failure,
//! an exclusion or a gray drop adds: it walks the schedule's closed form,
//! so a failure costs a large fabric visits, not a table of its schedule.
//!
//! Queue state is held to it with the same byte count, in both engines: a
//! pair is list heads and tails in zero-initialized tables and its segments
//! live in its source's arena, so building a fabric allocates tens of bytes
//! per pair and running a trace allocates for the trace, whatever the
//! fabric around it. Every per-pair table has one budget per configuration:
//! a table no reader in the configured mode uses is not built. The budgets
//! are on allocated bytes, because whether an untouched zero page is
//! resident is up to the allocator — a process that builds engines more
//! than once gets reused memory back and zeroes it, every page.
//!
//! Per-item records are held to a byte budget too: the flow tracker's
//! bytes per flow and the rotor's bytes per queued segment are fixed, so
//! what a run allocates for them is its flows and its backlog times those.
//!
//! And naming a run is held to it: a compiled scenario and its content
//! hash are a function of the spec, so asking "is this run cached?" costs
//! the spec's size, not the traffic's — the flows are made when a run
//! first reads them, once however many clones share them.

use metrics::trace::FlowSpans;
use metrics::{FlowTracker, MatchRatioRecorder};
use negotiator::matching::{AcceptArbiter, GrantArbiter};
use negotiator::queues::PRIORITY_LEVELS;
use negotiator::rings::Ring;
use negotiator::{NegotiatorConfig, NegotiatorSim, SchedulerMode, SimOptions};
use oblivious::{ObliviousConfig, ObliviousSim};
use scenario::{compile, parse_scenario};
use sim::Xoshiro256;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;
use topology::failures::LinkDir;
use topology::{AnyTopology, FaultAction, NetworkConfig, TopologyKind};
use workload::{Flow, FlowSizeDist, FlowTrace, IncastWorkload, PoissonWorkload, WorkloadSpec};

/// The system allocator, counting the bytes each thread asks it for (the
/// tests of this binary run on threads of their own, so one test's count
/// is not disturbed by another's simulation).
struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn count(layout: Layout) {
    let _ = ALLOCATED.try_with(|bytes| bytes.set(bytes.get() + layout.size()));
}

// SAFETY: every request is passed to `System` unchanged, which upholds the
// `GlobalAlloc` contract; the counter is a plain thread-local `Cell` with no
// destructor and no allocation of its own, and `try_with` skips the count
// once a thread's locals are gone. `alloc_zeroed` goes to the system's own
// (so a zero table is no more resident here than in production); `realloc`
// keeps its default form, which goes through `alloc`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout);
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout);
        // SAFETY: the caller's obligations are exactly `System::alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes this thread has asked the allocator for while running `f`.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

/// Every GRANT and ACCEPT arbiter of a fabric — the rings, the arbiters
/// around them and the vectors that hold those — fits in 64 B per port of
/// each ToR on 256, 1024 and 4096 ToRs alike. Stored member and slot
/// tables took 2 × 8 B per member per ring: 147 kB per ToR on 1024 × 8,
/// 2.4 GB for the 4096-ToR fabric built here.
#[test]
fn arbiter_bytes_per_tor_are_flat_in_fabric_size() {
    assert!(std::mem::size_of::<Ring>() <= 24);
    for kind in [TopologyKind::Parallel, TopologyKind::ThinClos] {
        for n_tors in [256usize, 1024, 4096] {
            let net = NetworkConfig {
                n_tors,
                ..NetworkConfig::paper_default()
            };
            let ports = net.n_ports;
            let topo = AnyTopology::build(kind, net);
            let mut rng = Xoshiro256::new(5);
            let (arbiters, bytes) = allocated_by(|| {
                let grant: Vec<GrantArbiter> = (0..n_tors)
                    .map(|d| GrantArbiter::new(&topo, d, &mut rng))
                    .collect();
                let accept: Vec<AcceptArbiter> = (0..n_tors)
                    .map(|s| AcceptArbiter::new(&topo, s, &mut rng))
                    .collect();
                (grant, accept)
            });
            assert_eq!((arbiters.0.len(), arbiters.1.len()), (n_tors, n_tors));
            assert!(bytes > 0, "the count must see the arbiters being built");
            assert!(
                bytes <= 64 * ports * n_tors,
                "{kind:?} {n_tors} ToRs: arbiters allocated {bytes} B, {} B per ToR",
                bytes / n_tors
            );
        }
    }
}

/// Queue state is held to it as well. Building a 512-ToR simulator
/// allocates under 64 B per pair, everything included: the base mode's
/// per-pair tables are list heads and tails (24 B), the byte mirror and
/// flags (9 B), where a `VecDeque` triple per pair alone was 136 B
/// (`pair_tables_fit_one_budget_per_mode` holds every mode to its own,
/// tighter budget). And what a run allocates on top is a function of its
/// traffic: one trace confined to ToRs 0..64 — a 40-to-1 burst of 50 kB
/// flows every 20 µs over 50 % Poisson load — played on a 256- and a
/// 512-ToR thin-clos fabric (pair tables 4× apart) costs both the same to
/// within one doubling of the 64 busy sources' segment arenas.
#[test]
fn queue_bytes_track_live_pairs_not_fabric_size() {
    const DURATION: u64 = 200_000;
    let background = PoissonWorkload::new(WorkloadSpec {
        dist: FlowSizeDist::hadoop(),
        load: 0.5,
        n_tors: 64,
        host_bps: 400_000_000_000,
    })
    .generate(DURATION, 29);
    let trace = (0..8u64)
        .map(|burst| {
            IncastWorkload {
                degree: 40,
                flow_bytes: 50_000,
                n_tors: 64,
                start: burst * 20_000,
            }
            .generate(31 + burst)
        })
        .fold(background, FlowTrace::merge);
    let play = |n_tors: usize| {
        let net = NetworkConfig {
            n_tors,
            ..NetworkConfig::paper_default()
        };
        let cfg = NegotiatorConfig::paper_default(net);
        let (mut sim, built) = allocated_by(|| NegotiatorSim::new(cfg, TopologyKind::ThinClos));
        assert!(
            built <= 64 * n_tors * n_tors,
            "{n_tors} ToRs: construction allocated {built} B, {} B per pair",
            built / (n_tors * n_tors)
        );
        let (report, ran) = allocated_by(|| sim.run(&trace, DURATION));
        assert!(
            report.all.completed > trace.len() / 2,
            "the trace must exercise the queues"
        );
        ran
    };
    let (small, large) = (play(256), play(512));
    assert!(small > 0, "the count must see the queues being filled");
    assert!(
        small.max(large) <= 2 * small.min(large),
        "the same trace allocated {small} B on 256 ToRs and {large} B on 512"
    );
}

/// The rotor's pair state is held to it too. Building the oblivious
/// simulator on a 256- and a 1024-ToR thin-clos fabric allocates at most
/// 48 B per pair, everything included: per pair the four lists' heads and
/// tails (32 B, zero-initialized), the relay credit (8 B) and the
/// alternation bit (1 B). A `VecDeque` triple of bound levels and a relay
/// `VecDeque` per pair were 128 B on their own, every one of them written.
#[test]
fn rotor_pair_bytes_are_flat_in_fabric_size() {
    for n_tors in [256usize, 1024] {
        let net = NetworkConfig {
            n_tors,
            ..NetworkConfig::paper_default()
        };
        let cfg = ObliviousConfig::paper_default(net);
        let (sim, built) = allocated_by(|| ObliviousSim::new(cfg, TopologyKind::ThinClos));
        assert!(sim.slot_len() > 0);
        let pairs = n_tors * n_tors;
        assert!(
            built <= 48 * pairs,
            "{n_tors} ToRs: construction allocated {built} B, {} B per pair",
            built / pairs
        );
    }
}

/// One budget over every per-pair table, in every mode: building the
/// negotiator on a 256- and a 1024-ToR thin-clos fabric allocates no more
/// per pair than the tables its configuration reads (the list is the
/// `negotiator::sim` module doc's), and the flight recorder's pair stamps
/// are 12 B per pair. Beside its pair tables every configuration allocates
/// ~1.2–1.3 kB per ToR at 8 ports — arbiters, match, observation and
/// detector tables, inboxes — which the bound allows as 1.5 kB a ToR: 6 B
/// a pair at 256 ToRs, 1.5 B at 1024.
#[test]
fn pair_tables_fit_one_budget_per_mode() {
    const PER_TOR: usize = 1536;
    let configs = [
        // list heads + tails 24, queue_bytes 8, msg_flags 1, two bitmaps 1/4
        (SchedulerMode::Base, false, 36),
        // as Base: iterative matching keeps no per-pair state of its own
        (SchedulerMode::Iterative { rounds: 3 }, false, 36),
        // Base's 33 + request values 8
        (SchedulerMode::DataSize, false, 44),
        // Base's 33 + request values 8
        (SchedulerMode::HolDelay { alpha: 0.001 }, false, 44),
        // Base's 33 + request values 8 + u16 port bindings 2
        (SchedulerMode::Projector, false, 46),
        // Base's 33 + request values 8 + enqueued / reported totals 16 + demand matrix 8
        (SchedulerMode::Stateful, false, 68),
        // Base's 33 + per-pair elephant backlog 8
        (SchedulerMode::Base, true, 44),
    ];
    for n_tors in [256usize, 1024] {
        let net = NetworkConfig {
            n_tors,
            ..NetworkConfig::paper_default()
        };
        let pairs = n_tors * n_tors;
        for (mode, selective_relay, per_pair) in configs {
            let opts = SimOptions {
                mode,
                selective_relay,
                ..SimOptions::default()
            };
            let cfg = NegotiatorConfig::paper_default(net.clone());
            let (sim, built) =
                allocated_by(|| NegotiatorSim::with_options(cfg, TopologyKind::ThinClos, opts));
            assert!(sim.epoch_len() > 0);
            assert!(
                built <= per_pair * pairs + PER_TOR * n_tors,
                "{mode:?} (relay {selective_relay}) on {n_tors} ToRs: construction allocated \
                 {built} B, {} B per pair, over its {per_pair} B budget",
                built / pairs
            );
        }
        let (spans, built) = allocated_by(|| FlowSpans::new(n_tors, 0));
        assert_eq!(spans.live_count(), 0);
        assert!(
            built <= 12 * pairs,
            "{n_tors} ToRs: flow spans allocated {built} B, {} B per pair",
            built / pairs
        );
    }
}

/// One budget per flow and per queued segment: the flow tracker keeps
/// 16 B a flow — bytes still owed and the completion time; a flow's
/// arrival and size are the trace's — and a rotor segment slot is 16 B,
/// flow id, final destination and length at 32 bits each plus the arena
/// link (the in-flight chunk record is pinned to 16 B beside the slot in
/// `oblivious::sim`). The tracker was 40 B a flow and the slot 24 B.
#[test]
fn per_flow_bytes_fit_one_budget() {
    const DURATION: u64 = 200_000;
    let trace = PoissonWorkload::new(WorkloadSpec {
        dist: FlowSizeDist::hadoop(),
        load: 1.0,
        n_tors: 16,
        host_bps: 200_000_000_000,
    })
    .generate(DURATION, 41);
    assert!(trace.len() > 100, "the trace must exercise the fabric");
    let (tracker, built) = allocated_by(|| FlowTracker::new(&trace));
    assert_eq!(tracker.len(), trace.len());
    assert_eq!(
        built,
        16 * trace.len(),
        "the tracker allocated {built} B for {} flows",
        trace.len()
    );

    let cfg = ObliviousConfig::paper_default(NetworkConfig::small_for_tests());
    let mut sim = ObliviousSim::new(cfg, TopologyKind::ThinClos);
    sim.run(&trace, DURATION);
    let (slots, bytes) = sim.segment_arenas();
    assert!(
        sim.stats().credit_blocked > 0 && slots > 16,
        "the run must saturate the rotor: {slots} slots, {:?}",
        sim.stats()
    );
    assert_eq!(bytes, 16 * slots, "{slots} segment slots take {bytes} B");
}

/// The stretch bar: an idle 4096 × 8 base negotiator — one elephant in a
/// fabric of 16.7 M pairs — builds within the base mode's 36 B per pair
/// and runs 20 epochs. Ignored by default: a debug build audits every pair
/// at every epoch start. Run it with
/// `cargo test --release --test scale -- --include-ignored`.
#[test]
#[ignore = "16.7 M pairs: run in release"]
fn idle_4096_tor_negotiator_builds_in_budget_and_runs() {
    let n_tors = 4096usize;
    let net = NetworkConfig {
        n_tors,
        ..NetworkConfig::paper_default()
    };
    let trace = FlowTrace::new(vec![Flow {
        id: 0,
        src: 3,
        dst: 77,
        bytes: 1_000_000_000,
        arrival: 0,
    }]);
    let cfg = NegotiatorConfig::paper_default(net);
    let (mut sim, built) = allocated_by(|| NegotiatorSim::new(cfg, TopologyKind::Parallel));
    let pairs = n_tors * n_tors;
    assert!(
        built <= 36 * pairs,
        "construction allocated {built} B, {} B per pair",
        built / pairs
    );
    let epoch = sim.epoch_len();
    sim.run(&trace, 20 * epoch);
    assert_eq!(
        sim.match_recorder().len(),
        20,
        "the run must play 20 epochs"
    );
    assert!(sim.stats().piggyback_packets > 0, "the elephant must move");
}

/// A nearly idle 1024 × 8 negotiator, built and run for 20 epochs, with
/// and without 5 % of its links failing at epoch 15. The failure makes the
/// remaining epochs look at every connection (the visit counter says so),
/// and costs under 8 MB of allocation on top of the healthy run's: the
/// per-rotation connection lists those epochs used to build were
/// 8 × 128 × 8,192 × 12 B = 100 MB.
#[test]
fn observed_epochs_allocate_no_schedule_table() {
    let net = NetworkConfig {
        n_tors: 1024,
        ..NetworkConfig::paper_default()
    };
    let trace = FlowTrace::new(vec![Flow {
        id: 0,
        src: 3,
        dst: 77,
        bytes: 1_000_000_000,
        arrival: 0,
    }]);
    let run = |fail: bool| {
        allocated_by(|| {
            let cfg = NegotiatorConfig::paper_default(net.clone());
            let mut sim = NegotiatorSim::new(cfg, TopologyKind::Parallel);
            let epoch = sim.epoch_len();
            if fail {
                let action = FaultAction::FailRandom {
                    ratio: 0.05,
                    seed: 9,
                };
                sim.schedule_fault(15 * epoch, action);
            }
            sim.run(&trace, 20 * epoch);
            sim.stats().predefined_conns_visited
        })
    };
    let (healthy_visits, healthy_bytes) = run(false);
    let (failed_visits, failed_bytes) = run(true);
    let dense_epoch = (net.n_tors * (net.n_tors - 1)) as u64;
    assert!(healthy_visits < dense_epoch && failed_visits >= 5 * dense_epoch);
    assert!(
        failed_bytes < healthy_bytes + (8 << 20),
        "observing a failure allocated {} MB beyond the healthy run's {} MB",
        failed_bytes.saturating_sub(healthy_bytes) >> 20,
        healthy_bytes >> 20
    );
}

/// One trace confined to ToRs 0..64, played on a 256- and a 1024-ToR
/// fabric. Both counters must stay under a bound stated in activity terms
/// only — requests, piggybacked packets, flows; no `n` — which a scan of
/// every pair would break by far more than 10× at 1024 ToRs.
///
/// Why the bounds hold on a healthy base-mode run: REQUEST looks at a pair
/// only while its queue is non-empty, and such a pair either requests or
/// (at or under the threshold) has a packet piggybacked that same epoch.
/// A predefined visit either leaves the pair live — it piggybacked (one
/// packet) or still carries grants (a granted pair requested the epoch
/// before) — or finds nothing left and retires the connection until the
/// next mark, and a mark takes a flow arriving at an empty queue or,
/// again, a granted pair.
#[test]
fn pair_visits_track_activity_not_fabric_size() {
    const DURATION: u64 = 200_000;
    let trace = PoissonWorkload::new(WorkloadSpec {
        dist: FlowSizeDist::hadoop(),
        load: 0.5,
        n_tors: 64,
        host_bps: 400_000_000_000,
    })
    .generate(DURATION, 17);
    assert!(trace.len() > 100, "the trace must exercise the fabric");
    for n_tors in [256usize, 1024] {
        let net = NetworkConfig {
            n_tors,
            ..NetworkConfig::paper_default()
        };
        let mut sim =
            NegotiatorSim::new(NegotiatorConfig::paper_default(net), TopologyKind::Parallel);
        sim.run(&trace, DURATION);
        let st = *sim.stats();
        let epochs = sim.match_recorder().len() as u64;
        assert!(st.requests_sent > 0 && st.piggyback_packets > 0 && st.grants_issued > 0);

        let request_bound = st.requests_sent + st.piggyback_packets;
        assert!(
            st.request_pairs_scanned <= request_bound,
            "{n_tors} ToRs: REQUEST scanned {} pairs for {} requests + {} piggybacked packets",
            st.request_pairs_scanned,
            st.requests_sent,
            st.piggyback_packets
        );
        let predefined_bound = st.piggyback_packets + trace.len() as u64 + 2 * st.requests_sent;
        assert!(
            st.predefined_conns_visited <= predefined_bound,
            "{n_tors} ToRs: the predefined phase visited {} connections; activity allows {}",
            st.predefined_conns_visited,
            predefined_bound
        );
        // What a pass over every pair costs.
        let dense = epochs * (n_tors * (n_tors - 1)) as u64;
        if n_tors == 1024 {
            assert!(
                dense > 10 * request_bound && dense > 10 * predefined_bound,
                "the bounds must separate live-pair visits from a dense scan ({dense})"
            );
        }
    }
}

/// GRANT looks at each request once: a dense all-to-all, every pair
/// backlogged so that every pair requests every epoch, on 32 × 8 parallel
/// and thin-clos. On a healthy fabric the candidates GRANT scans are the
/// requests sent but the last epoch's, which are still in flight; a scan
/// of the requests per port was `S ×` that. With one egress link excluded
/// by the detector, every sweep pick that lands on it sends the shared
/// ring's remaining ports to the per-port scan, and the counter shows it.
/// (On thin-clos the exclusion covers the one port its pairs' requests
/// ride, so no request it could refuse arrives.)
#[test]
fn grant_scans_each_request_once() {
    let net = NetworkConfig {
        n_tors: 32,
        ..NetworkConfig::paper_default()
    };
    let n = net.n_tors;
    let flows: Vec<Flow> = (0..n * n)
        .filter(|i| i / n != i % n)
        .enumerate()
        .map(|(id, i)| Flow {
            id: id as u64,
            src: i / n,
            dst: i % n,
            bytes: 1_000_000_000,
            arrival: 0,
        })
        .collect();
    let trace = FlowTrace::new(flows);
    let pairs = (n * (n - 1)) as u64;
    let run = |kind: TopologyKind, fail: bool| {
        let mut sim = NegotiatorSim::new(NegotiatorConfig::paper_default(net.clone()), kind);
        let epoch = sim.epoch_len();
        if fail {
            let action = FaultAction::FailLink {
                tor: 5,
                port: 3,
                dir: LinkDir::Egress,
            };
            sim.schedule_fault(0, action);
        }
        sim.run(&trace, 100 * epoch);
        *sim.stats()
    };
    for kind in [TopologyKind::Parallel, TopologyKind::ThinClos] {
        let st = run(kind, false);
        assert_eq!(
            st.requests_sent,
            100 * pairs,
            "{kind:?}: every pair requests"
        );
        assert!(
            st.grant_candidates_scanned <= st.requests_sent
                && st.grant_candidates_scanned + pairs >= st.requests_sent,
            "{kind:?}: GRANT scanned {} candidates for {} requests",
            st.grant_candidates_scanned,
            st.requests_sent
        );
    }
    let st = run(TopologyKind::Parallel, true);
    assert!(
        st.grant_candidates_scanned > st.requests_sent,
        "the fallback scans must count ({} candidates, {} requests)",
        st.grant_candidates_scanned,
        st.requests_sent
    );
}

/// A dense all-to-all of 100 kB flows on 32 ToRs × 8 ports, every flow
/// arriving at 0, played 60 epochs on both topologies: the scheduled phase
/// lands one delivery per run, not one per packet.
///
/// Why the bound holds: a matched queue's batch leaves as runs, and a run
/// ends where its segment ends or where the batch runs out of room. The
/// batch splits only at the pair's own mid-phase arrivals, and there are
/// none here, so a run that fills the room is the batch's last. A pair
/// holds one flow, three PIAS segments, so a matched queue lands at most
/// `PRIORITY_LEVELS` runs a phase; and the queues matched in an epoch are
/// at most the ports accepted in it. A packet-by-packet landing needs one
/// delivery per packet — here at least 8× more.
#[test]
fn scheduled_deliveries_track_segments_not_packets() {
    let net = NetworkConfig {
        n_tors: 32,
        n_ports: 8,
        ..NetworkConfig::paper_default()
    };
    let n = net.n_tors;
    let flows: Vec<Flow> = (0..n * n)
        .filter(|i| i / n != i % n)
        .enumerate()
        .map(|(id, i)| Flow {
            id: id as u64,
            src: i / n,
            dst: i % n,
            bytes: 100_000,
            arrival: 0,
        })
        .collect();
    let trace = FlowTrace::new(flows);
    for kind in [TopologyKind::Parallel, TopologyKind::ThinClos] {
        let mut sim = NegotiatorSim::new(NegotiatorConfig::paper_default(net.clone()), kind);
        let epoch = sim.epoch_len();
        sim.run(&trace, 60 * epoch);
        let st = *sim.stats();
        let bound = st.accepts_made * PRIORITY_LEVELS as u64;
        assert!(
            st.scheduled_deliveries > 0 && st.scheduled_deliveries <= bound,
            "{kind:?}: {} deliveries over the bound {bound}",
            st.scheduled_deliveries
        );
        assert!(
            8 * st.scheduled_deliveries <= st.scheduled_packets,
            "{kind:?}: {} deliveries for {} packets",
            st.scheduled_deliveries,
            st.scheduled_packets
        );
    }
}

/// A saturated base-mode all-to-all — every pair of 32 × 8 parallel holds
/// a 1 GB flow from time 0 — at one worker, played for 200 and for 400
/// epochs: once its buffers have warmed up an epoch allocates nothing, so
/// both runs allocate the same bytes but for the match-ratio record's one
/// entry an epoch (measured by recording as many into a recorder of the
/// test's own). Handing each phase's shards their windows in `Vec`s made
/// 28 allocations an epoch. Debug builds audit every queue at each epoch
/// start, into scratch kept between audits, so they are held to it too.
#[test]
fn steady_state_epochs_allocate_nothing() {
    let net = NetworkConfig {
        n_tors: 32,
        ..NetworkConfig::paper_default()
    };
    let n = net.n_tors;
    let flows: Vec<Flow> = (0..n * n)
        .filter(|i| i / n != i % n)
        .enumerate()
        .map(|(id, i)| Flow {
            id: id as u64,
            src: i / n,
            dst: i % n,
            bytes: 1_000_000_000,
            arrival: 0,
        })
        .collect();
    let trace = FlowTrace::new(flows);
    let run = |epochs: u64| {
        let (ticks, bytes) = allocated_by(|| {
            let opts = SimOptions {
                workers: 1,
                ..SimOptions::default()
            };
            let cfg = NegotiatorConfig::paper_default(net.clone());
            let mut sim = NegotiatorSim::with_options(cfg, TopologyKind::Parallel, opts);
            let epoch = sim.epoch_len();
            sim.run(&trace, epochs * epoch);
            assert_eq!(
                sim.tracker().completed_count(),
                0,
                "the fabric stays saturated"
            );
            sim.match_recorder().len()
        });
        let ((), record) = allocated_by(|| {
            let mut rec = MatchRatioRecorder::new();
            (0..ticks).for_each(|_| rec.record_epoch(0, 0));
        });
        (ticks, bytes - record)
    };
    let ((short, short_bytes), (long, long_bytes)) = (run(200), run(400));
    assert!(long >= short + 200, "{short} and {long} epochs");
    assert_eq!(
        long_bytes,
        short_bytes,
        "{} more epochs allocated {} more bytes",
        long - short,
        long_bytes as i64 - short_bytes as i64
    );
}

/// One incast trace confined to ToRs 0..64 — a 40-to-1 burst of 50 kB
/// flows every 20 µs — played by the rotor on a 128- and a 256-ToR
/// thin-clos fabric. The connections it visits stay under a bound in
/// packets and credit stalls alone, which a pass over all `n · S`
/// connections of every slot breaks more than 8× over.
///
/// Why the bound holds: a visit sends a packet, is stalled by a full relay
/// buffer, or finds the pair's queues empty and retires the connection
/// until the next mark. A mark takes a queue turning non-empty, each such
/// queue goes on to send a packet, and a pair meets over at most two
/// connections a round — two idle visits per packet at the very most.
#[test]
fn rotor_visits_track_packets_not_fabric_size() {
    const DURATION: u64 = 400_000;
    let trace = (0..8u64)
        .map(|burst| {
            IncastWorkload {
                degree: 40,
                flow_bytes: 50_000,
                n_tors: 64,
                start: burst * 20_000,
            }
            .generate(23 + burst)
        })
        .reduce(FlowTrace::merge)
        .expect("eight bursts");
    for n_tors in [128usize, 256] {
        let net = NetworkConfig {
            n_tors,
            ..NetworkConfig::paper_default()
        };
        let ports = net.n_ports;
        let mut sim =
            ObliviousSim::new(ObliviousConfig::paper_default(net), TopologyKind::ThinClos);
        let slot_len = sim.slot_len();
        let report = sim.run(&trace, DURATION);
        assert_eq!(
            report.all.completed,
            trace.len(),
            "{n_tors} ToRs: the bursts must drain"
        );
        let st = sim.stats();
        assert!(
            st.packets_sent > 10_000,
            "the trace must exercise the fabric"
        );
        let bound = 3 * st.packets_sent + st.credit_blocked;
        assert!(
            st.conns_visited <= bound,
            "{n_tors} ToRs: the rotor visited {} connections for {} packets and {} credit stalls",
            st.conns_visited,
            st.packets_sent,
            st.credit_blocked
        );
        // What a pass over every connection costs, over the slots the run
        // cannot have done without: those up to the last completion.
        let last_done = (0..trace.len() as u64)
            .filter_map(|id| sim.tracker().completion(id))
            .max()
            .expect("flows completed");
        let dense = last_done / slot_len * (n_tors * ports) as u64;
        assert!(
            dense > 8 * bound,
            "{n_tors} ToRs: the bound ({bound}) must separate live-lane visits from a dense walk ({dense})"
        );
    }
}

/// Compiling and hashing a 1024-ToR scenario of four all-to-all shuffles
/// (4.2 M flows, ~170 MB as a trace) allocates under 1 MB: the cached path
/// — parse, compile, hash, look up — never makes a flow. On 64 ToRs the
/// first read of the trace makes it, once: a clone taken before that read
/// finds it made and allocates nothing.
#[test]
fn naming_a_run_allocates_for_its_spec_not_its_flows() {
    let all_to_all = |tors: usize, shuffles: usize| {
        let phases: Vec<String> = (0..shuffles)
            .map(|i| {
                format!(
                    r#"{{"workload": "all_to_all", "flow_bytes": 1000, "epochs": [{}, {}]}}"#,
                    i * 10,
                    (i + 1) * 10
                )
            })
            .collect();
        format!(
            r#"{{"name": "named", "topology": "parallel", "tors": {tors}, "ports": 8,
                "engines": ["negotiator"], "phases": [{}]}}"#,
            phases.join(", ")
        )
    };
    let text = all_to_all(1024, 4);
    let (hash, bytes) = allocated_by(|| {
        compile(parse_scenario(&text).unwrap(), Path::new("."))
            .unwrap()
            .content_hash()
    });
    assert_ne!(hash, 0);
    assert!(
        bytes < 1 << 20,
        "compile + content_hash of a 1024-ToR scenario allocated {bytes} B"
    );

    let first = compile(parse_scenario(&all_to_all(64, 1)).unwrap(), Path::new(".")).unwrap();
    let second = first.clone();
    first.content_hash();
    let flow_bytes = 64 * 63 * std::mem::size_of::<Flow>();
    let (flows, made) = allocated_by(|| first.trace.len());
    assert_eq!(flows, 64 * 63);
    assert!(
        made >= flow_bytes,
        "the first read must make the {flow_bytes} B trace, allocated {made} B"
    );
    let (flows, again) = allocated_by(|| second.trace.len() + first.trace.len());
    assert_eq!(flows, 2 * 64 * 63);
    assert_eq!(again, 0, "a clone's first read must find the trace made");
}
