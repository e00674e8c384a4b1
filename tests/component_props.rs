//! Property tests for the stateful components below the engines: the
//! PIAS queue, the pair-list store as the rotor uses it, the fault
//! detector, the link-failure ground truth, the flow-size distributions and
//! the bandwidth series.

use negotiator::fault::{FaultDetector, DETECT_EPOCHS};
use negotiator::queues::{Packet, PairQueues, PRIORITY_LEVELS};
use proptest::prelude::*;
use sim::pairs::PairLists;
use sim::{BandwidthSeries, Xoshiro256};
use std::collections::VecDeque;
use topology::failures::{LinkDir, LinkFailures};
use workload::FlowSizeDist;

const TH: [u64; 2] = [1_000, 10_000];
const ELEPHANT: usize = PRIORITY_LEVELS - 1;

/// The obviously right model of one pair's queue, for
/// `store_matches_the_vecdeque_model`: a `VecDeque` of `(flow, bytes,
/// relayed)` segments per level.
#[derive(Default)]
struct ModelQueue {
    levels: [VecDeque<(u64, u64, bool)>; PRIORITY_LEVELS],
}

impl ModelQueue {
    fn enqueue_flow(&mut self, flow: u64, bytes: u64, pias: bool) {
        let bounds = if pias {
            [TH[0], TH[1], u64::MAX]
        } else {
            [u64::MAX; PRIORITY_LEVELS]
        };
        let (mut left, mut from) = (bytes, 0);
        for (level, bound) in bounds.into_iter().enumerate() {
            let take = left.min(bound - from);
            if take > 0 {
                self.levels[level].push_back((flow, take, false));
                left -= take;
            }
            from = bound;
        }
    }

    fn dequeue_level(&mut self, level: usize, cap: u64) -> Option<Packet> {
        let (flow, bytes, relayed) = self.levels[level].front_mut()?;
        let take = (*bytes).min(cap);
        *bytes -= take;
        let packet = Packet {
            flow: *flow,
            bytes: take,
            priority: level,
            relayed: *relayed,
        };
        if *bytes == 0 {
            self.levels[level].pop_front();
        }
        Some(packet)
    }

    fn dequeue(&mut self, cap: u64) -> Option<Packet> {
        (0..PRIORITY_LEVELS).find_map(|level| self.dequeue_level(level, cap))
    }

    /// The packets of the head segment of the highest non-empty level,
    /// `room` at most: what one run dequeue takes.
    fn dequeue_run(&mut self, cap: u64, room: usize) -> Option<Vec<Packet>> {
        let level = (0..PRIORITY_LEVELS).find(|&l| !self.levels[l].is_empty())?;
        let segments = self.levels[level].len();
        let mut run = Vec::new();
        while run.len() < room && self.levels[level].len() == segments {
            run.extend(self.dequeue_level(level, cap));
        }
        Some(run)
    }

    fn segments(&self) -> usize {
        self.levels.iter().map(VecDeque::len).sum()
    }

    /// The pair of the store holds exactly what the model holds.
    fn assert_mirrored_by(&self, store: &PairQueues, dst: usize) {
        let view = store.pair(0, dst);
        let sum = |level: usize, relayed_only: bool| -> u64 {
            let segments = self.levels[level].iter();
            segments.filter(|s| s.2 || !relayed_only).map(|s| s.1).sum()
        };
        for level in 0..PRIORITY_LEVELS {
            assert_eq!(view.level_bytes(level), sum(level, false), "level {level}");
        }
        assert_eq!(view.relayed_bytes(), sum(ELEPHANT, true));
        assert_eq!(
            view.elephant_backlog(),
            sum(ELEPHANT, false) - sum(ELEPHANT, true)
        );
        assert_eq!(view.is_empty(), self.segments() == 0);
    }
}

/// A segment as the oblivious rotor queues it (24 B a slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RotorSeg {
    flow: u64,
    final_dst: u32,
    bytes: u32,
}

/// The rotor's lists per pair: bound levels 0–2, then the relay FIFO.
const ROTOR_LISTS: usize = 4;
const BULK: usize = 2;
const RELAY: usize = 3;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Bytes in equal bytes out, for any enqueue pattern, PIAS on or off,
    /// and any packet size.
    #[test]
    fn destqueue_conserves_bytes(
        flows in prop::collection::vec((1u64..200_000, any::<bool>()), 1..40),
        payload in 1u64..4096,
        pias in any::<bool>(),
    ) {
        let mut q = PairQueues::new(1, 1, false);
        let mut total_in = 0u64;
        for (i, &(bytes, relay)) in flows.iter().enumerate() {
            if relay {
                q.all().enqueue_relay(0, 0, i as u64, bytes, i as u64);
            } else {
                q.all().enqueue_flow(0, 0, i as u64, bytes, i as u64, pias, TH);
            }
            total_in += bytes;
        }
        prop_assert_eq!(q.pair(0, 0).total_bytes(), total_in);
        let mut per_flow = std::collections::BTreeMap::new();
        let mut total_out = 0u64;
        while let Some(p) = q.all().dequeue_packet(0, 0, payload) {
            prop_assert!(p.bytes > 0 && p.bytes <= payload);
            total_out += p.bytes;
            *per_flow.entry(p.flow).or_insert(0u64) += p.bytes;
        }
        prop_assert_eq!(total_out, total_in);
        prop_assert_eq!(q.pair(0, 0).total_bytes(), 0);
        prop_assert_eq!(q.pair(0, 0).relayed_bytes(), 0);
        for (i, &(bytes, _)) in flows.iter().enumerate() {
            prop_assert_eq!(per_flow[&(i as u64)], bytes);
        }
    }

    /// Level-targeted dequeues also conserve and never cross levels.
    #[test]
    fn destqueue_level_dequeues_conserve(
        sizes in prop::collection::vec(1u64..50_000, 1..20),
    ) {
        let mut q = PairQueues::new(1, 1, false);
        let mut total = 0;
        for (i, &b) in sizes.iter().enumerate() {
            q.all().enqueue_flow(0, 0, i as u64, b, 0, true, TH);
            total += b;
        }
        let mut out = 0;
        for level in 0..PRIORITY_LEVELS {
            while let Some(p) = q.all().dequeue_level_packet(0, 0, level, 1_115) {
                prop_assert_eq!(p.priority, level);
                out += p.bytes;
            }
            prop_assert_eq!(q.pair(0, 0).level_bytes(level), 0);
        }
        prop_assert_eq!(out, total);
    }

    /// Random interleavings of the two enqueues and the three dequeues over
    /// four destinations of one source — so the segment nodes one pair
    /// frees are reused by another — beside the `VecDeque` model: the same
    /// packets in the same order, the same per-level and relayed byte sums
    /// after every step, and once drained an arena no larger than the most
    /// segments that were ever queued at once (nothing leaks through the
    /// free list).
    #[test]
    fn store_matches_the_vecdeque_model(
        ops in prop::collection::vec((0u8..6, 0usize..4, 1u64..40_000), 1..200),
        pias in any::<bool>(),
        tracked in any::<bool>(),
    ) {
        const DSTS: usize = 4;
        let mut store = PairQueues::new(1, DSTS, tracked);
        let mut model: Vec<ModelQueue> = (0..DSTS).map(|_| ModelQueue::default()).collect();
        let mut high_water = 0;
        for (step, &(op, dst, size)) in ops.iter().enumerate() {
            let (id, cap) = (step as u64, 1 + size % 2_000);
            let m = &mut model[dst];
            match op {
                0 | 1 => {
                    store.all().enqueue_flow(0, dst, id, size, id, pias, TH);
                    m.enqueue_flow(id, size, pias);
                }
                2 => {
                    store.all().enqueue_relay(0, dst, id, size, id);
                    m.levels[ELEPHANT].push_back((id, size, true));
                }
                3 => prop_assert_eq!(store.all().dequeue_packet(0, dst, cap), m.dequeue(cap)),
                4 => prop_assert_eq!(
                    store.all().dequeue_lowest_packet(0, dst, cap),
                    m.dequeue_level(ELEPHANT, cap)
                ),
                _ => {
                    let room = 1 + (size % 7) as usize;
                    let got = store.all().dequeue_run(0, dst, cap, room);
                    let got: Option<Vec<Packet>> = got.map(|run| run.packets(cap).collect());
                    prop_assert_eq!(got, m.dequeue_run(cap, room));
                }
            }
            high_water = high_water.max(model.iter().map(ModelQueue::segments).sum());
            for (dst, m) in model.iter().enumerate() {
                m.assert_mirrored_by(&store, dst);
            }
            store.audit(0, |_, _| {});
        }
        for (dst, m) in model.iter_mut().enumerate() {
            while let Some(want) = m.dequeue(1_115) {
                prop_assert_eq!(store.all().dequeue_packet(0, dst, 1_115), Some(want));
            }
            prop_assert_eq!(store.all().dequeue_packet(0, dst, 1_115), None);
        }
        store.audit(0, |_, bytes| assert_eq!(bytes, 0));
        prop_assert!(
            store.segments_allocated(0) <= high_water,
            "{} nodes for a high-water mark of {} segments",
            store.segments_allocated(0),
            high_water
        );
    }

    /// The oblivious rotor's use of the pair store — bind pushes at levels
    /// 0–2, landing pushes to the relay list, mice pops, bulk partial takes
    /// (`front_mut`, `bytes -= take`, popped at zero) and relay pops —
    /// interleaved over the four lists of four pairs on each of two ToRs,
    /// beside one `VecDeque` per list. After every step: the same lists
    /// front to back, every push reporting whether its list was empty, a
    /// clean audit of both arenas, and no arena holding more slots than its
    /// row ever had segments queued at once.
    #[test]
    fn rotor_store_matches_the_vecdeque_model(
        ops in prop::collection::vec((0u8..6, 0usize..2, 0usize..4, 1u32..5_000), 1..300),
    ) {
        const ROWS: usize = 2;
        const COLS: usize = 4;
        let mut store = PairLists::<RotorSeg, ROTOR_LISTS>::new(ROWS, COLS);
        let mut model: Vec<[VecDeque<RotorSeg>; ROTOR_LISTS]> =
            (0..ROWS * COLS).map(|_| Default::default()).collect();
        let mut high_water = [0; ROWS];
        for (step, &(op, row, col, size)) in ops.iter().enumerate() {
            let m = &mut model[row * COLS + col];
            let seg = RotorSeg { flow: step as u64, final_dst: size % 7, bytes: size };
            let mut rows = store.all();
            match op {
                0 | 1 => {
                    let level = size as usize % 3;
                    prop_assert_eq!(rows.push_back(row, col, level, seg), m[level].is_empty());
                    m[level].push_back(seg);
                }
                2 => {
                    prop_assert_eq!(rows.push_back(row, col, RELAY, seg), m[RELAY].is_empty());
                    m[RELAY].push_back(seg);
                }
                3 => {
                    let level = size as usize % 2;
                    prop_assert_eq!(rows.pop_front(row, col, level), m[level].pop_front());
                }
                4 => {
                    let take = 1 + size % 1_500;
                    let emptied = match (rows.front_mut(row, col, BULK), m[BULK].front_mut()) {
                        (Some(mut head), Some(want)) => {
                            prop_assert_eq!(*head, *want);
                            let take = head.bytes.min(take);
                            head.bytes -= take;
                            want.bytes -= take;
                            if head.bytes == 0 {
                                head.pop();
                            }
                            want.bytes == 0
                        }
                        (None, None) => false,
                        (head, want) => {
                            panic!("bulk fronts differ: {:?} vs {want:?}", head.map(|h| *h))
                        }
                    };
                    if emptied {
                        m[BULK].pop_front();
                    }
                }
                _ => prop_assert_eq!(rows.pop_front(row, col, RELAY), m[RELAY].pop_front()),
            }
            for (r, water) in high_water.iter_mut().enumerate() {
                let pairs = &model[r * COLS..(r + 1) * COLS];
                let live = pairs.iter().flatten().map(VecDeque::len).sum::<usize>();
                *water = live.max(*water);
                for (c, lists) in pairs.iter().enumerate() {
                    let pair = store.pair(r, c);
                    for (list, want) in lists.iter().enumerate() {
                        let same = pair.iter(list).eq(want.iter());
                        prop_assert!(same, "({}, {}) list {}", r, c, list);
                    }
                    prop_assert_eq!(pair.is_empty(), lists.iter().all(VecDeque::is_empty));
                }
                store.audit(r);
                prop_assert!(
                    store.slots_allocated(r) <= *water,
                    "row {}: {} slots for a high-water mark of {} segments",
                    r,
                    store.slots_allocated(r),
                    *water
                );
            }
        }
    }

    /// The fault detector excludes a link only after `DETECT_EPOCHS`
    /// consecutive misses and re-admits on the first success, whatever
    /// the observation sequence.
    #[test]
    fn detector_tracks_consecutive_misses(observations in prop::collection::vec(any::<bool>(), 1..200)) {
        let mut d = FaultDetector::new(2, 1);
        let mut consecutive_misses = 0u32;
        for &delivered in &observations {
            d.observe_egress(0, 0, delivered);
            consecutive_misses = if delivered { 0 } else { consecutive_misses + 1 };
            prop_assert_eq!(
                d.egress_excluded(0, 0),
                consecutive_misses >= DETECT_EPOCHS,
                "after misses {}", consecutive_misses
            );
        }
    }

    /// Flow-size quantile is the inverse of the CDF within support:
    /// fraction_below(quantile(u)) ≈ u.
    #[test]
    fn dist_quantile_inverts_cdf(u in 0.001f64..0.999, which in 0usize..3) {
        let d = match which {
            0 => FlowSizeDist::hadoop(),
            1 => FlowSizeDist::web_search(),
            _ => FlowSizeDist::google(),
        };
        let x = d.quantile(u) as f64;
        let back = d.fraction_below(x);
        // Rounding to whole bytes costs precision at the tiny end.
        prop_assert!((back - u).abs() < 0.05, "u {} -> x {} -> {}", u, x, back);
    }

    /// Sampling never leaves the distribution's support and the empirical
    /// mice fraction tracks the CDF.
    #[test]
    fn dist_samples_within_support(seed in any::<u64>()) {
        let d = FlowSizeDist::hadoop();
        let mut rng = Xoshiro256::new(seed);
        let n = 2_000;
        let mut mice = 0;
        for _ in 0..n {
            let s = d.sample(&mut rng);
            prop_assert!((1..=10_000_000).contains(&s));
            if s < 10_000 {
                mice += 1;
            }
        }
        let frac = mice as f64 / n as f64;
        let expect = d.fraction_below(10_000.0);
        prop_assert!((frac - expect).abs() < 0.06, "mice {} vs {}", frac, expect);
    }

    /// Failing any random sample and repairing exactly those links
    /// restores a fully healthy fabric, whatever the fabric shape, ratio
    /// or seed.
    #[test]
    fn link_failures_roundtrip_to_healthy(
        tors in 2usize..24,
        ports in 1usize..6,
        ratio in 0.01f64..1.0,
        seed in any::<u64>(),
    ) {
        let mut f = LinkFailures::new(tors, ports);
        let failed = f.fail_random(ratio, &mut Xoshiro256::new(seed));
        prop_assert_eq!(f.failed_count(), failed.len());
        f.repair_all(&failed);
        prop_assert_eq!(f.failed_count(), 0);
        for tor in 0..tors {
            for port in 0..ports {
                prop_assert!(!f.egress_down(tor, port));
                prop_assert!(!f.ingress_down(tor, port));
            }
        }
    }

    /// `fail_random` never yields the same directed link twice, its count
    /// matches the rounded target, and every index is in range.
    #[test]
    fn fail_random_yields_distinct_in_range_links(
        tors in 2usize..24,
        ports in 1usize..6,
        ratio in 0.01f64..1.0,
        seed in any::<u64>(),
    ) {
        let mut f = LinkFailures::new(tors, ports);
        let failed = f.fail_random(ratio, &mut Xoshiro256::new(seed));
        let target = ((2 * tors * ports) as f64 * ratio).round() as usize;
        prop_assert_eq!(failed.len(), target);
        let mut seen = std::collections::BTreeSet::new();
        for &(tor, port, dir) in &failed {
            prop_assert!(tor < tors && port < ports);
            prop_assert!(seen.insert((tor, port, dir)), "duplicate link");
        }
    }

    /// `link_up(src, dst, port)` is exactly "source egress up and
    /// destination ingress up", for any failure pattern.
    #[test]
    fn link_up_agrees_with_per_direction_state(
        fails in prop::collection::vec((0usize..8, 0usize..3, any::<bool>()), 0..30),
    ) {
        let mut f = LinkFailures::new(8, 3);
        for &(tor, port, egress) in &fails {
            f.fail(tor, port, if egress { LinkDir::Egress } else { LinkDir::Ingress });
        }
        for src in 0..8 {
            for dst in 0..8 {
                for port in 0..3 {
                    prop_assert_eq!(
                        f.link_up(src, dst, port),
                        !f.egress_down(src, port) && !f.ingress_down(dst, port),
                        "src {} dst {} port {}", src, dst, port
                    );
                }
            }
        }
    }

    /// Bandwidth series: total bytes recorded equals the sum over windows,
    /// independent of the record pattern.
    #[test]
    fn series_conserves_bytes(
        window in 1u64..10_000,
        events in prop::collection::vec((0u64..1_000_000, 0u64..100_000), 0..50),
    ) {
        let mut s = BandwidthSeries::new(window);
        let mut total = 0u64;
        for &(at, bytes) in &events {
            s.record(at, bytes);
            total += bytes;
        }
        prop_assert_eq!(s.bytes_per_window().iter().sum::<u64>(), total);
    }
}
