//! The rotor + VLB engine.
//!
//! Time is a sequence of identical timeslots; in slot `t` the fabric is
//! configured to round-robin match `t mod R` (same pattern functions as
//! NegotiaToR's predefined phase), so every ToR pair connects once per
//! round of `R` slots per port. There is no control plane: each ToR just
//! transmits whatever it has queued for the neighbor the rotor currently
//! offers.
//!
//! Valiant Load Balancing: arriving data is *sprayed* across intermediates.
//! Mice-level bytes (PIAS levels 0/1) are bound per packet to a uniformly
//! random intermediate; bulk bytes (level 2) are bound per bundle of
//! [`ObliviousConfig`]`::bundle_chunks` packets. A chunk reaching its
//! intermediate is queued in that ToR's per-final-destination relay FIFO —
//! *no priority there* (§4.1: prioritization applies at sources only),
//! which is how relayed elephants end up blocking mice in the middle of
//! the network.
//!
//! Congestion control (the paper notes traffic-oblivious designs need one
//! "to avoid buffer overflow at intermediate ToRs"): relay buffers are
//! shallow and per-pair; a source withholds first-hop traffic toward an
//! intermediate whose buffer for that final destination is full. The
//! resulting head-of-line stalls and wasted slots are precisely the
//! "relayed traffic competes for bandwidth" degradation of §2.
//!
//! Within a slot a source serves, in order: bound mice packets for this
//! neighbor, then alternates between second-hop relay forwarding and
//! first-hop bulk injection — FIFO-fair competition between the two hops,
//! which is what caps heavy-load goodput near the worst case.

use crate::config::ObliviousConfig;
use metrics::{EpochEngine, FlowTracker, PhaseCounters, RunFrame, RunReport};
use sim::time::Nanos;
use sim::{BandwidthSeries, Xoshiro256};
use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};
use topology::{AnyTopology, PredefinedCache, Topology, TopologyKind};
use workload::{Flow, FlowTrace};

/// A data unit bound to a VLB intermediate, waiting at the source.
#[derive(Debug, Clone, Copy)]
struct BoundSeg {
    flow: u64,
    final_dst: u32,
    bytes: u32,
}

/// A chunk in flight on its first hop.
#[derive(Debug, Clone, Copy)]
struct Inflight {
    to: u32,
    final_dst: u32,
    flow: u64,
    bytes: u32,
}

/// Recording options for the baseline.
#[derive(Debug, Clone, Default)]
pub struct ObliviousRecording {
    /// Per-destination final-delivery bandwidth series window.
    pub rx_window: Option<Nanos>,
    /// Per-destination transit (first-hop arrivals) series window —
    /// Figure 18's light-grey dots.
    pub transit_window: Option<Nanos>,
}

/// The traffic-oblivious simulator.
pub struct ObliviousSim {
    cfg: ObliviousConfig,
    n: usize,
    round: usize,
    payload: u64,
    slot_len: Nanos,

    /// Per (src, via): three priority FIFOs of bound segments
    /// (levels 0/1 mice spray, level 2 bulk bundles; without PQ only
    /// level 2 is used).
    bound: Vec<[VecDeque<BoundSeg>; 3]>,
    /// Per (intermediate, final): relay forwarding FIFO of (flow, bytes).
    relay: Vec<VecDeque<(u64, u32)>>,
    /// Per (intermediate, final): queued + in-flight relay bytes, checked
    /// by the sender-side admission control (credits).
    relay_claim: Vec<u64>,
    /// Alternation bit per (src, via): relay-first vs inject-first.
    alt: Vec<bool>,
    /// First-hop chunks in flight, indexed by arrival slot.
    inflight: Vec<Vec<Inflight>>,
    /// Cached rotor schedule (one rotation; the rotor never rotates its
    /// round-robin rule).
    cache: PredefinedCache,
    /// Reused landing buffer, swapped against the in-flight ring slots.
    landing: Vec<Inflight>,

    /// The run state and loop shared with the negotiator engine. The
    /// rotor has no failure detection — a down link simply wastes its
    /// slots (data stays queued at the sender), the §2 degradation
    /// scenario timelines exercise — and no control plane, so of the fault
    /// families only the link-state ones (flap, partition) have any
    /// effect, and its trace carries `phase`, `fault` and flow-span events
    /// only.
    frame: RunFrame,

    rx_final: Vec<BandwidthSeries>,
    rx_transit: Vec<BandwidthSeries>,
    rng: Xoshiro256,
}

impl Deref for ObliviousSim {
    type Target = RunFrame;
    fn deref(&self) -> &RunFrame {
        &self.frame
    }
}

impl DerefMut for ObliviousSim {
    fn deref_mut(&mut self) -> &mut RunFrame {
        &mut self.frame
    }
}

impl ObliviousSim {
    /// Build the baseline over `cfg` on `kind` (the paper runs it on
    /// thin-clos; performance is identical on the parallel network).
    pub fn new(cfg: ObliviousConfig, kind: TopologyKind) -> Self {
        Self::with_recording(cfg, kind, ObliviousRecording::default())
    }

    /// Build with bandwidth-series recording enabled.
    pub fn with_recording(
        cfg: ObliviousConfig,
        kind: TopologyKind,
        rec: ObliviousRecording,
    ) -> Self {
        let topo = AnyTopology::build(kind, cfg.net.clone());
        let n = cfg.net.n_tors;
        let round = topo.predefined_slots();
        let slot_len = cfg.slot_len();
        // Ring buffer deep enough for transmission + propagation.
        let depth = 2 + ((cfg.net.propagation_delay + slot_len) / slot_len) as usize;
        ObliviousSim {
            n,
            round,
            payload: cfg.payload(),
            slot_len,
            bound: (0..n * n).map(|_| Default::default()).collect(),
            relay: vec![VecDeque::new(); n * n],
            relay_claim: vec![0; n * n],
            alt: vec![false; n * n],
            inflight: vec![Vec::new(); depth],
            cache: PredefinedCache::build(&topo),
            landing: Vec::new(),
            frame: RunFrame::new(&cfg.net),
            rx_final: match rec.rx_window {
                Some(w) => (0..n).map(|_| BandwidthSeries::new(w)).collect(),
                None => Vec::new(),
            },
            rx_transit: match rec.transit_window {
                Some(w) => (0..n).map(|_| BandwidthSeries::new(w)).collect(),
                None => Vec::new(),
            },
            rng: Xoshiro256::new(cfg.seed),
            cfg,
        }
    }

    /// Slot length in ns.
    pub fn slot_len(&self) -> Nanos {
        self.slot_len
    }

    /// One all-to-all rotor round in ns.
    pub fn round_len(&self) -> Nanos {
        self.round as Nanos * self.slot_len
    }

    /// Final-delivery bandwidth series of `dst` (requires recording).
    pub fn rx_final(&self, dst: usize) -> Option<&BandwidthSeries> {
        self.rx_final.get(dst)
    }

    /// Transit-arrival bandwidth series of `dst` (requires recording).
    pub fn rx_transit(&self, dst: usize) -> Option<&BandwidthSeries> {
        self.rx_transit.get(dst)
    }

    /// Pick a uniform random intermediate other than `src` (the final
    /// destination is allowed — that fraction is effectively direct).
    fn pick_via(&mut self, src: usize) -> usize {
        let mut via = self.rng.index(self.n - 1);
        if via >= src {
            via += 1;
        }
        via
    }

    fn enqueue_flow(&mut self, flow: u64, src: usize, dst: usize, bytes: u64) {
        let payload = self.payload;
        if self.cfg.priority_queues {
            let th = self.cfg.pias_thresholds();
            // Level 0: first KB, sprayed per packet.
            let mut l0 = bytes.min(th[0]);
            while l0 > 0 {
                let take = l0.min(payload);
                let via = self.pick_via(src);
                self.bound[src * self.n + via][0].push_back(BoundSeg {
                    flow,
                    final_dst: dst as u32,
                    bytes: take as u32,
                });
                l0 -= take;
            }
            // Level 1: next 9 KB, sprayed per packet.
            let mut l1 = bytes.saturating_sub(th[0]).min(th[1] - th[0]);
            while l1 > 0 {
                let take = l1.min(payload);
                let via = self.pick_via(src);
                self.bound[src * self.n + via][1].push_back(BoundSeg {
                    flow,
                    final_dst: dst as u32,
                    bytes: take as u32,
                });
                l1 -= take;
            }
            // Level 2: the bulk, sprayed per bundle.
            let bundle = payload * self.cfg.bundle_chunks as u64;
            let mut l2 = bytes.saturating_sub(th[1]);
            while l2 > 0 {
                let take = l2.min(bundle);
                let via = self.pick_via(src);
                self.bound[src * self.n + via][2].push_back(BoundSeg {
                    flow,
                    final_dst: dst as u32,
                    bytes: take as u32,
                });
                l2 -= take;
            }
        } else {
            // No PQ: plain FIFO bundles.
            let bundle = payload * self.cfg.bundle_chunks as u64;
            let mut rest = bytes;
            while rest > 0 {
                let take = rest.min(bundle);
                let via = self.pick_via(src);
                self.bound[src * self.n + via][2].push_back(BoundSeg {
                    flow,
                    final_dst: dst as u32,
                    bytes: take as u32,
                });
                rest -= take;
            }
        }
    }

    /// Play `trace` for `duration` ns and report.
    pub fn run(&mut self, trace: &FlowTrace, duration: Nanos) -> RunReport {
        metrics::frame::run(self, trace, duration)
    }

    /// Transmit at most one packet on the rotor connection `src → via`.
    fn serve_slot(
        &mut self,
        src: usize,
        via: usize,
        arrive: Nanos,
        arrive_slot: usize,
        per_pair_cap: u64,
        tracker: &mut FlowTracker,
    ) {
        let pair = src * self.n + via;
        // 1. Bound mice packets for this neighbor (levels 0, then 1).
        for level in 0..2 {
            if let Some(&seg) = self.bound[pair][level].front() {
                // Mice ignore the relay cap: their volume is negligible and
                // Sirius-style flow control reserves headroom for them.
                self.bound[pair][level].pop_front();
                self.send_hop1(src, via, seg, arrive, arrive_slot, tracker);
                return;
            }
        }
        // 2. Alternate second-hop forwarding with first-hop bulk injection.
        let relay_first = self.alt[pair];
        for attempt in 0..2 {
            let do_relay = relay_first ^ (attempt == 1);
            if do_relay {
                if let Some((flow, bytes)) = self.relay[pair].pop_front() {
                    self.relay_claim[pair] = self.relay_claim[pair].saturating_sub(bytes as u64);
                    self.deliver_final(via, flow, bytes as u64, arrive, tracker);
                    self.alt[pair] = false; // injection's turn next
                    return;
                }
            } else {
                // First-hop bulk injection, subject to the relay credit of
                // the (via, final) buffer.
                if let Some(&seg) = self.bound[pair][2].front() {
                    let rc = via * self.n + seg.final_dst as usize;
                    let direct = seg.final_dst as usize == via;
                    if direct || self.relay_claim[rc] + self.payload <= per_pair_cap {
                        // Send one packet off the head segment.
                        let take = (seg.bytes as u64).min(self.payload) as u32;
                        {
                            let head = self.bound[pair][2].front_mut().unwrap();
                            head.bytes -= take;
                            if head.bytes == 0 {
                                self.bound[pair][2].pop_front();
                            }
                        }
                        let chunk = BoundSeg {
                            flow: seg.flow,
                            final_dst: seg.final_dst,
                            bytes: take,
                        };
                        self.send_hop1(src, via, chunk, arrive, arrive_slot, tracker);
                        self.alt[pair] = true; // relay's turn next
                        return;
                    }
                    // Head-of-line blocked by a full relay buffer: fall
                    // through to the other side of the alternation.
                }
            }
        }
        // Slot wasted — rotor quantization at work.
    }

    fn send_hop1(
        &mut self,
        _src: usize,
        via: usize,
        seg: BoundSeg,
        arrive: Nanos,
        arrive_slot: usize,
        tracker: &mut FlowTracker,
    ) {
        if seg.final_dst as usize == via {
            // The random intermediate happened to be the destination:
            // effectively a direct one-hop delivery.
            self.deliver_final(via, seg.flow, seg.bytes as u64, arrive, tracker);
            return;
        }
        self.relay_claim[via * self.n + seg.final_dst as usize] += seg.bytes as u64;
        self.inflight[arrive_slot].push(Inflight {
            to: via as u32,
            final_dst: seg.final_dst,
            flow: seg.flow,
            bytes: seg.bytes,
        });
    }

    fn deliver_final(
        &mut self,
        dst: usize,
        flow: u64,
        bytes: u64,
        at: Nanos,
        tracker: &mut FlowTracker,
    ) {
        tracker.deliver(flow, bytes, at);
        if let Some(series) = self.rx_final.get_mut(dst) {
            series.record(at, bytes);
        }
    }
}

impl EpochEngine for ObliviousSim {
    /// One rotor timeslot.
    fn tick_len(&self) -> Nanos {
        self.slot_len
    }

    /// Backlog covers bound segments at sources and relay FIFOs at
    /// intermediates; grants and accepts stay zero — the rotor never
    /// negotiates.
    fn phase_counters(&self) -> PhaseCounters {
        let bound: u64 = self
            .bound
            .iter()
            .flat_map(|levels| levels.iter())
            .flat_map(|q| q.iter())
            .map(|seg| seg.bytes as u64)
            .sum();
        let relay: u64 = self
            .relay
            .iter()
            .flat_map(|q| q.iter())
            .map(|&(_, bytes)| bytes as u64)
            .sum();
        PhaseCounters {
            backlog_bytes: bound + relay,
            ..PhaseCounters::default()
        }
    }

    // lint: hot-path
    fn tick(
        &mut self,
        t: u64,
        now: Nanos,
        flows: &[Flow],
        mut cursor: usize,
        tracker: &mut FlowTracker,
    ) -> usize {
        let depth = self.inflight.len();
        let prop = self.cfg.net.propagation_delay;
        let per_pair_cap = self.cfg.relay_pair_packets as u64 * self.payload;
        // Inject flows due by this slot.
        while cursor < flows.len() && flows[cursor].arrival <= now {
            let f = flows[cursor];
            self.enqueue_flow(f.id, f.src, f.dst, f.bytes);
            cursor += 1;
        }
        // Land first-hop chunks whose flight ends at this slot (the
        // landing buffer is swapped, not reallocated, each slot).
        let mut landing = std::mem::take(&mut self.landing);
        landing.clear();
        std::mem::swap(&mut landing, &mut self.inflight[(t as usize) % depth]);
        for c in &landing {
            let (to, d) = (c.to as usize, c.final_dst as usize);
            self.relay[to * self.n + d].push_back((c.flow, c.bytes));
            if let Some(series) = self.rx_transit.get_mut(to) {
                series.record(now, c.bytes as u64);
            }
        }
        landing.clear();
        self.landing = landing;

        let arrive = now + self.slot_len + prop;
        let arrive_slot =
            (t as usize + (self.slot_len + prop).div_ceil(self.slot_len) as usize) % depth;
        let slot = (t % self.round as u64) as usize;
        let cache = std::mem::take(&mut self.cache);
        let any_failed = !self.frame.failures.healthy();
        for conn in cache.slot_conns(0, slot) {
            let (src, via) = (conn.src as usize, conn.dst as usize);
            // A down fiber silently wastes the slot; the rotor has no
            // feedback channel to learn about it.
            if any_failed && !self.frame.failures.link_up(src, via, conn.port as usize) {
                continue;
            }
            self.serve_slot(src, via, arrive, arrive_slot, per_pair_cap, tracker);
        }
        self.cache = cache;
        cursor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::NetworkConfig;
    use workload::{Flow, FlowTrace, IncastWorkload};

    fn small_cfg() -> ObliviousConfig {
        ObliviousConfig::paper_default(NetworkConfig::small_for_tests())
    }

    fn single_flow(bytes: u64) -> FlowTrace {
        FlowTrace::new(vec![Flow {
            id: 0,
            src: 0,
            dst: 5,
            bytes,
            arrival: 0,
        }])
    }

    #[test]
    fn mice_flow_takes_two_hops() {
        let mut s = ObliviousSim::new(small_cfg(), TopologyKind::ThinClos);
        let round = s.round_len();
        let prop = 2_000;
        s.run(&single_flow(500), 1_000_000);
        let fct = s.tracker().fct(0).expect("must complete");
        // Two propagation delays are unavoidable; two round waits bound it.
        assert!(fct >= 2 * prop, "fct {fct} must include two hops");
        assert!(fct <= 2 * (round + prop) + 10_000, "fct {fct} too slow");
    }

    #[test]
    fn elephant_completes() {
        for kind in [TopologyKind::ThinClos, TopologyKind::Parallel] {
            let mut s = ObliviousSim::new(small_cfg(), kind);
            let r = s.run(&single_flow(500_000), 10_000_000);
            assert_eq!(r.all.completed, 1, "{kind:?}");
        }
    }

    #[test]
    fn incast_grows_mildly_with_degree() {
        let finish = |degree: usize| {
            let trace = IncastWorkload {
                degree,
                flow_bytes: 1_000,
                n_tors: 16,
                start: 10_000,
            }
            .generate(3);
            let mut s = ObliviousSim::new(small_cfg(), TopologyKind::ThinClos);
            s.run(&trace, 5_000_000);
            RunReport::burst_finish_time(&trace, s.tracker()).expect("completes")
        };
        let f2 = finish(2);
        let f14 = finish(14);
        assert!(f14 >= f2, "more senders cannot finish faster");
    }

    #[test]
    fn deterministic_per_seed() {
        let trace = single_flow(50_000);
        let fct = |seed: u64| {
            let mut cfg = small_cfg();
            cfg.seed = seed;
            let mut s = ObliviousSim::new(cfg, TopologyKind::ThinClos);
            s.run(&trace, 5_000_000);
            s.tracker().fct(0)
        };
        assert_eq!(fct(4), fct(4));
    }

    #[test]
    fn no_pq_blocks_mice_behind_elephants() {
        // Same trace with and without PQ: an elephant enqueued just before
        // a mice flow to the same destination.
        let trace = FlowTrace::new(vec![
            Flow {
                id: 0,
                src: 0,
                dst: 5,
                bytes: 3_000_000,
                arrival: 0,
            },
            Flow {
                id: 1,
                src: 0,
                dst: 5,
                bytes: 500,
                arrival: 100,
            },
        ]);
        let run = |pq: bool| {
            let mut cfg = small_cfg();
            cfg.priority_queues = pq;
            let mut s = ObliviousSim::new(cfg, TopologyKind::ThinClos);
            s.run(&trace, 100_000_000);
            s.tracker().fct(1).expect("mice must finish")
        };
        let with_pq = run(true);
        let without_pq = run(false);
        assert!(
            without_pq > 2 * with_pq,
            "PQ should protect mice: with {with_pq}, without {without_pq}"
        );
    }

    #[test]
    fn relay_credit_is_conserved() {
        // After everything drains, all claims must return to zero.
        let trace = single_flow(200_000);
        let mut s = ObliviousSim::new(small_cfg(), TopologyKind::ThinClos);
        s.run(&trace, 50_000_000);
        assert_eq!(s.tracker().completed_count(), 1);
        assert!(s.relay_claim.iter().all(|&c| c == 0), "claims leaked");
        assert!(s.relay.iter().all(|q| q.is_empty()));
    }

    #[test]
    fn transit_series_sees_relay_traffic() {
        let mut s = ObliviousSim::with_recording(
            small_cfg(),
            TopologyKind::ThinClos,
            ObliviousRecording {
                rx_window: Some(10_000),
                transit_window: Some(10_000),
            },
        );
        s.run(&single_flow(100_000), 20_000_000);
        let transit_total: u64 = (0..16)
            .map(|d| {
                s.rx_transit(d)
                    .unwrap()
                    .bytes_per_window()
                    .iter()
                    .sum::<u64>()
            })
            .sum();
        assert!(transit_total > 0, "VLB must generate transit traffic");
        let final_total: u64 = (0..16)
            .map(|d| {
                s.rx_final(d)
                    .unwrap()
                    .bytes_per_window()
                    .iter()
                    .sum::<u64>()
            })
            .sum();
        assert_eq!(final_total, 100_000);
    }
}

#[cfg(test)]
mod topology_equivalence_tests {
    use super::*;
    use topology::NetworkConfig;
    use workload::{FlowSizeDist, PoissonWorkload, WorkloadSpec};

    /// §4.1: "Its relay-enabled round-robin scheduling cannot utilize the
    /// sufficient connectivity of the parallel networks, resulting in
    /// identical performance on both topologies." The rotor schedule and
    /// VLB spreading see only neighbor sequences, so the two topologies
    /// should deliver near-identical aggregate results.
    #[test]
    fn baseline_performs_alike_on_both_topologies() {
        let duration = 400_000;
        let trace = PoissonWorkload::new(WorkloadSpec {
            dist: FlowSizeDist::hadoop(),
            load: 0.8,
            n_tors: 16,
            host_bps: 200_000_000_000,
        })
        .generate(duration, 31);
        let run = |kind: TopologyKind| {
            let mut s = ObliviousSim::new(
                ObliviousConfig::paper_default(NetworkConfig::small_for_tests()),
                kind,
            );
            let r = s.run(&trace, duration);
            r.goodput.delivered_bytes
        };
        let thin = run(TopologyKind::ThinClos) as f64;
        let par = run(TopologyKind::Parallel) as f64;
        let ratio = par / thin;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "goodput should match across topologies: parallel/thin = {ratio:.3}"
        );
    }
}
