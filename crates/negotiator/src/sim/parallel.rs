//! The epoch kernel: ACCEPT, GRANT, REQUEST and the scheduled phase
//! outside selective relay as single passes over the fabric, and the
//! predefined phase, the one body written over contiguous ToR shards and
//! byte-identical at any shard count.
//!
//! # Single passes
//!
//! In NegotiaToR each ToR computes its GRANT and its ACCEPT from the
//! messages it received (§3.2), and its REQUEST from its own queues. Each
//! step is one loop over the ToRs in id order: a ToR's inbox is swapped
//! out, its arbiter run, and its decisions written straight into the
//! engine's tables. The scheduled phase outside relay is one loop over the
//! active-match list ([`NegotiatorSim::scheduled_batched`]). Their
//! buffers are the engine's one [`SimScratch`], reused every epoch.
//!
//! # The sharded predefined phase
//!
//! The predefined phase follows one recipe at any shard count:
//!
//! 1. **Ownership by row.** ToRs are partitioned into contiguous shards
//!    once, at construction ([`sim::shard::partition`]). Each shard
//!    receives disjoint `&mut` windows of the source rows it owns
//!    ([`sim::shard::split_rows`], `SrcQueues::windows`), handed out as
//!    they are taken, so that one shard allocates nothing. The type
//!    system — not a convention — rules out cross-shard writes. Each
//!    shard injects the flows of its own sources, and queues the relay
//!    first hops that land at its own intermediates, from slices every
//!    shard reads.
//! 2. **Effects for everything else.** A write that lands on another
//!    ToR's state — an inbox push, a data delivery — is an [`Event`]
//!    handed to the shard's [`Sink`], in exactly the order a single pass
//!    over rows `0..n` performs them. With one shard nothing runs beside
//!    it, so the sink applies the effect on the spot; with several it
//!    appends the event to the shard's lane. Either way what the effect
//!    *does* is [`Landing::apply`], and nothing else.
//! 3. **Ordered replay.** After the fork/join of several shards the merge
//!    replays lane events on the caller's thread slot-major (events carry
//!    their slot), lanes in shard order within a slot: the visit order of
//!    a single pass. The replayed write sequence is therefore *identical*
//!    to the one-shard one — no commutativity assumptions, no
//!    floating-point reassociation.
//!
//! Shard count moves shard boundaries, never row order, so any
//! `--workers` value produces the same bytes, selective relay included;
//! `tests/determinism.rs`, `tests/adversarial.rs` and the CI
//! `determinism-matrix` job hold the engine to it at 1, 2 and 8, and the
//! golden-report gate pins the bytes. Shard count alone decides
//! apply-now versus lane-and-replay: one shard runs inline on the
//! caller's thread ([`sim::shard::map_shards`]), records nothing and
//! replays nothing. (A [`Lane`] is a shard's merge queue. The *lane
//! masks* the phase walks are something else — bits over the predefined
//! schedule's rotation-invariant connection indices,
//! [`topology::LaneTable`].)
//!
//! # What is not sharded, and why
//!
//! Every per-ToR phase once ran the recipe above, and two workers never
//! beat one. Per-phase wall time of the negotiator runs of
//! `benchmark/workloads/*.json` on a 2-core host, in ms, median of five
//! runs, one worker → two, when every phase sharded:
//!
//! | workload | ACCEPT + GRANT + REQUEST | scheduled | predefined |
//! |---|---|---|---|
//! | `paper_heavy` | 80.8 → 199.0 | 54.3 → 107.5 | 117.2 → 201.5 |
//! | `fabric_light` | 63.1 → 69.2 | 29.0 → 31.6 | 149.0 → 111.8 |
//! | `alltoall_dense` | 276.5 → 559.5 | 82.6 → 244.3 | 831.4 → 1 044.1 |
//! | `incast_storm` | 87.3 → 480.3 | 25.0 → 171.0 | 193.5 → 369.5 |
//!
//! A fork/join per step, plus the plumbing that split the state into
//! windows (28 allocations an epoch at one shard), cost more than a
//! second core returned; only the predefined phase ever broke even. So:
//!
//! * **ACCEPT, GRANT, REQUEST and the batched scheduled phase** run as
//!   the single passes above, at any `--workers`.
//! * **Selective relay's steps** (`sim.rs`): whole-fabric epilogues of
//!   ACCEPT, GRANT and REQUEST, written against claims earlier ToRs left
//!   in the same step. Its scheduled phase walks slot by slot, because a
//!   relayed packet joins another ToR's queue mid-phase, once it has
//!   landed there, and may be forwarded later in the same phase.
//! * **Iterative mode's epoch start**: `IterativeMatcher` is a global
//!   fixed point over all ToRs, not per-ToR work.
//! * **The detector's reading of the dummies** (`observe_epoch`): it sees
//!   each port from both ends, so no row split owns it.
//! * **`rebuild_active_list` and the flag-clearing prologues**: memset-
//!   class scans that cost less than a fork/join.
//!
//! The predefined phase keeps the recipe: it is the phase `--workers`
//! checks, a determinism oracle for the effect replay rather than a
//! speed-up.

use super::*;
use sim::shard;
use std::ops::Range;

/// Per-shard lane of the predefined phase: merge queue and counters.
/// Retained across epochs, so the phase allocates nothing once the merge
/// queues' capacities have warmed up.
#[derive(Debug, Default)]
struct Lane {
    /// Cross-ToR effects awaiting the ordered replay (filled only when
    /// several shards run).
    events: Vec<Event>,
    /// The phase's counters, added into the run's by the merge.
    stats: SchedStats,
}

/// The predefined phase's shards and their lanes, fixed at construction.
#[derive(Debug)]
pub(super) struct ParState {
    shards: Vec<Shard>,
    lanes: Vec<Lane>,
    /// Per-lane replay cursors (the slot-major merge).
    ptrs: Vec<usize>,
}

impl ParState {
    /// `workers` contiguous shards of `n` ToRs (at least one, at most `n`).
    pub(super) fn new(n: usize, workers: usize) -> Self {
        let shards = shard::partition(n, workers);
        ParState {
            lanes: shards.iter().map(|_| Lane::default()).collect(),
            ptrs: vec![0; shards.len()],
            shards,
        }
    }
}

/// A write that lands on another ToR's state. `slot` is the predefined
/// timeslot (predefined phase) or the scheduled slot index `k` (scheduled
/// phase); the arrival time derives from it ([`SlotClock`]).
#[derive(Debug, Clone, Copy)]
pub(super) enum Event {
    /// A REQUEST landing in `inbox_requests[dst]`.
    Req {
        slot: u32,
        dst: u32,
        src: u32,
        value: f64,
        port: u32,
    },
    /// One grant-bucket entry landing in `inbox_grants[dst]`.
    Grant {
        slot: u32,
        dst: u32,
        granter: u32,
        port: u32,
        debit: u64,
    },
    /// A relay request landing in `inbox_relay_req[via]`.
    RelayReq {
        slot: u32,
        via: u32,
        src: u32,
        final_dst: u32,
    },
    /// One relay-grant entry landing in `inbox_relay_grant[dst]`.
    RelayGrant {
        slot: u32,
        dst: u32,
        via: u32,
        port: u32,
        final_dst: u32,
        vol: u64,
    },
    /// Data of `flow` delivered to `dst` (tracker + series + rx buffer),
    /// arriving with the transmissions of `slot`: one packet in the
    /// predefined phase and the slot-major walk; in the batched scheduled
    /// phase a whole run of one segment's packets, landed at its last
    /// delivered packet's slot — or, with a bandwidth series attached,
    /// one event per slot the run occupies ([`Batch::land`]).
    Data {
        slot: u32,
        dst: u32,
        flow: u64,
        bytes: u64,
    },
}

impl Event {
    fn slot(&self) -> u32 {
        match *self {
            Event::Req { slot, .. }
            | Event::Grant { slot, .. }
            | Event::RelayReq { slot, .. }
            | Event::RelayGrant { slot, .. }
            | Event::Data { slot, .. } => slot,
        }
    }
}

/// Projector port bindings are stored as `u16` with `u16::MAX` as
/// "unbound"; events carry ports in 32 bits, `ReqIn` as `usize`, each with
/// its type's maximum as "unbound".
fn port_to_u32(p: u16) -> u32 {
    if p == u16::MAX {
        u32::MAX
    } else {
        u32::from(p)
    }
}

fn port_from_u32(p: u32) -> usize {
    if p == u32::MAX {
        usize::MAX
    } else {
        p as usize
    }
}

/// When the transmissions of a phase's slot `k` arrive: `first` for slot
/// 0 (slot end plus propagation), one `slot_len` later per slot.
#[derive(Debug, Clone, Copy)]
pub(super) struct SlotClock {
    pub(super) first: Nanos,
    pub(super) slot_len: Nanos,
}

impl SlotClock {
    #[inline]
    pub(super) fn arrive(&self, slot: u32) -> Nanos {
        self.first + slot as Nanos * self.slot_len
    }
}

/// Where a phase body's cross-ToR effects go.
pub(super) enum Sink<'a> {
    /// One shard, nothing runs beside it: apply on the spot.
    Apply {
        land: &'a mut Landing,
        tracker: &'a mut FlowTracker,
        clock: SlotClock,
    },
    /// Several shards: append to the shard's lane for the ordered replay.
    Record(&'a mut Vec<Event>),
    /// A gray link: count the messages it drops.
    Count(&'a mut u64),
}

impl Sink<'_> {
    // lint: hot-path
    #[inline(always)]
    pub(super) fn emit(&mut self, ev: Event) {
        match self {
            Sink::Apply {
                land,
                tracker,
                clock,
            } => land.apply(ev, clock.arrive(ev.slot()), tracker),
            // lint: allow(H001) lane vecs keep their capacity across epochs
            Sink::Record(events) => events.push(ev),
            Sink::Count(dropped) => **dropped += 1,
        }
    }
}

impl Landing {
    /// Perform one cross-ToR effect: an inbox push for a scheduling
    /// message, the full delivery bookkeeping for data arriving at
    /// `arrive`.
    // lint: hot-path
    #[inline(always)]
    fn apply(&mut self, ev: Event, arrive: Nanos, tracker: &mut FlowTracker) {
        match ev {
            Event::Req {
                dst,
                src,
                value,
                port,
                ..
            } => {
                // lint: allow(H001) inbox vecs recycle capacity across epochs (swap-recycled)
                self.inbox_requests[dst as usize].push(ReqIn {
                    src: src as usize,
                    value,
                    port: port_from_u32(port),
                });
            }
            Event::Grant {
                dst,
                granter,
                port,
                debit,
                ..
            } => {
                // lint: allow(H001) inbox vecs recycle capacity across epochs (swap-recycled)
                self.inbox_grants[dst as usize].push((
                    Grant {
                        dst: granter as usize,
                        port: port as usize,
                    },
                    debit,
                ));
            }
            Event::RelayReq {
                via,
                src,
                final_dst,
                ..
            } => {
                // lint: allow(H001) inbox vecs recycle capacity across epochs (swap-recycled)
                self.inbox_relay_req[via as usize].push(RelayRequest {
                    src: src as usize,
                    via: via as usize,
                    final_dst: final_dst as usize,
                });
            }
            Event::RelayGrant {
                dst,
                via,
                port,
                final_dst,
                vol,
                ..
            } => {
                // lint: allow(H001) inbox vecs recycle capacity across epochs (swap-recycled)
                self.inbox_relay_grant[dst as usize].push((
                    via as usize,
                    port as usize,
                    final_dst as usize,
                    vol,
                ));
            }
            Event::Data {
                dst, flow, bytes, ..
            } => {
                let dst = dst as usize;
                if let Some(b) = self.rx_buffer.get_mut(dst) {
                    *b += bytes;
                }
                tracker.deliver(flow, bytes, arrive);
                if let Some(series) = self.rx_series.get_mut(dst) {
                    series.record(arrive, bytes);
                }
                if let Some(total) = self.total_rx.as_mut() {
                    total.record(arrive, bytes);
                }
            }
        }
    }
}

impl Outbox {
    /// Move this epoch's outgoing scheduling messages across the
    /// predefined connection `src → dst` in timeslot `slot`: the request
    /// (its value and port binding where the mode has them, else `0.0`
    /// and unbound), and `src`'s grants, relay requests and relay grants
    /// to `dst` (each picked, in push order, from `src`'s short list).
    /// `flags` is the pair's `msg_flags` byte; the caller clears its
    /// `REQ_FLAG` afterwards (a request is delivered once; the lists are
    /// cleared at epoch start).
    #[inline]
    pub(super) fn emit(&self, flags: u8, src: usize, dst: usize, slot: u32, sink: &mut Sink<'_>) {
        let idx = src * self.n + dst;
        let (from, to) = (src as u32, dst as u32);
        if flags & REQ_FLAG != 0 {
            sink.emit(Event::Req {
                slot,
                dst: to,
                src: from,
                value: self.req.get(idx).copied().unwrap_or(0.0),
                port: self.req_port.get(idx).map_or(u32::MAX, |&p| port_to_u32(p)),
            });
        }
        // Grants computed by `src` for requester `dst` ride this connection.
        if flags & GRANT_FLAG != 0 {
            for &(_, port, debit) in self.grants_to(src, dst) {
                sink.emit(Event::Grant {
                    slot,
                    dst: to,
                    granter: from,
                    port,
                    debit,
                });
            }
        }
        if flags & RELAY_REQ_FLAG != 0 {
            for r in self.relay_reqs_via(src, dst) {
                sink.emit(Event::RelayReq {
                    slot,
                    via: to,
                    src: from,
                    final_dst: r.final_dst as u32,
                });
            }
        }
        if flags & RELAY_GRANT_FLAG != 0 {
            for &(_, port, final_dst, vol) in self.relay_grants_to(src, dst) {
                sink.emit(Event::RelayGrant {
                    slot,
                    dst: to,
                    via: from,
                    port,
                    final_dst,
                    vol,
                });
            }
        }
    }

    /// The grants `granter` issued to `requester` this epoch, in push order.
    fn grants_to(
        &self,
        granter: usize,
        requester: usize,
    ) -> impl Iterator<Item = &(u32, u32, u64)> + '_ {
        self.grants[granter]
            .iter()
            .filter(move |g| g.0 as usize == requester)
    }

    /// The relay requests `src` asks intermediate `via` this epoch, in
    /// push order.
    fn relay_reqs_via(&self, src: usize, via: usize) -> impl Iterator<Item = &RelayRequest> + '_ {
        self.relay_reqs[src].iter().filter(move |r| r.via == via)
    }

    /// The relay grants intermediate `via` issued to `requester` this
    /// epoch, in push order.
    fn relay_grants_to(
        &self,
        via: usize,
        requester: usize,
    ) -> impl Iterator<Item = &(u32, u32, u32, u64)> + '_ {
        self.relay_grants[via]
            .iter()
            .filter(move |g| g.0 as usize == requester)
    }
}

/// A predefined-phase shard's borrows: its source rows and their message
/// flags, its counters and where its cross-ToR effects go.
struct PredefCtx<'a> {
    rows: SrcRows<'a>,
    msg_flags: &'a mut [u8],
    stats: &'a mut SchedStats,
    sink: Sink<'a>,
}

/// One matched queue's batch of scheduled packets toward `dst`: packet
/// `i` rides the `i mod m`-th of the queue's `m` ports in slot
/// `k0 + i / m`, and carries `cap` bytes unless it ends a run.
struct Batch<'a> {
    dst: u32,
    k0: usize,
    cap: u64,
    /// `up[q]`: how many of the first `q` ports have their link up
    /// (`m + 1` entries).
    up: &'a [usize],
    /// A bandwidth series is attached.
    series: bool,
}

impl Batch<'_> {
    #[inline]
    fn m(&self) -> usize {
        self.up.len() - 1
    }

    /// How many of packets `0..i` ride a port whose link is up.
    #[inline]
    fn up_before(&self, i: usize) -> usize {
        let m = self.m();
        i / m * self.up[m] + self.up[i % m]
    }

    #[inline]
    fn is_up(&self, i: usize) -> bool {
        let q = i % self.m();
        self.up[q + 1] > self.up[q]
    }

    #[inline]
    fn slot(&self, i: usize) -> u32 {
        (self.k0 + i / self.m()) as u32
    }

    /// Land `run`, which fills packets `at..at + run.count`: the packets
    /// on down ports are lost, the rest delivered as one `Data` event at
    /// the slot of the last of them — or, with a series attached, one per
    /// slot the run occupies, so each window sees its slots' bytes at
    /// their arrival. The run's last packet is short
    /// ([`Run::last_bytes`]).
    #[inline]
    fn land(&self, at: usize, run: Run, stats: &mut SchedStats, sink: &mut Sink<'_>) {
        let end = at + run.count;
        let delivered = self.up_before(end) - self.up_before(at);
        // The last packet is `short` bytes below a full one.
        let (last_up, short) = (self.is_up(end - 1), self.cap - run.last_bytes(self.cap));
        let bytes = delivered as u64 * self.cap - if last_up { short } else { 0 };
        stats.scheduled_packets += delivered as u64;
        stats.scheduled_bytes += bytes;
        stats.lost_packets += (run.count - delivered) as u64;
        stats.lost_bytes += run.bytes - bytes;
        if delivered == 0 {
            return;
        }
        let mut emit = |slot: u32, bytes: u64| {
            stats.scheduled_deliveries += 1;
            sink.emit(Event::Data {
                slot,
                dst: self.dst,
                flow: run.flow,
                bytes,
            });
        };
        if !self.series {
            // Some port is up, so the walk back stops within `m` packets.
            let mut last = end - 1;
            while !self.is_up(last) {
                last -= 1;
            }
            emit(self.slot(last), bytes);
            return;
        }
        let m = self.m();
        let mut from = at;
        while from < end {
            let to = end.min((from / m + 1) * m);
            let landed = self.up_before(to) - self.up_before(from);
            if landed > 0 {
                let tail = if to == end && last_up { short } else { 0 };
                emit(self.slot(from), landed as u64 * self.cap - tail);
            }
            from = to;
        }
    }
}

/// One sink per lane, in lane order: apply-now for a single lane, record
/// otherwise.
fn sinks<'a>(
    lanes: &'a mut [Lane],
    land: &'a mut Landing,
    tracker: &'a mut FlowTracker,
    clock: SlotClock,
) -> impl Iterator<Item = (&'a mut SchedStats, Sink<'a>)> {
    let mut apply = (lanes.len() == 1).then_some((land, tracker));
    lanes.iter_mut().map(move |lane| {
        let sink = match apply.take() {
            Some((land, tracker)) => Sink::Apply {
                land,
                tracker,
                clock,
            },
            None => Sink::Record(&mut lane.events),
        };
        (&mut lane.stats, sink)
    })
}

impl NegotiatorSim {
    /// ACCEPT: each source consumes the grants delivered to it last epoch
    /// and fixes its share of this epoch's matching, and (stateful)
    /// reverts the debits of the grants it rejected, in source order.
    pub(super) fn step_accept(&mut self) {
        self.active.fill(None);
        let (s, mode) = (self.s, self.opts.mode);
        let detector = &self.detector;
        let SimScratch {
            grants_in,
            grants,
            accepts,
            ..
        } = &mut self.scratch;
        let (mut issued, mut made) = (0, 0);
        // lint: hot-path
        for src in 0..self.n {
            grants_in.clear();
            std::mem::swap(grants_in, &mut self.land.inbox_grants[src]);
            issued += grants_in.len() as u64;
            grants.clear();
            grants.extend(grants_in.iter().map(|&(g, _)| g));
            if matches!(mode, SchedulerMode::Projector) {
                // Port pre-binding means at most one grant per port:
                // accept everything usable.
                accepts.clear();
                accepts.extend(
                    grants
                        .iter()
                        .filter(|g| detector.usable(src, g.dst, g.port))
                        .map(|g| Accept {
                            dst: g.dst,
                            port: g.port,
                        }),
                );
            } else {
                self.accept_arbs[src].accept_into(
                    s,
                    grants,
                    |dst, port| detector.usable(src, dst, port),
                    accepts,
                );
            }
            made += accepts.len() as u64;
            for a in accepts.iter() {
                self.active[src * s + a.port] = Some(a.dst);
            }
            // Stateful: revert matrix debits for grants not accepted.
            if matches!(mode, SchedulerMode::Stateful) {
                for &(g, debit) in grants_in.iter() {
                    let kept = accepts.iter().any(|a| a.dst == g.dst && a.port == g.port);
                    if !kept && debit > 0 {
                        self.matrices[g.dst].revert(src, debit);
                    }
                }
            }
        }
        self.match_rec.record_epoch(issued, made);
        self.stats.grants_issued += issued;
        self.stats.accepts_made += made;
        if self.opts.selective_relay {
            self.relay_accept_step();
        }
    }

    /// GRANT: each destination consumes the requests delivered to it last
    /// epoch and allocates its ingress ports, in destination order; each
    /// grant is listed for delivery over the pair's predefined
    /// connection(s). The ring modes arbitrate a destination in one pass
    /// over its requests ([`GrantArbiter::grant_into`]) through the
    /// requester bitmap, which every destination leaves clear.
    pub(super) fn step_grant(&mut self, epoch: u64) {
        self.clear_grant_buckets();
        let (n, s, mode) = (self.n, self.s, self.opts.mode);
        let stateful = matches!(mode, SchedulerMode::Stateful);
        let epoch_capacity = self.epoch_capacity;
        let host_buffer = self.opts.host_buffer_bytes;
        let (detector, topo, faults) = (&self.detector, &self.topo, &self.frame.faults);
        let rx_buffer = &self.land.rx_buffer[..];
        let SimScratch {
            reqs,
            srcs,
            grant_pairs,
            grant_marks,
            vals,
            usable_vals,
            preqs,
            ..
        } = &mut self.scratch;
        let (grants, msg_flags) = (&mut self.out.grants, &mut self.msg_flags);
        let (grant_dirty, port_granted) = (&mut self.grant_dirty, &mut self.port_granted);
        let mut lane_masks = self.q.lane_masks.all();
        let mut push = |granter: usize, requester: usize, port: usize, debit: u64| {
            let idx = granter * n + requester;
            if msg_flags[idx] & GRANT_FLAG == 0 {
                grant_dirty.push(idx as u32);
                msg_flags[idx] |= GRANT_FLAG;
                lane_masks.mark(granter, requester);
            }
            grants[granter].push((requester as u32, port as u32, debit));
            // Empty outside selective relay.
            if let Some(mark) = port_granted.get_mut(granter * s + port) {
                *mark = true;
            }
        };
        #[allow(clippy::needless_range_loop)] // dst drives several arrays
        // lint: hot-path
        for dst in 0..n {
            reqs.clear();
            std::mem::swap(reqs, &mut self.land.inbox_requests[dst]);
            if faults.greedy(dst) {
                // Byzantine-lite misbehavior: the requests just swapped in
                // are discarded, backpressure and debits are ignored, and
                // every ingress port is granted round-robin.
                for port in 0..s {
                    if let Some(src) = greedy::greedy_source(topo, n, epoch, dst, port) {
                        push(dst, src, port, 0);
                    }
                }
                continue;
            }
            // §3.6.5 backpressure: a destination whose receive buffer is
            // more than half full grants nothing this epoch.
            if let Some(cap) = host_buffer {
                if rx_buffer[dst] > cap / 2 {
                    continue;
                }
            }
            if stateful {
                for r in reqs.iter() {
                    self.matrices[dst].report(r.src, r.value as u64);
                }
            }
            if reqs.is_empty() && !stateful {
                continue;
            }
            let arbiter = &mut self.grant_arbs[dst];
            match mode {
                SchedulerMode::Base | SchedulerMode::Iterative { .. } => {
                    srcs.clear();
                    srcs.extend(reqs.iter().map(|r| r.src));
                    self.stats.grant_candidates_scanned += arbiter.grant_into(
                        s,
                        srcs,
                        |src, port| detector.usable(src, dst, port),
                        grant_marks,
                        grant_pairs,
                    );
                    for &(src, port) in grant_pairs.iter() {
                        push(dst, src, port, 0);
                    }
                }
                SchedulerMode::Stateful => {
                    // Candidates: sources whose matrix entry shows pending
                    // data (requests above already refreshed the matrix).
                    let matrix = &mut self.matrices[dst];
                    srcs.clear();
                    srcs.extend((0..n).filter(|&src| matrix.has_pending(src)));
                    if srcs.is_empty() {
                        continue;
                    }
                    self.stats.grant_candidates_scanned += arbiter.grant_into(
                        s,
                        srcs,
                        |src, port| detector.usable(src, dst, port),
                        grant_marks,
                        grant_pairs,
                    );
                    for &(src, port) in grant_pairs.iter() {
                        let debit = matrix.debit(src, epoch_capacity);
                        push(dst, src, port, debit);
                    }
                }
                SchedulerMode::DataSize | SchedulerMode::HolDelay { .. } => {
                    // Highest-value requester first. A served pair's value
                    // drops so ports spread across pairs: DataSize debits
                    // one epoch of service and stops granting at zero
                    // remaining backlog; HolDelay demotes the served pair
                    // below every still-waiting one but keeps it eligible
                    // for leftover ports (a deep-backlog pair may use
                    // several ports, as the base algorithm allows).
                    let datasize = matches!(mode, SchedulerMode::DataSize);
                    vals.clear();
                    vals.extend(reqs.iter().map(|r| (r.src, r.value)));
                    for port in 0..s {
                        usable_vals.clear();
                        usable_vals.extend(
                            vals.iter()
                                .copied()
                                .filter(|&(src, v)| {
                                    (!datasize || v > 0.0) && detector.usable(src, dst, port)
                                })
                                .filter(|&(src, _)| topo.port_reaches(src, port, dst)),
                        );
                        if let Some(src) = informative::pick_max_value(usable_vals) {
                            let v = vals.iter_mut().find(|(x, _)| *x == src).unwrap();
                            v.1 = if datasize {
                                (v.1 - epoch_capacity as f64).max(0.0)
                            } else {
                                -1.0 - v.1.abs() // strictly below fresh requests
                            };
                            push(dst, src, port, 0);
                        }
                    }
                }
                SchedulerMode::Projector => {
                    preqs.clear();
                    preqs.extend(
                        reqs.iter()
                            .filter(|r| r.port != usize::MAX)
                            .filter(|r| detector.usable(r.src, dst, r.port))
                            .map(|r| projector::PortRequest {
                                src: r.src,
                                port: r.port,
                                waiting: r.value,
                            }),
                    );
                    for (src, port) in projector::grant_by_waiting(s, preqs) {
                        push(dst, src, port, 0);
                    }
                }
            }
        }
        if self.opts.selective_relay {
            self.relay_grant_step();
        }
    }

    /// REQUEST: read the queues and emit this epoch's requests, in source
    /// order. Each source walks its non-empty bitmap — the pairs with any
    /// backlog, in ascending destination order — and reads the
    /// `queue_bytes` mirror of those alone, touching the queues themselves
    /// only where the mode's request value needs them.
    pub(super) fn step_request(&mut self, now: Nanos) {
        self.clear_requests();
        let (n, mode) = (self.n, self.opts.mode);
        let threshold = self.cfg.request_threshold_bytes();
        let (topo, q) = (&self.topo, &self.q);
        // The per-pair value tables exist only in the modes that read them
        // (empty otherwise): values outside `Base` and `Iterative`, port
        // bindings in `Projector`, reported totals in `Stateful`.
        let (req, req_port) = (&mut self.out.req, &mut self.out.req_port);
        let stats = &mut self.stats;
        // lint: hot-path
        for src in 0..n {
            if matches!(mode, SchedulerMode::Projector) {
                let live = q
                    .live_dsts(src)
                    .inspect(|_| stats.request_pairs_scanned += 1);
                for (dst, preq) in projector::bind_requests(topo, src, &q.pairs, live, now) {
                    let idx = src * n + dst;
                    req[idx] = preq.waiting;
                    // Construction holds Projector fabrics under
                    // `u16::MAX` ports.
                    req_port[idx] = preq.port as u16;
                    self.msg_flags[idx] |= REQ_FLAG;
                    // lint: allow(H001) the dirty list keeps its capacity across epochs
                    self.req_dirty.push(idx as u32);
                }
                continue;
            }
            for dst in q.live_dsts(src) {
                stats.request_pairs_scanned += 1;
                let idx = src * n + dst;
                if dst == src || q.queue_bytes[idx] <= threshold {
                    continue;
                }
                let value = match mode {
                    SchedulerMode::DataSize => Some(q.queue_bytes[idx] as f64),
                    SchedulerMode::HolDelay { alpha } => Some(informative::hol_delay_value(
                        q.pairs.pair(src, dst),
                        now,
                        alpha,
                    )),
                    SchedulerMode::Stateful => {
                        let new = q.enqueued_total[idx] - self.reported_total[idx];
                        self.reported_total[idx] = q.enqueued_total[idx];
                        Some(new as f64)
                    }
                    // Binary demand: the flag is the request.
                    _ => None,
                };
                if let Some(value) = value {
                    req[idx] = value;
                }
                self.msg_flags[idx] |= REQ_FLAG;
                // lint: allow(H001) the dirty list keeps its capacity across epochs
                self.req_dirty.push(idx as u32);
                stats.requests_sent += 1;
            }
        }
    }

    /// The predefined phase of every epoch (sharded by source ToR): a shard
    /// injects its own sources' flows, then the relay first hops landed at
    /// its own intermediates, at slot boundaries, and then looks only at
    /// the connections whose lane bit is set — those whose pair has
    /// backlog or scheduling messages ([`topology::LaneTable`]) — moving
    /// the messages and piggybacking one packet per connected pair. Per
    /// slot it walks its sources in ascending order and each source's set
    /// lanes in ascending port order, which is the `(slot, src, port)`
    /// order of a pass over every connection; every cross-ToR effect goes
    /// to the shard's sink, slot-tagged. The replay is slot-major, lanes in
    /// shard order within a slot: exactly the order of a single pass.
    /// Outside a `healthy` epoch a visit checks its link: messages cross
    /// only one up and not gray (a gray one drops them, the pair keeps its
    /// flags), a packet only one the detector has not excluded, lost if
    /// it is down.
    pub(super) fn predefined_phase(
        &mut self,
        flows: &[Flow],
        cursor: usize,
        epoch: u64,
        t0: Nanos,
        healthy: bool,
        tracker: &mut FlowTracker,
    ) -> usize {
        let (n, pre_slots, pre_slot_len) = (self.n, self.pre_slots, self.pre_slot_len);
        let (piggyback, pb_payload) = (self.cfg.piggyback, self.pb_payload);
        // Arrival time of predefined slot `k`'s transmissions.
        let clock = SlotClock {
            first: t0 + pre_slot_len + self.cfg.net.propagation_delay,
            slot_len: pre_slot_len,
        };
        let (failures, faults, detector) =
            (&self.frame.failures, &self.frame.faults, &self.detector);
        // Flows that arrive during this phase and first hops that land in
        // it, shared read-only: each shard walks both slices once and
        // enqueues only at its own sources.
        let last_start = t0 + (pre_slots as Nanos - 1) * pre_slot_len;
        let end = cursor + flows[cursor..].partition_point(|f| f.arrival <= last_start);
        let phase_flows = &flows[cursor..end];
        let landed = self.first_hops.partition_point(|h| h.at <= last_start);
        let phase_hops = &self.first_hops[..landed];
        let ParState {
            shards,
            lanes,
            ptrs,
        } = &mut self.par;
        for lane in lanes.iter_mut() {
            lane.events.clear();
            lane.stats = SchedStats::default();
        }
        let out = &self.out;
        let ctxs = self
            .q
            .windows(shards)
            .zip(shard::split_rows(&mut self.msg_flags, n, shards))
            .zip(sinks(lanes, &mut self.land, tracker, clock))
            .map(|((rows, msg_flags), (stats, sink))| PredefCtx {
                rows,
                msg_flags,
                stats,
                sink,
            });
        shard::map_shards(ctxs, |_, ctx| {
            let PredefCtx {
                mut rows,
                msg_flags,
                stats,
                mut sink,
            } = ctx;
            let shard = rows.shard;
            let sched = rows.lane_masks.lanes();
            let (mut next, mut next_hop) = (0usize, 0usize);
            // lint: hot-path
            for slot in 0..pre_slots {
                let now = t0 + slot as Nanos * pre_slot_len;
                next = rows.inject(phase_flows, next, now);
                next_hop = rows.land(phase_hops, next_hop, now);
                for src in shard.start..shard.end {
                    let group = rows.lane_masks.group(src, slot);
                    // Most groups of a lightly loaded fabric are idle.
                    if rows.lane_masks.is_idle(group) {
                        continue;
                    }
                    let origin = sched.origin(slot, src);
                    for ports in sched.port_order(epoch) {
                        let mut from = ports.start;
                        while let Some(lane) = rows.lane_masks.next_lane(group, from..ports.end) {
                            from = lane + 1;
                            let dst = sched.dst(origin, lane);
                            let row = rows.row(src, dst);
                            let (flags, mut backlog) = (msg_flags[row], rows.queue_bytes[row]);
                            let (mut up, mut gray, mut usable) = (true, false, true);
                            if !healthy {
                                let port = sched.port(lane, epoch);
                                up = failures.link_up(src, dst, port);
                                gray = up && faults.gray_drops(epoch, src, dst);
                                usable = detector.usable(src, dst, port);
                            }
                            stats.predefined_conns_visited += 1;
                            if flags != 0 {
                                if up && !gray {
                                    out.emit(flags, src, dst, slot as u32, &mut sink);
                                    msg_flags[row] = flags & !REQ_FLAG; // delivered once
                                } else if gray {
                                    // Undelivered messages expire at the
                                    // next epoch start.
                                    let dropped = &mut stats.control_dropped;
                                    out.emit(flags, src, dst, 0, &mut Sink::Count(dropped));
                                }
                            }
                            if piggyback && backlog > 0 && usable {
                                let pkt = rows
                                    .dequeue_packet(src, dst, pb_payload, now)
                                    .expect("non-zero mirror implies a packet");
                                backlog -= pkt.bytes;
                                if up {
                                    stats.piggyback_packets += 1;
                                    stats.piggyback_bytes += pkt.bytes;
                                    sink.emit(Event::Data {
                                        slot: slot as u32,
                                        dst: dst as u32,
                                        flow: pkt.flow,
                                        bytes: pkt.bytes,
                                    });
                                } else {
                                    // Recovery is an upper-layer (TCP)
                                    // concern.
                                    stats.lost_packets += 1;
                                    stats.lost_bytes += pkt.bytes;
                                }
                            }
                            // Nothing left to say: the pair's other
                            // connection, if any, clears its own bit.
                            if msg_flags[row] as u64 | backlog == 0 {
                                rows.lane_masks.clear(group, lane);
                            }
                        }
                    }
                }
            }
        });
        // Replay slot-major: all lanes' slot-`k` events (lanes in shard
        // order, each lane's events in emission order) before any
        // slot-`k+1` event. Per-lane streams are slot-sorted by
        // construction, so one cursor per lane suffices. A single lane
        // applied its effects as it went and recorded none.
        ptrs.fill(0);
        // lint: hot-path
        for slot in 0..pre_slots as u32 {
            let arrive = clock.arrive(slot);
            for (lane, ptr) in lanes.iter().zip(ptrs.iter_mut()) {
                while let Some(ev) = lane.events.get(*ptr) {
                    if ev.slot() != slot {
                        break;
                    }
                    *ptr += 1;
                    self.land.apply(*ev, arrive, tracker);
                }
            }
        }
        debug_assert!(
            lanes
                .iter()
                .zip(ptrs.iter())
                .all(|(lane, &p)| p == lane.events.len()),
            "every event must replay exactly once"
        );
        for lane in lanes.iter() {
            self.stats += lane.stats;
        }
        self.first_hops.drain(..landed);
        end
    }

    /// The scheduled phase outside selective relay. Each source drains
    /// each matched destination, served by `m` of its ports, as one run of
    /// up to `m·K` dequeues — packet `i` on the run's `i mod m`-th port in
    /// slot `i / m` — split only at the slots where that pair's own flows
    /// arrive and are injected. The other arrivals touch no matched queue
    /// and go in first, in arrival order. This is the slot-major walk's
    /// outcome, not an approximation of it: without relay a flow lives in
    /// one queue, a queue's dequeues and injections keep their walk order,
    /// and each flow's packets still land in slot order, while deliveries
    /// fold into the tracker, the receive buffers and the bandwidth series
    /// as sums. So a batch leaves as segment runs ([`Batch::land`]), each
    /// one `Data` event at the slot of its last delivered packet — the
    /// arrival that completes the flow when the run ends it. Returns the
    /// cursor past the phase's arrivals.
    pub(super) fn scheduled_batched(
        &mut self,
        flows: &[Flow],
        cursor: usize,
        sched_start: Nanos,
        clock: SlotClock,
        tracker: &mut FlowTracker,
    ) -> usize {
        let (n, s) = (self.n, self.s);
        let (k_slots, slot_len) = (self.cfg.epoch.scheduled_slots, clock.slot_len);
        let cap = self.sched_payload;
        // Flows that arrive by the last slot's start; the first slot whose
        // start injects `arrival`.
        let last_start = sched_start + (k_slots as Nanos - 1) * slot_len;
        let end = cursor + flows[cursor..].partition_point(|f| f.arrival <= last_start);
        let phase_flows = &flows[cursor..end];
        let inject_slot = |arrival: Nanos| arrival.saturating_sub(sched_start).div_ceil(slot_len);
        let entries = &self.active_list[..];
        self.stats.unmatched_slots += (n * s - entries.len()) as u64 * k_slots as u64;
        let (failures, active) = (&self.frame.failures, &self.active[..]);
        let series = !self.land.rx_series.is_empty() || self.land.total_rx.is_some();
        let SimScratch {
            ports,
            up,
            arrivals,
            ..
        } = &mut self.scratch;
        let stats = &mut self.stats;
        let mut rows = self.q.all();
        let mut sink = Sink::Apply {
            land: &mut self.land,
            tracker,
            clock,
        };
        // Send queue `src → dst`'s packets of scheduled `slots` on `ports`
        // (ascending): up to `m` packets a slot, packet `i` on port
        // `ports[i % m]` in slot `slots.start + i / m` — the order in which
        // a slot-major walk serves each slot's ports. The queue leaves as
        // runs, each landed whole; a port whose link is down loses its
        // packets.
        let mut send = |rows: &mut SrcRows<'_>, ports: &[usize], src, dst, slots: Range<usize>| {
            let room = ports.len() * slots.len();
            if room == 0 {
                return;
            }
            up.clear();
            up.push(0);
            let mut live = 0;
            for &port in ports {
                live += usize::from(failures.link_up(src, dst, port));
                up.push(live);
            }
            let batch = Batch {
                dst: dst as u32,
                k0: slots.start,
                cap,
                up,
                series,
            };
            let mut at = 0;
            while at < room {
                let Some(run) = rows.dequeue_run(src, dst, cap, room - at) else {
                    break;
                };
                batch.land(at, run, stats, &mut sink);
                at += run.count;
            }
            stats.overscheduled_slots += (room - at) as u64;
        };
        arrivals.clear();
        // lint: hot-path
        for (i, f) in phase_flows.iter().enumerate() {
            if active[f.src * s..(f.src + 1) * s].contains(&Some(f.dst)) {
                // lint: allow(H001) retained scratch, cleared each phase, never shrunk
                arrivals.push((f.src as u32, f.dst as u32, i as u32));
            } else {
                rows.enqueue(f);
            }
        }
        arrivals.sort_unstable();
        let mut i = 0;
        // lint: hot-path
        while i < entries.len() {
            let src = entries[i].slot as usize / s;
            let run_len = entries[i..]
                .iter()
                .take_while(|e| e.slot as usize / s == src)
                .count();
            let run = &entries[i..i + run_len];
            i += run_len;
            for (a, e) in run.iter().enumerate() {
                // A queue several ports serve drains with its first.
                if run[..a].iter().any(|f| f.dst == e.dst) {
                    continue;
                }
                ports.clear();
                ports.extend(
                    run[a..]
                        .iter()
                        .filter(|f| f.dst == e.dst)
                        .map(|f| f.slot as usize % s),
                );
                // The pair's own arrivals, one range of the sorted list;
                // each splits the run at its slot.
                let (dst, pair) = (e.dst as usize, (src as u32, e.dst));
                let lo = arrivals.partition_point(|&(x, y, _)| (x, y) < pair);
                let hi = arrivals.partition_point(|&(x, y, _)| (x, y) <= pair);
                let mut k0 = 0;
                for &(_, _, j) in &arrivals[lo..hi] {
                    let f = &phase_flows[j as usize];
                    let k = inject_slot(f.arrival) as usize;
                    send(&mut rows, ports, src, dst, k0..k);
                    rows.enqueue(f);
                    k0 = k;
                }
                send(&mut rows, ports, src, dst, k0..k_slots);
            }
        }
        end
    }
}
