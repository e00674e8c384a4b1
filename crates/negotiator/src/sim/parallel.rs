//! The epoch kernel: the one body of each per-ToR phase — ACCEPT, GRANT,
//! REQUEST, the predefined phase, the quiet scheduled phase — written
//! over contiguous ToR shards, byte-identical at any shard count.
//!
//! # One body, any shard count
//!
//! Every phase below follows one recipe:
//!
//! 1. **Ownership by row.** ToRs are partitioned into contiguous shards
//!    ([`sim::shard::partition`]). Each shard receives disjoint `&mut`
//!    windows of the row-major state it owns ([`sim::shard::split_rows`],
//!    [`SrcQueues::split`]): REQUEST, ACCEPT and the two data phases shard
//!    by *source* row, GRANT by *granter* row. The type system — not a
//!    convention — rules out cross-shard writes.
//! 2. **Effects for everything else.** A write that lands on another
//!    ToR's state — an inbox push, a data delivery — is an [`Event`]
//!    handed to the shard's [`Sink`], in exactly the order a single pass
//!    over rows `0..n` performs them. With one shard nothing runs beside
//!    it, so the sink applies the effect on the spot; with several it
//!    appends the event to the shard's lane. Either way what the effect
//!    *does* is [`Landing::apply`], and nothing else.
//! 3. **Ordered replay.** After a fork/join of several shards the merge
//!    replays lane events on the caller's thread in *single-pass visit
//!    order*: shard concatenation where the pass is row-major (rows
//!    ascend across shards), slot-major interleaving where it is
//!    slot-major (the predefined phase; events carry their slot). The
//!    replayed write sequence is therefore *identical* to the one-shard
//!    one — no commutativity assumptions, no floating-point
//!    reassociation.
//!
//! Shard count moves shard boundaries, never row order, so any
//! `--workers` value produces the same bytes; `tests/determinism.rs`,
//! `tests/adversarial.rs` and the CI `determinism-matrix` job hold the
//! engine to it at 1, 2 and 8, and the golden-report gate pins the bytes.
//! Shard count alone decides apply-now versus lane-and-replay: one shard
//! runs inline on the caller's thread ([`sim::shard::map_shards`]),
//! records nothing and replays nothing.
//!
//! ACCEPT's stateful matrix reverts, the dirty-index lists and the
//! counters are lane state at every shard count (a handful of entries
//! per epoch), merged by concatenation in shard order.
//! (A [`Lane`] is a shard's merge queue. The *lane masks* the
//! predefined phase walks are something else — bits over the predefined
//! schedule's rotation-invariant connection indices,
//! [`topology::LaneTable`].)
//!
//! # What is not sharded, and why
//!
//! * **Selective relay** (`par_workers() == 1`): its three steps are
//!   whole-fabric epilogues of ACCEPT, GRANT and REQUEST, and relayed
//!   packets are enqueued at *another* source's queues mid-phase.
//! * **Iterative mode's epoch start**: `IterativeMatcher` is a global
//!   fixed point over all ToRs, not per-ToR work.
//! * **The slot-major scheduled phase** (`sim.rs`): a scheduled phase
//!   with mid-phase arrivals interleaves injection with every slot.
//! * **The detector's reading of the dummies** (`observe_epoch`): it sees
//!   each port from both ends, so no row split owns it.
//! * **`rebuild_active_list` and the flag-clearing prologues**: memset-
//!   class scans that cost less than a fork/join.

use super::*;
use sim::shard;

/// Per-shard lane: scratch buffers, merge queues and counters. Retained
/// across epochs so steady-state phases allocate nothing once lane
/// capacities have warmed up.
#[derive(Debug, Default)]
struct Lane {
    scratch: SimScratch,
    /// `req_dirty`/`grant_dirty` contributions, concatenated in shard
    /// order by the merge (= row-ascending order).
    dirty: Vec<u32>,
    /// Stateful-mode `(granter, src, debit)` matrix reverts, replayed in
    /// shard order after ACCEPT.
    reverts: Vec<(u32, u32, u64)>,
    /// Cross-ToR effects of the data phases awaiting the ordered replay
    /// (filled only when several shards run).
    events: Vec<Event>,
    /// The phase's counters, added into the run's by the merge.
    stats: SchedStats,
}

/// Retained lane state hanging off the sim.
#[derive(Debug, Default)]
pub(super) struct ParState {
    lanes: Vec<Lane>,
    /// Per-lane replay cursors (slot-major merges).
    ptrs: Vec<usize>,
    /// Scheduled-phase chunk starts into `active_list`.
    cuts: Vec<usize>,
}

impl ParState {
    /// `k` lanes with empty merge queues and zeroed counters, growing the
    /// pool on first use.
    fn lanes(&mut self, k: usize) -> &mut [Lane] {
        if self.lanes.len() < k {
            self.lanes.resize_with(k, Lane::default);
        }
        for lane in &mut self.lanes[..k] {
            lane.dirty.clear();
            lane.reverts.clear();
            lane.events.clear();
            lane.stats = SchedStats::default();
        }
        &mut self.lanes[..k]
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
    /// A data packet delivered to `dst` (tracker + series + rx buffer).
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

// Shard-side borrow bundles. One struct per phase keeps the closure a
// single argument and documents exactly which rows a shard may touch.

struct AcceptCtx<'a> {
    shard: Shard,
    inbox_grants: &'a mut [Vec<(Grant, u64)>],
    accept_arbs: &'a mut [AcceptArbiter],
    active: &'a mut [Option<usize>],
    lane: &'a mut Lane,
}

struct GrantCtx<'a> {
    shard: Shard,
    inbox_requests: &'a mut [Vec<ReqIn>],
    grant_arbs: &'a mut [GrantArbiter],
    matrices: &'a mut [DemandMatrix],
    scratch: &'a mut SimScratch,
    out: GrantOut<'a>,
}

/// The granter rows a GRANT shard writes its decisions to.
struct GrantOut<'a> {
    shard: Shard,
    n: usize,
    s: usize,
    /// Per granter: `(requester, port, debit)` in push order.
    grants: &'a mut [Vec<(u32, u32, u64)>],
    msg_flags: &'a mut [u8],
    lane_masks: LaneMasks<'a>,
    /// `granter * s + port` marks for the relay grant step's leftover-port
    /// check; `None` unless selective relay is on.
    port_granted: Option<&'a mut [bool]>,
    dirty: &'a mut Vec<u32>,
}

impl GrantOut<'_> {
    /// List one grant from `granter` to `requester` for delivery over
    /// their predefined connection(s).
    #[inline]
    fn push(&mut self, granter: usize, requester: usize, port: usize, debit: u64) {
        let row = granter - self.shard.start;
        let local = row * self.n + requester;
        if self.msg_flags[local] & GRANT_FLAG == 0 {
            self.dirty.push((granter * self.n + requester) as u32);
            self.msg_flags[local] |= GRANT_FLAG;
            self.lane_masks.mark(granter, requester);
        }
        self.grants[row].push((requester as u32, port as u32, debit));
        if let Some(port_granted) = self.port_granted.as_deref_mut() {
            port_granted[row * self.s + port] = true;
        }
    }
}

struct RequestCtx<'a> {
    shard: Shard,
    req: &'a mut [f64],
    req_port: &'a mut [u16],
    msg_flags: &'a mut [u8],
    reported_total: &'a mut [u64],
    lane: &'a mut Lane,
}

struct PredefCtx<'a> {
    rows: SrcRows<'a>,
    msg_flags: &'a mut [u8],
    stats: &'a mut SchedStats,
    sink: Sink<'a>,
}

struct SchedCtx<'a> {
    rows: SrcRows<'a>,
    entries: &'a [ActiveTx],
    packets: &'a mut Vec<Packet>,
    stats: &'a mut SchedStats,
    sink: Sink<'a>,
}

/// One sink per lane: apply-now for a single lane, record otherwise.
fn sinks<'a>(
    lanes: &'a mut [Lane],
    land: &'a mut Landing,
    tracker: &'a mut FlowTracker,
    clock: SlotClock,
) -> Vec<(&'a mut SimScratch, &'a mut SchedStats, Sink<'a>)> {
    match lanes {
        [lane] => vec![(
            &mut lane.scratch,
            &mut lane.stats,
            Sink::Apply {
                land,
                tracker,
                clock,
            },
        )],
        lanes => lanes
            .iter_mut()
            .map(|lane| {
                (
                    &mut lane.scratch,
                    &mut lane.stats,
                    Sink::Record(&mut lane.events),
                )
            })
            .collect(),
    }
}

impl NegotiatorSim {
    /// ACCEPT (sharded by source ToR): consume the grants delivered last
    /// epoch, fix this epoch's matching, and (stateful) revert the debits
    /// of rejected grants. Arbitration and the `active` match table are
    /// source-owned; the matrix reverts — the one cross-ToR write — are
    /// buffered per lane and replayed in shard order, which is exactly
    /// src-ascending order.
    pub(super) fn step_accept(&mut self) {
        self.active.fill(None);
        let shards = shard::partition(self.n, self.par_workers());
        let lanes = self.par.lanes(shards.len());
        let (s, mode) = (self.s, self.opts.mode);
        let detector = &self.detector;
        {
            let inboxes = shard::split_rows(&mut self.land.inbox_grants, 1, &shards);
            let arbs = shard::split_rows(&mut self.accept_arbs, 1, &shards);
            let actives = shard::split_rows(&mut self.active, s, &shards);
            let mut ctxs = Vec::with_capacity(shards.len());
            for ((((&shard, inbox_grants), accept_arbs), active), lane) in shards
                .iter()
                .zip(inboxes)
                .zip(arbs)
                .zip(actives)
                .zip(lanes.iter_mut())
            {
                ctxs.push(AcceptCtx {
                    shard,
                    inbox_grants,
                    accept_arbs,
                    active,
                    lane,
                });
            }
            shard::map_shards(ctxs, |_, ctx| {
                let AcceptCtx {
                    shard,
                    inbox_grants,
                    accept_arbs,
                    active,
                    lane,
                } = ctx;
                let SimScratch {
                    grants_in,
                    grants,
                    accepts,
                    ..
                } = &mut lane.scratch;
                for src in shard.start..shard.end {
                    let row = src - shard.start;
                    grants_in.clear();
                    std::mem::swap(grants_in, &mut inbox_grants[row]);
                    lane.stats.grants_issued += grants_in.len() as u64;
                    grants.clear();
                    grants.extend(grants_in.iter().map(|&(g, _)| g));
                    if matches!(mode, SchedulerMode::Projector) {
                        // Port pre-binding means at most one grant per
                        // port: accept everything usable.
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
                        accept_arbs[row].accept_into(
                            s,
                            grants,
                            |dst, port| detector.usable(src, dst, port),
                            accepts,
                        );
                    }
                    lane.stats.accepts_made += accepts.len() as u64;
                    for a in accepts.iter() {
                        active[row * s + a.port] = Some(a.dst);
                    }
                    // Stateful: revert matrix debits for grants not accepted.
                    if matches!(mode, SchedulerMode::Stateful) {
                        for (g, debit) in grants_in.iter() {
                            let kept = accepts.iter().any(|a| a.dst == g.dst && a.port == g.port);
                            if !kept && *debit > 0 {
                                lane.reverts.push((g.dst as u32, src as u32, *debit));
                            }
                        }
                    }
                }
            });
        }
        let mut epoch = SchedStats::default();
        for lane in lanes.iter() {
            epoch += lane.stats;
            for &(granter, src, debit) in &lane.reverts {
                self.matrices[granter as usize].revert(src as usize, debit);
            }
        }
        self.match_rec
            .record_epoch(epoch.grants_issued, epoch.accepts_made);
        self.stats += epoch;
        if self.opts.selective_relay {
            self.relay_accept_step();
        }
    }

    /// GRANT (sharded by granter ToR): consume the requests delivered
    /// last epoch and allocate ports. Request inboxes, grant arbiters,
    /// demand matrices, outgoing grant lists and the lane masks of the
    /// granter's connections are all granter-row state; the dirty-index
    /// merge concatenates lanes in shard order, i.e. granter-ascending.
    pub(super) fn step_grant(&mut self, epoch: u64) {
        self.clear_grant_buckets();
        let shards = shard::partition(self.n, self.par_workers());
        let lanes = self.par.lanes(shards.len());
        let (n, s, mode) = (self.n, self.s, self.opts.mode);
        let stateful = matches!(mode, SchedulerMode::Stateful);
        let epoch_capacity = self.epoch_capacity;
        let host_buffer = self.opts.host_buffer_bytes;
        let detector = &self.detector;
        let topo = &self.topo;
        let faults = &self.frame.faults;
        let rx_buffer = &self.land.rx_buffer[..];
        {
            let inboxes = shard::split_rows(&mut self.land.inbox_requests, 1, &shards);
            let arbs = shard::split_rows(&mut self.grant_arbs, 1, &shards);
            let grants = shard::split_rows(&mut self.out.grants, 1, &shards);
            let flags = shard::split_rows(&mut self.msg_flags, n, &shards);
            let masks = self.q.lane_masks.split(&shards);
            let mut marks = self
                .opts
                .selective_relay
                .then(|| shard::split_rows(&mut self.port_granted, s, &shards).into_iter());
            // `matrices` is empty outside stateful mode: hand out empty
            // windows instead of row ranges then.
            let mut mat_rest: &mut [DemandMatrix] = &mut self.matrices;
            let mut ctxs = Vec::with_capacity(shards.len());
            for (
                (((((&shard, inbox_requests), grant_arbs), grants), msg_flags), lane_masks),
                lane,
            ) in shards
                .iter()
                .zip(inboxes)
                .zip(arbs)
                .zip(grants)
                .zip(flags)
                .zip(masks)
                .zip(lanes.iter_mut())
            {
                let take = if stateful { shard.len() } else { 0 };
                let (matrices, rest) = mat_rest.split_at_mut(take);
                mat_rest = rest;
                ctxs.push(GrantCtx {
                    shard,
                    inbox_requests,
                    grant_arbs,
                    matrices,
                    scratch: &mut lane.scratch,
                    out: GrantOut {
                        shard,
                        n,
                        s,
                        grants,
                        msg_flags,
                        lane_masks,
                        port_granted: marks.as_mut().and_then(Iterator::next),
                        dirty: &mut lane.dirty,
                    },
                });
            }
            shard::map_shards(ctxs, |_, ctx| {
                let GrantCtx {
                    shard,
                    inbox_requests,
                    grant_arbs,
                    matrices,
                    scratch,
                    mut out,
                } = ctx;
                let SimScratch {
                    reqs,
                    srcs,
                    grant_pairs,
                    vals,
                    usable_vals,
                    preqs,
                    ..
                } = scratch;
                #[allow(clippy::needless_range_loop)] // dst drives several arrays
                for dst in shard.start..shard.end {
                    let row = dst - shard.start;
                    reqs.clear();
                    std::mem::swap(reqs, &mut inbox_requests[row]);
                    if faults.greedy(dst) {
                        // Byzantine-lite misbehavior: the requests just
                        // swapped in are discarded, backpressure and debits
                        // are ignored, and every ingress port is granted
                        // round-robin.
                        for port in 0..s {
                            if let Some(src) = greedy::greedy_source(topo, n, epoch, dst, port) {
                                out.push(dst, src, port, 0);
                            }
                        }
                        continue;
                    }
                    // §3.6.5 backpressure: a destination whose receive
                    // buffer is more than half full grants nothing this
                    // epoch.
                    if let Some(cap) = host_buffer {
                        if rx_buffer[dst] > cap / 2 {
                            continue;
                        }
                    }
                    if stateful {
                        for r in reqs.iter() {
                            matrices[row].report(r.src, r.value as u64);
                        }
                    }
                    if reqs.is_empty() && !stateful {
                        continue;
                    }
                    match mode {
                        SchedulerMode::Base | SchedulerMode::Iterative { .. } => {
                            srcs.clear();
                            srcs.extend(reqs.iter().map(|r| r.src));
                            grant_arbs[row].grant_into(
                                s,
                                srcs,
                                |src, port| detector.usable(src, dst, port),
                                grant_pairs,
                            );
                            for &(src, port) in grant_pairs.iter() {
                                out.push(dst, src, port, 0);
                            }
                        }
                        SchedulerMode::Stateful => {
                            // Candidates: sources whose matrix entry shows
                            // pending data (requests above already
                            // refreshed the matrix).
                            let matrix = &matrices[row];
                            srcs.clear();
                            srcs.extend((0..n).filter(|&src| matrix.has_pending(src)));
                            if srcs.is_empty() {
                                continue;
                            }
                            grant_arbs[row].grant_into(
                                s,
                                srcs,
                                |src, port| detector.usable(src, dst, port),
                                grant_pairs,
                            );
                            for &(src, port) in grant_pairs.iter() {
                                let debit = matrices[row].debit(src, epoch_capacity);
                                out.push(dst, src, port, debit);
                            }
                        }
                        SchedulerMode::DataSize | SchedulerMode::HolDelay { .. } => {
                            // Highest-value requester first. A served
                            // pair's value drops so ports spread across
                            // pairs: DataSize debits one epoch of service
                            // and stops granting at zero remaining backlog;
                            // HolDelay demotes the served pair below every
                            // still-waiting one but keeps it eligible for
                            // leftover ports (a deep-backlog pair may use
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
                                            (!datasize || v > 0.0)
                                                && detector.usable(src, dst, port)
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
                                    out.push(dst, src, port, 0);
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
                                out.push(dst, src, port, 0);
                            }
                        }
                    }
                }
            });
        }
        for lane in lanes.iter() {
            self.grant_dirty.extend_from_slice(&lane.dirty);
        }
        if self.opts.selective_relay {
            self.relay_grant_step();
        }
    }

    /// REQUEST (sharded by source ToR): read the queues, emit this
    /// epoch's requests. Each source walks its non-empty bitmap — the
    /// pairs with any backlog, in ascending destination order — and reads
    /// the `queue_bytes` mirror of those alone, touching the queues
    /// themselves only where the mode's request value needs them;
    /// per-lane dirty indices concatenate to source-ascending order.
    pub(super) fn step_request(&mut self, now: Nanos) {
        self.clear_requests();
        let shards = shard::partition(self.n, self.par_workers());
        let lanes = self.par.lanes(shards.len());
        let (n, mode) = (self.n, self.opts.mode);
        let threshold = self.cfg.request_threshold_bytes();
        let topo = &self.topo;
        let q = &self.q;
        {
            // The per-pair value tables exist only in the modes that read
            // them (empty rows otherwise): values outside `Base` and
            // `Iterative`, port bindings in `Projector`, reported totals
            // in `Stateful`.
            let row_of = |table_len: usize| table_len / n;
            let req_row = row_of(self.out.req.len());
            let outs = shard::split_rows(&mut self.out.req, req_row, &shards);
            let port_row = row_of(self.out.req_port.len());
            let ports = shard::split_rows(&mut self.out.req_port, port_row, &shards);
            let flags = shard::split_rows(&mut self.msg_flags, n, &shards);
            let reported_row = row_of(self.reported_total.len());
            let reported = shard::split_rows(&mut self.reported_total, reported_row, &shards);
            let mut ctxs = Vec::with_capacity(shards.len());
            for (((((&shard, req), req_port), msg_flags), reported_total), lane) in shards
                .iter()
                .zip(outs)
                .zip(ports)
                .zip(flags)
                .zip(reported)
                .zip(lanes.iter_mut())
            {
                ctxs.push(RequestCtx {
                    shard,
                    req,
                    req_port,
                    msg_flags,
                    reported_total,
                    lane,
                });
            }
            shard::map_shards(ctxs, |_, ctx| {
                let RequestCtx {
                    shard,
                    req,
                    req_port,
                    msg_flags,
                    reported_total,
                    lane,
                } = ctx;
                let Lane { dirty, stats, .. } = lane;
                // lint: hot-path
                for src in shard.start..shard.end {
                    let base = (src - shard.start) * n;
                    if matches!(mode, SchedulerMode::Projector) {
                        let live = q
                            .live_dsts(src)
                            .inspect(|_| stats.request_pairs_scanned += 1);
                        for (dst, preq) in projector::bind_requests(topo, src, &q.pairs, live, now)
                        {
                            req[base + dst] = preq.waiting;
                            // Construction holds Projector fabrics under
                            // `u16::MAX` ports.
                            req_port[base + dst] = preq.port as u16;
                            msg_flags[base + dst] |= REQ_FLAG;
                            // lint: allow(H001) lane vecs keep their capacity across epochs
                            dirty.push((src * n + dst) as u32);
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
                            SchedulerMode::HolDelay { alpha } => Some(
                                informative::hol_delay_value(q.pairs.pair(src, dst), now, alpha),
                            ),
                            SchedulerMode::Stateful => {
                                let new = q.enqueued_total[idx] - reported_total[base + dst];
                                reported_total[base + dst] = q.enqueued_total[idx];
                                Some(new as f64)
                            }
                            // Binary demand: the flag is the request.
                            _ => None,
                        };
                        if let Some(value) = value {
                            req[base + dst] = value;
                        }
                        msg_flags[base + dst] |= REQ_FLAG;
                        // lint: allow(H001) lane vecs keep their capacity across epochs
                        dirty.push(idx as u32);
                        stats.requests_sent += 1;
                    }
                }
            });
        }
        for lane in lanes.iter() {
            self.req_dirty.extend_from_slice(&lane.dirty);
            self.stats += lane.stats;
        }
    }

    /// The predefined phase of every epoch (sharded by source ToR): a shard
    /// injects its own sources' flows at slot boundaries and then looks
    /// only at the connections whose lane bit is set — those whose pair
    /// has backlog or scheduling messages ([`topology::LaneTable`]) —
    /// moving the messages and piggybacking one packet per connected pair.
    /// Per slot it walks its sources in ascending order and each source's
    /// set lanes in ascending port order, which is the `(slot, src, port)`
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
        // Flows that arrive during this phase, shared read-only: each
        // shard walks the slice once and enqueues only its own sources.
        let last_start = t0 + (pre_slots as Nanos - 1) * pre_slot_len;
        let end = cursor + flows[cursor..].partition_point(|f| f.arrival <= last_start);
        let phase_flows = &flows[cursor..end];
        let shards = shard::partition(n, self.par_workers());
        self.par.lanes(shards.len());
        let ParState { lanes, ptrs, .. } = &mut self.par;
        let lanes = &mut lanes[..shards.len()];
        let out = &self.out;
        {
            let rows = self.q.split(&shards);
            let flags = shard::split_rows(&mut self.msg_flags, n, &shards);
            let sinks = sinks(lanes, &mut self.land, tracker, clock);
            let mut ctxs = Vec::with_capacity(shards.len());
            for ((rows, msg_flags), (_, stats, sink)) in rows.into_iter().zip(flags).zip(sinks) {
                ctxs.push(PredefCtx {
                    rows,
                    msg_flags,
                    stats,
                    sink,
                });
            }
            shard::map_shards(ctxs, |_, ctx| {
                let PredefCtx {
                    mut rows,
                    msg_flags,
                    stats,
                    mut sink,
                } = ctx;
                let shard = rows.shard;
                let sched = rows.lane_masks.lanes();
                let mut next = 0usize;
                // lint: hot-path
                for slot in 0..pre_slots {
                    next = rows.inject(phase_flows, next, t0 + slot as Nanos * pre_slot_len);
                    for src in shard.start..shard.end {
                        let group = rows.lane_masks.group(src, slot);
                        // Most groups of a lightly loaded fabric are idle.
                        if rows.lane_masks.is_idle(group) {
                            continue;
                        }
                        let origin = sched.origin(slot, src);
                        for ports in sched.port_order(epoch) {
                            let mut from = ports.start;
                            while let Some(lane) = rows.lane_masks.next_lane(group, from..ports.end)
                            {
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
                                        .dequeue_packet(src, dst, pb_payload)
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
        }
        // Replay slot-major: all lanes' slot-`k` events (lanes in shard
        // order, each lane's events in emission order) before any
        // slot-`k+1` event. Per-lane streams are slot-sorted by
        // construction, so one cursor per lane suffices. A single lane
        // applied its effects as it went and recorded none.
        ptrs.clear();
        ptrs.resize(lanes.len(), 0);
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
        end
    }

    /// The quiet scheduled phase (no arrival mid-phase, no relay): each
    /// matched port pulls its whole phase's packets in one batch dequeue.
    /// `active_list` is split at source-run boundaries into per-shard
    /// chunks (the list is slot-ordered, so chunks cover disjoint,
    /// ascending source ranges); each shard drains its own queues and
    /// emits `Data` events tagged with the scheduled slot `k`, replayed
    /// in lane order = list order.
    pub(super) fn scheduled_quiet(&mut self, clock: SlotClock, tracker: &mut FlowTracker) {
        let list = &self.active_list[..];
        if list.is_empty() {
            return;
        }
        let (n, s) = (self.n, self.s);
        let k_slots = self.cfg.epoch.scheduled_slots;
        let sched_payload = self.sched_payload;
        let workers = self.par_workers();
        // Chunk starts, aligned so no source's run spans two chunks.
        let cuts = &mut self.par.cuts;
        cuts.clear();
        cuts.push(0);
        for c in 1..workers {
            let mut i = (list.len() * c) / workers;
            if i > 0 {
                let prev = list[i - 1].slot as usize / s;
                while i < list.len() && list[i].slot as usize / s == prev {
                    i += 1;
                }
            }
            if i > *cuts.last().unwrap() && i < list.len() {
                cuts.push(i);
            }
        }
        cuts.push(list.len());
        // Source ranges covered by each chunk tile [0, n).
        let mut shards = Vec::with_capacity(cuts.len() - 1);
        for (ci, w) in cuts.windows(2).enumerate() {
            let start = if ci == 0 {
                0
            } else {
                list[w[0]].slot as usize / s
            };
            let end = if ci == cuts.len() - 2 {
                n
            } else {
                list[w[1]].slot as usize / s
            };
            shards.push(Shard { start, end });
        }
        self.par.lanes(shards.len());
        let ParState { lanes, cuts, .. } = &mut self.par;
        let lanes = &mut lanes[..shards.len()];
        let failures = &self.frame.failures;
        {
            let rows = self.q.split(&shards);
            let sinks = sinks(lanes, &mut self.land, tracker, clock);
            let mut ctxs = Vec::with_capacity(shards.len());
            for ((rows, w), (scratch, stats, sink)) in
                rows.into_iter().zip(cuts.windows(2)).zip(sinks)
            {
                ctxs.push(SchedCtx {
                    rows,
                    entries: &list[w[0]..w[1]],
                    packets: &mut scratch.packets,
                    stats,
                    sink,
                });
            }
            shard::map_shards(ctxs, |_, ctx| {
                let SchedCtx {
                    mut rows,
                    entries,
                    packets,
                    stats,
                    mut sink,
                } = ctx;
                let mut i = 0;
                while i < entries.len() {
                    // One source's run of entries (same src ⇒ contiguous,
                    // ≤ s long).
                    let src = entries[i].slot as usize / s;
                    let mut run_end = i + 1;
                    while run_end < entries.len() && entries[run_end].slot as usize / s == src {
                        run_end += 1;
                    }
                    let run = &entries[i..run_end];
                    let shared_queue = run
                        .iter()
                        .enumerate()
                        .any(|(a, e)| run[..a].iter().any(|f| f.dst == e.dst));
                    if shared_queue {
                        // Rare: one queue feeds several ports, and their
                        // interleaving determines which packet each port
                        // carries; replay slot order.
                        for k in 0..k_slots {
                            for e in run {
                                let (port, dst) = (e.slot as usize % s, e.dst as usize);
                                rows.serve_direct_slot(
                                    failures,
                                    src,
                                    port,
                                    dst,
                                    k,
                                    sched_payload,
                                    stats,
                                    &mut sink,
                                );
                            }
                        }
                    } else {
                        for e in run {
                            let (port, dst) = (e.slot as usize % s, e.dst as usize);
                            rows.dequeue_packets_into(src, dst, sched_payload, k_slots, packets);
                            stats.overscheduled_slots += (k_slots - packets.len()) as u64;
                            if !failures.link_up(src, dst, port) {
                                stats.lost_packets += packets.len() as u64;
                                continue;
                            }
                            for (k, pkt) in packets.iter().enumerate() {
                                stats.scheduled_packets += 1;
                                stats.scheduled_bytes += pkt.bytes;
                                sink.emit(Event::Data {
                                    slot: k as u32,
                                    dst: e.dst,
                                    flow: pkt.flow,
                                    bytes: pkt.bytes,
                                });
                            }
                        }
                    }
                    i = run_end;
                }
            });
        }
        // Replay deliveries in lane order = active-list order (a single
        // lane recorded none).
        for lane in lanes.iter() {
            for ev in &lane.events {
                self.land.apply(*ev, clock.arrive(ev.slot()), tracker);
            }
            self.stats += lane.stats;
        }
    }
}
