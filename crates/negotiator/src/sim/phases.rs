//! The epoch's per-ToR phases, each one sequential pass over the fabric:
//! ACCEPT, GRANT and REQUEST, the predefined phase and, outside selective
//! relay, the scheduled phase.
//!
//! In NegotiaToR each ToR computes its GRANT and its ACCEPT from the
//! messages it received (§3.2), and its REQUEST from its own queues. Each
//! step is one loop over the ToRs in id order: a ToR's inbox is swapped
//! out, its arbiter run, and its decisions written straight into the
//! engine's tables. The predefined phase is one loop over the round's
//! timeslots, each visiting the sources in id order and each source's live
//! connections in port order ([`NegotiatorSim::predefined_phase`]). The
//! scheduled phase outside relay is one loop over the active-match list
//! ([`NegotiatorSim::scheduled_batched`]). Their buffers are the engine's
//! one [`SimScratch`], reused every epoch.
//!
//! A write that lands on another ToR's state — an inbox push, a data
//! delivery — is an [`Event`] handed to a [`Sink`], which applies it on the
//! spot or, on a gray link, counts it as dropped. What an effect *does* is
//! [`Landing::apply`], and nothing else.
//!
//! # One thread
//!
//! Every phase once also ran over contiguous ToR shards on scoped threads,
//! with each shard's cross-ToR effects recorded and replayed slot-major
//! after the join. Two workers never beat one. Per-phase wall time of the
//! negotiator runs of `benchmark/workloads/*.json` on a 2-core host, in
//! ms, median of five runs, one worker → two, when every phase sharded:
//!
//! | workload | ACCEPT + GRANT + REQUEST | scheduled | predefined |
//! |---|---|---|---|
//! | `paper_heavy` | 80.8 → 199.0 | 54.3 → 107.5 | 117.2 → 201.5 |
//! | `fabric_light` | 63.1 → 69.2 | 29.0 → 31.6 | 149.0 → 111.8 |
//! | `alltoall_dense` | 276.5 → 559.5 | 82.6 → 244.3 | 831.4 → 1 044.1 |
//! | `incast_storm` | 87.3 → 480.3 | 25.0 → 171.0 | 193.5 → 369.5 |
//!
//! A fork/join per step, plus the plumbing that split the state into row
//! windows, cost more than a second core returned, and a second thread
//! slowed even a phase it did not run (`alltoall_dense`'s scheduled phase,
//! 78 → 150 ms). So the engine owns no threads: a run is one sequential
//! loop, and concurrency lives across runs, in `--jobs` and `sim::pool`.

use super::*;
use std::ops::Range;

/// A write that lands on another ToR's state, as it lands: the argument
/// of [`Landing::apply`].
pub(super) enum Event {
    /// A REQUEST landing in `inbox_requests[dst]`.
    Req { dst: usize, req: ReqIn },
    /// One grant-bucket entry landing in `inbox_grants[dst]`.
    Grant {
        dst: usize,
        grant: Grant,
        debit: u64,
    },
    /// A relay request landing in `inbox_relay_req[r.via]`.
    RelayReq(RelayRequest),
    /// One relay-grant entry, `(via, port, final, vol)`, landing in
    /// `inbox_relay_grant[dst]`.
    RelayGrant {
        dst: usize,
        grant: (usize, usize, usize, u64),
    },
    /// Data of `flow` delivered to `dst` (tracker + series + rx buffer):
    /// one packet in the predefined phase and the slot-major walk; in the
    /// batched scheduled phase a whole run of one segment's packets,
    /// landed at its last delivered packet's slot — or, with a bandwidth
    /// series attached, one event per slot the run occupies
    /// ([`Batch::land`]).
    Data { dst: usize, flow: u64, bytes: u64 },
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
    /// Apply on the spot, at the arrival time of the transmissions of the
    /// slot the effect is emitted in: the predefined timeslot (predefined
    /// phase) or the scheduled slot index `k` (scheduled phase).
    Apply {
        land: &'a mut Landing,
        tracker: &'a mut FlowTracker,
        clock: SlotClock,
    },
    /// A gray link: count the messages it drops.
    Count(&'a mut u64),
}

impl Sink<'_> {
    // lint: hot-path
    #[inline(always)]
    pub(super) fn emit(&mut self, slot: u32, ev: Event) {
        match self {
            Sink::Apply {
                land,
                tracker,
                clock,
            } => land.apply(ev, clock.arrive(slot), tracker),
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
            Event::Req { dst, req } => {
                // lint: allow(H001) inbox vecs recycle capacity across epochs (swap-recycled)
                self.inbox_requests[dst].push(req);
            }
            Event::Grant { dst, grant, debit } => {
                // lint: allow(H001) inbox vecs recycle capacity across epochs (swap-recycled)
                self.inbox_grants[dst].push((grant, debit));
            }
            Event::RelayReq(r) => {
                // lint: allow(H001) inbox vecs recycle capacity across epochs (swap-recycled)
                self.inbox_relay_req[r.via].push(r);
            }
            Event::RelayGrant { dst, grant } => {
                // lint: allow(H001) inbox vecs recycle capacity across epochs (swap-recycled)
                self.inbox_relay_grant[dst].push(grant);
            }
            Event::Data { dst, flow, bytes } => {
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
        if flags & REQ_FLAG != 0 {
            let idx = src * self.n + dst;
            let req = ReqIn {
                src,
                value: self.req.get(idx).copied().unwrap_or(0.0),
                // A mode without port bindings leaves the request unbound.
                port: match self.req_port.get(idx) {
                    Some(&port) if port != u16::MAX => usize::from(port),
                    _ => usize::MAX,
                },
            };
            sink.emit(slot, Event::Req { dst, req });
        }
        // Grants computed by `src` for requester `dst` ride this connection.
        if flags & GRANT_FLAG != 0 {
            for &(_, port, debit) in self.grants_to(src, dst) {
                let grant = Grant {
                    dst: src,
                    port: port as usize,
                };
                sink.emit(slot, Event::Grant { dst, grant, debit });
            }
        }
        if flags & RELAY_REQ_FLAG != 0 {
            for &r in self.relay_reqs_via(src, dst) {
                sink.emit(slot, Event::RelayReq(r));
            }
        }
        if flags & RELAY_GRANT_FLAG != 0 {
            for &(_, port, final_dst, vol) in self.relay_grants_to(src, dst) {
                let grant = (src, port as usize, final_dst as usize, vol);
                sink.emit(slot, Event::RelayGrant { dst, grant });
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

/// One matched queue's batch of scheduled packets toward `dst`: packet
/// `i` rides the `i mod m`-th of the queue's `m` ports in slot
/// `k0 + i / m`, and carries `cap` bytes unless it ends a run.
struct Batch<'a> {
    dst: usize,
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
        let (dst, flow) = (self.dst, run.flow);
        let mut emit = |slot: u32, bytes: u64| {
            stats.scheduled_deliveries += 1;
            sink.emit(slot, Event::Data { dst, flow, bytes });
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
        let lane_masks = &mut self.q.lane_masks;
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

    /// The predefined phase of every epoch. At each slot boundary it
    /// injects the flows that have arrived and queues the relay first hops
    /// that have landed, and then looks only at the connections whose lane
    /// bit is set — those whose pair has backlog or scheduling messages
    /// ([`topology::LaneTable`]) — moving the messages and piggybacking one
    /// packet per connected pair. Per slot it walks the sources in
    /// ascending order and each source's set lanes in ascending port
    /// order, which is the `(slot, src, port)` order of a pass over every
    /// connection, applying each cross-ToR effect as it goes. Outside a
    /// `healthy` epoch a visit checks its link: messages cross only one up
    /// and not gray (a gray one drops them, the pair keeps its flags), a
    /// packet only one the detector has not excluded, lost if it is down.
    pub(super) fn predefined_phase(
        &mut self,
        flows: &[Flow],
        mut cursor: usize,
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
        let (q, out, msg_flags, stats) =
            (&mut self.q, &self.out, &mut self.msg_flags, &mut self.stats);
        let first_hops = &self.first_hops[..];
        let mut sink = Sink::Apply {
            land: &mut self.land,
            tracker,
            clock,
        };
        let sched = q.lane_masks.lanes();
        let mut landed = 0;
        // lint: hot-path
        for slot in 0..pre_slots {
            let now = t0 + slot as Nanos * pre_slot_len;
            cursor = q.inject(flows, cursor, now);
            landed = q.land(first_hops, landed, now);
            for src in 0..n {
                let group = q.lane_masks.group(src, slot);
                // Most groups of a lightly loaded fabric are idle.
                if q.lane_masks.is_idle(group) {
                    continue;
                }
                let origin = sched.origin(slot, src);
                for ports in sched.port_order(epoch) {
                    let mut from = ports.start;
                    while let Some(lane) = q.lane_masks.next_lane(group, from..ports.end) {
                        from = lane + 1;
                        let dst = sched.dst(origin, lane);
                        let row = src * n + dst;
                        let (flags, mut backlog) = (msg_flags[row], q.queue_bytes[row]);
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
                                // Undelivered messages expire at the next
                                // epoch start.
                                let dropped = &mut stats.control_dropped;
                                out.emit(flags, src, dst, 0, &mut Sink::Count(dropped));
                            }
                        }
                        if piggyback && backlog > 0 && usable {
                            let pkt = q
                                .dequeue_packet(src, dst, pb_payload, now)
                                .expect("non-zero mirror implies a packet");
                            backlog -= pkt.bytes;
                            if up {
                                stats.piggyback_packets += 1;
                                stats.piggyback_bytes += pkt.bytes;
                                let data = Event::Data {
                                    dst,
                                    flow: pkt.flow,
                                    bytes: pkt.bytes,
                                };
                                sink.emit(slot as u32, data);
                            } else {
                                // Recovery is an upper-layer (TCP) concern.
                                stats.lost_packets += 1;
                                stats.lost_bytes += pkt.bytes;
                            }
                        }
                        // Nothing left to say: the pair's other connection,
                        // if any, clears its own bit.
                        if msg_flags[row] as u64 | backlog == 0 {
                            q.lane_masks.clear(group, lane);
                        }
                    }
                }
            }
        }
        self.first_hops.drain(..landed);
        cursor
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
        let (q, stats) = (&mut self.q, &mut self.stats);
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
        let mut send = |q: &mut SrcQueues, ports: &[usize], src, dst, slots: Range<usize>| {
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
                dst,
                k0: slots.start,
                cap,
                up,
                series,
            };
            let mut at = 0;
            while at < room {
                let Some(run) = q.dequeue_run(src, dst, cap, room - at) else {
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
                q.enqueue(f);
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
                    send(q, ports, src, dst, k0..k);
                    q.enqueue(f);
                    k0 = k;
                }
                send(q, ports, src, dst, k0..k_slots);
            }
        }
        end
    }
}
