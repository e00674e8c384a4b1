//! Scheduler observability: aggregate counters the epoch engine maintains
//! while it runs.
//!
//! These quantify the costs the paper discusses qualitatively: stateless
//! over-scheduling shows up as [`SchedStats::overscheduled_slots`]
//! (a matched port found its queue empty — §3.5 "Stateless scheduling"),
//! the piggyback bypass as [`SchedStats::piggyback_packets`], link
//! failures as [`SchedStats::lost_packets`]. The ablation experiments in
//! the harness (`ablation_threshold`, `ablation_rotation`) read them to
//! show *why* the paper's defaults are what they are.

/// Aggregate counters over one simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// ToR-level requests transmitted (one per pair per epoch at most).
    pub requests_sent: u64,
    /// Port-level grants issued by destinations.
    pub grants_issued: u64,
    /// Port-level accepts — the matches that actually activated.
    pub accepts_made: u64,
    /// Data packets delivered through piggybacking (§3.4.1).
    pub piggyback_packets: u64,
    /// Payload bytes delivered through piggybacking.
    pub piggyback_bytes: u64,
    /// Data packets delivered through the scheduled phase.
    pub scheduled_packets: u64,
    /// Payload bytes delivered through the scheduled phase.
    pub scheduled_bytes: u64,
    /// Scheduled port-slots that held a match but found the
    /// per-destination queue empty — the price of stateless scheduling.
    pub overscheduled_slots: u64,
    /// Scheduled port-slots with no match at all.
    pub unmatched_slots: u64,
    /// Packets transmitted into a ground-truth-failed link and lost.
    pub lost_packets: u64,
    /// Payload bytes of the packets in `lost_packets`.
    pub lost_bytes: u64,
    /// Control messages (requests, grants, relay traffic and the per-
    /// connection dummy) dropped by an active gray failure. Data packets
    /// are never in this count — a gray link stays up for data.
    pub control_dropped: u64,
    /// Work counter: pairs REQUEST looked at (one per non-empty queue per
    /// epoch). Tracks demand, not fabric size.
    pub request_pairs_scanned: u64,
    /// Work counter: predefined connections looked at — in every epoch
    /// those whose lane bit is set (a superset of the pairs with backlog or
    /// a scheduling message); an epoch that was not healthy adds every
    /// connection of its round once more, for the detector's dummies.
    pub predefined_conns_visited: u64,
    /// Work counter: requesters GRANT looked at — each request it marks in
    /// its bitmap, plus each request a port's fallback scan filters (a
    /// port whose sweep pick the detector or an earlier iterative round
    /// refused). At most `requests_sent` on a healthy fabric.
    pub grant_candidates_scanned: u64,
    /// Work counter: `Data` deliveries the scheduled phase applies — one
    /// per run a matched queue sends (a segment, or what of it the batch
    /// has room for), or one per slot the run occupies when a bandwidth
    /// series is attached; one per packet in selective relay's slot-major
    /// walk. Tracks segments, not packets.
    pub scheduled_deliveries: u64,
}

impl std::ops::AddAssign for SchedStats {
    /// Counter-wise sum: how the per-shard tallies of a phase fold into
    /// the run's.
    fn add_assign(&mut self, o: SchedStats) {
        self.requests_sent += o.requests_sent;
        self.grants_issued += o.grants_issued;
        self.accepts_made += o.accepts_made;
        self.piggyback_packets += o.piggyback_packets;
        self.piggyback_bytes += o.piggyback_bytes;
        self.scheduled_packets += o.scheduled_packets;
        self.scheduled_bytes += o.scheduled_bytes;
        self.overscheduled_slots += o.overscheduled_slots;
        self.unmatched_slots += o.unmatched_slots;
        self.lost_packets += o.lost_packets;
        self.lost_bytes += o.lost_bytes;
        self.control_dropped += o.control_dropped;
        self.request_pairs_scanned += o.request_pairs_scanned;
        self.predefined_conns_visited += o.predefined_conns_visited;
        self.grant_candidates_scanned += o.grant_candidates_scanned;
        self.scheduled_deliveries += o.scheduled_deliveries;
    }
}

impl SchedStats {
    /// Fraction of scheduled port-slots that carried a packet.
    pub fn scheduled_utilization(&self) -> f64 {
        let total = self.scheduled_packets + self.overscheduled_slots + self.unmatched_slots;
        if total == 0 {
            0.0
        } else {
            self.scheduled_packets as f64 / total as f64
        }
    }

    /// Fraction of delivered payload that travelled in the predefined
    /// phase (how much work the bypass is doing).
    pub fn piggyback_share(&self) -> f64 {
        let total = self.piggyback_bytes + self.scheduled_bytes;
        if total == 0 {
            0.0
        } else {
            self.piggyback_bytes as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_math() {
        let s = SchedStats {
            scheduled_packets: 60,
            overscheduled_slots: 20,
            unmatched_slots: 20,
            ..Default::default()
        };
        assert_eq!(s.scheduled_utilization(), 0.6);
    }

    #[test]
    fn piggyback_share_math() {
        let s = SchedStats {
            piggyback_bytes: 100,
            scheduled_bytes: 300,
            ..Default::default()
        };
        assert_eq!(s.piggyback_share(), 0.25);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = SchedStats::default();
        assert_eq!(s.scheduled_utilization(), 0.0);
        assert_eq!(s.piggyback_share(), 0.0);
    }
}
