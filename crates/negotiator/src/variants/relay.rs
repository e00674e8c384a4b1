//! Traffic-aware selective relay for thin-clos (Appendix A.2.2).
//!
//! On thin-clos each ToR pair owns exactly one port-to-port path, so
//! elephants can starve while other ports idle. This variant lets a source
//! relay *lowest-priority* (elephant) data through a lightly loaded
//! intermediate ToR, doubling the usable paths — but only when it cannot
//! hurt: mice are never relayed, intermediates with heavy direct traffic on
//! the shared links are excluded, and intermediates refuse relays that
//! would overflow their relay buffer (the congestion control the paper
//! notes plain NegotiaToR does not need).
//!
//! Mechanically the relay piggybacks on NegotiaToR Matching: relay requests
//! ride the REQUEST step, intermediates grant *leftover* ports in the GRANT
//! step, and sources accept relay grants only for ports that direct traffic
//! did not claim (direct traffic is prioritized, Appendix A.2.2 step 3).

use crate::queues::PairView;

/// Tuning knobs of the selective relay (the paper reports results "under
/// the optimal relay setting we found"; these defaults play that role).
#[derive(Debug, Clone)]
pub struct RelayPolicy {
    /// Minimum lowest-priority backlog (bytes) of a pair before relaying is
    /// considered — the flow must have "enough data to fill extra links".
    pub min_elephant_backlog: u64,
    /// A port counts as busy with direct traffic above this backlog
    /// (bytes); busy shared links exclude an intermediate.
    pub busy_port_bytes: u64,
    /// Relay buffer capacity per intermediate ToR (bytes); grants stop when
    /// the buffer would overflow.
    pub buffer_capacity: u64,
    /// Max relay volume granted per epoch (bytes), bounding how much a
    /// source may push to one intermediate at a time.
    pub grant_volume: u64,
}

impl RelayPolicy {
    /// Defaults sized in epoch capacities: one scheduled phase moves
    /// `scheduled_slots × payload` bytes per port (≈ 33 KB at paper
    /// defaults).
    pub fn default_for(epoch_capacity_bytes: u64) -> Self {
        RelayPolicy {
            min_elephant_backlog: 4 * epoch_capacity_bytes,
            busy_port_bytes: epoch_capacity_bytes,
            buffer_capacity: 32 * epoch_capacity_bytes,
            grant_volume: epoch_capacity_bytes,
        }
    }
}

/// A relay request: `src` wants intermediate `via` to forward bytes of the
/// pair `src → final_dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelayRequest {
    /// Requesting source.
    pub src: usize,
    /// Proposed intermediate.
    pub via: usize,
    /// Final destination of the relayed bytes.
    pub final_dst: usize,
}

/// Per-ToR relay-buffer accounting at an intermediate.
#[derive(Debug, Clone, Default)]
pub struct RelayBuffer {
    in_flight: u64,
}

impl RelayBuffer {
    /// Space left under `policy`.
    pub fn space(&self, policy: &RelayPolicy) -> u64 {
        policy.buffer_capacity.saturating_sub(self.in_flight)
    }

    /// Admit `bytes` of relayed data (called when they arrive).
    pub fn admit(&mut self, bytes: u64) {
        self.in_flight += bytes;
    }

    /// Release `bytes` forwarded onward to the final destination.
    pub fn release(&mut self, bytes: u64) {
        assert!(self.in_flight >= bytes, "relay buffer under-run");
        self.in_flight -= bytes;
    }
}

/// Does the pair `src → dst` qualify for relaying under `policy`?
/// Only a deep elephant (lowest-priority) backlog qualifies; mice levels
/// are irrelevant because mice are never relayed, and already-relayed
/// bytes are subtracted so data never cascades through a second relay.
pub fn pair_qualifies(queue: PairView<'_>, policy: &RelayPolicy) -> bool {
    queue.elephant_backlog() >= policy.min_elephant_backlog
}

/// Is egress `port` of a ToR too busy with direct traffic to lend to a
/// relay? `direct_backlog_via_port` is the ToR's total queued direct bytes
/// whose only path uses that port.
pub fn port_busy(direct_backlog_via_port: u64, policy: &RelayPolicy) -> bool {
    direct_backlog_via_port > policy.busy_port_bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queues::PairQueues;

    const TH: [u64; 2] = [1_000, 10_000];

    fn policy() -> RelayPolicy {
        RelayPolicy::default_for(33_450) // 30 slots × 1115 B
    }

    #[test]
    fn only_deep_elephant_backlogs_qualify() {
        let p = policy();
        // With the O(1) elephant table (as the engine runs it) and without.
        for tracked in [true, false] {
            let mut q = PairQueues::new(1, 2, tracked);
            q.all().enqueue_flow(0, 0, 1, 9_000, 0, true, TH); // pure mice
            q.all().enqueue_flow(0, 1, 2, 500_000, 0, true, TH); // elephant
            assert!(!pair_qualifies(q.pair(0, 0), &p));
            assert!(pair_qualifies(q.pair(0, 1), &p));
        }
    }

    #[test]
    fn mice_levels_do_not_count_toward_qualification() {
        let p = policy();
        let mut q = PairQueues::new(1, 1, true);
        // Many distinct mice flows: lots of bytes, all at levels 0/1.
        for f in 0..40 {
            q.all().enqueue_flow(0, 0, f, 9_999, 0, true, TH);
        }
        assert!(q.pair(0, 0).total_bytes() > p.min_elephant_backlog);
        assert!(!pair_qualifies(q.pair(0, 0), &p));
    }

    #[test]
    fn relayed_backlog_does_not_qualify_for_a_second_relay() {
        let p = policy();
        let mut q = PairQueues::new(1, 1, true);
        // A deep lowest-level backlog, all of it forwarded for others.
        for f in 0..200 {
            q.all().enqueue_relay(0, 0, f, 1_115, 0);
        }
        assert!(q.pair(0, 0).level_bytes(2) > p.min_elephant_backlog);
        assert!(!pair_qualifies(q.pair(0, 0), &p));
    }

    #[test]
    #[should_panic(expected = "relay buffer under-run")]
    fn releasing_more_than_was_admitted_panics() {
        let mut b = RelayBuffer::default();
        b.admit(1_000);
        b.release(1_001);
    }

    #[test]
    fn buffer_admission_and_release() {
        let p = policy();
        let mut b = RelayBuffer::default();
        assert_eq!(b.space(&p), p.buffer_capacity);
        b.admit(100_000);
        assert_eq!(b.space(&p), p.buffer_capacity - 100_000);
        b.release(40_000);
    }

    #[test]
    fn busy_port_threshold() {
        let p = policy();
        assert!(!port_busy(p.busy_port_bytes, &p));
        assert!(port_busy(p.busy_port_bytes + 1, &p));
    }
}
