//! Informative requests (Appendix A.2.3).
//!
//! Two request enrichments over binary demand bits:
//!
//! * **Data-size** (goodput-oriented): requests carry the aggregated bytes
//!   of the per-destination queue; destinations grant the largest backlog
//!   first.
//! * **HoL-delay** (FCT-oriented): requests carry a weighted head-of-line
//!   waiting delay; destinations grant the longest-waiting pair first. The
//!   weighting keeps elephant waiting times from masking mice:
//!   `HoL = (1−α)·(HoL_q0 + HoL_q1)/2 + α·HoL_q2` with a small non-zero
//!   `α` (the paper found 0.001 best).

use crate::queues::PairView;
use sim::time::Nanos;

/// The paper's best-performing mice/elephant weighting.
pub const DEFAULT_ALPHA: f64 = 0.001;

/// Request priority value under the weighted HoL-delay approach.
///
/// Queue levels 0 and 1 hold mice-ish bytes (first 10 KB of each flow),
/// level 2 the elephant remainder. An empty level contributes zero delay.
pub fn hol_delay_value(queue: PairView<'_>, now: Nanos, alpha: f64) -> f64 {
    let wait = |level: usize| -> f64 {
        queue
            .hol_enqueued(level)
            .map(|t| (now.saturating_sub(t)) as f64)
            .unwrap_or(0.0)
    };
    (1.0 - alpha) * (wait(0) + wait(1)) / 2.0 + alpha * wait(2)
}

/// Pick the request with the largest value; ties broken by lower source id
/// (a deterministic stand-in for "then consult the ring").
pub fn pick_max_value(candidates: &[(usize, f64)]) -> Option<usize> {
    candidates
        .iter()
        .copied()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(b.0.cmp(&a.0)))
        .map(|(src, _)| src)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queues::PairQueues;

    const TH: [u64; 2] = [1_000, 10_000];

    #[test]
    fn hol_weights_mice_levels_heavily() {
        // Pair 0 → 0: an elephant enqueued long ago, of which only level 2
        // is left after the mice levels drain. Pair 0 → 1: fresh mice,
        // waiting only briefly.
        let mut q = PairQueues::new(1, 2, false);
        q.enqueue_flow(0, 0, 1, 50_000, 0, true, TH);
        for level in 0..2 {
            while q.dequeue_level_packet(0, 0, level, 1_115).is_some() {}
        }
        assert_eq!(q.pair(0, 0).total_bytes(), 40_000);
        q.enqueue_flow(0, 1, 2, 500, 995_000, true, TH);
        let v_old_elephant = hol_delay_value(q.pair(0, 0), 1_000_000, DEFAULT_ALPHA);
        let v_recent_mice = hol_delay_value(q.pair(0, 1), 1_000_000, DEFAULT_ALPHA);
        // 5 µs of mice waiting outranks 1 ms of elephant waiting at α=0.001.
        assert!(
            v_recent_mice > v_old_elephant,
            "mice {v_recent_mice} vs elephant {v_old_elephant}"
        );
    }

    #[test]
    fn hol_zero_for_empty_queue() {
        let q = PairQueues::new(1, 1, false);
        assert_eq!(hol_delay_value(q.pair(0, 0), 12345, DEFAULT_ALPHA), 0.0);
    }

    #[test]
    fn max_value_pick() {
        assert_eq!(pick_max_value(&[(3, 1.0), (7, 9.0), (5, 9.0)]), Some(5));
        assert_eq!(pick_max_value(&[]), None);
    }
}
