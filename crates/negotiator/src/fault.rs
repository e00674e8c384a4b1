//! Fault detection and recovery (§3.6.1).
//!
//! Ground-truth failures live in `topology::LinkFailures`. ToRs cannot see
//! that state directly; they infer it from the predefined phase: every ToR
//! sends a dummy message even when it has nothing to schedule, and each
//! dummy carries feedback about whether bits arrived in the reverse
//! direction. A ToR that consistently hears nothing on an ingress port
//! declares the ingress fiber down; repeated "nothing arrived from you"
//! feedback pointing at one egress port makes the sender declare that
//! egress fiber down. Detections are broadcast, so every ToR's scheduler
//! excludes the same links (grants and accepts skip them); once dummies
//! flow again the link is re-admitted.
//!
//! [`FaultDetector`] models this with per-direction miss counters advanced
//! once per epoch. Detection therefore lags a real failure by
//! [`DETECT_EPOCHS`] epochs and recovery by one epoch — the windows during
//! which Figure 19's zero-bandwidth epochs occur.

/// Consecutive silent epochs before a link is declared down.
pub const DETECT_EPOCHS: u32 = 2;

/// The scheduler-visible (detected + broadcast) failure view.
#[derive(Debug, Clone)]
pub struct FaultDetector {
    n_ports: usize,
    egress_miss: Vec<u32>,
    ingress_miss: Vec<u32>,
    egress_excluded: Vec<bool>,
    ingress_excluded: Vec<bool>,
}

impl FaultDetector {
    /// Detector over `n_tors × n_ports`, everything healthy.
    pub fn new(n_tors: usize, n_ports: usize) -> Self {
        FaultDetector {
            n_ports,
            egress_miss: vec![0; n_tors * n_ports],
            ingress_miss: vec![0; n_tors * n_ports],
            egress_excluded: vec![false; n_tors * n_ports],
            ingress_excluded: vec![false; n_tors * n_ports],
        }
    }

    fn idx(&self, tor: usize, port: usize) -> usize {
        tor * self.n_ports + port
    }

    /// Advance one epoch of observations for a single directed link pair:
    /// `delivered` says whether at least one predefined-phase transmission
    /// over egress `(tor, port)` got through this epoch (the feedback the
    /// dummies provide).
    pub fn observe_egress(&mut self, tor: usize, port: usize, delivered: bool) {
        let i = self.idx(tor, port);
        if delivered {
            self.egress_miss[i] = 0;
            self.egress_excluded[i] = false; // repair detected, re-admit
        } else {
            self.egress_miss[i] = self.egress_miss[i].saturating_add(1);
            if self.egress_miss[i] >= DETECT_EPOCHS {
                self.egress_excluded[i] = true;
            }
        }
    }

    /// Same for the ingress direction: `heard` says whether `(tor, port)`
    /// received bits from anyone this epoch.
    pub fn observe_ingress(&mut self, tor: usize, port: usize, heard: bool) {
        let i = self.idx(tor, port);
        if heard {
            self.ingress_miss[i] = 0;
            self.ingress_excluded[i] = false;
        } else {
            self.ingress_miss[i] = self.ingress_miss[i].saturating_add(1);
            if self.ingress_miss[i] >= DETECT_EPOCHS {
                self.ingress_excluded[i] = true;
            }
        }
    }

    /// Is egress `(tor, port)` currently excluded from scheduling?
    pub fn egress_excluded(&self, tor: usize, port: usize) -> bool {
        self.egress_excluded[self.idx(tor, port)]
    }

    /// Is ingress `(tor, port)` currently excluded from scheduling?
    pub fn ingress_excluded(&self, tor: usize, port: usize) -> bool {
        self.ingress_excluded[self.idx(tor, port)]
    }

    /// May the scheduler use the path `(src, port) → (dst, port)`?
    pub fn usable(&self, src: usize, dst: usize, port: usize) -> bool {
        !self.egress_excluded(src, port) && !self.ingress_excluded(dst, port)
    }

    /// True when the detector carries no state at all: no exclusions and
    /// every miss counter at zero. In this state a round of all-success
    /// observations is a no-op, which is what lets the epoch engine skip
    /// observation bookkeeping entirely while the fabric is healthy.
    pub fn is_quiescent(&self) -> bool {
        self.egress_miss.iter().all(|&m| m == 0)
            && self.ingress_miss.iter().all(|&m| m == 0)
            && !self.egress_excluded.iter().any(|&x| x)
            && !self.ingress_excluded.iter().any(|&x| x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_needs_consecutive_misses() {
        let mut d = FaultDetector::new(4, 2);
        d.observe_egress(0, 0, false);
        assert!(!d.egress_excluded(0, 0), "one miss is not enough");
        d.observe_egress(0, 0, false);
        assert!(d.egress_excluded(0, 0));
        assert!(!d.usable(0, 3, 0));
        assert!(d.usable(0, 3, 1), "other port unaffected");
    }

    #[test]
    fn delivery_resets_the_counter() {
        let mut d = FaultDetector::new(4, 2);
        d.observe_egress(1, 1, false);
        d.observe_egress(1, 1, true);
        d.observe_egress(1, 1, false);
        assert!(!d.egress_excluded(1, 1), "non-consecutive misses ignored");
    }

    #[test]
    fn recovery_readmits_immediately() {
        let mut d = FaultDetector::new(4, 2);
        for _ in 0..5 {
            d.observe_ingress(2, 0, false);
        }
        assert!(d.ingress_excluded(2, 0));
        d.observe_ingress(2, 0, true);
        assert!(!d.ingress_excluded(2, 0));
        assert!(d.usable(1, 2, 0));
    }

    #[test]
    fn usable_combines_both_directions() {
        let mut d = FaultDetector::new(4, 2);
        for _ in 0..DETECT_EPOCHS {
            d.observe_egress(0, 0, false);
            d.observe_ingress(3, 0, false);
        }
        assert!(!d.usable(0, 1, 0), "src egress excluded");
        assert!(!d.usable(1, 3, 0), "dst ingress excluded");
        assert!(d.usable(1, 2, 0));
    }
}
