//! Per-epoch match-ratio recording (Appendix A.1, Figure 14).
//!
//! The paper validates NegotiaToR Matching's efficiency analysis by
//! recording, for each epoch, the ratio of accepted grants to issued grants
//! and comparing it to the closed-form `E[Y] = 1 − (1 − 1/n)^n`.

/// Records grants and accepts per epoch.
#[derive(Debug, Clone, Default)]
pub struct MatchRatioRecorder {
    per_epoch: Vec<(u64, u64)>, // (grants, accepts)
}

impl MatchRatioRecorder {
    /// Empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one epoch's totals.
    pub fn record_epoch(&mut self, grants: u64, accepts: u64) {
        debug_assert!(accepts <= grants, "cannot accept more than granted");
        self.per_epoch.push((grants, accepts));
    }

    /// Number of epochs recorded.
    pub fn len(&self) -> usize {
        self.per_epoch.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.per_epoch.is_empty()
    }

    /// Overall accepts/grants across all epochs with activity.
    pub fn overall_ratio(&self) -> Option<f64> {
        let (g, a) = self
            .per_epoch
            .iter()
            .fold((0u64, 0u64), |(g, a), &(eg, ea)| (g + eg, a + ea));
        (g > 0).then(|| a as f64 / g as f64)
    }

    /// `(epoch index, ratio)` points for plotting, skipping idle epochs.
    pub fn series(&self) -> Vec<(usize, f64)> {
        self.per_epoch
            .iter()
            .enumerate()
            .filter(|&(_i, &(g, _a))| g > 0)
            .map(|(i, &(g, a))| (i, a as f64 / g as f64))
            .collect()
    }
}

/// Theoretical matching efficiency `E[Y] = 1 − (1 − 1/n)^n` from §3.2.2:
/// the probability that a grant survives the ACCEPT step when `n` ToRs
/// compete uniformly. Monotonically decreases towards `1 − 1/e ≈ 0.632`.
pub fn theoretical_match_efficiency(n: usize) -> f64 {
    assert!(n > 1, "model needs at least two competing ToRs");
    1.0 - (1.0 - 1.0 / n as f64).powi(n as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios() {
        let mut r = MatchRatioRecorder::new();
        r.record_epoch(10, 6);
        r.record_epoch(0, 0);
        r.record_epoch(10, 8);
        assert_eq!(r.overall_ratio(), Some(0.7));
        assert_eq!(r.series(), vec![(0, 0.6), (2, 0.8)]);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn empty_recorder() {
        let r = MatchRatioRecorder::new();
        assert!(r.is_empty());
        assert_eq!(r.overall_ratio(), None);
    }

    #[test]
    fn theory_matches_paper_figures() {
        // §A.1: thin-clos n=16 → 0.644, parallel n=128 → 0.634.
        assert!((theoretical_match_efficiency(16) - 0.644).abs() < 0.001);
        assert!((theoretical_match_efficiency(128) - 0.634).abs() < 0.001);
        // Limit: 1 - 1/e ≈ 0.632.
        assert!(
            (theoretical_match_efficiency(1_000_000) - (1.0 - 1.0 / std::f64::consts::E)).abs()
                < 1e-5
        );
    }

    #[test]
    fn theory_is_monotone_decreasing() {
        let mut prev = theoretical_match_efficiency(2);
        for n in 3..200 {
            let e = theoretical_match_efficiency(n);
            assert!(e < prev);
            prev = e;
        }
    }
}
