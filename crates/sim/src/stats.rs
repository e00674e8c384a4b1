//! Statistics used by the metrics crate and the experiment harness: exact
//! percentiles and CDFs.

/// Exact empirical distribution: stores every sample, answers percentile
/// and CDF queries. Fine for this workload scale (a few million flows).
#[derive(Debug, Clone, Default)]
pub struct Cdf {
    samples: Vec<f64>,
    sorted: bool,
}

/// Two distributions are equal when they hold the same multiset of
/// samples; insertion order and lazy-sort state don't matter. Used by the
/// determinism tests to compare whole reports across runs.
impl PartialEq for Cdf {
    fn eq(&self, other: &Self) -> bool {
        if self.samples.len() != other.samples.len() {
            return false;
        }
        if self.sorted && other.sorted {
            return self.samples == other.samples;
        }
        let sort = |samples: &[f64]| {
            let mut v = samples.to_vec();
            v.sort_unstable_by(f64::total_cmp);
            v
        };
        sort(&self.samples) == sort(&other.samples)
    }
}

impl Cdf {
    /// Empty distribution.
    pub fn new() -> Self {
        Cdf {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, value: f64) {
        self.samples.push(value);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            self.sorted = true;
        }
    }

    /// `p`-th percentile with `p` in `[0, 100]`, nearest-rank method
    /// (the convention DCN papers use for "99p FCT"). `None` when empty.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let n = self.samples.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        let idx = rank.clamp(1, n) - 1;
        Some(self.samples[idx])
    }

    /// Fraction of samples `<= x`.
    pub fn fraction_below(&mut self, x: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let count = self.samples.partition_point(|&s| s <= x);
        count as f64 / self.samples.len() as f64
    }

    /// Mean of all samples; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Evenly spaced (value, cumulative-fraction) points for plotting,
    /// at most `points` of them.
    pub fn curve(&mut self, points: usize) -> Vec<(f64, f64)> {
        if self.samples.is_empty() || points == 0 {
            return Vec::new();
        }
        self.ensure_sorted();
        let n = self.samples.len();
        let step = (n.max(points) / points).max(1);
        let mut out = Vec::with_capacity(points + 1);
        let mut i = step - 1;
        while i < n {
            out.push((self.samples[i], (i + 1) as f64 / n as f64));
            i += step;
        }
        if out.last().map(|&(_, f)| f) != Some(1.0) {
            out.push((self.samples[n - 1], 1.0));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let mut c = Cdf::new();
        for v in 1..=100 {
            c.record(v as f64);
        }
        assert_eq!(c.percentile(99.0), Some(99.0));
        assert_eq!(c.percentile(50.0), Some(50.0));
        assert_eq!(c.percentile(100.0), Some(100.0));
        assert_eq!(c.percentile(0.0), Some(1.0));
    }

    #[test]
    fn percentile_of_singleton() {
        let mut c = Cdf::new();
        c.record(7.5);
        assert_eq!(c.percentile(99.0), Some(7.5));
        assert_eq!(c.percentile(1.0), Some(7.5));
    }

    #[test]
    fn empty_cdf() {
        let mut c = Cdf::new();
        assert_eq!(c.percentile(99.0), None);
        assert_eq!(c.fraction_below(10.0), 0.0);
        assert!(c.curve(10).is_empty());
    }

    #[test]
    fn fraction_below() {
        let mut c = Cdf::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            c.record(v);
        }
        assert_eq!(c.fraction_below(2.0), 0.5);
        assert_eq!(c.fraction_below(0.5), 0.0);
        assert_eq!(c.fraction_below(4.0), 1.0);
    }

    #[test]
    fn curve_is_monotone_and_ends_at_one() {
        let mut c = Cdf::new();
        for v in 0..1000 {
            c.record((v % 37) as f64);
        }
        let pts = c.curve(20);
        assert!(!pts.is_empty());
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(pts.last().unwrap().1, 1.0);
    }
}
