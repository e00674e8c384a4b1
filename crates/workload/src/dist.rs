//! Empirical flow-size distributions.
//!
//! The paper samples flow sizes from three published datacenter traces. The
//! raw traces are not public, but the papers describing them publish their
//! CDFs; we encode piecewise-linear CDFs that preserve the statistics the
//! NegotiaToR paper itself relies on:
//!
//! * **Hadoop** (Meta \[41\], §4.1): "60% of the flows are less than 1 KB,
//!   while more than 80% of the bits are from elephant flows larger than
//!   100 KB" — a heavily tailed mix; mice dominate the flow count,
//!   elephants the byte count.
//! * **Web search** (DCTCP \[1\], §4.4): "more than 80% flows exceed 10 KB" —
//!   the heavy workload.
//! * **Google** (\[34, 46\], §4.4): "more than 80% flows are less than 1 KB"
//!   — the light, mice-dominated workload.
//!
//! Sampling inverts the CDF with linear interpolation inside each segment,
//! so any size within the trace's support can occur.

use sim::Xoshiro256;

/// A flow-size distribution given as a piecewise-linear CDF over bytes.
#[derive(Debug, Clone)]
pub struct FlowSizeDist {
    name: &'static str,
    /// `(size_bytes, cumulative_probability)`, strictly increasing in both
    /// coordinates, ending at probability 1.0.
    points: Vec<(f64, f64)>,
}

impl FlowSizeDist {
    /// Build from CDF points; panics unless the points form a valid CDF.
    pub fn from_points(name: &'static str, points: Vec<(f64, f64)>) -> Self {
        assert!(points.len() >= 2, "need at least two CDF points");
        assert!(
            points
                .windows(2)
                .all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1),
            "CDF points must be strictly increasing"
        );
        let last = points.last().unwrap();
        assert!(
            (last.1 - 1.0).abs() < 1e-9,
            "CDF must end at probability 1.0"
        );
        assert!(points[0].0 >= 1.0, "flow sizes must be at least one byte");
        FlowSizeDist { name, points }
    }

    /// Meta Hadoop-cluster trace \[41\] (the paper's default workload).
    pub fn hadoop() -> Self {
        Self::from_points(
            "hadoop",
            vec![
                (120.0, 0.10),
                (250.0, 0.25),
                (500.0, 0.42),
                (1_000.0, 0.60), // 60% of flows < 1 KB
                (2_000.0, 0.70),
                (5_000.0, 0.76),
                (10_000.0, 0.80), // 80% mice by count
                (30_000.0, 0.85),
                (100_000.0, 0.90), // 10% elephants > 100 KB …
                (300_000.0, 0.95),
                (1_000_000.0, 0.98),
                (10_000_000.0, 1.0), // … carrying the vast majority of bytes
            ],
        )
    }

    /// DCTCP web-search trace \[1\] (heavy: most flows exceed 10 KB).
    pub fn web_search() -> Self {
        Self::from_points(
            "web-search",
            vec![
                (5_000.0, 0.10),
                (10_000.0, 0.18), // > 80% of flows exceed 10 KB
                (15_000.0, 0.30),
                (20_000.0, 0.40),
                (33_000.0, 0.53),
                (53_000.0, 0.60),
                (133_000.0, 0.70),
                (667_000.0, 0.80),
                (1_333_000.0, 0.90),
                (3_333_000.0, 0.95),
                (6_667_000.0, 0.98),
                (20_000_000.0, 1.0),
            ],
        )
    }

    /// Aggregated Google-datacenter traffic \[34, 46\] (light: mice-dominated).
    pub fn google() -> Self {
        Self::from_points(
            "google",
            vec![
                (100.0, 0.30),
                (200.0, 0.50),
                (400.0, 0.70),
                (700.0, 0.80),
                (1_000.0, 0.85), // > 80% of flows < 1 KB
                (2_000.0, 0.89),
                (10_000.0, 0.93),
                (100_000.0, 0.97),
                (1_000_000.0, 0.995),
                (5_000_000.0, 1.0),
            ],
        )
    }

    /// Fixed-size "distribution" (used by the incast/all-to-all workloads
    /// and handy in tests).
    pub fn fixed(bytes: u64) -> Self {
        let b = bytes as f64;
        FlowSizeDist {
            name: "fixed",
            points: vec![(b.max(1.0) - 0.5, 0.0), (b.max(1.0), 1.0)],
        }
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Sample one flow size in bytes (≥ 1).
    pub fn sample(&self, rng: &mut Xoshiro256) -> u64 {
        let u = rng.next_f64();
        self.quantile(u)
    }

    /// Inverse CDF: size at cumulative probability `u ∈ [0, 1)`.
    pub fn quantile(&self, u: f64) -> u64 {
        let pts = &self.points;
        if u <= pts[0].1 {
            // Interpolate from 1 byte up to the first point.
            let frac = (u / pts[0].1).clamp(0.0, 1.0);
            return (1.0 + frac * (pts[0].0 - 1.0)).round().max(1.0) as u64;
        }
        for w in pts.windows(2) {
            let (x0, p0) = w[0];
            let (x1, p1) = w[1];
            if u <= p1 {
                let frac = (u - p0) / (p1 - p0);
                return (x0 + frac * (x1 - x0)).round().max(1.0) as u64;
            }
        }
        pts.last().unwrap().0 as u64
    }

    /// Mean flow size in bytes (`F` in the load definition), computed in
    /// closed form: under linear interpolation the conditional mean of each
    /// segment is its midpoint.
    pub fn mean_bytes(&self) -> f64 {
        let pts = &self.points;
        let mut mean = pts[0].1 * (1.0 + pts[0].0) / 2.0;
        for w in pts.windows(2) {
            let (x0, p0) = w[0];
            let (x1, p1) = w[1];
            mean += (p1 - p0) * (x0 + x1) / 2.0;
        }
        mean
    }

    /// Fraction of flows at or below `bytes` (CDF evaluation).
    pub fn fraction_below(&self, bytes: f64) -> f64 {
        let pts = &self.points;
        if bytes <= 1.0 {
            return 0.0;
        }
        if bytes <= pts[0].0 {
            return pts[0].1 * (bytes - 1.0) / (pts[0].0 - 1.0);
        }
        for w in pts.windows(2) {
            let (x0, p0) = w[0];
            let (x1, p1) = w[1];
            if bytes <= x1 {
                return p0 + (p1 - p0) * (bytes - x0) / (x1 - x0);
            }
        }
        1.0
    }

    /// Fraction of *bytes* contributed by flows larger than `bytes`
    /// (elephant byte share; used to validate the synthesized CDFs against
    /// the statistics the paper quotes).
    pub fn byte_share_above(&self, bytes: f64) -> f64 {
        let total = self.mean_bytes();
        let pts = &self.points;
        let mut above = 0.0;
        // First implicit segment [1, pts[0].0).
        let segs =
            std::iter::once(((1.0, 0.0), pts[0])).chain(pts.windows(2).map(|w| (w[0], w[1])));
        for ((x0, p0), (x1, p1)) in segs {
            if x1 <= bytes {
                continue;
            }
            if x0 >= bytes {
                above += (p1 - p0) * (x0 + x1) / 2.0;
            } else {
                // Split the segment at `bytes`.
                let frac = (bytes - x0) / (x1 - x0);
                let p_cut = p0 + frac * (p1 - p0);
                above += (p1 - p_cut) * (bytes + x1) / 2.0;
            }
        }
        above / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hadoop_matches_paper_statistics() {
        let d = FlowSizeDist::hadoop();
        // "60% of the flows are less than 1KB"
        assert!((d.fraction_below(1_000.0) - 0.60).abs() < 0.01);
        // "more than 80% of the bits are from elephant flows larger than 100KB"
        assert!(
            d.byte_share_above(100_000.0) > 0.80,
            "elephant byte share {}",
            d.byte_share_above(100_000.0)
        );
    }

    #[test]
    fn web_search_is_heavy() {
        let d = FlowSizeDist::web_search();
        // "more than 80% flows exceed 10KB"
        assert!(1.0 - d.fraction_below(10_000.0) > 0.80);
    }

    #[test]
    fn google_is_mice_dominated() {
        let d = FlowSizeDist::google();
        // "more than 80% flows are less than 1KB"
        assert!(d.fraction_below(1_000.0) >= 0.80);
    }

    #[test]
    fn quantile_is_monotone() {
        for d in [
            FlowSizeDist::hadoop(),
            FlowSizeDist::web_search(),
            FlowSizeDist::google(),
        ] {
            let mut prev = 0;
            for i in 0..100 {
                let q = d.quantile(i as f64 / 100.0);
                assert!(q >= prev, "{}: quantile not monotone", d.name());
                prev = q;
            }
        }
    }

    #[test]
    fn sample_mean_converges_to_closed_form() {
        let d = FlowSizeDist::hadoop();
        let mut rng = Xoshiro256::new(5);
        let n = 300_000;
        let sum: f64 = (0..n).map(|_| d.sample(&mut rng) as f64).sum();
        let emp = sum / n as f64;
        let exact = d.mean_bytes();
        assert!(
            (emp - exact).abs() / exact < 0.02,
            "empirical {emp} vs exact {exact}"
        );
    }

    #[test]
    fn fixed_always_returns_that_size() {
        let d = FlowSizeDist::fixed(1_000);
        let mut rng = Xoshiro256::new(1);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut rng), 1_000);
        }
    }

    #[test]
    fn samples_stay_in_support() {
        let d = FlowSizeDist::google();
        let mut rng = Xoshiro256::new(2);
        for _ in 0..10_000 {
            let s = d.sample(&mut rng);
            assert!((1..=5_000_000).contains(&s));
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_non_monotone_points() {
        FlowSizeDist::from_points("bad", vec![(10.0, 0.5), (5.0, 1.0)]);
    }

    #[test]
    fn byte_share_edges() {
        let d = FlowSizeDist::hadoop();
        assert!((d.byte_share_above(0.5) - 1.0).abs() < 1e-9);
        assert!(d.byte_share_above(20_000_000.0).abs() < 1e-9);
    }
}
