//! Order statistics over small samples, and the process's memory from /proc.

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three quartile cut points, as Python's
/// `statistics.quantiles(xs, n=4)` gives them. One sample has no spread:
/// all three cuts are that sample.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return [v.first().copied().unwrap_or(f64::NAN); 3];
    }
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Distance between the first and third quartile as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1).abs() / q2.abs()
    }
}

/// How many of `n` sorted samples lie at or below percentile `p`. The guard
/// keeps `0.9 * 100` from rounding up to 91.
fn rank(n: usize, p: f64) -> usize {
    (p / 100.0 * n as f64 - 1e-9).ceil() as usize
}

/// Nearest-rank percentile `p` (0..100) of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    v[rank(v.len(), p).clamp(1, v.len()) - 1]
}

/// The highest of the usual percentiles that still has at least ten samples
/// beyond it, and its value: a tail the sample count cannot support is not
/// reported. `None` below twenty samples, where even the median has fewer
/// than ten beyond it.
pub fn supported_tail(xs: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| xs.len() - rank(xs.len(), p) >= 10)
        .map(|p| (p, percentile(xs, p)))
}

fn status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix(field)?
                    .trim()
                    .strip_suffix("kB")?
                    .trim()
                    .parse()
                    .ok()
            })
        })
        .unwrap_or(f64::NAN)
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Resident set of this process now (`VmRSS`), in MB.
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:") / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), [1.0, 2.0, 4.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert_eq!(quartiles(&[5.0]), [5.0; 3]);
        assert_eq!(spread(&xs), 1.0);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let ramp = |n: usize| -> Vec<f64> { (1..=n).map(|i| i as f64).collect() };
        assert_eq!(supported_tail(&ramp(19)), None);
        assert_eq!(supported_tail(&ramp(20)), Some((50.0, 10.0)));
        assert_eq!(supported_tail(&ramp(100)), Some((90.0, 90.0)));
        assert_eq!(supported_tail(&ramp(199)), Some((90.0, 180.0)));
        assert_eq!(supported_tail(&ramp(200)), Some((95.0, 190.0)));
        assert_eq!(supported_tail(&ramp(600)), Some((95.0, 570.0)));
        assert_eq!(supported_tail(&ramp(1000)), Some((99.0, 990.0)));
        assert_eq!(supported_tail(&ramp(10_000)), Some((99.9, 9990.0)));
    }

    #[test]
    fn proc_status_is_readable() {
        let now = rss_mb();
        assert!(now > 0.0 && peak_rss_mb() >= now);
    }
}
