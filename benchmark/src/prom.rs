//! Scraper for the daemon's Prometheus text exposition (`GET /metrics`).

/// One scrape: every sample line as `(name with its labels, value)`.
pub struct Scrape(Vec<(String, f64)>);

impl Scrape {
    /// Parse an exposition body. Comment lines and anything that is not
    /// `name[{labels}] value` are skipped.
    pub fn parse(text: &str) -> Scrape {
        Scrape(
            text.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| {
                    let (name, value) = l.trim().rsplit_once(' ')?;
                    Some((name.to_string(), value.parse().ok()?))
                })
                .collect(),
        )
    }

    /// The sample called exactly `name` (labels included), e.g.
    /// `paper_stage_seconds_total{stage="execute"}`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// How far `name` rose between `earlier` and this scrape. A counter
    /// missing from either scrape is a harness or daemon bug.
    pub fn delta(&self, earlier: &Scrape, name: &str) -> f64 {
        let read = |s: &Scrape| {
            s.get(name)
                .unwrap_or_else(|| panic!("/metrics has no '{name}'"))
        };
        read(self) - read(earlier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `/metrics` body captured from `paper serve` after four submissions, two
    /// of them cache hits.
    const CAPTURED: &str = include_str!("testdata/metrics.txt");

    #[test]
    fn reads_counters_gauges_labels_and_histogram_lines() {
        let s = Scrape::parse(CAPTURED);
        assert_eq!(s.get("paper_draining"), Some(0.0));
        assert_eq!(s.get("paper_pool_workers"), Some(1.0));
        assert_eq!(s.get("paper_cache_hits_total"), Some(2.0));
        assert_eq!(s.get("paper_cache_misses_total"), Some(2.0));
        assert_eq!(s.get("paper_jobs_completed_total"), Some(2.0));
        assert_eq!(
            s.get("paper_stage_calls_total{stage=\"execute\"}"),
            Some(4.0)
        );
        assert_eq!(
            s.get("paper_stage_calls_total{stage=\"compile\"}"),
            Some(0.0)
        );
        let execute = s
            .get("paper_stage_seconds_total{stage=\"execute\"}")
            .unwrap();
        assert_eq!(execute, 0.02911892);
        assert_eq!(
            s.get("paper_http_request_duration_seconds_bucket{le=\"+Inf\"}"),
            s.get("paper_http_request_duration_seconds_count"),
        );
        assert_eq!(
            s.get("# HELP paper_draining 1 once graceful shutdown has"),
            None
        );
        assert_eq!(s.get("paper_no_such_family"), None);
    }

    #[test]
    fn delta_is_the_rise_between_two_scrapes() {
        let before = Scrape::parse("paper_cache_hits_total 8\npaper_x{a=\"b c\"} 1.5\n");
        let after = Scrape::parse("# TYPE paper_cache_hits_total counter\npaper_cache_hits_total 20\npaper_x{a=\"b c\"} 4\n");
        assert_eq!(after.delta(&before, "paper_cache_hits_total"), 12.0);
        assert_eq!(after.delta(&before, "paper_x{a=\"b c\"}"), 2.5);
    }
}
