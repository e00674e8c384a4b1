//! The daemon's `/metrics` plane: Prometheus text exposition (version
//! 0.0.4), hand-rolled — the wire format is a dozen lines of rules, not
//! worth a dependency.
//!
//! Everything exported here is *service-side wall-clock observability*:
//! the job table's lifecycle counts (`crate::jobs::Lifecycle` — queue
//! depth, running jobs, and how many reached each terminal state), pool
//! utilization, result-cache hit/miss totals, the per-stage
//! timers from `bench::profile`, and an HTTP request-latency histogram.
//! None of it touches engine state — the deterministic flight recorder
//! (`metrics::trace` in the workspace `metrics` crate) is the engine's
//! counterpart and is served separately via `GET /jobs/<id>/trace`.
//!
//! Naming follows Prometheus conventions: `paper_` prefix, `_total`
//! suffix on counters, base units (seconds, not millis), and a single
//! `stage` label on the stage-timer families (label values come from
//! [`bench::profile::Stage::label`], a closed set — no cardinality
//! risk).

use std::sync::atomic::{AtomicU64, Ordering};

use bench::profile::StageTotals;

use crate::jobs::TableStats;

/// Histogram bucket upper bounds, paired with the exact `le` label text
/// so rendering never depends on float formatting. Spans sub-millisecond
/// cache hits through multi-second simulations.
const BUCKETS: [(f64, &str); 8] = [
    (0.001, "0.001"),
    (0.005, "0.005"),
    (0.025, "0.025"),
    (0.1, "0.1"),
    (0.25, "0.25"),
    (1.0, "1"),
    (5.0, "5"),
    (10.0, "10"),
];

/// Lock-free HTTP request tally: a request counter plus a fixed-bucket
/// latency histogram. One instance lives in the server state; every
/// connection handler calls [`HttpMetrics::observe`] once.
#[derive(Debug, Default)]
pub struct HttpMetrics {
    requests: AtomicU64,
    /// Per-bucket (non-cumulative) observation counts; `buckets[i]`
    /// counts observations where `BUCKETS[i-1].0 < t <= BUCKETS[i].0`.
    /// The final slot is the overflow (`+Inf`) bucket. Cumulation happens
    /// at render time.
    buckets: [AtomicU64; BUCKETS.len() + 1],
    sum_nanos: AtomicU64,
}

impl HttpMetrics {
    /// Fresh, all-zero tally.
    pub fn new() -> HttpMetrics {
        HttpMetrics::default()
    }

    /// Record one served request that took `seconds`.
    pub fn observe(&self, seconds: f64) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let slot = BUCKETS
            .iter()
            .position(|&(bound, _)| seconds <= bound)
            .unwrap_or(BUCKETS.len());
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        let nanos = (seconds * 1e9).max(0.0) as u64;
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Total requests observed.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }
}

/// Everything `/metrics` exports, gathered by the server at scrape time.
/// A plain struct keeps the renderer pure and unit-testable.
pub struct MetricsInput<'a> {
    /// Is graceful shutdown underway?
    pub draining: bool,
    /// The job table's counters: the job lifecycle, coalesced
    /// submissions, and what is retained of finished jobs.
    pub jobs: TableStats,
    /// Worker threads draining the job queue (`--jobs`).
    pub workers: usize,
    /// `accept()` calls that failed.
    pub accept_errors: u64,
    /// Result-cache lifetime `(hits, misses)`.
    pub cache: (u64, u64),
    /// Per-stage wall-clock totals from `bench::profile`.
    pub stages: &'a [StageTotals],
    /// The HTTP tally.
    pub http: &'a HttpMetrics,
    /// Flight-recorder events dropped by ring overflow, summed over the
    /// `trace_end` footers of every trace this daemon has rendered for
    /// `/trace` or `/flows` (a trace rendered twice counts twice). Nonzero
    /// means served traces (and every forensic answer derived from them)
    /// are missing their oldest events — alert on it, then raise
    /// `--trace-capacity`.
    pub trace_dropped: u64,
}

/// Render the full exposition. Ends with a newline; every family carries
/// `# HELP` and `# TYPE` headers exactly once.
pub fn render_prometheus(input: &MetricsInput<'_>) -> String {
    let mut out = String::new();
    let mut gauge = |name: &str, help: &str, value: f64| {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {}\n",
            num(value)
        ));
    };
    gauge(
        "paper_draining",
        "1 once graceful shutdown has begun.",
        input.draining as u64 as f64,
    );
    let lifecycle = &input.jobs.lifecycle;
    gauge(
        "paper_jobs_active",
        "Jobs currently queued or running.",
        (lifecycle.queued + lifecycle.running) as f64,
    );
    gauge(
        "paper_jobs_retained",
        "Finished job records kept for status, result and trace queries.",
        input.jobs.retained as f64,
    );
    gauge(
        "paper_jobs_retained_bytes",
        "Bytes those records are charged against the retention budget.",
        input.jobs.retained_bytes as f64,
    );
    gauge(
        "paper_jobs_queued",
        "Jobs admitted and waiting for a worker.",
        lifecycle.queued as f64,
    );
    gauge(
        "paper_jobs_running",
        "Jobs a worker is simulating right now.",
        lifecycle.running as f64,
    );
    gauge(
        "paper_pool_workers",
        "Worker threads draining the job queue.",
        input.workers as f64,
    );
    let utilization = match input.workers {
        0 => 0.0,
        w => lifecycle.running as f64 / w as f64,
    };
    gauge(
        "paper_pool_utilization",
        "Fraction of pool workers busy (running / workers).",
        utilization,
    );
    let mut counter = |name: &str, help: &str, value: u64| {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
        ));
    };
    counter(
        "paper_jobs_admitted_total",
        "Submissions admitted to the job table.",
        lifecycle.admitted() as u64,
    );
    counter(
        "paper_jobs_coalesced_total",
        "Duplicate submissions coalesced onto an in-flight job.",
        input.jobs.coalesced as u64,
    );
    counter(
        "paper_jobs_completed_total",
        "Jobs that reached done.",
        lifecycle.completed as u64,
    );
    counter(
        "paper_jobs_failed_total",
        "Jobs that reached failed: the scenario panicked, or the daemon was draining.",
        lifecycle.failed as u64,
    );
    counter(
        "paper_jobs_cancelled_total",
        "Jobs that reached cancelled: a DELETE won while they were queued.",
        lifecycle.cancelled as u64,
    );
    let (hits, misses) = input.cache;
    counter(
        "paper_cache_hits_total",
        "Result-cache lookups that hit.",
        hits,
    );
    counter(
        "paper_cache_misses_total",
        "Result-cache lookups that missed (corrupt entries count here).",
        misses,
    );
    counter(
        "paper_http_requests_total",
        "HTTP requests served.",
        input.http.requests(),
    );
    counter(
        "paper_accept_errors_total",
        "accept() calls that failed; each backs the accept loop off 20 ms.",
        input.accept_errors,
    );
    counter(
        "paper_trace_dropped_total",
        "Flight-recorder events dropped by ring overflow, summed over every trace rendered for /trace or /flows.",
        input.trace_dropped,
    );
    render_stages(&mut out, input.stages);
    render_histogram(&mut out, input.http);
    out
}

fn render_stages(out: &mut String, stages: &[StageTotals]) {
    out.push_str(concat!(
        "# HELP paper_stage_seconds_total Wall-clock seconds spent per pipeline stage.\n",
        "# TYPE paper_stage_seconds_total counter\n"
    ));
    for s in stages {
        out.push_str(&format!(
            "paper_stage_seconds_total{{stage=\"{}\"}} {}\n",
            s.stage,
            num(s.seconds)
        ));
    }
    out.push_str(concat!(
        "# HELP paper_stage_calls_total Completed calls per pipeline stage.\n",
        "# TYPE paper_stage_calls_total counter\n"
    ));
    for s in stages {
        out.push_str(&format!(
            "paper_stage_calls_total{{stage=\"{}\"}} {}\n",
            s.stage, s.calls
        ));
    }
}

fn render_histogram(out: &mut String, http: &HttpMetrics) {
    out.push_str(concat!(
        "# HELP paper_http_request_duration_seconds HTTP request latency.\n",
        "# TYPE paper_http_request_duration_seconds histogram\n"
    ));
    let mut cumulative = 0u64;
    for (i, &(_, le)) in BUCKETS.iter().enumerate() {
        cumulative += http.buckets[i].load(Ordering::Relaxed);
        out.push_str(&format!(
            "paper_http_request_duration_seconds_bucket{{le=\"{le}\"}} {cumulative}\n"
        ));
    }
    cumulative += http.buckets[BUCKETS.len()].load(Ordering::Relaxed);
    out.push_str(&format!(
        "paper_http_request_duration_seconds_bucket{{le=\"+Inf\"}} {cumulative}\n"
    ));
    let sum = http.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9;
    out.push_str(&format!(
        "paper_http_request_duration_seconds_sum {}\n",
        num(sum)
    ));
    out.push_str(&format!(
        "paper_http_request_duration_seconds_count {cumulative}\n"
    ));
}

/// Prometheus float formatting: integral values render without a
/// fractional part, everything else with enough digits to round-trip.
fn num(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::Lifecycle;

    fn sample() -> (HttpMetrics, Vec<StageTotals>) {
        let http = HttpMetrics::new();
        http.observe(0.0004); // le=0.001
        http.observe(0.02); // le=0.025
        http.observe(3.0); // le=5
        http.observe(60.0); // +Inf only
        let stages = vec![
            StageTotals {
                stage: "execute",
                calls: 2,
                seconds: 1.5,
            },
            StageTotals {
                stage: "cache_lookup",
                calls: 4,
                seconds: 0.25,
            },
        ];
        (http, stages)
    }

    fn render(http: &HttpMetrics, stages: &[StageTotals]) -> String {
        render_prometheus(&MetricsInput {
            draining: false,
            jobs: TableStats {
                lifecycle: Lifecycle {
                    queued: 3,
                    running: 1,
                    completed: 5,
                    failed: 1,
                    cancelled: 0,
                },
                coalesced: 2,
                retained: 5,
                retained_bytes: 4096,
            },
            workers: 4,
            accept_errors: 3,
            cache: (10, 4),
            stages,
            http,
            trace_dropped: 6,
        })
    }

    #[test]
    fn exposition_is_wellformed_prometheus_text() {
        let (http, stages) = sample();
        let text = render(&http, &stages);
        assert!(text.ends_with('\n'));
        for line in text.lines() {
            if line.starts_with("# HELP ") || line.starts_with("# TYPE ") {
                continue;
            }
            // name{labels} value — name charset, one space, numeric value.
            let (name_part, value) = line.rsplit_once(' ').expect("metric line has a value");
            let name = name_part.split('{').next().unwrap();
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "bad metric name in {line:?}"
            );
            assert!(
                value == "+Inf" || value.parse::<f64>().is_ok(),
                "bad value in {line:?}"
            );
        }
        // Each family header appears exactly once.
        let helps = text.matches("# HELP paper_cache_hits_total").count();
        assert_eq!(helps, 1);
    }

    #[test]
    fn required_families_are_present() {
        let (http, stages) = sample();
        let text = render(&http, &stages);
        for family in [
            "paper_jobs_active 4",
            "paper_jobs_queued 3",
            "paper_jobs_running 1",
            "paper_pool_workers 4",
            "paper_jobs_admitted_total 10",
            "paper_jobs_completed_total 5",
            "paper_jobs_failed_total 1",
            "paper_jobs_cancelled_total 0",
            "paper_jobs_coalesced_total 2",
            "paper_jobs_retained 5",
            "paper_jobs_retained_bytes 4096",
            "paper_accept_errors_total 3",
            "paper_pool_utilization 0.25",
            "paper_cache_hits_total 10",
            "paper_cache_misses_total 4",
            "paper_http_requests_total 4",
            "paper_trace_dropped_total 6",
            "paper_stage_seconds_total{stage=\"execute\"} 1.5",
            "paper_stage_calls_total{stage=\"cache_lookup\"} 4",
        ] {
            assert!(text.contains(family), "missing {family:?} in:\n{text}");
        }
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_inf_equals_count() {
        let (http, stages) = sample();
        let text = render(&http, &stages);
        let bucket = |le: &str| -> u64 {
            let needle = format!("paper_http_request_duration_seconds_bucket{{le=\"{le}\"}} ");
            text.lines()
                .find_map(|l| l.strip_prefix(needle.as_str()))
                .unwrap_or_else(|| panic!("no bucket {le}"))
                .parse()
                .unwrap()
        };
        assert_eq!(bucket("0.001"), 1);
        assert_eq!(bucket("0.025"), 2, "cumulative across lower buckets");
        assert_eq!(bucket("5"), 3);
        assert_eq!(bucket("+Inf"), 4);
        assert!(text.contains("paper_http_request_duration_seconds_count 4"));
    }

    #[test]
    fn a_drained_pool_still_renders() {
        let http = HttpMetrics::new();
        let text = render_prometheus(&MetricsInput {
            draining: true,
            jobs: TableStats::default(),
            workers: 2,
            accept_errors: 0,
            cache: (0, 0),
            stages: &[],
            http: &http,
            trace_dropped: 0,
        });
        assert!(text.contains("paper_draining 1"));
        assert!(text.contains("paper_pool_utilization 0"));
    }
}
