//! Machine-readable sweep results: `results/<id>.json` emission and the
//! comparison logic behind the `bench-diff` regression gate.
//!
//! ## Schema (version 1)
//!
//! ```text
//! {
//!   "schema_version": 1,
//!   "experiment": "fig9",
//!   "artifact": "Figure 9: mice FCT and goodput vs load (main result)",
//!   "config": { "duration_ns": ..., "loads": [...], "seed": ... },
//!   "runs": [
//!     {
//!       "index": 0, "system": "nego/parallel", "load": 0.1,
//!       "param": {"name": "...", "value": ...} | null,
//!       "seed": ..., "duration_ns": ...,
//!       "metrics": { "mice": {...}, "all": {...}, "goodput": {...},
//!                    "match_ratio": ..., <experiment extras>,
//!                    "series": [ <per-phase rows, scenario runs only> ] },
//!       "wall_secs": ...            // only with timing enabled
//!     }, ...
//!   ],
//!   "timing": { "jobs": ..., "total_run_secs": ... }   // optional
//! }
//! ```
//!
//! Everything outside `wall_secs`/`timing` is a pure function of
//! (config, seed) — the determinism suite asserts the timing-free
//! rendering is byte-identical at any `--jobs`, and `bench-diff` ignores
//! the timing fields when gating.

use std::io;
use std::path::{Path, PathBuf};

use crate::sweep::{RunResult, SweepReport};
use metrics::Json;

/// Version stamp written into every result file.
pub const SCHEMA_VERSION: u64 = 1;

/// The JSON document for one experiment's sweep. `timing_jobs` attaches
/// wall-clock metadata (`Some(jobs)` from the CLI); `None` omits every
/// non-deterministic field.
pub fn experiment_json(report: &SweepReport, timing_jobs: Option<usize>) -> Json {
    let mut root = Json::object();
    root.push("schema_version", SCHEMA_VERSION)
        .push("experiment", &*report.id)
        .push("artifact", report.artifact.as_str());
    let mut config = Json::object();
    config
        .push("duration_ns", report.duration)
        .push(
            "loads",
            Json::Arr(report.loads.iter().map(|&l| Json::Num(l)).collect()),
        )
        .push("seed", report.seed);
    root.push("config", config);
    root.push(
        "runs",
        Json::Arr(
            report
                .results
                .iter()
                .map(|r| run_json(r, timing_jobs.is_some()))
                .collect(),
        ),
    );
    if let Some(jobs) = timing_jobs {
        let mut timing = Json::object();
        timing
            .push("jobs", jobs)
            .push("total_run_secs", report.runs_wall_secs());
        root.push("timing", timing);
    }
    root
}

fn run_json(result: &RunResult, with_timing: bool) -> Json {
    let meta = &result.meta;
    let mut run = Json::object();
    run.push("index", meta.index)
        .push("system", meta.system.as_str())
        .push("load", meta.load);
    match meta.param {
        Some((name, value)) => {
            let mut param = Json::object();
            param.push("name", name).push("value", value);
            run.push("param", param);
        }
        None => {
            run.push("param", Json::Null);
        }
    }
    run.push("seed", meta.seed)
        .push("duration_ns", meta.duration);
    let mut metrics = Json::object();
    if let Some(summary) = &result.metrics.report {
        for (key, value) in summary.to_json().members().expect("object").iter() {
            metrics.push(key, value.clone());
        }
    }
    metrics.push("match_ratio", result.metrics.match_ratio);
    for &(name, value) in &result.metrics.extra {
        metrics.push(name, value);
    }
    if let Some(series) = &result.metrics.series {
        metrics.push("series", series.clone());
    }
    run.push("metrics", metrics);
    if with_timing {
        run.push("wall_secs", result.wall_secs);
    }
    run
}

/// Write one `<dir>/<id>.json` per report (suffixing `-s<seed>` when the
/// sweep covers several seeds), creating `dir` as needed. `timing_jobs`
/// as in [`experiment_json`]: `Some(jobs)` attaches wall-clock metadata,
/// `None` writes the fully deterministic form (`--no-timing`). Returns
/// the paths written.
pub fn write_reports(
    dir: &Path,
    reports: &[SweepReport],
    timing_jobs: Option<usize>,
    seed_suffix: bool,
) -> io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::with_capacity(reports.len());
    for report in reports {
        let name = if seed_suffix {
            format!("{}-s{}.json", report.id, report.seed)
        } else {
            format!("{}.json", report.id)
        };
        let path = dir.join(name);
        let mut text = experiment_json(report, timing_jobs).render();
        text.push('\n');
        std::fs::write(&path, text)?;
        paths.push(path);
    }
    Ok(paths)
}

/// Wall-time ratio `current / baseline` from the two documents' optional
/// `timing.total_run_secs` fields. Purely informational — wall time varies
/// with hardware and load, so it never participates in gating — but it is
/// how the CI log shows a hot-path change's speedup (or regression) next
/// to the metric diff.
pub fn wall_time_ratio(baseline: &Json, current: &Json) -> Option<f64> {
    let secs = |doc: &Json| {
        doc.get("timing")
            .and_then(|t| t.get("total_run_secs"))
            .and_then(Json::as_f64)
            .filter(|&s| s > 0.0)
    };
    Some(secs(current)? / secs(baseline)?)
}

/// Compare two parsed result documents (baseline vs current) and return
/// the regressions: every numeric metric that moved more than
/// `tolerance_pct` percent, plus any structural mismatch. Empty means the
/// gate passes. Timing fields (`wall_secs`, `timing`) never participate.
pub fn diff_reports(id: &str, baseline: &Json, current: &Json, tolerance_pct: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for key in ["schema_version", "experiment"] {
        if baseline.get(key) != current.get(key) {
            failures.push(format!(
                "{id}: '{key}' differs ({} vs {})",
                render_short(baseline.get(key)),
                render_short(current.get(key)),
            ));
        }
    }
    if baseline.get("config") != current.get("config") {
        failures.push(format!(
            "{id}: config differs — baseline and current are not comparable"
        ));
        return failures;
    }
    let empty: &[Json] = &[];
    let base_runs = baseline
        .get("runs")
        .and_then(Json::as_array)
        .unwrap_or(empty);
    let cur_runs = current
        .get("runs")
        .and_then(Json::as_array)
        .unwrap_or(empty);
    if base_runs.len() != cur_runs.len() {
        failures.push(format!(
            "{id}: run count changed {} -> {}",
            base_runs.len(),
            cur_runs.len()
        ));
        return failures;
    }
    for (b, c) in base_runs.iter().zip(cur_runs) {
        let label = run_label(b);
        let b_metrics = b.get("metrics");
        let c_metrics = c.get("metrics");
        diff_metrics(
            id,
            &label,
            "",
            b_metrics,
            c_metrics,
            tolerance_pct,
            &mut failures,
        );
    }
    failures
}

/// Recursively compare two metric objects, flagging relative moves beyond
/// the tolerance.
fn diff_metrics(
    id: &str,
    run: &str,
    prefix: &str,
    baseline: Option<&Json>,
    current: Option<&Json>,
    tolerance_pct: f64,
    failures: &mut Vec<String>,
) {
    let (Some(baseline), Some(current)) = (baseline, current) else {
        if baseline.map(Json::is_null) != current.map(Json::is_null) {
            failures.push(format!("{id} {run}: metric set changed at '{prefix}'"));
        }
        return;
    };
    match (baseline, current) {
        (Json::Obj(b_members), Json::Obj(_)) => {
            // Keys present in either side are compared; a key that appears
            // or disappears is itself a failure (schema drift).
            let mut keys: Vec<&str> = b_members.iter().map(|(k, _)| k.as_str()).collect();
            for (k, _) in current.members().expect("object") {
                if !keys.contains(&k.as_str()) {
                    keys.push(k);
                }
            }
            for key in keys {
                let path = if prefix.is_empty() {
                    key.to_string()
                } else {
                    format!("{prefix}.{key}")
                };
                match (baseline.get(key), current.get(key)) {
                    (Some(b), Some(c)) => {
                        diff_metrics(id, run, &path, Some(b), Some(c), tolerance_pct, failures)
                    }
                    _ => failures.push(format!("{id} {run}: metric '{path}' appeared/vanished")),
                }
            }
        }
        (Json::Arr(b_items), Json::Arr(c_items)) => {
            // Time series and other metric arrays gate element by element.
            if b_items.len() != c_items.len() {
                failures.push(format!(
                    "{id} {run}: '{prefix}' length changed {} -> {}",
                    b_items.len(),
                    c_items.len()
                ));
                return;
            }
            for (i, (b, c)) in b_items.iter().zip(c_items).enumerate() {
                diff_metrics(
                    id,
                    run,
                    &format!("{prefix}[{i}]"),
                    Some(b),
                    Some(c),
                    tolerance_pct,
                    failures,
                );
            }
        }
        (b_val, c_val) if b_val.as_f64().is_some() && c_val.as_f64().is_some() => {
            let (b, c) = (
                b_val.as_f64().expect("number"),
                c_val.as_f64().expect("number"),
            );
            let moved = if b == 0.0 {
                if c == 0.0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                ((c - b) / b).abs() * 100.0
            };
            if moved > tolerance_pct {
                failures.push(format!(
                    "{id} {run}: {prefix} {b} -> {c} ({moved:+.1}% > {tolerance_pct}%)",
                ));
            }
        }
        (b, c) if b == c => {}
        (b, c) => failures.push(format!(
            "{id} {run}: {prefix} changed {} -> {}",
            render_short(Some(b)),
            render_short(Some(c)),
        )),
    }
}

fn run_label(run: &Json) -> String {
    let index = run
        .get("index")
        .and_then(Json::as_f64)
        .map_or_else(|| "?".to_string(), |i| format!("{}", i as u64));
    let system = run
        .get("system")
        .and_then(Json::as_str)
        .unwrap_or("?")
        .to_string();
    match run.get("load").and_then(Json::as_f64) {
        Some(load) => format!("run {index} ({system} @ {:.0}%)", load * 100.0),
        None => format!("run {index} ({system})"),
    }
}

fn render_short(value: Option<&Json>) -> String {
    value.map_or_else(
        || "<absent>".to_string(),
        |v| {
            let text = v.render();
            match text.char_indices().nth(40) {
                Some((cut, _)) => format!("{}…", &text[..cut]),
                None => text,
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{Rendered, RunMeta, RunMetrics};

    fn report() -> SweepReport {
        let meta = RunMeta::new("demo", 0, "sys", 9, 1_000).load(0.5);
        let metrics =
            RunMetrics::new(Rendered::Cells(vec!["1".into()])).push_extra("finish_ns", 1234.0);
        SweepReport {
            id: "demo".into(),
            artifact: "Demo artifact".into(),
            duration: 1_000,
            loads: vec![0.5],
            seed: 9,
            results: vec![crate::sweep::RunResult {
                meta,
                metrics,
                wall_secs: 0.25,
            }],
            rendered: String::new(),
        }
    }

    #[test]
    fn json_shape_and_timing_split() {
        let rep = report();
        let timed = experiment_json(&rep, Some(4));
        assert_eq!(timed.get("schema_version").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            timed.get("timing").unwrap().get("jobs").unwrap().as_f64(),
            Some(4.0)
        );
        let run = &timed.get("runs").unwrap().as_array().unwrap()[0];
        assert_eq!(
            run.get("metrics")
                .unwrap()
                .get("finish_ns")
                .unwrap()
                .as_f64(),
            Some(1234.0)
        );
        assert!(run.get("wall_secs").is_some());

        let bare = experiment_json(&rep, None);
        assert!(bare.get("timing").is_none());
        let run = &bare.get("runs").unwrap().as_array().unwrap()[0];
        assert!(run.get("wall_secs").is_none());
        // The timing-free form parses back to itself.
        assert_eq!(Json::parse(&bare.render()).unwrap(), bare);
    }

    #[test]
    fn wall_time_ratio_reads_timing_or_abstains() {
        let rep = report();
        let a = experiment_json(&rep, Some(1));
        let mut faster = rep.clone();
        faster.results[0].wall_secs = 0.125; // half of the baseline's 0.25
        let b = experiment_json(&faster, Some(1));
        let ratio = wall_time_ratio(&a, &b).expect("both sides carry timing");
        assert!((ratio - 0.5).abs() < 1e-9, "ratio {ratio}");
        // Timing-free documents yield no ratio instead of a division blowup.
        let bare = experiment_json(&rep, None);
        assert_eq!(wall_time_ratio(&bare, &b), None);
        assert_eq!(wall_time_ratio(&a, &bare), None);
    }

    #[test]
    fn diff_passes_identical_and_ignores_timing() {
        let rep = report();
        let a = experiment_json(&rep, Some(1));
        let mut faster = rep.clone();
        faster.results[0].wall_secs = 99.0;
        let b = experiment_json(&faster, Some(8));
        // Different jobs and wall times: still a clean pass.
        assert_eq!(diff_reports("demo", &a, &b, 0.0), Vec::<String>::new());
    }

    #[test]
    fn diff_flags_regressions_beyond_tolerance() {
        let rep = report();
        let a = experiment_json(&rep, None);
        let mut worse = rep.clone();
        worse.results[0].metrics.extra = vec![("finish_ns", 1400.0)]; // +13.5%
        let b = experiment_json(&worse, None);
        assert!(diff_reports("demo", &a, &b, 20.0).is_empty());
        let failures = diff_reports("demo", &a, &b, 10.0);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("finish_ns"), "{failures:?}");
        // Zero baseline to non-zero is always a failure.
        let mut from_zero = rep.clone();
        from_zero.results[0].metrics.extra = vec![("finish_ns", 0.0)];
        let z = experiment_json(&from_zero, None);
        assert!(!diff_reports("demo", &z, &b, 50.0).is_empty());
    }

    #[test]
    fn diff_flags_structural_drift() {
        let rep = report();
        let a = experiment_json(&rep, None);
        // Metric disappears.
        let mut dropped = rep.clone();
        dropped.results[0].metrics.extra = vec![];
        let b = experiment_json(&dropped, None);
        assert!(diff_reports("demo", &a, &b, 100.0)
            .iter()
            .any(|f| f.contains("appeared/vanished")));
        // Run count changes.
        let mut fewer = rep.clone();
        fewer.results.clear();
        let c = experiment_json(&fewer, None);
        assert!(diff_reports("demo", &a, &c, 100.0)
            .iter()
            .any(|f| f.contains("run count")));
        // Config changes make the pair incomparable.
        let mut other = rep.clone();
        other.seed = 10;
        let d = experiment_json(&other, None);
        assert!(diff_reports("demo", &a, &d, 100.0)
            .iter()
            .any(|f| f.contains("config differs")));
    }
}
