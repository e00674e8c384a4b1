//! Machine-readable sweep results: `results/<id>.json` emission.
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
//! rendering is byte-identical at any `--jobs`, and the digest fixture
//! (`tests/experiment_digests.rs`) pins its bytes.

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
}
