//! `benchmark compare A.json B.json`: two sets of `run` results against the
//! bounds in `BENCHMARK.json`. One row per workload and end-to-end metric.

use std::path::Path;
use std::process::ExitCode;

use metrics::Json;

use crate::stats::{median, quartiles, spread};

/// An end-to-end metric's entry in `BENCHMARK.json`.
struct Bounded {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

/// What a row says about the change from A to B.
#[derive(Debug, PartialEq)]
enum Verdict {
    Within,
    /// B's median is worse than A's by more than the bound.
    OutOfBound,
    /// The sets' own spread exceeds the bound and their runs interleave,
    /// so neither "unchanged" nor "changed" can be read off them.
    Unresolved,
}

/// By how much of A's median B's median is worse (negative: better).
fn worse_by(a: &[f64], b: &[f64], lower_is_better: bool) -> f64 {
    let (ma, mb) = (median(a), median(b));
    let rise = (mb - ma) / ma.abs();
    if lower_is_better {
        rise
    } else {
        -rise
    }
}

/// Does every run of one side beat every run of the other?
fn separated(a: &[f64], b: &[f64]) -> bool {
    let min = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |xs: &[f64]| xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    max(a) < min(b) || max(b) < min(a)
}

fn verdict(a: &[f64], b: &[f64], m: &Bounded) -> Verdict {
    if worse_by(a, b, m.lower_is_better) > m.bound {
        Verdict::OutOfBound
    } else if spread(a).max(spread(b)) > m.bound && !separated(a, b) {
        Verdict::Unresolved
    } else {
        Verdict::Within
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn bounds(doc: &Json) -> Result<Vec<Bounded>, String> {
    let text = |o: &Json, k: &str| o.get(k).and_then(Json::as_str).map(str::to_string);
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no 'end_to_end'")?
        .iter()
        .map(|o| {
            Some(Bounded {
                name: text(o, "name")?,
                unit: text(o, "unit")?,
                lower_is_better: text(o, "better")? == "lower",
                bound: o.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<_>>()
        .ok_or_else(|| "BENCHMARK.json: a malformed 'end_to_end' entry".to_string())
}

/// One run of a results file, flattened.
struct Run<'a> {
    workload: &'a str,
    seed: u64,
    traced: bool,
    metrics: &'a [(String, Json)],
}

fn runs(doc: &Json) -> Vec<Run<'_>> {
    doc.get("runs")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|r| {
            Some(Run {
                workload: r.get("workload")?.as_str()?,
                seed: r.get("seed")?.as_u64()?,
                traced: r.get("trace")?.as_u64()? == 1,
                metrics: r.get("result")?.get("metrics")?.members()?,
            })
        })
        .collect()
}

fn value(run: &Run<'_>, metric: &str) -> Option<f64> {
    let (_, m) = run.metrics.iter().find(|(name, _)| name == metric)?;
    m.get("value")?.as_f64()
}

/// Metrics that repeat exactly for a seed: simulated outcomes and the
/// scheduler's counts. A host-speed change must leave them bit-equal.
fn is_exact(name: &str, unit: &str) -> bool {
    unit == "sim_us"
        || name == "nego_goodput_norm"
        || name == "workload.flows"
        || (name.starts_with("negotiator.") && matches!(unit, "count" | "ratio"))
}

pub fn run(root: &Path, files: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = files else {
        return Err("compare needs exactly two result files".to_string());
    };
    let metrics = bounds(&load(&root.join("../BENCHMARK.json"))?)?;
    let (a_doc, b_doc) = (load(Path::new(a_path))?, load(Path::new(b_path))?);
    let (a_runs, b_runs) = (runs(&a_doc), runs(&b_doc));

    let mut bad = 0;
    println!("workload metric unit | A median [q1 q3] n spread | B median [q1 q3] n spread | B worse by (of A's median) | bound | verdict");
    for workload in crate::names::WORKLOADS {
        for m in &metrics {
            let side = |runs: &[Run<'_>]| -> Vec<f64> {
                runs.iter()
                    .filter(|r| r.workload == *workload && !r.traced)
                    .filter_map(|r| value(r, &m.name))
                    .collect()
            };
            let (a, b) = (side(&a_runs), side(&b_runs));
            if a.is_empty() || b.is_empty() {
                println!(
                    "{workload} {} {} | missing from {}",
                    m.name,
                    m.unit,
                    if a.is_empty() { a_path } else { b_path }
                );
                bad += 1;
                continue;
            }
            let v = verdict(&a, &b, m);
            bad += usize::from(v != Verdict::Within);
            let show = |xs: &[f64]| {
                let [q1, _, q3] = quartiles(xs);
                format!(
                    "{:.6} [{q1:.6} {q3:.6}] {} {:.1}%",
                    median(xs),
                    xs.len(),
                    spread(xs) * 100.0
                )
            };
            println!(
                "{workload} {} {} | {} | {} | {:+.2}% of {:.6} | {:.0}% | {v:?}",
                m.name,
                m.unit,
                show(&a),
                show(&b),
                worse_by(&a, &b, m.lower_is_better) * 100.0,
                median(&a),
                m.bound * 100.0,
            );
        }
    }

    // Runs of the same workload, seed and mode in both files.
    let (mut pairs, mut equal, mut moved) = (0, 0, Vec::new());
    for a in &a_runs {
        let Some(b) = b_runs
            .iter()
            .find(|b| (b.workload, b.seed, b.traced) == (a.workload, a.seed, a.traced))
        else {
            continue;
        };
        pairs += 1;
        let differing: Vec<&str> = a
            .metrics
            .iter()
            .filter(|(name, m)| is_exact(name, m.get("unit").and_then(Json::as_str).unwrap_or("")))
            .filter(|(name, _)| {
                value(a, name).map(f64::to_bits) != value(b, name).map(f64::to_bits)
            })
            .map(|(name, _)| name.as_str())
            .collect();
        if differing.is_empty() {
            equal += 1;
        } else {
            moved.push(format!(
                "{} seed {}: {}",
                a.workload,
                a.seed,
                differing.join(", ")
            ));
        }
    }
    println!("simulated metrics and scheduler counts bit-equal on {equal} of {pairs} runs with the same workload, seed and mode");
    for line in &moved {
        println!("  moved: {line}");
    }
    println!("{bad} rows out of bound, unresolved or missing");
    Ok(if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(lower_is_better: bool, bound: f64) -> Bounded {
        Bounded {
            name: "m".to_string(),
            unit: "ms".to_string(),
            lower_is_better,
            bound,
        }
    }

    #[test]
    fn worse_is_relative_to_a_and_follows_the_direction() {
        assert_eq!(worse_by(&[10.0], &[12.0], true), 0.2);
        assert_eq!(worse_by(&[10.0], &[12.0], false), -0.2);
        assert_eq!(worse_by(&[10.0], &[8.0], false), 0.2);
    }

    #[test]
    fn verdicts() {
        let steady_a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let steady_b = [103.0, 104.0, 102.0, 103.5, 102.5];
        assert_eq!(
            verdict(&steady_a, &steady_b, &metric(true, 0.10)),
            Verdict::Within
        );
        assert_eq!(
            verdict(&steady_a, &steady_b, &metric(true, 0.02)),
            Verdict::OutOfBound
        );
        assert_eq!(
            verdict(&steady_a, &steady_b, &metric(false, 0.02)),
            Verdict::Within,
            "higher is better here"
        );
        // Wide, interleaved sets: the bound cannot be read off them.
        let noisy_a = [80.0, 120.0, 100.0, 90.0, 110.0];
        let noisy_b = [85.0, 118.0, 101.0, 92.0, 108.0];
        assert_eq!(
            verdict(&noisy_a, &noisy_b, &metric(true, 0.10)),
            Verdict::Unresolved
        );
        // Wide but every run of B beats every run of A.
        let fast_b = [40.0, 60.0, 50.0, 45.0, 55.0];
        assert_eq!(
            verdict(&noisy_a, &fast_b, &metric(true, 0.10)),
            Verdict::Within
        );
        // One run a side has no spread to speak of.
        assert_eq!(
            verdict(&[10.0], &[10.5], &metric(true, 0.10)),
            Verdict::Within
        );
    }

    #[test]
    fn exact_metrics_are_the_simulated_ones_and_the_counts() {
        assert!(is_exact("nego_fct_p99_us", "sim_us"));
        assert!(is_exact("nego_goodput_norm", "ratio"));
        assert!(is_exact("negotiator.grants_issued", "count"));
        assert!(is_exact("negotiator.match_ratio", "ratio"));
        assert!(!is_exact("negotiator.run_s", "s"));
        assert!(!is_exact("negotiator.state_mb", "MB"));
        assert!(!is_exact("epochs_per_s", "1/s"));
        assert!(!is_exact("sim.shard_speedup", "ratio"));
    }
}
