//! The repo's benchmark. `run` measures one workload in this process (or,
//! with no `--workload`, each one in a fresh process) and prints one JSON
//! result line last; `compare` reads two sets of results against the bounds
//! in `BENCHMARK.json`; `cold` is the child that `run` starts to measure
//! set-up. See README.md beside this crate.

mod calib;
mod compare;
mod harness;
mod layers;
mod names;
mod offline;
mod prom;
mod serve;
mod span;
mod stats;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use metrics::Json;

use harness::{Ctx, Outcome, Template};
use names::{MetricDef, END_TO_END, PER_LAYER, SERVE_MIXED, WORKLOADS};
use span::Spans;

const USAGE: &str = "usage: benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--traced] [--runs K] [--out FILE] [--root DIR]
       benchmark compare A.json B.json [--root DIR]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    /// With no `--workload`: also make a traced run of each workload.
    also_traced: bool,
    runs: u64,
    out: Option<PathBuf>,
    root: PathBuf,
    pass_seed: Option<u64>,
    files: Vec<String>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 11,
        seconds: 10.0,
        traced: false,
        also_traced: false,
        runs: 1,
        out: None,
        root: PathBuf::from("benchmark"),
        pass_seed: None,
        files: Vec::new(),
    };
    while let Some(arg) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{arg} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{arg}: '{v}' is not a whole number"))
        };
        match arg.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = number(value()?)?,
            "--seconds" => a.seconds = number(value()?)? as f64,
            "--trace" => a.traced = number(value()?)? != 0,
            "--traced" => a.also_traced = true,
            "--runs" => a.runs = number(value()?)?,
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--root" => a.root = PathBuf::from(value()?),
            "--pass-seed" => a.pass_seed = Some(number(value()?)?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => a.files.push(arg),
        }
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload '{w}' (one of {})",
                WORKLOADS.join(", ")
            ));
        }
    }
    Ok(a)
}

/// Measure one workload in this process.
fn run_workload(ctx: &Ctx, traced: bool) -> Result<Outcome, String> {
    if !traced {
        return match ctx.workload.as_str() {
            SERVE_MIXED => serve::run(ctx, None),
            _ => offline::run(ctx),
        };
    }
    let mut spans = Spans::new();
    let mut out = match ctx.workload.as_str() {
        SERVE_MIXED => serve::run(ctx, Some(&mut spans))?,
        _ => {
            let mut out = Outcome::default();
            layers::run(ctx, &Template::load(ctx)?, ctx.seed, &mut spans, &mut out)?;
            out
        }
    };
    out.set("trace.spans", spans.len() as f64);
    let path = ctx.out_dir().join(format!("trace-{}.json", ctx.workload));
    std::fs::create_dir_all(ctx.out_dir())
        .and_then(|()| std::fs::write(&path, spans.to_json().render() + "\n"))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    out.note(format!(
        "{} spans written to {}",
        spans.len(),
        path.display()
    ));
    Ok(out)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(out: &Outcome, metrics: &[(&MetricDef, f64)]) -> Json {
    let mut values = Json::object();
    for (def, value) in metrics {
        let mut m = Json::object();
        m.push("value", *value).push("unit", def.unit);
        values.push(def.name, m);
    }
    let mut doc = Json::object();
    doc.push("correct", out.failures.is_empty())
        .push("attempted", out.attempted.max(1))
        .push("failed", out.failures.len() as u64)
        .push("metrics", values);
    doc
}

fn run_one(args: &Args, workload: &str, started: Instant) -> ExitCode {
    let ctx = Ctx {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        root: args.root.clone(),
        started,
    };
    let mut out = match run_workload(&ctx, args.traced) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("benchmark: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let defs = if args.traced { PER_LAYER } else { END_TO_END };
    let metrics = out.values.in_order(defs, !args.traced);
    for (def, value) in &metrics {
        if !value.is_finite() {
            out.failures.push(format!("{} is not a number", def.name));
        }
        println!("{workload} {} {value} {}", def.name, def.unit);
    }
    for note in &out.notes {
        println!("# {workload}: {note}");
    }
    for failure in &out.failures {
        println!("# {workload}: FAILED: {failure}");
    }
    println!(
        "# {workload}: {} of {} checked operations failed; seed {}; the model is unvalidated against the paper (PAPER.md holds no reference values), so no error figure is given",
        out.failures.len(),
        out.attempted,
        ctx.seed
    );
    println!("{}", result_json(&out, &metrics).render_compact());
    if out.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `rustc --version`, for the record beside a set of results.
fn toolchain() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Every workload, each run in a fresh process so that peak memory and
/// cold costs are its own; the result lines are gathered into one file.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let traces: &[u64] = if args.also_traced { &[0, 1] } else { &[0] };
    let mut runs = Vec::new();
    let mut all_correct = true;
    for workload in WORKLOADS {
        for &trace in traces {
            // A traced run has no spread to estimate: one is enough.
            for i in 0..if trace == 1 { 1 } else { args.runs } {
                let seed = args.seed + i;
                let child = Command::new(&exe)
                    .args(["run", "--workload", workload])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .args(["--trace", &trace.to_string(), "--root"])
                    .arg(&args.root)
                    .output()
                    .map_err(|e| format!("starting {workload}: {e}"))?;
                let stdout = String::from_utf8_lossy(&child.stdout);
                print!("{stdout}");
                eprint!("{}", String::from_utf8_lossy(&child.stderr));
                let result = stdout.lines().last().and_then(|l| Json::parse(l).ok());
                all_correct &= child.status.success();
                let mut run = Json::object();
                run.push("workload", *workload)
                    .push("seed", seed)
                    .push("trace", trace)
                    .push("result", result.unwrap_or(Json::Null));
                runs.push(run);
            }
        }
    }
    let mut doc = Json::object();
    doc.push("seed", args.seed)
        .push("seconds", args.seconds)
        .push(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        )
        .push("toolchain", toolchain())
        .push("runs", Json::Arr(runs));
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| args.root.join("out").join("results.json"));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, doc.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("[results written to {}]", path.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The child of `harness::cold_child`: set up once, say how long it took
/// and what it produced, and end.
fn cold(args: &Args, started: Instant) -> Result<(), String> {
    let ctx = Ctx {
        workload: args.workload.clone().ok_or("cold needs --workload")?,
        seed: args.seed,
        seconds: 0.0,
        root: args.root.clone(),
        started,
    };
    let template = Template::load(&ctx)?;
    let cold = match (args.pass_seed, ctx.workload.as_str()) {
        (Some(seed), _) => offline::cold(&ctx, &template.text(seed))?.1,
        (None, SERVE_MIXED) => serve::start(&ctx, &template)?.1,
        (None, _) => offline::cold(&ctx, &template.text(ctx.seed))?.1,
    };
    println!("{}", cold.to_line());
    Ok(())
}

fn main() -> ExitCode {
    let started = Instant::now();
    let mut argv = std::env::args().skip(1).peekable();
    let command = match argv.peek().map(String::as_str) {
        Some("run" | "cold" | "compare") => argv.next().expect("peeked"),
        _ => "run".to_string(),
    };
    let args = match parse_args(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let done = match (command.as_str(), &args.workload) {
        ("run", Some(workload)) => Ok(run_one(&args, workload, started)),
        ("run", None) => run_all(&args),
        ("cold", _) => cold(&args, started).map(|()| ExitCode::SUCCESS),
        _ => compare::run(&args.root, &args.files),
    };
    done.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench::scenario::{compile, parse_scenario};
    use std::path::Path;

    fn repo_file(rel: &str) -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    #[test]
    fn every_template_compiles_at_two_seeds() {
        for workload in WORKLOADS {
            let template =
                Template::parse(&repo_file(&format!("workloads/{workload}.json"))).unwrap();
            let texts = [template.text(11), template.text(12)];
            assert_ne!(
                texts[0], texts[1],
                "{workload}: the seed must reach the text"
            );
            for text in &texts {
                let spec = parse_scenario(text).unwrap_or_else(|e| panic!("{workload}: {e}"));
                assert_eq!(spec.name, *workload);
                assert!(
                    !spec.description.is_empty(),
                    "{workload}: say why it was chosen"
                );
                assert_eq!(spec.net.n_tors % spec.net.n_ports, 0, "{workload}");
                let compiled =
                    compile(spec, harness::origin()).unwrap_or_else(|e| panic!("{workload}: {e}"));
                assert!(!compiled.trace.is_empty(), "{workload}: no flows");
                assert!(compiled.trace.total_bytes() > 0, "{workload}");
            }
        }
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// `(name, unit)` of each entry of a `BENCHMARK.json` list.
    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        let text = |o: &Json, k: &str| o.get(k).and_then(Json::as_str).unwrap_or("").to_string();
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no '{key}'"))
            .iter()
            .map(|o| (text(o, "name"), text(o, "unit")))
            .collect()
    }

    #[test]
    fn names_are_valid_and_match_benchmark_json() {
        let doc = Json::parse(&repo_file("../BENCHMARK.json")).unwrap();
        let printed = |defs: &[MetricDef]| -> Vec<(String, String)> {
            defs.iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), printed(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), printed(PER_LAYER));
        let workloads: Vec<String> = listed(&doc, "workloads")
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let mut names: Vec<&str> = WORKLOADS.to_vec();
        names.extend(END_TO_END.iter().chain(PER_LAYER).map(|d| d.name));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let distinct: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(distinct.len(), names.len(), "a name is used once");
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome::default();
        out.check(true, String::new);
        out.check(false, || "broken".to_string());
        let line = result_json(&out, &[(&END_TO_END[0], 1.25)]).render_compact();
        assert_eq!(
            line,
            r#"{"correct":false,"attempted":2,"failed":1,"metrics":{"setup_s":{"value":1.25,"unit":"s"}}}"#
        );
    }
}
