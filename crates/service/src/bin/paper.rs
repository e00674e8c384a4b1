//! Regenerate the paper's tables and figures — and serve them.
//!
//! `paper` with no arguments prints the usage: every subcommand with the
//! flags that apply to it, generated from the flag table in
//! [`service::cli`] (README "The `paper` CLI" carries the same text).
//!
//! Experiments expand into independent runs executed across `--jobs`
//! worker threads, the only concurrency there is: each simulation runs on
//! one thread, and output is byte-identical at any job count. `--json`
//! writes one machine-readable `results/<id>.json` per experiment
//! (schema: see `bench::results`). `paper scenario` runs declarative
//! scenario files through the same machinery, deduping identical runs in
//! a batch and sharing the content-addressed result cache in `<out>/cache`
//! with the daemon. `paper serve` / `paper submit` are the serving pair:
//! a long-running daemon that queues submissions, streams per-phase
//! progress and returns results byte-identical to the offline
//! `--json --no-timing` form (wire protocol: README "Service").

use std::path::{Path, PathBuf};

use bench::cache::{CacheEntry, ResultCache};
use bench::experiments::{find_experiment, Args, Experiment, EXPERIMENTS};
use bench::{results, scenario, sweep};
use metrics::Json;
use service::cli::{self, Command, Output};
use service::library::library_json;

fn main() {
    let command = match cli::parse(std::env::args().skip(1).collect()) {
        Ok(command) => command,
        Err(error) => {
            eprintln!("error: {error}\n");
            usage();
            std::process::exit(2);
        }
    };
    match command {
        Command::Run {
            ids,
            args,
            seeds,
            jobs,
            output,
        } => run_experiments(&ids, &args, &seeds, jobs, &output),
        Command::Scenario {
            files,
            jobs,
            cache,
            trace,
            trace_capacity,
            output,
        } => run_scenarios(
            &files,
            jobs,
            cache,
            trace.as_deref().map(|path| (path, trace_capacity)),
            &output,
        ),
        Command::Serve(config) => {
            if let Err(error) = service::serve_forever(config) {
                eprintln!("error: {error}");
                std::process::exit(1);
            }
        }
        Command::Submit {
            file,
            addr,
            priority,
        } => submit(&file, &addr, priority),
        Command::Trace { file, strict } => trace_summary(&file, strict),
        Command::TraceQuery { file, opts } => match bench::traceq::query(&read(&file), &opts) {
            Ok(out) if out.ends_with('\n') => print!("{out}"),
            Ok(out) => println!("{out}"),
            Err(error) => {
                eprintln!("error: {}: {error}", file.display());
                std::process::exit(1);
            }
        },
        Command::TraceDiff { a, b, context } => {
            let outcome = bench::traceq::diff(
                &a.display().to_string(),
                &read(&a),
                &b.display().to_string(),
                &read(&b),
                context,
            );
            print!("{}", outcome.report);
            if outcome.divergent {
                std::process::exit(1);
            }
        }
        Command::List { json } => list(json),
        Command::Lint { json } => run_lint(json),
    }
}

/// The contents of an input file, or exit 2 naming it.
fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|error| {
        eprintln!("error: {}: {error}", path.display());
        std::process::exit(2);
    })
}

fn run_experiments(ids: &[String], args: &Args, seeds: &[u64], jobs: usize, output: &Output) {
    let exps: Vec<&'static dyn Experiment> = ids
        .iter()
        .map(|id| find_experiment(id).expect("ids validated by the parser"))
        .collect();
    for &seed in seeds {
        let args = Args {
            seed,
            ..args.clone()
        };
        println!(
            "# NegotiaToR reproduction — duration {} ms per run, loads {:?}, seed {seed}\n",
            args.duration as f64 / 1e6,
            args.loads.iter().map(|l| l * 100.0).collect::<Vec<_>>(),
        );
        eprintln!("[{} experiments across {jobs} jobs]", exps.len());
        let started = std::time::Instant::now();
        let reports = sweep::run_sweep(&exps, &args, jobs);
        for report in &reports {
            println!("{}", report.rendered);
            eprintln!(
                "[{}: {} runs, {:.1}s simulated-run time]",
                report.id,
                report.results.len(),
                report.runs_wall_secs()
            );
        }
        if output.json {
            write_json(output, jobs, &reports, seeds.len() > 1);
        }
        eprintln!(
            "[sweep of {} experiments done in {:.1?}]",
            reports.len(),
            started.elapsed()
        );
    }
}

/// What one scenario of the batch resolved to.
enum Plan {
    /// Served from the content-addressed cache, no simulation.
    Cached(CacheEntry),
    /// Index into the freshly simulated reports.
    Fresh(usize),
}

/// Run a batch of scenario files: validate + compile everything up front
/// (any problem exits before a single epoch simulates), serve what the
/// content-addressed cache already has, dedupe identical runs among the
/// rest, execute on the shared pool, and populate the cache for next
/// time (and for the daemon).
///
/// With `trace` (`--trace PATH` and the ring capacity) every scenario
/// simulates — a cache hit has no recorder — one after the other through
/// `bench::scenario::execute_traced`, the call the daemon's job executor
/// makes, so its `GET /jobs/<id>/trace` for the same scenario is
/// byte-identical. A multi-file batch writes one trace per scenario, the
/// given path suffixed with each scenario's name (`t.ndjson` →
/// `t-<name>.ndjson`).
fn run_scenarios(
    files: &[PathBuf],
    jobs: usize,
    use_cache: bool,
    trace: Option<(&Path, Option<usize>)>,
    output: &Output,
) {
    let compiled: Vec<_> = files
        .iter()
        .map(|path| {
            scenario::load(path).unwrap_or_else(|error| {
                eprintln!("error: {error}");
                std::process::exit(2);
            })
        })
        .collect();
    let cache = ResultCache::new(output.dir.join("cache"));
    // Cache entries hold the deterministic (timing-free) document, so a
    // hit can only substitute for a run whose output carries no timing —
    // `--json` without `--no-timing` must simulate to measure wall time,
    // or the same command would write different schemas hot vs cold.
    let lookup = use_cache && trace.is_none() && !(output.json && output.timing);
    let mut plans = Vec::with_capacity(compiled.len());
    let mut to_run = Vec::new();
    for c in &compiled {
        let hash = c.content_hash();
        match lookup.then(|| cache.lookup(hash)).flatten() {
            Some(entry) => {
                eprintln!(
                    "[scenario '{}': cache hit {} — skipping {} runs]",
                    c.spec.name,
                    ::scenario::hash::hex(hash),
                    c.spec.engines.len()
                );
                plans.push(Plan::Cached(entry));
            }
            None => {
                plans.push(Plan::Fresh(to_run.len()));
                to_run.push(c.clone());
            }
        }
    }
    let started = std::time::Instant::now();
    let fresh: Vec<sweep::SweepReport> = match trace {
        Some((path, capacity)) => to_run
            .iter()
            .map(|c| {
                eprintln!(
                    "[scenario '{}': tracing {} run(s) — cache lookup bypassed]",
                    c.spec.name,
                    c.spec.engines.len()
                );
                let (report, ndjson) = scenario::execute_traced(c, None, capacity);
                let path = match to_run.len() {
                    1 => path.to_path_buf(),
                    _ => suffixed_trace_path(path, &c.spec.name),
                };
                if let Err(error) = write_creating_parent(&path, ndjson.as_bytes()) {
                    eprintln!("error: writing {}: {error}", path.display());
                    std::process::exit(1);
                }
                eprintln!(
                    "[wrote {} ({} bytes of flight-recorder NDJSON)]",
                    path.display(),
                    ndjson.len()
                );
                report
            })
            .collect(),
        None if to_run.is_empty() => Vec::new(),
        None => {
            let runs: usize = to_run.iter().map(|c| c.spec.engines.len()).sum();
            eprintln!(
                "[{} scenario(s), {runs} runs across {jobs} jobs]",
                to_run.len()
            );
            let outcome = scenario::run_batch(&to_run, jobs);
            if outcome.coalesced > 0 {
                eprintln!(
                    "[coalesced {} duplicate run(s) — identical content hash, simulated once]",
                    outcome.coalesced
                );
            }
            outcome.reports
        }
    };
    // Populate the cache from the fresh reports (a batch can contain the
    // same scenario twice; store each hash once).
    let mut stored = std::collections::HashSet::new();
    for (c, report) in to_run.iter().zip(&fresh) {
        let hash = c.content_hash();
        if use_cache && stored.insert(hash) {
            let entry = CacheEntry {
                scenario: c.spec.name.clone(),
                rendered: report.rendered.clone(),
                document: scenario::deterministic_document(report),
            };
            if let Err(error) = cache.store(hash, &entry) {
                eprintln!(
                    "error: caching {}: {error}",
                    cache.entry_path(hash).display()
                );
            }
        }
    }
    // Emit in input order: rendered text always, JSON files on --json.
    for plan in &plans {
        match plan {
            Plan::Cached(entry) => println!("{}", entry.rendered),
            Plan::Fresh(i) => println!("{}", fresh[*i].rendered),
        }
    }
    if output.json {
        for plan in &plans {
            match plan {
                Plan::Cached(entry) => {
                    let path = output.dir.join(format!("scenario-{}.json", entry.scenario));
                    if let Err(error) = write_creating_parent(&path, entry.document.as_bytes()) {
                        eprintln!("error: writing {}: {error}", path.display());
                        std::process::exit(1);
                    }
                    eprintln!("[wrote {} (from cache)]", path.display());
                }
                Plan::Fresh(i) => write_json(output, jobs, std::slice::from_ref(&fresh[*i]), false),
            }
        }
    }
    eprintln!("[scenario batch done in {:.1?}]", started.elapsed());
}

fn write_creating_parent(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, bytes)
}

/// `t.ndjson` + scenario `storm` → `t-storm.ndjson`, so a batch's traces
/// land side by side without clobbering each other.
fn suffixed_trace_path(base: &Path, name: &str) -> PathBuf {
    let stem = base.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
    let file = match base.extension().and_then(|e| e.to_str()) {
        Some(ext) => format!("{stem}-{name}.{ext}"),
        None => format!("{stem}-{name}"),
    };
    base.with_file_name(file)
}

/// `paper trace <file>`: render the section summary; with `--strict`,
/// fail when the recorder dropped events.
fn trace_summary(path: &Path, strict: bool) {
    let text = read(path);
    match bench::tracecmd::summarize(&text) {
        Ok(summary) => print!("{summary}"),
        Err(error) => {
            eprintln!("error: {}: {error}", path.display());
            std::process::exit(1);
        }
    }
    let dropped = bench::traceq::dropped_total(&text);
    if strict && dropped > 0 {
        eprintln!(
            "error: {}: {dropped} event(s) dropped by ring overflow (--strict)",
            path.display()
        );
        std::process::exit(1);
    }
}

/// `paper submit`: send one scenario file to a daemon, stream progress to
/// stderr, and print the result document (byte-identical to the offline
/// `--json --no-timing` form) on stdout.
fn submit(path: &Path, addr: &str, priority: i64) {
    let outcome = service::submit(addr, &read(path), priority, |event| {
        let kind = event.get("event").and_then(Json::as_str).unwrap_or("?");
        match kind {
            "phase" => {
                let get = |k: &str| event.get(k).and_then(Json::as_f64).unwrap_or(-1.0);
                eprintln!(
                    "[phase {}/{} '{}' done ({})]",
                    get("phase") as i64 + 1,
                    get("phases") as i64,
                    event.get("label").and_then(Json::as_str).unwrap_or("?"),
                    event.get("system").and_then(Json::as_str).unwrap_or("?"),
                );
            }
            _ => eprintln!("[{}]", event.render_compact()),
        }
    });
    match outcome {
        Ok(outcome) => {
            eprintln!(
                "[result: {}]",
                match outcome.disposition {
                    service::Disposition::CacheHit => "cache hit — served without simulating",
                    service::Disposition::Simulated => "simulated",
                    service::Disposition::Coalesced => {
                        "coalesced onto an identical in-flight job"
                    }
                }
            );
            print!("{}", outcome.document);
        }
        Err(error) => {
            eprintln!("error: {error}");
            std::process::exit(1);
        }
    }
}

/// `paper lint`: scan the workspace for determinism-invariant violations
/// (rules and zones: README "Static analysis"). Exit 0 when clean, 1 on
/// findings, 2 when the scan itself cannot run.
fn run_lint(json: bool) {
    let root = Path::new(".");
    if !root.join("crates").is_dir() {
        eprintln!("error: lint: run from the workspace root (no crates/ directory here)");
        std::process::exit(2);
    }
    let report = match lint::scan_workspace(root) {
        Ok(report) => report,
        Err(error) => {
            eprintln!("error: lint: {error}");
            std::process::exit(2);
        }
    };
    if json {
        println!("{}", lint::render_json(&report).render());
    } else {
        print!("{}", lint::render_text(&report));
    }
    if !report.findings.is_empty() {
        std::process::exit(1);
    }
}

fn list(json: bool) {
    if json {
        // Machine-readable: experiments + the scenario library, one
        // document, so clients can discover everything a daemon can run.
        let mut doc = Json::object();
        let mut experiments = Vec::new();
        for exp in EXPERIMENTS {
            let mut e = Json::object();
            e.push("id", exp.id()).push("artifact", exp.artifact());
            experiments.push(e);
        }
        doc.push("experiments", Json::Arr(experiments));
        let library = library_json(Path::new("scenarios"));
        doc.push(
            "scenarios",
            library
                .get("scenarios")
                .cloned()
                .unwrap_or(Json::Arr(Vec::new())),
        );
        println!("{}", doc.render());
        return;
    }
    for exp in EXPERIMENTS {
        println!("{:<8} {}", exp.id(), exp.artifact());
    }
    list_scenarios(Path::new("scenarios"));
}

fn write_json(output: &Output, jobs: usize, reports: &[sweep::SweepReport], multi_seed: bool) {
    let timing_jobs = output.timing.then_some(jobs);
    match results::write_reports(&output.dir, reports, timing_jobs, multi_seed) {
        Ok(paths) => {
            for path in paths {
                eprintln!("[wrote {}]", path.display());
            }
        }
        Err(error) => {
            eprintln!("error: writing {}: {error}", output.dir.display());
            std::process::exit(1);
        }
    }
}

/// Enumerate the scenario library next to the experiment registry, one
/// line per file with its description — or its validation error, so a
/// broken library file is visible right in `paper list`. The entries are
/// the same ones `paper list --json` and `GET /scenarios` serve
/// (`service::library`), so the human and machine listings can never
/// disagree.
fn list_scenarios(dir: &Path) {
    let library = library_json(dir);
    let entries = library
        .get("scenarios")
        .and_then(Json::as_array)
        .unwrap_or(&[]);
    if entries.is_empty() {
        return;
    }
    println!("\nscenarios (paper scenario <file>):");
    for entry in entries {
        let path = entry.get("path").and_then(Json::as_str).unwrap_or("?");
        let line = match entry.get("error").and_then(Json::as_str) {
            Some(error) => format!("INVALID — {error}"),
            None => entry
                .get("description")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
        };
        println!("{path:<36} {line}");
    }
}

fn usage() {
    eprint!("{}", cli::usage());
    eprintln!("experiments:");
    for exp in EXPERIMENTS {
        eprintln!("  {:<8} {}", exp.id(), exp.artifact());
    }
}
