//! Every registered experiment's output bytes, pinned. At one fixed tiny
//! configuration (0.1 ms, loads 50 % / 100 %, seed 7) each experiment's
//! rendered text plus its timing-free results document hashes to the
//! digest committed in `tests/fixtures/experiment_digests.txt`, so a
//! refactor of the registry, the sweep engine or either epoch engine that
//! moves a byte of any table or figure fails here and names the
//! experiment; `fig9@sweep-smoke` pins fig9 again at CI's sweep
//! configuration. The curated `scenarios/*.json` are rows of the same
//! fixture — `scenario-<name>`, digest over the deterministic document
//! plus the traced NDJSON at `--workers 1`. `fig7b` (a 500 KB all-to-all
//! on 128 ToRs) and `fig9@sweep-smoke` are slow unoptimized, so their
//! test is `#[ignore]`d and CI's release lane runs it:
//!
//! ```text
//! cargo test --release -p bench --test experiment_digests -- --include-ignored
//! ```
//!
//! Every rendering lands in `$CARGO_TARGET_TMPDIR/digests/<digest>/`. A
//! drift prints the `id digest` line to commit after a deliberate change,
//! and the first moved line of each file whose recorded rendering an
//! earlier run in the same target directory left there.

use std::path::PathBuf;

use bench::experiments::{find_experiment, Args, Experiment, EXPERIMENTS};
use bench::scenario::{deterministic_document, execute_traced, load};
use bench::{results, sweep, traceq};
use metrics::Json;
use scenario::hash::{hex, StableHasher};

const SLOW: &str = "fig7b";

/// What turns `fig9` into the fixture id of its [`sweep_smoke_args`] row.
const SWEEP_SMOKE: &str = "@sweep-smoke";

fn args() -> Args {
    Args {
        duration: 100_000,
        loads: vec![0.5, 1.0],
        seed: 7,
        workers: 1,
    }
}

/// `paper fig9 --duration-ms 0.5`: the default loads and seed.
fn sweep_smoke_args() -> Args {
    Args {
        duration: 500_000,
        ..Args::default()
    }
}

/// The committed `(id, digest)` lines: the registry in its order,
/// `fig9@sweep-smoke`, then the scenarios by file name.
fn recorded() -> Vec<(String, String)> {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/experiment_digests.txt");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    text.lines()
        .map(|line| {
            let (id, digest) = line.split_once(' ').expect("`id digest` per line");
            (id.to_string(), digest.to_string())
        })
        .collect()
}

/// Hash `parts` (`(extension, bytes)` in digest order) and write each to
/// `digests/<digest>/<id>.<extension>`. If the fixture records another
/// digest for `id` (or none), return the `id digest` line, where the
/// rendering is and, for each part whose recorded rendering is on disk,
/// its first moved line with both values.
fn drift(recorded: &[(String, String)], id: &str, parts: &[(&str, &str)]) -> Option<String> {
    let mut hasher = StableHasher::new();
    for (_, text) in parts {
        hasher.write_str(text);
    }
    let digest = hex(hasher.finish());
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("digests");
    let path = |digest: &str, ext: &str| dir.join(digest).join(format!("{id}.{ext}"));
    std::fs::create_dir_all(dir.join(&digest)).expect("a writable target directory");
    let expected = recorded.iter().find(|(rid, _)| rid == id).map(|(_, d)| d);
    let old = expected.filter(|&old| *old != digest);
    let mut message = format!(
        "{id} {digest}\n  rendered to {}\n",
        path(&digest, "*").display()
    );
    for (ext, text) in parts {
        let now = path(&digest, ext);
        std::fs::write(&now, text).unwrap_or_else(|e| panic!("{}: {e}", now.display()));
        let Some(was) = old.map(|old| path(old, ext)) else {
            continue;
        };
        let Ok(before) = std::fs::read_to_string(&was) else {
            continue;
        };
        let (was, now) = (was.display().to_string(), now.display().to_string());
        let diff = traceq::diff(&was, &before, &now, text, 0);
        for line in diff.report.lines().filter(|_| diff.divergent) {
            message.push_str(&format!("  {line}\n"));
        }
    }
    (expected != Some(&digest)).then_some(message)
}

/// Run `experiments` at `args` and return the drift reports; an
/// experiment's fixture id is its id followed by `suffix`.
fn drifted(experiments: &[&'static dyn Experiment], args: &Args, suffix: &str) -> Vec<String> {
    let recorded = recorded();
    sweep::run_sweep(experiments, args, sim::pool::default_jobs())
        .iter()
        .filter_map(|report| {
            let document = results::experiment_json(report, None).render();
            let id = format!("{}{suffix}", report.id);
            drift(
                &recorded,
                &id,
                &[("txt", &report.rendered), ("json", &document)],
            )
        })
        .collect()
}

fn assert_none_drifted(drifted: &[String]) {
    assert!(drifted.is_empty(), "output drifted:\n{}", drifted.concat());
}

/// The curated scenario files, by name.
fn scenario_files() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("readable directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    files
}

#[test]
fn fixture_lists_exactly_the_registry() {
    let scenarios = scenario_files().into_iter().map(|path| {
        let name = path.file_stem().expect("a .json file has a stem");
        format!("scenario-{}", name.to_string_lossy())
    });
    let ids: Vec<String> = EXPERIMENTS
        .iter()
        .map(|e| e.id().to_string())
        .chain([format!("fig9{SWEEP_SMOKE}")])
        .chain(scenarios)
        .collect();
    let recorded: Vec<String> = recorded().into_iter().map(|(id, _)| id).collect();
    assert_eq!(recorded, ids);
}

#[test]
fn every_fast_experiment_renders_the_recorded_bytes() {
    let fast: Vec<_> = EXPERIMENTS
        .iter()
        .copied()
        .filter(|e| e.id() != SLOW)
        .collect();
    assert_none_drifted(&drifted(&fast, &args(), ""));
}

#[test]
fn every_scenario_renders_the_recorded_bytes() {
    let recorded = recorded();
    let drifted: Vec<String> = scenario_files()
        .iter()
        .filter_map(|path| {
            let compiled = load(path).unwrap_or_else(|e| panic!("{e}"));
            let (report, trace) = execute_traced(&compiled, None, 1, None);
            drift(
                &recorded,
                &report.id,
                &[
                    ("json", &deterministic_document(&report)),
                    ("ndjson", &trace),
                ],
            )
        })
        .collect();
    assert_none_drifted(&drifted);
}

#[test]
#[ignore = "minutes unoptimized; CI's sweep-smoke runs it in release"]
fn slow_rows_render_the_recorded_bytes() {
    let slow = find_experiment(SLOW).expect("registered");
    let fig9 = find_experiment("fig9").expect("registered");
    let mut moved = drifted(&[slow], &args(), "");
    moved.extend(drifted(&[fig9], &sweep_smoke_args(), SWEEP_SMOKE));
    assert_none_drifted(&moved);
}

#[test]
fn a_drift_names_the_first_moved_line_with_both_values() {
    let document = |p99_ns: u64| {
        let mut mice = Json::object();
        mice.push("p50_ns", 4729u64).push("p99_ns", p99_ns);
        let mut doc = Json::object();
        doc.push("mice", mice);
        doc.render()
    };
    let (id, text, before) = ("drift-demo", "load  p99\n 50%  16.7\n", document(16_720));
    let first = drift(&[], id, &[("txt", text), ("json", &before)]).expect("not in the fixture");
    let digest = first.split_whitespace().nth(1).expect("`id digest` first");
    let recorded = [(id.to_string(), digest.to_string())];
    assert!(drift(&recorded, id, &[("txt", text), ("json", &before)]).is_none());
    let after = document(16_721);
    let report = drift(&recorded, id, &[("txt", text), ("json", &after)]).expect("drifts");
    assert_eq!(report.matches("diverge at line").count(), 1, "{report}");
    assert!(report.contains("diverge at line 4 "), "{report}");
    assert!(report.contains("\"p99_ns\": 16720\n"), "{report}");
    assert!(report.contains("\"p99_ns\": 16721\n"), "{report}");
}
