//! Every registered experiment's output bytes, pinned. At one fixed tiny
//! configuration (0.1 ms, loads 50 % / 100 %, seed 7) each experiment's
//! rendered text plus its timing-free results document hashes to the
//! digest committed in `tests/fixtures/experiment_digests.txt`, so a
//! refactor of the registry, the sweep engine or either epoch engine that
//! moves a byte of any table or figure fails here and names the
//! experiment. The curated `scenarios/*.json` are rows of the same
//! fixture — `scenario-<name>`, digest over the deterministic document
//! plus the traced NDJSON at `--workers 1` — so the scenario compiler,
//! the fault timeline and the flight recorder are pinned the same way.
//! `fig7b` (a 500 KB all-to-all on 128 ToRs) takes minutes
//! unoptimized, so its test is `#[ignore]`d and CI's release lane runs it:
//!
//! ```text
//! cargo test --release -p bench --test experiment_digests -- --include-ignored
//! ```
//!
//! A deliberate output change refreshes the fixture from the failure
//! message, which prints every drifted `id digest` line.

use std::path::PathBuf;

use bench::experiments::{find_experiment, Args, Experiment, EXPERIMENTS};
use bench::scenario::{deterministic_document, execute_traced, load};
use bench::{results, sweep};
use scenario::hash::{hex, StableHasher};

const SLOW: &str = "fig7b";

fn args() -> Args {
    Args {
        duration: 100_000,
        loads: vec![0.5, 1.0],
        seed: 7,
        workers: 1,
    }
}

/// The committed `(id, digest)` lines: the registry in its order, then
/// the scenarios by file name.
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

/// `id digest` of the two texts if the fixture records something else
/// for `id` (or nothing).
fn drift(recorded: &[(String, String)], id: &str, a: &str, b: &str) -> Option<String> {
    let digest = hex(StableHasher::new().write_str(a).write_str(b).finish());
    let expected = recorded.iter().find(|(rid, _)| rid == id);
    (expected.map(|(_, d)| d) != Some(&digest)).then(|| format!("{id} {digest}"))
}

/// Run `experiments` and return the `id digest` lines that differ from
/// the fixture.
fn drifted(experiments: &[&'static dyn Experiment]) -> Vec<String> {
    let recorded = recorded();
    sweep::run_sweep(experiments, &args(), sim::pool::default_jobs())
        .iter()
        .filter_map(|report| {
            let document = results::experiment_json(report, None).render();
            drift(&recorded, &report.id, &report.rendered, &document)
        })
        .collect()
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
    let drifted = drifted(&fast);
    assert!(
        drifted.is_empty(),
        "output drifted:\n{}",
        drifted.join("\n")
    );
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
                &deterministic_document(&report),
                &trace,
            )
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "output drifted:\n{}",
        drifted.join("\n")
    );
}

#[test]
#[ignore = "minutes unoptimized; CI's sweep-smoke runs it in release"]
fn fig7b_renders_the_recorded_bytes() {
    let drifted = drifted(&[find_experiment(SLOW).expect("registered")]);
    assert!(
        drifted.is_empty(),
        "output drifted:\n{}",
        drifted.join("\n")
    );
}
