//! `--jobs N` must be invisible in every output: a parallel sweep
//! reassembles its results in spec order, so rendered reports and the
//! (timing-free) JSON documents are byte-identical to a serial run of the
//! same (config, seed). This is the contract that lets the digest fixture
//! pin output bytes while sweeps run as wide as the machine allows.

use bench::experiments::{find_experiment, Args, Experiment};
use bench::{results, sweep};

/// A fast but non-trivial configuration: two loads at paper scale keeps
/// the whole test in seconds while still spanning 20 runs of two
/// structurally different experiments (cells and per-run table chunks).
fn small_args() -> Args {
    Args {
        duration: 100_000, // 0.1 ms
        loads: vec![0.25, 1.0],
        seed: 7,
    }
}

fn experiments() -> Vec<&'static dyn Experiment> {
    vec![
        find_experiment("fig9").expect("registered"),
        find_experiment("table2").expect("registered"),
    ]
}

#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    let args = small_args();
    let serial = sweep::run_sweep(&experiments(), &args, 1);
    let parallel = sweep::run_sweep(&experiments(), &args, 8);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.id, p.id);
        // Identical rendered text reports, byte for byte.
        assert_eq!(s.rendered, p.rendered, "{}: rendering diverged", s.id);
        // Identical run metadata and metrics (RunReports included) —
        // wall-clock is execution metadata and is excluded by comparing
        // the pieces rather than whole RunResults.
        assert_eq!(s.results.len(), p.results.len());
        for (a, b) in s.results.iter().zip(&p.results) {
            assert_eq!(a.meta, b.meta, "{}: meta diverged", s.id);
            assert_eq!(
                a.metrics, b.metrics,
                "{}: run {} metrics diverged",
                s.id, a.meta.index
            );
        }
        // Identical JSON bytes once timing metadata is left out.
        let s_json = results::experiment_json(s, None).render();
        let p_json = results::experiment_json(p, None).render();
        assert_eq!(s_json, p_json, "{}: JSON diverged", s.id);
        assert!(!s_json.contains("wall_secs"));
    }
}

#[test]
fn timed_json_differs_only_in_timing_fields() {
    let args = small_args();
    let exp = find_experiment("table2").expect("registered");
    let serial = sweep::run_one(exp, &args, 1);
    let parallel = sweep::run_one(exp, &args, 8);
    let strip = |report: &sweep::SweepReport, jobs: usize| {
        let rendered = results::experiment_json(report, Some(jobs)).render();
        let parsed = metrics::Json::parse(&rendered).expect("valid JSON");
        // Drop the two timing carriers; everything left must match.
        let metrics::Json::Obj(members) = parsed else {
            panic!("top level is an object")
        };
        let members: Vec<_> = members
            .into_iter()
            .filter(|(k, _)| k != "timing")
            .map(|(k, v)| match (k.as_str(), v) {
                ("runs", metrics::Json::Arr(runs)) => (
                    k.clone(),
                    metrics::Json::Arr(
                        runs.into_iter()
                            .map(|run| {
                                let metrics::Json::Obj(fields) = run else {
                                    panic!("run is an object")
                                };
                                metrics::Json::Obj(
                                    fields
                                        .into_iter()
                                        .filter(|(k, _)| k != "wall_secs")
                                        .collect(),
                                )
                            })
                            .collect(),
                    ),
                ),
                (_, v) => (k.clone(), v),
            })
            .collect();
        metrics::Json::Obj(members)
    };
    assert_eq!(strip(&serial, 1), strip(&parallel, 8));
}

/// The committed scenario library, relative to this crate.
fn scenarios_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

#[test]
fn scenario_run_is_byte_identical_across_jobs() {
    // The acceptance contract of `paper scenario`: report text and the
    // timing-free results JSON at --jobs 8 match --jobs 1 byte for byte.
    let compiled =
        bench::scenario::load(&scenarios_dir().join("rolling_failures.json")).expect("ships valid");
    let serial = bench::scenario::run(&compiled, 1, 1);
    let parallel = bench::scenario::run(&compiled, 8, 1);
    assert_eq!(serial.rendered, parallel.rendered, "report diverged");
    let s = results::experiment_json(&serial, None).render();
    let p = results::experiment_json(&parallel, None).render();
    assert_eq!(s, p, "results JSON diverged");
    // The series actually made it into the document.
    assert!(s.contains("\"series\""), "{s}");
    assert!(s.contains("\"random_cuts\""), "{s}");
}

#[test]
fn shipped_scenario_library_is_valid() {
    // Every scenarios/*.json must parse, validate and compile (trace
    // files included) — `paper list` shows them and CI smokes one.
    let dir = scenarios_dir();
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("scenarios/ exists") {
        let path = entry.expect("entry").path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let compiled =
            bench::scenario::load(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            !compiled.trace.is_empty(),
            "{}: empty trace",
            path.display()
        );
        assert_eq!(
            format!("{}.json", compiled.spec.name),
            path.file_name().unwrap().to_string_lossy(),
            "scenario name must match its file name"
        );
        seen += 1;
    }
    assert!(seen >= 5, "the library ships at least five scenarios");
}

#[test]
fn seed_changes_the_sweep() {
    // Guard against a sweep that ignores its seed: JSON for seed A and
    // seed B must differ in metrics, not just in the config stanza.
    let exp = find_experiment("table2").expect("registered");
    let a = sweep::run_one(exp, &small_args(), 4);
    let b = sweep::run_one(
        exp,
        &Args {
            seed: 8,
            ..small_args()
        },
        4,
    );
    assert_ne!(a.rendered, b.rendered, "different seeds, same table");
}
