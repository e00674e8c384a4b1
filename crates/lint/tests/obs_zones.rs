//! Observability zone gates: the deterministic flight recorder
//! (`crates/metrics/src/trace.rs`) is engine-zone code — no wall clock
//! (D002), hot paths registered under H001 — while the wall-clock
//! profiling hooks (`crates/bench/src/profile.rs`, the daemon's
//! `crates/service/src/metrics.rs`) live exactly where D002 is off.
//! These tests pin that split so a refactor cannot silently move the
//! recorder out of the policed zone or drop its hot-path annotations.

use std::path::Path;

fn fixture() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/obs_zone.rs");
    std::fs::read_to_string(&path).expect("obs_zone.rs fixture")
}

fn rule_lines(findings: &[lint::Finding]) -> Vec<(&'static str, usize)> {
    findings.iter().map(|f| (f.rule.id(), f.line)).collect()
}

/// The recorder path is an engine zone: wall clock fires D002 and the
/// unjustified push inside the `lint: hot-path` region fires H001.
#[test]
fn wall_clock_in_the_trace_recorder_fires_d002() {
    let src = fixture();
    let f = lint::scan_file("crates/metrics/src/trace.rs", &src);
    assert_eq!(
        rule_lines(&f),
        vec![("D002", 8), ("H001", 11)],
        "recorder zone must flag the clock and the hot-path push: {f:?}"
    );
}

/// The same bytes under the profiling-hook paths: D002 is relaxed (wall
/// clock is their job) but the annotated hot region still fires H001 —
/// the annotation travels with the code, not the zone.
#[test]
fn wall_clock_in_profiling_hooks_does_not_fire_d002() {
    let src = fixture();
    for hooks in [
        "crates/bench/src/profile.rs",
        "crates/service/src/metrics.rs",
    ] {
        let f = lint::scan_file(hooks, &src);
        assert_eq!(
            rule_lines(&f),
            vec![("H001", 11)],
            "{hooks}: profiling hooks may read the clock, got {f:?}"
        );
    }
}

/// The causal span-recording sites are engine-zone code too: the shared
/// run loop (`metrics::frame::run`) births and sweeps `FlowSpans` every
/// tick and the negotiator's `trace_control` stamps the pair milestones,
/// each from merged per-tick state inside a registered hot-path region.
/// The shipped sources — the rotor's tick included — must keep scanning
/// clean so span emission can never grow a wall clock, an unordered map,
/// or an unregistered hot-path allocation.
#[test]
fn the_shipped_span_recording_sites_are_registered_and_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for (rel, stamps_spans) in [
        ("crates/metrics/src/frame.rs", true),
        ("crates/negotiator/src/sim.rs", true),
        ("crates/oblivious/src/sim.rs", false),
    ] {
        let src = std::fs::read_to_string(root.join(rel)).expect("shipped engine source");
        assert!(
            !stamps_spans || src.contains("FlowSpans"),
            "{rel}: must stamp causal flow spans"
        );
        assert!(
            src.contains("// lint: hot-path"),
            "{rel}: the per-tick code must stay a registered H001 hot region"
        );
        let f = lint::scan_file(rel, &src);
        assert!(f.is_empty(), "{rel}: shipped engine has findings: {f:?}");
    }
}

/// The real recorder scans clean under its real path: its hot-path
/// region is registered and the one sanctioned allocation (the append
/// into preallocated ring capacity) carries a justified allow.
#[test]
fn the_shipped_recorder_is_registered_and_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let rel = "crates/metrics/src/trace.rs";
    let src = std::fs::read_to_string(root.join(rel)).expect("shipped recorder source");
    assert!(
        src.contains("// lint: hot-path"),
        "the recorder's record() must stay a registered H001 hot region"
    );
    assert!(
        src.contains("lint: allow(H001)"),
        "the ring append must stay an explicitly justified allocation"
    );
    let f = lint::scan_file(rel, &src);
    assert!(f.is_empty(), "shipped recorder has findings: {f:?}");
}
