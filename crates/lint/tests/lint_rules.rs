//! Fixture-driven rule tests plus the workspace self-scan gate.
//!
//! The fixtures under `tests/fixtures/` are known-bad snippets that are
//! never compiled (the directory is excluded from the scan policy too);
//! each test scans one and asserts the exact rule id and line:column of
//! every expected finding, so a lexer or rule regression cannot hide
//! behind "roughly the right count".

use lint::{render_json, render_text, rules, scan_workspace, Rule, RuleSet};
use std::path::Path;

const ALL: RuleSet = RuleSet {
    d001: true,
    d002: true,
    d003: true,
};

fn scan_fixture(name: &str) -> (String, Vec<rules::Finding>) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
    let findings = rules::scan_source(name, &src, ALL);
    (src, findings)
}

fn ids(findings: &[rules::Finding]) -> Vec<(&'static str, usize, usize)> {
    findings
        .iter()
        .map(|f| (f.rule.id(), f.line, f.column))
        .collect()
}

#[test]
fn d001_fixture_exact_positions() {
    let (_, f) = scan_fixture("d001_unordered.rs");
    // Line 3 `use ... HashMap`, line 5 `&HashMap<...>`; the string on
    // line 6 and the justified allow on line 11/12 produce nothing.
    assert_eq!(ids(&f), vec![("D001", 3, 23), ("D001", 5, 19)]);
}

#[test]
fn d002_fixture_exact_positions() {
    let (_, f) = scan_fixture("d002_wall_clock.rs");
    // The `use` and the stored Option<Instant> are not reads; only
    // `Instant::now()` and the `SystemTime` touch fire.
    assert_eq!(ids(&f), vec![("D002", 6, 14), ("D002", 7, 28)]);
}

#[test]
fn d003_fixture_exact_positions() {
    let (_, f) = scan_fixture("d003_threading.rs");
    // `thread::sleep` is allowed; `thread::spawn` and `mpsc` are not.
    assert_eq!(ids(&f), vec![("D003", 4, 26), ("D003", 5, 31)]);
}

#[test]
fn d004_fixture_exact_positions() {
    let (_, f) = scan_fixture("d004_randomness.rs");
    assert_eq!(
        ids(&f),
        vec![("D004", 2, 33), ("D004", 5, 46), ("D004", 6, 15)]
    );
}

#[test]
fn h001_fixture_exact_positions() {
    let (_, f) = scan_fixture("h001_hot_alloc.rs");
    // Only the annotated region fires; the trailing allow excuses the
    // last push; code before and after the region is free to allocate.
    assert_eq!(
        ids(&f),
        vec![
            ("H001", 8, 7),   // v.push(1)
            ("H001", 9, 15),  // x.clone()
            ("H001", 10, 13), // format!
            ("H001", 11, 15), // x.to_string()
            ("H001", 12, 13), // Box::new
            ("H001", 13, 22), // Vec::new (the `Vec<u8>` type is not a call)
        ]
    );
    assert!(f.iter().all(|x| x.rule == Rule::H001));
}

#[test]
fn suppression_fixture_hygiene() {
    let (_, f) = scan_fixture("suppressions.rs");
    // Bare allow (3), unknown rule (5), stale allow (6), unknown
    // directive (8). Both HashMap lines are suppressed — the bare allow
    // still works, it just costs an S001.
    assert_eq!(
        ids(&f),
        vec![
            ("S001", 3, 5),
            ("S001", 5, 5),
            ("S001", 6, 5),
            ("S001", 8, 5),
        ]
    );
    assert!(
        f[0].message.contains("no justification"),
        "{}",
        f[0].message
    );
    assert!(
        f[1].message.contains("no suppressible rule"),
        "{}",
        f[1].message
    );
    assert!(f[2].message.contains("stale"), "{}", f[2].message);
    assert!(
        f[3].message.contains("unknown lint directive"),
        "{}",
        f[3].message
    );
}

/// The D003 exemption is a property of the *path*, not the source: the
/// identical threading snippet is clean when it lives at
/// `crates/sim/src/pool.rs` and two findings anywhere else in the engine
/// zone, the epoch engines and the rest of `sim` included.
#[test]
fn d003_shard_zone_fixture_is_path_gated() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join("d003_shard_zone.rs");
    let src = std::fs::read_to_string(&path).expect("d003_shard_zone.rs");
    let f = lint::scan_file("crates/sim/src/pool.rs", &src);
    assert!(f.is_empty(), "sim::pool should be exempt, got {f:?}");
    for engine in [
        "crates/sim/src/lib.rs",
        "crates/sim/src/shard.rs",
        "crates/negotiator/src/sim/phases.rs",
    ] {
        let f = lint::scan_file(engine, &src);
        assert_eq!(
            ids(&f),
            vec![("D003", 6, 31), ("D003", 7, 31)],
            "{engine}: the same bytes outside sim::pool must fire"
        );
    }
}

/// The fault-injection module is engine surface: scanned under its real
/// path, unordered containers (D001) and ambient RNG (D004) both fire —
/// a flap table in a `HashMap` or a gray-drop decision from `thread_rng`
/// would silently break byte-identity, and the linter is the backstop.
#[test]
fn inject_module_is_lint_gated_as_engine_code() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join("inject_zone.rs");
    let src = std::fs::read_to_string(&path).expect("inject_zone.rs");
    let f = lint::scan_file("crates/topology/src/inject.rs", &src);
    let rule_ids: Vec<&str> = f.iter().map(|x| x.rule.id()).collect();
    assert!(rule_ids.contains(&"D001"), "HashMap must fire D001: {f:?}");
    assert!(
        rule_ids.contains(&"D004"),
        "ambient RNG must fire D004: {f:?}"
    );
    // The same bytes in an infra crate relax D001 (harness code may use
    // maps) but still reject ambient randomness.
    let f = lint::scan_file("crates/bench/src/inject_zone.rs", &src);
    let rule_ids: Vec<&str> = f.iter().map(|x| x.rule.id()).collect();
    assert!(
        !rule_ids.contains(&"D001"),
        "infra zone relaxes D001: {f:?}"
    );
    assert!(rule_ids.contains(&"D004"), "D004 applies everywhere: {f:?}");
}

/// Suppression hygiene on the real tree: every `lint: allow` directive in
/// the scanned workspace names a known rule AND carries a justification.
/// (The self-scan gate below already catches bare allows as S001 — this
/// asserts the stronger invariant directly, with the offending lines in
/// the failure message.)
#[test]
fn workspace_allows_all_carry_justifications() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = scan_workspace(&root).expect("workspace scan");
    let mut offenders = Vec::new();
    let mut seen_allows = 0usize;
    for rel in &report.files {
        // The lint crate itself documents and unit-tests the directive
        // syntax (placeholder `RULE`, deliberately-bad `D999` strings);
        // the hygiene claim is about the *consumers* of the directive.
        if rel.starts_with("crates/lint/") {
            continue;
        }
        let src = std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"));
        for (i, line) in src.lines().enumerate() {
            let Some(at) = line.find("lint: allow(") else {
                continue;
            };
            seen_allows += 1;
            let rest = &line[at + "lint: allow(".len()..];
            let Some((id, justification)) = rest.split_once(')') else {
                offenders.push(format!("{rel}:{} — unclosed allow", i + 1));
                continue;
            };
            if Rule::from_id(id.trim()).is_none() {
                offenders.push(format!("{rel}:{} — unknown rule `{id}`", i + 1));
            }
            if justification.trim().is_empty() {
                offenders.push(format!("{rel}:{} — no justification", i + 1));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "bare allows:\n{}",
        offenders.join("\n")
    );
    assert!(
        seen_allows >= 5,
        "suspiciously few allows found ({seen_allows}) — did the directive syntax change?"
    );
}

#[test]
fn every_rule_has_a_distinct_hint() {
    let rules = [
        Rule::D001,
        Rule::D002,
        Rule::D003,
        Rule::D004,
        Rule::H001,
        Rule::S001,
    ];
    for (i, a) in rules.iter().enumerate() {
        assert!(!a.hint().is_empty());
        for b in &rules[i + 1..] {
            assert_ne!(a.hint(), b.hint());
            assert_ne!(a.id(), b.id());
        }
    }
}

/// The gate CI leans on: the workspace itself scans clean — zero
/// unsuppressed findings — and the scan is deterministic (two passes
/// render byte-identical reports).
#[test]
fn workspace_self_scan_is_clean_and_deterministic() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = scan_workspace(&root).expect("workspace scan");
    assert!(
        report.findings.is_empty(),
        "unsuppressed findings:\n{}",
        render_text(&report)
    );
    assert!(
        report.files.len() > 50,
        "suspiciously few files scanned: {}",
        report.files.len()
    );
    // Spot-check coverage: the engine hot paths and the daemon are in.
    for expected in [
        "crates/negotiator/src/sim.rs",
        "crates/oblivious/src/sim.rs",
        "crates/service/src/server.rs",
        "crates/lint/src/lib.rs",
        "tests/golden_report.rs",
    ] {
        assert!(
            report.files.iter().any(|f| f == expected),
            "{expected} missing from the scan"
        );
    }
    // Fixtures and vendored stand-ins must NOT be in.
    assert!(
        report
            .files
            .iter()
            .all(|f| !f.contains("/fixtures/") && !f.starts_with("vendor/")),
        "policy exclusions leaked into the scan"
    );
    let again = scan_workspace(&root).expect("second scan");
    assert_eq!(render_text(&report), render_text(&again));
    assert_eq!(render_json(&report).render(), render_json(&again).render());
}
