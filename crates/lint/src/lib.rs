//! Static gate for the workspace's determinism invariants.
//!
//! The golden-report suites prove determinism *dynamically* — identical
//! bytes at any `--jobs` count — but only along the paths a test happens
//! to drive. This crate proves the invariants lexically across every
//! source file: no unordered iteration in engine crates (D001), no wall
//! clock outside the timing harness (D002), no threading outside
//! `sim::pool` (D003), no ambient randomness anywhere (D004), and no
//! allocation-capable calls inside annotated hot regions (H001). Run it
//! as `paper lint [--json]`; CI fails on any finding.
//!
//! # Policy zones
//!
//! * **Engine** — `sim`, `topology`, `negotiator`, `oblivious`,
//!   `workload`, `metrics`, `scenario`, plus the root crate's `src/`,
//!   `tests/` and `examples/`: everything whose behaviour can reach a
//!   report. All determinism rules apply.
//! * **Infra** — `bench`, `service`, `lint`: the harness around the
//!   engine. May iterate hash maps (D001 off) and read the wall clock
//!   (D002 off); threading and ambient randomness rules still apply.
//!
//! Vendored stand-ins (`vendor/`) and lint test fixtures are not scanned.

pub mod lexer;
pub mod rules;

pub use rules::{Finding, Rule, RuleSet};

use metrics::json::Json;
use std::fs;
use std::path::{Path, PathBuf};

/// Which policy zone a file belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Zone {
    /// Deterministic simulation code: all rules apply.
    Engine,
    /// Harness code around the engine: D001/D002 relaxed.
    Infra,
}

const ENGINE_CRATES: &[&str] = &[
    "sim",
    "topology",
    "negotiator",
    "oblivious",
    "workload",
    "metrics",
    "scenario",
];

const INFRA_CRATES: &[&str] = &["bench", "service", "lint"];

/// The zone for a workspace-relative path (forward slashes), or `None`
/// for files outside the policy (vendored code, fixtures).
pub fn zone_of(rel: &str) -> Option<Zone> {
    if rel.contains("/fixtures/") || rel.starts_with("vendor/") || rel.starts_with("target/") {
        return None;
    }
    if let Some(rest) = rel.strip_prefix("crates/") {
        let krate = rest.split('/').next().unwrap_or("");
        if ENGINE_CRATES.contains(&krate) {
            return Some(Zone::Engine);
        }
        if INFRA_CRATES.contains(&krate) {
            return Some(Zone::Infra);
        }
        return None;
    }
    // The root crate: src/, tests/, examples/ are engine surface (they
    // feed or assert golden reports).
    if rel.starts_with("src/") || rel.starts_with("tests/") || rel.starts_with("examples/") {
        return Some(Zone::Engine);
    }
    None
}

/// The rule gates for a workspace-relative path.
pub fn rules_for(rel: &str, zone: Zone) -> RuleSet {
    let krate = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("");
    RuleSet {
        d001: zone == Zone::Engine,
        // Wall clock is the *job* of the timing harness and the daemon.
        d002: !matches!(krate, "bench" | "service"),
        // sim::pool (across runs) and sim::shard (within a run) are the
        // sanctioned homes for threads and channels.
        d003: !matches!(rel, "crates/sim/src/pool.rs" | "crates/sim/src/shard.rs"),
    }
}

/// Scan one file's source text under the policy for `rel`.
pub fn scan_file(rel: &str, src: &str) -> Vec<Finding> {
    match zone_of(rel) {
        Some(zone) => rules::scan_source(rel, src, rules_for(rel, zone)),
        None => Vec::new(),
    }
}

/// Everything `scan_workspace` learned: the findings plus the scan's
/// extent, so reports can show coverage.
#[derive(Debug)]
pub struct ScanReport {
    /// All findings, sorted by (file, line, column, rule).
    pub findings: Vec<Finding>,
    /// Workspace-relative paths scanned, sorted.
    pub files: Vec<String>,
}

/// Scan every policed `.rs` file under `root` (a workspace checkout).
/// Deterministic: files are visited in sorted path order, so two runs —
/// or two machines — produce byte-identical reports.
pub fn scan_workspace(root: &Path) -> Result<ScanReport, String> {
    let mut paths = Vec::new();
    walk(root, root, &mut paths)?;
    paths.sort();
    let mut findings = Vec::new();
    let mut files = Vec::new();
    for rel in paths {
        if zone_of(&rel).is_none() {
            continue;
        }
        let src = fs::read_to_string(root.join(&rel)).map_err(|e| format!("{rel}: {e}"))?;
        findings.extend(scan_file(&rel, &src));
        files.push(rel);
    }
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.column, a.rule).cmp(&(&b.file, b.line, b.column, b.rule))
    });
    Ok(ScanReport { findings, files })
}

/// Directories never worth descending into.
const SKIP_DIRS: &[&str] = &[".git", "target", "vendor", "results", "node_modules"];

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let path: PathBuf = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| e.to_string())?
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Human-readable report, one finding per line in compiler style:
/// `file:line:column: RULE message` with an indented `hint:` line.
pub fn render_text(report: &ScanReport) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&format!(
            "{}:{}:{}: {} {}\n    hint: {}\n",
            f.file,
            f.line,
            f.column,
            f.rule.id(),
            f.message,
            f.rule.hint()
        ));
    }
    out.push_str(&format!(
        "{} finding{} across {} files\n",
        report.findings.len(),
        if report.findings.len() == 1 { "" } else { "s" },
        report.files.len()
    ));
    out
}

/// Machine-readable report (`paper lint --json`). Schema:
///
/// ```json
/// {
///   "schema_version": 1,
///   "files_scanned": 103,
///   "findings": [
///     {"file": "crates/x/src/a.rs", "line": 3, "column": 9,
///      "rule": "D001", "message": "...", "hint": "..."}
///   ]
/// }
/// ```
pub fn render_json(report: &ScanReport) -> Json {
    let mut doc = Json::object();
    doc.push("schema_version", 1u64)
        .push("files_scanned", report.files.len());
    let findings = report
        .findings
        .iter()
        .map(|f| {
            let mut o = Json::object();
            o.push("file", f.file.as_str())
                .push("line", f.line)
                .push("column", f.column)
                .push("rule", f.rule.id())
                .push("message", f.message.as_str())
                .push("hint", f.rule.hint());
            o
        })
        .collect();
    doc.push("findings", Json::Arr(findings));
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zones_follow_the_policy_table() {
        assert_eq!(zone_of("crates/sim/src/time.rs"), Some(Zone::Engine));
        assert_eq!(zone_of("crates/negotiator/src/sim.rs"), Some(Zone::Engine));
        assert_eq!(zone_of("crates/bench/src/sweep.rs"), Some(Zone::Infra));
        assert_eq!(zone_of("crates/service/src/jobs.rs"), Some(Zone::Infra));
        assert_eq!(zone_of("tests/golden_report.rs"), Some(Zone::Engine));
        assert_eq!(zone_of("src/lib.rs"), Some(Zone::Engine));
        assert_eq!(zone_of("vendor/proptest/src/lib.rs"), None);
        assert_eq!(zone_of("crates/lint/tests/fixtures/d001.rs"), None);
    }

    #[test]
    fn infra_relaxes_d001_and_harness_crates_relax_d002() {
        let engine = rules_for("crates/sim/src/time.rs", Zone::Engine);
        assert!(engine.d001 && engine.d002 && engine.d003);
        let bench = rules_for("crates/bench/src/timing.rs", Zone::Infra);
        assert!(!bench.d001 && !bench.d002 && bench.d003);
        let lint = rules_for("crates/lint/src/lib.rs", Zone::Infra);
        assert!(!lint.d001 && lint.d002 && lint.d003);
        let pool = rules_for("crates/sim/src/pool.rs", Zone::Engine);
        assert!(!pool.d003, "sim::pool owns the cross-run threads");
        let shard = rules_for("crates/sim/src/shard.rs", Zone::Engine);
        assert!(!shard.d003, "sim::shard owns the intra-run threads");
        let parallel = rules_for("crates/negotiator/src/sim/parallel.rs", Zone::Engine);
        assert!(
            parallel.d003,
            "engine shard consumers must go through sim::shard"
        );
    }

    #[test]
    fn d003_zone_extension_gates_by_path_not_content() {
        // The same threading tokens are sanctioned inside sim::shard and a
        // finding everywhere else — including the engine module that
        // *consumes* the shard API.
        let src = "let h = std::thread::spawn(f);\nuse std::sync::mpsc;\n";
        assert!(
            scan_file("crates/sim/src/shard.rs", src).is_empty(),
            "sim::shard is a sanctioned threading zone"
        );
        let findings = scan_file("crates/negotiator/src/sim/parallel.rs", src);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().all(|f| f.rule == Rule::D003));
    }

    #[test]
    fn scan_file_skips_unpoliced_paths() {
        let src = "let m = HashMap::new();\n";
        assert!(scan_file("vendor/proptest/src/lib.rs", src).is_empty());
        assert_eq!(scan_file("crates/sim/src/x.rs", src).len(), 1);
    }

    #[test]
    fn json_report_shape() {
        let report = ScanReport {
            findings: scan_file("crates/sim/src/x.rs", "let m = HashMap::new();\n"),
            files: vec!["crates/sim/src/x.rs".to_string()],
        };
        let doc = render_json(&report);
        assert_eq!(doc.get("schema_version").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("files_scanned").unwrap().as_u64(), Some(1));
        let f = &doc.get("findings").unwrap().as_array().unwrap()[0];
        assert_eq!(f.get("rule").unwrap().as_str(), Some("D001"));
        assert_eq!(f.get("line").unwrap().as_u64(), Some(1));
        assert_eq!(f.get("column").unwrap().as_u64(), Some(9));
        assert!(f.get("hint").unwrap().as_str().unwrap().contains("BTree"));
        let text = render_text(&report);
        assert!(text.contains("crates/sim/src/x.rs:1:9: D001"), "{text}");
    }
}
