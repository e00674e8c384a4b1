//! Pins every validation error `scenario::spec` can render.
//!
//! `fixtures/spec_errors.txt` holds one malformed scenario per error site
//! in `crates/scenario/src/spec.rs`, each followed by the exact
//! `line N, column M: message` it must produce. A refactor of the
//! validator that moves a position or rewords a message fails here; a
//! deliberate rewording edits the fixture's `>>>` line in the same change.
//!
//! Format: a case is a `### <title>` line, the scenario text, and one
//! `>>> <expected error>` line. Lines before the first case are comments.

use scenario::parse_scenario;

const FIXTURE: &str = include_str!("fixtures/spec_errors.txt");

struct Case<'a> {
    title: &'a str,
    text: String,
    expected: &'a str,
}

fn cases() -> Vec<Case<'static>> {
    let mut out = Vec::new();
    for block in FIXTURE.split("\n### ").skip(1) {
        let (title, rest) = block.split_once('\n').expect("a title line");
        let (text, expected) = rest.rsplit_once("\n>>> ").expect("a >>> line");
        out.push(Case {
            title,
            text: format!("{text}\n"),
            expected: expected.trim_end_matches('\n'),
        });
    }
    out
}

#[test]
fn every_error_site_renders_the_recorded_message() {
    let cases = cases();
    assert!(cases.len() >= 75, "only {} cases parsed", cases.len());
    let mut blessed = String::from(FIXTURE.split("\n### ").next().unwrap());
    let mut wrong = Vec::new();
    for case in &cases {
        let got = match parse_scenario(&case.text) {
            Ok(_) => "<parsed without error>".to_string(),
            Err(e) => e,
        };
        blessed.push_str(&format!("\n### {}\n{}>>> {got}\n", case.title, case.text));
        if got != case.expected {
            wrong.push(format!(
                "{}:\n  expected {}\n  got      {got}",
                case.title, case.expected
            ));
        }
    }
    if !wrong.is_empty() {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("spec_errors.txt");
        std::fs::write(&path, blessed.trim_end_matches('\n').to_string() + "\n").unwrap();
        panic!(
            "{} of {} cases moved (the fixture as rendered now is at {}):\n{}",
            wrong.len(),
            cases.len(),
            path.display(),
            wrong.join("\n")
        );
    }
}

#[test]
fn titles_are_unique() {
    let cases = cases();
    let mut titles: Vec<&str> = cases.iter().map(|c| c.title).collect();
    titles.sort_unstable();
    titles.dedup();
    assert_eq!(titles.len(), cases.len());
}
