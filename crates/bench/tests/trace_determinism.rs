//! Flight-recorder determinism: the traced NDJSON for a scenario must be
//! byte-identical from one run to the next, and tracing must never reach
//! the result document, which equals the untraced `--jobs 2` batch's. This
//! is the same guarantee the result document already carries, extended to
//! the observability plane: `paper scenario --trace` on one machine and a
//! daemon trace on another must `cmp` equal. The causal flow-lifecycle span events ride the same discipline
//! (stamped from dirty *sets*, emitted in flow-id order), so the full
//! span timeline is pinned by the same byte comparison.
//!
//! Coverage: an injected-fault scenario (`gray_control_plane` — gray
//! control-plane drops, detector FP transitions), an adversarial one
//! (`greedy_tor`), and `ci_smoke`, which pins no `engines` list and so
//! runs *both* engines (negotiator + oblivious) through the recorder.
//! On top, `paper trace diff` self-tests: identical runs produce no
//! divergence, and a seed perturbation is pinned to its first divergent
//! event with the right coordinates.

use std::path::PathBuf;

use bench::scenario::{execute_traced, load};
use bench::traceq;

fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios")
        .canonicalize()
        .expect("workspace scenarios/ directory")
}

/// Trace one scenario twice, on fresh engines: the same bytes, and the
/// document of the untraced batch at `--jobs 2`.
fn assert_reproducible(file: &str) -> String {
    let compiled = load(&scenarios_dir().join(file)).expect("scenario compiles");
    let (report1, trace1) = execute_traced(&compiled, None, None);
    let (_, trace2) = execute_traced(&compiled, None, None);
    assert_eq!(
        trace1, trace2,
        "{file}: trace bytes differ between two runs"
    );
    let batch = bench::scenario::run(&compiled, 2, 1);
    assert_eq!(
        bench::scenario::deterministic_document(&report1),
        bench::scenario::deterministic_document(&batch),
        "{file}: the traced document differs from the --jobs 2 batch's"
    );
    trace1
}

/// The negotiator's full causal span vocabulary must appear: flows are
/// born, negotiate (REQUEST → GRANT → ACCEPT), move bytes, and complete.
fn assert_negotiator_spans(trace: &str, file: &str) {
    for kind in [
        "flow_born",
        "flow_request",
        "flow_grant",
        "flow_accept",
        "flow_first_tx",
        "flow_complete",
    ] {
        assert!(
            trace.contains(&format!("\"event\":\"{kind}\"")),
            "{file}: no {kind} span event in the trace"
        );
    }
}

#[test]
fn gray_control_plane_trace_is_reproducible() {
    let trace = assert_reproducible("gray_control_plane.json");
    assert!(trace.contains("\"event\":\"trace_start\""), "{trace}");
    assert!(trace.contains("\"event\":\"trace_end\""));
    // The gray phase drops control messages and flips the detector; both
    // event kinds must appear for the scenario to be exercising the
    // recorder at all.
    assert!(
        trace.contains("\"event\":\"control_drop\""),
        "gray failure must record control-message drops"
    );
    assert!(
        trace.contains("\"event\":\"detector\""),
        "gray failure must record detector FP/FN transitions"
    );
    assert!(trace.contains("\"event\":\"phase\""));
    assert_negotiator_spans(&trace, "gray_control_plane.json");
}

#[test]
fn greedy_tor_trace_is_reproducible() {
    let trace = assert_reproducible("greedy_tor.json");
    assert!(trace.contains("\"event\":\"sched\""));
    assert!(trace.contains("\"event\":\"phase\""));
    assert_negotiator_spans(&trace, "greedy_tor.json");
}

#[test]
fn both_engines_trace_is_reproducible() {
    // ci_smoke pins no engine list, so it runs negotiator AND oblivious;
    // the trace carries one section per engine, in engine order.
    let trace = assert_reproducible("ci_smoke.json");
    let starts = trace.matches("\"event\":\"trace_start\"").count();
    assert_eq!(starts, 2, "one section per engine:\n{trace}");
    assert!(trace.contains("\"system\":\"nego/parallel\""), "{trace}");
    assert!(
        trace.contains("\"system\":\"oblivious/parallel\""),
        "{trace}"
    );
    // ci_smoke injects link failures; the fault activations must be
    // visible in at least one engine's section.
    assert!(trace.contains("\"event\":\"fault\""), "{trace}");
    // The oblivious engine has no control plane: its section carries
    // born/first_tx/complete spans but never a negotiation milestone.
    let parsed = traceq::parse(&trace).expect("trace parses");
    let oblivious = parsed
        .sections
        .iter()
        .find(|s| s.system.starts_with("oblivious"))
        .expect("oblivious section");
    assert!(
        oblivious.events.iter().any(|e| e.kind == "flow_complete"),
        "oblivious flows must complete"
    );
    for absent in ["flow_request", "flow_grant", "flow_accept"] {
        assert!(
            oblivious.events.iter().all(|e| e.kind != absent),
            "oblivious engine has no control plane, found {absent}"
        );
    }
    // Every completed flow's milestones are causally ordered.
    for section in &parsed.sections {
        for row in traceq::flow_rows(section) {
            let (Some(born), Some(done)) = (row.born, row.complete) else {
                continue;
            };
            assert!(
                born <= done,
                "{}: flow {} born after done",
                section.system,
                row.flow
            );
            for epoch in [row.request, row.grant, row.accept, row.first_tx]
                .into_iter()
                .flatten()
            {
                assert!(
                    born <= epoch && epoch <= done,
                    "{}: flow {} milestone {epoch} outside [{born}, {done}]",
                    section.system,
                    row.flow
                );
            }
        }
    }
}

#[test]
fn trace_capacity_shapes_only_the_trace() {
    // A deliberately tiny ring (the CLI minimum) overflows on a real
    // scenario: drops are declared in the footer, the summary and
    // document stay byte-identical to the default-capacity run.
    let compiled = load(&scenarios_dir().join("greedy_tor.json")).expect("scenario compiles");
    let (full_report, full) = execute_traced(&compiled, None, None);
    let (small_report, small) = execute_traced(&compiled, None, Some(1024));
    assert_eq!(
        bench::scenario::deterministic_document(&full_report),
        bench::scenario::deterministic_document(&small_report),
        "ring capacity must never reach the result document"
    );
    assert_eq!(
        traceq::dropped_total(&full),
        0,
        "default ring must not overflow"
    );
    assert!(
        traceq::dropped_total(&small) > 0,
        "1Ki ring must overflow on greedy_tor:\n{}",
        small.lines().last().unwrap_or("")
    );
    assert!(
        small.contains("\"capacity\":1024"),
        "header declares the ring size"
    );
    // A capacity-limited trace is reproducible too.
    let (_, again) = execute_traced(&compiled, None, Some(1024));
    assert_eq!(small, again);
}

#[test]
fn diff_of_identical_runs_reports_no_divergence() {
    let compiled = load(&scenarios_dir().join("greedy_tor.json")).expect("scenario compiles");
    let (_, a) = execute_traced(&compiled, None, None);
    let (_, b) = execute_traced(&compiled, None, None);
    let outcome = traceq::diff("run1", &a, "run2", &b, 3);
    assert!(!outcome.divergent, "{}", outcome.report);
    assert!(outcome.report.contains("identical"), "{}", outcome.report);
}

#[test]
fn diff_pins_a_seed_perturbation_to_its_first_divergent_event() {
    // Perturb the workload seed: the traces share the header, then split
    // at the first event the changed workload reaches. The diff must
    // exit divergent and name that event with epoch + kind coordinates.
    let dir = scenarios_dir();
    let text = std::fs::read_to_string(dir.join("greedy_tor.json")).expect("scenario file");
    let a = load(&dir.join("greedy_tor.json")).expect("scenario compiles");
    let spec = bench::scenario::parse_scenario(&text).expect("parses");
    let perturbed = text.replace(
        &format!("\"seed\": {}", spec.seed),
        &format!("\"seed\": {}", spec.seed + 1),
    );
    assert_ne!(text, perturbed, "seed field must be present to perturb");
    let b = bench::scenario::compile(
        bench::scenario::parse_scenario(&perturbed).expect("parses"),
        &dir,
    )
    .expect("compiles");
    let (_, trace_a) = execute_traced(&a, None, None);
    let (_, trace_b) = execute_traced(&b, None, None);
    let outcome = traceq::diff("seed", &trace_a, "seed+1", &trace_b, 3);
    assert!(outcome.divergent, "seed change must diverge the trace");
    assert!(
        outcome.report.contains("first divergent event"),
        "{}",
        outcome.report
    );
    // The headline names the event: epoch + kind on both sides.
    assert!(
        outcome.report.contains("a = epoch ") && outcome.report.contains("b = epoch "),
        "{}",
        outcome.report
    );
    // Line-exact location: the named line index really is the first
    // difference between the two traces.
    let (la, lb): (Vec<&str>, Vec<&str>) = (trace_a.lines().collect(), trace_b.lines().collect());
    let first = (0..la.len().min(lb.len()))
        .find(|&i| la[i] != lb[i])
        .expect("traces differ");
    assert!(
        outcome
            .report
            .contains(&format!("diverge at line {}", first + 1)),
        "{}",
        outcome.report
    );
}
