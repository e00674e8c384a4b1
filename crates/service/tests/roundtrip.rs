//! End-to-end daemon tests against a live in-process server on an
//! ephemeral port — the acceptance criteria of the serving subsystem:
//!
//! * a submitted scenario's result is **byte-identical** to the offline
//!   `paper scenario <file> --json --no-timing` document;
//! * resubmitting is a cache hit served without simulation;
//! * concurrent submissions of distinct scenarios all complete with
//!   correct, uncorrupted results;
//! * identical in-flight submissions coalesce onto one job;
//! * `/metrics` counts each job by the terminal state it reached — a
//!   cancelled job as cancelled — before its client has the answer;
//! * a job's `/trace` is byte-identical to the offline traced run and its
//!   `/flows` to `paper trace query`'s rows, both derived again on each
//!   request from the job's submission; a job whose inputs changed since
//!   it ran answers `409`, never a trace of other inputs, and the daemon
//!   writes nothing under `--out` but the cache;
//! * graceful shutdown rejects new submissions with a clear error while
//!   draining everything already accepted.

use std::path::{Path, PathBuf};
// lint: allow(D003) tests drive the daemon with real concurrent clients by design
use std::sync::mpsc;
use std::time::{Duration, Instant};

use service::{client, Disposition, ServeConfig, Server};

fn scenario_text(name: &str, seed: u64) -> String {
    format!(
        r#"{{
  "name": "{name}",
  "topology": "parallel",
  "tors": 16, "ports": 4, "host_gbps": 200,
  "seed": {seed},
  "phases": [
    {{"label": "calm", "workload": "poisson", "load": 40, "epochs": [0, 30]}},
    {{"label": "storm", "workload": "poisson", "load": 85, "epochs": [30, 60]}}
  ],
  "events": [
    {{"at_epoch": 30, "action": "fail_random", "ratio": 0.1, "seed": 9}},
    {{"at_epoch": 45, "action": "repair_links"}}
  ]
}}"#
    )
}

/// The offline ground truth: what `paper scenario <file> --json
/// --no-timing` would write for this text.
fn offline_document(text: &str) -> String {
    let compiled =
        bench::scenario::load_str(text, Path::new("<test>")).expect("test scenario is valid");
    let report = bench::scenario::run(&compiled, 2, 1);
    bench::scenario::deterministic_document(&report)
}

/// The offline traced run's NDJSON: what `paper scenario <file> --trace`
/// writes for this text.
fn offline_trace(text: &str) -> String {
    offline_trace_in(text, Path::new("."), None)
}

/// [`offline_trace`] for a scenario file in `dir` (which anchors its
/// relative trace paths), at ring capacity `capacity`.
fn offline_trace_in(text: &str, dir: &Path, capacity: Option<usize>) -> String {
    let compiled =
        bench::scenario::load_str(text, &dir.join("<test>")).expect("test scenario is valid");
    bench::scenario::execute_traced(&compiled, None, capacity).1
}

fn test_out(tag: &str) -> PathBuf {
    let out = std::env::temp_dir().join(format!("nego-service-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    out
}

fn start_server(tag: &str, jobs: usize) -> (Server, String, PathBuf) {
    let out = test_out(tag);
    let server = start_on(&out, jobs);
    let addr = server.addr().to_string();
    (server, addr, out)
}

fn start_on(out: &Path, jobs: usize) -> Server {
    start_with(out, jobs, None)
}

fn start_with(out: &Path, jobs: usize, trace_capacity: Option<usize>) -> Server {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs,
        out: out.to_path_buf(),
        scenarios_dir: out.join("scenarios"),
        trace_capacity,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port")
}

/// `GET path`: the status and body.
fn get(addr: &str, path: &str) -> (u16, String) {
    client::request_json(addr, "GET", path, b"").unwrap()
}

/// `POST /jobs?wait=1` with `text`; the result document.
fn submit_and_wait(addr: &str, text: &str) -> String {
    let (status, body) =
        client::request_json(addr, "POST", "/jobs?wait=1", text.as_bytes()).unwrap();
    assert_eq!(status, 200, "{body}");
    body
}

#[test]
fn submit_is_byte_identical_then_cache_hits() {
    let (_server, addr, out) = start_server("identity", 2);
    let text = scenario_text("identity", 11);
    let expected = offline_document(&text);

    let mut phase_events = 0usize;
    let first = client::submit(&addr, &text, 0, |event| {
        if event.get("event").and_then(metrics::Json::as_str) == Some("phase") {
            phase_events += 1;
        }
    })
    .expect("first submission");
    assert_eq!(first.disposition, Disposition::Simulated);
    assert_eq!(
        first.document, expected,
        "daemon result must be byte-identical"
    );
    assert_eq!(
        phase_events, 4,
        "two engines x two phases streamed live progress"
    );
    // The job went through every profiled stage, compile and render
    // included: `/metrics` must not export them as zeros.
    let (status, exposition) = client::request_json(&addr, "GET", "/metrics", b"").unwrap();
    assert_eq!(status, 200);
    for stage in ["compile", "execute", "render"] {
        for family in ["paper_stage_calls_total", "paper_stage_seconds_total"] {
            let prefix = format!("{family}{{stage=\"{stage}\"}} ");
            let value: f64 = exposition
                .lines()
                .find_map(|l| l.strip_prefix(prefix.as_str()))
                .unwrap_or_else(|| panic!("{prefix}missing:\n{exposition}"))
                .parse()
                .expect("a number");
            assert!(value > 0.0, "{prefix}{value} after one simulated job");
        }
    }

    // Resubmission: served from the cache, same bytes, no progress
    // events (nothing simulates).
    let mut events_on_hit = 0usize;
    let second = client::submit(&addr, &text, 0, |_| events_on_hit += 1).expect("resubmission");
    assert_eq!(second.disposition, Disposition::CacheHit);
    assert_eq!(second.document, expected);
    assert_eq!(events_on_hit, 1, "just the 'cached' notice");
    // The cache entry is on disk where the CLI would look for it.
    let compiled = bench::scenario::load_str(&text, Path::new("<test>")).unwrap();
    let entry = bench::cache::ResultCache::new(out.join("cache"))
        .lookup(compiled.content_hash())
        .expect("entry persisted");
    assert_eq!(entry.document, expected);
    let _ = std::fs::remove_dir_all(&out);
}

/// The hit path on a fabric where the flows are worth not making: a
/// cached submission is answered from parse → compile → hash → lookup,
/// with the scenario's trace never synthesized, and the bytes are the
/// ones the miss produced.
#[test]
fn blocking_resubmission_of_a_larger_fabric_is_a_cache_hit() {
    let (_server, addr, out) = start_server("wait-hit", 1);
    let text = r#"{
  "name": "wait-hit", "topology": "parallel", "tors": 64, "ports": 8, "seed": 5,
  "phases": [
    {"workload": "poisson", "load": 30, "epochs": [0, 10]},
    {"workload": "all_to_all", "flow_bytes": 1000, "epochs": [10, 20]}
  ]
}"#;
    let expected = offline_document(text);
    let submit = || client::request_json(&addr, "POST", "/jobs?wait=1", text.as_bytes()).unwrap();
    let cache_counters = || {
        let (_, exposition) = client::request_json(&addr, "GET", "/metrics", b"").unwrap();
        ["paper_cache_hits_total ", "paper_cache_misses_total "].map(|name| {
            exposition
                .lines()
                .find_map(|l| l.strip_prefix(name))
                .unwrap_or_else(|| panic!("{name}missing:\n{exposition}"))
                .to_string()
        })
    };
    let (status, first) = submit();
    assert_eq!(status, 200, "{first}");
    assert_eq!(first, expected, "daemon result must be byte-identical");
    assert_eq!(
        cache_counters(),
        ["0", "1"],
        "[hits, misses] after the miss"
    );
    let (status, second) = submit();
    assert_eq!(status, 200, "{second}");
    assert_eq!(second, expected, "the hit serves the miss's bytes");
    assert_eq!(cache_counters(), ["1", "1"], "[hits, misses] after the hit");
    let _ = std::fs::remove_dir_all(&out);
}

/// The daemon's trace contract: a served job's `/trace` is the offline
/// traced run's bytes and its `/flows` is `paper trace query --top-fct N
/// --json` over them, both derived again on each request.
#[test]
fn served_trace_and_flows_equal_the_offline_ones() {
    let (_server, addr, out) = start_server("trace", 1);
    let text = scenario_text("traced", 21);
    let trace = offline_trace(&text);
    assert_eq!(submit_and_wait(&addr, &text), offline_document(&text));
    let (status, served) = get(&addr, "/jobs/1/trace");
    assert_eq!(status, 200, "{served}");
    assert_eq!(served, trace, "daemon trace must be byte-identical");
    let (status, again) = get(&addr, "/jobs/1/trace");
    assert_eq!(status, 200, "{again}");
    assert_eq!(again, served, "a second fetch re-runs to the same bytes");
    let (status, flows) = get(&addr, "/jobs/1/flows?top=5");
    assert_eq!(status, 200, "{flows}");
    let expected = bench::traceq::flows_json(&trace, 5).expect("offline forensics");
    assert_eq!(flows, format!("{}\n", expected.render()));
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn servers_sharing_an_out_directory_serve_their_own_traces_and_write_only_the_cache() {
    let out = test_out("shared-out");
    let mut servers = [start_on(&out, 1), start_on(&out, 1)];
    let texts = [scenario_text("left", 31), scenario_text("right", 32)];
    for (server, text) in servers.iter().zip(&texts) {
        submit_and_wait(&server.addr().to_string(), text);
    }
    // Both jobs are id 1, each its own server's.
    for (server, text) in servers.iter().zip(&texts) {
        let (status, served) = get(&server.addr().to_string(), "/jobs/1/trace");
        assert_eq!(status, 200, "{served}");
        assert_eq!(served, offline_trace(text));
    }
    let entries = || -> Vec<_> {
        std::fs::read_dir(&out)
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .collect()
    };
    assert_eq!(entries(), ["cache"], "only the shared cache is in --out");
    for server in &mut servers {
        server.shutdown();
    }
    assert_eq!(entries(), ["cache"], "and only it after shutdown");
    let _ = std::fs::remove_dir_all(&out);
}

/// A job whose replayed trace file was rewritten after it ran: `/trace`
/// and `/flows` refuse with a `409` rather than serve a trace of inputs
/// the job never saw, while a job submitted on the file as it now is
/// serves the offline trace.
#[test]
fn a_changed_input_is_refused_not_re_run() {
    let (_server, addr, out) = start_server("changed-input", 1);
    let dir = out.join("scenarios");
    std::fs::create_dir_all(&dir).unwrap();
    let tsv = dir.join("burst.tsv");
    std::fs::write(&tsv, "0\t4\t500000\t0\n1\t5\t20000\t1000\n").unwrap();
    let text = r#"{
  "name": "replayed", "topology": "parallel", "tors": 16, "ports": 4, "seed": 3,
  "phases": [{"workload": "trace", "path": "burst.tsv", "epochs": [0, 40]}]
}"#;
    let document = submit_and_wait(&addr, text);
    std::fs::write(&tsv, "0\t4\t900000\t0\n2\t6\t20000\t1000\n").unwrap();
    for path in ["/jobs/1/trace", "/jobs/1/flows"] {
        let (status, body) = get(&addr, path);
        assert_eq!(status, 409, "{path}: {body}");
        assert!(
            body.contains("inputs changed since job 1 ran"),
            "{path}: {body}"
        );
    }
    assert_eq!(get(&addr, "/jobs/1/result"), (200, document));
    // The same text on the rewritten file is another recipe: job 2.
    submit_and_wait(&addr, text);
    let (status, served) = get(&addr, "/jobs/2/trace");
    assert_eq!(status, 200, "{served}");
    assert_eq!(served, offline_trace_in(text, &dir, None));
    let _ = std::fs::remove_dir_all(&out);
}

/// `paper_trace_dropped_total` adds a trace's ring-overflow drops (the
/// sum of its `trace_end` footers' `dropped`) each time the daemon renders
/// one: a `/trace` and a `/flows` of an overflowing job count it twice.
#[test]
fn the_drop_counter_adds_each_rendered_traces_footers() {
    let out = test_out("dropped");
    let server = start_with(&out, 1, Some(1024));
    let addr = server.addr().to_string();
    let text = scenario_text("overflowing", 51);
    let trace = offline_trace_in(&text, Path::new("."), Some(1024));
    let dropped = bench::traceq::dropped_total(&trace);
    assert!(dropped > 0, "a 1024-event ring must overflow");
    submit_and_wait(&addr, &text);
    let scrape = || metric(&get(&addr, "/metrics").1, "paper_trace_dropped_total");
    assert_eq!(scrape(), 0.0, "an untraced job drops nothing");
    let (status, served) = get(&addr, "/jobs/1/trace");
    assert_eq!((status, served == trace), (200, true));
    assert_eq!(get(&addr, "/jobs/1/flows").0, 200);
    assert_eq!(scrape(), (2 * dropped) as f64);
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn concurrent_distinct_submissions_all_complete_correctly() {
    let (_server, addr, out) = start_server("concurrent", 4);
    let texts: Vec<String> = (0..4)
        .map(|i| scenario_text(&format!("concurrent{i}"), 100 + i as u64))
        .collect();
    let handles: Vec<_> = texts
        .iter()
        .map(|text| {
            let addr = addr.clone();
            let text = text.clone();
            // lint: allow(D003) concurrent submitters are the scenario under test
            std::thread::spawn(move || client::submit(&addr, &text, 0, |_| {}))
        })
        .collect();
    let outcomes: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("no panic").expect("submission succeeds"))
        .collect();
    for (text, outcome) in texts.iter().zip(&outcomes) {
        assert_eq!(outcome.disposition, Disposition::Simulated);
        assert_eq!(
            outcome.document,
            offline_document(text),
            "concurrent results must be correct and uncorrupted"
        );
    }
    // All four were distinct content hashes: four distinct documents.
    let mut docs: Vec<&str> = outcomes.iter().map(|o| o.document.as_str()).collect();
    docs.sort();
    docs.dedup();
    assert_eq!(docs.len(), 4);
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn identical_inflight_submissions_coalesce() {
    let (_server, addr, out) = start_server("coalesce", 2);
    let text = scenario_text("coalesce", 77);
    // First submission: wait until the daemon confirms it queued (the
    // opening event) so the twin below is guaranteed to find it either
    // in flight or already cached — never simulate twice.
    // lint: allow(D003) channel sequences the racing submitters this test needs
    let (queued_tx, queued_rx) = mpsc::channel::<()>();
    let background = {
        let (addr, text) = (addr.clone(), text.clone());
        // lint: allow(D003) concurrent submitters are the scenario under test
        std::thread::spawn(move || {
            let mut first_event = Some(queued_tx);
            client::submit(&addr, &text, 0, |_| {
                if let Some(tx) = first_event.take() {
                    let _ = tx.send(());
                }
            })
        })
    };
    queued_rx.recv().expect("first submission queued");
    let twin = client::submit(&addr, &text, 0, |_| {}).expect("twin submission");
    let first = background
        .join()
        .expect("no panic")
        .expect("first submission");
    assert_eq!(first.disposition, Disposition::Simulated);
    assert_ne!(
        twin.disposition,
        Disposition::Simulated,
        "the twin must coalesce or hit the cache, never simulate again"
    );
    assert_eq!(twin.document, first.document);
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn status_result_and_cancel_endpoints() {
    let (_server, addr, out) = start_server("endpoints", 1);
    // Occupy the single worker with a heavier scenario so the next job
    // stays queued long enough to cancel.
    let heavy = scenario_text("heavy", 1).replace("[30, 60]", "[30, 400]");
    let victim = scenario_text("victim", 2);
    let background = {
        let (addr, heavy) = (addr.clone(), heavy.clone());
        // lint: allow(D003) concurrent submitters are the scenario under test
        std::thread::spawn(move || client::submit(&addr, &heavy, 5, |_| {}))
    };
    // Queue the victim without streaming: 202 + a job id.
    let (status, body) =
        client::request_json(&addr, "POST", "/jobs", victim.as_bytes()).expect("submit victim");
    assert_eq!(status, 202, "{body}");
    let doc = metrics::Json::parse(body.trim()).expect("valid admission body");
    let id = doc
        .get("job")
        .and_then(metrics::Json::as_u64)
        .expect("job id");
    let location = format!("/jobs/{id}");
    // Status endpoint knows it.
    let (status, body) = client::request_json(&addr, "GET", &location, b"").unwrap();
    assert_eq!(status, 200);
    let parsed = metrics::Json::parse(body.trim()).unwrap();
    assert_eq!(parsed.get("job").and_then(metrics::Json::as_u64), Some(id));
    // Cancel it (or observe it finished if the worker got to it first —
    // scheduling is not guaranteed, but both outcomes must be coherent).
    let (status, body) = client::request_json(&addr, "DELETE", &location, b"").unwrap();
    match status {
        200 => {
            let (status, body) = client::request_json(&addr, "GET", &location, b"").unwrap();
            assert_eq!(status, 200);
            assert!(body.contains("\"cancelled\""), "{body}");
            // No result for a cancelled job.
            let (status, _) =
                client::request_json(&addr, "GET", &format!("{location}/result"), b"").unwrap();
            assert_eq!(status, 409);
        }
        409 => assert!(body.contains("only queued jobs"), "{body}"),
        other => panic!("unexpected cancel status {other}: {body}"),
    }
    // Unknown job ids are clean 404s.
    let (status, _) = client::request_json(&addr, "GET", "/jobs/99999", b"").unwrap();
    assert_eq!(status, 404);
    background
        .join()
        .expect("no panic")
        .expect("heavy submission");
    let _ = std::fs::remove_dir_all(&out);
}

/// An unlabelled family's value in one `/metrics` exposition.
fn metric(exposition: &str, name: &str) -> f64 {
    exposition
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("{name} missing:\n{exposition}"))
        .parse()
        .expect("a number")
}

#[test]
fn metrics_count_a_cancelled_job_as_cancelled() {
    let (_server, addr, out) = start_server("cancel-count", 1);
    // ~0.25 s in release, far longer than the victim's admission and
    // `DELETE` take, so the cancellation finds the victim still queued.
    let blocker = r#"{"name": "blocker", "topology": "parallel", "tors": 128, "ports": 8,
      "seed": 1, "phases": [{"workload": "poisson", "load": 100, "epochs": [0, 100]}]}"#;
    // lint: allow(D003) channel sequences the blocker ahead of the victim
    let (queued_tx, queued_rx) = mpsc::channel::<()>();
    let background = {
        let addr = addr.clone();
        // lint: allow(D003) concurrent submitters are the scenario under test
        std::thread::spawn(move || {
            let mut first_event = Some(queued_tx);
            client::submit(&addr, blocker, 0, |_| {
                if let Some(tx) = first_event.take() {
                    let _ = tx.send(());
                }
            })
        })
    };
    queued_rx.recv().expect("blocker queued");
    let victim = scenario_text("victim", 2);
    let (status, body) =
        client::request_json(&addr, "POST", "/jobs", victim.as_bytes()).expect("submit victim");
    assert_eq!(status, 202, "{body}");
    let location = metrics::Json::parse(body.trim())
        .ok()
        .and_then(|doc| doc.get("job").and_then(metrics::Json::as_u64))
        .map(|id| format!("/jobs/{id}"))
        .expect("job id");
    let (cancel, body) = client::request_json(&addr, "DELETE", &location, b"").unwrap();
    let expected = match cancel {
        200 => (1.0, 1.0),
        409 => (0.0, 2.0),
        other => panic!("unexpected cancel status {other}: {body}"),
    };
    let blocked = background.join().expect("no panic").expect("blocker");
    assert_eq!(blocked.disposition, Disposition::Simulated);
    if cancel == 409 {
        // The `DELETE` missed, so the victim runs after the blocker.
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let (_, body) = client::request_json(&addr, "GET", &location, b"").unwrap();
            if body.contains("\"done\"") {
                break;
            }
            assert!(Instant::now() < deadline, "victim never finished: {body}");
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    let (_, exposition) = client::request_json(&addr, "GET", "/metrics", b"").unwrap();
    let value = |name: &str| metric(&exposition, name);
    assert_eq!(
        (
            value("paper_jobs_cancelled_total"),
            value("paper_jobs_completed_total")
        ),
        expected,
        "[cancelled, completed] after a {cancel} to the DELETE:\n{exposition}"
    );
    let terminal = value("paper_jobs_completed_total")
        + value("paper_jobs_failed_total")
        + value("paper_jobs_cancelled_total");
    assert_eq!(terminal, value("paper_jobs_admitted_total"));
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn a_waited_job_is_counted_before_its_client_has_the_answer() {
    let (_server, addr, out) = start_server("wait-count", 1);
    submit_and_wait(&addr, &scenario_text("counted", 4));
    // One scrape, no retry: the job was counted before its follower woke.
    let (_, exposition) = client::request_json(&addr, "GET", "/metrics", b"").unwrap();
    for (name, expected) in [
        ("paper_jobs_completed_total", 1.0),
        ("paper_jobs_running", 0.0),
        ("paper_jobs_queued", 0.0),
    ] {
        assert_eq!(metric(&exposition, name), expected, "{name}:\n{exposition}");
    }
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn graceful_shutdown_rejects_new_work_and_drains() {
    let (mut server, addr, out) = start_server("shutdown", 2);
    let text = scenario_text("drainme", 5);
    let expected = offline_document(&text);
    // healthz reports ok before the drain.
    let (status, body) = client::request_json(&addr, "GET", "/healthz", b"").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\""), "{body}");
    // Begin the drain over the wire.
    let (status, body) = client::request_json(&addr, "POST", "/shutdown", b"").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("draining"), "{body}");
    // New submissions get the clear rejection, not a hang or a reset.
    let err = client::submit(&addr, &text, 0, |_| {}).expect_err("must be rejected");
    assert!(err.contains("503"), "{err}");
    assert!(err.contains("shutting down"), "{err}");
    let (status, body) = client::request_json(&addr, "GET", "/healthz", b"").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("draining"), "{body}");
    // Complete the shutdown; afterwards the port no longer answers.
    server.shutdown();
    assert!(client::request_json(&addr, "GET", "/healthz", b"").is_err());
    // A fresh daemon on the same directories picks the cache right up:
    // run offline first, then serve — the submission is a cache hit.
    let (_server2, addr2, _) = {
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs: 2,
            out: out.clone(),
            scenarios_dir: out.join("scenarios"),
            ..ServeConfig::default()
        })
        .expect("rebind");
        let addr = server.addr().to_string();
        (server, addr, ())
    };
    let compiled = bench::scenario::load_str(&text, Path::new("<test>")).unwrap();
    let report = bench::scenario::run(&compiled, 2, 1);
    bench::cache::ResultCache::new(out.join("cache"))
        .store(
            compiled.content_hash(),
            &bench::cache::CacheEntry {
                scenario: compiled.spec.name.clone(),
                rendered: report.rendered.clone(),
                document: bench::scenario::deterministic_document(&report),
            },
        )
        .expect("CLI-side store");
    let outcome = client::submit(&addr2, &text, 0, |_| {}).expect("served from CLI-written cache");
    assert_eq!(outcome.disposition, Disposition::CacheHit);
    assert_eq!(outcome.document, expected);
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn invalid_submissions_fail_fast_with_positions() {
    let (_server, addr, out) = start_server("invalid", 1);
    // A syntax error names line:column; nothing is queued.
    let err = client::submit(&addr, "{\n  \"name\": oops\n}", 0, |_| {}).expect_err("must fail");
    assert!(err.contains("400"), "{err}");
    assert!(err.contains("line 2"), "{err}");
    // A semantic error (unknown key) too.
    let bad = scenario_text("ok-name", 3).replace("\"topology\"", "\"topolojy\"");
    let err = client::submit(&addr, &bad, 0, |_| {}).expect_err("must fail");
    assert!(err.contains("unknown key"), "{err}");
    let (_, body) = client::request_json(&addr, "GET", "/healthz", b"").unwrap();
    assert!(body.contains("\"jobs\": 0"), "nothing queued: {body}");
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn scenarios_endpoint_lists_the_library() {
    let (_server, addr, out) = start_server("library", 1);
    let dir = out.join("scenarios");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("one.json"), scenario_text("one", 1)).unwrap();
    let (status, body) = client::request_json(&addr, "GET", "/scenarios", b"").unwrap();
    assert_eq!(status, 200);
    let doc = metrics::Json::parse(body.trim()).unwrap();
    let scenarios = doc.get("scenarios").unwrap().as_array().unwrap();
    assert_eq!(scenarios.len(), 1);
    assert_eq!(
        scenarios[0].get("id").and_then(metrics::Json::as_str),
        Some("one")
    );
    assert_eq!(
        scenarios[0].get("epochs").and_then(metrics::Json::as_u64),
        Some(60)
    );
    let _ = std::fs::remove_dir_all(&out);
}
