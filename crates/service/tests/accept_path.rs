//! The accept path against a live in-process server: no poll period
//! under a request, a shutdown that wakes the blocked `accept()` however
//! the listener was bound, and socket deadlines that keep a silent peer
//! from pinning a handler thread (and with it `Server::shutdown`'s join).

use std::io::Read;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use service::server::READ_TIMEOUT;
use service::{client, ServeConfig, Server};

fn out_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("nego-accept-test-{tag}-{}", std::process::id()))
}

fn start_server(tag: &str, addr: &str) -> Server {
    let out = out_dir(tag);
    Server::start(ServeConfig {
        addr: addr.to_string(),
        jobs: 1,
        scenarios_dir: out.join("scenarios"),
        out,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port")
}

/// Where a client on this host reaches `server`, whatever it bound.
fn loopback(server: &Server) -> String {
    format!("127.0.0.1:{}", server.addr().port())
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let value = f();
    (value, t.elapsed())
}

#[test]
fn a_request_with_no_job_behind_it_has_no_floor() {
    let server = start_server("floor", "127.0.0.1:0");
    let addr = loopback(&server);
    let mut rtts: Vec<Duration> = (0..50)
        .map(|_| {
            let ((status, _), rtt) =
                timed(|| client::request_json(&addr, "GET", "/healthz", b"").expect("healthz"));
            assert_eq!(status, 200);
            rtt
        })
        .collect();
    rtts.sort();
    let median = rtts[rtts.len() / 2];
    // A polled listener put half its period (10 ms of 20) under this.
    assert!(
        median < Duration::from_millis(5),
        "median /healthz round trip {median:?} — is the accept loop polling again?"
    );
    drop(server);
    let _ = std::fs::remove_dir_all(out_dir("floor"));
}

#[test]
fn shutdown_with_no_traffic_is_prompt_and_idempotent() {
    let mut server = start_server("idle", "127.0.0.1:0");
    let addr = loopback(&server);
    let ((), took) = timed(|| server.shutdown());
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
    assert!(client::request_json(&addr, "GET", "/healthz", b"").is_err());
    let ((), again) = timed(|| server.shutdown());
    assert!(
        again < Duration::from_secs(1),
        "second shutdown took {again:?}"
    );
    let _ = std::fs::remove_dir_all(out_dir("idle"));
}

#[test]
fn shutdown_wakes_a_listener_bound_to_every_interface() {
    // 0.0.0.0 is not an address to connect to: the wake-up must go to
    // loopback on the bound port.
    let mut server = start_server("any", "0.0.0.0:0");
    let (status, _) = client::request_json(&loopback(&server), "GET", "/healthz", b"").unwrap();
    assert_eq!(status, 200);
    let ((), took) = timed(|| server.shutdown());
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
    let _ = std::fs::remove_dir_all(out_dir("any"));
}

#[test]
fn a_silent_connection_gets_408_and_does_not_wedge_shutdown() {
    let mut server = start_server("silent", "127.0.0.1:0");
    let addr = loopback(&server);
    let mut silent = TcpStream::connect(&addr).expect("connect");
    // Make sure the daemon has accepted it (accepts are in order) before
    // the shutdown below closes the listener.
    let (status, _) = client::request_json(&addr, "GET", "/healthz", b"").unwrap();
    assert_eq!(status, 200);
    // Shutdown joins the handler, which gives the peer up at its deadline.
    let ((), took) = timed(|| server.shutdown());
    assert!(
        took < READ_TIMEOUT + Duration::from_secs(2),
        "shutdown took {took:?} with an idle peer connected"
    );
    let mut answer = String::new();
    silent
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    silent.read_to_string(&mut answer).expect("read the answer");
    assert!(answer.starts_with("HTTP/1.1 408 "), "{answer:?}");
    let _ = std::fs::remove_dir_all(out_dir("silent"));
}

#[test]
fn status_reports_wait_and_run_and_metrics_the_retained_bytes() {
    let server = start_server("timing", "127.0.0.1:0");
    let addr = loopback(&server);
    let scenario = r#"{
      "name": "timing", "topology": "parallel",
      "tors": 16, "ports": 4, "host_gbps": 200, "seed": 3,
      "phases": [{"label": "p", "workload": "poisson", "load": 40, "epochs": [0, 20]}]
    }"#;
    let (status, document) =
        client::request_json(&addr, "POST", "/jobs?wait=1", scenario.as_bytes()).unwrap();
    assert_eq!(status, 200, "{document}");
    let (status, body) = client::request_json(&addr, "GET", "/jobs/1", b"").unwrap();
    assert_eq!(status, 200);
    let job = metrics::Json::parse(body.trim()).expect("status JSON");
    for key in ["wait_ms", "run_ms"] {
        let ms = job.get(key).and_then(metrics::Json::as_f64);
        assert!(ms.is_some_and(|ms| ms >= 0.0), "{key} in {body}");
        assert!(!document.contains(key), "{key} leaked into the document");
    }
    // The finished record is retained and charged at least its document.
    // (The worker retires the job just after waking its followers, so the
    // first scrape may come a moment early.)
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (_, exposition) = client::request_json(&addr, "GET", "/metrics", b"").unwrap();
        let value = |name: &str| -> f64 {
            exposition
                .lines()
                .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
                .unwrap_or_else(|| panic!("{name} missing:\n{exposition}"))
                .parse()
                .expect("a number")
        };
        assert_eq!(value("paper_accept_errors_total"), 0.0);
        if value("paper_jobs_retained") == 1.0 {
            assert!(value("paper_jobs_retained_bytes") > document.len() as f64);
            break;
        }
        assert!(Instant::now() < deadline, "never retained:\n{exposition}");
        std::thread::yield_now();
    }
    let _ = std::fs::remove_dir_all(out_dir("timing"));
}
