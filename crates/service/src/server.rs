//! The scenario-serving daemon.
//!
//! A long-running process built on the blocking `std::net` stack: an
//! accept loop blocked in `accept()` hands each connection to a
//! short-lived handler thread (one request per connection) the moment it
//! arrives — no poll period sits under a request, so a cached result
//! costs its compile + hash + lookup and nothing else. Every accepted
//! socket carries a read and a write deadline ([`READ_TIMEOUT`],
//! [`WRITE_TIMEOUT`]): a peer that stalls mid-request is answered `408`
//! and dropped, so no handler thread outlives its peer's patience.
//!
//! Submissions are validated and compiled with the scenario crate's
//! strict validator **before** anything is queued, and accepted jobs
//! drain through a [`sim::pool::WorkerPool`], which is only a prioritized
//! run queue: a job's state — queued, running, done, failed, cancelled —
//! and the `/metrics` lifecycle counters live in its [`crate::jobs::Job`]
//! record, and the worker-side body (`execute_job`) is where a
//! scenario panic is caught and named. Results are
//! byte-identical to an offline `paper scenario <file> --json
//! --no-timing` run because both paths execute the same compiled runs
//! and assemble through `bench::scenario`.
//!
//! In front of the queue sits the content-addressed result cache
//! (`bench::cache`, shared on disk with the CLI): a submission whose
//! compiled content hash is already stored returns immediately without
//! simulating, and an identical submission already *in flight* coalesces
//! onto the running job instead of spawning a twin.
//!
//! Shutdown is graceful by construction: SIGTERM/ctrl-c (or `POST
//! /shutdown`) flips the draining flag — new submissions get a clear
//! `503`, everything already accepted runs to completion, streaming
//! clients receive their results, and cache entries only ever land via
//! write-to-temp + rename, so no signal timing can leave a torn file.
//! Once the pool has drained, [`Server::shutdown`] sets `closed` and
//! connects once to its own listener: the accept loop, which re-checks
//! `closed` after every `accept()`, wakes, drops that stream and exits.
//!
//! What the daemon keeps of finished jobs (status, events, document,
//! submission text) is bounded by bytes — [`crate::jobs::MAX_RETAINED_BYTES`]
//! — not by count, so serving faster never means holding more. Jobs run
//! untraced, and no trace is kept: a run is a pure function of its
//! scenario, so `/trace` and `/flows` derive the trace on request. They
//! compile the job's submission again against the same scenario
//! directory, answer `409` if its content hash is no longer the job's (a
//! replayed trace file was edited), re-run it traced on the worker pool
//! at priority 0 (`503` once the pool is gone), and serve the trace only
//! if the re-run's document is the job's own (`500` naming the first
//! differing line otherwise). A daemon writes nothing under `--out` but
//! the cache.
//!
//! Wire protocol (documented with examples in the README "Service"
//! section):
//!
//! | Endpoint                  | Meaning                                       |
//! |---------------------------|-----------------------------------------------|
//! | `GET /healthz`            | liveness + queue statistics                   |
//! | `GET /scenarios`          | machine-readable library listing              |
//! | `POST /jobs`              | submit scenario JSON (`?stream=1`, `?wait=1`, |
//! |                           | `?priority=N`)                                |
//! | `GET /jobs/<id>`          | status + progress events                      |
//! | `GET /jobs/<id>/result`   | the result document once done                 |
//! | `GET /jobs/<id>/trace`    | the job's flight-recorder NDJSON, re-run      |
//! | `GET /jobs/<id>/flows`    | slowest-flow span forensics (`?top=N`), re-run|
//! | `DELETE /jobs/<id>`       | cancel a still-queued job                     |
//! | `GET /metrics`            | Prometheus text exposition                    |
//! | `POST /shutdown`          | begin graceful shutdown                       |

use std::io::{BufReader, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bench::cache::{CacheEntry, ResultCache};
use bench::scenario::{deterministic_document, execute_traced, execute_with_progress, load_str};
use metrics::Json;
use scenario::hash::hex;
use scenario::{CompiledScenario, PhaseProgress, ProgressSink};
use sim::pool::{JobHandle, WorkerPool};

use crate::http::{is_timeout, read_request, respond, start_stream, Request};
use crate::jobs::{lock_recover, Admission, Follow, Job, JobState, JobTable};
use crate::library::library_json;
use crate::log::LogLevel;
use crate::metrics::{render_prometheus, HttpMetrics, MetricsInput};
use crate::{log_debug, log_error, log_info};

/// Version stamped on every NDJSON line the daemon streams (progress
/// events, the result marker, error events), so consumers can detect
/// layout changes without sniffing fields. Bumped when a line's shape
/// changes incompatibly.
pub const PROGRESS_SCHEMA_VERSION: u64 = 1;

/// How long a handler waits for the next bytes of a request before it
/// answers `408` and closes. Per read, not per request: a slow but
/// moving upload is never cut off.
pub const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// How long one write may block on a peer that has stopped reading
/// before the handler gives the connection up.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Back-off after a failed `accept()` (descriptor exhaustion, typically),
/// so a persistent error cannot spin the accept thread.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(20);

/// The `503` body for work that arrives once the daemon is draining.
const SHUTTING_DOWN: &str = "shutting down — not accepting new submissions";

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, `HOST:PORT` (port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker threads draining the job queue.
    pub jobs: usize,
    /// Read by nothing: the engines own no threads, and `jobs` is the
    /// daemon's only concurrency. The field stays for the callers that
    /// still build the config field by field.
    pub workers: usize,
    /// Results directory; the shared cache lives at `<out>/cache`, the
    /// only thing the daemon writes there.
    pub out: PathBuf,
    /// Scenario library directory (`GET /scenarios`); also anchors
    /// relative trace paths inside submitted scenarios.
    pub scenarios_dir: PathBuf,
    /// Daemon log verbosity (`--log-level error|info|debug`).
    pub log_level: LogLevel,
    /// Flight-recorder ring capacity per engine (`--trace-capacity`;
    /// `None` = the default 16Ki) of the re-runs that `/trace` and
    /// `/flows` make. Shapes only the trace bytes — served documents,
    /// hashes and cache keys are capacity-blind.
    pub trace_capacity: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: crate::cli::DEFAULT_ADDR.to_string(),
            jobs: sim::pool::default_jobs(),
            workers: 1,
            out: PathBuf::from("results"),
            scenarios_dir: PathBuf::from("scenarios"),
            log_level: LogLevel::Info,
            trace_capacity: None,
        }
    }
}

struct ServerState {
    config: ServeConfig,
    cache: ResultCache,
    table: JobTable,
    pool: Mutex<Option<WorkerPool>>,
    /// Submissions are rejected (503) the moment this flips; status and
    /// result queries keep working while accepted jobs drain.
    draining: AtomicBool,
    /// The accept loop exits only here, after the drain completes; it
    /// looks after every `accept()`, and `Server::shutdown` makes one.
    closed: AtomicBool,
    /// Failed `accept()` calls (`paper_accept_errors_total`).
    accept_errors: AtomicU64,
    /// Request counter + latency histogram for `/metrics`.
    http: HttpMetrics,
    /// Cumulative flight-recorder ring-overflow drops across every trace
    /// this daemon has rendered for `/trace` or `/flows`
    /// (`paper_trace_dropped_total`).
    trace_dropped: AtomicU64,
}

/// A running daemon: bind address, background accept loop, worker pool.
/// [`Server::shutdown`] (or dropping the handle) drains gracefully.
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept: Option<std::thread::JoinHandle<()>>,
    conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl Server {
    /// Bind `config.addr` and start serving in background threads.
    pub fn start(config: ServeConfig) -> Result<Server, String> {
        let listener =
            TcpListener::bind(&config.addr).map_err(|e| format!("binding {}: {e}", config.addr))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?;
        crate::log::set_level(config.log_level);
        let state = Arc::new(ServerState {
            cache: ResultCache::new(config.out.join("cache")),
            pool: Mutex::new(Some(WorkerPool::new(config.jobs))),
            table: JobTable::new(),
            draining: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            accept_errors: AtomicU64::new(0),
            http: HttpMetrics::new(),
            trace_dropped: AtomicU64::new(0),
            config,
        });
        let conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let state = Arc::clone(&state);
            let conns = Arc::clone(&conns);
            // lint: allow(D003) daemon accept loop; simulation work still runs on sim::pool
            std::thread::spawn(move || accept_loop(&listener, &state, &conns))
        };
        Ok(Server {
            addr,
            state,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Has graceful shutdown begun (signal, `POST /shutdown`, or
    /// [`Server::shutdown`])?
    pub fn draining(&self) -> bool {
        self.state.draining.load(Ordering::SeqCst)
    }

    /// Drain gracefully: reject new submissions with a clear 503 (status
    /// and result queries keep answering), run every accepted job to
    /// completion, flush streaming clients, then stop accepting and join
    /// all threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.state.draining.store(true, Ordering::SeqCst);
        if let Some(mut pool) = lock_recover(&self.state.pool).take() {
            pool.shutdown();
        }
        self.state.closed.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            // The loop is blocked in `accept()`: one connection to
            // ourselves returns it, and it sees `closed`. (In its error
            // arm instead, it sees `closed` when the back-off ends.)
            if let Err(error) = TcpStream::connect(wake_addr(self.addr)) {
                log_error!("[shutdown: could not wake the accept loop: {error}]");
            }
            let _ = accept.join();
        }
        let handles: Vec<_> = lock_recover(&self.conns).drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Where a listener bound to `addr` can be reached from this host: the
/// address itself, with the unspecified `0.0.0.0` / `::` (every
/// interface) replaced by that family's loopback.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, addr.port())
}

/// Run the daemon in the foreground until SIGTERM/ctrl-c (unix) or
/// `POST /shutdown`, then drain and return.
pub fn serve_forever(config: ServeConfig) -> Result<(), String> {
    install_signal_handlers();
    let mut server = Server::start(config)?;
    log_info!(
        "[serving on http://{} — cache {}, {} workers; ctrl-c or POST /shutdown to drain]",
        server.addr(),
        server.state.cache.dir().display(),
        server.state.config.jobs,
    );
    while !signal_received() && !server.draining() {
        std::thread::sleep(Duration::from_millis(100));
    }
    log_info!("[shutdown requested — draining in-flight jobs]");
    server.shutdown();
    let stats = server.state.table.stats();
    log_info!(
        "[drained; {} jobs served, {} coalesced]",
        stats.lifecycle.admitted(),
        stats.coalesced
    );
    Ok(())
}

// -------------------------------------------------------------------
// Signal plumbing: a flag flip is all a handler may safely do.
// -------------------------------------------------------------------

static SIGNALLED: AtomicBool = AtomicBool::new(false);

fn signal_received() -> bool {
    SIGNALLED.load(Ordering::SeqCst)
}

#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" fn on_signal(_signum: i32) {
        SIGNALLED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as extern "C" fn(i32);
    unsafe {
        signal(SIGINT, handler as usize);
        signal(SIGTERM, handler as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {
    // No portable std signal API; `POST /shutdown` remains available.
}

// -------------------------------------------------------------------
// Accept + dispatch
// -------------------------------------------------------------------

fn accept_loop(
    listener: &TcpListener,
    state: &Arc<ServerState>,
    conns: &Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    loop {
        let accepted = listener.accept();
        if state.closed.load(Ordering::SeqCst) {
            return; // drops the stream: the wake-up connection, or a late peer
        }
        match accepted {
            Ok((stream, _peer)) => {
                let state = Arc::clone(state);
                // lint: allow(D003) one thread per connection; simulation work still runs on sim::pool
                let handle = std::thread::spawn(move || handle_connection(stream, &state));
                let mut conns = lock_recover(conns);
                conns.retain(|h| !h.is_finished());
                conns.push(handle);
            }
            Err(error) => {
                state.accept_errors.fetch_add(1, Ordering::Relaxed);
                log_error!("[accept failed: {error}]");
                std::thread::sleep(ACCEPT_ERROR_BACKOFF);
            }
        }
    }
}

fn handle_connection(stream: TcpStream, state: &Arc<ServerState>) {
    // Deadlines are the socket's, so the cloned read half shares them.
    if stream.set_read_timeout(Some(READ_TIMEOUT)).is_err()
        || stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err()
    {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut stream = stream;
    let request = match read_request(&mut reader) {
        Ok(Some(request)) => request,
        Ok(None) => return, // connection opened and closed, nothing sent
        Err(error) => {
            let _ = if is_timeout(&error) {
                error_response(&mut stream, 408, "timed out waiting for the request")
            } else {
                error_response(&mut stream, 400, &error.to_string())
            };
            return;
        }
    };
    let started = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| route(&mut stream, &request, state)));
    let elapsed = started.elapsed().as_secs_f64();
    state.http.observe(elapsed);
    log_debug!(
        "[{} {} — {:.1} ms]",
        request.method,
        request.path,
        elapsed * 1e3
    );
    match outcome {
        Ok(Ok(())) => {}
        Ok(Err(_io)) => {
            // The peer went away mid-response; nothing sensible to do.
        }
        Err(_panic) => {
            // A handler bug answers with a typed 500 instead of silently
            // dropping the connection. Best-effort: the panic may have
            // struck after headers already went out.
            log_error!("[handler panicked on {} {}]", request.method, request.path);
            let _ = error_response(&mut stream, 500, "internal error handling request");
        }
    }
}

fn route(
    stream: &mut TcpStream,
    request: &Request,
    state: &Arc<ServerState>,
) -> std::io::Result<()> {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => handle_healthz(stream, state),
        ("GET", ["scenarios"]) => {
            let mut doc = library_json(&state.config.scenarios_dir).render();
            doc.push('\n');
            respond(stream, 200, "application/json", &[], doc.as_bytes())
        }
        ("POST", ["jobs"]) => handle_submit(stream, request, state),
        ("GET", ["jobs", id]) => handle_status(stream, id, state),
        ("GET", ["jobs", id, "result"]) => handle_result(stream, id, state),
        ("GET", ["jobs", id, "trace"]) => handle_trace(stream, id, state),
        ("GET", ["jobs", id, "flows"]) => handle_flows(stream, request, id, state),
        ("DELETE", ["jobs", id]) => handle_cancel(stream, id, state),
        ("GET", ["metrics"]) => handle_metrics(stream, state),
        ("POST", ["shutdown"]) => {
            state.draining.store(true, Ordering::SeqCst);
            let mut body = Json::object();
            body.push("status", "draining");
            json_response(stream, 200, &body)
        }
        (_, ["jobs", ..])
        | (_, ["scenarios"])
        | (_, ["healthz"])
        | (_, ["metrics"])
        | (_, ["shutdown"]) => error_response(stream, 405, "method not allowed"),
        _ => error_response(stream, 404, &format!("no route for {}", request.path)),
    }
}

fn handle_healthz(stream: &mut TcpStream, state: &Arc<ServerState>) -> std::io::Result<()> {
    let stats = state.table.stats();
    let mut body = Json::object();
    body.push(
        "status",
        if state.draining.load(Ordering::SeqCst) {
            "draining"
        } else {
            "ok"
        },
    )
    .push("jobs", stats.lifecycle.admitted())
    .push("active", stats.lifecycle.queued + stats.lifecycle.running)
    .push("coalesced", stats.coalesced)
    .push("workers", state.config.jobs)
    .push("cache_dir", state.cache.dir().display().to_string());
    json_response(stream, 200, &body)
}

/// `GET /metrics`: Prometheus text exposition, gathered at scrape time
/// from the job table, result cache, stage timers, and the HTTP tally.
fn handle_metrics(stream: &mut TcpStream, state: &Arc<ServerState>) -> std::io::Result<()> {
    let stages = bench::profile::snapshot();
    let text = render_prometheus(&MetricsInput {
        draining: state.draining.load(Ordering::SeqCst),
        jobs: state.table.stats(),
        workers: state.config.jobs,
        accept_errors: state.accept_errors.load(Ordering::Relaxed),
        cache: state.cache.stats(),
        stages: &stages,
        http: &state.http,
        trace_dropped: state.trace_dropped.load(Ordering::Relaxed),
    });
    respond(
        stream,
        200,
        "text/plain; version=0.0.4; charset=utf-8",
        &[],
        text.as_bytes(),
    )
}

fn handle_submit(
    stream: &mut TcpStream,
    request: &Request,
    state: &Arc<ServerState>,
) -> std::io::Result<()> {
    if state.draining.load(Ordering::SeqCst) {
        return error_response(stream, 503, SHUTTING_DOWN);
    }
    let Ok(text) = std::str::from_utf8(&request.body) else {
        return error_response(stream, 400, "scenario body is not UTF-8");
    };
    let priority: i64 = match request.query_value("priority") {
        None => 0,
        Some(v) => match v.parse() {
            Ok(p) => p,
            Err(_) => return error_response(stream, 400, &format!("bad priority '{v}'")),
        },
    };
    let stream_mode = request.query_value("stream") == Some("1");
    let wait_mode = request.query_value("wait") == Some("1");
    // Validate + compile before anything queues: a bad scenario costs the
    // submitter one round trip and the daemon nothing. Admission is
    // O(spec) — a hit or a coalesced submission never makes a flow; the
    // worker that runs a miss makes them and drops them with the run.
    let compiled = match load_str(text, &submission_origin(&state.config)) {
        Ok(compiled) => compiled,
        Err(error) => return error_response(stream, 400, &error),
    };
    let hash = compiled.content_hash();
    if let Some(entry) = state.cache.lookup(hash) {
        return serve_cached(stream, stream_mode, hash, &entry);
    }
    let (job, disposition) = match state.table.admit(hash, &compiled.spec.name, text) {
        Admission::Coalesced(job) => (job, "coalesced"),
        Admission::New(job) => {
            if !dispatch(state, Arc::clone(&job), compiled, priority) {
                job.finish(JobState::Failed("daemon is shutting down".into()));
                state.table.retire(&job);
                return error_response(stream, 503, SHUTTING_DOWN);
            }
            (job, "miss")
        }
    };
    if stream_mode {
        stream_job(stream, &job, hash, disposition)
    } else if wait_mode {
        let mut cursor = usize::MAX; // skip events, wait for the end
        match job.follow(&mut cursor) {
            Follow::Finished(terminal) => finished_response(stream, &terminal, disposition),
            // A cursor pinned past every event only ever sees the terminal
            // state; if that invariant ever breaks, a typed 500 beats
            // panicking the worker thread.
            Follow::Events(_) => {
                error_response(stream, 500, "internal error: events on a pinned cursor")
            }
        }
    } else {
        let mut body = Json::object();
        body.push("job", job.id)
            .push("hash", hex(hash))
            .push("status", job.state().label())
            .push("cache", disposition)
            .push("location", format!("/jobs/{}", job.id));
        json_response(stream, 202, &body)
    }
}

/// Where a submitted scenario is taken to live: in the scenario
/// directory, so relative trace paths resolve against it.
fn submission_origin(config: &ServeConfig) -> PathBuf {
    config.scenarios_dir.join("<submission>")
}

/// Queue `run` on the worker pool at `priority`. `None` once the pool is
/// gone or draining (the caller reports 503).
fn pool_submit<T: Send + 'static>(
    state: &ServerState,
    priority: i64,
    run: impl FnOnce() -> T + Send + 'static,
) -> Option<JobHandle<T>> {
    lock_recover(&state.pool).as_ref()?.submit(priority, run)
}

/// Hand a new job to the worker pool. `false` when the pool is already
/// draining (the caller reports 503).
fn dispatch(
    state: &Arc<ServerState>,
    job: Arc<Job>,
    compiled: CompiledScenario,
    priority: i64,
) -> bool {
    let worker_state = Arc::clone(state);
    pool_submit(state, priority, move || {
        execute_job(&worker_state, &job, &compiled)
    })
    .is_some()
}

/// The worker-side job body: run the scenario untraced with a progress
/// sink wired to the job record, store the cache entry atomically, finish
/// the job — `Failed` with the panic's message if the scenario panicked.
fn execute_job(state: &Arc<ServerState>, job: &Arc<Job>, compiled: &CompiledScenario) {
    if !job.start() {
        // Cancelled while queued: never simulate, never cache.
        state.table.retire(job);
        return;
    }
    let sink: ProgressSink = {
        let job = Arc::clone(job);
        Arc::new(move |p: PhaseProgress| {
            let id = job.id;
            job.push_event(phase_event(&p, id));
        })
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let report = execute_with_progress(compiled, Some(sink), 1);
        let mut document = deterministic_document(&report);
        // The job's record holds the document for as long as the budget
        // lets it, and its growth capacity would be a third of the record.
        document.shrink_to_fit();
        let entry = CacheEntry {
            scenario: compiled.spec.name.clone(),
            rendered: report.rendered,
            document: document.clone(),
        };
        if let Err(error) = state.cache.store(job.hash, &entry) {
            // A dead cache disk degrades to recomputation, never to a
            // failed job or a torn entry.
            log_error!("[cache: could not store {}: {error}]", hex(job.hash));
        }
        document
    }));
    match outcome {
        Ok(document) => job.finish(JobState::Done(Arc::new(document))),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "scenario run panicked".to_string());
            job.finish(JobState::Failed(msg));
        }
    }
    state.table.retire(job);
}

fn serve_cached(
    stream: &mut TcpStream,
    stream_mode: bool,
    hash: u64,
    entry: &CacheEntry,
) -> std::io::Result<()> {
    if stream_mode {
        let hash_hex = hex(hash);
        start_stream(
            stream,
            200,
            "application/x-ndjson",
            &[("X-Content-Hash", hash_hex.as_str()), ("X-Cache", "hit")],
        )?;
        // Cache hits never create a job, so this line carries no job id.
        let mut cached = event_json("cached");
        cached
            .push("hash", hash_hex.as_str())
            .push("scenario", entry.scenario.as_str());
        write_event(stream, &cached)?;
        write_result_marker(stream, entry.document.len(), "hit")?;
        stream.write_all(entry.document.as_bytes())?;
        stream.flush()
    } else {
        respond(
            stream,
            200,
            "application/json",
            &[("X-Content-Hash", hex(hash).as_str()), ("X-Cache", "hit")],
            entry.document.as_bytes(),
        )
    }
}

/// Follow `job` on a streaming connection: progress events as NDJSON
/// lines, then the result marker and the raw document.
fn stream_job(
    stream: &mut TcpStream,
    job: &Arc<Job>,
    hash: u64,
    disposition: &str,
) -> std::io::Result<()> {
    let hash_hex = hex(hash);
    start_stream(
        stream,
        200,
        "application/x-ndjson",
        &[
            ("X-Content-Hash", hash_hex.as_str()),
            ("X-Cache", disposition),
        ],
    )?;
    let mut opening = event_json(if disposition == "coalesced" {
        "coalesced"
    } else {
        "queued"
    });
    opening
        .push("job", job.id)
        .push("hash", hash_hex.as_str())
        .push("scenario", job.name.as_str());
    write_event(stream, &opening)?;
    let mut cursor = 0;
    loop {
        match job.follow(&mut cursor) {
            Follow::Events(events) => {
                for event in events {
                    write_event(stream, &event)?;
                }
            }
            Follow::Finished(JobState::Done(document)) => {
                write_result_marker(stream, document.len(), disposition)?;
                stream.write_all(document.as_bytes())?;
                return stream.flush();
            }
            Follow::Finished(JobState::Failed(message)) => {
                let mut event = event_json("error");
                event.push("job", job.id).push("message", message.as_str());
                return write_event(stream, &event);
            }
            Follow::Finished(other) => {
                let mut event = event_json("error");
                event
                    .push("job", job.id)
                    .push("message", format!("job {}", other.label()));
                return write_event(stream, &event);
            }
        }
    }
}

fn finished_response(
    stream: &mut TcpStream,
    terminal: &JobState,
    disposition: &str,
) -> std::io::Result<()> {
    match terminal {
        JobState::Done(document) => respond(
            stream,
            200,
            "application/json",
            &[("X-Cache", disposition)],
            document.as_bytes(),
        ),
        JobState::Failed(message) => error_response(stream, 500, message),
        other => error_response(stream, 409, &format!("job {}", other.label())),
    }
}

fn handle_status(
    stream: &mut TcpStream,
    id: &str,
    state: &Arc<ServerState>,
) -> std::io::Result<()> {
    let Some(job) = lookup(id, state) else {
        return error_response(stream, 404, &format!("no job '{id}'"));
    };
    let job_state = job.state();
    let (wait, run) = job.timing();
    let mut body = Json::object();
    body.push("job", job.id)
        .push("hash", hex(job.hash))
        .push("scenario", job.name.as_str())
        .push("status", job_state.label())
        .push("wait_ms", wait.as_secs_f64() * 1e3);
    if let Some(run) = run {
        body.push("run_ms", run.as_secs_f64() * 1e3);
    }
    body.push("events", Json::Arr(job.events()));
    if let JobState::Failed(message) = &job_state {
        body.push("error", message.as_str());
    }
    json_response(stream, 200, &body)
}

fn handle_result(
    stream: &mut TcpStream,
    id: &str,
    state: &Arc<ServerState>,
) -> std::io::Result<()> {
    let Some(job) = lookup(id, state) else {
        return error_response(stream, 404, &format!("no job '{id}'"));
    };
    match job.state() {
        JobState::Done(document) => respond(
            stream,
            200,
            "application/json",
            &[("X-Content-Hash", hex(job.hash).as_str())],
            document.as_bytes(),
        ),
        JobState::Failed(message) => error_response(stream, 500, &message),
        pending => error_response(stream, 409, &format!("job is {}", pending.label())),
    }
}

/// `GET /jobs/<id>/trace`: the job's flight-recorder NDJSON, from a traced
/// re-run ([`rebuilt_trace`]). The CLI's `--trace` runs the same
/// function, so the body is byte-identical to an offline trace of the
/// same scenario.
fn handle_trace(stream: &mut TcpStream, id: &str, state: &Arc<ServerState>) -> std::io::Result<()> {
    let Some(job) = lookup(id, state) else {
        return error_response(stream, 404, &format!("no job '{id}'"));
    };
    match rebuilt_trace(&job, state) {
        Ok(trace) => respond(
            stream,
            200,
            "application/x-ndjson",
            &[("X-Content-Hash", hex(job.hash).as_str())],
            trace.as_bytes(),
        ),
        Err((status, message)) => error_response(stream, status, &message),
    }
}

/// `GET /jobs/<id>/flows?top=N`: the slowest-N completed flows of the
/// job's rebuilt trace, with each flow's full span-milestone history. The
/// body is `bench::traceq::flows_json` — the same function `paper trace
/// query --top-fct N --json` prints — so daemon answers and offline
/// forensics can never drift apart.
fn handle_flows(
    stream: &mut TcpStream,
    request: &Request,
    id: &str,
    state: &Arc<ServerState>,
) -> std::io::Result<()> {
    let Some(job) = lookup(id, state) else {
        return error_response(stream, 404, &format!("no job '{id}'"));
    };
    let top = match request.query_value("top") {
        None => 10,
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => return error_response(stream, 400, &format!("bad top '{v}'")),
        },
    };
    let flows = rebuilt_trace(&job, state)
        .and_then(|trace| bench::traceq::flows_json(&trace, top).map_err(|e| (500, e)));
    match flows {
        Ok(body) => json_response(stream, 200, &body),
        Err((status, message)) => error_response(stream, status, &message),
    }
}

/// The trace of `job`, derived again, or the status and message that say
/// why there is none. Only jobs that ran to `Done` have one: cache hits
/// never create a job, and failed or cancelled jobs never simulated to
/// the end. The job's submission is compiled again and must hash to the
/// job's hash (`409` otherwise: a replayed trace file changed), then
/// runs traced on the worker pool at priority 0 (`503` once the pool is
/// gone), and its document must be the job's (`500` otherwise). Each
/// trace served adds its ring-overflow drops to
/// `paper_trace_dropped_total`.
fn rebuilt_trace(job: &Job, state: &ServerState) -> Result<String, (u16, String)> {
    let document = match job.state() {
        JobState::Done(document) => document,
        JobState::Failed(message) => return Err((500, message)),
        JobState::Cancelled => return Err((404, "job was cancelled before running".into())),
        pending => return Err((409, format!("job is {}", pending.label()))),
    };
    let changed = |why: String| {
        let message = format!(
            "the scenario's inputs changed since job {} ran: {why}",
            job.id
        );
        (409, message)
    };
    let compiled = load_str(&job.text, &submission_origin(&state.config)).map_err(changed)?;
    let hash = compiled.content_hash();
    if hash != job.hash {
        let why = format!("its content hash is {}, not {}", hex(hash), hex(job.hash));
        return Err(changed(why));
    }
    let capacity = state.config.trace_capacity;
    let run = pool_submit(state, 0, move || {
        let (report, trace) = execute_traced(&compiled, None, capacity);
        (deterministic_document(&report), trace)
    })
    .ok_or_else(|| (503, SHUTTING_DOWN.to_string()))?;
    let (rerun, trace) = run
        .wait()
        .ok_or_else(|| (500, format!("re-running job {} panicked", job.id)))?;
    if rerun != *document {
        let line = 1 + rerun
            .lines()
            .zip(document.lines())
            .take_while(|(a, b)| a == b)
            .count();
        let message = format!(
            "re-running job {} diverged from its document at line {line}",
            job.id
        );
        return Err((500, message));
    }
    state
        .trace_dropped
        .fetch_add(bench::traceq::dropped_total(&trace), Ordering::Relaxed);
    Ok(trace)
}

fn handle_cancel(
    stream: &mut TcpStream,
    id: &str,
    state: &Arc<ServerState>,
) -> std::io::Result<()> {
    let Some(job) = lookup(id, state) else {
        return error_response(stream, 404, &format!("no job '{id}'"));
    };
    if job.cancel() {
        state.table.retire(&job);
        let mut body = Json::object();
        body.push("job", job.id).push("status", "cancelled");
        json_response(stream, 200, &body)
    } else {
        error_response(
            stream,
            409,
            &format!(
                "job is {} — only queued jobs can be cancelled",
                job.state().label()
            ),
        )
    }
}

fn lookup(id: &str, state: &Arc<ServerState>) -> Option<Arc<Job>> {
    id.parse::<u64>().ok().and_then(|id| state.table.get(id))
}

// -------------------------------------------------------------------
// Small wire helpers
// -------------------------------------------------------------------

/// Start an NDJSON line: every streamed line opens with its event name
/// and [`PROGRESS_SCHEMA_VERSION`], so each line is self-describing.
fn event_json(kind: &str) -> Json {
    let mut event = Json::object();
    event
        .push("event", kind)
        .push("schema_version", PROGRESS_SCHEMA_VERSION);
    event
}

fn phase_event(p: &PhaseProgress, job_id: u64) -> Json {
    let mut event = event_json("phase");
    event
        .push("job", job_id)
        .push("system", p.system.as_str())
        .push("phase", p.phase)
        .push("phases", p.phases)
        .push("label", p.label.as_str());
    event
}

fn write_event(stream: &mut TcpStream, event: &Json) -> std::io::Result<()> {
    let mut line = event.render_compact();
    line.push('\n');
    stream.write_all(line.as_bytes())?;
    stream.flush()
}

fn write_result_marker(
    stream: &mut TcpStream,
    bytes: usize,
    disposition: &str,
) -> std::io::Result<()> {
    let mut marker = event_json("result");
    marker.push("bytes", bytes).push("cache", disposition);
    write_event(stream, &marker)
}

fn json_response(stream: &mut TcpStream, status: u16, body: &Json) -> std::io::Result<()> {
    let mut text = body.render();
    text.push('\n');
    respond(stream, status, "application/json", &[], text.as_bytes())
}

fn error_response(stream: &mut TcpStream, status: u16, message: &str) -> std::io::Result<()> {
    let mut body = Json::object();
    body.push("error", message);
    json_response(stream, status, &body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;

    /// A trace is a fresh run on the worker pool, so it goes the way a
    /// submission does once [`Server::shutdown`] has taken the pool: a
    /// `503` straight away, never a request left waiting on a run that
    /// nothing will start. After the shutdown the port refuses outright.
    #[test]
    fn a_trace_request_is_refused_once_the_pool_is_gone() {
        let out = std::env::temp_dir().join(format!("nego-server-no-pool-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&out);
        let mut server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs: 1,
            out: out.clone(),
            scenarios_dir: out.join("scenarios"),
            ..ServeConfig::default()
        })
        .expect("bind ephemeral port");
        let addr = server.addr().to_string();
        let text = r#"{"name": "no-pool", "topology": "parallel", "tors": 16, "ports": 4,
          "seed": 2, "phases": [{"workload": "poisson", "load": 40, "epochs": [0, 20]}]}"#;
        let (status, document) =
            client::request_json(&addr, "POST", "/jobs?wait=1", text.as_bytes()).unwrap();
        assert_eq!(status, 200, "{document}");
        let mut pool = lock_recover(&server.state.pool)
            .take()
            .expect("a live pool");
        pool.shutdown();
        for path in ["/jobs/1/trace", "/jobs/1/flows"] {
            let (status, body) = client::request_json(&addr, "GET", path, b"").unwrap();
            assert_eq!(status, 503, "{path}: {body}");
            assert!(body.contains("shutting down"), "{path}: {body}");
        }
        let result = client::request_json(&addr, "GET", "/jobs/1/result", b"").unwrap();
        assert_eq!(result, (200, document), "status queries still answer");
        server.shutdown();
        assert!(client::request_json(&addr, "GET", "/jobs/1/trace", b"").is_err());
        let _ = std::fs::remove_dir_all(&out);
    }
}
