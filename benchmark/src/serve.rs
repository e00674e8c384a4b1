//! `serve_mixed`: the daemon on loopback, driven in a closed loop by two
//! client threads that each alternate a fresh scenario (cache miss) with
//! one of eight pre-warmed ones (cache hit), thinking briefly in between.
//! Its times are wall-clock, not calibrated: they hold socket and poll waits
//! that do not scale with the CPU's speed.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use bench::scenario::{deterministic_document, load_str};
use metrics::Json;
use service::client::{request_json, submit};
use service::{Disposition, LogLevel, ServeConfig, Server};
use sim::Xoshiro256;

use crate::calib::{Kernel, NOMINAL_MS};
use crate::harness::{doc_hash, origin, setup_median, Cold, Ctx, Outcome, Scratch, Template};
use crate::layers;
use crate::prom::Scrape;
use crate::span::Spans;
use crate::stats::{median, peak_rss_mb, quartiles, supported_tail};

/// Scenarios submitted before the window opens and hit during it.
const HOT: u64 = 8;
/// One load-generating thread per core of the sandbox; the daemon's accept
/// loop and its one pool worker share the same two cores.
const CLIENTS: u64 = 2;
/// Miss documents per client kept for checking against an offline run.
const SAMPLED_PER_CLIENT: usize = 8;
/// A client thinks for a seeded, uniform 0..25 ms before each submission.
/// Without it the closed loop phase-locks with the daemon's 20 ms accept
/// poll: every latency becomes a sawtooth of the engines' speed, and
/// throughput a staircase.
const THINK_MS: f64 = 25.0;

/// Seeds of this run's scenarios: the hot ones first, then one per miss.
fn scenario_seed(ctx: &Ctx, index: u64) -> u64 {
    ctx.seed.wrapping_mul(1_000_003).wrapping_add(index)
}

/// A started daemon with its hot scenarios already served once.
pub struct Daemon {
    // Dropped in this order: the server drains before its directory goes.
    _server: Server,
    addr: String,
    /// `(scenario text, first served document)`.
    hot: Vec<(String, String)>,
    _scratch: Scratch,
}

/// Start the daemon and pre-warm it. With this done a user's submission of
/// a hot scenario is a cache hit.
pub fn start(ctx: &Ctx, template: &Template) -> Result<(Daemon, Cold), String> {
    let scratch = Scratch::new(ctx, "daemon")?;
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: 1,
        workers: 1,
        out: scratch.path().to_path_buf(),
        scenarios_dir: PathBuf::from(scratch.path()),
        log_level: LogLevel::Error,
        trace_capacity: None,
    })?;
    let addr = server.addr().to_string();
    // Set-up is the daemon's start plus each pre-warming submission's
    // latency; the think time before each, which keeps the submissions from
    // phase-locking with the accept poll as in the window, is not counted.
    let mut setup_s = ctx.started.elapsed().as_secs_f64();
    let mut rng = Xoshiro256::new(scenario_seed(ctx, CLIENTS));
    let mut hot = Vec::new();
    for i in 0..HOT {
        let text = template.text(scenario_seed(ctx, i));
        think(&mut rng);
        let t = Instant::now();
        let served = submit(&addr, &text, 0, |_| ())?;
        setup_s += t.elapsed().as_secs_f64();
        hot.push((text, served.document));
    }
    let cold = Cold {
        setup_s,
        raw_s: setup_s,
        doc_hash: doc_hash(hot.iter().map(|(_, doc)| doc.as_str())),
    };
    let daemon = Daemon {
        _server: server,
        addr,
        hot,
        _scratch: scratch,
    };
    Ok((daemon, cold))
}

fn think(rng: &mut Xoshiro256) {
    std::thread::sleep(Duration::from_secs_f64(rng.next_f64() * THINK_MS / 1e3));
}

#[derive(Default)]
struct ClientLog {
    miss_ms: Vec<f64>,
    hit_ms: Vec<f64>,
    first_progress_ms: Vec<f64>,
    faults: Vec<String>,
    /// `(scenario text, served document)` of the first few misses.
    sampled: Vec<(String, String)>,
}

/// One client: think, miss, think, hit ... until the deadline, each
/// submission sent only after the previous one's last byte arrived.
fn client(
    ctx: &Ctx,
    template: &Template,
    daemon: &Daemon,
    me: u64,
    deadline: Instant,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut rng = Xoshiro256::new(scenario_seed(ctx, me));
    let mut round = 0u64;
    while Instant::now() < deadline {
        let text = template.text(scenario_seed(ctx, HOT + round * CLIENTS + me));
        think(&mut rng);
        let t = Instant::now();
        let mut first_event = None;
        match submit(&daemon.addr, &text, 0, |_| {
            first_event.get_or_insert_with(|| t.elapsed());
        }) {
            Ok(served) => {
                log.miss_ms.push(t.elapsed().as_secs_f64() * 1e3);
                log.first_progress_ms
                    .extend(first_event.map(|d: Duration| d.as_secs_f64() * 1e3));
                if served.disposition != Disposition::Simulated {
                    log.faults.push(format!(
                        "a fresh scenario came back {:?}",
                        served.disposition
                    ));
                }
                if log.sampled.len() < SAMPLED_PER_CLIENT {
                    log.sampled.push((text, served.document));
                }
            }
            Err(e) => log.faults.push(format!("miss submission: {e}")),
        }

        let (text, first_served) = &daemon.hot[((round + me) % HOT) as usize];
        think(&mut rng);
        let t = Instant::now();
        match submit(&daemon.addr, text, 0, |_| ()) {
            Ok(served) => {
                log.hit_ms.push(t.elapsed().as_secs_f64() * 1e3);
                if served.disposition != Disposition::CacheHit {
                    log.faults
                        .push(format!("a hot scenario came back {:?}", served.disposition));
                }
                if &served.document != first_served {
                    log.faults.push(
                        "a hit differs from the scenario's first served document".to_string(),
                    );
                }
            }
            Err(e) => log.faults.push(format!("hit submission: {e}")),
        }
        round += 1;
    }
    log
}

fn scrape(addr: &str) -> Result<Scrape, String> {
    match request_json(addr, "GET", "/metrics", b"")? {
        (200, body) => Ok(Scrape::parse(&body)),
        (status, _) => Err(format!("GET /metrics returned {status}")),
    }
}

/// The served document for `text`, recomputed offline on the batch path.
fn offline_document(text: &str) -> Result<String, String> {
    let compiled = load_str(text, origin())?;
    Ok(deterministic_document(&bench::scenario::run(
        &compiled, 1, 1,
    )))
}

/// Negotiator 99p FCT (simulated us) and normalized goodput in a document.
fn nego_outcomes(doc: &str) -> Option<(f64, f64)> {
    let doc = Json::parse(doc).ok()?;
    let run = doc.get("runs")?.as_array()?.iter().find(|r| {
        r.get("system")
            .and_then(Json::as_str)
            .is_some_and(|s| s.starts_with("nego"))
    })?;
    let m = run.get("metrics")?;
    Some((
        m.get("all")?.get("p99_ns")?.as_f64()? / 1e3,
        m.get("goodput")?.get("normalized")?.as_f64()?,
    ))
}

/// What the timed window produced: the clients' logs merged, and the
/// daemon's `/metrics` on either side of it.
struct Window {
    miss_ms: Vec<f64>,
    hit_ms: Vec<f64>,
    first_progress_ms: Vec<f64>,
    faults: Vec<String>,
    sampled: Vec<(String, String)>,
    before: Scrape,
    after: Scrape,
    seconds: f64,
    /// The reference kernel's time, sampled through the window.
    kernel_ms: Vec<f64>,
}

impl Window {
    /// How far one of the daemon's counters rose over the window.
    fn rose(&self, name: &str) -> f64 {
        self.after.delta(&self.before, name)
    }
}

/// Open the timed window: both clients run until the deadline.
fn drive(ctx: &Ctx, template: &Template, daemon: &Daemon) -> Result<Window, String> {
    let before = scrape(&daemon.addr)?;
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(ctx.seconds);
    let mut kernel_ms = Vec::new();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|me| s.spawn(move || client(ctx, template, daemon, me, deadline)))
            .collect();
        // This thread has nothing to do until the clients are done: it
        // samples the host's speed, a few milliseconds four times a second.
        while Instant::now() < deadline {
            kernel_ms.push(Kernel::Cache.probe_ms());
            std::thread::sleep(Duration::from_millis(250));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let seconds = started.elapsed().as_secs_f64();
    let after = scrape(&daemon.addr)?;
    let mut w = Window {
        miss_ms: Vec::new(),
        hit_ms: Vec::new(),
        first_progress_ms: Vec::new(),
        faults: Vec::new(),
        sampled: Vec::new(),
        before,
        after,
        seconds,
        kernel_ms,
    };
    for log in logs {
        w.miss_ms.extend(log.miss_ms);
        w.hit_ms.extend(log.hit_ms);
        w.first_progress_ms.extend(log.first_progress_ms);
        w.faults.extend(log.faults);
        w.sampled.extend(log.sampled);
    }
    Ok(w)
}

/// Check the window's outputs. Returns the negotiator's `(99p FCT,
/// goodput)` in each document that was checked against an offline run.
fn verify(daemon: &Daemon, w: &Window, out: &mut Outcome) -> Result<Vec<(f64, f64)>, String> {
    let (misses, hits) = (w.miss_ms.len() as f64, w.hit_ms.len() as f64);
    // Every submission is one checked operation; each fault fails one.
    out.attempted += (w.miss_ms.len() + w.hit_ms.len() + w.faults.len()) as u64;
    out.failures.extend(w.faults.iter().cloned());

    // The daemon's own counters must tell the same story as the clients.
    for (what, counter, client_side) in [
        ("cache hits", "paper_cache_hits_total", hits),
        ("cache misses", "paper_cache_misses_total", misses),
        ("jobs completed", "paper_jobs_completed_total", misses),
        ("jobs failed", "paper_jobs_failed_total", 0.0),
        ("jobs coalesced", "paper_jobs_coalesced_total", 0.0),
    ] {
        let daemon_side = w.rose(counter);
        out.check(daemon_side == client_side, || {
            format!("{what}: the daemon counted {daemon_side}, the clients {client_side}")
        });
    }

    // Hot and sampled miss documents must equal an offline run of the text.
    let mut outcomes = Vec::new();
    for (text, doc) in daemon.hot.iter().chain(&w.sampled) {
        let offline = offline_document(text)?;
        out.check(&offline == doc, || {
            "a served document differs from the offline run".to_string()
        });
        outcomes.extend(nego_outcomes(doc));
    }
    Ok(outcomes)
}

/// Seconds the daemon spent inside the engines during the window.
fn execute_s(w: &Window) -> f64 {
    w.rose("paper_stage_seconds_total{stage=\"execute\"}")
}

/// The `service` layer's metrics: the daemon's stage timers against what
/// the clients saw.
fn service_layer(w: &Window, out: &mut Outcome) {
    let (misses, hits) = (w.miss_ms.len() as f64, w.hit_ms.len() as f64);
    let per_call_ms = |seconds: f64, calls: f64| match calls > 0.0 {
        true => seconds / calls * 1e3,
        false => 0.0,
    };
    let stage_ms = |stage: &str| {
        per_call_ms(
            w.rose(&format!("paper_stage_seconds_total{{stage=\"{stage}\"}}")),
            w.rose(&format!("paper_stage_calls_total{{stage=\"{stage}\"}}")),
        )
    };
    // Per miss, so both engines' runs; the cache stages per call.
    let execute_ms = per_call_ms(execute_s(w), misses);
    let (lookup_ms, store_ms) = (stage_ms("cache_lookup"), stage_ms("cache_store"));
    out.set(
        "service.first_progress_p50_ms",
        median(&w.first_progress_ms),
    );
    out.set("service.stage_execute_ms", execute_ms);
    out.set("service.stage_cache_lookup_ms", lookup_ms);
    out.set("service.stage_cache_store_ms", store_ms);
    out.set("service.pool_utilization", execute_s(w) / w.seconds);
    // Self time, from outside: what the stage timers do not cover (accept
    // wait, HTTP, compile, queue, render, stream).
    let miss_self_ms = median(&w.miss_ms) - execute_ms - lookup_ms - store_ms;
    out.set("service.miss_self_ms", miss_self_ms);
    out.set("service.hit_self_ms", median(&w.hit_ms) - lookup_ms);
    for (value_name, pct_name, xs) in [
        ("service.miss_tail_ms", "service.miss_tail_pct", &w.miss_ms),
        ("service.hit_tail_ms", "service.hit_tail_pct", &w.hit_ms),
    ] {
        let (pct, value) = supported_tail(xs).unwrap_or((0.0, 0.0));
        out.set(value_name, value);
        out.set(pct_name, pct);
    }
    out.set("service.hits", hits);
    out.set("service.misses", misses);
    out.set("service.coalesced", w.rose("paper_jobs_coalesced_total"));
    out.set("service.failed", w.rose("paper_jobs_failed_total"));
    out.set("service.http_requests", w.rose("paper_http_requests_total"));
}

/// Median round trip of `GET /metrics`, sent back to back: no job, so the
/// floor under every hit.
fn http_rtt_ms(daemon: &Daemon) -> Result<f64, String> {
    let rtts: Vec<f64> = (0..50)
        .map(|_| {
            let t = Instant::now();
            scrape(&daemon.addr).map(|_| t.elapsed().as_secs_f64() * 1e3)
        })
        .collect::<Result<_, _>>()?;
    Ok(median(&rtts))
}

/// Run the workload. Untraced, it reports the end-to-end metrics; with
/// `spans` (the traced run) the layers' instead, from the same window.
pub fn run(ctx: &Ctx, spans: Option<&mut Spans>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let template = Template::load(ctx)?;
    let (daemon, own) = start(ctx, &template)?;
    let w = match spans {
        None => {
            let setup_s = setup_median(ctx, &own, &mut out);
            let w = drive(ctx, &template, &daemon)?;
            let outcomes = verify(&daemon, &w, &mut out)?;
            let fct: Vec<f64> = outcomes.iter().map(|o| o.0).collect();
            let goodput: Vec<f64> = outcomes.iter().map(|o| o.1).collect();
            let spec = load_str(&daemon.hot[0].0, origin())?.spec;
            let epochs =
                (w.miss_ms.len() as u64 * spec.total_epochs() * spec.engines.len() as u64) as f64;
            out.set("setup_s", setup_s);
            out.set("peak_rss_mb", peak_rss_mb());
            out.set("miss_p50_ms", median(&w.miss_ms));
            out.set("hit_p50_ms", median(&w.hit_ms));
            out.set(
                "results_per_s",
                (w.miss_ms.len() + w.hit_ms.len()) as f64 / w.seconds,
            );
            // The engines' share of the window is CPU-bound, so it is
            // calibrated like the offline workloads'; the rest is not.
            out.set(
                "epochs_per_s",
                epochs / (execute_s(&w) * NOMINAL_MS / median(&w.kernel_ms)),
            );
            out.set("nego_fct_p99_us", median(&fct));
            out.set("nego_goodput_norm", median(&goodput));
            w
        }
        Some(spans) => {
            // The layers under one submission, probed on a scenario of the
            // kind the clients send.
            layers::run(ctx, &template, scenario_seed(ctx, 0), spans, &mut out)?;
            out.set("service.http_rtt_ms", http_rtt_ms(&daemon)?);
            let w = drive(ctx, &template, &daemon)?;
            verify(&daemon, &w, &mut out)?;
            service_layer(&w, &mut out);
            w
        }
    };
    for (name, xs) in [("miss_ms", &w.miss_ms), ("hit_ms", &w.hit_ms)] {
        let tail = supported_tail(xs).map_or("none supported".to_string(), |(p, v)| {
            format!("p{p}={v:.3}")
        });
        out.note(format!(
            "{name}: n={} quartiles={:.3?} highest tail with 10 samples beyond: {tail}",
            xs.len(),
            quartiles(xs)
        ));
    }
    out.note(format!(
        "closed loop, {CLIENTS} clients, {:.2} s window on the wall clock; the reference kernel took {:.3} ms (nominal {NOMINAL_MS})",
        w.seconds,
        median(&w.kernel_ms)
    ));
    Ok(out)
}
