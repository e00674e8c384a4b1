//! The four offline workloads: scenario text -> `bench::scenario::load_str`
//! -> `execute_with_progress` (workers 1, the path the CLI and the daemon
//! share) -> `deterministic_document` bytes, timed from outside.

use std::time::Instant;

use bench::cache::{CacheEntry, ResultCache};
use bench::scenario::{deterministic_document, execute_with_progress, load_str, CompiledScenario};
use bench::sweep::{RunResult, SweepReport};

use crate::calib::{Kernel, Meter, Timed, NOMINAL_MS};
use crate::harness::{doc_hash, origin, setup_median, Cold, Ctx, Outcome, Scratch, Template};
use crate::stats::{median, peak_rss_mb, quartiles};

/// Cached results asked for after each simulated one in the timed window.
const HITS_PER_MISS: usize = 5;

/// What a pass makes of scenario text.
pub struct Made {
    pub compiled: CompiledScenario,
    pub report: SweepReport,
    /// The deterministic result document.
    pub doc: String,
}

/// One uncached result: everything between the text and the bytes, timed.
pub struct Pass {
    pub made: Made,
    /// The whole pass.
    pub took: Timed,
    /// The part of it inside `execute_with_progress`: the engines.
    pub engines: Timed,
    /// Median time of the reference kernel during the pass, in ms.
    pub kernel_ms: f64,
}

/// Make one pass, timed in calibrated segments: the meter marks before and
/// after the engines and, through the progress sink, at every phase boundary
/// inside them.
pub fn pass(text: &str) -> Result<Pass, String> {
    let meter = Meter::start(Kernel::Cache);
    let compiled = load_str(text, origin())?;
    let compiled_at = meter.mark();
    let report = execute_with_progress(&compiled, Some(meter.sink()), 1);
    let engines = meter.mark() - compiled_at;
    let doc = deterministic_document(&report);
    Ok(Pass {
        made: Made {
            compiled,
            report,
            doc,
        },
        took: meter.mark(),
        engines,
        kernel_ms: meter.kernel_ms(),
    })
}

/// The negotiator's run in a report, if the scenario has one.
pub fn nego(report: &SweepReport) -> Option<&RunResult> {
    report
        .results
        .iter()
        .find(|r| r.meta.system.starts_with("nego"))
}

/// The oblivious engine's run in a report, if the scenario has one.
pub fn oblv(report: &SweepReport) -> Option<&RunResult> {
    report
        .results
        .iter()
        .find(|r| r.meta.system.starts_with("oblivious"))
}

/// Simulated epochs per calibrated host second inside the engines: every
/// engine simulates the scenario's whole horizon.
pub fn epochs_per_s(pass: &Pass) -> f64 {
    let made = &pass.made;
    let epochs = made.compiled.spec.total_epochs() as f64 * made.report.results.len() as f64;
    epochs / pass.engines.cal_s
}

/// What must hold of any run on a healthy fabric: no byte is lost or made
/// up, and no more flows complete than exist.
pub fn conservation_faults(compiled: &CompiledScenario, report: &SweepReport) -> Vec<String> {
    let offered = compiled.trace.total_bytes();
    let mut faults = Vec::new();
    for r in &report.results {
        let system = &r.meta.system;
        let Some(summary) = &r.metrics.report else {
            faults.push(format!("{system}: no run summary"));
            continue;
        };
        let backlog = r
            .metrics
            .series
            .as_ref()
            .and_then(|s| s.as_array()?.last()?.get("backlog_bytes")?.as_u64());
        let Some(backlog) = backlog else {
            faults.push(format!("{system}: no final backlog in the series"));
            continue;
        };
        let accounted = summary.goodput.delivered_bytes + backlog;
        // Bytes neither delivered nor queued at the horizon are in flight or
        // arrived too late to be admitted: at most what the fabric carries
        // in one epoch. The oblivious engine also parks bytes at relay
        // ToRs, which its backlog column does not count.
        let net = &compiled.spec.net;
        let one_epoch = (net.n_tors * net.n_ports) as u64 * net.port_bandwidth.bps() / 8
            * compiled.epoch_len
            / 1_000_000_000;
        let conserved = accounted <= offered
            && (!system.starts_with("nego") || offered - accounted <= one_epoch);
        if !conserved {
            faults.push(format!(
                "{system}: delivered {} + backlog {backlog} vs offered {offered}",
                summary.goodput.delivered_bytes
            ));
        }
        for (class, fct) in [("mice", &summary.mice), ("all", &summary.all)] {
            if fct.completed > fct.total {
                faults.push(format!(
                    "{system}: {} of {} {class} flows completed",
                    fct.completed, fct.total
                ));
            }
        }
    }
    faults
}

/// Check one pass against the reference bytes and the invariants.
fn check_pass(made: &Made, reference: &str, out: &mut Outcome) {
    let mut faults = conservation_faults(&made.compiled, &made.report);
    if made.doc != reference {
        faults.push("document differs from the cold pass's".to_string());
    }
    out.check(faults.is_empty(), || faults.join("; "));
}

/// The cached path of `paper scenario`: compile the text, look its content
/// hash up, return the stored document.
fn cached(text: &str, cache: &ResultCache) -> (Option<String>, Timed) {
    let meter = Meter::start(Kernel::Core);
    let document = load_str(text, origin())
        .ok()
        .and_then(|compiled| cache.lookup(compiled.content_hash()))
        .map(|entry| entry.document);
    (document, meter.mark())
}

/// Store a pass's result the way the CLI does after a fresh run.
pub fn store(cache: &ResultCache, made: &Made) -> Result<(), String> {
    let entry = CacheEntry {
        scenario: made.compiled.spec.name.clone(),
        rendered: made.report.rendered.clone(),
        document: made.doc.clone(),
    };
    cache
        .store(made.compiled.content_hash(), &entry)
        .map(|_| ())
        .map_err(|e| format!("cache store: {e}"))
}

/// Process start to the first result: what a `paper scenario` user pays on
/// every run. The pass is calibrated; what precedes it (milliseconds of
/// process start and template reading) is not.
pub fn cold(ctx: &Ctx, text: &str) -> Result<(Pass, Cold), String> {
    let before = ctx.started.elapsed().as_secs_f64();
    let first = pass(text)?;
    let cold = Cold {
        setup_s: before + first.took.cal_s,
        raw_s: before + first.took.raw_s,
        doc_hash: doc_hash([first.made.doc.as_str()]),
    };
    Ok((first, cold))
}

/// The end-to-end run of an offline workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let text = Template::load(ctx)?.text(ctx.seed);
    let (first, own) = cold(ctx, &text)?;
    let first = first.made;
    check_pass(&first, &first.doc, &mut out);
    let setup_s = setup_median(ctx, &own, &mut out);

    let scratch = Scratch::new(ctx, "cache")?;
    let cache = ResultCache::new(scratch.path().join("cache"));
    store(&cache, &first)?;

    // The timed window: one result that has to be simulated, then five that
    // are already cached (they take milliseconds; one a round is too few to
    // take a median of), until the time is up.
    let (mut misses, mut hits, mut rates, mut kernel_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < ctx.seconds {
        let warm = pass(&text)?;
        check_pass(&warm.made, &first.doc, &mut out);
        misses.push(warm.took);
        rates.push(epochs_per_s(&warm));
        kernel_ms.push(warm.kernel_ms);

        for _ in 0..HITS_PER_MISS {
            let (served, took) = cached(&text, &cache);
            hits.push(took);
            out.check(served.as_deref() == Some(first.doc.as_str()), || {
                "cached document differs from the cold pass's".to_string()
            });
        }
    }
    let ms = |xs: &[Timed], f: fn(&Timed) -> f64| -> Vec<f64> {
        xs.iter().map(|t| f(t) * 1e3).collect()
    };
    let (miss_ms, hit_ms) = (ms(&misses, |t| t.cal_s), ms(&hits, |t| t.cal_s));
    let busy_s: f64 = misses.iter().chain(&hits).map(|t| t.cal_s).sum();

    let summary = nego(&first.report)
        .and_then(|r| r.metrics.report.as_ref())
        .ok_or("the scenario has no negotiator run")?;
    out.set("setup_s", setup_s);
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("miss_p50_ms", median(&miss_ms));
    out.set("hit_p50_ms", median(&hit_ms));
    out.set("results_per_s", (misses.len() + hits.len()) as f64 / busy_s);
    out.set("epochs_per_s", median(&rates));
    out.set(
        "nego_fct_p99_us",
        summary.all.p99_ns.unwrap_or(f64::NAN) / 1e3,
    );
    out.set("nego_goodput_norm", summary.goodput.normalized());
    let (raw_miss_ms, raw_hit_ms) = (ms(&misses, |t| t.raw_s), ms(&hits, |t| t.raw_s));
    for (name, xs) in [
        ("miss_ms", &miss_ms),
        ("miss_ms on the wall clock", &raw_miss_ms),
        ("hit_ms", &hit_ms),
        ("hit_ms on the wall clock", &raw_hit_ms),
        ("epochs_per_s", &rates),
    ] {
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        out.note(format!(
            "{name}: n={} min={min:.3} quartiles={:.3?}",
            xs.len(),
            quartiles(xs)
        ));
    }
    out.note(format!(
        "timed window {:.2} s on the wall clock, {busy_s:.2} calibrated s of work; the reference kernel took {:.3} ms (nominal {NOMINAL_MS})",
        window.elapsed().as_secs_f64(),
        median(&kernel_ms)
    ));
    Ok(out)
}
