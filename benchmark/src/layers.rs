//! The traced run: one cold pass with a span around every call the pass
//! makes, then probes that call each layer's public functions directly,
//! with the workload's own parameters, for the numbers the pass cannot
//! split (construct vs run, scheduler counts, two shard workers, the
//! flight recorder, the cache and the pool on their own).

use std::time::Instant;

use bench::cache::ResultCache;
use bench::scenario::{
    compile, deterministic_document, execute_with_progress, parse_scenario, CompiledScenario,
    WorkloadPhase,
};
use metrics::{FlightRecorder, Json, PhaseProbe, RunSummary, DEFAULT_TRACE_CAPACITY};
use negotiator::stats::SchedStats;
use negotiator::{NegotiatorConfig, NegotiatorSim, SimOptions};
use oblivious::{ObliviousConfig, ObliviousSim};
use scenario::EngineKind;
use sim::pool::WorkerPool;
use topology::{AnyTopology, PredefinedCache};
use workload::{AllToAllWorkload, IncastWorkload, PoissonWorkload, WorkloadSpec};

use crate::harness::{cold_child, origin, Ctx, Outcome, Scratch, Template};
use crate::offline::{self, nego, oblv, Made};
use crate::span::Spans;
use crate::stats::{median, rss_mb};

/// The pass of `offline::pass`, with a span around each call it makes and
/// one per engine inside `execute_with_progress`.
fn traced_pass(text: &str, spans: &mut Spans) -> Result<(Made, f64), String> {
    let (result, secs) = spans.time("pass", |spans| -> Result<Made, String> {
        let (spec, _) = spans.time("scenario.parse", |_| parse_scenario(text));
        let (compiled, _) = spans.time("scenario.compile", |_| compile(spec?, origin()));
        let compiled = compiled?;
        let (report, _) = spans.time("bench.run", |spans| {
            let start = spans.clock_ns();
            let report = execute_with_progress(&compiled, None, 1);
            // `bench` times each engine closure itself and runs them back
            // to back from the start of the call: lay their spans out so.
            let mut at = start;
            for r in &report.results {
                let name = if r.meta.system.starts_with("nego") {
                    "negotiator.engine"
                } else {
                    "oblivious.engine"
                };
                let end = at + (r.wall_secs * 1e9) as u64;
                spans.add_closed(name, at, end);
                at = end;
            }
            report
        });
        let (doc, _) = spans.time("metrics.render", |_| deterministic_document(&report));
        Ok(Made {
            compiled,
            report,
            doc,
        })
    });
    Ok((result?, secs))
}

/// Regenerate the scenario's flows by calling the generators directly, the
/// way `scenario::compile` does. Returns the flow count.
fn synthesize(c: &CompiledScenario) -> usize {
    let net = &c.spec.net;
    let mut flows = 0;
    for (i, phase) in c.spec.phases.iter().enumerate() {
        let start = phase.start_epoch * c.epoch_len;
        let end = phase.end_epoch * c.epoch_len;
        let seed = c.spec.seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        flows += match &phase.workload {
            WorkloadPhase::Poisson { dist, load } => PoissonWorkload::new(WorkloadSpec {
                dist: dist.clone(),
                load: *load,
                n_tors: net.n_tors,
                host_bps: net.host_bandwidth.bps(),
            })
            .generate(end - start, seed)
            .len(),
            WorkloadPhase::Incast {
                degree,
                flow_bytes,
                every_epochs,
            } => {
                let step = every_epochs.map_or(end - start, |e| e * c.epoch_len);
                (start..end)
                    .step_by(step as usize)
                    .enumerate()
                    .map(|(burst, at)| {
                        IncastWorkload {
                            degree: *degree,
                            flow_bytes: *flow_bytes,
                            n_tors: net.n_tors,
                            start: at,
                        }
                        .generate(seed.wrapping_add(burst as u64))
                        .len()
                    })
                    .sum()
            }
            WorkloadPhase::AllToAll { flow_bytes } => AllToAllWorkload {
                flow_bytes: *flow_bytes,
                n_tors: net.n_tors,
                start,
            }
            .generate()
            .len(),
            WorkloadPhase::Trace { .. } => 0,
        };
    }
    flows
}

struct NegoProbe {
    construct_s: f64,
    run_s: f64,
    state_mb: f64,
    stats: SchedStats,
    summary: RunSummary,
    recorder: Option<FlightRecorder>,
}

/// Build and run the negotiator the way `scenario::runner` does, timing
/// construction and the run apart. `record` attaches the flight recorder.
fn probe_negotiator(c: &CompiledScenario, record: bool, spans: &mut Spans) -> NegoProbe {
    let rss_before = rss_mb();
    let (mut sim, construct_s) = spans.time("negotiator.construct", |_| {
        let mut cfg = NegotiatorConfig::paper_default(c.spec.net.clone());
        cfg.seed = c.spec.seed ^ 0xDC0C_0FFE;
        let opts = SimOptions {
            mode: c.spec.mode,
            ..SimOptions::default()
        };
        let mut sim = NegotiatorSim::with_options(cfg, c.spec.topology, opts);
        sim.set_phase_probe(PhaseProbe::new(c.boundaries.clone()));
        if record {
            sim.set_recorder(FlightRecorder::with_capacity(
                DEFAULT_TRACE_CAPACITY,
                c.spec.net.n_tors,
            ));
        }
        sim
    });
    let (mut report, run_s) = spans.time("negotiator.run", |_| sim.run(&c.trace, c.duration));
    NegoProbe {
        construct_s,
        run_s,
        state_mb: rss_mb() - rss_before,
        stats: *sim.stats(),
        summary: report.summary(),
        recorder: sim.take_recorder(),
    }
}

/// The same for the oblivious engine: `(construct_s, run_s, summary)`.
fn probe_oblivious(c: &CompiledScenario, spans: &mut Spans) -> (f64, f64, RunSummary) {
    let (mut sim, construct_s) = spans.time("oblivious.construct", |_| {
        let mut cfg = ObliviousConfig::paper_default(c.spec.net.clone());
        cfg.seed = c.spec.seed ^ 0xDC0C_0FFE;
        let mut sim = ObliviousSim::new(cfg, c.spec.topology);
        sim.set_phase_probe(PhaseProbe::new(c.boundaries.clone()));
        sim
    });
    let (mut report, run_s) = spans.time("oblivious.run", |_| sim.run(&c.trace, c.duration));
    (construct_s, run_s, report.summary())
}

/// Median seconds of `f` over five calls: the single calls timed here take
/// microseconds to milliseconds.
fn median_of_5(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// The traced pass and every probe for the template's scenario at `seed`;
/// fills the per-layer metrics of every layer but `service`.
pub fn run(
    ctx: &Ctx,
    template: &Template,
    seed: u64,
    spans: &mut Spans,
    out: &mut Outcome,
) -> Result<(), String> {
    let text = &template.text(seed);
    let (pass, traced_s) = traced_pass(text, spans)?;
    let c = &pass.compiled;
    let faults = offline::conservation_faults(c, &pass.report);
    out.check(faults.is_empty(), || faults.join("; "));
    let epochs = c.spec.total_epochs() as f64;
    let flows = c.trace.len() as f64;
    let has = |engine: EngineKind| c.spec.engines.contains(&engine);

    spans.next_pass();
    let scratch = Scratch::new(ctx, "probes")?;
    spans
        .time("probes", |spans| -> Result<(), String> {
            let (made, synth_s) = spans.time("workload.synth", |_| synthesize(c));
            out.check(made == c.trace.len(), || {
                format!(
                    "direct generator calls made {made} flows, the compiled scenario has {}",
                    c.trace.len()
                )
            });
            let (conns, build_s) = spans.time("topology.build", |_| {
                let topo = AnyTopology::build(c.spec.topology, c.spec.net.clone());
                let cache = PredefinedCache::build(&topo);
                (0..cache.rotation_period() as u64)
                    .flat_map(|rot| (0..cache.slots()).map(move |slot| (rot, slot)))
                    .map(|(rot, slot)| cache.slot_conns(rot, slot).len())
                    .sum::<usize>()
            });
            let (_, hash_s) = spans.time("scenario.hash", |_| {
                c.spec
                    .engines
                    .iter()
                    .fold(c.content_hash(), |h, &e| h ^ c.run_hash(e))
            });
            out.set("workload.synth_s", synth_s);
            out.set("workload.flows", made as f64);
            out.set("workload.flows_per_s", made as f64 / synth_s);
            out.set("topology.build_s", build_s);
            out.set("topology.predefined_conns", conns as f64);
            out.set(
                "scenario.parse_s",
                spans.seconds_of("scenario.parse").unwrap_or(0.0),
            );
            out.set(
                "scenario.compile_s",
                spans.seconds_of("scenario.compile").unwrap_or(0.0),
            );
            out.set("scenario.hash_s", hash_s);
            out.set("scenario.bytes_in", text.len() as f64);

            // Engines, called directly. Each must reach the result the pass
            // printed, or the probe is measuring something else.
            let mut w1_s = 0.0;
            if has(EngineKind::Negotiator) {
                let p = spans
                    .time("negotiator", |spans| probe_negotiator(c, false, spans))
                    .0;
                out.check(
                    nego(&pass.report).and_then(|r| r.metrics.report) == Some(p.summary),
                    || "the negotiator called directly disagrees with the pass".to_string(),
                );
                w1_s += p.construct_s + p.run_s;
                let s = &p.stats;
                out.set("negotiator.construct_s", p.construct_s);
                out.set("negotiator.state_mb", p.state_mb);
                out.set("negotiator.run_s", p.run_s);
                out.set("negotiator.us_per_epoch", p.run_s * 1e6 / epochs);
                out.set("negotiator.ns_per_flow", p.run_s * 1e9 / flows);
                out.set("negotiator.requests_sent", s.requests_sent as f64);
                out.set("negotiator.grants_issued", s.grants_issued as f64);
                out.set("negotiator.accepts_made", s.accepts_made as f64);
                out.set(
                    "negotiator.match_ratio",
                    s.accepts_made as f64 / (s.grants_issued as f64).max(1.0),
                );
                out.set("negotiator.scheduled_packets", s.scheduled_packets as f64);
                out.set("negotiator.piggyback_packets", s.piggyback_packets as f64);
                out.set("negotiator.piggyback_share", s.piggyback_share());
                out.set(
                    "negotiator.overscheduled_slots",
                    s.overscheduled_slots as f64,
                );
                out.set("negotiator.unmatched_slots", s.unmatched_slots as f64);
                out.set(
                    "negotiator.scheduled_utilization",
                    s.scheduled_utilization(),
                );
                out.set("negotiator.lost_packets", s.lost_packets as f64);
                out.set(
                    "negotiator.mice_fct_p99_us",
                    p.summary.mice.p99_ns.unwrap_or(0.0) / 1e3,
                );

                // Once more with the flight recorder on: what recording costs.
                let rec = spans
                    .time("negotiator.recorded", |spans| {
                        probe_negotiator(c, true, spans)
                    })
                    .0;
                out.check(rec.summary == p.summary && rec.stats == p.stats, || {
                    "attaching the flight recorder changed the negotiator's result".to_string()
                });
                let recorder = rec.recorder.ok_or("the recorder was not handed back")?;
                let (ndjson, render_s) = spans.time("metrics.trace_render", |_| {
                    recorder.render_ndjson("nego/probe")
                });
                out.set("metrics.recorder_overhead", rec.run_s / p.run_s - 1.0);
                out.set("metrics.trace_events", recorder.len() as f64);
                out.set("metrics.trace_dropped", recorder.dropped() as f64);
                out.set("metrics.trace_render_s", render_s);
                out.check(ndjson.lines().count() >= recorder.len(), || {
                    "the trace lost events in rendering".to_string()
                });
            }
            if has(EngineKind::Oblivious) {
                let (construct_s, run_s, summary) =
                    spans.time("oblivious", |spans| probe_oblivious(c, spans)).0;
                out.check(
                    oblv(&pass.report).and_then(|r| r.metrics.report) == Some(summary),
                    || "the oblivious engine called directly disagrees with the pass".to_string(),
                );
                w1_s += construct_s + run_s;
                out.set("oblivious.construct_s", construct_s);
                out.set("oblivious.run_s", run_s);
                out.set("oblivious.us_per_epoch", run_s * 1e6 / epochs);
                out.set("oblivious.ns_per_flow", run_s * 1e9 / flows);
                out.set(
                    "oblivious.fct_p99_us",
                    summary.all.p99_ns.unwrap_or(0.0) / 1e3,
                );
                out.set(
                    "oblivious.mice_fct_p99_us",
                    summary.mice.p99_ns.unwrap_or(0.0) / 1e3,
                );
            }

            // Two shard workers: same bytes, and how long each engine takes.
            let (sharded, _) = spans.time("sim.workers2", |_| execute_with_progress(c, None, 2));
            out.check(deterministic_document(&sharded) == pass.doc, || {
                "the workers-2 document differs from the workers-1 document".to_string()
            });
            for (name, run) in [
                ("negotiator.run_w2_s", nego(&sharded)),
                ("oblivious.run_w2_s", oblv(&sharded)),
            ] {
                out.set(name, run.map_or(0.0, |r| r.wall_secs));
            }
            out.set("sim.shard_speedup", w1_s / sharded.runs_wall_secs());
            let pool = WorkerPool::new(1);
            let roundtrips: Vec<f64> = (0..200)
                .map(|_| {
                    let t = Instant::now();
                    pool.submit(0, || ()).and_then(|job| job.wait());
                    t.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            out.set("sim.pool_roundtrip_us", median(&roundtrips));

            out.set(
                "metrics.render_s",
                spans.seconds_of("metrics.render").unwrap_or(0.0),
            );
            out.set("metrics.doc_bytes", pass.doc.len() as f64);
            let (parsed, parse_s) = spans.time("metrics.parse", |_| Json::parse(&pass.doc));
            out.set("metrics.parse_s", parse_s);
            out.check(parsed.is_ok(), || {
                "the result document does not parse".to_string()
            });

            out.set(
                "bench.run_self_s",
                spans.self_seconds_of("bench.run").unwrap_or(0.0),
            );
            let cache = ResultCache::new(scratch.path().join("probe-cache"));
            let hash = c.content_hash();
            let (stored, _) = spans.time("bench.cache", |_| -> Result<[f64; 3], String> {
                offline::store(&cache, &pass)?;
                Ok([
                    median_of_5(|| drop(offline::store(&cache, &pass))),
                    median_of_5(|| drop(cache.lookup(hash))),
                    median_of_5(|| drop(cache.lookup(!hash))),
                ])
            });
            let [store_s, hit_s, miss_s] = stored?;
            out.set("bench.cache_store_s", store_s);
            out.set("bench.cache_hit_s", hit_s);
            out.set("bench.cache_miss_s", miss_s);
            out.check(cache.stats() == (5, 5), || {
                format!(
                    "cache counters read {:?} after 5 hits and 5 misses",
                    cache.stats()
                )
            });
            Ok(())
        })
        .0?;

    // Tracing overhead: this pass against the same pass, untraced, in a
    // fresh process. Both are cold.
    let untraced = cold_child(ctx, Some(seed))?;
    out.set("trace.overhead_ratio", traced_s / untraced.raw_s);
    out.note(format!(
        "traced pass {traced_s:.4} s vs untraced cold pass {:.4} s in a fresh process, both on the wall clock",
        untraced.raw_s
    ));
    Ok(())
}
