//! The benchmark's vocabulary: workload names and every metric the harness
//! prints, with its unit. `BENCHMARK.json` at the repo root lists the same
//! names; a unit test keeps the two in step.

/// A metric's name and unit, as printed and as listed in `BENCHMARK.json`.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

pub const SERVE_MIXED: &str = "serve_mixed";

pub const WORKLOADS: &[&str] = &[
    "paper_heavy",
    "fabric_light",
    "alltoall_dense",
    "incast_storm",
    SERVE_MIXED,
];

/// Measured with tracing off; every workload produces every one of them.
/// `sim_us` is simulated time, everything else is host time or a count.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("peak_rss_mb", "MB"),
    m("miss_p50_ms", "ms"),
    m("hit_p50_ms", "ms"),
    m("results_per_s", "1/s"),
    m("epochs_per_s", "1/s"),
    m("nego_fct_p99_us", "sim_us"),
    m("nego_goodput_norm", "ratio"),
];

/// Measured in the traced run, from spans around calls into each layer.
/// A layer the workload does not run reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("workload.synth_s", "s"),
    m("workload.flows", "count"),
    m("workload.flows_per_s", "1/s"),
    m("topology.build_s", "s"),
    m("topology.predefined_conns", "count"),
    m("scenario.parse_s", "s"),
    m("scenario.compile_s", "s"),
    m("scenario.hash_s", "s"),
    m("scenario.bytes_in", "count"),
    m("negotiator.construct_s", "s"),
    m("negotiator.state_mb", "MB"),
    m("negotiator.run_s", "s"),
    m("negotiator.us_per_epoch", "us"),
    m("negotiator.ns_per_flow", "ns"),
    m("negotiator.requests_sent", "count"),
    m("negotiator.grants_issued", "count"),
    m("negotiator.accepts_made", "count"),
    m("negotiator.match_ratio", "ratio"),
    m("negotiator.scheduled_packets", "count"),
    m("negotiator.piggyback_packets", "count"),
    m("negotiator.piggyback_share", "ratio"),
    m("negotiator.overscheduled_slots", "count"),
    m("negotiator.unmatched_slots", "count"),
    m("negotiator.scheduled_utilization", "ratio"),
    m("negotiator.lost_packets", "count"),
    m("negotiator.mice_fct_p99_us", "sim_us"),
    m("negotiator.run_w2_s", "s"),
    m("oblivious.construct_s", "s"),
    m("oblivious.run_s", "s"),
    m("oblivious.us_per_epoch", "us"),
    m("oblivious.ns_per_flow", "ns"),
    m("oblivious.fct_p99_us", "sim_us"),
    m("oblivious.mice_fct_p99_us", "sim_us"),
    m("oblivious.run_w2_s", "s"),
    m("sim.shard_speedup", "ratio"),
    m("sim.pool_roundtrip_us", "us"),
    m("metrics.render_s", "s"),
    m("metrics.parse_s", "s"),
    m("metrics.doc_bytes", "count"),
    m("metrics.recorder_overhead", "ratio"),
    m("metrics.trace_events", "count"),
    m("metrics.trace_dropped", "count"),
    m("metrics.trace_render_s", "s"),
    m("bench.run_self_s", "s"),
    m("bench.cache_store_s", "s"),
    m("bench.cache_hit_s", "s"),
    m("bench.cache_miss_s", "s"),
    m("service.http_rtt_ms", "ms"),
    m("service.first_progress_p50_ms", "ms"),
    m("service.stage_execute_ms", "ms"),
    m("service.stage_cache_lookup_ms", "ms"),
    m("service.stage_cache_store_ms", "ms"),
    m("service.pool_utilization", "ratio"),
    m("service.miss_self_ms", "ms"),
    m("service.hit_self_ms", "ms"),
    m("service.miss_tail_ms", "ms"),
    m("service.miss_tail_pct", "%"),
    m("service.hit_tail_ms", "ms"),
    m("service.hit_tail_pct", "%"),
    m("service.hits", "count"),
    m("service.misses", "count"),
    m("service.coalesced", "count"),
    m("service.failed", "count"),
    m("service.http_requests", "count"),
    m("trace.overhead_ratio", "ratio"),
    m("trace.spans", "count"),
];

/// Values gathered during a run, keyed by metric name.
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "'{name}' is not a metric of this benchmark"
        );
        assert!(self.get(name).is_none(), "'{name}' set twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The value of every metric of `defs`, in table order. An end-to-end
    /// metric must have been measured; a per-layer metric of a layer the
    /// workload does not run reads 0.
    pub fn in_order(
        &self,
        defs: &'static [MetricDef],
        required: bool,
    ) -> Vec<(&'static MetricDef, f64)> {
        defs.iter()
            .map(|d| match self.get(d.name) {
                Some(v) => (d, v),
                None if required => panic!("'{}' was not measured", d.name),
                None => (d, 0.0),
            })
            .collect()
    }
}
