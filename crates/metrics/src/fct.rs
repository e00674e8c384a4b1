//! Flow-completion tracking and run-level reports.

use sim::stats::Cdf;
use sim::time::Nanos;
use workload::{Flow, FlowTrace};

/// Tracks outstanding bytes and completion times for every flow in a trace.
///
/// The simulators call [`FlowTracker::deliver`] whenever payload bytes for a
/// flow arrive at the destination ToR; completion is the delivery time of
/// the flow's last byte, and FCT is measured from the flow's arrival at the
/// source ToR (§4.1: "marking the start and end of flows at the ToRs").
///
/// It keeps 16 B a flow: the bytes still to deliver and the completion
/// time (`Nanos::MAX` until the last byte lands). A flow's arrival and size
/// are the trace's, which every caller holds: [`FlowTracker::fct`] takes
/// the [`Flow`] to read its arrival.
#[derive(Debug, Clone)]
pub struct FlowTracker {
    remaining: Vec<u64>,
    completions: Vec<Nanos>,
    delivered_payload: u64,
    n_completed: usize,
}

/// A flow's completion slot before its last byte is delivered. Not 0: a
/// flow can complete at t = 0.
const NOT_DONE: Nanos = Nanos::MAX;

impl FlowTracker {
    /// Tracker for every flow in `trace`.
    pub fn new(trace: &FlowTrace) -> Self {
        FlowTracker {
            remaining: trace.flows().iter().map(|f| f.bytes).collect(),
            completions: vec![NOT_DONE; trace.len()],
            delivered_payload: 0,
            n_completed: 0,
        }
    }

    /// Record `bytes` of flow `id` arriving at the destination at `now`.
    /// Returns `true` if this delivery completed the flow. Over-delivery
    /// panics — it would mean the scheduler duplicated data.
    pub fn deliver(&mut self, id: u64, bytes: u64, now: Nanos) -> bool {
        let i = id as usize;
        assert!(
            self.remaining[i] >= bytes,
            "flow {id} over-delivered: {} remaining, {bytes} arriving",
            self.remaining[i]
        );
        self.remaining[i] -= bytes;
        self.delivered_payload += bytes;
        if self.remaining[i] == 0 && self.completions[i] == NOT_DONE {
            self.completions[i] = now;
            self.n_completed += 1;
            true
        } else {
            false
        }
    }

    /// Completion time of flow `id`, if it finished.
    pub fn completion(&self, id: u64) -> Option<Nanos> {
        let done = self.completions[id as usize];
        (done != NOT_DONE).then_some(done)
    }

    /// FCT of `flow`, if it finished.
    pub fn fct(&self, flow: &Flow) -> Option<Nanos> {
        self.completion(flow.id).map(|c| c - flow.arrival)
    }

    /// Bytes of flow `id` not yet delivered.
    pub fn remaining(&self, id: u64) -> u64 {
        self.remaining[id as usize]
    }

    /// Total payload bytes delivered so far.
    pub fn delivered_payload(&self) -> u64 {
        self.delivered_payload
    }

    /// Number of completed flows.
    pub fn completed_count(&self) -> usize {
        self.n_completed
    }

    /// Number of tracked flows.
    pub fn len(&self) -> usize {
        self.remaining.len()
    }

    /// True when the tracker has no flows.
    pub fn is_empty(&self) -> bool {
        self.remaining.is_empty()
    }
}

/// FCT statistics over one class of flows.
#[derive(Debug, Clone, PartialEq)]
pub struct FctReport {
    /// Full FCT distribution in nanoseconds.
    pub cdf: Cdf,
    /// Flows in the class that completed.
    pub completed: usize,
    /// Flows in the class overall.
    pub total: usize,
}

impl FctReport {
    /// 99th-percentile FCT in ns (0 when no flow completed).
    pub fn p99_ns(&mut self) -> f64 {
        self.cdf.percentile(99.0).unwrap_or(0.0)
    }

    /// Mean FCT in ns.
    pub fn mean_ns(&self) -> f64 {
        self.cdf.mean()
    }

    /// Fraction of the class that completed within the run.
    pub fn completion_rate(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.completed as f64 / self.total as f64
        }
    }

    /// Condense into the scalar summary the JSON emit carries. Unlike the
    /// report itself, the summary holds no per-flow samples, so it is
    /// cheap to keep for hundreds of runs of a sweep.
    pub fn summary(&mut self) -> FctSummary {
        FctSummary {
            p50_ns: self.cdf.percentile(50.0),
            p99_ns: self.cdf.percentile(99.0),
            mean_ns: if self.cdf.is_empty() {
                None
            } else {
                Some(self.mean_ns())
            },
            completed: self.completed,
            total: self.total,
        }
    }

    /// Machine-readable form: percentiles, mean and completion counts.
    pub fn to_json(&mut self) -> crate::Json {
        self.summary().to_json()
    }
}

/// The scalar digest of an [`FctReport`] (no sample vectors).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FctSummary {
    /// Median FCT in ns (`None` when no flow completed).
    pub p50_ns: Option<f64>,
    /// 99th-percentile FCT in ns (`None` when no flow completed).
    pub p99_ns: Option<f64>,
    /// Mean FCT in ns (`None` when no flow completed).
    pub mean_ns: Option<f64>,
    /// Flows in the class that completed.
    pub completed: usize,
    /// Flows in the class overall.
    pub total: usize,
}

impl FctSummary {
    /// Machine-readable form: percentiles, mean and completion counts.
    pub fn to_json(&self) -> crate::Json {
        let mut obj = crate::Json::object();
        obj.push("p50_ns", self.p50_ns)
            .push("p99_ns", self.p99_ns)
            .push("mean_ns", self.mean_ns)
            .push("completed", self.completed as u64)
            .push("total", self.total as u64);
        obj
    }
}

/// Goodput over a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GoodputReport {
    /// Payload bytes delivered to destination ToRs.
    pub delivered_bytes: u64,
    /// Measurement window in ns.
    pub duration: Nanos,
    /// Number of ToRs.
    pub n_tors: usize,
    /// Host-aggregate bandwidth per ToR in bits/s (normalization basis).
    pub host_bps: u64,
}

impl GoodputReport {
    /// Average per-ToR received goodput in Gbps.
    pub fn per_tor_gbps(&self) -> f64 {
        if self.duration == 0 {
            return 0.0;
        }
        (self.delivered_bytes * 8) as f64 / self.duration as f64 / self.n_tors as f64
    }

    /// Goodput normalized to the host aggregate (§4.1; 1.0 = every ToR
    /// receives at the full 400 Gbps host rate).
    pub fn normalized(&self) -> f64 {
        self.per_tor_gbps() * 1e9 / self.host_bps as f64
    }

    /// Machine-readable form: raw bytes plus the derived rates.
    pub fn to_json(&self) -> crate::Json {
        let mut obj = crate::Json::object();
        obj.push("delivered_bytes", self.delivered_bytes)
            .push("duration_ns", self.duration)
            .push("per_tor_gbps", self.per_tor_gbps())
            .push("normalized", self.normalized());
        obj
    }
}

/// Everything a simulator run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// FCT of mice flows (< 10 KB).
    pub mice: FctReport,
    /// FCT of all flows.
    pub all: FctReport,
    /// Goodput over the run.
    pub goodput: GoodputReport,
}

impl RunReport {
    /// Build a report from the trace and its tracker.
    ///
    /// `subset` optionally restricts FCT statistics to tagged flows (used
    /// by Figure 13(a) to separate background from incast flows); goodput
    /// always covers everything delivered.
    pub fn build(
        trace: &FlowTrace,
        tracker: &FlowTracker,
        duration: Nanos,
        n_tors: usize,
        host_bps: u64,
        subset: Option<&[bool]>,
    ) -> Self {
        let mut mice = FctReport {
            cdf: Cdf::new(),
            completed: 0,
            total: 0,
        };
        let mut all = FctReport {
            cdf: Cdf::new(),
            completed: 0,
            total: 0,
        };
        for f in trace.flows() {
            if let Some(tags) = subset {
                if !tags[f.id as usize] {
                    continue;
                }
            }
            all.total += 1;
            if f.is_mice() {
                mice.total += 1;
            }
            if let Some(fct) = tracker.fct(f) {
                all.completed += 1;
                all.cdf.record(fct as f64);
                if f.is_mice() {
                    mice.completed += 1;
                    mice.cdf.record(fct as f64);
                }
            }
        }
        RunReport {
            mice,
            all,
            goodput: GoodputReport {
                delivered_bytes: tracker.delivered_payload(),
                duration,
                n_tors,
                host_bps,
            },
        }
    }

    /// Condense into the scalar digest the sweep engine retains per run
    /// (full reports hold one sample per flow; summaries are a few words).
    pub fn summary(&mut self) -> RunSummary {
        RunSummary {
            mice: self.mice.summary(),
            all: self.all.summary(),
            goodput: self.goodput,
        }
    }

    /// Machine-readable form of the whole report (schema: `mice`/`all`
    /// FCT summaries + `goodput`), used by the sweep engine's JSON emit.
    pub fn to_json(&mut self) -> crate::Json {
        self.summary().to_json()
    }

    /// Finish time of a synchronized burst: latest completion among the
    /// flows, relative to their common arrival. `None` unless every flow
    /// completed (an unfinished incast has no finish time).
    pub fn burst_finish_time(trace: &FlowTrace, tracker: &FlowTracker) -> Option<Nanos> {
        let mut latest = 0;
        for f in trace.flows() {
            let done = tracker.completion(f.id)?;
            latest = latest.max(done - f.arrival);
        }
        Some(latest)
    }
}

/// The scalar digest of a [`RunReport`]: FCT summaries for both flow
/// classes plus the goodput figures, with no per-flow sample vectors —
/// what a sweep keeps per run and what the JSON emit reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSummary {
    /// Digest of mice-flow (< 10 KB) FCT.
    pub mice: FctSummary,
    /// Digest of all-flow FCT.
    pub all: FctSummary,
    /// Goodput over the run.
    pub goodput: GoodputReport,
}

impl RunSummary {
    /// Machine-readable form (same shape as [`RunReport::to_json`]).
    pub fn to_json(&self) -> crate::Json {
        let mut obj = crate::Json::object();
        obj.push("mice", self.mice.to_json())
            .push("all", self.all.to_json())
            .push("goodput", self.goodput.to_json());
        obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> FlowTrace {
        FlowTrace::new(vec![
            Flow {
                id: 0,
                src: 0,
                dst: 1,
                bytes: 1_000,
                arrival: 100,
            },
            Flow {
                id: 1,
                src: 2,
                dst: 1,
                bytes: 50_000,
                arrival: 200,
            },
        ])
    }

    #[test]
    fn delivery_completes_flows() {
        let t = trace();
        let mut tr = FlowTracker::new(&t);
        assert!(!tr.deliver(0, 500, 150));
        assert!(tr.deliver(0, 500, 300));
        assert_eq!(tr.fct(&t.flows()[0]), Some(200));
        assert_eq!(tr.completed_count(), 1);
        assert_eq!(tr.remaining(1), 50_000);
        assert_eq!(tr.delivered_payload(), 1_000);
    }

    #[test]
    fn completion_at_time_zero_is_a_completion() {
        let t = FlowTrace::new(vec![Flow {
            id: 0,
            src: 0,
            dst: 1,
            bytes: 1_000,
            arrival: 0,
        }]);
        let mut tr = FlowTracker::new(&t);
        assert_eq!(
            tr.completion(0),
            None,
            "an unfinished flow has no completion"
        );
        assert_eq!(tr.fct(&t.flows()[0]), None);
        assert!(tr.deliver(0, 1_000, 0));
        assert_eq!(tr.completion(0), Some(0));
        assert_eq!(tr.fct(&t.flows()[0]), Some(0));
        assert_eq!(tr.completed_count(), 1);
    }

    #[test]
    #[should_panic(expected = "over-delivered")]
    fn over_delivery_is_a_bug() {
        let t = trace();
        let mut tr = FlowTracker::new(&t);
        tr.deliver(0, 1_001, 150);
    }

    #[test]
    fn report_splits_mice_and_all() {
        let t = trace();
        let mut tr = FlowTracker::new(&t);
        tr.deliver(0, 1_000, 1_100); // mice, FCT 1000
        tr.deliver(1, 50_000, 10_200); // elephant, FCT 10000
        let mut r = RunReport::build(&t, &tr, 20_000, 2, 400_000_000_000, None);
        assert_eq!(r.mice.total, 1);
        assert_eq!(r.all.total, 2);
        assert_eq!(r.mice.p99_ns(), 1_000.0);
        assert_eq!(r.all.cdf.len(), 2);
        assert_eq!(r.mice.completion_rate(), 1.0);
    }

    #[test]
    fn goodput_math() {
        // 2 ToRs, 1 µs, 25_000 B delivered => 200_000 bits / 1_000 ns / 2
        // = 100 Gbps per ToR; normalized to 400 Gbps = 0.25.
        let g = GoodputReport {
            delivered_bytes: 25_000,
            duration: 1_000,
            n_tors: 2,
            host_bps: 400_000_000_000,
        };
        assert_eq!(g.per_tor_gbps(), 100.0);
        assert_eq!(g.normalized(), 0.25);
    }

    #[test]
    fn subset_restricts_fct_but_not_goodput() {
        let t = trace();
        let mut tr = FlowTracker::new(&t);
        tr.deliver(0, 1_000, 1_100);
        tr.deliver(1, 50_000, 10_200);
        let tags = vec![true, false];
        let r = RunReport::build(&t, &tr, 20_000, 2, 400_000_000_000, Some(&tags));
        assert_eq!(r.all.total, 1);
        assert_eq!(r.goodput.delivered_bytes, 51_000);
    }

    #[test]
    fn report_serializes() {
        let t = trace();
        let mut tr = FlowTracker::new(&t);
        tr.deliver(0, 1_000, 1_100);
        tr.deliver(1, 50_000, 10_200);
        let mut r = RunReport::build(&t, &tr, 20_000, 2, 400_000_000_000, None);
        let j = r.to_json();
        let mice = j.get("mice").unwrap();
        assert_eq!(mice.get("p99_ns").unwrap().as_f64(), Some(1_000.0));
        assert_eq!(mice.get("total").unwrap().as_f64(), Some(1.0));
        let gp = j.get("goodput").unwrap();
        assert_eq!(gp.get("delivered_bytes").unwrap().as_f64(), Some(51_000.0));
        // Empty classes serialize as nulls, not NaNs.
        let mut empty = RunReport::build(&t, &FlowTracker::new(&t), 20_000, 2, 1, None);
        assert_eq!(
            empty.to_json().get("mice").unwrap().get("p99_ns"),
            Some(&crate::Json::Null)
        );
    }

    #[test]
    fn burst_finish_requires_all_completions() {
        let t = trace();
        let mut tr = FlowTracker::new(&t);
        tr.deliver(0, 1_000, 1_100);
        assert_eq!(RunReport::burst_finish_time(&t, &tr), None);
        tr.deliver(1, 50_000, 10_200);
        assert_eq!(RunReport::burst_finish_time(&t, &tr), Some(10_000));
    }
}
