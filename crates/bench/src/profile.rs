//! Wall-clock stage profiling for the harness side.
//!
//! The engines are deterministic zones where wall-clock reads are banned
//! (lint D002), so profiling lives here: the harness wraps each pipeline
//! stage — scenario compile, engine execution (which internally covers
//! shard fan-out and merge), report rendering, cache traffic — in a
//! [`StageTimer`] and accumulates per-stage call counts and elapsed
//! nanoseconds into process-wide atomics. The daemon's `GET /metrics`
//! exports the totals as `paper_stage_seconds_total{stage=...}` /
//! `paper_stage_calls_total{stage=...}`; nothing here ever feeds result
//! documents, so determinism is untouched.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A profiled pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Scenario parse + compile (`scenario::compile`) and, as a call of
    /// its own before a miss's first engine, the synthesis of its flows.
    Compile,
    /// One engine simulation, including its shard fan-out and merge.
    Execute,
    /// Report assembly and JSON rendering.
    Render,
    /// Result-cache lookup (hit or miss).
    CacheLookup,
    /// Result-cache store (temp write + rename).
    CacheStore,
}

const STAGES: [Stage; 5] = [
    Stage::Compile,
    Stage::Execute,
    Stage::Render,
    Stage::CacheLookup,
    Stage::CacheStore,
];

impl Stage {
    /// The `stage` label value on exported metrics.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Compile => "compile",
            Stage::Execute => "execute",
            Stage::Render => "render",
            Stage::CacheLookup => "cache_lookup",
            Stage::CacheStore => "cache_store",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Compile => 0,
            Stage::Execute => 1,
            Stage::Render => 2,
            Stage::CacheLookup => 3,
            Stage::CacheStore => 4,
        }
    }
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static CALLS: [AtomicU64; 5] = [ZERO; 5];
static NANOS: [AtomicU64; 5] = [ZERO; 5];

/// Start timing one `stage` call. Stop it with [`StageTimer::stop`]; a
/// timer dropped without `stop` records nothing.
pub fn start(stage: Stage) -> StageTimer {
    StageTimer {
        stage,
        started: Instant::now(),
    }
}

/// A running stage timer (see [`start`]).
#[derive(Debug)]
pub struct StageTimer {
    stage: Stage,
    started: Instant,
}

impl StageTimer {
    /// Stop the timer, fold the elapsed time into the process-wide
    /// totals, and return it in seconds (callers reuse it for per-run
    /// wall-time reporting).
    pub fn stop(self) -> f64 {
        let elapsed = self.started.elapsed();
        let i = self.stage.index();
        CALLS[i].fetch_add(1, Ordering::Relaxed);
        NANOS[i].fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        elapsed.as_secs_f64()
    }
}

/// Cumulative totals of one stage since process start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageTotals {
    /// Metric label of the stage.
    pub stage: &'static str,
    /// Completed calls.
    pub calls: u64,
    /// Total elapsed seconds across those calls.
    pub seconds: f64,
}

/// Snapshot every stage's totals, in a fixed order.
pub fn snapshot() -> Vec<StageTotals> {
    STAGES
        .iter()
        .map(|&s| {
            let i = s.index();
            StageTotals {
                stage: s.label(),
                calls: CALLS[i].load(Ordering::Relaxed),
                seconds: NANOS[i].load(Ordering::Relaxed) as f64 / 1e9,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stop_accumulates_calls_and_time() {
        let before = snapshot();
        let t = start(Stage::Render);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let secs = t.stop();
        assert!(secs > 0.0);
        let after = snapshot();
        let b = before.iter().find(|s| s.stage == "render").unwrap();
        let a = after.iter().find(|s| s.stage == "render").unwrap();
        assert_eq!(a.calls, b.calls + 1);
        assert!(a.seconds > b.seconds);
    }

    #[test]
    fn dropped_timer_records_nothing() {
        let before = snapshot();
        let _ = start(Stage::Compile);
        let after = snapshot();
        let b = before.iter().find(|s| s.stage == "compile").unwrap();
        let a = after.iter().find(|s| s.stage == "compile").unwrap();
        assert_eq!(a.calls, b.calls);
    }

    #[test]
    fn snapshot_covers_every_stage_once() {
        let snap = snapshot();
        let labels: Vec<&str> = snap.iter().map(|s| s.stage).collect();
        assert_eq!(
            labels,
            vec![
                "compile",
                "execute",
                "render",
                "cache_lookup",
                "cache_store"
            ]
        );
    }
}
