#![warn(missing_docs)]

//! Measurement for the NegotiaToR evaluation.
//!
//! The paper reports (§4.1): 99th-percentile and average mice-flow FCT
//! (flows < 10 KB), goodput normalized to the 400 Gbps host aggregate,
//! per-epoch match ratio (Appendix A.1), receiver bandwidth time-series
//! (Appendix A.3/A.4) and incast finish times (§4.2). This crate implements
//! the recorders the simulators feed and the [`RunReport`] the harness
//! consumes:
//!
//! * [`FlowTracker`] — per-flow outstanding bytes and completion times,
//!   measured at the ToRs (flows start and end at ToRs, §4.1).
//! * [`FctReport`] / [`RunReport`] — derived statistics.
//! * [`matchratio::MatchRatioRecorder`] — accepts/grants per epoch.
//! * [`report`] — plain-text table rendering for the experiment harness.
//! * [`json`] — a dependency-free JSON writer/parser so sweep results are
//!   machine-readable (`results/<id>.json`, pinned byte for byte) and
//!   scenario files are loadable with `line:column` error reporting.
//! * [`frame`] — the run loop and per-run state both engines share.
//! * [`phase`] — phase-boundary counter snapshots feeding the scenario
//!   engine's per-phase time series.
//! * [`trace`] — the deterministic flight recorder: a bounded ring of
//!   epoch-stamped structured events both engines can emit, exported as
//!   NDJSON for `paper scenario --trace` and the daemon's trace endpoint.

pub mod fct;
pub mod frame;
pub mod json;
pub mod matchratio;
pub mod phase;
pub mod report;
pub mod trace;

pub use fct::{FctReport, FctSummary, FlowTracker, GoodputReport, RunReport, RunSummary};
pub use frame::{EpochEngine, RunFrame};
pub use json::{Json, SpannedJson};
pub use matchratio::MatchRatioRecorder;
pub use phase::{PhaseCounters, PhaseObserver, PhaseProbe, PhaseSnapshot};
pub use report::Table;
pub use trace::{
    FlightRecorder, FlowSpans, TraceCursor, TraceEvent, TraceEventKind, DEFAULT_TRACE_CAPACITY,
    TRACE_SCHEMA_VERSION,
};
