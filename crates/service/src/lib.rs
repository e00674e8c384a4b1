#![warn(missing_docs)]

//! The scenario-serving subsystem: a long-running daemon in front of the
//! deterministic scenario/sweep core.
//!
//! After the batch harness (`bench`) every run was a one-shot CLI
//! invocation paying full simulation cost even for inputs already
//! computed. This crate adds the serving layer:
//!
//! * [`server`] — `paper serve`: a hand-rolled HTTP/1.1 daemon
//!   (`std::net::TcpListener`, no external dependencies) that validates
//!   scenario submissions with the strict `scenario` validator, queues
//!   them on a prioritized [`sim::pool::WorkerPool`], streams per-phase
//!   progress (via `metrics::PhaseProbe` boundary observers) and returns
//!   result documents **byte-identical** to an offline
//!   `paper scenario <file> --json --no-timing` run.
//! * [`client`] — `paper submit`: the matching wire client.
//! * [`cli`] — the `paper` binary's argument parser: one flag table that
//!   parsing, the does-not-apply errors and the usage text all read.
//! * [`jobs`] — the job table: the one job state machine and its
//!   lifecycle counters, progress events, followers, and the in-flight
//!   index that coalesces duplicate submissions.
//! * [`http`] — the shared minimal HTTP/1.1 reader/writer pair.
//! * [`library`] — the machine-readable scenario-library listing behind
//!   `paper list --json` and `GET /scenarios`.
//! * [`metrics`] — the `GET /metrics` Prometheus text exposition
//!   (job/pool/cache counters, stage timers, request-latency histogram).
//! * [`log`] — the daemon's one leveled logger (`--log-level`).
//!
//! Identity of work is content, not text: submissions are keyed by
//! `scenario::hash` — a stable digest over the *compiled* scenario — and
//! results live in the content-addressed cache (`bench::cache`) that the
//! batch CLI shares, so the daemon and `paper scenario` populate each
//! other.

pub mod cli;
pub mod client;
pub mod http;
pub mod jobs;
pub mod library;
pub mod log;
pub mod metrics;
pub mod server;

pub use client::{submit, Disposition, SubmitOutcome};
pub use log::LogLevel;
pub use server::{serve_forever, ServeConfig, Server, PROGRESS_SCHEMA_VERSION};
