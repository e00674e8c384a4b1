#![warn(missing_docs)]

//! Declarative, file-driven fabric experiments.
//!
//! Every experiment the harness originally shipped is hard-coded Rust in
//! `bench::experiments`. This crate turns the same ingredients — the
//! workload generators, trace replay, the link-failure machinery and the
//! two deterministic engines — into a *scenario engine*: a JSON file
//! declares the fabric, a sequence of **workload phases** (any generator
//! or a replayed trace, each with a load and an epoch span) and a
//! **timeline of events** at absolute epochs (`fail_links`,
//! `repair_links`, `fail_random`, plus the adversarial `inject` family —
//! flapping links, partitions, gray failures, greedy granters — also
//! available as a per-phase `faults` block); the crate compiles it into
//! one flow trace, one fault timeline and one list of phase boundaries,
//! and runs it through both engines. Each run feeds a
//! [`metrics::PhaseProbe`], so the output carries an epoch-bucketed time
//! series — goodput, FCT percentiles, match ratio and queue backlog per
//! phase — next to the usual aggregates.
//!
//! Pipeline:
//!
//! * [`spec`] — the schema and its strict validation. Scenario files are
//!   user-authored, so every error (unknown key, overlapping phases,
//!   out-of-range ToR index) points at a `line:column` in the file, and
//!   everything is rejected before any simulation starts.
//! * [`compile`](mod@compile) — [`ScenarioSpec`] → [`CompiledScenario`]: phase specs
//!   become the recipe of one merged [`workload::FlowTrace`]
//!   ([`LazyTrace`]: replayed files read now, synthetic flows made by
//!   each execution and dropped with it), events and phase `faults` blocks become one
//!   [`topology::FaultModel`] timeline, phase ends become probe
//!   boundaries.
//! * [`hash`] — the content address of a compiled scenario, computed from
//!   that recipe: what the result cache and run dedup key on.
//! * [`runner`] — the one engine driver ([`System`] → [`Engine`]) that
//!   scenarios and the paper experiments in `bench::experiments` both
//!   construct simulators through, and one deferred run closure per
//!   scenario engine, ready to be executed across `--jobs` workers (the
//!   harness side lives in `bench::scenario`).
//! * [`series`] — turns probe snapshots + the flow tracker into the
//!   per-phase [`PhaseStat`] rows, their JSON form and the text table.
//!
//! Determinism: a compiled scenario is a pure function of the file's
//! contents; probes never influence the simulation; and runs execute
//! through the same ordered pool as every experiment — so scenario output
//! is byte-identical at any `--jobs`, which `bench` asserts in its
//! determinism suite.

pub mod compile;
pub mod hash;
pub mod runner;
pub mod series;
pub mod spec;

pub use compile::{compile, CompiledScenario, LazyTrace};
pub use hash::StableHasher;
pub use runner::{
    build_runs, Engine, PhaseProgress, ProgressSink, ScenarioRun, ScenarioRunOutput, System,
};
pub use series::PhaseStat;
pub use spec::{parse_scenario, EngineKind, InjectSpec, PhaseSpec, ScenarioSpec, WorkloadPhase};
