#![warn(missing_docs)]

//! Deterministic simulation substrate for the NegotiaToR reproduction.
//!
//! This crate provides the building blocks every other crate in the
//! workspace rests on:
//!
//! * [`time`] — nanosecond-resolution simulated time ([`Nanos`]) and
//!   bandwidth/byte conversion helpers.
//! * [`rng`] — a self-contained, portable xoshiro256++ PRNG
//!   ([`rng::Xoshiro256`]) so that a seed produces bit-identical experiment
//!   results on every platform.
//! * [`stats`] — exact percentiles and CDFs used by the metrics crate and
//!   the experiment harness.
//! * [`series`] — windowed time-series sampling (receiver-bandwidth plots).
//! * [`pool`] — a minimal ordered worker pool so the experiment harness can
//!   fan independent runs across cores.
//! * [`shard`] — contiguous row partitions + scoped fork/join for
//!   deterministic intra-run parallelism (the epoch engines' `--workers`).
//! * [`pairs`] — per-pair FIFO lists over one node arena per ToR: the
//!   queue store of both engines, sized by what is queued rather than by
//!   the fabric's `n²` pairs.
//!
//! Design notes: the simulators built on top of this crate are
//! *slot-synchronous* (both architectures in the paper transmit in fixed,
//! globally synchronized timeslots), so time advances with plain arithmetic
//! on [`Nanos`] and irregular events (flow arrivals, link failures) are
//! sorted once and consumed by cursor. Parallelism exists on
//! two axes, both with the same guarantee — worker counts can never change
//! output bytes: [`pool`] executes many independent runs at once and
//! reassembles their outputs in order, and [`shard`] lets one run fan its
//! per-ToR phase work across workers with an order-preserving merge.

pub mod pairs;
pub mod pool;
pub mod rng;
pub mod series;
pub mod shard;
pub mod stats;
pub mod time;

pub use rng::Xoshiro256;
pub use series::BandwidthSeries;
pub use stats::Cdf;
pub use time::{Bandwidth, Nanos, GBPS};
