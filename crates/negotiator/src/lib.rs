#![warn(missing_docs)]

//! # NegotiaToR
//!
//! A from-scratch implementation of *NegotiaToR: Towards A Simple Yet
//! Effective On-demand Reconfigurable Datacenter Network* (SIGCOMM 2024):
//! an optical DCN architecture where ToRs, connected by passive AWGRs and
//! fast-tunable lasers, negotiate non-conflicting one-hop paths each epoch
//! from binary traffic demands.
//!
//! The architecture in one paragraph (§3): time is divided into fixed
//! epochs of two phases. The *predefined phase* round-robins all-to-all
//! connectivity in a handful of nanosecond timeslots; ToRs use it as an
//! in-band control plane to exchange REQUEST/GRANT/ACCEPT messages of the
//! distributed **NegotiaToR Matching** algorithm — pipelined across three
//! epochs so each epoch carries one step — and additionally piggyback one
//! small data packet per pair, which is what lets latency-sensitive mice
//! flows (and incasts) bypass the ≈2-epoch scheduling delay entirely. The
//! *scheduled phase* then holds the negotiated matching for ~30 packet
//! slots of conflict-free, bufferless one-hop transmission. PIAS-style
//! priority queues keep elephants from blocking mice at the sources.
//!
//! Crate layout:
//!
//! * [`config`] — epoch timing (§3.3/§4.1) and feature switches.
//! * [`rings`] — RRM-style round-robin arbiters.
//! * [`queues`] — per-destination PIAS priority queues (§3.4.2).
//! * [`matching`] — the three-step matching algorithm (§3.2, Algorithm 1).
//! * [`fault`] — dummy-message fault detection/recovery (§3.6.1).
//! * [`sim`] — the slot-synchronous epoch engine binding it all.
//! * [`theory`] — closed-form efficiency model (§3.2.2).
//! * [`variants`] — the Appendix A.2 design-space explorations.

pub mod config;
pub mod fault;
pub mod matching;
pub mod queues;
pub mod rings;
pub mod sim;
pub mod stats;
pub mod theory;
pub mod variants;

pub use config::{EpochConfig, NegotiatorConfig};
pub use sim::{FaultAction, NegotiatorSim, SchedulerMode, SimOptions};
