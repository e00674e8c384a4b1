#![warn(missing_docs)]

//! DCN workload synthesis for the NegotiaToR evaluation (§4.1, §4.4).
//!
//! The paper drives its simulations with flows whose sizes follow published
//! datacenter traces and whose arrivals form a Poisson process; incast and
//! all-to-all microbenchmarks exercise the scheduling-delay-bypass and
//! matching machinery directly. This crate reproduces all of it:
//!
//! * [`dist`] — empirical flow-size CDFs synthesized from the distribution
//!   statistics the paper cites: Meta Hadoop (60% of flows < 1 KB, > 80% of
//!   bytes from > 100 KB elephants), DCTCP web search (> 80% of flows
//!   > 10 KB), and Google (> 80% of flows < 1 KB).
//! * [`poisson`] — Poisson arrivals with the paper's load definition
//!   `L = F / (R·N·τ)`.
//! * [`incast`] — synchronized many-to-one bursts (Figure 7(a)).
//! * [`alltoall`] — synchronized equal-size all-to-all (Figure 7(b)).
//! * [`mixed`] — background trace with randomly mixed incasts
//!   (Figure 13(a)).
//! * [`flow`] — the [`Flow`] record and sorted [`FlowTrace`] container.

pub mod alltoall;
pub mod dist;
pub mod flow;
pub mod incast;
pub mod mixed;
pub mod poisson;
pub mod trace_io;

pub use alltoall::AllToAllWorkload;
pub use dist::FlowSizeDist;
pub use flow::{Flow, FlowTrace, MAX_FLOWS, MICE_THRESHOLD_BYTES};
pub use incast::IncastWorkload;
pub use mixed::MixedWorkload;
pub use poisson::{PoissonWorkload, WorkloadSpec};
pub use trace_io::{load_trace, parse_trace, save_trace, TraceError};
