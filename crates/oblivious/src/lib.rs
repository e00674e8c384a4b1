#![warn(missing_docs)]

//! Traffic-oblivious reconfigurable DCN baseline (§2, §4.1).
//!
//! The state of the art NegotiaToR compares against: a Sirius-like [4]
//! design in which the network reconfigures itself on a fixed round-robin
//! schedule — every timeslot, regardless of traffic — and adapts the
//! *traffic* to the network with Valiant Load Balancing: data is spread
//! uniformly across intermediate ToRs on a first hop, then forwarded to the
//! real destination on a second. No scheduling messages, no demand
//! measurement; simplicity traded for doubled traffic volume, bandwidth
//! competition at receivers, and detour latency — the costs §2 analyzes and
//! §4 measures.
//!
//! Implementation notes, matching the paper's own re-implementation
//! (§4.1 "following Sirius [4] to implement the state-of-the-art benchmark
//! on the same simulator"):
//!
//! * Same fabric model and 2× uplink speedup as NegotiaToR; every 100 ns
//!   timeslot (10 ns guard + 90 ns data) reconfigures to the next
//!   round-robin match, using the same topology pattern functions.
//! * PIAS priority queues at *sources only* — "the multi-level-feedback-
//!   queue based prioritization does not apply to data at intermediate
//!   nodes"; relay queues are plain FIFO, which is exactly why elephants
//!   block mice at intermediates.
//! * First-KB (mice) chunks are bound to a uniformly random intermediate at
//!   arrival, as in per-packet VLB; bulk data is spread lazily across
//!   whatever intermediate the rotor offers next, which realizes the same
//!   uniform spreading without materializing per-chunk state.
//! * Congestion control for relay buffers: a source does not inject
//!   first-hop traffic toward an intermediate whose relay backlog exceeds
//!   the buffer cap (standing in for Sirius's credit-based flow control).

pub mod config;
pub mod sim;

pub use config::ObliviousConfig;
pub use sim::{ObliviousRecording, ObliviousSim, RotorStats};
