#![warn(missing_docs)]

//! Traffic-oblivious reconfigurable DCN baseline (§2, §4.1).
//!
//! The state of the art NegotiaToR compares against: a Sirius-like \[4\]
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
//! (§4.1 "following Sirius \[4\] to implement the state-of-the-art benchmark
//! on the same simulator"):
//!
//! * Same fabric model and 2× uplink speedup as NegotiaToR; every 100 ns
//!   timeslot (10 ns guard + 90 ns data) reconfigures to the next
//!   round-robin match, using the same topology pattern functions.
//! * PIAS priority queues at *sources only* — "the multi-level-feedback-
//!   queue based prioritization does not apply to data at intermediate
//!   nodes"; relay queues are plain FIFO, which is exactly why elephants
//!   block mice at intermediates.
//! * Every byte is bound at arrival to a uniformly random intermediate, as
//!   in VLB. The mice levels — PIAS levels 0 and 1, a flow's first 10 KB —
//!   are bound per packet; bulk (level 2) per bundle of
//!   [`ObliviousConfig::bundle_chunks`] packets, which spreads it as
//!   uniformly with far fewer segments to keep. Without priority queues
//!   every byte is bulk.
//! * Congestion control for relay buffers: a source does not inject bulk
//!   toward an intermediate whose relay buffer for the final destination
//!   has no credit left (standing in for Sirius's credit-based flow
//!   control). Mice are sent regardless: their volume is small, and the
//!   flow control keeps headroom for them.

pub mod config;
pub mod sim;

pub use config::ObliviousConfig;
pub use sim::{ObliviousRecording, ObliviousSim, RotorStats};
