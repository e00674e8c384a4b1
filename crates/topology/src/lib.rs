#![warn(missing_docs)]

//! AWGR-based flat topologies for reconfigurable optical DCNs.
//!
//! The paper (§2, Figure 1) evaluates NegotiaToR on two representative flat
//! topologies in which every ToR uplink port carries a fast-tunable laser
//! attached to a passive AWGR:
//!
//! * **Parallel network** ([`ParallelNet`]) — `S` high-port-count AWGRs,
//!   one per ToR port index; any ToR can reach any other ToR through any of
//!   its ports, and traffic leaving source port `p` always lands on the
//!   destination's ingress port `p` (both are attached to AWGR `p`).
//! * **Thin-clos** ([`ThinClos`]) — `S²` low-port-count AWGRs; each ordered
//!   ToR pair is connected through exactly one egress-port/ingress-port pair,
//!   so each port only reaches a *group* of ToRs.
//!
//! Both implement the [`Topology`] trait, which captures everything the
//! schedulers need: the predefined-phase round-robin pattern (who talks to
//! whom in each timeslot), per-port reachability for the scheduled phase,
//! and the scope of each GRANT and ACCEPT ring in closed form
//! ([`RingScope`]). [`failures`] holds the ground truth of
//! per-direction link failures (§3.6.1, Figure 10), and [`inject`] is the
//! one timeline that changes it as a run advances: link failures and
//! repairs, flapping links, partitions, gray failures, greedy ToRs.

pub mod cache;
pub mod config;
pub mod failures;
pub mod inject;
pub mod lanes;
pub mod parallel;
pub mod thinclos;
pub mod traits;
pub mod validate;

pub use cache::{PredefinedCache, PredefinedConn};
pub use config::{NetworkConfig, TopologyKind};
pub use failures::LinkFailures;
pub use inject::{FaultAction, FaultModel, FlapTargets, PartitionSpec};
pub use lanes::{LaneOrigin, LaneTable, PairLanes, PredefinedLanes};
pub use parallel::ParallelNet;
pub use thinclos::ThinClos;
pub use traits::{AnyTopology, RingScope, Topology};
pub use validate::{validate_matching, MatchEntry, MatchingError};
