//! Experiment harness regenerating every table and figure of the
//! NegotiaToR paper's evaluation (§4 and Appendix A).
//!
//! Run one experiment:
//!
//! ```text
//! cargo run --release -p service --bin paper -- fig9
//! cargo run --release -p service --bin paper -- all --jobs 8 --json --out results/
//! ```
//!
//! Each experiment prints the same rows/series the paper reports, as
//! aligned text tables; `--json` additionally writes one machine-readable
//! `results/<id>.json` per experiment (see [`results`] for the schema).
//! The sweep layer ([`sweep`]) expands every experiment into independent
//! runs and executes them across `--jobs N` worker threads, reassembling
//! outputs in spec order so parallel reports are byte-identical to serial
//! ones.
//!
//! [`experiments::EXPERIMENTS`] is the per-experiment index, mapping every
//! id to its paper artifact (`paper list` prints it). The reproduced
//! numbers are pinned byte for byte: `tests/experiment_digests.rs` holds
//! every experiment's text and document, and every scenario's document and
//! trace, to the digests in `tests/fixtures/experiment_digests.txt`.

pub mod cache;
pub mod experiments;
pub mod profile;
pub mod results;
pub mod runs;
pub mod scenario;
pub mod sweep;
pub mod tracecmd;
pub mod traceq;

pub use experiments::{find_experiment, Args, Experiment, EXPERIMENTS};
