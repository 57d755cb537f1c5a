#![warn(missing_docs)]
//! Simulator for the sublinear-local-space MPC model (Section 2.1 of the
//! paper).
//!
//! The model: machines with local space `s = O(n^φ)` words, synchronous
//! rounds, per-round send *and* receive volume at most `s` words per
//! machine, `Õ(n + m/s)` machines ("our algorithm requires the ability to
//! assign a machine to each node").  All the claims this reproduction
//! regenerates are about **rounds** and **words of space**, so the
//! simulator's contract is exact accounting of both:
//!
//! * [`cluster`] — a *materialized* record-level engine: records really
//!   live in per-machine buffers, exchanges really route them, and the
//!   primitives the paper leans on (deterministic sample-sort and prefix
//!   sums à la Goodrich–Sitchinava–Zhang, broadcast/converge-cast trees)
//!   are implemented and tested against the model's `O(1)`-round budget.
//! * [`graphops`] — the Lemma 17 layer: one (virtual) machine per node,
//!   `d(v) ≤ √s` ops ("send `d(v)` words to each neighbor", "collect the
//!   2-hop neighborhood").  The caller does the work; the accountant
//!   charges the rounds and words the op would use and records
//!   violations of the `s` budget.
//! * [`metrics`] — round/space/message accounting shared by both layers.
//!
//! The split mirrors how the paper itself operates: correctness lives in
//! the LOCAL simulation, the MPC contribution is the round/space budget.

pub mod cluster;
pub mod config;
pub mod graphops;
pub mod metrics;

pub use cluster::Cluster;
pub use config::MpcConfig;
pub use graphops::NodeMpc;
pub use metrics::MpcMetrics;
