#![warn(missing_docs)]
//! The sublinear-local-space MPC model (Section 2.1 of the paper) as a
//! round and space accountant.
//!
//! The model: machines with local space `s = O(n^φ)` words, synchronous
//! rounds, per-round send *and* receive volume at most `s` words per
//! machine, `Õ(n + m/s)` machines ("our algorithm requires the ability to
//! assign a machine to each node").  Theorem 1's claims are about
//! **rounds** and **words of space**, so this crate charges exactly those:
//!
//! * [`config`] — the model's parameters: φ, the local space `s = c·n^φ`
//!   and the global budget `O(m + n^{1+φ})`.
//! * [`graphops`] — the Lemma 17 accountant: one (virtual) machine per
//!   node, `d(v) ≤ √s` ops ("send `d(v)` words to each neighbor",
//!   "collect the 2-hop neighborhood").  The caller does the work; the
//!   accountant charges the rounds and words the op would use and records
//!   violations of the `s` budget.
//! * [`metrics`] — the totals it charges: rounds, the largest machine's
//!   words, traffic and budget violations.
//!
//! The split mirrors how the paper itself operates: correctness lives in
//! the LOCAL simulation, the MPC contribution is the round/space budget.

pub mod config;
pub mod graphops;
pub mod metrics;

pub use config::MpcConfig;
pub use graphops::NodeMpc;
pub use metrics::MpcMetrics;
