#![warn(missing_docs)]
//! Pseudorandomness and derandomization machinery.
//!
//! This crate supplies the two randomness-reduction tools the paper's
//! framework composes (Section 4):
//!
//! 1. **A short-seed PRG** ([`prg::Prg`] / [`prg::PrgTape`]).  The paper
//!    invokes the existential `(t, ε)` PRG of Vadhan (Proposition 7.8),
//!    constructed in exponential time (Lemma 9).  That construction is a
//!    proof device; we substitute a keyed avalanche mixer whose output is
//!    addressed by `(seed, chunk, index)`.  The run-time guarantee the
//!    framework needs — *the seed chosen by conditional expectations
//!    achieves at most the seed-space mean failure count* — is enforced
//!    and measured directly by [`seed_search`], independent of any
//!    indistinguishability assumption.
//! 2. **k-wise independent hash families** ([`hashing`]) over a Mersenne
//!    prime field, used by the degree-reduction step (Section 6,
//!    `LowSpacePartition`) exactly as in CDP21d.
//!
//! On top of both sits [`seed_search`]: deterministic seed selection by
//! exhaustive evaluation, fixed-subset evaluation, or the bitwise **method
//! of conditional expectations** (the form actually run on an MPC, Lemma
//! 10).  Seed evaluation is embarrassingly parallel and is distributed over
//! the `parcolor-exec` work-stealing pool — the hot loop of the whole
//! reproduction.

pub mod hashing;
pub mod prg;
pub mod seed_search;

pub use hashing::{KWiseFamily, PairwiseHash};
pub use prg::{ChunkAssignment, Prg, PrgBlock, PrgTape};
pub use seed_search::{
    fold_seed_range_in, seed_workers, select_seed, select_seed_blocks_n, select_seed_folded,
    LocalFolder, RangeFolder, SeedSelection, SeedStrategy, SEED_BLOCK,
};
// Re-exported so remote-sharding backends can merge partial folds with
// the exact kernel the local path uses.
pub use parcolor_exec::SumMinArgmin;
