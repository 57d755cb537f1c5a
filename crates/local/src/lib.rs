#![warn(missing_docs)]
//! LOCAL-model substrate for the `parcolor` workspace.
//!
//! This crate provides the shared building blocks used by every other crate
//! in the reproduction of *"Parallel Derandomization for Coloring"*
//! (Coy, Czumaj, Davies-Peck, Mishra; IPDPS 2024, arXiv:2302.04378):
//!
//! * [`graph::Graph`] — a compact CSR (compressed-sparse-row) undirected
//!   graph, the substrate on which both the LOCAL and MPC simulations run.
//! * [`power`] — explicit construction of graph powers `G^k`, needed by the
//!   derandomization framework (Theorem 12 colors `G^{4τ}` to split PRG
//!   output into per-node chunks).
//! * [`tape`] — the [`tape::Randomness`] abstraction: a *deterministic
//!   function* from `(node, stream, index)` to random words.  Randomized
//!   executions use a seeded cryptographic stream ([`tape::CryptoTape`]);
//!   derandomized executions substitute a PRG keyed by a short seed chosen
//!   by the method of conditional expectations (supplied by `parcolor-prg`
//!   through the same trait).
//! * [`engine`] — a synchronous round counter that charges LOCAL
//!   procedures their rounds.
//!
//! Design rules: parallel loops run on the `parcolor-exec` pool over
//! disjoint per-node slices (data-race freedom by construction), hot paths
//! avoid per-node allocation (flat arenas + offsets), and all cross-thread
//! accumulation uses reductions rather than shared mutable state.

pub mod engine;
pub mod graph;
pub mod power;
pub mod simd;
#[cfg(all(unix, target_endian = "little"))]
pub mod store;
pub mod tape;

pub use engine::RoundEngine;
pub use graph::{Graph, NodeId};
#[cfg(all(unix, target_endian = "little"))]
pub use store::{MappedCsr, Mmap};
pub use tape::{CryptoTape, Randomness, SplitMix};
