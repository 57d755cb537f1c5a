#![warn(missing_docs)]
//! # parcolor-core
//!
//! A full reproduction of **"Parallel Derandomization for Coloring"**
//! (Sam Coy, Artur Czumaj, Peter Davies-Peck, Gopinath Mishra; IPDPS 2024,
//! arXiv:2302.04378): a framework for derandomizing LOCAL algorithms in
//! the sublinear-space MPC model, applied to (degree+1)-list coloring.
//!
//! ## Quick start
//!
//! ```
//! use parcolor_core::{D1lcInstance, Params, Solver};
//! use parcolor_local::graph::Graph;
//!
//! // A 5-cycle as a (Δ+1)-coloring instance (the canonical D1LC case).
//! let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
//! let inst = D1lcInstance::delta_plus_one(g);
//!
//! // Theorem 1: deterministic D1LC in O(log log log n) MPC rounds.
//! let solution = Solver::deterministic(Params::default()).solve(&inst);
//! assert!(inst.verify_coloring(&solution.colors).is_ok());
//! ```
//!
//! ## Map from paper to code
//!
//! | Paper | Module |
//! |---|---|
//! | Definition 2 (node parameters) | [`node_params`] |
//! | Definition 3 (almost-clique decomposition) | [`hknt::acd`] |
//! | Definition 5 (normal distributed procedures) | [`framework`] |
//! | Algorithms 2–9 (HKNT subprocedures) | [`hknt`] |
//! | Lemma 10 / Theorem 12 (derandomizer) | [`framework`], [`solver`] |
//! | Lemma 14 substitute (low-degree solver) | [`lowdeg`] |
//! | Lemma 23 / Algorithms 11–12 (degree reduction) | [`reduce`], [`solver`] |
//! | Theorem 1 / Lemma 4 (end-to-end solvers) | [`solver`] |
//! | Section 4.1's Luby-MIS example | [`mis`] |
//!
//! Substrates live in sibling crates: `parcolor-local` (graphs, tapes,
//! LOCAL engine), `parcolor-mpc` (the MPC model's configuration and the
//! Lemma 17 round and space accountant the solver charges), `parcolor-prg`
//! (PRG and seed selection), `parcolor-graphgen` (workloads).

pub mod baselines;
pub mod config;
pub mod edge_coloring;
pub mod framework;
pub mod hknt;
pub mod instance;
pub mod linial;
pub mod lowdeg;
pub mod mis;
pub mod node_params;
pub mod reduce;
pub mod simd;
pub mod solver;

pub use config::{ChunkMode, Params};
pub use framework::{
    BlockEval, LocalSeedSearcher, NormalProcedure, Outcome, Runner, SeedSearcher, SimScratch,
    StepReport,
};
pub use instance::{ColoringState, D1lcInstance, PaletteArena, NO_COLOR};
pub use solver::{Cost, Solution, SolveMode, SolveStats, Solver};

// Re-export the substrate types users need to build instances.
pub use parcolor_local::graph::{Graph, NodeId};
pub use parcolor_prg::{SeedSelection, SeedStrategy};
