#![warn(missing_docs)]
//! # parcolor — workspace facade
//!
//! Re-exports the user-facing surface of the reproduction of *"Parallel
//! Derandomization for Coloring"* (Coy, Czumaj, Davies-Peck, Mishra;
//! IPDPS 2024).  The real code lives in the `crates/` workspace members;
//! this crate exists so the workspace-level integration tests and
//! examples have a package to hang off, and so downstream users can
//! depend on a single crate.

pub use parcolor_core::framework::SimScratch;
pub use parcolor_core::{
    ChunkMode, ColoringState, D1lcInstance, Graph, NodeId, NormalProcedure, Outcome, PaletteArena,
    Params, Runner, SeedStrategy, Solution, Solver, StepReport, NO_COLOR,
};
pub use parcolor_prg::{select_seed, select_seed_blocks_n, SeedSelection};
