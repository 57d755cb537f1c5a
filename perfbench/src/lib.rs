//! The parcolor benchmark: end-to-end metrics of `Solver::solve` on four
//! workloads, and a traced run that breaks a solve down by layer.
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! which end-to-end metric each per-layer metric should move.

pub mod cluster;
pub mod replay;
pub mod run;
pub mod trace;
pub mod workload;
