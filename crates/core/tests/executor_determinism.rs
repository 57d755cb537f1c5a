//! Determinism matrix for the work-stealing executor and everything
//! built on it: the generic reduces and whole solver runs must produce
//! **bit-identical** results at every worker count and under randomized
//! steal orders.  Applying a step's chosen seed is one sequential
//! `simulate_into` call (overridden only by `TryRandomColor` and
//! `MultiTrial`, whose reference `simulate` is slower), so the solver
//! runs below pin it at every worker count too.
//!
//! Steal order is randomized indirectly: per-block busy-spin jitter of
//! pseudo-random length perturbs worker timing, so across proptest
//! cases the blocks land on workers in many different interleavings.
//! Worker counts are passed explicitly (never via the env) because the
//! test harness runs tests concurrently in one process.

use parcolor_core::{D1lcInstance, Graph, NodeId, Params, SeedStrategy, Solver};
use parcolor_exec::{par_fold, Executor, SumMinArgmin};
use parcolor_local::tape::SplitMix;
use proptest::prelude::*;

const WORKER_MATRIX: [usize; 4] = [1, 2, 4, 8];

/// Deterministic per-item cost keyed by `(seed, i)`.
fn cost(seed: u64, i: u64) -> f64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    // Integer-valued so sums are grouping-invariant in f64.
    (z >> 52) as f64
}

/// Busy-spin for a block-dependent pseudo-random duration so block →
/// worker assignment varies run to run.
fn jitter(seed: u64, start: u64) {
    let spins = (seed ^ start).wrapping_mul(0x2545_F491_4F6C_DD1D) >> 54;
    for _ in 0..spins {
        std::hint::spin_loop();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // `par_fold` with the sum/min/argmin reducer returns the same
    // bits at every worker count, regardless of steal interleaving.
    #[test]
    fn par_fold_is_worker_count_invariant(seed in any::<u64>(), len in 1u64..4096) {
        let pool = Executor::global();
        let fold_at = |workers: usize| {
            par_fold(
                pool,
                workers,
                0..len,
                64,
                || SumMinArgmin::EMPTY,
                |start, blen, mut acc: SumMinArgmin| {
                    jitter(seed, start);
                    for i in start..start + blen {
                        acc.observe(i, cost(seed, i));
                    }
                    acc
                },
                |a, b| a.merge(b),
            )
        };
        let reference = fold_at(1);
        for &w in &WORKER_MATRIX[1..] {
            let got = fold_at(w);
            prop_assert_eq!(got.sum.to_bits(), reference.sum.to_bits());
            prop_assert_eq!(got.min.to_bits(), reference.min.to_bits());
            prop_assert_eq!(got.argmin, reference.argmin);
        }
    }
}

/// Random graph + fresh Δ+1 instance (n = 6000, about 36k edges):
/// large enough that the size-gated pool passes — the Definition-2
/// stage pass (1024-node stripes) and the CSR row sort — split across
/// the pool's workers.
fn large_instance(seed: u64) -> D1lcInstance {
    let n = 6000usize;
    let avg_deg = 12usize;
    let mut rng = SplitMix::new(seed);
    let mut edges = Vec::new();
    for _ in 0..(n * avg_deg / 2) {
        let a = (rng.next_u64() % n as u64) as NodeId;
        let b = (rng.next_u64() % n as u64) as NodeId;
        if a != b {
            edges.push((a.min(b), a.max(b)));
        }
    }
    D1lcInstance::delta_plus_one(Graph::from_edges(n, &edges))
}

/// Whole-pipeline determinism: the solver — seed search, chosen-seed
/// application, and the parallel reduces — yields bit-identical
/// colorings and costs at every worker count.
#[test]
fn solver_colorings_are_worker_count_invariant() {
    let inst = large_instance(99);
    let params = |w: usize| {
        Params::default()
            .with_seed_bits(4)
            .with_strategy(SeedStrategy::FixedSubset(8))
            .with_workers(w)
    };
    let reference = Solver::deterministic(params(1)).solve(&inst);
    inst.verify_coloring(&reference.colors).expect("valid");
    for &w in &WORKER_MATRIX[1..] {
        let sol = Solver::deterministic(params(w)).solve(&inst);
        assert_eq!(
            sol.colors, reference.colors,
            "deterministic coloring diverges at {w} workers"
        );
        assert_eq!(sol.cost.mpc_rounds, reference.cost.mpc_rounds);
        assert_eq!(sol.cost.local_rounds, reference.cost.local_rounds);
    }
    // Randomized mode too: same key ⇒ same tape ⇒ same coloring,
    // whatever worker count the solver is handed.
    let r1 = Solver::randomized(params(1), 0xFEED).solve(&inst);
    for &w in &WORKER_MATRIX[1..] {
        let rw = Solver::randomized(params(w), 0xFEED).solve(&inst);
        assert_eq!(
            rw.colors, r1.colors,
            "randomized coloring diverges at {w} workers"
        );
    }
}
