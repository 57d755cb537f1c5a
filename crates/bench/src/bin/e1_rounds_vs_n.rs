//! E1 — Theorem 1's headline shape: deterministic D1LC round counts grow
//! like `O(log log log n)` (near-flat), matching the randomized pipeline
//! (Lemma 4) up to a constant factor.

use parcolor_bench::{f1, f2, s, scaled, timed, Table};
use parcolor_core::{Params, SeedStrategy, Solver};
use parcolor_graphgen::{degree_plus_one, gnm};

fn main() {
    println!("# E1: MPC rounds vs n (Theorem 1 vs Lemma 4)\n");
    let sizes: Vec<usize> = if parcolor_bench::quick() {
        vec![512, 2_048, 8_192]
    } else {
        vec![1_000, 4_000, 16_000, 64_000]
    };
    let avg_deg = scaled(12, 8);
    let params = Params::default()
        .with_seed_bits(6)
        .with_strategy(SeedStrategy::FixedSubset(16));

    let mut t = Table::new(&[
        "n",
        "m",
        "lglglg n",
        "det MPC rounds",
        "det LOCAL rounds",
        "rand MPC rounds",
        "det ms",
        "rand ms",
    ]);
    for &n in &sizes {
        let m = n * avg_deg / 2;
        let inst = degree_plus_one(gnm(n, m, 42));
        let (det, det_ms) = timed(|| Solver::deterministic(params.clone()).solve(&inst));
        let (rnd, rnd_ms) = timed(|| Solver::randomized(params.clone(), 7).solve(&inst));
        inst.verify_coloring(&det.colors).unwrap();
        inst.verify_coloring(&rnd.colors).unwrap();
        let lglglg = (n as f64).ln().ln().ln();
        t.row(&[
            s(n),
            s(m),
            f2(lglglg),
            s(det.cost.mpc_rounds),
            s(det.cost.local_rounds),
            s(rnd.cost.mpc_rounds),
            f1(det_ms),
            f1(rnd_ms),
        ]);
    }
    t.print();
    println!(
        "\nShape check: rounds should be near-flat while n grows {}x.",
        sizes.last().unwrap() / sizes[0]
    );
}
