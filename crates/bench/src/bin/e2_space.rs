//! E2 — Theorem 1's local-space bound: no machine holds more than
//! `s = c·n^φ` words (`c = 8`, `MpcConfig::new`'s space constant), across
//! φ.  The words are the Lemma 17 charges of one deterministic solve.
//!
//! The binary exits 1 if a row breaks the claim, at quick and full size:
//! at φ ∈ {0.5, 0.7}, peak machine words ≤ s with zero budget violations.
//! φ = 0.3 stays descriptive: there `√s` falls below the input's maximum
//! degree, so Lemma 17's precondition `Δ ≤ √s` fails and its 2-hop
//! collections overfill machines by design.  Readings when the gate was
//! set: peak/s 0.370 (φ = 0.5) and 0.053 (φ = 0.7) at full size, 0.915
//! and 0.200 at quick size.

use parcolor_bench::{f3, s, scaled, Table};
use parcolor_core::{Params, SeedStrategy, Solver};
use parcolor_graphgen::{degree_plus_one, gnm};
use parcolor_mpc::MpcConfig;

fn main() {
    println!("# E2: machine-space compliance vs phi\n");
    let n = scaled(16_000, 2_048);
    let m = n * 6;
    let inst = degree_plus_one(gnm(n, m, 11));

    let mut t = Table::new(&[
        "phi",
        "s = c*n^phi",
        "peak machine words",
        "peak/s",
        "budget violations",
        "MPC rounds",
        "claim",
    ]);
    let mut broken = false;
    for &phi in &[0.3, 0.5, 0.7] {
        let params = Params::default()
            .with_phi(phi)
            .with_seed_bits(6)
            .with_strategy(SeedStrategy::FixedSubset(16));
        let sol = Solver::deterministic(params).solve(&inst);
        inst.verify_coloring(&sol.colors).unwrap();
        let s_budget = MpcConfig::new(n, m, phi).local_space();
        let claim = if phi < 0.5 {
            "-"
        } else if sol.cost.max_machine_words <= s_budget as u64 && sol.cost.budget_violations == 0 {
            "OK"
        } else {
            broken = true;
            "VIOLATED"
        };
        t.row(&[
            f3(phi),
            s(s_budget),
            s(sol.cost.max_machine_words),
            f3(sol.cost.max_machine_words as f64 / s_budget as f64),
            s(sol.cost.budget_violations),
            s(sol.cost.mpc_rounds),
            s(claim),
        ]);
    }
    t.print();
    println!("\nCompliance requires peak/s ≤ 1 and zero violations at phi ≥ 0.5;");
    println!("small phi on dense inputs shows where the Δ ≤ √s precondition binds.");
    if broken {
        std::process::exit(1);
    }
}
