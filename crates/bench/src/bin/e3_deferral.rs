//! E3 — Lemma 10's deferral guarantee, per derandomized procedure: the
//! chosen seed's SSP-failure count vs the seed-space mean and the paper's
//! bound `1/2 + n_G · Δ^{-11τ}` (the bound is astronomically small at
//! paper scale; here we report mean vs chosen to show the conditional-
//! expectations mechanism doing its job).
//!
//! A step whose cost a seed-independent bound shows to be 0 under every
//! seed skips its search (`StepReport::certified`); it counts in the
//! `skipped` column, and its chosen and mean failures are both 0.  The
//! binary exits 1 if any row reads `VIOLATED`.

use parcolor_bench::{f2, s, scaled, Table};
use parcolor_core::{Params, SeedStrategy, Solver};
use parcolor_graphgen::{degree_plus_one, gnm, planted_cliques};

fn main() {
    println!("# E3: per-procedure deferrals — chosen seed vs seed-space mean\n");
    let n = scaled(4_000, 800);
    let instances = vec![
        ("gnm", degree_plus_one(gnm(n, n * 5, 3))),
        (
            "planted",
            degree_plus_one(planted_cliques(&[30, 30, 24], 0.1, n, 6, 4)),
        ),
    ];
    let params = Params::default()
        .with_seed_bits(7)
        .with_strategy(SeedStrategy::Exhaustive);

    let mut t = Table::new(&[
        "instance",
        "procedure",
        "active",
        "searched",
        "skipped",
        "chosen failures",
        "mean failures",
        "guarantee",
    ]);
    let mut violated = false;
    for (name, inst) in instances {
        let sol = Solver::deterministic(params.clone()).solve(&inst);
        inst.verify_coloring(&sol.colors).unwrap();
        // Aggregate per procedure name: (active, searched, skipped,
        // chosen, mean).  A skipped step adds 0 to both sums.
        let mut agg: std::collections::BTreeMap<&str, (usize, usize, usize, f64, f64)> =
            std::collections::BTreeMap::new();
        for step in &sol.stats.steps {
            let e = agg.entry(step.name).or_default();
            e.0 += step.active;
            e.2 += usize::from(step.certified);
            if let Some(sel) = &step.selection {
                e.1 += 1;
                e.3 += sel.cost;
                e.4 += sel.mean_cost;
            }
        }
        for (proc, (active, searched, skipped, cost, mean)) in agg {
            let ok = cost <= mean + 1e-9;
            violated |= !ok;
            t.row(&[
                s(name),
                s(proc),
                s(active),
                s(searched),
                s(skipped),
                f2(cost),
                f2(mean),
                s(if ok { "OK" } else { "VIOLATED" }),
            ]);
        }
    }
    t.print();
    println!("\nEvery row must read OK: the chosen seed never exceeds the mean,");
    println!("which is the inequality Lemma 10's expectation argument needs.");
    if violated {
        std::process::exit(1);
    }
}
