//! Run every experiment binary in sequence.
//!
//! ```sh
//! cargo run --release -p parcolor-bench --bin run_all_experiments
//! PARCOLOR_QUICK=1 cargo run -p parcolor-bench --bin run_all_experiments
//! ```

use std::process::Command;

const EXPERIMENTS: &[&str] = &[
    "e1_rounds_vs_n",
    "e2_space",
    "e3_deferral",
    "e4_partition",
    "e5_preshatter",
    "e6_seed_strategies",
    "e7_rand_vs_det",
    "e8_baselines",
    "e9_chunking",
    "e10_mis",
    "e11_acd",
    "e12_slackcolor",
    "e13_recursion",
    "e14_selfreduce",
    "e15_shattering",
    "e16_ablation",
];

fn main() {
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin dir");
    let mut failures = Vec::new();
    for name in EXPERIMENTS {
        println!("\n{}\n=== {} ===\n", "=".repeat(72), name);
        let status = Command::new(dir.join(name))
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {name}: {e}"));
        if !status.success() {
            failures.push(*name);
        }
    }
    println!("\n{}", "=".repeat(72));
    if failures.is_empty() {
        println!("all {} experiments completed", EXPERIMENTS.len());
    } else {
        println!("FAILED: {failures:?}");
        std::process::exit(1);
    }
}
