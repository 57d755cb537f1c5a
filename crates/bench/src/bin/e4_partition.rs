//! E4 — Lemma 23: one LowSpacePartition level achieves in-bin degree
//! `d'(v) < 2 d(v)/B` and valid restricted palettes, across densities and
//! bin counts.  Reports the worst realized degree ratio (paper: < 2),
//! both violation classes, and the wall time of the partition call.
//!
//! A second table partitions the inputs the `dense_lists` benchmark
//! workload partitions: planted 128-cliques with `random_lists` palettes,
//! at that workload's threshold and bin count, over a 4096-color universe
//! (the hash search's dense color mode) and over 10^8 colors (its
//! occurrence mode).
//!
//! Every restricted bin must form a valid D1LC instance
//! (`ColoringState::restricted_instance`): that is the promise Lemma 23's
//! fallback to `G_mid` guarantees and the recursive solver relies on.  The
//! binary exits 1 if any row's `bins` column reads `INVALID`.

use parcolor_bench::{f1, f2, host_json, quick, s, scaled, timed, Table};
use parcolor_core::instance::{ColoringState, D1lcInstance};
use parcolor_core::reduce::low_space_partition;
use parcolor_core::Params;
use parcolor_graphgen::{degree_plus_one, gnm, planted_cliques, random_lists};

/// Partition every uncolored node of `inst` and return the row cells
/// from `bins B` on, and whether every restricted bin is a valid instance.
fn partition_row(
    inst: &D1lcInstance,
    threshold: usize,
    bins: usize,
    budget: u64,
) -> (Vec<String>, bool) {
    let state = ColoringState::new(inst);
    let nodes = state.uncolored_nodes();
    let (out, ms) =
        timed(|| low_space_partition(&inst.graph, &state, &nodes, threshold, bins, budget));
    let h2 = &out.color_hash;
    let ok = out.bins[..bins - 1].iter().enumerate().all(|(b, bin)| {
        state
            .restricted_instance(&inst.graph, bin, |c| h2.eval(c as u64) as usize == b)
            .is_ok()
    });
    let cells = vec![
        s(bins),
        s(out.stats.high_nodes),
        f2(out.stats.worst_degree_ratio),
        s(out.stats.soft_degree_violations),
        s(out.stats.violations_moved_to_mid),
        s(out.stats.seeds_tried),
        f1(ms),
        s(if ok { "OK" } else { "INVALID" }),
    ];
    (cells, ok)
}

fn main() {
    println!("# E4: LowSpacePartition quality (Lemma 23)\n");
    println!("host: {}\n", host_json());
    let tail = [
        "bins B",
        "high nodes",
        "worst d'·B/d",
        "soft (deg) viol",
        "hard (palette) viol",
        "seeds tried",
        "ms",
        "bins",
    ];
    let n = scaled(4_000, 1_000);
    let mut t = Table::new(&[&["avg deg"][..], &tail].concat());
    let mut invalid = false;
    for &avg in &[30usize, 60, 120] {
        for &bins in &[3usize, 4, 8] {
            let inst = degree_plus_one(gnm(n, n * avg / 2, avg as u64));
            let (cells, ok) = partition_row(&inst, avg / 3, bins, 128);
            invalid |= !ok;
            t.row(&[vec![s(avg)], cells].concat());
        }
    }
    t.print();
    println!("\nLemma 23 regime is d ≫ B³: violations vanish toward the bottom-left");
    println!("(high degree, few bins) and the worst ratio approaches the paper's 2.");

    // dense_lists' graph, its mid-degree cap and the solver's budget; the
    // threshold and bin count are the ones its full-size first level uses.
    let cliques = if quick() { 8 } else { 100 };
    let sparse_n = scaled(60_000, 4_000);
    let g = planted_cliques(&vec![128; cliques], 0.1, sparse_n, 8, 11);
    let params = Params::default().with_mid_degree_cap(64);
    let full_n = 100 * 128 + 60_000;
    let (threshold, bins) = (
        params.mid_degree_threshold(full_n),
        params.partition_bins(full_n),
    );
    println!("\n## dense_lists' inputs: {cliques} planted 128-cliques + {sparse_n} sparse nodes");
    println!(
        "(n = {}, threshold {threshold}, B = {bins}, budget 256)\n",
        g.n()
    );
    let mut t = Table::new(&[&["universe"][..], &tail].concat());
    for (universe, mode) in [(4096, "dense"), (100_000_000, "occurrence")] {
        let inst = random_lists(g.clone(), universe, 0, 11);
        let (cells, ok) = partition_row(&inst, threshold, bins, 256);
        invalid |= !ok;
        t.row(&[vec![format!("{universe} ({mode})")], cells].concat());
    }
    t.print();
    println!("\nThe universe decides the hash search's color mode: one h₂ lane per");
    println!("color of a small universe, one per palette occurrence of a sparse one.");
    if invalid {
        std::process::exit(1);
    }
}
