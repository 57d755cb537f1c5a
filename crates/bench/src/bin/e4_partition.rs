//! E4 — Lemma 23: one LowSpacePartition level achieves in-bin degree
//! `d'(v) < 2 d(v)/B` and valid restricted palettes, across densities and
//! bin counts.  Reports the worst realized degree ratio (paper: < 2) and
//! both violation classes.
//!
//! Every restricted bin must form a valid D1LC instance
//! (`ColoringState::restricted_instance`): that is the promise Lemma 23's
//! fallback to `G_mid` guarantees and the recursive solver relies on.  The
//! binary exits 1 if any row's `bins` column reads `INVALID`.

use parcolor_bench::{f2, s, scaled, Table};
use parcolor_core::instance::ColoringState;
use parcolor_core::reduce::low_space_partition;
use parcolor_graphgen::{degree_plus_one, gnm};

fn main() {
    println!("# E4: LowSpacePartition quality (Lemma 23)\n");
    let n = scaled(4_000, 1_000);
    let mut t = Table::new(&[
        "avg deg",
        "bins B",
        "high nodes",
        "worst d'·B/d",
        "soft (deg) viol",
        "hard (palette) viol",
        "seeds tried",
        "bins",
    ]);
    let mut invalid = false;
    for &avg in &[30usize, 60, 120] {
        for &bins in &[3usize, 4, 8] {
            let inst = degree_plus_one(gnm(n, n * avg / 2, avg as u64));
            let state = ColoringState::new(&inst);
            let nodes = state.uncolored_nodes();
            let threshold = avg / 3;
            let out = low_space_partition(&inst.graph, &state, &nodes, threshold, bins, 128);
            let h2 = &out.color_hash;
            let ok = out.bins[..bins - 1].iter().enumerate().all(|(b, bin)| {
                state
                    .restricted_instance(&inst.graph, bin, |c| h2.eval(c as u64) as usize == b)
                    .is_ok()
            });
            invalid |= !ok;
            t.row(&[
                s(avg),
                s(bins),
                s(out.stats.high_nodes),
                f2(out.stats.worst_degree_ratio),
                s(out.stats.soft_degree_violations),
                s(out.stats.violations_moved_to_mid),
                s(out.stats.seeds_tried),
                s(if ok { "OK" } else { "INVALID" }),
            ]);
        }
    }
    t.print();
    println!("\nLemma 23 regime is d ≫ B³: violations vanish toward the bottom-left");
    println!("(high degree, few bins) and the worst ratio approaches the paper's 2.");
    if invalid {
        std::process::exit(1);
    }
}
