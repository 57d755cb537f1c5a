//! E6 — seed-selection strategies compared on the same procedure: the
//! exhaustive argmin, the bitwise method of conditional expectations
//! (the paper's MPC implementation), the deterministic fixed-subset
//! surrogate, and an unoptimized single seed.
//!
//! The second half benchmarks the **seed-search fast path**
//! (`select_seed_blocks_n` + `seed_cost_block`: seed-lane blocks,
//! reusable scratch arenas and the pool fold) against the reference
//! allocation-heavy path at `seed_bits = 16`, and TryRandomColor's block
//! evaluator, the one override of `seed_cost_block`, against the trait's
//! default loop it would otherwise take (the `block_procs` rows: its
//! clash-count arm under `Auto`, its lane-outcome arm under
//! `SlackRatio(2)`), and writes the numbers to
//! `BENCH_seed_search.json`; the third half benchmarks the **batch
//! kernels** (the hash `MemberBlock` at 1 and 32 members, and the PRG
//! block's lane draw `PrgBlock::below_lanes`) against their scalar forms
//! (one `KWiseHash::eval` per member and key, and the per-lane
//! `below_lanes` default through `ForceScalar`) and writes
//! `BENCH_hash_batch.json`.  Every search asserts that it selects what
//! its comparison leg selects.

use parcolor_bench::{f1, f2, host_json, s, scaled, timed, Table};
use parcolor_core::framework::{NormalProcedure, Outcome, SimScratch};
use parcolor_core::hknt::procs::{SspMode, StageSet, TryRandomColor};
use parcolor_core::instance::ColoringState;
use parcolor_core::{D1lcInstance, NodeId};
use parcolor_graphgen::gnm;
use parcolor_local::tape::{CryptoTape, ForceScalar, Randomness};
use parcolor_prg::hashing::{KWiseFamily, KWiseHash, MemberBlock};
use parcolor_prg::{
    select_seed, select_seed_blocks_n, ChunkAssignment, Prg, PrgBlock, PrgTape, SeedSelection,
    SeedStrategy,
};

/// The production seed search over `proc` (`select_seed_blocks_n` +
/// `seed_cost_block`, per-node chunks) with `workers` workers (`0` =
/// auto); `force_scalar` draws every block's lanes through the trait's
/// per-lane `below_lanes` default instead of the PRG block's lane draw.
fn block_search(
    proc: &dyn NormalProcedure,
    state: &ColoringState,
    seed_bits: u32,
    strategy: SeedStrategy,
    workers: usize,
    force_scalar: bool,
) -> SeedSelection {
    let prg = Prg::new(seed_bits);
    let chunks = ChunkAssignment::PerNode;
    select_seed_blocks_n(
        seed_bits,
        strategy,
        workers,
        || SimScratch::new(state.n()),
        |seed0, costs, scratch| {
            let block = PrgBlock::new(prg, seed0, costs.len(), &chunks);
            if force_scalar {
                proc.seed_cost_block(state, &ForceScalar(block), scratch, costs);
            } else {
                proc.seed_cost_block(state, &block, scratch, costs);
            }
        },
    )
}

/// `proc` with every [`NormalProcedure`] method forwarded except
/// `seed_cost_block`, so a search over it costs seeds through the trait's
/// default loop — what the procedure would run without its block
/// evaluator.
struct DefaultLoop<'p>(&'p dyn NormalProcedure);

impl NormalProcedure for DefaultLoop<'_> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn local_rounds(&self) -> u64 {
        self.0.local_rounds()
    }

    fn active_count(&self) -> usize {
        self.0.active_count()
    }

    fn simulate(&self, state: &ColoringState, rng: &dyn Randomness) -> Outcome {
        self.0.simulate(state, rng)
    }

    fn ssp_failures(&self, state: &ColoringState, out: &Outcome) -> Vec<NodeId> {
        self.0.ssp_failures(state, out)
    }

    fn seed_cost(&self, state: &ColoringState, out: &Outcome) -> f64 {
        self.0.seed_cost(state, out)
    }

    fn zero_cost_under_every_seed(&self, state: &ColoringState) -> bool {
        self.0.zero_cost_under_every_seed(state)
    }
}

fn main() {
    println!("# E6: seed-selection strategies (one TryRandomColor step)\n");
    let n = scaled(4_000, 800);
    let g = gnm(n, n * 4, 5);
    let inst = D1lcInstance::delta_plus_one(g.clone());
    let state = ColoringState::new(&inst);
    let set = StageSet::new(&g, (0..n as NodeId).collect());
    let proc = TryRandomColor::new(set, SspMode::Colored, 1);
    let seed_bits = 10;

    let mut t = Table::new(&[
        "strategy",
        "seeds evaluated",
        "chosen failures",
        "space mean",
        "space min",
        "guarantee",
        "ms",
    ]);
    for (name, strat) in [
        ("Exhaustive", SeedStrategy::Exhaustive),
        ("BitwiseCondExp", SeedStrategy::BitwiseCondExp),
        ("FixedSubset(32)", SeedStrategy::FixedSubset(32)),
        ("FixedSubset(8)", SeedStrategy::FixedSubset(8)),
        ("SingleSeed(0)", SeedStrategy::SingleSeed(0)),
    ] {
        let (sel, ms) = timed(|| block_search(&proc, &state, seed_bits, strat, 0, false));
        t.row(&[
            s(name),
            s(sel.evaluated),
            f1(sel.cost),
            f2(sel.mean_cost),
            f1(sel.min_cost),
            s(if sel.satisfies_guarantee() {
                "OK"
            } else {
                "n/a"
            }),
            f1(ms),
        ]);
    }
    t.print();
    println!("\nBitwiseCondExp must land at or below the mean (Lemma 10); Exhaustive");
    println!("gives the floor; FixedSubset trades a little quality for throughput.");

    let fastpath_rows = fastpath_comparison();
    let block_rows = block_proc_comparison();
    let worker_rows = workers_matrix();
    write_seed_search_json(&fastpath_rows, &block_rows, &worker_rows);
    hash_batch_comparison();
}

/// TryRandomColor's block evaluator vs the trait's default loop it would
/// otherwise take ([`DefaultLoop`]), one row per arm of the evaluator:
/// `Auto` with every node of the graph active, where each lane's
/// clashed-node count is its cost, and `SlackRatio(2)` on the stage the
/// Auto trials leave uncolored, where each lane's outcome is read off the
/// pick plane and costed by `seed_cost`.  One worker, so the measured
/// ratio is pure per-seed-eval speedup.
fn block_proc_comparison() -> Vec<String> {
    let seed_bits = scaled(12, 8) as u32;
    let n = scaled(30_000, 5_000);
    let g = gnm(n, n * 4, 7);
    let inst = D1lcInstance::delta_plus_one(g.clone());
    let mut state = ColoringState::new(&inst);
    println!(
        "\n# TryRandomColor block evaluator vs the default loop (seed_bits = {seed_bits}, \
         n = {n}, m = {}, 1 worker)",
        g.m()
    );
    let mut t = Table::new(&[
        "ssp",
        "stage",
        "default loop ms",
        "block ms",
        "speedup",
        "same seed",
    ]);
    let mut row = |state: &ColoringState, ssp: SspMode| {
        let set = StageSet::new(&g, state.uncolored_nodes());
        let stage = set.active.len();
        let proc = TryRandomColor::new(set, ssp.clone(), 3);
        let search = |p: &dyn NormalProcedure| {
            timed(|| block_search(p, state, seed_bits, SeedStrategy::Exhaustive, 1, false))
        };
        let (default_sel, default_ms) = search(&DefaultLoop(&proc));
        let (block_sel, block_ms) = search(&proc);
        // Costs are integer counts, so equal means are exact too.
        let same = default_sel.seed == block_sel.seed
            && default_sel.cost == block_sel.cost
            && default_sel.mean_cost == block_sel.mean_cost;
        assert!(
            same,
            "TryRandomColor {ssp:?}: the block evaluator diverged from the default loop"
        );
        let speedup = default_ms / block_ms.max(1e-9);
        t.row(&[
            s(format!("{ssp:?}")),
            s(stage),
            f1(default_ms),
            f1(block_ms),
            f2(speedup),
            s(same),
        ]);
        format!(
            "    {{\"procedure\": \"TryRandomColor\", \"ssp\": \"{ssp:?}\", \
             \"seed_bits\": {seed_bits}, \"n\": {n}, \"m\": {}, \"stage\": {stage}, \
             \"workers\": 1, \"default_loop_ms\": {default_ms:.1}, \"block_ms\": {block_ms:.1}, \
             \"per_eval_speedup\": {speedup:.2}, \"chosen_seed\": {}, \"chosen_cost\": {}, \
             \"mean_cost\": {}}}",
            g.m(),
            block_sel.seed,
            block_sel.cost,
            block_sel.mean_cost
        )
    };
    let mut rows = vec![row(&state, SspMode::Auto)];
    // The stage SlackColor gates after its warm-ups: what the Auto trials
    // leave uncolored.
    for r in 0..2 {
        let set = StageSet::new(&g, state.uncolored_nodes());
        let trial = TryRandomColor::new(set, SspMode::Auto, r);
        let out = trial.simulate(&state, &CryptoTape::new(r));
        state.apply_adoptions(&g, &out.adoptions);
    }
    rows.push(row(&state, SspMode::SlackRatio(2.0)));
    t.print();
    rows
}

/// Sharded seed search: the same block search at `workers ∈ {1, 2, 4, 8}`.
/// The chosen seed/cost MUST be identical at every worker count (the
/// stolen-block fold is grouping-invariant) — this function asserts it,
/// which is what fails CI if sharding ever changes a selection.
fn workers_matrix() -> Vec<String> {
    let seed_bits = 16u32;
    let n = scaled(2_000, 256);
    let g = gnm(n, n * 4, 7);
    let inst = D1lcInstance::delta_plus_one(g.clone());
    let state = ColoringState::new(&inst);
    let set = StageSet::new(&g, (0..n as NodeId).collect());
    let proc = TryRandomColor::new(set, SspMode::Colored, 1);
    let host_threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "\n# Sharded seed search, workers matrix (seed_bits = {seed_bits}, n = {n}, \
         m = {}, host threads = {host_threads})",
        g.m()
    );
    let mut t = Table::new(&["workers", "ms", "speedup vs 1", "chosen seed", "cost"]);
    let mut rows = Vec::new();
    let mut base_ms = 0.0f64;
    let mut reference: Option<(u64, f64)> = None;
    for workers in [1usize, 2, 4, 8] {
        let (sel, ms) = timed(|| {
            block_search(
                &proc,
                &state,
                seed_bits,
                SeedStrategy::Exhaustive,
                workers,
                false,
            )
        });
        match reference {
            None => {
                base_ms = ms;
                reference = Some((sel.seed, sel.cost));
            }
            Some((seed, cost)) => {
                assert_eq!(
                    (seed, cost),
                    (sel.seed, sel.cost),
                    "workers = {workers}: sharded seed search changed the selection"
                );
            }
        }
        let scaling = base_ms / ms.max(1e-9);
        t.row(&[s(workers), f1(ms), f2(scaling), s(sel.seed), f1(sel.cost)]);
        rows.push(format!(
            "    {{\"workers\": {workers}, \"ms\": {ms:.1}, \"speedup_vs_1\": {scaling:.2}, \
             \"chosen_seed\": {}, \"chosen_cost\": {}, \"host_threads\": {host_threads}}}",
            sel.seed, sel.cost
        ));
    }
    t.print();
    println!("\nIdentical chosen seed/cost at every worker count (asserted).");
    rows
}

fn write_seed_search_json(fastpath: &[String], blocks: &[String], workers: &[String]) {
    let json = format!(
        "{{\n  \"experiment\": \"e6_seed_search_fastpath\",\n  \"host\": {},\n  \
         \"rows\": [\n{}\n  ],\n  \
         \"block_procs\": [\n{}\n  ],\n  \"workers_matrix\": [\n{}\n  ]\n}}\n",
        host_json(),
        fastpath.join(",\n"),
        blocks.join(",\n"),
        workers.join(",\n")
    );
    match std::fs::write("BENCH_seed_search.json", &json) {
        Ok(()) => println!("\nwrote BENCH_seed_search.json"),
        Err(e) => eprintln!("\ncannot write BENCH_seed_search.json: {e}"),
    }
}

/// Reference vs fast path at `seed_bits = 16` — the derandomizer's hot
/// loop at full production seed length.  Returns JSON rows for
/// `BENCH_seed_search.json`.
fn fastpath_comparison() -> Vec<String> {
    let seed_bits = 16u32;
    let n = scaled(2_000, 256);
    let g = gnm(n, n * 4, 7);
    let inst = D1lcInstance::delta_plus_one(g.clone());
    let state = ColoringState::new(&inst);
    let set = StageSet::new(&g, (0..n as NodeId).collect());
    let proc = TryRandomColor::new(set, SspMode::Colored, 1);
    let prg = Prg::new(seed_bits);
    let chunks = ChunkAssignment::PerNode;
    let workers = parcolor_exec::resolve_workers(0);

    println!(
        "\n# Fast path vs reference at seed_bits = {seed_bits} (n = {n}, m = {})",
        g.m()
    );
    let mut t = Table::new(&[
        "strategy",
        "reference ms",
        "fast ms",
        "speedup",
        "same seed",
    ]);
    let mut rows_json = Vec::new();
    for (name, strategy) in [
        ("Exhaustive", SeedStrategy::Exhaustive),
        ("BitwiseCondExp", SeedStrategy::BitwiseCondExp),
    ] {
        let (old_sel, old_ms) = timed(|| {
            select_seed(seed_bits, strategy, |seed| {
                let tape = PrgTape::new(prg, seed, &chunks);
                let out = proc.simulate(&state, &tape);
                proc.seed_cost(&state, &out)
            })
        });
        let (new_sel, new_ms) =
            timed(|| block_search(&proc, &state, seed_bits, strategy, 0, false));
        let same = old_sel.seed == new_sel.seed && old_sel.cost == new_sel.cost;
        assert!(same, "{name}: fast path diverged from reference");
        let speedup = old_ms / new_ms.max(1e-9);
        // The streaming bitwise walk re-evaluates ~2× seeds instead of
        // materializing the 2^d cost table; report per-evaluation speedup
        // alongside wall-clock so the trade is visible.
        let space = 1u64 << seed_bits;
        let (ref_evals, fast_evals) = match strategy {
            SeedStrategy::BitwiseCondExp => (space, 2 * space - 1),
            _ => (space, space),
        };
        let per_eval = (old_ms / ref_evals as f64) / (new_ms / fast_evals as f64).max(1e-12);
        t.row(&[s(name), f1(old_ms), f1(new_ms), f2(speedup), s(same)]);
        rows_json.push(format!(
            "    {{\"strategy\": \"{name}\", \"seed_bits\": {seed_bits}, \"n\": {n}, \
             \"m\": {}, \"workers\": {workers}, \"reference_ms\": {old_ms:.1}, \
             \"fastpath_ms\": {new_ms:.1}, \"speedup\": {speedup:.2}, \
             \"reference_evals\": {ref_evals}, \"fastpath_evals\": {fast_evals}, \
             \"per_eval_speedup\": {per_eval:.2}, \
             \"chosen_seed\": {}, \"chosen_cost\": {}}}",
            g.m(),
            new_sel.seed,
            new_sel.cost
        ));
    }
    t.print();
    rows_json
}

/// The batch kernels vs their scalar forms — the hash member block's
/// throughput and the end-to-end seed search at `seed_bits = 16` on a
/// single worker (so per-seed evaluation cost is what's measured, not
/// thread scaling).  The search legs run the *same* `seed_cost_block`;
/// the scalar leg forces the trait's per-lane `below_lanes` default (one
/// whole mixer call per node per seed), so the measured gap is the lane
/// draw alone.  Emits `BENCH_hash_batch.json`.
fn hash_batch_comparison() {
    println!("\n# Batch kernels vs scalar (1 worker)");

    // -- MemberBlock throughput ----------------------------------------
    // The partition's hash search evaluates 32 members (one per seed
    // lane) at each key and the bins' color table one; both legs write
    // each member's bin into a `u8` plane, as the search does, so the
    // comparison isolates the evaluation.
    let nkeys = scaled(400_000, 40_000);
    let range = 64;
    let keys: Vec<u64> = (0..nkeys as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let mut t = Table::new(&[
        "hash k",
        "members",
        "scalar Mevals/s",
        "block Mevals/s",
        "speedup",
    ]);
    let mut hash_rows = Vec::new();
    for k in [2u32, 4, 8] {
        for members in [1usize, 32] {
            let hs: Vec<KWiseHash> = (0..members as u64)
                .map(|m| KWiseFamily::new(k, range).member(0xE6 + m))
                .collect();
            let block = MemberBlock::new(&hs);
            let mut out = vec![0u8; nkeys * members];
            let mut out_scalar = vec![0u8; nkeys * members];
            let scalar = |out: &mut [u8]| {
                for (entry, &x) in out.chunks_exact_mut(members).zip(&keys) {
                    for (b, h) in entry.iter_mut().zip(&hs) {
                        *b = h.eval(x) as u8;
                    }
                }
            };
            let batched = |out: &mut [u8]| {
                let mut bins = [0; 32];
                for (entry, &x) in out.chunks_exact_mut(members).zip(&keys) {
                    block.eval(x, &mut bins[..members]);
                    for (b, &o) in entry.iter_mut().zip(&bins) {
                        *b = o as u8;
                    }
                }
            };
            // One warm-up pass apiece takes page faults out of the timings.
            scalar(&mut out_scalar);
            batched(&mut out);
            let (_, scalar_ms) = timed(|| scalar(&mut out_scalar));
            let (_, batch_ms) = timed(|| batched(&mut out));
            // Keep both legs observable (and cross-check them while at it).
            assert_eq!(out, out_scalar, "k {k}, {members} members");
            std::hint::black_box((&out, &out_scalar));
            let evals = (nkeys * members) as f64;
            let scalar_rate = evals / scalar_ms / 1e3; // M evals/s
            let batch_rate = evals / batch_ms / 1e3;
            t.row(&[
                s(k),
                s(members),
                f2(scalar_rate),
                f2(batch_rate),
                f2(batch_rate / scalar_rate),
            ]);
            hash_rows.push(format!(
                "    {{\"k\": {k}, \"members\": {members}, \"keys\": {nkeys}, \
                 \"range\": {range}, \"scalar_evals_per_sec\": {:.0}, \
                 \"block_evals_per_sec\": {:.0}, \"speedup\": {:.2}}}",
                scalar_rate * 1e6,
                batch_rate * 1e6,
                batch_rate / scalar_rate
            ));
        }
    }
    t.print();

    // -- end-to-end seed search at seed_bits = 16 ----------------------
    let seed_bits = 16u32;
    let n = scaled(2_000, 256);
    let g = gnm(n, n * 4, 7);
    let inst = D1lcInstance::delta_plus_one(g.clone());
    let state = ColoringState::new(&inst);
    let set = StageSet::new(&g, (0..n as NodeId).collect());
    let proc = TryRandomColor::new(set, SspMode::Colored, 1);

    println!(
        "\n# Seed search, per-lane scalar draw vs lane draw (seed_bits = {seed_bits}, n = {n}, \
         m = {}, 1 worker)",
        g.m()
    );
    let mut t = Table::new(&[
        "strategy",
        "scalar ms",
        "batched ms",
        "speedup",
        "same seed",
    ]);
    let mut search_rows = Vec::new();
    for (name, strategy) in [
        ("Exhaustive", SeedStrategy::Exhaustive),
        ("BitwiseCondExp", SeedStrategy::BitwiseCondExp),
    ] {
        let search = |force_scalar| {
            timed(|| block_search(&proc, &state, seed_bits, strategy, 1, force_scalar))
        };
        let (scalar_sel, scalar_ms) = search(true);
        let (batched_sel, batched_ms) = search(false);
        let same = scalar_sel.seed == batched_sel.seed && scalar_sel.cost == batched_sel.cost;
        assert!(
            same,
            "{name}: the lane draw diverged from the per-lane draw"
        );
        // Both legs evaluate the same number of seeds, so wall-clock
        // speedup IS per-seed-eval speedup here.
        let speedup = scalar_ms / batched_ms.max(1e-9);
        t.row(&[s(name), f1(scalar_ms), f1(batched_ms), f2(speedup), s(same)]);
        search_rows.push(format!(
            "    {{\"strategy\": \"{name}\", \"scalar_ms\": {scalar_ms:.1}, \
             \"batched_ms\": {batched_ms:.1}, \"per_eval_speedup\": {speedup:.2}, \
             \"chosen_seed\": {}, \"chosen_cost\": {}}}",
            batched_sel.seed, batched_sel.cost
        ));
    }
    t.print();

    let json = format!(
        "{{\n  \"experiment\": \"e6_hash_batch\",\n  \"host\": {},\n  \
         \"seed_bits\": {seed_bits},\n  \"n\": {n},\n  \"m\": {},\n  \"workers\": 1,\n  \
         \"member_block\": [\n{}\n  ],\n  \"seed_search\": [\n{}\n  ]\n}}\n",
        host_json(),
        g.m(),
        hash_rows.join(",\n"),
        search_rows.join(",\n")
    );
    match std::fs::write("BENCH_hash_batch.json", &json) {
        Ok(()) => println!("\nwrote BENCH_hash_batch.json"),
        Err(e) => eprintln!("\ncannot write BENCH_hash_batch.json: {e}"),
    }
}
