//! E6 — seed-selection strategies compared on the same procedure: the
//! exhaustive argmin, the bitwise method of conditional expectations
//! (the paper's MPC implementation), the deterministic fixed-subset
//! surrogate, and an unoptimized single seed.
//!
//! The second half benchmarks the **seed-search fast path** (scratch-buffer
//! simulation + per-seed pick caching + seed-parallel fold) against the
//! reference allocation-heavy path at `seed_bits = 16`, and writes the
//! before/after numbers to `BENCH_seed_search.json`; the third half
//! benchmarks the **batched randomness plane** (lane-mixed tape stripes +
//! `KWiseHash::eval_batch`) against the scalar tape walk and writes
//! `BENCH_hash_batch.json`.
//!
//! `PARCOLOR_TAPE_MODE=scalar|batched` (default `batched`) selects the
//! tape driving the strategy table, so CI exercises both modes; the
//! batched-vs-scalar comparison section always runs both legs.

use parcolor_bench::{f1, f2, s, scaled, timed, Table};
use parcolor_core::framework::{NormalProcedure, SimScratch};
use parcolor_core::hknt::procs::{GenerateSlack, SspMode, StageSet, TryRandomColor};
use parcolor_core::instance::ColoringState;
use parcolor_core::mis::luby_round_seed_search;
use parcolor_core::{D1lcInstance, NodeId};
use parcolor_graphgen::gnm;
use parcolor_local::tape::{ForceScalar, Randomness};
use parcolor_prg::hashing::KWiseFamily;
use parcolor_prg::{
    select_seed, select_seed_blocks, select_seed_blocks_n, select_seed_with, ChunkAssignment, Prg,
    PrgTape, SeedStrategy, SEED_BLOCK,
};

/// The `PARCOLOR_TAPE_MODE` setting: batch plane on or forced scalar.
fn tape_mode() -> &'static str {
    match std::env::var("PARCOLOR_TAPE_MODE").as_deref() {
        Ok("scalar") => "scalar",
        _ => "batched",
    }
}

fn main() {
    let mode = tape_mode();
    println!("# E6: seed-selection strategies (one TryRandomColor step, {mode} tape)\n");
    let n = scaled(4_000, 800);
    let g = gnm(n, n * 4, 5);
    let inst = D1lcInstance::delta_plus_one(g.clone());
    let state = ColoringState::new(&inst);
    let set = StageSet::new(n, (0..n as NodeId).collect());
    let proc = TryRandomColor::new(&g, set, SspMode::Colored, 1);

    let seed_bits = 10;
    let prg = Prg::new(seed_bits);
    let chunks = ChunkAssignment::PerNode;

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
        let (sel, ms) = timed(|| {
            select_seed_with(
                seed_bits,
                strat,
                || SimScratch::new(n),
                |seed, scratch| {
                    let tape = PrgTape::new(prg, seed, &chunks);
                    if mode == "scalar" {
                        proc.seed_cost_fused(&state, &ForceScalar(tape), scratch)
                    } else {
                        proc.seed_cost_fused(&state, &tape, scratch)
                    }
                },
            )
        });
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

    // The comparison sections time both tape modes internally (that's
    // their point), so a scalar-mode run — CI's smoke leg — skips them
    // rather than duplicating the expensive seed_bits = 16 searches; the
    // batched-mode (default) run writes both BENCH_*.json artifacts.
    if mode != "scalar" {
        let fastpath_rows = fastpath_comparison();
        let block_rows = block_proc_comparison();
        let worker_rows = workers_matrix();
        let engine_rows = engine_parallel_matrix();
        write_seed_search_json(&fastpath_rows, &block_rows, &worker_rows, &engine_rows);
        hash_batch_comparison();
    }
}

/// Node-striped parallel round simulation: one `TryRandomColor` round on
/// a large instance, evaluated through `simulate_into_par` at `workers ∈
/// {1, 2, 4, 8}`.  The adoptions MUST be identical at every worker count
/// (positional splice of pure stripes) — asserted here, so CI fails if
/// striping ever changes a round outcome.
fn engine_parallel_matrix() -> Vec<String> {
    use parcolor_local::tape::CryptoTape;
    let n = scaled(400_000, 40_000);
    let g = gnm(n, n * 6, 11);
    let inst = D1lcInstance::delta_plus_one(g.clone());
    let state = ColoringState::new(&inst);
    let set = StageSet::new(n, (0..n as NodeId).collect());
    let proc = TryRandomColor::new(&g, set, SspMode::Auto, 5);
    let tape = CryptoTape::new(0xE6E6);
    let reps = scaled(20, 4);
    let host_threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "\n# Node-striped round simulation, workers matrix (n = {n}, m = {}, \
         {reps} rounds, host threads = {host_threads})",
        g.m()
    );
    let mut t = Table::new(&["workers", "ms", "speedup vs 1", "adoptions"]);
    let mut rows = Vec::new();
    let mut base_ms = 0.0f64;
    let mut reference: Option<Vec<(NodeId, u32)>> = None;
    let pool = parcolor_exec::Executor::global();
    for workers in [1usize, 2, 4, 8] {
        let mut scratch = SimScratch::new(n);
        // Warm-up evaluates once outside the timing (pool spawn, page
        // faults, arena growth).
        proc.simulate_into_par(&state, &tape, &mut scratch, pool, workers);
        let (_, ms) = timed(|| {
            for _ in 0..reps {
                proc.simulate_into_par(&state, &tape, &mut scratch, pool, workers);
            }
        });
        match &reference {
            None => {
                base_ms = ms;
                reference = Some(scratch.adoptions.clone());
            }
            Some(adoptions) => {
                assert_eq!(
                    &scratch.adoptions, adoptions,
                    "workers = {workers}: striped simulation changed the round outcome"
                );
            }
        }
        let scaling = base_ms / ms.max(1e-9);
        t.row(&[s(workers), f1(ms), f2(scaling), s(scratch.adoptions.len())]);
        rows.push(format!(
            "    {{\"workers\": {workers}, \"ms\": {ms:.1}, \"speedup_vs_1\": {scaling:.2}, \
             \"host_threads\": {host_threads}}}"
        ));
    }
    t.print();
    println!("\nIdentical adoptions at every worker count (asserted).");
    rows
}

/// Seed-lane block evaluation vs the per-seed fused fallback for the
/// procedures the PR 4 plane did NOT cover: `GenerateSlack`'s
/// slack-target scan and Luby MIS's undominated scan.  One worker, so
/// the measured ratio is pure per-seed-eval speedup.
fn block_proc_comparison() -> Vec<String> {
    let seed_bits = 14u32;
    let n = scaled(2_000, 256);
    let g = gnm(n, n * 4, 7);
    let inst = D1lcInstance::delta_plus_one(g.clone());
    let state = ColoringState::new(&inst);
    let prg = Prg::new(seed_bits);
    let chunks = ChunkAssignment::PerNode;
    println!(
        "\n# Slack-plane block evaluation vs per-seed fallback \
         (seed_bits = {seed_bits}, n = {n}, m = {}, 1 worker)",
        g.m()
    );
    let mut t = Table::new(&[
        "procedure",
        "per-seed ms",
        "block ms",
        "speedup",
        "same seed",
    ]);
    let mut rows = Vec::new();

    // -- GenerateSlack: slack-target SSP, the hottest non-clash cost ---
    let set = StageSet::new(n, (0..n as NodeId).collect());
    // Demanding targets (≈ the initial slack of a mid-degree node) so
    // costs are non-trivial and the block-vs-fallback assert below
    // compares real failure counts, not a degenerate all-zero space.
    let targets = vec![g.max_degree() as f64 * 0.6; n];
    let proc = GenerateSlack::new(&g, set, 0.2, targets, 3);
    let (scalar_sel, scalar_ms) = timed(|| {
        select_seed_blocks_n(
            seed_bits,
            SeedStrategy::Exhaustive,
            1,
            || SimScratch::new(n),
            |seed0, costs, scratch| {
                // The PR 4 regime: the default per-seed fused loop.
                for (i, c) in costs.iter_mut().enumerate() {
                    let tape = PrgTape::new(prg, seed0 + i as u64, &chunks);
                    *c = proc.seed_cost_fused(&state, &tape, scratch);
                }
            },
        )
    });
    let (block_sel, block_ms) = timed(|| {
        select_seed_blocks_n(
            seed_bits,
            SeedStrategy::Exhaustive,
            1,
            || SimScratch::new(n),
            |seed0, costs, scratch| {
                let tapes = prg.block_tapes(seed0, &chunks);
                let refs: [&dyn Randomness; SEED_BLOCK] =
                    std::array::from_fn(|i| &tapes[i] as &dyn Randomness);
                proc.seed_cost_block(&state, &refs[..costs.len()], scratch, costs);
            },
        )
    });
    let same = scalar_sel.seed == block_sel.seed && scalar_sel.cost == block_sel.cost;
    assert!(
        same,
        "GenerateSlack: block path diverged from per-seed path"
    );
    let speedup = scalar_ms / block_ms.max(1e-9);
    t.row(&[
        s("GenerateSlack"),
        f1(scalar_ms),
        f1(block_ms),
        f2(speedup),
        s(same),
    ]);
    rows.push(format!(
        "    {{\"procedure\": \"GenerateSlack\", \"per_seed_ms\": {scalar_ms:.1}, \
         \"block_ms\": {block_ms:.1}, \"per_eval_speedup\": {speedup:.2}, \
         \"chosen_seed\": {}, \"chosen_cost\": {}}}",
        block_sel.seed, block_sel.cost
    ));

    // -- Luby MIS: undominated scan over the priority plane ------------
    let (mis_scalar, mis_scalar_ms) =
        timed(|| luby_round_seed_search(&g, seed_bits, SeedStrategy::Exhaustive, 1, false));
    let (mis_block, mis_block_ms) =
        timed(|| luby_round_seed_search(&g, seed_bits, SeedStrategy::Exhaustive, 1, true));
    let same = mis_scalar.seed == mis_block.seed && mis_scalar.cost == mis_block.cost;
    assert!(same, "Luby MIS: block path diverged from per-seed path");
    let speedup = mis_scalar_ms / mis_block_ms.max(1e-9);
    t.row(&[
        s("Luby MIS"),
        f1(mis_scalar_ms),
        f1(mis_block_ms),
        f2(speedup),
        s(same),
    ]);
    rows.push(format!(
        "    {{\"procedure\": \"LubyMIS\", \"per_seed_ms\": {mis_scalar_ms:.1}, \
         \"block_ms\": {mis_block_ms:.1}, \"per_eval_speedup\": {speedup:.2}, \
         \"chosen_seed\": {}, \"chosen_cost\": {}}}",
        mis_block.seed, mis_block.cost
    ));
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
    let set = StageSet::new(n, (0..n as NodeId).collect());
    let proc = TryRandomColor::new(&g, set, SspMode::Colored, 1);
    let prg = Prg::new(seed_bits);
    let chunks = ChunkAssignment::PerNode;
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
            select_seed_blocks_n(
                seed_bits,
                SeedStrategy::Exhaustive,
                workers,
                || SimScratch::new(n),
                |seed0, costs, scratch| {
                    let tapes = prg.block_tapes(seed0, &chunks);
                    let refs: [&dyn Randomness; SEED_BLOCK] =
                        std::array::from_fn(|i| &tapes[i] as &dyn Randomness);
                    proc.seed_cost_block(&state, &refs[..costs.len()], scratch, costs);
                },
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

fn write_seed_search_json(
    fastpath: &[String],
    blocks: &[String],
    workers: &[String],
    engine: &[String],
) {
    let json = format!(
        "{{\n  \"experiment\": \"e6_seed_search_fastpath\",\n  \
         \"rows\": [\n{}\n  ],\n  \
         \"block_procs\": [\n{}\n  ],\n  \"workers_matrix\": [\n{}\n  ],\n  \
         \"engine_parallel\": [\n{}\n  ]\n}}\n",
        fastpath.join(",\n"),
        blocks.join(",\n"),
        workers.join(",\n"),
        engine.join(",\n")
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
    let set = StageSet::new(n, (0..n as NodeId).collect());
    let proc = TryRandomColor::new(&g, set, SspMode::Colored, 1);
    let prg = Prg::new(seed_bits);
    let chunks = ChunkAssignment::PerNode;
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get());

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
        let (new_sel, new_ms) = timed(|| {
            select_seed_with(
                seed_bits,
                strategy,
                || SimScratch::new(n),
                |seed, scratch| {
                    let tape = PrgTape::new(prg, seed, &chunks);
                    proc.seed_cost_fused(&state, &tape, scratch)
                },
            )
        });
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

/// Batched randomness plane vs the scalar tape walk — `eval_batch`
/// throughput and the end-to-end seed search at `seed_bits = 16` on a
/// single worker.  Both legs run the *same* plane-based `simulate_into`;
/// the scalar leg forces the tape's scalar trait defaults (the PR 1
/// regime: one mixer call per node per seed), so the measured gap is the
/// tape-level batching alone.  Emits `BENCH_hash_batch.json`.
fn hash_batch_comparison() {
    // Pin the fold to one worker so per-seed evaluation cost is what's
    // measured (and recorded) — not thread scaling.
    let prev_threads = std::env::var("PARCOLOR_THREADS").ok();
    std::env::set_var("PARCOLOR_THREADS", "1");

    println!("\n# Batched randomness plane vs scalar tape (1 worker)");

    // -- KWiseHash::eval_batch throughput ------------------------------
    let nkeys = scaled(400_000, 40_000);
    let keys: Vec<u64> = (0..nkeys as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let mut out = vec![0u64; keys.len()];
    let mut out_scalar = vec![0u64; keys.len()];
    let mut t = Table::new(&["hash k", "scalar Mkeys/s", "batched Mkeys/s", "speedup"]);
    let mut hash_rows = Vec::new();
    for k in [2u32, 4, 8] {
        let h = KWiseFamily::new(k, 1 << 20).member(0xE6);
        // Both legs fill a draw buffer — that is what plane consumers do —
        // so the comparison isolates the evaluation, not store traffic
        // (a store-free reduce loop made the old k = 2 row read 0.77×).
        // One warm-up pass apiece takes page faults out of the timings.
        for (o, &x) in out_scalar.iter_mut().zip(&keys) {
            *o = h.eval(x);
        }
        h.eval_batch(&keys, &mut out);
        let (_, scalar_ms) = timed(|| {
            for (o, &x) in out_scalar.iter_mut().zip(&keys) {
                *o = h.eval(x);
            }
        });
        let (_, batch_ms) = timed(|| h.eval_batch(&keys, &mut out));
        // Keep both legs observable (and cross-check them while at it).
        assert_eq!(out, out_scalar);
        std::hint::black_box(&out_scalar);
        std::hint::black_box(&out);
        let scalar_rate = nkeys as f64 / scalar_ms / 1e3; // M keys/s
        let batch_rate = nkeys as f64 / batch_ms / 1e3;
        t.row(&[
            s(k),
            f2(scalar_rate),
            f2(batch_rate),
            f2(batch_rate / scalar_rate),
        ]);
        hash_rows.push(format!(
            "    {{\"k\": {k}, \"keys\": {nkeys}, \"scalar_keys_per_sec\": {:.0}, \
             \"batched_keys_per_sec\": {:.0}, \"speedup\": {:.2}}}",
            scalar_rate * 1e6,
            batch_rate * 1e6,
            batch_rate / scalar_rate
        ));
    }
    t.print();

    // -- end-to-end seed search at seed_bits = 16 ----------------------
    let seed_bits = 16u32;
    let n = scaled(2_000, 256);
    let g = gnm(n, n * 4, 7);
    let inst = D1lcInstance::delta_plus_one(g.clone());
    let state = ColoringState::new(&inst);
    let set = StageSet::new(n, (0..n as NodeId).collect());
    let proc = TryRandomColor::new(&g, set, SspMode::Colored, 1);
    let prg = Prg::new(seed_bits);
    let chunks = ChunkAssignment::PerNode;

    println!(
        "\n# Seed search, scalar tape vs batched plane (seed_bits = {seed_bits}, n = {n}, \
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
        let (scalar_sel, scalar_ms) = timed(|| {
            select_seed_with(
                seed_bits,
                strategy,
                || SimScratch::new(n),
                |seed, scratch| {
                    let tape = ForceScalar(PrgTape::new(prg, seed, &chunks));
                    proc.seed_cost_fused(&state, &tape, scratch)
                },
            )
        });
        let (batched_sel, batched_ms) = timed(|| {
            select_seed_blocks(
                seed_bits,
                strategy,
                || SimScratch::new(n),
                |seed0, costs, scratch| {
                    let tapes = prg.block_tapes(seed0, &chunks);
                    let refs: [&dyn Randomness; SEED_BLOCK] =
                        std::array::from_fn(|i| &tapes[i] as &dyn Randomness);
                    proc.seed_cost_block(&state, &refs[..costs.len()], scratch, costs);
                },
            )
        });
        let same = scalar_sel.seed == batched_sel.seed && scalar_sel.cost == batched_sel.cost;
        assert!(same, "{name}: batched plane diverged from scalar tape");
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
        "{{\n  \"experiment\": \"e6_hash_batch\",\n  \"seed_bits\": {seed_bits},\n  \
         \"n\": {n},\n  \"m\": {},\n  \"workers\": 1,\n  \"eval_batch\": [\n{}\n  ],\n  \
         \"seed_search\": [\n{}\n  ]\n}}\n",
        g.m(),
        hash_rows.join(",\n"),
        search_rows.join(",\n")
    );
    match std::fs::write("BENCH_hash_batch.json", &json) {
        Ok(()) => println!("\nwrote BENCH_hash_batch.json"),
        Err(e) => eprintln!("\ncannot write BENCH_hash_batch.json: {e}"),
    }

    match prev_threads {
        Some(v) => std::env::set_var("PARCOLOR_THREADS", v),
        None => std::env::remove_var("PARCOLOR_THREADS"),
    }
}
