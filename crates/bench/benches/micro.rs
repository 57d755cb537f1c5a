//! Criterion microbenches backing the wall-clock columns of E6-E8:
//! seed-search throughput, Definition 2 parameter computation, ACD,
//! partition hash selection and one LOCAL procedure pass.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use parcolor_core::framework::{NormalProcedure, SimScratch};
use parcolor_core::hknt::acd::compute_acd;
use parcolor_core::hknt::procs::{SspMode, StageSet, TryRandomColor};
use parcolor_core::instance::ColoringState;
use parcolor_core::node_params::compute_params;
use parcolor_core::reduce::low_space_partition;
use parcolor_core::{D1lcInstance, NodeId, Params};
use parcolor_graphgen::gnm;
use parcolor_prg::{
    select_seed, select_seed_blocks_n, ChunkAssignment, Prg, PrgBlock, PrgTape, SeedStrategy,
};
use std::hint::black_box;

fn bench_seed_search(c: &mut Criterion) {
    let n = 2_000usize;
    let g = gnm(n, n * 4, 1);
    let inst = D1lcInstance::delta_plus_one(g.clone());
    let state = ColoringState::new(&inst);
    let set = StageSet::new(&g, (0..n as NodeId).collect());
    let proc = TryRandomColor::new(set, SspMode::Colored, 1);
    let chunks = ChunkAssignment::PerNode;

    let mut group = c.benchmark_group("seed_search");
    for bits in [4u32, 6, 8] {
        let prg = Prg::new(bits);
        group.bench_with_input(BenchmarkId::new("exhaustive", bits), &bits, |b, &bits| {
            b.iter(|| {
                let cost = |seed: u64| {
                    let tape = PrgTape::new(prg, seed, &chunks);
                    let out = proc.simulate(&state, &tape);
                    proc.ssp_failures(&state, &out).len() as f64
                };
                black_box(select_seed(bits, SeedStrategy::Exhaustive, cost))
            })
        });
    }
    // Fast path: seed-lane block evaluation in scratch arenas + the
    // seed-parallel fold (select_seed_blocks_n + seed_cost_block, what a
    // solve runs).  Same workload, same strategies.  The rows above run
    // the reference `simulate`, which also draws each pick once, so the
    // gap is what lane blocks and the pool add over one sequential
    // simulation per seed.
    for bits in [4u32, 6, 8, 12] {
        let prg = Prg::new(bits);
        for (label, strategy) in [
            ("exhaustive_fast", SeedStrategy::Exhaustive),
            ("bitwise_stream_fast", SeedStrategy::BitwiseCondExp),
        ] {
            group.bench_with_input(BenchmarkId::new(label, bits), &bits, |b, &bits| {
                b.iter(|| {
                    black_box(select_seed_blocks_n(
                        bits,
                        strategy,
                        0,
                        || SimScratch::new(n),
                        |seed0, costs, scratch| {
                            let block = PrgBlock::new(prg, seed0, costs.len(), &chunks);
                            proc.seed_cost_block(&state, &block, scratch, costs);
                        },
                    ))
                })
            });
        }
    }
    group.finish();
}

fn bench_params_and_acd(c: &mut Criterion) {
    let mut group = c.benchmark_group("preprocessing");
    for n in [1_000usize, 4_000] {
        let g = gnm(n, n * 6, 2);
        let inst = D1lcInstance::delta_plus_one(g.clone());
        let state = ColoringState::new(&inst);
        let nodes: Vec<NodeId> = (0..n as NodeId).collect();
        let active = vec![true; n];
        group.bench_with_input(BenchmarkId::new("def2_params", n), &n, |b, _| {
            b.iter(|| black_box(compute_params(&g, &state, &nodes, &active)))
        });
        let table = compute_params(&g, &state, &nodes, &active);
        let params = Params::default();
        group.bench_with_input(BenchmarkId::new("acd", n), &n, |b, _| {
            b.iter(|| black_box(compute_acd(&g, &nodes, &active, &table, &params)))
        });
    }
    group.finish();
}

fn bench_partition(c: &mut Criterion) {
    let n = 2_000usize;
    let g = gnm(n, n * 30, 3);
    let inst = D1lcInstance::delta_plus_one(g.clone());
    let state = ColoringState::new(&inst);
    let nodes = state.uncolored_nodes();
    c.bench_function("low_space_partition_b64", |b| {
        b.iter(|| black_box(low_space_partition(&g, &state, &nodes, 20, 4, 64)))
    });
}

fn bench_procedure_pass(c: &mut Criterion) {
    let n = 8_000usize;
    let g = gnm(n, n * 5, 4);
    let inst = D1lcInstance::delta_plus_one(g.clone());
    let state = ColoringState::new(&inst);
    let set = StageSet::new(&g, (0..n as NodeId).collect());
    let proc = TryRandomColor::new(set, SspMode::Auto, 1);
    let tape = parcolor_local::tape::CryptoTape::new(5);
    c.bench_function("try_random_color_pass_8k", |b| {
        b.iter(|| black_box(proc.simulate(&state, &tape)))
    });
}

criterion_group!(
    benches,
    bench_seed_search,
    bench_params_and_acd,
    bench_partition,
    bench_procedure_pass
);
criterion_main!(benches);
