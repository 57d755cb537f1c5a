//! Equivalence of the zero-allocation seed-search fast path with the
//! reference (allocation-heavy) path.
//!
//! For every [`SeedStrategy`] and every HKNT procedure, the production
//! search (`select_seed_blocks_n` + `seed_cost_block`) must reproduce the
//! reference (`select_seed` + `simulate` + `seed_cost`)
//! **bit-identically**: same chosen seed, same cost / mean / min and same
//! per-bit conditional-expectation trace.  The one block evaluator,
//! TryRandomColor's, must also write the reference cost in every lane of
//! every block, on the whole node set and on a stage with neighbors
//! outside it; the other procedures take the trait's default, which is
//! that reference loop.  `simulate` itself is the only code that builds a
//! step's outcome, so the chosen seed is applied through the reference.
//! Costs here are SSP failure counts — integers in `f64` — so even the
//! streamed sums of the bitwise walk are exact.

use parcolor_core::framework::{NormalProcedure, SimScratch};
use parcolor_core::hknt::procs::{
    CliquePutAside, CliqueTrial, GenerateSlack, MultiTrial, PutAside, SspMode, StageSet,
    SynchColorTrial, TryRandomColor,
};
use parcolor_core::instance::{ColoringState, D1lcInstance};
use parcolor_core::{Graph, NodeId};
use parcolor_graphgen::gnm;
use parcolor_local::tape::{ForceScalar, TapeBlock};
use parcolor_prg::{
    select_seed, select_seed_blocks_n, ChunkAssignment, Prg, PrgBlock, PrgTape, SeedSelection,
    SeedStrategy, SEED_BLOCK,
};
use proptest::prelude::*;

const SEED_BITS: u32 = 6;

fn all_strategies() -> [SeedStrategy; 4] {
    [
        SeedStrategy::Exhaustive,
        SeedStrategy::BitwiseCondExp,
        SeedStrategy::FixedSubset(11),
        SeedStrategy::SingleSeed(3),
    ]
}

fn assert_selection_eq(old: &SeedSelection, new: &SeedSelection, ctx: &str) {
    assert_eq!(old.seed, new.seed, "{ctx}: chosen seed");
    assert_eq!(old.cost, new.cost, "{ctx}: cost");
    assert_eq!(old.mean_cost, new.mean_cost, "{ctx}: mean_cost");
    assert_eq!(old.min_cost, new.min_cost, "{ctx}: min_cost");
    assert_eq!(old.evaluated, new.evaluated, "{ctx}: evaluated");
    assert_eq!(old.trace, new.trace, "{ctx}: trace");
}

/// The production search: `select_seed_blocks_n` over `seed_cost_block`
/// (what `Runner::run_step` drives), each seed block passed through
/// `wrap`.
fn block_selection<'c, B: TapeBlock>(
    proc: &dyn NormalProcedure,
    state: &ColoringState,
    chunks: &'c ChunkAssignment,
    strategy: SeedStrategy,
    workers: usize,
    wrap: impl Fn(PrgBlock<'c>) -> B + Sync,
) -> SeedSelection {
    let prg = Prg::new(SEED_BITS);
    select_seed_blocks_n(
        SEED_BITS,
        strategy,
        workers,
        || SimScratch::new(state.n()),
        |seed0, costs, scratch| {
            let block = wrap(PrgBlock::new(prg, seed0, costs.len(), chunks));
            proc.seed_cost_block(state, &block, scratch, costs);
        },
    )
}

/// Run both paths over the full strategy set and demand bit-identity.
fn check_equivalence(proc: &dyn NormalProcedure, state: &ColoringState, ctx: &str) {
    let prg = Prg::new(SEED_BITS);
    let chunks = ChunkAssignment::PerNode;
    for strategy in all_strategies() {
        let old = select_seed(SEED_BITS, strategy, |seed| {
            let tape = PrgTape::new(prg, seed, &chunks);
            let out = proc.simulate(state, &tape);
            proc.seed_cost(state, &out)
        });
        let blocked = block_selection(proc, state, &chunks, strategy, 0, |t| t);
        assert_selection_eq(&old, &blocked, &format!("{ctx} / {strategy:?} (block)"));
        assert!(
            blocked.satisfies_guarantee(),
            "{ctx} / {strategy:?}: guarantee"
        );

        // And with batching forced off: the block's lanes drawn by the
        // trait default (each lane's scalar `below`) and every lane's tape
        // on the scalar trait defaults must reproduce the lane mixers
        // word-for-word, hence the identical selection.
        let forced = block_selection(proc, state, &chunks, strategy, 0, ForceScalar);
        assert_selection_eq(
            &old,
            &forced,
            &format!("{ctx} / {strategy:?} (forced scalar)"),
        );
    }
}

/// A partially colored random state so residual palettes are non-trivial.
fn partially_colored(n: usize, m: usize, seed: u64) -> (D1lcInstance, ColoringState) {
    let g = gnm(n, m, seed);
    let inst = D1lcInstance::delta_plus_one(g.clone());
    let mut state = ColoringState::new(&inst);
    // Deterministically color a scattered independent-ish subset.
    let mut batch: Vec<(NodeId, u32)> = Vec::new();
    let mut blocked = vec![false; n];
    for v in (0..n as NodeId).step_by(7) {
        if blocked[v as usize] {
            continue;
        }
        let c = state.palette(v)[0];
        if batch.iter().any(|&(u, cu)| cu == c && g.has_edge(u, v)) {
            continue;
        }
        batch.push((v, c));
        for &u in g.neighbors(v) {
            blocked[u as usize] = true;
        }
    }
    state.apply_adoptions(&g, &batch);
    (inst, state)
}

fn active_uncolored(g: &Graph, state: &ColoringState) -> StageSet {
    StageSet::new(g, state.uncolored_nodes())
}

#[test]
fn try_random_color_matches_reference_path() {
    for seed in [1u64, 2] {
        let (inst, state) = partially_colored(200, 600, seed);
        for ssp in [SspMode::Colored, SspMode::Auto, SspMode::SlackRatio(0.4)] {
            let proc = TryRandomColor::new(active_uncolored(&inst.graph, &state), ssp.clone(), 2);
            check_equivalence(&proc, &state, &format!("TryRandomColor g{seed} {ssp:?}"));
        }
    }
}

#[test]
fn multi_trial_matches_reference_path() {
    for (seed, x) in [(3u64, 2usize), (4, 5)] {
        let (inst, state) = partially_colored(150, 450, seed);
        let proc = MultiTrial::new(
            active_uncolored(&inst.graph, &state),
            x,
            SspMode::Colored,
            1,
        );
        check_equivalence(&proc, &state, &format!("MultiTrial g{seed} x{x}"));
    }
}

#[test]
fn generate_slack_matches_reference_path() {
    let (inst, state) = partially_colored(180, 540, 5);
    let set = active_uncolored(&inst.graph, &state);
    // Mixed targets: a third auto-succeed, the rest must gain slack.
    let targets: Vec<f64> = set
        .active
        .iter()
        .enumerate()
        .map(|(i, _)| if i % 3 == 0 { 0.0 } else { 1.0 })
        .collect();
    let proc = GenerateSlack::new(set, 0.2, targets, 3);
    check_equivalence(&proc, &state, "GenerateSlack");
}

fn clique_graph(k: usize) -> Graph {
    let mut edges = Vec::new();
    for a in 0..k as NodeId {
        for b in (a + 1)..k as NodeId {
            edges.push((a, b));
        }
    }
    Graph::from_edges(k, &edges)
}

#[test]
fn synch_color_trial_matches_reference_path() {
    let g = clique_graph(14);
    let inst = D1lcInstance::delta_plus_one(g.clone());
    let state = ColoringState::new(&inst);
    let inliers: Vec<NodeId> = (1..14).collect();
    let proc = SynchColorTrial::new(
        StageSet::new(&g, inliers.clone()),
        vec![CliqueTrial { leader: 0, inliers }],
        2,
        1,
    );
    check_equivalence(&proc, &state, "SynchColorTrial");
}

#[test]
fn put_aside_matches_reference_path() {
    let g = clique_graph(16);
    let inst = D1lcInstance::delta_plus_one(g.clone());
    let state = ColoringState::new(&inst);
    let inliers: Vec<NodeId> = (0..16).collect();
    let proc = PutAside {
        set: StageSet::new(&g, inliers.clone()),
        cliques: vec![CliquePutAside {
            clique_id: 0,
            inliers,
            prob: 0.2,
            target: 1,
        }],
        round_tag: 2,
    };
    check_equivalence(&proc, &state, "PutAside");
}

// ---------------------------------------------------------------------
// Block coverage for every SspMode, a property test pinning every lane
// of TryRandomColor's block evaluator to the reference cost, and
// worker-count invariance of the stolen-block fold.
// ---------------------------------------------------------------------

#[test]
fn try_random_color_slack_target_matches_reference_path() {
    let (inst, state) = partially_colored(150, 500, 9);
    let set = active_uncolored(&inst.graph, &state);
    // Mixed targets: auto-succeed, reachable, unreachable, negative.
    let targets: Vec<f64> = set
        .active
        .iter()
        .enumerate()
        .map(|(i, _)| match i % 4 {
            0 => 0.0,
            1 => 1.0,
            2 => 3.0,
            _ => -2.0,
        })
        .collect();
    let proc = TryRandomColor::new(set, SspMode::SlackTarget(targets), 4);
    check_equivalence(&proc, &state, "TryRandomColor SlackTarget");
}

#[test]
fn multi_trial_matches_reference_path_for_every_ssp() {
    let (inst, state) = partially_colored(140, 420, 10);
    for ssp in [
        SspMode::Auto,
        SspMode::SlackRatio(0.3),
        SspMode::SlackTarget(
            active_uncolored(&inst.graph, &state)
                .active
                .iter()
                .enumerate()
                .map(|(i, _)| (i % 3) as f64)
                .collect(),
        ),
    ] {
        let proc = MultiTrial::new(active_uncolored(&inst.graph, &state), 3, ssp.clone(), 2);
        check_equivalence(&proc, &state, &format!("MultiTrial {ssp:?}"));
    }
}

#[test]
fn generate_slack_matches_reference_path_more_probs() {
    for (seed, prob) in [(6u64, 0.05), (7, 0.5), (8, 0.95)] {
        let (inst, state) = partially_colored(120, 380, seed);
        let set = active_uncolored(&inst.graph, &state);
        let targets: Vec<f64> = set
            .active
            .iter()
            .enumerate()
            .map(|(i, _)| (i % 4) as f64 - 1.0)
            .collect();
        let proc = GenerateSlack::new(set, prob, targets, 5);
        check_equivalence(&proc, &state, &format!("GenerateSlack p={prob}"));
    }
}

/// Direct lane pin: for a seed block, `seed_cost_block` must write
/// exactly the reference `seed_cost(simulate(tape))` of every lane —
/// including short and unit blocks (the tail/SingleSeed shapes).
fn assert_block_matches_reference(proc: &dyn NormalProcedure, state: &ColoringState, ctx: &str) {
    let prg = Prg::new(SEED_BITS);
    let chunks = ChunkAssignment::PerNode;
    let mut block_scratch = SimScratch::new(state.n());
    for seed0 in [0u64, 8, 56] {
        for blen in [SEED_BLOCK, 3, 1] {
            let block = PrgBlock::new(prg, seed0, blen, &chunks);
            let mut costs = vec![0.0f64; blen];
            proc.seed_cost_block(state, &block, &mut block_scratch, &mut costs);
            for (i, &got) in costs.iter().enumerate() {
                let tape = PrgTape::new(prg, seed0 + i as u64, &chunks);
                let want = proc.seed_cost(state, &proc.simulate(state, &tape));
                assert_eq!(
                    got, want,
                    "{ctx}: lane {i} of block at seed0 {seed0} (len {blen})"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // TryRandomColor's block evaluator equals the reference cost on
    // random graphs and every SspMode, on the whole node set and on a
    // strict subset whose nodes have neighbors outside the stage.
    #[test]
    fn block_costs_match_reference_on_random_instances(
        gseed in 0u64..10_000,
        n in 30usize..70,
        extra in 0usize..160,
        ratio in 0.0f64..1.0,
    ) {
        let g = gnm(n, n + extra, gseed);
        let inst = D1lcInstance::delta_plus_one(g.clone());
        let state = ColoringState::new(&inst);
        let full = StageSet::new(&g, (0..n as NodeId).collect());
        let subset = StageSet::new(
            &g,
            (0..n as NodeId).filter(|&v| !(v as u64 + gseed).is_multiple_of(3)).collect(),
        );
        for (name, set) in [("full", full), ("subset", subset)] {
            let targets: Vec<f64> = (0..set.active.len()).map(|i| (i % 5) as f64 - 1.0).collect();
            for ssp in [
                SspMode::Auto,
                SspMode::Colored,
                SspMode::SlackRatio(ratio),
                SspMode::SlackTarget(targets),
            ] {
                let proc = TryRandomColor::new(set.clone(), ssp.clone(), 1);
                assert_block_matches_reference(
                    &proc,
                    &state,
                    &format!("TryRandomColor {name} {ssp:?}"),
                );
            }
        }
    }
}

/// The stolen-block sharded fold must select identically at every worker
/// count on a real procedure (the Lemma 10 guarantee is per-selection,
/// so any divergence would change the pipeline's output).  A slack
/// target keeps the lane outcomes' `seed_cost` in the matrix.  Targets of 3 bind,
/// so the seeds' costs differ (asserted); at a target of 1 every seed
/// costs 0 and every fold would agree trivially.
#[test]
fn sharded_search_is_worker_invariant_on_procedures() {
    let (inst, state) = partially_colored(180, 540, 11);
    let set = active_uncolored(&inst.graph, &state);
    let targets: Vec<f64> = set.active.iter().map(|_| 3.0).collect();
    let proc = TryRandomColor::new(set, SspMode::SlackTarget(targets), 6);
    let chunks = ChunkAssignment::PerNode;
    let run = |workers: usize, strategy: SeedStrategy| {
        block_selection(&proc, &state, &chunks, strategy, workers, |t| t)
    };
    let exhaustive = run(1, SeedStrategy::Exhaustive);
    assert!(
        exhaustive.min_cost < exhaustive.mean_cost,
        "every seed costs the same: the matrix would compare constant folds"
    );
    for strategy in all_strategies() {
        let reference = run(1, strategy);
        for workers in [2usize, 3, 5, 8] {
            let got = run(workers, strategy);
            assert_selection_eq(&reference, &got, &format!("{strategy:?} workers {workers}"));
        }
    }
}
