//! Soundness of the seed-independent SSP certificate: whenever a
//! procedure's `zero_cost_under_every_seed` holds, its seed cost really
//! is 0 and its SSP scan finds no failure under every seed (the runner
//! skips that scan on a certified step), every strategy's search selects
//! `SeedStrategy::constant_cost_seed`, and a `Runner` step that skips the
//! search colors exactly what the search would have.
//!
//! Cases are small random graphs with list palettes (sometimes inflated,
//! so the bound can fire), partly precolored so the residual palettes
//! have shrunk, and random stage subsets (sometimes thinned to an
//! independent set, so the `Auto`/`Colored` certificate can fire).  The
//! inputs come from the in-repo proptest shim's deterministic stream; the
//! test counts certified cases per procedure and SSP and fails if any
//! count is too small to mean anything.

use parcolor_core::framework::{NormalProcedure, Outcome, Runner, SimScratch};
use parcolor_core::hknt::procs::{GenerateSlack, MultiTrial, SspMode, StageSet, TryRandomColor};
use parcolor_core::instance::{ColoringState, D1lcInstance, PaletteArena};
use parcolor_core::{Graph, NodeId, Params};
use parcolor_local::tape::{CryptoTape, Randomness};
use parcolor_prg::{select_seed_blocks_n, ChunkAssignment, Prg, PrgTape, SeedStrategy, SEED_BLOCK};
use proptest::prelude::*;
use std::collections::BTreeMap;

const SEED_BITS: u32 = 6;

const STRATEGIES: [SeedStrategy; 5] = [
    SeedStrategy::Exhaustive,
    SeedStrategy::BitwiseCondExp,
    SeedStrategy::FixedSubset(11),
    SeedStrategy::FixedSubset(100),
    SeedStrategy::SingleSeed(37),
];

/// The wrapped procedure with the default `zero_cost_under_every_seed`
/// (never certified), so the runner searches for it.
struct Searched<'p>(&'p dyn NormalProcedure);

impl NormalProcedure for Searched<'_> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn active_count(&self) -> usize {
        self.0.active_count()
    }

    fn simulate(&self, state: &ColoringState, rng: &dyn Randomness) -> Outcome {
        self.0.simulate(state, rng)
    }

    fn seed_cost_block(
        &self,
        state: &ColoringState,
        tapes: &[&dyn Randomness],
        scratch: &mut SimScratch,
        costs: &mut [f64],
    ) {
        self.0.seed_cost_block(state, tapes, scratch, costs)
    }

    fn ssp_failures(&self, state: &ColoringState, out: &Outcome) -> Vec<NodeId> {
        self.0.ssp_failures(state, out)
    }

    fn seed_cost(&self, state: &ColoringState, out: &Outcome) -> f64 {
        self.0.seed_cost(state, out)
    }
}

/// One random instance, partly colored, with a stage subset of its
/// uncolored nodes.
struct Case {
    inst: D1lcInstance,
    state: ColoringState,
    active: Vec<NodeId>,
}

fn random_case(rng: &mut TestRng) -> Case {
    let n = 2 + rng.below(22) as usize;
    let pairs = proptest::collection::vec((0..n as NodeId, 0..n as NodeId), 0..3 * n);
    let edges: Vec<(NodeId, NodeId)> = pairs
        .generate(rng)
        .into_iter()
        .filter(|(a, b)| a != b)
        .collect();
    let g = Graph::from_edges(n, &edges);
    // Windows of deg(v) + 1 colors out of a small shared range, so
    // neighbors' lists overlap; `inflate > 0` widens them so the
    // certificate can fire.
    let inflate = rng.below(4);
    let lists: Vec<Vec<u32>> = (0..n as NodeId)
        .map(|v| {
            let deg = g.degree(v) as u64;
            let size = deg + 1 + inflate * rng.below(2 * deg + 3);
            let base = rng.below(8) as u32;
            (base..base + size as u32).collect()
        })
        .collect();
    let inst = D1lcInstance::new(g, PaletteArena::from_lists(&lists));
    let mut state = ColoringState::new(&inst);
    for _ in 0..rng.below(n as u64 / 3 + 1) {
        let unc = state.uncolored_nodes();
        let v = unc[rng.below(unc.len() as u64) as usize];
        let pal = state.palette(v);
        let c = pal[rng.below(pal.len() as u64) as usize];
        state.apply_adoptions(&inst.graph, &[(v, c)]);
    }
    let independent = rng.below(2) == 0;
    let mut in_set = vec![false; n];
    let mut active = Vec::new();
    for v in state.uncolored_nodes() {
        if rng.below(4) == 0
            || independent && inst.graph.neighbors(v).iter().any(|&u| in_set[u as usize])
        {
            continue;
        }
        in_set[v as usize] = true;
        active.push(v);
    }
    Case {
        inst,
        state,
        active,
    }
}

/// The three claims the certificate makes, checked for one certified
/// procedure.
fn check_certified(proc: &dyn NormalProcedure, g: &Graph, state: &ColoringState, ctx: &str) {
    let prg = Prg::new(SEED_BITS);
    let chunks = ChunkAssignment::PerNode;
    // The reference cost is 0, and no node fails, under every seed (and
    // any other tape).
    let check_tape = |tape: &dyn Randomness, what: &str| {
        let out = proc.simulate(state, tape);
        assert_eq!(proc.seed_cost(state, &out), 0.0, "{ctx}: {what}");
        assert!(proc.ssp_failures(state, &out).is_empty(), "{ctx}: {what}");
    };
    for seed in 0..prg.seed_space() {
        check_tape(&PrgTape::new(prg, seed, &chunks), &format!("seed {seed}"));
    }
    check_tape(&CryptoTape::new(0x55AA), "crypto tape");

    for strategy in STRATEGIES {
        let expected = strategy.constant_cost_seed(SEED_BITS);
        // A forced search over the block evaluator selects that seed.
        let sel = select_seed_blocks_n(
            SEED_BITS,
            strategy,
            0,
            || SimScratch::new(state.n()),
            |seed0, costs, scratch| {
                let tapes = prg.block_tapes(seed0, &chunks);
                let refs: [&dyn Randomness; SEED_BLOCK] =
                    std::array::from_fn(|i| &tapes[i] as &dyn Randomness);
                proc.seed_cost_block(state, &refs[..costs.len()], scratch, costs);
            },
        );
        assert_eq!(sel.seed, expected, "{ctx} {strategy:?}: forced search");
        assert_eq!(
            (sel.cost, sel.mean_cost, sel.min_cost),
            (0.0, 0.0, 0.0),
            "{ctx} {strategy:?}: forced search"
        );

        // The runner skips the search and colors what searching would.
        let params = Params::default()
            .with_seed_bits(SEED_BITS)
            .with_strategy(strategy);
        let mut skipped = state.clone();
        let rep = Runner::derandomized(g, &params, g.n()).run_step(proc, &mut skipped);
        assert!(rep.certified, "{ctx} {strategy:?}: step not certified");
        assert!(rep.selection.is_none(), "{ctx} {strategy:?}: selection");
        assert_eq!(rep.failures, 0, "{ctx} {strategy:?}: failures");
        let mut searched = state.clone();
        let full = Runner::derandomized(g, &params, g.n()).run_step(&Searched(proc), &mut searched);
        assert!(!full.certified, "{ctx} {strategy:?}");
        let sel = full.selection.expect("an uncertified step searches");
        assert_eq!(sel.seed, expected, "{ctx} {strategy:?}: runner search");
        assert_eq!(sel.cost, 0.0, "{ctx} {strategy:?}: runner search");
        assert_eq!(rep.adopted, full.adopted, "{ctx} {strategy:?}: adopted");
        assert_eq!(
            skipped.colors(),
            searched.colors(),
            "{ctx} {strategy:?}: colors"
        );
    }
}

#[test]
fn certified_steps_cost_nothing_and_color_what_the_search_would() {
    let mut rng = TestRng::new(0x5350_4345_5254);
    let mut certified: BTreeMap<&str, usize> = BTreeMap::new();
    let mut tried: BTreeMap<&str, usize> = BTreeMap::new();
    for case_no in 0..160 {
        let Case {
            inst,
            state,
            active,
        } = random_case(&mut rng);
        if active.is_empty() {
            continue;
        }
        let g = &inst.graph;
        let set = || StageSet::new(g, active.clone());
        let ratio = rng.f64() * 3.0;
        let x = 1 + rng.below(6) as usize;
        let tag = rng.below(1 << 10);
        let modes = [
            ("TryRandomColor/Auto", "MultiTrial/Auto", SspMode::Auto),
            (
                "TryRandomColor/Colored",
                "MultiTrial/Colored",
                SspMode::Colored,
            ),
            (
                "TryRandomColor/SlackRatio",
                "MultiTrial/SlackRatio",
                SspMode::SlackRatio(ratio),
            ),
        ];
        let mut procs: Vec<(&str, Box<dyn NormalProcedure + '_>)> = Vec::new();
        for (trc, mt, ssp) in modes {
            procs.push((trc, Box::new(TryRandomColor::new(set(), ssp.clone(), tag))));
            procs.push((mt, Box::new(MultiTrial::new(set(), x, ssp, tag))));
        }
        // Slack targets, some ≤ 0 (auto-success), some fractional.
        let targets: Vec<f64> = active.iter().map(|_| rng.f64() * 12.0 - 4.0).collect();
        let prob = [0.1, 0.5, 1.0][rng.below(3) as usize];
        procs.push((
            "GenerateSlack/SlackTarget",
            Box::new(GenerateSlack::new(set(), prob, targets, tag)),
        ));
        for (label, proc) in &procs {
            *tried.entry(label).or_default() += 1;
            if proc.zero_cost_under_every_seed(&state) {
                *certified.entry(label).or_default() += 1;
                check_certified(proc.as_ref(), g, &state, &format!("case {case_no} {label}"));
            }
        }
    }
    eprintln!("certified / tried: {certified:?} / {tried:?}");
    for (key, &n) in &tried {
        let c = certified.get(key).copied().unwrap_or(0);
        assert!(c >= 20, "{key}: only {c} of {n} cases certified");
        assert!(
            c < n,
            "{key}: every case certified; no case tests the bound failing"
        );
    }
    assert_eq!(tried.len(), 7);
}

#[test]
fn a_negative_ratio_is_never_certified() {
    // An isolated node with a large palette meets every other bound.
    let inst = D1lcInstance::new(Graph::empty(1), PaletteArena::from_lists(&[vec![1, 2, 3]]));
    let state = ColoringState::new(&inst);
    let set = StageSet::new(&inst.graph, vec![0]);
    let ok = TryRandomColor::new(set.clone(), SspMode::SlackRatio(0.0), 0);
    assert!(ok.zero_cost_under_every_seed(&state));
    let neg = TryRandomColor::new(set, SspMode::SlackRatio(-0.5), 0);
    assert!(!neg.zero_cost_under_every_seed(&state));
}
