//! The derandomization framework (Section 4 of the paper).
//!
//! * [`NormalProcedure`] encodes Definition 5: a short randomized LOCAL
//!   procedure with a per-node **strong success property** (SSP, holds
//!   w.h.p. under true randomness) whose failures can be **deferred**
//!   without hurting anyone else (the weak success property).  For the
//!   coloring procedures this holds because deferring a node removes it
//!   from neighbors' competition while blocking no palette colors — slack
//!   only grows.  The invariant is machine-checked by the property tests.
//! * [`Runner`] executes a series of procedures either **randomized**
//!   (CryptoTape, Lemma 4) or **derandomized** (Lemma 10: simulate under
//!   every PRG seed, pick one with at most the mean number of SSP failures
//!   via `parcolor_prg::select_seed_blocks_n`, defer the failures).  A
//!   derandomized step whose cost a seed-independent bound shows to be 0
//!   under every seed skips the search (see below).
//!
//! Theorem 12's outer loop — re-running the whole series on the deferred
//! residual instance `O(1/δ)` times, then finishing greedily on one
//! machine — lives in `solver.rs`, because it needs D1LC's
//! self-reducibility (`ColoringState::residual_instance`).
//!
//! ## The seed-search fast path and its cost model
//!
//! The derandomizer's hot loop evaluates the pessimistic estimator once
//! per candidate seed — `2^seed_bits` evaluations per step — and every
//! candidate goes through [`NormalProcedure::seed_cost_block`].  The
//! outcome of the *chosen* seed (or, randomized, of the keyed tape) is
//! built once per step by one sequential [`NormalProcedure::simulate`]
//! call — the same reference the block evaluator is pinned to.  Every
//! seed's cost is [`NormalProcedure::seed_cost`] of that seed's outcome,
//! and four structural decisions keep the hot loop at memory speed:
//!
//! 1. **One seed-lane block evaluator, where the workloads search.**
//!    TryRandomColor, the procedure whose searches dominate a solve,
//!    overrides [`NormalProcedure::seed_cost_block`]: a block of up to
//!    `SEED_BLOCK` seeds draws its picks into one structure-of-arrays
//!    plane (`SimScratch::soa`), and the clash scan runs ONCE over the
//!    active edges with lane-parallel compares, instead of once per seed.
//!    Its costs are `seed_cost`'s values: each lane's clashed-node count
//!    is the `Auto`/`Colored` cost, and under a slack SSP each lane's
//!    outcome is read off the plane and costed by `seed_cost` itself.  See
//!    the block contract on [`NormalProcedure::seed_cost_block`].  Every
//!    other procedure, MultiTrial included, takes the trait's default,
//!    the reference loop `seed_cost(simulate(tape))` per lane; their SSP
//!    evaluation reads stage-sized maps, so a seed of a small stage costs
//!    no pass over the whole graph.  Lemma 23's hash search in
//!    `reduce.rs` also costs its seeds by lanes: each seed of a block
//!    fills one lane of the `u8` node- and color-bin planes, and one walk
//!    over the high nodes' neighbors and palettes counts every lane.
//! 2. **Pick caching in reusable arenas** ([`SimScratch`]).  A node's
//!    random draw under a fixed seed is the same no matter which neighbor
//!    asks, so the block evaluator draws each active node's pick **once**
//!    per lane (`O(n_active)` tape reads) and resolves clashes with `O(m)`
//!    array lookups — as the reference `TryRandomColor::simulate` does for
//!    its one tape.  The arena's buffers are retained across evaluations,
//!    so after warm-up the draws and the clash scan allocate nothing.
//! 3. **Sharded seed-parallelism.**  `parcolor_prg::select_seed_blocks_n`
//!    folds the seed space on the persistent `parcolor-exec` pool, one
//!    scratch per worker; each block evaluation is sequential.  Workers
//!    steal `SEED_BLOCK`-sized blocks off one shared atomic counter, and
//!    the fold merges `(sum, min, argmin)` with a lowest-seed tie-break —
//!    grouping-invariant for the integer SSP costs, so results are
//!    bit-identical for any worker count and any steal order.
//! 4. **Batched randomness plane** ([`SimScratch`]).  A procedure's random
//!    draws are materialized for a whole stripe of active nodes in one
//!    `Randomness::fill_*` call per stream — the tape's seed/stream mixer
//!    rounds are hoisted once per stripe and the per-node rounds run four
//!    lanes at a time through the inline `parcolor_local::simd::splitmix4`
//!    — instead of one scalar `word` per node.  The plane is bit-identical
//!    to the scalar tape walk (same mixer outputs, same picks, same chosen
//!    seeds; see the batch contract in `parcolor_local::tape`), so the
//!    reference `simulate` path and the golden hashes are unchanged.
//!
//! Per derandomized step a TryRandomColor or MultiTrial search therefore
//! costs `O(2^seed_bits · Σ_{v ∈ stage} (1 + d(v)) / workers)`, in
//! proportion to the stage and its neighborhoods rather than to the whole
//! graph, and `BitwiseCondExp` streams each half-space mean instead of
//! materializing the `2^seed_bits` cost table (see
//! `parcolor_prg::seed_search`).  `tests/seed_fastpath_equivalence.rs`
//! pins the fast path to the reference path (`simulate` + `seed_cost`
//! under `select_seed`): identical `SeedSelection` (seed, cost, mean,
//! trace) for every strategy, and identical costs in every block lane.
//!
//! A step can skip its search altogether.  Before searching, the runner
//! asks [`NormalProcedure::zero_cost_under_every_seed`] whether a bound
//! that does not depend on the seed already shows the step's cost is 0
//! under every seed.  If it does, Lemma 10's mean is 0, every seed
//! reaches it, and the runner applies the seed every strategy selects on
//! a constant cost (`SeedStrategy::constant_cost_seed`).  Such a
//! *certified* step costs one `O(n_active + m_active)` pass for the bound
//! and evaluates no seed; its coloring is the one the search would have
//! produced (`tests/ssp_certificate.rs`).

use crate::config::{ChunkMode, Params};
use crate::instance::ColoringState;
use crate::linial::linial_coloring;
use parcolor_local::engine::RoundEngine;
use parcolor_local::graph::{Graph, NodeId};
use parcolor_local::power::power_graph;
use parcolor_local::tape::{CryptoTape, Randomness};
use parcolor_mpc::{MpcConfig, NodeMpc};
use parcolor_prg::{
    select_seed_blocks_n, ChunkAssignment, Prg, PrgTape, SeedSelection, SeedStrategy, SEED_BLOCK,
};

/// Output of simulating one normal procedure (the `Out_v` of Definition 5,
/// gathered for the whole graph).
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Conflict-free color adoptions proposed by the procedure.
    pub adoptions: Vec<(NodeId, u32)>,
    /// Procedure-specific extra output (e.g. PutAside's sampled set).
    pub aux: Vec<NodeId>,
}

/// Reusable arena for [`NormalProcedure::seed_cost_block`], one per
/// seed-search worker: the buffers of TryRandomColor's block evaluator,
/// which draws a whole block's picks with one `Randomness::fill_below`
/// call per seed lane and resolves their clashes in one lane-parallel
/// scan.
///
/// Every buffer is block-scoped: each block evaluation overwrites what it
/// reads (the draws of its own stripe, the dense rows of its own active
/// nodes), so nothing needs clearing between evaluations and capacity is
/// retained across the whole seed search.  Every draw is bit-identical to
/// the scalar calls it replaces (the tape-level batch contract), which is
/// what keeps the block evaluator pinned to the reference path.  The
/// default `seed_cost_block` leaves the arena untouched.
#[derive(Clone, Debug)]
pub struct SimScratch {
    /// Per-node draw bounds gathered for the current stripe.
    pub(crate) bounds: Vec<u64>,
    /// Bounded draws, one stripe per seed lane.
    pub(crate) vals: Vec<u64>,
    /// Seed-lane plane: picks of up to [`SEED_BLOCK`] seeds per node,
    /// dense by node id, one `u32` lane per seed — the
    /// structure-of-arrays layout the clash scan compares lane-parallel.
    pub(crate) soa: Vec<[u32; SEED_BLOCK]>,
    /// Per-node seed-lane clash bits (bit `s` ⇔ the node clashed in lane
    /// `s`), dense by node id — the clash scan ORs into it branchlessly.
    pub(crate) lane_mask: Vec<u8>,
}

impl SimScratch {
    /// Arena for an `n`-node state.  The dense per-node planes are zeroed
    /// allocations, so only the rows a search touches become resident.
    pub fn new(n: usize) -> Self {
        SimScratch {
            bounds: Vec::new(),
            vals: Vec::new(),
            soa: vec![[0; SEED_BLOCK]; n],
            lane_mask: vec![0; n],
        }
    }
}

/// A normal `(τ, Δ)`-round distributed procedure (Definition 5).
///
/// Implementations must keep `simulate` **pure**: the outcome must be a
/// deterministic function of `(state, rng)` and must not mutate anything —
/// it is the reference every other evaluation method must reproduce, and
/// the derandomizer evaluates candidate seeds in parallel.
pub trait NormalProcedure: Sync {
    /// Human-readable procedure name (for reports).
    fn name(&self) -> &'static str;

    /// Locality radius τ (all procedures in this repo are O(1)-round).
    fn tau(&self) -> u32 {
        1
    }

    /// LOCAL rounds one execution costs (charged to the round engine).
    fn local_rounds(&self) -> u64 {
        2
    }

    /// Number of participating nodes (for reporting and failure bounds).
    fn active_count(&self) -> usize;

    /// Simulate the procedure on the current state under `rng` — the
    /// runner's one way to build a step's outcome, once per step, under
    /// the chosen seed (or, randomized, under the keyed tape).
    fn simulate(&self, state: &ColoringState, rng: &dyn Randomness) -> Outcome;

    /// Cost evaluation for a **block** of candidate seeds, one tape per
    /// seed (at most `parcolor_prg::SEED_BLOCK`): must write
    /// `costs[i] = seed_cost(state, &simulate(state, tapes[i]))` for every
    /// lane.  This is the only path the derandomizer costs candidate
    /// seeds through; a per-seed evaluation is a 1-lane block.  The
    /// default is exactly that reference loop (allocating, scratch
    /// unused).  TryRandomColor overrides it, because the workloads search
    /// it most: it draws the whole block's picks into the seed-lane plane
    /// (`SimScratch::soa`) and amortizes the clash scan across lanes.  An
    /// override is only ever a faster way to the default's value.
    ///
    /// ## The block contract
    ///
    /// An override must guarantee, for every lane `i < costs.len()`:
    ///
    /// 1. **Per-lane purity.**  `costs[i]` is a pure function of seed
    ///    lane `i` alone — exactly the value `seed_cost(state,
    ///    &simulate(state, tapes[i]))` computes, bit-for-bit (costs are
    ///    integer SSP-failure counts, so "bit-for-bit" is meaningful).
    ///    Lanes must not leak into one another: the block fold regroups
    ///    blocks freely across workers, and
    ///    `tests/seed_fastpath_equivalence.rs` pins every override to the
    ///    reference path.
    /// 2. **Tape addressing is unchanged.**  Each lane draws through its
    ///    own tape with the same `(node, stream, idx)` addresses
    ///    `simulate` reads — materializing lanes into the plane is a
    ///    layout change, never a randomness change.
    /// 3. **Stale lanes are never read.**  Dense SoA rows
    ///    (`SimScratch::soa`) retain garbage from earlier blocks.  An
    ///    override pads the lanes it does not fill with values that cannot
    ///    collide: TryRandomColor writes the node's own id, which no
    ///    endpoint across an edge shares.
    /// 4. **Short blocks are legal.**  `tapes.len()` may be any length
    ///    in `1..=SEED_BLOCK` (tail blocks, `SingleSeed`); lanes past
    ///    `costs.len()` must not be read or written as costs.
    ///
    /// Block grouping must never change any individual seed's cost.
    fn seed_cost_block(
        &self,
        state: &ColoringState,
        tapes: &[&dyn Randomness],
        scratch: &mut SimScratch,
        costs: &mut [f64],
    ) {
        debug_assert_eq!(tapes.len(), costs.len());
        let _ = scratch;
        for (tape, c) in tapes.iter().zip(costs.iter_mut()) {
            *c = self.seed_cost(state, &self.simulate(state, *tape));
        }
    }

    /// Nodes failing the strong success property under `out`.  Must be a
    /// subset of the active uncolored-after-outcome nodes: a node that the
    /// outcome colors is always deemed successful (its output is final),
    /// so deferral never needs to retract an adoption.
    fn ssp_failures(&self, state: &ColoringState, out: &Outcome) -> Vec<NodeId>;

    /// Cost functional minimized by the seed search.  Defaults to the SSP
    /// failure count — exactly Lemma 10's pessimistic estimator.  Warm-up
    /// procedures whose SSP is intentionally permissive (e.g. the first
    /// TryRandomColor calls inside SlackColor) override this to "number of
    /// nodes left uncolored", which only strengthens the chosen seed; the
    /// Lemma 10 guarantee is still reported against SSP failures.
    fn seed_cost(&self, state: &ColoringState, out: &Outcome) -> f64 {
        self.ssp_failures(state, out).len() as f64
    }

    /// Whether a bound that does not depend on the seed shows this step's
    /// seed cost is 0 under every seed.  Contract: return `true` only if
    /// `seed_cost(state, &simulate(state, t)) == 0` for **every** tape
    /// `t`.  The runner then skips the seed search and applies
    /// `SeedStrategy::constant_cost_seed`, the seed any search over a
    /// constant cost selects.  Asked once per derandomized step, before
    /// the search; it must be a pure function of `state`, so every replica
    /// of a distributed solve skips the same steps.  The default claims
    /// nothing.
    fn zero_cost_under_every_seed(&self, state: &ColoringState) -> bool {
        let _ = state;
        false
    }
}

/// Per-step execution report.
#[derive(Clone, Debug)]
pub struct StepReport {
    /// Procedure name.
    pub name: &'static str,
    /// Participating nodes.
    pub active: usize,
    /// Nodes colored by the step.
    pub adopted: usize,
    /// SSP failures (deferred).
    pub failures: usize,
    /// Lemma 10's deferral bound for this step: `1/2 + n_G · Δ^{-11τ}`.
    pub failure_bound: f64,
    /// The seed search's outcome.  `None` in randomized mode, and for a
    /// `certified` step: it evaluated no seed, so it has no selection to
    /// report.
    pub selection: Option<SeedSelection>,
    /// Whether the step skipped its seed search because a seed-independent
    /// bound showed its cost is 0 under every seed
    /// ([`NormalProcedure::zero_cost_under_every_seed`]); the step then
    /// ran under `SeedStrategy::constant_cost_seed`.  Always `false` in
    /// randomized mode.
    pub certified: bool,
}

/// The block evaluator a [`SeedSearcher`] receives: writes
/// `costs[i] = cost(seed0 + i)` into a short block using the given
/// scratch arena, per the [`NormalProcedure::seed_cost_block`] contract.
pub type BlockEval<'a> = &'a (dyn Fn(u64, &mut [f64], &mut SimScratch) + Sync);

/// Pluggable seed-search backend — the hook through which a solve's seed
/// searches can run somewhere other than this process's executor pool
/// (e.g. `parcolor-dist`'s coordinator, which leases seed blocks to a
/// fleet, or its worker, which serves leases and adopts the broadcast
/// selection).
///
/// Contract: `select` must return the same [`SeedSelection`] the local
/// [`select_seed_blocks_n`] path would return for the same
/// `(seed_bits, strategy, eval_block)` — every cost is a pure function
/// of its seed and the reduce is grouping-invariant, so any backend
/// that folds each seed exactly once (deduplicating retries) satisfies
/// this by construction.  `n` sizes the per-worker [`SimScratch`]
/// arenas.
///
/// Searches within one solve are issued sequentially and in a
/// deterministic order: the solver tree is walked depth-first, and
/// `Solver::solve_rec` solves a partition level's restricted bins in an
/// explicit sequential `for` loop, in bin order.  A search is issued only
/// for a step its procedure does not certify
/// ([`NormalProcedure::zero_cost_under_every_seed`]); that check is a
/// pure function of the solver state, so every replica skips the same
/// steps.  Backends that replicate solver state across machines may rely
/// on that order.
pub trait SeedSearcher: Send + Sync {
    /// Run one seed search.
    fn select(
        &self,
        seed_bits: u32,
        strategy: SeedStrategy,
        workers: usize,
        n: usize,
        eval_block: BlockEval,
    ) -> SeedSelection;
}

/// The default backend: [`select_seed_blocks_n`] on the in-process
/// work-stealing pool.
pub struct LocalSeedSearcher;

impl SeedSearcher for LocalSeedSearcher {
    fn select(
        &self,
        seed_bits: u32,
        strategy: SeedStrategy,
        workers: usize,
        n: usize,
        eval_block: BlockEval,
    ) -> SeedSelection {
        select_seed_blocks_n(
            seed_bits,
            strategy,
            workers,
            || SimScratch::new(n),
            |seed0, costs, scratch: &mut SimScratch| eval_block(seed0, costs, scratch),
        )
    }
}

/// Execution mode: Lemma 4 (randomized) or Lemma 10 (derandomized).
pub enum Mode {
    /// True(-standing) randomness with the given master key.
    Randomized {
        /// Keyed tape standing in for true randomness.
        tape: CryptoTape,
    },
    /// PRG + conditional expectations.
    Derandomized {
        /// The PRG family (seed length fixed).
        prg: Prg,
        /// Seed-selection strategy.
        strategy: SeedStrategy,
        /// Node → chunk assignment for the PRG output.
        chunks: ChunkAssignment,
        /// Seed-search worker threads (`0` = auto); any count selects
        /// the identical seed (the block fold is grouping-invariant).
        workers: usize,
        /// Where seed searches run: the in-process pool by default, or a
        /// distributed backend (any backend selects the identical seed —
        /// see [`SeedSearcher`]).
        searcher: std::sync::Arc<dyn SeedSearcher>,
    },
}

/// Executes procedures, accounts rounds/space, and tracks deferrals.
pub struct Runner<'g> {
    /// The graph all procedures run on.
    pub graph: &'g Graph,
    mode: Mode,
    /// LOCAL round accountant.
    pub engine: RoundEngine,
    /// MPC round/space accountant.
    pub mpc: NodeMpc,
    /// Nodes deferred by failed SSPs in the current series.
    pub deferred: Vec<bool>,
    stream_counter: u64,
    /// Per-step reports, in execution order.
    pub reports: Vec<StepReport>,
    /// Auxiliary output of the most recent step (e.g. PutAside's set).
    last_aux: Vec<NodeId>,
    /// Failure-injection probability (see `Params::chaos_defer_prob`).
    chaos: f64,
    /// Nodes deferred by injection rather than SSP failure (telemetry).
    pub chaos_deferrals: usize,
}

impl<'g> Runner<'g> {
    /// Construct a randomized runner (Lemma 4 pipeline).
    pub fn randomized(graph: &'g Graph, params: &Params, master_key: u64, n_global: usize) -> Self {
        let cfg = MpcConfig::new(n_global.max(2), graph.m().max(1), params.phi);
        Runner {
            graph,
            mode: Mode::Randomized {
                tape: CryptoTape::new(master_key),
            },
            engine: RoundEngine::new(),
            mpc: NodeMpc::new(cfg),
            deferred: vec![false; graph.n()],
            stream_counter: 0,
            reports: Vec::new(),
            last_aux: Vec::new(),
            chaos: params.chaos_defer_prob,
            chaos_deferrals: 0,
        }
    }

    /// Construct a derandomized runner (Lemma 10 pipeline).  In
    /// `PowerColoring` mode this computes the `G^{4τ}` coloring up front
    /// (Theorem 12 does this once, in `O(τ + log* n)` rounds).
    pub fn derandomized(graph: &'g Graph, params: &Params, n_global: usize) -> Self {
        Self::derandomized_with(
            graph,
            params,
            n_global,
            std::sync::Arc::new(LocalSeedSearcher),
        )
    }

    /// [`Runner::derandomized`] with an explicit seed-search backend
    /// (the distributed coordinator/worker layers plug in here).
    pub fn derandomized_with(
        graph: &'g Graph,
        params: &Params,
        n_global: usize,
        searcher: std::sync::Arc<dyn SeedSearcher>,
    ) -> Self {
        let cfg = MpcConfig::new(n_global.max(2), graph.m().max(1), params.phi);
        let mpc = NodeMpc::new(cfg);
        let mut engine = RoundEngine::new();
        let chunks = match params.chunking {
            ChunkMode::PerNode => ChunkAssignment::PerNode,
            ChunkMode::PowerColoring => {
                let gp = power_graph(graph, 4 * params.tau as usize);
                let active = vec![true; graph.n()];
                let lin = linial_coloring(&gp, &active);
                // Charged per Theorem 12: O(τ + log* n) rounds to color G^{4τ}.
                engine.charge(lin.rounds * (4 * params.tau as u64).max(1));
                mpc.charge_rounds(lin.rounds + params.tau as u64);
                ChunkAssignment::PowerColoring { colors: lin.colors }
            }
        };
        Runner {
            graph,
            mode: Mode::Derandomized {
                prg: Prg::new(params.seed_bits),
                strategy: params.strategy,
                chunks,
                workers: params.workers,
                searcher,
            },
            engine,
            mpc,
            deferred: vec![false; graph.n()],
            stream_counter: 0,
            reports: Vec::new(),
            last_aux: Vec::new(),
            chaos: params.chaos_defer_prob,
            chaos_deferrals: 0,
        }
    }

    /// Auxiliary node-set output of the most recent step (e.g. the
    /// put-aside set `P`); empty when the last procedure had none.
    pub fn last_aux(&self) -> &[NodeId] {
        &self.last_aux
    }

    /// Whether `v` is currently deferred.
    pub fn is_deferred(&self, v: NodeId) -> bool {
        self.deferred[v as usize]
    }

    /// Reset deferrals (between Theorem 12 repetitions).
    pub fn clear_deferrals(&mut self) {
        self.deferred.iter_mut().for_each(|d| *d = false);
    }

    fn next_stream(&mut self) -> u64 {
        self.stream_counter += 1;
        self.stream_counter
    }

    /// Execute one normal procedure: simulate (under true randomness or
    /// the chosen PRG seed), apply its adoptions, defer its SSP failures.
    ///
    /// Returns the step report (also appended to `self.reports`).
    pub fn run_step(
        &mut self,
        proc: &dyn NormalProcedure,
        state: &mut ColoringState,
    ) -> StepReport {
        let stream = self.next_stream();
        let tau = proc.tau() as u64;
        // Lemma 10's round/space charges: collect the 8τ-hop input info
        // (τ rounds of neighborhood exchange), one round of seed agreement
        // / output application.
        self.engine.charge(proc.local_rounds());
        self.mpc
            .charge_neighbor_broadcast(self.graph, |v| !state.is_colored(v), 1);
        self.mpc.charge_rounds(tau + 1);

        // Derandomized: Lemma 10's seed search picks the PRG seed the
        // step runs under, unless a seed-independent bound shows every
        // seed costs 0.  Randomized: the keyed tape stands in for true
        // randomness (Lemma 4) and there is nothing to search.
        let certified = matches!(self.mode, Mode::Derandomized { .. })
            && proc.zero_cost_under_every_seed(state);
        let chosen;
        let (tape, selection): (&dyn Randomness, _) = match &self.mode {
            Mode::Randomized { tape } => (tape, None),
            Mode::Derandomized {
                prg,
                strategy,
                chunks,
                ..
            } if certified => {
                // The mean cost is 0 and every seed reaches it: apply the
                // seed any strategy selects on a constant cost.
                let seed = strategy.constant_cost_seed(prg.seed_bits());
                chosen = PrgTape::new(*prg, seed, chunks);
                (&chosen, None)
            }
            Mode::Derandomized {
                prg,
                strategy,
                chunks,
                workers,
                searcher,
            } => {
                // One arena per seed-search worker, seeds evaluated in
                // blocks so procedures can amortize their scans across
                // the block's seed lanes; blocks are dealt to workers by
                // atomic stealing (grouping-invariant).  The search runs
                // wherever the backend says — in-process pool or a
                // distributed fleet; either way the selection is
                // identical (see `SeedSearcher`).
                let st: &ColoringState = state;
                let eval_block = |seed0: u64, costs: &mut [f64], scratch: &mut SimScratch| {
                    let tapes = prg.block_tapes(seed0, chunks);
                    let keyed: [StreamTape<PrgTape>; SEED_BLOCK] =
                        std::array::from_fn(|i| StreamTape {
                            inner: &tapes[i],
                            stream,
                        });
                    let refs: [&dyn Randomness; SEED_BLOCK] =
                        std::array::from_fn(|i| &keyed[i] as &dyn Randomness);
                    proc.seed_cost_block(st, &refs[..costs.len()], scratch, costs);
                };
                let sel =
                    searcher.select(prg.seed_bits(), *strategy, *workers, st.n(), &eval_block);
                debug_assert!(sel.satisfies_guarantee());
                chosen = PrgTape::new(*prg, sel.seed, chunks);
                (&chosen, Some(sel))
            }
        };
        // Apply the step's randomness once: one `simulate` in both modes.
        let keyed = StreamTape {
            inner: tape,
            stream,
        };
        let outcome = proc.simulate(state, &keyed);

        let failures = proc.ssp_failures(state, &outcome);
        let adopted = outcome.adoptions.len();
        state.apply_adoptions(self.graph, &outcome.adoptions);
        self.last_aux = outcome.aux;
        for &v in &failures {
            debug_assert!(
                !state.is_colored(v),
                "SSP failure on colored node {v} in {}",
                proc.name()
            );
            self.deferred[v as usize] = true;
        }
        // Failure injection: adversarially defer extra uncolored nodes.
        // Definition 5's WSP survives any such subset; the injection tests
        // (tests/failure_injection.rs) verify the pipeline absorbs it.
        if self.chaos > 0.0 {
            let chaos_tape = CryptoTape::new(0xC4A0_5000 ^ stream);
            for v in 0..self.graph.n() as NodeId {
                if !state.is_colored(v)
                    && !self.deferred[v as usize]
                    && chaos_tape.bernoulli(v, stream, 7, self.chaos)
                {
                    self.deferred[v as usize] = true;
                    self.chaos_deferrals += 1;
                }
            }
        }
        // Lemma 10's bound on deferred nodes for one derandomized step.
        let delta = self.graph.max_degree().max(2) as f64;
        let n_g = proc.active_count() as f64;
        let failure_bound = 0.5 + n_g * delta.powf(-11.0 * tau as f64);
        let report = StepReport {
            name: proc.name(),
            active: proc.active_count(),
            adopted,
            failures: failures.len(),
            failure_bound,
            selection,
            certified,
        };
        self.reports.push(report.clone());
        report
    }
}

/// Adapter fixing the `stream` coordinate of an underlying tape, so each
/// procedure invocation draws from its own pseudorandom substream.
struct StreamTape<'a, R: Randomness + ?Sized> {
    inner: &'a R,
    stream: u64,
}

impl<R: Randomness + ?Sized> Randomness for StreamTape<'_, R> {
    #[inline]
    fn word(&self, node: u32, stream: u64, idx: u32) -> u64 {
        // Combine the runner-level stream with the procedure-internal one.
        self.inner.word(
            node,
            self.stream.wrapping_mul(0x1000_0000_01B3) ^ stream,
            idx,
        )
    }

    // Forward the batch plane with the remapped stream so the inner
    // tape's lane mixers stay engaged.  `fill_below` needs no override:
    // its trait default routes through `fill_words`.
    fn fill_words(&self, stream: u64, nodes: &[u32], idx: u32, out: &mut [u64]) {
        self.inner.fill_words(
            self.stream.wrapping_mul(0x1000_0000_01B3) ^ stream,
            nodes,
            idx,
            out,
        )
    }

    fn fill_words_seq(&self, node: u32, stream: u64, idx0: u32, out: &mut [u64]) {
        self.inner.fill_words_seq(
            node,
            self.stream.wrapping_mul(0x1000_0000_01B3) ^ stream,
            idx0,
            out,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::D1lcInstance;

    /// A toy normal procedure: every active node tries a random palette
    /// color with symmetric abstention; SSP = "got colored".
    struct ToyProc<'a> {
        g: &'a Graph,
        active: Vec<NodeId>,
        mask: Vec<bool>,
    }

    impl NormalProcedure for ToyProc<'_> {
        fn name(&self) -> &'static str {
            "toy"
        }

        fn active_count(&self) -> usize {
            self.active.len()
        }

        fn simulate(&self, state: &ColoringState, rng: &dyn Randomness) -> Outcome {
            let pick_of = |v: NodeId| {
                let pal = state.palette(v);
                pal[rng.below(v, 0, 0, pal.len() as u64) as usize]
            };
            let mut adoptions = Vec::new();
            for &v in &self.active {
                let pick = pick_of(v);
                let clash = self
                    .g
                    .neighbors(v)
                    .iter()
                    .any(|&u| self.mask[u as usize] && pick_of(u) == pick);
                if !clash {
                    adoptions.push((v, pick));
                }
            }
            Outcome {
                adoptions,
                aux: Vec::new(),
            }
        }

        fn ssp_failures(&self, _state: &ColoringState, out: &Outcome) -> Vec<NodeId> {
            let colored: Vec<NodeId> = out.adoptions.iter().map(|a| a.0).collect();
            self.active
                .iter()
                .copied()
                .filter(|v| !colored.contains(v))
                .collect()
        }
    }

    fn ring(n: usize) -> Graph {
        let edges: Vec<_> = (0..n as NodeId)
            .map(|i| (i, (i + 1) % n as NodeId))
            .collect();
        Graph::from_edges(n, &edges)
    }

    fn setup() -> (D1lcInstance, Vec<NodeId>, Vec<bool>) {
        let g = ring(8);
        let inst = D1lcInstance::delta_plus_one(g);
        let active: Vec<NodeId> = (0..8).collect();
        let mask = vec![true; 8];
        (inst, active, mask)
    }

    #[test]
    fn randomized_step_applies_and_defers() {
        let (inst, active, mask) = setup();
        let mut state = ColoringState::new(&inst);
        let params = Params::default();
        let mut runner = Runner::randomized(&inst.graph, &params, 42, 8);
        let proc = ToyProc {
            g: &inst.graph,
            active,
            mask,
        };
        let rep = runner.run_step(&proc, &mut state);
        assert_eq!(rep.adopted + rep.failures, 8);
        let deferred = runner.deferred.iter().filter(|&&d| d).count();
        assert_eq!(deferred, rep.failures);
        assert!(state.verify_partial(&inst.graph).is_ok());
        assert!(runner.engine.rounds() > 0);
        assert!(runner.mpc.metrics().rounds() > 0);
    }

    #[test]
    fn derandomized_step_meets_guarantee() {
        let (inst, active, mask) = setup();
        let mut state = ColoringState::new(&inst);
        let params = Params::default().with_seed_bits(8);
        let mut runner = Runner::derandomized(&inst.graph, &params, 8);
        let proc = ToyProc {
            g: &inst.graph,
            active,
            mask,
        };
        let rep = runner.run_step(&proc, &mut state);
        let sel = rep.selection.expect("derandomized step has a selection");
        assert!(sel.satisfies_guarantee());
        assert!(state.verify_partial(&inst.graph).is_ok());
    }

    #[test]
    fn derandomized_run_is_reproducible() {
        let (inst, active, mask) = setup();
        let params = Params::default().with_seed_bits(8);
        let run = |a: Vec<NodeId>, m: Vec<bool>| {
            let mut state = ColoringState::new(&inst);
            let mut runner = Runner::derandomized(&inst.graph, &params, 8);
            let proc = ToyProc {
                g: &inst.graph,
                active: a,
                mask: m,
            };
            runner.run_step(&proc, &mut state);
            state.colors().to_vec()
        };
        assert_eq!(
            run(active.clone(), mask.clone()),
            run(active, mask),
            "derandomized pipeline must be bit-reproducible"
        );
    }

    #[test]
    fn power_coloring_mode_builds_chunks() {
        let (inst, active, mask) = setup();
        let params = Params::default()
            .with_seed_bits(6)
            .with_chunking(ChunkMode::PowerColoring);
        let mut state = ColoringState::new(&inst);
        let mut runner = Runner::derandomized(&inst.graph, &params, 8);
        let proc = ToyProc {
            g: &inst.graph,
            active,
            mask,
        };
        let rep = runner.run_step(&proc, &mut state);
        assert!(rep.selection.is_some());
        assert!(state.verify_partial(&inst.graph).is_ok());
    }

    #[test]
    fn streams_differ_between_steps() {
        // Two identical procedures in sequence must not replay the same
        // randomness (the second sees fresh bits via the stream counter).
        let (inst, _, _) = setup();
        let params = Params::default();
        let mut state = ColoringState::new(&inst);
        let mut runner = Runner::randomized(&inst.graph, &params, 7, 8);
        let active: Vec<NodeId> = state.uncolored_nodes();
        let mask = vec![true; 8];
        let r1 = runner.run_step(
            &ToyProc {
                g: &inst.graph,
                active: active.clone(),
                mask: mask.clone(),
            },
            &mut state,
        );
        let remaining = state.uncolored_nodes();
        if !remaining.is_empty() {
            let mut mask2 = vec![false; 8];
            for &v in &remaining {
                mask2[v as usize] = true;
            }
            let r2 = runner.run_step(
                &ToyProc {
                    g: &inst.graph,
                    active: remaining,
                    mask: mask2,
                },
                &mut state,
            );
            // Not a strict requirement, but with fresh randomness the second
            // round almost surely colors someone on a ring.
            assert!(r2.adopted > 0 || r1.adopted == 8);
        }
    }
}
