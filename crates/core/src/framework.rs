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
//!    overrides [`NormalProcedure::seed_cost_block`]: for a block of up
//!    to `SEED_BLOCK` seeds it draws each stage node's picks under every
//!    seed in one `TapeBlock::below_lanes` call, straight into the node's
//!    row of one structure-of-arrays plane (`SimScratch::soa`), and the
//!    clash scan runs ONCE over the step's in-stage edges with
//!    lane-parallel compares, instead of once per seed.  Its costs are
//!    `seed_cost`'s values: each lane's clashed-node count is the
//!    `Auto`/`Colored` cost, and under a slack SSP each lane's outcome is
//!    read off the plane and costed by `seed_cost` itself.  See the
//!    block contract on
//!    [`NormalProcedure::seed_cost_block`].  Every other procedure,
//!    MultiTrial included, takes the trait's default, the reference loop
//!    `seed_cost(simulate(tape))` per lane.  Every procedure walks the
//!    in-stage adjacency its `StageSet` builds once per step, and indexes
//!    its per-node state by stage position, so a seed of a small stage
//!    costs no pass over the whole graph.  Lemma 23's hash search in
//!    `reduce.rs` also costs its seeds by lanes: each of a pass's 32
//!    seeds fills one lane of the `u8` node- and color-bin planes, and
//!    one walk over the high nodes' neighbors and palettes counts every
//!    lane.
//! 2. **Pick caching in reusable arenas** ([`SimScratch`]).  A node's
//!    random draw under a fixed seed is the same no matter which neighbor
//!    asks, so the block evaluator draws each active node's picks **once**
//!    per block (one lane call per node, `O(n_active)` in all) into the
//!    row of its stage position and resolves clashes with `O(m_active)`
//!    lookups by position — as the reference `TryRandomColor::simulate`
//!    does for its one tape.  The planes are sized by the stage, and the
//!    arena's buffers are retained across evaluations, so after warm-up
//!    the draws and the clash scan allocate nothing.
//! 3. **Sharded seed-parallelism.**  `parcolor_prg::select_seed_blocks_n`
//!    folds the seed space on the persistent `parcolor-exec` pool, one
//!    scratch per worker; each block evaluation is sequential.  Workers
//!    steal `SEED_BLOCK`-sized blocks off one shared atomic counter, and
//!    the fold merges `(sum, min, argmin)` with a lowest-seed tie-break —
//!    grouping-invariant for the integer SSP costs, so results are
//!    bit-identical for any worker count and any steal order.
//! 4. **One draw per address, lanes drawn together.**  `simulate` reads
//!    each random word it uses with one scalar `Randomness::below` or
//!    `word` call at its `(node, stream, idx)` address; no tape computes a
//!    word any other way.  The block evaluator draws a node's seed lanes
//!    together: the PRG block (`parcolor_prg::PrgBlock`) hoists each
//!    lane's seed round once per block and the chunk product once per
//!    node, leaving two scalar splitmix rounds and one Lemire multiply per
//!    lane, bit-identical to each lane's scalar `below` (see
//!    `parcolor_local::tape`), so the chosen seeds and the golden hashes
//!    match the reference `simulate` path.
//!
//! Per derandomized step a TryRandomColor or MultiTrial search therefore
//! costs one `O(Σ_{v ∈ stage} (1 + d(v)))` pass that builds the stage's
//! rows, then `O(2^seed_bits · (n_S + m_S) / workers)` for the seeds,
//! where `m_S` counts the in-stage edges — in proportion to the stage
//! rather than to the whole graph — and `BitwiseCondExp` streams each
//! half-space mean instead of materializing the `2^seed_bits` cost table
//! (see `parcolor_prg::seed_search`).  `tests/seed_fastpath_equivalence.rs`
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
//! *certified* step costs one `O(n_active)` pass over its rows' lengths
//! for the bound, evaluates no seed and skips the post-step SSP scan (the
//! bound shows no node fails); its coloring is the one the search would
//! have produced (`tests/ssp_certificate.rs`).

use crate::config::{ChunkMode, Params};
use crate::instance::ColoringState;
use crate::linial::linial_coloring;
use parcolor_local::engine::RoundEngine;
use parcolor_local::graph::{Graph, NodeId};
use parcolor_local::power::power_graph;
use parcolor_local::tape::{CryptoTape, Randomness, TapeBlock, BLOCK_LANES};
use parcolor_mpc::{MpcConfig, NodeMpc};
use parcolor_prg::{
    select_seed_blocks_n, ChunkAssignment, Prg, PrgBlock, PrgTape, SeedSelection, SeedStrategy,
    SEED_BLOCK,
};
use std::time::Instant;

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
/// seed-search worker: the two planes of TryRandomColor's block
/// evaluator, which writes each stage node's picks under the block's seed
/// lanes as one row (one `TapeBlock::below_lanes` call per node) and
/// resolves their clashes in one lane-parallel scan.  The planes are
/// indexed by stage position (a participant's index in the step's
/// `StageSet`) and sized by the stage.
///
/// Both planes are block-scoped: each block evaluation sizes them to its
/// stage and overwrites every row it reads, so nothing needs clearing
/// between evaluations and capacity is retained across the whole seed
/// search.  The default `seed_cost_block` leaves the arena untouched.
#[derive(Clone, Debug)]
pub struct SimScratch {
    /// Seed-lane plane: picks of up to [`SEED_BLOCK`] seeds per node,
    /// dense by stage position, one `u32` lane per seed — the
    /// structure-of-arrays layout the clash scan compares lane-parallel.
    pub(crate) soa: Vec<[u32; SEED_BLOCK]>,
    /// Per-node seed-lane clash bits (bit `s` ⇔ the node clashed in lane
    /// `s`), dense by stage position — the clash scan ORs into it
    /// branchlessly.
    pub(crate) lane_mask: Vec<u8>,
}

impl SimScratch {
    /// Arena for a stage of `n` participants (a search over another stage
    /// resizes it).
    pub fn new(n: usize) -> Self {
        SimScratch {
            soa: vec![[0; SEED_BLOCK]; n],
            lane_mask: vec![0; n],
        }
    }
}

/// Locality radius τ of every [`NormalProcedure`] here: each reads only
/// its neighbors' state, so one constant sets Lemma 10's round charges and
/// failure bound, and the radius of the `G^{4τ}` chunk coloring.
const TAU: u64 = 1;

/// A normal `(τ, Δ)`-round distributed procedure (Definition 5); every
/// procedure here has τ = 1.
///
/// Implementations must keep `simulate` **pure**: the outcome must be a
/// deterministic function of `(state, rng)` and must not mutate anything —
/// it is the reference every other evaluation method must reproduce, and
/// the derandomizer evaluates candidate seeds in parallel.
pub trait NormalProcedure: Sync {
    /// Human-readable procedure name (for reports).
    fn name(&self) -> &'static str;

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

    /// Cost evaluation for a **block** of candidate seeds, one seed per
    /// lane of `block` (at most `parcolor_prg::SEED_BLOCK`): must write
    /// `costs[i] = seed_cost(state, &simulate(state, t))` for every lane
    /// `i`, where `t` is lane `i`'s tape.  This is the only path the
    /// derandomizer costs candidate seeds through; a per-seed evaluation
    /// is a 1-lane block.  The default is exactly that reference loop
    /// (allocating, scratch unused).  TryRandomColor overrides it, because
    /// the workloads search it most: it draws each node's picks under
    /// every lane in one `TapeBlock::below_lanes` call into the seed-lane
    /// plane (`SimScratch::soa`) and amortizes the clash scan across
    /// lanes.  An override is only ever a faster way to the default's
    /// value.
    ///
    /// ## The block contract
    ///
    /// An override must guarantee, for every lane `i < costs.len()`:
    ///
    /// 1. **Per-lane purity.**  `costs[i]` is a pure function of seed
    ///    lane `i` alone — exactly the value `seed_cost(state,
    ///    &simulate(state, t))` computes on lane `i`'s tape `t`,
    ///    bit-for-bit (costs are integer SSP-failure counts, so
    ///    "bit-for-bit" is meaningful).
    ///    Lanes must not leak into one another: the block fold regroups
    ///    blocks freely across workers, and
    ///    `tests/seed_fastpath_equivalence.rs` pins every override to the
    ///    reference path.
    /// 2. **Lanes are drawn together, at unchanged addresses.**  Lane `i`
    ///    draws what `simulate` draws on lane `i`'s tape, at the same
    ///    `(node, stream, idx)` addresses.  An override draws every lane
    ///    at an address in one `TapeBlock::below_lanes` call, which is
    ///    bit-identical to the per-lane scalar draws: drawing lanes
    ///    together is a layout change, never a randomness change.
    /// 3. **Stale lanes are never read.**  Dense SoA rows
    ///    (`SimScratch::soa`) retain garbage from earlier blocks.  An
    ///    override pads the lanes it does not fill with values that cannot
    ///    collide: TryRandomColor writes the node's own stage position,
    ///    which no in-stage neighbor shares.
    /// 4. **Short blocks are legal.**  `block.lanes()` equals
    ///    `costs.len()` and may be any length in `1..=SEED_BLOCK` (tail
    ///    blocks, `SingleSeed`); lanes past it must not be read or written
    ///    as costs.
    ///
    /// Block grouping must never change any individual seed's cost.
    fn seed_cost_block(
        &self,
        state: &ColoringState,
        block: &dyn TapeBlock,
        scratch: &mut SimScratch,
        costs: &mut [f64],
    ) {
        debug_assert_eq!(block.lanes(), costs.len());
        let _ = scratch;
        for (s, c) in costs.iter_mut().enumerate() {
            block.with_lane(s, &mut |tape| {
                *c = self.seed_cost(state, &self.simulate(state, tape));
            });
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
    /// seed cost is 0 under every seed.  Contract: return `true` only if,
    /// for **every** tape `t`, with `out = simulate(state, t)`, both
    /// `seed_cost(state, &out) == 0` and `ssp_failures(state, &out)` is
    /// empty.  The runner then skips the seed search, applies
    /// `SeedStrategy::constant_cost_seed` (the seed any search over a
    /// constant cost selects), and defers nothing without scanning for SSP
    /// failures.  Asked once per derandomized step, before the search; it
    /// must be a pure function of `state`, so every replica of a
    /// distributed solve skips the same steps.  The default claims
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
    /// Wall time of the seed search (`SeedSearcher::select`), in ms; 0
    /// for a certified step and in randomized mode.
    pub search_ms: f64,
    /// Wall time of the one `simulate` that applies the chosen seed (or,
    /// randomized, the keyed tape), in ms.
    pub apply_ms: f64,
    /// Wall time of the post-step SSP scan, in ms.  Release builds skip
    /// the scan on a certified step; debug builds still run it.
    pub ssp_ms: f64,
    /// Wall time of `ColoringState::apply_adoptions`, in ms.
    pub adopt_ms: f64,
}

/// Milliseconds since `t`.
fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
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
/// this by construction.  `n` is the step's stage size (its participant
/// count, `NormalProcedure::active_count`); it sizes the per-worker
/// [`SimScratch`] arenas, whose planes are indexed by stage position.
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
                let gp = power_graph(graph, 4 * TAU as usize);
                let active = vec![true; graph.n()];
                let lin = linial_coloring(&gp, &active);
                // Charged per Theorem 12: O(τ + log* n) rounds to color G^{4τ}.
                engine.charge(lin.rounds * 4 * TAU);
                mpc.charge_rounds(lin.rounds + TAU);
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
        // Lemma 10's round/space charges: collect the 8τ-hop input info
        // (τ rounds of neighborhood exchange), one round of seed agreement
        // / output application.
        self.engine.charge(proc.local_rounds());
        self.mpc
            .charge_neighbor_broadcast(self.graph, |v| !state.is_colored(v), 1);
        self.mpc.charge_rounds(TAU + 1);

        // Derandomized: Lemma 10's seed search picks the PRG seed the
        // step runs under, unless a seed-independent bound shows every
        // seed costs 0.  Randomized: the keyed tape stands in for true
        // randomness (Lemma 4) and there is nothing to search.
        let certified = matches!(self.mode, Mode::Derandomized { .. })
            && proc.zero_cost_under_every_seed(state);
        let chosen;
        let mut search_ms = 0.0;
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
                    let block = PrgBlock::new(*prg, seed0, costs.len(), chunks);
                    let keyed = StepStream {
                        inner: &block,
                        stream,
                    };
                    proc.seed_cost_block(st, &keyed, scratch, costs);
                };
                let n_active = proc.active_count();
                let t = Instant::now();
                let sel =
                    searcher.select(prg.seed_bits(), *strategy, *workers, n_active, &eval_block);
                search_ms = ms_since(t);
                debug_assert!(sel.satisfies_guarantee());
                chosen = PrgTape::new(*prg, sel.seed, chunks);
                (&chosen, Some(sel))
            }
        };
        // Apply the step's randomness once: one `simulate` in both modes.
        let keyed = StepStream {
            inner: tape,
            stream,
        };
        let t = Instant::now();
        let outcome = proc.simulate(state, &keyed);
        let apply_ms = ms_since(t);

        // A certified step fails nowhere, so only debug builds scan it.
        let t = Instant::now();
        let failures = if certified {
            debug_assert!(
                proc.ssp_failures(state, &outcome).is_empty(),
                "certified {} step has SSP failures",
                proc.name()
            );
            Vec::new()
        } else {
            proc.ssp_failures(state, &outcome)
        };
        let ssp_ms = ms_since(t);
        let adopted = outcome.adoptions.len();
        let t = Instant::now();
        state.apply_adoptions(self.graph, &outcome.adoptions);
        let adopt_ms = ms_since(t);
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
        let failure_bound = 0.5 + n_g * delta.powf(-11.0 * TAU as f64);
        let report = StepReport {
            name: proc.name(),
            active: proc.active_count(),
            adopted,
            failures: failures.len(),
            failure_bound,
            selection,
            certified,
            search_ms,
            apply_ms,
            ssp_ms,
            adopt_ms,
        };
        self.reports.push(report.clone());
        report
    }
}

/// Adapter fixing the `stream` coordinate of an underlying tape, or of
/// every lane of a seed block, so each procedure invocation draws from
/// its own pseudorandom substream.
struct StepStream<'a, T: ?Sized> {
    inner: &'a T,
    stream: u64,
}

impl<T: ?Sized> StepStream<'_, T> {
    /// Combine the runner-level stream with the procedure-internal one.
    #[inline]
    fn remap(&self, stream: u64) -> u64 {
        self.stream.wrapping_mul(0x1000_0000_01B3) ^ stream
    }
}

impl<R: Randomness + ?Sized> Randomness for StepStream<'_, R> {
    #[inline]
    fn word(&self, node: u32, stream: u64, idx: u32) -> u64 {
        self.inner.word(node, self.remap(stream), idx)
    }
}

/// The whole block's lanes under the step's stream, as [`StepStream`]
/// does for one tape.
impl<B: TapeBlock + ?Sized> TapeBlock for StepStream<'_, B> {
    fn lanes(&self) -> usize {
        self.inner.lanes()
    }

    fn with_lane(&self, s: usize, f: &mut dyn FnMut(&dyn Randomness)) {
        self.inner.with_lane(s, &mut |tape| {
            f(&StepStream {
                inner: tape,
                stream: self.stream,
            })
        });
    }

    #[inline]
    fn below_lanes(&self, node: u32, stream: u64, idx: u32, bound: u64) -> [u64; BLOCK_LANES] {
        self.inner.below_lanes(node, self.remap(stream), idx, bound)
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

    /// `ToyProc` on an independent set: no active node has an active
    /// neighbor, so every node adopts under every seed, and it certifies
    /// so.
    struct Isolated<'a>(ToyProc<'a>);

    impl NormalProcedure for Isolated<'_> {
        fn name(&self) -> &'static str {
            "isolated toy"
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

        fn zero_cost_under_every_seed(&self, _state: &ColoringState) -> bool {
            true
        }
    }

    /// The ring's nodes `first, first + 2, …` as a toy step.
    fn alternate(g: &Graph, first: NodeId) -> ToyProc<'_> {
        let active: Vec<NodeId> = (first..8).step_by(2).collect();
        let mut mask = vec![false; 8];
        for &v in &active {
            mask[v as usize] = true;
        }
        ToyProc { g, active, mask }
    }

    #[test]
    fn step_reports_time_each_phase() {
        let (inst, _, _) = setup();
        let params = Params::default().with_seed_bits(6);
        let mut state = ColoringState::new(&inst);
        let mut runner = Runner::derandomized(&inst.graph, &params, 8);
        let certified = runner.run_step(&Isolated(alternate(&inst.graph, 0)), &mut state);
        assert!(certified.certified);
        assert_eq!(
            certified.search_ms, 0.0,
            "a certified step searches nothing"
        );
        let searched = runner.run_step(&alternate(&inst.graph, 1), &mut state);
        assert!(searched.selection.is_some());
        let mut state = ColoringState::new(&inst);
        let randomized = Runner::randomized(&inst.graph, &params, 3, 8)
            .run_step(&alternate(&inst.graph, 0), &mut state);
        assert_eq!(
            randomized.search_ms, 0.0,
            "a randomized step searches nothing"
        );
        for rep in [&certified, &searched, &randomized] {
            for t in [rep.search_ms, rep.apply_ms, rep.ssp_ms, rep.adopt_ms] {
                assert!(t.is_finite() && t >= 0.0, "{}: {t} ms", rep.name);
            }
        }
    }

    /// The step stream remaps every lane of a seed block as it does one
    /// tape, in the lane draw and in each lane's tape.
    #[test]
    fn step_stream_remaps_every_lane() {
        let prg = Prg::new(6);
        let chunks = ChunkAssignment::PerNode;
        let block = PrgBlock::new(prg, 56, SEED_BLOCK, &chunks);
        let keyed = StepStream {
            inner: &block,
            stream: 9,
        };
        for v in 0..20 {
            let draws = keyed.below_lanes(v, 3, 1, 7);
            for (s, &got) in draws.iter().enumerate() {
                let tape = PrgTape::new(prg, 56 + s as u64, &chunks);
                let want = StepStream {
                    inner: &tape,
                    stream: 9,
                }
                .below(v, 3, 1, 7);
                assert_eq!(got, want, "node {v} lane {s}");
                keyed.with_lane(s, &mut |t| assert_eq!(t.below(v, 3, 1, 7), want));
            }
        }
    }
}
