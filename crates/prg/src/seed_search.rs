//! Deterministic seed selection — the "method of conditional expectations"
//! half of the paper's framework (Lemma 10).
//!
//! Given a cost functional `cost(seed)` (for us: the number of nodes
//! failing the strong success property when a normal distributed procedure
//! is simulated under `seed`), the derandomizer must *deterministically*
//! find a seed whose cost is at most the mean over the seed space.  Three
//! interchangeable strategies are provided:
//!
//! * [`SeedStrategy::Exhaustive`] — evaluate every seed and take the
//!   argmin.  Gold standard; cost `2^d · eval`.
//! * [`SeedStrategy::BitwiseCondExp`] — the textbook method of conditional
//!   expectations: fix seed bits one at a time, each time choosing the
//!   branch with the smaller conditional mean.  This is the form that maps
//!   onto MPC rounds (one converge-cast per bit) and is what Lemma 10
//!   charges; it returns a per-bit trace for the E6 experiment.  The final
//!   cost is ≤ the global mean by induction on bits.
//! * [`SeedStrategy::FixedSubset`] — evaluate a deterministic prefix of the
//!   seed space and take the argmin.  A throughput concession for large
//!   instances; still fully deterministic.  Its guarantee is relative to
//!   the subset mean (reported so experiments can compare).
//!
//! `SingleSeed` pins the seed (used to measure "no derandomization" in
//! ablations).
//!
//! ## Entry points
//!
//! Three functions run a strategy; for integer-valued costs they return
//! field-for-field the same [`SeedSelection`]:
//!
//! * [`select_seed`] — the sequential reference.  It evaluates a plain
//!   `cost(seed)` closure seed by seed on the calling thread and (for
//!   `Exhaustive`/`BitwiseCondExp`) materializes the whole `2^d`-entry
//!   cost table: simple, but allocation-heavy.
//! * [`select_seed_blocks_n`] — the pool search behind the framework's
//!   hot loop, Luby MIS and the distributed worker:
//!   - the caller provides a `make_scratch` factory and an
//!     `eval_block(seed0, costs, &mut scratch)` closure costing up to
//!     [`SEED_BLOCK`] contiguous seeds at once, so each worker owns one
//!     scratch arena and evaluations allocate nothing after warm-up;
//!   - seeds are folded on the **persistent work-stealing pool** of
//!     [`parcolor_exec`] (seed-level parallelism only — evaluations
//!     themselves must be sequential): workers steal [`SEED_BLOCK`]-sized
//!     blocks off one shared atomic counter, merging `(sum, min, argmin)`
//!     with a lowest-seed tie-break; the block fold is grouping-invariant,
//!     so the result is independent of both the worker count and the
//!     steal order;
//!   - `BitwiseCondExp` becomes a true streaming conditional-expectation
//!     walk: each half-space mean is a fresh parallel reduction, nothing
//!     is materialized, and the trace/guarantee fields match the
//!     exhaustive table walk bit-for-bit (verified by
//!     `tests/seed_fastpath_equivalence.rs`).
//! * [`select_seed_folded`] — the strategy logic against any
//!   [`RangeFolder`].  `select_seed_blocks_n` is this over the in-process
//!   folder; the distributed coordinator runs it over a fleet.
//!
//! Lemma 23's hash search (`parcolor_core::reduce`) runs no strategy: it
//! folds doubling seed prefixes through [`fold_seed_range_in`], the kernel
//! under the local folder, until one holds a seed of cost 0.

use parcolor_exec::{Executor, SumMinArgmin};

/// Width of one seed block: [`select_seed_blocks_n`] hands its evaluator
/// up to this many **contiguous** seeds at a time, so cost functions can
/// amortize shared work (graph scans, plane fills) across the block's
/// seed lanes.  Capped at 8 by the `u8` lane bitmasks TryRandomColor's
/// block evaluator accumulates clash bits in (widen those before raising
/// this).
/// Evaluators may rely on block lengths never exceeding this.  It is the
/// lane count of a seed block's tapes (`parcolor_local::tape::TapeBlock`).
pub const SEED_BLOCK: usize = parcolor_local::tape::BLOCK_LANES;
const _: () = assert!(SEED_BLOCK <= u8::BITS as usize, "lane masks are u8");

/// Strategy for choosing a PRG seed deterministically.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SeedStrategy {
    /// Evaluate all `2^seed_bits` seeds, pick the argmin (ties → lowest).
    Exhaustive,
    /// Evaluate seeds `0..k`, pick the argmin.
    FixedSubset(u64),
    /// Bitwise method of conditional expectations over the full space.
    BitwiseCondExp,
    /// Use this seed unconditionally (ablation baseline).
    SingleSeed(u64),
}

impl SeedStrategy {
    /// The seed this strategy selects when every seed costs the same,
    /// found without evaluating one: the lowest seed for `Exhaustive` and
    /// `FixedSubset` (ties break to the lowest seed) and for
    /// `BitwiseCondExp` (the walk keeps the 0 branch on equal means), and
    /// `s` for `SingleSeed(s)`.  A search over a constant cost returns
    /// exactly this seed.  Panics on the parameters every search refuses.
    pub fn constant_cost_seed(self, seed_bits: u32) -> u64 {
        check_seed_space(seed_bits, self);
        match self {
            SeedStrategy::SingleSeed(seed) => seed,
            SeedStrategy::Exhaustive
            | SeedStrategy::FixedSubset(_)
            | SeedStrategy::BitwiseCondExp => 0,
        }
    }
}

/// Size of the `2^seed_bits` seed space.  Panics when `seed_bits` is
/// outside `1..=24` or a `SingleSeed` lies outside the space.
fn check_seed_space(seed_bits: u32, strategy: SeedStrategy) -> u64 {
    assert!((1..=24).contains(&seed_bits));
    let space = 1u64 << seed_bits;
    if let SeedStrategy::SingleSeed(seed) = strategy {
        assert!(seed < space, "seed {seed} outside 2^{seed_bits} space");
    }
    space
}

/// Result of a seed search.
#[derive(Clone, Debug, PartialEq)]
pub struct SeedSelection {
    /// The chosen seed.
    pub seed: u64,
    /// Cost of the chosen seed.
    pub cost: f64,
    /// Mean cost over the evaluated seeds.
    pub mean_cost: f64,
    /// Minimum cost over the evaluated seeds (= `cost` except `SingleSeed`).
    pub min_cost: f64,
    /// How many seeds were evaluated.
    pub evaluated: u64,
    /// For `BitwiseCondExp`: `(bit, mean_if_0, mean_if_1)` per fixed bit,
    /// most-significant first.
    pub trace: Vec<(u32, f64, f64)>,
}

impl SeedSelection {
    /// The derandomization guarantee of Lemma 10: the chosen seed's cost is
    /// at most the mean over the evaluated space.
    pub fn satisfies_guarantee(&self) -> bool {
        self.cost <= self.mean_cost + 1e-9
    }
}

/// Deterministically choose a seed from `{0,1}^seed_bits` minimizing
/// `cost`, following `strategy`.  `cost` must be a pure function of the
/// seed; seeds are evaluated in order on the calling thread.
pub fn select_seed<F>(seed_bits: u32, strategy: SeedStrategy, cost: F) -> SeedSelection
where
    F: Fn(u64) -> f64 + Sync,
{
    let space = check_seed_space(seed_bits, strategy);
    match strategy {
        SeedStrategy::SingleSeed(seed) => {
            let c = cost(seed);
            SeedSelection {
                seed,
                cost: c,
                mean_cost: c,
                min_cost: c,
                evaluated: 1,
                trace: Vec::new(),
            }
        }
        SeedStrategy::FixedSubset(k) => {
            let k = k.clamp(1, space);
            let costs: Vec<f64> = (0..k).map(&cost).collect();
            argmin_selection(&costs, k)
        }
        SeedStrategy::Exhaustive => {
            let costs: Vec<f64> = (0..space).map(&cost).collect();
            argmin_selection(&costs, space)
        }
        SeedStrategy::BitwiseCondExp => {
            let costs: Vec<f64> = (0..space).map(&cost).collect();
            bitwise_walk(seed_bits, &costs)
        }
    }
}

/// Deterministically choose a seed with a **block** evaluator on the
/// executor pool — the batched fast path of the seed search.
///
/// `make_scratch` builds one scratch arena per worker;
/// `eval_block(seed0, costs, scratch)` must write
/// `costs[i] = cost(seed0 + i)` for every `i < costs.len()`.  Blocks are
/// contiguous, at most [`SEED_BLOCK`] long, and aligned to block-index
/// boundaries of the evaluated range.  Each cost must be a pure function
/// of its own seed (the scratch is an optimization detail, not state:
/// evaluations must not depend on what a previous block left in it
/// beyond capacity), so block grouping can never change the outcome; the
/// selection is field-for-field identical to [`select_seed`] for
/// integer-valued costs.
///
/// The block form is what lets evaluators amortize per-seed fixed costs:
/// a procedure can materialize the pick plane of all the block's seeds
/// (structure-of-arrays, one `u32` lane per seed) and run its clash scan
/// once over the graph with lane-parallel compares, instead of once per
/// seed.
///
/// `workers` is the worker count (`0` = auto: the `PARCOLOR_THREADS` env
/// var, else all hardware threads).  Workers **steal seed blocks** off one
/// shared atomic counter instead of owning fixed contiguous chunks, so a
/// straggler block (dense neighborhood, cache miss storm) never idles the
/// other workers.  The fold merges `(sum, min, argmin)` with an explicit
/// lowest-seed tie-break, which makes the selection independent of the
/// (nondeterministic) steal order: for integer-valued costs — every cost
/// functional in this workspace — the result is bit-identical at every
/// worker count.
///
/// Callers supplying **non-integer** costs keep a deterministic
/// `best_seed`/`min_cost` (the min/argmin merge is order-invariant), but
/// `sum` — and hence `mean_cost` — accumulates per-worker partials in
/// steal order, so its low bits may differ run to run.  Round such costs
/// to a fixed grid (or scale to integers) if an exact mean matters.
pub fn select_seed_blocks_n<S, M, F>(
    seed_bits: u32,
    strategy: SeedStrategy,
    workers: usize,
    make_scratch: M,
    eval_block: F,
) -> SeedSelection
where
    S: Send,
    M: Fn() -> S + Sync,
    F: Fn(u64, &mut [f64], &mut S) + Sync,
{
    let mut folder = LocalFolder {
        pool: Vec::new(),
        requested: workers,
        make_scratch: &make_scratch,
        eval_block: &eval_block,
    };
    select_seed_folded(seed_bits, strategy, &mut folder)
}

/// The range-fold surface a seed-selection **strategy** runs against —
/// the hook that lets the same strategy logic (exhaustive argmin,
/// fixed-subset, the bitwise conditional-expectation walk) drive either
/// the in-process work-stealing fold *or* a remote fleet.
///
/// The contract is the executor crate's: every cost must be a pure
/// function of its seed, and [`fold_range`](RangeFolder::fold_range)
/// must return the grouping-invariant `(sum, min, argmin)` of the range
/// with the lowest-seed argmin tie-break.  Any implementation honoring
/// that — however it shards, schedules, retries, or re-issues the range —
/// yields a [`SeedSelection`] bit-identical to the local path for
/// integer-valued costs, which is exactly why the distributed layer
/// (`parcolor-dist`) can re-issue orphaned blocks at will.
pub trait RangeFolder {
    /// Fold costs over seeds `start..start + len` (`len >= 1`).
    fn fold_range(&mut self, start: u64, len: u64) -> SumMinArgmin;
    /// Evaluate a single seed's cost (the chosen-seed re-evaluation of
    /// the bitwise walk and the `SingleSeed` pin).
    fn eval_seed(&mut self, seed: u64) -> f64;
}

/// Run a seed-selection strategy against an arbitrary [`RangeFolder`].
/// This is [`select_seed_blocks_n`] with the fold backend abstracted
/// out; the local path delegates here, so any conforming folder is
/// field-for-field identical to it by construction.
pub fn select_seed_folded(
    seed_bits: u32,
    strategy: SeedStrategy,
    folder: &mut dyn RangeFolder,
) -> SeedSelection {
    let space = check_seed_space(seed_bits, strategy);
    match strategy {
        SeedStrategy::SingleSeed(seed) => {
            let c = folder.eval_seed(seed);
            SeedSelection {
                seed,
                cost: c,
                mean_cost: c,
                min_cost: c,
                evaluated: 1,
                trace: Vec::new(),
            }
        }
        SeedStrategy::FixedSubset(k) => {
            let k = k.clamp(1, space);
            let fold = folder.fold_range(0, k);
            SeedSelection {
                seed: fold.argmin,
                cost: fold.min,
                mean_cost: fold.sum / k as f64,
                min_cost: fold.min,
                evaluated: k,
                trace: Vec::new(),
            }
        }
        SeedStrategy::Exhaustive => {
            let fold = folder.fold_range(0, space);
            SeedSelection {
                seed: fold.argmin,
                cost: fold.min,
                mean_cost: fold.sum / space as f64,
                min_cost: fold.min,
                evaluated: space,
                trace: Vec::new(),
            }
        }
        SeedStrategy::BitwiseCondExp => {
            // Streaming method of conditional expectations: fix bits
            // MSB-first, each step folding both half-spaces.  Total
            // evaluations are `2^{d+1} - 2` plus a final re-evaluation of
            // the chosen seed; `mean_cost`/`min_cost` come from the first
            // level, whose two folds jointly cover the entire space.
            let mut prefix: u64 = 0;
            let mut trace = Vec::with_capacity(seed_bits as usize);
            let mut mean = 0.0;
            let mut min = f64::INFINITY;
            for fixed in 0..seed_bits {
                let bit = seed_bits - 1 - fixed; // position being fixed
                let block = 1u64 << bit; // size of each half
                let f0 = folder.fold_range(prefix, block);
                let f1 = folder.fold_range(prefix | block, block);
                if fixed == 0 {
                    mean = (f0.sum + f1.sum) / space as f64;
                    min = f0.min.min(f1.min);
                }
                let mean0 = f0.sum / block as f64;
                let mean1 = f1.sum / block as f64;
                trace.push((bit, mean0, mean1));
                if mean1 < mean0 {
                    prefix |= block;
                }
            }
            let cost = folder.eval_seed(prefix);
            SeedSelection {
                seed: prefix,
                cost,
                mean_cost: mean,
                min_cost: min,
                evaluated: space,
                trace,
            }
        }
    }
}

/// The in-process [`RangeFolder`]: block-stealing folds on the
/// persistent executor pool, with per-worker scratch arenas grown
/// lazily to the widest fold and reused across every fold of the walk.
struct LocalFolder<'a, S, M, F> {
    pool: Vec<S>,
    requested: usize,
    make_scratch: &'a M,
    eval_block: &'a F,
}

impl<S, M, F> RangeFolder for LocalFolder<'_, S, M, F>
where
    S: Send,
    M: Fn() -> S + Sync,
    F: Fn(u64, &mut [f64], &mut S) + Sync,
{
    fn fold_range(&mut self, start: u64, len: u64) -> SumMinArgmin {
        let w = seed_workers(len, self.requested);
        while self.pool.len() < w {
            self.pool.push((self.make_scratch)());
        }
        fold_seed_range_in(&mut self.pool[..w], start, len, self.eval_block)
    }

    fn eval_seed(&mut self, seed: u64) -> f64 {
        if self.pool.is_empty() {
            self.pool.push((self.make_scratch)());
        }
        let mut c = [0.0f64];
        (self.eval_block)(seed, &mut c, &mut self.pool[0]);
        c[0]
    }
}

/// Partial aggregate of a seed-range fold: the grouping-invariant
/// `(sum, min, argmin)` reduce, now provided by the executor crate (the
/// scheduler was extracted from this module — `parcolor_exec` keeps the
/// lowest-index tie-break semantics the seed search pioneered).
type RangeFold = SumMinArgmin;

/// Fold a block evaluator over seeds `start..start + len` with one
/// scratch per worker taken from `pool` (worker count = `pool.len()`), so
/// callers issuing many folds (the streaming bitwise walk) construct
/// arenas once and reuse them across folds instead of re-zeroing O(n)
/// memory per half-space.
///
/// Runs on the workspace's persistent work-stealing pool
/// ([`Executor::global`]): workers steal [`SEED_BLOCK`]-aligned blocks
/// off one shared atomic counter, so load imbalance between seeds (the
/// cost of one evaluation depends on the outcome it simulates) never
/// leaves a worker idle behind a fixed chunk boundary — and no threads
/// are spawned per call.  Which worker evaluates which block is
/// nondeterministic; the *result* is not — the block fold is
/// grouping-invariant (see [`SumMinArgmin`]), so the merged
/// `(sum, min, argmin)` is bit-identical to the serial walk for
/// integer-valued costs.
pub fn fold_seed_range_in<S, F>(pool: &mut [S], start: u64, len: u64, eval_block: &F) -> RangeFold
where
    S: Send,
    F: Fn(u64, &mut [f64], &mut S) + Sync,
{
    debug_assert!(len > 0 && !pool.is_empty());
    parcolor_exec::par_fold_in(
        Executor::global(),
        pool,
        start..start + len,
        SEED_BLOCK as u64,
        || SumMinArgmin::EMPTY,
        |seed, blen, mut acc: SumMinArgmin, scratch: &mut S| {
            let mut costs = [0.0f64; SEED_BLOCK];
            let block = &mut costs[..blen as usize];
            eval_block(seed, block, scratch);
            let mut b = SumMinArgmin::EMPTY;
            for (i, &c) in block.iter().enumerate() {
                b.observe(seed + i as u64, c);
            }
            acc = acc.merge(b);
            acc
        },
        |a, b| a.merge(b),
    )
}

/// Worker threads for a fold over `len` seeds.  `requested = 0` means
/// auto: the `PARCOLOR_THREADS` env var if set, else all hardware
/// threads — see [`parcolor_exec::resolve_workers`].  Tiny
/// ranges stay serial — scheduling overhead would dominate — and the
/// count is capped so every worker has ≥ 32 seeds.
pub fn seed_workers(len: u64, requested: usize) -> usize {
    let hw = parcolor_exec::resolve_workers(requested);
    if len < 64 {
        1
    } else {
        hw.min((len / 32) as usize).max(1)
    }
}

fn argmin_selection(costs: &[f64], evaluated: u64) -> SeedSelection {
    let (seed, &cmin) = costs
        .iter()
        .enumerate()
        .min_by(|(i, a), (j, b)| a.partial_cmp(b).unwrap().then(i.cmp(j)))
        .expect("non-empty seed space");
    let mean = costs.iter().sum::<f64>() / costs.len() as f64;
    SeedSelection {
        seed: seed as u64,
        cost: cmin,
        mean_cost: mean,
        min_cost: cmin,
        evaluated,
        trace: Vec::new(),
    }
}

/// Fix bits most-significant first; at each step compute the exact
/// conditional mean of both extensions and keep the smaller.
fn bitwise_walk(seed_bits: u32, costs: &[f64]) -> SeedSelection {
    let mut prefix: u64 = 0;
    let mut trace = Vec::with_capacity(seed_bits as usize);
    for fixed in 0..seed_bits {
        let bit = seed_bits - 1 - fixed; // position being fixed this step
        let block = 1u64 << bit; // size of each half under the prefix
        let base = prefix; // prefix occupies bits above `bit`
        let mean0 = range_mean(costs, base, block);
        let mean1 = range_mean(costs, base | block, block);
        trace.push((bit, mean0, mean1));
        if mean1 < mean0 {
            prefix |= block;
        }
    }
    let chosen_cost = costs[prefix as usize];
    let mean = costs.iter().sum::<f64>() / costs.len() as f64;
    let min = costs.iter().copied().fold(f64::INFINITY, f64::min);
    SeedSelection {
        seed: prefix,
        cost: chosen_cost,
        mean_cost: mean,
        min_cost: min,
        evaluated: costs.len() as u64,
        trace,
    }
}

fn range_mean(costs: &[f64], start: u64, len: u64) -> f64 {
    let s = start as usize;
    let e = s + len as usize;
    costs[s..e].iter().sum::<f64>() / len as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quad(seed: u64) -> f64 {
        // Minimum at 37.
        let d = seed as f64 - 37.0;
        d * d
    }

    #[test]
    fn exhaustive_finds_global_min() {
        let sel = select_seed(8, SeedStrategy::Exhaustive, quad);
        assert_eq!(sel.seed, 37);
        assert_eq!(sel.cost, 0.0);
        assert_eq!(sel.evaluated, 256);
        assert!(sel.satisfies_guarantee());
    }

    #[test]
    fn bitwise_beats_mean() {
        let sel = select_seed(8, SeedStrategy::BitwiseCondExp, quad);
        assert!(sel.satisfies_guarantee());
        assert_eq!(sel.trace.len(), 8);
        // For a unimodal cost the bitwise walk lands at the optimum here.
        assert_eq!(sel.seed, 37);
    }

    #[test]
    fn bitwise_guarantee_on_adversarial_cost() {
        // Spiky cost: zero at one point, large elsewhere; the walk may not
        // find the zero but must end at most at the mean.
        let cost = |s: u64| if s == 200 { 0.0 } else { 10.0 + (s % 7) as f64 };
        let sel = select_seed(8, SeedStrategy::BitwiseCondExp, cost);
        assert!(sel.satisfies_guarantee(), "{sel:?}");
    }

    #[test]
    fn fixed_subset_stays_in_prefix() {
        let sel = select_seed(10, SeedStrategy::FixedSubset(16), quad);
        assert!(sel.seed < 16);
        assert_eq!(sel.evaluated, 16);
        assert_eq!(sel.seed, 15); // closest to 37 within 0..16
    }

    #[test]
    fn fixed_subset_clamps_to_space() {
        let sel = select_seed(3, SeedStrategy::FixedSubset(1000), quad);
        assert_eq!(sel.evaluated, 8);
    }

    #[test]
    fn single_seed_is_pinned() {
        let sel = select_seed(8, SeedStrategy::SingleSeed(5), quad);
        assert_eq!(sel.seed, 5);
        assert_eq!(sel.evaluated, 1);
    }

    #[test]
    #[should_panic]
    fn single_seed_out_of_range_panics() {
        select_seed(4, SeedStrategy::SingleSeed(16), quad);
    }

    #[test]
    #[should_panic]
    fn constant_cost_seed_refuses_out_of_range_single_seed() {
        SeedStrategy::SingleSeed(16).constant_cost_seed(4);
    }

    /// `constant_cost_seed` is the seed every entry point selects on a
    /// constant cost, so a caller that knows its cost is constant may
    /// apply it without searching.
    #[test]
    fn constant_cost_seed_matches_the_searches() {
        for seed_bits in [1u32, 4, 10] {
            let space = 1u64 << seed_bits;
            for strategy in [
                SeedStrategy::Exhaustive,
                SeedStrategy::BitwiseCondExp,
                SeedStrategy::FixedSubset(1),
                SeedStrategy::FixedSubset(3),
                SeedStrategy::FixedSubset(space + 5),
                SeedStrategy::SingleSeed(0),
                SeedStrategy::SingleSeed(space - 1),
                SeedStrategy::SingleSeed(space / 2),
            ] {
                let expected = strategy.constant_cost_seed(seed_bits);
                for c in [0.0, 5.0] {
                    let reference = select_seed(seed_bits, strategy, |_| c);
                    let blocks = select_seed_blocks_n(
                        seed_bits,
                        strategy,
                        0,
                        || (),
                        |_, out: &mut [f64], _| out.fill(c),
                    );
                    for sel in [&reference, &blocks] {
                        assert_eq!(sel.seed, expected, "{strategy:?} bits {seed_bits} cost {c}");
                        assert_eq!((sel.cost, sel.mean_cost, sel.min_cost), (c, c, c));
                    }
                }
            }
        }
    }

    #[test]
    fn ties_break_to_lowest_seed() {
        let sel = select_seed(6, SeedStrategy::Exhaustive, |_| 1.0);
        assert_eq!(sel.seed, 0);
    }

    #[test]
    fn bitwise_equals_exhaustive_on_monotone_cost() {
        let cost = |s: u64| s as f64;
        let e = select_seed(7, SeedStrategy::Exhaustive, cost);
        let b = select_seed(7, SeedStrategy::BitwiseCondExp, cost);
        assert_eq!(e.seed, b.seed);
        assert_eq!(b.seed, 0);
    }

    /// Worker count must not change the outcome (chunk merge is ordered).
    /// Exercised through the explicit-worker fold rather than the
    /// `PARCOLOR_THREADS` env var: tests run multi-threaded in one
    /// process, so mutating the environment would race other tests.
    #[test]
    fn fold_is_worker_count_invariant() {
        let eval_block = |s0: u64, out: &mut [f64], _: &mut ()| {
            for (i, o) in out.iter_mut().enumerate() {
                *o = (((s0 + i as u64) ^ 0x2F) % 13) as f64;
            }
        };
        let reference = fold_seed_range_in(&mut [()], 0, 1 << 10, &eval_block);
        for workers in [2usize, 3, 5, 8] {
            let mut pool = vec![(); workers];
            let f = fold_seed_range_in(&mut pool, 0, 1 << 10, &eval_block);
            assert_eq!(f.argmin, reference.argmin, "workers = {workers}");
            assert_eq!(f.sum, reference.sum, "workers = {workers}");
            assert_eq!(f.min, reference.min, "workers = {workers}");
        }
    }

    /// A true block evaluator — writing the whole block at once — must be
    /// indistinguishable from the reference scalar path for every
    /// strategy, including block lengths that don't divide the range.
    #[test]
    fn select_seed_blocks_matches_reference() {
        let cost = |s: u64| ((s * 37 + 11) % 19) as f64;
        for strategy in [
            SeedStrategy::Exhaustive,
            SeedStrategy::BitwiseCondExp,
            SeedStrategy::FixedSubset(23),
            SeedStrategy::SingleSeed(5),
        ] {
            let old = select_seed(8, strategy, cost);
            let new = select_seed_blocks_n(
                8,
                strategy,
                0,
                || (),
                |s0, out: &mut [f64], _| {
                    assert!(out.len() <= SEED_BLOCK);
                    for (i, o) in out.iter_mut().enumerate() {
                        *o = cost(s0 + i as u64);
                    }
                },
            );
            assert_eq!(old.seed, new.seed, "{strategy:?}");
            assert_eq!(old.cost, new.cost, "{strategy:?}");
            assert_eq!(old.mean_cost, new.mean_cost, "{strategy:?}");
            assert_eq!(old.min_cost, new.min_cost, "{strategy:?}");
            assert_eq!(old.evaluated, new.evaluated, "{strategy:?}");
            assert_eq!(old.trace, new.trace, "{strategy:?}");
        }
    }

    /// Scratch reuse: the factory is called once per worker, not per seed
    /// (workers for a 256-seed fold are capped at 256/32 = 8).
    #[test]
    fn scratch_is_reused_across_seeds() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let factories = AtomicUsize::new(0);
        let sel = select_seed_blocks_n(
            8,
            SeedStrategy::Exhaustive,
            0,
            || {
                factories.fetch_add(1, Ordering::Relaxed);
                Vec::<u64>::new()
            },
            |s0, costs: &mut [f64], scratch| {
                scratch.clear();
                for (i, c) in costs.iter_mut().enumerate() {
                    let s = s0 + i as u64;
                    scratch.push(s);
                    *c = (s % 7) as f64;
                }
            },
        );
        assert_eq!(sel.seed, 0);
        let made = factories.load(Ordering::Relaxed);
        assert!(made <= 8, "scratch factories: {made} for 256 seeds");
    }

    /// The stolen-block fold must agree with the serial walk including
    /// argmin tie-breaks, which the stealing merge resolves by explicit
    /// seed comparison rather than chunk order.
    #[test]
    fn stealing_fold_breaks_ties_to_lowest_seed() {
        // Constant cost: every seed ties; argmin must be the lowest.
        let eval_block = |_s0: u64, out: &mut [f64], _: &mut ()| {
            out.iter_mut().for_each(|o| *o = 3.0);
        };
        for workers in [1usize, 2, 5, 8] {
            let mut pool = vec![(); workers];
            let f = fold_seed_range_in(&mut pool, 0, 1 << 9, &eval_block);
            assert_eq!(f.argmin, 0, "workers = {workers}");
            assert_eq!(f.min, 3.0);
            assert_eq!(f.sum, (1u64 << 9) as f64 * 3.0);
        }
        // Two tied minima: the lower seed must win at every worker count.
        let eval_block = |s0: u64, out: &mut [f64], _: &mut ()| {
            for (i, o) in out.iter_mut().enumerate() {
                let s = s0 + i as u64;
                *o = if s == 100 || s == 400 { 0.0 } else { 5.0 };
            }
        };
        for workers in [1usize, 3, 7] {
            let mut pool = vec![(); workers];
            let f = fold_seed_range_in(&mut pool, 0, 1 << 9, &eval_block);
            assert_eq!(f.argmin, 100, "workers = {workers}");
        }
    }

    /// The explicit-worker entry points must return identical selections
    /// at every worker count, for every strategy.
    #[test]
    fn explicit_worker_counts_are_deterministic() {
        let cost = |s: u64| ((s * 131 + 17) % 23) as f64;
        for strategy in [
            SeedStrategy::Exhaustive,
            SeedStrategy::BitwiseCondExp,
            SeedStrategy::FixedSubset(200),
        ] {
            let run = |workers: usize| {
                select_seed_blocks_n(
                    9,
                    strategy,
                    workers,
                    || (),
                    |s0, costs: &mut [f64], _| {
                        for (i, c) in costs.iter_mut().enumerate() {
                            *c = cost(s0 + i as u64);
                        }
                    },
                )
            };
            let reference = run(1);
            for workers in [2usize, 4, 8] {
                let got = run(workers);
                assert_eq!(reference.seed, got.seed, "{strategy:?} workers {workers}");
                assert_eq!(reference.cost, got.cost, "{strategy:?} workers {workers}");
                assert_eq!(reference.mean_cost, got.mean_cost, "{strategy:?}");
                assert_eq!(reference.trace, got.trace, "{strategy:?}");
            }
        }
    }

    /// An external [`RangeFolder`] — here a toy serial one standing in
    /// for a remote fleet — must reproduce the local selection
    /// field-for-field for every strategy, including when its folds
    /// arrive as out-of-order unit merges (grouping invariance).
    #[test]
    fn foreign_folder_matches_local_path() {
        struct SerialFolder<F: Fn(u64) -> f64>(F);
        impl<F: Fn(u64) -> f64> RangeFolder for SerialFolder<F> {
            fn fold_range(&mut self, start: u64, len: u64) -> SumMinArgmin {
                // Merge in deliberately scrambled unit order, the way
                // remote completions arrive.
                let unit = 8u64;
                let nunits = len.div_ceil(unit);
                let mut parts: Vec<SumMinArgmin> = (0..nunits)
                    .map(|u| {
                        let s = start + u * unit;
                        let l = (start + len - s).min(unit);
                        let mut acc = SumMinArgmin::EMPTY;
                        for seed in s..s + l {
                            acc.observe(seed, (self.0)(seed));
                        }
                        acc
                    })
                    .collect();
                parts.reverse();
                parts
                    .into_iter()
                    .fold(SumMinArgmin::EMPTY, |a, b| a.merge(b))
            }
            fn eval_seed(&mut self, seed: u64) -> f64 {
                (self.0)(seed)
            }
        }
        let cost = |s: u64| ((s * 53 + 7) % 17) as f64;
        for strategy in [
            SeedStrategy::Exhaustive,
            SeedStrategy::BitwiseCondExp,
            SeedStrategy::FixedSubset(23),
            SeedStrategy::SingleSeed(5),
        ] {
            let local = select_seed_blocks_n(
                8,
                strategy,
                1,
                || (),
                |s0, out: &mut [f64], _| {
                    for (i, o) in out.iter_mut().enumerate() {
                        *o = cost(s0 + i as u64);
                    }
                },
            );
            let foreign = select_seed_folded(8, strategy, &mut SerialFolder(cost));
            assert_eq!(local.seed, foreign.seed, "{strategy:?}");
            assert_eq!(local.cost, foreign.cost, "{strategy:?}");
            assert_eq!(local.mean_cost, foreign.mean_cost, "{strategy:?}");
            assert_eq!(local.min_cost, foreign.min_cost, "{strategy:?}");
            assert_eq!(local.evaluated, foreign.evaluated, "{strategy:?}");
            assert_eq!(local.trace, foreign.trace, "{strategy:?}");
        }
    }

    #[test]
    fn bitwise_mean_halves_consistent() {
        // First trace entry's two means must average to the global mean.
        let sel = select_seed(8, SeedStrategy::BitwiseCondExp, quad);
        let (_, m0, m1) = sel.trace[0];
        assert!(((m0 + m1) / 2.0 - sel.mean_cost).abs() < 1e-6);
    }
}
