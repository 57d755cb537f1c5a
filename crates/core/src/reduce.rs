//! Degree reduction: `LowSpacePartition` (Algorithm 12) with the
//! derandomized hash selection of Lemma 23.
//!
//! One partition level hashes the *high-degree* uncolored nodes into
//! `B ≈ n^δ` bins with `h₁` and the color universe into `B − 1` bins with
//! `h₂`; bin `i < B−1` keeps only its own colors, the last bin and the
//! low-degree remainder `G_mid` keep full (residual) palettes and are
//! colored after the restricted bins.  Lemma 23's guarantees — in-bin
//! degree `d'(v) < 2 d(v)/B` and in-bin palette `p'(v) > d'(v)` — are
//! achieved by a deterministic search over a pairwise-independent hash
//! family (the method of conditional expectations over the family, run
//! here as a deterministic argmin over an indexed prefix of the family).
//!
//! The search costs hash seeds on the pool kernel every PRG seed search
//! uses ([`fold_seed_range_in`]).  It folds the doubling prefixes
//! `[0,1), [1,2), [2,4), …` of its budget and stops after the first one
//! that holds a seed of cost 0, the least possible cost.  The chosen seed
//! is therefore the lowest minimum-cost seed of the whole budget, and a
//! search whose first perfect seed is `s` evaluates at most `2(s + 1)`
//! seeds.
//!
//! The pool kernel hands the search blocks of up to [`SEED_BLOCK`]
//! contiguous seeds, and a block costs **one pass**, as TryRandomColor's
//! block evaluator does.  Each seed fills one lane of two
//! `u8` seed-lane planes — node → `h₁` bin and color → `h₂` bin — and one
//! walk over each high node's neighbors and palette counts `d'(v)` and
//! its in-bin palette in every lane with plain per-lane compares.  The
//! chosen seed's violators, bins and worst ratio come from the same walk,
//! run as a 1-lane block.  `u8` lanes hold bins below a sentinel, so a
//! level takes at most 64 bins.

use crate::instance::{dense_colors, ColoringState};
use parcolor_exec::resolve_workers;
use parcolor_local::graph::{Graph, NodeId};
use parcolor_prg::hashing::{KWiseFamily, KWiseHash};
use parcolor_prg::{fold_seed_range_in, SumMinArgmin, SEED_BLOCK};

/// Independence of the partition hashes.  CDP21d uses `O(log n)`-wise
/// independence for Chernoff-type concentration of in-bin degrees; 8-wise
/// is ample at every scale this repo reaches.
const HASH_INDEPENDENCE: u32 = 8;

/// Most node bins one level takes: bins are `u8` lane entries below
/// [`NO_BIN`].  [`Params::partition_bins`](crate::config::Params::partition_bins)
/// clamps to this.
pub(crate) const MAX_BINS: usize = 64;

/// One seed-lane plane entry: a bin per seed of a block.
type Lanes = [u8; SEED_BLOCK];

/// Lane entry of a node outside every bin: not high, or a violator of
/// the chosen seed.  It equals no bin, since bins are below [`MAX_BINS`].
const NO_BIN: u8 = u8::MAX;

/// Result of one `LowSpacePartition` call.
#[derive(Debug)]
pub struct PartitionOutcome {
    /// Node bins `G_1 … G_B` (original ids).  Bins `0..B-1` get restricted
    /// palettes; the last bin keeps full palettes.
    pub bins: Vec<Vec<NodeId>>,
    /// `G_mid`: nodes whose degree is already at most the threshold
    /// (plus any violators moved here by the fallback).
    pub mid: Vec<NodeId>,
    /// The chosen color hash (colors `c` with `h₂(c) = i` belong to bin i).
    pub color_hash: KWiseHash,
    /// Diagnostics for experiment E4.
    pub stats: PartitionStats,
}

/// Diagnostics of one partition level (experiment E4's row).
#[derive(Clone, Debug)]
pub struct PartitionStats {
    /// Node bins `B`.
    pub bins: usize,
    /// Nodes above the mid-degree threshold (binned).
    pub high_nodes: usize,
    /// Nodes routed to `G_mid`.
    pub mid_nodes: usize,
    /// Hash seeds evaluated by the deterministic search.
    pub seeds_tried: u64,
    /// The chosen hash seed.
    pub chosen_seed: u64,
    /// Nodes whose restricted palette would have been too small (the
    /// *hard* Lemma 23 violation); they fall back to `G_mid` with full
    /// palettes, preserving correctness.
    pub violations_moved_to_mid: usize,
    /// Binned nodes exceeding the `2 d(v)/B` degree bound (the *soft*
    /// Lemma 23 violation — hurts only the recursion's progress rate; at
    /// paper scale `d/B = n^{6δ}` makes these vanish, at test scale they
    /// are counted and reported by E4).
    pub soft_degree_violations: usize,
    /// Max over binned nodes of `d'(v) · B / d(v)` (Lemma 23 predicts < 2).
    pub worst_degree_ratio: f64,
}

/// The hash pair `(h₁, h₂)` of hash seed `seed`: nodes into `bins` bins,
/// colors into `bins − 1`.
fn hash_pair(bins: usize, seed: u64) -> (KWiseHash, KWiseHash) {
    (
        KWiseFamily::new(HASH_INDEPENDENCE, bins as u64)
            .member(seed.wrapping_mul(0x9E37_79B9) ^ 0x5bd1),
        KWiseFamily::new(HASH_INDEPENDENCE, bins as u64 - 1)
            .member(seed.wrapping_mul(0xC2B2_AE35) ^ 0x27d4),
    )
}

/// One high node under one seed lane, as [`HashPlane::verdicts`] reads it.
#[derive(Clone, Copy)]
struct Verdict {
    /// `h₁(v)`, or [`NO_BIN`] once `v` left its bin as a violator.
    bin: u8,
    /// `d'(v)`: neighbors in `v`'s bin.
    d_in: u32,
    /// *Hard* violation: the bin is restricted and the restricted palette
    /// `|{c ∈ Ψ(v) : h₂(c) = h₁(v)}|` does not cover `d'(v)` (breaks the
    /// D1LC promise of the sub-instance — such nodes must fall back to
    /// `G_mid`).
    hard: bool,
    /// *Soft* violation: the `2d/B` degree bound is exceeded (slows the
    /// recursion but breaks nothing).
    soft: bool,
}

/// One search worker's seed-lane planes (Lemma 23's search).
///
/// The seed-independent inputs — high node ids, the color hash inputs and
/// each high node's degree bound — are built **once per partition call**
/// and cloned to each worker.  Each seed of a block fills lane `s` of the
/// two planes with two [`KWiseHash::eval_batch`] passes, and one
/// [`HashPlane::verdicts`] walk then reads all lanes of each neighbor's
/// and palette color's entry at once.  Every entry reproduces the scalar
/// `eval` bit-for-bit (the hashing batch contract) and lane `s` depends
/// on its own seed alone, so the costs, the chosen seed and all
/// statistics are those of a per-seed scan.  Lanes a short block does not
/// fill keep an earlier block's bins; their verdicts are never read.
/// `u8` entries hold bins below [`NO_BIN`], hence `bins ≤ MAX_BINS`.
#[derive(Clone)]
struct HashPlane<'a> {
    g: &'a Graph,
    state: &'a ColoringState,
    /// Node bins `B`.
    bins: usize,
    /// High node ids as `h₁` inputs (fixed across seeds).
    xs_high: Vec<u64>,
    /// Degree reduction bound `max(2, 2 d(v)/B)` of each high node, with
    /// `d(v)` its high neighbors, aligned with `xs_high`.
    deg_bound: Vec<f64>,
    /// Dense node → `h₁` bin per lane (refilled per seed at high
    /// positions, [`NO_BIN`] in every lane elsewhere, so only high
    /// neighbors share a bin).
    node_bins: Vec<Lanes>,
    /// `h₂` inputs: the color universe `0..=max_color` (dense mode) or
    /// the concatenated high-node palettes (occurrence mode).
    xs_colors: Vec<u64>,
    /// Occurrence-mode offsets into `xs_colors`, one per high node + 1
    /// (empty in dense mode).
    color_off: Vec<usize>,
    /// `h₂` bins per lane, aligned with `xs_colors` (refilled per seed).
    color_bins: Vec<Lanes>,
    /// [`KWiseHash::eval_batch`] output of the lane being filled.
    out: Vec<u64>,
}

impl<'a> HashPlane<'a> {
    fn new(g: &'a Graph, state: &'a ColoringState, high: &[NodeId], bins: usize) -> Self {
        let xs_high: Vec<u64> = high.iter().map(|&v| v as u64).collect();
        // Until the first fill, high nodes read bin 0 in every lane: d(v)
        // counts the neighbors off NO_BIN.
        let mut node_bins = vec![[NO_BIN; SEED_BLOCK]; g.n()];
        for &v in high {
            node_bins[v as usize] = [0; SEED_BLOCK];
        }
        // Degree reduction: d'(v) < max(2, 2 d(v)/B).  The `max(2)`
        // absorbs integer effects at small degrees (Lemma 23 is stated
        // for Δ ≥ n^{7δ} where 2d/B ≫ 1).
        let deg_bound = high
            .iter()
            .map(|&v| {
                let d = g
                    .neighbors(v)
                    .iter()
                    .filter(|&&u| node_bins[u as usize][0] != NO_BIN)
                    .count();
                (2.0 * d as f64 / bins as f64).max(2.0)
            })
            .collect();
        let pal_words: usize = high.iter().map(|&v| state.palette(v).len()).sum();
        let max_color = high
            .iter()
            .flat_map(|&v| state.palette(v).iter().copied())
            .max();
        // Dense mode evaluates each color of the universe once per seed;
        // it wins whenever the universe is not much larger than the
        // palette storage (always true for degree+1 palettes).  Sparse
        // universes fall back to one evaluation per palette occurrence —
        // exactly the scalar path's count, just batched.
        let dense = max_color.is_some_and(|m| dense_colors(m as usize, pal_words));
        let (xs_colors, color_off) = if dense {
            ((0..=max_color.unwrap() as u64).collect(), Vec::new())
        } else {
            let mut xs = Vec::with_capacity(pal_words);
            let mut off = Vec::with_capacity(high.len() + 1);
            off.push(0);
            for &v in high {
                xs.extend(state.palette(v).iter().map(|&c| c as u64));
                off.push(xs.len());
            }
            (xs, off)
        };
        HashPlane {
            g,
            state,
            bins,
            out: vec![0; xs_high.len().max(xs_colors.len())],
            xs_high,
            deg_bound,
            node_bins,
            color_bins: vec![[0; SEED_BLOCK]; xs_colors.len()],
            xs_colors,
            color_off,
        }
    }

    /// Fill lane `s` of both planes with the bins of `(h₁, h₂)`.
    fn fill_lane(&mut self, s: usize, h1: &KWiseHash, h2: &KWiseHash) {
        let out = &mut self.out[..self.xs_high.len()];
        h1.eval_batch(&self.xs_high, out);
        for (&x, &b) in self.xs_high.iter().zip(out.iter()) {
            self.node_bins[x as usize][s] = b as u8;
        }
        let out = &mut self.out[..self.xs_colors.len()];
        h2.eval_batch(&self.xs_colors, out);
        for (lanes, &b) in self.color_bins.iter_mut().zip(out.iter()) {
            lanes[s] = b as u8;
        }
    }

    /// The violation kernel: one walk over each high node's neighbors and
    /// palette counts, in every lane, `d'(v)` and
    /// `|{c ∈ Ψ(v) : h₂(c) = h₁(v)}|`, and hands `visit` the node's
    /// index in the high set with its verdict in every lane.
    fn verdicts(&self, mut visit: impl FnMut(usize, &[Verdict; SEED_BLOCK])) {
        // Plain per-lane compares into `u32` counters, exact at any
        // degree; the compiler vectorizes them per target.
        fn count(acc: &mut [u32; SEED_BLOCK], bin: &Lanes, other: &Lanes) {
            for ((a, &b), &o) in acc.iter_mut().zip(bin).zip(other) {
                *a += u32::from(b == o);
            }
        }
        for (i, &x) in self.xs_high.iter().enumerate() {
            let v = x as NodeId;
            let bin = self.node_bins[v as usize];
            let mut d_in = [0; SEED_BLOCK];
            for &u in self.g.neighbors(v) {
                count(&mut d_in, &bin, &self.node_bins[u as usize]);
            }
            let mut pal_in = [0; SEED_BLOCK];
            if self.color_off.is_empty() {
                for &c in self.state.palette(v) {
                    count(&mut pal_in, &bin, &self.color_bins[c as usize]);
                }
            } else {
                for lanes in &self.color_bins[self.color_off[i]..self.color_off[i + 1]] {
                    count(&mut pal_in, &bin, lanes);
                }
            }
            let verdicts = std::array::from_fn(|s| Verdict {
                bin: bin[s],
                d_in: d_in[s],
                // Palette property for restricted bins only.
                hard: usize::from(bin[s]) < self.bins - 1 && pal_in[s] <= d_in[s],
                soft: d_in[s] as f64 >= self.deg_bound[i],
            });
            visit(i, &verdicts);
        }
    }

    /// `costs[s]` ← the cost of hash seed `seed0 + s`, for a block of at
    /// most [`SEED_BLOCK`] seeds, in one pass: `1_000_000 · hard + soft`
    /// violations, so hard violations dominate.
    fn cost_block(&mut self, seed0: u64, costs: &mut [f64]) {
        for s in 0..costs.len() {
            let (h1, h2) = hash_pair(self.bins, seed0 + s as u64);
            self.fill_lane(s, &h1, &h2);
        }
        let mut tally = [(0usize, 0usize); SEED_BLOCK];
        self.verdicts(|_, lanes| {
            for ((hard, soft), l) in tally.iter_mut().zip(lanes) {
                *hard += usize::from(l.hard);
                *soft += usize::from(l.soft);
            }
        });
        for (cost, (hard, soft)) in costs.iter_mut().zip(tally) {
            *cost = (hard * 1_000_000 + soft) as f64;
        }
    }
}

/// Run one partition level over `nodes` (uncolored).  `threshold` is the
/// mid-degree cutoff `n^{7δ}`; `bins` is `B`, in `3..=64`; `budget`
/// bounds the hash search.
pub fn low_space_partition(
    g: &Graph,
    state: &ColoringState,
    nodes: &[NodeId],
    threshold: usize,
    bins: usize,
    budget: u64,
) -> PartitionOutcome {
    assert!(bins >= 3, "need at least 3 bins (B-1 ≥ 2 color bins)");
    assert!(bins <= MAX_BINS, "at most {MAX_BINS} bins (u8 seed lanes)");
    // Residual degree within the instance decides mid membership.
    let mut in_set = vec![false; g.n()];
    for &v in nodes {
        in_set[v as usize] = true;
    }
    let deg_of = |v: NodeId| {
        g.neighbors(v)
            .iter()
            .filter(|&&u| in_set[u as usize])
            .count()
    };
    let (mut mid, high): (Vec<NodeId>, Vec<NodeId>) =
        nodes.iter().partition(|&&v| deg_of(v) <= threshold);

    // Deterministic search (the method of conditional expectations over
    // the hash family, realized as an argmin over an indexed prefix).
    // Each block of candidate seeds fills one lane of its worker's planes
    // per seed, and one verdict walk costs the whole block.  Costs are
    // integers far below 2^53, so the fold's min and lowest-seed argmin
    // are exact at every worker count.
    let budget = budget.max(1);
    let mut pool = vec![HashPlane::new(g, state, &high, bins)];
    let mut best = SumMinArgmin::EMPTY;
    let mut tried = 0;
    // Prefixes [0,1), [1,2), [2,4), …: no seed beats cost 0, so the first
    // prefix holding one ends the search.  A lane block walks the high
    // nodes' neighbors and palettes, so every block is worth a worker.
    let hw = resolve_workers(0);
    while tried < budget && best.min > 0.0 {
        let len = tried.max(1).min(budget - tried);
        let workers = hw.min(len.div_ceil(SEED_BLOCK as u64) as usize);
        while pool.len() < workers {
            pool.push(pool[0].clone());
        }
        let fold = fold_seed_range_in(
            &mut pool[..workers],
            tried,
            len,
            &|seed0, costs: &mut [f64], plane: &mut HashPlane| plane.cost_block(seed0, costs),
        );
        best = best.merge(fold);
        tried += len;
    }
    let chosen_seed = best.argmin;
    let (h1, h2) = hash_pair(bins, chosen_seed);
    pool.truncate(1);
    let plane = &mut pool[0];
    plane.fill_lane(0, &h1, &h2);
    let mut violators = Vec::new();
    let mut soft_violations = 0;
    plane.verdicts(|i, lanes| {
        if lanes[0].hard {
            violators.push(high[i]);
        }
        soft_violations += usize::from(lanes[0].soft);
    });

    // Fallback: violators leave their bin and join G_mid (they keep full
    // palettes and are colored after the bins, so correctness is
    // unaffected; only the degree bound of the mid instance may be
    // looser — recorded).
    for &v in &violators {
        plane.node_bins[v as usize][0] = NO_BIN;
    }
    mid.extend(&violators);
    mid.sort_unstable();

    // The bins, and the realized degree-reduction ratio of the binned
    // nodes, off the same kernel with the violators out of their bins.
    // Every ratio is ≥ 0, so 0.0 is both the fold's identity and the
    // reading when no node is binned.
    let mut bins_vec: Vec<Vec<NodeId>> = vec![Vec::new(); bins];
    let mut worst_ratio = 0.0f64;
    plane.verdicts(|i, lanes| {
        let Verdict { bin, d_in, .. } = lanes[0];
        if bin != NO_BIN {
            let v = high[i];
            bins_vec[bin as usize].push(v);
            worst_ratio = worst_ratio.max(d_in as f64 * bins as f64 / deg_of(v).max(1) as f64);
        }
    });

    let stats = PartitionStats {
        bins,
        high_nodes: high.len(),
        mid_nodes: mid.len(),
        seeds_tried: tried,
        chosen_seed,
        violations_moved_to_mid: violators.len(),
        soft_degree_violations: soft_violations,
        worst_degree_ratio: worst_ratio,
    };
    PartitionOutcome {
        bins: bins_vec,
        mid,
        color_hash: h2,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{D1lcInstance, PaletteArena};
    use parcolor_local::tape::SplitMix;
    use proptest::prelude::*;

    /// Dense random graph with a wide palette universe.
    fn dense_instance(n: usize, avg_deg: usize, seed: u64) -> D1lcInstance {
        let mut rng = SplitMix::new(seed);
        let mut edges = Vec::new();
        for _ in 0..(n * avg_deg / 2) {
            let a = rng.below(n as u64) as NodeId;
            let b = rng.below(n as u64) as NodeId;
            if a != b {
                edges.push((a.min(b), a.max(b)));
            }
        }
        let g = Graph::from_edges(n, &edges);
        D1lcInstance::delta_plus_one(g)
    }

    /// `h₁`'s entry of a node outside every bin in the reference map.
    const NO: u64 = u64::MAX;

    /// The mid/high split `low_space_partition` makes: degree within
    /// `nodes` at most `threshold`, or above it.
    fn split(g: &Graph, nodes: &[NodeId], threshold: usize) -> (Vec<NodeId>, Vec<NodeId>) {
        let mut in_set = vec![false; g.n()];
        for &v in nodes {
            in_set[v as usize] = true;
        }
        nodes.iter().partition(|&&v| {
            let d = g.neighbors(v).iter().filter(|&&u| in_set[u as usize]);
            d.count() <= threshold
        })
    }

    // The per-seed scan the lane kernel replaced, kept as its oracle: a
    // `u64` node → bin map filled from one seed's `h₁`, and that seed's
    // violations counted node by node with scalar `h₂` lookups.

    /// Dense node → `h₁` bin map of one seed: the high nodes' bins, [`NO`]
    /// elsewhere.
    fn fill(n: usize, high: &[NodeId], h1: &KWiseHash) -> Vec<u64> {
        let mut bin_of = vec![NO; n];
        for &v in high {
            bin_of[v as usize] = h1.eval(v as u64);
        }
        bin_of
    }

    /// Lemma 23's violations of one seed: `(hard, soft)` counts, with
    /// `on_hard` called on each hard violator.
    fn violations(
        g: &Graph,
        state: &ColoringState,
        high: &[NodeId],
        bin_of: &[u64],
        h2: &KWiseHash,
        bins: usize,
        mut on_hard: impl FnMut(NodeId),
    ) -> (usize, usize) {
        let (mut hard, mut soft) = (0, 0);
        for &v in high {
            let b = bin_of[v as usize];
            let in_bin = |want: u64| {
                let nb = g.neighbors(v).iter();
                nb.filter(|&&u| bin_of[u as usize] == want).count()
            };
            let (d, d_in) = (g.degree(v) - in_bin(NO), in_bin(b));
            soft += usize::from(d_in as f64 >= (2.0 * d as f64 / bins as f64).max(2.0));
            let pal = state.palette(v).iter();
            let p_in = pal.filter(|&&c| h2.eval(c as u64) == b).count();
            if (b as usize) < bins - 1 && p_in <= d_in {
                hard += 1;
                on_hard(v);
            }
        }
        (hard, soft)
    }

    /// The reference cost of hash seed `seed`.
    fn reference_cost(
        g: &Graph,
        state: &ColoringState,
        high: &[NodeId],
        bins: usize,
        seed: u64,
    ) -> f64 {
        let (h1, h2) = hash_pair(bins, seed);
        let (hard, soft) = violations(g, state, high, &fill(g.n(), high, &h1), &h2, bins, |_| {});
        (hard * 1_000_000 + soft) as f64
    }

    /// The reference partition under hash seed `seed`: `(bins, mid,
    /// moved, soft, worst ratio)`, built as `low_space_partition` builds
    /// them from its chosen seed.
    fn reference_partition(
        g: &Graph,
        state: &ColoringState,
        nodes: &[NodeId],
        threshold: usize,
        bins: usize,
        seed: u64,
    ) -> (Vec<Vec<NodeId>>, Vec<NodeId>, usize, usize, f64) {
        let (mut mid, high) = split(g, nodes, threshold);
        let (h1, h2) = hash_pair(bins, seed);
        let mut bin_of = fill(g.n(), &high, &h1);
        let mut violators = Vec::new();
        let (_, soft) = violations(g, state, &high, &bin_of, &h2, bins, |v| violators.push(v));
        for &v in &violators {
            bin_of[v as usize] = NO;
        }
        mid.extend(&violators);
        mid.sort_unstable();
        let mut bins_vec = vec![Vec::new(); bins];
        for &v in &high {
            if bin_of[v as usize] != NO {
                bins_vec[bin_of[v as usize] as usize].push(v);
            }
        }
        let in_nodes = |u: &&NodeId| nodes.contains(u);
        let worst = bins_vec
            .iter()
            .flatten()
            .map(|&v| {
                let b = bin_of[v as usize];
                let d_in = g.neighbors(v).iter().filter(|&&u| bin_of[u as usize] == b);
                let d = g.neighbors(v).iter().filter(in_nodes).count();
                d_in.count() as f64 * bins as f64 / d.max(1) as f64
            })
            .fold(0.0, f64::max);
        (bins_vec, mid, violators.len(), soft, worst)
    }

    /// A random partition input keyed by `seed`: a random graph, partly
    /// colored, with degree+1 palettes (the lane planes' dense color
    /// mode) or `random_lists` over a universe of 10^6–10^8 colors
    /// (occurrence mode), its uncolored nodes, a threshold that leaves
    /// some of them high, and `B ∈ {3, 4, 8, 64}`.  The last field says
    /// which color mode the input takes.
    fn random_input(seed: u64) -> (Graph, ColoringState, Vec<NodeId>, usize, usize, bool) {
        let mut rng = SplitMix::new(seed);
        let n = 40 + rng.below(260) as usize;
        let avg = 4 + rng.below(40) as usize;
        let edges: Vec<(NodeId, NodeId)> = (0..n * avg / 2)
            .map(|_| (rng.below(n as u64) as NodeId, rng.below(n as u64) as NodeId))
            .filter(|&(a, b)| a != b)
            .collect();
        let g = Graph::from_edges(n, &edges);
        let dense = rng.below(2) == 0;
        let inst = if dense {
            D1lcInstance::delta_plus_one(g.clone())
        } else {
            // `random_lists` builds a `parcolor_core` instance of the
            // library build; copy its palettes into this crate's types.
            let universe = 1_000_000 * (1 + rng.below(100) as u32);
            let lists = parcolor_graphgen::random_lists(g.clone(), universe, 0, rng.next_u64());
            let lists: Vec<Vec<u32>> = (0..n as NodeId)
                .map(|v| lists.palettes.palette(v).to_vec())
                .collect();
            D1lcInstance::new(g.clone(), PaletteArena::from_lists(&lists))
        };
        let mut state = ColoringState::new(&inst);
        for v in 0..n as NodeId {
            if rng.below(5) == 0 {
                let pal = state.palette(v);
                let c = pal[rng.below(pal.len() as u64) as usize];
                state.apply_adoptions(&g, &[(v, c)]);
            }
        }
        let nodes = state.uncolored_nodes();
        let threshold = rng.below(avg as u64) as usize;
        let bins = [3, 4, 8, 64][rng.below(4) as usize];
        (g, state, nodes, threshold, bins, dense)
    }

    // Every lane of blocks of each length 1..=8, at unaligned offsets and
    // over the stale lanes of earlier blocks, costs its seed as the
    // per-seed reference does; the search takes the reference's doubling
    // prefixes and argmin; and the chosen seed's bins, `mid`, violators
    // and worst ratio are the reference's.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn lane_kernel_matches_per_seed_reference(seed in any::<u64>()) {
            let (g, state, nodes, threshold, bins, dense) = random_input(seed);
            let (_, high) = split(&g, &nodes, threshold);
            let cost = |s: u64| reference_cost(&g, &state, &high, bins, s);
            let mut plane = HashPlane::new(&g, &state, &high, bins);
            prop_assert_eq!(plane.color_off.is_empty(), dense, "seed {}", seed);
            let mut rng = SplitMix::new(seed ^ 0x1a7e);
            let mut lens: Vec<usize> = (1..=SEED_BLOCK).collect();
            rng.shuffle(&mut lens);
            // A full block first: every shorter one leaves stale lanes.
            lens.insert(0, SEED_BLOCK);
            let mut seed0 = 1 + rng.below(1000);
            for len in lens {
                let mut costs = [f64::NAN; SEED_BLOCK];
                plane.cost_block(seed0, &mut costs[..len]);
                for (s, &c) in (seed0..).zip(&costs[..len]) {
                    prop_assert_eq!(c, cost(s), "seed {} block {}+{}", seed, seed0, len);
                }
                seed0 += len as u64 + rng.below(3);
            }

            let budget = 1 + rng.below(24);
            let out = low_space_partition(&g, &state, &nodes, threshold, bins, budget);
            let costs: Vec<f64> = (0..out.stats.seeds_tried).map(cost).collect();
            let mut tried = 0;
            while tried < budget && costs[..tried as usize].iter().all(|&c| c > 0.0) {
                tried += tried.max(1).min(budget - tried);
            }
            let chosen = (0..tried).min_by(|&a, &b| costs[a as usize].total_cmp(&costs[b as usize]));
            prop_assert_eq!(
                (out.stats.seeds_tried, out.stats.chosen_seed),
                (tried, chosen.unwrap()),
                "seed {}",
                seed
            );
            let (bins_vec, mid, moved, soft, worst) =
                reference_partition(&g, &state, &nodes, threshold, bins, out.stats.chosen_seed);
            prop_assert_eq!(&out.bins, &bins_vec, "seed {}", seed);
            prop_assert_eq!(&out.mid, &mid, "seed {}", seed);
            prop_assert_eq!(out.stats.violations_moved_to_mid, moved);
            prop_assert_eq!(out.stats.soft_degree_violations, soft);
            prop_assert_eq!(out.stats.worst_degree_ratio.to_bits(), worst.to_bits());
            prop_assert_eq!(out.stats.high_nodes, high.len());
        }
    }

    #[test]
    fn partition_respects_lemma23_bounds() {
        // Lemma 23's regime: in-bin degree d/B must dominate its own
        // fluctuations AND the palette-degree gap d/B² must dominate
        // √(d/B) — i.e. d ≫ B³.  (The paper has d ≥ n^{7δ} ≫ B³ = n^{3δ}.)
        let inst = dense_instance(600, 120, 1);
        let state = ColoringState::new(&inst);
        let nodes = state.uncolored_nodes();
        let out = low_space_partition(&inst.graph, &state, &nodes, 40, 3, 128);
        // Hard (palette) violations must be fully absorbed by the fallback.
        assert_eq!(out.stats.violations_moved_to_mid, 0, "{:?}", out.stats);
        // Soft degree violations are a small tail at this scale.
        assert!(
            out.stats.soft_degree_violations * 10 <= out.stats.high_nodes,
            "{:?}",
            out.stats
        );
        // Degree reduction really happened: worst ratio far below B.
        assert!(
            out.stats.worst_degree_ratio < out.stats.bins as f64,
            "ratio {}",
            out.stats.worst_degree_ratio
        );
    }

    #[test]
    fn mid_collects_low_degree_nodes() {
        let inst = dense_instance(300, 10, 2);
        let state = ColoringState::new(&inst);
        let nodes = state.uncolored_nodes();
        let threshold = 12;
        let out = low_space_partition(&inst.graph, &state, &nodes, threshold, 4, 64);
        for &v in &out.mid {
            // mid = low-degree or violator; most should be low-degree
            let d = inst.graph.degree(v);
            assert!(d <= threshold + 8, "node {v} degree {d} in mid");
        }
        let binned: usize = out.bins.iter().map(Vec::len).sum();
        assert_eq!(binned + out.mid.len(), 300);
    }

    #[test]
    fn restricted_bins_form_valid_instances() {
        let inst = dense_instance(600, 50, 3);
        let state = ColoringState::new(&inst);
        let nodes = state.uncolored_nodes();
        let bins = 4;
        let out = low_space_partition(&inst.graph, &state, &nodes, 16, bins, 128);
        // Every restricted bin must satisfy the D1LC promise (hard
        // violators were moved to mid, so this holds by construction).
        for (b, bin_nodes) in out.bins.iter().enumerate().take(bins - 1) {
            if bin_nodes.is_empty() {
                continue;
            }
            let h2 = &out.color_hash;
            let r = state
                .restricted_instance(&inst.graph, bin_nodes, |c| h2.eval(c as u64) as usize == b);
            assert!(r.is_ok(), "bin {b}: {:?}", r.err());
        }
    }

    #[test]
    fn search_is_deterministic() {
        let inst = dense_instance(400, 40, 4);
        let state = ColoringState::new(&inst);
        let nodes = state.uncolored_nodes();
        let a = low_space_partition(&inst.graph, &state, &nodes, 16, 4, 64);
        let b = low_space_partition(&inst.graph, &state, &nodes, 16, 4, 64);
        assert_eq!(a.stats.chosen_seed, b.stats.chosen_seed);
        assert_eq!(a.bins, b.bins);
        assert_eq!(a.mid, b.mid);
    }

    #[test]
    #[should_panic(expected = "at most 64 bins")]
    fn rejects_more_bins_than_u8_lanes_hold() {
        let inst = dense_instance(50, 4, 5);
        let state = ColoringState::new(&inst);
        low_space_partition(&inst.graph, &state, &[], 8, 65, 16);
    }

    #[test]
    fn empty_input() {
        let inst = dense_instance(50, 4, 5);
        let state = ColoringState::new(&inst);
        let out = low_space_partition(&inst.graph, &state, &[], 8, 3, 16);
        assert!(out.mid.is_empty());
        assert!(out.bins.iter().all(Vec::is_empty));
    }

    /// Regression: with no binned node the worst ratio reads 0.0, and
    /// with some it is their positive, finite maximum.
    #[test]
    fn worst_ratio_identity_is_neutral() {
        // Threshold above every degree → no high nodes participate.
        let inst = dense_instance(100, 6, 6);
        let state = ColoringState::new(&inst);
        let nodes = state.uncolored_nodes();
        let out = low_space_partition(&inst.graph, &state, &nodes, 10_000, 3, 16);
        assert_eq!(out.stats.high_nodes, 0);
        assert_eq!(out.stats.worst_degree_ratio, 0.0);
        // Nonempty participation: the fold's 0.0 identity must not hide
        // the binned nodes' ratios.
        let inst = dense_instance(600, 120, 1);
        let state = ColoringState::new(&inst);
        let nodes = state.uncolored_nodes();
        let out = low_space_partition(&inst.graph, &state, &nodes, 40, 3, 128);
        assert!(out.stats.high_nodes > 0);
        assert!(out.stats.worst_degree_ratio.is_finite());
        assert!(out.stats.worst_degree_ratio > 0.0);
    }

    /// A search whose first perfect seed is `s` picks `s` and evaluates at
    /// most `2(s + 1)` seeds; a budget of `s` finds no perfect seed, and
    /// a budget of `s + 1` picks `s` after evaluating all of it.
    #[test]
    fn search_stops_after_first_perfect_seed() {
        let perfect = |o: &PartitionOutcome| {
            o.stats.violations_moved_to_mid == 0 && o.stats.soft_degree_violations == 0
        };
        for inst_seed in [1, 6, 9] {
            let inst = dense_instance(600, 60, inst_seed);
            let state = ColoringState::new(&inst);
            let nodes = state.uncolored_nodes();
            let run = |budget| low_space_partition(&inst.graph, &state, &nodes, 20, 3, budget);
            let out = run(64);
            let s = out.stats.chosen_seed;
            assert!(perfect(&out) && s > 0, "{:?}", out.stats);
            assert!(out.stats.seeds_tried > s && out.stats.seeds_tried <= 2 * (s + 1));
            let below = run(s);
            assert!(!perfect(&below), "{:?}", below.stats);
            assert_eq!(below.stats.seeds_tried, s);
            let exact = run(s + 1);
            assert_eq!(
                (exact.stats.chosen_seed, exact.stats.seeds_tried),
                (s, s + 1)
            );
            assert_eq!((exact.bins, exact.mid), (out.bins, out.mid));
        }
    }
}
