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
//! The search folds the doubling prefixes `[0,1), [1,2), [2,4), …` of its
//! budget and stops after the first one that holds a seed of cost 0, the
//! least possible cost.  The chosen seed is therefore the lowest
//! minimum-cost seed of the whole budget, and a search whose first
//! perfect seed is `s` folds at most `2(s + 1)` seeds.
//!
//! The prefix fold reads a cost vector that **passes** of 32 contiguous
//! seeds fill ahead of it: a budget of 256 seeds costs 8 passes, and at
//! most 31 seeds past the stop are costed and never folded.  A pass fills
//! lane `s` of two `u8` planes with seed `s`'s bins, through one
//! [`MemberBlock`] per hash: `h₁` of each high node, by its position
//! among the high nodes, and `h₂` of each color (or palette occurrence).
//! One walk then counts `d'(v)` and the in-bin palette of every high node
//! in all 32 lanes at once, over the node's high neighbors (rows of high
//! positions, built once per call by the row builder a step's `StageSet`
//! uses) and over its palette.  The fills run on the pool by key stripes
//! and the walk by stripes of high positions, into per-lane
//! `(hard, soft)` tallies: integer sums, the same at every worker count.
//! Two more walks over the same stripes give the chosen seed's
//! violators, then its bins and worst ratio.  `u8` lanes hold bins below
//! a sentinel, so a level takes at most 64 bins.

use crate::instance::{dense_colors, ColoringState};
use crate::stripes::{par_rows, stripe_workers, STRIPE};
use parcolor_exec::{par_fill, par_fold, resolve_workers, Executor};
use parcolor_local::graph::{Graph, NodeId};
use parcolor_prg::hashing::{KWiseFamily, KWiseHash, MemberBlock};

/// Independence of the partition hashes.  CDP21d uses `O(log n)`-wise
/// independence for Chernoff-type concentration of in-bin degrees; 8-wise
/// is ample at every scale this repo reaches.
const HASH_INDEPENDENCE: u32 = 8;

/// Most node bins one level takes: bins are `u8` lane entries below
/// [`NO_BIN`].  [`Params::partition_bins`](crate::config::Params::partition_bins)
/// clamps to this.
pub(crate) const MAX_BINS: usize = 64;

/// Hash seeds one pass costs: the lanes of a plane entry.
const LANES: usize = 32;

/// One plane entry: a bin per seed lane of a pass.
type Lanes = [u8; LANES];

/// Lane entry of a violator of the chosen seed, which leaves its bin.  It
/// equals no bin, since bins are below [`MAX_BINS`].
const NO_BIN: u8 = u8::MAX;

/// Entries one [`lane_matches`] call counts: its `u8` counters hold at
/// most 255 matches, so longer runs are flushed into `u32`s every
/// `FLUSH` entries.
const FLUSH: usize = u8::MAX as usize;

/// `0, 1, …, FLUSH − 1`: the index run of up to [`FLUSH`] contiguous
/// entries.
const IOTA: [u32; FLUSH] = {
    let mut run = [0; FLUSH];
    let mut i = 0;
    while i < FLUSH {
        run[i] = i as u32;
        i += 1;
    }
    run
};

/// Slot of a node of the call that is not high (see [`split_by_degree`]).
const MID_SLOT: u32 = u32::MAX;

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

/// The count kernel: `matches[l]` ← how many entries `plane[j]`,
/// `j ∈ run`, hold `bin[l]` in lane `l`.  `run` has at most [`FLUSH`]
/// entries, so the `u8` counters are exact.
///
/// The kernel is its own function, the flush stays outside it, and the
/// counts leave through `matches`.  In this shape x86-64 builds compile
/// each entry to two 16-byte `pcmpeqb` and two `psubb`.  With the flush
/// fused into the entry loop the same counts compiled to eight 4-byte
/// `movd` groups, and the search's 8 walks took 44–64 ms against 18–26
/// ms (E4's dense_lists row, 2 workers, 2-vCPU Xeon); returned by value,
/// they compiled to a mix of vector and `sete` lanes.  CI's codegen step
/// checks the shape.
#[inline(never)]
fn lane_matches(bin: &Lanes, plane: &[Lanes], run: &[u32], matches: &mut Lanes) {
    debug_assert!(run.len() <= FLUSH);
    let mut counts = [0u8; LANES];
    for &j in run {
        let entry = &plane[j as usize];
        for l in 0..LANES {
            counts[l] += u8::from(entry[l] == bin[l]);
        }
    }
    *matches = counts;
}

/// `acc[l] +=` the matches of `bin[l]` among `plane[j][l]`, `j ∈ at`, in
/// every lane: [`lane_matches`] runs of at most [`FLUSH`] entries, each
/// flushed into the `u32` counters, so the counts are exact at any
/// length.
fn count_at(acc: &mut [u32; LANES], bin: &Lanes, plane: &[Lanes], at: &[u32]) {
    let mut matches = [0; LANES];
    for run in at.chunks(FLUSH) {
        lane_matches(bin, plane, run, &mut matches);
        for (a, &m) in acc.iter_mut().zip(&matches) {
            *a += u32::from(m);
        }
    }
}

/// [`count_at`] over the contiguous entries `entries`.
fn count_run(acc: &mut [u32; LANES], bin: &Lanes, entries: &[Lanes]) {
    for part in entries.chunks(FLUSH) {
        count_at(acc, bin, part, &IOTA[..part.len()]);
    }
}

/// `plane[i][..lanes]` ← the bins of `key(i)` under the block's members,
/// on the pool by key stripes.
fn fill_lanes(plane: &mut [Lanes], block: &MemberBlock, key: impl Fn(usize) -> u64 + Sync) {
    let lanes = block.members();
    let workers = stripe_workers(plane.len());
    par_fill(
        Executor::global(),
        workers,
        plane,
        STRIPE,
        |start, stripe| {
            let mut out = [0; LANES];
            for (i, entry) in (start..).zip(stripe) {
                block.eval(key(i), &mut out[..lanes]);
                // Bins are below `MAX_BINS`, so they fit a `u8`.
                for (b, &o) in entry.iter_mut().zip(&out[..lanes]) {
                    *b = o as u8;
                }
            }
        },
    );
}

/// The seed-lane planes of one partition call's hash search (Lemma 23).
///
/// Everything seed-independent is built once per call: each high node's
/// high neighbors as a row of high positions, its residual degree, and
/// the `h₂` keys.  A pass fills lanes `0..lanes` of both planes with the
/// bins of `lanes` contiguous seeds; the lanes past them keep an earlier
/// pass's bins, and their counts are never read.  Every bin is the scalar
/// `eval`'s (the hashing batch contract) and lane `s` depends on its own
/// seed alone, so the costs, the chosen seed and all statistics are those
/// of a per-seed scan.  `u8` entries hold bins below [`NO_BIN`], hence
/// `bins ≤ MAX_BINS`.
struct HashPlane<'a> {
    state: &'a ColoringState,
    /// High nodes; a node's index here is its high position.
    high: &'a [NodeId],
    /// Node bins `B`.
    bins: usize,
    /// Row `i`, the high neighbors of `high[i]` as high positions, is
    /// `nbrs[off[i]..off[i + 1]]`; its length is `d(v)`.
    off: Vec<usize>,
    nbrs: Vec<u32>,
    /// Residual degree of each high node within the call's nodes.
    deg: Vec<u32>,
    /// `h₁` bin per lane, by high position.
    node_bins: Vec<Lanes>,
    /// Occurrence mode: the high nodes' palettes back to back, the `h₂`
    /// keys (empty in dense mode, where a color is its own key).
    occ_colors: Vec<u32>,
    /// Occurrence mode: `high[i]`'s palette entries are
    /// `occ_off[i]..occ_off[i + 1]` (empty in dense mode).
    occ_off: Vec<usize>,
    /// `h₂` bin per lane, by color (dense mode) or palette occurrence.
    color_bins: Vec<Lanes>,
}

impl<'a> HashPlane<'a> {
    /// The planes over `high`.  `slot[u]` is `1 +` `u`'s high position,
    /// [`MID_SLOT`] for the call's other nodes and 0 outside the call.
    fn new(
        g: &Graph,
        state: &'a ColoringState,
        high: &'a [NodeId],
        slot: &[u32],
        bins: usize,
    ) -> Self {
        // One adjacency walk per high node; a row's tag is the node's
        // residual degree.
        let (off, deg, nbrs) = par_rows(
            high.len(),
            |i| g.degree(high[i]),
            |i, row| {
                let (mut len, mut deg) = (0, 0);
                for &u in g.neighbors(high[i]) {
                    match slot[u as usize] {
                        0 => {}
                        MID_SLOT => deg += 1,
                        s => {
                            row[len] = s - 1;
                            len += 1;
                            deg += 1;
                        }
                    }
                }
                (len, deg)
            },
        );
        let pal_words: usize = high.iter().map(|&v| state.palette(v).len()).sum();
        let max_color = high
            .iter()
            .flat_map(|&v| state.palette(v).iter().copied())
            .max();
        // Dense mode evaluates each color of the universe once per seed;
        // it wins whenever the universe is not much larger than the
        // palette storage (always true for degree+1 palettes).  Sparse
        // universes fall back to one evaluation per palette occurrence.
        let (occ_colors, occ_off) = match max_color {
            Some(m) if dense_colors(m as usize, pal_words) => (Vec::new(), Vec::new()),
            _ => {
                let mut colors = Vec::with_capacity(pal_words);
                let mut off = Vec::with_capacity(high.len() + 1);
                off.push(0);
                for &v in high {
                    colors.extend_from_slice(state.palette(v));
                    off.push(colors.len());
                }
                (colors, off)
            }
        };
        let keys = if occ_off.is_empty() {
            max_color.map_or(0, |m| m as usize + 1)
        } else {
            occ_colors.len()
        };
        HashPlane {
            state,
            high,
            bins,
            off,
            nbrs,
            deg,
            node_bins: vec![[0; LANES]; high.len()],
            occ_colors,
            occ_off,
            color_bins: vec![[0; LANES]; keys],
        }
    }

    /// Fill lanes `0..lanes` of both planes with the bins of hash seeds
    /// `seed0..seed0 + lanes`.
    fn fill(&mut self, seed0: u64, lanes: usize) {
        let (h1, h2): (Vec<KWiseHash>, Vec<KWiseHash>) = (seed0..seed0 + lanes as u64)
            .map(|seed| hash_pair(self.bins, seed))
            .unzip();
        let high = self.high;
        fill_lanes(&mut self.node_bins, &MemberBlock::new(&h1), |i| {
            u64::from(high[i])
        });
        let (dense, occ) = (self.occ_off.is_empty(), &self.occ_colors);
        fill_lanes(&mut self.color_bins, &MemberBlock::new(&h2), |i| {
            if dense {
                i as u64
            } else {
                u64::from(occ[i])
            }
        });
    }

    /// `d'(v)` of high position `i` in every lane: its high neighbors in
    /// its bin.
    fn d_in(&self, i: usize) -> [u32; LANES] {
        let mut d_in = [0; LANES];
        let row = &self.nbrs[self.off[i]..self.off[i + 1]];
        count_at(&mut d_in, &self.node_bins[i], &self.node_bins, row);
        d_in
    }

    /// The in-bin palette `|{c ∈ Ψ(v) : h₂(c) = h₁(v)}|` of high position
    /// `i` in every lane.
    fn pal_in(&self, i: usize) -> [u32; LANES] {
        let mut pal_in = [0; LANES];
        let bin = &self.node_bins[i];
        if self.occ_off.is_empty() {
            let palette = self.state.palette(self.high[i]);
            count_at(&mut pal_in, bin, &self.color_bins, palette);
        } else {
            let entries = &self.color_bins[self.occ_off[i]..self.occ_off[i + 1]];
            count_run(&mut pal_in, bin, entries);
        }
        pal_in
    }

    /// *Hard* violation of a node in `bin`: the bin is restricted and the
    /// restricted palette does not cover `d'(v)`.  That breaks the D1LC
    /// promise of the sub-instance, so such nodes fall back to `G_mid`.
    fn hard(&self, bin: u8, d_in: u32, pal_in: u32) -> bool {
        usize::from(bin) < self.bins - 1 && pal_in <= d_in
    }

    /// The least `d'(v)` of high position `i` that is a *soft* violation,
    /// `d'(v) ≥ max(2, 2 d(v)/B)` (slows the recursion but breaks
    /// nothing).  The `max(2)` absorbs integer effects at small degrees
    /// (Lemma 23 is stated for Δ ≥ n^{7δ}, where 2d/B ≫ 1).
    fn soft_at(&self, i: usize) -> u32 {
        let d = self.off[i + 1] - self.off[i];
        (2 * d).div_ceil(self.bins).max(2) as u32
    }

    /// Fold `visit(acc, i)` over every high position on the pool, by
    /// stripes of [`STRIPE`] positions; `merge` must not depend on how
    /// positions were grouped.
    fn fold<T: Send>(
        &self,
        identity: impl Fn() -> T + Sync,
        visit: impl Fn(T, usize) -> T + Sync,
        merge: impl Fn(T, T) -> T + Sync,
    ) -> T {
        par_fold(
            Executor::global(),
            resolve_workers(0),
            0..self.high.len() as u64,
            STRIPE as u64,
            identity,
            |start, len, acc| (start as usize..(start + len) as usize).fold(acc, &visit),
            merge,
        )
    }

    /// Append the costs of hash seeds `seed0..seed0 + lanes` to `costs`,
    /// from one pass: `1_000_000 · hard + soft` violations, so hard
    /// violations dominate.
    fn cost_pass(&mut self, seed0: u64, lanes: usize, costs: &mut Vec<u64>) {
        self.fill(seed0, lanes);
        let (hard, soft) = self.fold(
            || ([0u32; LANES], [0u32; LANES]),
            |(mut hard, mut soft), i| {
                let (bin, d_in, pal_in) = (&self.node_bins[i], self.d_in(i), self.pal_in(i));
                let soft_at = self.soft_at(i);
                for l in 0..LANES {
                    hard[l] += u32::from(self.hard(bin[l], d_in[l], pal_in[l]));
                    soft[l] += u32::from(d_in[l] >= soft_at);
                }
                (hard, soft)
            },
            |(mut hard, mut soft), (h, s)| {
                for l in 0..LANES {
                    hard[l] += h[l];
                    soft[l] += s[l];
                }
                (hard, soft)
            },
        );
        costs.extend((0..lanes).map(|l| u64::from(hard[l]) * 1_000_000 + u64::from(soft[l])));
    }
}

/// Split `nodes` by residual degree, their neighbors among `nodes`:
/// `(mid, high, slot)`, with `mid` the nodes of degree at most
/// `threshold` and `high` the rest, both in `nodes`' order.  `slot[u]`
/// is 0 outside `nodes`, [`MID_SLOT`] for a mid node and `1 +` the high
/// position of a high node.
fn split_by_degree(
    g: &Graph,
    nodes: &[NodeId],
    threshold: usize,
) -> (Vec<NodeId>, Vec<NodeId>, Vec<u32>) {
    let mut slot = vec![0u32; g.n()];
    for &v in nodes {
        slot[v as usize] = MID_SLOT;
    }
    let deg_of = |v: NodeId| {
        g.neighbors(v)
            .iter()
            .filter(|&&u| slot[u as usize] != 0)
            .count()
    };
    let (mid, high): (Vec<NodeId>, Vec<NodeId>) =
        nodes.iter().partition(|&&v| deg_of(v) <= threshold);
    for (i, &v) in high.iter().enumerate() {
        slot[v as usize] = i as u32 + 1;
    }
    (mid, high, slot)
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
    let (mut mid, high, slot) = split_by_degree(g, nodes, threshold);

    // Deterministic search (the method of conditional expectations over
    // the hash family, realized as an argmin over an indexed prefix).
    // Prefixes [0,1), [1,2), [2,4), …: no seed beats cost 0, so the first
    // prefix holding one ends the search.  The fold reads costs that
    // passes of `LANES` seeds compute ahead of it; costs are integers, so
    // the lowest-seed argmin is exact.
    let budget = budget.max(1);
    let mut plane = HashPlane::new(g, state, &high, &slot, bins);
    let mut costs = Vec::new();
    let (mut best, mut chosen_seed, mut tried) = (u64::MAX, 0, 0);
    while tried < budget && best > 0 {
        let end = tried + tried.max(1).min(budget - tried);
        while (costs.len() as u64) < end {
            let seed0 = costs.len() as u64;
            let lanes = (budget - seed0).min(LANES as u64) as usize;
            plane.cost_pass(seed0, lanes, &mut costs);
        }
        for seed in tried..end {
            if costs[seed as usize] < best {
                (best, chosen_seed) = (costs[seed as usize], seed);
            }
        }
        tried = end;
    }

    // The chosen seed's violators, in high order, off lane 0.
    plane.fill(chosen_seed, 1);
    let (mut violators, soft_violations) = plane.fold(
        || (Vec::new(), 0),
        |(mut violators, mut soft), i| {
            let d_in = plane.d_in(i)[0];
            if plane.hard(plane.node_bins[i][0], d_in, plane.pal_in(i)[0]) {
                violators.push(i);
            }
            soft += usize::from(d_in >= plane.soft_at(i));
            (violators, soft)
        },
        |(mut a, x), (b, y)| {
            a.extend(b);
            (a, x + y)
        },
    );
    violators.sort_unstable();

    // Fallback: violators leave their bin and join G_mid (they keep full
    // palettes and are colored after the bins, so correctness is
    // unaffected; only the degree bound of the mid instance may be
    // looser — recorded).
    for &i in &violators {
        plane.node_bins[i][0] = NO_BIN;
    }
    mid.extend(violators.iter().map(|&i| high[i]));
    mid.sort_unstable();

    // The realized degree-reduction ratio of the binned nodes, off the
    // same counts with the violators out of their bins.  Every ratio is
    // ≥ 0, so 0.0 is both the fold's identity and the reading when no
    // node is binned.
    let worst_ratio = plane.fold(
        || 0.0f64,
        |worst, i| {
            if plane.node_bins[i][0] == NO_BIN {
                return worst;
            }
            let d_in = plane.d_in(i)[0];
            worst.max(d_in as f64 * bins as f64 / plane.deg[i].max(1) as f64)
        },
        f64::max,
    );
    let mut bins_vec: Vec<Vec<NodeId>> = vec![Vec::new(); bins];
    for (&v, lanes) in high.iter().zip(&plane.node_bins) {
        if lanes[0] != NO_BIN {
            bins_vec[lanes[0] as usize].push(v);
        }
    }

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
        color_hash: hash_pair(bins, chosen_seed).1,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{D1lcInstance, PaletteArena};
    use parcolor_local::tape::SplitMix;

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

    /// Checks one random input against the per-seed reference: every
    /// lane of passes of each length 1..=32, at unaligned, overlapping
    /// offsets and over the stale lanes of earlier passes, costs its seed
    /// as the reference does; the search takes the reference's doubling
    /// prefixes and argmin; and the chosen seed's bins, `mid`, violators
    /// and worst ratio are the reference's.  Returns whether the input
    /// took the dense color mode.
    fn check_against_reference(seed: u64) -> bool {
        let (g, state, nodes, threshold, bins, dense) = random_input(seed);
        let (_, high) = split(&g, &nodes, threshold);
        // Passes overlap, so each seed's reference cost is computed once.
        let mut memo = std::collections::HashMap::new();
        let mut cost = |s: u64| {
            *memo
                .entry(s)
                .or_insert_with(|| reference_cost(&g, &state, &high, bins, s))
        };
        let (_, plane_high, slot) = split_by_degree(&g, &nodes, threshold);
        let mut plane = HashPlane::new(&g, &state, &plane_high, &slot, bins);
        assert_eq!(plane.occ_off.is_empty(), dense, "seed {seed}");
        let mut rng = SplitMix::new(seed ^ 0x1a7e);
        let mut lens: Vec<usize> = (1..=LANES).collect();
        rng.shuffle(&mut lens);
        // A full pass first: every shorter one leaves stale lanes.
        lens.insert(0, LANES);
        let mut seed0 = rng.below(64);
        for len in lens {
            let mut costs = Vec::new();
            plane.cost_pass(seed0, len, &mut costs);
            assert_eq!(costs.len(), len);
            for (s, &c) in (seed0..).zip(&costs) {
                assert_eq!(c as f64, cost(s), "seed {seed} pass {seed0}+{len}");
            }
            seed0 += 1 + rng.below(4);
        }

        let budget = 1 + rng.below(80);
        let out = low_space_partition(&g, &state, &nodes, threshold, bins, budget);
        let costs: Vec<f64> = (0..out.stats.seeds_tried).map(&mut cost).collect();
        let mut tried = 0;
        while tried < budget && costs[..tried as usize].iter().all(|&c| c > 0.0) {
            tried += tried.max(1).min(budget - tried);
        }
        let chosen = (0..tried).min_by(|&a, &b| costs[a as usize].total_cmp(&costs[b as usize]));
        assert_eq!(
            (out.stats.seeds_tried, out.stats.chosen_seed),
            (tried, chosen.unwrap()),
            "seed {seed}"
        );
        let (bins_vec, mid, moved, soft, worst) =
            reference_partition(&g, &state, &nodes, threshold, bins, out.stats.chosen_seed);
        assert_eq!(out.bins, bins_vec, "seed {seed}");
        assert_eq!(out.mid, mid, "seed {seed}");
        assert_eq!(out.stats.violations_moved_to_mid, moved);
        assert_eq!(out.stats.soft_degree_violations, soft);
        assert_eq!(out.stats.worst_degree_ratio.to_bits(), worst.to_bits());
        assert_eq!(out.stats.high_nodes, high.len());
        dense
    }

    // 32 random inputs against the per-seed reference, which between
    // them take both color modes.
    #[test]
    fn lane_kernel_matches_per_seed_reference() {
        let mut rng = SplitMix::new(0x1a7e_c0de);
        let mut modes = [0; 2];
        for _ in 0..32 {
            modes[usize::from(check_against_reference(rng.next_u64()))] += 1;
        }
        assert!(
            modes.iter().all(|&m| m > 0),
            "color modes (occurrence, dense) reached {modes:?}"
        );
    }

    /// The lane counts stay exact past the 255 matches a `u8` counter
    /// holds: runs of every length around the flush, over planes whose
    /// entries all match in some lanes.
    #[test]
    fn lane_counts_stay_exact_past_255_matches() {
        let mut rng = SplitMix::new(0xf105);
        for len in [0, 1, FLUSH - 1, FLUSH, FLUSH + 1, 2 * FLUSH + 7, 1000] {
            // Three entries, each matching `bin` in lanes 0..8.
            let mut plane = vec![[0u8; LANES]; 3];
            for entry in &mut plane {
                for b in &mut entry[8..] {
                    *b = rng.below(3) as u8;
                }
            }
            let bin: Lanes = std::array::from_fn(|l| if l < 8 { 0 } else { rng.below(3) as u8 });
            let at: Vec<u32> = (0..len).map(|_| rng.below(3) as u32).collect();
            let want: [u32; LANES] = std::array::from_fn(|l| {
                at.iter()
                    .filter(|&&j| plane[j as usize][l] == bin[l])
                    .count() as u32
            });
            let mut got = [1; LANES];
            count_at(&mut got, &bin, &plane, &at);
            assert_eq!(got, want.map(|w| w + 1), "indexed run of {len}");
            let entries: Vec<Lanes> = at.iter().map(|&j| plane[j as usize]).collect();
            let mut got = [0; LANES];
            count_run(&mut got, &bin, &entries);
            assert_eq!(got, want, "contiguous run of {len}");
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
