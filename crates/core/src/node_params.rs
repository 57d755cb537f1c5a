//! The per-node parameters of Definition 2 (from HKNT22).
//!
//! All quantities are computed on the *residual* graph/palettes held by a
//! [`ColoringState`], restricted to a given active node set — matching the
//! paper's convention that "G" always means the current graph.  Lemma 18
//! shows each is computable in O(1) MPC rounds when `Δ ≤ √s`; the caller
//! charges that cost through `parcolor-mpc`.
//!
//! [`compute_params`] runs once per stage on the `parcolor-exec` pool, at
//! the auto worker count, as four passes over node stripes:
//!
//! 1. **Degrees**: every active node's active degree `d(v)`.
//! 2. **Triangles**: `m(N(v))`, the number of edges among `v`'s active
//!    neighbors, is the number of triangles of the active subgraph
//!    through `v`.  Every active edge is oriented from the lower to the
//!    higher `(d, id)`, the out-lists are built once as a CSR (rows in
//!    adjacency order, i.e. ascending id), and merging `out(a)` with
//!    `out(b)` for every out-edge `a → b` finds each triangle exactly
//!    once, at its lowest-ranked corner — the forward count of
//!    Chiba–Nishizeki and Schank–Wagner.  Each corner's count takes a
//!    relaxed atomic add; the counts are read only after the pool call.
//! 3. **Palette masks**: one `u64` per active node when every active
//!    palette lies inside colors `0..64`.  Then `|Ψ(u) \ Ψ(v)|` is
//!    `popcount(mask[u] & !mask[v])` and `|Ψ(u)|` is `popcount(mask[u])`
//!    (palettes are sets), so no neighbor's palette is re-read.
//! 4. **Stage fill**: each stage node's row, from the three tables.
//!
//! The table is bit-identical at every worker count, and to the per-node
//! walk in this module's tests.  The triangle counts are integers, equal
//! whatever order the workers add them in, and every float sum runs over
//! one node's active neighbors in adjacency order, with the same
//! numerators and denominators on both palette paths.
//!
//! A stage with an active color of 64 or above takes the fallback instead
//! of the masks: a sorted copy of `v`'s palette, probed by binary search
//! for each neighbor color (residual palettes are unsorted, by
//! swap-remove).  Wider masks, or any membership bitmap, would be sized
//! by the largest color id of a list palette rather than by the input.
//! The choice is read from the palettes; nothing configures it.
//!
//! The ACD and `Vstart` read the degrees back through
//! [`ParamTable::degree`].

use crate::instance::ColoringState;
use parcolor_exec::{par_fill, par_map_chunks, resolve_workers, Executor, ScatterMut};
use parcolor_local::graph::{Graph, NodeId};
use std::cmp::Ordering;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// Definition 2 parameters for one node.  Strong slackability
/// `σ_v = η_v + ζ_v` is not stored: it is `unevenness + sparsity`.
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeParams {
    /// Slack `s(v) = p(v) − d(v)`.
    pub slack: i64,
    /// Sparsity `ζ_v = [ (d(v) choose 2) − m(N(v)) ] / d(v)`.
    pub sparsity: f64,
    /// Discrepancy `η̄_v = Σ_{u∈N(v)} |Ψ(u) \ Ψ(v)| / |Ψ(u)|`.
    pub discrepancy: f64,
    /// Unevenness `η_v = Σ_{u∈N(v)} max(0, d(u) − d(v)) / (d(u) + 1)`.
    pub unevenness: f64,
    /// Slackability `σ̄_v = η̄_v + ζ_v`.
    pub slackability: f64,
}

/// One stage's Definition 2 table: the parameters of the stage nodes and
/// the active degree of every active node, both indexed by node id.
#[derive(Clone, Debug)]
pub struct ParamTable {
    /// Parameters indexed by node id (defaults for nodes outside the
    /// stage).
    pub per_node: Vec<NodeParams>,
    /// `d(v)` within the active set (0 for inactive nodes).
    degree: Vec<u32>,
}

impl ParamTable {
    /// The parameters of `v`.
    pub fn get(&self, v: NodeId) -> &NodeParams {
        &self.per_node[v as usize]
    }

    /// Degree of `v` within the active set the table was computed over —
    /// [`active_degree`] for every active node, 0 for the rest.
    pub fn degree(&self, v: NodeId) -> usize {
        self.degree[v as usize] as usize
    }
}

/// Is `u` an *active uncolored* node for the purposes of the residual
/// graph?  Procedures pass the stage's membership mask.
pub type ActiveMask<'a> = &'a [bool];

/// Residual degree of `v` *within the active set* (the stage's graph).
pub fn active_degree(g: &Graph, active: ActiveMask, v: NodeId) -> usize {
    g.neighbors(v)
        .iter()
        .filter(|&&u| active[u as usize])
        .count()
}

/// Nodes per stripe of the pool passes.
const STRIPE: usize = 1024;

/// Compute Definition 2's parameters for all nodes in `nodes` (which must
/// be uncolored and marked in `active`).  Degrees, sparsity and palettes
/// are all taken in the residual graph induced by `active`.
pub fn compute_params(
    g: &Graph,
    state: &ColoringState,
    nodes: &[NodeId],
    active: ActiveMask,
) -> ParamTable {
    let n = g.n();
    let pool = Executor::global();
    // No more workers than full stripes: a table under two stripes fills
    // inline without waking the pool.
    let workers = resolve_workers(0).min(n / STRIPE).max(1);
    let mut degree = vec![0u32; n];
    par_fill(pool, workers, &mut degree, STRIPE, |start, stripe| {
        for (v, d) in (start as NodeId..).zip(stripe) {
            if active[v as usize] {
                *d = active_degree(g, active, v) as u32;
            }
        }
    });
    let pass = Pass {
        g,
        state,
        active,
        triangles: triangle_counts(g, active, &degree, pool, workers),
        masks: palette_masks(state, active, pool, workers),
        degree,
    };
    let mut in_stage = vec![false; n];
    for &v in nodes {
        debug_assert!(active[v as usize], "stage node {v} is not active");
        in_stage[v as usize] = true;
    }
    let mut per_node = vec![NodeParams::default(); n];
    par_fill(pool, workers, &mut per_node, STRIPE, |start, stripe| {
        let mut pv = Vec::new();
        for (v, out) in (start as NodeId..).zip(stripe) {
            if in_stage[v as usize] {
                *out = pass.node_params(v, &mut pv);
            }
        }
    });
    ParamTable {
        per_node,
        degree: pass.degree,
    }
}

/// Triangles of the active subgraph through each node (0 for inactive
/// nodes), by the forward count over `(degree, id)`-oriented edges.
fn triangle_counts(
    g: &Graph,
    active: ActiveMask,
    degree: &[u32],
    pool: &Executor,
    workers: usize,
) -> Vec<u64> {
    let n = g.n();
    // `a → b` for active `a`, `b` with `(d(a), a) < (d(b), b)`, in
    // adjacency order.
    let out_neighbors = |a: NodeId| {
        let key = (degree[a as usize], a);
        let row = if active[a as usize] {
            g.neighbors(a)
        } else {
            &[]
        };
        row.iter()
            .copied()
            .filter(move |&b| active[b as usize] && key < (degree[b as usize], b))
    };
    let mut offsets = vec![0usize; n + 1];
    par_fill(pool, workers, &mut offsets[1..], STRIPE, |start, stripe| {
        for (a, len) in (start as NodeId..).zip(stripe) {
            *len = out_neighbors(a).count();
        }
    });
    for v in 0..n {
        offsets[v + 1] += offsets[v];
    }
    let mut out = vec![0 as NodeId; offsets[n]];
    let rows = ScatterMut::new(&mut out);
    par_map_chunks(pool, workers, n, STRIPE, |start, len| {
        let span = offsets[start]..offsets[start + len];
        // SAFETY: nodes `start..start + len` own exactly the rows
        // `out[offsets[start]..offsets[start + len]]`, and the chunks of
        // one `par_map_chunks` call are disjoint node ranges, so no two
        // workers' spans overlap.
        let stripe = unsafe { rows.stripe_mut(span.start, span.len()) };
        let nodes = start as NodeId..(start + len) as NodeId;
        for (slot, b) in stripe.iter_mut().zip(nodes.flat_map(out_neighbors)) {
            *slot = b;
        }
    });
    let row = |a: usize| &out[offsets[a]..offsets[a + 1]];
    let counts: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    par_map_chunks(pool, workers, n, STRIPE, |start, len| {
        for a in start..start + len {
            let out_a = row(a);
            // The lowest corner of a triangle has two out-neighbors.
            if out_a.len() < 2 {
                continue;
            }
            let mut at_a = 0;
            for &b in out_a {
                // Every common out-neighbor `c` closes the triangle
                // `{a, b, c}`, ranked `a < b < c`.
                let at_b = merge_common(out_a, row(b as usize), |c| {
                    counts[c as usize].fetch_add(1, Relaxed);
                });
                if at_b > 0 {
                    counts[b as usize].fetch_add(at_b, Relaxed);
                    at_a += at_b;
                }
            }
            if at_a > 0 {
                counts[a].fetch_add(at_a, Relaxed);
            }
        }
    });
    counts.into_iter().map(AtomicU64::into_inner).collect()
}

/// Walk two ascending rows in step, calling `hit` on every entry they
/// share; returns how many there were.
fn merge_common(a: &[NodeId], b: &[NodeId], mut hit: impl FnMut(NodeId)) -> u64 {
    let (mut i, mut j, mut shared) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                hit(a[i]);
                shared += 1;
                i += 1;
                j += 1;
            }
        }
    }
    shared
}

/// One palette word per node (0 for inactive nodes), or `None` when some
/// active palette holds a color of 64 or above.
fn palette_masks(
    state: &ColoringState,
    active: ActiveMask,
    pool: &Executor,
    workers: usize,
) -> Option<Vec<u64>> {
    let wide = AtomicBool::new(false);
    let mut masks = vec![0u64; active.len()];
    par_fill(pool, workers, &mut masks, STRIPE, |start, stripe| {
        for (v, mask) in (start as NodeId..).zip(stripe) {
            if active[v as usize] {
                let palette = state.palette(v);
                if palette.iter().any(|&c| c >= u64::BITS) {
                    wide.store(true, Relaxed);
                }
                *mask = palette.iter().fold(0, |m, &c| m | 1 << (c % u64::BITS));
            }
        }
    });
    (!wide.into_inner()).then_some(masks)
}

/// The node-indexed tables one stage fill reads.
struct Pass<'a> {
    g: &'a Graph,
    state: &'a ColoringState,
    active: ActiveMask<'a>,
    degree: Vec<u32>,
    triangles: Vec<u64>,
    masks: Option<Vec<u64>>,
}

impl Pass<'_> {
    /// Definition 2 for one stage node.  `pv` is the stripe's reused
    /// buffer for `v`'s sorted palette on the fallback path.
    fn node_params(&self, v: NodeId, pv: &mut Vec<u32>) -> NodeParams {
        let d = self.degree[v as usize] as usize;
        let slack = self.state.palette_size(v) as i64 - d as i64;
        let sparsity = if d >= 2 {
            let pairs = (d * (d - 1) / 2) as f64;
            (pairs - self.triangles[v as usize] as f64) / d as f64
        } else {
            0.0
        };
        if self.masks.is_none() {
            pv.clear();
            pv.extend_from_slice(self.state.palette(v));
            pv.sort_unstable();
        }
        // `(|Ψ(u) \ Ψ(v)|, |Ψ(u)|)` for an active neighbor `u`.
        let outside = |u: NodeId| match &self.masks {
            Some(m) => {
                let mu = m[u as usize];
                (
                    (mu & !m[v as usize]).count_ones() as usize,
                    mu.count_ones() as usize,
                )
            }
            None => {
                let pu = self.state.palette(u);
                let out = pu.iter().filter(|c| pv.binary_search(c).is_err()).count();
                (out, pu.len())
            }
        };
        let mut discrepancy = 0.0;
        let mut unevenness = 0.0;
        for &u in self.g.neighbors(v) {
            if !self.active[u as usize] {
                continue;
            }
            let (out, size) = outside(u);
            if size > 0 {
                discrepancy += out as f64 / size as f64;
            }
            let du = self.degree[u as usize] as usize;
            unevenness += (du.saturating_sub(d)) as f64 / (du as f64 + 1.0);
        }
        NodeParams {
            slack,
            sparsity,
            discrepancy,
            unevenness,
            slackability: discrepancy + sparsity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{D1lcInstance, PaletteArena};
    use parcolor_local::tape::SplitMix;
    use proptest::prelude::*;

    fn mask(n: usize, nodes: &[NodeId]) -> Vec<bool> {
        let mut m = vec![false; n];
        for &v in nodes {
            m[v as usize] = true;
        }
        m
    }

    #[test]
    fn clique_has_zero_sparsity() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let inst = D1lcInstance::delta_plus_one(g.clone());
        let st = ColoringState::new(&inst);
        let nodes: Vec<NodeId> = (0..4).collect();
        let act = mask(4, &nodes);
        let t = compute_params(&g, &st, &nodes, &act);
        for v in 0..4 {
            assert_eq!(t.get(v).sparsity, 0.0);
            assert_eq!(t.get(v).slack, 1); // deg+1 palette
            assert_eq!(t.get(v).unevenness, 0.0); // regular
        }
    }

    #[test]
    fn star_center_is_sparse() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let inst = D1lcInstance::delta_plus_one(g.clone());
        let st = ColoringState::new(&inst);
        let nodes: Vec<NodeId> = (0..5).collect();
        let act = mask(5, &nodes);
        let t = compute_params(&g, &st, &nodes, &act);
        // center: d=4, no edges among leaves: ζ = (6-0)/4 = 1.5
        assert!((t.get(0).sparsity - 1.5).abs() < 1e-12);
        // leaf: d=1, ζ=0; unevenness = (4-1)/5 = 0.6
        assert_eq!(t.get(1).sparsity, 0.0);
        assert!((t.get(1).unevenness - 0.6).abs() < 1e-12);
    }

    #[test]
    fn identical_palettes_zero_discrepancy() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let pal = crate::instance::PaletteArena::from_lists(&[
            vec![1, 2, 3],
            vec![1, 2, 3],
            vec![1, 2, 3],
        ]);
        let inst = D1lcInstance::new(g.clone(), pal);
        let st = ColoringState::new(&inst);
        let nodes: Vec<NodeId> = (0..3).collect();
        let act = mask(3, &nodes);
        let t = compute_params(&g, &st, &nodes, &act);
        assert_eq!(t.get(1).discrepancy, 0.0);
    }

    #[test]
    fn disjoint_palettes_full_discrepancy() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let pal = crate::instance::PaletteArena::from_lists(&[vec![1, 2], vec![3, 4]]);
        let inst = D1lcInstance::new(g.clone(), pal);
        let st = ColoringState::new(&inst);
        let nodes: Vec<NodeId> = vec![0, 1];
        let act = mask(2, &nodes);
        let t = compute_params(&g, &st, &nodes, &act);
        // one neighbor, all of whose palette is outside: η̄ = 1.0
        assert!((t.get(0).discrepancy - 1.0).abs() < 1e-12);
        assert!((t.get(0).slackability - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inactive_neighbors_are_invisible() {
        let g = Graph::from_edges(3, &[(0, 1), (0, 2)]);
        let inst = D1lcInstance::delta_plus_one(g.clone());
        let st = ColoringState::new(&inst);
        // Only 0 and 1 active: node 0's active degree is 1.
        let nodes: Vec<NodeId> = vec![0, 1];
        let act = mask(3, &nodes);
        assert_eq!(active_degree(&g, &act, 0), 1);
        let t = compute_params(&g, &st, &nodes, &act);
        // slack uses residual palette (3 colors) minus active degree 1 = 2
        assert_eq!(t.get(0).slack, 2);
    }

    /// The sequential walk the pool pass replaced, kept as its oracle:
    /// per-node `Vec`s, the `active` probe inside the triangle count, and
    /// every neighbor's degree recounted from its adjacency.
    fn reference_params(
        g: &Graph,
        state: &ColoringState,
        nodes: &[NodeId],
        active: ActiveMask,
    ) -> Vec<NodeParams> {
        let mut per_node = vec![NodeParams::default(); g.n()];
        for &v in nodes {
            let nv: Vec<NodeId> = g
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&u| active[u as usize])
                .collect();
            let d = nv.len();
            let slack = state.palette_size(v) as i64 - d as i64;
            let m_nv: usize = nv
                .iter()
                .map(|&u| {
                    g.neighbors(u)
                        .iter()
                        .filter(|&&w| active[w as usize] && nv.binary_search(&w).is_ok())
                        .count()
                })
                .sum::<usize>()
                / 2;
            let sparsity = if d >= 2 {
                let pairs = (d * (d - 1) / 2) as f64;
                (pairs - m_nv as f64) / d as f64
            } else {
                0.0
            };
            let mut pv: Vec<u32> = state.palette(v).to_vec();
            pv.sort_unstable();
            let mut discrepancy = 0.0;
            let mut unevenness = 0.0;
            for &u in &nv {
                let pu = state.palette(u);
                if !pu.is_empty() {
                    let outside = pu.iter().filter(|c| pv.binary_search(c).is_err()).count();
                    discrepancy += outside as f64 / pu.len() as f64;
                }
                let du = active_degree(g, active, u);
                unevenness += (du.saturating_sub(d)) as f64 / (du as f64 + 1.0);
            }
            per_node[v as usize] = NodeParams {
                slack,
                sparsity,
                discrepancy,
                unevenness,
                slackability: discrepancy + sparsity,
            };
        }
        per_node
    }

    /// A random stage keyed by `seed`: a random graph (half the cases
    /// span several pool stripes) with `random_lists` palettes, partly
    /// colored one node at a time, an active set of uncolored nodes, and
    /// a shuffled stage strictly inside it.
    fn random_stage(seed: u64) -> (Graph, ColoringState, Vec<bool>, Vec<NodeId>) {
        let mut rng = SplitMix::new(seed);
        let n = 2 + if rng.below(2) == 0 {
            rng.below(40)
        } else {
            rng.below(3 * STRIPE as u64)
        } as usize;
        let m = rng.below(4 * n as u64 + 1);
        let edges: Vec<(NodeId, NodeId)> = (0..m)
            .map(|_| (rng.below(n as u64) as NodeId, rng.below(n as u64) as NodeId))
            .filter(|&(a, b)| a != b)
            .collect();
        let g = Graph::from_edges(n, &edges);
        // Half the cases widen the universe by 64 colors, so an active
        // palette leaves `0..64` and the pass takes its binary-search
        // path; the rest stay on the palette masks.
        let delta = g.max_degree() as u64;
        let wide = 64 * rng.below(2);
        let universe = (wide + delta + 1 + rng.below(2 * delta + 2)) as u32;
        // `random_lists` builds a `parcolor_core` instance of the library
        // build; copy its palettes into this crate's types.
        let extra = rng.below(3) as usize;
        let lists = parcolor_graphgen::random_lists(g.clone(), universe, extra, rng.next_u64());
        let lists: Vec<Vec<u32>> = (0..n as NodeId)
            .map(|v| lists.palettes.palette(v).to_vec())
            .collect();
        let inst = D1lcInstance::new(g.clone(), PaletteArena::from_lists(&lists));
        let mut state = ColoringState::new(&inst);
        let colored_pct = rng.below(70);
        for v in 0..n as NodeId {
            if rng.below(100) < colored_pct {
                let pal = state.palette(v);
                let c = pal[rng.below(pal.len() as u64) as usize];
                state.apply_adoptions(&g, &[(v, c)]);
            }
        }
        let mut active = vec![false; n];
        let mut nodes = Vec::new();
        for v in 0..n as NodeId {
            if !state.is_colored(v) && rng.below(5) > 0 {
                active[v as usize] = true;
                if rng.below(4) > 0 {
                    nodes.push(v);
                }
            }
        }
        if nodes.len() == active.iter().filter(|&&a| a).count() {
            nodes.pop();
        }
        rng.shuffle(&mut nodes);
        (g, state, active, nodes)
    }

    /// `random_stage` reaches both palette paths and the triangle count:
    /// over seeds `0..48`, at least a quarter of the stages hold an active
    /// color ≥ 64, a quarter stay inside the masks, and a quarter have a
    /// triangle through a stage node.
    #[test]
    fn random_stages_reach_both_palette_paths_and_triangles() {
        let (mut wide, mut closed) = (0, 0);
        for seed in 0..48 {
            let (g, state, active, nodes) = random_stage(seed);
            let is_active = |v: &NodeId| active[*v as usize];
            wide += (0..g.n() as NodeId)
                .filter(is_active)
                .any(|v| state.palette(v).iter().any(|&c| c >= 64)) as usize;
            closed += nodes.iter().any(|&v| {
                let nv: Vec<NodeId> = g.neighbors(v).iter().copied().filter(is_active).collect();
                nv.iter()
                    .any(|&u| g.neighbors(u).iter().any(|w| nv.binary_search(w).is_ok()))
            }) as usize;
        }
        assert!((12..=36).contains(&wide), "{wide} of 48 stages are wide");
        assert!(closed >= 12, "{closed} of 48 stages have a triangle");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn stage_pass_matches_sequential_reference(seed in any::<u64>()) {
            let (g, state, active, nodes) = random_stage(seed);
            let table = compute_params(&g, &state, &nodes, &active);
            let want = reference_params(&g, &state, &nodes, &active);
            let bits = |p: &NodeParams| {
                (
                    p.slack,
                    [
                        p.sparsity,
                        p.discrepancy,
                        p.unevenness,
                        p.slackability,
                    ]
                    .map(f64::to_bits),
                )
            };
            let default = bits(&NodeParams::default());
            let in_stage = mask(g.n(), &nodes);
            for v in 0..g.n() as NodeId {
                let got = bits(table.get(v));
                prop_assert_eq!(got, bits(&want[v as usize]), "seed {} node {}", seed, v);
                if !in_stage[v as usize] {
                    prop_assert_eq!(got, default, "seed {} node {} outside the stage", seed, v);
                }
                if active[v as usize] {
                    prop_assert_eq!(table.degree(v), active_degree(&g, &active, v));
                }
            }
        }
    }
}
