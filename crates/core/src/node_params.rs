//! The per-node parameters of Definition 2 (from HKNT22).
//!
//! All quantities are computed on the *residual* graph/palettes held by a
//! [`ColoringState`], restricted to a given active node set — matching the
//! paper's convention that "G" always means the current graph.  Lemma 18
//! shows each is computable in O(1) MPC rounds when `Δ ≤ √s`; the caller
//! charges that cost through `parcolor-mpc`.
//!
//! [`compute_params`] runs once per stage on the `parcolor-exec` pool, at
//! the auto worker count, as two fills: every active node's degree (1
//! hop), then the stage nodes' parameters (2 hops), which read those
//! degrees instead of rescanning each neighbor's adjacency.  Both fills
//! write the node-indexed tables in place, stripe by stripe, with
//! buffers reused across a stripe's nodes.  Every float sum runs over one
//! node's neighbors in adjacency order, so the table is bit-identical at
//! every worker count.  The ACD and `Vstart` read the degrees back
//! through [`ParamTable::degree`].

use crate::instance::ColoringState;
use parcolor_exec::{par_fill, resolve_workers, Executor};
use parcolor_local::graph::{sorted_intersection_size, Graph, NodeId};

/// Definition 2 parameters for one node.
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
    /// Strong slackability `σ_v = η_v + ζ_v`.
    pub strong_slackability: f64,
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

/// Nodes per stripe of the two pool fills.
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
    let mut in_stage = vec![false; n];
    for &v in nodes {
        in_stage[v as usize] = true;
    }
    let mut per_node = vec![NodeParams::default(); n];
    par_fill(pool, workers, &mut per_node, STRIPE, |start, stripe| {
        let mut nv = Vec::new();
        let mut pv = Vec::new();
        for (v, out) in (start as NodeId..).zip(stripe) {
            if in_stage[v as usize] {
                *out = node_params(g, state, active, &degree, v, &mut nv, &mut pv);
            }
        }
    });
    ParamTable { per_node, degree }
}

/// Definition 2 for one stage node.  `nv` and `pv` are the stripe's
/// reused buffers for `v`'s active neighbors and its sorted palette.
fn node_params(
    g: &Graph,
    state: &ColoringState,
    active: ActiveMask,
    degree: &[u32],
    v: NodeId,
    nv: &mut Vec<NodeId>,
    pv: &mut Vec<u32>,
) -> NodeParams {
    nv.clear();
    nv.extend(
        g.neighbors(v)
            .iter()
            .copied()
            .filter(|&u| active[u as usize]),
    );
    let d = nv.len();
    let slack = state.palette_size(v) as i64 - d as i64;
    // m(N(v)) within the active subgraph: `nv` holds only active nodes,
    // so a sorted merge against each N(u) counts exactly those edges.
    let m_nv = nv
        .iter()
        .map(|&u| sorted_intersection_size(g.neighbors(u), nv))
        .sum::<usize>()
        / 2;
    let sparsity = if d >= 2 {
        let pairs = (d * (d - 1) / 2) as f64;
        (pairs - m_nv as f64) / d as f64
    } else {
        0.0
    };
    // Disparity sums: |Ψ(u) \ Ψ(v)|.  Residual palettes are unsorted
    // (swap-remove), so sort a copy of v's palette once and probe it by
    // binary search; a color-indexed stamp array would be faster but
    // unbounded in a list palette's largest color id.
    pv.clear();
    pv.extend_from_slice(state.palette(v));
    pv.sort_unstable();
    let mut discrepancy = 0.0;
    let mut unevenness = 0.0;
    for &u in nv.iter() {
        let pu = state.palette(u);
        if !pu.is_empty() {
            let outside = pu.iter().filter(|c| pv.binary_search(c).is_err()).count();
            discrepancy += outside as f64 / pu.len() as f64;
        }
        let du = degree[u as usize] as usize;
        unevenness += (du.saturating_sub(d)) as f64 / (du as f64 + 1.0);
    }
    NodeParams {
        slack,
        sparsity,
        discrepancy,
        unevenness,
        slackability: discrepancy + sparsity,
        strong_slackability: unevenness + sparsity,
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
                strong_slackability: unevenness + sparsity,
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
        // `random_lists` builds a `parcolor_core` instance of the library
        // build; copy its palettes into this crate's types.
        let delta = g.max_degree() as u64;
        let universe = (delta + 1 + rng.below(2 * delta + 2)) as u32;
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
                        p.strong_slackability,
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
