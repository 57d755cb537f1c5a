//! The per-node parameters of Definition 2 (from HKNT22).
//!
//! All quantities are computed on the *residual* graph/palettes held by a
//! [`ColoringState`], restricted to a given active node set — matching the
//! paper's convention that "G" always means the current graph.  Lemma 18
//! shows each is computable in O(1) MPC rounds when `Δ ≤ √s`; the caller
//! charges that cost through `parcolor-mpc`.

use crate::instance::ColoringState;
use parcolor_local::graph::{Graph, NodeId};

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

/// Parameters for a set of active nodes; absent nodes hold defaults.
#[derive(Clone, Debug)]
pub struct ParamTable {
    /// Parameters indexed by node id (defaults for inactive nodes).
    pub per_node: Vec<NodeParams>,
}

impl ParamTable {
    /// The parameters of `v`.
    pub fn get(&self, v: NodeId) -> &NodeParams {
        &self.per_node[v as usize]
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
    let mut per_node = vec![NodeParams::default(); n];
    for &v in nodes {
        let nv: Vec<NodeId> = g
            .neighbors(v)
            .iter()
            .copied()
            .filter(|&u| active[u as usize])
            .collect();
        let d = nv.len();
        let p = state.palette_size(v);
        let slack = p as i64 - d as i64;
        // m(N(v)) within the active subgraph.
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
        // Disparity sums: |Ψ(u) \ Ψ(v)|.  Residual palettes are unsorted
        // (swap-remove), so sort a local copy of v's palette once and
        // probe with binary search — palettes are small and this sits
        // inside the sparsity loop, where a hash set's allocation and
        // hashing overhead dominates.
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
            let du = g
                .neighbors(u)
                .iter()
                .filter(|&&w| active[w as usize])
                .count();
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
    ParamTable { per_node }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::D1lcInstance;
    use parcolor_local::graph::Graph;

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
}
