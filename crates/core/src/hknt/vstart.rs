//! Identification of `Vstart` — the sparse nodes for which slack is hard
//! to generate (Section 5.2 / Lemma 21 of the paper).
//!
//! The breakdown (all thresholds are the ε₁…ε₅ constants of `Params`):
//!
//! ```text
//! Vbalanced = sparse v with ≥ ε₁·d(v) neighbors of degree > 2d(v)/3
//! Vdisc     = sparse v with discrepancy η̄_v ≥ ε₂·d(v)
//! Veasy     = Vbalanced ∪ Vdisc ∪ Vuneven ∪ {sparse v: ≥ ε₃·d(v) dense neighbors}
//! Vheavy    = sparse v ∉ Veasy with Σ_{c heavy} H(c) ≥ ε₄·d(v)
//! Vstart    = sparse v ∉ (Veasy ∪ Vheavy) with ≥ ε₅·d(v) neighbors in Veasy
//! ```
//!
//! where `H(c) = Σ_{u∈N(v)} [c ∈ Ψ(u)] / p(u)` is the expected number of
//! neighbors that would pick `c` in a uniform trial, and `c` is *heavy*
//! when `H(c)` is at least a constant.

use crate::config::Params;
use crate::hknt::acd::{Acd, NodeClass};
use crate::instance::ColoringState;
use crate::node_params::ParamTable;
use parcolor_local::graph::{Graph, NodeId};
use std::collections::HashMap;

/// The subsets computed on the way to `Vstart` (exposed for tests and the
/// E5 diagnostics).
#[derive(Clone, Debug, Default)]
pub struct VstartSets {
    /// `Vbalanced`: sparse nodes with many similar-degree neighbors.
    pub balanced: Vec<NodeId>,
    /// `Vdisc`: sparse nodes with high discrepancy.
    pub disc: Vec<NodeId>,
    /// `Veasy`: the union that easily generates slack.
    pub easy: Vec<NodeId>,
    /// `Vheavy`: heavy-color mass nodes.
    pub heavy: Vec<NodeId>,
    /// `Vstart`: the hard-to-slack set, colored first via temporary slack.
    pub start: Vec<NodeId>,
}

/// Compute `Vstart` for the current stage.  Active degrees come from
/// `table`, which must have been computed over the same `active`.
pub fn identify_vstart(
    g: &Graph,
    state: &ColoringState,
    acd: &Acd,
    table: &ParamTable,
    active: &[bool],
    params: &Params,
) -> VstartSets {
    let n = g.n();
    let is_sparse = |v: NodeId| acd.class[v as usize] == NodeClass::Sparse;

    let sparse: Vec<NodeId> = (0..n as NodeId).filter(|&v| is_sparse(v)).collect();

    // Vbalanced and Vdisc.
    let balanced: Vec<NodeId> = sparse
        .iter()
        .copied()
        .filter(|&v| {
            let d = table.degree(v);
            let big = g
                .neighbors(v)
                .iter()
                .filter(|&&u| active[u as usize] && table.degree(u) * 3 > 2 * d)
                .count();
            big as f64 >= params.eps1 * d as f64
        })
        .collect();
    let disc: Vec<NodeId> = sparse
        .iter()
        .copied()
        .filter(|&v| table.get(v).discrepancy >= params.eps2 * table.degree(v) as f64)
        .collect();

    // Veasy.
    let mut easy_mask = vec![false; n];
    for &v in balanced.iter().chain(disc.iter()) {
        easy_mask[v as usize] = true;
    }
    for v in 0..n as NodeId {
        if acd.class[v as usize] == NodeClass::Uneven {
            easy_mask[v as usize] = true;
        }
    }
    let many_dense: Vec<NodeId> = sparse
        .iter()
        .copied()
        .filter(|&v| {
            let d = table.degree(v);
            let dense_nb = g
                .neighbors(v)
                .iter()
                .filter(|&&u| matches!(acd.class[u as usize], NodeClass::Dense(_)))
                .count();
            dense_nb as f64 >= params.eps3 * d as f64
        })
        .collect();
    for &v in &many_dense {
        easy_mask[v as usize] = true;
    }
    let easy: Vec<NodeId> = (0..n as NodeId)
        .filter(|&v| easy_mask[v as usize])
        .collect();

    // Vheavy: heavy-color mass.  Each H(c) sums in adjacency order; the
    // heavy colors are then summed in ascending color order, so the mass
    // does not depend on the map's iteration order (randomly seeded per
    // run).  The map and the heavy list are reused across nodes.
    let mut h: HashMap<u32, f64> = HashMap::new();
    let mut heavy_h: Vec<(u32, f64)> = Vec::new();
    let heavy: Vec<NodeId> = sparse
        .iter()
        .copied()
        .filter(|&v| !easy_mask[v as usize])
        .filter(|&v| {
            h.clear();
            for &u in g.neighbors(v) {
                if !active[u as usize] || state.is_colored(u) {
                    continue;
                }
                let pu = state.palette(u);
                if pu.is_empty() {
                    continue;
                }
                let w = 1.0 / pu.len() as f64;
                for &c in pu {
                    *h.entry(c).or_insert(0.0) += w;
                }
            }
            heavy_h.clear();
            heavy_h.extend(
                h.iter()
                    .filter(|&(_, &m)| m >= params.heavy_const)
                    .map(|(&c, &m)| (c, m)),
            );
            heavy_h.sort_unstable_by_key(|&(c, _)| c);
            let heavy_mass: f64 = heavy_h.iter().map(|&(_, m)| m).sum();
            heavy_mass >= params.eps4 * table.degree(v) as f64
        })
        .collect();
    let mut heavy_mask = vec![false; n];
    for &v in &heavy {
        heavy_mask[v as usize] = true;
    }

    // Vstart.
    let start: Vec<NodeId> = sparse
        .iter()
        .copied()
        .filter(|&v| !easy_mask[v as usize] && !heavy_mask[v as usize])
        .filter(|&v| {
            let d = table.degree(v);
            let easy_nb = g
                .neighbors(v)
                .iter()
                .filter(|&&u| easy_mask[u as usize])
                .count();
            easy_nb as f64 >= params.eps5 * d as f64
        })
        .collect();

    VstartSets {
        balanced,
        disc,
        easy,
        heavy,
        start,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hknt::acd::compute_acd;
    use crate::instance::D1lcInstance;
    use crate::node_params::compute_params;

    fn analyze(g: &Graph) -> (VstartSets, Acd) {
        let inst = D1lcInstance::delta_plus_one(g.clone());
        let st = ColoringState::new(&inst);
        let nodes: Vec<NodeId> = (0..g.n() as NodeId).collect();
        let active = vec![true; g.n()];
        let p = Params::default();
        let table = compute_params(g, &st, &nodes, &active);
        let acd = compute_acd(g, &nodes, &active, &table, &p);
        let vs = identify_vstart(g, &st, &acd, &table, &active, &p);
        (vs, acd)
    }

    #[test]
    fn star_leaves_are_not_start() {
        // Star: center sparse (ζ large); leaves are uneven.
        let edges: Vec<_> = (1..20u32).map(|i| (0, i)).collect();
        let g = Graph::from_edges(20, &edges);
        let (vs, acd) = analyze(&g);
        assert_eq!(acd.class[1], NodeClass::Uneven);
        // Leaves are uneven → in Veasy, never in Vstart.
        assert!(!vs.start.contains(&1));
    }

    #[test]
    fn subsets_are_disjoint_from_start() {
        // Random-ish sparse graph.
        let mut edges = Vec::new();
        let mut rng = parcolor_local::tape::SplitMix::new(9);
        for _ in 0..200 {
            let a = rng.below(60) as u32;
            let b = rng.below(60) as u32;
            if a != b {
                edges.push((a.min(b), a.max(b)));
            }
        }
        let g = Graph::from_edges(60, &edges);
        let (vs, _) = analyze(&g);
        for v in &vs.start {
            assert!(!vs.easy.contains(v), "start∩easy at {v}");
            assert!(!vs.heavy.contains(v), "start∩heavy at {v}");
        }
    }

    #[test]
    fn balanced_detects_regular_sparse_graphs() {
        // In a degree-regular sparse graph every neighbor has degree
        // > 2d/3, so all sparse nodes are balanced (hence easy).
        let edges: Vec<_> = (0..40u32).map(|i| (i, (i + 1) % 40)).collect();
        let g = Graph::from_edges(40, &edges);
        let (vs, acd) = analyze(&g);
        let sparse = acd.sparse_nodes();
        assert!(!sparse.is_empty());
        for v in &sparse {
            assert!(vs.balanced.contains(v), "ring node {v} not balanced");
        }
        assert!(vs.start.is_empty());
    }

    #[test]
    fn identical_palettes_make_heavy_colors() {
        // Dense-ish bipartite-ish sparse graph where palettes coincide:
        // H(c) ≈ Σ 1/p — heaviness requires enough neighbors.
        // K_{5,5} minus a matching is sparse (no triangles at all).
        let mut edges = Vec::new();
        for a in 0..5u32 {
            for b in 5..10u32 {
                if b - 5 != a {
                    edges.push((a, b));
                }
            }
        }
        let g = Graph::from_edges(10, &edges);
        let pal: Vec<Vec<u32>> = (0..10).map(|_| (0..5).collect()).collect();
        let inst = D1lcInstance::new(g.clone(), crate::instance::PaletteArena::from_lists(&pal));
        let st = ColoringState::new(&inst);
        let nodes: Vec<NodeId> = (0..10).collect();
        let active = vec![true; 10];
        let p = Params::default();
        let table = compute_params(&g, &st, &nodes, &active);
        let acd = compute_acd(&g, &nodes, &active, &table, &p);
        let vs = identify_vstart(&g, &st, &acd, &table, &active, &p);
        // Bipartite graph: all nodes sparse (zero triangles → high ζ).
        assert_eq!(acd.sparse_nodes().len(), 10);
        // With 4 neighbors all sharing a 5-color palette, every color has
        // H(c) = 4/5 < 1 (not heavy) — heavy set empty; but each node is
        // "balanced" (regular), so easy and not start.
        assert!(vs.start.is_empty());
    }
}
