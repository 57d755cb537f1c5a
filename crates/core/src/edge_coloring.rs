//! (2Δ−1)-edge-coloring via D1LC — one of the paper's motivating
//! applications ("it also appears as a subproblem … in edge-coloring
//! algorithms", §1, citing \[Kuh20\]).
//!
//! The reduction: edges of `G` become nodes of the **line graph** `L(G)`;
//! two line-graph nodes are adjacent iff the edges share an endpoint, so
//! `deg_L(e) = d(u) + d(v) − 2 ≤ 2Δ − 2` for `e = {u, v}`.  Giving each
//! line-graph node the palette `{0, …, deg_L(e)}` is a valid D1LC instance
//! that uses at most `2Δ − 1` colors — exactly the (2Δ−1)-edge-coloring
//! benchmark.  Any D1LC solver then edge-colors `G`; here both the
//! deterministic (Theorem 1) and randomized (Lemma 4) pipelines apply
//! unchanged.

use crate::config::Params;
use crate::instance::D1lcInstance;
use crate::solver::{Solution, Solver};
use parcolor_local::graph::{Graph, NodeId};

/// The line graph of `G` plus the edge list indexing its nodes.
pub struct LineGraph {
    /// `L(G)`: node `i` represents `edges[i]`.
    pub graph: Graph,
    /// Edge `i` of `G` as `(u, v)` with `u < v`.
    pub edges: Vec<(NodeId, NodeId)>,
}

/// Build the line graph.  Cost `O(Σ_v d(v)²)` — the same budget as the
/// Definition 2 sparsity computation.
pub fn line_graph(g: &Graph) -> LineGraph {
    let edges: Vec<(NodeId, NodeId)> = g.edges().collect();
    // Incident-edge ids per node in one flat offset-indexed arena (the
    // CSR idiom): node v's incident edges are
    // `incident[off[v]..off[v + 1]]`, and |that slice| = d(v), so the
    // offsets are the graph's own degree prefix sum.
    let n = g.n();
    let mut off = Vec::with_capacity(n + 1);
    off.push(0usize);
    let mut total = 0usize;
    for v in 0..n as NodeId {
        total += g.degree(v);
        off.push(total);
    }
    let mut incident = vec![0u32; total];
    let mut cursor = off.clone();
    for (i, &(u, v)) in edges.iter().enumerate() {
        incident[cursor[u as usize]] = i as u32;
        cursor[u as usize] += 1;
        incident[cursor[v as usize]] = i as u32;
        cursor[v as usize] += 1;
    }
    let mut le: Vec<(u32, u32)> = Vec::new();
    for v in 0..n {
        let inc = &incident[off[v]..off[v + 1]];
        for a in 0..inc.len() {
            for b in (a + 1)..inc.len() {
                le.push((inc[a].min(inc[b]), inc[a].max(inc[b])));
            }
        }
    }
    LineGraph {
        graph: Graph::from_edges(edges.len(), &le),
        edges,
    }
}

/// The (2Δ−1)-edge-coloring instance of `G` as D1LC on `L(G)`.
pub fn edge_coloring_instance(g: &Graph) -> (D1lcInstance, Vec<(NodeId, NodeId)>) {
    let lg = line_graph(g);
    let inst = D1lcInstance::delta_plus_one(lg.graph);
    (inst, lg.edges)
}

/// A complete edge coloring of `G`.
pub struct EdgeColoring {
    /// Edge list (`(u, v)` with `u < v`), aligned with `colors`.
    pub edges: Vec<(NodeId, NodeId)>,
    /// Color per edge.
    pub colors: Vec<u32>,
    /// The underlying D1LC solution (round/space accounting etc.).
    pub solution: Solution,
}

impl EdgeColoring {
    /// Largest color used plus one.
    pub fn palette_size(&self) -> usize {
        self.colors
            .iter()
            .map(|&c| c as usize + 1)
            .max()
            .unwrap_or(0)
    }
}

/// Deterministically (2Δ−1)-edge-color `G` (Theorem 1 on `L(G)`).
pub fn edge_color_deterministic(g: &Graph, params: Params) -> EdgeColoring {
    let (inst, edges) = edge_coloring_instance(g);
    let solution = Solver::deterministic(params).solve(&inst);
    let colors = solution.colors.clone();
    EdgeColoring {
        edges,
        colors,
        solution,
    }
}

/// Verify a proper edge coloring: incident edges differ, and the color
/// count respects the (2Δ−1) bound.
pub fn verify_edge_coloring(g: &Graph, ec: &EdgeColoring) -> Result<(), String> {
    if ec.edges.len() != g.m() {
        return Err("edge count mismatch".into());
    }
    // Incidence check via per-node color sets, stored in one flat
    // offset-indexed arena (each node sees exactly d(v) incident-edge
    // colors, so the offsets are the degree prefix sum; `fill[v]` tracks
    // the populated prefix of node v's slice).
    let n = g.n();
    let mut off = Vec::with_capacity(n + 1);
    off.push(0usize);
    let mut total = 0usize;
    for v in 0..n as NodeId {
        total += g.degree(v);
        off.push(total);
    }
    let mut seen = vec![0u32; total];
    let mut fill = vec![0usize; n];
    for (&(u, v), &c) in ec.edges.iter().zip(ec.colors.iter()) {
        for end in [u, v] {
            let e = end as usize;
            if e >= n {
                return Err(format!("edge endpoint {end} outside graph"));
            }
            // A malformed edge list can claim more incident edges than the
            // node's degree — reject instead of overflowing its slice.
            if fill[e] >= off[e + 1] - off[e] {
                return Err(format!(
                    "node {end}: more incident edges than degree {}",
                    g.degree(end)
                ));
            }
            let slice = &seen[off[e]..off[e] + fill[e]];
            if slice.contains(&c) {
                return Err(format!("node {end}: two incident edges colored {c}"));
            }
            seen[off[e] + fill[e]] = c;
            fill[e] += 1;
        }
    }
    let delta = g.max_degree();
    let used = ec.palette_size();
    if delta > 0 && used > 2 * delta - 1 {
        return Err(format!("{used} colors exceed 2Δ−1 = {}", 2 * delta - 1));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcolor_local::tape::SplitMix;

    /// Randomized counterpart (Lemma 4 on `L(G)`).
    fn edge_color_randomized(g: &Graph, params: Params, key: u64) -> EdgeColoring {
        let (inst, edges) = edge_coloring_instance(g);
        let solution = Solver::randomized(params, key).solve(&inst);
        let colors = solution.colors.clone();
        EdgeColoring {
            edges,
            colors,
            solution,
        }
    }

    /// Whether every line-graph node `{u, v}` has degree `d(u) + d(v) − 2`.
    fn line_graph_degree_bound_holds(g: &Graph) -> bool {
        let lg = line_graph(g);
        lg.edges
            .iter()
            .enumerate()
            .all(|(i, &(u, v))| lg.graph.degree(i as NodeId) == g.degree(u) + g.degree(v) - 2)
    }

    fn random_graph(n: usize, m: usize, seed: u64) -> Graph {
        let mut rng = SplitMix::new(seed);
        let mut edges = Vec::new();
        while edges.len() < m {
            let a = rng.below(n as u64) as NodeId;
            let b = rng.below(n as u64) as NodeId;
            if a != b {
                edges.push((a.min(b), a.max(b)));
            }
        }
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn line_graph_of_triangle_is_triangle() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let lg = line_graph(&g);
        assert_eq!(lg.graph.n(), 3);
        assert_eq!(lg.graph.m(), 3);
    }

    #[test]
    fn line_graph_of_star_is_clique() {
        let edges: Vec<_> = (1..6u32).map(|i| (0, i)).collect();
        let g = Graph::from_edges(6, &edges);
        let lg = line_graph(&g);
        assert_eq!(lg.graph.n(), 5);
        assert_eq!(lg.graph.m(), 10); // K5
    }

    #[test]
    fn line_graph_degrees_match_formula() {
        let g = random_graph(60, 150, 1);
        assert!(line_graph_degree_bound_holds(&g));
    }

    #[test]
    fn deterministic_edge_coloring_verifies() {
        let g = random_graph(80, 200, 2);
        let ec = edge_color_deterministic(&g, Params::default().with_seed_bits(4));
        verify_edge_coloring(&g, &ec).unwrap();
    }

    #[test]
    fn randomized_edge_coloring_verifies() {
        let g = random_graph(80, 200, 3);
        let ec = edge_color_randomized(&g, Params::default(), 9);
        verify_edge_coloring(&g, &ec).unwrap();
    }

    #[test]
    fn ring_needs_at_most_three_edge_colors() {
        let edges: Vec<_> = (0..8u32).map(|i| (i, (i + 1) % 8)).collect();
        let g = Graph::from_edges(8, &edges);
        let ec = edge_color_deterministic(&g, Params::default().with_seed_bits(4));
        verify_edge_coloring(&g, &ec).unwrap();
        assert!(ec.palette_size() <= 3); // 2Δ−1 = 3
    }

    #[test]
    fn edge_coloring_is_deterministic() {
        let g = random_graph(50, 120, 4);
        let a = edge_color_deterministic(&g, Params::default().with_seed_bits(4));
        let b = edge_color_deterministic(&g, Params::default().with_seed_bits(4));
        assert_eq!(a.colors, b.colors);
    }

    #[test]
    fn verify_rejects_conflicts() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let ec = EdgeColoring {
            edges: vec![(0, 1), (1, 2)],
            colors: vec![0, 0], // share node 1
            solution: Solver::deterministic(Params::default()).solve(&edge_coloring_instance(&g).0),
        };
        assert!(verify_edge_coloring(&g, &ec).is_err());
    }

    #[test]
    fn verify_rejects_overfull_incidence_without_panicking() {
        // Edge count matches m but node 3 claims two incident edges while
        // its degree is 1 — must be a clean Err, not a slice overflow.
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let ec = EdgeColoring {
            edges: vec![(2, 3), (2, 3)],
            colors: vec![0, 1],
            solution: Solver::deterministic(Params::default()).solve(&edge_coloring_instance(&g).0),
        };
        assert!(verify_edge_coloring(&g, &ec).is_err());
    }

    #[test]
    fn empty_graph_edge_coloring() {
        let g = Graph::empty(5);
        let ec = edge_color_deterministic(&g, Params::default());
        verify_edge_coloring(&g, &ec).unwrap();
        assert_eq!(ec.palette_size(), 0);
    }
}
