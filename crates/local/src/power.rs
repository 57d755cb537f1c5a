//! Graph powers `G^k`.
//!
//! The derandomization framework (Theorem 12 of the paper) needs a proper
//! coloring of `G^{4τ}` so that any two nodes within distance `4τ` receive
//! disjoint chunks of the PRG output.  This module materializes `G^k`
//! explicitly via bounded BFS.  The power graph has maximum degree up to
//! `Δ^k`, so callers must budget for that (the paper budgets `O(Δ^{11τ})`
//! words of machine space; our per-node chunking mode avoids the blow-up at
//! scale — see `parcolor-core::framework::ChunkMode`).

use crate::graph::{Graph, NodeId};

/// Build `G^k`: same nodes, an edge between any pair at distance `1..=k`
/// in `G`.  `k = 0` yields the empty graph; `k = 1` is a copy of `G`.
///
/// Cost: `O(n · Δ^k)` time and output size.
pub fn power_graph(g: &Graph, k: usize) -> Graph {
    if k <= 1 {
        return if k == 0 {
            Graph::empty(g.n())
        } else {
            g.clone()
        };
    }
    let n = g.n();
    let rows: Vec<Vec<NodeId>> = (0..n as NodeId)
        .map(|v| {
            let mut reached = ball(g, v, k);
            reached.retain(|&u| u != v);
            reached
        })
        .collect();
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0u64);
    for r in &rows {
        offsets.push(offsets.last().unwrap() + r.len() as u64);
    }
    let mut adj = Vec::with_capacity(*offsets.last().unwrap() as usize);
    for r in rows {
        adj.extend_from_slice(&r);
    }
    Graph::from_parts(offsets, adj)
}

/// Sorted set of nodes within distance `<= k` of `v` (including `v`).
pub fn ball(g: &Graph, v: NodeId, k: usize) -> Vec<NodeId> {
    let mut frontier = vec![v];
    let mut seen: Vec<NodeId> = vec![v];
    for _ in 0..k {
        let mut next = Vec::new();
        for &u in &frontier {
            for &w in g.neighbors(u) {
                if seen.binary_search(&w).is_err() {
                    // `seen` must stay sorted for the binary search; insert.
                    let pos = seen.binary_search(&w).unwrap_err();
                    seen.insert(pos, w);
                    next.push(w);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact distance between `u` and `v` up to `limit` hops; `None` if larger.
    fn bounded_distance(g: &Graph, u: NodeId, v: NodeId, limit: usize) -> Option<usize> {
        if u == v {
            return Some(0);
        }
        let mut frontier = vec![u];
        let mut seen = vec![u];
        for dist in 1..=limit {
            let mut next = Vec::new();
            for &x in &frontier {
                for &w in g.neighbors(x) {
                    if w == v {
                        return Some(dist);
                    }
                    if let Err(pos) = seen.binary_search(&w) {
                        seen.insert(pos, w);
                        next.push(w);
                    }
                }
            }
            if next.is_empty() {
                return None;
            }
            frontier = next;
        }
        None
    }

    fn path(n: usize) -> Graph {
        let edges: Vec<_> = (0..n as NodeId - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn square_of_path() {
        let g = path(5);
        let g2 = power_graph(&g, 2);
        assert!(g2.has_edge(0, 2));
        assert!(g2.has_edge(1, 3));
        assert!(!g2.has_edge(0, 3));
        assert_eq!(g2.degree(2), 4);
        assert!(g2.validate().is_ok());
    }

    #[test]
    fn power_zero_and_one() {
        let g = path(4);
        assert_eq!(power_graph(&g, 0).m(), 0);
        assert_eq!(power_graph(&g, 1), g);
    }

    #[test]
    fn cube_of_path_is_distance_three() {
        let g = path(6);
        let g3 = power_graph(&g, 3);
        for u in 0..6u32 {
            for v in 0..6u32 {
                if u == v {
                    continue;
                }
                let d = bounded_distance(&g, u, v, 5).unwrap();
                assert_eq!(g3.has_edge(u, v), d <= 3, "u={u} v={v} d={d}");
            }
        }
    }

    #[test]
    fn ball_radius() {
        let g = path(7);
        assert_eq!(ball(&g, 3, 2), vec![1, 2, 3, 4, 5]);
        assert_eq!(ball(&g, 0, 1), vec![0, 1]);
    }

    #[test]
    fn bounded_distance_limits() {
        let g = path(5);
        assert_eq!(bounded_distance(&g, 0, 4, 4), Some(4));
        assert_eq!(bounded_distance(&g, 0, 4, 3), None);
        assert_eq!(bounded_distance(&g, 2, 2, 0), Some(0));
    }
}
