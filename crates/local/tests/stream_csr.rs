//! The two-pass CSR builder ([`Graph::from_edge_stream`], which
//! [`Graph::from_edges`] replays a slice through) must produce exactly
//! the CSR of a `BTreeSet` adjacency model on arbitrary inputs: same
//! offsets array, same adjacency array, for any mix of duplicate edges
//! and orientations.  This is the contract the scale bench and the
//! `.pcg` pipeline rely on.

use parcolor_local::{Graph, NodeId};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The CSR arrays of the simple graph on `n` nodes spanned by `edges`,
/// from one ordered neighbor set per node.
fn model_csr(n: usize, edges: &[(NodeId, NodeId)]) -> (Vec<u64>, Vec<NodeId>) {
    let mut rows = vec![BTreeSet::new(); n];
    for &(u, v) in edges {
        rows[u as usize].insert(v);
        rows[v as usize].insert(u);
    }
    let mut offsets = vec![0u64];
    let mut adj = Vec::new();
    for row in rows {
        adj.extend(row);
        offsets.push(adj.len() as u64);
    }
    (offsets, adj)
}

fn stream(n: usize, edges: &[(NodeId, NodeId)]) -> Graph {
    Graph::from_edge_stream(n, |sink| {
        for &(u, v) in edges {
            sink(u, v);
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn stream_built_equals_model(
        n in 2usize..80,
        raw in proptest::collection::vec((0u32..1 << 16, 0u32..1 << 16), 0..400),
    ) {
        let base: Vec<(NodeId, NodeId)> = raw
            .iter()
            .map(|&(a, b)| (a % n as u32, b % n as u32))
            .filter(|&(u, v)| u != v)
            .collect();
        // Duplicate every third edge with flipped orientation so the
        // dedup compaction path is always exercised.
        let mut edges = Vec::with_capacity(base.len() * 2);
        for (i, &(u, v)) in base.iter().enumerate() {
            edges.push((u, v));
            if i % 3 == 0 {
                edges.push((v, u));
            }
        }
        let streamed = stream(n, &edges);
        let (offsets, adj) = model_csr(n, &edges);
        prop_assert_eq!(streamed.offsets(), &offsets[..]);
        prop_assert_eq!(streamed.adj(), &adj[..]);
        prop_assert!(streamed.validate().is_ok());
        prop_assert_eq!(&Graph::from_edges(n, &edges), &streamed);
    }
}

#[test]
fn stream_builder_collapses_duplicates_and_orientations() {
    let g = stream(5, &[(0, 1), (1, 0), (0, 1), (1, 2), (2, 1), (3, 1)]);
    assert_eq!(g.n(), 5);
    assert_eq!(g.m(), 3);
    assert_eq!(g.neighbors(1), &[0, 2, 3]);
    assert_eq!(g.degree(4), 0);
    assert!(g.validate().is_ok());
}

#[test]
#[should_panic(expected = "edge stream changed between passes")]
fn non_rerunnable_stream_is_caught() {
    use std::cell::Cell;
    let pass = Cell::new(0u32);
    Graph::from_edge_stream(4, |sink| {
        pass.set(pass.get() + 1);
        sink(0, 1);
        if pass.get() == 1 {
            sink(2, 3); // vanishes on the replay pass
        }
    });
}

/// A large enough instance to push the row sort onto the pool path
/// (adjacency above the 1<<14 sequential floor).
#[test]
fn large_stream_matches_model_on_pool_path() {
    let n = 5000usize;
    let m = 40_000usize;
    let edges: Vec<(NodeId, NodeId)> = (0..m as u64)
        .map(|i| {
            // splitmix-style hash: deterministic, re-runnable.
            let mut z = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^= z >> 31;
            ((z % n as u64) as NodeId, ((z >> 32) % n as u64) as NodeId)
        })
        .filter(|&(u, v)| u != v)
        .collect();
    let streamed = stream(n, &edges);
    let (offsets, adj) = model_csr(n, &edges);
    assert_eq!(streamed.offsets(), &offsets[..]);
    assert_eq!(streamed.adj(), &adj[..]);
}
