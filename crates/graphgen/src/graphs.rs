//! Graph generators.  All deterministic in `seed`.
//!
//! Every generator is expressed as a **re-runnable edge stream** fed to
//! [`Graph::from_edge_stream`], which runs the stream twice: it counts
//! degrees, then scatters, without ever materializing a
//! `Vec<(u32, u32)>` edge list.  This is the memory-lean construction
//! path that makes n = 10^7 instances fit.
//!
//! A generator whose draws need no state beyond its rng (`gnp`, the
//! planted cliques) replays the same draw sequence on both passes.  One
//! that must deduplicate or shuffle draws once, before the builder runs:
//! `gnm` and `power_law` draw into an [`EdgeSet`] and stream the set's
//! edges ([`EdgeSet::for_each`]), `random_regular` shuffles its stub list
//! and streams its pairs, so peak memory is the set or the stubs plus the
//! CSR.  The builder sorts every row, so the stream's order does not
//! change the graph.

use crate::edgeset::EdgeSet;
use parcolor_local::graph::{Graph, NodeId};
use parcolor_local::tape::SplitMix;

/// Erdős–Rényi `G(n, m)`: `m` distinct uniform edges.
pub fn gnm(n: usize, m: usize, seed: u64) -> Graph {
    assert!(n >= 2);
    let max_edges = n * (n - 1) / 2;
    assert!(m <= max_edges, "m={m} exceeds max {max_edges}");
    let mut rng = SplitMix::new(seed);
    let mut seen = EdgeSet::with_capacity(m);
    while seen.len() < m {
        let a = rng.below(n as u64) as NodeId;
        let b = rng.below(n as u64) as NodeId;
        if a != b {
            seen.insert(a, b);
        }
    }
    Graph::from_edge_stream(n, |sink| seen.for_each(sink))
}

/// Erdős–Rényi `G(n, p)` via the geometric skipping method — `O(m)` time.
pub fn gnp(n: usize, p: f64, seed: u64) -> Graph {
    assert!((0.0..=1.0).contains(&p));
    Graph::from_edge_stream(n, |sink| {
        if p <= 0.0 {
            return;
        }
        let mut rng = SplitMix::new(seed);
        let log1p = (1.0 - p).ln();
        let mut v: i64 = 1;
        let mut w: i64 = -1;
        while (v as usize) < n {
            let r = rng.f64().max(1e-18);
            w += 1 + if p < 1.0 {
                (r.ln() / log1p).floor() as i64
            } else {
                0
            };
            while w >= v && (v as usize) < n {
                w -= v;
                v += 1;
            }
            if (v as usize) < n {
                sink(w as NodeId, v as NodeId);
            }
        }
    })
}

/// Random `d`-regular-ish graph by the pairing model (collisions dropped,
/// so degrees are `≤ d`, concentrated at `d`).
pub fn random_regular(n: usize, d: usize, seed: u64) -> Graph {
    assert!((n * d).is_multiple_of(2), "n*d must be even");
    let mut stubs: Vec<NodeId> = (0..n as NodeId)
        .flat_map(|v| std::iter::repeat_n(v, d))
        .collect();
    SplitMix::new(seed).shuffle(&mut stubs);
    Graph::from_edge_stream(n, |sink| {
        for pair in stubs.chunks(2) {
            if pair.len() == 2 && pair[0] != pair[1] {
                sink(pair[0], pair[1]);
            }
        }
    })
}

/// Chung–Lu power-law graph: expected degree of node `i` is proportional
/// to `(i+1)^{-1/(γ-1)}`, scaled to average degree `avg_deg`.
pub fn power_law(n: usize, gamma: f64, avg_deg: f64, seed: u64) -> Graph {
    assert!(gamma > 2.0, "gamma must exceed 2 for bounded expectation");
    let exp = -1.0 / (gamma - 1.0);
    let weights: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).powf(exp)).collect();
    let wsum: f64 = weights.iter().sum();
    let scale = avg_deg * n as f64 / wsum;
    let weights: Vec<f64> = weights.iter().map(|w| w * scale).collect();
    let wsum: f64 = weights.iter().sum();
    // Sample ~wsum/2 edges proportional to w_i * w_j via the alias-free
    // two-stage draw (acceptable bias at experiment scale).
    let cdf: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w;
            Some(*acc)
        })
        .collect();
    let draw = |rng: &mut SplitMix| -> NodeId {
        let x = rng.f64() * wsum;
        cdf.partition_point(|&c| c < x).min(n - 1) as NodeId
    };
    let target = (wsum / 2.0) as usize;
    let mut rng = SplitMix::new(seed);
    let mut seen = EdgeSet::with_capacity(target);
    for _ in 0..target * 2 {
        if seen.len() >= target {
            break;
        }
        let a = draw(&mut rng);
        let b = draw(&mut rng);
        if a != b {
            seen.insert(a, b);
        }
    }
    Graph::from_edge_stream(n, |sink| seen.for_each(sink))
}

/// Planted almost-cliques: `k` cliques of the given sizes, each with an
/// `eps` fraction of internal edges removed and light random wiring
/// between cliques, plus `sparse_n` background nodes in a `G(n, m)`-style
/// sparse cloud.  The canonical ACD test input.
pub fn planted_cliques(
    clique_sizes: &[usize],
    eps: f64,
    sparse_n: usize,
    sparse_avg_deg: usize,
    seed: u64,
) -> Graph {
    let clique_total: usize = clique_sizes.iter().sum();
    let n = clique_total + sparse_n;
    Graph::from_edge_stream(n, |sink| {
        let mut rng = SplitMix::new(seed);
        let mut base = 0u32;
        for &s in clique_sizes {
            for a in 0..s as u32 {
                for b in (a + 1)..s as u32 {
                    if rng.f64() >= eps {
                        sink(base + a, base + b);
                    }
                }
            }
            base += s as u32;
        }
        // Sparse background.
        if sparse_n >= 2 {
            for _ in 0..(sparse_n * sparse_avg_deg / 2) {
                let a = base + rng.below(sparse_n as u64) as u32;
                let b = base + rng.below(sparse_n as u64) as u32;
                if a != b {
                    sink(a, b);
                }
            }
            // Light wiring between cliques and cloud.
            for _ in 0..clique_total / 4 {
                let a = rng.below(clique_total as u64) as u32;
                let b = base + rng.below(sparse_n as u64) as u32;
                sink(a, b);
            }
        }
    })
}

/// Ring (cycle) on `n` nodes.
pub fn ring(n: usize) -> Graph {
    assert!(n >= 3);
    Graph::from_edge_stream(n, |sink| {
        for i in 0..n as NodeId {
            sink(i, (i + 1) % n as NodeId);
        }
    })
}

/// 2D torus grid `rows × cols` (4-regular).
pub fn torus(rows: usize, cols: usize) -> Graph {
    assert!(rows >= 3 && cols >= 3);
    let idx = |r: usize, c: usize| (r * cols + c) as NodeId;
    Graph::from_edge_stream(rows * cols, |sink| {
        for r in 0..rows {
            for c in 0..cols {
                sink(idx(r, c), idx(r, (c + 1) % cols));
                sink(idx(r, c), idx((r + 1) % rows, c));
            }
        }
    })
}

/// Star with `n - 1` leaves (maximal unevenness at the leaves).
pub fn star(n: usize) -> Graph {
    assert!(n >= 2);
    Graph::from_edge_stream(n, |sink| {
        for i in 1..n as NodeId {
            sink(0, i);
        }
    })
}

/// Complete bipartite `K_{a,b}` (dense yet triangle-free: maximal sparsity
/// at every node — a stress case for the ACD classifier).
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    Graph::from_edge_stream(a + b, |sink| {
        for x in 0..a as NodeId {
            for y in 0..b as NodeId {
                sink(x, a as NodeId + y);
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnm_has_exact_edges() {
        let g = gnm(100, 300, 1);
        assert_eq!(g.n(), 100);
        assert_eq!(g.m(), 300);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn gnm_deterministic() {
        assert_eq!(gnm(50, 100, 7), gnm(50, 100, 7));
        assert_ne!(gnm(50, 100, 7), gnm(50, 100, 8));
    }

    #[test]
    fn gnp_density_is_right() {
        let n = 400;
        let p = 0.05;
        let g = gnp(n, p, 3);
        let expected = (n * (n - 1) / 2) as f64 * p;
        assert!(
            (g.m() as f64 - expected).abs() < 0.2 * expected,
            "m = {}, expected ≈ {expected}",
            g.m()
        );
    }

    #[test]
    fn gnp_zero_and_extremes() {
        assert_eq!(gnp(50, 0.0, 1).m(), 0);
        let g = gnp(20, 1.0, 1);
        assert_eq!(g.m(), 190);
    }

    #[test]
    fn random_regular_degrees_concentrate() {
        let g = random_regular(200, 6, 5);
        let low = (0..200u32).filter(|&v| g.degree(v) < 4).count();
        assert!(low < 20, "{low} nodes far below target degree");
        assert!(g.max_degree() <= 6);
    }

    #[test]
    fn power_law_is_skewed() {
        let g = power_law(500, 2.5, 8.0, 9);
        let dmax = g.max_degree();
        let avg = 2.0 * g.m() as f64 / 500.0;
        assert!(dmax as f64 > 3.0 * avg, "Δ={dmax}, avg={avg}");
    }

    #[test]
    fn planted_cliques_structure() {
        let g = planted_cliques(&[20, 20], 0.05, 100, 4, 11);
        assert_eq!(g.n(), 140);
        // Clique nodes are much denser than cloud nodes.
        let c_deg: usize = (0..40u32).map(|v| g.degree(v)).sum::<usize>() / 40;
        let s_deg: usize = (40..140u32).map(|v| g.degree(v)).sum::<usize>() / 100;
        assert!(c_deg > 2 * s_deg, "clique {c_deg} vs sparse {s_deg}");
    }

    #[test]
    fn torus_is_4_regular() {
        let g = torus(5, 6);
        assert_eq!(g.n(), 30);
        for v in 0..30u32 {
            assert_eq!(g.degree(v), 4);
        }
    }

    #[test]
    fn star_and_bipartite_shapes() {
        let s = star(10);
        assert_eq!(s.degree(0), 9);
        assert_eq!(s.degree(5), 1);
        let b = complete_bipartite(4, 6);
        assert_eq!(b.m(), 24);
        assert_eq!(b.degree(0), 6);
        assert_eq!(b.degree(4), 4);
    }
}
