//! Linial's deterministic color-reduction algorithm.
//!
//! Theorem 12's proof needs an `O(Δ^{8τ})`-coloring of the power graph
//! `G^{4τ}`, obtained "by simulating round-by-round the O(Δ²)-coloring
//! algorithm of Linial \[Lin92\]".  This module implements the classic
//! polynomial set-system version: interpret a node's current color as a
//! polynomial of degree ≤ k over `F_q`; with `q > k·Δ` there is an
//! evaluation point `x` where the node differs from all its neighbors
//! (a degree-k polynomial agrees with each neighbor's on ≤ k points), so
//! `(x, f(x))` is a proper color in `[q²]`.  Iterating shrinks `n` colors
//! to `O(Δ² log² Δ)`-ish in `O(log* n)` rounds.
//!
//! The same routine doubles as the color-class scheduler of the low-degree
//! solver (`lowdeg`), our substitute for CDP21c's Lemma 14.

use parcolor_local::graph::{Graph, NodeId};

/// Result of running Linial color reduction.
#[derive(Clone, Debug)]
pub struct LinialColoring {
    /// Proper coloring with colors in `[0, color_count)`.
    pub colors: Vec<u32>,
    /// Upper bound on the number of colors used.
    pub color_count: usize,
    /// LOCAL rounds consumed (one per reduction step).
    pub rounds: u64,
}

/// Smallest prime strictly greater than `x` (trial division; inputs are
/// `O(k·Δ)`, far below any range where this matters).
pub fn next_prime(x: u64) -> u64 {
    let mut c = x + 1;
    loop {
        if is_prime(c) {
            return c;
        }
        c += 1;
    }
}

fn is_prime(x: u64) -> bool {
    if x < 2 {
        return false;
    }
    if x.is_multiple_of(2) {
        return x == 2;
    }
    let mut d = 3;
    while d * d <= x {
        if x.is_multiple_of(d) {
            return false;
        }
        d += 2;
    }
    true
}

/// Evaluate the polynomial whose base-`q` digit expansion is `code`
/// (least-significant digit = constant term) at point `x`, over `F_q`.
#[inline]
fn poly_eval(mut code: u64, q: u64, x: u64) -> u64 {
    // Horner from the top: extract digits first (k ≤ 64/log2(q) digits).
    let mut digits = [0u64; 64];
    let mut len = 0;
    while code > 0 {
        digits[len] = code % q;
        code /= q;
        len += 1;
    }
    if len == 0 {
        return 0;
    }
    let mut acc = 0u64;
    for i in (0..len).rev() {
        acc = (acc * x + digits[i]) % q;
    }
    acc
}

/// One Linial reduction step: given a proper `m`-coloring (as `u64` codes)
/// of the subgraph induced by `active`, produce a proper `q²`-coloring
/// where `q` is the smallest prime with `q > k·Δ` and `q^{k+1} ≥ m`.
/// Returns `(new_codes, q²)`.
fn linial_step(
    g: &Graph,
    active: &[bool],
    codes: &[u64],
    m: u64,
    max_deg: usize,
) -> (Vec<u64>, u64) {
    // Smallest k such that with q = next_prime(k·Δ), q^{k+1} ≥ m.
    let mut k = 1u32;
    let q = loop {
        let q = next_prime((k as u64) * (max_deg as u64).max(1));
        if (q as f64).powi(k as i32 + 1) >= m as f64 {
            break q;
        }
        k += 1;
        assert!(k <= 64, "k blow-up; m={m}, Δ={max_deg}");
    };
    let new_codes: Vec<u64> = (0..g.n() as NodeId)
        .map(|v| {
            if !active[v as usize] {
                return 0;
            }
            let fv = codes[v as usize];
            // Find x with f_v(x) ≠ f_u(x) for all active neighbors u.
            let mut chosen = None;
            for x in 0..q {
                let yv = poly_eval(fv, q, x);
                let clash = g
                    .neighbors(v)
                    .iter()
                    .any(|&u| active[u as usize] && poly_eval(codes[u as usize], q, x) == yv);
                if !clash {
                    chosen = Some(x * q + yv);
                    break;
                }
            }
            chosen.expect("Linial step: no evaluation point (q too small?)")
        })
        .collect();
    (new_codes, q * q)
}

/// Run Linial color reduction on the subgraph induced by `active` until the
/// color count stops improving.  Initial colors are the node ids (the
/// LOCAL model's unique identifiers).
pub fn linial_coloring(g: &Graph, active: &[bool]) -> LinialColoring {
    let n = g.n();
    assert_eq!(active.len(), n);
    let max_deg = (0..n as NodeId)
        .filter(|&v| active[v as usize])
        .map(|v| {
            g.neighbors(v)
                .iter()
                .filter(|&&u| active[u as usize])
                .count()
        })
        .max()
        .unwrap_or(0);
    let mut codes: Vec<u64> = (0..n as u64).collect();
    let mut m = n.max(2) as u64;
    let mut rounds = 0u64;
    loop {
        let (new_codes, new_m) = linial_step(g, active, &codes, m, max_deg);
        rounds += 1;
        if new_m >= m {
            // No improvement: keep the current coloring (the initial node
            // ids already form a proper m-coloring, so this is always a
            // consistent state — codes stay < m).
            break;
        }
        codes = new_codes;
        m = new_m;
    }
    let colors: Vec<u32> = codes.iter().map(|&c| c as u32).collect();
    LinialColoring {
        colors,
        color_count: m as usize,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcolor_local::engine::log_star;

    /// Proper coloring check restricted to an active mask.
    fn is_proper_on_active(g: &Graph, active: &[bool], colors: &[u32]) -> bool {
        (0..g.n() as NodeId)
            .filter(|&v| active[v as usize])
            .all(|v| {
                g.neighbors(v)
                    .iter()
                    .filter(|&&u| active[u as usize])
                    .all(|&u| colors[u as usize] != colors[v as usize])
            })
    }

    fn ring(n: usize) -> Graph {
        let edges: Vec<_> = (0..n as NodeId)
            .map(|i| (i, (i + 1) % n as NodeId))
            .collect();
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn primes() {
        assert_eq!(next_prime(1), 2);
        assert_eq!(next_prime(2), 3);
        assert_eq!(next_prime(10), 11);
        assert_eq!(next_prime(13), 17);
    }

    #[test]
    fn poly_eval_linear() {
        // code = 2*q + 3 → f(x) = 3 + 2x (digits LSB first) over q=5
        let q = 5;
        let code = 2 * q + 3;
        assert_eq!(poly_eval(code, q, 0), 3);
        assert_eq!(poly_eval(code, q, 1), 0); // 3+2 = 5 ≡ 0
        assert_eq!(poly_eval(code, q, 2), 2); // 3+4 = 7 ≡ 2
    }

    #[test]
    fn ring_coloring_is_proper_and_small() {
        let g = ring(1000);
        let active = vec![true; 1000];
        let res = linial_coloring(&g, &active);
        assert!(is_proper_on_active(&g, &active, &res.colors));
        // Δ = 2: expect O(Δ²·polylog) colors — generous bound:
        assert!(res.color_count <= 169, "colors={}", res.color_count);
        // O(log* n) rounds — generous bound:
        assert!(
            res.rounds <= (log_star(1000.0) + 4) as u64,
            "rounds={}",
            res.rounds
        );
    }

    #[test]
    fn respects_active_mask() {
        let g = ring(20);
        let mut active = vec![true; 20];
        active[0] = false;
        active[10] = false;
        let res = linial_coloring(&g, &active);
        assert!(is_proper_on_active(&g, &active, &res.colors));
    }

    #[test]
    fn dense_graph_coloring() {
        // Complete bipartite K_{10,10}: Δ = 10.
        let mut edges = Vec::new();
        for a in 0..10u32 {
            for b in 10..20u32 {
                edges.push((a, b));
            }
        }
        let g = Graph::from_edges(20, &edges);
        let active = vec![true; 20];
        let res = linial_coloring(&g, &active);
        assert!(is_proper_on_active(&g, &active, &res.colors));
    }

    #[test]
    fn rounds_grow_very_slowly_with_n() {
        let small = linial_coloring(&ring(64), &[true; 64]);
        let large = linial_coloring(&ring(8192), &vec![true; 8192]);
        assert!(
            large.rounds <= small.rounds + 2,
            "{} vs {}",
            large.rounds,
            small.rounds
        );
    }

    #[test]
    fn empty_active_set() {
        let g = ring(5);
        let res = linial_coloring(&g, &[false; 5]);
        assert_eq!(res.colors.len(), 5);
    }

    #[test]
    fn two_cliques_color_count() {
        // Two disjoint triangles.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        let active = vec![true; 6];
        let res = linial_coloring(&g, &active);
        assert!(is_proper_on_active(&g, &active, &res.colors));
        assert!(res.color_count >= 3);
    }
}
