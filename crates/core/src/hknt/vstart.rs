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
//!
//! [`identify_vstart`] runs as two passes over node-id stripes on the
//! `parcolor-exec` pool, each writing one flag byte per node:
//! 1. every node: sparse, balanced, disc and easy, from one walk over a
//!    sparse node's neighbors;
//! 2. each sparse node outside `Veasy`: heavy, else start, reading pass
//!    1's easy flags.
//!
//! The five lists are then read off the flags in id order, so they do
//! not depend on the worker count.
//!
//! Pass 2 finds the `H(c)` without a hash map, by one of two exact
//! paths chosen per node from its neighbors' palettes:
//! * **dense**: when the crate's dense-color rule admits the largest
//!   neighbor color (below twice the node's neighbor palette entries
//!   plus 1024), a table indexed by color, reused across a stripe's
//!   nodes, takes each `1/p(u)` in adjacency order, as the old per-color
//!   map did, and the colors it touched are sorted to add the heavy ones;
//! * **sort**: otherwise each entry becomes the key
//!   `c << 32 | slot` (`slot` counts the contributing neighbors in
//!   adjacency order), the keys are sorted and each color's run is summed
//!   left to right.  The keys are distinct, so their order within a run
//!   is adjacency order: the order a *stable* sort by color keeps.
//!
//! Either way every `H(c)` adds the same addends in the same order from
//! 0.0, and the heavy runs are added in ascending color order, so every
//! `H(c)` and every heavy mass is the same float as the old map's.  A
//! sort that reordered a run's addends could change the low bits: float
//! addition is not associative.  The dense table costs no more than the
//! entries it sums, so hub-rich stages (a hub's neighbors carry long
//! palettes) stay linear, while a wide list universe never sizes a table.

use crate::config::Params;
use crate::hknt::acd::{Acd, NodeClass};
use crate::instance::{dense_colors, ColoringState};
use crate::node_params::ParamTable;
use crate::stripes::{stripe_workers, STRIPE};
use parcolor_exec::{par_fill, Executor};
use parcolor_local::graph::{Graph, NodeId};

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

/// Per-node flag bits: pass 1 sets the first four on every node, pass 2
/// the last two on sparse nodes outside `Veasy`.
const SPARSE: u8 = 1;
const BALANCED: u8 = 2;
const DISC: u8 = 4;
const EASY: u8 = 8;
const HEAVY: u8 = 16;
const START: u8 = 32;

/// The heavy-color mass `Σ_{c heavy} H(c)` around one node, with buffers
/// reused across a stripe's nodes.  Each `H(c)` sums its neighbors in
/// adjacency order and the heavy colors are added in ascending order
/// (see the module notes), by one of two exact paths.
#[derive(Default)]
struct HeavyMass {
    /// Dense path: `H(c)` by color, 0 outside `colors`.
    h: Vec<f64>,
    /// Dense path: the colors with a non-zero `H(c)`.
    colors: Vec<u32>,
    /// Sort path: `c << 32 | slot` per palette entry, `slot` being the
    /// neighbor's index among the node's contributing neighbors.
    keys: Vec<u64>,
    /// Sort path: `1/p(u)` by neighbor slot.
    weights: Vec<f64>,
}

impl HeavyMass {
    fn around(
        &mut self,
        g: &Graph,
        state: &ColoringState,
        active: &[bool],
        v: NodeId,
        heavy_const: f64,
    ) -> f64 {
        let nbrs = || {
            g.neighbors(v)
                .iter()
                .filter(|&&u| active[u as usize] && !state.is_colored(u))
                .map(|&u| state.palette(u))
        };
        let (mut entries, mut top) = (0, 0);
        for pu in nbrs() {
            entries += pu.len();
            top = pu.iter().fold(top, |t, &c| t.max(c as usize));
        }
        let mut mass = 0.0;
        if dense_colors(top, entries) {
            if self.h.len() <= top {
                self.h.resize(top + 1, 0.0);
            }
            for pu in nbrs() {
                let w = 1.0 / pu.len() as f64;
                for &c in pu {
                    let hc = &mut self.h[c as usize];
                    if *hc == 0.0 {
                        self.colors.push(c);
                    }
                    *hc += w;
                }
            }
            self.colors.sort_unstable();
            for &c in &self.colors {
                let hc = std::mem::take(&mut self.h[c as usize]);
                if hc >= heavy_const {
                    mass += hc;
                }
            }
            self.colors.clear();
        } else {
            self.keys.clear();
            self.weights.clear();
            for pu in nbrs() {
                let slot = self.weights.len() as u64;
                self.weights.push(1.0 / pu.len() as f64);
                self.keys
                    .extend(pu.iter().map(|&c| u64::from(c) << 32 | slot));
            }
            // The keys are distinct, so sorting them orders each color's
            // run by slot, which is adjacency order: the stable order.
            self.keys.sort_unstable();
            for run in self.keys.chunk_by(|a, b| a >> 32 == b >> 32) {
                let hc = run
                    .iter()
                    .fold(0.0, |h, &key| h + self.weights[key as u32 as usize]);
                if hc >= heavy_const {
                    mass += hc;
                }
            }
        }
        mass
    }
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
    let pool = Executor::global();
    let workers = stripe_workers(n);
    let at_least = |count: usize, eps: f64, d: usize| count as f64 >= eps * d as f64;

    // Pass 1: a sparse node's one neighbor walk counts both its
    // similar-degree and its dense neighbors.
    let mut flags = vec![0u8; n];
    par_fill(pool, workers, &mut flags, STRIPE, |start, stripe| {
        for (v, f) in (start as NodeId..).zip(stripe) {
            *f = match acd.class[v as usize] {
                NodeClass::Uneven => EASY,
                NodeClass::Sparse => {
                    let d = table.degree(v);
                    let (mut big, mut dense) = (0, 0);
                    for &u in g.neighbors(v) {
                        big += (active[u as usize] && table.degree(u) * 3 > 2 * d) as usize;
                        dense += matches!(acd.class[u as usize], NodeClass::Dense(_)) as usize;
                    }
                    let mut f = SPARSE;
                    if at_least(big, params.eps1, d) {
                        f |= BALANCED;
                    }
                    if table.get(v).discrepancy >= params.eps2 * d as f64 {
                        f |= DISC;
                    }
                    if f != SPARSE || at_least(dense, params.eps3, d) {
                        f |= EASY;
                    }
                    f
                }
                _ => 0,
            };
        }
    });

    // Pass 2: heavy, else start, reading pass 1's easy flags.
    let mut late = vec![0u8; n];
    par_fill(pool, workers, &mut late, STRIPE, |start, stripe| {
        let mut mass = HeavyMass::default();
        for (v, f) in (start as NodeId..).zip(stripe) {
            if flags[v as usize] & (SPARSE | EASY) != SPARSE {
                continue;
            }
            let d = table.degree(v);
            let heavy_mass = mass.around(g, state, active, v, params.heavy_const);
            *f = if heavy_mass >= params.eps4 * d as f64 {
                HEAVY
            } else {
                let easy_nb = g
                    .neighbors(v)
                    .iter()
                    .filter(|&&u| flags[u as usize] & EASY != 0)
                    .count();
                if at_least(easy_nb, params.eps5, d) {
                    START
                } else {
                    0
                }
            };
        }
    });

    let mut sets = VstartSets::default();
    for (v, (&f, &l)) in (0..n as NodeId).zip(flags.iter().zip(&late)) {
        for (bit, list) in [
            (f & BALANCED, &mut sets.balanced),
            (f & DISC, &mut sets.disc),
            (f & EASY, &mut sets.easy),
            (l & HEAVY, &mut sets.heavy),
            (l & START, &mut sets.start),
        ] {
            if bit != 0 {
                list.push(v);
            }
        }
    }
    sets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hknt::acd::compute_acd;
    use crate::instance::{D1lcInstance, PaletteArena};
    use crate::node_params::compute_params;
    use parcolor_local::tape::SplitMix;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The sequential computation the stripe passes replaced, kept as
    /// their oracle: one filter per set over the sparse nodes, n-sized
    /// masks, and every H(c) summed in a `HashMap`.
    fn reference_vstart(
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

        // Vheavy: each H(c) sums in adjacency order; the heavy colors are
        // then summed in ascending color order, so the mass does not
        // depend on the map's iteration order.
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

    /// A random stage keyed by `seed` over two to three pool stripes of
    /// nodes: sparse random edges plus hubs with 8–39 spokes each, list
    /// palettes of `d(v) + 1 + extra` colors drawn from a universe of
    /// (Δ+1) to 1.25(Δ+1) colors and shifted by [`wide_shift`], partly
    /// colored one node at a time, and a stage of uncolored nodes that
    /// is also the active set.  The hubs
    /// are sparse and outnumber most of their neighbors' degrees, so they
    /// are not balanced; whether their neighbors' palettes pile up on a
    /// few colors decides between `Vheavy` and `Vstart`.
    fn random_stage(seed: u64) -> (Graph, ColoringState, Vec<bool>, Vec<NodeId>) {
        let mut rng = SplitMix::new(seed);
        let n = 2 * STRIPE + rng.below(STRIPE as u64 + 1) as usize;
        let node = |rng: &mut SplitMix| rng.below(n as u64) as NodeId;
        let mut edges = Vec::new();
        for _ in 0..rng.below(2 * n as u64) {
            edges.push((node(&mut rng), node(&mut rng)));
        }
        for _ in 0..1 + rng.below(n as u64 / 16) {
            let hub = node(&mut rng);
            for _ in 0..8 + rng.below(32) {
                edges.push((hub, node(&mut rng)));
            }
        }
        edges.retain(|&(a, b)| a != b);
        let g = Graph::from_edges(n, &edges);
        let delta = g.max_degree() as u64;
        let universe = (delta + 1 + rng.below(delta / 4 + 1)) as u32;
        let extra = rng.below(4) as usize;
        let lists = parcolor_graphgen::random_lists(g.clone(), universe, extra, rng.next_u64());
        let shift = wide_shift(seed);
        let lists: Vec<Vec<u32>> = (0..n as NodeId)
            .map(|v| {
                lists
                    .palettes
                    .palette(v)
                    .iter()
                    .map(|&c| c + shift)
                    .collect()
            })
            .collect();
        let inst = D1lcInstance::new(g.clone(), PaletteArena::from_lists(&lists));
        let mut state = ColoringState::new(&inst);
        let colored_pct = rng.below(40);
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
            if !state.is_colored(v) && rng.below(8) > 0 {
                active[v as usize] = true;
                nodes.push(v);
            }
        }
        (g, state, active, nodes)
    }

    /// The offset `random_stage(seed)` adds to every color: 2^24 for odd
    /// seeds, so every node's colors lie far above its palette entries and
    /// pass 2 takes its sort path, and 0 for even seeds (the dense path).
    fn wide_shift(seed: u64) -> u32 {
        (seed as u32 & 1) << 24
    }

    /// The stage's sets from the stripe passes and from the reference.
    fn both(seed: u64) -> (VstartSets, VstartSets) {
        let (g, state, active, nodes) = random_stage(seed);
        let p = Params::default();
        let table = compute_params(&g, &state, &nodes, &active);
        let acd = compute_acd(&g, &nodes, &active, &table, &p);
        (
            identify_vstart(&g, &state, &acd, &table, &active, &p),
            reference_vstart(&g, &state, &acd, &table, &active, &p),
        )
    }

    /// `random_stage` reaches the sets the reference's map decides on both
    /// of pass 2's paths: over seeds `0..48` (half of them wide), at least
    /// a quarter of the stages of each width have both a non-empty
    /// `Vheavy` and a non-empty `Vstart`.
    #[test]
    fn random_stages_reach_heavy_and_start() {
        let mut reached = [0; 2];
        for seed in 0..48 {
            let (got, _) = both(seed);
            if !got.heavy.is_empty() && !got.start.is_empty() {
                reached[(wide_shift(seed) != 0) as usize] += 1;
            }
        }
        assert!(
            reached.iter().all(|&r| r >= 6),
            "{reached:?} of 24 narrow and 24 wide stages have heavy and start nodes"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn stripe_passes_match_the_sequential_reference(seed in any::<u64>()) {
            let (got, want) = both(seed);
            prop_assert_eq!(&got.balanced, &want.balanced, "seed {} balanced", seed);
            prop_assert_eq!(&got.disc, &want.disc, "seed {} disc", seed);
            prop_assert_eq!(&got.easy, &want.easy, "seed {} easy", seed);
            prop_assert_eq!(&got.heavy, &want.heavy, "seed {} heavy", seed);
            prop_assert_eq!(&got.start, &want.start, "seed {} start", seed);
        }
    }

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
