//! Property-based tests (proptest) for the core invariants:
//! * the D1LC self-reducibility invariant `p(v) ≥ d(v)+1` under arbitrary
//!   valid partial colorings (Definition 11 / E14),
//! * properness and palette-membership of every solver output, in both
//!   modes,
//! * graph/CSR structural invariants under random edge lists,
//! * seed-selection guarantees for arbitrary cost functions.

use parcolor_core::baselines::greedy_sequential;
use parcolor_core::instance::{ColoringState, D1lcInstance, PaletteArena};
use parcolor_core::{Graph, NodeId, Params, Solver};
use parcolor_prg::{select_seed, SeedStrategy};
use proptest::prelude::*;

/// Random simple graph from a proptest edge list.
fn graph_strategy(max_n: usize, max_m: usize) -> impl Strategy<Value = Graph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as NodeId, 0..n as NodeId), 0..max_m).prop_map(
            move |pairs| {
                let edges: Vec<(NodeId, NodeId)> =
                    pairs.into_iter().filter(|(a, b)| a != b).collect();
                Graph::from_edges(n, &edges)
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn csr_invariants_hold(g in graph_strategy(60, 200)) {
        prop_assert!(g.validate().is_ok());
        // Handshake: sum of degrees = 2m.
        let degsum: usize = (0..g.n() as NodeId).map(|v| g.degree(v)).sum();
        prop_assert_eq!(degsum, 2 * g.m());
    }

    #[test]
    fn induced_subgraph_preserves_edges(g in graph_strategy(40, 120), pick in any::<u64>()) {
        // Take a pseudorandom subset of nodes, in shuffled order.
        let mut nodes: Vec<NodeId> = (0..g.n() as NodeId)
            .filter(|&v| (pick >> (v % 64)) & 1 == 1)
            .collect();
        let picked = nodes.clone();
        parcolor_local::tape::SplitMix::new(pick).shuffle(&mut nodes);
        let (h, map) = g.induced(&nodes);
        prop_assert!(h.validate().is_ok());
        // New ids follow old id order.
        prop_assert_eq!(&map, &picked);
        for (new_u, &old_u) in map.iter().enumerate() {
            for &new_v in h.neighbors(new_u as NodeId) {
                prop_assert!(g.has_edge(old_u, map[new_v as usize]));
            }
        }
        // And every edge of g between two picked nodes is an edge of h.
        let new_id = |v: NodeId| map.binary_search(&v).ok().map(|i| i as NodeId);
        for (a, b) in g.edges() {
            if let (Some(x), Some(y)) = (new_id(a), new_id(b)) {
                prop_assert!(h.has_edge(x, y), "edge {}-{} lost", a, b);
            }
        }
    }

    #[test]
    fn self_reducibility_invariant_under_random_partial_colorings(
        g in graph_strategy(50, 150),
        seed in any::<u64>(),
    ) {
        // E14: apply random valid adoptions one at a time; the invariant
        // p(v) ≥ d(v)+1 must hold at every prefix.
        let inst = D1lcInstance::delta_plus_one(g.clone());
        let mut state = ColoringState::new(&inst);
        let mut rng = parcolor_local::tape::SplitMix::new(seed);
        for _ in 0..g.n() {
            let unc = state.uncolored_nodes();
            if unc.is_empty() { break; }
            let v = unc[rng.below(unc.len() as u64) as usize];
            let pal = state.palette(v).to_vec();
            prop_assert!(!pal.is_empty());
            let c = pal[rng.below(pal.len() as u64) as usize];
            state.apply_adoptions(&g, &[(v, c)]);
            prop_assert!(state.invariant_violation().is_none(),
                "invariant broken after coloring {}", v);
        }
        prop_assert!(state.verify_partial(&g).is_ok());
    }

    #[test]
    fn residual_instances_are_valid_d1lc(
        g in graph_strategy(40, 120),
        seed in any::<u64>(),
    ) {
        let inst = D1lcInstance::delta_plus_one(g.clone());
        let mut state = ColoringState::new(&inst);
        let mut rng = parcolor_local::tape::SplitMix::new(seed);
        // Color roughly half the nodes.
        for _ in 0..g.n() / 2 {
            let unc = state.uncolored_nodes();
            if unc.is_empty() { break; }
            let v = unc[rng.below(unc.len() as u64) as usize];
            let c = state.palette(v)[0];
            state.apply_adoptions(&g, &[(v, c)]);
        }
        let rest = state.uncolored_nodes();
        if !rest.is_empty() {
            let (sub, _) = state.residual_instance(&g, &rest);
            prop_assert!(sub.validate().is_ok());
        }
    }

    #[test]
    fn solver_output_is_always_valid(g in graph_strategy(40, 120), key in any::<u64>()) {
        // Both modes: the derandomized solver and the randomized one
        // (Lemma 4) under an arbitrary master key.
        let inst = D1lcInstance::delta_plus_one(g);
        let sol = Solver::deterministic(Params::default().with_seed_bits(4)).solve(&inst);
        prop_assert!(inst.verify_coloring(&sol.colors).is_ok());
        let sol = Solver::randomized(Params::default(), key).solve(&inst);
        prop_assert!(inst.verify_coloring(&sol.colors).is_ok());
    }

    #[test]
    fn greedy_output_is_always_valid(g in graph_strategy(60, 200)) {
        let inst = D1lcInstance::delta_plus_one(g);
        let (colors, _) = greedy_sequential(&inst);
        prop_assert!(inst.verify_coloring(&colors).is_ok());
    }

    #[test]
    fn arbitrary_list_palettes_solve(
        g in graph_strategy(30, 80),
        offset in 0u32..1000,
        key in any::<u64>(),
    ) {
        // Palettes = {offset·v, …} windows: valid but adversarial lists.
        let lists: Vec<Vec<u32>> = (0..g.n() as NodeId)
            .map(|v| {
                let base = offset + v * 61;
                (base..=base + g.degree(v) as u32).collect()
            })
            .collect();
        let inst = D1lcInstance::new(g, PaletteArena::from_lists(&lists));
        let sol = Solver::deterministic(Params::default().with_seed_bits(4)).solve(&inst);
        prop_assert!(inst.verify_coloring(&sol.colors).is_ok());
        let sol = Solver::randomized(Params::default(), key).solve(&inst);
        prop_assert!(inst.verify_coloring(&sol.colors).is_ok());
    }

    #[test]
    fn seed_selection_guarantee_for_arbitrary_costs(
        table in proptest::collection::vec(0.0f64..100.0, 64),
    ) {
        // Exhaustive and bitwise conditional expectations both satisfy
        // cost(chosen) ≤ mean for ANY cost table (6-bit seed space).
        let cost = |s: u64| table[s as usize];
        for strategy in [SeedStrategy::Exhaustive, SeedStrategy::BitwiseCondExp] {
            let sel = select_seed(6, strategy, cost);
            prop_assert!(sel.satisfies_guarantee(), "{:?}", strategy);
        }
        // Exhaustive finds the global minimum.
        let exh = select_seed(6, SeedStrategy::Exhaustive, cost);
        let min = table.iter().copied().fold(f64::INFINITY, f64::min);
        prop_assert!((exh.cost - min).abs() < 1e-12);
    }

    #[test]
    fn palette_arena_roundtrip(lists in proptest::collection::vec(
        proptest::collection::vec(0u32..500, 1..10), 1..20)) {
        let arena = PaletteArena::from_lists(&lists);
        for (v, list) in lists.iter().enumerate() {
            let mut dedup: Vec<u32> = Vec::new();
            for &c in list {
                if !dedup.contains(&c) { dedup.push(c); }
            }
            prop_assert_eq!(arena.palette(v as NodeId), &dedup[..]);
        }
    }
}
