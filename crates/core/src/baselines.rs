//! Baseline D1LC algorithms for the comparison experiments (E7/E8).
//!
//! * [`greedy_sequential`] — the textbook sequential greedy, the
//!   correctness yardstick (one pass, zero parallelism).
//! * [`random_order_greedy`] — greedy along a seeded random permutation
//!   (removes adversarial-order artifacts from color-count comparisons).
//! * [`luby_style_local`] — the classic fully-randomized LOCAL coloring
//!   loop: every uncolored node tries a random palette color each round
//!   until done.  This is the "plain randomized LOCAL" baseline whose
//!   round count the HKNT pipeline beats on slack-rich instances.

use crate::instance::{ColoringState, D1lcInstance, NO_COLOR};
use parcolor_local::graph::NodeId;
use parcolor_local::tape::{CryptoTape, Randomness, SplitMix};

/// Result of a baseline run.
#[derive(Clone, Debug)]
pub struct BaselineResult {
    /// Rounds used (sequential baselines report `n`).
    pub rounds: u64,
    /// Number of distinct colors in the output.
    pub distinct_colors: usize,
}

fn distinct(colors: &[u32]) -> usize {
    let mut cs: Vec<u32> = colors.to_vec();
    cs.sort_unstable();
    cs.dedup();
    cs.len()
}

/// Sequential greedy in id order.  Always succeeds on a valid instance.
pub fn greedy_sequential(inst: &D1lcInstance) -> (Vec<u32>, BaselineResult) {
    let order: Vec<NodeId> = (0..inst.n() as NodeId).collect();
    greedy_in_order(inst, &order)
}

/// Sequential greedy along a seeded random permutation.
pub fn random_order_greedy(inst: &D1lcInstance, seed: u64) -> (Vec<u32>, BaselineResult) {
    let mut order: Vec<NodeId> = (0..inst.n() as NodeId).collect();
    SplitMix::new(seed).shuffle(&mut order);
    greedy_in_order(inst, &order)
}

fn greedy_in_order(inst: &D1lcInstance, order: &[NodeId]) -> (Vec<u32>, BaselineResult) {
    let colors = inst
        .graph
        .greedy_color_with(order, |v| inst.palettes.palette(v).to_vec())
        .expect("greedy cannot fail on a valid D1LC instance");
    inst.verify_coloring(&colors).expect("greedy invalid");
    let res = BaselineResult {
        rounds: inst.n() as u64, // sequential: one "round" per node
        distinct_colors: distinct(&colors),
    };
    (colors, res)
}

/// Fully randomized LOCAL coloring: every round, every uncolored node
/// draws a uniform color from its residual palette and keeps it if no
/// uncolored neighbor drew the same.  Terminates with probability 1;
/// returns the verified coloring and the number of rounds used.
pub fn luby_style_local(
    inst: &D1lcInstance,
    key: u64,
    max_rounds: u64,
) -> (Vec<u32>, BaselineResult) {
    let g = &inst.graph;
    let tape = CryptoTape::new(key);
    let mut state = ColoringState::new(inst);
    let mut rounds = 0u64;
    while state.uncolored_count() > 0 {
        rounds += 1;
        assert!(
            rounds <= max_rounds,
            "luby-style loop exceeded {max_rounds} rounds"
        );
        let unc = state.uncolored_nodes();
        let pick = |v: NodeId| -> u32 {
            let pal = state.palette(v);
            pal[tape.below(v, rounds, 0, pal.len() as u64) as usize]
        };
        let adoptions: Vec<(NodeId, u32)> = unc
            .iter()
            .filter_map(|&v| {
                let c = pick(v);
                let clash = g
                    .neighbors(v)
                    .iter()
                    .any(|&u| !state.is_colored(u) && pick(u) == c);
                (!clash).then_some((v, c))
            })
            .collect();
        state.apply_adoptions(g, &adoptions);
    }
    let colors = state.into_colors().unwrap();
    inst.verify_coloring(&colors).expect("luby-style invalid");
    let d = distinct(&colors);
    (
        colors,
        BaselineResult {
            rounds,
            distinct_colors: d,
        },
    )
}

/// Count of colors that verify as unused — a fairness metric shared by the
/// E8 table (all algorithms use ≤ max palette size colors by construction,
/// so the interesting quantity is how many distinct ones they spend).
pub fn colors_used(colors: &[u32]) -> usize {
    assert!(colors.iter().all(|&c| c != NO_COLOR));
    distinct(colors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcolor_local::graph::Graph;

    fn random_inst(n: usize, m: usize, seed: u64) -> D1lcInstance {
        let mut rng = SplitMix::new(seed);
        let mut edges = Vec::new();
        while edges.len() < m {
            let a = rng.below(n as u64) as NodeId;
            let b = rng.below(n as u64) as NodeId;
            if a != b {
                edges.push((a.min(b), a.max(b)));
            }
        }
        D1lcInstance::delta_plus_one(Graph::from_edges(n, &edges))
    }

    #[test]
    fn greedy_solves() {
        let inst = random_inst(200, 600, 1);
        let (colors, res) = greedy_sequential(&inst);
        assert_eq!(colors.len(), 200);
        assert!(res.distinct_colors <= inst.graph.max_degree() + 1);
    }

    #[test]
    fn random_order_greedy_varies_with_seed() {
        let inst = random_inst(200, 600, 2);
        let (c1, _) = random_order_greedy(&inst, 1);
        let (c2, _) = random_order_greedy(&inst, 2);
        assert_ne!(c1, c2);
    }

    #[test]
    fn luby_style_terminates_fast() {
        let inst = random_inst(500, 2000, 3);
        let (_, res) = luby_style_local(&inst, 7, 10_000);
        // O(log n) rounds with high probability; 60 is a generous cap.
        assert!(res.rounds < 60, "rounds = {}", res.rounds);
    }

    #[test]
    fn luby_style_reproducible() {
        let inst = random_inst(100, 300, 4);
        let (c1, r1) = luby_style_local(&inst, 42, 10_000);
        let (c2, r2) = luby_style_local(&inst, 42, 10_000);
        assert_eq!(c1, c2);
        assert_eq!(r1.rounds, r2.rounds);
    }

    #[test]
    fn colors_used_counts_distinct() {
        assert_eq!(colors_used(&[1, 2, 1, 3]), 3);
    }
}
