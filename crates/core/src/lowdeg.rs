//! Deterministic D1LC for low-degree instances — our substitute for
//! CDP21c's Lemma 14 (the end of the next paragraph says what it keeps).
//!
//! [`color_low_degree`] runs repeated **derandomized TryRandomColor**.
//! Under uniform random trials a node with `p(v) ≥ d(v) + 1` keeps its
//! color with probability `∏_{u∈N(v)} (1 − 1/p(u)) ≥ e^{-1}`-ish, so the
//! expected colored fraction per round is a constant; the
//! conditional-expectations seed choice turns that expectation into a
//! *deterministic guarantee* (the chosen seed colors at least the
//! seed-space mean).  Hence `O(log n)` deterministic rounds, each `O(1)`
//! MPC rounds — the same framework machinery as the main pipeline,
//! applied to the low-degree remainder.  (CDP21c's own Lemma 14 achieves
//! `O(log log log n)`; it is an entire separate paper.  Our substitute
//! preserves the contract that matters here: deterministic, complete,
//! round count ≪ any polynomial.)

use crate::framework::Runner;
use crate::hknt::procs::{SspMode, StageSet, TryRandomColor};
use crate::instance::ColoringState;
use parcolor_local::graph::{Graph, NodeId};

/// Report of one low-degree coloring invocation.
#[derive(Clone, Debug)]
pub struct LowDegReport {
    /// Nodes handled by the invocation.
    pub participants: usize,
    /// Derandomized TryRandomColor rounds used.
    pub trial_rounds: usize,
    /// Nodes finished by the sequential greedy tail.
    pub greedy_tail: usize,
}

/// Deterministically color every node of `nodes` (all uncolored) through
/// the runner's framework.  Always completes.
pub fn color_low_degree(
    g: &Graph,
    state: &mut ColoringState,
    nodes: &[NodeId],
    runner: &mut Runner,
    greedy_cutoff: usize,
) -> LowDegReport {
    debug_assert!(nodes.iter().all(|&v| !state.is_colored(v)));
    let mut report = LowDegReport {
        participants: nodes.len(),
        trial_rounds: 0,
        greedy_tail: 0,
    };
    if nodes.is_empty() {
        return report;
    }
    let mut stagnant = 0u32;
    let mut tag = 0u64;
    loop {
        let live: Vec<NodeId> = nodes
            .iter()
            .copied()
            .filter(|&v| !state.is_colored(v))
            .collect();
        if live.len() <= greedy_cutoff {
            break;
        }
        let before = live.len();
        let set = StageSet::new(state.n(), live);
        // SSP = Auto: nobody defers here; the seed cost (uncolored count)
        // drives the progress guarantee instead.
        let proc = TryRandomColor::new(g, set, SspMode::Auto, 0x1000 + tag);
        tag += 1;
        runner.run_step(&proc, state);
        report.trial_rounds += 1;
        let after = nodes.iter().filter(|&&v| !state.is_colored(v)).count();
        if after == before {
            stagnant += 1;
            if stagnant >= 3 {
                break; // hand the rest to the greedy tail
            }
        } else {
            stagnant = 0;
        }
    }
    // Greedy tail on one machine (the residual fits the Theorem 12
    // "collect and finish" budget; charged as residency + one round).
    let rest: Vec<NodeId> = nodes
        .iter()
        .copied()
        .filter(|&v| !state.is_colored(v))
        .collect();
    if !rest.is_empty() {
        report.greedy_tail = rest.len();
        let words: usize =
            rest.len() * 4 + rest.iter().map(|&v| state.palette_size(v)).sum::<usize>();
        runner.mpc.charge_single_machine(words);
        runner.mpc.charge_rounds(1);
        runner.engine.charge(1);
        for &v in &rest {
            let pal = state.palette(v);
            assert!(
                !pal.is_empty(),
                "low-degree node {v} has empty residual palette (invariant broken)"
            );
            let c = pal[0];
            state.apply_adoptions(g, &[(v, c)]);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Params;
    use crate::instance::D1lcInstance;
    use parcolor_local::tape::SplitMix;

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

    fn run_framework(g: &Graph) -> (ColoringState, LowDegReport, D1lcInstance, u64) {
        let inst = D1lcInstance::delta_plus_one(g.clone());
        let mut state = ColoringState::new(&inst);
        let params = Params::default().with_seed_bits(5);
        let mut runner = Runner::derandomized(g, &params, g.n());
        let nodes = state.uncolored_nodes();
        let rep = color_low_degree(g, &mut state, &nodes, &mut runner, 32);
        let rounds = runner.mpc.metrics().rounds();
        (state, rep, inst, rounds)
    }

    #[test]
    fn colors_random_graph_completely() {
        let g = random_graph(500, 1500, 7);
        let (state, rep, inst, _) = run_framework(&g);
        assert_eq!(rep.participants, 500);
        let colors = state.into_colors().unwrap();
        inst.verify_coloring(&colors).unwrap();
    }

    #[test]
    fn trial_rounds_are_logarithmic() {
        let g = random_graph(2000, 6000, 9);
        let (_, rep, _, rounds) = run_framework(&g);
        // ~constant-fraction progress per round: far fewer than n rounds.
        assert!(rep.trial_rounds <= 40, "trial rounds {}", rep.trial_rounds);
        assert!(rounds < 200, "MPC rounds {rounds}");
    }

    #[test]
    fn greedy_tail_is_bounded() {
        let g = random_graph(800, 2400, 11);
        let (_, rep, _, _) = run_framework(&g);
        assert!(rep.greedy_tail <= 32 || rep.trial_rounds >= 3);
    }

    #[test]
    fn deterministic_output() {
        let g = random_graph(300, 900, 13);
        let (s1, _, _, _) = run_framework(&g);
        let (s2, _, _, _) = run_framework(&g);
        assert_eq!(s1.colors(), s2.colors());
    }

    #[test]
    fn works_on_partially_colored_state() {
        let g = random_graph(100, 200, 11);
        let inst = D1lcInstance::delta_plus_one(g.clone());
        let mut state = ColoringState::new(&inst);
        let c0 = state.palette(0)[0];
        state.apply_adoptions(&g, &[(0, c0)]);
        let params = Params::default().with_seed_bits(5);
        let mut runner = Runner::derandomized(&g, &params, 100);
        let nodes = state.uncolored_nodes();
        color_low_degree(&g, &mut state, &nodes, &mut runner, 16);
        let colors = state.into_colors().unwrap();
        inst.verify_coloring(&colors).unwrap();
        assert_eq!(colors[0], c0);
    }

    #[test]
    fn empty_input_noop() {
        let g = random_graph(10, 15, 3);
        let inst = D1lcInstance::delta_plus_one(g.clone());
        let mut state = ColoringState::new(&inst);
        let params = Params::default().with_seed_bits(4);
        let mut runner = Runner::derandomized(&g, &params, 10);
        let rep = color_low_degree(&g, &mut state, &[], &mut runner, 8);
        assert_eq!(rep.participants, 0);
        assert_eq!(runner.mpc.metrics().rounds(), 0);
    }
}
