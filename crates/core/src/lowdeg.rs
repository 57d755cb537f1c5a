//! Deterministic D1LC for low-degree instances — our substitute for
//! CDP21c's Lemma 14 (see DESIGN.md §5 for the substitution record).
//!
//! Primary method ([`color_low_degree`]): repeated **derandomized
//! TryRandomColor**.  Under uniform random trials a node with
//! `p(v) ≥ d(v) + 1` keeps its color with probability
//! `∏_{u∈N(v)} (1 − 1/p(u)) ≥ e^{-1}`-ish, so the expected colored
//! fraction per round is a constant; the conditional-expectations seed
//! choice turns that expectation into a *deterministic guarantee* (the
//! chosen seed colors at least the seed-space mean).  Hence `O(log n)`
//! deterministic rounds, each `O(1)` MPC rounds — the same framework
//! machinery as the main pipeline, applied to the low-degree remainder.
//! (CDP21c's own Lemma 14 achieves `O(log log log n)`; it is an entire
//! separate paper.  Our substitute preserves the contract that matters
//! here: deterministic, complete, round count ≪ any polynomial.)
//!
//! Fallback/ablation method ([`color_low_degree_linial`]): Linial's
//! `O(Δ²·polylog)`-coloring followed by a one-round-per-class greedy
//! sweep — the textbook approach, whose round count degrades to `O(n)`
//! when `Δ² log n ≳ n` (measured by experiment E9's cousin in
//! EXPERIMENTS.md).

use crate::framework::Runner;
use crate::hknt::procs::{SspMode, StageSet, TryRandomColor};
use crate::instance::ColoringState;
use crate::linial::linial_coloring;
use parcolor_local::engine::RoundEngine;
use parcolor_local::graph::{Graph, NodeId};
use parcolor_mpc::NodeMpc;

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
        runner.engine.charge(1, rest.len() as u64);
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

/// Report of the Linial-based fallback.
#[derive(Clone, Debug)]
pub struct LinialSweepReport {
    /// Nodes handled by the invocation.
    pub participants: usize,
    /// Colors in the Linial coloring.
    pub linial_colors: usize,
    /// Rounds Linial's reduction used.
    pub linial_rounds: u64,
    /// Non-empty classes swept (one round each).
    pub classes_used: usize,
}

/// The textbook alternative: Linial coloring + class-by-class greedy.
/// One MPC round per non-empty class; kept for the ablation table and as
/// a runner-free fallback.
pub fn color_low_degree_linial(
    g: &Graph,
    state: &mut ColoringState,
    nodes: &[NodeId],
    engine: &mut RoundEngine,
    mpc: &NodeMpc,
) -> LinialSweepReport {
    debug_assert!(nodes.iter().all(|&v| !state.is_colored(v)));
    if nodes.is_empty() {
        return LinialSweepReport {
            participants: 0,
            linial_colors: 0,
            linial_rounds: 0,
            classes_used: 0,
        };
    }
    let mut active = vec![false; g.n()];
    for &v in nodes {
        active[v as usize] = true;
    }
    let lin = linial_coloring(g, &active);
    engine.charge(lin.rounds, nodes.len() as u64);
    mpc.charge_rounds(lin.rounds);
    mpc.charge_neighbor_broadcast(g, |v| active[v as usize], 1);

    let mut buckets: Vec<Vec<NodeId>> = vec![Vec::new(); lin.color_count];
    for &v in nodes {
        buckets[lin.colors[v as usize] as usize].push(v);
    }
    let mut classes_used = 0usize;
    for bucket in buckets.iter().filter(|b| !b.is_empty()) {
        classes_used += 1;
        let adoptions: Vec<(NodeId, u32)> = bucket
            .iter()
            .map(|&v| {
                let pal = state.palette(v);
                assert!(!pal.is_empty(), "empty residual palette (invariant broken)");
                (v, pal[0])
            })
            .collect();
        state.apply_adoptions(g, &adoptions);
        engine.charge(1, adoptions.len() as u64);
        mpc.charge_rounds(1);
    }
    LinialSweepReport {
        participants: nodes.len(),
        linial_colors: lin.color_count,
        linial_rounds: lin.rounds,
        classes_used,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Params;
    use crate::instance::D1lcInstance;
    use parcolor_local::tape::SplitMix;
    use parcolor_mpc::MpcConfig;

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

    #[test]
    fn linial_fallback_still_works() {
        let g = random_graph(400, 1200, 5);
        let inst = D1lcInstance::delta_plus_one(g.clone());
        let mut state = ColoringState::new(&inst);
        let mut engine = RoundEngine::new();
        let mpc = NodeMpc::new(MpcConfig::new(400, 1200, 0.5));
        let nodes = state.uncolored_nodes();
        let rep = color_low_degree_linial(&g, &mut state, &nodes, &mut engine, &mpc);
        assert!(rep.classes_used <= rep.linial_colors.max(400));
        let colors = state.into_colors().unwrap();
        inst.verify_coloring(&colors).unwrap();
    }

    #[test]
    fn framework_beats_linial_sweep_on_round_count() {
        // The motivating regime: Δ²·log n ≳ n, where the Linial sweep
        // degenerates to ~n rounds but the framework stays logarithmic.
        let g = random_graph(1000, 6000, 17);
        let (_, rep, _, fw_rounds) = run_framework(&g);
        let inst = D1lcInstance::delta_plus_one(g.clone());
        let mut state = ColoringState::new(&inst);
        let mut engine = RoundEngine::new();
        let mpc = NodeMpc::new(MpcConfig::new(1000, 6000, 0.5));
        let nodes = state.uncolored_nodes();
        let lin = color_low_degree_linial(&g, &mut state, &nodes, &mut engine, &mpc);
        let lin_rounds = mpc.metrics().rounds();
        assert!(
            fw_rounds * 3 < lin_rounds,
            "framework {fw_rounds} vs linial sweep {lin_rounds} ({} classes, {} trials)",
            lin.classes_used,
            rep.trial_rounds
        );
    }
}
