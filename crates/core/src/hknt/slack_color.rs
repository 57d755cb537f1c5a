//! `SlackColor` (Algorithm 2 of the paper, from HKNT22): colors nodes that
//! have slack linear in their degree in `O(log* n)` rounds.
//!
//! Structure, as a series of normal procedures (Lemma 13's SlackColor
//! case):
//! 1. `O(1)` calls of `TryRandomColor` to amplify slack; nodes failing the
//!    line-2 gate `s(v) ≥ 2 d(v)` defer.
//! 2. Loop A: `x_i = 2↑↑i` (iterated exponentiation), two `MultiTrial(x_i)`
//!    per step, gate `d(v) ≤ s(v)/min(2^{x_i}, ρ^κ)` — `log* ρ` steps.
//! 3. Loop B: `x = ρ^{iκ}`, three `MultiTrial(x)` per step, gate
//!    `d(v) ≤ s(v)/min(ρ^{(i+1)κ}, ρ)` — `⌈1/κ⌉` steps.
//! 4. A final `MultiTrial(ρ)`; nodes still uncolored defer.
//!
//! Here `ρ = s_min^{1/(1+κ)}` and `s_min` lower-bounds the slack of every
//! participant (measured on the *stage* subgraph: only active neighbors
//! count toward degree, which is exactly the "temporary slack" device the
//! paper uses for `Vstart`).  All draws are capped at
//! [`MULTI_TRIAL_CAP`] candidates.

use crate::config::Params;
use crate::framework::{NormalProcedure, Runner};
use crate::hknt::procs::{MultiTrial, SspMode, StageSet, TryRandomColor, MULTI_TRIAL_CAP};
use crate::instance::ColoringState;
use parcolor_local::engine::{log_star, tower};
use parcolor_local::graph::NodeId;

/// Summary of one SlackColor series.
#[derive(Clone, Debug)]
pub struct SlackColorReport {
    /// Caller-supplied series label.
    pub label: String,
    /// Nodes the series started with.
    pub participants: usize,
    /// Participants colored.
    pub colored: usize,
    /// Participants deferred.
    pub deferred: usize,
    /// Procedure steps executed.
    pub steps: usize,
    /// Minimum stage slack after the warm-up (0 if it finished there).
    pub s_min: i64,
    /// `ρ = s_min^{1/(1+κ)}`.
    pub rho: f64,
}

/// Nodes from `nodes` that are still uncolored and not deferred.
pub(crate) fn live(runner: &Runner, state: &ColoringState, nodes: &[NodeId]) -> Vec<NodeId> {
    nodes
        .iter()
        .copied()
        .filter(|&v| !state.is_colored(v) && !runner.is_deferred(v))
        .collect()
}

/// The least stage slack over `set`'s participants: residual palette size
/// minus *active* degree (the participant's row length).
fn stage_slack(state: &ColoringState, set: &StageSet) -> i64 {
    set.active
        .iter()
        .enumerate()
        .map(|(i, &v)| state.palette_size(v) as i64 - set.degree(i) as i64)
        .min()
        .unwrap_or(1)
}

/// The step set of what is left of `initial`, if anything is.
fn live_set(runner: &Runner, state: &ColoringState, initial: &[NodeId]) -> Option<StageSet> {
    let live = live(runner, state, initial);
    (!live.is_empty()).then(|| StageSet::new(runner.graph, live))
}

/// `reps` steps on what is left of `initial`, the last under
/// `SlackRatio(gate)` and the others under `Auto`; `first`, when given,
/// is the first step's set, and `step(set, ssp, rep)` builds each one's
/// procedure.  Returns `false` as soon as nothing is left to run on.
fn gated_steps<P: NormalProcedure>(
    runner: &mut Runner,
    state: &mut ColoringState,
    initial: &[NodeId],
    mut first: Option<StageSet>,
    reps: u32,
    gate: f64,
    step: impl Fn(StageSet, SspMode, u32) -> P,
) -> bool {
    for rep in 0..reps {
        let Some(set) = first.take().or_else(|| live_set(runner, state, initial)) else {
            return false;
        };
        let ssp = if rep + 1 == reps {
            SspMode::SlackRatio(gate)
        } else {
            SspMode::Auto
        };
        runner.run_step(&step(set, ssp, rep), state);
    }
    true
}

/// Run the SlackColor series on `nodes`.  Returns the report; colored
/// nodes are committed to `state`, failures are deferred in `runner`.
pub fn slack_color(
    runner: &mut Runner,
    state: &mut ColoringState,
    params: &Params,
    nodes: &[NodeId],
    label: &str,
) -> SlackColorReport {
    let initial: Vec<NodeId> = live(runner, state, nodes);
    let participants = initial.len();
    // Every step of the series is one `run_step`, which files one report.
    let first_report = runner.reports.len();
    let report = |runner: &Runner, state: &ColoringState, s_min: i64, rho: f64| {
        let colored = initial.iter().filter(|&&v| state.is_colored(v)).count();
        let deferred = initial.iter().filter(|&&v| runner.is_deferred(v)).count();
        SlackColorReport {
            label: label.to_string(),
            participants,
            colored,
            deferred,
            steps: runner.reports.len() - first_report,
            s_min,
            rho,
        }
    };
    if initial.is_empty() {
        return report(runner, state, 0, 0.0);
    }

    // --- Phase 1: TryRandomColor warm-up + line-2 gate. ---
    let reps = params.try_color_repeats.max(1);
    let warm = |set, ssp, t| TryRandomColor::new(set, ssp, 0x100 + t as u64);
    if !gated_steps(runner, state, &initial, None, reps, 2.0, warm) {
        return report(runner, state, 0, 0.0);
    }

    // s_min over survivors, measured on the stage subgraph; the same set
    // is loop A's first step.
    let Some(survivors) = live_set(runner, state, &initial) else {
        return report(runner, state, 0, 0.0);
    };
    let s_min = stage_slack(state, &survivors).max(1);
    let mut first = Some(survivors);
    let kappa = params.kappa.clamp(0.05, 1.0);
    let rho = (s_min as f64).powf(1.0 / (1.0 + kappa)).max(2.0);
    let rho_k = rho.powf(kappa);

    // --- Phase 2, loop A: tower schedule. ---
    let loop_a_len = log_star(rho) + 1;
    for i in 0..loop_a_len {
        let xi = tower(i).min(MULTI_TRIAL_CAP as u64) as usize;
        let two_pow = if xi >= 63 {
            f64::INFINITY
        } else {
            (1u64 << xi) as f64
        };
        let gate = two_pow.min(rho_k);
        let reps = params.multi_trial_reps_a.max(1);
        let trial =
            |set, ssp, rep| MultiTrial::new(set, xi, ssp, 0x200 + i as u64 * 8 + rep as u64);
        if !gated_steps(runner, state, &initial, first.take(), reps, gate, trial) {
            return report(runner, state, s_min, rho);
        }
        if two_pow >= rho_k {
            break;
        }
    }

    // --- Phase 2, loop B: geometric schedule. ---
    let loop_b_len = (1.0 / kappa).ceil() as u32;
    for i in 1..=loop_b_len {
        let x = rho.powf(i as f64 * kappa).ceil() as usize;
        let gate = rho.powf((i + 1) as f64 * kappa).min(rho);
        let reps = params.multi_trial_reps_b.max(1);
        let trial = |set, ssp, rep| MultiTrial::new(set, x, ssp, 0x300 + i as u64 * 8 + rep as u64);
        if !gated_steps(runner, state, &initial, None, reps, gate, trial) {
            return report(runner, state, s_min, rho);
        }
    }

    // --- Phase 3: final MultiTrial(ρ); survivors defer. ---
    if let Some(set) = live_set(runner, state, &initial) {
        let proc = MultiTrial::new(set, rho.ceil() as usize, SspMode::Colored, 0x400);
        runner.run_step(&proc, state);
    }

    report(runner, state, s_min, rho)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{D1lcInstance, PaletteArena};
    use parcolor_local::graph::Graph;

    /// Ring with inflated palettes: every node has slack ≈ palette − 2.
    fn slack_ring(n: usize, extra: usize) -> D1lcInstance {
        let edges: Vec<_> = (0..n as NodeId)
            .map(|i| (i, (i + 1) % n as NodeId))
            .collect();
        let g = Graph::from_edges(n, &edges);
        let lists: Vec<Vec<u32>> = (0..n).map(|_| (0..(3 + extra) as u32).collect()).collect();
        D1lcInstance::new(g, PaletteArena::from_lists(&lists))
    }

    #[test]
    fn colors_everything_with_linear_slack_randomized() {
        let inst = slack_ring(200, 6);
        let params = Params::default();
        let mut state = ColoringState::new(&inst);
        let mut runner = Runner::randomized(&inst.graph, &params, 99, 200);
        let nodes: Vec<NodeId> = (0..200).collect();
        let rep = slack_color(&mut runner, &mut state, &params, &nodes, "test");
        assert_eq!(rep.participants, 200);
        assert_eq!(rep.colored + rep.deferred, 200);
        // With slack 7 ≫ degree 2, deferral should be rare.
        assert!(rep.deferred <= 10, "deferred = {}", rep.deferred);
        assert!(state.verify_partial(&inst.graph).is_ok());
    }

    #[test]
    fn colors_everything_derandomized() {
        let inst = slack_ring(100, 6);
        let params = Params::default().with_seed_bits(6);
        let mut state = ColoringState::new(&inst);
        let mut runner = Runner::derandomized(&inst.graph, &params, 100);
        let nodes: Vec<NodeId> = (0..100).collect();
        let rep = slack_color(&mut runner, &mut state, &params, &nodes, "test");
        assert_eq!(rep.colored + rep.deferred, 100);
        assert!(
            rep.deferred <= 5,
            "derandomized deferral too high: {}",
            rep.deferred
        );
        assert!(state.verify_partial(&inst.graph).is_ok());
    }

    #[test]
    fn empty_input_is_a_noop() {
        let inst = slack_ring(10, 2);
        let params = Params::default();
        let mut state = ColoringState::new(&inst);
        let mut runner = Runner::randomized(&inst.graph, &params, 1, 10);
        let rep = slack_color(&mut runner, &mut state, &params, &[], "empty");
        assert_eq!(rep.participants, 0);
        assert_eq!(rep.steps, 0);
    }

    #[test]
    fn already_colored_nodes_are_skipped() {
        let inst = slack_ring(10, 2);
        let params = Params::default();
        let mut state = ColoringState::new(&inst);
        state.apply_adoptions(&inst.graph, &[(0, 0), (5, 0)]);
        let mut runner = Runner::randomized(&inst.graph, &params, 1, 10);
        let nodes: Vec<NodeId> = (0..10).collect();
        let rep = slack_color(&mut runner, &mut state, &params, &nodes, "partial");
        assert_eq!(rep.participants, 8);
    }

    #[test]
    fn round_count_is_log_star_shaped() {
        // Steps should grow like log*(slack), i.e. barely at all.
        let small = {
            let inst = slack_ring(64, 4);
            let params = Params::default();
            let mut state = ColoringState::new(&inst);
            let mut runner = Runner::randomized(&inst.graph, &params, 3, 64);
            let nodes: Vec<NodeId> = (0..64).collect();
            slack_color(&mut runner, &mut state, &params, &nodes, "s").steps
        };
        let large = {
            let inst = slack_ring(1024, 60);
            let params = Params::default();
            let mut state = ColoringState::new(&inst);
            let mut runner = Runner::randomized(&inst.graph, &params, 3, 1024);
            let nodes: Vec<NodeId> = (0..1024).collect();
            slack_color(&mut runner, &mut state, &params, &nodes, "l").steps
        };
        assert!(
            large <= small + 8,
            "steps grew too fast: {small} -> {large}"
        );
    }
}
