//! `ColorMiddle` (Algorithm 1): the full HKNT22 stage for one degree
//! range — ACD, then ColorSparse (Algorithm 5), then ColorDense
//! (Algorithm 7) — driven through the derandomization framework.
//!
//! Every randomized subprocedure goes through [`Runner::run_step`], so the
//! same code path realizes both Lemma 4 (randomized, `CryptoTape`) and
//! Lemma 15 (derandomized, PRG + conditional expectations).  Deterministic
//! parts (parameters, ACD, `Vstart`, leaders/outliers — Lemma 16) are
//! computed directly and charged `O(1)` MPC rounds.

use crate::config::Params;
use crate::framework::Runner;
use crate::hknt::acd::{compute_acd, NodeClass};
use crate::hknt::procs::{
    CliquePutAside, CliqueTrial, GenerateSlack, PutAside, StageSet, SynchColorTrial,
};
use crate::hknt::slack_color::{live, slack_color, SlackColorReport};
use crate::hknt::vstart::identify_vstart;
use crate::instance::ColoringState;
use crate::node_params::compute_params;
use parcolor_local::graph::NodeId;

/// Statistics of one `ColorMiddle` invocation.
#[derive(Clone, Debug, Default)]
pub struct MidReport {
    /// Nodes the stage started with.
    pub stage_size: usize,
    /// ACD-classified sparse nodes.
    pub sparse: usize,
    /// ACD-classified uneven nodes.
    pub uneven: usize,
    /// ACD-classified dense nodes.
    pub dense: usize,
    /// Almost-cliques found.
    pub cliques: usize,
    /// Cliques with low slackability (put-aside candidates).
    pub low_slack_cliques: usize,
    /// Size of `Vstart`.
    pub vstart: usize,
    /// Size of the put-aside set `P`.
    pub put_aside: usize,
    /// Stage nodes colored by the end.
    pub colored: usize,
    /// Stage nodes deferred by the end.
    pub deferred: usize,
    /// Per-series SlackColor breakdowns.
    pub slack_color_reports: Vec<SlackColorReport>,
}

/// Run one ColorMiddle stage on `stage_nodes` (uncolored nodes whose
/// degrees fall in the stage's range; the caller selects the range).
pub fn color_middle(
    runner: &mut Runner,
    state: &mut ColoringState,
    params: &Params,
    stage_nodes: &[NodeId],
) -> MidReport {
    let g = runner.graph;
    let n = state.n();
    let stage: Vec<NodeId> = live(runner, state, stage_nodes);
    let mut report = MidReport {
        stage_size: stage.len(),
        ..MidReport::default()
    };
    if stage.is_empty() {
        return report;
    }
    let mut active = vec![false; n];
    for &v in &stage {
        active[v as usize] = true;
    }

    // ---- Deterministic preprocessing (Lemma 16: O(1) MPC rounds). ----
    runner
        .mpc
        .charge_two_hop_collection(g, |v| active[v as usize]);
    runner.mpc.charge_rounds(4);
    runner.engine.charge(4);
    let table = compute_params(g, state, &stage, &active);
    let acd = compute_acd(g, &stage, &active, &table, params);
    let vs = identify_vstart(g, state, &acd, &table, &active, params);

    let sparse = acd.sparse_nodes();
    let uneven = acd.uneven_nodes();
    let dense = acd.dense_nodes();
    report.sparse = sparse.len();
    report.uneven = uneven.len();
    report.dense = dense.len();
    report.cliques = acd.cliques.len();
    report.low_slack_cliques = acd.cliques.iter().filter(|c| c.low_slack).count();
    report.vstart = vs.start.len();

    let in_start = {
        let mut m = vec![false; n];
        for &v in &vs.start {
            m[v as usize] = true;
        }
        m
    };

    // ---- ColorSparse (Algorithm 5). ----
    // Step 2: GenerateSlack on (Vsparse ∪ Vuneven) \ Vstart.
    let gs_nodes: Vec<NodeId> = sparse
        .iter()
        .chain(uneven.iter())
        .copied()
        .filter(|&v| !in_start[v as usize])
        .collect();
    let gs_nodes = live(runner, state, &gs_nodes);
    if !gs_nodes.is_empty() {
        // SSP slack targets (HKNT Lemmas 10-18, scaled): sparse nodes must
        // earn slack proportional to their sparsity; uneven nodes rely on
        // later-colored high-degree neighbors (temporary slack) — auto.
        let targets: Vec<f64> = gs_nodes
            .iter()
            .map(|&v| {
                if acd.class[v as usize] == NodeClass::Sparse {
                    params.slack_frac * table.get(v).sparsity.min(table.degree(v) as f64)
                } else {
                    0.0
                }
            })
            .collect();
        let set = StageSet::new(g, gs_nodes);
        let proc = GenerateSlack::new(set, params.gs_prob, targets, 0x11);
        runner.run_step(&proc, state);
    }
    // Step 3: SlackColor(Vstart).
    let start_live = live(runner, state, &vs.start);
    if !start_live.is_empty() {
        let r = slack_color(runner, state, params, &start_live, "sparse:vstart");
        report.slack_color_reports.push(r);
    }
    // Step 4: SlackColor(Vsparse \ Vstart and Vuneven).
    let rest: Vec<NodeId> = sparse
        .iter()
        .chain(uneven.iter())
        .copied()
        .filter(|&v| !in_start[v as usize])
        .collect();
    let rest = live(runner, state, &rest);
    if !rest.is_empty() {
        let r = slack_color(runner, state, params, &rest, "sparse:rest");
        report.slack_color_reports.push(r);
    }

    // ---- ColorDense (Algorithm 7). ----
    // Step 1 (leaders/outliers) came with the ACD; charge is in Lemma 16.
    // Step 2: GenerateSlack on dense nodes.
    let dense_live = live(runner, state, &dense);
    if !dense_live.is_empty() {
        let targets: Vec<f64> = dense_live
            .iter()
            .map(|&v| {
                match acd.class[v as usize] {
                    // High-slackability cliques must generate slack; low-
                    // slackability ones are served by PutAside instead.
                    NodeClass::Dense(cid) if !acd.cliques[cid as usize].low_slack => {
                        params.slack_frac * table.get(v).slackability
                    }
                    _ => 0.0,
                }
            })
            .collect();
        let set = StageSet::new(g, dense_live);
        let proc = GenerateSlack::new(set, params.gs_prob, targets, 0x21);
        runner.run_step(&proc, state);
    }

    // Step 3: PutAside for low-slackability cliques.
    let mut put_aside_mask = vec![false; n];
    let put_cliques: Vec<CliquePutAside> = acd
        .cliques
        .iter()
        .filter(|c| c.low_slack)
        .filter_map(|c| {
            let inliers = live(runner, state, &c.inliers);
            if inliers.is_empty() {
                return None;
            }
            let ell = params.ell(c.max_degree.max(2));
            // Paper: p_s = ℓ²/(48 Δ_C).  Clamped so that the "no sampled
            // neighbor" filter keeps a constant fraction at clique scale.
            let prob = (ell * ell / (params.put_aside_div * c.max_degree.max(1) as f64))
                .min(1.0 / (2.0 * c.nodes.len() as f64));
            let expected = inliers.len() as f64 * prob;
            if expected < 2.0 {
                // Too small for a meaningful put-aside set; skip (tiny
                // cliques are finished by SynchColorTrial + SlackColor).
                return None;
            }
            Some(CliquePutAside {
                clique_id: c.id,
                inliers,
                prob,
                target: (expected * 0.25).floor().max(1.0) as usize,
            })
        })
        .collect();
    if !put_cliques.is_empty() {
        let all: Vec<NodeId> = put_cliques
            .iter()
            .flat_map(|c| c.inliers.iter().copied())
            .collect();
        let set = StageSet::new(g, all);
        let proc = PutAside {
            set,
            cliques: put_cliques,
            round_tag: 0x31,
        };
        runner.run_step(&proc, state);
        for &v in runner.last_aux() {
            put_aside_mask[v as usize] = true;
        }
        report.put_aside = runner.last_aux().len();
    }

    // Step 4: SlackColor(outliers) — put-aside nodes excluded everywhere.
    let outliers: Vec<NodeId> = acd
        .cliques
        .iter()
        .flat_map(|c| c.outliers.iter().copied())
        .filter(|&v| !put_aside_mask[v as usize])
        .collect();
    let outliers = live(runner, state, &outliers);
    if !outliers.is_empty() {
        let r = slack_color(runner, state, params, &outliers, "dense:outliers");
        report.slack_color_reports.push(r);
    }

    // Step 5: SynchColorTrial on inliers (minus put-aside).
    let trial_cliques: Vec<CliqueTrial> = acd
        .cliques
        .iter()
        .filter_map(|c| {
            if state.is_colored(c.leader) || runner.is_deferred(c.leader) {
                return None; // leader gone; SlackColor mops up below
            }
            let inliers: Vec<NodeId> = live(runner, state, &c.inliers)
                .into_iter()
                .filter(|&v| !put_aside_mask[v as usize])
                .collect();
            (!inliers.is_empty()).then_some(CliqueTrial {
                leader: c.leader,
                inliers,
            })
        })
        .collect();
    if !trial_cliques.is_empty() {
        let all: Vec<NodeId> = trial_cliques
            .iter()
            .flat_map(|c| c.inliers.iter().copied())
            .collect();
        let max_deg = g.max_degree().max(2);
        let tolerance = params.ell(max_deg).ceil().max(2.0) as usize;
        let set = StageSet::new(g, all);
        let proc = SynchColorTrial::new(set, trial_cliques, tolerance, 0x41);
        runner.run_step(&proc, state);
    }

    // Step 6: SlackColor on remaining dense nodes (incl. leaders), minus P.
    let dense_rest: Vec<NodeId> = live(runner, state, &dense)
        .into_iter()
        .filter(|&v| !put_aside_mask[v as usize])
        .collect();
    if !dense_rest.is_empty() {
        let r = slack_color(runner, state, params, &dense_rest, "dense:rest");
        report.slack_color_reports.push(r);
    }

    // Step 7: color the put-aside sets.  P is an independent set (its
    // members have no sampled neighbor at all), each with a non-empty
    // residual palette by the D1LC invariant — one O(1)-round local step.
    let put_nodes: Vec<NodeId> = (0..n as NodeId)
        .filter(|&v| put_aside_mask[v as usize] && !state.is_colored(v))
        .collect();
    if !put_nodes.is_empty() {
        let adoptions: Vec<(NodeId, u32)> = put_nodes
            .iter()
            .map(|&v| {
                let pal = state.palette(v);
                assert!(!pal.is_empty(), "put-aside node {v} has empty palette");
                (v, pal[0])
            })
            .collect();
        state.apply_adoptions(g, &adoptions);
        runner.engine.charge(2);
        runner.mpc.charge_rounds(2);
    }

    report.colored = stage.iter().filter(|&&v| state.is_colored(v)).count();
    report.deferred = stage.iter().filter(|&&v| runner.is_deferred(v)).count();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::D1lcInstance;
    use parcolor_local::graph::Graph;
    use parcolor_local::tape::SplitMix;

    /// Mixed graph: two planted cliques + a sparse random part.
    fn mixed_graph(seed: u64) -> Graph {
        let mut edges = Vec::new();
        for a in 0..16u32 {
            for b in (a + 1)..16 {
                edges.push((a, b));
            }
        }
        for a in 16..30u32 {
            for b in (a + 1)..30 {
                edges.push((a, b));
            }
        }
        let mut rng = SplitMix::new(seed);
        for _ in 0..150 {
            let a = 30 + rng.below(70) as u32;
            let b = 30 + rng.below(70) as u32;
            if a != b {
                edges.push((a.min(b), a.max(b)));
            }
        }
        // light wiring between parts
        for _ in 0..20 {
            let a = rng.below(30) as u32;
            let b = 30 + rng.below(70) as u32;
            edges.push((a, b));
        }
        Graph::from_edges(100, &edges)
    }

    #[test]
    fn pipeline_colors_most_nodes_randomized() {
        let g = mixed_graph(77);
        let inst = D1lcInstance::delta_plus_one(g.clone());
        let params = Params::default();
        let mut state = ColoringState::new(&inst);
        let mut runner = Runner::randomized(&g, &params, 1234, 100);
        let stage: Vec<NodeId> = (0..100).collect();
        let rep = color_middle(&mut runner, &mut state, &params, &stage);
        assert_eq!(rep.stage_size, 100);
        assert!(
            rep.colored + rep.deferred >= 95,
            "unaccounted nodes: colored={} deferred={}",
            rep.colored,
            rep.deferred
        );
        assert!(rep.colored >= 60, "too few colored: {}", rep.colored);
        assert!(state.verify_partial(&g).is_ok());
        assert!(state.invariant_violation().is_none());
    }

    #[test]
    fn pipeline_derandomized_is_deterministic() {
        let g = mixed_graph(42);
        let inst = D1lcInstance::delta_plus_one(g.clone());
        let params = Params::default().with_seed_bits(6);
        let run = || {
            let mut state = ColoringState::new(&inst);
            let mut runner = Runner::derandomized(&g, &params, 100);
            let stage: Vec<NodeId> = (0..100).collect();
            let rep = color_middle(&mut runner, &mut state, &params, &stage);
            (state.colors().to_vec(), rep.colored, rep.deferred)
        };
        let (c1, col1, def1) = run();
        let (c2, col2, def2) = run();
        assert_eq!(c1, c2);
        assert_eq!(col1, col2);
        assert_eq!(def1, def2);
        assert!(col1 >= 60, "derandomized colored too few: {col1}");
    }

    #[test]
    fn classification_covers_the_stage() {
        let g = mixed_graph(5);
        let inst = D1lcInstance::delta_plus_one(g.clone());
        let params = Params::default();
        let mut state = ColoringState::new(&inst);
        let mut runner = Runner::randomized(&g, &params, 7, 100);
        let stage: Vec<NodeId> = (0..100).collect();
        let rep = color_middle(&mut runner, &mut state, &params, &stage);
        assert_eq!(rep.sparse + rep.uneven + rep.dense, 100);
        assert!(rep.cliques >= 2, "planted cliques lost: {}", rep.cliques);
    }

    #[test]
    fn empty_stage_is_noop() {
        let g = mixed_graph(5);
        let inst = D1lcInstance::delta_plus_one(g.clone());
        let params = Params::default();
        let mut state = ColoringState::new(&inst);
        let mut runner = Runner::randomized(&g, &params, 7, 100);
        let rep = color_middle(&mut runner, &mut state, &params, &[]);
        assert_eq!(rep.stage_size, 0);
        assert_eq!(rep.colored, 0);
    }
}
