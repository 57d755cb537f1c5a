//! Replayed spans: the layers below `Solver::solve` that the solver does
//! not expose, timed from outside by calling the same public functions
//! the solver calls, on the first mid-degree stage of the solve.
//!
//! The walk mirrors `Solver::solve_rec`/`mid_degree_color`: partition
//! levels while Δ exceeds the mid-degree threshold (descending into the
//! first sub-instance the solver solves), then the first degree range
//! whose high-degree set is larger than the greedy cutoff, one
//! `color_middle` on it, then the low-degree remainder.

use crate::trace::{TimingSearcher, Tracer};
use parcolor_core::hknt::{color_middle, compute_acd, identify_vstart};
use parcolor_core::lowdeg::color_low_degree;
use parcolor_core::node_params::compute_params;
use parcolor_core::reduce::low_space_partition;
use parcolor_core::{
    ColoringState, D1lcInstance, LocalSeedSearcher, NodeId, Params, Runner, SeedSearcher,
};
use std::sync::Arc;

/// Counts measured by the replay.
#[derive(Clone, Debug, Default)]
pub struct ReplayCounts {
    /// Nodes of the replayed stage.
    pub stage_nodes: u64,
    /// Σ_{v ∈ stage} Σ_{u ∈ N(v)} d(u): the 2-hop volume the
    /// Definition-2 parameters walk.
    pub two_hop: u64,
    /// ACD dense nodes of the stage.
    pub dense_nodes: u64,
    /// Almost-cliques of the stage.
    pub cliques: u64,
    /// `|V_start|`.
    pub vstart: u64,
}

/// The solver's degree-range floors for an `n_orig`-node input (the
/// schedule `Solver::mid_degree_color` walks, highest first).
fn degree_floors(params: &Params, n_orig: usize) -> Vec<usize> {
    let mut floors = Vec::new();
    let mut t = params.low_degree_threshold(n_orig);
    loop {
        floors.push(t);
        if !params.multi_range || t <= 8 {
            break;
        }
        let next = params.low_degree_threshold(t);
        if next >= t {
            break;
        }
        t = next;
    }
    floors
}

/// The sub-instance the solver recurses into first after one partition
/// level of `inst`: the first non-empty restricted bin, else the last
/// bin, else `G_mid`.
fn first_sub_instance(
    inst: &D1lcInstance,
    params: &Params,
    n_orig: usize,
    tracer: &Tracer,
) -> D1lcInstance {
    let state = ColoringState::new(inst);
    let nodes = state.uncolored_nodes();
    let bins = params.partition_bins(n_orig);
    let threshold = params.mid_degree_threshold(n_orig);
    let part = tracer.span("reduce.partition", || {
        low_space_partition(&inst.graph, &state, &nodes, threshold, bins, 256)
    });
    if let Some(b) = part.bins[..bins - 1].iter().position(|b| !b.is_empty()) {
        let hash = &part.color_hash;
        return state
            .restricted_instance(&inst.graph, &part.bins[b], |c| {
                hash.eval(c as u64) as usize == b
            })
            .expect("Lemma 23 selection produced an invalid bin instance")
            .0;
    }
    let rest = if part.bins[bins - 1].is_empty() {
        &part.mid
    } else {
        &part.bins[bins - 1]
    };
    state.residual_instance(&inst.graph, rest).0
}

/// Replay the first mid-degree stage of solving `inst` under `params`,
/// recording `reduce.partition`, `node_params`, `acd`, `vstart`,
/// `color_middle` and `lowdeg` spans (with `search` spans inside the last
/// two) into `tracer` under a new solve id.
pub fn replay_first_stage(
    inst: &D1lcInstance,
    params: &Params,
    tracer: &Arc<Tracer>,
) -> ReplayCounts {
    tracer.begin_solve();
    let n_orig = inst.n().max(2);
    let threshold = params.mid_degree_threshold(n_orig);
    let mut sub: Option<D1lcInstance> = None;
    loop {
        let cur = sub.as_ref().unwrap_or(inst);
        // The solver's gate; the only reduce-layer work when Δ is small.
        let above = tracer.span("reduce.partition", || cur.graph.max_degree() > threshold);
        if !above {
            break;
        }
        sub = Some(first_sub_instance(cur, params, n_orig, tracer));
    }
    let inst = sub.as_ref().unwrap_or(inst);
    let g = &inst.graph;
    let mut state = ColoringState::new(inst);
    let searcher: Arc<dyn SeedSearcher> = Arc::new(TimingSearcher::new(
        Arc::new(LocalSeedSearcher),
        Arc::clone(tracer),
    ));
    let mut runner = Runner::derandomized_with(g, params, n_orig, searcher);
    let floors = degree_floors(params, n_orig);
    let stage: Vec<NodeId> = floors
        .iter()
        .map(|&floor| {
            state
                .uncolored_nodes()
                .into_iter()
                .filter(|&v| state.uncolored_degree(v) > floor)
                .collect::<Vec<_>>()
        })
        .find(|high| high.len() > params.greedy_cutoff)
        .unwrap_or_default();

    let mut counts = ReplayCounts {
        stage_nodes: stage.len() as u64,
        ..ReplayCounts::default()
    };
    if !stage.is_empty() {
        let mut active = vec![false; inst.n()];
        for &v in &stage {
            active[v as usize] = true;
        }
        counts.two_hop = stage
            .iter()
            .flat_map(|&v| g.neighbors(v))
            .map(|&u| g.degree(u) as u64)
            .sum();
        let table = tracer.span("node_params", || compute_params(g, &state, &stage, &active));
        let acd = tracer.span("acd", || compute_acd(g, &stage, &active, &table, params));
        let vs = tracer.span("vstart", || {
            identify_vstart(g, &state, &acd, &table, &active, params)
        });
        counts.dense_nodes = acd.dense_nodes().len() as u64;
        counts.cliques = acd.cliques.len() as u64;
        counts.vstart = vs.start.len() as u64;
        tracer.span("color_middle", || {
            color_middle(&mut runner, &mut state, params, &stage)
        });
    }
    let low_thr = *floors.last().expect("at least one floor");
    tracer.span("lowdeg", || {
        let low: Vec<NodeId> = state
            .uncolored_nodes()
            .into_iter()
            .filter(|&v| state.uncolored_degree(v) <= low_thr)
            .collect();
        if low.len() > params.greedy_cutoff {
            color_low_degree(g, &mut state, &low, &mut runner, params.greedy_cutoff);
        }
    });
    counts
}
