//! The randomized subprocedures of HKNT22, as normal distributed
//! procedures (Definition 5 instances; see Lemma 13 of the paper).
//!
//! Conventions shared by all procedures:
//! * `active`/`mask` name the nodes participating in *this* invocation
//!   (uncolored, in the current stage, not deferred).  Inactive neighbors
//!   neither propose nor conflict.
//! * Adoption is by **symmetric abstention**: a node adopts a color only
//!   if no active neighbor proposes the same color, so batches are
//!   conflict-free by construction (re-checked by `apply_adoptions`).
//! * Every random draw is addressed `(node, stream, idx)` through the
//!   [`Randomness`] tape, keeping `simulate` a pure function of the seed —
//!   the property the derandomizer relies on.

use crate::framework::{NormalProcedure, Outcome, PickPlane, SimScratch};
use crate::instance::ColoringState;
use parcolor_local::graph::{Graph, NodeId};
use parcolor_local::simd::lane_eq_mask8;
use parcolor_local::tape::Randomness;
use parcolor_prg::SEED_BLOCK;

/// Streams used to separate the random draws inside one procedure.
const S_PICK: u64 = 1;
const S_SAMPLE: u64 = 2;
const S_PERM: u64 = 3;

/// Active-node stripe dealt per steal by the striped
/// `simulate_into_par` overrides.  Doubles as the parallelism floor:
/// with fewer than two full stripes of active nodes the fork/join
/// overhead beats the win and the override falls back to the
/// sequential arena path.
const PAR_STRIPE: usize = 1024;

/// Strong-success-property variants used across the pipeline.
#[derive(Clone, Debug)]
pub enum SspMode {
    /// Always successful (warm-up steps; deferral handled by later gates).
    Auto,
    /// Node must end colored.
    Colored,
    /// Post-state must satisfy `slack ≥ ratio · degree` (degree and slack
    /// measured on active nodes after this outcome) — the SlackColor gates.
    SlackRatio(f64),
    /// Post-state slack must reach the per-node absolute target
    /// (aligned with `active`); `target ≤ 0` means auto-success.
    SlackTarget(Vec<f64>),
}

/// Shared geometry of one procedure invocation.
#[derive(Clone, Debug)]
pub struct StageSet {
    /// Participating nodes, ascending.
    pub active: Vec<NodeId>,
    /// Dense membership mask (`mask[v] ⇔ v ∈ active`).
    pub mask: Vec<bool>,
}

impl StageSet {
    /// Build from the active node list (`n` = total node count).
    pub fn new(n: usize, active: Vec<NodeId>) -> Self {
        let mut mask = vec![false; n];
        for &v in &active {
            mask[v as usize] = true;
        }
        StageSet { active, mask }
    }

    /// Whether `v` participates.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.mask[v as usize]
    }
}

/// Post-outcome metrics: active degree and slack of `v` under a given
/// adopted-color lookup (dense map for the reference path, scratch view
/// for the fast path — one formula, two lookups, so the two paths cannot
/// diverge).  `taken` is a reusable sorted-set buffer.
fn post_deg_slack_with(
    g: &Graph,
    state: &ColoringState,
    set: &StageSet,
    adopted_of: impl Fn(NodeId) -> u32,
    taken: &mut Vec<u32>,
    v: NodeId,
) -> (usize, i64) {
    let mut deg = 0usize;
    let mut pal_lost = 0usize;
    let pal = state.palette(v);
    // Colors adopted by ≥1 neighbor that intersect v's palette.  Distinct
    // colors only: two non-adjacent neighbors may adopt the same color but
    // v's palette loses it once.  Neighbor lists are short (≤ Δ); a sorted
    // scratch vector beats hashing here.
    taken.clear();
    for &u in g.neighbors(v) {
        if !set.contains(u) {
            continue;
        }
        let c = adopted_of(u);
        if c == crate::instance::NO_COLOR {
            deg += 1;
        } else if pal.contains(&c) {
            if let Err(pos) = taken.binary_search(&c) {
                taken.insert(pos, c);
                pal_lost += 1;
            }
        }
    }
    let slack = (pal.len() - pal_lost) as i64 - deg as i64;
    (deg, slack)
}

/// [`post_deg_slack_with`] against a dense adoption map (reference path).
fn post_deg_slack(
    g: &Graph,
    state: &ColoringState,
    set: &StageSet,
    adopted: &[u32],
    v: NodeId,
) -> (usize, i64) {
    let mut taken = Vec::new();
    post_deg_slack_with(g, state, set, |u| adopted[u as usize], &mut taken, v)
}

/// Dense `adopted-color` lookup built once per SSP evaluation.
fn adoption_map(n: usize, out: &Outcome) -> Vec<u32> {
    let mut adopted = vec![crate::instance::NO_COLOR; n];
    for &(v, c) in &out.adoptions {
        adopted[v as usize] = c;
    }
    adopted
}

fn evaluate_ssp(
    g: &Graph,
    state: &ColoringState,
    set: &StageSet,
    ssp: &SspMode,
    out: &Outcome,
) -> Vec<NodeId> {
    match ssp {
        SspMode::Auto => Vec::new(),
        SspMode::Colored => {
            let adopted = adoption_map(state.n(), out);
            set.active
                .iter()
                .copied()
                .filter(|&v| adopted[v as usize] == crate::instance::NO_COLOR)
                .collect()
        }
        SspMode::SlackRatio(ratio) => {
            let adopted = adoption_map(state.n(), out);
            set.active
                .iter()
                .copied()
                .filter(|&v| {
                    if adopted[v as usize] != crate::instance::NO_COLOR {
                        return false; // colored ⇒ success
                    }
                    let (deg, slack) = post_deg_slack(g, state, set, &adopted, v);
                    (slack as f64) < ratio * deg as f64
                })
                .collect()
        }
        SspMode::SlackTarget(targets) => {
            let adopted = adoption_map(state.n(), out);
            set.active
                .iter()
                .zip(targets)
                .filter_map(|(&v, &t)| {
                    if t <= 0.0 || adopted[v as usize] != crate::instance::NO_COLOR {
                        return None;
                    }
                    let (_, slack) = post_deg_slack(g, state, set, &adopted, v);
                    ((slack as f64) < t).then_some(v)
                })
                .collect()
        }
    }
}

/// Count of active nodes left uncolored by `out` — the progress-oriented
/// seed cost used by warm-up steps.
fn uncolored_cost(set: &StageSet, state: &ColoringState, out: &Outcome) -> f64 {
    let adopted = adoption_map(state.n(), out);
    set.active
        .iter()
        .filter(|&&v| adopted[v as usize] == crate::instance::NO_COLOR)
        .count() as f64
}

// ---------------------------------------------------------------------
// Allocation-free SSP evaluation against a SimScratch (fast path).
//
// These mirror `post_deg_slack` / `evaluate_ssp` / `uncolored_cost` but
// read the scratch's dense adopted view and count instead of collecting —
// no adoption map, no Vec of failures, no per-call allocation.
// ---------------------------------------------------------------------

/// [`post_deg_slack_with`] against the scratch's adopted view (fast path).
fn post_deg_slack_scratch(
    g: &Graph,
    state: &ColoringState,
    set: &StageSet,
    scratch: &SimScratch,
    taken: &mut Vec<u32>,
    v: NodeId,
) -> (usize, i64) {
    post_deg_slack_with(g, state, set, |u| scratch.adopted_color(u), taken, v)
}

/// `evaluate_ssp(..).len()` without materializing anything.
fn evaluate_ssp_count(
    g: &Graph,
    state: &ColoringState,
    set: &StageSet,
    ssp: &SspMode,
    scratch: &mut SimScratch,
) -> usize {
    match ssp {
        SspMode::Auto => 0,
        // Adoptions are unique active nodes, so the uncolored count is a
        // length difference — O(1) in the hottest SSP mode.
        SspMode::Colored => uncolored_count_scratch(set, scratch),
        SspMode::SlackRatio(ratio) => {
            let mut taken = std::mem::take(&mut scratch.taken);
            let count = set
                .active
                .iter()
                .filter(|&&v| {
                    if scratch.adopted_color(v) != crate::instance::NO_COLOR {
                        return false; // colored ⇒ success
                    }
                    let (deg, slack) =
                        post_deg_slack_scratch(g, state, set, scratch, &mut taken, v);
                    (slack as f64) < ratio * deg as f64
                })
                .count();
            scratch.taken = taken;
            count
        }
        SspMode::SlackTarget(targets) => slack_target_count(g, state, set, targets, scratch),
    }
}

/// `SlackTarget` failure count against per-active-node targets.
fn slack_target_count(
    g: &Graph,
    state: &ColoringState,
    set: &StageSet,
    targets: &[f64],
    scratch: &mut SimScratch,
) -> usize {
    let mut taken = std::mem::take(&mut scratch.taken);
    let count = set
        .active
        .iter()
        .zip(targets.iter())
        .filter(|&(&v, &t)| {
            if t <= 0.0 || scratch.adopted_color(v) != crate::instance::NO_COLOR {
                return false;
            }
            let (_, slack) = post_deg_slack_scratch(g, state, set, scratch, &mut taken, v);
            (slack as f64) < t
        })
        .count();
    scratch.taken = taken;
    count
}

/// Active nodes left uncolored in the scratch evaluation.  Adoptions are
/// unique active nodes, so this is a constant-time difference.
fn uncolored_count_scratch(set: &StageSet, scratch: &SimScratch) -> usize {
    debug_assert!(scratch.adoptions.iter().all(|&(v, _)| set.contains(v)));
    set.active.len() - scratch.adoptions.len()
}

/// All edges whose endpoints are both in `set`, each once as `(a, b)` with
/// `a < b`.  One flat pass at first use replaces per-seed adjacency walks:
/// the clash scan then touches a contiguous edge array with pre-filtered
/// membership instead of re-checking masks per neighbor per seed.
fn collect_active_edges(g: &Graph, set: &StageSet) -> Vec<(NodeId, NodeId)> {
    let mut edges = Vec::new();
    for &v in &set.active {
        for &u in g.neighbors(v).iter().rev() {
            if u <= v {
                break;
            }
            if set.contains(u) {
                edges.push((v, u));
            }
        }
    }
    edges
}

// ---------------------------------------------------------------------
// Lane-parallel SSP evaluation against the seed-lane adoption plane.
//
// A block evaluator materializes the whole block's outcome as the plane
// pair (`PickPlane::soa`, `PickPlane::adopted_mask`): lane `s` of node
// `v` adopted color `soa[v][s]` iff bit `s` of `adopted_mask[v]` is set.
// These kernels then compute every lane's seed cost in ONE pass over the
// relevant nodes/neighborhoods — amortizing the graph traffic that the
// per-seed fallback pays once per seed — while evaluating, per lane,
// exactly the formulas of `evaluate_ssp_count` / `uncolored_count_scratch`
// (same arithmetic, same dedup, same comparisons), so block costs are
// bit-identical to the fused scalar path.
// ---------------------------------------------------------------------

/// `costs[s] =` number of active nodes unadopted in lane `s` — the lane
/// analogue of [`uncolored_count_scratch`] (and of `SspMode::Colored`'s
/// failure count).
fn lane_uncolored_costs(set: &StageSet, plane: &PickPlane, lanes: usize, costs: &mut [f64]) {
    let mut adopted = [0usize; SEED_BLOCK];
    for &v in &set.active {
        let am = plane.adopted_mask[v as usize];
        for (s, a) in adopted.iter_mut().enumerate().take(lanes) {
            *a += usize::from(am >> s & 1 == 1);
        }
    }
    for (s, c) in costs.iter_mut().enumerate() {
        *c = (set.active.len() - adopted[s]) as f64;
    }
}

/// Lane-parallel slack-failure count: for every lane `s`, `costs[s] = `
/// number of active nodes `v` with `skip(i) == false`, unadopted in lane
/// `s`, whose post-outcome slack in lane `s` falls below
/// `thresh(i, deg_s)` (where `deg_s` is `v`'s count of unadopted active
/// neighbors in lane `s`) — the lane analogue of [`slack_target_count`] /
/// the `SlackRatio` arm of [`evaluate_ssp_count`].  Walks each candidate
/// node's neighborhood ONCE for all lanes, reading adopted colors as
/// 32-byte SoA rows, with per-lane sorted-set dedup identical to the
/// scalar path's `taken` buffer.
#[allow(clippy::too_many_arguments)] // one shared kernel, two threshold shapes
fn lane_slack_fail_costs(
    g: &Graph,
    state: &ColoringState,
    set: &StageSet,
    plane: &mut PickPlane,
    lanes: usize,
    mut skip: impl FnMut(usize) -> bool,
    mut thresh: impl FnMut(usize, usize) -> f64,
    costs: &mut [f64],
) {
    let PickPlane {
        soa,
        adopted_mask,
        taken_lanes,
        ..
    } = plane;
    let full: u8 = ((1u16 << lanes) - 1) as u8;
    let mut fails = [0usize; SEED_BLOCK];
    for (i, &v) in set.active.iter().enumerate() {
        if skip(i) {
            continue;
        }
        let need = !adopted_mask[v as usize] & full;
        if need == 0 {
            continue; // adopted in every lane ⇒ success everywhere
        }
        let pal = state.palette(v);
        // deg_s = (active neighbors) − (active neighbors adopted in lane
        // s), so the neighbor loop only touches SET adoption bits —
        // iterating each mask's population instead of all 8 lanes keeps
        // the common unadopted-everywhere neighbor at one increment.
        let mut nbr = 0usize;
        let mut adopted_nbrs = [0usize; SEED_BLOCK];
        let mut pal_lost = [0usize; SEED_BLOCK];
        for t in taken_lanes.iter_mut().take(lanes) {
            t.clear();
        }
        for &u in g.neighbors(v) {
            if !set.contains(u) {
                continue;
            }
            nbr += 1;
            let mut amu = adopted_mask[u as usize];
            if amu == 0 {
                continue;
            }
            let row = &soa[u as usize];
            while amu != 0 {
                let s = amu.trailing_zeros() as usize;
                amu &= amu - 1;
                adopted_nbrs[s] += 1;
                let c = row[s];
                if pal.contains(&c) {
                    // Distinct colors only, exactly like the scalar
                    // `taken` dedup: two neighbors adopting the same
                    // color cost v's palette one entry.
                    let taken = &mut taken_lanes[s];
                    if let Err(pos) = taken.binary_search(&c) {
                        taken.insert(pos, c);
                        pal_lost[s] += 1;
                    }
                }
            }
        }
        for (s, f) in fails.iter_mut().enumerate().take(lanes) {
            if need >> s & 1 == 1 {
                let deg = nbr - adopted_nbrs[s];
                let slack = (pal.len() - pal_lost[s]) as i64 - deg as i64;
                if (slack as f64) < thresh(i, deg) {
                    *f += 1;
                }
            }
        }
    }
    for (s, c) in costs.iter_mut().enumerate() {
        *c = fails[s] as f64;
    }
}

/// Dispatch a whole block's SSP costs off the adoption plane — one entry
/// point for every `SspMode`, mirroring the per-seed dispatch in
/// [`evaluate_ssp_count`] (with `Auto` mapped to the uncolored count,
/// matching the warm-up `seed_cost` overrides).
fn lane_ssp_costs(
    g: &Graph,
    state: &ColoringState,
    set: &StageSet,
    ssp: &SspMode,
    plane: &mut PickPlane,
    lanes: usize,
    costs: &mut [f64],
) {
    match ssp {
        SspMode::Auto | SspMode::Colored => lane_uncolored_costs(set, plane, lanes, costs),
        SspMode::SlackRatio(ratio) => {
            let r = *ratio;
            lane_slack_fail_costs(
                g,
                state,
                set,
                plane,
                lanes,
                |_| false,
                |_, deg| r * deg as f64,
                costs,
            );
        }
        SspMode::SlackTarget(targets) => {
            lane_slack_fail_costs(
                g,
                state,
                set,
                plane,
                lanes,
                |i| targets[i] <= 0.0,
                |i, _| targets[i],
                costs,
            );
        }
    }
}

/// Bit `j` of the result ⇔ `mine[j] ∈ theirs`, for sorted slices with
/// `mine.len() ≤ 64` — the merge-scan equivalent of the scalar path's
/// per-candidate binary searches (identical set semantics).
fn sorted_intersect_mask(mine: &[u32], theirs: &[u32]) -> u64 {
    debug_assert!(mine.len() <= 64);
    let mut m = 0u64;
    let (mut a, mut b) = (0usize, 0usize);
    while a < mine.len() && b < theirs.len() {
        match mine[a].cmp(&theirs[b]) {
            std::cmp::Ordering::Equal => {
                m |= 1 << a;
                a += 1;
                b += 1;
            }
            std::cmp::Ordering::Less => a += 1,
            std::cmp::Ordering::Greater => b += 1,
        }
    }
    m
}

// ---------------------------------------------------------------------
// TryRandomColor (Algorithm 3)
// ---------------------------------------------------------------------

/// Each participating node picks one color uniformly at random from its
/// residual palette and keeps it unless an active neighbor picked the same
/// color.
pub struct TryRandomColor<'a> {
    /// The graph.
    pub g: &'a Graph,
    /// Participating nodes.
    pub set: StageSet,
    /// Strong-success-property variant for this call.
    pub ssp: SspMode,
    /// Distinguishes repeated calls within one stage (fresh randomness).
    pub round_tag: u64,
    /// Edges with both endpoints active, each once (`a < b`) — built
    /// lazily on the first seed evaluation and amortized over the whole
    /// seed space; read-only afterwards, shared across workers.
    active_edges: std::sync::OnceLock<Vec<(NodeId, NodeId)>>,
}

impl<'a> TryRandomColor<'a> {
    /// Construct one invocation.
    pub fn new(g: &'a Graph, set: StageSet, ssp: SspMode, round_tag: u64) -> Self {
        TryRandomColor {
            g,
            set,
            ssp,
            round_tag,
            active_edges: std::sync::OnceLock::new(),
        }
    }

    fn active_edges(&self) -> &[(NodeId, NodeId)] {
        self.active_edges
            .get_or_init(|| collect_active_edges(self.g, &self.set))
    }

    #[inline]
    fn pick(&self, state: &ColoringState, rng: &dyn Randomness, v: NodeId) -> u32 {
        let pal = state.palette(v);
        debug_assert!(!pal.is_empty());
        pal[rng.below(v, S_PICK ^ self.round_tag << 8, 0, pal.len() as u64) as usize]
    }
}

impl NormalProcedure for TryRandomColor<'_> {
    fn name(&self) -> &'static str {
        "TryRandomColor"
    }

    fn active_count(&self) -> usize {
        self.set.active.len()
    }

    fn simulate(&self, state: &ColoringState, rng: &dyn Randomness) -> Outcome {
        let adoptions: Vec<(NodeId, u32)> = self
            .set
            .active
            .iter()
            .filter_map(|&v| {
                let c = self.pick(state, rng, v);
                let clash = self
                    .g
                    .neighbors(v)
                    .iter()
                    .any(|&u| self.set.contains(u) && self.pick(state, rng, u) == c);
                (!clash).then_some((v, c))
            })
            .collect();
        Outcome {
            adoptions,
            aux: Vec::new(),
        }
    }

    fn simulate_into(&self, state: &ColoringState, rng: &dyn Randomness, scratch: &mut SimScratch) {
        scratch.begin();
        // Pick caching through the batched plane: one `fill_below` stripe
        // over the active nodes (the naïve `simulate` above re-derives
        // `pick(u)` once per incident edge, one scalar mixer call each).
        let mut plane = std::mem::take(&mut scratch.plane);
        plane.draw_below(
            rng,
            S_PICK ^ self.round_tag << 8,
            0,
            &self.set.active,
            |v| state.palette(v).len() as u64,
        );
        for (i, &v) in self.set.active.iter().enumerate() {
            scratch.set_pick(v, state.palette(v)[plane.vals[i] as usize]);
        }
        scratch.plane = plane;
        // Clashing is symmetric: one pass over the pre-filtered active
        // edge list marks both endpoints of every same-pick edge.
        for &(a, b) in self.active_edges() {
            if scratch.pick_unchecked(a) == scratch.pick_unchecked(b) {
                scratch.mark(a);
                scratch.mark(b);
            }
        }
        for &v in &self.set.active {
            if !scratch.is_marked(v) {
                let c = scratch.pick_unchecked(v);
                scratch.record_adoption(v, c);
            }
        }
    }

    /// Node-striped parallel round simulation: given the previous
    /// round's state, each active node's pick and clash bit depend only
    /// on read-only inputs, so the draw/scatter pass and the clash pass
    /// both run as stolen stripes on the executor pool.  The adoption
    /// scan stays sequential in active order, so the recorded outcome is
    /// bit-identical to [`NormalProcedure::simulate_into`] at every
    /// worker count.
    fn simulate_into_par(
        &self,
        state: &ColoringState,
        rng: &dyn Randomness,
        scratch: &mut SimScratch,
        pool: &parcolor_exec::Executor,
        workers: usize,
    ) {
        let n_active = self.set.active.len();
        let w = parcolor_exec::resolve_workers(workers)
            .min(n_active / PAR_STRIPE)
            .max(1);
        if w <= 1 {
            self.simulate_into(state, rng, scratch);
            return;
        }
        scratch.begin();
        let mut plane = std::mem::take(&mut scratch.plane);
        let stream = S_PICK ^ self.round_tag << 8;
        let active = &self.set.active[..];
        {
            let (_, picks) = scratch.plane_and_picks();
            // Pass 1: bounds gathered sequentially (one cheap scan),
            // then the bounded draws land stripe-by-stripe on the pool —
            // the tape's batch contract makes each node's draw
            // independent of stripe geometry — and each worker scatters
            // its stripe's picks (active nodes are unique, so the
            // destinations are disjoint).
            plane.bounds.clear();
            plane
                .bounds
                .extend(active.iter().map(|&v| state.palette(v).len() as u64));
            plane.vals.resize(n_active, 0);
            {
                let bounds = &plane.bounds[..];
                let scatter = parcolor_exec::ScatterMut::new(picks);
                let scatter = &scatter;
                parcolor_exec::par_fill(
                    pool,
                    w,
                    &mut plane.vals,
                    PAR_STRIPE,
                    move |start, stripe| {
                        let nodes = &active[start..start + stripe.len()];
                        rng.fill_below(
                            stream,
                            nodes,
                            0,
                            &bounds[start..start + stripe.len()],
                            stripe,
                        );
                        for (i, &v) in nodes.iter().enumerate() {
                            let c = state.palette(v)[stripe[i] as usize];
                            // SAFETY: active nodes are unique, so
                            // workers write disjoint slots.
                            unsafe { scatter.write(v as usize, c) };
                        }
                    },
                );
            }
            // Pass 2: clash bits, active-aligned.  Clashing is
            // symmetric and reads only picks written in pass 1, so each
            // node evaluates its own bit independently.
            plane.bits.resize(n_active, false);
            let picks: &[u32] = picks;
            parcolor_exec::par_fill(pool, w, &mut plane.bits, PAR_STRIPE, |start, stripe| {
                for (i, bit) in stripe.iter_mut().enumerate() {
                    let v = active[start + i];
                    let c = picks[v as usize];
                    *bit = self
                        .g
                        .neighbors(v)
                        .iter()
                        .any(|&u| self.set.contains(u) && picks[u as usize] == c);
                }
            });
        }
        // Pass 3: adoption is order-sensitive (`record_adoption` appends)
        // and stays sequential over the active order — exactly the order
        // the sequential path records.
        for (i, &v) in self.set.active.iter().enumerate() {
            if !plane.bits[i] {
                let c = scratch.pick_raw(v);
                scratch.record_adoption(v, c);
            }
        }
        scratch.plane = plane;
    }

    fn seed_cost_scratch(&self, state: &ColoringState, scratch: &mut SimScratch) -> f64 {
        match self.ssp {
            SspMode::Auto => uncolored_count_scratch(&self.set, scratch) as f64,
            _ => evaluate_ssp_count(self.g, state, &self.set, &self.ssp, scratch) as f64,
        }
    }

    fn seed_cost_fused(
        &self,
        state: &ColoringState,
        rng: &dyn Randomness,
        scratch: &mut SimScratch,
    ) -> f64 {
        match self.ssp {
            // For Colored (and the Auto warm-up cost) the failure count is
            // exactly the number of clashed nodes: skip recording the
            // adoption outcome entirely and count marks during the scan.
            SspMode::Colored | SspMode::Auto => {
                scratch.begin();
                // Stamp-free fill off the batched plane: every pick read
                // below is of a node written in this pass, so the validity
                // stamps are dead weight here.
                let mut plane = std::mem::take(&mut scratch.plane);
                plane.draw_below(
                    rng,
                    S_PICK ^ self.round_tag << 8,
                    0,
                    &self.set.active,
                    |v| state.palette(v).len() as u64,
                );
                for (i, &v) in self.set.active.iter().enumerate() {
                    scratch.set_pick_raw(v, state.palette(v)[plane.vals[i] as usize]);
                }
                scratch.plane = plane;
                let mut clashed = 0usize;
                for &(a, b) in self.active_edges() {
                    if scratch.pick_raw(a) == scratch.pick_raw(b) {
                        clashed += usize::from(scratch.mark_new(a));
                        clashed += usize::from(scratch.mark_new(b));
                    }
                }
                clashed as f64
            }
            // Slack-based SSPs need neighbors' adopted colors: full path.
            _ => {
                self.simulate_into(state, rng, scratch);
                self.seed_cost_scratch(state, scratch)
            }
        }
    }

    /// Seed-lane block evaluation: the picks of all the block's seeds are
    /// materialized as one structure-of-arrays plane (`soa[v] = [pick
    /// under seed lane 0, …, lane 7]`), then **one** pass over the active
    /// edge list compares whole 8-lane rows at a time (`lane_eq_mask8`) —
    /// amortizing the clash scan's memory traffic across up to
    /// `SEED_BLOCK` seeds, where the scalar fused path re-walks the edges
    /// once per seed.  Unused lanes are padded with the node's own id,
    /// which can never collide across an edge.
    ///
    /// For `Colored`/`Auto` each lane's clashed-node count is the cost
    /// directly; for the slack SSPs the clash masks become the lane
    /// adoption plane and the lane-parallel slack kernel evaluates all
    /// lanes' failure counts in one neighborhood pass per candidate node.
    fn seed_cost_block(
        &self,
        state: &ColoringState,
        tapes: &[&dyn Randomness],
        scratch: &mut SimScratch,
        costs: &mut [f64],
    ) {
        debug_assert_eq!(tapes.len(), costs.len());
        scratch.begin();
        let mut plane = std::mem::take(&mut scratch.plane);
        // Bounds gathered once for the whole block.
        let n_active = self.set.active.len();
        plane.bounds.clear();
        plane.bounds.extend(
            self.set
                .active
                .iter()
                .map(|&v| state.palette(v).len() as u64),
        );
        plane.soa.resize(state.n(), [0u32; SEED_BLOCK]);
        // All lanes' draws land in one stripe-major buffer
        // (lane s at offset s·n_active) …
        plane.vals.resize(n_active * tapes.len(), 0);
        let stream = S_PICK ^ self.round_tag << 8;
        for (s, tape) in tapes.iter().enumerate() {
            let out = &mut plane.vals[s * n_active..(s + 1) * n_active];
            tape.fill_below(stream, &self.set.active, 0, &plane.bounds, out);
        }
        // … so the pick map resolves each node's palette once and
        // writes its whole seed-lane row (pad lanes get the node's
        // own id, which can never collide across an edge).
        let vals = &plane.vals;
        let soa = &mut plane.soa;
        for (i, &v) in self.set.active.iter().enumerate() {
            let pal = state.palette(v);
            let lanes = &mut soa[v as usize];
            for (s, lane) in lanes.iter_mut().take(tapes.len()).enumerate() {
                *lane = pal[vals[s * n_active + i] as usize];
            }
            for lane in lanes.iter_mut().skip(tapes.len()) {
                *lane = v;
            }
        }
        // One lane-parallel clash scan for the whole block: each
        // edge contributes a lane-equality bitmask OR-ed into both
        // endpoints' accumulators — branchless, so the (frequent)
        // clash case costs the same as the clean case.  Pad lanes
        // never fire (distinct endpoint ids), so every set bit
        // belongs to a real seed lane.
        plane.lane_mask.resize(state.n(), 0);
        for &v in &self.set.active {
            plane.lane_mask[v as usize] = 0;
        }
        let soa = &plane.soa;
        let mask = &mut plane.lane_mask;
        for &(a, b) in self.active_edges() {
            let eq = lane_eq_mask8(&soa[a as usize], &soa[b as usize]);
            mask[a as usize] |= eq;
            mask[b as usize] |= eq;
        }
        match self.ssp {
            // For Colored (and the Auto warm-up cost) the failure count
            // is exactly the per-lane number of clashed nodes, read off
            // the masks in one pass over the active stripe.
            SspMode::Colored | SspMode::Auto => {
                let mut clashed = [0usize; SEED_BLOCK];
                for &v in &self.set.active {
                    let m = plane.lane_mask[v as usize];
                    if m != 0 {
                        for (s, c) in clashed.iter_mut().enumerate() {
                            *c += usize::from(m >> s & 1);
                        }
                    }
                }
                for (s, c) in costs.iter_mut().enumerate() {
                    *c = clashed[s] as f64;
                }
            }
            // Slack-based SSPs: every active node holds a pick, so the
            // lane adoption plane is just the complement of the clash
            // mask; the lane-parallel slack kernel does the rest.
            _ => {
                let full: u8 = ((1u16 << tapes.len()) - 1) as u8;
                plane.adopted_mask.resize(state.n(), 0);
                for &v in &self.set.active {
                    plane.adopted_mask[v as usize] = !plane.lane_mask[v as usize] & full;
                }
                lane_ssp_costs(
                    self.g,
                    state,
                    &self.set,
                    &self.ssp,
                    &mut plane,
                    tapes.len(),
                    costs,
                );
            }
        }
        scratch.plane = plane;
    }

    fn ssp_failures(&self, state: &ColoringState, out: &Outcome) -> Vec<NodeId> {
        evaluate_ssp(self.g, state, &self.set, &self.ssp, out)
    }

    fn seed_cost(&self, state: &ColoringState, out: &Outcome) -> f64 {
        match self.ssp {
            // Warm-up: maximize colored nodes.
            SspMode::Auto => uncolored_cost(&self.set, state, out),
            _ => self.ssp_failures(state, out).len() as f64,
        }
    }
}

// ---------------------------------------------------------------------
// MultiTrial (Algorithm 4)
// ---------------------------------------------------------------------

/// Cap on the number of colors one MultiTrial draws per node.  The paper's
/// `x` can reach `ρ = s_min^{1/(1+κ)}`; at implementation scale, 64
/// simultaneous candidates already drive the per-trial failure probability
/// below 2⁻⁶⁴-ish for the slack ratios the gates enforce.
pub const MULTI_TRIAL_CAP: usize = 64;

/// Each participating node draws `x` distinct palette colors; it adopts
/// one that no active neighbor drew.
pub struct MultiTrial<'a> {
    /// The graph.
    pub g: &'a Graph,
    /// Participating nodes.
    pub set: StageSet,
    /// Candidate colors drawn per node.
    pub x: usize,
    /// Strong-success-property variant for this call.
    pub ssp: SspMode,
    /// Distinguishes repeated calls within one stage.
    pub round_tag: u64,
    /// Position of each node in `set.active` (for proposal lookup).
    pos: Vec<u32>,
}

impl<'a> MultiTrial<'a> {
    /// Construct one invocation (`x` clamped to [`MULTI_TRIAL_CAP`]).
    pub fn new(g: &'a Graph, set: StageSet, x: usize, ssp: SspMode, round_tag: u64) -> Self {
        let mut pos = vec![u32::MAX; g.n()];
        for (i, &v) in set.active.iter().enumerate() {
            pos[v as usize] = i as u32;
        }
        MultiTrial {
            g,
            set,
            x: x.clamp(1, MULTI_TRIAL_CAP),
            ssp,
            round_tag,
            pos,
        }
    }

    /// Sorted set of `min(x, p(v))` distinct colors from `v`'s palette.
    fn draw(&self, state: &ColoringState, rng: &dyn Randomness, v: NodeId) -> Vec<u32> {
        let mut buf = Vec::new();
        let mut tmp = Vec::new();
        let mut words = Vec::new();
        self.draw_into(state, rng, v, &mut buf, &mut tmp, &mut words);
        buf
    }

    /// Append the sorted candidate set of `v` to `buf` (allocation-free
    /// once the buffers have warmed up).  The node's tape words are
    /// fetched as one `fill_words_seq` stripe into `words`; tape
    /// addressing is identical to the historical scalar `draw`, so
    /// outcomes are unchanged.
    fn draw_into(
        &self,
        state: &ColoringState,
        rng: &dyn Randomness,
        v: NodeId,
        buf: &mut Vec<u32>,
        tmp: &mut Vec<u32>,
        words: &mut Vec<u64>,
    ) {
        let pal = state.palette(v);
        let want = self.x.min(pal.len());
        let stream = S_PICK ^ (self.round_tag << 8) ^ 0x4d54;
        let start = buf.len();
        words.resize(want, 0);
        if want * 2 >= pal.len() {
            // Dense draw: partial Fisher-Yates over a palette copy, words
            // at idx 0..want batched up front.
            rng.fill_words_seq(v, stream, 0, words);
            tmp.clear();
            tmp.extend_from_slice(pal);
            for (i, &w) in words.iter().enumerate() {
                let bound = (tmp.len() - i) as u64;
                let j = i + ((w as u128 * bound as u128) >> 64) as usize;
                tmp.swap(i, j);
            }
            buf.extend_from_slice(&tmp[..want]);
        } else {
            // Sparse draw: rejection sampling of distinct indices.  The
            // loop consumes at least `want` words (idx 1000, 1001, …), so
            // that minimum is prefetched as a stripe; collisions beyond it
            // fall back to scalar reads of the same addresses.
            rng.fill_words_seq(v, stream, 1000, words);
            let mut idx = 0u32;
            while buf.len() - start < want {
                let w = match words.get(idx as usize) {
                    Some(&w) => w,
                    None => rng.word(v, stream, 1000 + idx),
                };
                let j = ((w as u128 * pal.len() as u128) >> 64) as usize;
                idx += 1;
                let c = pal[j];
                if !buf[start..].contains(&c) {
                    buf.push(c);
                }
            }
        }
        buf[start..].sort_unstable();
    }
}

impl NormalProcedure for MultiTrial<'_> {
    fn name(&self) -> &'static str {
        "MultiTrial"
    }

    fn active_count(&self) -> usize {
        self.set.active.len()
    }

    fn simulate(&self, state: &ColoringState, rng: &dyn Randomness) -> Outcome {
        // Phase 1: every active node draws its candidate set.
        let draws: Vec<Vec<u32>> = self
            .set
            .active
            .iter()
            .map(|&v| self.draw(state, rng, v))
            .collect();
        // Phase 2: adopt the first candidate no active neighbor drew.
        let adoptions: Vec<(NodeId, u32)> = self
            .set
            .active
            .iter()
            .enumerate()
            .filter_map(|(i, &v)| {
                let mine = &draws[i];
                'cand: for &c in mine {
                    for &u in self.g.neighbors(v) {
                        if !self.set.contains(u) {
                            continue;
                        }
                        let theirs = &draws[self.pos[u as usize] as usize];
                        if theirs.binary_search(&c).is_ok() {
                            continue 'cand;
                        }
                    }
                    return Some((v, c));
                }
                None
            })
            .collect();
        Outcome {
            adoptions,
            aux: Vec::new(),
        }
    }

    fn simulate_into(&self, state: &ColoringState, rng: &dyn Randomness, scratch: &mut SimScratch) {
        scratch.begin();
        // Phase 1: every active node draws into the flat candidate arena.
        let mut draw_colors = std::mem::take(&mut scratch.draw_colors);
        let mut draw_off = std::mem::take(&mut scratch.draw_off);
        let mut tmp = std::mem::take(&mut scratch.perm);
        let mut words = std::mem::take(&mut scratch.plane.vals);
        draw_off.push(0);
        for &v in &self.set.active {
            self.draw_into(state, rng, v, &mut draw_colors, &mut tmp, &mut words);
            draw_off.push(draw_colors.len());
        }
        scratch.plane.vals = words;
        // Phase 2: adopt the first candidate no active neighbor drew.
        for (i, &v) in self.set.active.iter().enumerate() {
            let mine = &draw_colors[draw_off[i]..draw_off[i + 1]];
            'cand: for &c in mine {
                for &u in self.g.neighbors(v) {
                    if !self.set.contains(u) {
                        continue;
                    }
                    let p = self.pos[u as usize] as usize;
                    let theirs = &draw_colors[draw_off[p]..draw_off[p + 1]];
                    if theirs.binary_search(&c).is_ok() {
                        continue 'cand;
                    }
                }
                scratch.record_adoption(v, c);
                break;
            }
        }
        scratch.draw_colors = draw_colors;
        scratch.draw_off = draw_off;
        scratch.perm = tmp;
    }

    fn seed_cost_scratch(&self, state: &ColoringState, scratch: &mut SimScratch) -> f64 {
        match self.ssp {
            SspMode::Auto => uncolored_count_scratch(&self.set, scratch) as f64,
            _ => evaluate_ssp_count(self.g, state, &self.set, &self.ssp, scratch) as f64,
        }
    }

    /// Seed-lane block evaluation: all lanes' candidate sets are drawn
    /// into one lane-major flat arena (identical tape addresses to the
    /// scalar draw), then the adoption scan walks each node's
    /// neighborhood **once** for the whole block — per neighbor, a
    /// sorted merge-intersection eliminates the node's surviving
    /// candidates in every lane at once (64-bit alive masks, one bit per
    /// candidate), where the per-seed fallback re-walks the neighbor
    /// list and re-runs the binary searches once per seed.  The first
    /// surviving candidate per lane is the adopted color, feeding the
    /// lane-parallel SSP kernel.
    fn seed_cost_block(
        &self,
        state: &ColoringState,
        tapes: &[&dyn Randomness],
        scratch: &mut SimScratch,
        costs: &mut [f64],
    ) {
        debug_assert_eq!(tapes.len(), costs.len());
        let lanes = tapes.len();
        scratch.begin();
        let n_active = self.set.active.len();
        let mut plane = std::mem::take(&mut scratch.plane);
        let mut draw_colors = std::mem::take(&mut scratch.draw_colors);
        let mut draw_off = std::mem::take(&mut scratch.draw_off);
        let mut tmp = std::mem::take(&mut scratch.perm);
        // Phase 1: lane-major candidate arena; range of (lane s, active
        // index i) is draw_off[s·n_active + i] .. draw_off[s·n_active + i + 1].
        draw_off.push(0);
        for tape in tapes {
            for &v in &self.set.active {
                self.draw_into(state, *tape, v, &mut draw_colors, &mut tmp, &mut plane.vals);
                draw_off.push(draw_colors.len());
            }
        }
        // Phase 2: block adoption scan.
        plane.soa.resize(state.n(), [0u32; SEED_BLOCK]);
        plane.adopted_mask.resize(state.n(), 0);
        let off = |s: usize, i: usize| (draw_off[s * n_active + i], draw_off[s * n_active + i + 1]);
        for (i, &v) in self.set.active.iter().enumerate() {
            let mut alive = [0u64; SEED_BLOCK];
            for (s, a) in alive.iter_mut().enumerate().take(lanes) {
                let (lo, hi) = off(s, i);
                let want = hi - lo;
                *a = if want >= 64 {
                    u64::MAX
                } else {
                    (1u64 << want) - 1
                };
            }
            for &u in self.g.neighbors(v) {
                if !self.set.contains(u) {
                    continue;
                }
                let p = self.pos[u as usize] as usize;
                let mut any = 0u64;
                for (s, a) in alive.iter_mut().enumerate().take(lanes) {
                    if *a == 0 {
                        continue;
                    }
                    let (lo, hi) = off(s, i);
                    let (ulo, uhi) = off(s, p);
                    *a &= !sorted_intersect_mask(&draw_colors[lo..hi], &draw_colors[ulo..uhi]);
                    any |= *a;
                }
                if any == 0 {
                    break; // eliminated everywhere: no lane can adopt
                }
            }
            let mut am = 0u8;
            let row = &mut plane.soa[v as usize];
            for (s, &a) in alive.iter().enumerate().take(lanes) {
                if a != 0 {
                    let (lo, _) = off(s, i);
                    // First surviving candidate in sorted order — exactly
                    // the scalar path's first adoptable color.
                    row[s] = draw_colors[lo + a.trailing_zeros() as usize];
                    am |= 1 << s;
                }
            }
            plane.adopted_mask[v as usize] = am;
        }
        lane_ssp_costs(
            self.g, state, &self.set, &self.ssp, &mut plane, lanes, costs,
        );
        scratch.plane = plane;
        scratch.draw_colors = draw_colors;
        scratch.draw_off = draw_off;
        scratch.perm = tmp;
    }

    fn ssp_failures(&self, state: &ColoringState, out: &Outcome) -> Vec<NodeId> {
        evaluate_ssp(self.g, state, &self.set, &self.ssp, out)
    }

    fn seed_cost(&self, state: &ColoringState, out: &Outcome) -> f64 {
        match self.ssp {
            SspMode::Auto => uncolored_cost(&self.set, state, out),
            _ => self.ssp_failures(state, out).len() as f64,
        }
    }
}

// ---------------------------------------------------------------------
// GenerateSlack (Algorithm 6)
// ---------------------------------------------------------------------

/// Every node joins a set `S` independently with probability `p`; nodes in
/// `S` run one TryRandomColor among themselves.  Same-colored pairs of
/// sampled neighbors "collide away" palette colors of bystanders, creating
/// permanent slack (HKNT's slack-generation lemmas).
pub struct GenerateSlack<'a> {
    /// The graph.
    pub g: &'a Graph,
    /// Participating nodes.
    pub set: StageSet,
    /// Sampling probability (paper: 1/10).
    pub prob: f64,
    /// Per-active-node slack targets (the SSP); entries `≤ 0` auto-succeed.
    pub targets: Vec<f64>,
    /// Distinguishes repeated calls within one stage.
    pub round_tag: u64,
    /// Active-active edges, built lazily at first seed evaluation.
    active_edges: std::sync::OnceLock<Vec<(NodeId, NodeId)>>,
}

impl<'a> GenerateSlack<'a> {
    /// Construct one invocation (`targets` aligned with `set.active`).
    pub fn new(g: &'a Graph, set: StageSet, prob: f64, targets: Vec<f64>, round_tag: u64) -> Self {
        assert_eq!(set.active.len(), targets.len());
        GenerateSlack {
            g,
            set,
            prob,
            targets,
            round_tag,
            active_edges: std::sync::OnceLock::new(),
        }
    }

    fn active_edges(&self) -> &[(NodeId, NodeId)] {
        self.active_edges
            .get_or_init(|| collect_active_edges(self.g, &self.set))
    }

    #[inline]
    fn sampled(&self, rng: &dyn Randomness, v: NodeId) -> bool {
        rng.bernoulli(v, S_SAMPLE ^ (self.round_tag << 8), 0, self.prob)
    }

    #[inline]
    fn pick(&self, state: &ColoringState, rng: &dyn Randomness, v: NodeId) -> u32 {
        let pal = state.palette(v);
        pal[rng.below(v, S_PICK ^ (self.round_tag << 8), 1, pal.len() as u64) as usize]
    }
}

impl NormalProcedure for GenerateSlack<'_> {
    fn name(&self) -> &'static str {
        "GenerateSlack"
    }

    fn active_count(&self) -> usize {
        self.set.active.len()
    }

    fn simulate(&self, state: &ColoringState, rng: &dyn Randomness) -> Outcome {
        let adoptions: Vec<(NodeId, u32)> = self
            .set
            .active
            .iter()
            .filter_map(|&v| {
                if !self.sampled(rng, v) {
                    return None;
                }
                let c = self.pick(state, rng, v);
                let clash = self.g.neighbors(v).iter().any(|&u| {
                    self.set.contains(u) && self.sampled(rng, u) && self.pick(state, rng, u) == c
                });
                (!clash).then_some((v, c))
            })
            .collect();
        Outcome {
            adoptions,
            aux: Vec::new(),
        }
    }

    fn simulate_into(&self, state: &ColoringState, rng: &dyn Randomness, scratch: &mut SimScratch) {
        scratch.begin();
        // Cache sampling + pick once per active node ("sampled" ⇔ a pick
        // is cached); the naïve path re-derives both per incident edge.
        // Two plane stripes: Bernoulli bits over all active nodes, then
        // bounded picks over the gathered sampled subset only (the scalar
        // path also draws picks only for sampled nodes).
        let mut plane = std::mem::take(&mut scratch.plane);
        plane.draw_bernoulli(
            rng,
            S_SAMPLE ^ (self.round_tag << 8),
            0,
            &self.set.active,
            self.prob,
        );
        let mut sampled = std::mem::take(&mut plane.nodes);
        sampled.clear();
        sampled.extend(
            self.set
                .active
                .iter()
                .zip(plane.bits.iter())
                .filter(|&(_, &hit)| hit)
                .map(|(&v, _)| v),
        );
        plane.draw_below(rng, S_PICK ^ (self.round_tag << 8), 1, &sampled, |v| {
            state.palette(v).len() as u64
        });
        for (i, &v) in sampled.iter().enumerate() {
            scratch.set_pick(v, state.palette(v)[plane.vals[i] as usize]);
        }
        plane.nodes = sampled;
        scratch.plane = plane;
        // Same-pick collisions between sampled nodes are symmetric: one
        // pass over the pre-filtered active edge list marks both ends.
        for &(a, b) in self.active_edges() {
            if let (Some(ca), Some(cb)) = (scratch.pick(a), scratch.pick(b)) {
                if ca == cb {
                    scratch.mark(a);
                    scratch.mark(b);
                }
            }
        }
        for &v in &self.set.active {
            if let Some(c) = scratch.pick(v) {
                if !scratch.is_marked(v) {
                    scratch.record_adoption(v, c);
                }
            }
        }
    }

    fn seed_cost_scratch(&self, state: &ColoringState, scratch: &mut SimScratch) -> f64 {
        slack_target_count(self.g, state, &self.set, &self.targets, scratch) as f64
    }

    /// Slack-lane block evaluation: all lanes' sample bits and picks are
    /// materialized once (Bernoulli stripes over the active set, bounded
    /// draws over each lane's gathered sampled subset — the same tape
    /// addresses the scalar path reads), then **one** lane-masked pass
    /// over the active edge list finds same-pick collisions between
    /// sampled endpoints for the whole block, and the lane-parallel slack
    /// kernel evaluates every lane's slack-target failures in one
    /// neighborhood pass per candidate node — where the per-seed fallback
    /// re-walks edges and neighborhoods once per seed.
    fn seed_cost_block(
        &self,
        state: &ColoringState,
        tapes: &[&dyn Randomness],
        scratch: &mut SimScratch,
        costs: &mut [f64],
    ) {
        debug_assert_eq!(tapes.len(), costs.len());
        let lanes = tapes.len();
        scratch.begin();
        let mut plane = std::mem::take(&mut scratch.plane);
        let n = state.n();
        plane.soa.resize(n, [0u32; SEED_BLOCK]);
        plane.valid_mask.resize(n, 0);
        plane.lane_mask.resize(n, 0);
        plane.adopted_mask.resize(n, 0);
        for &v in &self.set.active {
            plane.valid_mask[v as usize] = 0;
            plane.lane_mask[v as usize] = 0;
        }
        // Per lane: Bernoulli stripe over the active set, then bounded
        // picks over the gathered sampled subset only (the scalar path
        // also draws picks only for sampled nodes).
        let stream_s = S_SAMPLE ^ (self.round_tag << 8);
        let stream_p = S_PICK ^ (self.round_tag << 8);
        let mut sampled = std::mem::take(&mut plane.nodes);
        for (s, tape) in tapes.iter().enumerate() {
            plane.bits.resize(self.set.active.len(), false);
            tape.fill_bernoulli(stream_s, &self.set.active, 0, self.prob, &mut plane.bits);
            sampled.clear();
            sampled.extend(
                self.set
                    .active
                    .iter()
                    .zip(plane.bits.iter())
                    .filter(|&(_, &hit)| hit)
                    .map(|(&v, _)| v),
            );
            plane.bounds.clear();
            plane
                .bounds
                .extend(sampled.iter().map(|&v| state.palette(v).len() as u64));
            plane.vals.resize(sampled.len(), 0);
            tape.fill_below(stream_p, &sampled, 1, &plane.bounds, &mut plane.vals);
            for (i, &v) in sampled.iter().enumerate() {
                plane.soa[v as usize][s] = state.palette(v)[plane.vals[i] as usize];
                plane.valid_mask[v as usize] |= 1 << s;
            }
        }
        plane.nodes = sampled;
        // Lane-masked collision scan: an edge clashes in lane `s` iff
        // both endpoints are sampled there and drew the same color.
        // ANDing with both validity masks keeps stale SoA lanes (nodes
        // unsampled this block) from producing phantom clashes.
        {
            let soa = &plane.soa;
            let valid = &plane.valid_mask;
            let mask = &mut plane.lane_mask;
            for &(a, b) in self.active_edges() {
                let both = valid[a as usize] & valid[b as usize];
                if both == 0 {
                    continue;
                }
                let eq = lane_eq_mask8(&soa[a as usize], &soa[b as usize]) & both;
                mask[a as usize] |= eq;
                mask[b as usize] |= eq;
            }
        }
        for &v in &self.set.active {
            plane.adopted_mask[v as usize] =
                plane.valid_mask[v as usize] & !plane.lane_mask[v as usize];
        }
        lane_slack_fail_costs(
            self.g,
            state,
            &self.set,
            &mut plane,
            lanes,
            |i| self.targets[i] <= 0.0,
            |i, _| self.targets[i],
            costs,
        );
        scratch.plane = plane;
    }

    fn ssp_failures(&self, state: &ColoringState, out: &Outcome) -> Vec<NodeId> {
        evaluate_ssp(
            self.g,
            state,
            &self.set,
            &SspMode::SlackTarget(self.targets.clone()),
            out,
        )
    }
}

// ---------------------------------------------------------------------
// SynchColorTrial (Algorithm 8)
// ---------------------------------------------------------------------

/// One almost-clique's view for the synchronized trial.
#[derive(Clone, Debug)]
pub struct CliqueTrial {
    /// The clique leader `x_C` dealing colors.
    pub leader: NodeId,
    /// Inliers receiving proposals (sorted by id; excludes put-aside set).
    pub inliers: Vec<NodeId>,
}

/// The leader of each almost-clique permutes its palette and proposes a
/// distinct color to each inlier; an inlier keeps the proposal if it is in
/// its own palette and conflicts with no neighbor's proposal.
pub struct SynchColorTrial<'a> {
    /// The graph.
    pub g: &'a Graph,
    /// All proposal-receiving inliers across cliques.
    pub set: StageSet,
    /// Per-clique leader/inlier views.
    pub cliques: Vec<CliqueTrial>,
    /// Per-clique failure tolerance `t` (SSP: ≤ t inliers of the clique
    /// fail; beyond that the whole clique's remaining inliers defer).
    pub tolerance: usize,
    /// Distinguishes repeated calls within one stage.
    pub round_tag: u64,
    /// Union of all cliques' inliers (the only possible proposal holders)
    /// and the edges among them — the lane-masked conflict scan's
    /// pre-filtered edge list, built lazily at first seed evaluation.
    prop_edges: std::sync::OnceLock<(StageSet, Vec<(NodeId, NodeId)>)>,
}

impl<'a> SynchColorTrial<'a> {
    /// Construct one invocation.
    pub fn new(
        g: &'a Graph,
        set: StageSet,
        cliques: Vec<CliqueTrial>,
        tolerance: usize,
        round_tag: u64,
    ) -> Self {
        SynchColorTrial {
            g,
            set,
            cliques,
            tolerance,
            round_tag,
            prop_edges: std::sync::OnceLock::new(),
        }
    }

    fn prop_edges(&self) -> &(StageSet, Vec<(NodeId, NodeId)>) {
        self.prop_edges.get_or_init(|| {
            let mut holders: Vec<NodeId> = self
                .cliques
                .iter()
                .flat_map(|ct| ct.inliers.iter().copied())
                .collect();
            holders.sort_unstable();
            holders.dedup();
            let holder_set = StageSet::new(self.g.n(), holders);
            let edges = collect_active_edges(self.g, &holder_set);
            (holder_set, edges)
        })
    }
}

impl NormalProcedure for SynchColorTrial<'_> {
    fn name(&self) -> &'static str {
        "SynchColorTrial"
    }

    fn active_count(&self) -> usize {
        self.set.active.len()
    }

    fn simulate(&self, state: &ColoringState, rng: &dyn Randomness) -> Outcome {
        // Phase 1: leaders deal colors.  proposal[v] for each inlier v.
        let mut proposal = vec![crate::instance::NO_COLOR; state.n()];
        let deals: Vec<Vec<(NodeId, u32)>> = self
            .cliques
            .iter()
            .map(|ct| {
                let pal = state.palette(ct.leader);
                if pal.is_empty() {
                    return Vec::new();
                }
                // Leader permutes its palette with its own randomness:
                // the Fisher-Yates words (idx 1..|pal|) arrive as one
                // `fill_words_seq` stripe fetch — only the
                // data-dependent swaps stay sequential.  `below(v, s, i,
                // i+1)` is the Lemire reduction of `word(v, s, i)`, so
                // this is bit-identical to per-draw scalar calls.
                let mut perm: Vec<u32> = pal.to_vec();
                let stream = S_PERM ^ (self.round_tag << 8);
                let mut words = vec![0u64; perm.len().saturating_sub(1)];
                rng.fill_words_seq(ct.leader, stream, 1, &mut words);
                for i in (1..perm.len()).rev() {
                    let j = ((words[i - 1] as u128 * (i as u128 + 1)) >> 64) as usize;
                    perm.swap(i, j);
                }
                ct.inliers
                    .iter()
                    .take(perm.len())
                    .enumerate()
                    .map(|(k, &v)| (v, perm[k]))
                    .collect()
            })
            .collect();
        for deal in &deals {
            for &(v, c) in deal {
                proposal[v as usize] = c;
            }
        }
        // Phase 2: symmetric conflict resolution + palette membership.
        let adoptions: Vec<(NodeId, u32)> = self
            .set
            .active
            .iter()
            .filter_map(|&v| {
                let c = proposal[v as usize];
                if c == crate::instance::NO_COLOR || !state.palette(v).contains(&c) {
                    return None;
                }
                let clash = self
                    .g
                    .neighbors(v)
                    .iter()
                    .any(|&u| proposal[u as usize] == c);
                (!clash).then_some((v, c))
            })
            .collect();
        Outcome {
            adoptions,
            aux: Vec::new(),
        }
    }

    fn simulate_into(&self, state: &ColoringState, rng: &dyn Randomness, scratch: &mut SimScratch) {
        scratch.begin();
        // Phase 1: leaders deal colors; proposals live in the pick cache.
        let mut perm = std::mem::take(&mut scratch.perm);
        let mut plane = std::mem::take(&mut scratch.plane);
        for ct in &self.cliques {
            let pal = state.palette(ct.leader);
            if pal.is_empty() {
                continue;
            }
            // Leader permutes its palette with its own randomness: the
            // Fisher-Yates words (idx 1..|pal|) come off the plane as one
            // idx-stripe, the data-dependent swaps stay sequential.
            perm.clear();
            perm.extend_from_slice(pal);
            let stream = S_PERM ^ (self.round_tag << 8);
            plane.draw_words_seq(rng, ct.leader, stream, 1, perm.len().saturating_sub(1));
            for i in (1..perm.len()).rev() {
                let j = ((plane.vals[i - 1] as u128 * (i as u128 + 1)) >> 64) as usize;
                perm.swap(i, j);
            }
            for (k, &v) in ct.inliers.iter().take(perm.len()).enumerate() {
                scratch.set_pick(v, perm[k]);
            }
        }
        scratch.perm = perm;
        scratch.plane = plane;
        // Phase 2: symmetric conflict resolution + palette membership.
        for &v in &self.set.active {
            let Some(c) = scratch.pick(v) else { continue };
            if !state.palette(v).contains(&c) {
                continue;
            }
            let clash = self
                .g
                .neighbors(v)
                .iter()
                .any(|&u| scratch.pick(u) == Some(c));
            if !clash {
                scratch.record_adoption(v, c);
            }
        }
    }

    fn seed_cost_scratch(&self, _state: &ColoringState, scratch: &mut SimScratch) -> f64 {
        let mut total = 0usize;
        for ct in &self.cliques {
            let failed = ct
                .inliers
                .iter()
                .filter(|&&v| {
                    self.set.contains(v) && scratch.adopted_color(v) == crate::instance::NO_COLOR
                })
                .count();
            if failed > self.tolerance {
                total += failed;
            }
        }
        total as f64
    }

    /// Seed-lane block evaluation: every lane's leader deals (the
    /// data-dependent Fisher-Yates stays per-lane, fed by one idx-stripe
    /// off that lane's tape) land in the proposal SoA plane, then **one**
    /// lane-masked pass over the proposal-holder edge list resolves
    /// conflicts for the whole block, and one pass over the cliques
    /// counts every lane's tolerance-gated failures — where the per-seed
    /// fallback re-walks inlier neighborhoods once per seed.
    fn seed_cost_block(
        &self,
        state: &ColoringState,
        tapes: &[&dyn Randomness],
        scratch: &mut SimScratch,
        costs: &mut [f64],
    ) {
        debug_assert_eq!(tapes.len(), costs.len());
        let lanes = tapes.len();
        scratch.begin();
        let (holders, prop_edges) = self.prop_edges();
        let mut plane = std::mem::take(&mut scratch.plane);
        let mut perm = std::mem::take(&mut scratch.perm);
        let n = state.n();
        plane.soa.resize(n, [0u32; SEED_BLOCK]);
        plane.valid_mask.resize(n, 0);
        plane.lane_mask.resize(n, 0);
        plane.adopted_mask.resize(n, 0);
        for &v in holders.active.iter().chain(self.set.active.iter()) {
            plane.valid_mask[v as usize] = 0;
            plane.lane_mask[v as usize] = 0;
        }
        // Phase 1: leaders deal colors, one Fisher-Yates per (clique,
        // lane); cliques outer so shared inliers keep the scalar path's
        // last-writer proposal in every lane.
        let stream = S_PERM ^ (self.round_tag << 8);
        for ct in &self.cliques {
            let pal = state.palette(ct.leader);
            if pal.is_empty() {
                continue;
            }
            for (s, tape) in tapes.iter().enumerate() {
                perm.clear();
                perm.extend_from_slice(pal);
                plane.vals.resize(perm.len().saturating_sub(1), 0);
                tape.fill_words_seq(ct.leader, stream, 1, &mut plane.vals);
                for i in (1..perm.len()).rev() {
                    let j = ((plane.vals[i - 1] as u128 * (i as u128 + 1)) >> 64) as usize;
                    perm.swap(i, j);
                }
                for (k, &v) in ct.inliers.iter().take(perm.len()).enumerate() {
                    plane.soa[v as usize][s] = perm[k];
                    plane.valid_mask[v as usize] |= 1 << s;
                }
            }
        }
        // Phase 2: lane-masked conflict scan over proposal holders; a
        // clash in lane `s` needs both endpoints to hold (raw) proposals
        // there — palette membership gates adoption, not clashing,
        // exactly as in the scalar path.
        {
            let soa = &plane.soa;
            let valid = &plane.valid_mask;
            let mask = &mut plane.lane_mask;
            for &(a, b) in prop_edges {
                let both = valid[a as usize] & valid[b as usize];
                if both == 0 {
                    continue;
                }
                let eq = lane_eq_mask8(&soa[a as usize], &soa[b as usize]) & both;
                mask[a as usize] |= eq;
                mask[b as usize] |= eq;
            }
        }
        // Adoption: proposal held, in own palette, clash-free.
        for &v in &self.set.active {
            let mut am = plane.valid_mask[v as usize] & !plane.lane_mask[v as usize];
            if am != 0 {
                let pal = state.palette(v);
                let row = &plane.soa[v as usize];
                let mut keep = 0u8;
                for (s, c) in row.iter().enumerate().take(lanes) {
                    if am >> s & 1 == 1 && pal.contains(c) {
                        keep |= 1 << s;
                    }
                }
                am = keep;
            }
            plane.adopted_mask[v as usize] = am;
        }
        // Tolerance-gated per-clique failure counts, all lanes at once.
        let mut total = [0usize; SEED_BLOCK];
        for ct in &self.cliques {
            let mut failed = [0usize; SEED_BLOCK];
            for &v in &ct.inliers {
                if !self.set.contains(v) {
                    continue;
                }
                let am = plane.adopted_mask[v as usize];
                for (s, f) in failed.iter_mut().enumerate().take(lanes) {
                    *f += usize::from(am >> s & 1 == 0);
                }
            }
            for (s, t) in total.iter_mut().enumerate().take(lanes) {
                if failed[s] > self.tolerance {
                    *t += failed[s];
                }
            }
        }
        for (s, c) in costs.iter_mut().enumerate() {
            *c = total[s] as f64;
        }
        scratch.plane = plane;
        scratch.perm = perm;
    }

    fn ssp_failures(&self, state: &ColoringState, out: &Outcome) -> Vec<NodeId> {
        let adopted = adoption_map(state.n(), out);
        let mut failures = Vec::new();
        for ct in &self.cliques {
            let failed: Vec<NodeId> = ct
                .inliers
                .iter()
                .copied()
                .filter(|&v| {
                    self.set.contains(v) && adopted[v as usize] == crate::instance::NO_COLOR
                })
                .collect();
            // SSP (paper): the clique has at most O(t) failed nodes.  If
            // exceeded, the clique's uncolored inliers defer.
            if failed.len() > self.tolerance {
                failures.extend(failed);
            }
        }
        failures
    }
}

// ---------------------------------------------------------------------
// PutAside (Algorithm 9)
// ---------------------------------------------------------------------

/// One low-slackability clique's put-aside computation.
#[derive(Clone, Debug)]
pub struct CliquePutAside {
    /// Which clique this view belongs to.
    pub clique_id: u32,
    /// Its live inliers.
    pub inliers: Vec<NodeId>,
    /// Sampling probability `p_s = ℓ²/(48 Δ_C)` (clamped; see pipeline).
    pub prob: f64,
    /// SSP target: `|P_C|` must reach this (scaled-down `Ω(ℓ²)`).
    pub target: usize,
}

/// Sample each inlier independently; keep those with no sampled neighbor.
/// The kept set `P` is independent (globally: a kept node has *no* sampled
/// neighbor at all) and is put aside to be colored greedily at the very
/// end, meanwhile donating slack to the rest of its clique.
pub struct PutAside<'a> {
    /// The graph.
    pub g: &'a Graph,
    /// All participating inliers across low-slack cliques.
    pub set: StageSet,
    /// Per-clique sampling parameters.
    pub cliques: Vec<CliquePutAside>,
    /// Distinguishes repeated calls within one stage.
    pub round_tag: u64,
}

impl PutAside<'_> {
    #[inline]
    fn sampled(&self, rng: &dyn Randomness, v: NodeId, prob: f64) -> bool {
        rng.bernoulli(v, S_SAMPLE ^ (self.round_tag << 8) ^ 0x5041, 0, prob)
    }

    /// The sampling probability applicable to node `v` (its clique's).
    fn prob_of(&self, probs: &[f64], v: NodeId) -> f64 {
        probs[v as usize]
    }
}

impl NormalProcedure for PutAside<'_> {
    fn name(&self) -> &'static str {
        "PutAside"
    }

    fn local_rounds(&self) -> u64 {
        1
    }

    fn active_count(&self) -> usize {
        self.set.active.len()
    }

    fn simulate(&self, state: &ColoringState, rng: &dyn Randomness) -> Outcome {
        // Per-node sampling probability lookup.
        let mut probs = vec![0.0f64; state.n()];
        for cq in &self.cliques {
            for &v in &cq.inliers {
                probs[v as usize] = cq.prob;
            }
        }
        // P = sampled nodes with no sampled neighbor (anywhere).
        let aux: Vec<NodeId> = self
            .set
            .active
            .iter()
            .copied()
            .filter(|&v| {
                let pv = self.prob_of(&probs, v);
                pv > 0.0 && self.sampled(rng, v, pv) && {
                    !self.g.neighbors(v).iter().any(|&u| {
                        let pu = self.prob_of(&probs, u);
                        pu > 0.0 && self.set.contains(u) && self.sampled(rng, u, pu)
                    })
                }
            })
            .collect();
        Outcome {
            adoptions: Vec::new(),
            aux,
        }
    }

    fn simulate_into(&self, state: &ColoringState, rng: &dyn Randomness, scratch: &mut SimScratch) {
        let _ = state;
        scratch.begin();
        // Sample bits cached once per inlier (≙ once per edge before),
        // batched per clique — each clique's inliers share one sampling
        // probability, so they form one Bernoulli stripe.  Later cliques
        // overwrite shared inliers, matching the scalar path's last-writer
        // probability table; nodes in no clique stay unset (⇔ bit false).
        let mut plane = std::mem::take(&mut scratch.plane);
        let stream = S_SAMPLE ^ (self.round_tag << 8) ^ 0x5041;
        for cq in &self.cliques {
            plane.draw_bernoulli(rng, stream, 0, &cq.inliers, cq.prob);
            for (i, &v) in cq.inliers.iter().enumerate() {
                scratch.set_bit(v, cq.prob > 0.0 && plane.bits[i]);
            }
        }
        scratch.plane = plane;
        // P = sampled nodes with no sampled neighbor (anywhere).
        for &v in &self.set.active {
            if !scratch.bit(v) {
                continue;
            }
            let blocked = self
                .g
                .neighbors(v)
                .iter()
                .any(|&u| self.set.contains(u) && scratch.bit(u));
            if !blocked {
                scratch.aux.push(v);
            }
        }
    }

    fn seed_cost_scratch(&self, _state: &ColoringState, scratch: &mut SimScratch) -> f64 {
        // Mark P, then count per-clique target misses — allocation-free
        // equivalent of `ssp_failures(..).len()`.
        for i in 0..scratch.aux.len() {
            let v = scratch.aux[i];
            scratch.mark(v);
        }
        let mut total = 0usize;
        for cq in &self.cliques {
            let got = cq.inliers.iter().filter(|&&v| scratch.is_marked(v)).count();
            if got < cq.target {
                total += cq
                    .inliers
                    .iter()
                    .filter(|&&v| self.set.contains(v) && !scratch.is_marked(v))
                    .count();
            }
        }
        total as f64
    }

    /// Seed-lane block evaluation: every lane's sample bits are
    /// materialized as per-node lane bitmasks (one Bernoulli stripe per
    /// clique per lane, later cliques overwriting shared inliers exactly
    /// like the scalar last-writer probability table), then **one**
    /// neighborhood pass computes every lane's kept set `P` (sampled, no
    /// sampled active neighbor) and one pass over the cliques counts all
    /// lanes' target misses — where the per-seed fallback re-walks the
    /// inlier neighborhoods once per seed.
    fn seed_cost_block(
        &self,
        state: &ColoringState,
        tapes: &[&dyn Randomness],
        scratch: &mut SimScratch,
        costs: &mut [f64],
    ) {
        debug_assert_eq!(tapes.len(), costs.len());
        let lanes = tapes.len();
        scratch.begin();
        let mut plane = std::mem::take(&mut scratch.plane);
        let n = state.n();
        plane.valid_mask.resize(n, 0);
        plane.adopted_mask.resize(n, 0);
        for &v in &self.set.active {
            plane.valid_mask[v as usize] = 0;
            plane.adopted_mask[v as usize] = 0;
        }
        for cq in &self.cliques {
            for &v in &cq.inliers {
                plane.valid_mask[v as usize] = 0;
                plane.adopted_mask[v as usize] = 0;
            }
        }
        let stream = S_SAMPLE ^ (self.round_tag << 8) ^ 0x5041;
        for cq in &self.cliques {
            for (s, tape) in tapes.iter().enumerate() {
                plane.bits.resize(cq.inliers.len(), false);
                tape.fill_bernoulli(stream, &cq.inliers, 0, cq.prob, &mut plane.bits);
                for (i, &v) in cq.inliers.iter().enumerate() {
                    // Last-writer overwrite per lane, matching the scalar
                    // path's dense probability table.
                    let bit = 1u8 << s;
                    if cq.prob > 0.0 && plane.bits[i] {
                        plane.valid_mask[v as usize] |= bit;
                    } else {
                        plane.valid_mask[v as usize] &= !bit;
                    }
                }
            }
        }
        // P per lane: sampled with no sampled active neighbor.
        let full: u8 = ((1u16 << lanes) - 1) as u8;
        for &v in &self.set.active {
            let sv = plane.valid_mask[v as usize];
            if sv == 0 {
                continue;
            }
            let mut blocked = 0u8;
            for &u in self.g.neighbors(v) {
                if self.set.contains(u) {
                    blocked |= plane.valid_mask[u as usize];
                    if blocked & full == full {
                        break;
                    }
                }
            }
            plane.adopted_mask[v as usize] = sv & !blocked;
        }
        // Per-clique target misses, all lanes at once.
        let mut total = [0usize; SEED_BLOCK];
        for cq in &self.cliques {
            let mut got = [0usize; SEED_BLOCK];
            let mut missing = [0usize; SEED_BLOCK];
            for &v in &cq.inliers {
                let pm = plane.adopted_mask[v as usize];
                let in_set = self.set.contains(v);
                for s in 0..lanes {
                    let kept = pm >> s & 1 == 1;
                    got[s] += usize::from(kept);
                    missing[s] += usize::from(in_set && !kept);
                }
            }
            for (s, t) in total.iter_mut().enumerate().take(lanes) {
                if got[s] < cq.target {
                    *t += missing[s];
                }
            }
        }
        for (s, c) in costs.iter_mut().enumerate() {
            *c = total[s] as f64;
        }
        scratch.plane = plane;
    }

    fn ssp_failures(&self, _state: &ColoringState, out: &Outcome) -> Vec<NodeId> {
        // SSP per clique: |P_C| ≥ target.  On failure the clique's inliers
        // defer (they will be recursed on; deferral only creates slack for
        // the rest — see Lemma 13's PutAside case).
        let mut in_p = vec![false; self.g.n()];
        for &v in &out.aux {
            in_p[v as usize] = true;
        }
        let mut failures = Vec::new();
        for cq in &self.cliques {
            let got = cq.inliers.iter().filter(|&&v| in_p[v as usize]).count();
            if got < cq.target {
                failures.extend(
                    cq.inliers
                        .iter()
                        .copied()
                        .filter(|&v| self.set.contains(v) && !in_p[v as usize]),
                );
            }
        }
        failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::D1lcInstance;
    use parcolor_local::tape::CryptoTape;

    fn ring(n: usize) -> Graph {
        let edges: Vec<_> = (0..n as NodeId)
            .map(|i| (i, (i + 1) % n as NodeId))
            .collect();
        Graph::from_edges(n, &edges)
    }

    fn clique(n: usize) -> Graph {
        let mut edges = Vec::new();
        for a in 0..n as NodeId {
            for b in (a + 1)..n as NodeId {
                edges.push((a, b));
            }
        }
        Graph::from_edges(n, &edges)
    }

    fn full_set(n: usize) -> StageSet {
        StageSet::new(n, (0..n as NodeId).collect())
    }

    #[test]
    fn try_random_color_adoptions_are_proper() {
        let g = ring(50);
        let inst = D1lcInstance::delta_plus_one(g.clone());
        let mut state = ColoringState::new(&inst);
        let proc = TryRandomColor::new(&g, full_set(50), SspMode::Auto, 0);
        let tape = CryptoTape::new(7);
        let out = proc.simulate(&state, &tape);
        assert!(!out.adoptions.is_empty(), "ring trial should color someone");
        state.apply_adoptions(&g, &out.adoptions); // would panic on conflicts
        assert!(state.verify_partial(&g).is_ok());
    }

    #[test]
    fn try_random_color_is_pure() {
        let g = ring(30);
        let inst = D1lcInstance::delta_plus_one(g.clone());
        let state = ColoringState::new(&inst);
        let proc = TryRandomColor::new(&g, full_set(30), SspMode::Auto, 3);
        let tape = CryptoTape::new(11);
        let a = proc.simulate(&state, &tape);
        let b = proc.simulate(&state, &tape);
        assert_eq!(a.adoptions, b.adoptions);
    }

    #[test]
    fn round_tags_change_randomness() {
        let g = ring(30);
        let inst = D1lcInstance::delta_plus_one(g.clone());
        let state = ColoringState::new(&inst);
        let tape = CryptoTape::new(11);
        let a = TryRandomColor::new(&g, full_set(30), SspMode::Auto, 1).simulate(&state, &tape);
        let b = TryRandomColor::new(&g, full_set(30), SspMode::Auto, 2).simulate(&state, &tape);
        assert_ne!(a.adoptions, b.adoptions);
    }

    #[test]
    fn multi_trial_draws_distinct_sorted() {
        let g = ring(10);
        let inst = D1lcInstance::delta_plus_one(g.clone());
        let state = ColoringState::new(&inst);
        let proc = MultiTrial::new(&g, full_set(10), 2, SspMode::Auto, 0);
        let tape = CryptoTape::new(3);
        for v in 0..10 {
            let d = proc.draw(&state, &tape, v);
            assert_eq!(d.len(), 2);
            assert!(d[0] < d[1]);
        }
    }

    #[test]
    fn multi_trial_colors_everyone_with_full_palette_draw() {
        // x ≥ palette size: every node proposes its whole palette.  On a
        // ring with 3-color palettes neighbors always share colors... but
        // an isolated-ish graph colors instantly.  Use an empty graph.
        let g = Graph::empty(5);
        let inst = D1lcInstance::delta_plus_one(g.clone());
        let mut state = ColoringState::new(&inst);
        let proc = MultiTrial::new(&g, full_set(5), 8, SspMode::Colored, 0);
        let tape = CryptoTape::new(5);
        let out = proc.simulate(&state, &tape);
        assert_eq!(out.adoptions.len(), 5);
        assert!(proc.ssp_failures(&state, &out).is_empty());
        state.apply_adoptions(&g, &out.adoptions);
        assert_eq!(state.uncolored_count(), 0);
    }

    #[test]
    fn multi_trial_respects_conflicts() {
        let g = clique(4);
        let inst = D1lcInstance::delta_plus_one(g.clone());
        let mut state = ColoringState::new(&inst);
        let proc = MultiTrial::new(&g, full_set(4), 2, SspMode::Auto, 1);
        let tape = CryptoTape::new(9);
        let out = proc.simulate(&state, &tape);
        state.apply_adoptions(&g, &out.adoptions);
        assert!(state.verify_partial(&g).is_ok());
    }

    #[test]
    fn generate_slack_samples_a_fraction() {
        let g = ring(2000);
        let inst = D1lcInstance::delta_plus_one(g.clone());
        let mut state = ColoringState::new(&inst);
        let set = full_set(2000);
        let targets = vec![0.0; 2000];
        let proc = GenerateSlack::new(&g, set, 0.1, targets, 0);
        let tape = CryptoTape::new(13);
        let out = proc.simulate(&state, &tape);
        // ~10% sampled, nearly all succeed on a ring: between 3% and 15%.
        assert!(
            out.adoptions.len() > 60 && out.adoptions.len() < 300,
            "adoptions = {}",
            out.adoptions.len()
        );
        state.apply_adoptions(&g, &out.adoptions);
        assert!(state.verify_partial(&g).is_ok());
    }

    #[test]
    fn generate_slack_ssp_targets() {
        let g = ring(8);
        let inst = D1lcInstance::delta_plus_one(g.clone());
        let state = ColoringState::new(&inst);
        let set = full_set(8);
        // Impossible target: everyone uncolored fails.
        let targets = vec![100.0; 8];
        let proc = GenerateSlack::new(&g, set, 0.0, targets, 0);
        let tape = CryptoTape::new(1);
        let out = proc.simulate(&state, &tape);
        assert_eq!(out.adoptions.len(), 0);
        assert_eq!(proc.ssp_failures(&state, &out).len(), 8);
    }

    #[test]
    fn synch_color_trial_deals_distinct_colors() {
        let g = clique(6);
        let inst = D1lcInstance::delta_plus_one(g.clone());
        let mut state = ColoringState::new(&inst);
        let inliers: Vec<NodeId> = (1..6).collect();
        let set = StageSet::new(6, inliers.clone());
        let proc = SynchColorTrial::new(&g, set, vec![CliqueTrial { leader: 0, inliers }], 6, 0);
        let tape = CryptoTape::new(17);
        let out = proc.simulate(&state, &tape);
        // In a true clique all proposals are distinct colors of a shared
        // palette, so nobody conflicts: everyone adopts.
        assert_eq!(out.adoptions.len(), 5);
        state.apply_adoptions(&g, &out.adoptions);
        assert!(state.verify_partial(&g).is_ok());
    }

    #[test]
    fn synch_color_trial_tolerance_gates_failures() {
        let g = clique(5);
        let inst = D1lcInstance::delta_plus_one(g.clone());
        let state = ColoringState::new(&inst);
        let inliers: Vec<NodeId> = (1..5).collect();
        let set = StageSet::new(5, inliers.clone());
        let proc = SynchColorTrial::new(&g, set, vec![CliqueTrial { leader: 0, inliers }], 0, 0);
        let tape = CryptoTape::new(17);
        let out = proc.simulate(&state, &tape);
        let fails = proc.ssp_failures(&state, &out);
        let uncolored = 4 - out.adoptions.len();
        if uncolored > 0 {
            assert_eq!(fails.len(), uncolored);
        } else {
            assert!(fails.is_empty());
        }
    }

    #[test]
    fn put_aside_set_is_independent() {
        let g = clique(12);
        let inst = D1lcInstance::delta_plus_one(g.clone());
        let state = ColoringState::new(&inst);
        let inliers: Vec<NodeId> = (0..12).collect();
        let set = StageSet::new(12, inliers.clone());
        let proc = PutAside {
            g: &g,
            set,
            cliques: vec![CliquePutAside {
                clique_id: 0,
                inliers,
                prob: 0.15,
                target: 0,
            }],
            round_tag: 0,
        };
        let tape = CryptoTape::new(23);
        let out = proc.simulate(&state, &tape);
        // In a clique, P has at most one node (it's an independent set).
        assert!(out.aux.len() <= 1, "P = {:?}", out.aux);
        assert!(proc.ssp_failures(&state, &out).is_empty());
    }

    #[test]
    fn put_aside_target_failure_defers_clique() {
        let g = clique(6);
        let inst = D1lcInstance::delta_plus_one(g.clone());
        let state = ColoringState::new(&inst);
        let inliers: Vec<NodeId> = (0..6).collect();
        let set = StageSet::new(6, inliers.clone());
        let proc = PutAside {
            g: &g,
            set,
            cliques: vec![CliquePutAside {
                clique_id: 0,
                inliers,
                prob: 0.0, // nothing sampled → |P| = 0 < target
                target: 2,
            }],
            round_tag: 0,
        };
        let tape = CryptoTape::new(23);
        let out = proc.simulate(&state, &tape);
        assert_eq!(out.aux.len(), 0);
        assert_eq!(proc.ssp_failures(&state, &out).len(), 6);
    }

    #[test]
    fn post_metrics_account_duplicate_colors_once() {
        // Path 1-0-2 (star with two leaves): leaves adopt the same color c
        // (not adjacent), center loses c once but two neighbors.
        let g = Graph::from_edges(3, &[(0, 1), (0, 2)]);
        let inst = D1lcInstance::delta_plus_one(g.clone());
        let state = ColoringState::new(&inst);
        let set = full_set(3);
        let adopted = {
            let out = Outcome {
                adoptions: vec![(1, 1), (2, 1)],
                aux: Vec::new(),
            };
            super::adoption_map(3, &out)
        };
        let (deg, slack) = super::post_deg_slack(&g, &state, &set, &adopted, 0);
        assert_eq!(deg, 0);
        // palette {0,1,2} minus {1} = 2 colors, degree 0 → slack 2
        assert_eq!(slack, 2);
    }
}
