//! The randomized subprocedures of HKNT22, as normal distributed
//! procedures (Definition 5 instances; see Lemma 13 of the paper).
//!
//! Conventions shared by all procedures:
//! * A [`StageSet`] names the nodes participating in *this* invocation
//!   (uncolored, in the current stage, not deferred).  Inactive neighbors
//!   neither propose nor conflict.
//! * Adoption is by **symmetric abstention**: a node adopts a color only
//!   if no active neighbor proposes the same color, so batches are
//!   conflict-free by construction (re-checked by `apply_adoptions`).
//! * Every random draw is addressed `(node, stream, idx)` through the
//!   [`Randomness`] tape, keeping `simulate` a pure function of the seed —
//!   the property the derandomizer relies on.
//! * A candidate seed costs `seed_cost` of its outcome, and the SSP
//!   evaluation reads stage-sized state: `adoption_map` is indexed by
//!   position in the stage.  Only TryRandomColor overrides
//!   `seed_cost_block`, to draw a block's picks and resolve their clashes
//!   by seed lane; every other procedure costs its seeds through the
//!   trait's reference loop.

use crate::framework::{NormalProcedure, Outcome, SimScratch};
use crate::instance::ColoringState;
use parcolor_local::graph::{Graph, NodeId};
use parcolor_local::simd::lane_eq_mask8;
use parcolor_local::tape::Randomness;
use parcolor_prg::SEED_BLOCK;

/// Streams used to separate the random draws inside one procedure.
const S_PICK: u64 = 1;
const S_SAMPLE: u64 = 2;
const S_PERM: u64 = 3;

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
    /// Dense by node id: 1 + `v`'s position in `active`, or 0 for a node
    /// outside the stage, so the map starts as a zeroed allocation whose
    /// untouched pages a small stage never faults in.
    pos: Vec<u32>,
}

impl StageSet {
    /// Build from the active node list (`n` = total node count).
    pub fn new(n: usize, active: Vec<NodeId>) -> Self {
        let mut pos = vec![0; n];
        for (i, &v) in active.iter().enumerate() {
            pos[v as usize] = i as u32 + 1;
        }
        StageSet { active, pos }
    }

    /// Whether `v` participates.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.pos[v as usize] != 0
    }

    /// `v`'s position in `active`, if it participates.
    #[inline]
    fn position(&self, v: NodeId) -> Option<usize> {
        (self.pos[v as usize] as usize).checked_sub(1)
    }
}

/// Post-outcome metrics: active degree and slack of `v` under the
/// stage-indexed adoption map `adopted` ([`adoption_map`]).  `taken` is
/// the caller's buffer for the colors v's palette loses; it is cleared
/// here.
fn post_deg_slack(
    g: &Graph,
    state: &ColoringState,
    set: &StageSet,
    adopted: &[u32],
    v: NodeId,
    taken: &mut Vec<u32>,
) -> (usize, i64) {
    let mut deg = 0usize;
    let mut pal_lost = 0usize;
    let pal = state.palette(v);
    // Colors adopted by ≥1 neighbor that intersect v's palette.  Distinct
    // colors only: two non-adjacent neighbors may adopt the same color but
    // v's palette loses it once.  Neighbor lists are short (≤ Δ); a sorted
    // vector beats hashing here.
    taken.clear();
    for &u in g.neighbors(v) {
        let Some(p) = set.position(u) else {
            continue;
        };
        let c = adopted[p];
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

/// Adopted-color lookup built once per SSP evaluation, indexed by stage
/// position: entry `i` is the color `out` gives `set.active[i]`, or
/// `NO_COLOR`.  Every procedure here adopts only stage nodes.
fn adoption_map(set: &StageSet, out: &Outcome) -> Vec<u32> {
    let mut adopted = vec![crate::instance::NO_COLOR; set.active.len()];
    for &(v, c) in &out.adoptions {
        let p = set.position(v).expect("adoption outside the stage");
        adopted[p] = c;
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
    use crate::instance::NO_COLOR;
    match ssp {
        SspMode::Auto => Vec::new(),
        SspMode::Colored => {
            let adopted = adoption_map(set, out);
            set.active
                .iter()
                .zip(&adopted)
                .filter(|&(_, &c)| c == NO_COLOR)
                .map(|(&v, _)| v)
                .collect()
        }
        SspMode::SlackRatio(ratio) => {
            let adopted = adoption_map(set, out);
            let mut taken = Vec::new();
            set.active
                .iter()
                .zip(&adopted)
                .filter(|&(&v, &c)| {
                    if c != NO_COLOR {
                        return false; // colored ⇒ success
                    }
                    let (deg, slack) = post_deg_slack(g, state, set, &adopted, v, &mut taken);
                    (slack as f64) < ratio * deg as f64
                })
                .map(|(&v, _)| v)
                .collect()
        }
        SspMode::SlackTarget(targets) => {
            let adopted = adoption_map(set, out);
            let mut taken = Vec::new();
            set.active
                .iter()
                .zip(&adopted)
                .zip(targets)
                .filter_map(|((&v, &c), &t)| {
                    if t <= 0.0 || c != NO_COLOR {
                        return None;
                    }
                    let (_, slack) = post_deg_slack(g, state, set, &adopted, v, &mut taken);
                    ((slack as f64) < t).then_some(v)
                })
                .collect()
        }
    }
}

/// Whether a bound that does not depend on the tape shows that the seed
/// cost under `ssp` is 0 under every outcome — the certificate behind
/// `zero_cost_under_every_seed` of TryRandomColor, MultiTrial and
/// GenerateSlack, in which every active node adopts at most one color.
/// Stops at the first node it cannot certify.
///
/// Each of v's `d_S(v)` neighbors in `set` either stays unadopted (it
/// counts in v's post-step degree) or adopts one color (it removes at
/// most one color from v's palette).  So under every outcome v's
/// post-step slack is at least `|Ψ(v)| − d_S(v)` and its post-step
/// degree at most `d_S(v)`; the comparisons are [`evaluate_ssp`]'s, on
/// the same `f64`s.  For `Auto` (whose cost is the uncolored count) and
/// `Colored`, v is certified when it has a color to pick and no active
/// neighbor: TryRandomColor and MultiTrial then always adopt.
/// GenerateSlack, which samples, always holds a `SlackTarget`.
fn zero_cost_certified(g: &Graph, state: &ColoringState, set: &StageSet, ssp: &SspMode) -> bool {
    let d_s = |v: NodeId| g.neighbors(v).iter().filter(|&&u| set.contains(u)).count();
    let slack_floor = |v: NodeId, d: usize| (state.palette(v).len() as i64 - d as i64) as f64;
    match ssp {
        SspMode::Auto | SspMode::Colored => set
            .active
            .iter()
            .all(|&v| !state.palette(v).is_empty() && d_s(v) == 0),
        SspMode::SlackRatio(ratio) => {
            *ratio >= 0.0
                && set.active.iter().all(|&v| {
                    let d = d_s(v);
                    slack_floor(v, d) >= ratio * d as f64
                })
        }
        SspMode::SlackTarget(targets) => set
            .active
            .iter()
            .zip(targets)
            .all(|(&v, &t)| t <= 0.0 || slack_floor(v, d_s(v)) >= t),
    }
}

/// Count of active nodes left uncolored by `out` — the progress-oriented
/// seed cost used by warm-up steps.  Its callers, TryRandomColor and
/// MultiTrial, adopt only stage nodes, each at most once and in stage
/// order, so the count is a subtraction.
fn uncolored_cost(set: &StageSet, out: &Outcome) -> f64 {
    debug_assert!(out
        .adoptions
        .windows(2)
        .all(|w| set.position(w[0].0) < set.position(w[1].0)));
    debug_assert!(out.adoptions.iter().all(|&(v, _)| set.contains(v)));
    (set.active.len() - out.adoptions.len()) as f64
}

/// All edges whose endpoints are both in `set`, each once as `(a, b)` with
/// `a < b`.  One flat pass at first use replaces per-seed adjacency walks:
/// the clash scan then touches a contiguous edge array with pre-filtered
/// membership instead of a stage lookup per neighbor per seed.
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
}

impl NormalProcedure for TryRandomColor<'_> {
    fn name(&self) -> &'static str {
        "TryRandomColor"
    }

    fn active_count(&self) -> usize {
        self.set.active.len()
    }

    fn simulate(&self, state: &ColoringState, rng: &dyn Randomness) -> Outcome {
        // A node's pick is a pure function of (node, tape), whichever
        // neighbor asks, so each active node's pick is drawn once — one
        // `fill_below` stripe over the active set — into a dense array.
        let active = &self.set.active;
        let bounds: Vec<u64> = active
            .iter()
            .map(|&v| state.palette(v).len() as u64)
            .collect();
        let mut vals = vec![0u64; active.len()];
        rng.fill_below(S_PICK ^ self.round_tag << 8, active, 0, &bounds, &mut vals);
        let mut pick = vec![0u32; state.n()];
        for (&v, &i) in active.iter().zip(&vals) {
            pick[v as usize] = state.palette(v)[i as usize];
        }
        // Clashing is symmetric: one pass over the pre-filtered active
        // edge list marks both endpoints of every same-pick edge.
        let mut clashed = vec![false; state.n()];
        for &(a, b) in self.active_edges() {
            if pick[a as usize] == pick[b as usize] {
                clashed[a as usize] = true;
                clashed[b as usize] = true;
            }
        }
        let adoptions = active
            .iter()
            .filter(|&&v| !clashed[v as usize])
            .map(|&v| (v, pick[v as usize]))
            .collect();
        Outcome {
            adoptions,
            aux: Vec::new(),
        }
    }

    /// Seed-lane block evaluation: the picks of all the block's seeds are
    /// materialized as one structure-of-arrays plane (`soa[v] = [pick
    /// under seed lane 0, …, lane 7]`), then **one** pass over the active
    /// edge list compares whole 8-lane rows at a time (`lane_eq_mask8`) —
    /// amortizing the clash scan's memory traffic across up to
    /// `SEED_BLOCK` seeds, where a per-seed evaluation would re-walk the
    /// edges once per seed.  Unused lanes are padded with the node's own id,
    /// which can never collide across an edge.
    ///
    /// For `Colored`/`Auto` each lane's clashed-node count is the cost
    /// directly.  For the slack SSPs lane `s`'s outcome is read off the
    /// plane — the active nodes whose lane-`s` clash bit is clear, each
    /// with its lane-`s` pick, in active order, exactly what `simulate`
    /// returns for that tape — and costed by [`NormalProcedure::seed_cost`].
    fn seed_cost_block(
        &self,
        state: &ColoringState,
        tapes: &[&dyn Randomness],
        scratch: &mut SimScratch,
        costs: &mut [f64],
    ) {
        debug_assert_eq!(tapes.len(), costs.len());
        // Bounds gathered once for the whole block.
        let n_active = self.set.active.len();
        scratch.bounds.clear();
        scratch.bounds.extend(
            self.set
                .active
                .iter()
                .map(|&v| state.palette(v).len() as u64),
        );
        scratch.soa.resize(state.n(), [0u32; SEED_BLOCK]);
        // All lanes' draws land in one stripe-major buffer
        // (lane s at offset s·n_active) …
        scratch.vals.resize(n_active * tapes.len(), 0);
        let stream = S_PICK ^ self.round_tag << 8;
        for (s, tape) in tapes.iter().enumerate() {
            let out = &mut scratch.vals[s * n_active..(s + 1) * n_active];
            tape.fill_below(stream, &self.set.active, 0, &scratch.bounds, out);
        }
        // … so the pick map resolves each node's palette once and
        // writes its whole seed-lane row (pad lanes get the node's
        // own id, which can never collide across an edge).
        let vals = &scratch.vals;
        let soa = &mut scratch.soa;
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
        scratch.lane_mask.resize(state.n(), 0);
        for &v in &self.set.active {
            scratch.lane_mask[v as usize] = 0;
        }
        let soa = &scratch.soa;
        let mask = &mut scratch.lane_mask;
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
                    let m = scratch.lane_mask[v as usize];
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
            // Slack-based SSPs: every active node holds a pick, so lane
            // s adopts exactly the nodes its clash bit spares.
            _ => {
                let mut out = Outcome::default();
                for (s, c) in costs.iter_mut().enumerate() {
                    out.adoptions.clear();
                    out.adoptions.extend(
                        self.set
                            .active
                            .iter()
                            .filter(|&&v| scratch.lane_mask[v as usize] >> s & 1 == 0)
                            .map(|&v| (v, scratch.soa[v as usize][s])),
                    );
                    *c = self.seed_cost(state, &out);
                }
            }
        }
    }

    fn ssp_failures(&self, state: &ColoringState, out: &Outcome) -> Vec<NodeId> {
        evaluate_ssp(self.g, state, &self.set, &self.ssp, out)
    }

    fn seed_cost(&self, state: &ColoringState, out: &Outcome) -> f64 {
        match self.ssp {
            // Warm-up: maximize colored nodes.
            SspMode::Auto => uncolored_cost(&self.set, out),
            _ => self.ssp_failures(state, out).len() as f64,
        }
    }

    fn zero_cost_under_every_seed(&self, state: &ColoringState) -> bool {
        zero_cost_certified(self.g, state, &self.set, &self.ssp)
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
}

impl<'a> MultiTrial<'a> {
    /// Construct one invocation (`x` clamped to [`MULTI_TRIAL_CAP`]).
    pub fn new(g: &'a Graph, set: StageSet, x: usize, ssp: SspMode, round_tag: u64) -> Self {
        MultiTrial {
            g,
            set,
            x: x.clamp(1, MULTI_TRIAL_CAP),
            ssp,
            round_tag,
        }
    }

    /// Append the sorted set of `min(x, p(v))` distinct colors from `v`'s
    /// palette to `buf` (allocation-free once the buffers have warmed
    /// up).  The node's tape words are fetched as one `fill_words_seq`
    /// stripe into `words`; tape addressing is identical to a scalar
    /// walk of `word(v, stream, idx)`.
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
        // Phase 1: every active node draws into one flat candidate arena;
        // active node i's set is `colors[off[i]..off[i + 1]]`.
        let (mut colors, mut tmp, mut words) = (Vec::new(), Vec::new(), Vec::new());
        let mut off = Vec::with_capacity(self.set.active.len() + 1);
        off.push(0);
        for &v in &self.set.active {
            self.draw_into(state, rng, v, &mut colors, &mut tmp, &mut words);
            off.push(colors.len());
        }
        let draw = |i: usize| &colors[off[i]..off[i + 1]];
        // Phase 2: adopt the first candidate no active neighbor drew.
        let adoptions: Vec<(NodeId, u32)> = self
            .set
            .active
            .iter()
            .enumerate()
            .filter_map(|(i, &v)| {
                'cand: for &c in draw(i) {
                    for &u in self.g.neighbors(v) {
                        let Some(p) = self.set.position(u) else {
                            continue;
                        };
                        let theirs = draw(p);
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

    fn ssp_failures(&self, state: &ColoringState, out: &Outcome) -> Vec<NodeId> {
        evaluate_ssp(self.g, state, &self.set, &self.ssp, out)
    }

    fn seed_cost(&self, state: &ColoringState, out: &Outcome) -> f64 {
        match self.ssp {
            SspMode::Auto => uncolored_cost(&self.set, out),
            _ => self.ssp_failures(state, out).len() as f64,
        }
    }

    fn zero_cost_under_every_seed(&self, state: &ColoringState) -> bool {
        zero_cost_certified(self.g, state, &self.set, &self.ssp)
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
    /// The SSP: `SspMode::SlackTarget` over per-active-node slack targets;
    /// entries `≤ 0` auto-succeed.
    ssp: SspMode,
    /// Distinguishes repeated calls within one stage.
    pub round_tag: u64,
}

impl<'a> GenerateSlack<'a> {
    /// Construct one invocation (`targets` aligned with `set.active`).
    pub fn new(g: &'a Graph, set: StageSet, prob: f64, targets: Vec<f64>, round_tag: u64) -> Self {
        assert_eq!(set.active.len(), targets.len());
        GenerateSlack {
            g,
            set,
            prob,
            ssp: SspMode::SlackTarget(targets),
            round_tag,
        }
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

    fn ssp_failures(&self, state: &ColoringState, out: &Outcome) -> Vec<NodeId> {
        evaluate_ssp(self.g, state, &self.set, &self.ssp, out)
    }

    fn zero_cost_under_every_seed(&self, state: &ColoringState) -> bool {
        zero_cost_certified(self.g, state, &self.set, &self.ssp)
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
        }
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

    fn ssp_failures(&self, _state: &ColoringState, out: &Outcome) -> Vec<NodeId> {
        let adopted = adoption_map(&self.set, out);
        let mut failures = Vec::new();
        for ct in &self.cliques {
            let failed: Vec<NodeId> = ct
                .inliers
                .iter()
                .copied()
                .filter(|&v| {
                    self.set
                        .position(v)
                        .is_some_and(|p| adopted[p] == crate::instance::NO_COLOR)
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
        let (mut d, mut tmp, mut words) = (Vec::new(), Vec::new(), Vec::new());
        for v in 0..10 {
            d.clear();
            proc.draw_into(&state, &tape, v, &mut d, &mut tmp, &mut words);
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
            super::adoption_map(&set, &out)
        };
        let (deg, slack) = super::post_deg_slack(&g, &state, &set, &adopted, 0, &mut Vec::new());
        assert_eq!(deg, 0);
        // palette {0,1,2} minus {1} = 2 colors, degree 0 → slack 2
        assert_eq!(slack, 2);
    }
}
