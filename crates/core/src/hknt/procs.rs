//! The randomized subprocedures of HKNT22, as normal distributed
//! procedures (Definition 5 instances; see Lemma 13 of the paper).
//!
//! Conventions shared by all procedures:
//! * A [`StageSet`] is the geometry of one step: the nodes participating
//!   in *this* invocation (uncolored, in the current stage, not deferred)
//!   and each one's in-stage neighbors, built once per step on the
//!   `parcolor-exec` pool.  Inactive neighbors neither propose nor
//!   conflict, so every conflict walk reads the set's rows, never the
//!   whole neighbor list.
//! * Per-node state is indexed by **stage position** (a participant's
//!   index in `StageSet::active`) and sized by the stage: picks, clash
//!   bits, proposals, sampling probabilities, the search planes of
//!   [`SimScratch`], and the SSP evaluation's adoption map.  A step of a
//!   small stage costs no pass over the whole graph.
//! * Adoption is by **symmetric abstention**: a node adopts a color only
//!   if no active neighbor proposes the same color, so batches are
//!   conflict-free by construction (re-checked by `apply_adoptions`).
//! * Every random draw is addressed `(node, stream, idx)` through the
//!   [`Randomness`] tape, keeping `simulate` a pure function of the seed —
//!   the property the derandomizer relies on.
//! * A candidate seed costs `seed_cost` of its outcome.  Only
//!   TryRandomColor overrides `seed_cost_block`, to draw a block's picks
//!   and resolve their clashes by seed lane; every other procedure costs
//!   its seeds through the trait's reference loop.

use crate::framework::{NormalProcedure, Outcome, SimScratch};
use crate::instance::{ColoringState, NO_COLOR};
use crate::stripes::par_rows;
use parcolor_local::graph::{Graph, NodeId};
use parcolor_local::simd::lane_eq_mask8;
use parcolor_local::tape::{Randomness, TapeBlock};
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

/// The geometry of one procedure invocation: its participants and their
/// in-stage adjacency, built once per step.
///
/// A participant's *stage position* is its index in `active`.  Row `i`
/// lists the positions of `active[i]`'s neighbors that participate, in
/// adjacency order (ascending node id), and marks where the neighbors
/// with a higher id than `active[i]` start: a walk over every row's
/// higher part meets each in-stage edge once.  This is the only code that
/// maps node ids to positions.
///
/// The position map is filled on the caller; the rows are built on the
/// pool by stripes of 1,024 stage positions, one adjacency walk per
/// participant, into one buffer sized by the participants' degrees that
/// is compacted in place afterwards.  A set under two stripes builds
/// inline.  The rows do not depend on the worker count.
#[derive(Clone, Debug)]
pub struct StageSet {
    /// Participating nodes, in the caller's order; no node twice.
    pub active: Vec<NodeId>,
    /// Dense by node id: 1 + `v`'s position in `active`, or 0 for a node
    /// outside the stage, so the map starts as a zeroed allocation whose
    /// untouched pages a small stage never faults in.
    pos: Vec<u32>,
    /// Row `i` is `nbrs[off[i]..off[i + 1]]`.
    off: Vec<usize>,
    /// Row `i`'s higher-id neighbors are `nbrs[upper[i]..off[i + 1]]`.
    upper: Vec<usize>,
    /// In-stage neighbors as stage positions, row after row.
    nbrs: Vec<u32>,
}

impl StageSet {
    /// Build the geometry of a step on `g` whose participants are
    /// `active`.
    pub fn new(g: &Graph, active: Vec<NodeId>) -> Self {
        let mut pos = vec![0; g.n()];
        for (i, &v) in active.iter().enumerate() {
            pos[v as usize] = i as u32 + 1;
        }
        // One walk per participant; a row's tag is its count of lower-id
        // neighbors, rebased to an index into `nbrs` once `off` is known.
        let (off, mut upper, nbrs) = par_rows(
            active.len(),
            |i| g.degree(active[i]),
            |i, row| {
                let v = active[i];
                let (mut len, mut lower) = (0, 0);
                for &u in g.neighbors(v) {
                    if let Some(p) = pos[u as usize].checked_sub(1) {
                        row[len] = p;
                        len += 1;
                        if u < v {
                            lower = len;
                        }
                    }
                }
                (len, lower)
            },
        );
        for (split, &start) in upper.iter_mut().zip(&off) {
            *split += start;
        }
        StageSet {
            active,
            pos,
            off,
            upper,
            nbrs,
        }
    }

    /// Whether `v` participates.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.pos[v as usize] != 0
    }

    /// `v`'s stage position, if it participates.
    #[inline]
    fn position(&self, v: NodeId) -> Option<usize> {
        (self.pos[v as usize] as usize).checked_sub(1)
    }

    /// The in-stage neighbors of position `i`, as positions, in adjacency
    /// order.
    #[inline]
    pub(crate) fn neighbors(&self, i: usize) -> &[u32] {
        &self.nbrs[self.off[i]..self.off[i + 1]]
    }

    /// Each row's part whose nodes have a higher id than its own, in
    /// stage order: walking them all meets each in-stage edge once.
    pub(crate) fn higher_rows(&self) -> impl Iterator<Item = &[u32]> {
        self.upper
            .iter()
            .zip(&self.off[1..])
            .map(|(&a, &b)| &self.nbrs[a..b])
    }

    /// In-stage degree `d_S` of position `i`.
    #[inline]
    pub(crate) fn degree(&self, i: usize) -> usize {
        self.off[i + 1] - self.off[i]
    }
}

/// Post-outcome metrics of the participant at stage position `i`: its
/// active degree and slack under the stage-indexed adoption map
/// `adopted` ([`adoption_map`]).  `taken` is the caller's buffer for the
/// colors its palette loses; it is cleared here.
fn post_deg_slack(
    state: &ColoringState,
    set: &StageSet,
    adopted: &[u32],
    i: usize,
    taken: &mut Vec<u32>,
) -> (usize, i64) {
    let mut deg = 0usize;
    let mut pal_lost = 0usize;
    let pal = state.palette(set.active[i]);
    // Colors adopted by ≥1 neighbor that intersect the palette.  Distinct
    // colors only: two non-adjacent neighbors may adopt the same color but
    // the palette loses it once.  Rows are short (≤ Δ); a sorted vector
    // beats hashing here.
    taken.clear();
    for &p in set.neighbors(i) {
        let c = adopted[p as usize];
        if c == NO_COLOR {
            deg += 1;
        } else if pal.contains(&c) {
            if let Err(at) = taken.binary_search(&c) {
                taken.insert(at, c);
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
    let mut adopted = vec![NO_COLOR; set.active.len()];
    for &(v, c) in &out.adoptions {
        let p = set.position(v).expect("adoption outside the stage");
        adopted[p] = c;
    }
    adopted
}

fn evaluate_ssp(
    state: &ColoringState,
    set: &StageSet,
    ssp: &SspMode,
    out: &Outcome,
) -> Vec<NodeId> {
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
                .enumerate()
                .filter(|&(i, _)| {
                    if adopted[i] != NO_COLOR {
                        return false; // colored ⇒ success
                    }
                    let (deg, slack) = post_deg_slack(state, set, &adopted, i, &mut taken);
                    (slack as f64) < ratio * deg as f64
                })
                .map(|(_, &v)| v)
                .collect()
        }
        SspMode::SlackTarget(targets) => {
            let adopted = adoption_map(set, out);
            let mut taken = Vec::new();
            set.active
                .iter()
                .enumerate()
                .zip(targets)
                .filter_map(|((i, &v), &t)| {
                    if t <= 0.0 || adopted[i] != NO_COLOR {
                        return None;
                    }
                    let (_, slack) = post_deg_slack(state, set, &adopted, i, &mut taken);
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
/// It also shows that no node fails the SSP: outside `Auto` the seed
/// cost is the failure count, and `Auto` never fails.  Stops at the
/// first node it cannot certify.
///
/// Each of v's `d_S(v)` neighbors in `set` (its row's length) either
/// stays unadopted (it counts in v's post-step degree) or adopts one
/// color (it removes at most one color from v's palette).  So under every
/// outcome v's post-step slack is at least `|Ψ(v)| − d_S(v)` and its
/// post-step degree at most `d_S(v)`; the comparisons are
/// [`evaluate_ssp`]'s, on the same `f64`s.  For `Auto` (whose cost is the
/// uncolored count) and `Colored`, v is certified when it has a color to
/// pick and no active neighbor: TryRandomColor and MultiTrial then always
/// adopt.  GenerateSlack, which samples, always holds a `SlackTarget`.
fn zero_cost_certified(state: &ColoringState, set: &StageSet, ssp: &SspMode) -> bool {
    let mut positions = 0..set.active.len();
    let pal_len = |i: usize| state.palette(set.active[i]).len();
    let slack_floor = |i: usize| (pal_len(i) as i64 - set.degree(i) as i64) as f64;
    match ssp {
        SspMode::Auto | SspMode::Colored => positions.all(|i| pal_len(i) > 0 && set.degree(i) == 0),
        SspMode::SlackRatio(ratio) => {
            *ratio >= 0.0 && positions.all(|i| slack_floor(i) >= ratio * set.degree(i) as f64)
        }
        SspMode::SlackTarget(targets) => positions
            .zip(targets)
            .all(|(i, &t)| t <= 0.0 || slack_floor(i) >= t),
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

// ---------------------------------------------------------------------
// TryRandomColor (Algorithm 3)
// ---------------------------------------------------------------------

/// Each participating node picks one color uniformly at random from its
/// residual palette and keeps it unless an active neighbor picked the same
/// color.
pub struct TryRandomColor {
    /// Participating nodes.
    pub set: StageSet,
    /// Strong-success-property variant for this call.
    pub ssp: SspMode,
    /// Distinguishes repeated calls within one stage (fresh randomness).
    pub round_tag: u64,
}

impl TryRandomColor {
    /// Construct one invocation.
    pub fn new(set: StageSet, ssp: SspMode, round_tag: u64) -> Self {
        TryRandomColor {
            set,
            ssp,
            round_tag,
        }
    }
}

impl NormalProcedure for TryRandomColor {
    fn name(&self) -> &'static str {
        "TryRandomColor"
    }

    fn active_count(&self) -> usize {
        self.set.active.len()
    }

    fn simulate(&self, state: &ColoringState, rng: &dyn Randomness) -> Outcome {
        // A node's pick is a pure function of (node, tape), whichever
        // neighbor asks, so each active node's pick is drawn once — one
        // `fill_below` stripe over the active set — by stage position.
        let active = &self.set.active;
        let bounds: Vec<u64> = active
            .iter()
            .map(|&v| state.palette(v).len() as u64)
            .collect();
        let mut vals = vec![0u64; active.len()];
        rng.fill_below(S_PICK ^ self.round_tag << 8, active, 0, &bounds, &mut vals);
        let pick: Vec<u32> = active
            .iter()
            .zip(&vals)
            .map(|(&v, &k)| state.palette(v)[k as usize])
            .collect();
        // Clashing is symmetric: one pass over every row's higher part
        // meets each in-stage edge once and marks both endpoints.
        let mut clashed = vec![false; active.len()];
        for (i, row) in self.set.higher_rows().enumerate() {
            for &p in row {
                if pick[i] == pick[p as usize] {
                    clashed[i] = true;
                    clashed[p as usize] = true;
                }
            }
        }
        let adoptions = active
            .iter()
            .enumerate()
            .filter(|&(i, _)| !clashed[i])
            .map(|(i, &v)| (v, pick[i]))
            .collect();
        Outcome {
            adoptions,
            aux: Vec::new(),
        }
    }

    /// Seed-lane block evaluation: the picks of all the block's seeds are
    /// materialized as one structure-of-arrays plane by stage position
    /// (`soa[i] = [pick under seed lane 0, …, lane 7]`), each row from one
    /// `TapeBlock::below_lanes` call that draws the node under every lane,
    /// then **one** pass over the rows' higher parts compares whole 8-lane
    /// rows at a time (`lane_eq_mask8`) — amortizing the clash scan's
    /// memory traffic across up to `SEED_BLOCK` seeds, where a per-seed
    /// evaluation would re-walk the edges once per seed.  Unused lanes are
    /// padded with the node's own position, which no in-stage neighbor
    /// shares.
    ///
    /// For `Colored`/`Auto` each lane's clashed-node count is the cost
    /// directly.  For the slack SSPs lane `s`'s outcome is read off the
    /// plane — the active nodes whose lane-`s` clash bit is clear, each
    /// with its lane-`s` pick, in stage order, exactly what `simulate`
    /// returns for that tape — and costed by [`NormalProcedure::seed_cost`].
    fn seed_cost_block(
        &self,
        state: &ColoringState,
        block: &dyn TapeBlock,
        scratch: &mut SimScratch,
        costs: &mut [f64],
    ) {
        let n_lanes = block.lanes();
        debug_assert_eq!(n_lanes, costs.len());
        // One lane call per node draws its picks under every seed of the
        // block, and the node's palette resolves them into its row.
        let active = &self.set.active;
        let n_active = active.len();
        let stream = S_PICK ^ self.round_tag << 8;
        scratch.soa.resize(n_active, [0; SEED_BLOCK]);
        for (i, (&v, lanes)) in active.iter().zip(&mut scratch.soa).enumerate() {
            let pal = state.palette(v);
            let draws = block.below_lanes(v, stream, 0, pal.len() as u64);
            for (lane, &k) in lanes.iter_mut().zip(&draws).take(n_lanes) {
                *lane = pal[k as usize];
            }
            for lane in lanes.iter_mut().skip(n_lanes) {
                *lane = i as u32;
            }
        }
        // One lane-parallel clash scan for the whole block: each
        // edge contributes a lane-equality bitmask OR-ed into both
        // endpoints' accumulators — branchless, so the (frequent)
        // clash case costs the same as the clean case.  Pad lanes
        // never fire (distinct positions), so every set bit belongs
        // to a real seed lane.
        scratch.lane_mask.clear();
        scratch.lane_mask.resize(n_active, 0);
        let soa = &scratch.soa;
        let mask = &mut scratch.lane_mask;
        for (i, row) in self.set.higher_rows().enumerate() {
            for &p in row {
                let eq = lane_eq_mask8(&soa[i], &soa[p as usize]);
                mask[i] |= eq;
                mask[p as usize] |= eq;
            }
        }
        match self.ssp {
            // For Colored (and the Auto warm-up cost) the failure count
            // is exactly the per-lane number of clashed nodes, read off
            // the masks in one pass.
            SspMode::Colored | SspMode::Auto => {
                let mut clashed = [0usize; SEED_BLOCK];
                for &m in mask.iter().filter(|&&m| m != 0) {
                    for (s, c) in clashed.iter_mut().enumerate() {
                        *c += usize::from(m >> s & 1);
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
                        active
                            .iter()
                            .zip(soa)
                            .zip(mask.iter())
                            .filter(|&(_, &m)| m >> s & 1 == 0)
                            .map(|((&v, lanes), _)| (v, lanes[s])),
                    );
                    *c = self.seed_cost(state, &out);
                }
            }
        }
    }

    fn ssp_failures(&self, state: &ColoringState, out: &Outcome) -> Vec<NodeId> {
        evaluate_ssp(state, &self.set, &self.ssp, out)
    }

    fn seed_cost(&self, state: &ColoringState, out: &Outcome) -> f64 {
        match self.ssp {
            // Warm-up: maximize colored nodes.
            SspMode::Auto => uncolored_cost(&self.set, out),
            _ => self.ssp_failures(state, out).len() as f64,
        }
    }

    fn zero_cost_under_every_seed(&self, state: &ColoringState) -> bool {
        zero_cost_certified(state, &self.set, &self.ssp)
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
pub struct MultiTrial {
    /// Participating nodes.
    pub set: StageSet,
    /// Candidate colors drawn per node.
    pub x: usize,
    /// Strong-success-property variant for this call.
    pub ssp: SspMode,
    /// Distinguishes repeated calls within one stage.
    pub round_tag: u64,
}

impl MultiTrial {
    /// Construct one invocation (`x` clamped to [`MULTI_TRIAL_CAP`]).
    pub fn new(set: StageSet, x: usize, ssp: SspMode, round_tag: u64) -> Self {
        MultiTrial {
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

impl NormalProcedure for MultiTrial {
    fn name(&self) -> &'static str {
        "MultiTrial"
    }

    fn active_count(&self) -> usize {
        self.set.active.len()
    }

    fn simulate(&self, state: &ColoringState, rng: &dyn Randomness) -> Outcome {
        // Phase 1: every active node draws into one flat candidate arena;
        // position i's set is `colors[off[i]..off[i + 1]]`.
        let (mut colors, mut tmp, mut words) = (Vec::new(), Vec::new(), Vec::new());
        let mut off = Vec::with_capacity(self.set.active.len() + 1);
        off.push(0);
        for &v in &self.set.active {
            self.draw_into(state, rng, v, &mut colors, &mut tmp, &mut words);
            off.push(colors.len());
        }
        let draw = |i: usize| &colors[off[i]..off[i + 1]];
        // Phase 2: adopt the first candidate no in-stage neighbor drew.
        let adoptions: Vec<(NodeId, u32)> = self
            .set
            .active
            .iter()
            .enumerate()
            .filter_map(|(i, &v)| {
                let row = self.set.neighbors(i);
                let free = |c: &&u32| {
                    !row.iter()
                        .any(|&p| draw(p as usize).binary_search(c).is_ok())
                };
                draw(i).iter().find(free).map(|&c| (v, c))
            })
            .collect();
        Outcome {
            adoptions,
            aux: Vec::new(),
        }
    }

    fn ssp_failures(&self, state: &ColoringState, out: &Outcome) -> Vec<NodeId> {
        evaluate_ssp(state, &self.set, &self.ssp, out)
    }

    fn seed_cost(&self, state: &ColoringState, out: &Outcome) -> f64 {
        match self.ssp {
            SspMode::Auto => uncolored_cost(&self.set, out),
            _ => self.ssp_failures(state, out).len() as f64,
        }
    }

    fn zero_cost_under_every_seed(&self, state: &ColoringState) -> bool {
        zero_cost_certified(state, &self.set, &self.ssp)
    }
}

// ---------------------------------------------------------------------
// GenerateSlack (Algorithm 6)
// ---------------------------------------------------------------------

/// Every node joins a set `S` independently with probability `p`; nodes in
/// `S` run one TryRandomColor among themselves.  Same-colored pairs of
/// sampled neighbors "collide away" palette colors of bystanders, creating
/// permanent slack (HKNT's slack-generation lemmas).
pub struct GenerateSlack {
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

impl GenerateSlack {
    /// Construct one invocation (`targets` aligned with `set.active`).
    pub fn new(set: StageSet, prob: f64, targets: Vec<f64>, round_tag: u64) -> Self {
        assert_eq!(set.active.len(), targets.len());
        GenerateSlack {
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

impl NormalProcedure for GenerateSlack {
    fn name(&self) -> &'static str {
        "GenerateSlack"
    }

    fn active_count(&self) -> usize {
        self.set.active.len()
    }

    fn simulate(&self, state: &ColoringState, rng: &dyn Randomness) -> Outcome {
        let active = &self.set.active;
        let adoptions: Vec<(NodeId, u32)> = active
            .iter()
            .enumerate()
            .filter_map(|(i, &v)| {
                if !self.sampled(rng, v) {
                    return None;
                }
                let c = self.pick(state, rng, v);
                let clash = self.set.neighbors(i).iter().any(|&p| {
                    let u = active[p as usize];
                    self.sampled(rng, u) && self.pick(state, rng, u) == c
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
        evaluate_ssp(state, &self.set, &self.ssp, out)
    }

    fn zero_cost_under_every_seed(&self, state: &ColoringState) -> bool {
        zero_cost_certified(state, &self.set, &self.ssp)
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
pub struct SynchColorTrial {
    /// All proposal-receiving inliers across cliques: every clique's
    /// inliers participate.
    pub set: StageSet,
    /// Per-clique leader/inlier views.
    pub cliques: Vec<CliqueTrial>,
    /// Per-clique failure tolerance `t` (SSP: ≤ t inliers of the clique
    /// fail; beyond that the whole clique's remaining inliers defer).
    pub tolerance: usize,
    /// Distinguishes repeated calls within one stage.
    pub round_tag: u64,
}

impl SynchColorTrial {
    /// Construct one invocation.
    pub fn new(set: StageSet, cliques: Vec<CliqueTrial>, tolerance: usize, round_tag: u64) -> Self {
        SynchColorTrial {
            set,
            cliques,
            tolerance,
            round_tag,
        }
    }
}

impl NormalProcedure for SynchColorTrial {
    fn name(&self) -> &'static str {
        "SynchColorTrial"
    }

    fn active_count(&self) -> usize {
        self.set.active.len()
    }

    fn simulate(&self, state: &ColoringState, rng: &dyn Randomness) -> Outcome {
        // Phase 1: leaders deal colors, `proposal[i]` for the inlier at
        // stage position i.
        let mut proposal = vec![NO_COLOR; self.set.active.len()];
        let stream = S_PERM ^ (self.round_tag << 8);
        for ct in &self.cliques {
            // Leader permutes its palette with its own randomness: the
            // Fisher-Yates words (idx 1..|pal|) arrive as one
            // `fill_words_seq` stripe fetch — only the data-dependent
            // swaps stay sequential.  `below(v, s, i, i+1)` is the Lemire
            // reduction of `word(v, s, i)`, so this is bit-identical to
            // per-draw scalar calls.
            let mut perm: Vec<u32> = state.palette(ct.leader).to_vec();
            let mut words = vec![0u64; perm.len().saturating_sub(1)];
            rng.fill_words_seq(ct.leader, stream, 1, &mut words);
            for i in (1..perm.len()).rev() {
                let j = ((words[i - 1] as u128 * (i as u128 + 1)) >> 64) as usize;
                perm.swap(i, j);
            }
            for (&v, &c) in ct.inliers.iter().zip(&perm) {
                proposal[self.set.position(v).expect("inlier outside the stage")] = c;
            }
        }
        // Phase 2: symmetric conflict resolution + palette membership.
        let adoptions: Vec<(NodeId, u32)> = self
            .set
            .active
            .iter()
            .enumerate()
            .filter_map(|(i, &v)| {
                let c = proposal[i];
                if c == NO_COLOR || !state.palette(v).contains(&c) {
                    return None;
                }
                let clash = self
                    .set
                    .neighbors(i)
                    .iter()
                    .any(|&p| proposal[p as usize] == c);
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
                .filter(|&v| self.set.position(v).is_some_and(|p| adopted[p] == NO_COLOR))
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
/// The kept set `P` is independent (a kept node has no sampled in-stage
/// neighbor) and is put aside to be colored greedily at the very end,
/// meanwhile donating slack to the rest of its clique.
pub struct PutAside {
    /// All participating inliers across low-slack cliques.
    pub set: StageSet,
    /// Per-clique sampling parameters.
    pub cliques: Vec<CliquePutAside>,
    /// Distinguishes repeated calls within one stage.
    pub round_tag: u64,
}

impl PutAside {
    #[inline]
    fn sampled(&self, rng: &dyn Randomness, v: NodeId, prob: f64) -> bool {
        rng.bernoulli(v, S_SAMPLE ^ (self.round_tag << 8) ^ 0x5041, 0, prob)
    }
}

impl NormalProcedure for PutAside {
    fn name(&self) -> &'static str {
        "PutAside"
    }

    fn local_rounds(&self) -> u64 {
        1
    }

    fn active_count(&self) -> usize {
        self.set.active.len()
    }

    fn simulate(&self, _state: &ColoringState, rng: &dyn Randomness) -> Outcome {
        // Each participant's sampling probability (its clique's), by
        // stage position.
        let active = &self.set.active;
        let mut probs = vec![0.0f64; active.len()];
        for cq in &self.cliques {
            for p in cq.inliers.iter().filter_map(|&v| self.set.position(v)) {
                probs[p] = cq.prob;
            }
        }
        let sampled = |i: usize| probs[i] > 0.0 && self.sampled(rng, active[i], probs[i]);
        // P = sampled nodes with no sampled in-stage neighbor.
        let aux: Vec<NodeId> = active
            .iter()
            .enumerate()
            .filter(|&(i, _)| {
                sampled(i) && !self.set.neighbors(i).iter().any(|&p| sampled(p as usize))
            })
            .map(|(_, &v)| v)
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
        let mut in_p = vec![false; self.set.active.len()];
        for &v in &out.aux {
            let p = self
                .set
                .position(v)
                .expect("put-aside node outside the stage");
            in_p[p] = true;
        }
        let kept = |v: NodeId| self.set.position(v).map(|p| in_p[p]);
        let mut failures = Vec::new();
        for cq in &self.cliques {
            let got = cq
                .inliers
                .iter()
                .filter(|&&v| kept(v) == Some(true))
                .count();
            if got < cq.target {
                failures.extend(
                    cq.inliers
                        .iter()
                        .copied()
                        .filter(|&v| kept(v) == Some(false)),
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
    use crate::stripes::STRIPE;
    use parcolor_local::tape::{CryptoTape, SplitMix};
    use proptest::prelude::*;

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

    fn full_set(g: &Graph) -> StageSet {
        StageSet::new(g, (0..g.n() as NodeId).collect())
    }

    #[test]
    fn try_random_color_adoptions_are_proper() {
        let g = ring(50);
        let inst = D1lcInstance::delta_plus_one(g.clone());
        let mut state = ColoringState::new(&inst);
        let proc = TryRandomColor::new(full_set(&g), SspMode::Auto, 0);
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
        let proc = TryRandomColor::new(full_set(&g), SspMode::Auto, 3);
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
        let a = TryRandomColor::new(full_set(&g), SspMode::Auto, 1).simulate(&state, &tape);
        let b = TryRandomColor::new(full_set(&g), SspMode::Auto, 2).simulate(&state, &tape);
        assert_ne!(a.adoptions, b.adoptions);
    }

    #[test]
    fn multi_trial_draws_distinct_sorted() {
        let g = ring(10);
        let inst = D1lcInstance::delta_plus_one(g.clone());
        let state = ColoringState::new(&inst);
        let proc = MultiTrial::new(full_set(&g), 2, SspMode::Auto, 0);
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
        let proc = MultiTrial::new(full_set(&g), 8, SspMode::Colored, 0);
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
        let proc = MultiTrial::new(full_set(&g), 2, SspMode::Auto, 1);
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
        let set = full_set(&g);
        let targets = vec![0.0; 2000];
        let proc = GenerateSlack::new(set, 0.1, targets, 0);
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
        let set = full_set(&g);
        // Impossible target: everyone uncolored fails.
        let targets = vec![100.0; 8];
        let proc = GenerateSlack::new(set, 0.0, targets, 0);
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
        let set = StageSet::new(&g, inliers.clone());
        let proc = SynchColorTrial::new(set, vec![CliqueTrial { leader: 0, inliers }], 6, 0);
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
        let set = StageSet::new(&g, inliers.clone());
        let proc = SynchColorTrial::new(set, vec![CliqueTrial { leader: 0, inliers }], 0, 0);
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
        let set = StageSet::new(&g, inliers.clone());
        let proc = PutAside {
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
        let set = StageSet::new(&g, inliers.clone());
        let proc = PutAside {
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
        let set = full_set(&g);
        let adopted = {
            let out = Outcome {
                adoptions: vec![(1, 1), (2, 1)],
                aux: Vec::new(),
            };
            super::adoption_map(&set, &out)
        };
        let (deg, slack) = super::post_deg_slack(&state, &set, &adopted, 0, &mut Vec::new());
        assert_eq!(deg, 0);
        // palette {0,1,2} minus {1} = 2 colors, degree 0 → slack 2
        assert_eq!(slack, 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Every row is the brute-force filter of `g.neighbors` to the
        // stage, as positions in adjacency order, split where the higher
        // ids start; the node list comes whole and shuffled, as a strict
        // subset, as a single node, or empty.  A quarter of the graphs
        // span two to three pool stripes, and their whole and subset
        // lists keep at least two stripes of participants, so the pool
        // builds their rows.
        #[test]
        fn stage_rows_match_a_filter_of_the_neighbor_lists(
            gseed in any::<u64>(),
            size in 0u64..4,
            shape in 0u64..4,
        ) {
            let mut rng = SplitMix::new(gseed);
            let (n, least) = if size == 0 {
                (2 * STRIPE + 1 + rng.below(STRIPE as u64) as usize, 2 * STRIPE)
            } else {
                (2 + rng.below(58) as usize, 0)
            };
            let m = (rng.below(4 * n as u64 + 1) as usize).min(n * (n - 1) / 2);
            let g = parcolor_graphgen::gnm(n, m, gseed);
            let mut nodes: Vec<NodeId> = (0..n as NodeId).collect();
            rng.shuffle(&mut nodes);
            match shape {
                0 => {}
                1 => nodes.truncate(least + rng.below((n - least) as u64) as usize),
                2 => nodes.truncate(1),
                _ => nodes.clear(),
            }
            let set = StageSet::new(&g, nodes.clone());
            prop_assert_eq!(&set.active, &nodes);
            let higher_rows: Vec<&[u32]> = set.higher_rows().collect();
            prop_assert_eq!(higher_rows.len(), nodes.len());
            let mut at = vec![None; n];
            for (i, &v) in nodes.iter().enumerate() {
                at[v as usize] = Some(i);
            }
            let position = |v: NodeId| at[v as usize];
            for v in 0..n as NodeId {
                prop_assert_eq!(set.position(v), position(v), "node {}", v);
                prop_assert_eq!(set.contains(v), position(v).is_some(), "node {}", v);
            }
            for (i, &v) in nodes.iter().enumerate() {
                let row: Vec<u32> = g
                    .neighbors(v)
                    .iter()
                    .filter_map(|&u| position(u).map(|p| p as u32))
                    .collect();
                let higher: Vec<u32> =
                    row.iter().copied().filter(|&p| nodes[p as usize] > v).collect();
                prop_assert_eq!(set.neighbors(i), &row[..], "row {}", i);
                prop_assert!(
                    row.windows(2).all(|w| nodes[w[0] as usize] < nodes[w[1] as usize]),
                    "row {} out of adjacency order",
                    i
                );
                prop_assert_eq!(higher_rows[i], &higher[..], "row {}", i);
                prop_assert_eq!(set.degree(i), row.len(), "row {}", i);
            }
        }
    }
}
