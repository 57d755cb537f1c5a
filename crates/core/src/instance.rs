//! D1LC instances and the mutable coloring state.
//!
//! A **(degree+1)-list-coloring** instance (Section 2.1 of the paper) is a
//! graph plus a palette `Ψ(v)` per node with `|Ψ(v)| ≥ d(v) + 1`.  The
//! defining property that makes D1LC *self-reducible* (Definition 11) and
//! therefore derandomizable by the paper's framework: after any valid
//! partial coloring, the uncolored subgraph with the *residual* palettes
//! (original minus colored neighbors' colors) is again a D1LC instance.
//! [`ColoringState`] maintains exactly that residual view incrementally
//! and machine-checks the invariant.

use crate::stripes::STRIPE;
use parcolor_exec::{par_fold, par_map_chunks, resolve_workers, Executor, ScatterMut};
use parcolor_local::graph::{Graph, NodeId};

/// Sentinel for "not colored yet".
pub const NO_COLOR: u32 = u32::MAX;

/// [`ColoringState::apply_adoptions`] updates palettes on the caller alone
/// unless its batch marks at least this many nodes per pool worker.
const MIN_MARKED_PER_WORKER: usize = 1024;

/// `affected_words` words (4,096 node ids each) per pool chunk of the
/// palette update.
const CHUNK_WORDS: usize = 1;

/// Immutable per-node palettes in a flat arena (no per-node allocation).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PaletteArena {
    offsets: Vec<u64>,
    colors: Vec<u32>,
}

impl PaletteArena {
    /// Build from per-node color lists.  Each list is deduplicated; order
    /// is preserved otherwise (first occurrence wins).
    ///
    /// Small lists dedup with a linear probe; above a cutoff the probe's
    /// `O(k²)` cost dominates instance construction, so larger lists
    /// sort-dedup `(color, first_position)` pairs and restore input order —
    /// `O(k log k)` with identical output.
    pub fn from_lists(lists: &[Vec<u32>]) -> Self {
        const SORT_DEDUP_CUTOFF: usize = 32;
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        offsets.push(0u64);
        let mut colors = Vec::new();
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for list in lists {
            for &c in list {
                assert!(c != NO_COLOR, "color value u32::MAX is reserved");
            }
            if list.len() <= SORT_DEDUP_CUTOFF {
                let start = colors.len();
                for &c in list {
                    if !colors[start..].contains(&c) {
                        colors.push(c);
                    }
                }
            } else {
                pairs.clear();
                pairs.extend(list.iter().enumerate().map(|(i, &c)| (c, i as u32)));
                // Keep the first occurrence of each color, then restore
                // input order by position.
                pairs.sort_unstable();
                pairs.dedup_by_key(|&mut (c, _)| c);
                pairs.sort_unstable_by_key(|&(_, pos)| pos);
                colors.extend(pairs.iter().map(|&(c, _)| c));
            }
            offsets.push(colors.len() as u64);
        }
        PaletteArena { offsets, colors }
    }

    /// The canonical (Δ+1)-coloring palette: every node gets `0..=deg`.
    /// This realizes the reduction "(Δ+1)-coloring ≤ D1LC" from the paper's
    /// introduction.
    ///
    /// Constructed straight into the flat arena: the lists `0..=deg` are
    /// already duplicate-free, so no intermediate per-node `Vec` (and no
    /// dedup pass) is needed — offsets are a prefix sum of `deg + 1`.
    pub fn degree_plus_one(g: &Graph) -> Self {
        let n = g.n();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u64);
        let mut total = 0u64;
        for v in 0..n as NodeId {
            total += g.degree(v) as u64 + 1;
            offsets.push(total);
        }
        let mut colors = Vec::with_capacity(total as usize);
        for v in 0..n as NodeId {
            colors.extend(0..=g.degree(v) as u32);
        }
        PaletteArena { offsets, colors }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Input palette of `v`.
    #[inline]
    pub fn palette(&self, v: NodeId) -> &[u32] {
        &self.colors[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// Input palette size of `v`.
    #[inline]
    pub fn size(&self, v: NodeId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Total words of palette storage (for MPC space accounting).
    pub fn words(&self) -> usize {
        self.offsets.len() + self.colors.len()
    }
}

/// A D1LC problem instance.
#[derive(Clone, Debug)]
pub struct D1lcInstance {
    /// The input graph.
    pub graph: Graph,
    /// Per-node input palettes (`|Ψ(v)| ≥ d(v)+1`).
    pub palettes: PaletteArena,
}

impl D1lcInstance {
    /// Construct and validate an instance (panics on a broken promise).
    pub fn new(graph: Graph, palettes: PaletteArena) -> Self {
        let inst = D1lcInstance { graph, palettes };
        inst.validate().expect("invalid D1LC instance");
        inst
    }

    /// The (Δ+1)-coloring special case.
    pub fn delta_plus_one(graph: Graph) -> Self {
        let palettes = PaletteArena::degree_plus_one(&graph);
        D1lcInstance { graph, palettes }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// Check the D1LC promise `|Ψ(v)| ≥ d(v) + 1` for every node.
    pub fn validate(&self) -> Result<(), String> {
        if self.palettes.n() != self.graph.n() {
            return Err("palette count != node count".into());
        }
        for v in 0..self.graph.n() as NodeId {
            if self.palettes.size(v) < self.graph.degree(v) + 1 {
                return Err(format!(
                    "node {v}: palette {} < degree {} + 1",
                    self.palettes.size(v),
                    self.graph.degree(v)
                ));
            }
        }
        Ok(())
    }

    /// Verify a complete coloring: every node colored from its own palette
    /// and no monochromatic edge.  The error names the lowest node that is
    /// uncolored or off its palette; "monochromatic edge" is reported only
    /// when every node passes.
    ///
    /// One fold over node-id stripes on the pool finds that node and
    /// whether any adjacency entry joins two equal colors; both are a
    /// `min` and an `or`, so the verdict is the same at every worker count.
    pub fn verify_coloring(&self, colors: &[u32]) -> Result<(), String> {
        if colors.len() != self.n() {
            return Err("wrong length".into());
        }
        let off_palette =
            |v: NodeId, c: u32| c == NO_COLOR || !self.palettes.palette(v).contains(&c);
        let (lowest_bad, monochromatic) = par_fold(
            Executor::global(),
            resolve_workers(0),
            0..self.n() as u64,
            STRIPE as u64,
            || (u64::MAX, false),
            |start, len, (mut bad, mut mono)| {
                for v in start..start + len {
                    let c = colors[v as usize];
                    if v < bad && off_palette(v as NodeId, c) {
                        bad = v;
                    }
                    mono = mono
                        || self
                            .graph
                            .neighbors(v as NodeId)
                            .iter()
                            .any(|&u| colors[u as usize] == c);
                }
                (bad, mono)
            },
            |(a, x), (b, y)| (a.min(b), x || y),
        );
        if lowest_bad != u64::MAX {
            let (v, c) = (lowest_bad, colors[lowest_bad as usize]);
            return Err(if c == NO_COLOR {
                format!("node {v} uncolored")
            } else {
                format!("node {v}: color {c} not in palette")
            });
        }
        if monochromatic {
            return Err("monochromatic edge".into());
        }
        Ok(())
    }
}

/// Mutable residual state of a partially colored D1LC instance.
///
/// Maintains, for every uncolored node: its residual palette (input palette
/// minus the colors of colored neighbors) and its uncolored degree.  These
/// are exactly the quantities `p(v)` and `d(v)` of the paper's "current
/// graph G" (Section 2.1: "As we go on coloring the nodes … the color
/// palettes of the nodes will also change").
#[derive(Clone, Debug)]
pub struct ColoringState {
    n: usize,
    color: Vec<u32>,
    /// Residual palettes: an arena in node order, with per-node live
    /// prefix `pal_len[v]`.  The palette update's node-id stripes own
    /// disjoint arena ranges because of that order.
    pal_off: Vec<u64>,
    pal: Vec<u32>,
    pal_len: Vec<u32>,
    unc_deg: Vec<u32>,
    /// Epoch stamps marking "colored in the current batch" during updates.
    stamp: Vec<u32>,
    epoch: u32,
    /// The uncolored neighbors of the batch
    /// [`ColoringState::apply_adoptions`] is applying, as a two-level
    /// bitset: bit `u` of `affected` marks node `u`, and bit `w` of
    /// `affected_words` marks a non-zero `affected[w]`.  The edge walk
    /// sets bits and the palette update clears every word it visits, so
    /// both are all zero between calls that return.
    affected: Vec<u64>,
    affected_words: Vec<u64>,
    colored_count: usize,
}

impl ColoringState {
    /// Fresh all-uncolored state over the instance.  The residual arena
    /// starts as a copy of the input arena, which has the same node-order
    /// layout.
    pub fn new(inst: &D1lcInstance) -> Self {
        let n = inst.n();
        let PaletteArena { offsets, colors } = &inst.palettes;
        let pal_len = offsets.windows(2).map(|w| (w[1] - w[0]) as u32).collect();
        let unc_deg: Vec<u32> = (0..n as NodeId)
            .map(|v| inst.graph.degree(v) as u32)
            .collect();
        ColoringState {
            n,
            color: vec![NO_COLOR; n],
            pal_off: offsets.clone(),
            pal: colors.clone(),
            pal_len,
            unc_deg,
            stamp: vec![0; n],
            epoch: 0,
            affected: vec![0; n.div_ceil(64)],
            affected_words: vec![0; n.div_ceil(64 * 64)],
            colored_count: 0,
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current color of `v` (`NO_COLOR` if uncolored).
    #[inline]
    pub fn color(&self, v: NodeId) -> u32 {
        self.color[v as usize]
    }

    /// Whether `v` has committed a color.
    #[inline]
    pub fn is_colored(&self, v: NodeId) -> bool {
        self.color[v as usize] != NO_COLOR
    }

    /// Number of colored nodes.
    pub fn colored_count(&self) -> usize {
        self.colored_count
    }

    /// Number of uncolored nodes.
    pub fn uncolored_count(&self) -> usize {
        self.n - self.colored_count
    }

    /// Residual palette of `v` (meaningless once `v` is colored).
    #[inline]
    pub fn palette(&self, v: NodeId) -> &[u32] {
        let start = self.pal_off[v as usize] as usize;
        &self.pal[start..start + self.pal_len[v as usize] as usize]
    }

    /// Residual palette size `p(v)`.
    #[inline]
    pub fn palette_size(&self, v: NodeId) -> usize {
        self.pal_len[v as usize] as usize
    }

    /// Uncolored degree `d(v)` in the residual graph.
    #[inline]
    pub fn uncolored_degree(&self, v: NodeId) -> usize {
        self.unc_deg[v as usize] as usize
    }

    /// Slack `s(v) = p(v) − d(v)` (Definition 2).
    #[inline]
    pub fn slack(&self, v: NodeId) -> i64 {
        self.pal_len[v as usize] as i64 - self.unc_deg[v as usize] as i64
    }

    /// All uncolored node ids, ascending.
    pub fn uncolored_nodes(&self) -> Vec<NodeId> {
        (0..self.n as NodeId)
            .filter(|&v| !self.is_colored(v))
            .collect()
    }

    /// Apply a batch of simultaneous adoptions `(v, c)`.
    ///
    /// Preconditions (checked): every `v` is uncolored, `c` is in `v`'s
    /// residual palette, and the batch is internally conflict-free (no two
    /// *adjacent* nodes adopt the same color).  Procedures guarantee the
    /// last point by symmetric abstention; it is re-verified here because a
    /// violation would silently corrupt the whole run.  A conflict panics
    /// naming the first one in batch order.
    ///
    /// The batch commits sequentially, then one walk over its edges checks
    /// conflicts and marks every uncolored neighbor in the `affected`
    /// bitset.  Each marked node `u` then drops its newly colored
    /// neighbors' colors from its palette, in adjacency order.  That
    /// update reads only the neighbors' `stamp` and `color`, which nothing
    /// writes meanwhile, and writes only `u`'s own palette slice and
    /// counters, so it runs on the `parcolor-exec` pool over stripes of
    /// node ids (the arena is in node order).  Every residual palette,
    /// order included, is the same at every worker count.  The sweep
    /// reads the `affected_words` words between the lowest and the highest
    /// marked node, and only the non-zero `affected` words they point to,
    /// so a one-node batch costs its node's edges plus at most `n / 4096`
    /// word reads.
    pub fn apply_adoptions(&mut self, g: &Graph, adoptions: &[(NodeId, u32)]) {
        if adoptions.is_empty() {
            return;
        }
        self.epoch += 1;
        let epoch = self.epoch;
        for &(v, c) in adoptions {
            assert!(!self.is_colored(v), "node {v} adopted twice");
            assert!(
                self.palette(v).contains(&c),
                "node {v}: adopted color {c} not in residual palette"
            );
            self.color[v as usize] = c;
            self.stamp[v as usize] = epoch;
            self.colored_count += 1;
        }
        let (mut lo, mut hi, mut marked) = (usize::MAX, 0, 0);
        for &(v, c) in adoptions {
            for &u in g.neighbors(v) {
                let u = u as usize;
                match self.color[u] {
                    NO_COLOR => {
                        let (w, bit) = (u / 64, 1 << (u % 64));
                        if self.affected[w] & bit == 0 {
                            self.affected[w] |= bit;
                            self.affected_words[w / 64] |= 1 << (w % 64);
                            marked += 1;
                            lo = lo.min(w / 64);
                            hi = hi.max(w / 64);
                        }
                    }
                    // Only the batch's own nodes carry this epoch's stamp.
                    cu if cu == c && self.stamp[u] == epoch => {
                        panic!("conflicting adoptions: {v} and {u} both took {c}");
                    }
                    _ => {}
                }
            }
        }
        if marked == 0 {
            return;
        }
        let workers = resolve_workers(0)
            .min(marked / MIN_MARKED_PER_WORKER)
            .max(1);
        let (n, pal_off, stamp, color) = (self.n, &self.pal_off, &self.stamp, &self.color);
        let (tops, words) = (
            ScatterMut::new(&mut self.affected_words[lo..=hi]),
            ScatterMut::new(&mut self.affected),
        );
        let (pal, pal_len, unc_deg) = (
            ScatterMut::new(&mut self.pal),
            ScatterMut::new(&mut self.pal_len),
            ScatterMut::new(&mut self.unc_deg),
        );
        // A lone worker sweeps the span as one chunk: a sparse batch's
        // empty chunks would cost more than its few updates.
        let span = hi + 1 - lo;
        let chunk = if workers == 1 { span } else { CHUNK_WORDS };
        let pool = Executor::global();
        par_map_chunks(pool, workers, span, chunk, |start, len| {
            let first = (lo + start) * 64 * 64;
            let end = ((lo + start + len) * 64 * 64).min(n);
            let base = pal_off[first] as usize;
            // SAFETY: the chunks of one `par_map_chunks` call are disjoint
            // ranges `start..start + len` of `affected_words[lo..=hi]`.
            // Each owns the node ids `first..end`: the disjoint ranges
            // `first / 64..end.div_ceil(64)` of `affected`,
            // `first..end` of `pal_len` and `unc_deg`, and
            // `pal_off[first]..pal_off[end]` of the node-order arena.
            let (tops, words, pal, pal_len, unc_deg) = unsafe {
                (
                    tops.stripe_mut(start, len),
                    words.stripe_mut(first / 64, (end - first).div_ceil(64)),
                    pal.stripe_mut(base, pal_off[end] as usize - base),
                    pal_len.stripe_mut(first, end - first),
                    unc_deg.stripe_mut(first, end - first),
                )
            };
            // Most words of a sparse batch's span are zero; skipping them
            // here keeps `drain_bits` calls to the marked ones.
            for (t, top) in tops.iter_mut().enumerate().filter(|(_, top)| **top != 0) {
                drain_bits(top, |j| {
                    let i = t * 64 + j;
                    drain_bits(&mut words[i], |b| {
                        let k = i * 64 + b;
                        let u = first + k;
                        let row = &mut pal[pal_off[u] as usize - base..];
                        let mut live = pal_len[k] as usize;
                        for &w in g.neighbors(u as NodeId) {
                            if stamp[w as usize] == epoch {
                                unc_deg[k] -= 1;
                                let c = color[w as usize];
                                if let Some(pos) = row[..live].iter().position(|&x| x == c) {
                                    row.swap(pos, live - 1);
                                    live -= 1;
                                }
                            }
                        }
                        pal_len[k] = live as u32;
                    });
                });
            }
        });
    }

    /// The D1LC invariant `p(v) ≥ d(v) + 1` on every uncolored node — the
    /// self-reducibility property (Definition 11) that the entire pipeline
    /// depends on.  Returns the first violating node, if any.
    pub fn invariant_violation(&self) -> Option<NodeId> {
        (0..self.n as NodeId)
            .find(|&v| !self.is_colored(v) && self.pal_len[v as usize] <= self.unc_deg[v as usize])
    }

    /// Verify properness of the colored part against the graph.
    pub fn verify_partial(&self, g: &Graph) -> Result<(), String> {
        for v in 0..self.n as NodeId {
            if !self.is_colored(v) {
                continue;
            }
            for &u in g.neighbors(v) {
                if self.is_colored(u) && self.color(u) == self.color(v) {
                    return Err(format!("edge {v}-{u} monochromatic ({})", self.color(v)));
                }
            }
        }
        Ok(())
    }

    /// Extract the residual D1LC instance induced on `nodes` (all must be
    /// uncolored).  Returns the instance and the map new-id → old-id.
    /// This is the `O(1)`-round re-input computation of Definition 11.
    pub fn residual_instance(&self, g: &Graph, nodes: &[NodeId]) -> (D1lcInstance, Vec<NodeId>) {
        self.restricted_instance(g, nodes, |_| true)
            .expect("residual palettes keep the D1LC invariant p(v) ≥ d(v) + 1")
    }

    /// Residual instance with palettes filtered by a predicate (used by
    /// `LowSpacePartition`'s color-bin restriction).  The caller is
    /// responsible for the filtered instance satisfying the D1LC promise
    /// (Lemma 23 selects hash functions that guarantee it); this method
    /// checks and reports rather than asserting.
    pub fn restricted_instance<F>(
        &self,
        g: &Graph,
        nodes: &[NodeId],
        keep_color: F,
    ) -> Result<(D1lcInstance, Vec<NodeId>), String>
    where
        F: Fn(u32) -> bool + Sync,
    {
        debug_assert!(nodes.iter().all(|&v| !self.is_colored(v)));
        let (sub, map) = g.induced(nodes);
        let lists: Vec<Vec<u32>> = map
            .iter()
            .map(|&old| {
                let pal = self.palette(old);
                let mut list = Vec::with_capacity(pal.len());
                list.extend(pal.iter().copied().filter(|&c| keep_color(c)));
                list
            })
            .collect();
        for (new_v, list) in lists.iter().enumerate() {
            if list.len() < sub.degree(new_v as NodeId) + 1 {
                return Err(format!(
                    "restricted palette of node {} (orig {}) too small: {} ≤ degree {}",
                    new_v,
                    map[new_v],
                    list.len(),
                    sub.degree(new_v as NodeId)
                ));
            }
        }
        let palettes = PaletteArena::from_lists(&lists);
        Ok((D1lcInstance::new(sub, palettes), map))
    }

    /// Final colors; errors if any node is uncolored.
    pub fn into_colors(self) -> Result<Vec<u32>, String> {
        if self.colored_count != self.n {
            return Err(format!(
                "{} nodes still uncolored",
                self.n - self.colored_count
            ));
        }
        Ok(self.color)
    }

    /// Colors vector including `NO_COLOR` sentinels (partial view).
    pub fn colors(&self) -> &[u32] {
        &self.color
    }
}

/// Clear `*word` and call `f` with the index of each bit it held, in
/// ascending order.
fn drain_bits(word: &mut u64, mut f: impl FnMut(usize)) {
    let mut bits = std::mem::take(word);
    while bits != 0 {
        f(bits.trailing_zeros() as usize);
        bits &= bits - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcolor_local::tape::SplitMix;

    fn cycle(n: usize) -> Graph {
        let edges: Vec<_> = (0..n as NodeId)
            .map(|i| (i, ((i + 1) % n as NodeId)))
            .collect();
        Graph::from_edges(n, &edges)
    }

    fn inst_cycle(n: usize) -> D1lcInstance {
        D1lcInstance::delta_plus_one(cycle(n))
    }

    #[test]
    fn delta_plus_one_palettes() {
        let inst = inst_cycle(5);
        assert!(inst.validate().is_ok());
        assert_eq!(inst.palettes.palette(0), &[0, 1, 2]);
    }

    #[test]
    fn palette_arena_dedups() {
        let pa = PaletteArena::from_lists(&[vec![1, 2, 2, 3], vec![5]]);
        assert_eq!(pa.palette(0), &[1, 2, 3]);
        assert_eq!(pa.size(1), 1);
    }

    #[test]
    #[should_panic]
    fn reserved_color_rejected() {
        PaletteArena::from_lists(&[vec![NO_COLOR]]);
    }

    #[test]
    fn large_list_sort_dedup_preserves_first_occurrence_order() {
        // Above the sort-dedup cutoff: interleaved duplicates across a
        // list long enough to take the O(k log k) path.
        let list: Vec<u32> = (0..120u32).map(|i| (i * 7 + 3) % 40).collect();
        let mut expect: Vec<u32> = Vec::new();
        for &c in &list {
            if !expect.contains(&c) {
                expect.push(c);
            }
        }
        let pa = PaletteArena::from_lists(&[list]);
        assert_eq!(pa.palette(0), &expect[..]);
    }

    #[test]
    fn degree_plus_one_matches_from_lists() {
        // The direct arena construction must equal the list-based one.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 0), (1, 4)]);
        let direct = PaletteArena::degree_plus_one(&g);
        let lists: Vec<Vec<u32>> = (0..g.n() as NodeId)
            .map(|v| (0..=g.degree(v) as u32).collect())
            .collect();
        assert_eq!(direct, PaletteArena::from_lists(&lists));
    }

    #[test]
    fn adoption_updates_neighbors() {
        let inst = inst_cycle(4);
        let mut st = ColoringState::new(&inst);
        st.apply_adoptions(&inst.graph, &[(0, 1)]);
        assert!(st.is_colored(0));
        assert_eq!(st.uncolored_degree(1), 1);
        assert_eq!(st.uncolored_degree(3), 1);
        assert_eq!(st.uncolored_degree(2), 2);
        assert!(!st.palette(1).contains(&1));
        assert!(!st.palette(3).contains(&1));
        assert!(st.palette(2).contains(&1));
        assert!(st.invariant_violation().is_none());
    }

    #[test]
    fn simultaneous_nonadjacent_same_color_ok() {
        let inst = inst_cycle(6);
        let mut st = ColoringState::new(&inst);
        // 0 and 3 are not adjacent in C6.
        st.apply_adoptions(&inst.graph, &[(0, 2), (3, 2)]);
        assert!(st.verify_partial(&inst.graph).is_ok());
        // node 1 neighbors 0 and 2: only one of them colored; degree 1 left
        assert_eq!(st.uncolored_degree(1), 1);
        // palette of 2 lost color 2 once (from node 3), not twice
        assert_eq!(st.palette_size(2), 2);
    }

    #[test]
    #[should_panic(expected = "conflicting adoptions")]
    fn adjacent_same_color_panics() {
        let inst = inst_cycle(4);
        let mut st = ColoringState::new(&inst);
        st.apply_adoptions(&inst.graph, &[(0, 1), (1, 1)]);
    }

    #[test]
    #[should_panic(expected = "not in residual palette")]
    fn color_outside_palette_panics() {
        let inst = inst_cycle(4);
        let mut st = ColoringState::new(&inst);
        st.apply_adoptions(&inst.graph, &[(0, 99)]);
    }

    #[test]
    #[should_panic(expected = "adopted twice")]
    fn double_coloring_panics() {
        let inst = inst_cycle(4);
        let mut st = ColoringState::new(&inst);
        st.apply_adoptions(&inst.graph, &[(0, 0)]);
        st.apply_adoptions(&inst.graph, &[(0, 1)]);
    }

    #[test]
    fn slack_grows_when_neighbor_colored_with_foreign_color() {
        // Star: center 0 with 3 leaves; palettes deg+1.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        let inst = D1lcInstance::delta_plus_one(g);
        let mut st = ColoringState::new(&inst);
        assert_eq!(st.slack(0), 1);
        // Leaf 1 has palette {0,1}; give it color 1.
        st.apply_adoptions(&inst.graph, &[(1, 1)]);
        // Center: palette {0,1,2,3} loses 1 → 3 colors, degree 2 → slack 1.
        assert_eq!(st.slack(0), 1);
        // Leaf 2 takes color 1 as well (not adjacent to leaf 1):
        st.apply_adoptions(&inst.graph, &[(2, 1)]);
        // Center palette already lost 1 → stays 3, degree 1 → slack 2.
        assert_eq!(st.slack(0), 2);
    }

    #[test]
    fn residual_instance_is_valid_d1lc() {
        let inst = inst_cycle(6);
        let mut st = ColoringState::new(&inst);
        st.apply_adoptions(&inst.graph, &[(0, 0), (3, 0)]);
        let remaining = st.uncolored_nodes();
        let (sub, map) = st.residual_instance(&inst.graph, &remaining);
        assert_eq!(sub.n(), 4);
        assert!(sub.validate().is_ok());
        assert_eq!(map, vec![1, 2, 4, 5]);
    }

    #[test]
    fn restricted_instance_checks_promise() {
        let inst = inst_cycle(4);
        let st = ColoringState::new(&inst);
        // Keeping only color 0 gives palettes of size 1 < degree+1.
        let r = st.restricted_instance(&inst.graph, &st.uncolored_nodes(), |c| c == 0);
        assert!(r.is_err());
        // Keeping everything works.
        let r = st.restricted_instance(&inst.graph, &st.uncolored_nodes(), |_| true);
        assert!(r.is_ok());
    }

    #[test]
    fn into_colors_requires_completion() {
        let inst = inst_cycle(3);
        let mut st = ColoringState::new(&inst);
        st.apply_adoptions(&inst.graph, &[(0, 0)]);
        assert!(st.clone().into_colors().is_err());
        st.apply_adoptions(&inst.graph, &[(1, 1)]);
        st.apply_adoptions(&inst.graph, &[(2, 2)]);
        let colors = st.into_colors().unwrap();
        assert!(inst.verify_coloring(&colors).is_ok());
    }

    #[test]
    fn verify_coloring_catches_palette_violation() {
        let inst = inst_cycle(3);
        // proper but node 0 uses color 5 ∉ palette {0,1,2}
        assert!(inst.verify_coloring(&[5, 1, 2]).is_err());
        assert!(inst.verify_coloring(&[0, 1, 2]).is_ok());
    }

    /// The sequential check the pool fold replaced, kept as its oracle.
    fn reference_verify(inst: &D1lcInstance, colors: &[u32]) -> Result<(), String> {
        if colors.len() != inst.n() {
            return Err("wrong length".into());
        }
        for v in 0..inst.n() as NodeId {
            let c = colors[v as usize];
            if c == NO_COLOR {
                return Err(format!("node {v} uncolored"));
            }
            if !inst.palettes.palette(v).contains(&c) {
                return Err(format!("node {v}: color {c} not in palette"));
            }
        }
        let g = &inst.graph;
        let proper = (0..inst.n() as NodeId).all(|v| {
            g.neighbors(v)
                .iter()
                .all(|&u| colors[u as usize] != colors[v as usize])
        });
        if !proper {
            return Err("monochromatic edge".into());
        }
        Ok(())
    }

    /// Violations in different fold blocks of a cycle over five blocks:
    /// the lowest violating node names the error, whatever kind the
    /// others are, and "monochromatic edge" needs every palette check to
    /// pass; every verdict equals the sequential loop's.
    #[test]
    fn verify_fold_reports_the_lowest_violation() {
        let n = 5 * STRIPE + 7;
        let inst = inst_cycle(n);
        let mut proper: Vec<u32> = (0..n as u32).map(|v| v % 2).collect();
        proper[n - 1] = 2;
        let with = |changes: &[(usize, u32)]| {
            let mut colors = proper.clone();
            for &(v, c) in changes {
                colors[v] = c;
            }
            colors
        };
        let mono = (STRIPE + 501, 0);
        let uncolored = (2 * STRIPE + 300, NO_COLOR);
        let off = (3 * STRIPE + 200, 7);
        let low_off = (STRIPE + 100, 5);
        let cases: [(Vec<u32>, Result<(), String>); 6] = [
            (proper.clone(), Ok(())),
            (with(&[mono]), Err("monochromatic edge".into())),
            (
                with(&[mono, off]),
                Err(format!("node {}: color 7 not in palette", off.0)),
            ),
            (
                with(&[off, uncolored, mono]),
                Err(format!("node {} uncolored", uncolored.0)),
            ),
            (
                with(&[uncolored, low_off]),
                Err(format!("node {}: color 5 not in palette", low_off.0)),
            ),
            (proper[1..].to_vec(), Err("wrong length".into())),
        ];
        for (i, (colors, want)) in cases.iter().enumerate() {
            assert_eq!(&inst.verify_coloring(colors), want, "case {i}");
            assert_eq!(&reference_verify(&inst, colors), want, "case {i}");
        }
    }

    #[test]
    fn big_batch_parallel_update_consistent() {
        // Match a sequential reference on a larger cycle.
        let n = 1000;
        let inst = inst_cycle(n);
        let mut st = ColoringState::new(&inst);
        // Color all even nodes with color 0 (independent set in C_1000).
        let batch: Vec<(NodeId, u32)> = (0..n as NodeId).step_by(2).map(|v| (v, 0)).collect();
        st.apply_adoptions(&inst.graph, &batch);
        assert!(st.verify_partial(&inst.graph).is_ok());
        for v in (1..n as NodeId).step_by(2) {
            assert_eq!(st.uncolored_degree(v), 0);
            assert_eq!(st.palette_size(v), 2); // {0,1,2} minus 0
            assert!(st.slack(v) >= 1);
        }
        assert!(st.invariant_violation().is_none());
    }

    /// The update as one sequential loop over a sorted affected list: the
    /// oracle [`ColoringState::apply_adoptions`] must match bit for bit.
    fn reference_apply(st: &mut ColoringState, g: &Graph, adoptions: &[(NodeId, u32)]) {
        if adoptions.is_empty() {
            return;
        }
        st.epoch += 1;
        let epoch = st.epoch;
        for &(v, c) in adoptions {
            assert!(!st.is_colored(v), "node {v} adopted twice");
            assert!(
                st.palette(v).contains(&c),
                "node {v}: adopted color {c} not in residual palette"
            );
            st.color[v as usize] = c;
            st.stamp[v as usize] = epoch;
            st.colored_count += 1;
        }
        for &(v, c) in adoptions {
            for &u in g.neighbors(v) {
                if st.stamp[u as usize] == epoch && st.color[u as usize] == c {
                    panic!("conflicting adoptions: {v} and {u} both took {c}");
                }
            }
        }
        let mut affected: Vec<NodeId> = adoptions
            .iter()
            .flat_map(|&(v, _)| g.neighbors(v).iter().copied())
            .filter(|&u| !st.is_colored(u))
            .collect();
        affected.sort_unstable();
        affected.dedup();
        for &u in &affected {
            let start = st.pal_off[u as usize] as usize;
            let mut live = st.pal_len[u as usize] as usize;
            for &w in g.neighbors(u) {
                if st.stamp[w as usize] == epoch {
                    st.unc_deg[u as usize] -= 1;
                    let c = st.color[w as usize];
                    let slice = &mut st.pal[start..start + live];
                    if let Some(pos) = slice.iter().position(|&x| x == c) {
                        slice.swap(pos, live - 1);
                        live -= 1;
                    }
                }
            }
            st.pal_len[u as usize] = live as u32;
        }
    }

    /// Up to `tries` random uncolored nodes, each with a random color of
    /// its residual palette, keeping a node only if no neighbor kept
    /// before it took the same color.
    fn random_batch(
        st: &ColoringState,
        g: &Graph,
        rng: &mut SplitMix,
        tries: usize,
    ) -> Vec<(NodeId, u32)> {
        let mut nodes = st.uncolored_nodes();
        rng.shuffle(&mut nodes);
        let mut took = vec![NO_COLOR; st.n()];
        let mut batch = Vec::new();
        for v in nodes.into_iter().take(tries) {
            let pal = st.palette(v);
            let c = pal[rng.below(pal.len() as u64) as usize];
            if g.neighbors(v).iter().all(|&u| took[u as usize] != c) {
                took[v as usize] = c;
                batch.push((v, c));
            }
        }
        batch
    }

    #[test]
    fn striped_update_matches_the_sequential_loop() {
        // List palettes out of 64 colors, so neighbors share colors and
        // batches really remove them.  The large batches mark several
        // times `MIN_MARKED_PER_WORKER` nodes, so they run on the pool
        // at any worker count above 1.
        let n = 20_000;
        let g = parcolor_graphgen::gnp(n, 8.0 / n as f64, 7);
        // `random_lists` builds a `parcolor_core` instance of the library
        // build; copy its palettes into this crate's types.
        let lists = parcolor_graphgen::random_lists(g.clone(), 64, 3, 11);
        let lists: Vec<Vec<u32>> = (0..n as NodeId)
            .map(|v| lists.palettes.palette(v).to_vec())
            .collect();
        let inst = D1lcInstance::new(g, PaletteArena::from_lists(&lists));
        let g = &inst.graph;
        let mut st = ColoringState::new(&inst);
        let mut reference = st.clone();
        let mut rng = SplitMix::new(5);
        for tries in [1, 6_000, 1, 1, 2_500, 40, 1, 4_000, 300, 1, 20_000] {
            let batch = random_batch(&st, g, &mut rng, tries);
            st.apply_adoptions(g, &batch);
            reference_apply(&mut reference, g, &batch);
            assert_eq!(st.color, reference.color);
            // The whole arena: every residual palette in order, and the
            // removed colors behind each live prefix.
            assert_eq!(st.pal, reference.pal);
            assert_eq!(st.pal_len, reference.pal_len);
            assert_eq!(st.unc_deg, reference.unc_deg);
            assert_eq!(st.colored_count, reference.colored_count);
            assert!(st.affected.iter().all(|&w| w == 0));
            assert!(st.affected_words.iter().all(|&w| w == 0));
        }
        assert!(st.colored_count() > n / 2);
        assert!(st.invariant_violation().is_none());
    }

    #[test]
    #[should_panic(expected = "conflicting adoptions: 4 and 3 both took 2")]
    fn conflict_panic_names_the_first_conflict_in_batch_order() {
        // Two conflicts on C6: 4–3 on color 2 comes first in the batch,
        // 0–1 on color 1 first in node order.
        let inst = inst_cycle(6);
        let mut st = ColoringState::new(&inst);
        st.apply_adoptions(&inst.graph, &[(4, 2), (0, 1), (3, 2), (1, 1)]);
    }
}
