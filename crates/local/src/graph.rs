//! Compact CSR graph representation.
//!
//! All algorithms in the workspace operate on undirected simple graphs with
//! nodes identified by dense `u32` ids.  The CSR layout (one flat adjacency
//! array plus an offsets array) keeps neighbor scans cache-friendly and
//! splits per-node work into disjoint slices — the core idiom recommended
//! by the Rust Performance Book for this kind of workload.
//!
//! There is one construction path from edges: [`Graph::from_edge_stream`]
//! counts, scatters, sorts and deduplicates in two passes over a
//! re-runnable edge sequence, and [`Graph::from_edges`] replays a slice
//! through it.  Codecs that already hold CSR arrays hand them to
//! [`Graph::from_csr`] (or `Graph::from_mapped`), which run the same
//! linear structural checks that [`Graph::validate`] extends with
//! symmetry.

/// Dense node identifier.
pub type NodeId = u32;

/// Backing storage for the two CSR arrays — the `GraphStore` of the
/// crate docs.  Owned heap vectors are the default; on little-endian
/// unix targets a graph can instead borrow its arrays zero-copy out of
/// an mmap'd `.pcg` file ([`crate::store::MappedCsr`]).  Every [`Graph`]
/// accessor resolves through [`Graph::offsets`]/[`Graph::adj`], so the
/// two storages are observationally identical.
#[derive(Clone, Debug)]
enum Store {
    /// Heap-owned CSR arrays.
    Owned {
        /// `offsets[v]..offsets[v+1]` indexes `adj` for node `v`.
        offsets: Vec<u64>,
        /// Concatenated sorted adjacency lists.
        adj: Vec<NodeId>,
    },
    /// Arrays borrowed zero-copy from a shared read-only memory map.
    #[cfg(all(unix, target_endian = "little"))]
    Mapped(crate::store::MappedCsr),
}

/// An immutable undirected simple graph in CSR form.
///
/// Invariants (checked in debug builds and by the constructors):
/// * adjacency lists are sorted and duplicate-free,
/// * the graph is symmetric (`u ∈ N(v)` iff `v ∈ N(u)`),
/// * there are no self-loops.
#[derive(Clone, Debug)]
pub struct Graph {
    store: Store,
}

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        // Logical CSR equality — an mmap-backed graph equals its owned
        // twin whenever offsets and adjacency match bit for bit.
        self.offsets() == other.offsets() && self.adj() == other.adj()
    }
}

impl Eq for Graph {}

impl Graph {
    /// The offsets array: `offsets[v]..offsets[v+1]` indexes [`Graph::adj`]
    /// for node `v`.  Exposed for codecs and bit-identity assertions.
    #[inline]
    pub fn offsets(&self) -> &[u64] {
        match &self.store {
            Store::Owned { offsets, .. } => offsets,
            #[cfg(all(unix, target_endian = "little"))]
            Store::Mapped(m) => m.offsets(),
        }
    }

    /// The concatenated sorted adjacency array.  Exposed for codecs and
    /// bit-identity assertions.
    #[inline]
    pub fn adj(&self) -> &[NodeId] {
        match &self.store {
            Store::Owned { adj, .. } => adj,
            #[cfg(all(unix, target_endian = "little"))]
            Store::Mapped(m) => m.adj(),
        }
    }

    /// Whether this graph borrows its arrays from a memory map.
    pub fn is_mapped(&self) -> bool {
        #[cfg(all(unix, target_endian = "little"))]
        {
            matches!(self.store, Store::Mapped(_))
        }
        #[cfg(not(all(unix, target_endian = "little")))]
        {
            false
        }
    }

    /// Wrap zero-copy mapped CSR arrays as a graph.
    ///
    /// Runs the cheap linear structural checks (monotone offsets that
    /// cover `adj`, strictly sorted rows, in-range neighbors, no
    /// self-loops) — `O(n + m)` with no allocation.  Symmetry is *not*
    /// re-verified here: `.pcg` files are written from already-valid
    /// graphs and integrity-checked by the codec's checksum; debug
    /// builds still run the full [`Graph::validate`].
    #[cfg(all(unix, target_endian = "little"))]
    pub fn from_mapped(csr: crate::store::MappedCsr) -> Result<Self, String> {
        check_csr(csr.offsets(), csr.adj()).map_err(|e| format!("mapped graph: {e}"))?;
        let g = Graph {
            store: Store::Mapped(csr),
        };
        debug_assert!(g.validate().is_ok(), "invalid mapped CSR");
        Ok(g)
    }

    /// Build a graph from an edge list over `n` nodes by replaying the
    /// slice through [`Graph::from_edge_stream`].
    ///
    /// Edges may appear in any orientation and with duplicates;
    /// self-loops and out-of-range endpoints panic.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        Graph::from_edge_stream(n, |sink| {
            for &(u, v) in edges {
                sink(u, v);
            }
        })
    }

    /// Build a graph from a **re-runnable** edge stream over `n` nodes —
    /// the one path from an edge sequence to CSR arrays.
    ///
    /// `stream` is invoked twice with an edge sink and must emit the
    /// *exact same* edge sequence both times (deterministic generators
    /// replayed from the same seed, or a slice, qualify).  The first
    /// pass counts degrees, which are prefix-summed into offsets; the
    /// second scatters each edge straight into its two rows; rows are
    /// then sorted and deduplicated in place.  Peak memory is the final
    /// CSR plus one `u64` cursor per node — no edge buffer and no global
    /// sort scratch, which is what makes n = 10^7 instances fit.
    ///
    /// Duplicates collapse and orientation is ignored.  Self-loops,
    /// out-of-range endpoints, and a stream that emits a different
    /// sequence on its second pass panic.
    pub fn from_edge_stream<F>(n: usize, stream: F) -> Self
    where
        F: Fn(&mut dyn FnMut(NodeId, NodeId)),
    {
        let check = move |u: NodeId, v: NodeId| {
            assert!(u != v, "self loop {u}");
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u},{v}) out of range n={n}"
            );
        };
        // The sinks own their slices (`move`), so the compiler sees that no
        // store into a row can change a slice's pointer or length.  Sinks
        // that borrow the `Vec`s reload and re-check both per edge, which
        // cost about 10% of a gnp 10^6 build.
        //
        // Pass 1: per-node degree counts, prefix-summed into offsets; the
        // counts then become per-node write cursors.
        let mut cursor = vec![0u64; n];
        let deg = &mut cursor[..];
        stream(&mut move |u, v| {
            check(u, v);
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        });
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u64);
        for &d in &cursor {
            offsets.push(offsets[offsets.len() - 1] + d);
        }
        let mut adj = vec![0 as NodeId; offsets[n] as usize];
        cursor.copy_from_slice(&offsets[..n]);
        // Pass 2: scatter each edge into both rows.
        let (cur, ends, out) = (&mut cursor[..], &offsets[1..], &mut adj[..]);
        stream(&mut move |u, v| {
            check(u, v);
            let (ui, vi) = (u as usize, v as usize);
            assert!(
                cur[ui] < ends[ui] && cur[vi] < ends[vi],
                "edge stream changed between passes (extra edge ({u},{v}))"
            );
            out[cur[ui] as usize] = v;
            cur[ui] += 1;
            out[cur[vi] as usize] = u;
            cur[vi] += 1;
        });
        assert!(
            cursor[..] == offsets[1..],
            "edge stream changed between passes (missing edges)"
        );
        sort_rows(&offsets, &mut adj);
        // In-place per-row dedup compaction.  The write head `w` never
        // overtakes the read head, and offsets are rewritten only after
        // the original row bounds have been consumed.
        let mut w = 0usize;
        let mut read_lo = 0usize;
        for v in 0..n {
            let read_hi = offsets[v + 1] as usize;
            let row_start = w;
            for r in read_lo..read_hi {
                let x = adj[r];
                if w == row_start || adj[w - 1] != x {
                    adj[w] = x;
                    w += 1;
                }
            }
            offsets[v + 1] = w as u64;
            read_lo = read_hi;
        }
        adj.truncate(w);
        Graph::from_parts(offsets, adj)
    }

    /// The empty graph on `n` nodes.
    pub fn empty(n: usize) -> Self {
        Graph {
            store: Store::Owned {
                offsets: vec![0; n + 1],
                adj: Vec::new(),
            },
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets().len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.adj().len() / 2
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let offsets = self.offsets();
        (offsets[v as usize + 1] - offsets[v as usize]) as usize
    }

    /// Sorted neighbor slice of `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let offsets = self.offsets();
        &self.adj()[offsets[v as usize] as usize..offsets[v as usize + 1] as usize]
    }

    /// Whether the edge `{u, v}` is present. `O(log d(u))`.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Maximum degree Δ.
    pub fn max_degree(&self) -> usize {
        (0..self.n() as NodeId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Iterator over each undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.n() as NodeId).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// The subgraph induced by `nodes` (need not be sorted; duplicates are
    /// an error).  Returns the induced graph over `nodes.len()` fresh ids
    /// plus the mapping from new id to original id, which ascends: new
    /// ids follow old id order.
    ///
    /// Old ids map to new ids through one dense position map over the
    /// whole graph (`1 + new id`, or 0 outside the set), one lookup per
    /// adjacency entry.  Rows come out ascending because the map and
    /// every neighbor list are.
    pub fn induced(&self, nodes: &[NodeId]) -> (Graph, Vec<NodeId>) {
        let mut sorted: Vec<NodeId> = nodes.to_vec();
        sorted.sort_unstable();
        debug_assert!(sorted.windows(2).all(|w| w[0] != w[1]), "duplicate nodes");
        let mut pos = vec![0 as NodeId; self.n()];
        for (new_v, &v) in (1..).zip(&sorted) {
            pos[v as usize] = new_v;
        }
        let mut offsets = Vec::with_capacity(sorted.len() + 1);
        offsets.push(0u64);
        let mut adj: Vec<NodeId> = Vec::new();
        for &v in &sorted {
            adj.extend(
                self.neighbors(v)
                    .iter()
                    .filter_map(|&u| pos[u as usize].checked_sub(1)),
            );
            offsets.push(adj.len() as u64);
        }
        // The graph keeps `adj` for life: drop the growth slack.
        adj.shrink_to_fit();
        (
            Graph {
                store: Store::Owned { offsets, adj },
            },
            sorted,
        )
    }

    /// Connected components; returns `(component_id per node, #components)`.
    pub fn components(&self) -> (Vec<u32>, usize) {
        let n = self.n();
        let mut comp = vec![u32::MAX; n];
        let mut next = 0u32;
        let mut stack = Vec::new();
        for start in 0..n as NodeId {
            if comp[start as usize] != u32::MAX {
                continue;
            }
            comp[start as usize] = next;
            stack.push(start);
            while let Some(v) = stack.pop() {
                for &u in self.neighbors(v) {
                    if comp[u as usize] == u32::MAX {
                        comp[u as usize] = next;
                        stack.push(u);
                    }
                }
            }
            next += 1;
        }
        (comp, next as usize)
    }

    /// Greedy proper coloring with colors drawn from per-node palettes.
    ///
    /// Used as the "collect onto one machine and finish greedily" step of
    /// Theorem 12 and as a sequential baseline.  `palette(v)` must contain
    /// at least `degree(v)+1` colors for the greedy argument to always
    /// succeed.  Returns `None` if some node runs out of palette (only
    /// possible if the precondition is violated).
    pub fn greedy_color_with<F>(&self, order: &[NodeId], palette: F) -> Option<Vec<u32>>
    where
        F: Fn(NodeId) -> Vec<u32>,
    {
        let mut colors = vec![u32::MAX; self.n()];
        for &v in order {
            let mut taken: Vec<u32> = self
                .neighbors(v)
                .iter()
                .map(|&u| colors[u as usize])
                .filter(|&c| c != u32::MAX)
                .collect();
            taken.sort_unstable();
            let chosen = palette(v)
                .into_iter()
                .find(|c| taken.binary_search(c).is_err())?;
            colors[v as usize] = chosen;
        }
        Some(colors)
    }

    /// Total words needed to store the graph (offsets + adjacency), used by
    /// the MPC space accountant.
    pub fn words(&self) -> usize {
        self.offsets().len() + self.adj().len()
    }

    /// Construct directly from parts the caller built valid (the edge
    /// stream and graph powers).
    pub(crate) fn from_parts(offsets: Vec<u64>, adj: Vec<NodeId>) -> Self {
        let g = Graph {
            store: Store::Owned { offsets, adj },
        };
        debug_assert!(g.validate().is_ok(), "invalid CSR parts");
        g
    }

    /// Construct an owned graph from already-built CSR arrays, running the
    /// same cheap linear structural checks as [`Graph::from_mapped`].
    ///
    /// This is the portable loading path for on-disk formats: codecs parse
    /// the two arrays and hand them over without an `O(m log m)` rebuild.
    pub fn from_csr(offsets: Vec<u64>, adj: Vec<NodeId>) -> Result<Self, String> {
        check_csr(&offsets, &adj).map_err(|e| format!("csr graph: {e}"))?;
        let g = Graph {
            store: Store::Owned { offsets, adj },
        };
        debug_assert!(g.validate().is_ok(), "invalid CSR parts");
        Ok(g)
    }

    /// Validate all structural invariants: the linear checks every
    /// constructor runs, plus symmetry.  Used by property tests and debug
    /// assertions.
    pub fn validate(&self) -> Result<(), String> {
        check_csr(self.offsets(), self.adj())?;
        for v in 0..self.n() as NodeId {
            for &u in self.neighbors(v) {
                if !self.has_edge(u, v) {
                    return Err(format!("asymmetric edge {v}-{u}"));
                }
            }
        }
        Ok(())
    }
}

/// The linear structural CSR checks: offsets start at 0, never decrease
/// and end at `adj.len()`; every row is strictly increasing (sorted and
/// duplicate-free) and holds only in-range neighbors other than its own
/// node.  `O(n + m)`, no allocation; symmetry is left to
/// [`Graph::validate`].
fn check_csr(offsets: &[u64], adj: &[NodeId]) -> Result<(), String> {
    let n = offsets.len().checked_sub(1).ok_or("empty offsets array")?;
    if offsets[0] != 0 || offsets[n] != adj.len() as u64 {
        return Err("offsets do not cover adj".into());
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err("offsets not monotone".into());
    }
    for v in 0..n {
        let row = &adj[offsets[v] as usize..offsets[v + 1] as usize];
        if !row.windows(2).all(|w| w[0] < w[1]) {
            return Err(format!("adjacency of {v} not sorted/dedup"));
        }
        if row.iter().any(|&u| u as usize >= n || u as usize == v) {
            return Err(format!("bad neighbor at {v}"));
        }
    }
    Ok(())
}

/// Size of the intersection of two sorted slices.
#[inline]
pub fn sorted_intersection_size(a: &[NodeId], b: &[NodeId]) -> usize {
    // Two-pointer merge; switch to galloping when lengths are lopsided.
    if a.len() > 8 * b.len() {
        return b.iter().filter(|x| a.binary_search(x).is_ok()).count();
    }
    if b.len() > 8 * a.len() {
        return a.iter().filter(|x| b.binary_search(x).is_ok()).count();
    }
    let (mut i, mut j, mut out) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out += 1;
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Sort every CSR row of `adj` in place, in parallel over node chunks.
///
/// Rows are the disjoint slices `offsets[v]..offsets[v+1]`, so striping
/// the adjacency array at node-chunk boundaries gives each pool task an
/// exclusive span; stealing balances the skewed row lengths.
fn sort_rows(offsets: &[u64], adj: &mut [NodeId]) {
    const NODE_CHUNK: usize = 1024;
    let n = offsets.len() - 1;
    let workers = parcolor_exec::resolve_workers(0);
    if workers <= 1 || adj.len() < (1 << 14) || parcolor_exec::in_pool_worker() {
        for v in 0..n {
            adj[offsets[v] as usize..offsets[v + 1] as usize].sort_unstable();
        }
        return;
    }
    let pool = parcolor_exec::Executor::global();
    let scatter = parcolor_exec::ScatterMut::new(adj);
    let scatter = &scatter;
    parcolor_exec::par_map_chunks(pool, workers, n, NODE_CHUNK, move |start, clen| {
        let lo = offsets[start] as usize;
        let hi = offsets[start + clen] as usize;
        // SAFETY: node chunks are disjoint, hence so are their adj spans.
        let span = unsafe { scatter.stripe_mut(lo, hi - lo) };
        for v in start..start + clen {
            let (s, e) = (offsets[v] as usize - lo, offsets[v + 1] as usize - lo);
            span[s..e].sort_unstable();
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        let edges: Vec<_> = (0..n as NodeId - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn builds_path() {
        let g = path(5);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
        assert_eq!(g.neighbors(2), &[1, 3]);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn dedups_and_symmetrizes() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (0, 1), (1, 2)]);
        assert_eq!(g.m(), 2);
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn induced_subgraph_maps_back() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)]);
        let (h, map) = g.induced(&[1, 2, 4]);
        assert_eq!(h.n(), 3);
        assert_eq!(map, vec![1, 2, 4]);
        // edges among {1,2,4}: (1,2) and (1,4)
        assert_eq!(h.m(), 2);
        assert!(h.has_edge(0, 1)); // 1-2
        assert!(h.has_edge(0, 2)); // 1-4
        assert!(!h.has_edge(1, 2)); // 2-4 absent
    }

    #[test]
    fn empty_induced() {
        let g = path(4);
        let (h, map) = g.induced(&[]);
        assert_eq!(h.n(), 0);
        assert!(map.is_empty());
    }

    /// Whether `colors[v] != colors[u]` for every edge.
    fn is_proper_coloring(g: &Graph, colors: &[u32]) -> bool {
        assert_eq!(colors.len(), g.n());
        (0..g.n() as NodeId).all(|v| {
            g.neighbors(v)
                .iter()
                .all(|&u| colors[u as usize] != colors[v as usize])
        })
    }

    #[test]
    fn proper_coloring_checker() {
        let g = path(4);
        assert!(is_proper_coloring(&g, &[0, 1, 0, 1]));
        assert!(!is_proper_coloring(&g, &[0, 0, 1, 0]));
    }

    #[test]
    fn components_of_two_paths() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let (comp, k) = g.components();
        assert_eq!(k, 2);
        assert_eq!(comp[0], comp[2]);
        assert_eq!(comp[3], comp[5]);
        assert_ne!(comp[0], comp[3]);
    }

    #[test]
    fn greedy_colors_with_minimal_palettes() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]);
        let order: Vec<NodeId> = (0..5).collect();
        let colors = g
            .greedy_color_with(&order, |v| (0..=g.degree(v) as u32).collect())
            .unwrap();
        assert!(is_proper_coloring(&g, &colors));
    }

    #[test]
    fn max_degree_and_words() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.words(), 5 + 6);
    }
}
