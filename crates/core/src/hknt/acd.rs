//! Almost-clique decomposition — Definition 3 of the paper, computed as in
//! Lemma 19 (O(1) MPC rounds when `Δ ≤ √s`).
//!
//! Classification of each active node:
//! * **Sparse** — `ζ_v ≥ ε_sp · d(v)` (many non-edges among neighbors);
//! * **Uneven** — `η_v ≥ ε_sp · d(v)` (many much-higher-degree neighbors);
//! * **Dense** — everything else, grouped into almost-cliques as the
//!   connected components of the *friend* relation (`u ~ v` iff adjacent
//!   dense nodes sharing `≥ (1 − ε_friend)·max(d(u), d(v))` common
//!   neighbors — the standard construction from AA20/HKNT22).
//!
//! A repair pass reclassifies nodes violating Definition 3 (iii)/(iv) as
//! sparse.  This mirrors practical ACD constructions: correctness of the
//! coloring never depends on the decomposition (only deferral rates do),
//! and experiment E11 measures the quality of the classification.

use crate::config::Params;
use crate::node_params::ParamTable;
use parcolor_local::graph::{sorted_intersection_size, Graph, NodeId};

/// Classification of a node by the ACD.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeClass {
    /// Not part of the current stage.
    Inactive,
    /// `ζ_v ≥ ε_sp·d(v)`: many non-edges among neighbors.
    Sparse,
    /// `η_v ≥ ε_sp·d(v)`: many much-higher-degree neighbors.
    Uneven,
    /// Member of almost-clique `Clique(id)`.
    Dense(u32),
}

/// One almost-clique with its Lemma 22 roles.
#[derive(Clone, Debug)]
pub struct Clique {
    /// Dense-component id (index into `Acd::cliques`).
    pub id: u32,
    /// All members, sorted.
    pub nodes: Vec<NodeId>,
    /// Leader `x_C`: member with minimum slackability.
    pub leader: NodeId,
    /// Outliers `O_C` (sorted): colored early by SlackColor.
    pub outliers: Vec<NodeId>,
    /// Inliers `I_C = C \ O_C` (sorted): colored by SynchColorTrial.
    pub inliers: Vec<NodeId>,
    /// Whether the clique has low slackability (`σ̄(x_C) ≤ ℓ`) and hence
    /// needs a put-aside set.
    pub low_slack: bool,
    /// Maximum active degree within the clique (the `Δ_C` of PutAside).
    pub max_degree: usize,
}

/// The full decomposition.
#[derive(Clone, Debug)]
pub struct Acd {
    /// Per-node classification.
    pub class: Vec<NodeClass>,
    /// The almost-cliques partitioning `Vdense`.
    pub cliques: Vec<Clique>,
}

impl Acd {
    /// All nodes classified `Sparse`, ascending.
    pub fn sparse_nodes(&self) -> Vec<NodeId> {
        self.collect(NodeClass::Sparse)
    }

    /// All nodes classified `Uneven`, ascending.
    pub fn uneven_nodes(&self) -> Vec<NodeId> {
        self.collect(NodeClass::Uneven)
    }

    /// All nodes in some almost-clique, ascending.
    pub fn dense_nodes(&self) -> Vec<NodeId> {
        (0..self.class.len() as NodeId)
            .filter(|&v| matches!(self.class[v as usize], NodeClass::Dense(_)))
            .collect()
    }

    fn collect(&self, want: NodeClass) -> Vec<NodeId> {
        (0..self.class.len() as NodeId)
            .filter(|&v| self.class[v as usize] == want)
            .collect()
    }

    /// Validate Definition 3's four properties; returns human-readable
    /// violations (used by tests and the E11 experiment).
    pub fn violations(
        &self,
        g: &Graph,
        active: &[bool],
        table: &ParamTable,
        p: &Params,
    ) -> Vec<String> {
        let mut out = Vec::new();
        let act_deg = |v: NodeId| {
            g.neighbors(v)
                .iter()
                .filter(|&&u| active[u as usize])
                .count()
        };
        for v in 0..self.class.len() as NodeId {
            match self.class[v as usize] {
                NodeClass::Sparse => {
                    // Repaired nodes may be below the sparsity threshold;
                    // only flag wildly-dense "sparse" nodes (ζ = 0, d big).
                    let t = table.get(v);
                    if t.sparsity <= 0.0 && act_deg(v) > 4 {
                        out.push(format!("sparse node {v} has zero sparsity"));
                    }
                }
                NodeClass::Uneven => {
                    let t = table.get(v);
                    if t.unevenness < p.eps_sp * act_deg(v) as f64 * 0.5 {
                        out.push(format!("uneven node {v} barely uneven"));
                    }
                }
                _ => {}
            }
        }
        for c in &self.cliques {
            for &v in &c.nodes {
                let d = act_deg(v);
                if (d as f64) > (1.0 + p.eps_ac) * 2.0 * c.nodes.len() as f64 {
                    out.push(format!(
                        "clique {}: node {v} degree {d} ≫ clique size {}",
                        c.id,
                        c.nodes.len()
                    ));
                }
                let inside = g
                    .neighbors(v)
                    .iter()
                    .filter(|&&u| c.nodes.binary_search(&u).is_ok())
                    .count();
                if ((c.nodes.len() - 1) as f64) > (1.0 + p.eps_ac) * 2.0 * (inside.max(1)) as f64 {
                    out.push(format!(
                        "clique {}: node {v} has only {inside} internal neighbors of {}",
                        c.id,
                        c.nodes.len() - 1
                    ));
                }
            }
        }
        out
    }
}

/// Union-find for the friend components (path halving + union by size).
struct Dsu {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        if self.size[ra as usize] < self.size[rb as usize] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb as usize] = ra;
        self.size[ra as usize] += self.size[rb as usize];
    }
}

/// Active-filtered sorted adjacency of the dense candidates, in CSR
/// form: the friend test, the repair pass and the outlier split only
/// ever intersect candidates' neighborhoods.
struct CandidateAdj {
    /// The candidates, ascending.
    nodes: Vec<NodeId>,
    /// `adj[offsets[i]..offsets[i + 1]]` is `nodes[i]`'s row.
    offsets: Vec<usize>,
    adj: Vec<NodeId>,
}

impl CandidateAdj {
    fn new(g: &Graph, class: &[NodeClass], active: &[bool], table: &ParamTable) -> Self {
        let nodes: Vec<NodeId> = (0..class.len() as NodeId)
            .filter(|&v| matches!(class[v as usize], NodeClass::Dense(_)))
            .collect();
        let mut offsets = Vec::with_capacity(nodes.len() + 1);
        offsets.push(0);
        // A row's length is the node's active degree.
        let mut adj = Vec::with_capacity(nodes.iter().map(|&v| table.degree(v)).sum());
        for &v in &nodes {
            adj.extend(
                g.neighbors(v)
                    .iter()
                    .copied()
                    .filter(|&u| active[u as usize]),
            );
            offsets.push(adj.len());
        }
        CandidateAdj {
            nodes,
            offsets,
            adj,
        }
    }

    /// The active neighbors of candidate `v`, ascending.
    fn of(&self, v: NodeId) -> &[NodeId] {
        let i = self.nodes.binary_search(&v).expect("not a dense candidate");
        &self.adj[self.offsets[i]..self.offsets[i + 1]]
    }
}

/// Compute the (deg+1)-ACD of the subgraph induced by `active`, using the
/// already-computed Definition 2 parameters (and their active degrees,
/// so `table` must have been computed over the same `active`).
pub fn compute_acd(
    g: &Graph,
    nodes: &[NodeId],
    active: &[bool],
    table: &ParamTable,
    params: &Params,
) -> Acd {
    let n = g.n();
    let mut class = vec![NodeClass::Inactive; n];

    // Step 1: sparse / uneven / dense-candidate classification.
    for &v in nodes {
        let t = table.get(v);
        let d = table.degree(v) as f64;
        class[v as usize] = if t.sparsity >= params.eps_sp * d {
            NodeClass::Sparse
        } else if t.unevenness >= params.eps_sp * d {
            NodeClass::Uneven
        } else {
            NodeClass::Dense(u32::MAX) // candidate; component id assigned below
        };
    }
    let act_adj = CandidateAdj::new(g, &class, active, table);

    // Step 2: friend edges among dense candidates.
    let is_dense = |v: NodeId| matches!(class[v as usize], NodeClass::Dense(_));
    let mut friend_edges: Vec<(NodeId, NodeId)> = Vec::new();
    for &v in nodes.iter().filter(|&&v| is_dense(v)) {
        let adj = act_adj.of(v);
        for &u in adj.iter().filter(|&&u| u > v && is_dense(u)) {
            let adj_u = act_adj.of(u);
            let cn = sorted_intersection_size(adj, adj_u);
            let need = (1.0 - params.eps_friend) * adj.len().max(adj_u.len()) as f64;
            if cn as f64 >= need {
                friend_edges.push((v, u));
            }
        }
    }

    // Step 3: components of the friend graph.
    let mut dsu = Dsu::new(n);
    for &(u, v) in &friend_edges {
        dsu.union(u, v);
    }

    // Step 4: gather components, repair violations, emit cliques.
    let mut comp_members: std::collections::HashMap<u32, Vec<NodeId>> =
        std::collections::HashMap::new();
    for &v in nodes {
        if matches!(class[v as usize], NodeClass::Dense(_)) {
            comp_members.entry(dsu.find(v)).or_default().push(v);
        }
    }
    let mut roots: Vec<u32> = comp_members.keys().copied().collect();
    roots.sort_unstable();

    let mut cliques = Vec::new();
    for root in roots {
        let mut members = comp_members.remove(&root).unwrap();
        members.sort_unstable();
        // Repair: Definition 3 (iii)/(iv) with tolerance ε_ac; violators
        // become sparse.  Singletons and pairs are not useful cliques.
        let size = members.len() as f64;
        let keep: Vec<NodeId> = members
            .iter()
            .copied()
            .filter(|&v| {
                let d = table.degree(v) as f64;
                let inside = act_adj
                    .of(v)
                    .iter()
                    .filter(|&&u| members.binary_search(&u).is_ok())
                    .count() as f64;
                d <= (1.0 + params.eps_ac) * size && size <= (1.0 + params.eps_ac) * (inside + 1.0)
            })
            .collect();
        let dropped: Vec<NodeId> = members
            .iter()
            .copied()
            .filter(|v| keep.binary_search(v).is_err())
            .collect();
        for v in dropped {
            class[v as usize] = NodeClass::Sparse;
        }
        if keep.len() < 2 {
            for v in keep {
                class[v as usize] = NodeClass::Sparse;
            }
            continue;
        }
        let id = cliques.len() as u32;
        for &v in &keep {
            class[v as usize] = NodeClass::Dense(id);
        }
        let max_degree = keep.iter().map(|&v| table.degree(v)).max().unwrap();
        // Leader: minimum slackability (ties → lowest id).
        let leader = keep
            .iter()
            .copied()
            .min_by(|&a, &b| {
                table
                    .get(a)
                    .slackability
                    .partial_cmp(&table.get(b).slackability)
                    .unwrap()
                    .then(a.cmp(&b))
            })
            .unwrap();
        let (outliers, inliers) = split_outliers(&keep, leader, &act_adj);
        let ell = params.ell(max_degree.max(2));
        let low_slack = table.get(leader).slackability <= ell;
        cliques.push(Clique {
            id,
            nodes: keep,
            leader,
            outliers,
            inliers,
            low_slack,
            max_degree,
        });
    }

    Acd { class, cliques }
}

/// Lemma 22's outlier selection: the union of (a) the `max(d(x_C), |C|)/3`
/// members with fewest common neighbors with the leader, (b) the `|C|/6`
/// largest-degree members, and (c) non-neighbors of the leader.  The
/// leader itself is kept out of the inlier list (it must survive to deal
/// colors in SynchColorTrial).
fn split_outliers(
    members: &[NodeId],
    leader: NodeId,
    act_adj: &CandidateAdj,
) -> (Vec<NodeId>, Vec<NodeId>) {
    let csize = members.len();
    let leader_adj = act_adj.of(leader);
    let d_leader = leader_adj.len();

    let mut out = vec![false; csize];
    // (c) non-neighbors of the leader.
    for (i, &v) in members.iter().enumerate() {
        if v != leader && leader_adj.binary_search(&v).is_err() {
            out[i] = true;
        }
    }
    // (a) fewest common neighbors with the leader.
    let take_a = (d_leader.max(csize)).div_ceil(3).min(csize);
    let mut by_common: Vec<(usize, usize)> = members
        .iter()
        .enumerate()
        .map(|(i, &v)| (sorted_intersection_size(act_adj.of(v), leader_adj), i))
        .collect();
    by_common.sort_unstable();
    for &(_, i) in by_common.iter().take(take_a) {
        out[i] = true;
    }
    // (b) largest degrees.
    let take_b = csize.div_ceil(6);
    let mut by_deg: Vec<(usize, usize)> = members
        .iter()
        .enumerate()
        .map(|(i, &v)| (act_adj.of(v).len(), i))
        .collect();
    by_deg.sort_unstable_by(|a, b| b.cmp(a));
    for &(_, i) in by_deg.iter().take(take_b) {
        out[i] = true;
    }
    // Leader is neither outlier nor inlier recipient.
    let leader_idx = members.binary_search(&leader).unwrap();
    out[leader_idx] = true;

    let mut outliers = Vec::new();
    let mut inliers = Vec::new();
    for (i, &v) in members.iter().enumerate() {
        if v == leader {
            continue;
        }
        if out[i] {
            outliers.push(v);
        } else {
            inliers.push(v);
        }
    }
    (outliers, inliers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{ColoringState, D1lcInstance};
    use crate::node_params::compute_params;

    fn planted(clique_sizes: &[usize], sparse_n: usize, seed: u64) -> Graph {
        // Disjoint cliques plus a sparse random part wired to nothing.
        let total: usize = clique_sizes.iter().sum::<usize>() + sparse_n;
        let mut edges = Vec::new();
        let mut base = 0u32;
        for &s in clique_sizes {
            for a in 0..s as u32 {
                for b in (a + 1)..s as u32 {
                    edges.push((base + a, base + b));
                }
            }
            base += s as u32;
        }
        // Sparse part: a long path (high sparsity is trivial at degree ≤ 2,
        // so give each node a couple of random chords for degree 4-ish).
        let mut rng = parcolor_local::tape::SplitMix::new(seed);
        for i in 0..sparse_n.saturating_sub(1) {
            edges.push((base + i as u32, base + i as u32 + 1));
        }
        for _ in 0..sparse_n {
            let a = base + rng.below(sparse_n as u64) as u32;
            let b = base + rng.below(sparse_n as u64) as u32;
            if a != b {
                edges.push((a.min(b), a.max(b)));
            }
        }
        Graph::from_edges(total, &edges)
    }

    fn acd_of(g: &Graph) -> (Acd, ParamTable) {
        let inst = D1lcInstance::delta_plus_one(g.clone());
        let st = ColoringState::new(&inst);
        let nodes: Vec<NodeId> = (0..g.n() as NodeId).collect();
        let active = vec![true; g.n()];
        let table = compute_params(g, &st, &nodes, &active);
        let acd = compute_acd(g, &nodes, &active, &table, &Params::default());
        (acd, table)
    }

    #[test]
    fn planted_cliques_are_found() {
        let g = planted(&[20, 15], 0, 1);
        let (acd, _) = acd_of(&g);
        assert_eq!(acd.cliques.len(), 2);
        let sizes: Vec<usize> = acd.cliques.iter().map(|c| c.nodes.len()).collect();
        assert!(sizes.contains(&20) && sizes.contains(&15), "{sizes:?}");
    }

    #[test]
    fn sparse_part_is_classified_sparse_or_uneven() {
        let g = planted(&[12], 40, 2);
        let (acd, _) = acd_of(&g);
        // Nodes 12.. are the sparse part; none should land in a clique.
        for v in 12..52u32 {
            assert!(
                !matches!(acd.class[v as usize], NodeClass::Dense(_)),
                "node {v} misclassified as dense: {:?}",
                acd.class[v as usize]
            );
        }
    }

    #[test]
    fn leader_minimizes_slackability() {
        let g = planted(&[10], 0, 3);
        let (acd, table) = acd_of(&g);
        let c = &acd.cliques[0];
        let min_slk = c
            .nodes
            .iter()
            .map(|&v| table.get(v).slackability)
            .fold(f64::INFINITY, f64::min);
        assert!((table.get(c.leader).slackability - min_slk).abs() < 1e-12);
    }

    #[test]
    fn outliers_inliers_partition_members() {
        let g = planted(&[18], 0, 4);
        let (acd, _) = acd_of(&g);
        let c = &acd.cliques[0];
        let mut all: Vec<NodeId> = c.outliers.iter().chain(c.inliers.iter()).copied().collect();
        all.push(c.leader);
        all.sort_unstable();
        assert_eq!(all, c.nodes);
        // Inliers are all adjacent to the leader.
        for &v in &c.inliers {
            assert!(g.has_edge(c.leader, v));
        }
    }

    #[test]
    fn clique_nodes_have_zero_sparsity() {
        let g = planted(&[16], 30, 5);
        let (acd, _table) = acd_of(&g);
        let active = vec![true; g.n()];
        let nodes: Vec<NodeId> = (0..g.n() as NodeId).collect();
        let inst = D1lcInstance::delta_plus_one(g.clone());
        let st = ColoringState::new(&inst);
        let table = compute_params(&g, &st, &nodes, &active);
        let violations = acd.violations(&g, &active, &table, &Params::default());
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn two_cliques_sharing_a_bridge_edge_stay_separate() {
        // Two K10s joined by a single edge: the bridge endpoints share few
        // common neighbors, so the friend relation keeps cliques apart.
        let mut edges = Vec::new();
        for a in 0..10u32 {
            for b in (a + 1)..10 {
                edges.push((a, b));
            }
        }
        for a in 10..20u32 {
            for b in (a + 1)..20 {
                edges.push((a, b));
            }
        }
        edges.push((0, 10));
        let g = Graph::from_edges(20, &edges);
        let (acd, _) = acd_of(&g);
        assert_eq!(acd.cliques.len(), 2);
    }

    #[test]
    fn ring_has_no_cliques() {
        let edges: Vec<_> = (0..30u32).map(|i| (i, (i + 1) % 30)).collect();
        let g = Graph::from_edges(30, &edges);
        let (acd, _) = acd_of(&g);
        assert!(acd.cliques.is_empty());
        // Degree-2 ring: sparsity of each node is (1 - 0)/2 = 0.5 ≥ ε·2.
        assert_eq!(acd.sparse_nodes().len(), 30);
    }
}
