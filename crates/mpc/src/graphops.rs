//! Per-node graph operations with Lemma 17 accounting.
//!
//! Lemma 17 of the paper: if every node has degree at most `√s` and each
//! node is assigned a dedicated machine, then in `O(1)` rounds (i) a node
//! can send `d(v)` words to each neighbor's machine, and (ii) a node's
//! machine can collect all edges among its neighbors (the 2-hop
//! neighborhood).  Global space `O(m + n^{1+φ})` pays for the one-machine-
//! per-node assignment.
//!
//! `NodeMpc` charges these operations: computation is carried out by the
//! caller; the accountant verifies the degree bound, charges
//! rounds/messages, and records per-node-machine space against the
//! budget `s`, folding over the nodes on the `parcolor-exec` pool.  This
//! keeps the simulator honest about the two quantities the paper's
//! theorems constrain (rounds, words) without forcing every neighbor scan
//! through a mailbox data structure.

use crate::config::MpcConfig;
use crate::metrics::MpcMetrics;
use parcolor_local::graph::{Graph, NodeId};
use std::sync::Arc;

/// Nodes stolen at a time by [`charge_active`]'s pool fold.
const FOLD_BLOCK: u64 = 1024;

/// Observe `words(v)` on `v`'s machine for every active node and return
/// `(active count, Σ words)`, folded on the executor pool in
/// [`FOLD_BLOCK`]-node blocks; both sums are integers, so the result is
/// the same at every worker count.
fn charge_active<A, W>(n: usize, active: A, words: W) -> (usize, u64)
where
    A: Fn(NodeId) -> bool + Sync,
    W: Fn(NodeId) -> u64 + Sync,
{
    parcolor_exec::par_fold(
        parcolor_exec::Executor::global(),
        parcolor_exec::resolve_workers(0),
        0..n as u64,
        FOLD_BLOCK,
        || (),
        || (0, 0),
        |start, len, mut acc: (usize, u64), _: &mut ()| {
            for v in start as NodeId..(start + len) as NodeId {
                if active(v) {
                    acc.0 += 1;
                    acc.1 += words(v);
                }
            }
            acc
        },
        |a, b| (a.0 + b.0, a.1 + b.1),
    )
}

/// Accountant for Lemma 17-style per-node MPC operations.
pub struct NodeMpc {
    cfg: MpcConfig,
    metrics: Arc<MpcMetrics>,
}

impl NodeMpc {
    /// Create an accountant with fresh metrics.
    pub fn new(cfg: MpcConfig) -> Self {
        NodeMpc {
            cfg,
            metrics: Arc::new(MpcMetrics::new()),
        }
    }

    /// Share the metrics sink of an existing execution.
    pub fn with_metrics(cfg: MpcConfig, metrics: Arc<MpcMetrics>) -> Self {
        NodeMpc { cfg, metrics }
    }

    /// The metrics sink.
    pub fn metrics(&self) -> &MpcMetrics {
        &self.metrics
    }

    /// The model configuration.
    pub fn config(&self) -> &MpcConfig {
        &self.cfg
    }

    /// Does the graph satisfy Lemma 17's precondition `Δ ≤ √s`?
    pub fn degree_bound_ok(&self, g: &Graph) -> bool {
        g.max_degree() <= self.cfg.sqrt_space()
    }

    /// Charge one round in which every node in `active` sends `width`
    /// words to each of its neighbors (Lemma 17, first bullet).  Returns
    /// the number of active nodes.
    pub fn charge_neighbor_broadcast<A>(&self, g: &Graph, active: A, width: usize) -> usize
    where
        A: Fn(NodeId) -> bool + Sync,
    {
        let s = self.cfg.local_space() as u64;
        let (count, msgs) = charge_active(g.n(), active, |v| {
            let w = (g.degree(v) * width) as u64;
            self.metrics.observe_machine(w, s);
            w
        });
        self.metrics.add_rounds(1);
        self.metrics.add_messages(msgs);
        count
    }

    /// Charge the `O(1)`-round collection of 2-hop neighborhoods for all
    /// active nodes (Lemma 17, second bullet): node `v`'s machine receives
    /// `Σ_{u∈N(v)} d(u)` words.
    pub fn charge_two_hop_collection<A>(&self, g: &Graph, active: A) -> usize
    where
        A: Fn(NodeId) -> bool + Sync,
    {
        let s = self.cfg.local_space() as u64;
        let (count, msgs) = charge_active(g.n(), active, |v| {
            let w: u64 = g.neighbors(v).iter().map(|&u| g.degree(u) as u64).sum();
            self.metrics.observe_machine(w, s);
            w
        });
        self.metrics.add_rounds(1);
        self.metrics.add_messages(msgs);
        count
    }

    /// Charge `r` rounds of coordination (leader election, converge-casts,
    /// seed broadcast, …) without per-node space effects.
    pub fn charge_rounds(&self, r: u64) {
        self.metrics.add_rounds(r);
    }

    /// Charge the residency of a structure of `words` words on a single
    /// machine (e.g. the "collect the leftover instance onto one machine"
    /// step at the end of Theorem 12).
    pub fn charge_single_machine(&self, words: usize) {
        self.metrics
            .observe_machine(words as u64, self.cfg.local_space() as u64);
    }

    /// Charge holding the graph across machines (baseline residency used
    /// for the global-space accounting of E2).
    pub fn charge_graph_residency(&self, g: &Graph) {
        self.metrics.observe_global(g.words() as u64);
    }
}

/// A materialized 2-hop collection, used by tests to validate that the
/// accounting layer's formula matches a real gather.
pub fn collect_two_hop(g: &Graph, v: NodeId) -> Vec<(NodeId, NodeId)> {
    let mut edges = Vec::new();
    for &u in g.neighbors(v) {
        for &w in g.neighbors(u) {
            edges.push((u, w));
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star(n: usize) -> Graph {
        let edges: Vec<_> = (1..n as NodeId).map(|i| (0, i)).collect();
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn degree_bound_check() {
        let g = star(100); // Δ = 99
        let small = NodeMpc::new(MpcConfig::new(100, 99, 0.5).with_space_constant(1.0));
        assert!(!small.degree_bound_ok(&g));
        let big = NodeMpc::new(MpcConfig::new(100, 99, 0.99).with_space_constant(200.0));
        assert!(big.degree_bound_ok(&g));
    }

    #[test]
    fn neighbor_broadcast_accounts_words() {
        let g = star(11); // center degree 10, leaves degree 1
        let mpc = NodeMpc::new(MpcConfig::new(11, 10, 0.9).with_space_constant(50.0));
        let n = mpc.charge_neighbor_broadcast(&g, |_| true, 2);
        assert_eq!(n, 11);
        // center sends 10*2 = 20 words; that's the per-machine peak
        assert_eq!(mpc.metrics().max_machine_words(), 20);
        assert_eq!(mpc.metrics().rounds(), 1);
        // total = 20 + 10 leaves * 2
        assert_eq!(mpc.metrics().snapshot().messages, 40);
    }

    #[test]
    fn two_hop_words_match_materialized_gather() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]);
        let mpc = NodeMpc::new(MpcConfig::new(5, 5, 0.9).with_space_constant(100.0));
        mpc.charge_two_hop_collection(&g, |v| v == 2);
        let expected = collect_two_hop(&g, 2).len() as u64;
        assert_eq!(mpc.metrics().max_machine_words(), expected);
    }

    #[test]
    fn inactive_nodes_are_free() {
        let g = star(11);
        let mpc = NodeMpc::new(MpcConfig::new(11, 10, 0.9).with_space_constant(50.0));
        let n = mpc.charge_neighbor_broadcast(&g, |v| v != 0, 1);
        assert_eq!(n, 10);
        assert_eq!(mpc.metrics().max_machine_words(), 1);
    }

    #[test]
    fn budget_violation_on_tiny_machines() {
        let g = star(50);
        // s = 1 * 50^0.3 ≈ 3 words; center broadcast of 49 words violates.
        let mpc = NodeMpc::new(MpcConfig::new(50, 49, 0.3).with_space_constant(1.0));
        mpc.charge_neighbor_broadcast(&g, |_| true, 1);
        assert!(mpc.metrics().budget_violations() > 0);
    }

    #[test]
    fn single_machine_charge() {
        let mpc = NodeMpc::new(MpcConfig::new(100, 100, 0.5).with_space_constant(1.0));
        let s = mpc.config().local_space();
        mpc.charge_single_machine(s + 1);
        assert_eq!(mpc.metrics().budget_violations(), 1);
    }
}
