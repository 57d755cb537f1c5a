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
//! caller; the accountant charges rounds and records per-node-machine
//! space against the budget `s`, counting every machine an operation
//! would overfill as a budget violation.  Each charge folds `(count, max
//! words, machines over budget)` over the nodes on the `parcolor-exec`
//! pool — the per-node closures touch no shared state — and publishes the
//! fold to [`MpcMetrics`] once.  This keeps the accounting honest about
//! the two quantities the paper's theorems constrain (rounds, words)
//! without forcing every neighbor scan through a mailbox data structure.

use crate::config::MpcConfig;
use crate::metrics::MpcMetrics;
use parcolor_local::graph::{Graph, NodeId};

/// Nodes stolen at a time by [`charge_active`]'s pool fold.
const FOLD_BLOCK: u64 = 1024;

/// One charge folded over the active nodes' machines.
#[derive(Clone, Copy, Default)]
struct Charge {
    /// Active nodes.
    count: usize,
    /// The largest machine's words.
    max_words: u64,
    /// Machines over the budget.
    over_budget: u64,
}

impl Charge {
    fn merge(self, o: Charge) -> Charge {
        Charge {
            count: self.count + o.count,
            max_words: self.max_words.max(o.max_words),
            over_budget: self.over_budget + o.over_budget,
        }
    }
}

/// Fold `words(v)` over the machines of every active node against the
/// per-machine `budget`, on the executor pool in [`FOLD_BLOCK`]-node
/// blocks.  Max and counts are integers, so the result is the same at
/// every worker count.
fn charge_active<A, W>(n: usize, active: A, words: W, budget: u64) -> Charge
where
    A: Fn(NodeId) -> bool + Sync,
    W: Fn(NodeId) -> u64 + Sync,
{
    parcolor_exec::par_fold(
        parcolor_exec::Executor::global(),
        parcolor_exec::resolve_workers(0),
        0..n as u64,
        FOLD_BLOCK,
        Charge::default,
        |start, len, mut acc: Charge| {
            for v in start as NodeId..(start + len) as NodeId {
                if active(v) {
                    let w = words(v);
                    acc.count += 1;
                    acc.max_words = acc.max_words.max(w);
                    acc.over_budget += u64::from(w > budget);
                }
            }
            acc
        },
        Charge::merge,
    )
}

/// Accountant for Lemma 17-style per-node MPC operations.
pub struct NodeMpc {
    cfg: MpcConfig,
    metrics: MpcMetrics,
}

impl NodeMpc {
    /// Create an accountant with fresh metrics.
    pub fn new(cfg: MpcConfig) -> Self {
        NodeMpc {
            cfg,
            metrics: MpcMetrics::new(),
        }
    }

    /// The metrics sink.
    pub fn metrics(&self) -> &MpcMetrics {
        &self.metrics
    }

    /// The model configuration.
    pub fn config(&self) -> &MpcConfig {
        &self.cfg
    }

    /// Charge one round in which every node in `active` sends `width`
    /// words to each of its neighbors (Lemma 17, first bullet).  Returns
    /// the number of active nodes.
    pub fn charge_neighbor_broadcast<A>(&self, g: &Graph, active: A, width: usize) -> usize
    where
        A: Fn(NodeId) -> bool + Sync,
    {
        let charge = charge_active(
            g.n(),
            active,
            |v| (g.degree(v) * width) as u64,
            self.cfg.local_space() as u64,
        );
        self.publish_round(charge)
    }

    /// Charge the `O(1)`-round collection of 2-hop neighborhoods for all
    /// active nodes (Lemma 17, second bullet): node `v`'s machine receives
    /// `Σ_{u∈N(v)} d(u)` words.
    pub fn charge_two_hop_collection<A>(&self, g: &Graph, active: A) -> usize
    where
        A: Fn(NodeId) -> bool + Sync,
    {
        let charge = charge_active(
            g.n(),
            active,
            |v| g.neighbors(v).iter().map(|&u| g.degree(u) as u64).sum(),
            self.cfg.local_space() as u64,
        );
        self.publish_round(charge)
    }

    /// Publish one folded round: its machines and the round itself.
    /// Returns the number of active nodes.
    fn publish_round(&self, charge: Charge) -> usize {
        self.metrics
            .observe_machines(charge.max_words, charge.over_budget);
        self.metrics.add_rounds(1);
        charge.count
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star(n: usize) -> Graph {
        let edges: Vec<_> = (1..n as NodeId).map(|i| (0, i)).collect();
        Graph::from_edges(n, &edges)
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
    }

    /// A materialized 2-hop collection: every edge `(u, w)` with
    /// `u ∈ N(v)`, as node `v`'s machine would receive it.
    fn collect_two_hop(g: &Graph, v: NodeId) -> Vec<(NodeId, NodeId)> {
        let mut edges = Vec::new();
        for &u in g.neighbors(v) {
            for &w in g.neighbors(u) {
                edges.push((u, w));
            }
        }
        edges
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
        // s = ⌈1 · 50^0.3⌉ = 4 words.
        let cfg = MpcConfig::new(50, 49, 0.3).with_space_constant(1.0);
        assert_eq!(cfg.local_space(), 4);
        // Star: only the center's 49-word broadcast violates.
        let mpc = NodeMpc::new(cfg);
        mpc.charge_neighbor_broadcast(&star(50), |_| true, 1);
        assert_eq!(mpc.metrics().budget_violations(), 1);
        assert_eq!(mpc.metrics().max_machine_words(), 49);

        // Five disjoint K_{1,4} with 2-word messages: each center sends
        // 8 > 4 words, each leaf 2 — one violation per center.
        let edges: Vec<_> = (0..5u32)
            .flat_map(|c| (1..5u32).map(move |i| (5 * c, 5 * c + i)))
            .collect();
        let stars = Graph::from_edges(25, &edges);
        let fresh = NodeMpc::new(cfg);
        fresh.charge_neighbor_broadcast(&stars, |_| true, 2);
        assert_eq!(fresh.metrics().budget_violations(), 5);
        assert_eq!(fresh.metrics().max_machine_words(), 8);
        // A later charge adds its violations and keeps the earlier peak.
        mpc.charge_neighbor_broadcast(&stars, |_| true, 2);
        assert_eq!(mpc.metrics().budget_violations(), 1 + 5);
        assert_eq!(mpc.metrics().max_machine_words(), 49);
    }

    #[test]
    fn single_machine_charge() {
        let mpc = NodeMpc::new(MpcConfig::new(100, 100, 0.5).with_space_constant(1.0));
        let s = mpc.config().local_space();
        mpc.charge_single_machine(s + 1);
        assert_eq!(mpc.metrics().budget_violations(), 1);
    }
}
