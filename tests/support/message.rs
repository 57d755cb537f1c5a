//! A genuine synchronous message-passing executor for the LOCAL model.
//!
//! The coloring procedures in `parcolor-core` are written as whole-graph
//! data-parallel passes that *account* their LOCAL round cost.  This
//! executor is the ground truth those passes are compared against: nodes
//! hold private state, exchange messages with neighbors in synchronous
//! rounds through real mailboxes, and cannot see anything else.  Its one
//! caller, `message_passing_matches_pass_implementation` in
//! `tests/integration_framework.rs`, runs `TryRandomColor` both ways under
//! the same randomness tape and requires identical outcomes.

use parcolor_local::graph::{Graph, NodeId};
use parcolor_local::tape::Randomness;

/// A node-level synchronous message-passing algorithm.
///
/// Each round, every live node consumes its inbox, updates its private
/// state, and emits messages to *neighbors only* (enforced by the
/// executor — the LOCAL model has no other channels).
pub trait MessageAlgorithm: Sync {
    /// Per-node private state.
    type State: Clone + Send + Sync;
    /// Message payload.
    type Msg: Clone + Send + Sync;

    /// Initial state of `v`.
    fn init(&self, v: NodeId) -> Self::State;

    /// One synchronous round for `v`.  `inbox` holds `(sender, payload)`
    /// pairs from the previous round (empty in round 0).  Returns the
    /// outgoing messages as `(neighbor, payload)`.
    fn round(
        &self,
        v: NodeId,
        round: u32,
        state: &mut Self::State,
        inbox: &[(NodeId, Self::Msg)],
        rng: &dyn Randomness,
    ) -> Vec<(NodeId, Self::Msg)>;

    /// Whether `v` has terminated (stops receiving rounds; its last state
    /// is the output).
    fn done(&self, state: &Self::State) -> bool;
}

/// Result of a message-passing execution.
pub struct MessageRun<S> {
    /// Final per-node states.
    pub states: Vec<S>,
    /// Synchronous rounds executed.
    pub rounds: u32,
    /// Total messages delivered.
    pub messages: u64,
}

/// Execute `algo` on `g` until every node is done or `max_rounds` elapse.
/// Message destinations are checked against the adjacency lists — an
/// algorithm attempting non-neighbor delivery panics (it would be
/// cheating the LOCAL model).
pub fn run_message_passing<A: MessageAlgorithm>(
    g: &Graph,
    algo: &A,
    rng: &dyn Randomness,
    max_rounds: u32,
) -> MessageRun<A::State> {
    let n = g.n();
    let mut states: Vec<A::State> = (0..n as NodeId).map(|v| algo.init(v)).collect();
    let mut inboxes: Vec<Vec<(NodeId, A::Msg)>> = vec![Vec::new(); n];
    let mut rounds = 0u32;
    let mut messages = 0u64;
    for round in 0..max_rounds {
        if states.iter().all(|s| algo.done(s)) {
            break;
        }
        rounds = round + 1;
        // Compute every node's outgoing messages (each node owns its
        // state slot and reads only its own inbox).
        let outgoing: Vec<Vec<(NodeId, A::Msg)>> = states
            .iter_mut()
            .enumerate()
            .map(|(v, state)| {
                let v = v as NodeId;
                if algo.done(state) {
                    return Vec::new();
                }
                let out = algo.round(v, round, state, &inboxes[v as usize], rng);
                for &(dest, _) in &out {
                    assert!(
                        g.has_edge(v, dest),
                        "LOCAL violation: {v} sent to non-neighbor {dest}"
                    );
                }
                out
            })
            .collect();
        // Deliver.
        for inbox in inboxes.iter_mut() {
            inbox.clear();
        }
        for (sender, out) in outgoing.into_iter().enumerate() {
            for (dest, payload) in out {
                messages += 1;
                inboxes[dest as usize].push((sender as NodeId, payload));
            }
        }
    }
    MessageRun {
        states,
        rounds,
        messages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcolor_local::tape::CryptoTape;

    /// Flood: every node learns the minimum id in its component (the
    /// algorithm carries a graph handle so nodes can enumerate their
    /// neighbors when broadcasting).
    struct MinFloodWired<'a> {
        g: &'a Graph,
    }

    impl MessageAlgorithm for MinFloodWired<'_> {
        type State = (u32, bool);
        type Msg = u32;

        fn init(&self, v: NodeId) -> Self::State {
            (v, true)
        }

        fn round(
            &self,
            v: NodeId,
            _round: u32,
            state: &mut Self::State,
            inbox: &[(NodeId, u32)],
            _rng: &dyn Randomness,
        ) -> Vec<(NodeId, u32)> {
            let incoming = inbox.iter().map(|&(_, m)| m).min();
            let improved = matches!(incoming, Some(m) if m < state.0);
            if improved {
                state.0 = incoming.unwrap();
            }
            if state.1 || improved {
                state.1 = false;
                self.g.neighbors(v).iter().map(|&u| (u, state.0)).collect()
            } else {
                Vec::new()
            }
        }

        fn done(&self, _state: &Self::State) -> bool {
            false
        }
    }

    fn ring(n: usize) -> Graph {
        let edges: Vec<_> = (0..n as NodeId)
            .map(|i| (i, (i + 1) % n as NodeId))
            .collect();
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn min_flood_converges_in_diameter_rounds() {
        let g = ring(16);
        let algo = MinFloodWired { g: &g };
        let run = run_message_passing(&g, &algo, &CryptoTape::new(0), 16);
        assert!(
            run.states.iter().all(|&(m, _)| m == 0),
            "{:?}",
            run.states.iter().map(|s| s.0).collect::<Vec<_>>()
        );
        assert!(run.messages > 0);
    }

    #[test]
    fn insufficient_rounds_leave_far_nodes_ignorant() {
        let g = ring(32);
        let algo = MinFloodWired { g: &g };
        let run = run_message_passing(&g, &algo, &CryptoTape::new(0), 3);
        // Node 16 is 16 hops from node 0: cannot have learned 0 yet.
        assert_ne!(run.states[16].0, 0);
    }

    #[test]
    #[should_panic(expected = "LOCAL violation")]
    fn non_neighbor_send_panics() {
        struct Cheater;
        impl MessageAlgorithm for Cheater {
            type State = ();
            type Msg = ();
            fn init(&self, _v: NodeId) -> Self::State {}
            fn round(
                &self,
                v: NodeId,
                _round: u32,
                _state: &mut Self::State,
                _inbox: &[(NodeId, ())],
                _rng: &dyn Randomness,
            ) -> Vec<(NodeId, ())> {
                vec![((v + 2) % 4, ())] // distance 2 on a 4-ring
            }
            fn done(&self, _state: &Self::State) -> bool {
                false
            }
        }
        let g = ring(4);
        run_message_passing(&g, &Cheater, &CryptoTape::new(0), 1);
    }

    #[test]
    fn all_done_terminates_early() {
        struct Lazy;
        impl MessageAlgorithm for Lazy {
            type State = ();
            type Msg = ();
            fn init(&self, _v: NodeId) -> Self::State {}
            fn round(
                &self,
                _v: NodeId,
                _round: u32,
                _state: &mut Self::State,
                _inbox: &[(NodeId, ())],
                _rng: &dyn Randomness,
            ) -> Vec<(NodeId, ())> {
                Vec::new()
            }
            fn done(&self, _state: &Self::State) -> bool {
                true
            }
        }
        let g = ring(8);
        let run = run_message_passing(&g, &Lazy, &CryptoTape::new(0), 100);
        assert_eq!(run.rounds, 0);
        assert_eq!(run.messages, 0);
    }
}
