//! Framework-level integration tests: Lemma 10's deferral guarantee, the
//! weak-success-property semantics (deferral only helps), and the MIS
//! generality example, across crates.

#[path = "support/message.rs"]
mod message;

use parcolor_core::framework::{NormalProcedure, Runner};
use parcolor_core::hknt::procs::{SspMode, StageSet, TryRandomColor};
use parcolor_core::instance::ColoringState;
use parcolor_core::mis::{derandomized_luby_mis, luby_mis, verify_mis};
use parcolor_core::{ChunkMode, D1lcInstance, Graph, NodeId, Params, SeedStrategy};
use parcolor_graphgen as gen;
use parcolor_local::tape::CryptoTape;

#[test]
fn chosen_seed_beats_mean_on_every_step() {
    let g = gen::gnm(500, 2_500, 1);
    let inst = D1lcInstance::delta_plus_one(g.clone());
    let params = Params::default().with_seed_bits(7);
    let mut state = ColoringState::new(&inst);
    let mut runner = Runner::derandomized(&g, &params, 500);
    for tag in 0..5 {
        let live = state.uncolored_nodes();
        if live.is_empty() {
            break;
        }
        let set = StageSet::new(&g, live);
        let proc = TryRandomColor::new(set, SspMode::Colored, tag);
        let rep = runner.run_step(&proc, &mut state);
        let sel = rep.selection.expect("derandomized");
        assert!(
            sel.cost <= sel.mean_cost + 1e-9,
            "step {tag}: chosen {} > mean {}",
            sel.cost,
            sel.mean_cost
        );
    }
    assert!(state.verify_partial(&g).is_ok());
}

#[test]
fn deferral_only_creates_slack() {
    // Definition 5's WSP argument, machine-checked: defer an arbitrary
    // subset of nodes (= exclude them from the stage) and verify that
    // every remaining node's stage slack is at least what it was.
    let g = gen::gnm(300, 1_800, 2);
    let inst = D1lcInstance::delta_plus_one(g.clone());
    let state = ColoringState::new(&inst);
    let all: Vec<NodeId> = (0..300).collect();
    let full = StageSet::new(&g, all.clone());
    // Defer every third node.
    let reduced: Vec<NodeId> = all.iter().copied().filter(|v| v % 3 != 0).collect();
    let sub = StageSet::new(&g, reduced.clone());
    for &v in &reduced {
        let deg_full = g.neighbors(v).iter().filter(|&&u| full.contains(u)).count() as i64;
        let deg_sub = g.neighbors(v).iter().filter(|&&u| sub.contains(u)).count() as i64;
        let p = state.palette_size(v) as i64;
        assert!(p - deg_sub >= p - deg_full, "deferral reduced slack at {v}");
    }
}

#[test]
fn power_coloring_chunks_agree_with_per_node() {
    // Both chunk modes must produce valid (not identical) executions.
    let g = gen::gnm(120, 360, 3);
    let inst = D1lcInstance::delta_plus_one(g.clone());
    for chunking in [ChunkMode::PerNode, ChunkMode::PowerColoring] {
        let params = Params::default().with_seed_bits(5).with_chunking(chunking);
        let mut state = ColoringState::new(&inst);
        let mut runner = Runner::derandomized(&g, &params, 120);
        let set = StageSet::new(&g, state.uncolored_nodes());
        let proc = TryRandomColor::new(set, SspMode::Colored, 0);
        let rep = runner.run_step(&proc, &mut state);
        assert!(rep.selection.unwrap().satisfies_guarantee());
        assert!(state.verify_partial(&g).is_ok(), "{chunking:?}");
    }
}

#[test]
fn randomized_and_derandomized_share_procedure_code() {
    // The same procedure object must run under both tapes (API check).
    let g = gen::gnm(100, 300, 4);
    let inst = D1lcInstance::delta_plus_one(g.clone());
    let state = ColoringState::new(&inst);
    let set = StageSet::new(&g, state.uncolored_nodes());
    let proc = TryRandomColor::new(set, SspMode::Auto, 0);
    let out_true = proc.simulate(&state, &CryptoTape::new(1));
    assert!(!out_true.adoptions.is_empty());
}

#[test]
fn mis_derandomization_matches_randomized_quality() {
    let g = gen::gnm(800, 4_000, 5);
    let rand = luby_mis(&g, 3, 1_000);
    let det = derandomized_luby_mis(&g, 7, SeedStrategy::Exhaustive, 1_000);
    verify_mis(&g, &rand.in_mis).unwrap();
    verify_mis(&g, &det.in_mis).unwrap();
    let rs = rand.in_mis.iter().filter(|&&b| b).count();
    let ds = det.in_mis.iter().filter(|&&b| b).count();
    // Same ballpark of independent-set size (both are maximal).
    assert!(
        ds * 2 > rs,
        "derandomized MIS suspiciously small: {ds} vs {rs}"
    );
    // Round counts within a small factor.
    assert!(det.rounds <= rand.rounds * 3 + 5);
}

#[test]
fn mis_on_structured_graphs() {
    for g in [
        gen::torus(20, 20),
        gen::star(200),
        gen::complete_bipartite(30, 30),
    ] {
        let det = derandomized_luby_mis(&g, 6, SeedStrategy::FixedSubset(16), 1_000);
        verify_mis(&g, &det.in_mis).unwrap();
    }
}

#[test]
fn stage_set_membership_is_consistent() {
    let set = StageSet::new(&Graph::empty(10), vec![1, 3, 5]);
    assert!(set.contains(1));
    assert!(!set.contains(0));
    assert_eq!(set.active.len(), 3);
}

/// `TryRandomColor` expressed as a genuine message-passing LOCAL
/// algorithm: round 0 picks a color and sends it to all active neighbors;
/// round 1 adopts unless some neighbor announced the same pick.  Run under
/// the same tape as the whole-graph-pass implementation in
/// `hknt::procs`, the two must produce identical adoption sets — the
/// correspondence the round-accounting engine's docs assert.
#[test]
fn message_passing_matches_pass_implementation() {
    use message::{run_message_passing, MessageAlgorithm};
    use parcolor_local::tape::Randomness;

    let g = gen::gnm(400, 1_600, 77);
    let inst = D1lcInstance::delta_plus_one(g.clone());
    let state = ColoringState::new(&inst);
    let active: Vec<NodeId> = state.uncolored_nodes();
    let set = StageSet::new(&g, active.clone());
    let tape = CryptoTape::new(31);

    // Reference: the whole-graph pass.
    let round_tag = 5u64;
    let proc = TryRandomColor::new(set, SspMode::Auto, round_tag);
    let mut reference: Vec<(NodeId, u32)> = proc.simulate(&state, &tape).adoptions;
    reference.sort_unstable();

    // Message-passing version drawing from the identical tape address:
    // TryRandomColor::pick uses stream S_PICK ^ (round_tag << 8) with
    // S_PICK = 1 and index 0 (see procs.rs).
    struct MpTryColor<'a> {
        g: &'a Graph,
        state: &'a ColoringState,
        stream: u64,
    }
    #[derive(Clone)]
    struct St {
        pick: u32,
        adopted: Option<u32>,
        finished: bool,
    }
    impl MessageAlgorithm for MpTryColor<'_> {
        type State = St;
        type Msg = u32;
        fn init(&self, _v: NodeId) -> St {
            St {
                pick: 0,
                adopted: None,
                finished: false,
            }
        }
        fn round(
            &self,
            v: NodeId,
            round: u32,
            st: &mut St,
            inbox: &[(NodeId, u32)],
            rng: &dyn Randomness,
        ) -> Vec<(NodeId, u32)> {
            match round {
                0 => {
                    let pal = self.state.palette(v);
                    st.pick = pal[rng.below(v, self.stream, 0, pal.len() as u64) as usize];
                    self.g.neighbors(v).iter().map(|&u| (u, st.pick)).collect()
                }
                _ => {
                    let clash = inbox.iter().any(|&(_, c)| c == st.pick);
                    if !clash {
                        st.adopted = Some(st.pick);
                    }
                    st.finished = true;
                    Vec::new()
                }
            }
        }
        fn done(&self, st: &St) -> bool {
            st.finished
        }
    }
    let algo = MpTryColor {
        g: &g,
        state: &state,
        stream: 1 ^ (round_tag << 8), // S_PICK ^ (round_tag << 8)
    };
    let run = run_message_passing(&g, &algo, &tape, 4);
    let mut via_messages: Vec<(NodeId, u32)> = run
        .states
        .iter()
        .enumerate()
        .filter_map(|(v, st)| st.adopted.map(|c| (v as NodeId, c)))
        .collect();
    via_messages.sort_unstable();

    assert_eq!(run.rounds, 2, "TryRandomColor is a 2-round LOCAL procedure");
    assert_eq!(
        reference, via_messages,
        "whole-graph pass diverged from true message passing"
    );
}
