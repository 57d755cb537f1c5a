//! Luby's maximal-independent-set algorithm as a normal distributed
//! procedure — the paper's own worked example of Definition 5 (Section
//! 4.1), and experiment E10's subject.
//!
//! One Luby round: every live node draws a random priority; a node joins
//! the MIS if its priority beats all live neighbors'; MIS nodes and their
//! neighbors leave.  The success property (strong = weak, as the paper
//! notes) is *"v is within distance 1 of the output set"* — only
//! maximality can fail, independence is structural, and deferring failed
//! nodes removes nobody from the set.
//!
//! The derandomization here reuses the same PRG + seed-selection stack as
//! the coloring pipeline, showing the framework is not coloring-specific.

use parcolor_local::graph::{Graph, NodeId};
use parcolor_local::tape::{CryptoTape, Randomness};
use parcolor_prg::{select_seed_blocks_n, ChunkAssignment, Prg, PrgTape, SeedStrategy, SEED_BLOCK};

/// Result of one MIS construction.
#[derive(Clone, Debug)]
pub struct MisResult {
    /// Membership mask of the independent set.
    pub in_mis: Vec<bool>,
    /// Luby rounds executed.
    pub rounds: u64,
    /// Nodes deferred per round (derandomized mode; empty otherwise).
    pub deferrals_per_round: Vec<usize>,
    /// Chosen-seed cost vs seed-space mean, per round (derandomized).
    pub guarantee_checks: Vec<(f64, f64)>,
}

/// Simulate one Luby round on the live set: returns `joined` (nodes that
/// enter the MIS this round).  Pure in `(live, rng, round)`.
fn luby_round(g: &Graph, live: &[bool], rng: &dyn Randomness, round: u64) -> Vec<NodeId> {
    (0..g.n() as NodeId)
        .filter(|&v| live[v as usize])
        .filter(|&v| {
            let pv = rng.word(v, round, 0);
            g.neighbors(v).iter().all(|&u| {
                !live[u as usize] || {
                    let pu = rng.word(u, round, 0);
                    // Strict winner with id tiebreak: deterministic.
                    pv > pu || (pv == pu && v < u)
                }
            })
        })
        .collect()
}

/// Nodes of the live set not dominated by a joined set, where membership
/// is supplied as a predicate — the ONE undominated-count kernel shared
/// by the reference path (dense `Vec<bool>` mask) and the scratch path
/// (epoch stamps), so the two cannot diverge.
fn undominated_count(g: &Graph, live: &[bool], is_joined: impl Fn(NodeId) -> bool) -> usize {
    (0..g.n() as NodeId)
        .filter(|&v| live[v as usize] && !is_joined(v))
        .filter(|&v| !g.neighbors(v).iter().any(|&u| is_joined(u)))
        .count()
}

/// Nodes of the live set not dominated by `joined` (the SSP failures of
/// the round if the round were the whole procedure): live nodes with no
/// joined node in their closed neighborhood after this round... for the
/// per-round procedure we count nodes that neither joined nor got a
/// joined neighbor *and* had the maximum-priority property fail locally.
fn undominated(g: &Graph, live: &[bool], joined: &[NodeId]) -> usize {
    let mut jmask = vec![false; g.n()];
    for &v in joined {
        jmask[v as usize] = true;
    }
    undominated_count(g, live, |v| jmask[v as usize])
}

/// Per-worker scratch for the derandomized seed search: a reusable
/// `joined` buffer, an epoch-stamped domination mask, and the round's
/// **priority plane** — the live nodes' tape words, filled by one batched
/// `fill_words` stripe per seed and scattered densely so the winner scan
/// reads priorities as array lookups instead of re-mixing the tape once
/// per incident edge.  One seed evaluation allocates nothing after
/// warm-up.
struct LubyScratch {
    joined: Vec<NodeId>,
    stamp: Vec<u32>,
    epoch: u32,
    /// Dense priority plane, valid at live-node positions for the seed
    /// under evaluation.
    prio: Vec<u64>,
    /// Stripe buffer aligned with the round's live-node list.
    vals: Vec<u64>,
    /// Seed-lane priority plane: the priorities of up to [`SEED_BLOCK`]
    /// seeds per node, dense by node id — the block evaluator's
    /// structure-of-arrays view.
    prio_soa: Vec<[u64; SEED_BLOCK]>,
    /// Per-node seed-lane join bits (bit `s` ⇔ the node wins its
    /// neighborhood under seed lane `s`).
    join_mask: Vec<u8>,
}

impl LubyScratch {
    fn new(n: usize) -> Self {
        LubyScratch {
            joined: Vec::new(),
            stamp: vec![0; n],
            epoch: 0,
            prio: vec![0; n],
            vals: Vec::new(),
            prio_soa: Vec::new(),
            join_mask: Vec::new(),
        }
    }
}

/// `luby_round`, writing into a reusable buffer (sequential: the seed
/// search parallelizes over seeds, not nodes).  `live_list` is the
/// ascending list of live nodes (the same order the scalar scan visits);
/// their priorities come off the tape as one batched stripe — bit-
/// identical words, so the joined set matches [`luby_round`] exactly.
fn luby_round_into(
    g: &Graph,
    live: &[bool],
    live_list: &[NodeId],
    rng: &dyn Randomness,
    round: u64,
    scratch: &mut LubyScratch,
) {
    scratch.vals.resize(live_list.len(), 0);
    rng.fill_words(round, live_list, 0, &mut scratch.vals);
    for (i, &v) in live_list.iter().enumerate() {
        scratch.prio[v as usize] = scratch.vals[i];
    }
    let prio = &scratch.prio;
    let out = &mut scratch.joined;
    out.clear();
    for &v in live_list {
        let pv = prio[v as usize];
        let wins = g.neighbors(v).iter().all(|&u| {
            !live[u as usize] || {
                let pu = prio[u as usize];
                pv > pu || (pv == pu && v < u)
            }
        });
        if wins {
            out.push(v);
        }
    }
}

/// [`undominated_count`] against an epoch-stamped membership mask (no
/// per-call `Vec<bool>`).
fn undominated_scratch(g: &Graph, live: &[bool], scratch: &mut LubyScratch) -> usize {
    scratch.epoch += 1;
    let epoch = scratch.epoch;
    for &v in &scratch.joined {
        scratch.stamp[v as usize] = epoch;
    }
    let stamp = &scratch.stamp;
    undominated_count(g, live, |v| stamp[v as usize] == epoch)
}

/// Seed-lane block evaluation of one Luby round: all lanes' priorities
/// are materialized as one structure-of-arrays plane (one batched
/// `fill_words` stripe per lane), then **one** pass over the live
/// neighborhoods decides every lane's winners (lane-masked strict-max
/// compare with the scalar path's id tiebreak) and a second pass counts
/// every lane's undominated nodes — where the per-seed fallback re-walks
/// the neighborhoods once per seed.  `costs[s]` equals exactly what
/// `luby_round_into` + `undominated_scratch` computes for tape `s`.
#[allow(clippy::too_many_arguments)] // internal block kernel, all state explicit
fn luby_round_block_costs(
    g: &Graph,
    live: &[bool],
    live_list: &[NodeId],
    tapes: &[PrgTape],
    lanes: usize,
    round: u64,
    scratch: &mut LubyScratch,
    costs: &mut [f64],
) {
    debug_assert!(lanes <= SEED_BLOCK && costs.len() == lanes);
    scratch.prio_soa.resize(g.n(), [0u64; SEED_BLOCK]);
    scratch.join_mask.resize(g.n(), 0);
    scratch.vals.resize(live_list.len(), 0);
    for (s, tape) in tapes.iter().enumerate().take(lanes) {
        tape.fill_words(round, live_list, 0, &mut scratch.vals);
        for (i, &v) in live_list.iter().enumerate() {
            scratch.prio_soa[v as usize][s] = scratch.vals[i];
        }
    }
    let full: u8 = ((1u16 << lanes) - 1) as u8;
    let prio_soa = &scratch.prio_soa;
    let join_mask = &mut scratch.join_mask;
    // Pass 1: winners per lane (strict winner with id tiebreak).
    for &v in live_list {
        let pv = &prio_soa[v as usize];
        let mut wins = full;
        for &u in g.neighbors(v) {
            if !live[u as usize] {
                continue;
            }
            let pu = &prio_soa[u as usize];
            for s in 0..lanes {
                let beat = pv[s] > pu[s] || (pv[s] == pu[s] && v < u);
                wins &= !(u8::from(!beat) << s);
            }
            if wins == 0 {
                break;
            }
        }
        join_mask[v as usize] = wins;
    }
    // Pass 2: per-lane undominated counts off the join masks.
    let join_mask = &scratch.join_mask;
    let mut undom = [0usize; SEED_BLOCK];
    for &v in live_list {
        let mut dom = join_mask[v as usize];
        if dom & full != full {
            for &u in g.neighbors(v) {
                if live[u as usize] {
                    dom |= join_mask[u as usize];
                    if dom & full == full {
                        break;
                    }
                }
            }
        }
        for (s, c) in undom.iter_mut().enumerate().take(lanes) {
            *c += usize::from(dom >> s & 1 == 0);
        }
    }
    for (s, c) in costs.iter_mut().enumerate() {
        *c = undom[s] as f64;
    }
}

fn retire(g: &Graph, live: &mut [bool], joined: &[NodeId], in_mis: &mut [bool]) {
    for &v in joined {
        in_mis[v as usize] = true;
        live[v as usize] = false;
        for &u in g.neighbors(v) {
            live[u as usize] = false;
        }
    }
}

/// Randomized Luby MIS (reference).
pub fn luby_mis(g: &Graph, key: u64, max_rounds: u64) -> MisResult {
    let tape = CryptoTape::new(key);
    let mut live = vec![true; g.n()];
    let mut in_mis = vec![false; g.n()];
    let mut rounds = 0;
    while live.iter().any(|&l| l) {
        rounds += 1;
        assert!(rounds <= max_rounds, "Luby exceeded {max_rounds} rounds");
        let joined = luby_round(g, &live, &tape, rounds);
        retire(g, &mut live, &joined, &mut in_mis);
    }
    MisResult {
        in_mis,
        rounds,
        deferrals_per_round: Vec::new(),
        guarantee_checks: Vec::new(),
    }
}

/// Derandomized Luby MIS: each round is treated as a normal distributed
/// procedure and its priority randomness is drawn from a PRG seed chosen
/// by the method of conditional expectations, minimizing the number of
/// undominated live nodes (the SSP-failure count of the round).
pub fn derandomized_luby_mis(
    g: &Graph,
    seed_bits: u32,
    strategy: SeedStrategy,
    max_rounds: u64,
) -> MisResult {
    derandomized_luby_mis_sharded(g, seed_bits, strategy, max_rounds, 0)
}

/// [`derandomized_luby_mis`] with an explicit seed-search worker count
/// (`0` = auto).  Seeds are evaluated in [`SEED_BLOCK`]-lane blocks
/// ([`luby_round_block_costs`]) dealt to workers by atomic stealing; any
/// worker count selects the identical seed every round, so the MIS is
/// identical too.
pub fn derandomized_luby_mis_sharded(
    g: &Graph,
    seed_bits: u32,
    strategy: SeedStrategy,
    max_rounds: u64,
    workers: usize,
) -> MisResult {
    let prg = Prg::new(seed_bits);
    let chunks = ChunkAssignment::PerNode;
    let mut live = vec![true; g.n()];
    let mut in_mis = vec![false; g.n()];
    let mut rounds = 0;
    let mut deferrals = Vec::new();
    let mut checks = Vec::new();
    while live.iter().any(|&l| l) {
        rounds += 1;
        assert!(rounds <= max_rounds, "derandomized Luby exceeded budget");
        let live_ro = &live;
        // The round's live-node list, computed once and shared by every
        // seed evaluation as the batch stripe of the priority plane.
        let live_list: Vec<NodeId> = (0..g.n() as NodeId)
            .filter(|&v| live_ro[v as usize])
            .collect();
        let live_list = &live_list;
        let sel = select_seed_blocks_n(
            seed_bits,
            strategy,
            workers,
            || LubyScratch::new(g.n()),
            |seed0, costs, scratch| {
                let tapes = prg.block_tapes(seed0, &chunks);
                luby_round_block_costs(
                    g,
                    live_ro,
                    live_list,
                    &tapes,
                    costs.len(),
                    rounds,
                    scratch,
                    costs,
                );
            },
        );
        debug_assert!(sel.satisfies_guarantee());
        checks.push((sel.cost, sel.mean_cost));
        let tape = PrgTape::new(prg, sel.seed, &chunks);
        let joined = luby_round(g, &live, &tape, rounds);
        deferrals.push(undominated(g, &live, &joined));
        retire(g, &mut live, &joined, &mut in_mis);
        // Undominated nodes simply stay live — the "defer and repeat"
        // loop of Theorem 12, which for MIS is just the next round.
    }
    MisResult {
        in_mis,
        rounds,
        deferrals_per_round: deferrals,
        guarantee_checks: checks,
    }
}

/// Bench/testing hook: run one Luby round's seed search over the whole
/// graph (everyone live) and return the selection — either through the
/// seed-lane **block** path ([`luby_round_block_costs`], what
/// [`derandomized_luby_mis`] drives) or through the **per-seed** fused
/// fallback (`luby_round_into` + `undominated_scratch`, the regime before
/// the block port).  Both must select identically; benches measure the
/// block path's per-seed-eval speedup through this single entry point.
pub fn luby_round_seed_search(
    g: &Graph,
    seed_bits: u32,
    strategy: SeedStrategy,
    workers: usize,
    block: bool,
) -> parcolor_prg::SeedSelection {
    let prg = Prg::new(seed_bits);
    let chunks = ChunkAssignment::PerNode;
    let live = vec![true; g.n()];
    let live_list: Vec<NodeId> = (0..g.n() as NodeId).collect();
    let (live, live_list) = (&live, &live_list);
    if block {
        select_seed_blocks_n(
            seed_bits,
            strategy,
            workers,
            || LubyScratch::new(g.n()),
            |seed0, costs, scratch| {
                let tapes = prg.block_tapes(seed0, &chunks);
                luby_round_block_costs(g, live, live_list, &tapes, costs.len(), 1, scratch, costs);
            },
        )
    } else {
        parcolor_prg::select_seed_with_n(
            seed_bits,
            strategy,
            workers,
            || LubyScratch::new(g.n()),
            |seed, scratch| {
                let tape = PrgTape::new(prg, seed, &chunks);
                luby_round_into(g, live, live_list, &tape, 1, scratch);
                undominated_scratch(g, live, scratch) as f64
            },
        )
    }
}

/// Verify independence + maximality.
pub fn verify_mis(g: &Graph, in_mis: &[bool]) -> Result<(), String> {
    for v in 0..g.n() as NodeId {
        if in_mis[v as usize] {
            for &u in g.neighbors(v) {
                if in_mis[u as usize] {
                    return Err(format!("edge {v}-{u} inside MIS"));
                }
            }
        } else {
            let dominated = g.neighbors(v).iter().any(|&u| in_mis[u as usize]);
            if !dominated {
                return Err(format!("node {v} undominated"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcolor_local::tape::SplitMix;

    fn random_graph(n: usize, m: usize, seed: u64) -> Graph {
        let mut rng = SplitMix::new(seed);
        let mut edges = Vec::new();
        while edges.len() < m {
            let a = rng.below(n as u64) as NodeId;
            let b = rng.below(n as u64) as NodeId;
            if a != b {
                edges.push((a.min(b), a.max(b)));
            }
        }
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn batched_round_matches_reference_round() {
        // The priority-plane round must produce exactly the joined set of
        // the scalar reference round, on full and partial live sets.
        let g = random_graph(300, 1200, 9);
        let tape = CryptoTape::new(31);
        let mut scratch = LubyScratch::new(g.n());
        for round in 1..4u64 {
            let live: Vec<bool> = (0..g.n()).map(|v| v % (round as usize + 1) != 1).collect();
            let live_list: Vec<NodeId> =
                (0..g.n() as NodeId).filter(|&v| live[v as usize]).collect();
            let reference = luby_round(&g, &live, &tape, round);
            luby_round_into(&g, &live, &live_list, &tape, round, &mut scratch);
            assert_eq!(scratch.joined, reference, "round {round}");
            assert_eq!(
                undominated_scratch(&g, &live, &mut scratch),
                undominated(&g, &live, &reference),
                "round {round}"
            );
        }
    }

    #[test]
    fn block_round_search_matches_per_seed_path() {
        // The seed-lane block evaluation must select exactly what the
        // per-seed fused fallback selects, for every strategy.
        let g = random_graph(250, 900, 4);
        for strategy in [
            SeedStrategy::Exhaustive,
            SeedStrategy::BitwiseCondExp,
            SeedStrategy::FixedSubset(13),
            SeedStrategy::SingleSeed(5),
        ] {
            let scalar = luby_round_seed_search(&g, 6, strategy, 1, false);
            let block = luby_round_seed_search(&g, 6, strategy, 1, true);
            assert_eq!(scalar.seed, block.seed, "{strategy:?}");
            assert_eq!(scalar.cost, block.cost, "{strategy:?}");
            assert_eq!(scalar.mean_cost, block.mean_cost, "{strategy:?}");
            assert_eq!(scalar.min_cost, block.min_cost, "{strategy:?}");
            assert_eq!(scalar.trace, block.trace, "{strategy:?}");
        }
    }

    #[test]
    fn sharded_mis_is_worker_invariant() {
        // The stolen-block fold must not change any round's selection,
        // hence not the MIS either.
        let g = random_graph(150, 500, 8);
        let reference = derandomized_luby_mis_sharded(&g, 6, SeedStrategy::Exhaustive, 1000, 1);
        verify_mis(&g, &reference.in_mis).unwrap();
        for workers in [2usize, 4, 8] {
            let got = derandomized_luby_mis_sharded(&g, 6, SeedStrategy::Exhaustive, 1000, workers);
            assert_eq!(reference.in_mis, got.in_mis, "workers = {workers}");
            assert_eq!(reference.rounds, got.rounds, "workers = {workers}");
            assert_eq!(
                reference.guarantee_checks, got.guarantee_checks,
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn randomized_mis_is_valid() {
        let g = random_graph(500, 2000, 1);
        let res = luby_mis(&g, 7, 1000);
        verify_mis(&g, &res.in_mis).unwrap();
        assert!(res.rounds < 40);
    }

    #[test]
    fn derandomized_mis_is_valid_and_deterministic() {
        let g = random_graph(200, 800, 2);
        let a = derandomized_luby_mis(&g, 6, SeedStrategy::Exhaustive, 1000);
        let b = derandomized_luby_mis(&g, 6, SeedStrategy::Exhaustive, 1000);
        verify_mis(&g, &a.in_mis).unwrap();
        assert_eq!(a.in_mis, b.in_mis);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn derandomized_guarantee_holds_each_round() {
        let g = random_graph(150, 500, 3);
        let res = derandomized_luby_mis(&g, 6, SeedStrategy::BitwiseCondExp, 1000);
        for (cost, mean) in &res.guarantee_checks {
            assert!(cost <= &(mean + 1e-9), "cost {cost} > mean {mean}");
        }
    }

    #[test]
    fn empty_graph_mis_is_everything() {
        let g = Graph::empty(10);
        let res = luby_mis(&g, 1, 10);
        assert!(res.in_mis.iter().all(|&b| b));
        assert_eq!(res.rounds, 1);
    }

    #[test]
    fn clique_mis_is_single_node() {
        let mut edges = Vec::new();
        for a in 0..10u32 {
            for b in (a + 1)..10 {
                edges.push((a, b));
            }
        }
        let g = Graph::from_edges(10, &edges);
        let res = derandomized_luby_mis(&g, 5, SeedStrategy::Exhaustive, 100);
        assert_eq!(res.in_mis.iter().filter(|&&b| b).count(), 1);
        verify_mis(&g, &res.in_mis).unwrap();
    }
}
