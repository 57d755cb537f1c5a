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
use parcolor_prg::{select_seed_blocks_n, ChunkAssignment, Prg, PrgTape, SeedStrategy};

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
/// enter the MIS this round).  Pure in `(live, rng, round)`.  A node's
/// priority is a pure function of (node, tape), whichever neighbor
/// compares against it, so each live node's priority is drawn once into
/// a dense array.
fn luby_round(g: &Graph, live: &[bool], rng: &dyn Randomness, round: u64) -> Vec<NodeId> {
    let live_list: Vec<NodeId> = (0..g.n() as NodeId).filter(|&v| live[v as usize]).collect();
    let mut prio = vec![0u64; g.n()];
    for &v in &live_list {
        prio[v as usize] = rng.word(v, round, 0);
    }
    live_list
        .into_iter()
        .filter(|&v| {
            let pv = prio[v as usize];
            g.neighbors(v).iter().all(|&u| {
                !live[u as usize] || {
                    let pu = prio[u as usize];
                    // Strict winner with id tiebreak: deterministic.
                    pv > pu || (pv == pu && v < u)
                }
            })
        })
        .collect()
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
    (0..g.n() as NodeId)
        .filter(|&v| live[v as usize] && !jmask[v as usize])
        .filter(|&v| !g.neighbors(v).iter().any(|&u| jmask[u as usize]))
        .count()
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
/// (`0` = auto).  Each seed costs one `luby_round` under its tape;
/// seed blocks are dealt to workers by atomic stealing, and any worker
/// count selects the identical seed every round, so the MIS is identical
/// too.
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
        let sel = select_seed_blocks_n(
            seed_bits,
            strategy,
            workers,
            || (),
            |seed0, costs, _: &mut ()| {
                for (seed, cost) in (seed0..).zip(costs.iter_mut()) {
                    let tape = PrgTape::new(prg, seed, &chunks);
                    *cost = undominated(g, &live, &luby_round(g, &live, &tape, rounds)) as f64;
                }
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
