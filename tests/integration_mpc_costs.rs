//! MPC cost-model integration tests: the round/space accounting that
//! Theorem 1 constrains, validated end-to-end (core × mpc crates).

use parcolor_core::{Params, Solver};
use parcolor_graphgen as gen;
use parcolor_local::engine::log_star;

fn fast_params() -> Params {
    Params::default().with_seed_bits(5)
}

#[test]
fn rounds_grow_triple_log_slow() {
    // Theorem 1's shape: MPC rounds must grow dramatically slower than n.
    let mut rounds = Vec::new();
    for (n, m) in [(500usize, 2_500usize), (2_000, 10_000), (8_000, 40_000)] {
        let inst = gen::degree_plus_one(gen::gnm(n, m, 7));
        let sol = Solver::deterministic(fast_params()).solve(&inst);
        rounds.push(sol.cost.mpc_rounds);
    }
    // 16× more nodes may cost at most ~2.5× the rounds (triple-log would
    // predict far less; this bound leaves room for threshold effects).
    assert!(
        rounds[2] as f64 <= rounds[0] as f64 * 2.5 + 20.0,
        "rounds grew too fast: {rounds:?}"
    );
}

#[test]
fn machine_space_stays_sublinear() {
    let n = 4_000;
    let inst = gen::degree_plus_one(gen::gnm(n, 20_000, 8));
    let sol = Solver::deterministic(fast_params()).solve(&inst);
    // Budget: s = c · n^φ with φ=0.5, c=8 → 8·63 ≈ 506 words.
    let budget = (8.0 * (n as f64).sqrt()) as u64;
    assert!(
        sol.cost.max_machine_words <= budget,
        "peak {} exceeds s={budget}",
        sol.cost.max_machine_words
    );
    assert_eq!(sol.cost.budget_violations, 0, "budget violations recorded");
}

#[test]
fn local_rounds_track_log_star_budget() {
    // The HKNT stage is a series of O(log* n) procedures; LOCAL rounds
    // charged per stage should be within a constant factor of
    // (try_repeats + log*·reps_a + reps_b/κ + 1) · constants.
    let inst = gen::degree_plus_one(gen::gnm(3_000, 24_000, 9));
    let sol = Solver::deterministic(fast_params()).solve(&inst);
    let per_stage_budget = 200 * (log_star(3_000.0) as u64 + 3);
    let stages = sol.stats.mid_invocations.max(1) as u64;
    assert!(
        sol.cost.local_rounds <= per_stage_budget * stages + 500,
        "LOCAL rounds {} vs budget {} × {stages}",
        sol.cost.local_rounds,
        per_stage_budget
    );
}

#[test]
fn deterministic_and_randomized_round_costs_are_comparable() {
    // Lemma 10 costs O(1) MPC rounds per procedure over the randomized
    // version, so the two pipelines' round counts stay within a small
    // factor of each other.
    let inst = gen::degree_plus_one(gen::gnm(2_000, 12_000, 10));
    let det = Solver::deterministic(fast_params()).solve(&inst);
    let rand = Solver::randomized(fast_params(), 5).solve(&inst);
    let ratio = det.cost.mpc_rounds as f64 / rand.cost.mpc_rounds.max(1) as f64;
    assert!(
        (0.2..=5.0).contains(&ratio),
        "derandomization round overhead out of band: {ratio} ({} vs {})",
        det.cost.mpc_rounds,
        rand.cost.mpc_rounds
    );
}

#[test]
fn partition_charges_are_recorded() {
    let inst = gen::degree_plus_one(gen::gnm(1_200, 24_000, 11)); // avg 40
    let params = fast_params().with_mid_degree_cap(16).with_greedy_cutoff(48);
    let sol = Solver::deterministic(params).solve(&inst);
    assert!(sol.stats.partitions >= 1);
    for p in &sol.stats.partition_stats {
        assert!(p.seeds_tried >= 1);
        assert!(p.high_nodes + p.mid_nodes >= 1);
    }
}
