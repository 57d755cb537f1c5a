//! Loopback-cluster e2e: the distributed seed search must produce the
//! **bit-identical** coloring (and seed selections) of the
//! single-machine path under every chaos schedule — kills, restarts,
//! stragglers, frame loss, and total fleet death.
//!
//! Bit-identity doubles as the end-to-end dedup proof: `mean_cost`
//! aggregates every unit's exact integer sum, so a duplicate unit
//! merged twice (or a dropped unit merged never) would perturb the mean
//! and, for the bitwise strategy, flip chosen seeds — and the colors
//! would diverge.

use parcolor_core::{D1lcInstance, Params, SeedStrategy, Solver};
use parcolor_dist::{solve_on_cluster, ChaosConfig, DistConfig};
use parcolor_graphgen as gen;

/// Job codec for the tests: generator parameters, so every node
/// reconstructs the same instance (the real CLI ships DIMACS text).
fn job(n: usize, m: usize, seed: u64, bits: u32, strat: &str) -> Vec<u8> {
    format!("{n} {m} {seed} {bits} {strat}").into_bytes()
}

fn decode(job: &[u8]) -> (D1lcInstance, Params) {
    let s = std::str::from_utf8(job).expect("utf8 job");
    let p: Vec<&str> = s.split_whitespace().collect();
    let (n, m, seed, bits) = (
        p[0].parse().unwrap(),
        p[1].parse().unwrap(),
        p[2].parse().unwrap(),
        p[3].parse().unwrap(),
    );
    let strategy = match p[4] {
        "ex" => SeedStrategy::Exhaustive,
        "bw" => SeedStrategy::BitwiseCondExp,
        other => SeedStrategy::FixedSubset(other.parse().unwrap()),
    };
    let inst = gen::degree_plus_one(gen::gnm(n, m, seed));
    let params = Params::default()
        .with_seed_bits(bits)
        .with_strategy(strategy);
    (inst, params)
}

fn local_solution(job_bytes: &[u8]) -> Vec<u32> {
    let (inst, params) = decode(job_bytes);
    let sol = Solver::deterministic(params).solve(&inst);
    inst.verify_coloring(&sol.colors)
        .expect("local must verify");
    sol.colors
}

/// Aggressive-but-sane knobs for loopback tests: tiny lease deadlines
/// so stragglers expire fast, short patience so stuck folds degrade,
/// quick reconnects.
fn test_cfg(min_workers: usize) -> DistConfig {
    DistConfig {
        lease_timeout_ms: 30,
        heartbeat_timeout_ms: 2_000,
        blocks_per_lease: 4,
        poll_ms: 2,
        max_outstanding: 2,
        min_remote_len: 64,
        local_patience_ms: 300,
        min_workers,
        min_worker_wait_ms: 10_000,
        connect_backoff_ms: 10,
        max_backoff_ms: 100,
        max_reconnects: 5,
        idle_reconnect_ms: 400,
        standby_reconnects: 3,
        jitter_seed: 0xD15C0,
    }
}

#[test]
fn clean_cluster_matches_local_bit_for_bit() {
    let j = job(240, 1_200, 1, 8, "ex");
    let expected = local_solution(&j);
    let out = solve_on_cluster(&j, decode, 2, &[None, None], test_cfg(2));
    assert_eq!(out.coordinator.colors, expected, "coordinator diverged");
    for (i, w) in out.workers.iter().enumerate() {
        let w = w.as_ref().expect("worker finished");
        assert_eq!(w.colors, expected, "worker {i} replica diverged");
    }
    assert!(
        out.stats.remote_units > 0,
        "fleet did real work: {:?}",
        out.stats
    );
    assert_eq!(out.stats.searches, out.stats.folds.min(out.stats.searches));
}

#[test]
fn bitwise_walk_distributes_identically() {
    // The bitwise strategy folds two half-spaces per bit — dozens of
    // folds per search, exercising fold-id plumbing and the
    // local-vs-remote split (deep bits run under min_remote_len).
    let j = job(200, 900, 2, 8, "bw");
    let expected = local_solution(&j);
    let out = solve_on_cluster(&j, decode, 2, &[None, None], test_cfg(2));
    assert_eq!(out.coordinator.colors, expected);
    for w in &out.workers {
        assert_eq!(w.as_ref().unwrap().colors, expected);
    }
    assert!(out.stats.remote_folds > 0);
    assert!(out.stats.local_units > 0, "deep bits should fold locally");
}

#[test]
fn each_served_unit_is_one_result_frame() {
    // The worker sends each unit's aggregate as soon as it is folded,
    // in a `Result` frame of its own, even with four leases in flight;
    // the coordinator merges every unit once and the replica stays
    // exact.
    let j = job(240, 1_200, 8, 8, "ex");
    let expected = local_solution(&j);
    let mut cfg = test_cfg(1);
    cfg.max_outstanding = 4;
    let out = solve_on_cluster(&j, decode, 1, &[None], cfg);
    assert_eq!(out.coordinator.colors, expected, "{:?}", out.stats);
    assert_eq!(
        out.workers[0].as_ref().unwrap().colors,
        expected,
        "worker replica diverged"
    );
    let ws = out.worker_stats[0].as_ref().expect("worker stats");
    assert!(
        ws.served_units >= 8,
        "worker should have served real work: {ws:?}"
    );
    assert_eq!(
        ws.result_frames, ws.served_units,
        "one Result frame per served unit: {ws:?}"
    );
    assert_eq!(out.stats.duplicates, 0, "no unit may merge twice");
}

#[test]
fn chaos_worker_killed_mid_lease_reissues_and_stays_exact() {
    // Schedule 1: the proxy kills every connection after 11 frames —
    // repeatedly, so the worker lives in a kill/restart loop.  Severed
    // grants and unreturned results must be re-issued; dedup keeps the
    // merge exact.
    let j = job(240, 1_200, 3, 8, "ex");
    let expected = local_solution(&j);
    let out = solve_on_cluster(
        &j,
        decode,
        1,
        &[Some(ChaosConfig::killer(41, 11))],
        test_cfg(1),
    );
    assert_eq!(out.coordinator.colors, expected, "{:?}", out.stats);
    if let Some(w) = &out.workers[0] {
        assert_eq!(w.colors, expected, "restarted worker replica diverged");
    }
    assert!(
        out.stats.disconnects + out.stats.evictions >= 1,
        "kills must be observed: {:?}",
        out.stats
    );
    assert!(
        out.stats.reissued >= 1,
        "killed leases must re-issue: {:?}",
        out.stats
    );
}

#[test]
fn chaos_straggler_past_deadline_expires_and_stays_exact() {
    // Schedule 2: worker 1 sits behind a link that delays every frame
    // ≥ 80 ms while leases expire at 30 ms — all its leases blow the
    // deadline and re-issue to the fast worker (or the local fallback);
    // its late results arrive anyway and must be dropped as
    // duplicates/stale, never double-merged.
    let j = job(240, 1_200, 4, 8, "ex");
    let expected = local_solution(&j);
    let out = solve_on_cluster(
        &j,
        decode,
        2,
        &[None, Some(ChaosConfig::straggler(42, 80, 40))],
        test_cfg(2),
    );
    assert_eq!(out.coordinator.colors, expected, "{:?}", out.stats);
    assert_eq!(
        out.workers[0].as_ref().unwrap().colors,
        expected,
        "fast worker diverged"
    );
    assert!(
        out.stats.expired >= 1,
        "straggler must expire: {:?}",
        out.stats
    );
    assert!(
        out.stats.reissued >= 1,
        "expiry must re-issue: {:?}",
        out.stats
    );
}

#[test]
fn chaos_lossy_link_converges_exactly() {
    // Schedule 3: 20% of frames vanish.  Lost grants and results are
    // straight lease expiries; lost Chosen broadcasts force the worker
    // through the idle-reconnect + Welcome-history resync path.
    let j = job(200, 900, 5, 8, "ex");
    let expected = local_solution(&j);
    let out = solve_on_cluster(
        &j,
        decode,
        1,
        &[Some(ChaosConfig::lossy(43, 200))],
        test_cfg(1),
    );
    assert_eq!(out.coordinator.colors, expected, "{:?}", out.stats);
    if let Some(w) = &out.workers[0] {
        assert_eq!(w.colors, expected);
    }
}

#[test]
fn fleet_never_arrives_coordinator_degrades_to_local() {
    // Schedule 4: nobody shows up.  Every fold runs on the coordinator's
    // own pool (`select_seed_blocks_n` semantics) — same answer.
    let j = job(200, 900, 6, 8, "ex");
    let expected = local_solution(&j);
    let out = solve_on_cluster(&j, decode, 0, &[], test_cfg(0));
    assert_eq!(out.coordinator.colors, expected);
    assert!(out.stats.local_units >= 1);
    assert_eq!(out.stats.remote_units, 0);
}

#[test]
fn orphaned_coordinator_worker_goes_standalone() {
    // Schedule 5: the coordinator dies mid-solve.  The worker must
    // exhaust its reconnect budget, flip to standalone, finish the
    // replica locally — bit-identically — and never panic.
    use parcolor_dist::{run_worker, DistCoordinator};
    use std::sync::Arc;

    let j = job(200, 900, 7, 8, "ex");
    let expected = local_solution(&j);
    let cfg = test_cfg(1);
    let coordinator =
        Arc::new(DistCoordinator::bind("127.0.0.1:0", j.clone(), cfg.clone()).expect("bind"));
    let addr = coordinator.local_addr().to_string();

    let (colors, standalone) = std::thread::scope(|scope| {
        let worker = {
            let cfg = cfg.clone();
            let j = &j;
            scope.spawn(move || {
                run_worker(&[addr], cfg, |job_bytes, searcher| {
                    assert_eq!(job_bytes, &j[..], "welcome must carry the job");
                    let (inst, params) = decode(job_bytes);
                    let sol = Solver::deterministic(params)
                        .with_seed_searcher(searcher.clone())
                        .solve(&inst);
                    (sol.colors, searcher.is_standalone())
                })
                .expect("initial connect must succeed")
            })
        };
        // Let the worker in, then vanish without serving a single search.
        while coordinator.connected_workers() < 1 {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        coordinator.shutdown();
        worker.join().expect("worker must not panic")
    });
    assert!(standalone, "worker must degrade to standalone");
    assert_eq!(colors, expected, "standalone replica diverged");
}
