//! Coordinator-kill chaos gauntlet: a primary with an armed kill
//! switch, a standby tailing its replication stream, and workers
//! carrying the ordered coordinator list.  Under every kill schedule
//! the surviving side must finish with the **bit-identical** coloring
//! — and the bit-identical *chosen-seed sequence* — of the plain
//! single-machine solve.
//!
//! The seed-sequence comparison is the sharp assertion: the promoted
//! standby replays the primary's replicated per-unit aggregates and
//! finishes the in-flight fold itself, so a single double-merged or
//! dropped unit would perturb `mean_cost` and flip a chosen seed long
//! before it flipped a color.

use parcolor_core::framework::{BlockEval, SeedSearcher, SimScratch};
use parcolor_core::{D1lcInstance, Params, SeedStrategy, Solver};
use parcolor_dist::{
    solve_on_failover_cluster, DistConfig, DistCoordinator, FailoverOutcome, FailoverSchedule,
    KillSpec, Standby,
};
use parcolor_graphgen as gen;
use parcolor_prg::{select_seed_blocks_n, SeedSelection};
use std::sync::{Arc, Mutex};

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

/// A local searcher that records every selection it returns, in order —
/// the single-machine chosen-seed sequence the failover run must match.
struct RecordingSearcher {
    history: Mutex<Vec<SeedSelection>>,
}

impl SeedSearcher for RecordingSearcher {
    fn select(
        &self,
        seed_bits: u32,
        strategy: SeedStrategy,
        workers: usize,
        n: usize,
        eval_block: BlockEval,
    ) -> SeedSelection {
        let sel = select_seed_blocks_n(
            seed_bits,
            strategy,
            workers,
            || SimScratch::new(n),
            |seed0, costs, scratch: &mut SimScratch| eval_block(seed0, costs, scratch),
        );
        self.history.lock().unwrap().push(sel.clone());
        sel
    }
}

/// Single-machine reference: the expected coloring *and* the expected
/// chosen-seed sequence.
fn reference(job_bytes: &[u8]) -> (Vec<u32>, Vec<SeedSelection>) {
    let (inst, params) = decode(job_bytes);
    let rec = Arc::new(RecordingSearcher {
        history: Mutex::new(Vec::new()),
    });
    let sol = Solver::deterministic(params)
        .with_seed_searcher(Arc::clone(&rec) as Arc<dyn SeedSearcher>)
        .solve(&inst);
    inst.verify_coloring(&sol.colors)
        .expect("reference must verify");
    let history = rec.history.lock().unwrap().clone();
    (sol.colors, history)
}

/// Loopback knobs with a roomier reconnect budget: workers must outlast
/// the standby's detect-and-promote window, not flip standalone.
fn failover_cfg(min_workers: usize) -> DistConfig {
    DistConfig {
        lease_timeout_ms: 60,
        heartbeat_timeout_ms: 2_000,
        blocks_per_lease: 4,
        poll_ms: 2,
        max_outstanding: 2,
        min_remote_len: 64,
        local_patience_ms: 500,
        min_workers,
        min_worker_wait_ms: 10_000,
        connect_backoff_ms: 10,
        max_backoff_ms: 150,
        max_reconnects: 10,
        idle_reconnect_ms: 400,
        standby_reconnects: 3,
        jitter_seed: 0xFA110FF,
    }
}

/// The common assertion block for single-fault schedules: primary dead,
/// standby finished bit-identically (colors *and* seed sequence), every
/// worker replica exact.
fn assert_failover_exact(out: &FailoverOutcome, expected: &[u32], history: &[SeedSelection]) {
    assert!(out.primary_killed, "kill switch must fire");
    assert!(out.primary.is_none(), "killed primary must not finish");
    assert!(
        out.standby_stats.promoted,
        "standby must promote: {:?}",
        out.standby_stats
    );
    assert_eq!(
        out.standby_stats.promote_epoch, 2,
        "first promotion is epoch 2"
    );
    let standby = out.standby.as_ref().expect("standby must finish");
    assert_eq!(standby.colors, expected, "standby coloring diverged");
    assert_eq!(
        out.standby_history, history,
        "chosen-seed sequence diverged under failover"
    );
    for (i, w) in out.workers.iter().enumerate() {
        let w = w.as_ref().expect("worker finished");
        assert_eq!(w.colors, expected, "worker {i} replica diverged");
    }
    assert!(
        !out.standby_killed,
        "standby kill must not fire in single-fault schedules"
    );
}

#[test]
fn kill_primary_mid_fold_standby_finishes_exhaustive() {
    let j = job(240, 1_200, 21, 8, "ex");
    let (expected, history) = reference(&j);
    let out = solve_on_failover_cluster(
        &j,
        decode,
        2,
        FailoverSchedule {
            primary_kill: Some(KillSpec::after_units(6)),
            standby_kill: None,
        },
        failover_cfg(2),
    );
    assert_failover_exact(&out, &expected, &history);
    assert!(
        out.standby_stats.replicated_units >= 1,
        "replication stream must have been tailed: {:?}",
        out.standby_stats
    );
    assert!(
        out.standby_coord_stats.searches >= 1,
        "promoted standby must run searches itself: {:?}",
        out.standby_coord_stats
    );
}

#[test]
fn kill_primary_mid_fold_standby_finishes_bitwise() {
    // The bitwise walk is the dedup stress: dozens of folds per search,
    // each chosen seed conditioned on every prior fold's exact mean.
    let j = job(200, 900, 22, 8, "bw");
    let (expected, history) = reference(&j);
    let out = solve_on_failover_cluster(
        &j,
        decode,
        2,
        FailoverSchedule {
            primary_kill: Some(KillSpec::after_units(6)),
            standby_kill: None,
        },
        failover_cfg(2),
    );
    assert_failover_exact(&out, &expected, &history);
}

#[test]
fn kill_primary_between_folds_standby_finishes() {
    // Kill at a fold boundary: the in-flight fold is empty, so the
    // promoted standby starts clean from tailed `Chosen` history.
    let j = job(240, 1_200, 23, 8, "ex");
    let (expected, history) = reference(&j);
    let out = solve_on_failover_cluster(
        &j,
        decode,
        2,
        FailoverSchedule {
            primary_kill: Some(KillSpec::after_folds(2)),
            standby_kill: None,
        },
        failover_cfg(2),
    );
    assert_failover_exact(&out, &expected, &history);
    assert!(
        out.standby_stats.tailed_selections >= 1,
        "completed searches must have been tailed: {:?}",
        out.standby_stats
    );
}

#[test]
fn double_fault_workers_degrade_to_standalone() {
    // Kill the primary mid-fold AND the standby the instant it
    // promotes: no coordinator survives.  The fleet must not hang or
    // panic — every worker exhausts its reconnect budget, flips
    // standalone, and finishes its replica bit-identically.
    let j = job(200, 900, 24, 8, "ex");
    let (expected, _) = reference(&j);
    let out = solve_on_failover_cluster(
        &j,
        decode,
        2,
        FailoverSchedule {
            primary_kill: Some(KillSpec::after_units(4)),
            standby_kill: Some(KillSpec::on_promotion()),
        },
        failover_cfg(2),
    );
    assert!(out.primary_killed, "primary kill must fire");
    assert!(out.standby_killed, "standby kill must fire on promotion");
    assert!(out.primary.is_none());
    assert!(
        out.standby.is_none(),
        "killed standby must not produce a solution"
    );
    for (i, w) in out.workers.iter().enumerate() {
        let w = w.as_ref().expect("worker finished");
        assert_eq!(w.colors, expected, "standalone worker {i} diverged");
        assert!(
            out.standalone[i],
            "worker {i} must degrade to standalone: {:?}",
            out.worker_stats[i]
        );
    }
}

#[test]
fn orderly_handover_promotes_standby_cleanly() {
    // `Promote` without a crash: the primary hands over before running
    // anything, and the standby — promoted at epoch 2 — solves the
    // whole job itself, bit-identically, without waiting on a fleet.
    let j = job(200, 900, 25, 8, "ex");
    let (expected, history) = reference(&j);
    let cfg = failover_cfg(0);
    let primary =
        Arc::new(DistCoordinator::bind("127.0.0.1:0", j.clone(), cfg.clone()).expect("bind"));
    let standby = Arc::new(
        Standby::start("127.0.0.1:0", &primary.local_addr().to_string(), cfg)
            .expect("standby start"),
    );
    assert_eq!(primary.connected_standbys(), 1, "tail must be registered");

    let colors = std::thread::scope(|scope| {
        let solve = {
            let standby = Arc::clone(&standby);
            scope.spawn(move || {
                let (inst, params) = decode(&standby.job());
                Solver::deterministic(params)
                    .with_seed_searcher(standby.searcher())
                    .solve(&inst)
                    .colors
            })
        };
        assert!(primary.handover(), "a standby must receive the promote");
        // Wait for the promotion to land before tearing the primary
        // down, so the handoff is unambiguously the `Promote` path.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !standby.stats().promoted {
            assert!(
                std::time::Instant::now() < deadline,
                "standby never promoted"
            );
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        primary.shutdown();
        solve.join().expect("standby solve thread")
    });
    standby.finish();

    assert_eq!(colors, expected, "handed-over standby diverged");
    assert_eq!(standby.history(), history, "seed sequence diverged");
    let st = standby.stats();
    assert!(st.promoted);
    assert_eq!(st.promote_epoch, 2, "orderly handover is epoch 1 → 2");
    assert!(!standby.was_killed());
}
