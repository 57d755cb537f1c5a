//! E17 — distributed seed search on a loopback cluster: wall-clock and
//! fault-tolerance accounting for the coordinator/worker protocol
//! against the single-machine baseline, clean and under chaos.
//!
//! Every variant must select the same seeds and emit the bit-identical
//! coloring (asserted); what varies is the path the work takes — local
//! pool, a healthy fleet, a fleet with a kill-looped worker, a fleet
//! with a straggler past every lease deadline.  Writes
//! `BENCH_dist.json` with re-issue/eviction counters, wall times and the
//! host's thread count and CPU model.

use parcolor_bench::{f1, host_json, s, scaled, timed, Table};
use parcolor_core::{D1lcInstance, Params, SeedStrategy, Solver};
use parcolor_dist::{
    solve_on_cluster, solve_on_failover_cluster, ChaosConfig, DistConfig, DistStats,
    FailoverSchedule, KillSpec,
};
use parcolor_graphgen as gen;

fn decode(job: &[u8]) -> (D1lcInstance, Params) {
    let p: Vec<&str> = std::str::from_utf8(job)
        .unwrap()
        .split_whitespace()
        .collect();
    let inst = gen::degree_plus_one(gen::gnm(
        p[0].parse().unwrap(),
        p[1].parse().unwrap(),
        p[2].parse().unwrap(),
    ));
    let params = Params::default()
        .with_seed_bits(p[3].parse().unwrap())
        .with_strategy(SeedStrategy::Exhaustive);
    (inst, params)
}

fn cfg(min_workers: usize) -> DistConfig {
    DistConfig {
        lease_timeout_ms: 40,
        poll_ms: 2,
        local_patience_ms: 500,
        min_workers,
        min_worker_wait_ms: 10_000,
        connect_backoff_ms: 10,
        max_backoff_ms: 100,
        idle_reconnect_ms: 500,
        ..DistConfig::default()
    }
}

struct Row {
    variant: &'static str,
    ms: f64,
    stats: DistStats,
    /// Failover scenario only: did the standby promote, and how many
    /// units did it tail off the primary's replication stream.
    promoted: bool,
    replicated_units: u64,
}

fn main() {
    println!("# E17: distributed seed search (loopback cluster)\n");
    let n = scaled(2_000, 500);
    let job = format!("{n} {} 29 8", n * 5).into_bytes();

    let (expected, local_ms) = timed(|| {
        let (inst, params) = decode(&job);
        let sol = Solver::deterministic(params).solve(&inst);
        inst.verify_coloring(&sol.colors).unwrap();
        sol.colors
    });

    let variants: Vec<(&'static str, usize, Vec<Option<ChaosConfig>>)> = vec![
        ("cluster_2", 2, vec![None, None]),
        (
            "cluster_2_killer",
            2,
            vec![None, Some(ChaosConfig::killer(91, 11))],
        ),
        (
            "cluster_2_straggler",
            2,
            vec![None, Some(ChaosConfig::straggler(92, 80, 40))],
        ),
        ("coordinator_alone", 0, vec![]),
    ];

    let mut rows = vec![Row {
        variant: "local",
        ms: local_ms,
        stats: DistStats::default(),
        promoted: false,
        replicated_units: 0,
    }];
    for (variant, nworkers, chaos) in variants {
        let (out, ms) = timed(|| solve_on_cluster(&job, decode, nworkers, &chaos, cfg(nworkers)));
        assert_eq!(
            out.coordinator.colors, expected,
            "{variant}: distributed coloring diverged"
        );
        for (i, w) in out.workers.iter().enumerate() {
            if let Some(w) = w {
                assert_eq!(w.colors, expected, "{variant}: worker {i} replica diverged");
            }
        }
        rows.push(Row {
            variant,
            ms,
            stats: out.stats,
            promoted: false,
            replicated_units: 0,
        });
    }

    // Failover scenario: kill the primary mid-fold, the standby tails
    // the replication stream, promotes, and finishes — bit-identically.
    {
        let (out, ms) = timed(|| {
            solve_on_failover_cluster(
                &job,
                decode,
                2,
                FailoverSchedule {
                    primary_kill: Some(KillSpec::after_units(6)),
                    standby_kill: None,
                },
                cfg(2),
            )
        });
        assert!(out.primary_killed, "failover: kill switch must fire");
        assert!(out.standby_stats.promoted, "failover: standby must promote");
        let standby = out.standby.as_ref().expect("failover: standby finished");
        assert_eq!(
            standby.colors, expected,
            "failover: standby coloring diverged"
        );
        for (i, w) in out.workers.iter().enumerate() {
            if let Some(w) = w {
                assert_eq!(w.colors, expected, "failover: worker {i} replica diverged");
            }
        }
        rows.push(Row {
            variant: "failover_kill_mid_fold",
            ms,
            stats: out.standby_coord_stats,
            promoted: true,
            replicated_units: out.standby_stats.replicated_units,
        });
    }

    let mut t = Table::new(&[
        "variant",
        "ms",
        "remote units",
        "local units",
        "reissued",
        "expired",
        "duplicates",
        "replayed",
        "evictions",
    ]);
    for r in &rows {
        t.row(&[
            s(r.variant),
            f1(r.ms),
            s(r.stats.remote_units),
            s(r.stats.local_units),
            s(r.stats.reissued),
            s(r.stats.expired),
            s(r.stats.duplicates),
            s(r.stats.replayed_units),
            s(r.stats.evictions),
        ]);
    }
    t.print();
    println!("\nBit-identical coloring on every variant (asserted).");

    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"variant\": \"{}\", \"ms\": {:.1}, \"remote_units\": {}, \
                 \"local_units\": {}, \"granted\": {}, \"reissued\": {}, \"expired\": {}, \
                 \"orphaned\": {}, \"duplicates\": {}, \"fenced\": {}, \"replayed\": {}, \
                 \"evictions\": {}, \"disconnects\": {}, \"promoted\": {}, \
                 \"replicated_units\": {}}}",
                r.variant,
                r.ms,
                r.stats.remote_units,
                r.stats.local_units,
                r.stats.granted,
                r.stats.reissued,
                r.stats.expired,
                r.stats.orphaned,
                r.stats.duplicates,
                r.stats.fenced,
                r.stats.replayed_units,
                r.stats.evictions,
                r.stats.disconnects,
                r.promoted,
                r.replicated_units
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"e17_dist_cluster\",\n  \"host\": {},\n  \"n\": {n},\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        host_json(),
        json_rows.join(",\n")
    );
    match std::fs::write("BENCH_dist.json", &json) {
        Ok(()) => println!("wrote BENCH_dist.json"),
        Err(e) => eprintln!("cannot write BENCH_dist.json: {e}"),
    }
}
