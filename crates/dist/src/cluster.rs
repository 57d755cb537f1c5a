//! Loopback cluster harness: coordinator + N workers + optional chaos
//! proxies — and, for the failover gauntlet, a standby coordinator plus
//! deterministic kill schedules — all in one process, for the e2e suite
//! and the bench.
//!
//! [`solve_on_cluster`] runs the full distributed solve and returns
//! every participant's solution, so tests can assert the strongest
//! property the design promises: the coordinator's coloring **and**
//! every worker replica's coloring are bit-identical to the plain
//! single-machine solve — under any chaos schedule.  (Bit-identity is
//! also the end-to-end dedup proof: a double-merged duplicate would
//! perturb `mean_cost` and change a bitwise walk's chosen seed.)
//!
//! [`solve_on_failover_cluster`] extends that to coordinator death: a
//! primary with an armed [`KillSwitch`], a standby tailing its
//! replication stream, and workers carrying the two-address coordinator
//! list.  The kill closes the primary's sockets abruptly and panics its
//! solve thread with [`CoordinatorKilled`] — caught here, with a quiet
//! panic hook so the intentional crash doesn't spew a backtrace into
//! test output.

use crate::chaos::{ChaosConfig, ChaosProxy, FailoverSchedule, KillSwitch};
use crate::coordinator::{CoordinatorKilled, DistCoordinator, DistStats};
use crate::standby::{Standby, StandbyStats};
use crate::worker::{run_worker, WorkerStats};
use crate::DistConfig;
use parcolor_core::{D1lcInstance, Params, Solution, Solver};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::{Scope, ScopedJoinHandle};

/// Everything a cluster run produced.
pub struct ClusterOutcome {
    /// The coordinator's solution (the authoritative one).
    pub coordinator: Solution,
    /// Each worker replica's solution (`None` if that worker could
    /// never complete its initial handshake).
    pub workers: Vec<Option<Solution>>,
    /// Each worker's counters (`None` where the worker never ran).
    pub worker_stats: Vec<Option<WorkerStats>>,
    /// Coordinator-side lease/failure counters.
    pub stats: DistStats,
    /// Which workers degraded to standalone mode.
    pub standalone: Vec<bool>,
}

/// Suppress the backtrace of the *intentional* [`CoordinatorKilled`]
/// panic (kill switches fire it by design); every other panic still
/// reaches the previous hook.  Installed once per process.
pub fn install_quiet_kill_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<CoordinatorKilled>().is_none() {
                prev(info);
            }
        }));
    });
}

/// What one worker thread produced: its solution, whether it went
/// standalone, and its counters (`None` if it never completed its
/// initial handshake).
type Replica = Option<(Solution, bool, WorkerStats)>;

/// Start a worker replica on `scope` against the ordered coordinator
/// list `addrs`, keeping `proxy` (its chaos link, if any) alive for the
/// run.
fn spawn_replica<'scope, B>(
    scope: &'scope Scope<'scope, '_>,
    decode: &'scope B,
    addrs: Vec<String>,
    proxy: Option<ChaosProxy>,
    cfg: DistConfig,
) -> ScopedJoinHandle<'scope, Replica>
where
    B: Fn(&[u8]) -> (D1lcInstance, Params) + Sync,
{
    scope.spawn(move || {
        let _proxy = proxy;
        run_worker(&addrs, cfg, |job, searcher| {
            let (inst, params) = decode(job);
            let sol = Solver::deterministic(params)
                .with_seed_searcher(searcher.clone())
                .solve(&inst);
            (sol, searcher.is_standalone(), searcher.stats())
        })
        .ok()
    })
}

/// The fleet's per-worker outcome columns, in worker order.
struct Fleet {
    workers: Vec<Option<Solution>>,
    worker_stats: Vec<Option<WorkerStats>>,
    standalone: Vec<bool>,
}

impl Fleet {
    /// Join every replica thread and split its outcome into columns.
    fn join(handles: Vec<ScopedJoinHandle<'_, Replica>>) -> Fleet {
        let mut fleet = Fleet {
            workers: Vec::new(),
            worker_stats: Vec::new(),
            standalone: Vec::new(),
        };
        for h in handles {
            let replica = h.join().expect("worker thread");
            let (sol, alone, ws) = match replica {
                Some((sol, alone, ws)) => (Some(sol), alone, Some(ws)),
                None => (None, false, None),
            };
            fleet.workers.push(sol);
            fleet.worker_stats.push(ws);
            fleet.standalone.push(alone);
        }
        fleet
    }
}

/// Solve `job` on a loopback cluster of `nworkers` workers, the i-th
/// connected through `chaos[i]` (if given, else directly).  `decode`
/// reconstructs `(instance, params)` from the job bytes on every node —
/// coordinator and workers alike — which is what keeps the replicas
/// deterministic twins.
pub fn solve_on_cluster<B>(
    job: &[u8],
    decode: B,
    nworkers: usize,
    chaos: &[Option<ChaosConfig>],
    cfg: DistConfig,
) -> ClusterOutcome
where
    B: Fn(&[u8]) -> (D1lcInstance, Params) + Sync,
{
    let coordinator =
        Arc::new(DistCoordinator::bind("127.0.0.1:0", job.to_vec(), cfg.clone()).expect("bind"));
    let target = coordinator.local_addr();
    let decode = &decode;

    let (coord_solution, fleet) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..nworkers)
            .map(|i| {
                let proxy = chaos
                    .get(i)
                    .and_then(|c| *c)
                    .map(|c| ChaosProxy::start(target, c).expect("proxy"));
                let addr = proxy.as_ref().map(|p| p.addr()).unwrap_or(target);
                spawn_replica(scope, decode, vec![addr.to_string()], proxy, cfg.clone())
            })
            .collect();

        let (inst, params) = decode(job);
        let sol = Solver::deterministic(params)
            .with_seed_searcher(Arc::clone(&coordinator) as Arc<dyn parcolor_core::SeedSearcher>)
            .solve(&inst);
        (sol, Fleet::join(handles))
    });

    let stats = coordinator.stats();
    coordinator.shutdown();
    ClusterOutcome {
        coordinator: coord_solution,
        workers: fleet.workers,
        worker_stats: fleet.worker_stats,
        stats,
        standalone: fleet.standalone,
    }
}

/// Everything a failover gauntlet run produced.
pub struct FailoverOutcome {
    /// The primary's solution — `None` when its kill switch fired.
    pub primary: Option<Solution>,
    /// The standby replica's solution — `None` when its own kill switch
    /// fired (the double-fault schedules).
    pub standby: Option<Solution>,
    /// Each worker replica's solution.
    pub workers: Vec<Option<Solution>>,
    /// Each worker's counters.
    pub worker_stats: Vec<Option<WorkerStats>>,
    /// Which workers degraded to standalone mode.
    pub standalone: Vec<bool>,
    /// Primary-side lease counters (up to its death).
    pub primary_stats: DistStats,
    /// Whether the primary's kill switch fired.
    pub primary_killed: bool,
    /// Standby-side tail/promotion counters.
    pub standby_stats: StandbyStats,
    /// The standby's full selection history — tailed from the primary
    /// plus searches it ran itself after promotion.  The chosen-seed
    /// sequence under failover must be bit-identical to the
    /// single-machine path.
    pub standby_history: Vec<parcolor_prg::SeedSelection>,
    /// The standby's embedded-coordinator lease counters (nonzero only
    /// after promotion put it to work).
    pub standby_coord_stats: DistStats,
    /// Whether the standby's kill switch fired.
    pub standby_killed: bool,
}

/// Solve `job` on a loopback failover cluster: one primary (kill switch
/// per `schedule.primary_kill`), one standby tailing it (kill switch
/// per `schedule.standby_kill`), and `nworkers` workers carrying the
/// ordered `[primary, standby]` coordinator list.
///
/// The standby's replication handshake completes before any worker
/// connects, so the stream covers every completed unit — tests can
/// assert `replayed_units` against `replicated_units` exactly.
pub fn solve_on_failover_cluster<B>(
    job: &[u8],
    decode: B,
    nworkers: usize,
    schedule: FailoverSchedule,
    cfg: DistConfig,
) -> FailoverOutcome
where
    B: Fn(&[u8]) -> (D1lcInstance, Params) + Sync,
{
    install_quiet_kill_hook();
    let primary =
        Arc::new(DistCoordinator::bind("127.0.0.1:0", job.to_vec(), cfg.clone()).expect("bind"));
    if let Some(spec) = schedule.primary_kill {
        primary.arm_kill(KillSwitch::arm(spec));
    }
    let standby = Arc::new(
        Standby::start(
            "127.0.0.1:0",
            &primary.local_addr().to_string(),
            cfg.clone(),
        )
        .expect("standby start"),
    );
    if let Some(spec) = schedule.standby_kill {
        standby.arm_kill(KillSwitch::arm(spec));
    }
    let addrs: Vec<String> = vec![
        primary.local_addr().to_string(),
        standby.local_addr().to_string(),
    ];
    let decode = &decode;

    let (primary_solution, standby_solution, fleet) = std::thread::scope(|scope| {
        let standby_handle = {
            let standby = Arc::clone(&standby);
            scope.spawn(move || {
                catch_unwind(AssertUnwindSafe(|| {
                    let (inst, params) = decode(&standby.job());
                    Solver::deterministic(params)
                        .with_seed_searcher(standby.searcher())
                        .solve(&inst)
                }))
                .ok()
            })
        };
        let handles: Vec<_> = (0..nworkers)
            .map(|_| spawn_replica(scope, decode, addrs.clone(), None, cfg.clone()))
            .collect();

        let (inst, params) = decode(job);
        let primary_solution = catch_unwind(AssertUnwindSafe(|| {
            Solver::deterministic(params)
                .with_seed_searcher(Arc::clone(&primary) as Arc<dyn parcolor_core::SeedSearcher>)
                .solve(&inst)
        }))
        .ok();
        // Orderly or crashed, the primary is done — close its sockets so
        // the standby (on `Bye`) and the fleet (on the reconnect sweep)
        // move on.  After a kill this only reaps threads.
        primary.shutdown();

        let standby_solution = standby_handle.join().expect("standby thread");
        standby.finish();
        (primary_solution, standby_solution, Fleet::join(handles))
    });

    FailoverOutcome {
        primary: primary_solution,
        standby: standby_solution,
        workers: fleet.workers,
        worker_stats: fleet.worker_stats,
        standalone: fleet.standalone,
        primary_stats: primary.stats(),
        primary_killed: primary.was_killed(),
        standby_stats: standby.stats(),
        standby_history: standby.history(),
        standby_coord_stats: standby.coordinator_stats(),
        standby_killed: standby.was_killed(),
    }
}
