//! The `dist_search` topology: one loopback coordinator and one worker,
//! each solving with `workers = 1`, connected by one TCP connection.
//! Both sides build their replica from the same job bytes through the
//! job codec.

use parcolor_cli::job::decode_job;
use parcolor_core::{D1lcInstance, Params, SeedSearcher, Solution, Solver};
use parcolor_dist::{run_worker, DistConfig, DistCoordinator, DistStats, WorkerStats};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// What one cluster solve produced.
pub struct ClusterSolve {
    /// The coordinator's solution.
    pub solution: Solution,
    /// Wall time of the coordinator's `Solver::solve`.
    pub solve_s: f64,
    /// Whether the worker's replica coloring equals the coordinator's.
    pub replica_matches: bool,
    /// Coordinator lease counters.
    pub stats: DistStats,
    /// Worker counters.
    pub worker: WorkerStats,
}

fn config() -> DistConfig {
    DistConfig {
        // Start granting only once the worker is connected, so the
        // search measures the fleet, not the coordinator racing alone.
        min_workers: 1,
        min_worker_wait_ms: 10_000,
        ..DistConfig::default()
    }
}

fn decode(job: &[u8]) -> Result<(D1lcInstance, Params), String> {
    decode_job(job).map(|(inst, params)| (inst, params.with_workers(1)))
}

type Replica = Result<(Vec<u32>, WorkerStats), String>;

/// The worker side: one thread that serves each solve's coordinator in
/// turn, like a long-lived worker process.  (A fresh thread per solve
/// gets whichever malloc arena is free, which moved the process's peak
/// RSS by ~20% from run to run.)
pub struct Worker {
    coordinators: Option<Sender<String>>,
    replicas: Receiver<Replica>,
    thread: Option<JoinHandle<()>>,
}

impl Worker {
    /// Start the worker thread.
    pub fn spawn() -> Worker {
        let (coordinators, addrs) = channel::<String>();
        let (done, replicas) = channel();
        let thread = std::thread::spawn(move || {
            for addr in addrs {
                let replica = catch_unwind(AssertUnwindSafe(|| {
                    run_worker(&[addr], config(), |job, searcher| {
                        let (inst, params) = decode(job)?;
                        let sol = Solver::deterministic(params)
                            .with_seed_searcher(searcher.clone())
                            .solve(&inst);
                        Ok((sol.colors, searcher.stats()))
                    })
                    .map_err(|e| format!("worker connect: {e}"))?
                }))
                .unwrap_or_else(|_| Err("worker replica panicked".into()));
                if done.send(replica).is_err() {
                    break;
                }
            }
        });
        Worker {
            coordinators: Some(coordinators),
            replicas,
            thread: Some(thread),
        }
    }

    fn serve(&self, addr: String) -> Result<(), String> {
        self.coordinators
            .as_ref()
            .expect("the sender lives until drop")
            .send(addr)
            .map_err(|_| "worker thread is gone".to_string())
    }

    fn replica(&self) -> Replica {
        self.replicas
            .recv()
            .unwrap_or_else(|_| Err("worker thread is gone".into()))
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        // Closing the channel ends the thread's loop.
        drop(self.coordinators.take());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Solve `job` on a fresh coordinator served by `worker`.  `wrap` may
/// wrap the coordinator's searcher (the traced run's timing searcher);
/// the coordinator's instance is `inst`, already set up by the caller.
pub fn solve_on_pair(
    job: &[u8],
    inst: &D1lcInstance,
    worker: &Worker,
    wrap: impl FnOnce(Arc<dyn SeedSearcher>) -> Arc<dyn SeedSearcher>,
) -> Result<ClusterSolve, String> {
    let (_, params) = decode(job)?;
    let coordinator = Arc::new(
        DistCoordinator::bind("127.0.0.1:0", job.to_vec(), config())
            .map_err(|e| format!("coordinator bind: {e}"))?,
    );
    worker.serve(coordinator.local_addr().to_string())?;
    let searcher = wrap(Arc::clone(&coordinator) as Arc<dyn SeedSearcher>);
    let t0 = Instant::now();
    let solved = catch_unwind(AssertUnwindSafe(|| {
        Solver::deterministic(params)
            .with_seed_searcher(searcher)
            .solve(inst)
    }))
    .map(|sol| (sol, t0.elapsed().as_secs_f64()));
    if solved.is_err() {
        // The worker would wait for selections that never come.
        coordinator.shutdown();
    }
    let replica = worker.replica();
    let stats = coordinator.stats();
    coordinator.shutdown();
    let (solution, solve_s) = solved.map_err(|_| "coordinator solve panicked".to_string())?;
    let (replica_colors, worker) = replica?;
    Ok(ClusterSolve {
        replica_matches: replica_colors == solution.colors,
        solution,
        solve_s,
        stats,
        worker,
    })
}
