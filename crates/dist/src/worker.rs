//! The worker: a replicated solve that serves leases.
//!
//! A worker runs the *same deterministic solve* as the coordinator
//! (reconstructed from the `Welcome` job bytes) with a
//! [`WorkerSearcher`] as its seed-search backend.  Each search, instead
//! of folding locally, the backend sits in a serve loop: evaluate every
//! `Grant` it is leased, send each unit's aggregate back as soon as it
//! is folded (a one-entry `Result` frame), and conclude the search when
//! the coordinator's `Chosen` arrives — which keeps the replica
//! lock-step with the fleet.
//!
//! The connection is the replica tail a standby drives too: an
//! **ordered coordinator list** (primary first, standbys after), a
//! reconnect sweep across the whole list with exponential backoff plus
//! deterministic jitter after any connection loss, heartbeats, and the
//! selection history.  The fresh `Welcome` carries the full history, so
//! a worker that was dark through any number of searches — or that
//! re-homed from a dead primary to a freshly promoted standby —
//! fast-forwards instead of desyncing.  An unpromoted standby answers
//! the handshake with a friendly `Refuse`, which counts as a failed
//! attempt and keeps the sweep cycling until promotion opens the door.
//! When the reconnect budget (`max_reconnects`) is exhausted (every
//! coordinator gone for good), or the only coordinator says `Bye`, the
//! worker flips to **standalone** mode and finishes its replica with
//! the in-process search — same coloring, no panic.

use crate::proto::{Msg, Role, UnitResult};
use crate::tail::{Tail, Tailed};
use crate::DistConfig;
use parcolor_core::{BlockEval, SeedSearcher, SimScratch};
use parcolor_prg::{select_seed_folded, LocalFolder, RangeFolder, SeedSelection, SeedStrategy};
use std::io;
use std::sync::{Arc, Mutex};

/// Worker-side counters (tests assert on these).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Leases evaluated and answered.
    pub served_units: u64,
    /// `Result` frames sent: one per served unit whose connection held.
    pub result_frames: u64,
    /// Successful (re)connections after the first.
    pub reconnects: u64,
    /// Heartbeats sent.
    pub pings: u64,
    /// Searches concluded from broadcast/history (lock-step path).
    pub adopted: u64,
    /// Searches concluded by local evaluation (standalone path).
    pub standalone_searches: u64,
}

struct Inner {
    tail: Tail,
    /// The worker's own counters; the tail keeps reconnects and pings.
    stats: WorkerStats,
}

/// The lease-serving [`SeedSearcher`] backend.  Construct with
/// [`WorkerSearcher::connect`] (or through [`run_worker`]) and hand to
/// `Solver::with_seed_searcher`.
pub struct WorkerSearcher {
    job: Vec<u8>,
    inner: Mutex<Inner>,
}

impl WorkerSearcher {
    /// Connect to the first reachable coordinator in `addrs` (ordered:
    /// primary first, standbys after) and complete the handshake,
    /// retrying whole-list sweeps with backoff up to `max_reconnects`
    /// sweeps in all.
    pub fn connect(addrs: &[String], cfg: DistConfig) -> io::Result<WorkerSearcher> {
        let (tail, job) = Tail::connect(addrs, Role::Worker, cfg)?;
        Ok(WorkerSearcher {
            job,
            inner: Mutex::new(Inner {
                tail,
                stats: WorkerStats::default(),
            }),
        })
    }

    /// The job bytes from the handshake.
    pub fn job(&self) -> Vec<u8> {
        self.job.clone()
    }

    /// Whether the worker has degraded to local-only operation.
    pub fn is_standalone(&self) -> bool {
        self.inner.lock().unwrap().tail.is_closed()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> WorkerStats {
        let inner = self.inner.lock().unwrap();
        WorkerStats {
            reconnects: inner.tail.reconnects,
            pings: inner.tail.pings,
            ..inner.stats
        }
    }

    /// Send a best-effort `Bye` and close the connection.
    pub fn finish(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.tail.send(&Msg::Bye);
        inner.tail.drop_conn();
    }
}

impl SeedSearcher for WorkerSearcher {
    fn select(
        &self,
        seed_bits: u32,
        strategy: SeedStrategy,
        workers: usize,
        n: usize,
        eval_block: BlockEval,
    ) -> SeedSelection {
        let mut inner = self.inner.lock().unwrap();
        let Inner { tail, stats } = &mut *inner;
        let mut local = LocalFolder::new(workers, || SimScratch::new(n), eval_block);
        loop {
            match tail.next() {
                Tailed::Known(sel) => {
                    stats.adopted += 1;
                    return sel;
                }
                Tailed::Closed => break,
                Tailed::Frame(Msg::Grant {
                    epoch,
                    search_id,
                    fold_id,
                    lease_id,
                    unit,
                    start,
                    len,
                }) => {
                    let sid = tail.next_search();
                    if search_id > sid {
                        // The coordinator is ahead of us: we missed a
                        // Chosen.  Resync through a fresh Welcome.
                        tail.drop_conn();
                    } else if search_id == sid && len > 0 {
                        let part = local.fold_range(start, len);
                        stats.served_units += 1;
                        let result = Msg::Result {
                            epoch,
                            search_id,
                            fold_id,
                            batch: vec![UnitResult {
                                lease_id,
                                unit,
                                sum: part.sum,
                                min: part.min,
                                argmin: part.argmin,
                            }],
                        };
                        if tail.send(&result) {
                            stats.result_frames += 1;
                        }
                    }
                    // Otherwise a stale lease from before a reconnect.
                }
                Tailed::Frame(Msg::Bye) => {
                    // The coordinator is leaving.  With standbys on the
                    // list, re-home (a standby promotes on its primary's
                    // death and serves the full history); with nowhere
                    // else to go, finish the replica locally.
                    if tail.addr_count() > 1 {
                        tail.drop_conn();
                    } else {
                        tail.close();
                    }
                }
                Tailed::Frame(_) => {}
            }
        }
        let sel = select_seed_folded(seed_bits, strategy, &mut local);
        tail.record(sel.clone());
        stats.standalone_searches += 1;
        sel
    }
}

/// Connect to the first reachable coordinator in `addrs`, fetch the
/// job, and run `run(job, searcher)` — typically: decode the job, build
/// the replica solver, and call
/// `Solver::with_seed_searcher(searcher).solve(..)`.  Sends `Bye` when
/// `run` returns.  Errors only if no initial connection ever succeeds.
pub fn run_worker<R>(
    addrs: &[String],
    cfg: DistConfig,
    run: impl FnOnce(&[u8], Arc<WorkerSearcher>) -> R,
) -> io::Result<R> {
    let searcher = Arc::new(WorkerSearcher::connect(addrs, cfg)?);
    let job = searcher.job();
    let out = run(&job, Arc::clone(&searcher));
    searcher.finish();
    Ok(out)
}
