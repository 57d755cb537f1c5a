//! The standby coordinator: a hot spare that tails the primary and
//! promotes itself when the primary dies.
//!
//! A standby is three things at once:
//!
//! 1. **A replication tail.**  It drives the same replica tail as a
//!    worker — one connection with heartbeats, the idle resync, the
//!    in-order `Chosen` history and its fast path — to the primary, as
//!    `Hello{role: Standby}`, under the `standby_reconnects` budget.  It
//!    receives the same `Welcome` (job bytes plus selection history) a
//!    worker would, plus a stream the primary sends only to standbys:
//!    one [`Msg::Replicate`] per completed work unit, carrying the
//!    unit's aggregate and its fold's deterministic position
//!    (`search_id`, per-search `fold_seq`, geometry).
//! 2. **A refusing listener.**  Its embedded [`DistCoordinator`] is
//!    bound from the start, but answers every worker handshake with a
//!    friendly `Refuse` until promotion — workers probing their
//!    coordinator list get a fast "not primary" instead of a hang.
//! 3. **A full replica.**  Like a worker, it runs the whole
//!    deterministic solve with [`StandbySearcher`] as its seed-search
//!    backend, so at promotion time it is positioned at exactly the
//!    search the fleet is on.
//!
//! **Promotion** happens on any of: an explicit [`Msg::Promote`] from
//! the primary (orderly handover), a `Bye` (orderly shutdown with work
//! left), or exhaustion of the `standby_reconnects` budget (primary
//! crashed).  The new epoch is the `Promote` payload, or the last known
//! epoch + 1 for the other two.  The embedded coordinator then adopts
//! the tailed history, starts accepting workers, waits for the orphaned
//! fleet to re-home, and runs every remaining search through the normal
//! leasing machinery — with the replicated completion state pre-seeded
//! into each fold's lease table, so only work that was still in flight
//! at the primary's death is re-leased.  Bit-identity of the result is
//! the same exactness argument as lease re-issue: units have unique
//! aggregates and the merge is grouping-invariant.

use crate::chaos::KillSwitch;
use crate::coordinator::{DistCoordinator, DistStats, ReplicatedFold};
use crate::proto::{Msg, Role};
use crate::tail::{Tail, Tailed};
use crate::DistConfig;
use parcolor_core::{BlockEval, SeedSearcher};
use parcolor_exec::SumMinArgmin;
use parcolor_prg::{SeedSelection, SeedStrategy};
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex, MutexGuard};

/// Standby-side counters (tests assert on these).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StandbyStats {
    /// `Replicate` frames tailed from the primary.
    pub replicated_units: u64,
    /// `Chosen` selections tailed from the primary.
    pub tailed_selections: u64,
    /// Successful reconnections to the primary after the first.
    pub reconnects: u64,
    /// Heartbeats sent to the primary.
    pub pings: u64,
    /// Whether this standby promoted itself to primary.
    pub promoted: bool,
    /// The epoch adopted at promotion (0 if never promoted).
    pub promote_epoch: u64,
}

struct SbInner {
    tail: Tail,
    /// Replicated completion state, keyed `(search_id, fold_seq)`.
    repl: HashMap<(u64, u64), ReplicatedFold>,
    /// Whether the post-promotion fleet wait already happened (it is
    /// lazy: only a search that actually needs the leasing machinery
    /// waits for the orphaned fleet to re-home — a standby whose tailed
    /// history is already complete returns without it).
    waited_for_fleet: bool,
    /// The standby's own counters; the tail keeps the tailed
    /// selections, reconnects and pings.
    stats: StandbyStats,
}

impl SbInner {
    /// Record one replicated unit completion (idempotent per unit).
    fn record_replicate(&mut self, msg: Msg) {
        let Msg::Replicate {
            search_id,
            fold_seq,
            fold_start,
            fold_len,
            unit_len,
            unit,
            sum,
            min,
            argmin,
            ..
        } = msg
        else {
            return;
        };
        let rf = self
            .repl
            .entry((search_id, fold_seq))
            .or_insert_with(|| ReplicatedFold {
                start: fold_start,
                len: fold_len,
                unit_len,
                units: Vec::new(),
            });
        if (rf.start, rf.len, rf.unit_len) != (fold_start, fold_len, unit_len) {
            // Geometry changed under the same key — only possible with
            // a corrupt peer; reset to the fresh frame's view.
            *rf = ReplicatedFold {
                start: fold_start,
                len: fold_len,
                unit_len,
                units: Vec::new(),
            };
        }
        if rf.units.iter().all(|(u, _)| *u != unit) {
            rf.units.push((unit, SumMinArgmin { sum, min, argmin }));
            self.stats.replicated_units += 1;
        }
    }

    /// Take the replicated state for search `sid` as a promotion
    /// preseed (keyed by per-search fold sequence).
    fn take_preseed(&mut self, sid: u64) -> HashMap<u64, ReplicatedFold> {
        let keys: Vec<(u64, u64)> = self
            .repl
            .keys()
            .filter(|(s, _)| *s == sid)
            .copied()
            .collect();
        let mut out = HashMap::new();
        for k in keys {
            if let Some(rf) = self.repl.remove(&k) {
                out.insert(k.1, rf);
            }
        }
        out
    }
}

/// The tail-then-takeover [`SeedSearcher`] backend a standby node runs
/// its replica solve with.  Obtain from [`Standby::searcher`].
pub struct StandbySearcher {
    coord: Arc<DistCoordinator>,
    inner: Mutex<SbInner>,
}

impl StandbySearcher {
    fn lock(&self) -> MutexGuard<'_, SbInner> {
        // A kill during promotion panics mid-lock by design; stats must
        // still be readable afterwards.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StandbyStats {
        let inner = self.lock();
        StandbyStats {
            tailed_selections: inner.tail.tailed,
            reconnects: inner.tail.reconnects,
            pings: inner.tail.pings,
            ..inner.stats
        }
    }

    /// The full selection history this standby holds (tailed from the
    /// primary plus anything it ran itself after promotion) — the
    /// chosen-seed sequence tests compare bit-for-bit against the
    /// single-machine path.
    pub fn history(&self) -> Vec<SeedSelection> {
        self.lock().tail.history().to_vec()
    }

    /// Adopt primacy: leave the tail, install the tailed history into
    /// the embedded coordinator and open the listener to workers.
    fn promote(&self, inner: &mut SbInner, epoch: u64) {
        inner.tail.close();
        inner.stats.promoted = true;
        inner.stats.promote_epoch = epoch;
        // May panic with `CoordinatorKilled` under the double-fault
        // schedule — the promoted flag above keeps stats truthful.
        let history = inner.tail.history().to_vec();
        let next_search = history.len() as u64;
        self.coord.promote(epoch, history, next_search);
    }
}

impl SeedSearcher for StandbySearcher {
    fn select(
        &self,
        seed_bits: u32,
        strategy: SeedStrategy,
        workers: usize,
        n: usize,
        eval_block: BlockEval,
    ) -> SeedSelection {
        let mut inner = self.lock();
        loop {
            match inner.tail.next() {
                Tailed::Known(sel) => {
                    // Concluded searches' replicated state is dead
                    // weight — prune it.
                    let next = inner.tail.next_search();
                    inner.repl.retain(|(s, _), _| *s >= next);
                    return sel;
                }
                Tailed::Closed if inner.stats.promoted => break,
                Tailed::Closed => {
                    // Primary unreachable past the budget: take over.
                    let epoch = inner.tail.epoch() + 1;
                    self.promote(&mut inner, epoch);
                }
                Tailed::Frame(m @ Msg::Replicate { .. }) => inner.record_replicate(m),
                Tailed::Frame(Msg::Promote { epoch }) => {
                    // Orderly handover: the primary names our epoch.
                    self.promote(&mut inner, epoch);
                }
                Tailed::Frame(Msg::Bye) => {
                    // Orderly shutdown with searches left: take over.
                    let epoch = inner.tail.epoch() + 1;
                    self.promote(&mut inner, epoch);
                }
                Tailed::Frame(_) => {}
            }
        }
        // We are the primary now: run the search through the leasing
        // machinery, replaying what the dead primary already completed.
        if !inner.waited_for_fleet {
            inner.waited_for_fleet = true;
            self.coord.wait_for_fleet();
        }
        let sid = inner.tail.next_search();
        let preseed = inner.take_preseed(sid);
        let sel = self
            .coord
            .run_search(seed_bits, strategy, workers, n, eval_block, preseed);
        inner.tail.record(sel.clone());
        sel
    }
}

/// A running standby node: the tail connection to the primary plus the
/// embedded (initially refusing) coordinator.
pub struct Standby {
    coord: Arc<DistCoordinator>,
    searcher: Arc<StandbySearcher>,
    job: Vec<u8>,
}

impl Standby {
    /// Connect to `primary` as a standby (completing the replication
    /// handshake synchronously — once this returns, every subsequently
    /// completed unit is replicated here) and bind the embedded
    /// coordinator on `listen` (e.g. `"127.0.0.1:0"`).
    pub fn start(listen: &str, primary: &str, cfg: DistConfig) -> io::Result<Standby> {
        let (tail, job) = Tail::connect(&[primary.to_string()], Role::Standby, cfg.clone())?;
        let coord = Arc::new(DistCoordinator::bind_standby(listen, job.clone(), cfg)?);
        let searcher = Arc::new(StandbySearcher {
            coord: Arc::clone(&coord),
            inner: Mutex::new(SbInner {
                tail,
                repl: HashMap::new(),
                waited_for_fleet: false,
                stats: StandbyStats::default(),
            }),
        });
        Ok(Standby {
            coord,
            searcher,
            job,
        })
    }

    /// The embedded coordinator's listen address (what workers put
    /// after the primary on their coordinator list).
    pub fn local_addr(&self) -> SocketAddr {
        self.coord.local_addr()
    }

    /// The job bytes from the primary's `Welcome`.
    pub fn job(&self) -> Vec<u8> {
        self.job.clone()
    }

    /// The [`SeedSearcher`] backend to run the replica solve with.
    pub fn searcher(&self) -> Arc<StandbySearcher> {
        Arc::clone(&self.searcher)
    }

    /// Arm a kill switch on the embedded coordinator (the double-fault
    /// schedules kill the standby during or after its promotion).
    pub fn arm_kill(&self, switch: Arc<KillSwitch>) {
        self.coord.arm_kill(switch);
    }

    /// Standby-side counters.
    pub fn stats(&self) -> StandbyStats {
        self.searcher.stats()
    }

    /// The standby's selection history (see [`StandbySearcher::history`]).
    pub fn history(&self) -> Vec<SeedSelection> {
        self.searcher.history()
    }

    /// The embedded coordinator's lease counters (all zeros until
    /// promotion puts it to work).
    pub fn coordinator_stats(&self) -> DistStats {
        self.coord.stats()
    }

    /// Whether an armed kill switch fired here.
    pub fn was_killed(&self) -> bool {
        self.coord.was_killed()
    }

    /// Orderly shutdown of the embedded coordinator (sends `Bye` to any
    /// re-homed workers).
    pub fn finish(&self) {
        self.coord.shutdown();
    }
}

/// Run a standby node end to end: start the tail, run `run(job,
/// searcher)` (typically: decode the job, build the replica solver, and
/// solve with the searcher as backend), then shut the embedded
/// coordinator down.  Returns `run`'s output together with the standby.
pub fn run_standby<R>(
    listen: &str,
    primary: &str,
    cfg: DistConfig,
    run: impl FnOnce(&[u8], Arc<StandbySearcher>) -> R,
) -> io::Result<(R, Standby)> {
    let standby = Standby::start(listen, primary, cfg)?;
    let job = standby.job();
    let out = run(&job, standby.searcher());
    standby.finish();
    Ok((out, standby))
}
