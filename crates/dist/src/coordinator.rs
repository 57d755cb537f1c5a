//! The coordinator: leases seed-range units to a fleet, re-issues what
//! expires or orphans, dedups completions, replicates progress to
//! standbys, and falls back to local evaluation when the fleet is gone.
//!
//! [`DistCoordinator`] implements [`SeedSearcher`], so it plugs
//! straight into `Solver::with_seed_searcher`.  Strategy logic is not
//! duplicated here: each search runs [`select_seed_folded`] against a
//! [`RangeFolder`] whose `fold_range` leases units out instead of
//! folding in-process — the selection is therefore field-for-field the
//! local path's by construction (see the crate docs for the exactness
//! argument).
//!
//! The same machinery serves two roles.  A **primary** (from
//! [`DistCoordinator::bind`]) accepts workers immediately and streams
//! [`Msg::Replicate`] unit completions to every connected standby.  A
//! **standby's embedded coordinator** (`bind_standby`, driven by
//! [`crate::standby::StandbySearcher`]) refuses workers with a friendly
//! [`Msg::Refuse`] until promotion, then runs searches through
//! `DistCoordinator::run_search` with the replicated completion state
//! pre-seeded into each fold's [`LeaseTable`] — only what was still in
//! flight at the primary's death is re-leased.

use crate::chaos::KillSwitch;
use crate::frame::{write_frame, FrameReader};
use crate::proto::{Msg, Role, PROTO_VERSION};
use crate::DistConfig;
use parcolor_core::{BlockEval, SeedSearcher, SimScratch};
use parcolor_exec::{LeaseTable, SumMinArgmin};
use parcolor_prg::{
    select_seed_folded, LocalFolder, RangeFolder, SeedSelection, SeedStrategy, SEED_BLOCK,
};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The lease granted to the coordinator's own local-fallback path.
const LOCAL_WORKER: u64 = 0;

/// Panic payload used by an armed [`KillSwitch`] to abort the solve
/// thread mid-fold.  The failover harness catches it; sockets are
/// closed abruptly beforehand (no `Bye`), so peers observe a crash, not
/// an orderly shutdown.
#[derive(Debug)]
pub struct CoordinatorKilled;

/// Counters the coordinator accumulates across the whole solve
/// (aggregating each fold's [`parcolor_exec::LeaseStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DistStats {
    /// Seed searches served.
    pub searches: u64,
    /// Range folds served (searches may fold many ranges).
    pub folds: u64,
    /// Folds that leased units to the fleet (the rest ran locally).
    pub remote_folds: u64,
    /// Leases granted, including re-issues.
    pub granted: u64,
    /// Units granted more than once (expiry, orphaning, or fallback).
    pub reissued: u64,
    /// Leases that blew their deadline.
    pub expired: u64,
    /// Leases released because their worker died.
    pub orphaned: u64,
    /// Unit completions dropped as duplicates (unit already done).
    pub duplicates: u64,
    /// Results for a fold that already concluded (late stragglers).
    pub stale_results: u64,
    /// Whole result batches dropped by epoch fencing (frames issued by
    /// a deposed primary must never merge, even if fold ids collide).
    pub fenced: u64,
    /// Units merged from worker results.
    pub remote_units: u64,
    /// Units the coordinator folded itself (fallback path).
    pub local_units: u64,
    /// Units pre-completed from the replication stream at promotion
    /// (work the dead primary already merged that was not redone).
    pub replayed_units: u64,
    /// Workers evicted for heartbeat silence.
    pub evictions: u64,
    /// Worker connections lost (EOF, I/O error, or `Bye`).
    pub disconnects: u64,
}

/// One fold's replicated completion state, keyed on the standby by
/// `(search_id, fold_seq)`.  Geometry is carried so a promoted standby
/// can verify the deterministically replayed fold matches before
/// pre-completing units.
#[derive(Clone, Debug, Default)]
pub struct ReplicatedFold {
    /// First seed of the fold.
    pub start: u64,
    /// Seed count of the fold.
    pub len: u64,
    /// Seeds per unit.
    pub unit_len: u64,
    /// Completed units and their aggregates (deduped by unit id).
    pub units: Vec<(u32, SumMinArgmin)>,
}

struct Peer {
    stream: TcpStream,
    last_seen: u64,
    role: Role,
}

enum Event {
    Msg(u64, Msg),
    Gone(u64),
}

struct Shared {
    cfg: DistConfig,
    job: Vec<u8>,
    start: Instant,
    history: Mutex<Vec<SeedSelection>>,
    peers: Mutex<HashMap<u64, Peer>>,
    events: Mutex<VecDeque<Event>>,
    events_cv: Condvar,
    next_worker: AtomicU64,
    shutdown: AtomicBool,
    /// Fencing epoch: starts at 1 on a primary, 0 on an unpromoted
    /// standby, and bumps on every promotion.
    epoch: AtomicU64,
    /// Whether worker handshakes are accepted (false on a standby until
    /// promotion — workers are refused with a "not primary" `Refuse`).
    accepting: AtomicBool,
    /// Set by a fired kill switch: the teardown was a crash, not an
    /// orderly shutdown.
    killed: AtomicBool,
    kill: Mutex<Option<Arc<KillSwitch>>>,
}

impl Shared {
    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    fn push_event(&self, ev: Event) {
        self.events.lock().unwrap().push_back(ev);
        self.events_cv.notify_one();
    }

    /// Drain all queued events, waiting up to `wait_ms` if none are
    /// queued yet.
    fn drain_events(&self, wait_ms: u64) -> Vec<Event> {
        let mut q = self.events.lock().unwrap();
        if q.is_empty() {
            let (q2, _) = self
                .events_cv
                .wait_timeout(q, Duration::from_millis(wait_ms))
                .unwrap();
            q = q2;
        }
        q.drain(..).collect()
    }

    /// Remove `id` from the peer map, closing its socket.  Returns
    /// whether the peer was still registered (so callers count each
    /// disconnect exactly once even when the writer and the reader both
    /// notice the death).
    fn drop_peer(&self, id: u64) -> bool {
        match self.peers.lock().unwrap().remove(&id) {
            Some(p) => {
                let _ = p.stream.shutdown(Shutdown::Both);
                true
            }
            None => false,
        }
    }

    fn worker_count(&self) -> usize {
        self.peers
            .lock()
            .unwrap()
            .values()
            .filter(|p| p.role == Role::Worker)
            .count()
    }

    fn has_standby(&self) -> bool {
        self.peers
            .lock()
            .unwrap()
            .values()
            .any(|p| p.role == Role::Standby)
    }

    /// Write `wire` to every standby peer; returns the ids whose send
    /// failed (to be dropped by the caller).
    fn send_to_standbys(&self, wire: &[u8]) -> Vec<u64> {
        let mut dead = Vec::new();
        let mut peers = self.peers.lock().unwrap();
        for (&id, p) in peers.iter_mut() {
            if p.role == Role::Standby && write_frame(&mut p.stream, wire).is_err() {
                dead.push(id);
            }
        }
        dead
    }

    /// Crash: close every socket abruptly (no `Bye` — peers must see a
    /// death, not an orderly goodbye) and stop all loops.
    fn die(&self) {
        self.killed.store(true, Ordering::SeqCst);
        self.shutdown.store(true, Ordering::SeqCst);
        {
            let mut peers = self.peers.lock().unwrap();
            for (_, p) in peers.iter_mut() {
                let _ = p.stream.shutdown(Shutdown::Both);
            }
            peers.clear();
        }
        self.events_cv.notify_all();
    }
}

struct CoordState {
    next_search: u64,
    next_fold: u64,
    waited_for_fleet: bool,
    stats: DistStats,
}

/// Coordinator endpoint: owns the listener, the per-connection reader
/// threads, and the lease bookkeeping of every fold.  One instance
/// serves one solve (its searches arrive sequentially through
/// [`SeedSearcher::select`]).
pub struct DistCoordinator {
    shared: Arc<Shared>,
    addr: SocketAddr,
    state: Mutex<CoordState>,
    accept_handle: Mutex<Option<std::thread::JoinHandle<()>>>,
    reader_handles: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl DistCoordinator {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start accepting workers
    /// as a primary (epoch 1).  `job` is the opaque payload every
    /// `Welcome` carries — whatever the workers need to reconstruct the
    /// instance (the CLI's codec lives in `parcolor-cli`).
    pub fn bind(addr: &str, job: Vec<u8>, cfg: DistConfig) -> io::Result<DistCoordinator> {
        Self::bind_inner(addr, job, cfg, true, 1)
    }

    /// Bind as an unpromoted standby: the listener runs (so workers
    /// probing the address get a fast, friendly `Refuse` instead of a
    /// hang), but no handshake completes until [`Self::promote`].
    pub(crate) fn bind_standby(
        addr: &str,
        job: Vec<u8>,
        cfg: DistConfig,
    ) -> io::Result<DistCoordinator> {
        Self::bind_inner(addr, job, cfg, false, 0)
    }

    fn bind_inner(
        addr: &str,
        job: Vec<u8>,
        cfg: DistConfig,
        accepting: bool,
        epoch: u64,
    ) -> io::Result<DistCoordinator> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            cfg,
            job,
            start: Instant::now(),
            history: Mutex::new(Vec::new()),
            peers: Mutex::new(HashMap::new()),
            events: Mutex::new(VecDeque::new()),
            events_cv: Condvar::new(),
            next_worker: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            epoch: AtomicU64::new(epoch),
            accepting: AtomicBool::new(accepting),
            killed: AtomicBool::new(false),
            kill: Mutex::new(None),
        });
        let reader_handles = Arc::new(Mutex::new(Vec::new()));
        let accept_handle = {
            let shared = Arc::clone(&shared);
            let handles = Arc::clone(&reader_handles);
            std::thread::spawn(move || accept_loop(listener, shared, handles))
        };
        Ok(DistCoordinator {
            shared,
            addr: local,
            state: Mutex::new(CoordState {
                next_search: 0,
                next_fold: 0,
                waited_for_fleet: false,
                stats: DistStats::default(),
            }),
            accept_handle: Mutex::new(Some(accept_handle)),
            reader_handles,
        })
    }

    /// The state lock, recovering from poisoning: an armed kill switch
    /// panics the solve thread mid-fold by design, and the harness must
    /// still read stats afterwards.
    fn state_lock(&self) -> MutexGuard<'_, CoordState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Currently connected worker-role peers (standbys not counted).
    pub fn connected_workers(&self) -> usize {
        self.shared.worker_count()
    }

    /// Currently connected standby-role peers.
    pub fn connected_standbys(&self) -> usize {
        self.shared
            .peers
            .lock()
            .unwrap()
            .values()
            .filter(|p| p.role == Role::Standby)
            .count()
    }

    /// The current fencing epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::SeqCst)
    }

    /// Whether an armed kill switch fired (teardown was a crash).
    pub fn was_killed(&self) -> bool {
        self.shared.killed.load(Ordering::SeqCst)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> DistStats {
        self.state_lock().stats
    }

    /// Arm a deterministic kill switch: when it fires (unit/fold counts
    /// or promotion, see [`KillSwitch`]), the coordinator closes every
    /// socket abruptly and panics the solve thread with
    /// [`CoordinatorKilled`] — a simulated crash for the chaos gauntlet.
    pub fn arm_kill(&self, switch: Arc<KillSwitch>) {
        *self.shared.kill.lock().unwrap() = Some(switch);
    }

    /// Orderly handover: send `Promote` to the lowest-id connected
    /// standby, telling it to take over at `epoch + 1`.  Returns whether
    /// a standby received it.  The caller is expected to stop granting
    /// afterwards (typically by shutting down).
    pub fn handover(&self) -> bool {
        let epoch = self.epoch() + 1;
        let wire = Msg::Promote { epoch }.encode();
        let mut peers = self.shared.peers.lock().unwrap();
        let mut ids: Vec<u64> = peers
            .iter()
            .filter(|(_, p)| p.role == Role::Standby)
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable();
        for id in ids {
            let p = peers.get_mut(&id).expect("listed standby");
            if write_frame(&mut p.stream, &wire).is_ok() {
                return true;
            }
        }
        false
    }

    /// Broadcast `Bye`, close every connection, and stop the accept
    /// loop.  Idempotent; also runs on drop.  After a kill the sockets
    /// are already gone, so this only reaps threads.
    pub fn shutdown(&self) {
        if !self.shared.shutdown.swap(true, Ordering::SeqCst) {
            let mut peers = self.shared.peers.lock().unwrap();
            for (_, peer) in peers.iter_mut() {
                let _ = write_frame(&mut peer.stream, &Msg::Bye.encode());
                let _ = peer.stream.shutdown(Shutdown::Both);
            }
            peers.clear();
        }
        if let Some(h) = self.accept_handle.lock().unwrap().take() {
            let _ = h.join();
        }
        for h in self.reader_handles.lock().unwrap().drain(..) {
            let _ = h.join();
        }
    }

    /// Wait (bounded) for the configured fleet before the first search,
    /// so benches measure distribution rather than a race the
    /// coordinator wins alone.  Also called after a standby's promotion
    /// so the orphaned fleet has a chance to re-home before the first
    /// re-leased fold.
    pub(crate) fn wait_for_fleet(&self) {
        let cfg = &self.shared.cfg;
        if cfg.min_workers == 0 {
            return;
        }
        let deadline = Instant::now() + Duration::from_millis(cfg.min_worker_wait_ms);
        while self.connected_workers() < cfg.min_workers && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(cfg.poll_ms.max(1)));
        }
    }

    /// Promote a standby-bound coordinator: adopt `epoch`, install the
    /// tailed `history` (so worker `Welcome`s fast-forward correctly),
    /// position the search counter, and start accepting workers.
    pub(crate) fn promote(&self, epoch: u64, history: Vec<SeedSelection>, next_search: u64) {
        let fire = match self.shared.kill.lock().unwrap().as_ref() {
            Some(k) => k.note_promotion(),
            None => false,
        };
        if fire {
            self.shared.die();
            std::panic::panic_any(CoordinatorKilled);
        }
        self.shared.epoch.store(epoch, Ordering::SeqCst);
        *self.shared.history.lock().unwrap() = history;
        {
            let mut st = self.state_lock();
            st.next_search = next_search;
        }
        self.shared.accepting.store(true, Ordering::SeqCst);
    }

    /// Run one search through the leasing machinery.  `preseed` carries
    /// replicated completion state keyed by per-search fold sequence —
    /// a promoted standby passes what it tailed from the dead primary;
    /// a primary passes an empty map.
    pub(crate) fn run_search(
        &self,
        seed_bits: u32,
        strategy: SeedStrategy,
        workers: usize,
        n: usize,
        eval_block: BlockEval,
        preseed: HashMap<u64, ReplicatedFold>,
    ) -> SeedSelection {
        let mut st = self.state_lock();
        let search_id = st.next_search;
        st.next_search += 1;
        let epoch = self.shared.epoch.load(Ordering::SeqCst);
        let kill = self.shared.kill.lock().unwrap().clone();
        let mut folder = LeasingFolder {
            shared: &self.shared,
            st: &mut st,
            search_id,
            epoch,
            fold_seq: 0,
            preseed,
            kill,
            local: LocalFolder::new(workers, move || SimScratch::new(n), eval_block),
        };
        let sel = select_seed_folded(seed_bits, strategy, &mut folder);
        st.stats.searches += 1;

        // Publish: record the selection (late joiners get it in their
        // Welcome) and broadcast it to the fleet.  History is locked
        // before peers everywhere, so a concurrent handshake either
        // snapshots this selection or is registered before the send.
        let mut dead = Vec::new();
        {
            let mut history = self.shared.history.lock().unwrap();
            history.push(sel.clone());
            let wire = Msg::Chosen {
                epoch,
                search_id,
                selection: sel.clone(),
            }
            .encode();
            let mut peers = self.shared.peers.lock().unwrap();
            for (&id, peer) in peers.iter_mut() {
                if write_frame(&mut peer.stream, &wire).is_err() {
                    dead.push(id);
                }
            }
        }
        for id in dead {
            if self.shared.drop_peer(id) {
                st.stats.disconnects += 1;
            }
        }
        sel
    }
}

impl Drop for DistCoordinator {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl SeedSearcher for DistCoordinator {
    fn select(
        &self,
        seed_bits: u32,
        strategy: SeedStrategy,
        workers: usize,
        n: usize,
        eval_block: BlockEval,
    ) -> SeedSelection {
        {
            let mut st = self.state_lock();
            if !st.waited_for_fleet {
                st.waited_for_fleet = true;
                drop(st);
                self.wait_for_fleet();
            }
        }
        self.run_search(seed_bits, strategy, workers, n, eval_block, HashMap::new())
    }
}

/// The [`RangeFolder`] that leases.  Lives for one search; `local` folds
/// in process (fallbacks and short folds).
struct LeasingFolder<'a, L> {
    shared: &'a Shared,
    st: &'a mut CoordState,
    search_id: u64,
    epoch: u64,
    /// Fold counter *within this search* — deterministic across
    /// replicas (both a primary and a promoted standby count
    /// `fold_range` calls identically), unlike the coordinator-global
    /// `next_fold`.  Keys the replication stream.
    fold_seq: u64,
    preseed: HashMap<u64, ReplicatedFold>,
    kill: Option<Arc<KillSwitch>>,
    /// The same folder `select_seed_blocks_n` runs, so local shares are
    /// bit-identical.
    local: L,
}

fn unit_range(start: u64, len: u64, unit_len: u64, unit: u32) -> (u64, u64) {
    let ustart = start + unit as u64 * unit_len;
    let ulen = (start + len - ustart).min(unit_len);
    (ustart, ulen)
}

impl<L: RangeFolder> LeasingFolder<'_, L> {
    /// Crash now if the armed kill switch says this completed unit was
    /// the trigger (simulated coordinator death, mid-fold).
    fn kill_check_unit(&mut self) {
        if let Some(k) = &self.kill {
            if k.note_unit() {
                self.shared.die();
                std::panic::panic_any(CoordinatorKilled);
            }
        }
    }

    /// Crash now if the armed kill switch triggers on fold boundaries.
    fn kill_check_fold(&mut self) {
        if let Some(k) = &self.kill {
            if k.note_fold() {
                self.shared.die();
                std::panic::panic_any(CoordinatorKilled);
            }
        }
    }

    /// Stream one completed unit to the standbys (no-op without any).
    fn replicate_unit(&mut self, seq: u64, geom: (u64, u64, u64), unit: u32, agg: SumMinArgmin) {
        if !self.shared.has_standby() {
            return;
        }
        let (fold_start, fold_len, unit_len) = geom;
        let wire = Msg::Replicate {
            epoch: self.epoch,
            search_id: self.search_id,
            fold_seq: seq,
            fold_start,
            fold_len,
            unit_len,
            unit,
            sum: agg.sum,
            min: agg.min,
            argmin: agg.argmin,
        }
        .encode();
        for id in self.shared.send_to_standbys(&wire) {
            if self.shared.drop_peer(id) {
                self.st.stats.disconnects += 1;
            }
        }
    }

    /// Lease the fold out to the fleet; merge first-completions; expire,
    /// orphan, and re-issue as needed; degrade to local evaluation when
    /// the fleet is gone or the fold stalls.
    fn remote_fold(&mut self, start: u64, len: u64, unit_len: u64, seq: u64) -> SumMinArgmin {
        let cfg = &self.shared.cfg;
        let nunits = len.div_ceil(unit_len);
        let fold_id = self.st.next_fold;
        self.st.next_fold += 1;
        self.st.stats.remote_folds += 1;
        let mut table = LeaseTable::new(nunits as u32);
        let mut acc = SumMinArgmin::EMPTY;
        let geom = (start, len, unit_len);

        // Promotion replay: pre-complete every unit the dead primary
        // already merged (and replicated) for this fold, provided the
        // deterministically re-derived geometry matches.  Only what was
        // still in flight stays pending and gets (re-)leased.
        if let Some(rf) = self.preseed.remove(&seq) {
            if (rf.start, rf.len, rf.unit_len) == geom {
                for (unit, agg) in rf.units {
                    if (unit as u64) < nunits && table.complete(unit) {
                        acc = acc.merge(agg);
                        self.st.stats.replayed_units += 1;
                    }
                }
            }
        }

        let fold_start = self.shared.now_ms();
        while !table.is_done() {
            let now = self.shared.now_ms();
            table.expire(now);

            // Evict peers that have been silent past the heartbeat
            // timeout; a worker's leases go back to pending.
            let mut dead: Vec<u64> = Vec::new();
            {
                let peers = self.shared.peers.lock().unwrap();
                for (&id, p) in peers.iter() {
                    if now.saturating_sub(p.last_seen) > cfg.heartbeat_timeout_ms {
                        dead.push(id);
                    }
                }
            }
            for id in dead {
                if self.shared.drop_peer(id) {
                    self.st.stats.evictions += 1;
                }
                table.release_worker(id);
            }

            // Grant pending units to live workers, lowest worker id
            // first, up to the pipelining depth.  Standbys never serve
            // leases — they only tail the replication stream.
            let mut send_failed: Vec<u64> = Vec::new();
            {
                let mut peers = self.shared.peers.lock().unwrap();
                let mut ids: Vec<u64> = peers
                    .iter()
                    .filter(|(_, p)| p.role == Role::Worker)
                    .map(|(&id, _)| id)
                    .collect();
                ids.sort_unstable();
                'workers: for id in ids {
                    while table.pending_len() > 0 && table.outstanding_of(id) < cfg.max_outstanding
                    {
                        let Some(lease) = table.grant(id, now, cfg.lease_timeout_ms) else {
                            break 'workers;
                        };
                        let (ustart, ulen) = unit_range(start, len, unit_len, lease.unit);
                        let wire = Msg::Grant {
                            epoch: self.epoch,
                            search_id: self.search_id,
                            fold_id,
                            lease_id: lease.lease_id,
                            unit: lease.unit,
                            start: ustart,
                            len: ulen,
                        }
                        .encode();
                        let peer = peers.get_mut(&id).expect("granted to a live peer");
                        if write_frame(&mut peer.stream, &wire).is_err() {
                            send_failed.push(id);
                            break;
                        }
                    }
                }
            }
            for id in send_failed {
                if self.shared.drop_peer(id) {
                    self.st.stats.disconnects += 1;
                }
                table.release_worker(id);
            }

            // Merge completions; first copy per unit wins.  Batches are
            // fenced by epoch first: frames from a deposed primary's
            // grants are dropped wholesale, before unit dedup applies.
            for ev in self.shared.drain_events(cfg.poll_ms.max(1)) {
                match ev {
                    Event::Gone(id) => {
                        if self.shared.drop_peer(id) {
                            self.st.stats.disconnects += 1;
                        }
                        table.release_worker(id);
                    }
                    Event::Msg(
                        _,
                        Msg::Result {
                            epoch,
                            search_id,
                            fold_id: result_fold,
                            batch,
                        },
                    ) => {
                        if epoch != self.epoch {
                            self.st.stats.fenced += batch.len() as u64;
                        } else if search_id != self.search_id || result_fold != fold_id {
                            self.st.stats.stale_results += batch.len() as u64;
                        } else {
                            for r in batch {
                                if (r.unit as u64) < nunits && table.complete(r.unit) {
                                    let agg = SumMinArgmin {
                                        sum: r.sum,
                                        min: r.min,
                                        argmin: r.argmin,
                                    };
                                    acc = acc.merge(agg);
                                    self.st.stats.remote_units += 1;
                                    self.replicate_unit(seq, geom, r.unit, agg);
                                    self.kill_check_unit();
                                }
                            }
                        }
                    }
                    Event::Msg(id, Msg::Bye) => {
                        if self.shared.drop_peer(id) {
                            self.st.stats.disconnects += 1;
                        }
                        table.release_worker(id);
                    }
                    Event::Msg(..) => {}
                }
            }

            // Graceful degradation: with no fleet — or a fold stuck past
            // the patience window despite live-looking workers — fold
            // pending units locally, one per tick so fresh results can
            // still interleave.  Dedup makes the overlap harmless.
            let fleet_gone = self.shared.worker_count() == 0;
            let stalled =
                now.saturating_sub(fold_start) > cfg.local_patience_ms && table.pending_len() > 0;
            if !table.is_done() && (fleet_gone || stalled) {
                if let Some(lease) = table.grant(LOCAL_WORKER, now, u64::MAX / 2) {
                    let (ustart, ulen) = unit_range(start, len, unit_len, lease.unit);
                    let part = self.local.fold_range(ustart, ulen);
                    table.complete(lease.unit);
                    acc = acc.merge(part);
                    self.st.stats.local_units += 1;
                    self.replicate_unit(seq, geom, lease.unit, part);
                    self.kill_check_unit();
                }
            }
        }

        let ls = table.stats();
        self.st.stats.granted += ls.granted;
        self.st.stats.reissued += ls.reissued;
        self.st.stats.expired += ls.expired;
        self.st.stats.orphaned += ls.orphaned;
        self.st.stats.duplicates += ls.duplicates;
        acc
    }
}

impl<L: RangeFolder> RangeFolder for LeasingFolder<'_, L> {
    fn fold_range(&mut self, start: u64, len: u64) -> SumMinArgmin {
        self.st.stats.folds += 1;
        let seq = self.fold_seq;
        self.fold_seq += 1;
        self.kill_check_fold();
        let cfg = &self.shared.cfg;
        let unit_len = (cfg.blocks_per_lease.max(1)) * SEED_BLOCK as u64;
        let no_fleet = self.shared.worker_count() == 0;
        if len < cfg.min_remote_len || no_fleet {
            let units = len.div_ceil(unit_len);
            self.st.stats.local_units += units;
            let acc = self.local.fold_range(start, len);
            for _ in 0..units {
                self.kill_check_unit();
            }
            return acc;
        }
        self.remote_fold(start, len, unit_len, seq)
    }

    fn eval_seed(&mut self, seed: u64) -> f64 {
        self.local.eval_seed(seed)
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    handles: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(&shared);
                let h = std::thread::spawn(move || reader_loop(stream, shared));
                handles.lock().unwrap().push(h);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Per-connection reader: handshake (`Hello` → `Welcome` + register, or
/// a friendly `Refuse`), then pump frames into the event queue until
/// death.  After registration this thread never writes — the solve
/// thread owns the write half.
fn reader_loop(stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    if stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .is_err()
    {
        return;
    }
    let read_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = FrameReader::new(read_half);

    // Handshake with a deadline.
    let handshake_deadline = Instant::now() + Duration::from_secs(10);
    let hello = loop {
        if shared.shutdown.load(Ordering::SeqCst) || Instant::now() > handshake_deadline {
            return;
        }
        match reader.poll_frame() {
            Ok(Some(frame)) => break frame,
            Ok(None) => continue,
            Err(_) => return,
        }
    };
    let refuse = |reason: String| {
        let mut write_half = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        };
        let _ = write_frame(
            &mut write_half,
            &Msg::Refuse {
                required_version: PROTO_VERSION,
                reason,
            }
            .encode(),
        );
        let _ = stream.shutdown(Shutdown::Both);
    };
    let role = match Msg::decode(&hello) {
        Ok(Msg::Hello { version, role }) if version == PROTO_VERSION => {
            if !shared.accepting.load(Ordering::SeqCst) {
                // A standby's listener: friendly redirect so probing
                // workers keep cycling their coordinator list.
                refuse("not primary: this coordinator is an unpromoted standby".into());
                return;
            }
            role
        }
        Ok(Msg::Hello { version, .. }) => {
            refuse(format!(
                "protocol version {version} not supported (this coordinator speaks v{PROTO_VERSION})"
            ));
            return;
        }
        _ => return, // not a Hello at all: refuse silently
    };

    let id = shared.next_worker.fetch_add(1, Ordering::SeqCst);
    {
        // Snapshot history and register atomically (history before
        // peers — the same order the broadcast path locks), so no
        // Chosen can fall between the snapshot and registration.  The
        // peer is inserted before its Welcome is written: once the
        // handshake completes on the peer's side, it is registered.
        let history = shared.history.lock().unwrap();
        let welcome = Msg::Welcome {
            worker_id: id,
            epoch: shared.epoch.load(Ordering::SeqCst),
            job: shared.job.clone(),
            history: history.clone(),
        }
        .encode();
        let mut peers = shared.peers.lock().unwrap();
        peers.insert(
            id,
            Peer {
                stream,
                last_seen: shared.now_ms(),
                role,
            },
        );
        let peer = peers.get_mut(&id).expect("just inserted");
        if write_frame(&mut peer.stream, &welcome).is_err() {
            peers.remove(&id);
            return;
        }
    }

    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match reader.poll_frame() {
            Ok(Some(frame)) => match Msg::decode(&frame) {
                Ok(msg) => {
                    if let Some(p) = shared.peers.lock().unwrap().get_mut(&id) {
                        p.last_seen = shared.now_ms();
                    }
                    match msg {
                        Msg::Ping => {} // liveness only, already recorded
                        other => shared.push_event(Event::Msg(id, other)),
                    }
                }
                Err(_) => {
                    // Malformed frame: drop the connection; the lease
                    // layer re-issues whatever it held.
                    shared.push_event(Event::Gone(id));
                    return;
                }
            },
            Ok(None) => continue,
            Err(_) => {
                shared.push_event(Event::Gone(id));
                return;
            }
        }
    }
}
