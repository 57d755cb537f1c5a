//! The worker: a replicated solve that serves leases.
//!
//! A worker runs the *same deterministic solve* as the coordinator
//! (reconstructed from the `Welcome` job bytes) with a
//! [`WorkerSearcher`] as its seed-search backend.  Each search, instead
//! of folding locally, the backend sits in a serve loop: evaluate every
//! `Grant` it is leased, return batched `Result`s, and conclude the
//! search when the coordinator's `Chosen` arrives — which keeps the
//! replica lock-step with the fleet.
//!
//! Failure handling: the worker carries an **ordered coordinator list**
//! (primary first, standbys after).  Any connection loss triggers a
//! reconnect sweep across the whole list with exponential backoff plus
//! deterministic jitter; the fresh `Welcome` carries the full selection
//! history, so a worker that was dark through any number of searches —
//! or that re-homed from a dead primary to a freshly promoted standby —
//! fast-forwards instead of desyncing.  An unpromoted standby answers
//! the handshake with a friendly `Refuse`, which counts as a failed
//! attempt and keeps the sweep cycling until promotion opens the door.
//! When the reconnect budget is exhausted (every coordinator gone for
//! good) the worker flips to **standalone** mode and finishes its
//! replica with the in-process search — same coloring, no panic.
//!
//! Result batching: completed units accumulate in a small batch that is
//! flushed as one `Result` frame when it reaches the pipelining depth,
//! when the `(epoch, search, fold)` key changes, when the
//! `result_flush_ms` window expires, or right before a heartbeat —
//! cutting frame count roughly `max_outstanding`-fold on chatty links
//! while dedup-by-unit-id semantics stay exactly as before.

use crate::frame::{write_frame, FrameReader};
use crate::proto::{Msg, Role, UnitResult, PROTO_VERSION};
use crate::DistConfig;
use parcolor_core::{BlockEval, SeedSearcher, SimScratch};
use parcolor_local::tape::SplitMix;
use parcolor_prg::{
    fold_seed_range_in, seed_workers, select_seed_blocks_n, SeedSelection, SeedStrategy,
};
use std::io;
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Socket read timeout — the worker's poll tick while idle.  With a
/// result batch pending the tick shrinks to `result_flush_ms` so the
/// flush window is honored at its own granularity.
const READ_TICK_MS: u64 = 25;

/// Worker-side counters (tests assert on these).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Leases evaluated and answered.
    pub served_units: u64,
    /// `Result` frames sent (≤ `served_units`; batching coalesces).
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

pub(crate) struct Conn {
    pub(crate) reader: FrameReader,
    pub(crate) writer: TcpStream,
    /// Milliseconds of consecutive silence from the coordinator.
    pub(crate) idle_ms: u64,
    /// Milliseconds since we last sent anything (heartbeat pacing).
    pub(crate) since_send_ms: u64,
    /// The tick currently configured on the socket.
    tick_ms: u64,
}

impl Conn {
    fn set_tick(&mut self, tick_ms: u64) {
        if self.tick_ms != tick_ms
            && self
                .reader
                .set_read_timeout(Some(Duration::from_millis(tick_ms)))
                .is_ok()
        {
            self.tick_ms = tick_ms;
        }
    }
}

struct Inner {
    addrs: Vec<String>,
    /// Index of the coordinator the current/last connection used.
    addr_idx: usize,
    cfg: DistConfig,
    conn: Option<Conn>,
    job: Vec<u8>,
    history: Vec<SeedSelection>,
    /// Fencing epoch from the last `Welcome` (observability; fencing
    /// itself is coordinator-side — results echo their grant's epoch).
    epoch: u64,
    next_search: u64,
    standalone: bool,
    failed_attempts: u32,
    jitter: SplitMix,
    /// Completed units awaiting one coalesced `Result` frame.
    batch: Vec<UnitResult>,
    /// `(epoch, search_id, fold_id)` every batched unit shares.
    batch_key: Option<(u64, u64, u64)>,
    /// Milliseconds the oldest batched unit has waited.
    batch_age_ms: u64,
    stats: WorkerStats,
}

/// The lease-serving [`SeedSearcher`] backend.  Construct with
/// [`WorkerSearcher::connect`] (or through [`run_worker`]) and hand to
/// `Solver::with_seed_searcher`.
pub struct WorkerSearcher {
    inner: Mutex<Inner>,
}

/// What a successful handshake yields: the connection, the `Welcome`
/// epoch, the job bytes, and the selection history.
pub(crate) type Handshake = (Conn, u64, Vec<u8>, Vec<SeedSelection>);

/// One connect + handshake as `role`.  A `Refuse` answer (version
/// mismatch, or an unpromoted standby) becomes a friendly
/// `ConnectionRefused` error carrying the peer's reason.
pub(crate) fn connect_once(addr: &str, role: Role) -> io::Result<Handshake> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_millis(READ_TICK_MS)))?;
    let mut writer = stream.try_clone()?;
    write_frame(
        &mut writer,
        &Msg::Hello {
            version: PROTO_VERSION,
            role,
        }
        .encode(),
    )?;
    let mut reader = FrameReader::new(stream);
    let deadline = Instant::now() + Duration::from_secs(10);
    let frame = loop {
        if Instant::now() > deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "handshake timed out",
            ));
        }
        match reader.poll_frame()? {
            Some(f) => break f,
            None => continue,
        }
    };
    match Msg::decode(&frame)? {
        Msg::Welcome {
            epoch,
            job,
            history,
            ..
        } => Ok((
            Conn {
                reader,
                writer,
                idle_ms: 0,
                since_send_ms: 0,
                tick_ms: READ_TICK_MS,
            },
            epoch,
            job,
            history,
        )),
        Msg::Refuse {
            required_version,
            reason,
        } => Err(io::Error::new(
            io::ErrorKind::ConnectionRefused,
            format!("coordinator (protocol v{required_version}) refused handshake: {reason}"),
        )),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "expected Welcome",
        )),
    }
}

/// Sleep before the next connection attempt after `failures`
/// consecutive failed ones: `connect_backoff_ms · 2^failures` (exponent
/// capped at 16) up to `max_backoff_ms`, plus a jitter of up to half that
/// drawn from `jitter`.
pub(crate) fn backoff(cfg: &DistConfig, failures: u32, jitter: &mut SplitMix) {
    let base = cfg
        .connect_backoff_ms
        .saturating_mul(1u64 << failures.min(16))
        .min(cfg.max_backoff_ms);
    let jitter = jitter.next_u64() % (base / 2 + 1);
    std::thread::sleep(Duration::from_millis(base + jitter));
}

/// One sweep over the coordinator list starting at `start_idx`.
/// Returns the index of the address that answered, with its handshake.
fn connect_sweep(addrs: &[String], start_idx: usize) -> io::Result<(usize, Handshake)> {
    let mut last_err = None;
    for k in 0..addrs.len() {
        let i = (start_idx + k) % addrs.len();
        match connect_once(&addrs[i], Role::Worker) {
            Ok(handshake) => return Ok((i, handshake)),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.unwrap_or_else(|| io::Error::other("empty coordinator list")))
}

impl Inner {
    fn drop_conn(&mut self) {
        if let Some(c) = self.conn.take() {
            let _ = c.writer.shutdown(Shutdown::Both);
        }
        // Unflushed results die with the connection; the coordinator's
        // lease table re-issues those units.
        self.batch.clear();
        self.batch_key = None;
        self.batch_age_ms = 0;
    }

    /// Adopt a (re)connection's history: a live coordinator's record is
    /// a superset of ours (it appends before broadcasting) — unless we
    /// re-homed to a standby that lost the tail, in which case we keep
    /// our longer record and the lock-step fast path rides it out.
    fn adopt_history(&mut self, history: Vec<SeedSelection>) {
        if history.len() > self.history.len() {
            self.history = history;
        }
    }

    /// One backoff-then-sweep attempt across the coordinator list.
    /// Flips to standalone when the consecutive-failure budget runs out
    /// (each fully failed sweep counts once).
    fn reconnect(&mut self) {
        if self.failed_attempts >= self.cfg.max_reconnects {
            self.standalone = true;
            return;
        }
        backoff(&self.cfg, self.failed_attempts, &mut self.jitter);
        match connect_sweep(&self.addrs, self.addr_idx) {
            Ok((idx, (conn, epoch, _job, history))) => {
                self.adopt_history(history);
                self.addr_idx = idx;
                self.epoch = epoch;
                self.conn = Some(conn);
                self.failed_attempts = 0;
                self.stats.reconnects += 1;
            }
            Err(_) => {
                self.failed_attempts += 1;
                if self.failed_attempts >= self.cfg.max_reconnects {
                    self.standalone = true;
                }
            }
        }
    }

    /// Send the pending batch as one `Result` frame.
    fn flush_batch(&mut self) {
        let Some((epoch, search_id, fold_id)) = self.batch_key.take() else {
            return;
        };
        let batch = std::mem::take(&mut self.batch);
        self.batch_age_ms = 0;
        if batch.is_empty() {
            return;
        }
        let wire = Msg::Result {
            epoch,
            search_id,
            fold_id,
            batch,
        }
        .encode();
        let Some(conn) = self.conn.as_mut() else {
            return;
        };
        conn.since_send_ms = 0;
        if write_frame(&mut conn.writer, &wire).is_err() {
            self.drop_conn();
            return;
        }
        self.stats.result_frames += 1;
    }
}

impl WorkerSearcher {
    /// Connect to the first reachable coordinator in `addrs` (ordered:
    /// primary first, standbys after) and complete the handshake,
    /// retrying whole-list sweeps with backoff up to the configured
    /// budget.
    pub fn connect(addrs: &[String], cfg: DistConfig) -> io::Result<WorkerSearcher> {
        if addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "empty coordinator list",
            ));
        }
        let mut jitter = SplitMix::new(cfg.jitter_seed);
        let mut last_err = None;
        for attempt in 0..cfg.max_reconnects.max(1) {
            match connect_sweep(addrs, 0) {
                Ok((idx, (conn, epoch, job, history))) => {
                    return Ok(WorkerSearcher {
                        inner: Mutex::new(Inner {
                            addrs: addrs.to_vec(),
                            addr_idx: idx,
                            cfg,
                            conn: Some(conn),
                            job,
                            history,
                            epoch,
                            next_search: 0,
                            standalone: false,
                            failed_attempts: 0,
                            jitter,
                            batch: Vec::new(),
                            batch_key: None,
                            batch_age_ms: 0,
                            stats: WorkerStats::default(),
                        }),
                    })
                }
                Err(e) => {
                    last_err = Some(e);
                    backoff(&cfg, attempt, &mut jitter);
                }
            }
        }
        Err(last_err.unwrap_or_else(|| io::Error::other("no connection attempts")))
    }

    /// The job bytes from the handshake.
    pub fn job(&self) -> Vec<u8> {
        self.inner.lock().unwrap().job.clone()
    }

    /// Whether the worker has degraded to local-only operation.
    pub fn is_standalone(&self) -> bool {
        self.inner.lock().unwrap().standalone
    }

    /// The fencing epoch from the last `Welcome`.
    pub fn epoch(&self) -> u64 {
        self.inner.lock().unwrap().epoch
    }

    /// Counter snapshot.
    pub fn stats(&self) -> WorkerStats {
        self.inner.lock().unwrap().stats
    }

    /// Send a best-effort `Bye` and close the connection.
    pub fn finish(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.flush_batch();
        if let Some(c) = inner.conn.as_mut() {
            let _ = write_frame(&mut c.writer, &Msg::Bye.encode());
        }
        inner.drop_conn();
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
        let sid = inner.next_search;
        let mut pool: Vec<SimScratch> = Vec::new();
        loop {
            // Lock-step fast path: the selection is already known
            // (broadcast received earlier, or replayed via Welcome).
            if let Some(sel) = inner.history.get(sid as usize) {
                let sel = sel.clone();
                inner.next_search += 1;
                inner.stats.adopted += 1;
                return sel;
            }
            if inner.standalone {
                let sel = select_seed_blocks_n(
                    seed_bits,
                    strategy,
                    workers,
                    || SimScratch::new(n),
                    |s, c, sc: &mut SimScratch| eval_block(s, c, sc),
                );
                debug_assert_eq!(inner.history.len() as u64, sid);
                inner.history.push(sel.clone());
                inner.next_search += 1;
                inner.stats.standalone_searches += 1;
                return sel;
            }
            if inner.conn.is_none() {
                inner.reconnect();
                continue;
            }

            // One poll tick of the serve loop.
            let msg = {
                let cfg_hb = inner.cfg.heartbeat_timeout_ms;
                let cfg_idle = inner.cfg.idle_reconnect_ms;
                let flush_ms = inner.cfg.result_flush_ms;
                let has_batch = !inner.batch.is_empty();
                let conn = inner.conn.as_mut().expect("checked above");
                conn.set_tick(if has_batch {
                    flush_ms.clamp(1, READ_TICK_MS)
                } else {
                    READ_TICK_MS
                });
                let tick = conn.tick_ms;
                match conn.reader.poll_frame() {
                    Ok(Some(frame)) => match Msg::decode(&frame) {
                        Ok(m) => {
                            conn.idle_ms = 0;
                            Some(m)
                        }
                        Err(_) => {
                            inner.drop_conn();
                            continue;
                        }
                    },
                    Ok(None) => {
                        conn.idle_ms += tick;
                        conn.since_send_ms += tick;
                        let (idle, quiet) = (conn.idle_ms, conn.since_send_ms);
                        if has_batch {
                            inner.batch_age_ms += tick;
                            if inner.batch_age_ms >= flush_ms {
                                inner.flush_batch();
                                continue;
                            }
                        }
                        // Heartbeat: one-way Ping whenever we've been
                        // quiet for a third of the eviction window.
                        if quiet >= cfg_hb / 3 {
                            // Never heartbeat past pending results.
                            inner.flush_batch();
                            let Some(conn) = inner.conn.as_mut() else {
                                continue;
                            };
                            conn.since_send_ms = 0;
                            if write_frame(&mut conn.writer, &Msg::Ping.encode()).is_err() {
                                inner.drop_conn();
                                continue;
                            }
                            inner.stats.pings += 1;
                        } else if idle >= cfg_idle {
                            // Dead air past the idle window: a Chosen
                            // may have been lost — resync via Welcome.
                            inner.drop_conn();
                        }
                        continue;
                    }
                    Err(_) => {
                        inner.drop_conn();
                        continue;
                    }
                }
            };

            match msg {
                Some(Msg::Grant {
                    epoch,
                    search_id,
                    fold_id,
                    lease_id,
                    unit,
                    start,
                    len,
                }) => {
                    if search_id > sid {
                        // The coordinator is ahead of us: we missed a
                        // Chosen.  Resync through a fresh Welcome.
                        inner.drop_conn();
                        continue;
                    }
                    if search_id < sid || len == 0 {
                        continue; // stale lease from before a reconnect
                    }
                    let w = seed_workers(len, workers);
                    while pool.len() < w {
                        pool.push(SimScratch::new(n));
                    }
                    let eval = |s: u64, c: &mut [f64], sc: &mut SimScratch| eval_block(s, c, sc);
                    let part = fold_seed_range_in(&mut pool[..w], start, len, &eval);
                    let key = (epoch, search_id, fold_id);
                    if inner.batch_key.is_some() && inner.batch_key != Some(key) {
                        inner.flush_batch();
                        if inner.conn.is_none() {
                            continue;
                        }
                    }
                    inner.batch_key = Some(key);
                    inner.batch.push(UnitResult {
                        lease_id,
                        unit,
                        sum: part.sum,
                        min: part.min,
                        argmin: part.argmin,
                    });
                    inner.stats.served_units += 1;
                    if inner.batch.len() >= inner.cfg.max_outstanding.max(1) {
                        inner.flush_batch();
                    }
                }
                Some(Msg::Chosen {
                    search_id,
                    selection,
                    ..
                }) => {
                    let have = inner.history.len() as u64;
                    if search_id == have {
                        // Results for a concluded search are moot.
                        inner.batch.clear();
                        inner.batch_key = None;
                        inner.batch_age_ms = 0;
                        inner.history.push(selection);
                    } else if search_id > have {
                        // Gap: an earlier Chosen was lost in transit.
                        inner.drop_conn();
                    }
                    // search_id < have: duplicate broadcast, ignore.
                }
                Some(Msg::Bye) => {
                    // Coordinator is leaving.  With standbys on the
                    // list, re-home (a standby promotes on its primary's
                    // death and serves the full history); with nowhere
                    // else to go, finish the replica locally.
                    inner.drop_conn();
                    if inner.addrs.len() <= 1 {
                        inner.standalone = true;
                    }
                }
                Some(_) | None => {}
            }
        }
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
