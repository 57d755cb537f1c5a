//! The replica tail: the one connection loop a worker and a standby
//! both drive to keep their replica solve lock-step with a
//! coordinator's chosen seeds.
//!
//! [`Tail`] owns everything the two roles share:
//!
//! - the ordered address list (a worker's coordinators, primary first;
//!   a standby's one primary) and the role its `Hello` announces;
//! - connect and reconnect with exponential backoff plus deterministic
//!   jitter, under the role's budget of consecutive failed attempts
//!   (`max_reconnects` for a worker, `standby_reconnects` for a
//!   standby).  Each attempt sweeps the whole list; a `Refuse` (an
//!   unpromoted standby, a version mismatch) counts as a failure;
//! - the 25 ms poll tick, with a heartbeat `Ping` whenever the peer has
//!   been quiet for a third of the eviction window, and a resync after
//!   `idle_reconnect_ms` of silence from the coordinator (a lost
//!   `Chosen`): the connection is dropped, and the next `Welcome`
//!   carries the full selection history;
//! - `Chosen` applied in search order, with the same resync on a gap;
//! - the selection history and its fast path: a search whose selection
//!   is already known (tailed, or replayed from a `Welcome`) returns it
//!   without touching the network;
//! - the reconnect and ping counters.
//!
//! Every other frame goes back to the role: a worker serves `Grant`s, a
//! standby records `Replicate`s and promotes on `Promote` or `Bye`.
//! Once the budget runs out, or the role leaves, the tail is **closed**:
//! the role runs each remaining search itself (a worker standalone, a
//! standby as the promoted primary) and records it here.

use crate::frame::{write_frame, FrameReader};
use crate::proto::{Msg, Role, PROTO_VERSION};
use crate::DistConfig;
use parcolor_local::tape::SplitMix;
use parcolor_prg::SeedSelection;
use std::io;
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

/// The poll tick: the socket read timeout, in milliseconds.
const TICK_MS: u64 = 25;

/// Mixed into a standby's jitter seed so it does not back off in step
/// with workers sharing its configuration.
const STANDBY_JITTER_SALT: u64 = 0x5741_4E44_4259;

struct Conn {
    reader: FrameReader,
    writer: TcpStream,
    /// Milliseconds of consecutive silence from the coordinator.
    idle_ms: u64,
    /// Milliseconds since we last sent anything (heartbeat pacing).
    since_send_ms: u64,
}

/// What a successful handshake yields: the connection, the `Welcome`
/// epoch, the job bytes, and the selection history.
type Handshake = (Conn, u64, Vec<u8>, Vec<SeedSelection>);

/// One connect + handshake as `role`.  A `Refuse` answer (version
/// mismatch, or an unpromoted standby) becomes a friendly
/// `ConnectionRefused` error carrying the peer's reason.
fn connect_once(addr: &str, role: Role) -> io::Result<Handshake> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_millis(TICK_MS)))?;
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
        if let Some(f) = reader.poll_frame()? {
            break f;
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

/// One sweep over `addrs` starting at `start_idx`.  Returns the index
/// of the address that answered, with its handshake.
fn sweep(addrs: &[String], start_idx: usize, role: Role) -> io::Result<(usize, Handshake)> {
    let mut last_err = None;
    for k in 0..addrs.len() {
        let i = (start_idx + k) % addrs.len();
        match connect_once(&addrs[i], role) {
            Ok(handshake) => return Ok((i, handshake)),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.unwrap_or_else(|| io::Error::other("empty coordinator list")))
}

/// Sleep before the next connection attempt after `failures`
/// consecutive failed ones: `connect_backoff_ms · 2^failures` (exponent
/// capped at 16) up to `max_backoff_ms`, plus a jitter of up to half that
/// drawn from `jitter`.
fn backoff(cfg: &DistConfig, failures: u32, jitter: &mut SplitMix) {
    let base = cfg
        .connect_backoff_ms
        .saturating_mul(1u64 << failures.min(16))
        .min(cfg.max_backoff_ms);
    let jitter = jitter.next_u64() % (base / 2 + 1);
    std::thread::sleep(Duration::from_millis(base + jitter));
}

/// What [`Tail::next`] hands the role.
pub(crate) enum Tailed {
    /// The next search's selection, already known.
    Known(SeedSelection),
    /// A frame the tail does not handle (anything but `Chosen`).
    Frame(Msg),
    /// The tail is closed: the role runs the search itself.
    Closed,
}

/// One replica's connection to its coordinator, and the selection
/// history it tails (see the module docs).
pub(crate) struct Tail {
    addrs: Vec<String>,
    /// Index of the address the current or last connection used.
    addr_idx: usize,
    role: Role,
    cfg: DistConfig,
    /// Consecutive failed reconnects tolerated before the tail closes.
    budget: u32,
    conn: Option<Conn>,
    closed: bool,
    history: Vec<SeedSelection>,
    next_search: u64,
    /// The epoch of the last `Welcome`.
    epoch: u64,
    failed_attempts: u32,
    jitter: SplitMix,
    /// Successful reconnections after the first connection.
    pub(crate) reconnects: u64,
    /// Heartbeats sent.
    pub(crate) pings: u64,
    /// Selections appended from `Chosen` frames.
    pub(crate) tailed: u64,
}

impl Tail {
    /// Connect as `role` to the first address in `addrs` that completes
    /// the handshake, and return the tail with the `Welcome`'s job
    /// bytes.  A worker sweeps the list up to `max_reconnects` times (at
    /// least once) with a backoff between sweeps; a standby tries its
    /// primary once.  The last sweep's error returns as soon as the
    /// sweeps are spent.
    pub(crate) fn connect(
        addrs: &[String],
        role: Role,
        cfg: DistConfig,
    ) -> io::Result<(Tail, Vec<u8>)> {
        if addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "empty coordinator list",
            ));
        }
        let (sweeps, budget, salt) = match role {
            Role::Worker => (cfg.max_reconnects.max(1), cfg.max_reconnects, 0),
            Role::Standby => (1, cfg.standby_reconnects, STANDBY_JITTER_SALT),
        };
        let mut jitter = SplitMix::new(cfg.jitter_seed ^ salt);
        let mut failures = 0;
        let (addr_idx, (conn, epoch, job, history)) = loop {
            match sweep(addrs, 0, role) {
                Ok(found) => break found,
                Err(e) if failures + 1 >= sweeps => return Err(e),
                Err(_) => {
                    backoff(&cfg, failures, &mut jitter);
                    failures += 1;
                }
            }
        };
        let tail = Tail {
            addrs: addrs.to_vec(),
            addr_idx,
            role,
            cfg,
            budget,
            conn: Some(conn),
            closed: false,
            history,
            next_search: 0,
            epoch,
            failed_attempts: 0,
            jitter,
            reconnects: 0,
            pings: 0,
            tailed: 0,
        };
        Ok((tail, job))
    }

    /// Drive the connection until the role has something to do: the
    /// next search's selection is known, a frame for the role arrived,
    /// or the tail is closed.
    pub(crate) fn next(&mut self) -> Tailed {
        loop {
            if let Some(sel) = self.history.get(self.next_search as usize) {
                self.next_search += 1;
                return Tailed::Known(sel.clone());
            }
            if self.closed {
                return Tailed::Closed;
            }
            if self.conn.is_none() {
                self.reconnect();
                continue;
            }
            match self.poll() {
                Some(Msg::Chosen {
                    search_id,
                    selection,
                    ..
                }) => {
                    let have = self.history.len() as u64;
                    if search_id == have {
                        self.history.push(selection);
                        self.tailed += 1;
                    } else if search_id > have {
                        // Gap: an earlier Chosen was lost in transit.
                        self.drop_conn();
                    }
                    // search_id < have: a duplicate broadcast.
                }
                Some(msg) => return Tailed::Frame(msg),
                None => {}
            }
        }
    }

    /// One backoff-then-sweep attempt across the address list; the tail
    /// closes once `budget` consecutive attempts have failed.
    fn reconnect(&mut self) {
        if self.failed_attempts >= self.budget {
            self.closed = true;
            return;
        }
        backoff(&self.cfg, self.failed_attempts, &mut self.jitter);
        match sweep(&self.addrs, self.addr_idx, self.role) {
            Ok((idx, (conn, epoch, _job, history))) => {
                // A live coordinator's record is a superset of ours (it
                // appends before broadcasting) — unless we re-homed to a
                // standby that lost the tail, in which case we keep our
                // longer record and the fast path rides it out.
                if history.len() > self.history.len() {
                    self.history = history;
                }
                self.addr_idx = idx;
                self.epoch = epoch;
                self.conn = Some(conn);
                self.failed_attempts = 0;
                self.reconnects += 1;
            }
            Err(_) => {
                self.failed_attempts += 1;
                self.closed = self.failed_attempts >= self.budget;
            }
        }
    }

    /// One poll tick: a decoded frame, or `None` after silence (sending
    /// the heartbeat when one is due) or a dropped connection.
    fn poll(&mut self) -> Option<Msg> {
        let conn = self.conn.as_mut()?;
        match conn.reader.poll_frame() {
            Ok(Some(frame)) => {
                if let Ok(msg) = Msg::decode(&frame) {
                    conn.idle_ms = 0;
                    return Some(msg);
                }
            }
            Ok(None) => {
                conn.idle_ms += TICK_MS;
                conn.since_send_ms += TICK_MS;
                // Heartbeat: a one-way Ping whenever we have been quiet
                // for a third of the eviction window.
                if conn.since_send_ms >= self.cfg.heartbeat_timeout_ms / 3 {
                    if self.send(&Msg::Ping) {
                        self.pings += 1;
                    }
                    return None;
                }
                // Dead air past the idle window: a Chosen may have been
                // lost, so resync via the next Welcome.
                if conn.idle_ms < self.cfg.idle_reconnect_ms {
                    return None;
                }
            }
            Err(_) => {}
        }
        self.drop_conn();
        None
    }

    /// Write `msg` to the coordinator; a failed write drops the
    /// connection.  Returns whether the frame was written.
    pub(crate) fn send(&mut self, msg: &Msg) -> bool {
        let Some(conn) = self.conn.as_mut() else {
            return false;
        };
        conn.since_send_ms = 0;
        if write_frame(&mut conn.writer, &msg.encode()).is_ok() {
            return true;
        }
        self.drop_conn();
        false
    }

    /// Close the connection; the next [`Tail::next`] reconnects.
    pub(crate) fn drop_conn(&mut self) {
        if let Some(c) = self.conn.take() {
            let _ = c.writer.shutdown(Shutdown::Both);
        }
    }

    /// Leave the tail for good: the role runs every remaining search.
    pub(crate) fn close(&mut self) {
        self.drop_conn();
        self.closed = true;
    }

    /// Whether the tail is closed.
    pub(crate) fn is_closed(&self) -> bool {
        self.closed
    }

    /// Record the selection of a search the role ran itself.
    pub(crate) fn record(&mut self, sel: SeedSelection) {
        debug_assert_eq!(self.history.len() as u64, self.next_search);
        self.history.push(sel);
        self.next_search += 1;
    }

    /// The search the replica is on: the index of the next selection.
    pub(crate) fn next_search(&self) -> u64 {
        self.next_search
    }

    /// Every selection known so far, in search order.
    pub(crate) fn history(&self) -> &[SeedSelection] {
        &self.history
    }

    /// The epoch of the last `Welcome`.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// How many coordinators the address list names.
    pub(crate) fn addr_count(&self) -> usize {
        self.addrs.len()
    }
}
