//! Deterministic network chaos: a frame-aware TCP proxy.
//!
//! [`ChaosProxy`] sits between a worker and the coordinator and
//! mistreats traffic at **frame granularity** — whole messages are
//! dropped, delayed, or the connection severed, but a frame is never
//! split, so chaos exercises the protocol's loss handling rather than
//! trivially corrupting the codec.  Every decision comes from a
//! [`SplitMix`] stream seeded per `(proxy seed, connection, frame
//! direction)`, so a schedule is reproducible: the same seed yields the
//! same drop/delay pattern at every run (modulo wall-clock
//! interleaving, which the protocol must tolerate anyway — that is the
//! point).
//!
//! Severing closes both directions after a fixed number of forwarded
//! frames, which models a worker killed mid-lease; the worker's
//! reconnect (a fresh proxied connection) models its restart.

use crate::frame::{write_frame, FrameReader};
use parcolor_local::tape::SplitMix;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// When to kill a coordinator, in deterministic progress units rather
/// than wall clock — the same spec fires at the same logical point in
/// every run.
#[derive(Clone, Copy, Debug, Default)]
pub struct KillSpec {
    /// Fire after this many completed units (remote merges + local
    /// fallbacks + pure-local units), counted across the whole solve.
    /// Mid-fold kills: pick a count smaller than the first fold's unit
    /// count.
    pub after_units: Option<u64>,
    /// Fire on entry to the Nth `fold_range` call (1-based: `Some(2)`
    /// dies *between* the first and second fold).
    pub after_folds: Option<u64>,
    /// Fire during promotion itself — the double-fault schedule: the
    /// standby dies while taking over.
    pub on_promotion: bool,
}

impl KillSpec {
    /// Kill mid-fold, after `units` completed units.
    pub fn after_units(units: u64) -> Self {
        KillSpec {
            after_units: Some(units),
            ..KillSpec::default()
        }
    }

    /// Kill between folds, on entry to fold number `n` (1-based).
    pub fn after_folds(n: u64) -> Self {
        KillSpec {
            after_folds: Some(n),
            ..KillSpec::default()
        }
    }

    /// Kill during promotion (standby double fault).
    pub fn on_promotion() -> Self {
        KillSpec {
            on_promotion: true,
            ..KillSpec::default()
        }
    }
}

/// The armed form of a [`KillSpec`]: shared atomic progress counters
/// the coordinator consults at each unit completion, fold entry, and
/// promotion.  Arm with `DistCoordinator::arm_kill`; when a check
/// trips, the coordinator closes every socket abruptly (no `Bye`) and
/// panics its solve thread with `CoordinatorKilled`.
#[derive(Debug)]
pub struct KillSwitch {
    spec: KillSpec,
    units: AtomicU64,
    folds: AtomicU64,
    fired: AtomicBool,
}

impl KillSwitch {
    /// Arm `spec`.
    pub fn arm(spec: KillSpec) -> Arc<KillSwitch> {
        Arc::new(KillSwitch {
            spec,
            units: AtomicU64::new(0),
            folds: AtomicU64::new(0),
            fired: AtomicBool::new(false),
        })
    }

    fn fire(&self) -> bool {
        !self.fired.swap(true, Ordering::SeqCst)
    }

    /// Record one completed unit; true if the switch fires now.
    pub fn note_unit(&self) -> bool {
        let n = self.units.fetch_add(1, Ordering::SeqCst) + 1;
        match self.spec.after_units {
            Some(k) if n >= k && !self.fired.load(Ordering::SeqCst) => self.fire(),
            _ => false,
        }
    }

    /// Record one fold entry; true if the switch fires now.
    pub fn note_fold(&self) -> bool {
        let n = self.folds.fetch_add(1, Ordering::SeqCst) + 1;
        match self.spec.after_folds {
            Some(k) if n >= k && !self.fired.load(Ordering::SeqCst) => self.fire(),
            _ => false,
        }
    }

    /// Record a promotion attempt; true if the switch fires now.
    pub fn note_promotion(&self) -> bool {
        if self.spec.on_promotion && !self.fired.load(Ordering::SeqCst) {
            self.fire()
        } else {
            false
        }
    }

    /// Whether the switch has fired.
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::SeqCst)
    }
}

/// A failover gauntlet schedule: when the primary dies, and (for the
/// double-fault scenario) when the standby dies too.
#[derive(Clone, Copy, Debug, Default)]
pub struct FailoverSchedule {
    /// Kill spec armed on the primary (`None` = primary survives).
    pub primary_kill: Option<KillSpec>,
    /// Kill spec armed on the standby (`None` = standby survives).
    pub standby_kill: Option<KillSpec>,
}

/// One proxy's misbehavior schedule.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// PRG seed; same seed → same decision sequence.
    pub seed: u64,
    /// Probability (per mille) of silently dropping a frame.
    pub drop_per_mille: u32,
    /// Fixed floor added to every frame's forwarding latency.
    pub delay_min_ms: u64,
    /// Additional uniform jitter `0..=delay_jitter_ms` per frame.
    pub delay_jitter_ms: u64,
    /// Sever the connection (both directions) after this many frames
    /// have been forwarded across it, counting both directions.  Every
    /// connection through the proxy gets the same treatment, so a
    /// reconnecting worker is "killed" again and again.
    pub sever_after: Option<u64>,
    /// Never drop the first frames of a connection (per direction) —
    /// keeps `Hello`/`Welcome` deliverable so schedules exercise
    /// steady-state loss rather than pure connection failure.  Severing
    /// ignores this.
    pub protect_first: u64,
}

impl ChaosConfig {
    /// A proxy that forwards faithfully (baseline).
    pub fn clean(seed: u64) -> Self {
        ChaosConfig {
            seed,
            drop_per_mille: 0,
            delay_min_ms: 0,
            delay_jitter_ms: 0,
            sever_after: None,
            protect_first: 2,
        }
    }

    /// Kill every connection after `frames` forwarded frames.
    pub fn killer(seed: u64, frames: u64) -> Self {
        ChaosConfig {
            sever_after: Some(frames),
            ..ChaosConfig::clean(seed)
        }
    }

    /// Delay every frame by at least `min` ms (straggler link).
    pub fn straggler(seed: u64, min: u64, jitter: u64) -> Self {
        ChaosConfig {
            delay_min_ms: min,
            delay_jitter_ms: jitter,
            ..ChaosConfig::clean(seed)
        }
    }

    /// Drop `per_mille`/1000 of frames (lossy link).
    pub fn lossy(seed: u64, per_mille: u32) -> Self {
        ChaosConfig {
            drop_per_mille: per_mille,
            ..ChaosConfig::clean(seed)
        }
    }
}

/// A running chaos proxy; connect workers to [`ChaosProxy::addr`]
/// instead of the coordinator.
pub struct ChaosProxy {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ChaosProxy {
    /// Start a proxy on an ephemeral loopback port forwarding to
    /// `target` under `cfg`'s schedule.
    pub fn start(target: SocketAddr, cfg: ChaosConfig) -> io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::spawn(move || {
            let mut conn_index: u64 = 0;
            loop {
                if flag.load(Ordering::SeqCst) {
                    return;
                }
                match listener.accept() {
                    Ok((client, _)) => {
                        let i = conn_index;
                        conn_index += 1;
                        let flag = Arc::clone(&flag);
                        std::thread::spawn(move || proxy_connection(client, target, cfg, i, flag));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
        });
        Ok(ChaosProxy {
            addr,
            shutdown,
            handle: Some(handle),
        })
    }

    /// Address workers should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and tear down.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn proxy_connection(
    client: TcpStream,
    target: SocketAddr,
    cfg: ChaosConfig,
    conn_index: u64,
    shutdown: Arc<AtomicBool>,
) {
    let upstream = match TcpStream::connect(target) {
        Ok(s) => s,
        Err(_) => {
            let _ = client.shutdown(Shutdown::Both);
            return;
        }
    };
    let forwarded = Arc::new(AtomicU64::new(0));
    let severed = Arc::new(AtomicBool::new(false));

    let c2s = {
        let (src, dst) = (
            client.try_clone().expect("clone client"),
            upstream.try_clone().expect("clone upstream"),
        );
        let (fwd, sev, flag) = (
            Arc::clone(&forwarded),
            Arc::clone(&severed),
            Arc::clone(&shutdown),
        );
        std::thread::spawn(move || pump(src, dst, cfg, conn_index, 0, fwd, sev, flag))
    };
    pump(
        upstream, client, cfg, conn_index, 1, forwarded, severed, shutdown,
    );
    let _ = c2s.join();
}

/// Forward whole frames src → dst under the chaos schedule.  Direction
/// 0 is client→server, 1 is server→client; each direction draws from
/// its own PRG stream so schedules are reproducible per direction.
#[allow(clippy::too_many_arguments)]
fn pump(
    src: TcpStream,
    dst: TcpStream,
    cfg: ChaosConfig,
    conn_index: u64,
    direction: u64,
    forwarded: Arc<AtomicU64>,
    severed: Arc<AtomicBool>,
    shutdown: Arc<AtomicBool>,
) {
    let _ = src.set_read_timeout(Some(Duration::from_millis(20)));
    let mut prg = SplitMix::new(
        cfg.seed ^ conn_index.wrapping_mul(0x9E37_79B9) ^ direction.wrapping_mul(0x85EB_CA6B),
    );
    let mut reader = FrameReader::new(src.try_clone().expect("clone pump src"));
    let mut dst_w = dst.try_clone().expect("clone pump dst");
    let mut frame_idx: u64 = 0;
    loop {
        if shutdown.load(Ordering::SeqCst) || severed.load(Ordering::SeqCst) {
            break;
        }
        match reader.poll_frame() {
            Ok(Some(frame)) => {
                let total = forwarded.fetch_add(1, Ordering::SeqCst);
                if let Some(n) = cfg.sever_after {
                    if total + 1 >= n {
                        severed.store(true, Ordering::SeqCst);
                        break;
                    }
                }
                let protected = frame_idx < cfg.protect_first;
                frame_idx += 1;
                if !protected
                    && cfg.drop_per_mille > 0
                    && prg.next_u64() % 1000 < cfg.drop_per_mille as u64
                {
                    continue; // dropped on the floor
                }
                let delay = cfg.delay_min_ms
                    + if cfg.delay_jitter_ms > 0 {
                        prg.next_u64() % (cfg.delay_jitter_ms + 1)
                    } else {
                        0
                    };
                if delay > 0 {
                    std::thread::sleep(Duration::from_millis(delay));
                }
                if write_frame(&mut dst_w, &frame).is_err() {
                    break;
                }
            }
            Ok(None) => continue,
            Err(_) => break,
        }
    }
    let _ = src.shutdown(Shutdown::Both);
    let _ = dst.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn splitmix_is_deterministic_and_spread() {
        let mut a = SplitMix::new(7);
        let mut b = SplitMix::new(7);
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 64, "no collisions in 64 draws");
    }

    fn echo_server() -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let h = std::thread::spawn(move || {
            if let Ok((s, _)) = listener.accept() {
                let mut r = FrameReader::new(s.try_clone().unwrap());
                let mut w = s;
                loop {
                    match r.poll_frame() {
                        Ok(Some(f)) => {
                            if write_frame(&mut w, &f).is_err() {
                                return;
                            }
                        }
                        Ok(None) => continue,
                        Err(_) => return,
                    }
                }
            }
        });
        (addr, h)
    }

    #[test]
    fn clean_proxy_forwards_frames() {
        let (addr, server) = echo_server();
        let proxy = ChaosProxy::start(addr, ChaosConfig::clean(1)).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        write_frame(&mut c, b"ping-frame").unwrap();
        let mut r = FrameReader::new(c.try_clone().unwrap());
        let echoed = loop {
            if let Some(f) = r.poll_frame().unwrap() {
                break f;
            }
        };
        assert_eq!(echoed, b"ping-frame");
        drop(c);
        drop(proxy);
        let _ = server.join();
    }

    #[test]
    fn severing_proxy_cuts_the_connection() {
        let (addr, server) = echo_server();
        // Sever after 3 forwarded frames (both directions counted).
        let proxy = ChaosProxy::start(addr, ChaosConfig::killer(2, 3)).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        let mut r = FrameReader::new(c.try_clone().unwrap());
        let mut echoed = 0;
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        for i in 0..10u8 {
            if write_frame(&mut c, &[i]).is_err() {
                break;
            }
            loop {
                match r.poll_frame() {
                    Ok(Some(_)) => {
                        echoed += 1;
                        break;
                    }
                    Ok(None) => {
                        if std::time::Instant::now() > deadline {
                            break;
                        }
                    }
                    Err(_) => break,
                }
                if std::time::Instant::now() > deadline {
                    break;
                }
            }
            if std::time::Instant::now() > deadline {
                break;
            }
        }
        assert!(echoed < 10, "sever must interrupt the echo stream");
        drop(c);
        drop(proxy);
        let _ = server.join();
    }

    #[test]
    fn delaying_proxy_preserves_content() {
        let (addr, server) = echo_server();
        let proxy = ChaosProxy::start(addr, ChaosConfig::straggler(3, 30, 20)).unwrap();
        let t0 = std::time::Instant::now();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        write_frame(&mut c, b"slow").unwrap();
        c.flush().unwrap();
        let mut r = FrameReader::new(c.try_clone().unwrap());
        let echoed = loop {
            if let Some(f) = r.poll_frame().unwrap() {
                break f;
            }
        };
        assert_eq!(echoed, b"slow");
        // Round trip crosses the delay twice (c→s and s→c).
        assert!(
            t0.elapsed() >= Duration::from_millis(60),
            "{:?}",
            t0.elapsed()
        );
        drop(c);
        drop(proxy);
        let _ = server.join();
    }
}
