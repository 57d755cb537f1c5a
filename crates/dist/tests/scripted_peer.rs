//! Scripted-peer protocol tests: hand-driven TCP clients speak the wire
//! protocol directly to a real coordinator, exercising the merge/fence/
//! evict edges no well-behaved worker produces — double-sent results,
//! wrong-epoch batches, silent peers past the heartbeat deadline, and
//! version-mismatched handshakes.

use parcolor_core::framework::{SeedSearcher, SimScratch};
use parcolor_core::SeedStrategy;
use parcolor_dist::frame::{write_frame, FrameReader};
use parcolor_dist::proto::{Msg, Role, UnitResult, PROTO_VERSION};
use parcolor_dist::{DistConfig, DistCoordinator, Standby, WorkerSearcher};
use parcolor_prg::{fold_seed_range_in, select_seed_blocks_n, SeedSelection};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Pure integer-valued cost: exact sums, so any double-merge would shift
/// `mean_cost` and fail the selection-equality assert below.
fn eval(seed: u64, out: &mut [f64], _scratch: &mut SimScratch) {
    for (i, c) in out.iter_mut().enumerate() {
        *c = (((seed + i as u64) * 37 + 11) % 19) as f64;
    }
}

/// Generous-deadline config: nothing expires or falls back locally
/// unless a test wants it to.
fn patient_cfg() -> DistConfig {
    DistConfig {
        lease_timeout_ms: 10_000,
        heartbeat_timeout_ms: 10_000,
        local_patience_ms: 10_000,
        min_remote_len: 64,
        blocks_per_lease: 4,
        poll_ms: 2,
        max_outstanding: 2,
        min_workers: 1,
        min_worker_wait_ms: 10_000,
        ..DistConfig::default()
    }
}

struct ScriptedPeer {
    reader: FrameReader,
    writer: TcpStream,
}

/// Handshake by hand as a v2 worker; returns the peer and the Welcome's
/// `(epoch, job, history_len)`.
fn handshake(addr: std::net::SocketAddr) -> (ScriptedPeer, u64, Vec<u8>, usize) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(25)))
        .unwrap();
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = FrameReader::new(stream);
    write_frame(
        &mut writer,
        &Msg::Hello {
            version: PROTO_VERSION,
            role: Role::Worker,
        }
        .encode(),
    )
    .unwrap();
    let welcome = loop {
        if let Some(f) = reader.poll_frame().expect("welcome") {
            break Msg::decode(&f).expect("decode welcome");
        }
    };
    match welcome {
        Msg::Welcome {
            epoch,
            job,
            history,
            ..
        } => (ScriptedPeer { reader, writer }, epoch, job, history.len()),
        other => panic!("expected Welcome, got {other:?}"),
    }
}

#[test]
fn duplicated_results_are_merged_exactly_once() {
    let coordinator = Arc::new(
        DistCoordinator::bind("127.0.0.1:0", b"duplicate-test".to_vec(), patient_cfg())
            .expect("bind"),
    );
    let (mut peer, epoch, job, history_len) = handshake(coordinator.local_addr());
    assert_eq!(job, b"duplicate-test");
    assert_eq!(history_len, 0);
    assert_eq!(epoch, 1, "a primary starts at epoch 1");
    while coordinator.connected_workers() < 1 {
        std::thread::sleep(Duration::from_millis(1));
    }

    // Exhaustive over 2^8 seeds: one fold, 8 units of 32 — all leased to
    // the script because min_remote_len (64) < 256 and deadlines never
    // fire.
    let solve = {
        let coordinator = Arc::clone(&coordinator);
        std::thread::spawn(move || {
            SeedSearcher::select(&*coordinator, 8, SeedStrategy::Exhaustive, 2, 16, &eval)
        })
    };

    // Serve every grant — twice.
    let mut pool = vec![SimScratch::new(16)];
    let chosen = loop {
        let Some(f) = peer.reader.poll_frame().expect("peer read") else {
            continue;
        };
        match Msg::decode(&f).expect("peer decode") {
            Msg::Grant {
                epoch,
                search_id,
                fold_id,
                lease_id,
                unit,
                start,
                len,
            } => {
                let agg = fold_seed_range_in(&mut pool, start, len, &eval);
                let copy = UnitResult {
                    lease_id,
                    unit,
                    sum: agg.sum,
                    min: agg.min,
                    argmin: agg.argmin,
                };
                // Grants come lowest unit first, so the last unit's first
                // copy closes the fold; a second frame for it could land
                // after the fold stops draining.  Its two copies share one
                // batch instead, which drains as a whole.
                let batches = if unit + 1 == 8 {
                    vec![vec![copy, copy]]
                } else {
                    vec![vec![copy], vec![copy]]
                };
                for batch in batches {
                    let result = Msg::Result {
                        epoch,
                        search_id,
                        fold_id,
                        batch,
                    };
                    write_frame(&mut peer.writer, &result.encode()).unwrap();
                }
            }
            Msg::Chosen { selection, .. } => break selection,
            Msg::Ping | Msg::Bye => {}
            other => panic!("unexpected frame for scripted peer: {other:?}"),
        }
    };

    let distributed = solve.join().expect("select must finish");
    let expected =
        select_seed_blocks_n(8, SeedStrategy::Exhaustive, 2, || SimScratch::new(16), eval);
    assert_eq!(distributed, expected, "dedup failed: selection diverged");
    assert_eq!(chosen, expected, "broadcast selection diverged");

    let stats = coordinator.stats();
    assert_eq!(
        stats.remote_units, 8,
        "all 8 units served remotely: {stats:?}"
    );
    assert_eq!(stats.local_units, 0, "{stats:?}");
    assert!(
        stats.duplicates >= 8,
        "every double-send must be rejected: {stats:?}"
    );
    assert_eq!(stats.reissued, 0, "{stats:?}");
    coordinator.shutdown();
}

#[test]
fn wrong_epoch_results_are_fenced_not_merged() {
    let coordinator = Arc::new(
        DistCoordinator::bind("127.0.0.1:0", b"fence-test".to_vec(), patient_cfg()).expect("bind"),
    );
    let (mut peer, _epoch, _job, _hist) = handshake(coordinator.local_addr());
    while coordinator.connected_workers() < 1 {
        std::thread::sleep(Duration::from_millis(1));
    }

    let solve = {
        let coordinator = Arc::clone(&coordinator);
        std::thread::spawn(move || {
            SeedSearcher::select(&*coordinator, 8, SeedStrategy::Exhaustive, 2, 16, &eval)
        })
    };

    // For every grant, first answer with a *stale-primary* epoch — the
    // coordinator must drop the whole batch before dedup even looks at
    // the unit — then with the real one.
    let mut pool = vec![SimScratch::new(16)];
    let chosen = loop {
        let Some(f) = peer.reader.poll_frame().expect("peer read") else {
            continue;
        };
        match Msg::decode(&f).expect("peer decode") {
            Msg::Grant {
                epoch,
                search_id,
                fold_id,
                lease_id,
                unit,
                start,
                len,
            } => {
                let agg = fold_seed_range_in(&mut pool, start, len, &eval);
                let batch = vec![UnitResult {
                    lease_id,
                    unit,
                    sum: agg.sum,
                    min: agg.min,
                    argmin: agg.argmin,
                }];
                // Poisoned copy: a *wrong aggregate* under a stale
                // epoch.  If fencing failed to drop it, the merge would
                // be corrupted and the selection assert below would
                // catch it.
                let stale = Msg::Result {
                    epoch: epoch + 999,
                    search_id,
                    fold_id,
                    batch: vec![UnitResult {
                        lease_id,
                        unit,
                        sum: agg.sum + 1.0e6,
                        min: -1.0e6,
                        argmin: 0,
                    }],
                };
                write_frame(&mut peer.writer, &stale.encode()).unwrap();
                let good = Msg::Result {
                    epoch,
                    search_id,
                    fold_id,
                    batch,
                };
                write_frame(&mut peer.writer, &good.encode()).unwrap();
            }
            Msg::Chosen { selection, .. } => break selection,
            Msg::Ping | Msg::Bye => {}
            other => panic!("unexpected frame for scripted peer: {other:?}"),
        }
    };

    let distributed = solve.join().expect("select must finish");
    let expected =
        select_seed_blocks_n(8, SeedStrategy::Exhaustive, 2, || SimScratch::new(16), eval);
    assert_eq!(distributed, expected, "fencing failed: selection diverged");
    assert_eq!(chosen, expected);

    let stats = coordinator.stats();
    assert!(
        stats.fenced >= 8,
        "every stale-epoch batch must be fenced: {stats:?}"
    );
    assert_eq!(stats.remote_units, 8, "{stats:?}");
    assert_eq!(stats.duplicates, 0, "fencing runs before dedup: {stats:?}");
    coordinator.shutdown();
}

#[test]
fn silent_peer_is_evicted_and_its_leases_requeued() {
    // A worker that handshakes, takes grants, then never sends another
    // frame: the heartbeat sweep must evict it, orphan its in-flight
    // leases back to the pending queue, and the solve must still finish
    // (local fallback — the fleet is gone) with the exact selection.
    let cfg = DistConfig {
        heartbeat_timeout_ms: 150,
        ..patient_cfg()
    };
    let coordinator =
        Arc::new(DistCoordinator::bind("127.0.0.1:0", b"evict-test".to_vec(), cfg).expect("bind"));
    let (mut peer, _epoch, _job, _hist) = handshake(coordinator.local_addr());
    while coordinator.connected_workers() < 1 {
        std::thread::sleep(Duration::from_millis(1));
    }

    let solve = {
        let coordinator = Arc::clone(&coordinator);
        std::thread::spawn(move || {
            SeedSearcher::select(&*coordinator, 8, SeedStrategy::Exhaustive, 2, 16, &eval)
        })
    };

    // Read until the first grant arrives (proving leases were issued to
    // this peer), then fall silent past the heartbeat deadline.
    loop {
        match peer.reader.poll_frame() {
            Ok(Some(f)) => {
                if matches!(Msg::decode(&f), Ok(Msg::Grant { .. })) {
                    break;
                }
            }
            Ok(None) => continue,
            Err(e) => panic!("grant never arrived: {e}"),
        }
    }

    let distributed = solve.join().expect("select must finish despite silence");
    let expected =
        select_seed_blocks_n(8, SeedStrategy::Exhaustive, 2, || SimScratch::new(16), eval);
    assert_eq!(distributed, expected, "eviction path diverged");

    let stats = coordinator.stats();
    assert_eq!(stats.evictions, 1, "silent peer must be evicted: {stats:?}");
    assert!(
        stats.orphaned >= 1,
        "its in-flight leases must be orphaned and re-queued: {stats:?}"
    );
    assert_eq!(
        stats.remote_units, 0,
        "the silent peer served nothing: {stats:?}"
    );
    assert_eq!(
        stats.local_units, 8,
        "orphaned units must complete via local fallback: {stats:?}"
    );
    coordinator.shutdown();
}

#[test]
fn version_mismatch_hello_gets_a_clean_refusal() {
    let coordinator = Arc::new(
        DistCoordinator::bind("127.0.0.1:0", b"version-test".to_vec(), patient_cfg())
            .expect("bind"),
    );
    let stream = TcpStream::connect(coordinator.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(25)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = FrameReader::new(stream);
    // A well-formed Hello from a peer one protocol version ahead.
    let hello = Msg::Hello {
        version: PROTO_VERSION + 1,
        role: Role::Worker,
    };
    write_frame(&mut writer, &hello.encode()).unwrap();
    let reply = loop {
        match reader.poll_frame() {
            Ok(Some(f)) => break Msg::decode(&f).expect("refusal must decode"),
            Ok(None) => continue,
            Err(e) => panic!("expected a Refuse frame, got connection error: {e}"),
        }
    };
    match reply {
        Msg::Refuse {
            required_version,
            reason,
        } => {
            assert_eq!(required_version, PROTO_VERSION);
            assert!(
                reason.contains("version"),
                "reason must name the version mismatch: {reason:?}"
            );
        }
        other => panic!("expected Refuse, got {other:?}"),
    }
    assert_eq!(
        coordinator.connected_workers(),
        0,
        "a refused peer must not register"
    );
    coordinator.shutdown();
}

#[test]
fn worker_surfaces_a_refusal_as_a_friendly_error() {
    // A "coordinator" that refuses every handshake (what an unpromoted
    // standby or a version-mismatched server sends): the worker's
    // connect must fail with a readable error, not a panic or a hang.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        for _ in 0..4 {
            let Ok((stream, _)) = listener.accept() else {
                return;
            };
            stream
                .set_read_timeout(Some(Duration::from_millis(200)))
                .ok();
            let mut reader = FrameReader::new(stream.try_clone().unwrap());
            let _ = reader.poll_frame(); // consume the Hello
            let mut w = stream;
            let _ = write_frame(
                &mut w,
                &Msg::Refuse {
                    required_version: PROTO_VERSION,
                    reason: "not primary: this coordinator is an unpromoted standby".into(),
                }
                .encode(),
            );
        }
    });
    let cfg = DistConfig {
        max_reconnects: 2,
        connect_backoff_ms: 1,
        max_backoff_ms: 5,
        ..DistConfig::default()
    };
    let err = WorkerSearcher::connect(&[addr.to_string()], cfg)
        .err()
        .expect("refused handshake must be an error");
    let msg = err.to_string();
    assert!(
        msg.contains("refused") && msg.contains("not primary"),
        "error must carry the peer's reason: {msg:?}"
    );
    drop(server); // server thread exits on its own accept budget
}

#[test]
fn worker_connect_fails_without_a_backoff_after_its_last_sweep() {
    // One sweep in the budget and a 5 s backoff: an address nobody
    // listens on must fail at once, not after one more backoff.
    let addr = TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    let cfg = DistConfig {
        max_reconnects: 1,
        connect_backoff_ms: 5_000,
        max_backoff_ms: 5_000,
        ..DistConfig::default()
    };
    let t0 = Instant::now();
    let err = WorkerSearcher::connect(&[addr.to_string()], cfg)
        .err()
        .expect("nothing listens there");
    let waited = t0.elapsed();
    assert!(
        waited < Duration::from_secs(1),
        "connect returned after {waited:?}: {err}"
    );
}

fn selection(seed: u64) -> SeedSelection {
    SeedSelection {
        seed,
        cost: seed as f64,
        mean_cost: 7.5,
        min_cost: seed as f64,
        evaluated: 256,
        trace: Vec::new(),
    }
}

/// A scripted coordinator that skips a `Chosen`: the first connection's
/// `Welcome` has an empty history and is followed by search 1's
/// `Chosen`, never search 0's; the second connection's `Welcome`
/// carries both selections.  Each connection is held until the peer
/// closes it, and the thread ends after the second.
fn gap_coordinator(selections: [SeedSelection; 2]) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        for history in [Vec::new(), selections.to_vec()] {
            let (stream, _) = listener.accept().expect("accept");
            stream
                .set_read_timeout(Some(Duration::from_millis(25)))
                .unwrap();
            let mut reader = FrameReader::new(stream.try_clone().unwrap());
            let hello = loop {
                if let Some(f) = reader.poll_frame().expect("hello") {
                    break f;
                }
            };
            assert!(matches!(Msg::decode(&hello), Ok(Msg::Hello { .. })));
            let skip = history.is_empty();
            let mut w = stream;
            let welcome = Msg::Welcome {
                worker_id: 1,
                epoch: 1,
                job: b"gap-test".to_vec(),
                history,
            };
            write_frame(&mut w, &welcome.encode()).unwrap();
            if skip {
                let chosen = Msg::Chosen {
                    epoch: 1,
                    search_id: 1,
                    selection: selections[1].clone(),
                };
                write_frame(&mut w, &chosen.encode()).unwrap();
            }
            while reader.poll_frame().is_ok() {}
        }
    });
    (addr, server)
}

/// Quick reconnects, and an idle window far past [`GAP_DEADLINE`], so
/// only the gap itself can trigger the resync in time.
fn gap_cfg() -> DistConfig {
    DistConfig {
        connect_backoff_ms: 1,
        max_backoff_ms: 5,
        idle_reconnect_ms: 30_000,
        ..DistConfig::default()
    }
}

const GAP_DEADLINE: Duration = Duration::from_secs(5);

#[test]
fn replicas_resync_through_welcome_after_a_chosen_gap() {
    // The worker and the standby drive the same tail: each must drop
    // the connection on the gap, reconnect once, and fast-forward
    // through the second Welcome's history.
    let selections = [selection(3), selection(5)];
    let (addr, server) = gap_coordinator(selections.clone());
    let t0 = Instant::now();
    let worker = WorkerSearcher::connect(&[addr.to_string()], gap_cfg()).expect("connect");
    for expected in &selections {
        let got = SeedSearcher::select(&worker, 8, SeedStrategy::Exhaustive, 1, 16, &eval);
        assert_eq!(
            &got, expected,
            "worker: selection not from the second Welcome"
        );
    }
    assert!(
        t0.elapsed() < GAP_DEADLINE,
        "worker resynced by the idle window"
    );
    let stats = worker.stats();
    assert_eq!(stats.reconnects, 1, "one resync per gap: {stats:?}");
    assert_eq!(stats.adopted, 2, "{stats:?}");
    assert_eq!(stats.served_units, 0, "{stats:?}");
    assert!(!worker.is_standalone());
    worker.finish();
    server.join().expect("scripted coordinator");

    let (addr, server) = gap_coordinator(selections.clone());
    let t0 = Instant::now();
    let standby =
        Standby::start("127.0.0.1:0", &addr.to_string(), gap_cfg()).expect("standby start");
    let searcher = standby.searcher();
    for expected in &selections {
        let got = SeedSearcher::select(&*searcher, 8, SeedStrategy::Exhaustive, 1, 16, &eval);
        assert_eq!(
            &got, expected,
            "standby: selection not from the second Welcome"
        );
    }
    assert!(
        t0.elapsed() < GAP_DEADLINE,
        "standby resynced by the idle window"
    );
    let stats = standby.stats();
    assert_eq!(stats.reconnects, 1, "one resync per gap: {stats:?}");
    assert_eq!(stats.tailed_selections, 0, "{stats:?}");
    assert!(!stats.promoted, "{stats:?}");
    assert_eq!(standby.history(), selections);
    standby.finish();
    // Dropping the standby closes its tail, which ends the script.
    drop(searcher);
    drop(standby);
    server.join().expect("scripted coordinator");
}
