#![warn(missing_docs)]
//! Fault-tolerant distributed seed search with coordinator failover.
//!
//! The seed search is the hot loop of the whole reproduction: every
//! derandomized step folds a `(sum, min, argmin)` reduce over `2^d`
//! seeds.  `parcolor-exec` already spreads that fold across one
//! machine's cores; this crate spreads it across a fleet, over plain
//! `std::net` TCP with a hand-rolled length-prefixed codec (no external
//! dependencies), and keeps the answer **bit-identical** to the
//! single-machine path under worker crashes, restarts, stragglers, a
//! lossy network — and, since protocol v2, the death of the
//! coordinator itself.
//!
//! ## Why re-issue (and failover) is exact
//!
//! Everything rests on one algebraic fact (see
//! [`parcolor_exec::SumMinArgmin`]): the per-seed cost is a pure
//! function of the seed, and the fold is a grouping-invariant reduce —
//! associative, commutative, with an explicit lowest-seed argmin
//! tie-break, and exact sums for the integer-valued cost functionals
//! the framework produces.  A work unit (a [`SEED_BLOCK`]-aligned seed
//! range) therefore has exactly one possible aggregate, no matter who
//! computes it, how many times it is computed, or in what order units
//! merge.  The coordinator may lease the same unit to three workers and
//! its own fallback path simultaneously; the first completed copy is
//! merged, the rest are **deduplicated by unit id**, and the final
//! [`SeedSelection`] — seed, cost, mean, trace, everything — is
//! field-for-field the one `select_seed_blocks_n` computes locally.
//! The identical argument covers a *promoted standby*: it replays the
//! dead primary's completed units from the replication stream and
//! re-leases the rest, and since every unit still has its one possible
//! aggregate, the fold — and the whole chosen-seed sequence — comes out
//! bit-identical to a never-failed run.  The strategy logic itself is
//! not reimplemented here: every path runs
//! [`parcolor_prg::select_seed_folded`] and differs only in the
//! [`parcolor_prg::RangeFolder`] plugged into it.
//!
//! ## Protocol (v2)
//!
//! One primary coordinator, any number of workers, optionally a standby
//! coordinator; one TCP connection each.  Frames are `u32`
//! little-endian length + payload ([`frame`]); the payload's first byte
//! tags the message ([`proto::Msg`]):
//!
//! ```text
//! worker                          primary                     standby
//!   | -- Hello{v2, role:Worker} ----> | <-- Hello{v2, role:Standby} - |
//!   | <-- Welcome{id, epoch, job,     | -- Welcome{...} ------------> |
//!   |             history} ---------- |                               |
//!   |                                 |                               |
//!   | <-- Grant{epoch, search, fold,  |                               |
//!   |       lease, unit, start, len}- |                               |
//!   | -- Result{epoch, search, fold,  | -- Replicate{epoch, search,   |
//!   |       [unit aggregates]} -----> |      fold_seq, geometry,      |
//!   |                                 |      unit, aggregate} ------> |
//!   | <-- Chosen{epoch, search, sel}- | -- Chosen ------------------> |
//!   |                                 |                               |
//!   | -- Ping ----------------------> |   idle heartbeat (liveness)   |
//!   | <-- Refuse{version, reason} --- |   friendly handshake refusal  |
//!   |                                 | -- Promote{epoch} ----------> |
//!   | -- Bye / <-- Bye -------------- |   orderly shutdown            |
//! ```
//!
//! A `Hello` with any other version is answered with
//! `Refuse{required_version: 2, ...}` — a clean version refusal on both
//! sides, never a panic.  A worker sends each unit's aggregate as soon
//! as it is folded, as a one-entry `Result`; the message carries a list
//! of unit aggregates, and the coordinator dedups and merges it entry by
//! entry.
//!
//! Workers are **replicated state machines**: each runs the full
//! deterministic solve on the same job bytes, so graph state never
//! crosses the wire — only leases, unit aggregates, and chosen
//! selections do.  Searches are issued sequentially in a deterministic
//! order (see [`parcolor_core::SeedSearcher`]), so a worker's replica
//! stays lock-step with the coordinator's; a worker that joins or
//! reconnects mid-solve fast-forwards through `Welcome.history` instead
//! of replaying network traffic.
//!
//! ## Epochs
//!
//! Every granted lease and every result carries the issuing
//! coordinator's **epoch** (primary = 1, each promotion += 1, or as
//! dictated by `Promote`).  A new primary's global fold counter
//! restarts, so `(search_id, fold_id)` pairs can alias across a
//! failover; the epoch check runs *before* unit dedup and drops a
//! stale-primary batch wholesale (the `fenced` stat counts them).
//! Fencing is defense-in-depth — a worker holds one connection at a
//! time, so in the common schedules stale frames die with the old
//! socket — but it makes the merge safe against any interleaving.
//!
//! ## Failover state machine
//!
//! A **standby** ([`standby::Standby`]) is the worker's replica tail
//! (one connection loop, shared code) plus a refusing listener plus a
//! full replica:
//!
//! 1. **Tailing** — connected to the primary with `role: Standby`, it
//!    receives the standard `Welcome`, every `Chosen`, and a
//!    `Replicate` frame per completed work unit carrying the unit's
//!    aggregate and its deterministic position (`search_id`, per-search
//!    `fold_seq`, fold geometry).  Its own listener answers worker
//!    handshakes with `Refuse("not primary")`.
//! 2. **Promotion trigger** — any of: `Promote{epoch}` from the primary
//!    (orderly handover), `Bye` (orderly shutdown with searches left),
//!    or `standby_reconnects` consecutive failed reconnects (crash).
//! 3. **Promoted** — the embedded [`DistCoordinator`] adopts the new
//!    epoch and the tailed history, starts accepting workers (the
//!    orphaned fleet's reconnect sweep lands here and fast-forwards via
//!    `Welcome.history`), and runs every remaining search through the
//!    normal leasing machinery.  Each fold's [`parcolor_exec::LeaseTable`]
//!    is pre-completed from the replicated state — geometry-checked
//!    against the deterministically re-derived fold, counted in
//!    `replayed_units` — so only work in flight at the death is
//!    re-leased.
//! 4. **Double fault** — if the standby dies too (or none exists),
//!    workers exhaust their reconnect budget and finish **standalone**:
//!    the same coloring from the in-process search, never a panic.
//!
//! ## Lease lifecycle
//!
//! Each fold slices its seed range into units of
//! `blocks_per_lease × SEED_BLOCK` seeds and tracks them in a
//! [`parcolor_exec::LeaseTable`]:
//!
//! 1. **Grant** — lowest pending unit first, to any live worker with
//!    fewer than `max_outstanding` leases, deadline `now +
//!    lease_timeout_ms`.  Standbys never serve leases.
//! 2. **Expire** — past-deadline leases return their unit to the front
//!    of the pending queue (straggler insurance); the unit is re-issued
//!    with a fresh lease id.  The straggler's late result is still
//!    accepted if it arrives first — whichever copy completes the unit
//!    wins, by the exactness argument above.
//! 3. **Orphan** — a disconnect or heartbeat eviction returns all of
//!    that worker's outstanding units to the pending queue.
//! 4. **Complete** — the worker returns each unit's aggregate in a
//!    `Result` frame of its own as soon as it is folded.  The first
//!    copy per unit merges into the fold accumulator and is streamed to
//!    the standbys as `Replicate`; later copies (and results for stale
//!    folds or fenced epochs) are counted and dropped.
//! 5. **Local fallback** — whenever no worker is connected, the
//!    coordinator folds pending units itself on the in-process pool, so
//!    the solve finishes even if the entire fleet dies (graceful
//!    degradation to `select_seed_blocks_n`).
//!
//! Workers and standbys share one replica tail: it reconnects with
//! exponential backoff plus deterministic jitter, sweeping the whole
//! ordered coordinator list per attempt, heartbeats, resyncs through
//! `Welcome.history` after a silence or a `Chosen` gap, and fast-forwards
//! through selections it already knows.  After `max_reconnects`
//! consecutive failed sweeps a worker flips to **standalone** mode and
//! finishes its replica locally — still producing the bit-identical
//! coloring, never a panic; after `standby_reconnects` a standby
//! promotes.
//!
//! [`chaos`] supplies the deterministic failure harness: a frame-aware
//! TCP proxy that drops, delays, and severs whole frames under a seeded
//! splitmix64 PRG, plus [`chaos::KillSwitch`] — progress-counted
//! coordinator kills (mid-fold, between folds, during promotion) that
//! close sockets abruptly and panic the solve thread, so the loopback
//! e2e suite ([`cluster`]) can assert bit-identity under every kill
//! schedule.
//!
//! [`SEED_BLOCK`]: parcolor_prg::SEED_BLOCK
//! [`SeedSelection`]: parcolor_prg::SeedSelection

pub mod chaos;
pub mod cluster;
pub mod coordinator;
pub mod frame;
pub mod proto;
pub mod standby;
mod tail;
pub mod worker;

pub use chaos::{ChaosConfig, ChaosProxy, FailoverSchedule, KillSpec, KillSwitch};
pub use cluster::{
    install_quiet_kill_hook, solve_on_cluster, solve_on_failover_cluster, ClusterOutcome,
    FailoverOutcome,
};
pub use coordinator::{CoordinatorKilled, DistCoordinator, DistStats, ReplicatedFold};
pub use standby::{run_standby, Standby, StandbySearcher, StandbyStats};
pub use worker::{run_worker, WorkerSearcher, WorkerStats};

/// Tuning knobs shared by the coordinator, the workers and the standbys.
#[derive(Clone, Debug)]
pub struct DistConfig {
    /// Lease deadline: a unit unacked for this long goes back to the
    /// pending queue and is re-issued.
    pub lease_timeout_ms: u64,
    /// Workers silent for this long are evicted and their leases
    /// orphaned (any frame counts as liveness, including `Ping`).
    pub heartbeat_timeout_ms: u64,
    /// Seed blocks per lease; the unit is `blocks_per_lease ×
    /// SEED_BLOCK` seeds.
    pub blocks_per_lease: u64,
    /// Coordinator event-loop tick (workers and standbys poll their
    /// connection on a fixed 25 ms tick).
    pub poll_ms: u64,
    /// Maximum leases outstanding per worker (pipelining depth).
    pub max_outstanding: usize,
    /// Folds shorter than this many seeds are evaluated on the
    /// coordinator without distribution (the deep bits of the bitwise
    /// walk are single blocks — round-tripping them would be all
    /// latency).  Purely a throughput knob: bit-identity holds at any
    /// value.
    pub min_remote_len: u64,
    /// Patience before the coordinator starts folding a stuck fold's
    /// pending units itself even though workers look alive (a worker
    /// whose results are all being dropped still heartbeats — without
    /// this, such a fold would re-issue forever).  Liveness backstop;
    /// `0` folds locally whenever a tick grants nothing.
    pub local_patience_ms: u64,
    /// Workers to wait for (up to `min_worker_wait_ms`) before the
    /// first fold starts granting, so tests and benches measure the
    /// fleet rather than the coordinator racing it alone.  A promoted
    /// standby applies the same wait before its first re-leased fold.
    pub min_workers: usize,
    /// How long to wait for `min_workers`.
    pub min_worker_wait_ms: u64,
    /// Worker and standby: initial reconnect backoff (doubles per
    /// failure).
    pub connect_backoff_ms: u64,
    /// Worker and standby: backoff ceiling.
    pub max_backoff_ms: u64,
    /// Worker: consecutive failed sweeps of the coordinator list
    /// tolerated before flipping to standalone (local) mode.
    pub max_reconnects: u32,
    /// Worker and standby: reconnect if the coordinator has been silent
    /// this long (covers a lost `Chosen` frame — the reconnect's
    /// `Welcome` history resynchronizes the replica).
    pub idle_reconnect_ms: u64,
    /// Standby: consecutive failed reconnects to the primary before
    /// concluding it is dead and promoting itself.
    pub standby_reconnects: u32,
    /// Worker and standby: seed for the backoff jitter PRG (a standby
    /// mixes in a constant so it does not back off in step with the
    /// workers).
    pub jitter_seed: u64,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            lease_timeout_ms: 2_000,
            heartbeat_timeout_ms: 5_000,
            blocks_per_lease: 4,
            poll_ms: 5,
            max_outstanding: 2,
            min_remote_len: 64,
            local_patience_ms: 4_000,
            min_workers: 0,
            min_worker_wait_ms: 5_000,
            connect_backoff_ms: 50,
            max_backoff_ms: 2_000,
            max_reconnects: 8,
            idle_reconnect_ms: 10_000,
            standby_reconnects: 3,
            jitter_seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}
