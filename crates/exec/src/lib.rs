//! Persistent work-stealing executor — the workspace's one thread pool.
//!
//! Extracted from `parcolor-prg::seed_search`, where the pattern was
//! proven on the seed-search hot loop: workers **steal fixed-size index
//! blocks off one shared atomic counter** and fold per-worker partials
//! that a grouping-invariant merge combines into a deterministic result.
//! This crate generalizes that scheduler so every data-parallel surface —
//! seed search, the Definition-2 stage pass, the `Vstart` flag passes,
//! each step's in-stage rows (stage-position stripes), the MPC
//! accounting and partition-diagnostic folds, the CSR row sort, the
//! residual-palette update that applies a step's adoptions (node-id
//! stripes) and the final coloring check (a fold over node-id stripes)
//! — shares **one lazily-spawned persistent pool** instead of spawning
//! scoped threads per call.  Callers reach it directly through [`par_fold`],
//! [`par_fill`] and friends; everything else in the workspace is plain
//! sequential code.  That includes simulating a derandomized step under
//! its chosen seed (one pass per step; striping it over the pool
//! measured no faster at 2 workers).
//!
//! ## The executor contract
//!
//! Every parallel entry point ([`par_fold`], [`par_fold_in`],
//! [`par_map_chunks`], [`par_fill`]) imposes the same rules on its
//! closures; violating any of them makes results worker-count- or
//! steal-order-dependent (or unsound, for the scatter paths):
//!
//! * **Purity.**  `eval`/`fill` must be pure functions of their index
//!   range (plus shared read-only captures).  Which worker evaluates
//!   which block, and in which order, is nondeterministic; only the
//!   per-index values may not be.
//! * **Grouping invariance.**  `merge` must be associative and
//!   commutative with `identity` as a neutral element, and the per-block
//!   fold must distribute over it.  Integer-valued sums, `min`, and
//!   `argmin` with an explicit lowest-index tie-break
//!   ([`SumMinArgmin`]) qualify exactly; float sums are
//!   grouping-invariant only when every addend is integer-valued (all
//!   SSP cost functionals in this workspace) — otherwise the low bits of
//!   a sum may vary run to run even though `min`/`argmin` stay exact.
//! * **Scratch ownership.**  Worker `w` owns scratch slot `w` for the
//!   whole call: `eval` may mutate it freely, but evaluations must not
//!   depend on what a previous block left in it beyond capacity (a
//!   scratch is an optimization detail, never state).
//! * **Tie-breaks are explicit.**  Any argmin-like reduce must break
//!   ties by index, not by arrival order; [`SumMinArgmin::observe`] and
//!   [`SumMinArgmin::merge`] do this, which is what makes the selection
//!   independent of the steal schedule.
//!
//! ## Scheduling
//!
//! The pool is created lazily on first use and **persists for the
//! process lifetime** — repeated calls reuse the same parked workers, so
//! hot paths (one seed search per derandomized step, several folds per
//! round) never pay thread-spawn latency.  The calling thread always
//! participates as worker 0; `workers <= 1` runs inline with no
//! synchronization at all.  Calls from *inside* a pool worker (a
//! procedure whose cost evaluation itself reaches a parallel fold) are
//! detected via a thread-local flag and collapse to the inline serial
//! path — nested parallelism cannot deadlock the pool, it just runs
//! sequentially inside the already-parallel outer call.
//!
//! Panics in worker closures are caught, the call completes its
//! synchronization, and the first captured payload is re-thrown on the
//! caller thread.

use std::any::Any;
use std::cell::Cell;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Condvar, Mutex, OnceLock};

pub mod lease;
pub use lease::{Lease, LeaseStats, LeaseTable};

/// Upper bound on pool helpers — a sanity cap far above any real host.
const MAX_WORKERS: usize = 256;

thread_local! {
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is one of the executor's pool workers.
/// Parallel entry points consult this to run nested calls inline.
pub fn in_pool_worker() -> bool {
    IN_POOL.with(|f| f.get())
}

/// Outcome of parsing a thread-count environment variable.  Pure —
/// exposed so the malformed-input handling is unit-testable without
/// mutating the process environment (tests run multi-threaded).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ThreadVar {
    /// Variable not set.
    Unset,
    /// A usable positive thread count.
    Valid(usize),
    /// Set but unusable (non-numeric, zero, negative, empty…); the raw
    /// value is carried for the warning message.
    Invalid(String),
}

/// Parse the value of a thread-count variable.  Accepts surrounding
/// whitespace; anything that is not a positive integer is [`ThreadVar::Invalid`].
pub fn parse_thread_var(value: Option<&str>) -> ThreadVar {
    match value {
        None => ThreadVar::Unset,
        Some(raw) => match raw.trim().parse::<usize>() {
            Ok(t) if t > 0 => ThreadVar::Valid(t),
            _ => ThreadVar::Invalid(raw.to_string()),
        },
    }
}

/// Worker-thread count configured for this process: the
/// `PARCOLOR_THREADS` env var if set, else all hardware threads.  A
/// malformed value (`"abc"`, `"0"`, `"-3"`…) warns and falls through as
/// if unset — a typo must degrade to the hardware-thread default loudly,
/// not silently misconfigure the pool.  Read once, at the first call, and
/// cached for the process.
pub fn configured_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        let hardware = || std::thread::available_parallelism().map_or(1, |p| p.get());
        match parse_thread_var(std::env::var("PARCOLOR_THREADS").ok().as_deref()) {
            ThreadVar::Unset => hardware(),
            ThreadVar::Valid(t) => t,
            ThreadVar::Invalid(raw) => {
                eprintln!(
                    "parcolor: ignoring PARCOLOR_THREADS={raw:?}: expected a positive \
                     integer thread count; falling back to hardware threads"
                );
                hardware()
            }
        }
    })
}

/// Resolve a requested worker count: `0` = auto ([`configured_threads`]),
/// anything else is taken literally (clamped to the pool's sanity cap).
pub fn resolve_workers(requested: usize) -> usize {
    let w = if requested > 0 {
        requested
    } else {
        configured_threads()
    };
    w.clamp(1, MAX_WORKERS)
}

// ---------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------

/// Call-scoped shared state: the erased job closure plus the completion
/// latch helpers count down on.
struct JobShared {
    /// The caller's `Fn(worker_id)`, lifetime-erased.  Valid until the
    /// caller observes `remaining == 0` — workers must not touch it (or
    /// this struct) after their decrement.
    f: *const (dyn Fn(usize) + Sync),
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

struct Job {
    shared: *const JobShared,
    worker: usize,
}

// SAFETY: the raw pointers are only dereferenced while the issuing
// `run_on` call is blocked on the latch, which keeps the pointees alive;
// the closure itself is `Sync`.
unsafe impl Send for Job {}

fn worker_loop(rx: std::sync::mpsc::Receiver<Job>) {
    IN_POOL.with(|f| f.set(true));
    while let Ok(job) = rx.recv() {
        // SAFETY: see `Job`'s Send justification.
        let shared = unsafe { &*job.shared };
        let f = unsafe { &*shared.f };
        if let Err(p) = catch_unwind(AssertUnwindSafe(|| f(job.worker))) {
            *shared.panic.lock().unwrap() = Some(p);
        }
        // Count down while holding the lock and notify before releasing:
        // once the lock drops with `remaining == 0` the caller may free
        // `shared`, so it must not be touched afterwards.
        let mut rem = shared.remaining.lock().unwrap();
        *rem -= 1;
        if *rem == 0 {
            shared.done.notify_all();
        }
        drop(rem);
    }
}

/// The persistent worker pool.  One per process ([`Executor::global`]);
/// workers are spawned lazily up to the largest count any call has
/// requested and then parked on their job channels.
pub struct Executor {
    senders: Mutex<Vec<Sender<Job>>>,
}

static GLOBAL: OnceLock<Executor> = OnceLock::new();

impl Executor {
    /// The process-wide pool.
    pub fn global() -> &'static Executor {
        GLOBAL.get_or_init(|| Executor {
            senders: Mutex::new(Vec::new()),
        })
    }

    /// Run `f(worker_id)` on `workers` workers with ids `0..workers`,
    /// the calling thread acting as worker 0.  Returns when every worker
    /// has finished.  `workers <= 1` — and any call from inside a pool
    /// worker — runs `f(0)` inline: work distribution is the closure's
    /// job (stealing off a shared counter), so one worker id always
    /// drains the whole range.
    pub fn run_on(&self, workers: usize, f: &(dyn Fn(usize) + Sync)) {
        let workers = workers.min(MAX_WORKERS);
        let helpers = workers.saturating_sub(1);
        if helpers == 0 || in_pool_worker() {
            f(0);
            return;
        }
        let shared = JobShared {
            // SAFETY: erase the borrow's lifetime; `shared` (and `f`)
            // outlive every worker's use because this function does not
            // return until `remaining` hits 0.
            f: unsafe {
                std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(
                    f as *const _,
                )
            },
            remaining: Mutex::new(helpers),
            done: Condvar::new(),
            panic: Mutex::new(None),
        };
        {
            let mut senders = self.senders.lock().unwrap();
            while senders.len() < helpers {
                let (tx, rx) = channel::<Job>();
                std::thread::Builder::new()
                    .name(format!("parcolor-exec-{}", senders.len() + 1))
                    .spawn(move || worker_loop(rx))
                    .expect("spawn executor worker");
                senders.push(tx);
            }
            for (i, tx) in senders.iter().take(helpers).enumerate() {
                tx.send(Job {
                    shared: &shared,
                    worker: i + 1,
                })
                .expect("executor worker died");
            }
        }
        // The caller is worker 0; even if it panics, the helpers must be
        // drained before unwinding releases `shared`.
        let main_result = catch_unwind(AssertUnwindSafe(|| f(0)));
        let mut rem = shared.remaining.lock().unwrap();
        while *rem > 0 {
            rem = shared.done.wait(rem).unwrap();
        }
        drop(rem);
        if let Err(p) = main_result {
            resume_unwind(p);
        }
        let helper_panic = shared.panic.lock().unwrap().take();
        if let Some(p) = helper_panic {
            resume_unwind(p);
        }
    }
}

// ---------------------------------------------------------------------
// Deterministic reduce kernels
// ---------------------------------------------------------------------

/// The grouping-invariant `(sum, min, argmin)` reduce of the seed
/// search, with the explicit **lowest-index tie-break** that makes the
/// argmin independent of how indices were grouped into blocks or
/// workers.  Sums are exact (hence grouping-invariant) whenever the
/// observed values are integer-valued.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SumMinArgmin {
    /// Sum of observed values.
    pub sum: f64,
    /// Minimum observed value.
    pub min: f64,
    /// Lowest index achieving the minimum (`u64::MAX` when empty).
    pub argmin: u64,
}

impl SumMinArgmin {
    /// The neutral element.
    pub const EMPTY: SumMinArgmin = SumMinArgmin {
        sum: 0.0,
        min: f64::INFINITY,
        argmin: u64::MAX,
    };

    /// Fold one `(index, value)` observation in.
    #[inline]
    pub fn observe(&mut self, index: u64, value: f64) {
        self.sum += value;
        if value < self.min || (value == self.min && index < self.argmin) {
            self.min = value;
            self.argmin = index;
        }
    }

    /// Merge another partial in (associative, commutative, ties to the
    /// lowest index).
    #[inline]
    pub fn merge(mut self, other: SumMinArgmin) -> SumMinArgmin {
        self.sum += other.sum;
        if other.min < self.min || (other.min == self.min && other.argmin < self.argmin) {
            self.min = other.min;
            self.argmin = other.argmin;
        }
        self
    }
}

impl Default for SumMinArgmin {
    fn default() -> Self {
        Self::EMPTY
    }
}

// ---------------------------------------------------------------------
// Shared-slot helpers for the generic layer
// ---------------------------------------------------------------------

/// A `&mut [S]` handed out one disjoint element per worker.
struct SharedScratches<S> {
    ptr: *mut S,
    len: usize,
}

// SAFETY: each worker index is used by at most one thread (enforced by
// `run_on`'s unique worker ids), so element access is exclusive.
unsafe impl<S: Send> Sync for SharedScratches<S> {}

impl<S> SharedScratches<S> {
    fn new(s: &mut [S]) -> Self {
        SharedScratches {
            ptr: s.as_mut_ptr(),
            len: s.len(),
        }
    }

    /// SAFETY: caller must guarantee at most one live borrow per index.
    #[allow(clippy::mut_from_ref)]
    unsafe fn get(&self, w: usize) -> &mut S {
        assert!(w < self.len);
        &mut *self.ptr.add(w)
    }
}

/// A mutable slice shared across workers for **disjoint stripe
/// writes** (e.g. sorting each node's adjacency row from node-chunked
/// workers).
///
/// SAFETY contract: across one parallel call, the stripes handed to
/// different workers must not overlap.  [`ScatterMut::stripe_mut`] is
/// `unsafe` to keep that obligation visible at the call site.
pub struct ScatterMut<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

unsafe impl<T: Send> Sync for ScatterMut<'_, T> {}

impl<'a, T> ScatterMut<'a, T> {
    /// Wrap a slice for disjoint parallel stripe writes.
    pub fn new(slice: &'a mut [T]) -> Self {
        ScatterMut {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }

    /// Reborrow `slice[start..start + len]` as a mutable stripe.
    ///
    /// # Safety
    /// Within the enclosing parallel call, stripes handed to different
    /// workers must be disjoint.
    // `&self -> &mut` is this type's entire purpose: the `unsafe` fn plus
    // the disjointness contract above replace the usual exclusivity rule.
    #[allow(clippy::mut_from_ref)]
    #[inline]
    pub unsafe fn stripe_mut(&self, start: usize, len: usize) -> &mut [T] {
        debug_assert!(start + len <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(start), len)
    }
}

// ---------------------------------------------------------------------
// Generic parallel primitives
// ---------------------------------------------------------------------

/// Work-stealing fold over `range` in `block`-sized index blocks, one
/// scratch per worker taken from `scratches` (worker count =
/// `scratches.len()`).  Callers issuing many folds (the streaming
/// bitwise seed walk) construct arenas once and reuse them across calls
/// instead of re-zeroing O(n) memory per fold.
///
/// `eval(start, len, acc, scratch)` folds one block into the worker's
/// accumulator and returns it; `merge` combines per-worker partials (in
/// worker order, though grouping invariance — see the crate docs — makes
/// the order immaterial).
pub fn par_fold_in<T, S, I, E, R>(
    pool: &Executor,
    scratches: &mut [S],
    range: Range<u64>,
    block: u64,
    identity: I,
    eval: E,
    merge: R,
) -> T
where
    T: Send,
    S: Send,
    I: Fn() -> T + Sync,
    E: Fn(u64, u64, T, &mut S) -> T + Sync,
    R: Fn(T, T) -> T + Sync,
{
    assert!(block > 0);
    let len = range.end.saturating_sub(range.start);
    if len == 0 {
        return identity();
    }
    let workers = scratches.len().max(1);
    let nblocks = len.div_ceil(block);
    let next = AtomicU64::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..workers).map(|_| Mutex::new(None)).collect();
    let cells = SharedScratches::new(scratches);
    let run = |w: usize| {
        // SAFETY: worker ids are unique per call.
        let scratch = unsafe { cells.get(w) };
        let mut acc = identity();
        loop {
            let b = next.fetch_add(1, Ordering::Relaxed);
            if b >= nblocks {
                break;
            }
            let start = range.start + b * block;
            let blen = (range.end - start).min(block);
            acc = eval(start, blen, acc, scratch);
        }
        *slots[w].lock().unwrap() = Some(acc);
    };
    pool.run_on(workers, &run);
    let mut out = identity();
    for slot in &slots {
        if let Some(part) = slot.lock().unwrap().take() {
            out = merge(out, part);
        }
    }
    out
}

/// [`par_fold`] folds ranges shorter than this many blocks inline on the
/// caller: pool scheduling would cost more than the walk.
const MIN_PARALLEL_FOLD_BLOCKS: u64 = 4;

/// Work-stealing fold over `range` in `block`-sized index blocks, for
/// folds that need no per-worker scratch: the worker-count policy in
/// front of [`par_fold_in`].  Ranges shorter than
/// `MIN_PARALLEL_FOLD_BLOCKS` blocks run inline on the caller, and no
/// more workers than blocks take part.
pub fn par_fold<T, I, E, R>(
    pool: &Executor,
    workers: usize,
    range: Range<u64>,
    block: u64,
    identity: I,
    eval: E,
    merge: R,
) -> T
where
    T: Send,
    I: Fn() -> T + Sync,
    E: Fn(u64, u64, T) -> T + Sync,
    R: Fn(T, T) -> T + Sync,
{
    assert!(block > 0);
    let nblocks = range.end.saturating_sub(range.start).div_ceil(block);
    let workers = if nblocks < MIN_PARALLEL_FOLD_BLOCKS {
        1
    } else {
        workers.clamp(1, MAX_WORKERS).min(nblocks as usize)
    };
    par_fold_in(
        pool,
        &mut vec![(); workers],
        range,
        block,
        identity,
        |start, len, acc, _: &mut ()| eval(start, len, acc),
        merge,
    )
}

/// Indexed chunk map: workers steal `chunk`-sized index chunks of
/// `0..len` off one shared counter and call `apply(start, len)` for
/// each.  `apply` is responsible for writing **disjoint** outputs (use
/// [`ScatterMut`] for disjoint stripes of a shared slice or
/// [`par_fill`] for one contiguous output slice).
pub fn par_map_chunks<F>(pool: &Executor, workers: usize, len: usize, chunk: usize, apply: F)
where
    F: Fn(usize, usize) + Sync,
{
    assert!(chunk > 0);
    if len == 0 {
        return;
    }
    let workers = workers.clamp(1, MAX_WORKERS);
    let nchunks = len.div_ceil(chunk);
    let next = AtomicU64::new(0);
    let run = |_w: usize| loop {
        let c = next.fetch_add(1, Ordering::Relaxed) as usize;
        if c >= nchunks {
            break;
        }
        let start = c * chunk;
        let clen = (len - start).min(chunk);
        apply(start, clen);
    };
    pool.run_on(workers, &run);
}

/// Fill `out` by disjoint stripes: `fill(start, stripe)` must write
/// every element of `stripe`, which aliases `out[start..start +
/// stripe.len()]`.  Stripes are dealt to workers by stealing; the
/// splice is positional, so the result is identical at every worker
/// count whenever `fill` is pure.
pub fn par_fill<T, F>(pool: &Executor, workers: usize, out: &mut [T], chunk: usize, fill: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let len = out.len();
    let scatter = ScatterMut::new(out);
    let scatter = &scatter;
    par_map_chunks(pool, workers, len, chunk, move |start, clen| {
        // SAFETY: chunks are disjoint, so the reconstructed sub-slices
        // never overlap across workers.
        let stripe = unsafe { scatter.stripe_mut(start, clen) };
        fill(start, stripe);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;

    fn sum_range(pool: &Executor, workers: usize, n: u64) -> SumMinArgmin {
        par_fold(
            pool,
            workers,
            0..n,
            8,
            || SumMinArgmin::EMPTY,
            |start, len, mut acc: SumMinArgmin| {
                for i in start..start + len {
                    acc.observe(i, ((i * 37 + 11) % 19) as f64);
                }
                acc
            },
            |a, b| a.merge(b),
        )
    }

    #[test]
    fn fold_matches_serial_at_every_worker_count() {
        let pool = Executor::global();
        let reference = sum_range(pool, 1, 1 << 12);
        for workers in [2usize, 3, 4, 8] {
            let got = sum_range(pool, workers, 1 << 12);
            assert_eq!(got, reference, "workers = {workers}");
        }
    }

    #[test]
    fn fold_in_uses_one_scratch_per_worker() {
        let pool = Executor::global();
        let mut scratches = vec![0u64; 4];
        let total = par_fold_in(
            pool,
            &mut scratches,
            0..1000,
            16,
            || 0u64,
            |start, len, acc: u64, scratch: &mut u64| {
                *scratch += len;
                acc + (start..start + len).sum::<u64>()
            },
            |a, b| a + b,
        );
        assert_eq!(total, 999 * 1000 / 2);
        assert_eq!(scratches.iter().sum::<u64>(), 1000, "every index once");
    }

    #[test]
    fn short_fold_runs_inline_on_the_caller() {
        let pool = Executor::global();
        let threads = Mutex::new(HashSet::new());
        let total = par_fold(
            pool,
            8,
            0..3 * 16,
            16,
            || 0u64,
            |start, len, acc: u64| {
                threads.lock().unwrap().insert(std::thread::current().id());
                acc + (start..start + len).sum::<u64>()
            },
            |a, b| a + b,
        );
        assert_eq!(total, (0..48).sum::<u64>());
        let caller = std::thread::current().id();
        assert_eq!(threads.into_inner().unwrap(), HashSet::from([caller]));
    }

    #[test]
    fn empty_range_returns_identity() {
        let pool = Executor::global();
        let x = par_fold(
            pool,
            8,
            5..5,
            4,
            || 0u64,
            |_, _, acc: u64| acc + 1,
            |a, b| a + b,
        );
        assert_eq!(x, 0);
    }

    #[test]
    fn par_fill_is_positionally_deterministic() {
        let pool = Executor::global();
        let mut reference = vec![0u64; 10_000];
        par_fill(pool, 1, &mut reference, 64, |start, stripe| {
            for (i, o) in stripe.iter_mut().enumerate() {
                let idx = (start + i) as u64;
                *o = (idx * idx) ^ 0xA5;
            }
        });
        for workers in [2usize, 4, 8] {
            let mut out = vec![0u64; 10_000];
            par_fill(pool, workers, &mut out, 64, |start, stripe| {
                for (i, o) in stripe.iter_mut().enumerate() {
                    let idx = (start + i) as u64;
                    *o = (idx * idx) ^ 0xA5;
                }
            });
            assert_eq!(out, reference, "workers = {workers}");
        }
    }

    #[test]
    fn pool_threads_are_reused_across_calls() {
        let pool = Executor::global();
        let ids = Mutex::new(HashSet::new());
        for _ in 0..16 {
            par_map_chunks(pool, 4, 1 << 12, 8, |_, _| {
                ids.lock().unwrap().insert(std::thread::current().id());
            });
        }
        // 16 calls × 4 workers would be 64 threads if each call spawned
        // its own; the persistent pool keeps it at ≤ 4 (3 helpers + the
        // caller), modulo other tests growing the shared global pool.
        let distinct = ids.lock().unwrap().len();
        assert!(distinct <= MAX_WORKERS.min(64), "thread churn: {distinct}");
    }

    #[test]
    fn nested_calls_run_inline_without_deadlock() {
        let pool = Executor::global();
        let inner_runs = AtomicUsize::new(0);
        par_map_chunks(pool, 4, 64, 4, |_, _| {
            // A nested parallel call from (possibly) inside a worker:
            // must complete inline rather than deadlocking the pool.
            par_map_chunks(pool, 4, 8, 2, |_, _| {
                inner_runs.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(inner_runs.load(Ordering::Relaxed), 16 * 4);
    }

    #[test]
    fn worker_panics_propagate_to_caller() {
        let pool = Executor::global();
        let result = catch_unwind(AssertUnwindSafe(|| {
            par_map_chunks(pool, 4, 1 << 10, 1, |start, _| {
                if start == 777 {
                    panic!("boom at {start}");
                }
            });
        }));
        assert!(result.is_err(), "panic must cross the pool boundary");
    }

    #[test]
    fn sum_min_argmin_ties_break_low() {
        let mut a = SumMinArgmin::EMPTY;
        a.observe(7, 3.0);
        a.observe(2, 3.0);
        assert_eq!(a.argmin, 2);
        let mut b = SumMinArgmin::EMPTY;
        b.observe(1, 3.0);
        // Merge in either order: lowest index wins.
        assert_eq!(a.merge(b).argmin, 1);
        assert_eq!(b.merge(a).argmin, 1);
    }

    #[test]
    fn resolve_workers_clamps() {
        assert_eq!(resolve_workers(3), 3);
        assert!(resolve_workers(0) >= 1);
        assert_eq!(resolve_workers(100_000), MAX_WORKERS);
    }

    // Malformed thread-var handling: each bad shape must be classified
    // Invalid (and so fall back to hardware threads) rather than being
    // silently swallowed or, worse, parsed as something surprising.
    #[test]
    fn thread_var_unset() {
        assert_eq!(parse_thread_var(None), ThreadVar::Unset);
    }

    #[test]
    fn thread_var_valid_counts() {
        assert_eq!(parse_thread_var(Some("4")), ThreadVar::Valid(4));
        assert_eq!(parse_thread_var(Some(" 8 ")), ThreadVar::Valid(8));
        assert_eq!(parse_thread_var(Some("1")), ThreadVar::Valid(1));
    }

    #[test]
    fn thread_var_non_numeric_is_invalid() {
        assert_eq!(
            parse_thread_var(Some("abc")),
            ThreadVar::Invalid("abc".into())
        );
    }

    #[test]
    fn thread_var_zero_is_invalid() {
        assert_eq!(parse_thread_var(Some("0")), ThreadVar::Invalid("0".into()));
    }

    #[test]
    fn thread_var_negative_is_invalid() {
        assert_eq!(
            parse_thread_var(Some("-3")),
            ThreadVar::Invalid("-3".into())
        );
    }

    #[test]
    fn thread_var_empty_is_invalid() {
        assert_eq!(parse_thread_var(Some("")), ThreadVar::Invalid("".into()));
    }

    #[test]
    fn thread_var_fractional_is_invalid() {
        assert_eq!(
            parse_thread_var(Some("1.5")),
            ThreadVar::Invalid("1.5".into())
        );
    }
}
