//! In-memory spans and the timing seed searcher.
//!
//! A span records a name, start, end, parent and the id of the solve it
//! belongs to, plus one count measured at the same boundary (seeds for a
//! search).  Spans are opened and closed from the solving thread only:
//! the solver issues its seed searches sequentially (see
//! [`SeedSearcher`]), so one stack of open spans gives every span its
//! parent.

use parcolor_core::{BlockEval, SeedSearcher, SeedSelection, SeedStrategy, SimScratch};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// One closed span.  Times are seconds since the tracer was created.
#[derive(Clone, Debug)]
pub struct Span {
    /// Solve (or replay) this span belongs to.
    pub solve: u32,
    /// Layer name.
    pub name: &'static str,
    /// Start, seconds.
    pub start: f64,
    /// End, seconds.
    pub end: f64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Count measured at the span's boundary (seeds for `search`).
    pub count: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    solve: u32,
    selections: Vec<SeedSelection>,
}

/// Span recorder.
pub struct Tracer {
    epoch: Instant,
    state: Mutex<State>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }
}

impl Tracer {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("tracer lock poisoned by a panicking solve")
    }

    /// Start a new solve id; later spans belong to it.
    pub fn begin_solve(&self) -> u32 {
        let mut st = self.lock();
        st.solve += 1;
        st.solve
    }

    /// Open a span under the innermost open one; returns its index.
    pub fn open(&self, name: &'static str) -> usize {
        let start = self.epoch.elapsed().as_secs_f64();
        let mut st = self.lock();
        let span = Span {
            solve: st.solve,
            name,
            start,
            end: start,
            parent: st.open.last().copied(),
            count: 0,
        };
        st.spans.push(span);
        let id = st.spans.len() - 1;
        st.open.push(id);
        id
    }

    /// Close span `id` (the innermost open one) with its count.
    pub fn close(&self, id: usize, count: u64) {
        let end = self.epoch.elapsed().as_secs_f64();
        let mut st = self.lock();
        assert_eq!(st.open.pop(), Some(id), "spans must close innermost first");
        st.spans[id].end = end;
        st.spans[id].count = count;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id, 0);
        out
    }

    /// Every closed span so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Every selection the timing searcher returned, in order.
    pub fn selections(&self) -> Vec<SeedSelection> {
        self.lock().selections.clone()
    }

    fn record_selection(&self, sel: &SeedSelection) {
        self.lock().selections.push(sel.clone());
    }

    /// A span's duration minus the part its direct children cover.
    pub fn self_secs(spans: &[Span], id: usize) -> f64 {
        let children: f64 = spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::secs)
            .sum();
        spans[id].secs() - children
    }

    /// Spans as JSON lines: `{"solve", "name", "start_s", "end_s",
    /// "parent", "count"}`.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.lock().spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"solve\": {}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"parent\": {}, \"count\": {}}}\n",
                s.solve, s.name, s.start, s.end, parent, s.count
            ));
        }
        out
    }
}

/// A [`SeedSearcher`] that times every search of the solve it is plugged
/// into and counts the seeds its block evaluator is asked for, then
/// delegates to `inner` unchanged.
pub struct TimingSearcher {
    inner: Arc<dyn SeedSearcher>,
    tracer: Arc<Tracer>,
    block_seeds: AtomicU64,
}

impl TimingSearcher {
    /// Wrap `inner`, recording into `tracer`.
    pub fn new(inner: Arc<dyn SeedSearcher>, tracer: Arc<Tracer>) -> Self {
        TimingSearcher {
            inner,
            tracer,
            block_seeds: AtomicU64::new(0),
        }
    }

    /// Seeds evaluated in this process, summed over `costs.len()` of every
    /// block (remote evaluations of a distributed backend are not seen).
    pub fn block_seeds(&self) -> u64 {
        self.block_seeds.load(Ordering::Relaxed)
    }
}

impl SeedSearcher for TimingSearcher {
    fn select(
        &self,
        seed_bits: u32,
        strategy: SeedStrategy,
        workers: usize,
        n: usize,
        eval_block: BlockEval,
    ) -> SeedSelection {
        let counting = |seed0: u64, costs: &mut [f64], scratch: &mut SimScratch| {
            self.block_seeds
                .fetch_add(costs.len() as u64, Ordering::Relaxed);
            eval_block(seed0, costs, scratch)
        };
        let id = self.tracer.open("search");
        let sel = self
            .inner
            .select(seed_bits, strategy, workers, n, &counting);
        self.tracer.close(id, sel.evaluated);
        self.tracer.record_selection(&sel);
        sel
    }
}
