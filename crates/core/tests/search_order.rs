//! The `SeedSearcher` search-order contract on the partition path: a
//! solve issues its seed searches one at a time, in one fixed order, at
//! every worker count.  Distributed replicas replay the whole solve and
//! adopt the broadcast selections in that order, so an overlap or a
//! reordering would desynchronize them.
//!
//! The instance is the small `dense_lists` shape: planted 128-cliques
//! over list palettes with the mid-degree cap at 64, so the solve runs
//! a Lemma 23 partition level and recurses into its restricted bins.

use parcolor_core::framework::{BlockEval, SeedSearcher, SimScratch};
use parcolor_core::{D1lcInstance, Params, SeedStrategy, Solver};
use parcolor_graphgen as gen;
use parcolor_prg::{select_seed_blocks_n, SeedSelection};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

/// A local searcher that records every selection in order, with the
/// thread that issued it, and fails if two `select` calls overlap.
#[derive(Default)]
struct RecordingSearcher {
    busy: AtomicBool,
    history: Mutex<Vec<(ThreadId, SeedSelection)>>,
}

impl SeedSearcher for RecordingSearcher {
    fn select(
        &self,
        seed_bits: u32,
        strategy: SeedStrategy,
        workers: usize,
        n: usize,
        eval_block: BlockEval,
    ) -> SeedSelection {
        assert!(
            !self.busy.swap(true, Ordering::SeqCst),
            "two seed searches overlap"
        );
        let sel = select_seed_blocks_n(
            seed_bits,
            strategy,
            workers,
            || SimScratch::new(n),
            |seed0, costs, scratch: &mut SimScratch| eval_block(seed0, costs, scratch),
        );
        let caller = std::thread::current().id();
        self.history.lock().unwrap().push((caller, sel.clone()));
        self.busy.store(false, Ordering::SeqCst);
        sel
    }
}

fn dense_lists_instance(seed: u64) -> D1lcInstance {
    gen::random_lists(
        gen::planted_cliques(&[128; 4], 0.1, 2_000, 8, seed),
        4096,
        0,
        seed,
    )
}

/// Solve through a fresh recorder: `(colors, selections, partitions)`.
/// Every search must be issued from the solving thread: sub-solves that
/// ran elsewhere could issue theirs in any interleaving, whether or not
/// two of them happen to overlap in this run.
fn solve_recorded(inst: &D1lcInstance, workers: usize) -> (Vec<u32>, Vec<SeedSelection>, usize) {
    let params = Params::default()
        .with_seed_bits(4)
        .with_strategy(SeedStrategy::FixedSubset(8))
        .with_mid_degree_cap(64)
        .with_workers(workers);
    let rec = Arc::new(RecordingSearcher::default());
    let sol = Solver::deterministic(params)
        .with_seed_searcher(Arc::clone(&rec) as Arc<dyn SeedSearcher>)
        .solve(inst);
    let history = rec.history.lock().unwrap().clone();
    let solving_thread = std::thread::current().id();
    assert!(
        history.iter().all(|&(t, _)| t == solving_thread),
        "a seed search was issued off the solving thread"
    );
    let selections = history.into_iter().map(|(_, sel)| sel).collect();
    (sol.colors, selections, sol.stats.partitions)
}

#[test]
fn partition_path_searches_in_one_order_at_every_worker_count() {
    let inst = dense_lists_instance(1);
    let (colors, history, partitions) = solve_recorded(&inst, 1);
    assert!(partitions >= 1, "the instance must take the partition path");
    assert!(!history.is_empty(), "the solve must search for seeds");
    let (colors2, history2, _) = solve_recorded(&inst, 2);
    assert_eq!(
        history2, history,
        "chosen-seed sequence differs between 1 and 2 workers"
    );
    assert_eq!(colors2, colors, "coloring differs between 1 and 2 workers");
}
