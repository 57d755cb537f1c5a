//! The traced run must measure the solve the untraced run times: a solve
//! through the timing searcher gives the same colors and the same
//! chosen-seed sequence as the default in-process searcher, and the
//! replayed stage makes the same seed choices as the real solve.

use parcolor_core::{LocalSeedSearcher, Params, SeedSearcher, Solution, Solver};
use perfbench::cluster::{solve_on_pair, Worker};
use perfbench::replay::replay_first_stage;
use perfbench::run::host_threads;
use perfbench::trace::{TimingSearcher, Tracer};
use perfbench::workload::{coloring_hash, setup, Input, Size, Workload, GOLDEN, REFERENCE_SEED};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// A directory no other test of this process uses.
fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let unique = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "perfbench-test-{tag}-{}-{unique}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create test scratch dir");
    dir
}

fn chosen_seeds(sol: &Solution) -> Vec<u64> {
    sol.stats
        .steps
        .iter()
        .filter_map(|s| s.selection.as_ref().map(|sel| sel.seed))
        .collect()
}

fn small(workload: Workload) -> (Input, parcolor_core::D1lcInstance, Params) {
    let dir = scratch_dir(workload.name());
    let input = workload
        .prepare(REFERENCE_SEED, Size::Small, &dir)
        .expect("prepare small input");
    let inst = setup(&input).expect("set up small instance");
    std::fs::remove_dir_all(&dir).ok();
    (input, inst, workload.params(host_threads()))
}

#[test]
fn timing_searcher_preserves_colors_and_seed_sequence() {
    for workload in Workload::ALL {
        let (input, inst, params) = small(workload);
        let local = Solver::deterministic(params.clone()).solve(&inst);
        let tracer = Arc::new(Tracer::default());
        let (seeds, colors) = match &input {
            Input::Job(job) => {
                // Wrap the coordinator itself, as the traced run does.
                let t = Arc::clone(&tracer);
                let worker = Worker::spawn();
                let c = solve_on_pair(job, &inst, &worker, move |coordinator| {
                    Arc::new(TimingSearcher::new(coordinator, t)) as Arc<dyn SeedSearcher>
                })
                .expect("cluster solve");
                assert!(c.replica_matches, "worker replica diverged");
                (chosen_seeds(&c.solution), c.solution.colors)
            }
            _ => {
                let timing = Arc::new(TimingSearcher::new(
                    Arc::new(LocalSeedSearcher),
                    Arc::clone(&tracer),
                ));
                let sol = Solver::deterministic(params.clone())
                    .with_seed_searcher(timing.clone())
                    .solve(&inst);
                let evaluated: u64 = sol
                    .stats
                    .steps
                    .iter()
                    .filter_map(|s| s.selection.as_ref().map(|sel| sel.evaluated))
                    .sum();
                assert_eq!(
                    timing.block_seeds(),
                    evaluated,
                    "{}: block tally disagrees with the selections",
                    workload.name()
                );
                (chosen_seeds(&sol), sol.colors)
            }
        };
        let recorded: Vec<u64> = tracer.selections().iter().map(|s| s.seed).collect();
        assert_eq!(recorded, seeds, "{}: timed searches", workload.name());
        assert_eq!(colors, local.colors, "{}: colors differ", workload.name());
        assert_eq!(
            seeds,
            chosen_seeds(&local),
            "{}: seeds differ",
            workload.name()
        );
        assert!(!seeds.is_empty(), "{}: no seed search ran", workload.name());
    }
}

#[test]
fn small_reference_solves_match_golden_hashes() {
    for &(workload, expected) in GOLDEN {
        let (_, inst, params) = small(workload);
        let sol = Solver::deterministic(params).solve(&inst);
        assert_eq!(
            coloring_hash(&sol.colors),
            expected,
            "{}: golden hash drifted",
            workload.name()
        );
    }
}

#[test]
fn replayed_stage_makes_the_solvers_first_seed_choices() {
    for workload in [
        Workload::SearchBound,
        Workload::StructureBound,
        Workload::DenseLists,
    ] {
        let (_, inst, params) = small(workload);
        let sol = Solver::deterministic(params.clone()).solve(&inst);
        let tracer = Arc::new(Tracer::default());
        replay_first_stage(&inst, &params, &tracer);
        let spans = tracer.spans();
        let stage = spans
            .iter()
            .position(|s| s.name == "color_middle")
            .expect("the replay reaches a color_middle stage");
        let in_stage = spans.iter().filter(|s| s.parent == Some(stage)).count();
        let replayed: Vec<u64> = tracer.selections()[..in_stage]
            .iter()
            .map(|s| s.seed)
            .collect();
        assert!(in_stage > 0, "{}: stage ran no search", workload.name());
        assert_eq!(
            replayed,
            chosen_seeds(&sol)[..in_stage],
            "{}: replay drifted from the solver",
            workload.name()
        );
    }
}
