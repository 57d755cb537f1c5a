//! One benchmark run: closed loop, one client, one solve at a time.
//!
//! Untraced runs report the end-to-end metrics; traced runs alternate
//! untraced and traced solves (the difference is the tracing overhead),
//! then replay the layers the solver does not expose and report the
//! per-layer metrics.

use crate::cluster::{solve_on_pair, Worker};
use crate::replay::replay_first_stage;
use crate::trace::{TimingSearcher, Tracer};
use crate::workload::{
    build, coloring_hash, load, setup, Input, Size, Workload, GOLDEN, REFERENCE_SEED,
};
use parcolor_core::{
    Cost, D1lcInstance, LocalSeedSearcher, PaletteArena, Params, SeedSearcher, SolveStats, Solver,
};
use parcolor_dist::{DistStats, WorkerStats};
use parcolor_mpc::{MpcConfig, NodeMpc};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one run.
pub struct Report {
    /// Every solve verified, matched its reference hash and (on
    /// `dist_search`) its worker replica.
    pub correct: bool,
    /// Solves attempted, the golden-hash solve included.
    pub attempted: u64,
    /// Solves that failed a check.
    pub failed: u64,
    /// End-to-end (untraced) or per-layer (traced) metrics.
    pub metrics: Vec<Metric>,
    /// Run description: host, workload shape, parameters, samples.
    pub env: Vec<(&'static str, String)>,
}

impl Report {
    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The run description as one JSON object (values are pre-rendered
    /// JSON).
    pub fn env_json(&self) -> String {
        let fields: Vec<String> = self
            .env
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{\"env\": {{{}}}}}", fields.join(", "))
    }
}

/// Median of a non-empty sample.
fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median wall time of `reps` calls of `f`.
fn median_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let secs: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&secs)
}

/// What one solve produced.
struct Solved {
    /// The coloring.
    pub colors: Vec<u32>,
    /// Critical-path cost.
    pub cost: Cost,
    /// Solver statistics.
    pub stats: SolveStats,
    /// Wall time of `Solver::solve` (the coordinator's on `dist_search`).
    pub secs: f64,
    /// Worker replica equals the coordinator (always true when local).
    pub replica_matches: bool,
    /// Coordinator and worker counters on `dist_search`.
    pub dist: Option<(DistStats, WorkerStats)>,
}

/// Solve `inst` the way its workload does — locally, or on a coordinator
/// served by `worker` — with the seed searches timed into `tracer` when
/// one is given.
fn solve(
    input: &Input,
    inst: &D1lcInstance,
    params: &Params,
    worker: Option<&Worker>,
    tracer: Option<&Arc<Tracer>>,
) -> Result<Solved, String> {
    let wrap = |inner: Arc<dyn SeedSearcher>| -> Arc<dyn SeedSearcher> {
        match tracer {
            Some(t) => Arc::new(TimingSearcher::new(inner, Arc::clone(t))),
            None => inner,
        }
    };
    let span = tracer.map(|t| {
        t.begin_solve();
        t.open("solve")
    });
    let solved = match input {
        Input::Job(job) => {
            let worker = worker.ok_or("dist_search needs its worker thread")?;
            solve_on_pair(job, inst, worker, wrap).map(|c| Solved {
                colors: c.solution.colors,
                cost: c.solution.cost,
                stats: c.solution.stats,
                secs: c.solve_s,
                replica_matches: c.replica_matches,
                dist: Some((c.stats, c.worker)),
            })
        }
        _ => {
            let mut solver = Solver::deterministic(params.clone());
            if tracer.is_some() {
                solver = solver.with_seed_searcher(wrap(Arc::new(LocalSeedSearcher)));
            }
            let t0 = Instant::now();
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| solver.solve(inst)))
                .map_err(|_| "solve panicked".to_string())
                .map(|sol| Solved {
                    secs: t0.elapsed().as_secs_f64(),
                    colors: sol.colors,
                    cost: sol.cost,
                    stats: sol.stats,
                    replica_matches: true,
                    dist: None,
                })
        }
    };
    if let (Some(t), Some(id)) = (tracer, span) {
        t.close(id, 0);
    }
    solved
}

/// Tallies solves and checks each against the reference hash.
struct Gate {
    attempted: u64,
    failed: u64,
}

impl Gate {
    /// Count one solve; it fails when it errored, does not verify,
    /// differs from `expected` (when given) or from its worker replica.
    fn check(
        &mut self,
        what: &str,
        inst: &D1lcInstance,
        solved: &Result<Solved, String>,
        expected: Option<u64>,
    ) -> Option<u64> {
        self.attempted += 1;
        let verdict = solved.as_ref().map_err(Clone::clone).and_then(|s| {
            inst.verify_coloring(&s.colors)?;
            let hash = coloring_hash(&s.colors);
            if let Some(e) = expected.filter(|&e| e != hash) {
                return Err(format!(
                    "coloring hash 0x{hash:016x} differs from the reference 0x{e:016x}"
                ));
            }
            if !s.replica_matches {
                return Err("worker replica differs from the coordinator".into());
            }
            Ok(hash)
        });
        match verdict {
            Ok(hash) => Some(hash),
            Err(e) => {
                eprintln!("perfbench: {what}: FAILED: {e}");
                self.failed += 1;
                None
            }
        }
    }
}

/// Solve the workload's small reference instance and compare its hash
/// with [`GOLDEN`].  Also warms the thread pool before anything is timed.
fn golden_check(
    workload: Workload,
    dir: &Path,
    worker: Option<&Worker>,
    gate: &mut Gate,
) -> Result<(), String> {
    let expected = GOLDEN
        .iter()
        .find(|(w, _)| *w == workload)
        .map(|&(_, h)| h)
        .expect("every workload has a golden hash");
    let input = workload.prepare(REFERENCE_SEED, Size::Small, dir)?;
    let inst = setup(&input)?;
    let params = workload.params(host_threads());
    let solved = solve(&input, &inst, &params, worker, None);
    gate.check("golden-hash solve", &inst, &solved, Some(expected));
    Ok(())
}

/// Hardware threads of this host.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Inputs per untraced run.  The workload seed derives this many
/// instances and the run cycles through them, so one input's luck (its
/// Δ, its leftover set) does not set the run's medians.
/// `structure_bound` holds one: each of its instances is ~6 s and
/// ~100 MB.  Traced runs use the first instance only.
fn batch(workload: Workload) -> usize {
    match workload {
        Workload::StructureBound => 1,
        _ => 5,
    }
}

/// Seed of the `i`-th instance of a run with workload seed `seed`.
fn instance_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(i as u64)
}

/// Set-up repetitions per instance (each is timed; the median over all
/// of a run's set-ups is reported).
const SETUP_REPEATS: usize = 3;

#[derive(Default)]
struct SetupSamples {
    load_s: Vec<f64>,
    build_s: Vec<f64>,
    setup_s: Vec<f64>,
}

/// Run the set-up path once untimed, then [`SETUP_REPEATS`] timed times;
/// returns the last instance.  The untimed pass lets the page cache and
/// the allocator settle: the first parse of a just-written 60 MB DIMACS
/// file runs up to ~1.6× slower than the ones after it.
fn timed_setup(input: &Input, s: &mut SetupSamples) -> Result<D1lcInstance, String> {
    let mut inst = Some(setup(input)?);
    for _ in 0..SETUP_REPEATS {
        drop(inst.take());
        let t0 = Instant::now();
        let loaded = std::hint::black_box(load(input)?);
        let t1 = Instant::now();
        let built = std::hint::black_box(build(input, loaded));
        let t2 = Instant::now();
        s.load_s.push((t1 - t0).as_secs_f64());
        s.build_s.push((t2 - t1).as_secs_f64());
        s.setup_s.push((t2 - t0).as_secs_f64());
        inst = Some(built);
    }
    Ok(inst.expect("at least one set-up"))
}

/// Scratch directory for one run's inputs, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let dir = Path::new(".perfbench").join(format!("work-{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    /// A fresh subdirectory for instance `i`.
    fn sub(&self, i: usize) -> Result<PathBuf, String> {
        let dir = self.0.join(i.to_string());
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One input of a run and the hash its solves must reproduce.
struct Case {
    seed: u64,
    input: Input,
    inst: D1lcInstance,
    hash: Option<u64>,
}

/// Run `workload` on the inputs of `seed` for about `seconds`.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let dir = WorkDir::create()?;
    let mut gate = Gate {
        attempted: 0,
        failed: 0,
    };
    let worker = (workload == Workload::DistSearch).then(Worker::spawn);
    golden_check(workload, &dir.sub(0)?, worker.as_ref(), &mut gate)?;

    let instances = if traced { 1 } else { batch(workload) };
    let mut setup_samples = SetupSamples::default();
    let mut cases = Vec::new();
    for i in 0..instances {
        let seed = instance_seed(seed, i);
        let input = workload.prepare(seed, Size::Full, &dir.sub(i + 1)?)?;
        let inst = timed_setup(&input, &mut setup_samples)?;
        cases.push(Case {
            seed,
            input,
            inst,
            hash: None,
        });
    }
    let params = workload.params(host_threads());

    let tracer = Arc::new(Tracer::default());
    // (case index, solve) in solve order.
    let mut untraced: Vec<(usize, Solved)> = Vec::new();
    let mut traced_solves: Vec<Solved> = Vec::new();
    let start = Instant::now();
    // Closed loop: the next solve starts when the previous one ends.
    // Every case is solved at least once; a traced run alternates
    // untraced and traced solves of its one case.
    while start.elapsed().as_secs_f64() < seconds
        || untraced.len() < cases.len()
        || (traced && traced_solves.is_empty())
    {
        let trace_this = traced && untraced.len() > traced_solves.len();
        let idx = untraced.len() % cases.len();
        let case = &mut cases[idx];
        let solved = solve(
            &case.input,
            &case.inst,
            &params,
            worker.as_ref(),
            trace_this.then_some(&tracer),
        );
        let what = format!("solve of instance seed {}", case.seed);
        let got = gate.check(&what, &case.inst, &solved, case.hash);
        case.hash = case.hash.or(got);
        match solved {
            Ok(s) if got.is_some() => {
                if trace_this {
                    traced_solves.push(s)
                } else {
                    untraced.push((idx, s))
                }
            }
            _ => break,
        }
    }

    let mut env = describe(workload, seed, &cases, &params);
    let solve_samples: Vec<f64> = untraced.iter().map(|(_, s)| s.secs).collect();
    env.push(("solves", untraced.len().to_string()));
    env.push(("solve_s_samples", json_list(&solve_samples)));
    env.push(("setup_s_samples", json_list(&setup_samples.setup_s)));

    let correct = gate.failed == 0;
    let metrics = if !correct {
        Vec::new()
    } else if traced {
        let case = &cases[0];
        let untraced: Vec<Solved> = untraced.into_iter().map(|(_, s)| s).collect();
        let layer = per_layer(
            &case.input,
            &case.inst,
            &params,
            &tracer,
            &untraced,
            &traced_solves,
            &setup_samples,
        );
        let spans_path =
            Path::new(".perfbench").join(format!("spans-{}-{seed}.jsonl", workload.name()));
        std::fs::write(&spans_path, tracer.to_json_lines())
            .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;
        env.push(("spans", format!("\"{}\"", spans_path.display())));
        layer
    } else {
        end_to_end(&untraced, cases.len(), &setup_samples, &gate)
    };
    Ok(Report {
        correct,
        attempted: gate.attempted,
        failed: gate.failed,
        metrics,
        env,
    })
}

fn json_list(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
    format!("[{}]", items.join(", "))
}

fn describe(
    workload: Workload,
    seed: u64,
    cases: &[Case],
    params: &Params,
) -> Vec<(&'static str, String)> {
    let quoted = |s: &str| format!("\"{s}\"");
    let per_case = |f: &dyn Fn(&Case) -> u64| {
        let items: Vec<String> = cases.iter().map(|c| f(c).to_string()).collect();
        format!("[{}]", items.join(", "))
    };
    vec![
        ("workload", quoted(workload.name())),
        ("seed", seed.to_string()),
        ("host_threads", host_threads().to_string()),
        (
            "simd_path",
            quoted(parcolor_core::simd::active_path().name()),
        ),
        ("workers", params.workers.to_string()),
        (
            "topology",
            quoted(match cases[0].input {
                Input::Job(_) => "loopback coordinator + 1 worker",
                _ => "local",
            }),
        ),
        ("instance_seeds", per_case(&|c| c.seed)),
        ("n", per_case(&|c| c.inst.n() as u64)),
        ("m", per_case(&|c| c.inst.graph.m() as u64)),
        (
            "max_degree",
            per_case(&|c| c.inst.graph.max_degree() as u64),
        ),
        ("seed_bits", params.seed_bits.to_string()),
        ("strategy", quoted(&format!("{:?}", params.strategy))),
        (
            "mid_degree_cap",
            params
                .mid_degree_cap
                .map_or("null".into(), |c| c.to_string()),
        ),
    ]
}

fn colors_used(colors: &[u32]) -> usize {
    let mut cs = colors.to_vec();
    cs.sort_unstable();
    cs.dedup();
    cs.len()
}

fn end_to_end(
    untraced: &[(usize, Solved)],
    cases: usize,
    setup: &SetupSamples,
    gate: &Gate,
) -> Vec<Metric> {
    let times: Vec<f64> = untraced.iter().map(|(_, s)| s.secs).collect();
    // Solves of one input are bit-identical, so each case's first solve
    // gives its counts; the run reports their median over the cases.
    let per_case = |f: &dyn Fn(&Solved) -> f64| {
        let firsts: Vec<f64> = (0..cases)
            .filter_map(|c| untraced.iter().find(|(i, _)| *i == c))
            .map(|(_, s)| f(s))
            .collect();
        median(&firsts)
    };
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("solve_s", median(&times), "s"),
        m("setup_s", median(&setup.setup_s), "s"),
        m(
            "peak_rss_mb",
            parcolor_bench::peak_rss() as f64 / (1024.0 * 1024.0),
            "MB",
        ),
        m(
            "colors_used",
            per_case(&|s| colors_used(&s.colors) as f64),
            "count",
        ),
        m(
            "mpc_rounds",
            per_case(&|s| s.cost.mpc_rounds as f64),
            "count",
        ),
        m(
            "machine_words_max",
            per_case(&|s| s.cost.max_machine_words as f64),
            "words",
        ),
        m(
            "success_rate",
            (gate.attempted - gate.failed) as f64 / gate.attempted as f64,
            "ratio",
        ),
    ]
}

fn per_layer(
    input: &Input,
    inst: &D1lcInstance,
    params: &Params,
    tracer: &Arc<Tracer>,
    untraced: &[Solved],
    traced: &[Solved],
    setup: &SetupSamples,
) -> Vec<Metric> {
    // --- spans inside the real (traced) solves ---
    let spans = tracer.spans();
    let search_busy: Vec<f64> = (0..traced.len())
        .map(|i| {
            spans
                .iter()
                .filter(|s| s.solve == i as u32 + 1 && s.name == "search")
                .map(|s| s.secs())
                .sum()
        })
        .collect();
    let first_solve_searches: Vec<_> = spans
        .iter()
        .filter(|s| s.solve == 1 && s.name == "search")
        .collect();
    let search_count = first_solve_searches.len() as f64;
    let search_seeds: f64 = first_solve_searches.iter().map(|s| s.count as f64).sum();
    let traced_solve_s = median(&traced.iter().map(|s| s.secs).collect::<Vec<_>>());
    let untraced_solve_s = median(&untraced.iter().map(|s| s.secs).collect::<Vec<_>>());
    let search_busy_s = median(&search_busy);

    // --- replayed spans ---
    let replay_from = spans.len();
    let counts = replay_first_stage(inst, params, tracer);
    let spans = tracer.spans();
    let replay_id = spans[replay_from].solve;
    let sum_of = |name: &str, self_time: bool| -> f64 {
        (replay_from..spans.len())
            .filter(|&i| spans[i].solve == replay_id && spans[i].name == name)
            .map(|i| {
                if self_time {
                    Tracer::self_secs(&spans, i)
                } else {
                    spans[i].secs()
                }
            })
            .sum()
    };
    let partition_s = sum_of("reduce.partition", false);
    let params_s = sum_of("node_params", false);
    let acd_s = sum_of("acd", false);
    let vstart_s = sum_of("vstart", false);
    let mid_steps_s = sum_of("color_middle", true) - params_s - acd_s - vstart_s;
    let lowdeg_s = sum_of("lowdeg", true);

    let g = &inst.graph;
    let mpc = NodeMpc::new(MpcConfig::new(g.n().max(2), g.m().max(1), params.phi));
    let charge_s = median_secs(3, || mpc.charge_neighbor_broadcast(g, |_| true, 1));
    let verify_s = median_secs(3, || inst.verify_coloring(&traced[0].colors));

    // --- counts from the solver's own statistics ---
    let stats = &traced[0].stats;
    let steps = &stats.steps;
    let step_count = steps.len() as f64;
    let active: usize = steps.iter().map(|s| s.active).sum();
    let adopted: usize = steps.iter().map(|s| s.adopted).sum();
    let deferred: usize = steps.iter().map(|s| s.failures).sum();
    let parts = &stats.partition_stats;
    let (dist, worker) = traced[0].dist.unwrap_or_default();
    let job_bytes = match input {
        Input::Job(job) => job.len() as f64,
        _ => 0.0,
    };

    // --- set-up layers ---
    let build_s = match input {
        // The job codec builds the palettes inside `decode_job`: time
        // that part on its own.
        Input::Job(_) => median_secs(SETUP_REPEATS, || PaletteArena::degree_plus_one(&inst.graph)),
        _ => median(&setup.build_s),
    };
    let input_bytes = match input.bytes() {
        // Generated in-process: the CSR arrays it builds.
        0 => (8 * (g.n() + 1) + 4 * g.adj().len()) as f64,
        b => b as f64,
    };

    let attributed = search_busy_s
        + partition_s
        + params_s
        + acd_s
        + vstart_s
        + mid_steps_s
        + lowdeg_s
        + verify_s;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("cli.load_s", median(&setup.load_s), "s"),
        m("cli.input_bytes", input_bytes, "bytes"),
        m("instance.build_s", build_s, "s"),
        m(
            "instance.palette_words",
            inst.palettes.words() as f64,
            "words",
        ),
        m("search.busy_s", search_busy_s, "s"),
        m("search.count", search_count, "count"),
        m("search.seeds", search_seeds, "count"),
        m(
            "search.seeds_per_s",
            ratio(search_seeds, search_busy_s),
            "1/s",
        ),
        m(
            "search.share",
            ratio(search_busy_s, traced_solve_s),
            "ratio",
        ),
        m("node_params.compute_s", params_s, "s"),
        m(
            "node_params.stage_nodes",
            counts.stage_nodes as f64,
            "count",
        ),
        m("node_params.two_hop", counts.two_hop as f64, "count"),
        m("acd.compute_s", acd_s, "s"),
        m("acd.dense_nodes", counts.dense_nodes as f64, "count"),
        m("acd.cliques", counts.cliques as f64, "count"),
        m("vstart.compute_s", vstart_s, "s"),
        m("vstart.size", counts.vstart as f64, "count"),
        m("mid.steps_s", mid_steps_s, "s"),
        m("step.count", step_count, "count"),
        m("step.active", active as f64, "count"),
        m("step.adopted", adopted as f64, "count"),
        m(
            "step.adopt_ratio",
            ratio(adopted as f64, active as f64),
            "ratio",
        ),
        m("step.deferred", deferred as f64, "count"),
        m("mpc.charge_s", charge_s * step_count, "s"),
        m("reduce.partition_s", partition_s, "s"),
        m("reduce.levels", stats.partitions as f64, "count"),
        m(
            "reduce.hash_seeds",
            parts.iter().map(|p| p.seeds_tried).sum::<u64>() as f64,
            "count",
        ),
        m(
            "reduce.binned_nodes",
            parts.iter().map(|p| p.high_nodes).sum::<usize>() as f64,
            "count",
        ),
        m(
            "reduce.moved_to_mid",
            parts
                .iter()
                .map(|p| p.violations_moved_to_mid)
                .sum::<usize>() as f64,
            "count",
        ),
        m("lowdeg.color_s", lowdeg_s, "s"),
        m("lowdeg.nodes", stats.lowdeg_finished as f64, "count"),
        m("verify.s", verify_s, "s"),
        m("dist.remote_units", dist.remote_units as f64, "count"),
        m("dist.local_units", dist.local_units as f64, "count"),
        m("dist.granted", dist.granted as f64, "count"),
        m("dist.reissued", dist.reissued as f64, "count"),
        m("dist.result_frames", worker.result_frames as f64, "count"),
        m("dist.job_bytes", job_bytes, "bytes"),
        m("trace.overhead_s", traced_solve_s - untraced_solve_s, "s"),
        m("trace.unattributed_s", traced_solve_s - attributed, "s"),
    ]
}
