//! `parcolor` — deterministic (degree+1)-list coloring from the shell.
//!
//! ```text
//! parcolor solve       <graph.col|.pcg> [-o coloring.txt] [--randomized <key>] [--seed-bits B]
//!                      [--workers W]
//! parcolor verify      <graph.col|.pcg> <coloring.txt>
//! parcolor gen         <family> <n> <param> [seed] [-o graph.col|.pcg]
//! parcolor convert     <in.col|.pcg> <out.col|.pcg>
//! parcolor stats       <graph.col|.pcg>
//! parcolor coordinator <graph.col|.pcg> --listen HOST:PORT [--min-workers K] [--seed-bits B]
//!                      [--strategy ex|bw|fs:K|ss:S] [--workers W] [--blocks-per-lease N]
//!                      [--local-patience-ms T] [--lease-timeout-ms T]
//!                      [--heartbeat-timeout-ms T] [-o coloring.txt]
//! parcolor coordinator --listen HOST:PORT --standby PRIMARY:PORT [-o coloring.txt]
//! parcolor worker      --connect HOST:PORT[,HOST:PORT] [--workers W]
//! ```
//!
//! Every graph argument accepts either text DIMACS or the binary `.pcg`
//! container (selected by extension).  `.pcg` is the scale path: graphs
//! load zero-copy via `mmap` on little-endian unix, and `gen -o x.pcg`
//! writes it directly.
//!
//! `--workers` runs the seed search and the striped round simulation on
//! W executor workers (0 = auto: `PARCOLOR_THREADS`, else all hardware
//! threads); the chosen seeds — and hence the coloring — are identical
//! at every worker count.
//!
//! `coordinator` serves the deterministic solve to a fleet: workers
//! connect, lease seed ranges, and return grouping-invariant aggregates,
//! so the coloring is bit-identical to `parcolor solve` on one machine —
//! with any number of workers, including zero (the coordinator degrades
//! to the local search if the fleet dies).  With `--standby PRIMARY`
//! the process runs as a hot standby instead: it tails the primary's
//! replication stream and, if the primary dies or hands over, promotes
//! itself and finishes the solve bit-identically — workers given both
//! addresses (`--connect primary,standby`) re-home automatically.  See
//! the `parcolor-dist` crate docs for the protocol, the epoch-fencing
//! rules, and the lease-lifecycle contract.
//!
//! Families for `gen`: `gnm` (param = m), `gnp` (param = p·1000, an
//! integer), `regular` (param = d), `powerlaw` (param = avg-degree),
//! `ring`, `torus` (param = side); `n` is at most `u32::MAX`.

use parcolor_cli::args::{
    parse_coordinator_args, parse_gen_args, parse_solve_args, parse_worker_args, GenFamily,
};
use parcolor_cli::job::{decode_job, encode_job};
use parcolor_cli::pcg::write_pcg;
use parcolor_cli::{instance_of, load_graph, parse_coloring, write_coloring, write_dimacs};
use parcolor_core::Graph;
use parcolor_core::{Params, SeedStrategy, Solution, Solver};
use parcolor_dist::{run_standby, run_worker, DistConfig, DistCoordinator};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::exit;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage:\n  parcolor solve       <graph.col|.pcg> [-o out.txt] [--randomized <key>] [--seed-bits B] [--workers W]\n  parcolor verify      <graph.col|.pcg> <coloring.txt>\n  parcolor gen         <gnm|gnp|regular|powerlaw|ring|torus> <n> <param> [seed] [-o out.col|.pcg]\n  parcolor convert     <in.col|.pcg> <out.col|.pcg>\n  parcolor stats       <graph.col|.pcg>\n  parcolor coordinator <graph.col|.pcg> --listen HOST:PORT [--min-workers K] [--seed-bits B] [--strategy S] [--workers W] [--blocks-per-lease N] [--local-patience-ms T] [--lease-timeout-ms T] [--heartbeat-timeout-ms T] [-o out.txt]\n  parcolor coordinator --listen HOST:PORT --standby PRIMARY:PORT [-o out.txt]\n  parcolor worker      --connect HOST:PORT[,HOST:PORT] [--workers W]"
    );
    exit(2)
}

/// Print a usage-level diagnostic for `subcmd` and exit 2.
fn die_usage(subcmd: &str, msg: &str) -> ! {
    eprintln!("parcolor {subcmd}: {msg}");
    eprintln!("(run `parcolor` with no arguments for usage)");
    exit(2)
}

fn open(path: &str) -> BufReader<File> {
    BufReader::new(File::open(path).unwrap_or_else(|e| {
        eprintln!("cannot open {path}: {e}");
        exit(1)
    }))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("solve") => cmd_solve(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("gen") => cmd_gen(&args[1..]),
        Some("convert") => cmd_convert(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("coordinator") => cmd_coordinator(&args[1..]),
        Some("worker") => cmd_worker(&args[1..]),
        _ => usage(),
    }
}

fn report_solution(inst: &parcolor_core::D1lcInstance, sol: &Solution) {
    eprintln!(
        "solved: n={} m={} Δ={}  MPC rounds={}  LOCAL rounds={}  peak machine words={}",
        inst.n(),
        inst.graph.m(),
        inst.graph.max_degree(),
        sol.cost.mpc_rounds,
        sol.cost.local_rounds,
        sol.cost.max_machine_words
    );
}

fn emit_coloring(out: Option<&str>, colors: &[u32]) {
    match out {
        Some(out) => {
            let f = BufWriter::new(File::create(out).unwrap_or_else(|e| {
                eprintln!("cannot create {out}: {e}");
                exit(1)
            }));
            write_coloring(f, colors).expect("write");
            eprintln!("coloring written to {out}");
        }
        None => {
            write_coloring(std::io::stdout().lock(), colors).expect("write");
        }
    }
}

fn cmd_solve(args: &[String]) {
    let opts = parse_solve_args(args).unwrap_or_else(|e| die_usage("solve", &e));
    let g = load_graph(&opts.input).unwrap_or_else(|e| {
        eprintln!("parse error: {e}");
        exit(1)
    });
    let inst = instance_of(g);
    let params = Params::default()
        .with_seed_bits(opts.seed_bits)
        .with_strategy(SeedStrategy::FixedSubset(16))
        .with_workers(opts.workers);
    let sol = match opts.randomized {
        Some(key) => Solver::randomized(params, key).solve(&inst),
        None => Solver::deterministic(params).solve(&inst),
    };
    inst.verify_coloring(&sol.colors)
        .expect("internal: invalid");
    report_solution(&inst, &sol);
    emit_coloring(opts.out.as_deref(), &sol.colors);
}

fn print_cluster_stats(stats: &parcolor_dist::DistStats) {
    eprintln!(
        "cluster: searches={} folds={} remote_units={} local_units={} granted={} reissued={} expired={} orphaned={} duplicates={} fenced={} replayed={} evictions={} disconnects={}",
        stats.searches,
        stats.folds,
        stats.remote_units,
        stats.local_units,
        stats.granted,
        stats.reissued,
        stats.expired,
        stats.orphaned,
        stats.duplicates,
        stats.fenced,
        stats.replayed_units,
        stats.evictions,
        stats.disconnects
    );
}

fn cmd_coordinator(args: &[String]) {
    let opts = parse_coordinator_args(args).unwrap_or_else(|e| die_usage("coordinator", &e));
    if let Some(primary) = &opts.standby_of {
        return cmd_standby(&opts, primary);
    }

    let input = opts.input.as_deref().expect("validated primary input");
    let g = load_graph(input).unwrap_or_else(|e| {
        eprintln!("parse error: {e}");
        exit(1)
    });
    let job = encode_job(&g, opts.seed_bits, opts.strategy);
    // Decode our own encoding: coordinator and workers build (instance,
    // params) through the exact same path, so the replicas cannot
    // disagree on a default the job header doesn't carry.
    let (inst, params) = decode_job(&job).expect("internal: job codec roundtrip");
    let params = params.with_workers(opts.workers);

    let coordinator = Arc::new(
        DistCoordinator::bind(&opts.listen, job, opts.cfg.clone()).unwrap_or_else(|e| {
            eprintln!("cannot listen on {}: {e}", opts.listen);
            exit(1)
        }),
    );
    eprintln!(
        "coordinator listening on {} (waiting for {} worker(s))",
        coordinator.local_addr(),
        opts.cfg.min_workers
    );
    let sol = Solver::deterministic(params)
        .with_seed_searcher(coordinator.clone())
        .solve(&inst);
    inst.verify_coloring(&sol.colors)
        .expect("internal: invalid");
    let stats = coordinator.stats();
    let had_standby = coordinator.connected_standbys() > 0;
    if had_standby {
        // Orderly handover before the Bye broadcast, so an attached
        // standby exits promptly instead of waiting out its reconnect
        // budget.  (It solves the same job and exits — useful when the
        // standby is the one writing the output.)
        coordinator.handover();
    }
    coordinator.shutdown();
    report_solution(&inst, &sol);
    print_cluster_stats(&stats);
    emit_coloring(opts.out.as_deref(), &sol.colors);
}

/// `parcolor coordinator --standby PRIMARY`: tail the primary's
/// replication stream and finish the job if it dies (or hands over).
fn cmd_standby(opts: &parcolor_cli::args::CoordinatorOpts, primary: &str) {
    eprintln!("standby listening on {}, tailing {primary}", opts.listen);
    let workers = opts.workers;
    let outcome = run_standby(&opts.listen, primary, opts.cfg.clone(), |job, searcher| {
        let (inst, params) = decode_job(job).unwrap_or_else(|e| {
            eprintln!("primary sent an undecodable job: {e}");
            exit(1)
        });
        let sol = Solver::deterministic(params.with_workers(workers))
            .with_seed_searcher(searcher.clone())
            .solve(&inst);
        inst.verify_coloring(&sol.colors)
            .expect("internal: standby replica produced an invalid coloring");
        (inst, sol)
    });
    let ((inst, sol), standby) = outcome.unwrap_or_else(|e| {
        eprintln!("cannot start standby (primary {primary}): {e}");
        exit(1)
    });
    let st = standby.stats();
    report_solution(&inst, &sol);
    eprintln!(
        "standby: promoted={} promote_epoch={} tailed_selections={} replicated_units={} reconnects={}",
        st.promoted, st.promote_epoch, st.tailed_selections, st.replicated_units, st.reconnects
    );
    if st.promoted {
        print_cluster_stats(&standby.coordinator_stats());
    }
    emit_coloring(opts.out.as_deref(), &sol.colors);
}

fn cmd_worker(args: &[String]) {
    let opts = parse_worker_args(args).unwrap_or_else(|e| die_usage("worker", &e));
    let workers = opts.workers;
    eprintln!("worker connecting to {}", opts.connect.join(", "));
    let outcome = run_worker(&opts.connect, DistConfig::default(), |job, searcher| {
        let (inst, params) = decode_job(job).unwrap_or_else(|e| {
            eprintln!("coordinator sent an undecodable job: {e}");
            exit(1)
        });
        let sol = Solver::deterministic(params.with_workers(workers))
            .with_seed_searcher(searcher.clone())
            .solve(&inst);
        inst.verify_coloring(&sol.colors)
            .expect("internal: replica produced an invalid coloring");
        let stats = searcher.stats();
        eprintln!(
            "worker replica done: n={} served_units={} result_frames={} reconnects={} adopted={} standalone={}",
            inst.n(),
            stats.served_units,
            stats.result_frames,
            stats.reconnects,
            stats.adopted,
            searcher.is_standalone()
        );
        searcher.finish();
    });
    if let Err(e) = outcome {
        eprintln!("cannot join cluster at {}: {e}", opts.connect.join(", "));
        exit(1);
    }
}

fn cmd_verify(args: &[String]) {
    let (gp, cp) = match args {
        [g, c, ..] => (g, c),
        _ => usage(),
    };
    let g = load_graph(gp).unwrap_or_else(|e| {
        eprintln!("parse error: {e}");
        exit(1)
    });
    let inst = instance_of(g);
    let colors = parse_coloring(open(cp), inst.n()).unwrap_or_else(|e| {
        eprintln!("coloring parse error: {e}");
        exit(1)
    });
    match inst.verify_coloring(&colors) {
        Ok(()) => {
            let mut distinct: Vec<u32> = colors.clone();
            distinct.sort_unstable();
            distinct.dedup();
            println!(
                "VALID: {} nodes, {} distinct colors",
                inst.n(),
                distinct.len()
            );
        }
        Err(e) => {
            println!("INVALID: {e}");
            exit(1)
        }
    }
}

fn cmd_gen(args: &[String]) {
    let opts = parse_gen_args(args).unwrap_or_else(|e| die_usage("gen", &e));
    let (n, param, seed) = (opts.n, opts.param, opts.seed);
    let g = match opts.family {
        GenFamily::Gnm => parcolor_graphgen::gnm(n, param, seed),
        GenFamily::Gnp => parcolor_graphgen::gnp(n, param as f64 / 1000.0, seed),
        GenFamily::Regular => parcolor_graphgen::random_regular(n, param, seed),
        GenFamily::PowerLaw => parcolor_graphgen::power_law(n, 2.5, param as f64, seed),
        GenFamily::Ring => parcolor_graphgen::ring(n),
        GenFamily::Torus => parcolor_graphgen::torus(param, param),
    };
    let comment = format!(
        "parcolor gen {} n={n} param={param} seed={seed}",
        opts.family.name()
    );
    match opts.out.as_deref() {
        Some(out) => {
            write_graph_file(out, &g, &comment);
            eprintln!("graph written to {out} (n={} m={})", g.n(), g.m());
        }
        None => write_dimacs(std::io::stdout().lock(), &g, &comment).expect("write"),
    }
}

/// Write `g` to `out`, choosing the format by extension (`.pcg` binary,
/// DIMACS otherwise).
fn write_graph_file(out: &str, g: &Graph, comment: &str) {
    let f = BufWriter::new(File::create(out).unwrap_or_else(|e| {
        eprintln!("cannot create {out}: {e}");
        exit(1)
    }));
    if out.ends_with(".pcg") {
        write_pcg(f, g).expect("write");
    } else {
        write_dimacs(f, g, comment).expect("write");
    }
}

fn cmd_convert(args: &[String]) {
    let (input, out) = match args {
        [i, o, ..] => (i.as_str(), o.as_str()),
        _ => usage(),
    };
    let g = load_graph(input).unwrap_or_else(|e| {
        eprintln!("parse error: {e}");
        exit(1)
    });
    write_graph_file(out, &g, &format!("converted from {input}"));
    eprintln!(
        "{input} -> {out} (n={} m={}{})",
        g.n(),
        g.m(),
        if g.is_mapped() { ", source mmap'd" } else { "" }
    );
}

fn cmd_stats(args: &[String]) {
    let path = args.first().unwrap_or_else(|| usage());
    let g = load_graph(path).unwrap_or_else(|e| {
        eprintln!("parse error: {e}");
        exit(1)
    });
    let (comp, ncomp) = g.components();
    let degsum: usize = (0..g.n() as u32).map(|v| g.degree(v)).sum();
    println!("n          = {}", g.n());
    println!("m          = {}", g.m());
    println!("Δ          = {}", g.max_degree());
    println!("avg degree = {:.2}", degsum as f64 / g.n().max(1) as f64);
    println!("components = {ncomp}");
    let mut sizes = vec![0usize; ncomp];
    for &c in &comp {
        sizes[c as usize] += 1;
    }
    println!("largest cc = {}", sizes.iter().max().unwrap_or(&0));
}
