//! E18 — million-node scaling sweep over the streaming construction
//! pipeline: build-ms, solve-ms, and peak RSS per `(family, n)` leg.
//!
//! Every leg builds its graph through the two-pass streaming path (the
//! only edge-to-CSR path there is).  The first solved leg also
//! roundtrips through a `.pcg` file and asserts the mmap-loaded solve
//! is **bit-identical** to the owned-memory solve; a mismatch aborts
//! the run (non-zero exit), which is what the CI `scale-smoke` job keys
//! on.  Writes `BENCH_scale.json`, with the host's thread count and CPU
//! model.
//!
//! Peak RSS is the kernel's `VmHWM` — monotone over the process — so
//! legs run smallest-first and the recorded value is the cumulative
//! peak after that leg.

use parcolor_bench::{f1, host_json, peak_rss, quick, s, timed, Table};
use parcolor_core::{D1lcInstance, Graph, Params, SeedStrategy, Solver};
use parcolor_graphgen as gen;

const SEED: u64 = 42;

fn build(family: &str, n: usize) -> Graph {
    match family {
        "gnp" => gen::gnp(n, 8.0 / n as f64, SEED),
        "gnm" => gen::gnm(n, 4 * n, SEED),
        "regular" => gen::random_regular(n, 8, SEED),
        "powerlaw" => gen::power_law(n, 2.5, 8.0, SEED),
        other => unreachable!("unknown family {other}"),
    }
}

fn solver() -> Solver {
    Solver::deterministic(
        Params::default()
            .with_seed_bits(4)
            .with_strategy(SeedStrategy::FixedSubset(8)),
    )
}

fn solve_colors(g: Graph) -> Vec<u32> {
    let inst = D1lcInstance::delta_plus_one(g);
    let sol = solver().solve(&inst);
    inst.verify_coloring(&sol.colors).expect("valid coloring");
    sol.colors
}

struct Row {
    family: &'static str,
    n: usize,
    m: usize,
    build_ms: f64,
    solve_ms: f64, // < 0 when the leg is build-only
    peak_rss_mb: f64,
}

fn main() {
    println!("# E18: scaling sweep (streaming CSR pipeline)\n");
    let families: [&'static str; 4] = ["gnp", "gnm", "regular", "powerlaw"];
    // (n, solve?) legs per family, smallest first (VmHWM is monotone).
    let legs: Vec<(usize, bool)> = if quick() {
        vec![(10_000, true), (100_000, true)]
    } else {
        vec![(10_000, true), (100_000, true), (1_000_000, true)]
    };

    let mut rows: Vec<Row> = Vec::new();
    let mut pcg_checked = false;
    for &(n, solve) in &legs {
        for family in families {
            let (g, build_ms) = timed(|| build(family, n));
            let m = g.m();
            let mut solve_ms = -1.0;
            if solve {
                let g2 = g.clone();
                let (colors, ms) = timed(|| solve_colors(g2));
                solve_ms = ms;
                if !pcg_checked {
                    assert_pcg_solve_matches(&g, &colors, family, n);
                    pcg_checked = true;
                }
            }
            drop(g);
            rows.push(Row {
                family,
                n,
                m,
                build_ms,
                solve_ms,
                peak_rss_mb: peak_rss() as f64 / (1024.0 * 1024.0),
            });
            eprintln!(
                "  {family} n={n}: m={m} build={build_ms:.0}ms solve={solve_ms:.0}ms rss={:.0}MB",
                rows.last().unwrap().peak_rss_mb
            );
        }
    }
    if !quick() {
        // The 10^7 frontier: gnp build-only (construction dominates
        // end-to-end there).
        let n = 10_000_000;
        let (g, build_ms) = timed(|| build("gnp", n));
        rows.push(Row {
            family: "gnp",
            n,
            m: g.m(),
            build_ms,
            solve_ms: -1.0,
            peak_rss_mb: peak_rss() as f64 / (1024.0 * 1024.0),
        });
        eprintln!(
            "  gnp n={n}: m={} build={build_ms:.0}ms rss={:.0}MB",
            g.m(),
            rows.last().unwrap().peak_rss_mb
        );
    }
    assert!(pcg_checked, "no leg exercised the .pcg mmap solve check");

    let mut t = Table::new(&["family", "n", "m", "build ms", "solve ms", "peak RSS MB"]);
    for r in &rows {
        t.row(&[
            s(r.family),
            s(r.n),
            s(r.m),
            f1(r.build_ms),
            if r.solve_ms < 0.0 {
                "-".into()
            } else {
                f1(r.solve_ms)
            },
            f1(r.peak_rss_mb),
        ]);
    }
    t.print();
    println!("\n.pcg mmap solve bit-identical to owned (asserted).");

    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"family\": \"{}\", \"n\": {}, \"m\": {}, \"build_ms\": {:.1}, \
                 \"solve_ms\": {:.1}, \"peak_rss_mb\": {:.1}}}",
                r.family, r.n, r.m, r.build_ms, r.solve_ms, r.peak_rss_mb
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"e18_scale\",\n  \"host\": {},\n  \"quick\": {},\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        host_json(),
        quick(),
        json_rows.join(",\n")
    );
    match std::fs::write("BENCH_scale.json", &json) {
        Ok(()) => println!("wrote BENCH_scale.json"),
        Err(e) => eprintln!("cannot write BENCH_scale.json: {e}"),
    }
}

/// Roundtrip `g` through a `.pcg` file and assert the mmap-loaded solve
/// is bit-identical to the owned-memory solve (`expected`).
fn assert_pcg_solve_matches(g: &Graph, expected: &[u32], family: &str, n: usize) {
    let path = std::env::temp_dir().join(format!("parcolor-e18-{}.pcg", std::process::id()));
    {
        let f = std::io::BufWriter::new(std::fs::File::create(&path).expect("create .pcg"));
        parcolor_cli::pcg::write_pcg(f, g).expect("write .pcg");
    }
    let loaded = parcolor_cli::pcg::load_pcg(&path).expect("load .pcg");
    if cfg!(all(unix, target_endian = "little")) {
        assert!(loaded.is_mapped(), "load should be zero-copy here");
    }
    let colors = solve_colors(loaded);
    assert_eq!(
        colors, expected,
        "{family} n={n}: mmap-loaded solve diverges from owned-memory solve"
    );
    std::fs::remove_file(&path).ok();
}
