//! Golden determinism tests: the deterministic solver (Theorem 1) is
//! bit-reproducible, so the coloring of a fixed instance under fixed
//! parameters is a constant.  These hashes pin that constant; they fail
//! if *any* behavioral change slips into the deterministic pipeline —
//! seed search, PRG, procedure order, ACD tie-breaks, anything.  A second
//! table pins the randomized solver (Lemma 4) under a fixed master key,
//! which covers how each step's outcome is built and applied.  A last
//! row pins derandomized Luby MIS, the same seed search outside the
//! coloring pipeline.
//!
//! If a change is intentional, regenerate with the snippet in this file's
//! history (FNV-1a over the color vector) and update the table — the
//! point is that such changes are *noticed*, not forbidden.

use parcolor_core::mis::{derandomized_luby_mis, verify_mis};
use parcolor_core::{Params, SeedStrategy, Solver};
use parcolor_graphgen as gen;

fn fnv(colors: &[u32]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &c in colors {
        h ^= c as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

const GOLDEN: &[(&str, u64)] = &[
    ("gnm_small", 0x304417442566199d),
    ("powerlaw", 0x628f1bf94afb89b6),
    ("planted", 0x97632bb00d9c50dc),
    ("lists", 0x952f23117cd4dd63),
    ("torus", 0x8fe1d40d608200de),
];

/// The randomized solver (Lemma 4) under master key 7 is just as
/// reproducible: the keyed tape is a pure function of its address.
const RANDOMIZED_GOLDEN: &[(&str, u64)] = &[
    ("gnm_small", 0xf3d86d825cee98b0),
    ("powerlaw", 0x1f7a75103169be94),
    ("planted", 0x762e93b91f482ec0),
    ("lists", 0xd4dab49403e793ea),
    ("torus", 0x2bf269ea158f4392),
];

/// Solves that run Lemma 23's partition recursion and search its hash
/// family past seed 0: the coloring hash, then one `(chosen_seed,
/// seeds_tried, violations_moved_to_mid)` per partition level, in the
/// order `SolveStats::partition_stats` lists them.
type PartitionLevel = (u64, u64, usize);
const PARTITION_GOLDEN: &[(&str, u32, u64, &[PartitionLevel])] = &[
    (
        "gnm_dense",
        16,
        0x6999b57e597b8803,
        &[(106, 256, 2), (0, 1, 0), (0, 1, 0), (0, 1, 0)],
    ),
    (
        "planted_lists",
        32,
        0x9071afc885477bd6,
        &[(0, 1, 0), (3, 4, 0), (1, 2, 0), (0, 1, 0)],
    ),
];

/// Derandomized Luby MIS (Section 4.1) on E10's quick determinism
/// instance, `gnm(500, 2000, 9)` at 7 seed bits, Exhaustive: the hash of
/// the in-set mask, the rounds, and each round's `(chosen cost, seed-space
/// mean)`.
const MIS_GOLDEN: (u64, u64, &[(f64, f64)]) = (
    0x8c5ad437ed79b147,
    3,
    &[(108.0, 152.6484375), (5.0, 12.703125), (0.0, 0.0)],
);

fn instance_of(name: &str) -> parcolor_core::D1lcInstance {
    match name {
        "gnm_small" => gen::degree_plus_one(gen::gnm(500, 2_000, 1)),
        "powerlaw" => gen::degree_plus_one(gen::power_law(500, 2.5, 8.0, 2)),
        "planted" => gen::degree_plus_one(gen::planted_cliques(&[24, 20], 0.1, 300, 6, 3)),
        "lists" => gen::random_lists(gen::gnm(400, 1_600, 4), 1_024, 2, 5),
        "torus" => gen::degree_plus_one(gen::torus(15, 15)),
        "gnm_dense" => gen::degree_plus_one(gen::gnm(600, 9_000, 3)),
        "planted_lists" => gen::random_lists(
            gen::planted_cliques(&[128; 4], 0.1, 2_000, 8, 1),
            4096,
            0,
            1,
        ),
        other => panic!("unknown golden case {other}"),
    }
}

#[test]
fn deterministic_solver_matches_golden_hashes() {
    for &(name, expected) in GOLDEN {
        let inst = instance_of(name);
        let sol = Solver::deterministic(Params::default().with_seed_bits(5)).solve(&inst);
        inst.verify_coloring(&sol.colors).unwrap();
        let got = fnv(&sol.colors);
        assert_eq!(
            got, expected,
            "{name}: deterministic output drifted (got 0x{got:016x})"
        );
    }
}

#[test]
fn partitioned_solves_match_golden_hashes_and_hash_seeds() {
    for &(name, mid_cap, expected, levels) in PARTITION_GOLDEN {
        let inst = instance_of(name);
        let params = Params::default()
            .with_seed_bits(5)
            .with_mid_degree_cap(mid_cap);
        let sol = Solver::deterministic(params).solve(&inst);
        inst.verify_coloring(&sol.colors).unwrap();
        let got = fnv(&sol.colors);
        assert_eq!(
            got, expected,
            "{name}: partitioned output drifted (got 0x{got:016x})"
        );
        let got: Vec<PartitionLevel> = sol
            .stats
            .partition_stats
            .iter()
            .map(|p| (p.chosen_seed, p.seeds_tried, p.violations_moved_to_mid))
            .collect();
        assert_eq!(got, levels, "{name}: partition levels drifted");
    }
}

#[test]
fn randomized_solver_matches_golden_hashes() {
    for &(name, expected) in RANDOMIZED_GOLDEN {
        let inst = instance_of(name);
        let sol = Solver::randomized(Params::default(), 7).solve(&inst);
        inst.verify_coloring(&sol.colors).unwrap();
        let got = fnv(&sol.colors);
        assert_eq!(
            got, expected,
            "{name}: randomized output drifted (got 0x{got:016x})"
        );
    }
}

#[test]
fn derandomized_mis_matches_golden() {
    let g = gen::gnm(500, 2_000, 9);
    let res = derandomized_luby_mis(&g, 7, SeedStrategy::Exhaustive, 10_000);
    verify_mis(&g, &res.in_mis).unwrap();
    let bits: Vec<u32> = res.in_mis.iter().map(|&b| u32::from(b)).collect();
    let (hash, rounds, checks) = MIS_GOLDEN;
    let got = fnv(&bits);
    assert_eq!(got, hash, "MIS drifted (got 0x{got:016x})");
    assert_eq!(res.rounds, rounds, "MIS rounds drifted");
    assert_eq!(res.guarantee_checks, checks, "per-round seed costs drifted");
}

#[test]
fn golden_hashes_are_distinct() {
    // Guards against a copy-paste error in the tables themselves.
    let mut hs: Vec<u64> = GOLDEN
        .iter()
        .chain(RANDOMIZED_GOLDEN)
        .map(|&(_, h)| h)
        .chain(PARTITION_GOLDEN.iter().map(|&(_, _, h, _)| h))
        .collect();
    hs.sort_unstable();
    hs.dedup();
    assert_eq!(
        hs.len(),
        GOLDEN.len() + RANDOMIZED_GOLDEN.len() + PARTITION_GOLDEN.len()
    );
}
