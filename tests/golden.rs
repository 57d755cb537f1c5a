//! Golden determinism tests: the deterministic solver (Theorem 1) is
//! bit-reproducible, so the coloring of a fixed instance under fixed
//! parameters is a constant.  These hashes pin that constant; they fail
//! if *any* behavioral change slips into the deterministic pipeline —
//! seed search, PRG, procedure order, ACD tie-breaks, anything.  A second
//! table pins the randomized solver (Lemma 4) under a fixed master key,
//! which covers how each step's outcome is built and applied.
//!
//! If a change is intentional, regenerate with the snippet in this file's
//! history (FNV-1a over the color vector) and update the table — the
//! point is that such changes are *noticed*, not forbidden.

use parcolor_core::{Params, Solver};
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

fn instance_of(name: &str) -> parcolor_core::D1lcInstance {
    match name {
        "gnm_small" => gen::degree_plus_one(gen::gnm(500, 2_000, 1)),
        "powerlaw" => gen::degree_plus_one(gen::power_law(500, 2.5, 8.0, 2)),
        "planted" => gen::degree_plus_one(gen::planted_cliques(&[24, 20], 0.1, 300, 6, 3)),
        "lists" => gen::random_lists(gen::gnm(400, 1_600, 4), 1_024, 2, 5),
        "torus" => gen::degree_plus_one(gen::torus(15, 15)),
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
fn golden_hashes_are_distinct() {
    // Guards against a copy-paste error in the tables themselves.
    let mut hs: Vec<u64> = GOLDEN
        .iter()
        .chain(RANDOMIZED_GOLDEN)
        .map(|&(_, h)| h)
        .collect();
    hs.sort_unstable();
    hs.dedup();
    assert_eq!(hs.len(), GOLDEN.len() + RANDOMIZED_GOLDEN.len());
}
