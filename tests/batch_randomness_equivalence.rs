//! Property tests pinning the batched randomness plane to its scalar
//! counterpart (the batch contract of `parcolor_local::tape` and
//! `parcolor_prg::hashing`).
//!
//! For every tape type — `CryptoTape`, `PrgTape` under both chunk
//! assignments, and the `ForceScalar` adapter running the trait defaults —
//! the batched `fill_words` / `fill_words_seq` / `fill_below` must
//! equal the scalar `word` / `below` calls element-for-element, over
//! random node stripes and explicitly at the lane boundaries of both lane
//! widths (the 4-lane `splitmix4` mixers and the 8-lane k-wise hash).
//! A PRG seed block's `below_lanes` must equal each lane tape's scalar
//! `below`, and the trait's per-lane default (`ForceScalar`), at every
//! lane count, for a block that ends at the last seed of the space, and
//! at the extreme bounds.  Likewise
//! `KWiseHash::eval_batch` must equal `eval` for every independence
//! `k ∈ 1..=4`.

use parcolor_local::simd::{lane_eq_mask8, splitmix4, SPLITMIX_LANES};
use parcolor_local::tape::{
    splitmix64, CryptoTape, ForceScalar, Randomness, TapeBlock, BLOCK_LANES, MIX_LANES,
};
use parcolor_prg::hashing::KWiseFamily;
use parcolor_prg::{ChunkAssignment, Prg, PrgBlock, PrgTape};
use proptest::prelude::*;

/// Stripe lengths every property probes: the lane boundaries of
/// [`SPLITMIX_LANES`] and [`MIX_LANES`] plus the full random stripe.
fn probe_sizes(full: usize) -> Vec<usize> {
    let mut sizes = vec![
        0,
        1,
        SPLITMIX_LANES - 1,
        SPLITMIX_LANES,
        SPLITMIX_LANES + 1,
        MIX_LANES - 1,
        MIX_LANES,
        MIX_LANES + 1,
        full,
    ];
    sizes.retain(|&s| s <= full);
    sizes
}

/// Assert all three batch methods equal their scalar counterparts on a
/// prefix stripe of `nodes`.
fn assert_batch_matches_scalar(tape: &dyn Randomness, nodes: &[u32], stream: u64, idx: u32) {
    for len in probe_sizes(nodes.len()) {
        let stripe = &nodes[..len];
        let bounds: Vec<u64> = stripe.iter().map(|&v| (v as u64 % 23) + 1).collect();
        let mut words = vec![0u64; len];
        tape.fill_words(stream, stripe, idx, &mut words);
        let mut below = vec![0u64; len];
        tape.fill_below(stream, stripe, idx, &bounds, &mut below);
        for (i, &v) in stripe.iter().enumerate() {
            prop_assert_eq!(
                words[i],
                tape.word(v, stream, idx),
                "words len {} lane {}",
                len,
                i
            );
            prop_assert_eq!(below[i], tape.below(v, stream, idx, bounds[i]));
        }
        if len > 0 {
            let mut seq = vec![0u64; len];
            tape.fill_words_seq(stripe[0], stream, idx, &mut seq);
            for (i, &w) in seq.iter().enumerate() {
                prop_assert_eq!(w, tape.word(stripe[0], stream, idx.wrapping_add(i as u32)));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn crypto_tape_batches_match_scalar(
        key in any::<u64>(),
        stream in any::<u64>(),
        idx in 0u32..10_000,
        nodes in proptest::collection::vec(0u32..512, (3 * MIX_LANES)..(4 * MIX_LANES)),
    ) {
        let tape = CryptoTape::new(key);
        assert_batch_matches_scalar(&tape, &nodes, stream, idx);
        // The ForceScalar adapter (trait defaults over the scalar mixer)
        // must agree with the lane overrides word-for-word.
        let forced = ForceScalar(CryptoTape::new(key));
        let mut lanes = vec![0u64; nodes.len()];
        let mut scalar = vec![0u64; nodes.len()];
        tape.fill_words(stream, &nodes, idx, &mut lanes);
        forced.fill_words(stream, &nodes, idx, &mut scalar);
        prop_assert_eq!(lanes, scalar);
    }

    #[test]
    fn prg_tape_batches_match_scalar(
        seed in 0u64..4096,
        stream in any::<u64>(),
        idx in 0u32..10_000,
        nodes in proptest::collection::vec(0u32..512, (3 * MIX_LANES)..(4 * MIX_LANES)),
    ) {
        let prg = Prg::new(12);
        let per_node = ChunkAssignment::PerNode;
        let coloring = ChunkAssignment::PowerColoring {
            colors: (0..512u32).map(|v| v % 13).collect(),
        };
        for chunks in [&per_node, &coloring] {
            let tape = PrgTape::new(prg, seed, chunks);
            assert_batch_matches_scalar(&tape, &nodes, stream, idx);
            let forced = ForceScalar(PrgTape::new(prg, seed, chunks));
            let mut lanes = vec![0u64; nodes.len()];
            let mut scalar = vec![0u64; nodes.len()];
            tape.fill_words(stream, &nodes, idx, &mut lanes);
            forced.fill_words(stream, &nodes, idx, &mut scalar);
            prop_assert_eq!(lanes, scalar);
        }
    }

    #[test]
    fn prg_block_lanes_match_scalar(
        seed0 in 0u64..4096,
        stream in any::<u64>(),
        idx in 0u32..10_000,
        bound in 2u64..(1 << 32),
        nodes in proptest::collection::vec(0u32..512, 1..MIX_LANES),
    ) {
        let prg = Prg::new(12);
        let space = prg.seed_space();
        let per_node = ChunkAssignment::PerNode;
        let coloring = ChunkAssignment::PowerColoring {
            colors: (0..512u32).map(|v| v % 13).collect(),
        };
        for chunks in [&per_node, &coloring] {
            for lanes in 1..=BLOCK_LANES {
                // A block where the draw put it, and the one ending at the
                // last seed of the space.
                let last = space - lanes as u64;
                for start in [seed0.min(last), last] {
                    let block = PrgBlock::new(prg, start, lanes, chunks);
                    let forced = ForceScalar(PrgBlock::new(prg, start, lanes, chunks));
                    prop_assert_eq!(block.lanes(), lanes);
                    for &v in &nodes {
                        for b in [1, bound, (1 << 32) - 1, 1 << 32] {
                            let got = block.below_lanes(v, stream, idx, b);
                            let want = forced.below_lanes(v, stream, idx, b);
                            for s in 0..lanes {
                                let tape = PrgTape::new(prg, start + s as u64, chunks);
                                prop_assert_eq!(
                                    got[s],
                                    tape.below(v, stream, idx, b),
                                    "lanes {} from seed {} lane {} bound {}",
                                    lanes,
                                    start,
                                    s,
                                    b
                                );
                                prop_assert_eq!(want[s], got[s]);
                            }
                        }
                    }
                }
            }
        }
    }

    // The lane kernels must be bit-identical to the per-lane mixer and
    // compare they batch.
    #[test]
    fn simd_kernels_match_scalar(
        zs in proptest::collection::vec(any::<u64>(), SPLITMIX_LANES),
        a in proptest::collection::vec(any::<u32>(), 8),
        flip in 0usize..8,
    ) {
        let z: [u64; SPLITMIX_LANES] = [zs[0], zs[1], zs[2], zs[3]];
        let got = splitmix4(z);
        for l in 0..SPLITMIX_LANES {
            prop_assert_eq!(got[l], splitmix64(z[l]), "lane {}", l);
        }
        let row: [u32; 8] = std::array::from_fn(|i| a[i]);
        let mut other = row;
        other[flip] = other[flip].wrapping_add(1);
        let eq = lane_eq_mask8(&row, &other);
        for s in 0..8 {
            prop_assert_eq!(eq >> s & 1 == 1, row[s] == other[s], "lane {}", s);
        }
        prop_assert_eq!(lane_eq_mask8(&row, &row), 0xFF);
    }

    #[test]
    fn kwise_eval_batch_matches_scalar(
        k in 1u32..5,
        seed in any::<u64>(),
        range in 1u64..100_000,
        xs in proptest::collection::vec(any::<u64>(), (3 * MIX_LANES)..(4 * MIX_LANES)),
    ) {
        let fam = KWiseFamily::new(k, range);
        let h = fam.member(seed);
        for len in probe_sizes(xs.len()) {
            let stripe = &xs[..len];
            let mut out = vec![0u64; len];
            h.eval_batch(stripe, &mut out);
            for (i, &x) in stripe.iter().enumerate() {
                prop_assert_eq!(out[i], h.eval(x), "k {} len {} lane {}", k, len, i);
            }
        }
    }
}
