//! Property tests pinning the seed-block and hash lanes to their scalar
//! counterparts.
//!
//! A PRG seed block's `below_lanes` must equal each lane tape's scalar
//! `below`, and the trait's per-lane default (`ForceScalar`), at every
//! lane count, for a block that ends at the last seed of the space, and
//! at the extreme bounds.  The clash scan's `lane_eq_mask8` must equal
//! the per-lane `==`.  `KWiseHash::eval_batch` must equal `eval` for
//! every independence `k ∈ 1..=4`, over random stripes and explicitly at
//! the lane boundaries of [`MIX_LANES`].

use parcolor_local::simd::lane_eq_mask8;
use parcolor_local::tape::{ForceScalar, Randomness, TapeBlock, BLOCK_LANES};
use parcolor_prg::hashing::{KWiseFamily, MIX_LANES};
use parcolor_prg::{ChunkAssignment, Prg, PrgBlock, PrgTape};
use proptest::prelude::*;

/// Stripe lengths the `eval_batch` property probes: the lane boundaries
/// of [`MIX_LANES`] plus the full random stripe.
fn probe_sizes(full: usize) -> Vec<usize> {
    let mut sizes = vec![0, 1, MIX_LANES - 1, MIX_LANES, MIX_LANES + 1, full];
    sizes.retain(|&s| s <= full);
    sizes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

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

    // The lane compare must be bit-identical to the per-lane `==` it
    // batches.
    #[test]
    fn simd_kernels_match_scalar(
        a in proptest::collection::vec(any::<u32>(), 8),
        flip in 0usize..8,
    ) {
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
