//! Property tests pinning the seed-block and hash lanes to their scalar
//! counterparts.
//!
//! A PRG seed block's `below_lanes` must equal each lane tape's scalar
//! `below`, and the trait's per-lane default (`ForceScalar`), at every
//! lane count, for a block that ends at the last seed of the space, and
//! at the extreme bounds.  The clash scan's `lane_eq_mask8` must equal
//! the per-lane `==`.  Every member of a hash `MemberBlock` must equal
//! its own scalar `eval`, for `k ∈ 1..=8` and a `k` whose dot products
//! would overflow a `u128` unless folded, at 1..=32 members, at keys on
//! and above the field's modulus, and at small and large ranges up to
//! the field itself.

use parcolor_local::simd::lane_eq_mask8;
use parcolor_local::tape::{ForceScalar, Randomness, TapeBlock, BLOCK_LANES};
use parcolor_prg::hashing::{KWiseFamily, KWiseHash, MemberBlock, MERSENNE_P};
use parcolor_prg::{ChunkAssignment, Prg, PrgBlock, PrgTape};
use proptest::prelude::*;

/// An independence far above the 32 terms a member's dot product sums
/// between folds: its unfolded sums of `k` products near `2^120` each
/// would overflow a `u128`.
const WIDE_K: u32 = 320;

/// The range whose reduction maps every field element to itself, so an
/// error in the field element shows in the output (a wrapped `u128`
/// shifts it by a multiple of `2^128 mod p = 64`, which smaller ranges
/// mostly round away).
const FIELD_RANGE: u64 = 1 << 61;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prg_block_lanes_match_scalar(
        seed0 in 0u64..4096,
        stream in any::<u64>(),
        idx in 0u32..10_000,
        bound in 2u64..(1 << 32),
        nodes in proptest::collection::vec(0u32..512, 1..BLOCK_LANES),
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
    fn kwise_member_block_matches_scalar(
        k in 1u32..9,
        members in 1usize..33,
        seed in any::<u64>(),
        small_range in 1u64..65,
        large_range in (1u64 << 20)..(1 << 40),
        keys in proptest::collection::vec(any::<u64>(), 8..24),
    ) {
        let extremes = [0, 1, MERSENNE_P - 1, MERSENNE_P, MERSENNE_P + 1, u64::MAX];
        let ranges = [small_range, large_range, FIELD_RANGE];
        let wide = [(WIDE_K, small_range), (WIDE_K, FIELD_RANGE)];
        for (k, range) in ranges.map(|r| (k, r)).into_iter().chain(wide) {
            let fam = KWiseFamily::new(k, range);
            let hs: Vec<KWiseHash> = (0..members as u64).map(|m| fam.member(seed ^ m)).collect();
            let block = MemberBlock::new(&hs);
            let mut out = vec![0; members];
            for &x in keys.iter().chain(&extremes) {
                block.eval(x, &mut out);
                for (m, h) in hs.iter().enumerate() {
                    prop_assert_eq!(out[m], h.eval(x), "k {} range {} member {} key {}", k, range, m, x);
                }
            }
        }
    }
}
