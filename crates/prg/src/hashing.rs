//! Bounded-independence hash families over the Mersenne prime `2^61 - 1`.
//!
//! `LowSpacePartition` (Section 6 of the paper, following CDP21d) needs two
//! hash functions — `h₁ : [n] → [n^δ]` on nodes and `h₂ : [n²] → [n^δ - 1]`
//! on colors — drawn from a small family such that a good pair can be
//! found deterministically by the method of conditional expectations
//! (Lemma 23).  Pairwise independence suffices for the degree/palette
//! concentration used there; we provide general `k`-wise families
//! (polynomials of degree `k-1` over `F_p`) so ablations can vary `k`.
//!
//! ## The batch contract
//!
//! Hot paths (the partition's seed-lane planes, one lane filled per
//! hash seed of a block) evaluate members over a stripe of inputs at once
//! with [`KWiseHash::eval_batch`] instead of one scalar
//! [`KWiseHash::eval`] per key.  The batch is **bit-identical
//! to scalar** — the same Horner recurrence over `F_{2^61-1}` with the
//! same coefficient vector (expanded once per seed by
//! [`KWiseFamily::member`]), merely run structure-of-arrays: coefficients
//! in the outer loop, a fixed-width lane of accumulators inner, so the
//! modular multiply-add autovectorizes.  The lane width is an internal
//! detail; stripes of any length, including empty, are valid.

use parcolor_local::tape::{splitmix64, MIX_LANES};

/// The Mersenne prime `2^61 - 1`.
pub const MERSENNE_P: u64 = (1u64 << 61) - 1;

/// Reduce a 122-bit product modulo `2^61 - 1` without division.
#[inline]
fn mod_mersenne(x: u128) -> u64 {
    let lo = (x & MERSENNE_P as u128) as u64;
    let hi = (x >> 61) as u64;
    let mut s = lo + hi;
    if s >= MERSENNE_P {
        s -= MERSENNE_P;
    }
    s
}

/// `(a * b) mod (2^61 - 1)`.
#[inline]
pub fn mulmod(a: u64, b: u64) -> u64 {
    mod_mersenne(a as u128 * b as u128)
}

#[inline]
fn addmod(a: u64, b: u64) -> u64 {
    let s = a + b; // both < 2^61, no overflow
    if s >= MERSENNE_P {
        s - MERSENNE_P
    } else {
        s
    }
}

/// A `k`-wise independent hash family `h : u64 → [range]`, realized as
/// degree-`(k-1)` polynomials over `F_{2^61-1}` composed with a range
/// reduction.  Family members are indexed by a 64-bit seed that expands
/// into the `k` coefficients through the SplitMix avalanche.
#[derive(Clone, Copy, Debug)]
pub struct KWiseFamily {
    k: u32,
    range: u64,
}

impl KWiseFamily {
    /// A `k`-wise independent family into `[range]`.
    pub fn new(k: u32, range: u64) -> Self {
        assert!(k >= 1, "independence k must be >= 1");
        assert!(range >= 1, "range must be >= 1");
        KWiseFamily { k, range }
    }

    /// Independence parameter `k`.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Output range size.
    pub fn range(&self) -> u64 {
        self.range
    }

    /// Instantiate the member with the given seed.
    pub fn member(&self, seed: u64) -> KWiseHash {
        let coeffs: Vec<u64> = (0..self.k)
            .map(|i| splitmix64(seed ^ (i as u64).wrapping_mul(0xA24B_AED4_963E_E407)) % MERSENNE_P)
            .collect();
        KWiseHash {
            coeffs,
            range: self.range,
        }
    }
}

/// A member of a [`KWiseFamily`]: `h(x) = poly(x) mod p mod range`.
#[derive(Clone, Debug)]
pub struct KWiseHash {
    coeffs: Vec<u64>,
    range: u64,
}

impl KWiseHash {
    /// Evaluate the hash on `x` (Horner's rule, `O(k)` multiplications).
    #[inline]
    pub fn eval(&self, x: u64) -> u64 {
        let xm = x % MERSENNE_P;
        let mut acc = 0u64;
        for &c in self.coeffs.iter().rev() {
            acc = addmod(mulmod(acc, xm), c);
        }
        // Multiply-shift range reduction: bias ≤ range / p ≈ 2^-61·range,
        // negligible at every range we use (≤ n^δ ≤ 2^32).
        ((acc as u128 * self.range as u128) >> 61) as u64
    }

    /// Batched [`KWiseHash::eval`] over a stripe of inputs:
    /// `out[i] = eval(xs[i])`, bit-identically.
    ///
    /// Horner runs structure-of-arrays — each coefficient is applied to a
    /// lane of accumulators before the next coefficient loads — so the
    /// `F_{2^61-1}` multiply-add is straight-line per lane and
    /// autovectorizable; the tail shorter than a lane falls back to the
    /// scalar recurrence (identical arithmetic either way).
    pub fn eval_batch(&self, xs: &[u64], out: &mut [u64]) {
        debug_assert_eq!(xs.len(), out.len());
        // No small-k scalar shortcut: measured on the AVX2 reference
        // host (400k keys, target-cpu=native), the lane-staged Horner
        // beats the scalar per-element loop at EVERY degree — 1.47× at
        // k = 1, 1.32× at k = 2, rising to 1.58× at k = 8 — because the
        // staged `% p` / reduction steps vectorize even when the Horner
        // chain itself is one multiply-add.  (The previous `degree ≤ 1`
        // shortcut was exactly the k = 2 regression
        // `BENCH_hash_batch.json` recorded.)  Stripes shorter than one
        // lane still run the scalar tail below.
        let mut xs_it = xs.chunks_exact(MIX_LANES);
        let mut out_it = out.chunks_exact_mut(MIX_LANES);
        for (xch, och) in (&mut xs_it).zip(&mut out_it) {
            let mut xm = [0u64; MIX_LANES];
            for l in 0..MIX_LANES {
                xm[l] = xch[l] % MERSENNE_P;
            }
            let mut acc = [0u64; MIX_LANES];
            for &c in self.coeffs.iter().rev() {
                for l in 0..MIX_LANES {
                    acc[l] = addmod(mulmod(acc[l], xm[l]), c);
                }
            }
            for l in 0..MIX_LANES {
                och[l] = ((acc[l] as u128 * self.range as u128) >> 61) as u64;
            }
        }
        for (&x, o) in xs_it.remainder().iter().zip(out_it.into_remainder()) {
            *o = self.eval(x);
        }
    }
}

/// Convenience wrapper for the pairwise (`k = 2`) case used by
/// `LowSpacePartition`.
#[derive(Clone, Copy, Debug)]
pub struct PairwiseHash {
    family: KWiseFamily,
}

impl PairwiseHash {
    /// A pairwise-independent family into `[range]`.
    pub fn new(range: u64) -> Self {
        PairwiseHash {
            family: KWiseFamily::new(2, range),
        }
    }

    /// Instantiate the member with the given seed.
    pub fn member(&self, seed: u64) -> KWiseHash {
        self.family.member(seed)
    }

    /// Output range size.
    pub fn range(&self) -> u64 {
        self.family.range()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Chi-square statistic of a hash member's bucket distribution over
    /// the keys `0..nkeys`: does the family spread loads as pairwise
    /// independence predicts?
    fn bucket_chi_square(h: &KWiseHash, nkeys: u64, range: u64) -> f64 {
        let counts: Vec<u64> = (0..range)
            .map(|b| (0..nkeys).filter(|&x| h.eval(x) == b).count() as u64)
            .collect();
        let expected = nkeys as f64 / range as f64;
        counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum()
    }

    #[test]
    fn mersenne_arithmetic() {
        assert_eq!(mulmod(MERSENNE_P - 1, 2) % MERSENNE_P, MERSENNE_P - 2);
        assert_eq!(mulmod(0, 123), 0);
        assert_eq!(addmod(MERSENNE_P - 1, 1), 0);
    }

    #[test]
    fn hash_is_deterministic_and_in_range() {
        let fam = KWiseFamily::new(2, 10);
        let h = fam.member(99);
        for x in 0..1000u64 {
            let v = h.eval(x);
            assert!(v < 10);
            assert_eq!(v, h.eval(x));
        }
    }

    #[test]
    fn different_members_differ() {
        let fam = KWiseFamily::new(2, 1 << 20);
        let h1 = fam.member(1);
        let h2 = fam.member(2);
        let same = (0..1000u64).filter(|&x| h1.eval(x) == h2.eval(x)).count();
        assert!(same < 5, "members nearly identical: {same}");
    }

    #[test]
    fn buckets_are_balanced() {
        let fam = KWiseFamily::new(2, 16);
        let h = fam.member(7);
        let mut counts = [0u32; 16];
        for x in 0..16_000u64 {
            counts[h.eval(x) as usize] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 1000.0).abs() < 150.0, "{counts:?}");
        }
    }

    #[test]
    fn pairwise_collision_rate() {
        // For pairwise-independent h into range R, Pr[h(x)=h(y)] ≈ 1/R.
        let fam = PairwiseHash::new(64);
        let mut collisions = 0u32;
        let trials = 200u64;
        let mut total = 0u32;
        for seed in 0..trials {
            let h = fam.member(seed);
            for x in 0..50u64 {
                for y in (x + 1)..50 {
                    total += 1;
                    if h.eval(x) == h.eval(y) {
                        collisions += 1;
                    }
                }
            }
        }
        let rate = collisions as f64 / total as f64;
        assert!((rate - 1.0 / 64.0).abs() < 0.005, "collision rate {rate}");
    }

    #[test]
    fn higher_k_members_work() {
        let fam = KWiseFamily::new(4, 100);
        let h = fam.member(5);
        let vals: Vec<u64> = (0..50).map(|x| h.eval(x)).collect();
        assert!(vals.iter().all(|&v| v < 100));
        // degree-3 polynomial: not constant
        assert!(vals.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn chi_square_is_sane() {
        let fam = KWiseFamily::new(2, 8);
        let h = fam.member(3);
        let chi = bucket_chi_square(&h, 8000, 8);
        // dof = 7; chi-square should be far below catastrophic values.
        assert!(chi < 60.0, "chi={chi}");
    }

    #[test]
    fn eval_batch_matches_scalar_all_k_and_lane_boundaries() {
        for k in 1..=4u32 {
            let fam = KWiseFamily::new(k, 1000);
            let h = fam.member(0x1234_5678 ^ k as u64);
            for len in [0usize, 1, MIX_LANES - 1, MIX_LANES, MIX_LANES + 1, 45] {
                let xs: Vec<u64> = (0..len as u64)
                    .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .collect();
                let mut out = vec![0u64; len];
                h.eval_batch(&xs, &mut out);
                for (i, &x) in xs.iter().enumerate() {
                    assert_eq!(out[i], h.eval(x), "k={k} len={len} lane={i}");
                }
            }
        }
    }

    #[test]
    fn range_one_maps_everything_to_zero() {
        let fam = KWiseFamily::new(2, 1);
        let h = fam.member(11);
        assert!((0..100).all(|x| h.eval(x) == 0));
    }
}
