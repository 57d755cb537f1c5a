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
//! Hot paths evaluate several members of one family at the same keys:
//! the partition's hash search fills 32 seed lanes per key, one member
//! per hash seed, and the restricted bins' color filter fills a bin table
//! with one member.  [`MemberBlock`] is the one batch path.  At each key
//! it builds the powers `x⁰ … x^{k−1}` over `F_{2^61-1}` once; each member
//! is then a `u128` dot product of its coefficients with those powers,
//! reduced modulo `2^61 - 1` after every 32 terms so that no `k`
//! overflows it.  That is the field element Horner's rule computes in
//! [`KWiseHash::eval`], followed by the same range reduction, so every
//! output is bit-identical to the scalar `eval` at any `k`, member count
//! and key.

use parcolor_local::tape::splitmix64;

/// The Mersenne prime `2^61 - 1`.
pub const MERSENNE_P: u64 = (1u64 << 61) - 1;

/// Terms of a member's dot product [`MemberBlock::eval`] sums before it
/// reduces the `u128` accumulator: a reduced carry below `2^61` plus 32
/// products below `2^122` each stays below `2^128`.
const FOLD_TERMS: usize = 32;

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

/// Reduce any `u128` modulo `2^61 - 1`: `2^61 ≡ 1`, so one fold leaves
/// fewer than 68 bits, which [`mod_mersenne`] reduces exactly.
#[inline]
fn mod_mersenne_wide(x: u128) -> u64 {
    mod_mersenne((x & MERSENNE_P as u128) + (x >> 61))
}

/// Multiply-shift range reduction of a field element into `[range]`:
/// bias ≤ range / p ≈ 2^-61·range, negligible at every range we use
/// (≤ n^δ ≤ 2^32).
#[inline]
fn to_range(acc: u64, range: u64) -> u64 {
    ((acc as u128 * range as u128) >> 61) as u64
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
        to_range(acc, self.range)
    }
}

/// Members of one [`KWiseFamily`] evaluated together at each key: the
/// batch path of the module docs.  `eval(x, out)` writes member `m`'s
/// `eval(x)` to `out[m]`, bit-identically.
#[derive(Clone, Debug)]
pub struct MemberBlock {
    k: usize,
    range: u64,
    /// Member `m`'s coefficients, lowest degree first, are
    /// `coeffs[m * k..(m + 1) * k]`.
    coeffs: Vec<u64>,
}

impl MemberBlock {
    /// The block of `members`, in order: at least one, all of one
    /// family's `k` and range.
    pub fn new(members: &[KWiseHash]) -> Self {
        let first = members.first().expect("a member block needs a member");
        let (k, range) = (first.coeffs.len(), first.range);
        assert!(
            members
                .iter()
                .all(|h| h.coeffs.len() == k && h.range == range),
            "a member block's members share their family's k and range"
        );
        MemberBlock {
            k,
            range,
            coeffs: members
                .iter()
                .flat_map(|h| h.coeffs.iter().copied())
                .collect(),
        }
    }

    /// Members in the block.
    pub fn members(&self) -> usize {
        self.coeffs.len() / self.k
    }

    /// `out[m]` ← member `m`'s [`KWiseHash::eval`] of `x`, for every
    /// member; `out` holds one entry per member.
    pub fn eval(&self, x: u64, out: &mut [u64]) {
        assert_eq!(out.len(), self.members(), "one output per member");
        let xm = x % MERSENNE_P;
        let mut pows = [0; FOLD_TERMS];
        // `x^j` for the first term `j` of the next chunk.
        let mut pow = 1;
        for j0 in (0..self.k).step_by(FOLD_TERMS) {
            let j1 = self.k.min(j0 + FOLD_TERMS);
            let pows = &mut pows[..j1 - j0];
            for p in pows.iter_mut() {
                *p = pow;
                pow = mulmod(pow, xm);
            }
            for (o, coeffs) in out.iter_mut().zip(self.coeffs.chunks_exact(self.k)) {
                // A member's reduced sum over the earlier chunks carries in.
                let mut acc = if j0 == 0 { 0 } else { *o as u128 };
                for (&c, &p) in coeffs[j0..j1].iter().zip(pows.iter()) {
                    acc += c as u128 * p as u128;
                }
                let field = mod_mersenne_wide(acc);
                *o = if j1 == self.k {
                    to_range(field, self.range)
                } else {
                    field
                };
            }
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
    fn member_block_matches_scalar_all_k_and_member_counts() {
        // k = 33 spans two chunks of the dot product.
        for k in [1, 2, 3, 4, 8, 33] {
            for range in [1, 3, 1000, 1 << 40, 1 << 61] {
                let fam = KWiseFamily::new(k, range);
                for members in [1, 2, 31, 32] {
                    let hs: Vec<KWiseHash> = (0..members)
                        .map(|m| fam.member(0x1234_5678 ^ ((k as u64) << 20) ^ m))
                        .collect();
                    let block = MemberBlock::new(&hs);
                    assert_eq!(block.members(), members as usize);
                    let mut out = vec![0; members as usize];
                    let keys = (0..45u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    for x in keys.chain([0, 1, MERSENNE_P - 1, MERSENNE_P, u64::MAX]) {
                        block.eval(x, &mut out);
                        for (m, h) in hs.iter().enumerate() {
                            assert_eq!(out[m], h.eval(x), "k={k} range={range} member={m} x={x}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "share their family")]
    fn member_block_rejects_mixed_families() {
        MemberBlock::new(&[
            KWiseFamily::new(2, 8).member(1),
            KWiseFamily::new(2, 7).member(1),
        ]);
    }

    #[test]
    fn range_one_maps_everything_to_zero() {
        let fam = KWiseFamily::new(2, 1);
        let h = fam.member(11);
        assert!((0..100).all(|x| h.eval(x) == 0));
    }
}
