//! Deterministic randomness tapes.
//!
//! Every "random" decision made by a LOCAL procedure in this workspace is a
//! *pure function* of `(node, stream, index)` through a [`Randomness`]
//! source.  This is the key enabler for derandomization by the method of
//! conditional expectations: re-running a procedure under a different seed
//! is just calling the same pure code with a different source, and the
//! seed search can evaluate many seeds in parallel with no shared mutable
//! state.
//!
//! Two families of sources exist:
//!
//! * [`CryptoTape`] — a strong keyed mixer standing in for true randomness
//!   (used by the randomized baselines, Lemma 4 of the paper).
//! * PRG-backed tapes (in `parcolor-prg`) — short-seed pseudorandomness
//!   used by the derandomized pipeline (Lemma 10 / Theorem 12).
//!
//! ## One draw per address
//!
//! A tape has one way to read an address: [`Randomness::word`], with
//! [`Randomness::below`] and [`Randomness::bernoulli`] derived from that
//! word.  A procedure that needs a stripe of nodes' draws, or a run of
//! one node's words, reads them one address at a time; nothing else
//! computes a tape word, so there is no second path to keep equal.
//!
//! A seed block is the one place where lanes are drawn together.  A
//! [`TapeBlock`] holds the tapes of one seed block, one per lane, and
//! [`TapeBlock::below_lanes`] draws every lane at one address in one
//! call, so a tape family can hoist each lane's seed work once per block.
//! Lane `s` of the call is bit-identical to the scalar `below` on lane
//! `s`'s tape, and the trait default is that per-lane loop
//! (`tests/batch_randomness_equivalence.rs` pins the PRG block to it).

/// A deterministic source of random words addressed by
/// `(node, stream, index)`.
///
/// * `node` — the node consuming randomness (its PRG *chunk* under
///   derandomization),
/// * `stream` — a caller-chosen label for the invocation (procedure id,
///   round number, retry counter…), so distinct invocations draw
///   independent-looking bits,
/// * `idx` — the position within the node's tape for this stream.
pub trait Randomness: Sync {
    /// The `idx`-th 64-bit word of node `node`'s tape for `stream`.
    fn word(&self, node: u32, stream: u64, idx: u32) -> u64;

    /// Uniform value in `[0, bound)` (bound > 0), from word `idx`.
    ///
    /// Uses the fixed-point multiply trick (Lemire) — avoids modulo bias to
    /// within 2^-64, which is far below every failure probability we track.
    fn below(&self, node: u32, stream: u64, idx: u32, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        let w = self.word(node, stream, idx);
        ((w as u128 * bound as u128) >> 64) as u64
    }

    /// Bernoulli trial with probability `p`, from word `idx`.
    fn bernoulli(&self, node: u32, stream: u64, idx: u32, p: f64) -> bool {
        let w = self.word(node, stream, idx);
        // Map to [0,1) with 53 bits of precision.
        let u = (w >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }
}

/// A reference reads exactly the tape it points to.
impl<R: Randomness + ?Sized> Randomness for &R {
    #[inline]
    fn word(&self, node: u32, stream: u64, idx: u32) -> u64 {
        (**self).word(node, stream, idx)
    }

    fn below(&self, node: u32, stream: u64, idx: u32, bound: u64) -> u64 {
        (**self).below(node, stream, idx, bound)
    }

    fn bernoulli(&self, node: u32, stream: u64, idx: u32, p: f64) -> bool {
        (**self).bernoulli(node, stream, idx, p)
    }
}

/// Lanes of a [`TapeBlock`]: the seeds of one block of a seed search
/// (`parcolor_prg::SEED_BLOCK`).
pub const BLOCK_LANES: usize = 8;

/// The tapes of one seed block, one per lane (lane `s` of a seed search's
/// block reads seed `seed0 + s`), drawn together.
///
/// A block evaluator that needs each node's draw under every lane makes
/// one [`TapeBlock::below_lanes`] call per node, so a tape family can
/// hoist each lane's seed work once per block and the per-node work once
/// per node.  Lanes are independent: lane `s` of every call is exactly
/// what lane `s`'s tape returns.
pub trait TapeBlock: Sync {
    /// Live lanes, in `1..=BLOCK_LANES`.
    fn lanes(&self) -> usize;

    /// Call `f` with the tape of live lane `s`.
    fn with_lane(&self, s: usize, f: &mut dyn FnMut(&dyn Randomness));

    /// Entry `s` is `below(node, stream, idx, bound)` on live lane `s`'s
    /// tape (bound > 0); entries past [`TapeBlock::lanes`] are
    /// unspecified.
    ///
    /// The default is the per-lane scalar loop; a tape family with a
    /// known mixer overrides it bit-identically.
    fn below_lanes(&self, node: u32, stream: u64, idx: u32, bound: u64) -> [u64; BLOCK_LANES] {
        let mut out = [0; BLOCK_LANES];
        for (s, o) in out.iter_mut().enumerate().take(self.lanes()) {
            self.with_lane(s, &mut |tape| *o = tape.below(node, stream, idx, bound));
        }
        out
    }
}

/// Adapter drawing a [`TapeBlock`]'s lanes through the trait's default
/// [`TapeBlock::below_lanes`], one scalar `below` per lane on the lane's
/// own tape — the per-lane reference that equivalence tests and the
/// scalar legs of the seed-search benchmarks compare a block's lane draw
/// against.
pub struct ForceScalar<B>(pub B);

impl<B: TapeBlock> TapeBlock for ForceScalar<B> {
    fn lanes(&self) -> usize {
        self.0.lanes()
    }

    fn with_lane(&self, s: usize, f: &mut dyn FnMut(&dyn Randomness)) {
        self.0.with_lane(s, f);
    }
}

/// SplitMix64 finalizer: a full-avalanche 64-bit mixer.  This is the
/// standard constant set from Vigna's `splitmix64`; it is bijective and
/// passes avalanche tests, which is all the tapes need.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Two-round keyed mixer over a 256-bit input `(key, node, stream, idx)`.
#[inline]
fn mix4(key: u64, node: u32, stream: u64, idx: u32) -> u64 {
    let a = splitmix64(key ^ 0xA076_1D64_78BD_642F);
    let b = splitmix64(a ^ (node as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB));
    let c = splitmix64(b ^ stream.wrapping_mul(0x8EBC_6AF0_9C88_C6E3));
    splitmix64(c ^ (idx as u64).wrapping_mul(0x5897_89E6_C7C0_A791))
}

/// A stateless keyed tape built from [`splitmix64`]; stands in for "true"
/// randomness in the randomized baselines.
///
/// Determinism note: two `CryptoTape`s with the same key are identical, so
/// randomized runs are reproducible given their `u64` seed.
#[derive(Clone, Copy, Debug)]
pub struct CryptoTape {
    key: u64,
}

impl CryptoTape {
    /// Tape keyed by `key` (same key ⇒ identical tape).
    pub fn new(key: u64) -> Self {
        CryptoTape { key }
    }
}

impl Randomness for CryptoTape {
    #[inline]
    fn word(&self, node: u32, stream: u64, idx: u32) -> u64 {
        mix4(self.key, node, stream, idx)
    }
}

/// A plain sequential SplitMix64 stream — handy for shuffles and workload
/// generation where positional addressing is unnecessary.
#[derive(Clone, Debug)]
pub struct SplitMix {
    state: u64,
}

impl SplitMix {
    /// Stream seeded by `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix { state: seed }
    }

    /// Next 64-bit word of the stream.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform float in `[0, 1)` with 53-bit precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tape_is_deterministic() {
        let t1 = CryptoTape::new(42);
        let t2 = CryptoTape::new(42);
        for node in 0..10 {
            for idx in 0..10 {
                assert_eq!(t1.word(node, 7, idx), t2.word(node, 7, idx));
            }
        }
    }

    #[test]
    fn different_keys_differ() {
        let t1 = CryptoTape::new(1);
        let t2 = CryptoTape::new(2);
        let same = (0..100)
            .filter(|&i| t1.word(i, 0, 0) == t2.word(i, 0, 0))
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn streams_are_independent_looking() {
        let t = CryptoTape::new(3);
        let same = (0..1000)
            .filter(|&i| t.word(i, 0, 0) == t.word(i, 1, 0))
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_respects_bound() {
        let t = CryptoTape::new(5);
        for i in 0..1000 {
            let x = t.below(i, 0, 0, 17);
            assert!(x < 17);
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let t = CryptoTape::new(9);
        let mut counts = [0usize; 8];
        for i in 0..80_000u32 {
            counts[t.below(i, 4, 0, 8) as usize] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "counts {counts:?}");
        }
    }

    #[test]
    fn bernoulli_frequency() {
        let t = CryptoTape::new(11);
        let hits = (0..100_000u32)
            .filter(|&i| t.bernoulli(i, 0, 0, 0.1))
            .count();
        assert!((hits as f64 - 10_000.0).abs() < 500.0, "hits={hits}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SplitMix::new(123);
        let mut xs: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn splitmix_avalanche_sanity() {
        // Flipping one input bit should flip ~32 output bits on average.
        let mut total = 0u32;
        for x in 0..256u64 {
            let a = splitmix64(x);
            let b = splitmix64(x ^ 1);
            total += (a ^ b).count_ones();
        }
        let avg = total as f64 / 256.0;
        assert!((avg - 32.0).abs() < 4.0, "avg flipped bits {avg}");
    }
}
