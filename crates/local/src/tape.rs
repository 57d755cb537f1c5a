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
//! ## The batch contract
//!
//! Hot paths consume randomness through the batch plane — the
//! `fill_words` / `fill_words_seq` / `fill_below` / `fill_bernoulli`
//! methods of [`Randomness`] — rather than one scalar [`Randomness::word`]
//! call at a time.  The contract every implementation must honor:
//!
//! * **Bit-identical to scalar.**  `fill_*` over a stripe must produce
//!   exactly the words/draws that the corresponding scalar calls would:
//!   `fill_words(stream, nodes, idx, out)` ⇔ `out[i] = word(nodes[i],
//!   stream, idx)`, and likewise for the derived draws.  Batching is a
//!   throughput optimization, never a semantic change — the golden tests
//!   and `tests/batch_randomness_equivalence.rs` pin this.
//! * **Lane width is an internal detail.**  Overrides mix fixed-width
//!   lanes the compiler can autovectorize, with a scalar tail; callers
//!   must not observe (or depend on) any particular lane width, and
//!   stripes of every length — including empty — are valid.
//! * **Defaults are correct.**  The trait defaults fall back to scalar
//!   `word` calls (chunked through `fill_words` where that helps), so a
//!   tape only implementing `word` is already a valid, if slower, source.

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

    // -- batch plane -----------------------------------------------------

    /// Word `idx` of `stream` for a stripe of nodes:
    /// `out[i] = word(nodes[i], stream, idx)`.
    ///
    /// The default is the scalar loop; tapes with a known mixer override
    /// it with autovectorizable lanes (bit-identically — see the module
    /// docs for the batch contract).
    fn fill_words(&self, stream: u64, nodes: &[u32], idx: u32, out: &mut [u64]) {
        debug_assert_eq!(nodes.len(), out.len());
        for (o, &v) in out.iter_mut().zip(nodes) {
            *o = self.word(v, stream, idx);
        }
    }

    /// Consecutive words of one node's tape:
    /// `out[i] = word(node, stream, idx0 + i)`.
    ///
    /// The idx-stripe dual of [`Randomness::fill_words`], used by draws
    /// that walk one node's tape (permutation deals, multi-color draws).
    fn fill_words_seq(&self, node: u32, stream: u64, idx0: u32, out: &mut [u64]) {
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.word(node, stream, idx0.wrapping_add(i as u32));
        }
    }

    /// Bounded draws for a stripe of nodes with per-node bounds:
    /// `out[i] = below(nodes[i], stream, idx, bounds[i])`.
    ///
    /// Implemented on top of [`Randomness::fill_words`] (the Lemire
    /// reduction is elementwise), so overriding `fill_words` batches this
    /// for free.
    fn fill_below(&self, stream: u64, nodes: &[u32], idx: u32, bounds: &[u64], out: &mut [u64]) {
        debug_assert_eq!(nodes.len(), bounds.len());
        self.fill_words(stream, nodes, idx, out);
        for (o, &b) in out.iter_mut().zip(bounds) {
            debug_assert!(b > 0);
            *o = ((*o as u128 * b as u128) >> 64) as u64;
        }
    }

    /// Bernoulli trials with probability `p` for a stripe of nodes:
    /// `out[i] = bernoulli(nodes[i], stream, idx, p)`.
    ///
    /// Chunks through a stack buffer of [`Randomness::fill_words`] calls,
    /// so overriding `fill_words` batches this for free.
    fn fill_bernoulli(&self, stream: u64, nodes: &[u32], idx: u32, p: f64, out: &mut [bool]) {
        debug_assert_eq!(nodes.len(), out.len());
        let mut buf = [0u64; 64];
        for (nch, och) in nodes.chunks(64).zip(out.chunks_mut(64)) {
            let b = &mut buf[..nch.len()];
            self.fill_words(stream, nch, idx, b);
            for (o, &w) in och.iter_mut().zip(b.iter()) {
                let u = (w >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                *o = u < p;
            }
        }
    }
}

/// Adapter forcing the scalar default batch methods of an inner tape —
/// the "batching off" mode used by equivalence tests and the scalar legs
/// of the batch benchmarks.  Only [`Randomness::word`] is forwarded, so
/// every `fill_*` call runs the trait defaults over the inner scalar
/// mixer.
pub struct ForceScalar<R>(pub R);

impl<R: Randomness> Randomness for ForceScalar<R> {
    #[inline]
    fn word(&self, node: u32, stream: u64, idx: u32) -> u64 {
        self.0.word(node, stream, idx)
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

/// Fixed lane width of the batched mixers.  An internal tuning knob (wide
/// enough for one AVX-512 register of u64 lanes, small enough to stay in
/// registers); exposed only so equivalence tests can probe lane-boundary
/// stripe sizes.  Callers must not depend on its value.
pub const MIX_LANES: usize = 8;

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

    /// [`mix4`] over lanes: the key round is hoisted once per stripe and
    /// the stream/idx products are loop invariants, leaving three
    /// straight-line splitmix rounds per lane — mixed four lanes at a time
    /// by the runtime-dispatched [`crate::simd`] kernel table (AVX2 /
    /// AVX-512 / NEON when the CPU has them, the identical scalar rounds
    /// otherwise), hoisted once per stripe.
    fn fill_words(&self, stream: u64, nodes: &[u32], idx: u32, out: &mut [u64]) {
        debug_assert_eq!(nodes.len(), out.len());
        let k = crate::simd::kernels();
        let a = splitmix64(self.key ^ 0xA076_1D64_78BD_642F);
        let sm = stream.wrapping_mul(0x8EBC_6AF0_9C88_C6E3);
        let im = (idx as u64).wrapping_mul(0x5897_89E6_C7C0_A791);
        let mut node_it = nodes.chunks_exact(crate::simd::SPLITMIX_LANES);
        let mut out_it = out.chunks_exact_mut(crate::simd::SPLITMIX_LANES);
        for (nch, och) in (&mut node_it).zip(&mut out_it) {
            let b = (k.splitmix4)(std::array::from_fn(|l| {
                a ^ (nch[l] as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB)
            }));
            let c = (k.splitmix4)(std::array::from_fn(|l| b[l] ^ sm));
            let w = (k.splitmix4)(std::array::from_fn(|l| c[l] ^ im));
            och.copy_from_slice(&w);
        }
        for (&v, o) in node_it.remainder().iter().zip(out_it.into_remainder()) {
            let b = splitmix64(a ^ (v as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB));
            let c = splitmix64(b ^ sm);
            *o = splitmix64(c ^ im);
        }
    }

    /// [`mix4`] along one node's tape: key, node and stream rounds hoisted
    /// once, one splitmix round per output word (four words per dispatched
    /// [`crate::simd`] kernel call).
    fn fill_words_seq(&self, node: u32, stream: u64, idx0: u32, out: &mut [u64]) {
        let k = crate::simd::kernels();
        let a = splitmix64(self.key ^ 0xA076_1D64_78BD_642F);
        let b = splitmix64(a ^ (node as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB));
        let c = splitmix64(b ^ stream.wrapping_mul(0x8EBC_6AF0_9C88_C6E3));
        let mut out_it = out.chunks_exact_mut(crate::simd::SPLITMIX_LANES);
        let mut i = 0u32;
        for och in &mut out_it {
            let w = (k.splitmix4)(std::array::from_fn(|l| {
                let idx = idx0.wrapping_add(i).wrapping_add(l as u32);
                c ^ (idx as u64).wrapping_mul(0x5897_89E6_C7C0_A791)
            }));
            och.copy_from_slice(&w);
            i += crate::simd::SPLITMIX_LANES as u32;
        }
        for o in out_it.into_remainder() {
            let idx = idx0.wrapping_add(i);
            *o = splitmix64(c ^ (idx as u64).wrapping_mul(0x5897_89E6_C7C0_A791));
            i += 1;
        }
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
    fn batched_words_match_scalar_at_lane_boundaries() {
        let t = CryptoTape::new(0xBEEF);
        for len in [
            0,
            1,
            MIX_LANES - 1,
            MIX_LANES,
            MIX_LANES + 1,
            3 * MIX_LANES + 5,
        ] {
            let nodes: Vec<u32> = (0..len as u32)
                .map(|i| i.wrapping_mul(2654435761))
                .collect();
            let mut got = vec![0u64; len];
            t.fill_words(7, &nodes, 3, &mut got);
            for (i, &v) in nodes.iter().enumerate() {
                assert_eq!(got[i], t.word(v, 7, 3), "len {len} lane {i}");
            }
        }
    }

    #[test]
    fn batched_seq_matches_scalar() {
        let t = CryptoTape::new(99);
        let mut got = vec![0u64; 21];
        t.fill_words_seq(5, 11, 1000, &mut got);
        for (i, &w) in got.iter().enumerate() {
            assert_eq!(w, t.word(5, 11, 1000 + i as u32));
        }
    }

    #[test]
    fn batched_draws_match_scalar() {
        let t = CryptoTape::new(4242);
        let nodes: Vec<u32> = (0..37).collect();
        let bounds: Vec<u64> = (0..37u64).map(|i| i % 9 + 1).collect();
        let mut below = vec![0u64; 37];
        t.fill_below(2, &nodes, 1, &bounds, &mut below);
        let mut bern = vec![false; 37];
        t.fill_bernoulli(3, &nodes, 0, 0.3, &mut bern);
        for (i, &v) in nodes.iter().enumerate() {
            assert_eq!(below[i], t.below(v, 2, 1, bounds[i]));
            assert_eq!(bern[i], t.bernoulli(v, 3, 0, 0.3));
        }
    }

    #[test]
    fn force_scalar_is_transparent() {
        let t = CryptoTape::new(17);
        let s = ForceScalar(CryptoTape::new(17));
        let nodes: Vec<u32> = (0..MIX_LANES as u32 + 1).collect();
        let mut a = vec![0u64; nodes.len()];
        let mut b = vec![0u64; nodes.len()];
        t.fill_words(5, &nodes, 2, &mut a);
        s.fill_words(5, &nodes, 2, &mut b);
        assert_eq!(a, b);
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
