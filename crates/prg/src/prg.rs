//! Short-seed PRG with lazily evaluated, chunked output.
//!
//! The paper's Lemma 10 hands each node a disjoint *chunk* of the PRG's
//! output string, where chunks are indexed by the node's color in a proper
//! coloring of the power graph `G^{4τ}` (so nodes within distance `4τ`
//! never share bits).  Our PRG evaluates output words on demand as a pure
//! function of `(seed, chunk, index)`, so the "output string" is virtual
//! and arbitrarily long; `ChunkAssignment` carries the node→chunk map.

use parcolor_local::simd::{splitmix4, SPLITMIX_LANES};
use parcolor_local::tape::{splitmix64, Randomness};

/// A PRG family parameterized by seed length in bits.
///
/// The seed space is `{0, 1}^{seed_bits}`, i.e. seeds `0..2^seed_bits`.
/// Matching the paper, seed length is logarithmic: `Θ(τ log Δ)` bits
/// suffice for the `(Δ^{11τ}, Δ^{-11τ})` PRG of Lemma 10; callers pick
/// `seed_bits` accordingly (see `parcolor-core::config`).
#[derive(Clone, Copy, Debug)]
pub struct Prg {
    seed_bits: u32,
}

impl Prg {
    /// Create a family with `seed_bits`-bit seeds (1..=24 supported; the
    /// cap keeps exhaustive search and conditional expectations tractable,
    /// mirroring the poly(Δ)-size seed space of the paper).
    pub fn new(seed_bits: u32) -> Self {
        assert!(
            (1..=24).contains(&seed_bits),
            "seed_bits must be in 1..=24, got {seed_bits}"
        );
        Prg { seed_bits }
    }

    /// Seed length in bits.
    pub fn seed_bits(&self) -> u32 {
        self.seed_bits
    }

    /// Number of seeds in the family.
    pub fn seed_space(&self) -> u64 {
        1u64 << self.seed_bits
    }

    /// The `idx`-th output word of chunk `chunk` under `seed`.
    #[inline]
    pub fn word(&self, seed: u64, chunk: u64, idx: u32) -> u64 {
        debug_assert!(seed < self.seed_space());
        // Domain-separate seed, chunk and index through three mixer rounds;
        // each round is bijective so no entropy is lost.
        let a = splitmix64(seed ^ 0xD1B5_4A32_D192_ED03);
        let b = splitmix64(a ^ chunk.wrapping_mul(0x2545_F491_4F6C_DD1D));
        splitmix64(b ^ (idx as u64).wrapping_mul(0x9E6C_63D0_876A_368B))
    }

    /// Batched [`Prg::word`] over a chunk assignment: for a stripe of
    /// nodes, `out[i] = word(seed, chunks.chunk_of(nodes[i]), idx)`.
    ///
    /// The seed round and the idx product are hoisted once per stripe;
    /// what remains per lane is the chunk lookup plus two splitmix rounds
    /// (see `fill_two_rounds`).  Bit-identical to the scalar path by
    /// construction: same rounds, same constants.
    pub fn fill_words(
        &self,
        seed: u64,
        chunks: &ChunkAssignment,
        nodes: &[u32],
        idx: u32,
        out: &mut [u64],
    ) {
        debug_assert!(seed < self.seed_space());
        debug_assert_eq!(nodes.len(), out.len());
        let a = splitmix64(seed ^ 0xD1B5_4A32_D192_ED03);
        let im = (idx as u64).wrapping_mul(0x9E6C_63D0_876A_368B);
        // Resolve the assignment variant once, outside the lane loop.
        match chunks {
            ChunkAssignment::PerNode => {
                fill_two_rounds(a, im, nodes, out, |v| v as u64);
            }
            ChunkAssignment::PowerColoring { colors } => {
                fill_two_rounds(a, im, nodes, out, |v| colors[v as usize] as u64);
            }
        }
    }
}

/// The two per-lane mixer rounds shared by both chunk assignments:
/// `out[i] = splitmix64(splitmix64(a ^ chunk(nodes[i])·K) ^ im)`, four
/// lanes per [`splitmix4`] call with a scalar tail.
#[inline]
fn fill_two_rounds(
    a: u64,
    im: u64,
    nodes: &[u32],
    out: &mut [u64],
    mut chunk_of: impl FnMut(u32) -> u64,
) {
    let mut node_it = nodes.chunks_exact(SPLITMIX_LANES);
    let mut out_it = out.chunks_exact_mut(SPLITMIX_LANES);
    for (nch, och) in (&mut node_it).zip(&mut out_it) {
        let mut z = [0u64; SPLITMIX_LANES];
        for l in 0..SPLITMIX_LANES {
            z[l] = a ^ chunk_of(nch[l]).wrapping_mul(0x2545_F491_4F6C_DD1D);
        }
        let b = splitmix4(z);
        let w = splitmix4(std::array::from_fn(|l| b[l] ^ im));
        och.copy_from_slice(&w);
    }
    for (&v, o) in node_it.remainder().iter().zip(out_it.into_remainder()) {
        let b = splitmix64(a ^ chunk_of(v).wrapping_mul(0x2545_F491_4F6C_DD1D));
        *o = splitmix64(b ^ im);
    }
}

/// Node → PRG-chunk assignment.
///
/// * `PowerColoring` mode stores the color of each node in a proper
///   coloring of `G^{4τ}` (the paper's scheme — chunk count is `O(Δ^{8τ})`,
///   bounded independently of `n`).
/// * `PerNode` mode gives node `v` chunk `v` (every pair of nodes disjoint;
///   only possible because our PRG output is virtual — see crate docs).
#[derive(Clone, Debug)]
pub enum ChunkAssignment {
    /// `chunk(v) = colors[v]`, a proper coloring of the relevant power graph.
    PowerColoring {
        /// The power-graph coloring indexed by node.
        colors: Vec<u32>,
    },
    /// chunk(v) = v.
    PerNode,
}

impl ChunkAssignment {
    /// The PRG chunk assigned to `node`.
    #[inline]
    pub fn chunk_of(&self, node: u32) -> u64 {
        match self {
            ChunkAssignment::PowerColoring { colors } => colors[node as usize] as u64,
            ChunkAssignment::PerNode => node as u64,
        }
    }
}

impl Prg {
    /// Tapes for one seed block: `tapes[i]` reads seed `seed0 + i`.  Pad
    /// lanes past the end of the seed space are clamped to the last valid
    /// seed — a block evaluator only reads lanes `0..costs.len()`, so the
    /// clamped tapes are never consulted; the clamp exists solely to keep
    /// the construction in range.  This is the one place that invariant
    /// lives: every `select_seed_blocks_n` call site should build its
    /// tapes here.
    pub fn block_tapes<'a>(
        &self,
        seed0: u64,
        chunks: &'a ChunkAssignment,
    ) -> [PrgTape<'a>; crate::seed_search::SEED_BLOCK] {
        let last = self.seed_space() - 1;
        std::array::from_fn(|i| PrgTape::new(*self, (seed0 + i as u64).min(last), chunks))
    }
}

/// A [`Randomness`] tape backed by a PRG seed and a chunk assignment —
/// the object that gets substituted for true randomness when a normal
/// distributed procedure is simulated under a candidate seed (Lemma 10).
pub struct PrgTape<'a> {
    prg: Prg,
    seed: u64,
    chunks: &'a ChunkAssignment,
}

impl<'a> PrgTape<'a> {
    /// Tape reading chunked PRG output under `seed`.
    pub fn new(prg: Prg, seed: u64, chunks: &'a ChunkAssignment) -> Self {
        assert!(seed < prg.seed_space(), "seed out of range");
        PrgTape { prg, seed, chunks }
    }

    /// The seed this tape evaluates.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

impl Randomness for PrgTape<'_> {
    #[inline]
    fn word(&self, node: u32, stream: u64, idx: u32) -> u64 {
        // `stream` and `idx` jointly index within the node's chunk.
        let chunk = self.chunks.chunk_of(node);
        self.prg
            .word(self.seed, chunk, (splitmix64(stream) as u32) ^ idx)
    }

    /// Batched plane: the stream mix and the seed round are computed once
    /// per stripe (the scalar path re-derives both per call), then
    /// [`Prg::fill_words`] runs the remaining two rounds over lanes.
    fn fill_words(&self, stream: u64, nodes: &[u32], idx: u32, out: &mut [u64]) {
        let eff = (splitmix64(stream) as u32) ^ idx;
        self.prg.fill_words(self.seed, self.chunks, nodes, eff, out);
    }

    /// Idx-stripe along one node's chunk: seed, chunk and stream rounds
    /// hoisted, one splitmix round per output word.  The effective index
    /// is `splitmix64(stream) ^ (idx0 + i)` — identical to what the
    /// scalar [`Randomness::word`] computes per call.
    fn fill_words_seq(&self, node: u32, stream: u64, idx0: u32, out: &mut [u64]) {
        let s = splitmix64(stream) as u32;
        let chunk = self.chunks.chunk_of(node);
        let a = splitmix64(self.seed ^ 0xD1B5_4A32_D192_ED03);
        let b = splitmix64(a ^ chunk.wrapping_mul(0x2545_F491_4F6C_DD1D));
        let mut out_it = out.chunks_exact_mut(SPLITMIX_LANES);
        let mut i = 0u32;
        for och in &mut out_it {
            let w = splitmix4(std::array::from_fn(|l| {
                let idx = s ^ idx0.wrapping_add(i).wrapping_add(l as u32);
                b ^ (idx as u64).wrapping_mul(0x9E6C_63D0_876A_368B)
            }));
            och.copy_from_slice(&w);
            i += SPLITMIX_LANES as u32;
        }
        for o in out_it.into_remainder() {
            let idx = s ^ idx0.wrapping_add(i);
            *o = splitmix64(b ^ (idx as u64).wrapping_mul(0x9E6C_63D0_876A_368B));
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_are_deterministic() {
        let prg = Prg::new(10);
        assert_eq!(prg.word(5, 3, 7), prg.word(5, 3, 7));
    }

    #[test]
    fn seeds_change_output() {
        let prg = Prg::new(10);
        let diffs = (0..100)
            .filter(|&i| prg.word(1, i, 0) != prg.word(2, i, 0))
            .count();
        assert_eq!(diffs, 100);
    }

    #[test]
    fn chunks_are_disjoint_streams() {
        let prg = Prg::new(8);
        let same = (0..1000u64)
            .filter(|&c| prg.word(0, c, 0) == prg.word(0, c + 1, 0))
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn seed_space_size() {
        assert_eq!(Prg::new(8).seed_space(), 256);
        assert_eq!(Prg::new(1).seed_space(), 2);
    }

    #[test]
    #[should_panic]
    fn rejects_oversized_seed_bits() {
        Prg::new(40);
    }

    #[test]
    #[should_panic]
    fn tape_rejects_out_of_range_seed() {
        let prg = Prg::new(4);
        let chunks = ChunkAssignment::PerNode;
        PrgTape::new(prg, 16, &chunks);
    }

    #[test]
    fn power_coloring_chunks() {
        let chunks = ChunkAssignment::PowerColoring {
            colors: vec![0, 1, 0, 2],
        };
        assert_eq!(chunks.chunk_of(0), 0);
        assert_eq!(chunks.chunk_of(3), 2);
    }

    #[test]
    fn per_node_chunks() {
        let chunks = ChunkAssignment::PerNode;
        assert_eq!(chunks.chunk_of(17), 17);
    }

    #[test]
    fn tape_words_look_uniform() {
        let prg = Prg::new(12);
        let chunks = ChunkAssignment::PerNode;
        let tape = PrgTape::new(prg, 1234, &chunks);
        let mut ones = 0u32;
        for v in 0..500u32 {
            ones += tape.word(v, 0, 0).count_ones();
        }
        let avg = ones as f64 / 500.0;
        assert!((avg - 32.0).abs() < 1.5, "avg bit weight {avg}");
    }

    #[test]
    fn batched_tape_matches_scalar_for_both_assignments() {
        let prg = Prg::new(12);
        let per_node = ChunkAssignment::PerNode;
        let coloring = ChunkAssignment::PowerColoring {
            colors: (0..64u32).map(|v| v % 7).collect(),
        };
        for chunks in [&per_node, &coloring] {
            let tape = PrgTape::new(prg, 777, chunks);
            let nodes: Vec<u32> = (0..37u32).map(|i| i % 64).collect();
            let mut got = vec![0u64; nodes.len()];
            tape.fill_words(5, &nodes, 2, &mut got);
            for (i, &v) in nodes.iter().enumerate() {
                assert_eq!(got[i], tape.word(v, 5, 2), "node {v}");
            }
            let mut seq = vec![0u64; 19];
            tape.fill_words_seq(9, 5, 100, &mut seq);
            for (i, &w) in seq.iter().enumerate() {
                assert_eq!(w, tape.word(9, 5, 100 + i as u32));
            }
        }
    }

    #[test]
    fn prg_fill_words_matches_word() {
        let prg = Prg::new(8);
        let chunks = ChunkAssignment::PerNode;
        let nodes: Vec<u32> = (0..17).collect();
        let mut out = vec![0u64; 17];
        prg.fill_words(3, &chunks, &nodes, 42, &mut out);
        for (i, &v) in nodes.iter().enumerate() {
            assert_eq!(out[i], prg.word(3, v as u64, 42));
        }
    }

    #[test]
    fn shared_chunk_nodes_share_bits() {
        // Nodes mapped to the same chunk with the same stream/idx read the
        // same words — exactly the sharing the power-graph coloring rules
        // out within distance 4τ.
        let prg = Prg::new(8);
        let chunks = ChunkAssignment::PowerColoring {
            colors: vec![7, 7, 3],
        };
        let tape = PrgTape::new(prg, 9, &chunks);
        assert_eq!(tape.word(0, 0, 5), tape.word(1, 0, 5));
        assert_ne!(tape.word(0, 0, 5), tape.word(2, 0, 5));
    }
}
