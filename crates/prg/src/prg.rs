//! Short-seed PRG with lazily evaluated, chunked output.
//!
//! The paper's Lemma 10 hands each node a disjoint *chunk* of the PRG's
//! output string, where chunks are indexed by the node's color in a proper
//! coloring of the power graph `G^{4τ}` (so nodes within distance `4τ`
//! never share bits).  Our PRG evaluates output words on demand as a pure
//! function of `(seed, chunk, index)`, so the "output string" is virtual
//! and arbitrarily long; `ChunkAssignment` carries the node→chunk map.

use parcolor_local::tape::{splitmix64, Randomness, TapeBlock, BLOCK_LANES};

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

/// One seed block of a PRG family as a [`TapeBlock`]: lane `s` is
/// `PrgTape::new(prg, seed0 + s, chunks)`.
///
/// [`TapeBlock::below_lanes`] draws a node's lanes in one pass: each
/// lane's seed round is hoisted once per block and the chunk product once
/// per node, leaving two splitmix rounds and one Lemire multiply per lane
/// — the rounds and constants of [`Prg::word`] and [`Randomness::below`],
/// so every lane is bit-identical to its tape's scalar `below`.
pub struct PrgBlock<'a> {
    prg: Prg,
    seed0: u64,
    lanes: usize,
    chunks: &'a ChunkAssignment,
    /// Lane `s`'s seed round, `splitmix64((seed0 + s) ^ K)`.  Keys past
    /// `lanes` belong to seeds outside the block; their draws are the
    /// unspecified entries of `below_lanes`.
    keys: [u64; BLOCK_LANES],
}

impl<'a> PrgBlock<'a> {
    /// The block of `lanes` seeds from `seed0` (`1..=BLOCK_LANES` lanes,
    /// all inside the seed space).
    pub fn new(prg: Prg, seed0: u64, lanes: usize, chunks: &'a ChunkAssignment) -> Self {
        assert!(
            (1..=BLOCK_LANES).contains(&lanes) && seed0 + lanes as u64 <= prg.seed_space(),
            "seed block out of range"
        );
        PrgBlock {
            prg,
            seed0,
            lanes,
            chunks,
            keys: std::array::from_fn(|s| splitmix64((seed0 + s as u64) ^ 0xD1B5_4A32_D192_ED03)),
        }
    }
}

impl TapeBlock for PrgBlock<'_> {
    fn lanes(&self) -> usize {
        self.lanes
    }

    fn with_lane(&self, s: usize, f: &mut dyn FnMut(&dyn Randomness)) {
        assert!(s < self.lanes, "lane {s} of a {}-lane block", self.lanes);
        f(&PrgTape::new(self.prg, self.seed0 + s as u64, self.chunks));
    }

    /// Plain scalar lanes: see the note in `parcolor_local::simd` on why
    /// this kernel is not vectorized.
    #[inline]
    fn below_lanes(&self, node: u32, stream: u64, idx: u32, bound: u64) -> [u64; BLOCK_LANES] {
        debug_assert!(bound > 0);
        let cm = self
            .chunks
            .chunk_of(node)
            .wrapping_mul(0x2545_F491_4F6C_DD1D);
        let eff = (splitmix64(stream) as u32) ^ idx;
        let im = (eff as u64).wrapping_mul(0x9E6C_63D0_876A_368B);
        let mut out = [0; BLOCK_LANES];
        for (o, &a) in out.iter_mut().zip(&self.keys) {
            let w = splitmix64(splitmix64(a ^ cm) ^ im);
            *o = ((w as u128 * bound as u128) >> 64) as u64;
        }
        out
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
