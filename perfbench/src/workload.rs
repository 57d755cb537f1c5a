//! The four workloads: how each one's input is generated from the
//! workload seed, how it is turned back into a ready [`D1lcInstance`]
//! (the set-up path the `setup_s` metric times), and which solver
//! parameters it runs under.

use parcolor_cli::job::{decode_job, encode_job};
use parcolor_cli::pcg::{load_pcg, write_pcg};
use parcolor_cli::{parse_dimacs, write_dimacs};
use parcolor_core::{D1lcInstance, Graph, Params, SeedStrategy};
use parcolor_graphgen as gen;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// gnp, n = 10^5, average degree 8, Δ+1 palettes, default params
    /// (seed_bits 10, Exhaustive); loaded from a memory-mapped `.pcg`.
    SearchBound,
    /// gnp, n = 10^6, average degree 8, Δ+1 palettes, seed_bits 4 with
    /// `FixedSubset(8)`; parsed from DIMACS text.
    StructureBound,
    /// 100 planted 128-cliques in a 60k-node sparse cloud, random lists
    /// from a 4096-color universe, mid-degree cap 64: the only workload
    /// that runs the Lemma 23 partition.
    DenseLists,
    /// The search-bound regime at n = 5·10^4 on a loopback coordinator
    /// plus one worker; set up through the job codec.
    DistSearch,
}

/// Instance size: the benchmark's `Full` size, or the `Small` size the
/// golden-hash gate and the tests run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A few thousand nodes, same generator and parameters.
    Small,
}

/// Workload seed of the golden-hash gate.
pub const REFERENCE_SEED: u64 = 1;

/// FNV-1a hash of each workload's coloring at [`Size::Small`] and
/// [`REFERENCE_SEED`] (the same hash `tests/golden.rs` pins).  The
/// solver is deterministic at every worker count and SIMD path, so these
/// are constants; a change that moves one changed the solver's output.
pub const GOLDEN: &[(Workload, u64)] = &[
    (Workload::SearchBound, 0x8db3_d52e_f50e_23a5),
    (Workload::StructureBound, 0xaf37_9c97_1deb_bf83),
    (Workload::DenseLists, 0xa02b_d5df_8985_9979),
    (Workload::DistSearch, 0x7543_a4e2_afe0_5db5),
];

/// FNV-1a over a color vector.
pub fn coloring_hash(colors: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &c in colors {
        h ^= c as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The prepared input bytes of one workload.
pub enum Input {
    /// A `.pcg` file (`search_bound`).
    Pcg(PathBuf),
    /// A DIMACS `.col` file (`structure_bound`).
    Dimacs(PathBuf),
    /// Nothing on disk: the instance is generated in-process from the
    /// seed (`dense_lists`).
    Generated { seed: u64, size: Size },
    /// Job-codec bytes (`dist_search`).
    Job(Vec<u8>),
}

impl Input {
    /// Bytes the set-up path reads (0 when generated in-process).
    pub fn bytes(&self) -> u64 {
        match self {
            Input::Pcg(p) | Input::Dimacs(p) => std::fs::metadata(p).map_or(0, |m| m.len()),
            Input::Generated { .. } => 0,
            Input::Job(b) => b.len() as u64,
        }
    }
}

/// The graph loaded from an [`Input`], before palettes are attached.
pub enum Loaded {
    /// A plain graph (Δ+1 or list palettes still to be built).
    Graph(Graph),
    /// The job codec builds graph and instance in one call.
    Instance(D1lcInstance),
}

fn gnp_avg8(n: usize, seed: u64) -> Graph {
    gen::gnp(n, 8.0 / n as f64, seed)
}

fn dense_graph(seed: u64, size: Size) -> Graph {
    match size {
        Size::Full => gen::planted_cliques(&[128; 100], 0.1, 60_000, 8, seed),
        Size::Small => gen::planted_cliques(&[128; 4], 0.1, 2_000, 8, seed),
    }
}

fn dense_lists(g: Graph, seed: u64) -> D1lcInstance {
    gen::random_lists(g, 4096, 0, seed)
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::SearchBound,
        Workload::StructureBound,
        Workload::DenseLists,
        Workload::DistSearch,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SearchBound => "search_bound",
            Workload::StructureBound => "structure_bound",
            Workload::DenseLists => "dense_lists",
            Workload::DistSearch => "dist_search",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Node count of the gnp workloads at `size`.
    fn gnp_n(self, size: Size) -> usize {
        match (self, size) {
            (Workload::SearchBound, Size::Full) => 100_000,
            (Workload::StructureBound, Size::Full) => 1_000_000,
            (Workload::DistSearch, Size::Full) => 50_000,
            (Workload::SearchBound, Size::Small) => 3_000,
            (Workload::StructureBound, Size::Small) => 5_000,
            (Workload::DistSearch, Size::Small) => 2_000,
            (Workload::DenseLists, _) => unreachable!("dense_lists is not gnp"),
        }
    }

    /// Solver parameters; `workers` is the resolved thread count (the
    /// distributed workload pins 1 per process instead).
    pub fn params(self, workers: usize) -> Params {
        let e18 = || {
            Params::default()
                .with_seed_bits(4)
                .with_strategy(SeedStrategy::FixedSubset(8))
        };
        match self {
            Workload::SearchBound => Params::default().with_workers(workers),
            Workload::StructureBound => e18().with_workers(workers),
            Workload::DenseLists => e18().with_mid_degree_cap(64).with_workers(workers),
            Workload::DistSearch => Params::default().with_workers(1),
        }
    }

    /// Generate the workload's input from `seed` and write it where the
    /// set-up path will read it (files go under `dir`).
    pub fn prepare(self, seed: u64, size: Size, dir: &Path) -> Result<Input, String> {
        let write =
            |path: PathBuf, f: &dyn Fn(&mut BufWriter<std::fs::File>) -> std::io::Result<()>| {
                let file = std::fs::File::create(&path)
                    .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
                let mut w = BufWriter::new(file);
                f(&mut w)
                    .and_then(|()| w.flush())
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                Ok::<PathBuf, String>(path)
            };
        match self {
            Workload::SearchBound => {
                let g = gnp_avg8(self.gnp_n(size), seed);
                let path = write(dir.join("search_bound.pcg"), &|w| write_pcg(w, &g))?;
                Ok(Input::Pcg(path))
            }
            Workload::StructureBound => {
                let g = gnp_avg8(self.gnp_n(size), seed);
                let path = write(dir.join("structure_bound.col"), &|w| {
                    write_dimacs(w, &g, "parcolor benchmark: gnp, average degree 8")
                })?;
                Ok(Input::Dimacs(path))
            }
            Workload::DenseLists => Ok(Input::Generated { seed, size }),
            Workload::DistSearch => {
                let g = gnp_avg8(self.gnp_n(size), seed);
                let p = self.params(1);
                Ok(Input::Job(encode_job(&g, p.seed_bits, p.strategy)))
            }
        }
    }
}

/// `cli` layer: input bytes to a graph.
pub fn load(input: &Input) -> Result<Loaded, String> {
    match input {
        Input::Pcg(path) => load_pcg(path).map(Loaded::Graph),
        Input::Dimacs(path) => {
            let file = std::fs::File::open(path)
                .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
            parse_dimacs(BufReader::new(file)).map(Loaded::Graph)
        }
        Input::Generated { seed, size } => Ok(Loaded::Graph(dense_graph(*seed, *size))),
        Input::Job(bytes) => decode_job(bytes).map(|(inst, _)| Loaded::Instance(inst)),
    }
}

/// `instance` layer: attach palettes.
pub fn build(input: &Input, loaded: Loaded) -> D1lcInstance {
    match (input, loaded) {
        (_, Loaded::Instance(inst)) => inst,
        (Input::Generated { seed, .. }, Loaded::Graph(g)) => dense_lists(g, *seed),
        (_, Loaded::Graph(g)) => D1lcInstance::delta_plus_one(g),
    }
}

/// Input bytes to a ready instance (the set-up path `setup_s` times).
pub fn setup(input: &Input) -> Result<D1lcInstance, String> {
    load(input).map(|l| build(input, l))
}
