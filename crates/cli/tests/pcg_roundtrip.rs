//! Property coverage for the `.pcg` codec: write → load is the
//! identity, corruption in any byte is rejected cleanly, a malformed CSR
//! is rejected even under a valid checksum, and the mmap-backed load
//! agrees with the owned-memory load — including the solver output over
//! both storages.

use parcolor_cli::pcg::{
    checksum_words, load_pcg, load_pcg_owned, read_pcg_bytes, write_pcg, PCG_HEADER_LEN, PCG_MAGIC,
    PCG_VERSION,
};
use parcolor_core::{Graph, NodeId, Params, SeedStrategy, Solver};
use proptest::prelude::*;

fn graph_from(n: usize, raw: &[(u32, u32)]) -> Graph {
    let edges: Vec<(NodeId, NodeId)> = raw
        .iter()
        .map(|&(a, b)| (a % n as u32, b % n as u32))
        .filter(|&(u, v)| u != v)
        .collect();
    Graph::from_edges(n, &edges)
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "parcolor-pcg-test-{}-{tag}.pcg",
        std::process::id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn write_then_read_is_identity(
        n in 2usize..60,
        raw in proptest::collection::vec((0u32..1 << 16, 0u32..1 << 16), 0..240),
    ) {
        let g = graph_from(n, &raw);
        let mut bytes = Vec::new();
        write_pcg(&mut bytes, &g).unwrap();
        let back = read_pcg_bytes(&bytes).unwrap();
        prop_assert_eq!(back.offsets(), g.offsets());
        prop_assert_eq!(back.adj(), g.adj());
    }

    #[test]
    fn any_single_byte_flip_is_rejected(
        n in 2usize..20,
        raw in proptest::collection::vec((0u32..64, 0u32..64), 1..40),
        victim in 0usize..4096,
    ) {
        let g = graph_from(n, &raw);
        let mut bytes = Vec::new();
        write_pcg(&mut bytes, &g).unwrap();
        let victim = victim % bytes.len();
        bytes[victim] ^= 0x5A;
        // Whatever field the flip lands in — magic, version, sizes,
        // checksum, or payload — the decode must fail, not mis-load.
        prop_assert!(read_pcg_bytes(&bytes).is_err(), "flip at {} accepted", victim);
    }

    #[test]
    fn truncation_is_rejected(
        n in 2usize..20,
        raw in proptest::collection::vec((0u32..64, 0u32..64), 1..40),
        cut in 1usize..64,
    ) {
        let g = graph_from(n, &raw);
        let mut bytes = Vec::new();
        write_pcg(&mut bytes, &g).unwrap();
        let cut = cut.min(bytes.len() - 1);
        prop_assert!(read_pcg_bytes(&bytes[..bytes.len() - cut]).is_err());
        // Trailing garbage is rejected too.
        bytes.push(0);
        prop_assert!(read_pcg_bytes(&bytes).is_err());
    }
}

#[test]
fn mmap_and_owned_loads_agree() {
    let g = parcolor_graphgen::gnm(800, 3200, 77);
    let path = temp_path("agree");
    let f = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
    write_pcg(f, &g).unwrap();

    let mapped = load_pcg(&path).expect("mmap load");
    let owned = load_pcg_owned(&path).expect("owned load");
    assert_eq!(mapped.offsets(), owned.offsets());
    assert_eq!(mapped.adj(), owned.adj());
    assert_eq!(mapped, g);
    #[cfg(all(unix, target_endian = "little"))]
    assert!(mapped.is_mapped(), "unix load should be zero-copy");
    assert!(!owned.is_mapped());

    // The acceptance bar: solves over the two storages are bit-identical.
    let params = Params::default()
        .with_seed_bits(4)
        .with_strategy(SeedStrategy::FixedSubset(8));
    let sol_mapped = Solver::deterministic(params.clone())
        .solve(&parcolor_core::D1lcInstance::delta_plus_one(mapped));
    let sol_owned =
        Solver::deterministic(params).solve(&parcolor_core::D1lcInstance::delta_plus_one(owned));
    assert_eq!(sol_mapped.colors, sol_owned.colors);
    std::fs::remove_file(&path).ok();
}

#[test]
fn header_constant_matches_layout() {
    let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
    let mut bytes = Vec::new();
    write_pcg(&mut bytes, &g).unwrap();
    assert_eq!(bytes.len(), PCG_HEADER_LEN + 4 * 8 + 4 * 4);
    assert!(
        PCG_HEADER_LEN.is_multiple_of(8),
        "offsets must stay 8-aligned"
    );
}

/// A `.pcg` container around arbitrary arrays, with a correct header
/// and checksum — what a buggy or hostile writer could produce.
fn container(offsets: &[u64], adj: &[u32]) -> Vec<u8> {
    let mut bytes = vec![0u8; PCG_HEADER_LEN];
    bytes[0..8].copy_from_slice(PCG_MAGIC);
    bytes[8..12].copy_from_slice(&PCG_VERSION.to_le_bytes());
    bytes[16..24].copy_from_slice(&(offsets.len() as u64 - 1).to_le_bytes());
    bytes[24..32].copy_from_slice(&(adj.len() as u64).to_le_bytes());
    bytes[32..40].copy_from_slice(&checksum_words(offsets, adj).to_le_bytes());
    bytes.extend(offsets.iter().flat_map(|x| x.to_le_bytes()));
    bytes.extend(adj.iter().flat_map(|x| x.to_le_bytes()));
    bytes
}

#[test]
fn malformed_csr_under_a_valid_checksum_is_rejected() {
    // Three nodes each; every container passes the header and checksum
    // checks, so only the loaders' structural CSR checks stand between
    // it and the solver.
    let cases: [(&str, &[u64], &[u32]); 6] = [
        ("unsorted-row", &[0, 2, 3, 4], &[2, 1, 0, 0]),
        ("duplicate-neighbor", &[0, 2, 3, 3], &[1, 1, 0]),
        ("self-loop", &[0, 1, 1, 1], &[0]),
        ("out-of-range", &[0, 1, 1, 1], &[3]),
        ("non-monotone-offsets", &[0, 2, 1, 2], &[1, 2]),
        ("offsets-short-of-adj", &[0, 1, 2, 2], &[1, 0, 2]),
    ];
    let mapped = if cfg!(all(unix, target_endian = "little")) {
        "mapped graph:"
    } else {
        "csr graph:"
    };
    for (tag, offsets, adj) in cases {
        let bytes = container(offsets, adj);
        let e = read_pcg_bytes(&bytes).expect_err(tag);
        assert!(e.contains("csr graph:"), "{tag}: {e}");
        let path = temp_path(tag);
        std::fs::write(&path, &bytes).unwrap();
        let e = load_pcg(&path).expect_err(tag);
        std::fs::remove_file(&path).ok();
        assert!(e.contains(mapped), "{tag}: {e}");
    }
}
