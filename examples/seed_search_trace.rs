//! A look inside the method of conditional expectations.
//!
//! ```sh
//! cargo run --release --example seed_search_trace
//! ```
//!
//! Runs one `TryRandomColor` procedure on a ring under every PRG seed,
//! then walks the seed bits the way Lemma 10's MPC implementation does —
//! fixing one bit per converge-cast, always taking the branch with the
//! smaller conditional mean of SSP failures — and prints the walk.

use parcolor_core::framework::NormalProcedure;
use parcolor_core::hknt::procs::{SspMode, StageSet, TryRandomColor};
use parcolor_core::instance::ColoringState;
use parcolor_core::{D1lcInstance, Graph, NodeId};
use parcolor_prg::{select_seed, ChunkAssignment, Prg, PrgTape, SeedStrategy};

fn main() {
    let n = 64usize;
    let edges: Vec<(NodeId, NodeId)> = (0..n as NodeId)
        .map(|i| (i, (i + 1) % n as NodeId))
        .collect();
    let g = Graph::from_edges(n, &edges);
    let inst = D1lcInstance::delta_plus_one(g.clone());
    let state = ColoringState::new(&inst);

    let set = StageSet::new(&g, (0..n as NodeId).collect());
    let proc = TryRandomColor::new(set, SspMode::Colored, 1);

    let seed_bits = 10;
    let prg = Prg::new(seed_bits);
    let chunks = ChunkAssignment::PerNode;
    let cost = |seed: u64| {
        let tape = PrgTape::new(prg, seed, &chunks);
        let out = proc.simulate(&state, &tape);
        proc.ssp_failures(&state, &out).len() as f64
    };

    println!("== bitwise conditional expectations, TryRandomColor on C_{n} ==");
    println!(
        "seed space: 2^{seed_bits} = {} seeds; SSP = \"node got colored\"\n",
        1u64 << seed_bits
    );

    let sel = select_seed(seed_bits, SeedStrategy::BitwiseCondExp, cost);
    println!(
        "{:<6}{:>14}{:>14}{:>10}",
        "bit", "E[fail|b=0]", "E[fail|b=1]", "choice"
    );
    for (bit, m0, m1) in &sel.trace {
        println!(
            "{:<6}{:>14.3}{:>14.3}{:>10}",
            bit,
            m0,
            m1,
            if m1 < m0 { 1 } else { 0 }
        );
    }
    println!(
        "\nwalk result : seed {} with {} failures",
        sel.seed, sel.cost
    );
    println!("space mean  : {:.3} failures", sel.mean_cost);
    println!("space best  : {} failures", sel.min_cost);
    assert!(sel.satisfies_guarantee());
    println!("guarantee   : chosen ≤ mean ✓ (Lemma 10's requirement)");

    let exh = select_seed(seed_bits, SeedStrategy::Exhaustive, cost);
    println!(
        "\nexhaustive search for comparison: seed {} with {} failures",
        exh.seed, exh.cost
    );
}
