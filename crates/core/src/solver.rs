//! End-to-end D1LC solvers.
//!
//! * [`Solver`] in `Deterministic` mode is **Theorem 1**: recursive
//!   degree reduction (`LowSpaceColorReduce`, Algorithm 11) down to
//!   `Δ ≤ n^{7δ}`, then the derandomized HKNT stage
//!   (`DerandomizedMidDegreeColor`, Algorithm 10) with Theorem 12's
//!   defer-and-recurse loop, the deterministic low-degree solver for the
//!   `d ≤ polylog` remainder, and a final collect-onto-one-machine greedy
//!   for the `n^{o(1)}` stragglers.
//! * `Randomized` mode is **Lemma 4**: the same pipeline under true
//!   randomness, no seed searches.
//!
//! Round accounting follows the parallel structure of Algorithm 11: the
//! restricted bins of one partition level are mutually independent (their
//! palettes are disjoint), so their round cost is combined as a *max*;
//! the last bin and `G_mid` are sequential dependencies (*sum*).

use crate::config::Params;
use crate::framework::{Runner, SeedSearcher, StepReport};
use crate::hknt::pipeline::{color_middle, MidReport};
use crate::instance::{dense_colors, ColoringState, D1lcInstance};
use crate::lowdeg::color_low_degree;
use crate::reduce::{low_space_partition, PartitionStats};
use parcolor_local::graph::NodeId;
use parcolor_prg::hashing::{KWiseHash, MemberBlock};

/// Execution mode of the solver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveMode {
    /// Theorem 1: fully deterministic.
    Deterministic,
    /// Lemma 4: randomized baseline, reproducible from the key.
    Randomized {
        /// Master key seeding every random draw.
        key: u64,
    },
}

/// Critical-path cost bundle (rounds are the model's clock; space is max).
#[derive(Clone, Copy, Debug, Default)]
pub struct Cost {
    /// LOCAL rounds on the critical path.
    pub local_rounds: u64,
    /// MPC rounds on the critical path.
    pub mpc_rounds: u64,
    /// Peak words on any machine.
    pub max_machine_words: u64,
    /// Machine-budget violations recorded.
    pub budget_violations: u64,
}

impl Cost {
    /// Sequential composition.
    pub fn seq(self, other: Cost) -> Cost {
        Cost {
            local_rounds: self.local_rounds + other.local_rounds,
            mpc_rounds: self.mpc_rounds + other.mpc_rounds,
            max_machine_words: self.max_machine_words.max(other.max_machine_words),
            budget_violations: self.budget_violations + other.budget_violations,
        }
    }

    /// Parallel composition (independent executions).
    pub fn par(self, other: Cost) -> Cost {
        Cost {
            local_rounds: self.local_rounds.max(other.local_rounds),
            mpc_rounds: self.mpc_rounds.max(other.mpc_rounds),
            max_machine_words: self.max_machine_words.max(other.max_machine_words),
            budget_violations: self.budget_violations + other.budget_violations,
        }
    }
}

/// Aggregate statistics of a solve.
#[derive(Clone, Debug, Default)]
pub struct SolveStats {
    /// Depth of the degree-reduction recursion actually used.
    pub max_partition_depth: u32,
    /// Partition levels performed (across the whole tree).
    pub partitions: usize,
    /// ColorMiddle invocations (Theorem 12 repetitions included).
    pub mid_invocations: usize,
    /// Total nodes ever deferred by SSP failures.
    pub total_deferrals: usize,
    /// Nodes finished by the final one-machine greedy.
    pub greedy_finished: usize,
    /// Nodes finished by the deterministic low-degree solver.
    pub lowdeg_finished: usize,
    /// Per-partition diagnostics.
    pub partition_stats: Vec<PartitionStats>,
    /// Per-procedure step reports (from every Runner in the tree).
    pub steps: Vec<StepReport>,
    /// Per-stage HKNT reports.
    pub mid_reports: Vec<MidReport>,
}

impl SolveStats {
    fn absorb(&mut self, other: SolveStats) {
        self.max_partition_depth = self.max_partition_depth.max(other.max_partition_depth);
        self.partitions += other.partitions;
        self.mid_invocations += other.mid_invocations;
        self.total_deferrals += other.total_deferrals;
        self.greedy_finished += other.greedy_finished;
        self.lowdeg_finished += other.lowdeg_finished;
        self.partition_stats.extend(other.partition_stats);
        self.steps.extend(other.steps);
        self.mid_reports.extend(other.mid_reports);
    }
}

/// A complete, verified solve.
#[derive(Clone, Debug)]
pub struct Solution {
    /// The verified coloring.
    pub colors: Vec<u32>,
    /// Critical-path cost bundle.
    pub cost: Cost,
    /// Execution statistics.
    pub stats: SolveStats,
}

/// The D1LC solver.
pub struct Solver {
    /// Algorithm configuration.
    pub params: Params,
    /// Deterministic (Theorem 1) or randomized (Lemma 4).
    pub mode: SolveMode,
    /// Seed-search backend for every derandomized runner in the solve
    /// tree (`None` = in-process pool).  Any backend honoring the
    /// [`SeedSearcher`] contract yields the identical coloring.
    seed_searcher: Option<std::sync::Arc<dyn SeedSearcher>>,
}

impl Solver {
    /// Theorem 1 solver.
    pub fn deterministic(params: Params) -> Self {
        Solver {
            params,
            mode: SolveMode::Deterministic,
            seed_searcher: None,
        }
    }

    /// Lemma 4 solver with the given master key.
    pub fn randomized(params: Params, key: u64) -> Self {
        Solver {
            params,
            mode: SolveMode::Randomized { key },
            seed_searcher: None,
        }
    }

    /// Route every seed search of this solve through `searcher` — the
    /// distributed coordinator/worker backends plug in here.
    pub fn with_seed_searcher(mut self, searcher: std::sync::Arc<dyn SeedSearcher>) -> Self {
        self.seed_searcher = Some(searcher);
        self
    }

    /// Solve the instance; the returned coloring is verified before return.
    pub fn solve(&self, inst: &D1lcInstance) -> Solution {
        let n_orig = inst.n().max(2);
        let (colors, cost, stats) = self.solve_rec(inst, n_orig, 0);
        inst.verify_coloring(&colors)
            .expect("solver produced an invalid coloring");
        Solution {
            colors,
            cost,
            stats,
        }
    }

    /// Recursive `LowSpaceColorReduce` (Algorithm 11) on a materialized
    /// instance.  Thresholds always use the original `n` (the paper's
    /// space budgets are in terms of the input size).
    fn solve_rec(
        &self,
        inst: &D1lcInstance,
        n_orig: usize,
        depth: u32,
    ) -> (Vec<u32>, Cost, SolveStats) {
        assert!(depth < 16, "partition recursion runaway");
        let threshold = self.params.mid_degree_threshold(n_orig);
        if inst.graph.max_degree() <= threshold {
            return self.mid_degree_color(inst, n_orig, depth);
        }

        let mut stats = SolveStats {
            max_partition_depth: depth + 1,
            partitions: 1,
            ..SolveStats::default()
        };
        let mut state = ColoringState::new(inst);
        let nodes = state.uncolored_nodes();
        let bins = self.params.partition_bins(n_orig);
        let part = low_space_partition(&inst.graph, &state, &nodes, threshold, bins, 256);
        stats.partition_stats.push(part.stats.clone());
        // Partition itself: O(1) MPC rounds (Lemma 23).
        let mut cost = Cost {
            local_rounds: 1,
            mpc_rounds: 2,
            max_machine_words: 0,
            budget_violations: 0,
        };

        // --- Restricted bins 0..B-2: independent sub-instances whose
        // colors cannot conflict (disjoint color bins), so the model runs
        // them in parallel and charges their costs with `Cost::par`.  Here
        // they are solved one after another, in bin order: this loop is
        // what makes the solve's seed searches reach the `SeedSearcher`
        // in one fixed sequence (see its doc). ---
        let color_bin = ColorBins::new(&part.color_hash, &state, &part.bins[..bins - 1]);
        let mut parallel_cost = Cost::default();
        let mut all_adoptions = Vec::new();
        for (b, bin_nodes) in part.bins.iter().enumerate().take(bins - 1) {
            if bin_nodes.is_empty() {
                continue;
            }
            let (sub, map) = state
                .restricted_instance(&inst.graph, bin_nodes, |c| color_bin.of(c) == b)
                .expect("Lemma 23 selection produced an invalid bin instance");
            let (sub_colors, c, s) = self.solve_rec(&sub, n_orig, depth + 1);
            parallel_cost = parallel_cost.par(c);
            stats.absorb(s);
            all_adoptions.extend(map.into_iter().zip(sub_colors));
        }
        state.apply_adoptions(&inst.graph, &all_adoptions);
        cost = cost.seq(parallel_cost);

        // --- Last bin: full palettes, colored after the restricted bins
        // (its palettes were just updated by the removals). ---
        let last_bin: Vec<NodeId> = part.bins[bins - 1]
            .iter()
            .copied()
            .filter(|&v| !state.is_colored(v))
            .collect();
        if !last_bin.is_empty() {
            let (sub, map) = state.residual_instance(&inst.graph, &last_bin);
            let (sub_colors, c, s) = self.solve_rec(&sub, n_orig, depth + 1);
            let adoptions: Vec<(NodeId, u32)> = map
                .iter()
                .zip(sub_colors.iter())
                .map(|(&orig, &col)| (orig, col))
                .collect();
            state.apply_adoptions(&inst.graph, &adoptions);
            cost = cost.seq(c);
            stats.absorb(s);
        }

        // --- G_mid: the low-degree remainder, colored last. ---
        let mid: Vec<NodeId> = part
            .mid
            .iter()
            .copied()
            .filter(|&v| !state.is_colored(v))
            .collect();
        if !mid.is_empty() {
            let (sub, map) = state.residual_instance(&inst.graph, &mid);
            let (sub_colors, c, s) = self.mid_degree_color(&sub, n_orig, depth);
            let adoptions: Vec<(NodeId, u32)> = map
                .iter()
                .zip(sub_colors.iter())
                .map(|(&orig, &col)| (orig, col))
                .collect();
            state.apply_adoptions(&inst.graph, &adoptions);
            cost = cost.seq(c);
            stats.absorb(s);
        }

        let colors = state
            .into_colors()
            .expect("partition recursion left nodes uncolored");
        (colors, cost, stats)
    }

    /// `DerandomizedMidDegreeColor` (Algorithm 10) — or its randomized
    /// twin: Theorem 12's repetition of the HKNT stage on high-degree
    /// nodes, then the low-degree solver, then the one-machine greedy.
    fn mid_degree_color(
        &self,
        inst: &D1lcInstance,
        n_orig: usize,
        depth: u32,
    ) -> (Vec<u32>, Cost, SolveStats) {
        let g = &inst.graph;
        let mut state = ColoringState::new(inst);
        let mut stats = SolveStats::default();
        let low_thr = self.params.low_degree_threshold(n_orig);

        let mut runner = match self.mode {
            SolveMode::Deterministic => match &self.seed_searcher {
                Some(s) => {
                    Runner::derandomized_with(g, &self.params, n_orig, std::sync::Arc::clone(s))
                }
                None => Runner::derandomized(g, &self.params, n_orig),
            },
            SolveMode::Randomized { key } => {
                // Distinct keys per recursion site keep sub-solves independent.
                Runner::randomized(g, &self.params, key ^ (depth as u64) << 32, n_orig)
            }
        };

        // Degree-range schedule (the paper's "ranges": [log⁷n, n], then
        // [log⁷log n, log⁷n], … — O(log* n) ranges, highest first).  Each
        // range floor is the low-degree threshold *of the previous floor*,
        // mirroring the iterated-log structure at our threshold scaling.
        let mut floors: Vec<usize> = Vec::new();
        let mut t = low_thr;
        loop {
            floors.push(t);
            if !self.params.multi_range || t <= 8 {
                break;
            }
            let next = self.params.low_degree_threshold(t);
            if next >= t {
                break;
            }
            t = next;
        }

        // Theorem 12's loop per range: run the series, recurse on the
        // deferred residual (which *is* the uncolored residual instance,
        // by self-reducibility).
        for &floor in &floors {
            for _round in 0..self.params.max_recursions {
                let high: Vec<NodeId> = state
                    .uncolored_nodes()
                    .into_iter()
                    .filter(|&v| state.uncolored_degree(v) > floor)
                    .collect();
                if high.len() <= self.params.greedy_cutoff || high.is_empty() {
                    break;
                }
                let before = state.uncolored_count();
                runner.clear_deferrals();
                let rep = color_middle(&mut runner, &mut state, &self.params, &high);
                stats.mid_invocations += 1;
                stats.total_deferrals += rep.deferred;
                stats.mid_reports.push(rep);
                if state.uncolored_count() == before {
                    break; // no progress; hand the residue to the finishers
                }
            }
        }
        let low_thr = *floors.last().unwrap();

        // Low-degree remainder (Lemma 14 substitute) — everything whose
        // residual degree is within the low-degree solver's contract.
        let low: Vec<NodeId> = state
            .uncolored_nodes()
            .into_iter()
            .filter(|&v| state.uncolored_degree(v) <= low_thr)
            .collect();
        let lowdeg_big_enough = low.len() > self.params.greedy_cutoff;
        if lowdeg_big_enough {
            color_low_degree(g, &mut state, &low, &mut runner, self.params.greedy_cutoff);
            stats.lowdeg_finished += low.len();
        }

        // Final greedy on one machine (the n^{o(1)} leftover of Thm 12 +
        // anything the cutoffs skipped).  Sequential by construction.
        let rest = state.uncolored_nodes();
        if !rest.is_empty() {
            stats.greedy_finished += rest.len();
            runner.mpc.charge_single_machine(
                rest.len() * 4 + rest.iter().map(|&v| state.palette_size(v)).sum::<usize>(),
            );
            runner.mpc.charge_rounds(1);
            runner.engine.charge(1);
            for &v in &rest {
                let pal = state.palette(v);
                assert!(!pal.is_empty(), "greedy: empty palette at {v}");
                let c = pal[0];
                state.apply_adoptions(g, &[(v, c)]);
            }
        }

        stats.steps.extend(runner.reports.iter().cloned());
        let snap = runner.mpc.metrics().snapshot();
        let cost = Cost {
            local_rounds: runner.engine.rounds(),
            mpc_rounds: snap.rounds,
            max_machine_words: snap.max_machine_words,
            budget_violations: snap.budget_violations,
        };
        let colors = state
            .into_colors()
            .expect("mid-degree stage left nodes uncolored");
        (colors, cost, stats)
    }
}

/// The color bins `h₂` of one partition level, as its restricted bins'
/// palette filter reads them.  When the dense-color rule admits the
/// binned nodes' largest color against their palette entries, a
/// one-member [`MemberBlock`] fills a bin table over `0..=top`; otherwise
/// (a sparse universe, the partition's occurrence mode) each palette
/// entry costs one `eval`.  The block is bit-identical to `eval`, so both
/// read the same bins.
struct ColorBins<'a> {
    hash: &'a KWiseHash,
    table: Option<Vec<u8>>,
}

impl<'a> ColorBins<'a> {
    fn new(hash: &'a KWiseHash, state: &ColoringState, bins: &[Vec<NodeId>]) -> Self {
        let (mut entries, mut top) = (0, 0);
        for palette in bins.iter().flatten().map(|&v| state.palette(v)) {
            entries += palette.len();
            top = palette.iter().fold(top, |t, &c| t.max(c as usize));
        }
        // Color bins are below `MAX_BINS`, so they fit a `u8`.
        let table = dense_colors(top, entries).then(|| {
            let block = MemberBlock::new(std::slice::from_ref(hash));
            let mut bin = [0];
            (0..=top as u64)
                .map(|c| {
                    block.eval(c, &mut bin);
                    bin[0] as u8
                })
                .collect()
        });
        ColorBins { hash, table }
    }

    /// The bin of color `c`, which must lie in a binned node's palette.
    fn of(&self, c: u32) -> usize {
        match &self.table {
            Some(bins) => bins[c as usize] as usize,
            None => self.hash.eval(c as u64) as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcolor_local::graph::Graph;
    use parcolor_local::tape::SplitMix;

    fn random_graph(n: usize, m: usize, seed: u64) -> Graph {
        let mut rng = SplitMix::new(seed);
        let mut edges = Vec::new();
        while edges.len() < m {
            let a = rng.below(n as u64) as NodeId;
            let b = rng.below(n as u64) as NodeId;
            if a != b {
                edges.push((a.min(b), a.max(b)));
            }
        }
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn deterministic_solves_random_graph() {
        let g = random_graph(400, 2400, 1);
        let inst = D1lcInstance::delta_plus_one(g);
        let solver = Solver::deterministic(Params::default().with_seed_bits(6));
        let sol = solver.solve(&inst); // verify_coloring inside
        assert!(sol.cost.local_rounds > 0);
        assert!(sol.cost.mpc_rounds > 0);
    }

    #[test]
    fn deterministic_is_reproducible() {
        let g = random_graph(300, 1500, 2);
        let inst = D1lcInstance::delta_plus_one(g);
        let solver = Solver::deterministic(Params::default().with_seed_bits(6));
        let a = solver.solve(&inst);
        let b = solver.solve(&inst);
        assert_eq!(a.colors, b.colors);
        assert_eq!(a.cost.mpc_rounds, b.cost.mpc_rounds);
    }

    #[test]
    fn randomized_solves_and_differs_by_key() {
        let g = random_graph(300, 1500, 3);
        let inst = D1lcInstance::delta_plus_one(g);
        let s1 = Solver::randomized(Params::default(), 1).solve(&inst);
        let s2 = Solver::randomized(Params::default(), 2).solve(&inst);
        // Different keys almost surely give different colorings.
        assert_ne!(s1.colors, s2.colors);
    }

    #[test]
    fn partition_recursion_triggers_with_cap() {
        // Force the degree-reduction path by capping the mid threshold.
        let g = random_graph(500, 8000, 4); // avg degree 32, Δ ~ 50
        let inst = D1lcInstance::delta_plus_one(g);
        let params = Params::default()
            .with_mid_degree_cap(16)
            .with_seed_bits(5)
            .with_greedy_cutoff(64);
        let solver = Solver::deterministic(params);
        let sol = solver.solve(&inst);
        assert!(sol.stats.partitions >= 1, "partition path not exercised");
        assert!(sol.stats.max_partition_depth >= 1);
    }

    #[test]
    fn solves_star_and_clique_corner_cases() {
        // Star (one hub).
        let edges: Vec<_> = (1..200u32).map(|i| (0, i)).collect();
        let star = D1lcInstance::delta_plus_one(Graph::from_edges(200, &edges));
        Solver::deterministic(Params::default().with_seed_bits(5)).solve(&star);
        // Clique K_40.
        let mut edges = Vec::new();
        for a in 0..40u32 {
            for b in (a + 1)..40 {
                edges.push((a, b));
            }
        }
        let k = D1lcInstance::delta_plus_one(Graph::from_edges(40, &edges));
        let sol = Solver::deterministic(Params::default().with_seed_bits(5)).solve(&k);
        // K_40 needs exactly 40 distinct colors.
        let mut cs = sol.colors.clone();
        cs.sort_unstable();
        cs.dedup();
        assert_eq!(cs.len(), 40);
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let empty = D1lcInstance::delta_plus_one(Graph::empty(5));
        Solver::deterministic(Params::default()).solve(&empty);
        let single = D1lcInstance::delta_plus_one(Graph::from_edges(2, &[(0, 1)]));
        let sol = Solver::deterministic(Params::default()).solve(&single);
        assert_ne!(sol.colors[0], sol.colors[1]);
    }

    #[test]
    fn list_coloring_with_adversarial_palettes() {
        // Ring where palettes are shifted windows — a genuine list instance.
        let n = 120;
        let edges: Vec<_> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        let g = Graph::from_edges(n, &edges);
        let lists: Vec<Vec<u32>> = (0..n as u32).map(|v| vec![v, v + 1, v + 2]).collect();
        let inst = D1lcInstance::new(g, crate::instance::PaletteArena::from_lists(&lists));
        Solver::deterministic(Params::default().with_seed_bits(5)).solve(&inst);
    }
}
