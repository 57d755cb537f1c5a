//! Algorithm configuration.
//!
//! Every constant the paper (and HKNT22 underneath it) treats as "a
//! suitable constant" lives here, so experiments can state exactly which
//! instantiation they ran and ablations can vary one knob at a time.
//!
//! **Threshold scaling.**  The paper's degree thresholds (`log⁷ n`,
//! `ℓ = log^{2.1} Δ`) are asymptotic devices: at any n a laptop can hold,
//! `log⁷ n > n` and every node would be "low-degree".  We therefore expose
//! the *shape* (`β · ln^e n`) with configurable `β, e`; defaults are chosen
//! so that instances in the 10³–10⁶ node range actually exercise all of
//! the pipeline's regimes.

use crate::reduce::MAX_BINS;
use parcolor_prg::SeedStrategy;

/// How PRG output is split into per-node chunks (Lemma 10).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChunkMode {
    /// The paper's scheme: a proper coloring of `G^{4τ}` indexes chunks.
    /// Faithful, but the power graph has degree `Δ^{4τ}` — only used when
    /// that fits the space budget.
    PowerColoring,
    /// Each node is its own chunk (strictly stronger separation; possible
    /// because our PRG output is lazily evaluated).  Default at scale.
    PerNode,
}

/// Full configuration for the D1LC solvers.
#[derive(Clone, Debug)]
pub struct Params {
    // ---- MPC model ----
    /// Local-space exponent φ ∈ (0,1): machines hold `O(n^φ)` words.
    pub phi: f64,
    /// Degree-reduction exponent δ (Section 6): bins per partition level is
    /// `~n^δ`, and the mid-degree regime is `Δ ≤ n^{7δ}`.
    pub delta: f64,

    // ---- derandomization framework ----
    /// PRG seed length in bits (`Θ(τ log Δ)` in the paper).
    pub seed_bits: u32,
    /// Seed-selection strategy (Lemma 10's conditional expectations, or a
    /// cheaper deterministic surrogate).
    pub strategy: SeedStrategy,
    /// PRG chunk assignment mode.
    pub chunking: ChunkMode,
    /// Locality radius τ of the normal procedures (all of ours are O(1)).
    pub tau: u32,
    /// Worker threads for the sharded seed search (`0` = auto: the
    /// `PARCOLOR_THREADS` env var if set, else all hardware threads).
    /// Randomized mode runs no seed search, and a step's chosen seed is
    /// applied by one sequential `simulate` call in both modes.  The
    /// Definition-2 stage pass (`compute_params`), the MPC accounting
    /// folds, the partition's hash search and the CSR row sort always
    /// take the auto count.  Any value yields bit-identical
    /// results — all reduces are grouping-invariant and stripe splices
    /// are positional — so this is purely a throughput knob.
    pub workers: usize,

    // ---- degree thresholds (scaled substitutes for log⁷ n etc.) ----
    /// Low-degree threshold = `low_beta · ln(n)^low_exp`; nodes at or below
    /// it are handled by the deterministic low-degree solver (Lemma 14
    /// substitute).
    pub low_beta: f64,
    /// Exponent in the low-degree threshold formula.
    pub low_exp: f64,
    /// Optional cap on the mid-degree threshold `n^{7δ}` so small test
    /// instances still exercise the degree-reduction recursion.
    pub mid_degree_cap: Option<u32>,

    // ---- HKNT constants ----
    /// ACD sparsity/unevenness threshold ε_sp.
    pub eps_sp: f64,
    /// ACD almost-clique tolerance ε_ac.
    pub eps_ac: f64,
    /// Similarity threshold for the dense-friend relation used to build
    /// almost-cliques: friends share `≥ (1 - eps_friend)·max(d(u), d(v))`
    /// common neighbors.
    pub eps_friend: f64,
    /// The five constants ε₁…ε₅ in the `Vstart` definition (Section 5.2).
    pub eps1: f64,
    /// `Vdisc` discrepancy threshold.
    pub eps2: f64,
    /// Dense-neighbor threshold for `Veasy`.
    pub eps3: f64,
    /// Heavy-color mass threshold for `Vheavy`.
    pub eps4: f64,
    /// Easy-neighbor threshold for `Vstart`.
    pub eps5: f64,
    /// Threshold for a color to be "heavy" w.r.t. a node.
    pub heavy_const: f64,
    /// Sampling probability of `GenerateSlack` (paper: 1/10).
    pub gs_prob: f64,
    /// SSP slack target as a fraction of degree (HKNT's constants scaled).
    pub slack_frac: f64,
    /// κ parameter of SlackColor (`1/s_min < κ ≤ 1`).
    pub kappa: f64,
    /// Number of TryRandomColor warm-up calls in SlackColor ("O(1)").
    pub try_color_repeats: u32,
    /// MultiTrial repetitions in SlackColor's two loops (paper: 2 and 3).
    pub multi_trial_reps_a: u32,
    /// MultiTrial repetitions in SlackColor's geometric loop.
    pub multi_trial_reps_b: u32,
    /// Exponent in `ℓ = log^{ell_exp} Δ` (paper: 2.1).
    pub ell_exp: f64,
    /// PutAside sampling constant (paper: `p_s = ℓ²/(48 Δ_C)`).
    pub put_aside_div: f64,

    // ---- Theorem 12 recursion ----
    /// Process the mid-degree regime in O(log* n) descending degree ranges
    /// (the paper's schedule); `false` collapses to a single range.
    pub multi_range: bool,
    /// Maximum recursive re-applications of the derandomized pipeline on
    /// deferred nodes (`r = O(1/δ)` in the paper) before greedy cleanup.
    pub max_recursions: u32,
    /// Once at most this many nodes remain, collect them onto one machine
    /// and finish greedily (`n^{o(1)}` in the paper).
    pub greedy_cutoff: usize,

    // ---- failure injection (testing) ----
    /// After every framework step, additionally defer each remaining
    /// uncolored node with this probability (deterministic in the step
    /// counter).  Definition 5 promises the pipeline absorbs *any* such
    /// adversarial deferral; the failure-injection tests turn this up and
    /// check the solvers still complete.  Default 0 (off).
    pub chaos_defer_prob: f64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            phi: 0.5,
            delta: 0.1,
            seed_bits: 10,
            strategy: SeedStrategy::Exhaustive,
            chunking: ChunkMode::PerNode,
            tau: 1,
            workers: 0,
            low_beta: 1.5,
            low_exp: 1.2,
            mid_degree_cap: None,
            eps_sp: 0.10,
            eps_ac: 0.30,
            eps_friend: 0.40,
            eps1: 0.3,
            eps2: 0.3,
            eps3: 0.3,
            eps4: 0.3,
            eps5: 0.3,
            heavy_const: 1.0,
            gs_prob: 0.1,
            slack_frac: 0.02,
            kappa: 0.5,
            try_color_repeats: 3,
            multi_trial_reps_a: 2,
            multi_trial_reps_b: 3,
            ell_exp: 2.1,
            put_aside_div: 48.0,
            multi_range: true,
            max_recursions: 10,
            greedy_cutoff: 32,
            chaos_defer_prob: 0.0,
        }
    }
}

impl Params {
    /// Low-degree threshold for an `n`-node input (substitute for log⁷ n).
    pub fn low_degree_threshold(&self, n: usize) -> usize {
        let t = self.low_beta * (n.max(2) as f64).ln().powf(self.low_exp);
        t.ceil().max(4.0) as usize
    }

    /// Mid-degree threshold `n^{7δ}` (optionally capped).
    pub fn mid_degree_threshold(&self, n: usize) -> usize {
        let t = (n.max(2) as f64).powf(7.0 * self.delta).ceil() as usize;
        let t = t.max(self.low_degree_threshold(n) + 1);
        match self.mid_degree_cap {
            Some(cap) => t.min(cap as usize).max(self.low_degree_threshold(n) + 1),
            None => t,
        }
    }

    /// Number of node bins `B ≈ n^δ` used by one LowSpacePartition level
    /// (at least 3 so that color bins `B - 1 ≥ 2`, at most 64 so that
    /// bins fit the partition's `u8` seed lanes).
    pub fn partition_bins(&self, n: usize) -> usize {
        ((n.max(2) as f64).powf(self.delta).ceil() as usize).clamp(3, MAX_BINS)
    }

    /// `ℓ = (log₂ Δ)^{ell_exp}` — the low-slackability threshold.
    pub fn ell(&self, max_degree: usize) -> f64 {
        (max_degree.max(2) as f64).log2().powf(self.ell_exp)
    }

    /// Builder-style setters for the knobs experiments vary.
    /// Set the local-space exponent φ.
    pub fn with_phi(mut self, phi: f64) -> Self {
        assert!(phi > 0.0 && phi < 1.0);
        self.phi = phi;
        self
    }

    /// Set the degree-reduction exponent δ (must satisfy 7δ ≤ 1).
    pub fn with_delta(mut self, delta: f64) -> Self {
        assert!(delta > 0.0 && delta < 1.0 / 7.0 + 1e-9);
        self.delta = delta;
        self
    }

    /// Set the PRG seed length in bits.
    pub fn with_seed_bits(mut self, bits: u32) -> Self {
        self.seed_bits = bits;
        self
    }

    /// Set the seed-selection strategy.
    pub fn with_strategy(mut self, s: SeedStrategy) -> Self {
        self.strategy = s;
        self
    }

    /// Set the PRG chunk-assignment mode.
    pub fn with_chunking(mut self, c: ChunkMode) -> Self {
        self.chunking = c;
        self
    }

    /// Set the worker count for all parallel surfaces (`0` = auto).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Cap the mid-degree threshold (forces the partition recursion on
    /// small instances).
    pub fn with_mid_degree_cap(mut self, cap: u32) -> Self {
        self.mid_degree_cap = Some(cap);
        self
    }

    /// Set the collect-onto-one-machine greedy cutoff.
    pub fn with_greedy_cutoff(mut self, c: usize) -> Self {
        self.greedy_cutoff = c;
        self
    }

    /// Enable/disable the multi-range degree schedule.
    pub fn with_multi_range(mut self, on: bool) -> Self {
        self.multi_range = on;
        self
    }

    /// Set the failure-injection probability (testing).
    pub fn with_chaos(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p));
        self.chaos_defer_prob = p;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_are_ordered() {
        let p = Params::default();
        for &n in &[100usize, 10_000, 1_000_000] {
            assert!(p.low_degree_threshold(n) < p.mid_degree_threshold(n));
        }
    }

    #[test]
    fn low_threshold_grows_polylog() {
        let p = Params::default();
        let a = p.low_degree_threshold(1_000);
        let b = p.low_degree_threshold(1_000_000);
        assert!(b > a);
        assert!(b < 4 * a, "polylog growth should be mild: {a} -> {b}");
    }

    #[test]
    fn mid_cap_is_respected() {
        let p = Params::default().with_mid_degree_cap(64);
        assert!(p.mid_degree_threshold(1_000_000) <= 64.max(p.low_degree_threshold(1_000_000) + 1));
    }

    #[test]
    fn bins_scale_with_delta() {
        let p = Params::default().with_delta(0.12);
        let small = p.partition_bins(1_000);
        let large = p.partition_bins(1_000_000);
        assert!(small >= 3);
        assert!(large >= small);
    }

    #[test]
    fn ell_matches_formula() {
        let p = Params::default();
        let l = p.ell(1024); // log2 = 10 → 10^2.1
        assert!((l - 10f64.powf(2.1)).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn delta_above_one_seventh_rejected() {
        Params::default().with_delta(0.2);
    }
}
