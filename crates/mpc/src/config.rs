//! MPC model configuration: local-space exponent φ and derived budgets.

/// Configuration of the MPC instance the simulation runs on.
#[derive(Clone, Copy, Debug)]
pub struct MpcConfig {
    /// Number of nodes of the *original* input graph; space budgets are
    /// always expressed in terms of this `n`, even when working on smaller
    /// induced subgraphs (the paper stresses this in Section 4.3).
    pub n: usize,
    /// Local-space exponent φ ∈ (0, 1): each machine holds `s = c · n^φ`
    /// words.
    pub phi: f64,
    /// The constant `c` in `s = c · n^φ` (the model allows any constant).
    pub space_constant: f64,
    /// Total global words available: `c_g · (m + n^{1+φ})`.  Stored as the
    /// precomputed budget.
    pub global_budget: usize,
}

impl MpcConfig {
    /// Standard configuration for an input with `n` nodes and `m` edges.
    pub fn new(n: usize, m: usize, phi: f64) -> Self {
        assert!(phi > 0.0 && phi < 1.0, "phi must be in (0,1), got {phi}");
        assert!(n > 0);
        let space_constant = 8.0;
        let global_budget = (4.0 * (m as f64 + (n as f64).powf(1.0 + phi))).ceil() as usize + 1024;
        MpcConfig {
            n,
            phi,
            space_constant,
            global_budget,
        }
    }

    /// Builder-style override of the space constant.
    pub fn with_space_constant(mut self, c: f64) -> Self {
        assert!(c > 0.0);
        self.space_constant = c;
        self
    }

    /// Local space per machine, `s = ⌈c · n^φ⌉` words.
    pub fn local_space(&self) -> usize {
        (self.space_constant * (self.n as f64).powf(self.phi)).ceil() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_space_scales_with_phi() {
        let a = MpcConfig::new(1 << 16, 1 << 18, 0.5);
        let b = MpcConfig::new(1 << 16, 1 << 18, 0.25);
        assert!(a.local_space() > b.local_space());
        assert_eq!(a.local_space(), (8.0 * 256.0) as usize);
    }

    #[test]
    #[should_panic]
    fn rejects_bad_phi() {
        MpcConfig::new(100, 100, 1.5);
    }

    #[test]
    fn global_budget_dominates_input() {
        let cfg = MpcConfig::new(1000, 5000, 0.5);
        assert!(cfg.global_budget > 5000 + 1000);
    }
}
