//! Configuration for the SCC algorithm and its reachability searches.
//!
//! Defaults follow Tab. 1 of the paper: `τ = 512`, `β = 1.5`,
//! hash-bag `λ = 2¹⁰`, `σ = 50`. Trimming has no setting: the kernel always
//! trims to the fixed point ([`scc::trim`](crate::scc::trim())).

use pscc_bag::BagConfig;

/// Parameters of a single- or multi-reachability search.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReachParams {
    /// Enable VGC local search.
    pub vgc: bool,
    /// VGC threshold τ: the number of (successful or unsuccessful) neighbor
    /// visits a local search performs before flushing to the next frontier.
    pub tau: usize,
    /// Enable the dense (bottom-up) mode for single-reachability (§4.2).
    pub use_dense: bool,
    /// Hash-bag parameters for the frontier.
    pub bag: BagConfig,
}

impl Default for ReachParams {
    fn default() -> Self {
        Self { vgc: true, tau: 512, use_dense: true, bag: BagConfig::default() }
    }
}

impl ReachParams {
    /// Plain BFS-style search: hash-bag frontier but no local search.
    pub fn plain() -> Self {
        Self { vgc: false, ..Self::default() }
    }
}

/// Configuration of the full BGSS SCC computation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SccConfig {
    /// VGC threshold τ (Tab. 1 default 512 = 2⁹).
    pub tau: usize,
    /// Prefix-doubling multiplier β for batch sizes (Tab. 1 default 1.5).
    pub beta: f64,
    /// Use VGC in the first-SCC single-reachability searches
    /// ("VGC1" of Fig. 9).
    pub vgc_single: bool,
    /// Use VGC in the multi-reachability searches ("Final" of Fig. 9).
    pub vgc_multi: bool,
    /// Enable the dense/bottom-up direction-optimization for the first SCC.
    pub use_dense: bool,
    /// Seed for the random vertex permutation.
    pub seed: u64,
    /// Hash-bag parameters.
    pub bag: BagConfig,
}

impl Default for SccConfig {
    fn default() -> Self {
        Self {
            tau: 512,
            beta: 1.5,
            vgc_single: true,
            vgc_multi: true,
            use_dense: true,
            seed: 0x5cc,
            bag: BagConfig::default(),
        }
    }
}

impl SccConfig {
    /// The "Plain" variant of Fig. 9: hash bags, no VGC anywhere.
    pub fn plain() -> Self {
        Self { vgc_single: false, vgc_multi: false, ..Self::default() }
    }

    /// The "VGC1" variant of Fig. 9: VGC only in single-reachability.
    pub fn vgc1() -> Self {
        Self { vgc_single: true, vgc_multi: false, ..Self::default() }
    }

    /// Same configuration with a different τ (for the Fig. 11 sweep).
    pub fn with_tau(self, tau: usize) -> Self {
        Self { tau, ..self }
    }

    /// Reach parameters for the single-reachability (first SCC) searches.
    pub fn single_params(&self) -> ReachParams {
        ReachParams {
            vgc: self.vgc_single && self.tau > 1,
            tau: self.tau,
            use_dense: self.use_dense,
            bag: self.bag,
        }
    }

    /// Reach parameters for the multi-reachability searches.
    pub fn multi_params(&self) -> ReachParams {
        ReachParams {
            vgc: self.vgc_multi && self.tau > 1,
            tau: self.tau,
            use_dense: false, // dense mode is unsound for multi-reach (§4.2)
            bag: self.bag,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_tab1() {
        let c = SccConfig::default();
        assert_eq!(c.tau, 512, "τ = 2^9");
        assert!((c.beta - 1.5).abs() < 1e-12, "β = 1.5");
        assert_eq!(c.bag.lambda, 1 << 10, "λ = 2^10");
        assert_eq!(c.bag.sigma, 50, "σ = 50");
    }

    #[test]
    fn fig9_variants() {
        let plain = SccConfig::plain();
        assert!(!plain.vgc_single && !plain.vgc_multi);
        let vgc1 = SccConfig::vgc1();
        assert!(vgc1.vgc_single && !vgc1.vgc_multi);
        let fin = SccConfig::default();
        assert!(fin.vgc_single && fin.vgc_multi);
    }

    #[test]
    fn multi_params_never_dense() {
        let c = SccConfig::default();
        assert!(!c.multi_params().use_dense);
        assert!(c.single_params().use_dense);
    }

    #[test]
    fn tau_of_one_disables_vgc() {
        let c = SccConfig::default().with_tau(1);
        assert!(!c.single_params().vgc);
        assert!(!c.multi_params().vgc);
    }
}
