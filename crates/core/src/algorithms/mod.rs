//! Placement algorithms.
//!
//! * [`engine`] — the generic greedy core every objective variant
//!   shares: the cost-model-agnostic GTP loop with its lazy argmax
//!   under the tight-budget feasibility guard, and a budgeted
//!   best-move loop.
//! * [`gtp`] — Alg. 1, the `(1 − 1/e)` submodular greedy for general
//!   topologies.
//! * [`dp`] — the optimal tree DP of §5.1 (Eqs. 7–10), generalized to
//!   arbitrary branching and to sources at any non-root vertex.
//! * [`hat`] — Alg. 2, the agglomerative leaf-merging heuristic.
//! * [`best_effort`] and [`random`] — the paper's two baselines.
//! * [`exhaustive`] — brute-force optimum for small instances (used to
//!   certify the DP and to measure heuristic gaps).
//! * [`joint`] — alternating joint routing + placement over candidate
//!   path sets, with an LP-relaxation lower bound on the optimum.

pub mod best_effort;
pub mod branch_bound;
pub mod centrality;
pub mod dp;
pub mod engine;
pub mod exhaustive;
pub mod gtp;
pub mod hat;
pub mod joint;
pub mod local_search;
pub mod random;

use crate::error::TdmdError;
use crate::instance::Instance;
use crate::plan::Deployment;
use rand::Rng;

/// Uniform handle over all placement algorithms, used by the
/// experiment runner to sweep the paper's five-algorithm comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Random feasible `k`-subset (baseline).
    Random,
    /// Volume-greedy baseline (see module docs for the
    /// interpretation).
    BestEffort,
    /// Alg. 1 budgeted greedy (lazily re-scored marginal decrements).
    Gtp,
    /// Alg. 2 tree heuristic.
    Hat,
    /// Optimal tree dynamic program.
    Dp,
    /// GTP followed by 1-swap/1-drop local search (extension).
    GtpLs,
    /// Traffic-oblivious top-betweenness placement (extension
    /// baseline).
    Centrality,
}

impl Algorithm {
    /// Paper-facing display name.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Random => "Random",
            Algorithm::BestEffort => "Best-effort",
            Algorithm::Gtp => "GTP",
            Algorithm::Hat => "HAT",
            Algorithm::Dp => "DP",
            Algorithm::GtpLs => "GTP+LS",
            Algorithm::Centrality => "Centrality",
        }
    }

    /// True if the algorithm requires a tree instance.
    pub fn tree_only(&self) -> bool {
        matches!(self, Algorithm::Hat | Algorithm::Dp)
    }

    /// Runs the algorithm with the instance's budget `k`.
    pub fn run<R: Rng + ?Sized>(
        &self,
        instance: &Instance,
        rng: &mut R,
    ) -> Result<Deployment, TdmdError> {
        let k = instance.k();
        match self {
            Algorithm::Random => random::random_feasible(instance, k, rng, 1000),
            Algorithm::BestEffort => best_effort::best_effort(instance, k),
            Algorithm::Gtp => gtp::gtp_budgeted(instance, k),
            Algorithm::Hat => hat::hat(instance, k),
            Algorithm::Dp => dp::dp_optimal(instance).map(|s| s.deployment),
            Algorithm::GtpLs => local_search::gtp_with_local_search(instance, k),
            Algorithm::Centrality => centrality::centrality_placement(instance, k),
        }
    }

    /// The paper's tree-topology line-up (Figs. 9–12).
    pub fn tree_suite() -> [Algorithm; 5] {
        [
            Algorithm::Random,
            Algorithm::BestEffort,
            Algorithm::Gtp,
            Algorithm::Hat,
            Algorithm::Dp,
        ]
    }

    /// The paper's general-topology line-up (Figs. 13–16).
    pub fn general_suite() -> [Algorithm; 3] {
        [Algorithm::Random, Algorithm::BestEffort, Algorithm::Gtp]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(Algorithm::Gtp.name(), "GTP");
        assert_eq!(Algorithm::Dp.name(), "DP");
        assert_eq!(Algorithm::BestEffort.name(), "Best-effort");
    }

    #[test]
    fn suites_match_the_paper() {
        assert_eq!(Algorithm::tree_suite().len(), 5);
        assert_eq!(Algorithm::general_suite().len(), 3);
        assert!(Algorithm::general_suite().iter().all(|a| !a.tree_only()));
    }
}
