//! Streaming path pricing — the online face of PR 1's [`CostModel`].
//!
//! The static engine compiles a [`CostModel`] against a whole
//! [`Instance`](tdmd_core::Instance) at once (the CSR `FlowIndex`). A
//! stream has no instance: flows appear one at a time, so a
//! [`PathPricer`] prices a
//! single flow's path at arrival and the engine stores the resulting
//! per-position gains for the flow's lifetime. Every [`CostModel`]
//! whose `serving_gain` depends only on the flow and its path position
//! (hop count, the chain crate's stack model, …) lifts to a pricer
//! for free through [`ModelPricer`]; graph-priced models like the
//! weighted-edges extension get a dedicated pricer that resolves edge
//! weights against the topology ([`WeightedPathPricer`]).
//!
//! The from-scratch drift oracle needs no second pricing: the engine
//! compiles the gains and costs it stored at arrival into a
//! [`FlowIndex`](tdmd_core::FlowIndex) and runs GTP on that
//! ([`OnlineEngine::solve_oracle`](crate::OnlineEngine::solve_oracle)),
//! so the oracle optimizes exactly the objective the stream prices.

use tdmd_core::cost::EdgeWeights;
use tdmd_core::{CostModel, HopCount};
use tdmd_graph::DiGraph;
use tdmd_traffic::Flow;

/// Prices one flow path for the online engine and its drift oracle.
///
/// # Contract
///
/// `gains` must be non-negative and non-increasing along the path
/// (Theorem 2's monotonicity, exactly as for [`CostModel`]), and
/// `unprocessed_cost` must dominate every gain of the same flow. The
/// drift oracle optimizes the objective those gains induce, so the
/// drift trigger compares like with like.
pub trait PathPricer {
    /// Per-position serving gains of `flow` (`gains[i]` = metric
    /// credited for processing at `flow.path[i]`; length =
    /// `flow.path.len()`).
    fn gains(&self, flow: &Flow) -> Vec<f64>;

    /// Metric of the wholly unprocessed flow
    /// ([`CostModel::unprocessed_cost`] generalized).
    fn unprocessed_cost(&self, flow: &Flow) -> f64;

    /// Whether the drift oracle's greedy breaks gain ties by
    /// newly-covered flows ([`CostModel::coverage_tiebreak`]).
    fn coverage_tiebreak(&self) -> bool {
        true
    }
}

/// Lifts any position-stateless [`CostModel`] to a [`PathPricer`].
///
/// Correct for models whose `serving_gain(flow, pos)` is independent
/// of the instance the model was built against — [`HopCount`] and the
/// chain stack model qualify; the instance-compiled `WeightedEdges`
/// does not (use [`WeightedPathPricer`] instead).
#[derive(Debug, Clone, Default)]
pub struct ModelPricer<M: CostModel>(pub M);

impl<M: CostModel> PathPricer for ModelPricer<M> {
    fn gains(&self, flow: &Flow) -> Vec<f64> {
        (0..flow.path.len())
            .map(|pos| self.0.serving_gain(flow, pos))
            .collect()
    }

    fn unprocessed_cost(&self, flow: &Flow) -> f64 {
        self.0.unprocessed_cost(flow)
    }

    fn coverage_tiebreak(&self) -> bool {
        self.0.coverage_tiebreak()
    }
}

/// The paper's hop-count pricing, streaming edition.
pub type HopPricer = ModelPricer<HopCount>;

/// Weighted-edge pricing resolved against the topology: a position's
/// gain is the suffix sum of edge weights downstream of it — the same
/// quantity [`WeightedEdges`](tdmd_core::WeightedEdges) precomputes
/// per instance, computed per flow at arrival instead.
#[derive(Debug, Clone)]
pub struct WeightedPathPricer {
    weights: EdgeWeights,
}

impl WeightedPathPricer {
    /// Indexes the edge weights of `g` once for `O(1)` per-edge
    /// lookups.
    pub fn new(g: &DiGraph) -> Self {
        Self {
            weights: EdgeWeights::new(g),
        }
    }
}

impl PathPricer for WeightedPathPricer {
    fn gains(&self, flow: &Flow) -> Vec<f64> {
        let m = flow.path.len();
        let mut d = vec![0.0f64; m];
        for i in (0..m - 1).rev() {
            d[i] = d[i + 1] + self.weights.get(flow.path[i], flow.path[i + 1]);
        }
        d
    }

    fn unprocessed_cost(&self, flow: &Flow) -> f64 {
        // The suffix sum at the source — identical to `gains(flow)[0]`.
        flow.path
            .windows(2)
            .map(|w| self.weights.get(w[0], w[1]))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdmd_core::paper::fig1_instance;
    use tdmd_core::WeightedEdges;

    #[test]
    fn hop_pricer_matches_downstream_hops() {
        let f = Flow::new(0, 3, vec![5, 3, 1]);
        let g = HopPricer::default().gains(&f);
        assert_eq!(g, vec![2.0, 1.0, 0.0]);
    }

    #[test]
    fn weighted_pricer_matches_instance_model_on_unit_weights() {
        let inst = fig1_instance(2);
        let pricer = WeightedPathPricer::new(inst.graph());
        let model = WeightedEdges::new(&inst);
        for f in inst.flows() {
            let gains = pricer.gains(f);
            for (pos, &g) in gains.iter().enumerate() {
                assert_eq!(g, model.serving_gain(f, pos), "flow {} pos {pos}", f.id);
            }
        }
    }

    #[test]
    fn model_pricer_forwards_the_coverage_tiebreak() {
        struct NoTies;
        impl CostModel for NoTies {
            fn serving_gain(&self, flow: &Flow, pos: usize) -> f64 {
                HopCount.serving_gain(flow, pos)
            }
            fn unprocessed_cost(&self, flow: &Flow) -> f64 {
                HopCount.unprocessed_cost(flow)
            }
            fn coverage_tiebreak(&self) -> bool {
                false
            }
        }
        assert!(HopPricer::default().coverage_tiebreak());
        assert!(!ModelPricer(NoTies).coverage_tiebreak());
        let g = tdmd_graph::GraphBuilder::new(2).build();
        assert!(WeightedPathPricer::new(&g).coverage_tiebreak());
    }
}
