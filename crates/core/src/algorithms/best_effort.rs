//! Best-effort baseline.
//!
//! §6.2 describes it as "deploys one middlebox on the vertex which can
//! reduce the bandwidth of flows mostly, until it deploys k
//! middleboxes". We interpret this as the natural *volume-greedy*
//! baseline: each round picks the vertex through which the most
//! still-unserved traffic passes (`Σ r_f (1 − λ)` over unserved flows
//! crossing `v`), ignoring *where* on the path the vertex sits. That
//! is exactly the "reduce the most flow bandwidth" intuition without
//! GTP's positional marginal-decrement scoring — and it reproduces the
//! paper's ordering (Best-effort between GTP and Random on trees,
//! close to GTP on general topologies), because high-volume vertices
//! cluster near destinations where the per-edge saving is small.
//!
//! Ties break by the positional decrement under the active cost
//! model, then by smaller id. The same tight-budget feasibility guard
//! as GTP applies (shared via [`crate::feasibility`]; the paper only
//! evaluates feasible plans).

use crate::cost::{CostModel, FlowIndex, HopCount};
use crate::error::TdmdError;
use crate::feasibility::{guard_candidates, is_feasible, open_candidates, Coverage};
use crate::instance::Instance;
use crate::num::ix;
use crate::plan::Deployment;
use tdmd_graph::NodeId;

/// Volume-greedy Best-effort under an arbitrary cost model: volume
/// scoring is model-independent (raw unserved traffic), only the
/// tie-breaking decrement is priced by `model`.
///
/// # Errors
/// [`TdmdError::Infeasible`] when the guard cannot keep the plan
/// coverable within the budget.
pub fn best_effort_with<M: CostModel>(
    instance: &Instance,
    k: usize,
    model: &M,
) -> Result<Deployment, TdmdError> {
    let index = FlowIndex::build(instance, model);
    let mut deployment = Deployment::empty(instance.node_count());
    let mut coverage = Coverage::new(&index);
    let mut cur = vec![0.0f64; instance.flows().len()];
    let flows = instance.flows();

    for round in 0..k {
        let remaining = k - round;
        let all_served = coverage.all_served();
        let cands = guard_candidates(&index, &coverage, &deployment, remaining)?
            .unwrap_or_else(|| open_candidates(&index, &deployment));
        // Volume score: unserved traffic through v (λ-independent so
        // coverage still progresses when λ = 1 zeroes all savings).
        let mut best: Option<(u64, f64, NodeId)> = None;
        for v in cands {
            let volume: u64 = instance
                .flows_through(v)
                .iter()
                .filter(|&&(fi, _)| !coverage.is_served(fi))
                .map(|&(fi, _)| flows[ix(fi)].rate)
                .sum();
            let tie = index.marginal_decrement(instance, &cur, v);
            let better = match &best {
                None => true,
                Some((bv, bt, bid)) => {
                    volume > *bv || (volume == *bv && (tie > *bt || (tie == *bt && v < *bid)))
                }
            };
            if better {
                best = Some((volume, tie, v));
            }
        }
        let Some((volume, tie, v)) = best else { break };
        if all_served && volume == 0 && tie <= 0.0 {
            break; // nothing left to improve
        }
        deployment.insert(v);
        coverage.serve(&index, v);
        for &(fi, g) in index.flows_through(v) {
            if g > cur[ix(fi)] {
                cur[ix(fi)] = g;
            }
        }
    }
    if !is_feasible(instance, &deployment) {
        return Err(TdmdError::Infeasible { budget: k });
    }
    Ok(deployment)
}

/// Runs the volume-greedy Best-effort baseline with budget `k` under
/// the paper's hop-count pricing.
///
/// # Errors
/// [`TdmdError::Infeasible`] when the guard cannot keep the plan
/// coverable within the budget.
pub fn best_effort(instance: &Instance, k: usize) -> Result<Deployment, TdmdError> {
    best_effort_with(instance, k, &HopCount)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::gtp::gtp_budgeted;
    use crate::objective::bandwidth_of;
    use crate::paper::{fig1_instance, fig5_instance};

    #[test]
    fn produces_feasible_plans() {
        for k in 2..=4 {
            let inst = fig1_instance(k);
            let d = best_effort(&inst, k).unwrap();
            assert!(is_feasible(&inst, &d));
            assert!(d.len() <= k);
        }
    }

    #[test]
    fn volume_greedy_prefers_shared_vertices() {
        // In Fig. 1, v2 (id 1) carries flows f2+f3+f4 (volume 6·0.5)
        // vs v3 (id 2) carrying f1+f2 (volume 6·0.5 too) — tie broken
        // by positional decrement: v3 wins (3 > 0).
        let inst = fig1_instance(2);
        let d = best_effort(&inst, 2).unwrap();
        assert!(d.contains(2) || d.contains(1));
    }

    #[test]
    fn never_better_than_gtp_on_fig5() {
        for k in 1..=4 {
            let inst = fig5_instance(k);
            let be = best_effort(&inst, k).unwrap();
            let gtp = gtp_budgeted(&inst, k).unwrap();
            assert!(
                bandwidth_of(&inst, &be) >= bandwidth_of(&inst, &gtp) - 1e-9,
                "k={k}"
            );
        }
    }

    #[test]
    fn infeasible_budget_errors() {
        let inst = fig1_instance(1);
        assert!(best_effort(&inst, 1).is_err());
    }

    #[test]
    fn k1_on_tree_places_the_root() {
        let inst = fig5_instance(1);
        let d = best_effort(&inst, 1).unwrap();
        assert_eq!(d.vertices(), &[0]);
    }

    #[test]
    fn weighted_model_still_feasible() {
        use crate::cost::WeightedEdges;
        for k in 2..=4 {
            let inst = fig1_instance(k);
            let d = best_effort_with(&inst, k, &WeightedEdges::new(inst.graph())).unwrap();
            assert!(is_feasible(&inst, &d));
        }
    }
}
