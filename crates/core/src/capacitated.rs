//! Capacitated-middlebox extension.
//!
//! The paper assumes "a middlebox does not have a capacity limit"
//! (§1); the related work it positions against (Sallam & Ji \[27\],
//! Sang et al. \[28\]) does budget middlebox capacity. This module adds
//! the natural capacitated variant: every deployed middlebox serves at
//! most `cap` flows. Two things change:
//!
//! * **Allocation is no longer forced.** The nearest-source rule can
//!   overload a box, so the optimal allocation becomes a
//!   transportation problem — solved exactly with min-cost max-flow
//!   over a bipartite flow→middlebox network whose arc gains are the
//!   per-flow decrements `r_f (1 − λ) l_v(f)`
//!   ([`tdmd_graph::flownet`]).
//! * **Feasibility needs `Σ capacities ≥ |F|`** *and* a perfect
//!   flow→box matching, which the same max-flow decides.
//!
//! [`gtp_capacitated`] scores greedily with the exact capacitated
//! evaluation; with `cap ≥ |F|` it reduces to the uncapacitated
//! behaviour (tested).

use crate::cost::{FlowIndex, HopCount};
use crate::error::TdmdError;
use crate::feasibility::{guard_candidates, open_candidates, Coverage};
use crate::instance::Instance;
use crate::num::{id32, ix};
use crate::plan::{Allocation, Deployment};
use tdmd_graph::flownet::FlowNetwork;
use tdmd_graph::NodeId;

/// Result of an exact capacitated evaluation; unmatched flows ride at
/// full rate (and make the deployment infeasible).
#[derive(Debug, Clone, PartialEq)]
pub struct CapacitatedEval {
    /// Max-gain assignment (`None` = unmatched flow).
    pub allocation: Allocation,
    /// Total bandwidth with unmatched flows at full rate.
    pub bandwidth: f64,
    /// Number of flows the matching served.
    pub matched: usize,
}

/// Exact capacitated evaluation of a deployment: computes the
/// maximum-decrement assignment of flows to middleboxes respecting the
/// per-box capacity, serving as many flows as possible first
/// (max-flow), at maximum gain among those (min-cost).
pub fn evaluate_capacitated(
    instance: &Instance,
    deployment: &Deployment,
    cap: usize,
) -> CapacitatedEval {
    let index = FlowIndex::build(instance, &HopCount);
    evaluate_in(instance, &index, &Members::new(&index), deployment, cap)
}

/// The members of each path class of an index, ascending: the
/// per-flow view the matching needs, since capacity can split a class
/// across boxes. Built on demand, once per evaluation or greedy run.
struct Members {
    /// Class `c`'s flows are `flows[offsets[c] .. offsets[c + 1]]`.
    offsets: Vec<u32>,
    flows: Vec<u32>,
}

impl Members {
    fn new(index: &FlowIndex) -> Self {
        let mut offsets = vec![0u32; index.class_count() + 1];
        for c in 0..id32(index.class_count()) {
            offsets[ix(c) + 1] = offsets[ix(c)] + index.class_size(c);
        }
        let mut cursor: Vec<u32> = offsets[..index.class_count()].to_vec();
        let mut flows = vec![0u32; index.flow_count()];
        for fi in 0..id32(index.flow_count()) {
            let slot = &mut cursor[ix(index.class_of(fi))];
            flows[ix(*slot)] = fi;
            *slot += 1;
        }
        Self { offsets, flows }
    }

    /// The flows crossing `v` with their `l_v(f)`, ascending by flow
    /// id.
    fn through(&self, index: &FlowIndex, v: NodeId) -> Vec<(u32, f64)> {
        let mut out: Vec<(u32, f64)> = index
            .row_entries(v)
            .flat_map(|(c, l)| {
                let span = ix(self.offsets[ix(c)])..ix(self.offsets[ix(c) + 1]);
                self.flows[span].iter().map(move |&fi| (fi, l))
            })
            .collect();
        out.sort_unstable_by_key(|&(fi, _)| fi);
        out
    }
}

/// [`evaluate_capacitated`] over `index`, the hop-count index of
/// `instance`, and its class `members`.
fn evaluate_in(
    instance: &Instance,
    index: &FlowIndex,
    members: &Members,
    deployment: &Deployment,
    cap: usize,
) -> CapacitatedEval {
    let n_flows = instance.flows().len();
    if n_flows == 0 {
        return CapacitatedEval {
            allocation: Allocation { assigned: vec![] },
            bandwidth: 0.0,
            matched: 0,
        };
    }
    let boxes: Vec<NodeId> = deployment.vertices().to_vec();
    if boxes.is_empty() || cap == 0 {
        return CapacitatedEval {
            allocation: Allocation {
                assigned: vec![None; n_flows],
            },
            bandwidth: instance.unprocessed_bandwidth(),
            matched: 0,
        };
    }
    // Node layout: source, flows, boxes, sink.
    let s = 0usize;
    let flow_base = 1usize;
    let box_base = flow_base + n_flows;
    let t = box_base + boxes.len();
    let mut net = FlowNetwork::new(t + 1);
    // Scale f64 gains to integer costs (rates and hops are integral,
    // λ is a small decimal; 10^6 scaling keeps everything exact enough
    // for argmax purposes and well inside i64).
    const SCALE: f64 = 1e6;
    let factor = 1.0 - instance.lambda();
    for fi in 0..n_flows {
        net.add_arc(s, flow_base + fi, 1, 0);
    }
    // Record (arc index, box vertex) for assignment extraction; the
    // flow node's slot 0 is the residual twin of the source arc, so
    // indices are captured explicitly at insertion time.
    let mut arc_box: Vec<Vec<(usize, NodeId)>> = vec![Vec::new(); n_flows];
    for (bi, &v) in boxes.iter().enumerate() {
        for (fi, l) in members.through(index, v) {
            let gain = instance.flows()[fi as usize].rate as f64 * factor * l;
            let cost = -(gain * SCALE).round() as i64;
            let idx = net.out_arc_count(flow_base + fi as usize);
            net.add_arc(flow_base + fi as usize, box_base + bi, 1, cost);
            arc_box[fi as usize].push((idx, v));
        }
        net.add_arc(box_base + bi, t, cap as i64, 0);
    }
    let (flow, _cost) = net.min_cost_flow(s, t, n_flows as i64);
    // Extract the assignment: for each flow node, the forward arc with
    // zero residual capacity carries its unit.
    let mut assigned = vec![None; n_flows];
    for (fi, slot) in assigned.iter_mut().enumerate() {
        for &(idx, v) in &arc_box[fi] {
            if net.residual(flow_base + fi, idx) == 0 {
                *slot = Some(v);
                break;
            }
        }
    }
    let allocation = Allocation { assigned };
    let bandwidth = crate::objective::bandwidth(instance, &allocation);
    CapacitatedEval {
        allocation,
        bandwidth,
        matched: flow as usize,
    }
}

/// Exact capacitated allocation of flows to deployed middleboxes.
///
/// Returns the allocation and the total bandwidth consumption, or
/// `None` when no assignment serves every flow within the capacities.
pub fn allocate_capacitated(
    instance: &Instance,
    deployment: &Deployment,
    cap: usize,
) -> Option<(Allocation, f64)> {
    let eval = evaluate_capacitated(instance, deployment, cap);
    (eval.matched == instance.flows().len()).then_some((eval.allocation, eval.bandwidth))
}

/// Greedy placement under per-middlebox capacity `cap`.
///
/// Scores each candidate by the exact capacitated evaluation of the
/// trial deployment (unmatched flows at full rate — the capacitated
/// generalization of the marginal decrement), breaking ties toward
/// more matched flows, then more covered flows, then the smaller id.
/// Applies the same tight-budget coverage guard as the uncapacitated
/// GTP (capacity-blind — the final matching certifies, and a failed
/// certificate returns `Infeasible` for the caller to resample, per
/// §6.1). With `cap ≥ |F|` this reduces to `gtp_budgeted`'s behaviour.
///
/// # Errors
/// [`TdmdError::Infeasible`] when no reachable deployment serves all
/// flows within capacity.
pub fn gtp_capacitated(
    instance: &Instance,
    k: usize,
    cap: usize,
) -> Result<(Deployment, Allocation, f64), TdmdError> {
    let n_flows = instance.flows().len();
    if n_flows == 0 {
        return Ok((
            Deployment::empty(instance.node_count()),
            Allocation { assigned: vec![] },
            0.0,
        ));
    }
    if cap == 0 || k * cap < n_flows {
        return Err(TdmdError::Infeasible { budget: k });
    }
    let mut deployment = Deployment::empty(instance.node_count());
    let index = FlowIndex::build(instance, &HopCount);
    let members = Members::new(&index);
    let mut coverage = Coverage::new(&index);
    let mut cur = evaluate_in(instance, &index, &members, &deployment, cap);
    for round in 0..k {
        let remaining = k - round;
        // Capacity-blind coverage guard, shared with the uncapacitated
        // engine (the final matching certifies actual feasibility).
        let cands = guard_candidates(&index, &coverage, &deployment, remaining)?
            .unwrap_or_else(|| open_candidates(&index, &deployment));
        // Exact trial evaluation per candidate.
        let mut best: Option<(CapacitatedEval, usize, NodeId)> = None;
        for v in cands {
            let mut trial = deployment.clone();
            trial.insert(v);
            let eval = evaluate_in(instance, &index, &members, &trial, cap);
            let cov = coverage.count(v);
            let better = match &best {
                None => true,
                Some((be, bc, bv)) => {
                    eval.bandwidth < be.bandwidth - 1e-12
                        || ((eval.bandwidth - be.bandwidth).abs() <= 1e-12
                            && (eval.matched > be.matched
                                || (eval.matched == be.matched
                                    && (cov > *bc || (cov == *bc && v < *bv)))))
                }
            };
            if better {
                best = Some((eval, cov, v));
            }
        }
        let Some((eval, _, v)) = best else { break };
        // Stop early only when fully matched and no candidate helps.
        if cur.matched == n_flows && eval.bandwidth >= cur.bandwidth - 1e-12 {
            break;
        }
        deployment.insert(v);
        coverage.serve(&index, v);
        cur = eval;
    }
    if cur.matched < n_flows {
        return Err(TdmdError::Infeasible { budget: k });
    }
    Ok((deployment, cur.allocation, cur.bandwidth))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{allocate, bandwidth_of};
    use crate::paper::{fig1_instance, fig5_instance};

    #[test]
    fn unbounded_capacity_reduces_to_nearest_source() {
        let inst = fig5_instance(2);
        let d = Deployment::from_vertices(8, [1, 5]);
        let (alloc, b) = allocate_capacitated(&inst, &d, 100).unwrap();
        assert_eq!(b, bandwidth_of(&inst, &d));
        assert_eq!(alloc, allocate(&inst, &d));
    }

    #[test]
    fn capacity_one_forces_spreading() {
        // Fig. 5, boxes at v2 and v6 can each take one flow only: two
        // of the four flows cannot be served -> infeasible.
        let inst = fig5_instance(2);
        let d = Deployment::from_vertices(8, [1, 5]);
        assert!(allocate_capacitated(&inst, &d, 1).is_none());
        // Four boxes with capacity 1 work (one per source).
        let d = Deployment::from_vertices(8, [3, 4, 6, 7]);
        let (_, b) = allocate_capacitated(&inst, &d, 1).unwrap();
        assert_eq!(b, 12.0);
    }

    #[test]
    fn tight_capacity_degrades_gracefully() {
        // Boxes at root and v2 with capacity 2: optimal split serves
        // f1, f4 at v2 (gains 1 + 0.5) and f2, f3 at the root (gain 0).
        let inst = fig5_instance(2);
        let d = Deployment::from_vertices(8, [0, 1]);
        let (alloc, b) = allocate_capacitated(&inst, &d, 2).unwrap();
        assert_eq!(b, 24.0 - 1.5);
        // f1 (index 0) and f4 (index 3) sit on v2's subtree.
        assert_eq!(alloc.assigned[0], Some(1));
        assert_eq!(alloc.assigned[3], Some(1));
    }

    #[test]
    fn min_cost_beats_greedy_nearest_when_capacity_binds() {
        // Three flows through v5 (= id 4 in fig1)? Use fig1: boxes at
        // v2 (serves f2, f3, f4 at l=0) and v3 (serves f1, f2 at l=1).
        // cap = 2: nearest-source would send both f1 and f2 to v3 and
        // f3, f4 to v2 — which is also the max-gain matching; assert
        // the solver finds gains 2 + 1 = 3 total decrement.
        let inst = fig1_instance(2);
        let d = Deployment::from_vertices(6, [1, 2]);
        let (_, b) = allocate_capacitated(&inst, &d, 2).unwrap();
        assert_eq!(b, inst.unprocessed_bandwidth() - 3.0);
    }

    #[test]
    fn gtp_capacitated_matches_uncapacitated_when_loose() {
        let inst = fig1_instance(3);
        let (d, _, b) = gtp_capacitated(&inst, 3, 100).unwrap();
        let u = crate::algorithms::gtp::gtp_budgeted(&inst, 3).unwrap();
        assert_eq!(b, bandwidth_of(&inst, &u));
        assert!(d.len() <= 3);
    }

    #[test]
    fn gtp_capacitated_uses_more_boxes_under_tight_caps() {
        let inst = fig5_instance(4);
        // cap 1 needs >= 4 boxes for 4 flows.
        let (d, alloc, _) = gtp_capacitated(&inst, 4, 1).unwrap();
        assert_eq!(d.len(), 4);
        assert!(alloc.is_complete());
        // Each box serves exactly one flow.
        let mut counts = std::collections::BTreeMap::new();
        for a in alloc.assigned.iter().flatten() {
            *counts.entry(*a).or_insert(0usize) += 1;
        }
        assert!(counts.values().all(|&c| c <= 1));
    }

    #[test]
    fn impossible_capacity_is_infeasible() {
        let inst = fig5_instance(2);
        // k · cap = 2 < 4 flows.
        assert!(gtp_capacitated(&inst, 2, 1).is_err());
        assert!(gtp_capacitated(&inst, 2, 0).is_err());
    }

    #[test]
    fn empty_workload_is_trivial() {
        let g = crate::paper::fig5_graph();
        let inst = Instance::new(g, vec![], 0.5, 1).unwrap();
        let (alloc, b) = allocate_capacitated(&inst, &Deployment::empty(8), 1).unwrap();
        assert!(alloc.assigned.is_empty());
        assert_eq!(b, 0.0);
    }
}
