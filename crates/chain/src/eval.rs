//! Exact chain evaluation.
//!
//! For one flow, the optimal ordered processing against a fixed
//! instance deployment is a small DP over the flow's path: walking
//! source → destination, at every vertex the flow may complete any
//! run of consecutive pending types whose instances sit there, and
//! every edge costs `r · Λ_t` where `Λ_t` is the cumulative ratio of
//! the types completed so far. The DP state is "types completed", so
//! the whole flow costs `O(|p_f| · m)`.

use crate::deployment::ChainDeployment;
use crate::spec::ChainSpec;
use tdmd_traffic::Flow;

/// Evaluation of a chain deployment over a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainEval {
    /// Total bandwidth; flows that cannot complete the chain ride at
    /// full rate end to end.
    pub bandwidth: f64,
    /// Number of flows that cannot complete the chain in order.
    pub infeasible_flows: usize,
}

impl ChainEval {
    /// True when every flow completes the chain.
    pub fn feasible(&self) -> bool {
        self.infeasible_flows == 0
    }
}

/// Minimum bandwidth of one flow under the deployment, or `None` when
/// the flow cannot complete the chain in order along its path.
pub fn flow_chain_cost(
    flow: &Flow,
    chain: &ChainSpec,
    deployment: &ChainDeployment,
) -> Option<f64> {
    let m = chain.len();
    debug_assert_eq!(deployment.type_count(), m);
    let rate = flow.rate as f64;
    // best[t] = min cost of the traversed prefix with the first t
    // types completed.
    let mut best = vec![f64::INFINITY; m + 1];
    best[0] = 0.0;
    for (pos, &v) in flow.path.iter().enumerate() {
        // Complete pending types available at this vertex (ascending
        // pass chains multi-type completions at one vertex).
        for t in 0..m {
            if deployment.has(t, v) && best[t].is_finite() {
                let candidate = best[t];
                if candidate < best[t + 1] {
                    best[t + 1] = candidate;
                }
            }
        }
        // Traverse the edge to the next vertex at the current rates.
        if pos + 1 < flow.path.len() {
            for (t, b) in best.iter_mut().enumerate() {
                if b.is_finite() {
                    *b += rate * chain.prefix_ratio(t);
                }
            }
        }
    }
    best[m].is_finite().then_some(best[m])
}

/// Evaluates a whole workload; chain-infeasible flows are charged
/// their unprocessed bandwidth (and counted).
pub fn evaluate_chain(
    flows: &[Flow],
    chain: &ChainSpec,
    deployment: &ChainDeployment,
) -> ChainEval {
    let mut bandwidth = 0.0;
    let mut infeasible = 0usize;
    for f in flows {
        match flow_chain_cost(f, chain, deployment) {
            Some(c) => bandwidth += c,
            None => {
                bandwidth += f.unprocessed_bandwidth();
                infeasible += 1;
            }
        }
    }
    ChainEval {
        bandwidth,
        infeasible_flows: infeasible,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(rate: u64, path: &[u32]) -> Flow {
        Flow::new(0, rate, path.to_vec())
    }

    /// Brute-force reference: enumerate all monotone position
    /// selections.
    fn brute(flow: &Flow, chain: &ChainSpec, dep: &ChainDeployment) -> Option<f64> {
        let m = chain.len();
        let l = flow.path.len();
        let mut best: Option<f64> = None;
        let mut qs = vec![0usize; m];
        #[allow(clippy::too_many_arguments)]
        fn rec(
            t: usize,
            from: usize,
            qs: &mut Vec<usize>,
            flow: &Flow,
            chain: &ChainSpec,
            dep: &ChainDeployment,
            l: usize,
            best: &mut Option<f64>,
        ) {
            let m = chain.len();
            if t == m {
                // Cost: each edge e carries Λ_{#(q <= e)}.
                let mut cost = 0.0;
                for e in 0..l - 1 {
                    let done = qs.iter().filter(|&&q| q <= e).count();
                    cost += flow.rate as f64 * chain.prefix_ratio(done);
                }
                if best.is_none_or(|b| cost < b) {
                    *best = Some(cost);
                }
                return;
            }
            for q in from..l {
                if dep.has(t, flow.path[q]) {
                    qs[t] = q;
                    rec(t + 1, q, qs, flow, chain, dep, l, best);
                }
            }
        }
        rec(0, 0, &mut qs, flow, chain, dep, l, &mut best);
        best
    }

    #[test]
    fn single_type_matches_the_paper_objective() {
        // One λ = 0.5 type on a 3-edge path, instance mid-path:
        // b = r(|p| − 0.5·l_v) with l = 2 downstream edges.
        let chain = ChainSpec::from_ratios(&[("m", 0.5)]);
        let f = flow(4, &[9, 7, 5, 3]);
        let mut dep = ChainDeployment::empty(1, 10);
        dep.insert(0, 7);
        assert_eq!(
            flow_chain_cost(&f, &chain, &dep),
            Some(4.0 * 3.0 - 4.0 * 0.5 * 2.0)
        );
    }

    #[test]
    fn order_constraint_is_enforced() {
        // Type 2's only instance sits before type 1's: infeasible.
        let chain = ChainSpec::from_ratios(&[("a", 0.5), ("b", 0.5)]);
        let f = flow(1, &[0, 1, 2]);
        let mut dep = ChainDeployment::empty(2, 3);
        dep.insert(0, 2); // type a only at the destination
        dep.insert(1, 0); // type b only at the source
        assert_eq!(flow_chain_cost(&f, &chain, &dep), None);
        // Same positions flipped: feasible.
        let mut dep = ChainDeployment::empty(2, 3);
        dep.insert(0, 0);
        dep.insert(1, 2);
        assert!(flow_chain_cost(&f, &chain, &dep).is_some());
    }

    #[test]
    fn collocated_types_complete_back_to_back() {
        let chain = ChainSpec::from_ratios(&[("a", 0.5), ("b", 0.5)]);
        let f = flow(4, &[0, 1, 2]);
        let mut dep = ChainDeployment::empty(2, 3);
        dep.insert(0, 0);
        dep.insert(1, 0);
        // Both complete at the source: both edges carry 4·0.25 = 1.
        assert_eq!(flow_chain_cost(&f, &chain, &dep), Some(2.0));
    }

    #[test]
    fn expanders_are_deferred() {
        // Decryption doubles traffic: with instances at both ends the
        // DP must complete it at the last moment.
        let chain = ChainSpec::from_ratios(&[("decrypt", 2.0)]);
        let f = flow(3, &[0, 1, 2, 3]);
        let mut dep = ChainDeployment::empty(1, 4);
        dep.insert(0, 0);
        dep.insert(0, 3);
        // At the destination: all 3 edges at rate 3 ⇒ 9 (vs 18 early).
        assert_eq!(flow_chain_cost(&f, &chain, &dep), Some(9.0));
    }

    #[test]
    fn shrink_then_expand_orders_optimally() {
        // Chain: optimizer (0.5) then decryption (2.0); instances of
        // both at every vertex of a 2-edge path. Optimal: shrink at
        // the source, expand at the destination ⇒ edges at 0.5·r.
        let chain = ChainSpec::from_ratios(&[("opt", 0.5), ("dec", 2.0)]);
        let f = flow(2, &[0, 1, 2]);
        let mut dep = ChainDeployment::empty(2, 3);
        for v in 0..3 {
            dep.insert(0, v);
            dep.insert(1, v);
        }
        assert_eq!(flow_chain_cost(&f, &chain, &dep), Some(2.0));
    }

    #[test]
    fn dp_matches_brute_force_on_dense_cases() {
        let chain = ChainSpec::from_ratios(&[("a", 0.5), ("b", 2.0), ("c", 0.25)]);
        // All subsets of instances over a 4-edge path, 3 types: try a
        // deterministic sample of deployments.
        let f = flow(3, &[0, 1, 2, 3, 4]);
        for mask in 0u32..(1 << 15) {
            if mask.count_ones() < 3 || mask % 7 != 0 {
                continue; // sample every 7th deployment with >= 3 instances
            }
            let mut dep = ChainDeployment::empty(3, 5);
            for t in 0..3 {
                for v in 0..5u32 {
                    if mask & (1 << (t * 5 + v as usize)) != 0 {
                        dep.insert(t, v);
                    }
                }
            }
            let dp = flow_chain_cost(&f, &chain, &dep);
            let bf = brute(&f, &chain, &dep);
            match (dp, bf) {
                (Some(a), Some(b)) => assert!((a - b).abs() < 1e-9, "mask {mask}: {a} vs {b}"),
                (None, None) => {}
                other => panic!("mask {mask}: {other:?}"),
            }
        }
    }

    #[test]
    fn workload_evaluation_counts_infeasible_flows() {
        let chain = ChainSpec::from_ratios(&[("a", 0.5)]);
        let flows = vec![Flow::new(0, 2, vec![0, 1]), Flow::new(1, 3, vec![2, 1])];
        let mut dep = ChainDeployment::empty(1, 3);
        dep.insert(0, 0); // covers flow 0 only
        let eval = evaluate_chain(&flows, &chain, &dep);
        assert_eq!(eval.infeasible_flows, 1);
        assert!(!eval.feasible());
        // flow 0 halved on its one edge (1.0) + flow 1 unprocessed (3).
        assert_eq!(eval.bandwidth, 1.0 + 3.0);
    }
}
