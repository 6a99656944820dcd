//! Optimal dynamic program for tree networks (§5.1, Eqs. 7–10).
//!
//! State: `P(v, q, b)` = minimum total occupied bandwidth on the edges
//! *inside* the subtree `T_v` when at most `q` middleboxes are placed
//! in `T_v` and flows with total rate exactly `b` are processed at or
//! below `v`. `F(v, q) = P(v, q, tot(v))` is the fully-served value
//! (Eq. 7's left-hand side). Children are folded in one at a time with
//! a `(q, b)` knapsack, which generalizes the paper's binary-tree
//! formulation to arbitrary branching; sources may sit at any non-root
//! vertex (the paper's leaf-sources setting is the special case where
//! internal local rates are zero).
//!
//! The child-edge cost is the paper's: a child subtree `c` with `b_c`
//! processed rate sends `λ·b_c + (tot(c) − b_c)` over the uplink
//! `c → v`. Placing a box on `v` lifts the processed rate to `tot(v)`
//! without changing the inside bandwidth (Fig. 3(b)).
//!
//! The rate dimension makes the DP pseudo-polynomial in `Σ r_f`
//! exactly as Thm. 5 states; rates are integral by construction
//! (`tdmd-traffic`). The DP sizes itself before it allocates: past
//! [`DP_WORK_CAP`] table cells plus fold pairs it returns
//! [`TdmdError::SearchSpaceTooLarge`] instead.

use crate::error::TdmdError;
use crate::instance::Instance;
use crate::num::{approx_f64, big_ix, id16, id32, ix, usize_f64, wide};
use crate::plan::Deployment;
use tdmd_graph::tree::RootedTree;
use tdmd_graph::NodeId;

const INF: f64 = f64::INFINITY;

/// Most work [`dp_optimal`], [`dp_optimal_weighted`] and [`dp_tables`]
/// take on: table cells `(k+1)·(tot(v)+1)` over the vertices plus the
/// `(q, b)` state pairs their child folds evaluate. About 136 times
/// the largest DP in this repository's tests, examples, figures and
/// benches (the `wan_optimizer` example, 63,260,073); it also keeps
/// every rate total inside the `u32` backpointers.
pub const DP_WORK_CAP: u128 = 1 << 33;

/// Result of the DP: an optimal deployment and its total bandwidth.
#[derive(Debug, Clone, PartialEq)]
pub struct DpSolution {
    /// Optimal deployment plan (size ≤ k).
    pub deployment: Deployment,
    /// Optimal total bandwidth consumption.
    pub bandwidth: f64,
}

/// The full DP tables, exposed for the Fig. 5–7 walk-through example.
#[derive(Debug, Clone)]
pub struct DpTables {
    /// Root vertex (the flows' common destination).
    pub root: NodeId,
    /// Per-vertex total subtree rate `tot(v)`.
    pub tot: Vec<u64>,
    /// `p[v][q][b]` = `P(v, q, b)` (`∞` when unreachable).
    pub p: Vec<Vec<Vec<f64>>>,
    /// `f[v][q]` = `F(v, q)` = `P(v, q, tot(v))`.
    pub f: Vec<Vec<f64>>,
}

/// Per-vertex DP storage, kept for plan recovery.
struct VertexDp {
    /// Flattened `P` table: index `q * (tot + 1) + b`.
    p: Vec<f64>,
    tot: u64,
    /// For `b = tot`: `Some(b_pre)` when the optimum at budget `q`
    /// places a box on `v` on top of a child state with processed rate
    /// `b_pre`.
    box_choice: Vec<Option<u64>>,
    /// Per-child backpointers for the knapsack folds: entry
    /// `q * (cap_after + 1) + b` = `(q_child, b_child)`.
    child_backs: Vec<Vec<(u16, u32)>>,
    /// Accumulated `b` capacity after folding each child.
    child_caps: Vec<u64>,
}

/// Validates the tree setting and returns the tree rooted at the
/// flows' common destination.
pub(crate) fn validate_tree_instance(instance: &Instance) -> Result<RootedTree, TdmdError> {
    let flows = instance.flows();
    let root = match flows.first() {
        Some(f) => f.dst(),
        None => {
            return Err(TdmdError::NotATreeInstance(
                "a tree instance needs at least one flow to fix the root".to_string(),
            ))
        }
    };
    if let Some(f) = flows.iter().find(|f| f.dst() != root) {
        return Err(TdmdError::NotATreeInstance(format!(
            "flow {} ends at {} but the common destination is {root}",
            f.id,
            f.dst()
        )));
    }
    RootedTree::from_digraph(instance.graph(), root)
        .map_err(|e| TdmdError::NotATreeInstance(e.to_string()))
}

/// Validates the tree setting and sizes the DP at budget `kmax`
/// before any table is allocated; returns the rooted tree plus the
/// per-vertex locally sourced rate.
///
/// # Errors
/// [`TdmdError::NotATreeInstance`] as [`validate_tree_instance`], and
/// [`TdmdError::SearchSpaceTooLarge`] when [`table_work`] exceeds
/// [`DP_WORK_CAP`].
fn sized_tree_instance(
    instance: &Instance,
    kmax: usize,
) -> Result<(RootedTree, Vec<u64>), TdmdError> {
    let tree = validate_tree_instance(instance)?;
    let work = table_work(instance, &tree, kmax);
    if work > DP_WORK_CAP {
        return Err(TdmdError::SearchSpaceTooLarge {
            subsets: work,
            cap: DP_WORK_CAP,
        });
    }
    // Every subtree total is at most the work, so these sums fit.
    let mut local = vec![0u64; instance.node_count()];
    for f in instance.flows() {
        local[ix(f.src())] += f.rate;
    }
    Ok((tree, local))
}

/// The DP's size at budget `kmax`: the cells `(kmax+1)·(tot(v)+1)` of
/// every vertex table, plus `(kmax+1)(kmax+2)/2 · (tot(c)+1)·(cap+1)`
/// pairs for each child `c` folded into an accumulator of capacity
/// `cap`. Subtree totals are summed in `u128`, where no `u64` rate
/// wraps them; the work saturates at `u128::MAX`.
fn table_work(instance: &Instance, tree: &RootedTree, kmax: usize) -> u128 {
    let mut tot = vec![0u128; instance.node_count()];
    for f in instance.flows() {
        tot[ix(f.src())] += u128::from(f.rate);
    }
    let budgets = u128::from(wide(kmax)) + 1;
    let budget_pairs = budgets * (budgets + 1) / 2;
    let mut work = 0u128;
    for &v in &tree.postorder() {
        let mut cap = 0u128;
        for &c in tree.children(v) {
            let child = tot[ix(c)];
            let pairs = budget_pairs
                .saturating_mul(child + 1)
                .saturating_mul(cap + 1);
            work = work.saturating_add(pairs);
            cap += child;
        }
        tot[ix(v)] += cap;
        work = work.saturating_add(budgets.saturating_mul(tot[ix(v)] + 1));
    }
    work
}

/// Runs the DP and recovers an optimal plan for the instance's budget.
///
/// # Errors
/// * [`TdmdError::NotATreeInstance`] if the topology is not a tree or
///   flows disagree on the destination.
/// * [`TdmdError::Infeasible`] if `k = 0` while flows exist.
/// * [`TdmdError::SearchSpaceTooLarge`] if the tables would exceed
///   [`DP_WORK_CAP`] (the rates are too large to tabulate).
pub fn dp_optimal(instance: &Instance) -> Result<DpSolution, TdmdError> {
    if instance.flows().is_empty() {
        return Ok(DpSolution {
            deployment: Deployment::empty(instance.node_count()),
            bandwidth: 0.0,
        });
    }
    if instance.k() == 0 {
        return Err(TdmdError::Infeasible { budget: 0 });
    }
    let kmax = instance.k().min(instance.node_count());
    let (tree, local) = sized_tree_instance(instance, kmax)?;
    let tables = run_dp(instance, &tree, &local, kmax);
    let root = ix(tree.root());
    let tot_root = tables[root].tot;
    let best = tables[root].p[kmax * (big_ix(tot_root) + 1) + big_ix(tot_root)];
    debug_assert!(
        best.is_finite(),
        "a box on the root always serves everything"
    );
    let mut chosen = Vec::new();
    recover(&tables, &tree, tree.root(), kmax, tot_root, &mut chosen);
    let deployment = Deployment::from_vertices(instance.node_count(), chosen);
    Ok(DpSolution {
        bandwidth: best,
        deployment,
    })
}

/// Computes the DP tables for the walk-through / inspection API.
///
/// # Errors
/// Same conditions as [`dp_optimal`], plus
/// [`TdmdError::EmptyWorkload`] for an empty flow set (there is
/// nothing to tabulate — the topology may still be a valid tree, so
/// this is *not* [`TdmdError::NotATreeInstance`]).
pub fn dp_tables(instance: &Instance) -> Result<DpTables, TdmdError> {
    if instance.flows().is_empty() {
        return Err(TdmdError::EmptyWorkload {
            operation: "tabulate",
        });
    }
    let kmax = instance.k().min(instance.node_count()).max(1);
    let (tree, local) = sized_tree_instance(instance, kmax)?;
    let tables = run_dp(instance, &tree, &local, kmax);
    let n = instance.node_count();
    let mut p = Vec::with_capacity(n);
    let mut f = Vec::with_capacity(n);
    let mut tot = Vec::with_capacity(n);
    #[allow(clippy::needless_range_loop)] // v is a vertex id, not just an index
    for v in 0..n {
        let t = &tables[v];
        let width = big_ix(t.tot) + 1;
        let mut pv = Vec::with_capacity(kmax + 1);
        let mut fv = Vec::with_capacity(kmax + 1);
        for q in 0..=kmax {
            pv.push(t.p[q * width..(q + 1) * width].to_vec());
            fv.push(t.p[q * width + big_ix(t.tot)]);
        }
        p.push(pv);
        f.push(fv);
        tot.push(t.tot);
    }
    Ok(DpTables {
        root: tree.root(),
        tot,
        p,
        f,
    })
}

/// Bottom-up table computation over the postorder (unit edge costs).
fn run_dp(instance: &Instance, tree: &RootedTree, local: &[u64], kmax: usize) -> Vec<VertexDp> {
    run_dp_weighted(instance, tree, local, kmax, &|_, _| 1.0)
}

/// Bottom-up table computation with an arbitrary per-edge cost on the
/// uplinks (`edge_w(child, parent)`); the hop-counting DP is the
/// `w ≡ 1` special case. The recurrences are unchanged except that the
/// uplink term is scaled by the edge's cost, so optimality carries
/// over verbatim.
fn run_dp_weighted(
    instance: &Instance,
    tree: &RootedTree,
    local: &[u64],
    kmax: usize,
    edge_w: &dyn Fn(NodeId, NodeId) -> f64,
) -> Vec<VertexDp> {
    let lambda = instance.lambda();
    let n = instance.node_count();
    let mut tables: Vec<Option<VertexDp>> = (0..n).map(|_| None).collect();
    for &v in &tree.postorder() {
        let children = tree.children(v);
        // Fold children into the accumulator.
        let mut cap = 0u64; // current b capacity of the accumulator
        let mut acc = vec![0.0f64; kmax + 1]; // A[q][0] = 0
        let mut child_backs = Vec::with_capacity(children.len());
        let mut child_caps = Vec::with_capacity(children.len());
        for &c in children {
            let ct = tables[ix(c)].as_ref().expect("postorder: child done");
            let w_up = edge_w(c, v);
            let cw = big_ix(ct.tot) + 1;
            let new_cap = cap + ct.tot;
            let new_w = big_ix(new_cap) + 1;
            let mut next = vec![INF; (kmax + 1) * new_w];
            let mut back = vec![(0u16, 0u32); (kmax + 1) * new_w];
            let old_w = big_ix(cap) + 1;
            for q in 0..=kmax {
                for qc in 0..=q {
                    let qa = q - qc;
                    for bc in 0..cw {
                        let pc = ct.p[qc * cw + bc];
                        if pc == INF {
                            continue;
                        }
                        // Uplink c -> v: processed rate bc rides at λ,
                        // the rest of tot(c) at full rate, priced by
                        // the uplink's edge cost.
                        let g =
                            pc + w_up * (lambda * usize_f64(bc) + approx_f64(ct.tot - wide(bc)));
                        for ba in 0..old_w {
                            let a = acc[qa * old_w + ba];
                            if a == INF {
                                continue;
                            }
                            let b = ba + bc;
                            let slot = q * new_w + b;
                            let val = a + g;
                            if val < next[slot] {
                                next[slot] = val;
                                back[slot] = (id16(qc), id32(bc));
                            }
                        }
                    }
                }
            }
            acc = next;
            cap = new_cap;
            child_backs.push(back);
            child_caps.push(new_cap);
        }
        // Lift to the vertex table: b range extends to tot(v) =
        // cap + local(v); a box on v reaches exactly b = tot(v).
        let tot = cap + local[ix(v)];
        let width = big_ix(tot) + 1;
        let mut p = vec![INF; (kmax + 1) * width];
        let old_w = big_ix(cap) + 1;
        for q in 0..=kmax {
            for b in 0..old_w {
                p[q * width + b] = acc[q * old_w + b];
            }
        }
        let mut box_choice = vec![None; kmax + 1];
        for q in 1..=kmax {
            // Best child state regardless of processed amount; the box
            // on v finishes the job.
            let mut best = INF;
            let mut best_b = 0u64;
            for b in 0..old_w {
                let val = acc[(q - 1) * old_w + b];
                if val < best {
                    best = val;
                    best_b = wide(b);
                }
            }
            let slot = q * width + big_ix(tot);
            if best < p[slot] {
                p[slot] = best;
                box_choice[q] = Some(best_b);
            }
        }
        tables[ix(v)] = Some(VertexDp {
            p,
            tot,
            box_choice,
            child_backs,
            child_caps,
        });
    }
    tables
        .into_iter()
        .map(|t| t.expect("all vertices computed"))
        .collect()
}

/// Optimal tree DP under the weighted-edge objective
/// ([`WeightedEdges`](crate::cost::WeightedEdges)): identical
/// recurrences with uplink terms scaled by the topology's edge
/// weights. Certified by tests against weighted exhaustive search;
/// reduces to [`dp_optimal`] on unit weights.
///
/// # Errors
/// Same conditions as [`dp_optimal`].
pub fn dp_optimal_weighted(instance: &Instance) -> Result<DpSolution, TdmdError> {
    if instance.flows().is_empty() {
        return Ok(DpSolution {
            deployment: Deployment::empty(instance.node_count()),
            bandwidth: 0.0,
        });
    }
    if instance.k() == 0 {
        return Err(TdmdError::Infeasible { budget: 0 });
    }
    let kmax = instance.k().min(instance.node_count());
    let (tree, local) = sized_tree_instance(instance, kmax)?;
    let weights = crate::cost::EdgeWeights::new(instance.graph());
    let lookup = |u: NodeId, v: NodeId| -> f64 { weights.get(u, v) };
    let tables = run_dp_weighted(instance, &tree, &local, kmax, &lookup);
    let root = ix(tree.root());
    let tot_root = tables[root].tot;
    let best = tables[root].p[kmax * (big_ix(tot_root) + 1) + big_ix(tot_root)];
    debug_assert!(
        best.is_finite(),
        "a box on the root always serves everything"
    );
    let mut chosen = Vec::new();
    recover(&tables, &tree, tree.root(), kmax, tot_root, &mut chosen);
    let deployment = Deployment::from_vertices(instance.node_count(), chosen);
    Ok(DpSolution {
        bandwidth: best,
        deployment,
    })
}

/// Walks the backpointers to emit an optimal vertex set for state
/// `(v, q, b)`.
fn recover(
    tables: &[VertexDp],
    tree: &RootedTree,
    v: NodeId,
    q: usize,
    b: u64,
    out: &mut Vec<NodeId>,
) {
    let t = &tables[ix(v)];
    let width = big_ix(t.tot) + 1;
    debug_assert!(
        t.p[q * width + big_ix(b)].is_finite(),
        "recovering unreachable state"
    );
    let (mut q_cur, mut b_cur) = (q, b);
    if b == t.tot {
        if let Some(b_pre) = t.box_choice[q] {
            // Check the box option actually realizes the optimum (the
            // no-box path may tie; box_choice is only set when it is
            // strictly better or equal-at-assignment).
            out.push(v);
            q_cur = q - 1;
            b_cur = b_pre;
        }
    }
    let children = tree.children(v);
    for (i, &c) in children.iter().enumerate().rev() {
        let cap = big_ix(t.child_caps[i]);
        let back = &t.child_backs[i];
        let (qc, bc) = back[q_cur * (cap + 1) + big_ix(b_cur)];
        recover(tables, tree, c, usize::from(qc), u64::from(bc), out);
        q_cur -= usize::from(qc);
        b_cur -= u64::from(bc);
    }
    debug_assert_eq!(b_cur, 0, "all processed rate must be attributed");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility::is_feasible;
    use crate::instance::Instance;
    use crate::objective::bandwidth_of;
    use crate::paper::{fig5_graph, fig5_instance};
    use tdmd_traffic::Flow;

    #[test]
    fn fig5_optimal_values_for_all_k() {
        // The paper's F(v1, k): 24, 16.5, 13.5, 12 for k = 1..4.
        for (k, expect) in [(1, 24.0), (2, 16.5), (3, 13.5), (4, 12.0)] {
            let inst = fig5_instance(k);
            let sol = dp_optimal(&inst).unwrap();
            assert_eq!(sol.bandwidth, expect, "k={k}");
            // The recovered plan must actually achieve the value.
            assert!(is_feasible(&inst, &sol.deployment));
            assert_eq!(bandwidth_of(&inst, &sol.deployment), expect, "k={k}");
            assert!(sol.deployment.len() <= k);
        }
    }

    #[test]
    fn fig5_k1_plan_is_the_root() {
        let sol = dp_optimal(&fig5_instance(1)).unwrap();
        assert_eq!(sol.deployment.vertices(), &[0]);
    }

    #[test]
    fn fig5_k4_plan_is_all_sources() {
        let sol = dp_optimal(&fig5_instance(4)).unwrap();
        assert_eq!(sol.deployment.vertices(), &[3, 4, 6, 7]);
    }

    #[test]
    fn extra_budget_beyond_sources_changes_nothing() {
        let sol = dp_optimal(&fig5_instance(8)).unwrap();
        assert_eq!(sol.bandwidth, 12.0);
        assert!(sol.deployment.len() <= 4);
    }

    #[test]
    fn k0_with_flows_is_infeasible() {
        assert_eq!(
            dp_optimal(&fig5_instance(0)).unwrap_err(),
            TdmdError::Infeasible { budget: 0 }
        );
    }

    #[test]
    fn empty_flow_set_is_trivial() {
        let g = fig5_graph();
        let inst = Instance::new(g, vec![], 0.5, 2).unwrap();
        let sol = dp_optimal(&inst).unwrap();
        assert_eq!(sol.bandwidth, 0.0);
        assert!(sol.deployment.is_empty());
    }

    #[test]
    fn empty_flow_set_tables_report_empty_workload_not_tree_shape() {
        // fig5 *is* a tree, so the old NotATreeInstance classification
        // was a lie; the error must name the actual problem.
        let g = fig5_graph();
        let inst = Instance::new(g, vec![], 0.5, 2).unwrap();
        assert_eq!(
            dp_tables(&inst).unwrap_err(),
            TdmdError::EmptyWorkload {
                operation: "tabulate"
            }
        );
    }

    #[test]
    fn mismatched_destinations_rejected() {
        let g = fig5_graph();
        let flows = vec![
            Flow::new(0, 1, vec![3, 1, 0]),
            Flow::new(1, 1, vec![6, 5, 2]),
        ];
        let inst = Instance::new(g, flows, 0.5, 2).unwrap();
        assert!(matches!(
            dp_optimal(&inst).unwrap_err(),
            TdmdError::NotATreeInstance(_)
        ));
    }

    #[test]
    fn non_tree_topology_rejected() {
        let inst = crate::paper::fig1_instance(2); // Fig. 1 has a cycle
        assert!(matches!(
            dp_optimal(&inst).unwrap_err(),
            TdmdError::NotATreeInstance(_)
        ));
    }

    #[test]
    fn internal_source_is_supported() {
        // A flow sourced at the internal vertex v3 (id 2).
        let g = fig5_graph();
        let flows = vec![
            Flow::new(0, 3, vec![2, 0]),
            Flow::new(1, 5, vec![6, 5, 2, 0]),
        ];
        let inst = Instance::new(g, flows, 0.5, 2).unwrap();
        let sol = dp_optimal(&inst).unwrap();
        assert!(is_feasible(&inst, &sol.deployment));
        // Optimal: boxes at v7 (covers f1 at its source) and v3:
        // f1 (rate 5): 2.5*3 = 7.5; f0 (rate 3): 1.5. Total 9.
        assert_eq!(sol.bandwidth, 9.0);
        assert_eq!(bandwidth_of(&inst, &sol.deployment), 9.0);
    }

    #[test]
    fn dp_tables_match_paper_fig6() {
        let inst = fig5_instance(4);
        let t = dp_tables(&inst).unwrap();
        assert_eq!(t.root, 0);
        assert_eq!(t.tot[0], 9);
        // F(v1, k) row of Fig. 6 (0-based v = 0).
        assert_eq!(t.f[0][1], 24.0);
        assert_eq!(t.f[0][2], 16.5);
        assert_eq!(t.f[0][3], 13.5);
        assert_eq!(t.f[0][4], 12.0);
        // F(v2, ·) = 3, 1.5 (v2 = id 1, tot 3).
        assert_eq!(t.tot[1], 3);
        assert_eq!(t.f[1][1], 3.0);
        assert_eq!(t.f[1][2], 1.5);
        // F(v6, ·) = 6, 3 (v6 = id 5, tot 6).
        assert_eq!(t.f[5][1], 6.0);
        assert_eq!(t.f[5][2], 3.0);
        // Leaves: F = 0 with any budget ≥ 1.
        for leaf in [3usize, 4, 6, 7] {
            assert_eq!(t.f[leaf][1], 0.0);
        }
        // Unserved leaves are infinite at q = 0.
        assert!(t.f[3][0].is_infinite());
    }

    #[test]
    fn dp_tables_partial_states_match_fig7() {
        let inst = fig5_instance(4);
        let t = dp_tables(&inst).unwrap();
        // P(v6, k, b) (0-based id 5, children v7 rate 5 / v8 rate 1):
        // k=0, b=0 → 6 (both uplinks unprocessed).
        assert_eq!(t.p[5][0][0], 6.0);
        // k=1, b=1 → 5.5 (box at v8), b=5 → 3.5 (box at v7).
        assert_eq!(t.p[5][1][1], 5.5);
        assert_eq!(t.p[5][1][5], 3.5);
        // k=2, b=6 → 3 (boxes at both leaves).
        assert_eq!(t.p[5][2][6], 3.0);
        // P(v3, ·) (id 2, single child v6): k=0,b=0 → 12; k=1,b=5 → 7;
        // k=1,b=1 → 11; k=2,b=6 → 6.
        assert_eq!(t.p[2][0][0], 12.0);
        assert_eq!(t.p[2][1][5], 7.0);
        assert_eq!(t.p[2][1][1], 11.0);
        assert_eq!(t.p[2][2][6], 6.0);
    }

    #[test]
    fn rates_too_large_to_tabulate_are_refused() {
        // A 2^40 rate asks for about 2^43 table cells, past any RAM;
        // two 2^63 rates at one source wrap a u64 subtree total.
        let big = vec![
            Flow::new(0, 1 << 40, vec![3, 1, 0]),
            Flow::new(1, 1, vec![6, 5, 2, 0]),
        ];
        let wrapping = vec![
            Flow::new(0, 1 << 63, vec![3, 1, 0]),
            Flow::new(1, 1 << 63, vec![3, 1, 0]),
        ];
        for flows in [big, wrapping] {
            let inst = Instance::new(fig5_graph(), flows, 0.5, 2).unwrap();
            let errs = [
                dp_optimal(&inst).unwrap_err(),
                dp_optimal_weighted(&inst).unwrap_err(),
                dp_tables(&inst).unwrap_err(),
            ];
            for err in errs {
                assert!(
                    matches!(err, TdmdError::SearchSpaceTooLarge { subsets, cap }
                        if cap == DP_WORK_CAP && subsets > cap),
                    "{err}"
                );
            }
        }
    }

    #[test]
    fn lambda_zero_spam_filter_dp() {
        let inst = fig5_instance(4).with_lambda(0.0);
        let sol = dp_optimal(&inst).unwrap();
        assert_eq!(
            sol.bandwidth, 0.0,
            "filters at every source kill all traffic"
        );
    }

    #[test]
    fn lambda_one_any_feasible_plan_is_optimal() {
        let inst = fig5_instance(2).with_lambda(1.0);
        let sol = dp_optimal(&inst).unwrap();
        assert_eq!(sol.bandwidth, inst.unprocessed_bandwidth());
        assert!(is_feasible(&inst, &sol.deployment));
    }
}

#[cfg(test)]
mod weighted_tests {
    use super::*;
    use crate::cost::{FlowIndex, WeightedEdges};
    use crate::instance::Instance;
    use tdmd_graph::GraphBuilder;
    use tdmd_traffic::Flow;

    /// Weighted star: leaves 1..4 with uplink costs 1, 2, 5, 10 and a
    /// flow of rate 1 at each leaf.
    fn weighted_star(k: usize) -> Instance {
        let mut b = GraphBuilder::new(5);
        for (leaf, w) in [(1u32, 1u64), (2, 2), (3, 5), (4, 10)] {
            b.add_bidirectional_weighted(0, leaf, w);
        }
        let g = b.build();
        let flows = (1..=4u32)
            .map(|v| Flow::new(v - 1, 1, vec![v, 0]))
            .collect();
        Instance::new(g, flows, 0.5, k).unwrap()
    }

    #[test]
    fn weighted_dp_reduces_to_unweighted_on_unit_weights() {
        for k in 1..=4 {
            let inst = crate::paper::fig5_instance(k);
            let w = dp_optimal_weighted(&inst).unwrap();
            let u = dp_optimal(&inst).unwrap();
            assert_eq!(w.bandwidth, u.bandwidth, "k={k}");
        }
    }

    #[test]
    fn weighted_dp_prioritizes_expensive_uplinks() {
        // Budget for two leaf boxes + the root is forced anyway? With
        // k = 3 the optimum serves the 10- and 5-cost leaves at their
        // sources and parks the third box on the root for the rest.
        let inst = weighted_star(3);
        let sol = dp_optimal_weighted(&inst).unwrap();
        assert!(sol.deployment.contains(4), "leaf with cost-10 uplink first");
        assert!(sol.deployment.contains(3), "leaf with cost-5 uplink second");
        // Bandwidth: halved on leaves 3, 4; full on 1, 2 unless the
        // root... root box gives l = 0. b = 0.5*10 + 0.5*5 + 1 + 2 = 10.5.
        assert_eq!(sol.bandwidth, 10.5);
    }

    #[test]
    fn weighted_dp_matches_weighted_exhaustive() {
        // Brute force over all deployments of size <= k using the
        // weighted objective.
        for k in 1..=3 {
            let inst = weighted_star(k);
            let index = FlowIndex::build(&inst, &WeightedEdges::new(inst.graph()));
            let n = inst.node_count();
            let mut best = f64::INFINITY;
            for mask in 0u32..(1 << n) {
                if (mask.count_ones() as usize) > k {
                    continue;
                }
                let d = crate::plan::Deployment::from_vertices(
                    n,
                    (0..n as u32).filter(|&v| mask & (1 << v) != 0),
                );
                if !crate::feasibility::is_feasible(&inst, &d) {
                    continue;
                }
                best = best.min(index.bandwidth_of(&inst, &d));
            }
            let sol = dp_optimal_weighted(&inst).unwrap();
            assert_eq!(sol.bandwidth, best, "k={k}");
            assert_eq!(index.bandwidth_of(&inst, &sol.deployment), best, "k={k}");
        }
    }

    #[test]
    fn weighted_dp_monotone_in_k() {
        let mut prev = f64::INFINITY;
        for k in 1..=5 {
            let b = dp_optimal_weighted(&weighted_star(k)).unwrap().bandwidth;
            assert!(b <= prev + 1e-12, "k={k}");
            prev = b;
        }
    }
}
