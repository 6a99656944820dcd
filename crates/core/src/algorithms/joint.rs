//! Joint routing + middlebox placement over candidate path sets.
//!
//! The paper places middleboxes on *fixed* flow paths; Charikar et
//! al.'s multi-commodity flow with in-network processing (PAPERS.md)
//! shows that choosing routes and processing sites jointly is
//! strictly better. This module implements the alternation scheme on
//! top of the candidate sets in [`Instance::path_sets`] (an instance
//! without them is solved as one candidate per flow, its path):
//!
//! 1. **Placement round** — run budgeted GTP (Alg. 1) on the current
//!    active-path view.
//! 2. **Re-selection round** — given the deployment, every flow
//!    re-prices its candidates (`r_f · (|p| − (1 − λ) · best l)`,
//!    read off the two-level membership CSR) and activates the
//!    cheapest; ties keep the current route, then prefer covered
//!    candidates, then the lower index. Switches are applied in one
//!    [`Instance::set_active_paths`] batch.
//!
//! The loop runs twice: once warm-started from the instance's own
//! active paths (so round 1 *is* the legacy fixed-path GTP, and the
//! singleton case degenerates to it exactly), and once from an
//! **optimistic placement** that scores each vertex by the best gain
//! over *any* candidate — the escape hatch for the chicken-and-egg
//! local optimum where no single flow benefits from moving until the
//! box moves, and vice versa. The incumbent across both chains only
//! ever improves on the fixed-path objective.
//!
//! The reported bound is an **LP-relaxation certificate** computed on
//! the [`tdmd_graph::flownet`] min-cost-flow substrate: for a
//! Lagrangian price `μ ≥ 0` on the budget, the relaxed decrement
//!
//! ```text
//! D(μ) = μ·k + max Σ_{f,v} x_{f,v} · (g*_{f,v} − μ / |F_v|)
//! ```
//!
//! (per-flow ≤ 1, per-vertex ≤ |F_v| — a transportation problem) is
//! an upper bound on any true solution's decrement, because a real
//! deployment `P` serves at most `|F_v|` flows at each `v ∈ P` and
//! `Σ_{v∈P} served_v / |F_v| ≤ |P| ≤ k`. Minimizing over a `μ` grid
//! and subtracting from the best-candidate base cost gives a valid
//! lower bound on the joint optimum, reported next to the solved
//! objective as `lp_bound ≤ optimum ≤ objective`.

use crate::algorithms::gtp::gtp_budgeted;
use crate::error::TdmdError;
use crate::instance::{Instance, PathSets};
use crate::num::{approx_f64, id32, ix, usize_f64, wide};
use crate::objective::bandwidth_of;
use crate::plan::Deployment;
use tdmd_graph::flownet::FlowNetwork;
use tdmd_graph::NodeId;

/// Float tolerance for objective comparisons.
const EPS: f64 = 1e-9;

/// Fixed-point scale (`2^20`) of the flownet gain costs (gains are
/// `f64`, arc costs are `i64`; ceiling the scaled gain keeps the
/// bound valid).
const LP_SCALE: f64 = 1_048_576.0;

/// Maximum GTP placement rounds per warm-start chain.
const MAX_ROUNDS: usize = 8;

/// Grid points for the Lagrangian price `μ` of the LP bound (besides
/// `μ = 0`).
const LP_MU_GRID: usize = 16;

/// Result of a joint solve.
#[derive(Debug, Clone, PartialEq)]
pub struct JointSolution {
    /// The incumbent deployment.
    pub deployment: Deployment,
    /// Active candidate index per flow under the incumbent routing.
    pub active: Vec<u32>,
    /// Total bandwidth of the incumbent (Eq. 1 on its routing).
    pub objective: f64,
    /// Bandwidth of plain GTP on the instance's original active paths
    /// — the fixed-path baseline (`objective ≤ fixed_objective`).
    pub fixed_objective: f64,
    /// LP-relaxation lower bound on the joint optimum.
    pub lp_bound: f64,
    /// GTP placement rounds run (across both warm-start chains).
    pub rounds: usize,
    /// Active-path switches applied (across both chains).
    pub path_switches: u64,
}

/// Joint routing + placement: the alternation of the module docs,
/// from both warm starts, with the LP certificate
/// ([`lp_lower_bound`]). The solution counts its own rounds and path
/// switches.
///
/// # Errors
/// [`TdmdError::Infeasible`] if no routing reachable by the
/// alternation admits a feasible placement within the budget.
pub fn joint_solve(instance: &Instance) -> Result<JointSolution, TdmdError> {
    let joint = instance.with_candidates();
    let instance: &Instance = &joint;
    let lp_bound = lp_lower_bound(instance);

    let mut rounds = 0usize;
    let mut switches = 0u64;
    let mut best: Incumbent = None;
    let mut first_err: Option<TdmdError> = None;

    // Seed the incumbent with the fixed-path baseline: plain GTP on
    // the instance's own active paths. Chains may only *strictly*
    // improve on it, so `objective ≤ fixed_objective` holds by
    // construction and the singleton case returns this deployment
    // bit-for-bit.
    let mut fixed_objective = f64::INFINITY;
    match gtp_budgeted(instance, instance.k()) {
        Ok(dep) => {
            let obj = bandwidth_of(instance, &dep);
            fixed_objective = obj;
            best = Some((dep, sets(instance).actives().to_vec(), obj));
        }
        Err(e) => first_err = Some(e),
    }

    // Chain A: warm start from the instance's own active paths (its
    // first placement round re-derives the baseline; later rounds
    // explore the routing neighborhood around it).
    let mut work = instance.clone();
    if let Some(e) = run_chain(&mut work, &mut rounds, &mut switches, &mut best) {
        first_err.get_or_insert(e);
    }

    // Chain B: optimistic warm start — place against the best gain
    // over *any* candidate, let flows re-route toward it, then refine.
    let mut work = instance.clone();
    let opt = optimistic_deployment(&work);
    let pre = reselect(&work, &opt);
    if !pre.is_empty() {
        switches += wide(work.set_active_paths(&pre));
    }
    if let Some(e) = run_chain(&mut work, &mut rounds, &mut switches, &mut best) {
        first_err.get_or_insert(e);
    }

    let Some((deployment, active, objective)) = best else {
        return Err(first_err.unwrap_or(TdmdError::Infeasible {
            budget: instance.k(),
        }));
    };
    if !fixed_objective.is_finite() {
        fixed_objective = objective;
    }
    Ok(JointSolution {
        deployment,
        active,
        objective,
        fixed_objective,
        lp_bound,
        rounds,
        path_switches: switches,
    })
}

/// The best (deployment, active indices, objective) seen so far.
type Incumbent = Option<(Deployment, Vec<u32>, f64)>;

/// One warm-start chain: alternate GTP and re-selection until no flow
/// switches, the round budget is exhausted, or placement fails.
/// Updates the shared incumbent; returns the placement error (if any)
/// so the caller can surface it when *no* chain produced a solution.
fn run_chain(
    inst: &mut Instance,
    rounds: &mut usize,
    switches: &mut u64,
    best: &mut Incumbent,
) -> Option<TdmdError> {
    for round in 0..MAX_ROUNDS {
        *rounds += 1;
        let dep = match gtp_budgeted(inst, inst.k()) {
            Ok(d) => d,
            Err(e) => return Some(e),
        };
        let obj = bandwidth_of(inst, &dep);
        // Strict improvement only: on ties the earlier incumbent wins,
        // which pins the singleton case to the legacy GTP deployment.
        if best.as_ref().is_none_or(|b| obj < b.2 - EPS) {
            *best = Some((dep.clone(), sets(inst).actives().to_vec(), obj));
        }
        if round + 1 == MAX_ROUNDS {
            break;
        }
        let sel = reselect(inst, &dep);
        if sel.is_empty() {
            break;
        }
        let moved = wide(inst.set_active_paths(&sel));
        if moved == 0 {
            break;
        }
        *switches += moved;
    }
    None
}

/// The candidate sets of a working instance.
///
/// # Panics
/// Panics if `inst` has none: [`joint_solve`] and
/// [`lp_lower_bound`] give every instance its sets before any helper
/// runs.
fn sets(inst: &Instance) -> &PathSets {
    let Some(ps) = inst.path_sets() else {
        panic!("the joint solver runs on instances with candidate path sets");
    };
    ps
}

/// Per-candidate serving statistics under a deployment: whether any
/// deployed vertex covers the candidate, and the best downstream hop
/// count among deployed on-path vertices.
fn candidate_cover(ps: &PathSets, dep: &Deployment) -> (Vec<bool>, Vec<u32>) {
    let mut covered = vec![false; ps.total_paths()];
    let mut best_l = vec![0u32; ps.total_paths()];
    for &v in dep.vertices() {
        for m in ps.memberships_through(v) {
            let gid = ps.global_id(ix(m.flow), ix(m.path));
            covered[gid] = true;
            if m.l > best_l[gid] {
                best_l[gid] = m.l;
            }
        }
    }
    (covered, best_l)
}

/// Re-selection round: each flow activates its cheapest candidate
/// under `dep`. Returns the switches (current selections are never
/// re-emitted), so an empty result means the routing is stable.
fn reselect(inst: &Instance, dep: &Deployment) -> Vec<(u32, u32)> {
    let ps = sets(inst);
    let lambda = inst.lambda();
    let (covered, best_l) = candidate_cover(ps, dep);
    let mut out = Vec::new();
    for (f, flow) in inst.flows().iter().enumerate() {
        let active = ix(ps.active(f));
        let cost = |j: usize| {
            let gid = ps.global_id(f, j);
            let hops = usize_f64(ps.path(f, j).len() - 1);
            approx_f64(flow.rate) * (hops - (1.0 - lambda) * f64::from(best_l[gid]))
        };
        let mut pick = active;
        let mut pick_cost = cost(active);
        for j in 0..ps.candidate_count(f) {
            if j == active {
                continue;
            }
            let c = cost(j);
            let better = c < pick_cost - EPS
                || ((c - pick_cost).abs() <= EPS
                    && covered[ps.global_id(f, j)]
                    && !covered[ps.global_id(f, pick)]);
            if better {
                pick = j;
                pick_cost = c;
            }
        }
        if pick != active {
            out.push((id32(f), id32(pick)));
        }
    }
    out
}

/// Optimistic greedy placement: score each vertex by the marginal
/// best-candidate gain `Σ_f max(0, g*_{f,v} − cur_f)` (with the GTP
/// coverage tie-break over *any*-candidate coverage) and take `k`.
/// This is greedy max-coverage on the LP relaxation's gains — only a
/// warm start; exact GTP rounds refine it on the routed view.
fn optimistic_deployment(inst: &Instance) -> Deployment {
    let ps = sets(inst);
    let n = inst.node_count();
    let factor = 1.0 - inst.lambda();
    let flows = inst.flows();
    // g*_{f,v}: best gain over f's candidates through v, per vertex row.
    let star = |v: NodeId| {
        let mut acc: Vec<(u32, f64)> = Vec::new();
        for m in ps.memberships_through(v) {
            let g = approx_f64(flows[ix(m.flow)].rate) * factor * f64::from(m.l);
            match acc.last_mut() {
                Some(last) if last.0 == m.flow => last.1 = last.1.max(g),
                _ => acc.push((m.flow, g)),
            }
        }
        acc
    };
    let mut dep = Deployment::empty(n);
    let mut cur = vec![0.0f64; flows.len()];
    let mut served = vec![false; flows.len()];
    for _ in 0..inst.k() {
        let mut pick: Option<(f64, usize, NodeId)> = None;
        for v in 0..id32(n) {
            if dep.contains(v) {
                continue;
            }
            let row = star(v);
            if row.is_empty() {
                continue;
            }
            let gain: f64 = row.iter().map(|&(f, g)| (g - cur[ix(f)]).max(0.0)).sum();
            let coverage = row.iter().filter(|&&(f, _)| !served[ix(f)]).count();
            let better = match pick {
                None => true,
                Some((bg, bc, bv)) => {
                    gain > bg + EPS
                        || ((gain - bg).abs() <= EPS
                            && (coverage > bc || (coverage == bc && v < bv)))
                }
            };
            if better {
                pick = Some((gain, coverage, v));
            }
        }
        let Some((gain, coverage, v)) = pick else {
            break;
        };
        if gain <= EPS && coverage == 0 {
            break;
        }
        dep.insert(v);
        for (f, g) in star(v) {
            cur[ix(f)] = cur[ix(f)].max(g);
            served[ix(f)] = true;
        }
    }
    dep
}

/// LP-relaxation lower bound on the joint optimum's bandwidth.
///
/// `max(λ · Σ_f r_f · minlen_f, Σ_f r_f · minlen_f − min_μ D(μ))`
/// where `D(μ)` prices the budget Lagrangian via one min-cost-flow
/// transportation solve per point of a fixed 17-point grid
/// `μ ∈ {0, 1/16, …, 1} · max g*` (see the module docs for the
/// validity argument). Both terms hold for *every* candidate routing
/// and deployment within budget, so the max does too. An instance
/// without path sets is bounded over one candidate per flow, its path.
pub fn lp_lower_bound(inst: &Instance) -> f64 {
    let joint = inst.with_candidates();
    let inst: &Instance = &joint;
    let ps = sets(inst);
    let flows = inst.flows();
    if flows.is_empty() {
        return 0.0;
    }
    let factor = 1.0 - inst.lambda();
    let base: f64 = flows
        .iter()
        .enumerate()
        .map(|(f, flow)| approx_f64(flow.rate) * f64::from(ps.min_hops(f)))
        .sum();
    let lb_lambda = inst.lambda() * base;

    // Serving options: per (flow, vertex), the best candidate gain
    // g*_{f,v}; per vertex, the distinct-flow capacity |F_v|.
    let n = inst.node_count();
    let mut options: Vec<Vec<(u32, f64)>> = Vec::with_capacity(n);
    let mut g_max = 0.0f64;
    for v in 0..id32(n) {
        let mut acc: Vec<(u32, f64)> = Vec::new();
        for m in ps.memberships_through(v) {
            let g = approx_f64(flows[ix(m.flow)].rate) * factor * f64::from(m.l);
            match acc.last_mut() {
                Some(last) if last.0 == m.flow => last.1 = last.1.max(g),
                _ => acc.push((m.flow, g)),
            }
        }
        for &(_, g) in &acc {
            g_max = g_max.max(g);
        }
        options.push(acc);
    }
    if g_max <= 0.0 {
        // No deployment can decrement anything (λ = 1 or degenerate
        // paths): the base cost itself is the bound.
        return base.max(lb_lambda).max(0.0);
    }

    let k = inst.k();
    let f_count = flows.len();
    // Node layout: 0 = source, 1..=F flows, F+1..F+n vertices, last = sink.
    let s = 0usize;
    let voff = 1 + f_count;
    let t = voff + n;
    let mut d_ub = f64::INFINITY;
    for i in 0..=LP_MU_GRID {
        let mu = g_max * usize_f64(i) / usize_f64(LP_MU_GRID);
        let mut net = FlowNetwork::new(t + 1);
        for f in 0..f_count {
            net.add_arc(s, 1 + f, 1, 0);
            // Staying unserved is free — the transportation solve
            // must never be forced into a paying assignment.
            net.add_arc(1 + f, t, 1, 0);
        }
        for (v, row) in options.iter().enumerate() {
            if row.is_empty() {
                continue;
            }
            let cap = row.len();
            net.add_arc(voff + v, t, i64::from(id32(cap)), 0);
            for &(f, g) in row {
                let surplus = g - mu / usize_f64(cap);
                if surplus > 0.0 {
                    let cost = -(surplus * LP_SCALE).ceil() as i64;
                    net.add_arc(1 + ix(f), voff + v, 1, cost);
                }
            }
        }
        let (_, cost) = net.min_cost_flow(s, t, i64::from(id32(f_count)));
        // All serving arcs have cost ≤ 0 and the escape arc is free, so
        // the optimal cost is ≤ 0 and `-cost` fits a `u64`.
        let a_mu = approx_f64(u64::try_from(-cost).unwrap_or(0)) / LP_SCALE;
        d_ub = d_ub.min(mu * usize_f64(k) + a_mu);
    }
    (base - d_ub).max(lb_lambda).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::fig1_instance;
    use tdmd_graph::GraphBuilder;
    use tdmd_traffic::{Flow, FlowPaths};

    /// Two flows with disjoint two-hop shortest paths that share an
    /// equal-length alternative through `c`: fixed-path GTP with
    /// `k = 1` can only cover both at the sink (zero gain), while
    /// joint routing funnels both through `c` for a strict win.
    ///
    /// Vertices: 0 = s1, 1 = s2, 2 = a, 3 = b, 4 = c, 5 = t.
    fn funnel_instance() -> Instance {
        let mut b = GraphBuilder::new(6);
        b.add_bidirectional(0, 2);
        b.add_bidirectional(2, 5);
        b.add_bidirectional(1, 3);
        b.add_bidirectional(3, 5);
        b.add_bidirectional(0, 4);
        b.add_bidirectional(1, 4);
        b.add_bidirectional(4, 5);
        let g = b.build();
        let sets = vec![
            FlowPaths::new(0, 4, vec![vec![0, 2, 5], vec![0, 4, 5]]),
            FlowPaths::new(1, 4, vec![vec![1, 3, 5], vec![1, 4, 5]]),
        ];
        Instance::with_path_sets(g, sets, 0.5, 1).unwrap()
    }

    #[test]
    fn joint_escapes_the_fixed_path_local_optimum() {
        let inst = funnel_instance();
        let sol = joint_solve(&inst).unwrap();
        // Fixed: both flows covered at t, no decrement: 2 · 4 · 2 = 16.
        assert_eq!(sol.fixed_objective, 16.0);
        // Joint: both via c, box at c (l = 1): 16 − 2 · 4 · 0.5 = 12.
        assert_eq!(sol.objective, 12.0);
        assert_eq!(sol.deployment.vertices(), &[4]);
        assert_eq!(sol.active, vec![1, 1]);
        assert!(sol.path_switches >= 2);
        assert!(sol.rounds >= 2);
        assert!(
            sol.lp_bound <= sol.objective + EPS,
            "bound {} above objective {}",
            sol.lp_bound,
            sol.objective
        );
        assert!(sol.lp_bound >= 8.0 - EPS, "λ·base floor");
    }

    #[test]
    fn singleton_sets_degenerate_to_legacy_gtp() {
        for k in [2, 3] {
            let inst = fig1_instance(k);
            let sol = joint_solve(&inst).unwrap();
            let legacy = gtp_budgeted(&inst, k).unwrap();
            assert_eq!(sol.deployment, legacy, "k = {k}");
            assert_eq!(sol.objective, bandwidth_of(&inst, &legacy));
            assert_eq!(sol.objective, sol.fixed_objective);
            assert_eq!(sol.path_switches, 0);
            assert_eq!(sol.active, vec![0; inst.flows().len()]);
        }
    }

    #[test]
    fn solution_is_internally_consistent() {
        let inst = funnel_instance();
        let sol = joint_solve(&inst).unwrap();
        let mut routed = inst.clone();
        let switches: Vec<(u32, u32)> = sol
            .active
            .iter()
            .enumerate()
            .map(|(f, &j)| (f as u32, j))
            .collect();
        routed.set_active_paths(&switches);
        assert_eq!(bandwidth_of(&routed, &sol.deployment), sol.objective);
        crate::audit::check_instance(&routed).unwrap();
        let alloc = crate::objective::allocate(&routed, &sol.deployment);
        crate::audit::check_solution(&routed, &sol.deployment, routed.k(), Some(&alloc)).unwrap();
    }

    #[test]
    fn lp_bound_is_sandwiched_on_fig1() {
        let inst = fig1_instance(2);
        let sol = joint_solve(&inst).unwrap();
        assert!(sol.lp_bound >= 0.0);
        assert!(sol.lp_bound <= sol.objective + EPS);
        // λ = 0.5 floor: every edge still carries half the traffic.
        assert!(sol.lp_bound >= 0.5 * inst.unprocessed_bandwidth() - EPS);
    }

    #[test]
    fn infeasible_budget_errors_like_the_legacy_solver() {
        // Two flows with no common vertex on any candidate and k = 1.
        let mut b = GraphBuilder::new(4);
        b.add_bidirectional(0, 1);
        b.add_bidirectional(2, 3);
        let g = b.build();
        let flows = vec![Flow::new(0, 1, vec![0, 1]), Flow::new(1, 1, vec![2, 3])];
        let inst = Instance::new(g, flows, 0.5, 1).unwrap();
        assert!(matches!(
            joint_solve(&inst),
            Err(TdmdError::Infeasible { budget: 1 })
        ));
    }
}
