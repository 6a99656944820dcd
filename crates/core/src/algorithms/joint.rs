//! Joint routing + middlebox placement over candidate path sets.
//!
//! The paper places middleboxes on *fixed* flow paths; Charikar et
//! al.'s multi-commodity flow with in-network processing (PAPERS.md)
//! shows that choosing routes and processing sites jointly is
//! strictly better. This module keeps the candidate routes, in a
//! [`JointInstance`]: a fixed-path [`Instance`] with every flow on its
//! primary route, beside each flow's candidate list (a fixed-path
//! instance converts as one candidate per flow, its path). A routing
//! is one candidate index per flow, and [`JointInstance::routed`]
//! builds the fixed-path instance it describes. On that the solver
//! implements the alternation scheme:
//!
//! 1. **Placement round** — run budgeted GTP (Alg. 1) on a fresh
//!    instance of the current routing.
//! 2. **Re-selection round** — given the deployment, every flow
//!    re-prices its candidates (`r_f · (|p| − (1 − λ) · best l)`,
//!    where the first deployed vertex on the path from the source has
//!    the best `l`) and takes the cheapest; ties keep the current
//!    route, then prefer covered candidates, then the lower index.
//!
//! The loop runs twice: once warm-started from the primary routes (so
//! round 1 *is* the legacy fixed-path GTP, and the singleton case
//! degenerates to it exactly), and once from an **optimistic
//! placement** that scores each vertex by the best gain over *any*
//! candidate — the escape hatch for the chicken-and-egg local optimum
//! where no single flow benefits from moving until the box moves, and
//! vice versa. The incumbent across both chains only ever improves on
//! the fixed-path objective.
//!
//! The reported bound is an **LP-relaxation certificate**: for a
//! Lagrangian price `μ ≥ 0` on the budget, the relaxed decrement
//!
//! ```text
//! D(μ) = μ·k + max Σ_{f,v} x_{f,v} · (g*_{f,v} − μ / |F_v|)
//! ```
//!
//! (per-flow ≤ 1, per-vertex ≤ |F_v| — a transportation problem) is
//! an upper bound on any true solution's decrement, because a real
//! deployment `P` serves at most `|F_v|` flows at each `v ∈ P` and
//! `Σ_{v∈P} served_v / |F_v| ≤ |P| ≤ k`. No per-vertex capacity can
//! bind: `|F_v|` is the number of flows with an option at `v`, so the
//! maximum takes each flow's best option or nothing,
//!
//! ```text
//! A(μ) = Σ_f max(0, max_v (g*_{f,v} − μ / |F_v|)),
//! ```
//!
//! one pass over the options per `μ`. Each flow's term is rounded up
//! to a multiple of `2^-20` (rounding up keeps the bound valid) and
//! the terms are summed exactly in `u128`, so no rate can wrap the
//! total. Minimizing over a `μ` grid and subtracting from the
//! best-candidate base cost gives a valid lower bound on the joint
//! optimum, reported next to the solved objective as
//! `lp_bound ≤ optimum ≤ objective`. The optimistic placement and the
//! bound read one table of the best gains `g*_{f,v}`, built once per
//! solve from the candidates.

use crate::algorithms::gtp::gtp_budgeted;
use crate::error::TdmdError;
use crate::instance::{Instance, PathCheck};
use crate::num::{approx_f64, id32, ix, rate_sum_f64, usize_f64, wide};
use crate::objective::bandwidth_of;
use crate::plan::Deployment;
use tdmd_graph::{DiGraph, NodeId};
use tdmd_traffic::{Flow, FlowPaths};

/// Float tolerance for objective comparisons.
const EPS: f64 = 1e-9;

/// Fixed-point scale (`2^20`) of the LP bound's per-flow surpluses
/// (gains are `f64`, the sum is an integer; ceiling the scaled
/// surplus keeps the bound valid).
const LP_SCALE: f64 = 1_048_576.0;

/// Maximum GTP placement rounds per warm-start chain.
const MAX_ROUNDS: usize = 8;

/// Grid points for the Lagrangian price `μ` of the LP bound (besides
/// `μ = 0`).
const LP_MU_GRID: usize = 16;

/// A joint routing instance: the fixed-path [`Instance`] of the
/// primary routes and each flow's candidate routes, validated once
/// at construction and never changed after.
#[derive(Debug, Clone)]
pub struct JointInstance {
    /// Every flow on its primary (index-0) candidate.
    base: Instance,
    /// Candidate routes per flow, primary first; each connects the
    /// primary's endpoints.
    candidates: Vec<Vec<Vec<NodeId>>>,
}

impl JointInstance {
    /// Builds a joint instance from candidate path sets, with each
    /// flow's primary (index-0) candidate in the base instance, so a
    /// fixed-path solver run on [`JointInstance::base`] equals a run on
    /// the primaries.
    ///
    /// # Errors
    /// * [`TdmdError::BadLambda`] if `λ ∉ [0, 1]`.
    /// * [`TdmdError::InvalidPath`] if a flow has a zero rate, a
    ///   non-dense id, an empty candidate list, or any candidate that
    ///   is degenerate, non-simple, uses a missing edge, or does not
    ///   connect the primary's `(src, dst)`.
    pub fn new(
        graph: DiGraph,
        sets: Vec<FlowPaths>,
        lambda: f64,
        k: usize,
    ) -> Result<Self, TdmdError> {
        if !(0.0..=1.0).contains(&lambda) || lambda.is_nan() {
            return Err(TdmdError::BadLambda(lambda));
        }
        let mut check = PathCheck::new(graph.node_count());
        for (idx, s) in sets.iter().enumerate() {
            let err = || TdmdError::InvalidPath { flow: s.id };
            let Some(primary) = s.candidates.first() else {
                return Err(err());
            };
            if ix(s.id) != idx || s.rate == 0 {
                return Err(err());
            }
            for p in &s.candidates {
                if !check.is_valid(&graph, p)
                    || p.first() != primary.first()
                    || p.last() != primary.last()
                {
                    return Err(err());
                }
            }
        }
        let flows: Vec<Flow> = sets.iter().map(FlowPaths::primary_flow).collect();
        Ok(Self {
            base: Instance::new(graph, flows, lambda, k)?,
            candidates: sets.into_iter().map(|s| s.candidates).collect(),
        })
    }

    /// The fixed-path instance of the primary routes.
    #[inline]
    pub fn base(&self) -> &Instance {
        &self.base
    }

    /// The fixed-path instance of a routing: each flow, with its id,
    /// rate and tenant, on its candidate `active[f]`.
    ///
    /// # Errors
    /// Those of [`Instance::new`], which validates the routed flows
    /// again; every candidate passed those checks at construction.
    ///
    /// # Panics
    /// Panics if `active` does not name one in-range candidate per
    /// flow.
    pub fn routed(&self, active: &[u32]) -> Result<Instance, TdmdError> {
        let flows = self.base.flows();
        assert_eq!(active.len(), flows.len(), "one candidate per flow");
        let routed = flows
            .iter()
            .zip(&self.candidates)
            .zip(active)
            .map(|((f, cands), &j)| Flow {
                id: f.id,
                rate: f.rate,
                path: cands[ix(j)].clone(),
                tenant: f.tenant,
            })
            .collect();
        let base = &self.base;
        Instance::new(base.graph().clone(), routed, base.lambda(), base.k())
    }
}

/// The fixed-path model as a joint instance: each flow's path is its
/// one candidate.
impl From<Instance> for JointInstance {
    fn from(base: Instance) -> Self {
        let candidates = base.flows().iter().map(|f| vec![f.path.clone()]).collect();
        Self { base, candidates }
    }
}

/// Result of a joint solve.
#[derive(Debug, Clone, PartialEq)]
pub struct JointSolution {
    /// The incumbent deployment.
    pub deployment: Deployment,
    /// Candidate index per flow under the incumbent routing
    /// ([`JointInstance::routed`] builds its instance).
    pub active: Vec<u32>,
    /// Total bandwidth of the incumbent (Eq. 1 on its routing).
    pub objective: f64,
    /// Bandwidth of plain GTP on the primary routes — the fixed-path
    /// baseline (`objective ≤ fixed_objective`).
    pub fixed_objective: f64,
    /// LP-relaxation lower bound on the joint optimum.
    pub lp_bound: f64,
    /// GTP placement rounds run (across both warm-start chains).
    pub rounds: usize,
    /// Route switches made (across both chains).
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
pub fn joint_solve(joint: &JointInstance) -> Result<JointSolution, TdmdError> {
    let instance = joint.base();
    let star = best_gains(joint);
    let lp_bound = lp_bound(joint, &star);

    let mut rounds = 0usize;
    let mut switches = 0u64;
    let mut best: Incumbent = None;
    let mut first_err: Option<TdmdError> = None;
    let primaries = vec![0u32; instance.flows().len()];

    // Seed the incumbent with the fixed-path baseline: plain GTP on
    // the primary routes. Chains may only *strictly* improve on it, so
    // `objective ≤ fixed_objective` holds by construction and the
    // singleton case returns this deployment bit-for-bit.
    let mut fixed_objective = f64::INFINITY;
    match gtp_budgeted(instance, instance.k()) {
        Ok(dep) => {
            let obj = bandwidth_of(instance, &dep);
            fixed_objective = obj;
            best = Some((dep, primaries.clone(), obj));
        }
        Err(e) => first_err = Some(e),
    }

    // Chain A: warm start from the primary routes (its first placement
    // round re-derives the baseline; later rounds explore the routing
    // neighborhood around it).
    if let Err(e) = run_chain(
        joint,
        primaries.clone(),
        &mut rounds,
        &mut switches,
        &mut best,
    ) {
        first_err.get_or_insert(e);
    }

    // Chain B: optimistic warm start — place against the best gain
    // over *any* candidate, let flows re-route toward it, then refine.
    let mut active = primaries;
    switches += wide(reselect(
        joint,
        &mut active,
        &optimistic_deployment(joint, &star),
    ));
    if let Err(e) = run_chain(joint, active, &mut rounds, &mut switches, &mut best) {
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

/// The best (deployment, routing, objective) seen so far.
type Incumbent = Option<(Deployment, Vec<u32>, f64)>;

/// One warm-start chain from the routing `active`: alternate GTP and
/// re-selection until no flow switches, the round budget is exhausted,
/// or placement fails. Updates the shared incumbent; returns the
/// placement error (if any) so the caller can surface it when *no*
/// chain produced a solution.
fn run_chain(
    joint: &JointInstance,
    mut active: Vec<u32>,
    rounds: &mut usize,
    switches: &mut u64,
    best: &mut Incumbent,
) -> Result<(), TdmdError> {
    for round in 0..MAX_ROUNDS {
        *rounds += 1;
        let inst = joint.routed(&active)?;
        let dep = gtp_budgeted(&inst, inst.k())?;
        let obj = bandwidth_of(&inst, &dep);
        // Strict improvement only: on ties the earlier incumbent wins,
        // which pins the singleton case to the legacy GTP deployment.
        if best.as_ref().is_none_or(|b| obj < b.2 - EPS) {
            *best = Some((dep.clone(), active.clone(), obj));
        }
        if round + 1 == MAX_ROUNDS {
            break;
        }
        let moved = reselect(joint, &mut active, &dep);
        if moved == 0 {
            break;
        }
        *switches += wide(moved);
    }
    Ok(())
}

/// Re-selection round: each flow takes its cheapest candidate under
/// `dep`, written into `active`. Returns the number of flows that
/// switched, so 0 means the routing is stable.
fn reselect(joint: &JointInstance, active: &mut [u32], dep: &Deployment) -> usize {
    let inst = joint.base();
    let factor = 1.0 - inst.lambda();
    let mut moved = 0;
    for ((flow, cands), current) in inst.flows().iter().zip(&joint.candidates).zip(active) {
        // A candidate's cost and whether a deployed vertex covers it:
        // the first deployed vertex from the source has the largest
        // downstream hop count `l`.
        let price = |p: &[NodeId]| {
            let hops = p.len() - 1;
            let l = p
                .iter()
                .position(|&v| dep.contains(v))
                .map(|pos| hops - pos);
            let cost =
                approx_f64(flow.rate) * (usize_f64(hops) - factor * usize_f64(l.unwrap_or(0)));
            (cost, l.is_some())
        };
        let mut pick = ix(*current);
        let (mut pick_cost, mut pick_covered) = price(&cands[pick]);
        for (j, p) in cands.iter().enumerate() {
            if j == ix(*current) {
                continue;
            }
            let (c, covered) = price(p);
            let better =
                c < pick_cost - EPS || ((c - pick_cost).abs() <= EPS && covered && !pick_covered);
            if better {
                (pick, pick_cost, pick_covered) = (j, c, covered);
            }
        }
        if pick != ix(*current) {
            *current = id32(pick);
            moved += 1;
        }
    }
    moved
}

/// Per vertex, `g*_{f,v}`: every flow with a candidate through `v`,
/// in flow order, with its best gain there over those candidates,
/// `max_j r_f · (1 − λ) · l_v(p_j)`.
fn best_gains(joint: &JointInstance) -> Vec<Vec<(u32, f64)>> {
    let inst = joint.base();
    let factor = 1.0 - inst.lambda();
    let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); inst.node_count()];
    for (flow, cands) in inst.flows().iter().zip(&joint.candidates) {
        for p in cands {
            for (pos, &v) in p.iter().enumerate() {
                let l = id32(p.len() - 1 - pos);
                let g = approx_f64(flow.rate) * factor * f64::from(l);
                let row = &mut rows[ix(v)];
                match row.last_mut() {
                    Some(last) if last.0 == flow.id => last.1 = last.1.max(g),
                    _ => row.push((flow.id, g)),
                }
            }
        }
    }
    rows
}

/// Optimistic greedy placement: score each vertex by the marginal
/// best-candidate gain `Σ_f max(0, g*_{f,v} − cur_f)` (with the GTP
/// coverage tie-break over *any*-candidate coverage) and take `k`.
/// This is greedy max-coverage on the LP relaxation's gains — only a
/// warm start; exact GTP rounds refine it on the routed view.
fn optimistic_deployment(joint: &JointInstance, star: &[Vec<(u32, f64)>]) -> Deployment {
    let inst = joint.base();
    let n = inst.node_count();
    let mut dep = Deployment::empty(n);
    let mut cur = vec![0.0f64; inst.flows().len()];
    let mut served = vec![false; inst.flows().len()];
    for _ in 0..inst.k() {
        let mut pick: Option<(f64, usize, NodeId)> = None;
        for (v, row) in (0..id32(n)).zip(star) {
            if dep.contains(v) || row.is_empty() {
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
        for &(f, g) in &star[ix(v)] {
            cur[ix(f)] = cur[ix(f)].max(g);
            served[ix(f)] = true;
        }
    }
    dep
}

/// LP-relaxation lower bound on the joint optimum's bandwidth.
///
/// `max(λ · Σ_f r_f · minlen_f, Σ_f r_f · minlen_f − min_μ D(μ))`
/// where `D(μ)` prices the budget Lagrangian, flow by flow, at each
/// point of a fixed 17-point grid `μ ∈ {0, 1/16, …, 1} · max g*` (see
/// the module docs for the validity argument). Both terms hold for
/// *every* candidate routing and deployment within budget, so the max
/// does too.
pub fn lp_lower_bound(joint: &JointInstance) -> f64 {
    lp_bound(joint, &best_gains(joint))
}

/// [`lp_lower_bound`] over a [`best_gains`] table: its rows are the
/// serving options, per (flow, vertex) the best candidate gain
/// `g*_{f,v}`, and a row's length is the vertex's distinct-flow
/// capacity `|F_v|`.
fn lp_bound(joint: &JointInstance, options: &[Vec<(u32, f64)>]) -> f64 {
    let inst = joint.base();
    let flows = inst.flows();
    if flows.is_empty() {
        return 0.0;
    }
    // The fewest hops over each flow's candidates: the routing lower
    // bound the certificate prices against.
    let base: f64 = flows
        .iter()
        .zip(&joint.candidates)
        .map(|(flow, cands)| {
            let min_hops = cands.iter().map(|p| p.len() - 1).min().unwrap_or(0);
            approx_f64(flow.rate) * usize_f64(min_hops)
        })
        .sum();
    let lb_lambda = inst.lambda() * base;
    let g_max = options.iter().flatten().fold(0.0f64, |m, &(_, g)| m.max(g));
    if g_max <= 0.0 {
        // No deployment can decrement anything (λ = 1 or degenerate
        // paths): the base cost itself is the bound.
        return base.max(lb_lambda).max(0.0);
    }

    let k = inst.k();
    // Per flow, its best surplus at the current μ; 0 is staying
    // unserved.
    let mut best = vec![0.0f64; flows.len()];
    let mut d_ub = f64::INFINITY;
    for i in 0..=LP_MU_GRID {
        let mu = g_max * usize_f64(i) / usize_f64(LP_MU_GRID);
        best.fill(0.0);
        for row in options.iter().filter(|row| !row.is_empty()) {
            let share = mu / usize_f64(row.len());
            for &(f, g) in row {
                best[ix(f)] = best[ix(f)].max(g - share);
            }
        }
        // Each term is at most `r_f · |p| · 2^20 + 1`, so the exact sum
        // stays far inside `u128` for any workload that fits in memory.
        let scaled: u128 = best
            .iter()
            .map(|&surplus| (surplus * LP_SCALE).ceil() as u128)
            .sum();
        let a_mu = rate_sum_f64(scaled) / LP_SCALE;
        d_ub = d_ub.min(mu * usize_f64(k) + a_mu);
    }
    (base - d_ub).max(lb_lambda).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::fig1_instance;
    use tdmd_graph::GraphBuilder;

    /// Two flows with disjoint two-hop shortest paths that share an
    /// equal-length alternative through `c`: fixed-path GTP with
    /// `k = 1` can only cover both at the sink (zero gain), while
    /// joint routing funnels both through `c` for a strict win.
    ///
    /// Vertices: 0 = s1, 1 = s2, 2 = a, 3 = b, 4 = c, 5 = t.
    fn funnel_instance() -> JointInstance {
        funnel_at_rate(4)
    }

    /// [`funnel_instance`] with both flows at `rate`.
    fn funnel_at_rate(rate: u64) -> JointInstance {
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
            FlowPaths::new(0, rate, vec![vec![0, 2, 5], vec![0, 4, 5]]),
            FlowPaths::new(1, rate, vec![vec![1, 3, 5], vec![1, 4, 5]]),
        ];
        JointInstance::new(g, sets, 0.5, 1).unwrap()
    }

    /// A diamond 0 → {1, 2} → 3 plus a long detour 0 → 4 → 5 → 3, one
    /// flow of rate 4 with all three routes as candidates.
    fn diamond_instance() -> JointInstance {
        let mut b = GraphBuilder::new(6);
        b.add_bidirectional(0, 1);
        b.add_bidirectional(1, 3);
        b.add_bidirectional(0, 2);
        b.add_bidirectional(2, 3);
        b.add_bidirectional(0, 4);
        b.add_bidirectional(4, 5);
        b.add_bidirectional(5, 3);
        let g = b.build();
        let sets = vec![FlowPaths::new(
            0,
            4,
            vec![vec![0, 1, 3], vec![0, 2, 3], vec![0, 4, 5, 3]],
        )];
        JointInstance::new(g, sets, 0.5, 1).unwrap()
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
    fn lp_bound_stays_a_bound_at_huge_rates() {
        // Scaled gains reach 2^62 · 2^20: past i64, inside the exact
        // u128 sum. The bound meets the objective 3r of the funnel.
        for rate in [1u64 << 42, 1 << 50, 1 << 62] {
            let sol = joint_solve(&funnel_at_rate(rate)).unwrap();
            assert!(
                sol.lp_bound <= sol.objective,
                "rate {rate}: bound {} above objective {}",
                sol.lp_bound,
                sol.objective
            );
            assert_eq!(sol.lp_bound, 3.0 * approx_f64(rate), "rate {rate}");
        }
    }

    #[test]
    fn singleton_sets_degenerate_to_legacy_gtp() {
        for k in [2, 3] {
            let inst = fig1_instance(k);
            let sol = joint_solve(&JointInstance::from(inst.clone())).unwrap();
            let legacy = gtp_budgeted(&inst, k).unwrap();
            assert_eq!(sol.deployment, legacy, "k = {k}");
            assert_eq!(sol.objective, bandwidth_of(&inst, &legacy));
            assert_eq!(sol.objective, sol.fixed_objective);
            assert_eq!(sol.path_switches, 0);
            assert_eq!(sol.active, vec![0; inst.flows().len()]);
        }
    }

    #[test]
    fn routed_instances_follow_the_chosen_candidates() {
        let inst = diamond_instance();
        assert_eq!(inst.base().flows()[0].path, vec![0, 1, 3]);
        assert_eq!(inst.candidates[0].len(), 3);
        let detour = inst.routed(&[2]).unwrap();
        assert_eq!(detour.flows()[0].path, vec![0, 4, 5, 3]);
        assert_eq!(detour.candidate_vertices(), vec![0, 3, 4, 5]);
        assert_eq!(detour.unprocessed_bandwidth(), 12.0);
        assert_eq!(inst.routed(&[0]).unwrap().flows(), inst.base().flows());
        // A fixed-path instance converts as one candidate per flow.
        let fixed = JointInstance::from(fig1_instance(2));
        for (f, flow) in fixed.base().flows().iter().enumerate() {
            assert_eq!(fixed.candidates[f], std::slice::from_ref(&flow.path));
        }
    }

    #[test]
    fn reselection_prices_each_candidate_from_its_first_deployed_vertex() {
        let inst = diamond_instance();
        // A box at 4 serves the detour at l = 2: 4 · (3 − 0.5 · 2) = 8,
        // the primary's uncovered cost, and the covered detour wins
        // the tie.
        let mut active = vec![0];
        let dep = Deployment::from_vertices(6, [4]);
        assert_eq!(reselect(&inst, &mut active, &dep), 1);
        assert_eq!(active, vec![2]);
        // Boxes at 0 and 2: the first from the source (0, l = 2) prices
        // every candidate; the cheapest is a two-hop route, and the
        // detour leaves.
        let dep = Deployment::from_vertices(6, [0, 2]);
        assert_eq!(reselect(&inst, &mut active, &dep), 1);
        assert_eq!(active, vec![0]);
        assert_eq!(reselect(&inst, &mut active, &dep), 0);
    }

    #[test]
    fn joint_instance_rejects_mismatched_endpoints() {
        let mut b = GraphBuilder::new(3);
        b.add_bidirectional(0, 1);
        b.add_bidirectional(1, 2);
        let g = b.build();
        let sets = vec![FlowPaths {
            id: 0,
            rate: 1,
            candidates: vec![vec![0, 1, 2], vec![0, 1]],
        }];
        assert_eq!(
            JointInstance::new(g, sets, 0.5, 1).unwrap_err(),
            TdmdError::InvalidPath { flow: 0 }
        );
    }

    #[test]
    fn solution_is_internally_consistent() {
        let inst = funnel_instance();
        let sol = joint_solve(&inst).unwrap();
        let routed = inst.routed(&sol.active).unwrap();
        assert_eq!(bandwidth_of(&routed, &sol.deployment), sol.objective);
        crate::audit::check_instance(&routed).unwrap();
        let alloc = crate::objective::allocate(&routed, &sol.deployment);
        crate::audit::check_solution(&routed, &sol.deployment, routed.k(), Some(&alloc)).unwrap();
    }

    #[test]
    fn lp_bound_is_sandwiched_on_fig1() {
        let inst = fig1_instance(2);
        let sol = joint_solve(&JointInstance::from(inst.clone())).unwrap();
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
            joint_solve(&JointInstance::from(inst)),
            Err(TdmdError::Infeasible { budget: 1 })
        ));
    }
}
