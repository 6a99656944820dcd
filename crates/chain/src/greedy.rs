//! Chain placement algorithms.
//!
//! * [`chain_at_destinations`] — the egress baseline: the full chain
//!   stacked on every destination vertex. Always feasible (every type
//!   is reachable last, in order), never saves a byte of the
//!   diminishing types' potential, and anchors the greedy.
//! * [`chain_gtp`] — shared-instance greedy in the spirit of the
//!   paper's GTP: start from the egress baseline, then repeatedly add
//!   the `(type, vertex)` instance whose *exact* re-evaluation lowers
//!   the total bandwidth most, until the instance budget is spent or
//!   no instance helps. Sharing across flows is automatic: the
//!   per-flow DP re-homes every flow on each candidate evaluation.
//! * [`chain_stacked_gtp`] — the chain-aware [`CostModel`] adapter
//!   ([`ChainStackModel`]): collapse the chain's best diminishing
//!   prefix into a single stacked placement problem and run the core
//!   GTP engine on it directly.

use crate::deployment::ChainDeployment;
use crate::eval::{evaluate_chain, ChainEval};
use crate::spec::ChainSpec;
use tdmd_core::algorithms::gtp::gtp_budgeted_with;
use tdmd_core::cost::CostModel;
use tdmd_core::error::TdmdError;
use tdmd_core::instance::Instance;
use tdmd_graph::{DiGraph, NodeId};
use tdmd_traffic::Flow;

/// The egress baseline: every type of the chain on every destination.
/// Uses `m · |destinations|` instances.
pub fn chain_at_destinations(
    graph: &DiGraph,
    flows: &[Flow],
    chain: &ChainSpec,
) -> ChainDeployment {
    let mut dests: Vec<NodeId> = flows.iter().map(Flow::dst).collect();
    dests.sort_unstable();
    dests.dedup();
    let mut dep = ChainDeployment::empty(chain.len(), graph.node_count());
    for &d in &dests {
        for t in 0..chain.len() {
            dep.insert(t, d);
        }
    }
    dep
}

/// The state of the shared-instance chain greedy.
///
/// Moves are *prefix stacks*: placing types `0..=t` on a vertex in
/// one step (only the missing ones are added). A lone mid-chain
/// instance is often worthless — e.g. an optimizer with no upstream
/// firewall can never be used in order — so single-instance moves
/// alone stall; stacking the prefix captures the coordinated gain.
/// Moves are scored by bandwidth saved per instance spent.
struct PrefixStackMoves<'a> {
    flows: &'a [Flow],
    chain: &'a ChainSpec,
    cands: Vec<NodeId>,
    dep: ChainDeployment,
    cur: ChainEval,
}

/// A scored move: `(density, saved, cost, t, v)`, compared with
/// epsilon ladders ([`PrefixStackMoves::better`]).
type MoveKey = (f64, f64, usize, usize, NodeId);

impl PrefixStackMoves<'_> {
    /// Types of the prefix `0..=t` not yet present on `v`.
    fn missing(&self, t: usize, v: NodeId) -> Vec<usize> {
        (0..=t).filter(|&ti| !self.dep.has(ti, v)).collect()
    }

    /// Instances the current deployment spends.
    fn spent(&self) -> usize {
        self.dep.total_instances()
    }

    /// The `(t, v)` moves affordable within `slack` more instances, in
    /// tie-break order (earlier wins on equal keys).
    fn moves(&self, slack: usize) -> Vec<(usize, NodeId)> {
        let mut out = Vec::new();
        for t in 0..self.chain.len() {
            for &v in &self.cands {
                let cost = self.missing(t, v).len();
                if cost > 0 && cost <= slack {
                    out.push((t, v));
                }
            }
        }
        out
    }

    /// Scores a move by exact re-evaluation; `None` when it saves
    /// nothing.
    fn evaluate(&mut self, (t, v): (usize, NodeId)) -> Option<MoveKey> {
        let missing = self.missing(t, v);
        for &ti in &missing {
            self.dep.insert(ti, v);
        }
        let eval = evaluate_chain(self.flows, self.chain, &self.dep);
        for &ti in &missing {
            self.dep.remove(ti, v);
        }
        let saved = self.cur.bandwidth - eval.bandwidth;
        if saved <= 1e-12 {
            return None;
        }
        Some((saved / missing.len() as f64, saved, missing.len(), t, v))
    }

    /// Whether `a` strictly beats `b`.
    fn better(a: &MoveKey, b: &MoveKey) -> bool {
        let (ad, a_saved, ac, at, av) = *a;
        let (bd, b_saved, bc, bt, bv) = *b;
        ad > bd + 1e-12
            || ((ad - bd).abs() <= 1e-12
                && (a_saved > b_saved + 1e-12
                    || ((a_saved - b_saved).abs() <= 1e-12 && (ac, at, av) < (bc, bt, bv))))
    }

    /// Stacks the prefix `0..=t` on `v`.
    fn apply(&mut self, (t, v): (usize, NodeId)) {
        for ti in 0..=t {
            self.dep.insert(ti, v);
        }
        self.cur = evaluate_chain(self.flows, self.chain, &self.dep);
    }
}

/// Shared-instance greedy chain placement with a total instance
/// budget: each round evaluates every affordable move and applies the
/// best, until the budget is spent or no move saves bandwidth.
///
/// # Errors
/// [`TdmdError::Infeasible`] when the egress baseline alone exceeds
/// the budget (no cheaper universally-feasible start exists without
/// solving the NP-hard coverage problem).
pub fn chain_gtp(
    graph: &DiGraph,
    flows: &[Flow],
    chain: &ChainSpec,
    budget: usize,
) -> Result<(ChainDeployment, ChainEval), TdmdError> {
    let dep = chain_at_destinations(graph, flows, chain);
    if dep.total_instances() > budget {
        return Err(TdmdError::Infeasible { budget });
    }
    let cur = evaluate_chain(flows, chain, &dep);
    debug_assert!(cur.feasible(), "egress baseline must be feasible");
    // Candidate vertices: any vertex on some flow path.
    let mut on_path = vec![false; graph.node_count()];
    for f in flows {
        for &v in &f.path {
            on_path[v as usize] = true;
        }
    }
    let cands: Vec<NodeId> = (0..graph.node_count() as NodeId)
        .filter(|&v| on_path[v as usize])
        .collect();
    let mut state = PrefixStackMoves {
        flows,
        chain,
        cands,
        dep,
        cur,
    };
    while state.spent() < budget {
        let mut best: Option<(MoveKey, (usize, NodeId))> = None;
        for m in state.moves(budget - state.spent()) {
            if let Some(key) = state.evaluate(m) {
                if best
                    .as_ref()
                    .is_none_or(|(bk, _)| PrefixStackMoves::better(&key, bk))
                {
                    best = Some((key, m));
                }
            }
        }
        let Some((_, m)) = best else { break };
        state.apply(m);
    }
    Ok((state.dep, state.cur))
}

/// Chain-aware [`CostModel`]: prices a vertex by the downstream hops
/// its whole *best diminishing prefix* would save when stacked there.
///
/// The best prefix is the one minimizing the cumulative ratio
/// `Π λ_t` (ties toward the shorter prefix); stacking it at a vertex
/// `l` hops upstream of the destination saves
/// `r_f · (1 − Π λ) · l` — so the serving gain is `(1 − Π λ) · l`,
/// non-increasing along the path, and Thm. 2's submodularity (hence
/// GTP's `(1 − 1/e)` bound for the stacked relaxation) carries over.
///
/// Consume it with an instance whose `λ = 0`: the model already folds
/// the chain's diminishing fraction into its gains, so the engine's
/// `(1 − λ)` factor must stay 1.
#[derive(Debug, Clone, Copy)]
pub struct ChainStackModel {
    prefix_len: usize,
    saving: f64,
}

impl ChainStackModel {
    /// Chooses the cumulative-ratio-minimizing prefix of `chain`.
    pub fn new(chain: &ChainSpec) -> Self {
        let mut best_ratio = 1.0f64;
        let mut prefix_len = 0usize;
        for i in 0..=chain.len() {
            let r = chain.prefix_ratio(i);
            if r < best_ratio - 1e-12 {
                best_ratio = r;
                prefix_len = i;
            }
        }
        Self {
            prefix_len,
            saving: 1.0 - best_ratio,
        }
    }

    /// Number of leading chain types in the stacked prefix.
    pub fn prefix_len(&self) -> usize {
        self.prefix_len
    }

    /// Fraction of traffic the stacked prefix removes (`1 − Π λ`).
    pub fn saving(&self) -> f64 {
        self.saving
    }
}

impl CostModel for ChainStackModel {
    fn serving_gain(&self, flow: &Flow, pos: usize) -> f64 {
        self.saving * (flow.hops() - pos) as f64
    }

    fn unprocessed_cost(&self, flow: &Flow) -> f64 {
        flow.hops() as f64
    }
}

/// Stacked-prefix chain placement through the core GTP engine.
///
/// Relaxes the per-instance chain problem to the paper's shape: the
/// chain's best diminishing prefix is treated as one stackable unit
/// placed on at most `k` vertices (chosen by the generic engine under
/// [`ChainStackModel`] pricing), while the remaining types — expanders
/// and neutral tails, which never profit from moving upstream — sit at
/// every destination, like the egress baseline. The returned
/// deployment therefore uses `k · prefix_len` stack instances plus
/// `|destinations| · (m − prefix_len)` egress instances, and is always
/// order-feasible (prefix strictly upstream of its suffix).
///
/// # Errors
/// [`TdmdError::Infeasible`] when `k` stack vertices cannot cover
/// every flow (same guard as the core GTP), or the instance is
/// malformed.
pub fn chain_stacked_gtp(
    graph: &DiGraph,
    flows: &[Flow],
    chain: &ChainSpec,
    k: usize,
) -> Result<(ChainDeployment, ChainEval), TdmdError> {
    let model = ChainStackModel::new(chain);
    let mut dep = ChainDeployment::empty(chain.len(), graph.node_count());
    let mut dests: Vec<NodeId> = flows.iter().map(Flow::dst).collect();
    dests.sort_unstable();
    dests.dedup();
    if model.prefix_len() == 0 {
        // No diminishing prefix (the chain opens with expanders):
        // stacking never helps, fall back to the egress baseline.
        for &d in &dests {
            for t in 0..chain.len() {
                dep.insert(t, d);
            }
        }
        let eval = evaluate_chain(flows, chain, &dep);
        return Ok((dep, eval));
    }
    // λ = 0: ChainStackModel folds the saving fraction into its gains.
    let inst = Instance::new(graph.clone(), flows.to_vec(), 0.0, k)?;
    let plan = gtp_budgeted_with(&inst, k, &model)?;
    for &v in plan.vertices() {
        for t in 0..model.prefix_len() {
            dep.insert(t, v);
        }
    }
    for &d in &dests {
        for t in model.prefix_len()..chain.len() {
            dep.insert(t, d);
        }
    }
    let eval = evaluate_chain(flows, chain, &dep);
    Ok((dep, eval))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdmd_graph::GraphBuilder;

    /// Fig. 5-shaped tree (0-based), all flows to the root.
    fn tree_fixture() -> (DiGraph, Vec<Flow>) {
        let mut b = GraphBuilder::new(8);
        for (u, v) in [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (5, 6), (5, 7)] {
            b.add_bidirectional(u, v);
        }
        let flows = vec![
            Flow::new(0, 2, vec![3, 1, 0]),
            Flow::new(1, 1, vec![7, 5, 2, 0]),
            Flow::new(2, 5, vec![6, 5, 2, 0]),
            Flow::new(3, 1, vec![4, 1, 0]),
        ];
        (b.build(), flows)
    }

    #[test]
    fn egress_baseline_is_feasible_and_saves_nothing() {
        let (g, flows) = tree_fixture();
        let chain = ChainSpec::from_ratios(&[("fw", 0.5), ("opt", 0.5)]);
        let dep = chain_at_destinations(&g, &flows, &chain);
        assert_eq!(dep.total_instances(), 2, "one destination, two types");
        let eval = evaluate_chain(&flows, &chain, &dep);
        assert!(eval.feasible());
        let unprocessed = tdmd_traffic::flow::total_load(&flows);
        assert_eq!(
            eval.bandwidth, unprocessed,
            "processing at the egress saves nothing"
        );
    }

    #[test]
    fn single_type_chain_matches_the_core_dp() {
        // A 1-type chain is exactly the paper's problem; with enough
        // budget the greedy should land on the all-sources optimum.
        let (g, flows) = tree_fixture();
        let chain = ChainSpec::from_ratios(&[("m", 0.5)]);
        let (dep, eval) = chain_gtp(&g, &flows, &chain, 5).unwrap();
        // Core DP optimum at k = 5 is 12 (all sources; the spare root
        // instance from the baseline costs nothing).
        assert_eq!(eval.bandwidth, 12.0);
        for src in [3u32, 4, 6, 7] {
            assert!(dep.has(0, src), "source {src} should host the filter");
        }
    }

    #[test]
    fn budget_below_baseline_is_infeasible() {
        let (g, flows) = tree_fixture();
        let chain = ChainSpec::from_ratios(&[("a", 0.5), ("b", 0.5), ("c", 0.5)]);
        assert!(chain_gtp(&g, &flows, &chain, 2).is_err());
    }

    #[test]
    fn greedy_improves_monotonically_with_budget() {
        let (g, flows) = tree_fixture();
        let chain = ChainSpec::from_ratios(&[("fw", 0.5), ("opt", 0.8)]);
        let mut prev = f64::INFINITY;
        for budget in 2..=8 {
            let (dep, eval) = chain_gtp(&g, &flows, &chain, budget).unwrap();
            assert!(eval.feasible());
            assert!(dep.total_instances() <= budget);
            assert!(eval.bandwidth <= prev + 1e-9, "budget {budget}");
            prev = eval.bandwidth;
        }
    }

    #[test]
    fn expander_types_stay_at_the_egress() {
        // decrypt doubles the traffic: the greedy must never pull it
        // toward the sources even with spare budget.
        let (g, flows) = tree_fixture();
        let chain = ChainSpec::from_ratios(&[("opt", 0.5), ("decrypt", 2.0)]);
        let (_dep, eval) = chain_gtp(&g, &flows, &chain, 8).unwrap();
        assert!(eval.feasible());
        // The decrypt instances in use should effectively sit at the
        // root: placing it anywhere earlier on a path would inflate
        // every downstream edge. The optimizer spreads to sources.
        let b_only_root_decrypt = {
            let mut d = ChainDeployment::empty(2, 8);
            for src in [3u32, 4, 6, 7] {
                d.insert(0, src);
            }
            d.insert(1, 0);
            d.insert(0, 0);
            evaluate_chain(&flows, &chain, &d).bandwidth
        };
        assert!(eval.bandwidth <= b_only_root_decrypt + 1e-9);
    }

    #[test]
    fn stack_model_picks_the_diminishing_prefix() {
        let chain = ChainSpec::from_ratios(&[("opt", 0.5), ("decrypt", 2.0), ("zip", 0.25)]);
        let m = ChainStackModel::new(&chain);
        // Ratios: 1, 0.5, 1.0, 0.25 → the full chain wins.
        assert_eq!(m.prefix_len(), 3);
        assert_eq!(m.saving(), 0.75);
        let chain = ChainSpec::from_ratios(&[("opt", 0.5), ("decrypt", 2.0)]);
        let m = ChainStackModel::new(&chain);
        assert_eq!(m.prefix_len(), 1, "the expander is left at the egress");
        assert_eq!(m.saving(), 0.5);
    }

    #[test]
    fn stacked_gtp_single_type_matches_core_gtp() {
        // A 1-type chain with ratio λ is exactly the paper's problem:
        // the stacked relaxation must reproduce core GTP bit for bit.
        use tdmd_core::algorithms::gtp::gtp_budgeted;
        use tdmd_core::objective::bandwidth_of;
        let (g, flows) = tree_fixture();
        let chain = ChainSpec::from_ratios(&[("m", 0.5)]);
        for k in 1..=5 {
            let (dep, eval) = chain_stacked_gtp(&g, &flows, &chain, k).unwrap();
            let inst = Instance::new(g.clone(), flows.clone(), 0.5, k).unwrap();
            let plan = gtp_budgeted(&inst, k).unwrap();
            assert_eq!(eval.bandwidth, bandwidth_of(&inst, &plan), "k={k}");
            for &v in plan.vertices() {
                assert!(dep.has(0, v), "k={k}: stack must sit on the GTP plan");
            }
        }
    }

    #[test]
    fn stacked_gtp_keeps_expanders_at_destinations() {
        let (g, flows) = tree_fixture();
        let chain = ChainSpec::from_ratios(&[("opt", 0.5), ("decrypt", 2.0)]);
        let (dep, eval) = chain_stacked_gtp(&g, &flows, &chain, 4).unwrap();
        assert!(eval.feasible());
        assert_eq!(dep.instances(1), &[0], "decrypt only at the root egress");
        // Optimizer at all four sources saves 0.5 of every edge:
        // total unprocessed is 24, so 12 remains.
        assert_eq!(eval.bandwidth, 12.0);
    }

    #[test]
    fn stacked_gtp_expander_only_chain_degenerates_to_egress() {
        let (g, flows) = tree_fixture();
        let chain = ChainSpec::from_ratios(&[("decrypt", 2.0)]);
        let (dep, eval) = chain_stacked_gtp(&g, &flows, &chain, 3).unwrap();
        assert!(eval.feasible());
        assert_eq!(dep.total_instances(), 1, "egress baseline only");
    }

    #[test]
    fn stacked_gtp_is_infeasible_when_k_cannot_cover() {
        let (g, flows) = tree_fixture();
        let chain = ChainSpec::from_ratios(&[("m", 0.5)]);
        // k = 0 cannot cover any flow with a stacked prefix.
        assert!(chain_stacked_gtp(&g, &flows, &chain, 0).is_err());
    }
}
