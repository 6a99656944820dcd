//! Pluggable objective pricing: the [`CostModel`] trait and the CSR
//! [`FlowIndex`] every greedy engine iterates over.
//!
//! The paper's objective (Eq. 1) prices a flow by its *hop count* and
//! credits a serving vertex `v` with the downstream hops `l_v(f)`.
//! Theorem 2's submodularity proof never uses the fact that the
//! per-position metric is a hop count — only that it is non-negative
//! and non-increasing along the path (traffic shrinks monotonically as
//! the middlebox moves downstream). Any pricing with that shape keeps
//! `d(P)` monotone submodular, so the same `(1 − 1/e)` greedy applies.
//! A [`CostModel`] captures exactly that contract:
//!
//! * [`CostModel::serving_gain`] — the metric credited for processing
//!   a flow at a path position (Eq. 1's `l_v(f)` generalized),
//! * [`CostModel::unprocessed_cost`] — the metric of a wholly
//!   unprocessed flow (Eq. 1's `|p_f|` generalized),
//! * [`CostModel::coverage_tiebreak`] — whether newly-covered flow
//!   count joins the greedy tie-break ladder.
//!
//! Three implementations live here or nearby: [`HopCount`] (the
//! paper's Eq. 1, unit edge weights), [`WeightedEdges`] (per-edge
//! weights, the repo's priced-links extension), and the chain-aware
//! stack model in the `tdmd-chain` crate. All three price a flow from
//! its rate and path alone, so the same model object serves a static
//! [`Instance`] and the online engine, which prices each arriving
//! flow once ([`CostModel::gains`]).
//!
//! A model is *compiled* into a [`FlowIndex`], the greedy kernel's
//! whole input: one flat CSR arena of `(flow, gain)` entries grouped
//! by vertex, plus per-flow weights `r_f · (1 − λ)`, unprocessed costs
//! and paths (one flat arena too), so the kernel's inner loops scan
//! contiguous memory and never read the [`Instance`]. Flows priced
//! elsewhere (the online engine's stored gains) compile through
//! [`FlowIndex::compile`] into the same index.
//!
//! Models always price the **active** path of each flow. Under the
//! joint routing extension a flow's active path is one pick from its
//! [`PathSets`](crate::instance::PathSets) candidates;
//! [`Instance::set_active_paths`] rebuilds the underlying vertex →
//! `(flow, l)` index after a switch, so a [`FlowIndex`] compiled
//! before the switch is stale and must be recompiled — the joint
//! solver re-runs its placement rounds on the fresh view for exactly
//! this reason.

use tdmd_graph::{DiGraph, NodeId};
use tdmd_traffic::Flow;

use crate::instance::Instance;
use crate::num::{approx_f64, id32, ix};
use crate::plan::Deployment;

/// A pricing of flow traffic along its path.
///
/// # Contract
///
/// For Theorem 2 (and hence the `(1 − 1/e)` guarantee of GTP) to
/// carry over, `serving_gain` must be non-negative and non-increasing
/// in `pos` for every flow, and `unprocessed_cost` must dominate every
/// serving gain of the same flow. Both [`HopCount`] and
/// [`WeightedEdges`] satisfy this by construction (suffix sums of
/// non-negative edge prices).
///
/// The online engine prices each arrival as `Flow::new(0, rate, path)`
/// (id 0, tenant 0), so a model it runs must price from the rate and
/// the path alone.
pub trait CostModel {
    /// Metric credited for serving `flow` at path position `pos`
    /// (0 = source). Eq. (1)'s downstream hop count `l_v(f)`,
    /// generalized.
    fn serving_gain(&self, flow: &Flow, pos: usize) -> f64;

    /// Metric of the wholly unprocessed flow — the serving gain at the
    /// source, i.e. Eq. (1)'s `|p_f|`, generalized.
    fn unprocessed_cost(&self, flow: &Flow) -> f64;

    /// Whether the greedy tie-break ladder should prefer candidates
    /// covering more previously-unserved flows before falling back to
    /// the smallest vertex id. The paper's GTP does (it accelerates
    /// feasibility); models built on exact re-evaluation may opt out.
    fn coverage_tiebreak(&self) -> bool {
        true
    }

    /// [`CostModel::serving_gain`] at every position of `flow`'s path,
    /// source first — bit for bit, so the vector the online engine
    /// stores at arrival prices the flow exactly as a static
    /// [`FlowIndex::build`] would.
    fn gains(&self, flow: &Flow) -> Vec<f64> {
        (0..flow.path.len())
            .map(|pos| self.serving_gain(flow, pos))
            .collect()
    }
}

/// The paper's Eq. (1) pricing: every edge costs 1, so a flow's
/// metric is its hop count and a serving vertex is credited its
/// downstream hop count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HopCount;

impl CostModel for HopCount {
    #[inline]
    fn serving_gain(&self, flow: &Flow, pos: usize) -> f64 {
        (flow.hops() - pos) as f64
    }

    #[inline]
    fn unprocessed_cost(&self, flow: &Flow) -> f64 {
        flow.hops() as f64
    }
}

/// Prebuilt `(u, v) → weight` lookup for a graph's directed edges.
///
/// `DiGraph` stores weights positionally (parallel to the adjacency
/// lists), so resolving one edge weight used to cost an `O(deg)`
/// neighbor scan — quadratic in degree when pricing whole paths. This
/// table is built once in `O(|E| log |E|)` and serves `O(log |E|)`
/// binary-search lookups from one contiguous, deterministically
/// ordered allocation (a `HashMap` here would be the lone
/// hash-ordered container in the solver core — see the
/// `map-iter-order` lint). With parallel edges the *first* occurrence
/// wins, matching the `position()`-based scan it replaces.
#[derive(Debug, Clone)]
pub struct EdgeWeights {
    /// `(u, v) → weight`, sorted by key, one entry per distinct edge.
    table: Vec<((NodeId, NodeId), f64)>,
}

impl EdgeWeights {
    /// Indexes every directed edge of `g`.
    pub fn new(g: &DiGraph) -> Self {
        let mut table: Vec<((NodeId, NodeId), f64)> = Vec::new();
        for u in 0..g.node_count() as NodeId {
            for (&v, &w) in g.out_neighbors(u).iter().zip(g.out_weights(u)) {
                table.push(((u, v), w as f64));
            }
        }
        // Stable sort + first-of-run dedup preserves adjacency order
        // among parallel edges, so the first occurrence's weight wins.
        table.sort_by_key(|&(key, _)| key);
        table.dedup_by_key(|&mut (key, _)| key);
        Self { table }
    }

    /// Weight of the directed edge `u → v`.
    ///
    /// # Panics
    /// Panics if the edge does not exist; callers only price edges of
    /// validated flow paths.
    #[inline]
    pub fn get(&self, u: NodeId, v: NodeId) -> f64 {
        let i = self
            .table
            .binary_search_by_key(&(u, v), |&(key, _)| key)
            .expect("edge weight lookup on a non-edge; flow paths are validated");
        self.table[i].1
    }
}

/// Weighted-edge pricing: each path edge costs its graph weight, and a
/// serving vertex is credited the *downstream weight* — the sum of
/// edge weights from its position to the destination (a suffix sum,
/// so the metric is non-increasing along the path as Theorem 2
/// requires).
///
/// The model holds only the graph's [`EdgeWeights`], so it prices any
/// flow of that graph by its path, whatever the flow's id: one object
/// serves a static [`Instance`] and an online stream alike.
#[derive(Debug, Clone)]
pub struct WeightedEdges {
    weights: EdgeWeights,
}

impl WeightedEdges {
    /// Prices paths of `g` by its edge weights, indexed once in
    /// `O(|E| log |E|)`.
    pub fn new(g: &DiGraph) -> Self {
        Self {
            weights: EdgeWeights::new(g),
        }
    }
}

impl CostModel for WeightedEdges {
    /// The suffix sum from `pos` to the destination, accumulated from
    /// the destination backward, so every position reproduces the same
    /// float it would get from one backward pass over the whole path.
    #[inline]
    fn serving_gain(&self, flow: &Flow, pos: usize) -> f64 {
        flow.path[pos..]
            .windows(2)
            .rev()
            .fold(0.0, |down, w| down + self.weights.get(w[0], w[1]))
    }

    #[inline]
    fn unprocessed_cost(&self, flow: &Flow) -> f64 {
        self.serving_gain(flow, 0)
    }
}

/// Per-tenant weighting adapter over any [`CostModel`]: every metric
/// of a flow is multiplied by its tenant's weight, so placement
/// optimizes *weighted* bandwidth (premium tenants pull middleboxes
/// toward their paths in proportion to their weight).
///
/// The Theorem 2 contract survives: multiplying a flow's whole gain
/// profile by one non-negative constant keeps it non-negative,
/// non-increasing along the path, and dominated by the (equally
/// scaled) unprocessed cost — so the `(1 − 1/e)` greedy guarantee
/// applies to the weighted objective unchanged.
///
/// Weights are indexed by [`Flow::tenant`]; tenants beyond the table
/// fall back to the neutral weight `1.0`. With every weight exactly
/// `1.0` the adapter is *bitwise* transparent (IEEE 754 guarantees
/// `1.0 * x == x` for every finite `x`), so single-tenant pipelines
/// can wrap unconditionally without perturbing placement.
#[derive(Debug, Clone)]
pub struct TenantCostModel<M> {
    inner: M,
    weights: Vec<f64>,
}

impl<M: CostModel> TenantCostModel<M> {
    /// Wraps `inner`, weighting tenant `t` by `weights[t]` (missing
    /// entries weigh `1.0`).
    ///
    /// # Panics
    /// Panics if any weight is negative or non-finite (the Theorem 2
    /// contract needs non-negative gains).
    pub fn new(inner: M, weights: Vec<f64>) -> Self {
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "tenant weights must be finite and non-negative"
        );
        Self { inner, weights }
    }

    /// The weight applied to `tenant`'s flows.
    #[inline]
    pub fn weight_of(&self, tenant: tdmd_traffic::TenantId) -> f64 {
        self.weights
            .get(usize::from(tenant))
            .copied()
            .unwrap_or(1.0)
    }

    /// The wrapped model.
    #[inline]
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: CostModel> CostModel for TenantCostModel<M> {
    #[inline]
    fn serving_gain(&self, flow: &Flow, pos: usize) -> f64 {
        self.weight_of(flow.tenant) * self.inner.serving_gain(flow, pos)
    }

    #[inline]
    fn unprocessed_cost(&self, flow: &Flow) -> f64 {
        self.weight_of(flow.tenant) * self.inner.unprocessed_cost(flow)
    }

    #[inline]
    fn coverage_tiebreak(&self) -> bool {
        self.inner.coverage_tiebreak()
    }
}

/// One flow as a caller hands it to [`FlowIndex::compile`]: its rate,
/// its path, the serving gain at each path position and the cost of
/// the wholly unprocessed flow, already priced.
#[derive(Debug, Clone, Copy)]
pub struct PricedFlow<'a> {
    /// Rate `r_f`.
    pub rate: u64,
    /// Path `p_f`, source first.
    pub path: &'a [NodeId],
    /// `gains[i]` is the serving gain at `path[i]`.
    pub gains: &'a [f64],
    /// Unprocessed cost of the whole path.
    pub cost: f64,
}

/// What the index fill reads of one flow.
trait IndexSource {
    fn rate(&self) -> u64;
    fn path(&self) -> &[NodeId];
    fn gain(&self, pos: usize) -> f64;
    fn cost(&self) -> f64;
}

impl IndexSource for PricedFlow<'_> {
    fn rate(&self) -> u64 {
        self.rate
    }

    fn path(&self) -> &[NodeId] {
        self.path
    }

    fn gain(&self, pos: usize) -> f64 {
        self.gains[pos]
    }

    fn cost(&self) -> f64 {
        self.cost
    }
}

/// An instance flow priced by a model as the fill asks.
struct Modeled<'a, M: ?Sized> {
    flow: &'a Flow,
    model: &'a M,
}

impl<M: CostModel + ?Sized> IndexSource for Modeled<'_, M> {
    fn rate(&self) -> u64 {
        self.flow.rate
    }

    fn path(&self) -> &[NodeId] {
        &self.flow.path
    }

    fn gain(&self, pos: usize) -> f64 {
        self.model.serving_gain(self.flow, pos)
    }

    fn cost(&self) -> f64 {
        self.model.unprocessed_cost(self.flow)
    }
}

/// A priced workload compiled for the greedy kernel, which reads
/// nothing else: for every vertex, the flows crossing it with their
/// serving gains, stored as one flat CSR arena (`offsets[v] ..
/// offsets[v + 1]` slices `entries`); per flow, the weight
/// `r_f · (1 − λ)`, the unprocessed cost and the path (one flat arena
/// too); and whether the model breaks gain ties by coverage.
///
/// Entry order within a vertex follows ascending flow id (flows are
/// indexed in order, and each visits a vertex at most once), which
/// pins the floating-point summation order of every aggregate below —
/// the greedy engines rely on this for reproducible tie-breaking.
#[derive(Debug, Clone)]
pub struct FlowIndex {
    /// CSR row offsets, length `node_count + 1`.
    offsets: Vec<u32>,
    /// `(flow id, serving gain)` entries grouped by vertex.
    entries: Vec<(u32, f64)>,
    /// Per-flow `r_f · (1 − λ)`, indexed by dense flow id.
    weight: Vec<f64>,
    /// Per-flow unprocessed cost, indexed by dense flow id.
    path_cost: Vec<f64>,
    /// Path arena fence, length `flow_count + 1`: flow `f`'s path is
    /// `path_nodes[path_offsets[f] .. path_offsets[f + 1]]`.
    path_offsets: Vec<u32>,
    path_nodes: Vec<NodeId>,
    /// [`CostModel::coverage_tiebreak`] of the compiled model.
    coverage_ties: bool,
}

impl FlowIndex {
    /// Compiles `model` against `instance`.
    pub fn build<M: CostModel + ?Sized>(instance: &Instance, model: &M) -> Self {
        Self::fill(
            instance.node_count(),
            instance.lambda(),
            model.coverage_tiebreak(),
            instance.flows().iter().map(|flow| Modeled { flow, model }),
        )
    }

    /// Compiles flows the caller has already priced, numbered `0..` in
    /// iteration order, over `node_count` vertices with
    /// traffic-changing ratio `lambda`. `coverage_tiebreak` plays the
    /// role of [`CostModel::coverage_tiebreak`]. Equal to
    /// [`FlowIndex::build`] when the flows, gains and costs are the
    /// ones `build` would price.
    ///
    /// The flows must be valid: positive rates, simple paths of at
    /// least two vertices, gains that obey the [`CostModel`] contract.
    ///
    /// # Panics
    /// Panics if a path vertex is not below `node_count` or a flow has
    /// fewer gains than path positions.
    pub fn compile<'a, I>(node_count: usize, lambda: f64, coverage_tiebreak: bool, flows: I) -> Self
    where
        I: IntoIterator<Item = PricedFlow<'a>>,
        I::IntoIter: Clone,
    {
        Self::fill(node_count, lambda, coverage_tiebreak, flows.into_iter())
    }

    /// The one fill: a counting pass sizing each CSR row, then a pass
    /// walking flows in id order with per-vertex write cursors.
    fn fill<S: IndexSource>(
        n: usize,
        lambda: f64,
        coverage_ties: bool,
        flows: impl Iterator<Item = S> + Clone,
    ) -> Self {
        let mut offsets = vec![0u32; n + 1];
        let mut flow_count = 0usize;
        for f in flows.clone() {
            for &v in f.path() {
                offsets[ix(v) + 1] += 1;
            }
            flow_count += 1;
        }
        for i in 1..=n {
            offsets[i] += offsets[i - 1];
        }
        let total = ix(offsets[n]);
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut entries = vec![(0u32, 0.0f64); total];
        let mut weight = Vec::with_capacity(flow_count);
        let mut path_cost = Vec::with_capacity(flow_count);
        let mut path_offsets = Vec::with_capacity(flow_count + 1);
        let mut path_nodes = Vec::with_capacity(total);
        path_offsets.push(0u32);
        let factor = 1.0 - lambda;
        for (fi, f) in flows.enumerate() {
            let fi = id32(fi);
            weight.push(approx_f64(f.rate()) * factor);
            path_cost.push(f.cost());
            let path = f.path();
            for (pos, &v) in path.iter().enumerate() {
                let slot = &mut cursor[ix(v)];
                entries[ix(*slot)] = (fi, f.gain(pos));
                *slot += 1;
            }
            path_nodes.extend_from_slice(path);
            path_offsets.push(id32(path_nodes.len()));
        }
        Self {
            offsets,
            entries,
            weight,
            path_cost,
            path_offsets,
            path_nodes,
            coverage_ties,
        }
    }

    /// Flows crossing `v` with their serving gains at that position.
    #[inline]
    pub fn flows_through(&self, v: NodeId) -> &[(u32, f64)] {
        let lo = ix(self.offsets[ix(v)]);
        let hi = ix(self.offsets[ix(v) + 1]);
        &self.entries[lo..hi]
    }

    /// Unprocessed cost of flow `f` (the model's `|p_f|` analogue).
    #[inline]
    pub fn path_cost(&self, f: u32) -> f64 {
        self.path_cost[ix(f)]
    }

    /// `r_f · (1 − λ)`: what one unit of serving gain saves on flow
    /// `f`.
    #[inline]
    pub fn weight(&self, f: u32) -> f64 {
        self.weight[ix(f)]
    }

    /// The path of flow `f`.
    #[inline]
    pub fn path(&self, f: u32) -> &[NodeId] {
        let lo = ix(self.path_offsets[ix(f)]);
        let hi = ix(self.path_offsets[ix(f) + 1]);
        &self.path_nodes[lo..hi]
    }

    /// Number of flows indexed.
    #[inline]
    pub fn flow_count(&self) -> usize {
        self.path_cost.len()
    }

    /// Number of vertices indexed.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the greedy breaks gain ties by newly-covered flows
    /// ([`CostModel::coverage_tiebreak`] of the compiled model).
    #[inline]
    pub fn coverage_tiebreak(&self) -> bool {
        self.coverage_ties
    }

    /// Vertices that lie on at least one flow path — the only useful
    /// middlebox locations.
    pub fn candidate_vertices(&self) -> Vec<NodeId> {
        (0..id32(self.node_count()))
            .filter(|&v| self.offsets[ix(v)] < self.offsets[ix(v) + 1])
            .collect()
    }

    /// The row fence and the row arena, for the structural auditor.
    #[cfg(any(debug_assertions, feature = "audit", test))]
    pub(crate) fn audit_rows(&self) -> (&[u32], &[(u32, f64)]) {
        (&self.offsets, &self.entries)
    }

    /// The path fence and the path arena, for the structural auditor.
    #[cfg(any(debug_assertions, feature = "audit", test))]
    pub(crate) fn audit_paths(&self) -> (&[u32], &[NodeId]) {
        (&self.path_offsets, &self.path_nodes)
    }

    /// Total cost with no middleboxes: `Σ r_f · cost(p_f)`.
    pub fn unprocessed(&self, instance: &Instance) -> f64 {
        instance
            .flows()
            .iter()
            .map(|f| f.rate as f64 * self.path_cost[f.id as usize])
            .sum()
    }

    /// Best (largest) serving gain each flow attains over the
    /// deployment, or `None` for unserved flows.
    pub fn best_down(&self, deployment: &Deployment) -> Vec<Option<f64>> {
        let mut best: Vec<Option<f64>> = vec![None; self.path_cost.len()];
        for &v in deployment.vertices() {
            for &(fi, g) in self.flows_through(v) {
                let slot = &mut best[fi as usize];
                if slot.is_none_or(|b| g > b) {
                    *slot = Some(g);
                }
            }
        }
        best
    }

    /// Total cost under `deployment`: each served flow saves
    /// `r_f · (1 − λ) · gain` off its unprocessed cost.
    pub fn bandwidth_of(&self, instance: &Instance, deployment: &Deployment) -> f64 {
        let factor = 1.0 - instance.lambda();
        let best = self.best_down(deployment);
        instance
            .flows()
            .iter()
            .map(|f| {
                let full = f.rate as f64 * self.path_cost[f.id as usize];
                match best[f.id as usize] {
                    Some(g) => full - f.rate as f64 * factor * g,
                    None => full,
                }
            })
            .sum()
    }

    /// Marginal decrement of adding `v` when each flow's best gain so
    /// far is `current[f]` (0.0 for unserved flows): Def. 2
    /// generalized to the compiled model. `instance` must be the one
    /// the index was built from; only debug builds look at it.
    pub fn marginal_decrement(&self, instance: &Instance, current: &[f64], v: NodeId) -> f64 {
        debug_assert_eq!(self.flow_count(), instance.flows().len());
        debug_assert_eq!(self.node_count(), instance.node_count());
        self.decrement(current, v)
    }

    /// [`FlowIndex::marginal_decrement`] from the index alone.
    #[inline]
    pub(crate) fn decrement(&self, current: &[f64], v: NodeId) -> f64 {
        self.flows_through(v)
            .iter()
            .filter(|&&(fi, g)| g > current[ix(fi)])
            .map(|&(fi, g)| self.weight[ix(fi)] * (g - current[ix(fi)]))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::gtp::{gtp_budgeted, gtp_budgeted_with};
    use crate::objective::bandwidth_of;
    use crate::paper::fig1_instance;
    use tdmd_graph::GraphBuilder;

    #[test]
    fn hop_count_matches_flow_hops() {
        let inst = fig1_instance(2);
        for f in inst.flows() {
            assert_eq!(HopCount.unprocessed_cost(f), f.hops() as f64);
            for pos in 0..f.path.len() {
                assert_eq!(HopCount.serving_gain(f, pos), (f.hops() - pos) as f64);
            }
        }
    }

    #[test]
    fn neutral_tenant_weights_are_bitwise_transparent() {
        let inst = fig1_instance(2);
        let model = TenantCostModel::new(HopCount, vec![1.0; 4]);
        for f in inst.flows() {
            assert_eq!(
                model.unprocessed_cost(f).to_bits(),
                HopCount.unprocessed_cost(f).to_bits()
            );
            for pos in 0..f.path.len() {
                assert_eq!(
                    model.serving_gain(f, pos).to_bits(),
                    HopCount.serving_gain(f, pos).to_bits(),
                    "flow {} pos {pos}",
                    f.id
                );
            }
        }
        assert!(model.coverage_tiebreak());
    }

    #[test]
    fn missing_tenants_fall_back_to_weight_one() {
        let model = TenantCostModel::new(HopCount, vec![2.0]);
        assert_eq!(model.weight_of(0), 2.0);
        assert_eq!(model.weight_of(7), 1.0);
        let f = Flow::new(0, 3, vec![0, 1, 2]).with_tenant(7);
        assert_eq!(
            model.serving_gain(&f, 0).to_bits(),
            HopCount.serving_gain(&f, 0).to_bits()
        );
    }

    #[test]
    fn tenant_weights_scale_the_metric() {
        let model = TenantCostModel::new(HopCount, vec![1.0, 3.0]);
        let f = Flow::new(0, 2, vec![0, 1, 2]).with_tenant(1);
        assert_eq!(model.unprocessed_cost(&f), 6.0);
        assert_eq!(model.serving_gain(&f, 1), 3.0);
        assert_eq!(model.inner().serving_gain(&f, 1), 1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_tenant_weights_are_rejected() {
        TenantCostModel::new(HopCount, vec![1.0, -0.5]);
    }

    #[test]
    fn unit_weight_edges_price_like_hops() {
        // fig1's builder uses unit weights, so the weighted suffix
        // sums must coincide with downstream hop counts exactly.
        let inst = fig1_instance(2);
        let weighted = WeightedEdges::new(inst.graph());
        for f in inst.flows() {
            for pos in 0..f.path.len() {
                assert_eq!(
                    weighted.serving_gain(f, pos),
                    HopCount.serving_gain(f, pos),
                    "flow {} pos {pos}",
                    f.id
                );
            }
        }
    }

    #[test]
    fn weighted_edges_price_by_path_not_by_id() {
        // The line 3 -> 2 -> 1 -> 0 weighs 1, 10, 1 and holds one flow.
        let inst = weighted_line(1);
        let model = WeightedEdges::new(inst.graph());
        let long = Flow::new(0, 2, vec![3, 2, 1, 0]);
        let short = Flow::new(0, 2, vec![1, 2, 3]);
        assert_eq!(model.gains(&long), vec![12.0, 11.0, 1.0, 0.0]);
        assert_eq!(model.gains(&short), vec![11.0, 1.0, 0.0]);
        assert_eq!(model.unprocessed_cost(&short), 11.0);
        let stray = Flow::new(99, 5, vec![2, 1]);
        assert!(ix(stray.id) >= inst.flows().len());
        assert_eq!(model.gains(&stray), vec![10.0, 0.0]);
        assert_eq!(model.unprocessed_cost(&stray), 10.0);
    }

    /// Prices `inst`'s flows with `model` by hand and compiles them.
    fn compiled_by_hand<M: CostModel>(inst: &Instance, model: &M) -> FlowIndex {
        let gains: Vec<Vec<f64>> = inst.flows().iter().map(|f| model.gains(f)).collect();
        FlowIndex::compile(
            inst.node_count(),
            inst.lambda(),
            model.coverage_tiebreak(),
            inst.flows().iter().zip(&gains).map(|(f, g)| PricedFlow {
                rate: f.rate,
                path: &f.path,
                gains: g,
                cost: model.unprocessed_cost(f),
            }),
        )
    }

    #[test]
    fn compile_equals_build_bit_for_bit() {
        let fig1 = fig1_instance(2);
        let line = weighted_line(1).with_lambda(0.3);
        let weighted = WeightedEdges::new(line.graph());
        for (inst, a, b) in [
            (
                &fig1,
                FlowIndex::build(&fig1, &HopCount),
                compiled_by_hand(&fig1, &HopCount),
            ),
            (
                &line,
                FlowIndex::build(&line, &weighted),
                compiled_by_hand(&line, &weighted),
            ),
        ] {
            assert_eq!(a.node_count(), b.node_count());
            assert_eq!(a.flow_count(), b.flow_count());
            for v in 0..inst.node_count() as NodeId {
                let bits = |x: &FlowIndex| -> Vec<(u32, u64)> {
                    x.flows_through(v)
                        .iter()
                        .map(|&(f, g)| (f, g.to_bits()))
                        .collect()
                };
                assert_eq!(bits(&a), bits(&b));
            }
            for f in inst.flows() {
                assert_eq!(a.weight(f.id).to_bits(), b.weight(f.id).to_bits());
                assert_eq!(a.path_cost(f.id).to_bits(), b.path_cost(f.id).to_bits());
                assert_eq!(a.path(f.id), &f.path[..]);
                assert_eq!(b.path(f.id), &f.path[..]);
            }
            assert_eq!(a.candidate_vertices(), inst.candidate_vertices());
        }
    }

    #[test]
    fn weights_fold_rate_and_lambda() {
        let inst = weighted_line(1).with_lambda(0.3);
        let index = FlowIndex::build(&inst, &HopCount);
        // Bitwise the product `marginal_decrement` used to form.
        assert_eq!(index.weight(0).to_bits(), (2.0 * (1.0 - 0.3f64)).to_bits());
        let cur = vec![0.0];
        assert_eq!(
            index.marginal_decrement(&inst, &cur, 3).to_bits(),
            (2.0 * (1.0 - 0.3f64) * 3.0).to_bits()
        );
    }

    #[test]
    fn structural_audit_accepts_a_clean_index_and_catches_corruption() {
        use crate::audit::{check_index, check_index_solution};
        let inst = fig1_instance(2);
        let clean = FlowIndex::build(&inst, &HopCount);
        check_index(&clean).unwrap();
        let (lo, _) = clean
            .offsets
            .windows(2)
            .map(|w| (w[0] as usize, w[1] as usize))
            .find(|&(lo, hi)| hi - lo >= 2)
            .expect("fig1 has a multi-flow row");

        let mut swapped = clean.clone();
        swapped.entries.swap(lo, lo + 1);
        assert_eq!(check_index(&swapped).unwrap_err().check, "index-row-sorted");

        // Flow 0's path misses some vertex whose row we point at it.
        let mut offpath = clean.clone();
        let v = (0..inst.node_count() as NodeId)
            .find(|&v| {
                !inst.flows()[0].path.contains(&v)
                    && clean.flows_through(v).first().is_some_and(|e| e.0 > 0)
            })
            .expect("some row starts past flow 0 off its path");
        let at = clean.offsets[v as usize] as usize;
        offpath.entries[at].0 = 0;
        assert_eq!(
            check_index(&offpath).unwrap_err().check,
            "index-entry-offpath"
        );

        let mut short = clean.clone();
        short.path_offsets.pop();
        assert_eq!(check_index(&short).unwrap_err().check, "index-shape");

        // The solution audit: {v5} alone strands f3.
        let partial = Deployment::from_vertices(6, [4]);
        assert_eq!(
            check_index_solution(&clean, &partial, 2).unwrap_err().check,
            "flow-unserved"
        );
        let full = Deployment::from_vertices(6, [1, 4]);
        check_index_solution(&clean, &full, 2).unwrap();
        assert_eq!(
            check_index_solution(&clean, &full, 1).unwrap_err().check,
            "deployment-over-budget"
        );
    }

    #[test]
    fn csr_index_matches_instance_index() {
        // The f64 CSR compiled from HopCount must mirror the u32 hop
        // index stored on the instance, entry for entry.
        let inst = fig1_instance(2);
        let index = FlowIndex::build(&inst, &HopCount);
        for v in 0..inst.node_count() as NodeId {
            let ours = index.flows_through(v);
            let theirs = inst.flows_through(v);
            assert_eq!(ours.len(), theirs.len(), "vertex {v}");
            for (&(fi, g), &(fj, l)) in ours.iter().zip(theirs) {
                assert_eq!(fi, fj);
                assert_eq!(g, l as f64);
            }
        }
    }

    #[test]
    fn bandwidth_of_matches_hop_objective() {
        let inst = fig1_instance(2);
        let index = FlowIndex::build(&inst, &HopCount);
        let dep = Deployment::from_vertices(inst.node_count(), [4, 1]);
        assert_eq!(index.bandwidth_of(&inst, &dep), 12.0);
        assert_eq!(
            index.unprocessed(&inst),
            inst.unprocessed_bandwidth(),
            "empty deployment degenerates to the raw load"
        );
    }

    #[test]
    fn edge_weights_resolve_in_constant_time_tables() {
        let inst = fig1_instance(2);
        let w = EdgeWeights::new(inst.graph());
        for f in inst.flows() {
            for pair in f.path.windows(2) {
                assert_eq!(w.get(pair[0], pair[1]), 1.0, "fig1 uses unit weights");
            }
        }
    }

    #[test]
    fn marginal_decrement_matches_table2() {
        // Table 2 of the paper, λ = 0.5: first-round marginals.
        let inst = fig1_instance(2);
        let index = FlowIndex::build(&inst, &HopCount);
        let cur = vec![0.0; inst.flows().len()];
        let expected = [0.0, 0.0, 3.0, 1.0, 4.0, 3.0];
        for (v, &want) in expected.iter().enumerate() {
            assert_eq!(index.marginal_decrement(&inst, &cur, v as NodeId), want);
        }
    }

    /// Line 3 -> 2 -> 1 -> 0 with one expensive middle link.
    fn weighted_line(k: usize) -> Instance {
        let mut b = GraphBuilder::new(4);
        b.add_bidirectional_weighted(3, 2, 1);
        b.add_bidirectional_weighted(2, 1, 10);
        b.add_bidirectional_weighted(1, 0, 1);
        let g = b.build();
        let flows = vec![Flow::new(0, 2, vec![3, 2, 1, 0])];
        Instance::new(g, flows, 0.5, k).unwrap()
    }

    #[test]
    fn weighted_path_costs_are_suffix_sums() {
        let inst = weighted_line(1);
        let index = FlowIndex::build(&inst, &WeightedEdges::new(inst.graph()));
        assert_eq!(index.path_cost(0), 12.0);
        assert_eq!(index.unprocessed(&inst), 24.0);
    }

    #[test]
    fn weighted_objective_prices_the_expensive_link() {
        let inst = weighted_line(1);
        let index = FlowIndex::build(&inst, &WeightedEdges::new(inst.graph()));
        // Box at the source: everything diminished: 0.5·2·12 = 12.
        assert_eq!(
            index.bandwidth_of(&inst, &Deployment::from_vertices(4, [3])),
            12.0
        );
        // Box at vertex 2: first (cheap) link full rate, rest halved:
        // 2·1 + 0.5·2·11 = 13.
        assert_eq!(
            index.bandwidth_of(&inst, &Deployment::from_vertices(4, [2])),
            13.0
        );
        // Box at vertex 1: both heavy links full rate: 2·11 + 0.5·2·1 = 23.
        assert_eq!(
            index.bandwidth_of(&inst, &Deployment::from_vertices(4, [1])),
            23.0
        );
    }

    #[test]
    fn weighted_gtp_picks_the_source_on_the_line() {
        let inst = weighted_line(1);
        let d = gtp_budgeted_with(&inst, 1, &WeightedEdges::new(inst.graph())).unwrap();
        assert_eq!(d.vertices(), &[3]);
    }

    #[test]
    fn weighted_gtp_diverges_from_hop_greedy_when_it_should() {
        // Three flows, k = 2: a 3-hop cheap metro flow, a 2-hop cheap
        // access flow, and a flow over a 100-cost satellite uplink.
        // Hop-greedy spends its free pick on the 3-hop flow and covers
        // the rest at the shared vertex; cost-greedy grabs the
        // satellite source and is forced to cover the others at the
        // root. The final deployments differ.
        let mut b = GraphBuilder::new(7);
        b.add_bidirectional_weighted(0, 1, 1);
        b.add_bidirectional_weighted(1, 2, 1);
        b.add_bidirectional_weighted(2, 3, 1);
        b.add_bidirectional_weighted(0, 4, 1);
        b.add_bidirectional_weighted(4, 5, 1);
        b.add_bidirectional_weighted(4, 6, 100);
        let g = b.build();
        let flows = vec![
            Flow::new(0, 1, vec![3, 2, 1, 0]),
            Flow::new(1, 1, vec![5, 4, 0]),
            Flow::new(2, 1, vec![6, 4, 0]),
        ];
        let inst = Instance::new(g, flows, 0.5, 2).unwrap();
        let model = WeightedEdges::new(inst.graph());
        let index = FlowIndex::build(&inst, &model);
        let w = gtp_budgeted_with(&inst, 2, &model).unwrap();
        let u = gtp_budgeted(&inst, 2).unwrap();
        assert_ne!(w, u, "the plans must differ");
        assert!(
            w.contains(6),
            "cost-greedy must cover the satellite at its source"
        );
        assert!(
            index.bandwidth_of(&inst, &w) < index.bandwidth_of(&inst, &u),
            "cost-greedy must win on the weighted objective"
        );
        assert!(
            bandwidth_of(&inst, &u) < bandwidth_of(&inst, &w),
            "hop-greedy must win on the hop objective"
        );
    }

    #[test]
    fn weighted_infeasibility_matches_unweighted() {
        let inst = fig1_instance(1);
        assert!(gtp_budgeted_with(&inst, 1, &WeightedEdges::new(inst.graph())).is_err());
        assert!(gtp_budgeted(&inst, 1).is_err());
    }

    mod tenant_props {
        use super::*;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use tdmd_graph::generators::random::erdos_renyi_connected;
        use tdmd_traffic::tenant::{gravity_workload, GravityConfig, TenantProfile};

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Satellite pin: with every tenant weighted `1.0`, the
            /// wrapped model compiles to a bitwise-identical CSR and
            /// GTP picks the identical deployment on the default
            /// (gravity) multi-tenant workload.
            #[test]
            fn weight_one_model_is_bitwise_equal_on_gravity_workload(seed in any::<u64>()) {
                let mut rng = StdRng::seed_from_u64(seed);
                let g = erdos_renyi_connected(16, 0.25, &mut rng);
                let cfg = GravityConfig::with_total_rate(20_000)
                    .tenants(TenantProfile::uniform(3));
                let flows =
                    gravity_workload(&g, &[1, 2, 3, 5], &[0, 4], &cfg, &mut rng);
                prop_assume!(!flows.is_empty());
                let inst = Instance::new(g, flows, 0.5, 3).expect("gravity flows are valid");
                let neutral = TenantCostModel::new(HopCount, vec![1.0; 3]);
                let a = FlowIndex::build(&inst, &HopCount);
                let b = FlowIndex::build(&inst, &neutral);
                for v in 0..inst.node_count() as NodeId {
                    let (xs, ys) = (a.flows_through(v), b.flows_through(v));
                    prop_assert_eq!(xs.len(), ys.len());
                    for (&(fi, gi), &(fj, gj)) in xs.iter().zip(ys) {
                        prop_assert_eq!(fi, fj);
                        prop_assert_eq!(gi.to_bits(), gj.to_bits(), "vertex {}", v);
                    }
                }
                let plain = gtp_budgeted_with(&inst, 3, &HopCount);
                let wrapped = gtp_budgeted_with(&inst, 3, &neutral);
                match (plain, wrapped) {
                    (Ok(p), Ok(w)) => prop_assert_eq!(p.vertices(), w.vertices()),
                    (Err(_), Err(_)) => {}
                    (p, w) => prop_assert!(false, "feasibility diverged: {:?} vs {:?}", p, w),
                }
            }
        }
    }
}
