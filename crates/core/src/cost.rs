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
//! whole input and the one vertex → flow index of the solvers: one
//! flat CSR arena of `(flow, gain)` entries grouped by vertex, plus
//! per-flow weights `r_f · (1 − λ)`, unprocessed costs and path classes
//! (each distinct path stored once, with a second CSR of the classes
//! through each vertex), so the kernel's inner loops scan contiguous
//! memory and never read the [`Instance`]. Solvers that need the flows
//! crossing a vertex without a model (HAT, Best-effort's volume, the
//! capacitated matching, branch-and-bound) read a [`HopCount`] index,
//! whose gains are the downstream hop counts `l_v(f)`. Flows priced
//! elsewhere (the online engine's stored gains) compile through
//! [`FlowIndex::compile`] into the same index.
//!
//! Models always price each flow's current path. Under the joint
//! routing extension that path is one pick from the flow's
//! [`PathSets`](crate::instance::PathSets) candidates, and
//! [`Instance::set_active_paths`] switches it, so a [`FlowIndex`]
//! compiled before a switch is stale and must be recompiled — the
//! joint solver re-runs its placement rounds on the switched instance
//! for exactly this reason.

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
/// `r_f · (1 − λ)`, the unprocessed cost and its path class; per path
/// class, its path (one flat arena) and its size; for every vertex,
/// the classes crossing it (a second CSR); and whether the model
/// breaks gain ties by coverage.
///
/// A *path class* is one distinct path and the flows that follow it.
/// A box on `v` serves every flow whose path crosses `v`, so which
/// flows a deployment serves depends on paths alone: the feasibility
/// guard counts, covers and trials classes, not flows. Classes are
/// numbered in the order their path first appears among the flows.
///
/// Entry order within a vertex follows ascending flow id (flows are
/// indexed in order, and each visits a vertex at most once), which
/// pins the floating-point summation order of every aggregate below —
/// the greedy engines rely on this for reproducible tie-breaking.
/// Class rows ascend by class id the same way.
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
    /// Per-flow path class.
    class_of: Vec<u32>,
    /// Flows in each class.
    class_size: Vec<u32>,
    /// Class arena fence, length `class_count + 1`: class `c`'s path
    /// is `class_nodes[class_offsets[c] .. class_offsets[c + 1]]`.
    class_offsets: Vec<u32>,
    class_nodes: Vec<NodeId>,
    /// Class CSR row offsets, length `node_count + 1`: the classes
    /// whose path crosses `v` are `class_rows[class_row_offsets[v] ..
    /// class_row_offsets[v + 1]]`, ascending.
    class_row_offsets: Vec<u32>,
    class_rows: Vec<u32>,
    /// [`CostModel::coverage_tiebreak`] of the compiled model.
    coverage_ties: bool,
}

/// Every array of a [`FlowIndex`], for the structural auditor.
#[cfg(any(debug_assertions, feature = "audit", test))]
pub(crate) struct IndexParts<'a> {
    pub offsets: &'a [u32],
    pub entries: &'a [(u32, f64)],
    pub class_of: &'a [u32],
    pub class_size: &'a [u32],
    pub class_offsets: &'a [u32],
    pub class_nodes: &'a [NodeId],
    pub class_row_offsets: &'a [u32],
    pub class_rows: &'a [u32],
}

/// The path classes of a fill as it walks the flows: each new path is
/// appended to the class arena, and a flat open-addressing table maps
/// a path to its class. The table is built like the online engine's
/// flow-key index, not as a `HashMap` (the `map-iter-order` lint): a
/// power-of-two array probed linearly. A bucket packs the top half of
/// its class's path hash above the class id, so a probe compares paths
/// only on equal hashes and growth never hashes a path again.
struct Classes {
    /// Power-of-two bucket array; [`Classes::EMPTY`] ends a probe.
    table: Vec<u64>,
    size: Vec<u32>,
    offsets: Vec<u32>,
    nodes: Vec<NodeId>,
}

impl Classes {
    const EMPTY: u64 = u64::MAX;
    const MIN_CAPACITY: usize = 64;
    /// The table grows past one class per `LOAD` buckets.
    const LOAD: usize = 4;

    fn new() -> Self {
        Self {
            table: vec![Self::EMPTY; Self::MIN_CAPACITY],
            size: Vec::new(),
            offsets: vec![0],
            nodes: Vec::new(),
        }
    }

    /// One step of the FxHash-style path hash: fold `v` into `h`. The
    /// final multiply leaves the best-mixed bits on top, where
    /// [`Classes::home`] reads them.
    #[inline]
    fn mix(h: u64, v: NodeId) -> u64 {
        (h.rotate_left(5) ^ u64::from(v)).wrapping_mul(0x517c_c1b7_2722_0a95)
    }

    /// Home bucket of a bucket word (or hash) `h` in a table of `len`
    /// buckets: its top bits.
    #[inline]
    fn home(h: u64, len: usize) -> usize {
        // The shifted value is below `len`, so the narrowing is exact.
        (h >> (64 - len.trailing_zeros())) as usize
    }

    fn path(&self, c: u32) -> &[NodeId] {
        &self.nodes[ix(self.offsets[ix(c)])..ix(self.offsets[ix(c) + 1])]
    }

    /// The class of `path`, whose hash is `h`, opened when the path
    /// is new.
    #[inline]
    fn classify(&mut self, path: &[NodeId], h: u64) -> u32 {
        let tag = h & !u64::from(u32::MAX);
        let mask = self.table.len() - 1;
        let mut i = Self::home(h, self.table.len());
        loop {
            let word = self.table[i];
            if word == Self::EMPTY {
                break;
            }
            // The low half of a bucket word is its class id.
            let c = word as u32;
            if word & !u64::from(u32::MAX) == tag && same(self.path(c), path) {
                self.size[ix(c)] += 1;
                return c;
            }
            i = (i + 1) & mask;
        }
        let c = id32(self.size.len());
        self.table[i] = tag | u64::from(c);
        self.size.push(1);
        self.nodes.extend_from_slice(path);
        self.offsets.push(id32(self.nodes.len()));
        if Self::LOAD * self.size.len() > self.table.len() {
            self.grow();
        }
        c
    }

    /// Doubles the table, placing every class by its bucket word's
    /// hash half.
    fn grow(&mut self) {
        let len = 2 * self.table.len();
        let mut table = vec![Self::EMPTY; len];
        for &word in self.table.iter().filter(|&&w| w != Self::EMPTY) {
            let mut i = Self::home(word, len);
            while table[i] != Self::EMPTY {
                i = (i + 1) & (len - 1);
            }
            table[i] = word;
        }
        self.table = table;
    }
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

    /// The one fill: a walk classifying each flow's path, the rows
    /// sized from the classes, then a walk over the flows in id order
    /// with per-vertex write cursors.
    fn fill<S: IndexSource>(
        n: usize,
        lambda: f64,
        coverage_ties: bool,
        flows: impl Iterator<Item = S> + Clone,
    ) -> Self {
        let (hint, _) = flows.size_hint();
        let mut classes = Classes::new();
        let mut class_of = Vec::with_capacity(hint);
        for f in flows.clone() {
            let path = f.path();
            let h = path.iter().fold(0, |h, &v| Classes::mix(h, v));
            class_of.push(classes.classify(path, h));
        }
        // Row `v` holds every member of every class through `v`.
        let mut offsets = vec![0u32; n + 1];
        for c in 0..id32(classes.size.len()) {
            for &v in classes.path(c) {
                offsets[ix(v) + 1] += classes.size[ix(c)];
            }
        }
        for i in 1..=n {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut entries = vec![(0u32, 0.0f64); ix(offsets[n])];
        let mut weight = Vec::with_capacity(class_of.len());
        let mut path_cost = Vec::with_capacity(class_of.len());
        let factor = 1.0 - lambda;
        for (fi, f) in flows.enumerate() {
            let fi = id32(fi);
            weight.push(approx_f64(f.rate()) * factor);
            path_cost.push(f.cost());
            for (pos, &v) in f.path().iter().enumerate() {
                let slot = &mut cursor[ix(v)];
                entries[ix(*slot)] = (fi, f.gain(pos));
                *slot += 1;
            }
        }
        let (class_row_offsets, class_rows) = class_rows(n, &classes);
        Self {
            offsets,
            entries,
            weight,
            path_cost,
            class_of,
            class_size: classes.size,
            class_offsets: classes.offsets,
            class_nodes: classes.nodes,
            class_row_offsets,
            class_rows,
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

    /// The path of flow `f`: its class's path.
    #[inline]
    pub fn path(&self, f: u32) -> &[NodeId] {
        self.class_path(self.class_of[ix(f)])
    }

    /// The path class of flow `f`.
    #[inline]
    pub fn class_of(&self, f: u32) -> u32 {
        self.class_of[ix(f)]
    }

    /// The path every flow of class `c` follows.
    #[inline]
    pub fn class_path(&self, c: u32) -> &[NodeId] {
        let lo = ix(self.class_offsets[ix(c)]);
        let hi = ix(self.class_offsets[ix(c) + 1]);
        &self.class_nodes[lo..hi]
    }

    /// Number of flows in class `c`.
    #[inline]
    pub fn class_size(&self, c: u32) -> u32 {
        self.class_size[ix(c)]
    }

    /// Number of path classes: the distinct paths among the flows.
    #[inline]
    pub fn class_count(&self) -> usize {
        self.class_size.len()
    }

    /// The classes whose path crosses `v`, ascending.
    #[inline]
    pub fn classes_through(&self, v: NodeId) -> &[u32] {
        let lo = ix(self.class_row_offsets[ix(v)]);
        let hi = ix(self.class_row_offsets[ix(v) + 1]);
        &self.class_rows[lo..hi]
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

    /// Every array, for the structural auditor.
    #[cfg(any(debug_assertions, feature = "audit", test))]
    pub(crate) fn audit_parts(&self) -> IndexParts<'_> {
        IndexParts {
            offsets: &self.offsets,
            entries: &self.entries,
            class_of: &self.class_of,
            class_size: &self.class_size,
            class_offsets: &self.class_offsets,
            class_nodes: &self.class_nodes,
            class_row_offsets: &self.class_row_offsets,
            class_rows: &self.class_rows,
        }
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

#[inline]
fn same(a: &[NodeId], b: &[NodeId]) -> bool {
    a.len() == b.len() && a.iter().zip(b).fold(0, |acc, (x, y)| acc | (x ^ y)) == 0
}

/// The class CSR of `classes` over `n` vertices: a counting pass and
/// a pass walking classes in id order with per-vertex write cursors,
/// so every row ascends.
fn class_rows(n: usize, classes: &Classes) -> (Vec<u32>, Vec<u32>) {
    let mut offsets = vec![0u32; n + 1];
    for &v in &classes.nodes {
        offsets[ix(v) + 1] += 1;
    }
    for i in 1..=n {
        offsets[i] += offsets[i - 1];
    }
    let mut cursor: Vec<u32> = offsets[..n].to_vec();
    let mut rows = vec![0u32; classes.nodes.len()];
    for c in 0..id32(classes.size.len()) {
        for &v in classes.path(c) {
            let slot = &mut cursor[ix(v)];
            rows[ix(*slot)] = c;
            *slot += 1;
        }
    }
    (offsets, rows)
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
            assert_same_classes(&a, &b);
            assert_eq!(a.candidate_vertices(), inst.candidate_vertices());
        }
    }

    /// `a` and `b` hold the same path classes, class rows included.
    fn assert_same_classes(a: &FlowIndex, b: &FlowIndex) {
        assert_eq!(a.class_of, b.class_of);
        assert_eq!(a.class_size, b.class_size);
        assert_eq!(a.class_offsets, b.class_offsets);
        assert_eq!(a.class_nodes, b.class_nodes);
        assert_eq!(a.class_row_offsets, b.class_row_offsets);
        assert_eq!(a.class_rows, b.class_rows);
    }

    /// On random gateway and all-pairs instances, the index holds one
    /// class per distinct path, numbered in first-appearance order,
    /// each with its members and its path; a vertex's class row lists
    /// exactly the classes crossing it, ascending; and `compile`
    /// builds the same classes as `build`.
    #[test]
    fn classes_are_the_distinct_paths_in_first_appearance_order() {
        use crate::feasibility::tests::random_instance;
        use proptest::TestRng;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let seed = proptest::fnv1a("classes_are_the_distinct_paths_in_first_appearance_order");
        let mut shared = 0;
        for case in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(TestRng::for_case(seed, case).next_u64());
            let inst = random_instance(&mut rng);
            let index = FlowIndex::build(&inst, &HopCount);
            let mut paths: Vec<&[NodeId]> = Vec::new();
            let mut sizes: Vec<u32> = Vec::new();
            for f in inst.flows() {
                let c = match paths.iter().position(|&p| p == &f.path[..]) {
                    Some(c) => c,
                    None => {
                        paths.push(&f.path);
                        sizes.push(0);
                        paths.len() - 1
                    }
                };
                sizes[c] += 1;
                assert_eq!(index.class_of(f.id), id32(c), "case {case}, flow {}", f.id);
                assert_eq!(index.path(f.id), &f.path[..]);
            }
            assert_eq!(index.class_count(), paths.len(), "case {case}");
            for (c, (&path, &size)) in paths.iter().zip(&sizes).enumerate() {
                assert_eq!(index.class_path(id32(c)), path);
                assert_eq!(index.class_size(id32(c)), size);
            }
            for v in 0..inst.node_count() as NodeId {
                let crossing: Vec<u32> = (0..id32(paths.len()))
                    .filter(|&c| paths[ix(c)].contains(&v))
                    .collect();
                assert_eq!(
                    index.classes_through(v),
                    &crossing[..],
                    "case {case}, vertex {v}"
                );
            }
            assert_same_classes(&index, &compiled_by_hand(&inst, &HopCount));
            shared += usize::from(paths.len() < inst.flows().len());
        }
        assert!(shared > 0, "no instance had two flows on one path");
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
        short.class_offsets.pop();
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

    /// Fig. 1's graph with six flows on four paths: flows 0 and 2
    /// share a path, and so do flows 1 and 4.
    fn fig1_shared_paths() -> Instance {
        let fig1 = fig1_instance(2);
        let paths: [&[NodeId]; 6] = [
            &[4, 2, 0],
            &[5, 2, 1],
            &[4, 2, 0],
            &[3, 1],
            &[5, 2, 1],
            &[5, 1],
        ];
        let flows = paths
            .iter()
            .enumerate()
            .map(|(i, p)| Flow::new(id32(i), 1 + i as u64, p.to_vec()))
            .collect();
        Instance::new(fig1.graph().clone(), flows, 0.5, 2).unwrap()
    }

    /// One corruption per class check, each caught under its own name.
    #[test]
    fn structural_audit_catches_corrupt_classes() {
        use crate::audit::check_index;
        let inst = fig1_shared_paths();
        let clean = FlowIndex::build(&inst, &HopCount);
        check_index(&clean).unwrap();
        assert_eq!(clean.class_of, [0, 1, 0, 2, 1, 3]);
        assert_eq!(clean.class_size, [2, 2, 1, 1]);
        let check = |corrupt: &dyn Fn(&mut FlowIndex)| {
            let mut index = clean.clone();
            corrupt(&mut index);
            check_index(&index).unwrap_err().check
        };

        assert_eq!(check(&|x| x.class_nodes.push(0)), "index-class-fence");
        assert_eq!(check(&|x| x.class_rows.push(0)), "index-class-fence");
        assert_eq!(check(&|x| x.class_of[3] = 4), "index-class-bounds");
        assert_eq!(check(&|x| x.class_size[0] = 3), "index-class-sizes");
        // Flow 2 moved to class 1: both sizes disagree with `class_of`.
        assert_eq!(check(&|x| x.class_of[2] = 1), "index-class-sizes");
        // Class 3's path [5, 1] rewritten to class 2's [3, 1].
        assert_eq!(
            check(&|x| {
                let at = ix(x.class_offsets[3]);
                x.class_nodes[at] = 3;
            }),
            "index-class-distinct"
        );
        // Vertex 2 is crossed by classes 0 and 1.
        let at = ix(clean.class_row_offsets[2]);
        assert_eq!(clean.class_rows[at..at + 2], [0, 1]);
        assert_eq!(
            check(&|x| x.class_rows.swap(at, at + 1)),
            "index-class-rows"
        );
        // Class 2's path [3, 1] avoids vertex 2.
        assert_eq!(check(&|x| x.class_rows[at + 1] = 2), "index-class-rows");
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
}
