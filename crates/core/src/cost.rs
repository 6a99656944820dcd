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
//! its path alone, as the contract requires, so the same model object
//! serves a static [`Instance`] and the online engine, which prices
//! each arriving flow once ([`CostModel::gains`]).
//!
//! A model is *compiled* into a [`FlowIndex`], the greedy kernel's
//! whole input and the one vertex → flow index of the solvers. Eq. 1
//! and Def. 2 see a flow only through its path and its rate, so the
//! index works on *path classes*: the flows that follow one path share
//! every gain and every best-so-far gain, and a class stands for all
//! of them, weighted by its exact rate sum. One flat CSR arena holds
//! `(class, gain)` entries grouped by vertex, as two parallel arrays;
//! per class the index
//! keeps the path, the unprocessed cost, the member count, the rate
//! sum and the weight `R_c · (1 − λ)`; per flow only its class. The
//! kernel's inner loops scan contiguous memory and never read the
//! [`Instance`]. Solvers that need the flows crossing a vertex without
//! a model (HAT, Best-effort's volume, the capacitated matching,
//! branch-and-bound) read a [`HopCount`] index, whose gains are the
//! downstream hop counts `l_v(f)`. Flows priced elsewhere compile
//! through [`FlowIndex::compile`] into the same layout, and a caller
//! that already keeps its flows in classes (the online engine's live
//! path classes) hands over each flow's class and one priced class per
//! number through [`FlowIndex::compile_classified`], which reads no
//! flow's path. Both front ends share one row builder. `build` and
//! `compile` find each flow's class in the crate's one open-addressing
//! table ([`IdTable`]) under its [`ClassKey`], the key the online
//! engine's live classes are filed under too.
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
use crate::num::{id32, ix, rate_sum_f64};
use crate::plan::Deployment;
use crate::table::IdTable;

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
/// A model prices from the path alone: two flows on the same path get
/// the same gains and the same cost, bit for bit, whatever their ids,
/// rates or tenants. [`FlowIndex::build`] relies on it, pricing each
/// path class once through its first member (with the audit switch
/// on, it checks every member against it, check
/// `index-class-pricing`), and the online engine prices each arrival
/// as `Flow::new(0, rate, path)`. The methods still take a [`Flow`],
/// not a path, so callers that hold flows keep pricing them directly.
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

impl<'a> PricedFlow<'a> {
    /// The key of the flow's path class: its path and pricing.
    #[inline]
    pub fn key(&self) -> ClassKey<'a> {
        ClassKey {
            path: self.path,
            gains: self.gains,
            cost: self.cost,
        }
    }
}

/// What a path class is keyed by: a path and the pricing of its flows.
/// A model prices from the path alone, but stored pricings need not
/// agree (a restored snapshot may hold flows on one path with different
/// gains), so [`FlowIndex::compile`] and the online engine's live class
/// table both key a class by path and pricing, bit for bit, and file it
/// in an [`IdTable`] under [`ClassKey::hash`]. This is the one
/// definition they share.
#[derive(Debug, Clone, Copy)]
pub struct ClassKey<'a> {
    /// The path, source first.
    pub path: &'a [NodeId],
    /// `gains[i]` is the serving gain at `path[i]`.
    pub gains: &'a [f64],
    /// Unprocessed cost of the whole path.
    pub cost: f64,
}

impl ClassKey<'_> {
    /// The hash the class is filed under: its path's, so the classes of
    /// one path priced apart sit along one probe sequence.
    #[inline]
    pub fn hash(&self) -> u64 {
        path_hash(self.path)
    }

    /// Whether `self` and `other` key one class: the same path, and
    /// gains and cost equal bit for bit.
    pub fn same(&self, other: &ClassKey<'_>) -> bool {
        same(self.path, other.path)
            && self.cost.to_bits() == other.cost.to_bits()
            && self.gains.len() == other.gains.len()
            && self
                .gains
                .iter()
                .zip(other.gains)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// FxHash of a path. The final multiply leaves the best-mixed bits on
/// top, where an [`IdTable`] reads a home bucket.
#[inline]
fn path_hash(path: &[NodeId]) -> u64 {
    path.iter().fold(0, |h: u64, &v| {
        (h.rotate_left(5) ^ u64::from(v)).wrapping_mul(0x517c_c1b7_2722_0a95)
    })
}

/// One path class as a caller that keeps its flows in classes hands it
/// to [`FlowIndex::compile_classified`]: the path and pricing its
/// members share, how many there are, the lowest of their flow ids,
/// and the exact sum of their rates.
#[derive(Debug, Clone, Copy)]
pub struct PricedClass<'a> {
    /// The path every member follows, source first.
    pub path: &'a [NodeId],
    /// `gains[i]` is the serving gain at `path[i]`.
    pub gains: &'a [f64],
    /// Unprocessed cost of the whole path.
    pub cost: f64,
    /// Number of member flows.
    pub size: u32,
    /// The lowest member's flow id.
    pub first: u32,
    /// `R_c`: the exact sum of the members' rates.
    pub rate: u128,
}

/// What the index fill reads of one flow.
trait IndexSource {
    fn rate(&self) -> u64;
    fn path(&self) -> &[NodeId];
    fn gain(&self, pos: usize) -> f64;
    fn cost(&self) -> f64;
    /// Whether the flow belongs to the class keyed `key`.
    fn in_class(&self, key: &ClassKey<'_>) -> bool;
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

    fn in_class(&self, key: &ClassKey<'_>) -> bool {
        self.key().same(key)
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

    /// A model prices from the path alone ([`CostModel`]'s contract),
    /// so a flow belongs to its path's class without being priced.
    fn in_class(&self, key: &ClassKey<'_>) -> bool {
        same(&self.flow.path, key.path)
    }
}

/// A priced workload compiled for the greedy kernel, which reads
/// nothing else.
///
/// A *path class* is a set of flows that follow one path and carry one
/// pricing. Eq. 1 and Def. 2 see a flow only through its path and its
/// rate, so every member of a class has the same gain at each vertex
/// and the same best deployed gain, and a greedy step can weigh one
/// entry per class by the class's rate sum. A box on `v` serves every
/// flow whose path crosses `v`, so the feasibility guard counts,
/// covers and trials classes too. [`FlowIndex::build`] opens one class
/// per distinct path (a model prices from the path alone);
/// [`FlowIndex::compile`] keys a class by path *and* pricing, the bits
/// of its gains and cost, so flows on one path priced differently fall
/// into separate classes; [`FlowIndex::compile_classified`] takes the
/// caller's classes as they are. Classes are numbered in the order
/// they first appear among the flows.
///
/// The index holds:
/// * for every vertex, the classes crossing it with their serving
///   gains there, stored as one flat CSR arena in two parallel arrays
///   (`offsets[v] .. offsets[v + 1]` slices `row_class` and
///   `row_gain`), ascending by class;
/// * per class, its path (one flat arena), unprocessed cost, member
///   count, lowest member, exact rate sum `R_c` and weight
///   `R_c · (1 − λ)`;
/// * per flow, its class;
/// * whether the model breaks gain ties by coverage.
///
/// Entry order within a row pins the floating-point summation order
/// of every aggregate below, which the greedy engines rely on for
/// reproducible tie-breaking.
#[derive(Debug, Clone)]
pub struct FlowIndex {
    /// CSR row offsets, length `node_count + 1`.
    offsets: Vec<u32>,
    /// The class of each row entry, grouped by vertex. Kept apart from
    /// the gains because the feasibility guard's covers read the
    /// classes alone.
    row_class: Vec<u32>,
    /// The serving gain of each row entry, parallel to `row_class`.
    row_gain: Vec<f64>,
    /// Per-flow path class.
    class_of: Vec<u32>,
    /// Flows in each class.
    class_size: Vec<u32>,
    /// The lowest flow id in each class.
    class_first: Vec<u32>,
    /// Exact rate sum `R_c` of each class. A `u128` cannot overflow for
    /// fewer than 2^64 flows of `u64` rates.
    class_rate: Vec<u128>,
    /// `R_c · (1 − λ)`: what one unit of serving gain saves on class
    /// `c`.
    class_weight: Vec<f64>,
    /// Unprocessed cost of each class's path.
    class_cost: Vec<f64>,
    /// Class arena fence, length `class_count + 1`: class `c`'s path
    /// is `class_nodes[class_offsets[c] .. class_offsets[c + 1]]`.
    class_offsets: Vec<u32>,
    class_nodes: Vec<NodeId>,
    /// [`CostModel::coverage_tiebreak`] of the compiled model.
    coverage_ties: bool,
}

/// Every array of a [`FlowIndex`], for the structural auditor.
pub(crate) struct IndexParts<'a> {
    pub offsets: &'a [u32],
    pub row_class: &'a [u32],
    pub row_gain: &'a [f64],
    pub class_of: &'a [u32],
    pub class_size: &'a [u32],
    pub class_first: &'a [u32],
    pub class_rate: &'a [u128],
    pub class_weight: &'a [f64],
    pub class_cost: &'a [f64],
    pub class_offsets: &'a [u32],
    pub class_nodes: &'a [NodeId],
}

/// The path classes of an index before its rows are built: the class
/// arena. The fill of [`FlowIndex::build`] and [`FlowIndex::compile`]
/// appends each new class with the pricing of the flow that opened it
/// and adds every later member's rate; [`FlowIndex::compile_classified`]
/// fills it from the caller's classes.
struct Classes {
    size: Vec<u32>,
    first: Vec<u32>,
    rate: Vec<u128>,
    cost: Vec<f64>,
    offsets: Vec<u32>,
    nodes: Vec<NodeId>,
    /// Serving gains, parallel to `nodes`.
    gains: Vec<f64>,
}

impl Classes {
    fn new() -> Self {
        Self {
            size: Vec::new(),
            first: Vec::new(),
            rate: Vec::new(),
            cost: Vec::new(),
            offsets: vec![0],
            nodes: Vec::new(),
            gains: Vec::new(),
        }
    }

    /// Number of classes opened so far.
    #[inline]
    fn count(&self) -> usize {
        self.size.len()
    }

    fn span(&self, c: u32) -> std::ops::Range<usize> {
        ix(self.offsets[ix(c)])..ix(self.offsets[ix(c) + 1])
    }

    /// The key of class `c`.
    #[inline]
    fn key(&self, c: u32) -> ClassKey<'_> {
        let span = self.span(c);
        ClassKey {
            path: &self.nodes[span.clone()],
            gains: &self.gains[span],
            cost: self.cost[ix(c)],
        }
    }

    /// Adds a member of rate `rate` to class `c`.
    #[inline]
    fn join(&mut self, c: u32, rate: u64) {
        self.size[ix(c)] += 1;
        self.rate[ix(c)] += u128::from(rate);
    }

    /// Opens the next class with flow `fi`, `f`, as its first member,
    /// priced as `f`.
    fn open<S: IndexSource>(&mut self, f: &S, fi: u32) -> u32 {
        let c = id32(self.count());
        let path = f.path();
        self.size.push(1);
        self.first.push(fi);
        self.rate.push(u128::from(f.rate()));
        self.cost.push(f.cost());
        self.nodes.extend_from_slice(path);
        self.gains.extend((0..path.len()).map(|pos| f.gain(pos)));
        self.offsets.push(id32(self.nodes.len()));
        c
    }
}

impl FlowIndex {
    /// Compiles `model` against `instance`, pricing each path class
    /// once, through its first member. While the audit switch is on
    /// ([`crate::audit::enabled`]), every other member is checked
    /// against that pricing (`index-class-pricing`).
    ///
    /// # Panics
    /// Panics, with the switch on, if `model` prices two flows on one
    /// path apart.
    pub fn build<M: CostModel + ?Sized>(instance: &Instance, model: &M) -> Self {
        let index = Self::fill(
            instance.node_count(),
            instance.lambda(),
            model.coverage_tiebreak(),
            instance.flows().iter().map(|flow| Modeled { flow, model }),
        );
        if crate::audit::enabled() {
            crate::audit::enforce(crate::audit::check_class_pricing(instance, model, &index));
        }
        index
    }

    /// Compiles flows the caller has already priced, numbered `0..` in
    /// iteration order, over `node_count` vertices with
    /// traffic-changing ratio `lambda`. `coverage_tiebreak` plays the
    /// role of [`CostModel::coverage_tiebreak`]. A class is keyed by
    /// path and pricing (the bits of its gains and cost), so flows on
    /// one path with different gains open separate classes. Equal to
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
    {
        Self::fill(node_count, lambda, coverage_tiebreak, flows.into_iter())
    }

    /// [`FlowIndex::compile`] for flows the caller already keeps in
    /// classes: `class_of[f]` is flow `f`'s class, and `classes` lists
    /// one [`PricedClass`] per class, in number order. Numbered as
    /// `compile` numbers them (by first appearance among the flows),
    /// with the members, first member and exact rate sum `compile`
    /// would count, the classes build `compile`'s index bit for bit,
    /// without reading a flow's path, gains or rate. Nothing here
    /// checks that the counts agree with `class_of`: with the audit
    /// switch on, the kernel's index check does (`index-class-sizes`,
    /// `index-class-first`), and the caller's own audit pins that each
    /// class holds one path and pricing.
    ///
    /// # Panics
    /// Panics if `class_of` names a class past the list, a class has
    /// fewer gains than path positions, or a path vertex is not below
    /// `node_count`.
    pub fn compile_classified<'a, I>(
        node_count: usize,
        lambda: f64,
        coverage_tiebreak: bool,
        class_of: Vec<u32>,
        classes: I,
    ) -> Self
    where
        I: IntoIterator<Item = PricedClass<'a>>,
    {
        let mut arena = Classes::new();
        for c in classes {
            arena.size.push(c.size);
            arena.first.push(c.first);
            arena.rate.push(c.rate);
            arena.cost.push(c.cost);
            arena.nodes.extend_from_slice(c.path);
            arena.gains.extend_from_slice(&c.gains[..c.path.len()]);
            arena.offsets.push(id32(arena.nodes.len()));
        }
        if let Some(fi) = class_of.iter().position(|&c| ix(c) >= arena.count()) {
            panic!(
                "flow {fi} names class {} of {} listed",
                class_of[fi],
                arena.count()
            );
        }
        Self::from_classes(node_count, lambda, coverage_tiebreak, arena, class_of)
    }

    /// The fill of [`FlowIndex::build`] and [`FlowIndex::compile`]: a
    /// walk that finds each flow's class in an [`IdTable`] under its
    /// path's hash, opening the next class in the arena if none holds
    /// it, then the shared row builder. The table is sized up front for
    /// one class per flow the iterator counts, so a build never grows
    /// it, and it stays sparse where classes are few: a probe seldom
    /// passes its home bucket.
    fn fill<S: IndexSource>(
        n: usize,
        lambda: f64,
        coverage_ties: bool,
        flows: impl Iterator<Item = S>,
    ) -> Self {
        let (hint, _) = flows.size_hint();
        let mut table = IdTable::with_capacity(hint);
        let mut classes = Classes::new();
        let mut class_of = Vec::with_capacity(hint);
        for (fi, f) in flows.enumerate() {
            let h = path_hash(f.path());
            let c = match table.find(h, |c| f.in_class(&classes.key(c))) {
                Some(c) => {
                    classes.join(c, f.rate());
                    c
                }
                None => {
                    let c = classes.open(&f, id32(fi));
                    table.insert(h, c);
                    c
                }
            };
            class_of.push(c);
        }
        Self::from_classes(n, lambda, coverage_ties, classes, class_of)
    }

    /// The one row builder: the rows filled from the class arena,
    /// walking the classes in id order with per-vertex write cursors so
    /// every row ascends, and the per-class arrays moved in.
    fn from_classes(
        n: usize,
        lambda: f64,
        coverage_ties: bool,
        classes: Classes,
        class_of: Vec<u32>,
    ) -> Self {
        let mut offsets = vec![0u32; n + 1];
        for &v in &classes.nodes {
            offsets[ix(v) + 1] += 1;
        }
        for i in 1..=n {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut row_class = vec![0u32; classes.nodes.len()];
        let mut row_gain = vec![0.0f64; classes.nodes.len()];
        for c in 0..id32(classes.count()) {
            let span = classes.span(c);
            for (&v, &g) in classes.nodes[span.clone()].iter().zip(&classes.gains[span]) {
                let slot = &mut cursor[ix(v)];
                row_class[ix(*slot)] = c;
                row_gain[ix(*slot)] = g;
                *slot += 1;
            }
        }
        let factor = 1.0 - lambda;
        Self {
            offsets,
            row_class,
            row_gain,
            class_of,
            class_weight: classes
                .rate
                .iter()
                .map(|&r| rate_sum_f64(r) * factor)
                .collect(),
            class_size: classes.size,
            class_first: classes.first,
            class_rate: classes.rate,
            class_cost: classes.cost,
            class_offsets: classes.offsets,
            class_nodes: classes.nodes,
            coverage_ties,
        }
    }

    /// The classes whose path crosses `v`, ascending.
    #[inline]
    pub fn classes_through(&self, v: NodeId) -> &[u32] {
        &self.row_class[self.row(v)]
    }

    /// Row `v`'s span of the row arrays.
    #[inline]
    fn row(&self, v: NodeId) -> std::ops::Range<usize> {
        ix(self.offsets[ix(v)])..ix(self.offsets[ix(v) + 1])
    }

    /// Row `v`: the classes crossing `v` with their serving gains at
    /// that position, ascending by class.
    #[inline]
    pub fn row_entries(&self, v: NodeId) -> impl Iterator<Item = (u32, f64)> + '_ {
        let span = self.row(v);
        self.row_class[span.clone()]
            .iter()
            .copied()
            .zip(self.row_gain[span].iter().copied())
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

    /// The lowest flow id in class `c`: the member it was priced
    /// through.
    #[inline]
    pub fn class_first(&self, c: u32) -> u32 {
        self.class_first[ix(c)]
    }

    /// Exact rate sum `R_c` of class `c`.
    #[inline]
    pub fn class_rate(&self, c: u32) -> u128 {
        self.class_rate[ix(c)]
    }

    /// `R_c · (1 − λ)`: what one unit of serving gain saves on class
    /// `c`.
    #[inline]
    pub fn class_weight(&self, c: u32) -> f64 {
        self.class_weight[ix(c)]
    }

    /// Unprocessed cost of class `c`'s path (the model's `|p_f|`
    /// analogue), shared by every member.
    #[inline]
    pub fn class_cost(&self, c: u32) -> f64 {
        self.class_cost[ix(c)]
    }

    /// Number of path classes.
    #[inline]
    pub fn class_count(&self) -> usize {
        self.class_size.len()
    }

    /// Number of flows indexed.
    #[inline]
    pub fn flow_count(&self) -> usize {
        self.class_of.len()
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
    pub(crate) fn audit_parts(&self) -> IndexParts<'_> {
        IndexParts {
            offsets: &self.offsets,
            row_class: &self.row_class,
            row_gain: &self.row_gain,
            class_of: &self.class_of,
            class_size: &self.class_size,
            class_first: &self.class_first,
            class_rate: &self.class_rate,
            class_weight: &self.class_weight,
            class_cost: &self.class_cost,
            class_offsets: &self.class_offsets,
            class_nodes: &self.class_nodes,
        }
    }

    /// Total cost with no middleboxes: `Σ r_f · cost(p_f)`, flow by
    /// flow in id order.
    pub fn unprocessed(&self, instance: &Instance) -> f64 {
        instance
            .flows()
            .iter()
            .map(|f| f.rate as f64 * self.class_cost[ix(self.class_of[ix(f.id)])])
            .sum()
    }

    /// Best (largest) serving gain each class attains over the
    /// deployment, or `None` for unserved classes.
    pub(crate) fn class_best(&self, deployment: &Deployment) -> Vec<Option<f64>> {
        let mut best: Vec<Option<f64>> = vec![None; self.class_count()];
        for &v in deployment.vertices() {
            for (c, g) in self.row_entries(v) {
                let slot = &mut best[ix(c)];
                if slot.is_none_or(|b| g > b) {
                    *slot = Some(g);
                }
            }
        }
        best
    }

    /// Best (largest) serving gain each flow attains over the
    /// deployment, or `None` for unserved flows: its class's.
    pub fn best_down(&self, deployment: &Deployment) -> Vec<Option<f64>> {
        let best = self.class_best(deployment);
        self.class_of.iter().map(|&c| best[ix(c)]).collect()
    }

    /// Total cost under `deployment`: each served flow saves
    /// `r_f · (1 − λ) · gain` off its unprocessed cost, summed flow by
    /// flow in id order.
    pub fn bandwidth_of(&self, instance: &Instance, deployment: &Deployment) -> f64 {
        let factor = 1.0 - instance.lambda();
        let best = self.class_best(deployment);
        instance
            .flows()
            .iter()
            .map(|f| {
                let c = ix(self.class_of[ix(f.id)]);
                let full = f.rate as f64 * self.class_cost[c];
                match best[c] {
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
    ///
    /// `current` must be constant on each class, and the sum reads it
    /// at each class's first member. Every `current` a deployment
    /// induces is: members of a class share their gains, so they share
    /// their best one ([`FlowIndex::best_down`]). Debug builds assert
    /// it.
    pub fn marginal_decrement(&self, instance: &Instance, current: &[f64], v: NodeId) -> f64 {
        debug_assert_eq!(self.flow_count(), instance.flows().len());
        debug_assert_eq!(self.node_count(), instance.node_count());
        debug_assert!(
            self.class_of
                .iter()
                .zip(current)
                .all(|(&c, x)| x.to_bits() == current[ix(self.class_first[ix(c)])].to_bits()),
            "`current` differs between members of one path class"
        );
        self.score(v, |c| current[ix(self.class_first[ix(c)])])
    }

    /// [`FlowIndex::marginal_decrement`] from the index alone, with
    /// `cur[c]` the best gain of class `c` so far.
    #[inline]
    pub(crate) fn decrement(&self, cur: &[f64], v: NodeId) -> f64 {
        self.score(v, |c| cur[ix(c)])
    }

    /// `Σ weight[c] · (g − cur(c))` over the classes through `v` whose
    /// gain there beats `cur(c)`, in row order.
    #[inline]
    fn score(&self, v: NodeId, cur: impl Fn(u32) -> f64) -> f64 {
        self.row_entries(v)
            .map(|(c, g)| (c, g, cur(c)))
            .filter(|&(_, g, now)| g > now)
            .map(|(c, g, now)| self.class_weight[ix(c)] * (g - now))
            .sum()
    }
}

#[inline]
fn same(a: &[NodeId], b: &[NodeId]) -> bool {
    a.len() == b.len() && a.iter().zip(b).fold(0, |acc, (x, y)| acc | (x ^ y)) == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::gtp::{gtp_budgeted, gtp_budgeted_with};
    use crate::feasibility::tests::random_instance;
    use crate::num::approx_f64;
    use crate::objective::bandwidth_of;
    use crate::paper::fig1_instance;
    use proptest::TestRng;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
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

    /// The gains and cost of each of `inst`'s flows under `model`,
    /// scaled by `scale(f)`.
    fn priced_scaled<M: CostModel + ?Sized>(
        inst: &Instance,
        model: &M,
        scale: impl Fn(&Flow) -> f64,
    ) -> Vec<(Vec<f64>, f64)> {
        inst.flows()
            .iter()
            .map(|f| {
                let w = scale(f);
                let gains = model.gains(f).into_iter().map(|g| w * g).collect();
                (gains, w * model.unprocessed_cost(f))
            })
            .collect()
    }

    /// `inst`'s flows with the gains and costs `priced` gives them.
    fn as_priced<'a>(
        inst: &'a Instance,
        priced: &'a [(Vec<f64>, f64)],
    ) -> impl Iterator<Item = PricedFlow<'a>> {
        inst.flows()
            .iter()
            .zip(priced)
            .map(|(f, (gains, cost))| PricedFlow {
                rate: f.rate,
                path: &f.path,
                gains,
                cost: *cost,
            })
    }

    /// Prices `inst`'s flows with `model` by hand, each flow's gains
    /// scaled by `scale(f)`, and compiles them.
    fn compiled_scaled<M: CostModel + ?Sized>(
        inst: &Instance,
        model: &M,
        scale: impl Fn(&Flow) -> f64,
    ) -> FlowIndex {
        let priced = priced_scaled(inst, model, scale);
        FlowIndex::compile(
            inst.node_count(),
            inst.lambda(),
            model.coverage_tiebreak(),
            as_priced(inst, &priced),
        )
    }

    /// Flow 2 of [`fig1_shared_paths`] priced at twice its hop counts,
    /// as [`fig1_split_class`] compiles it.
    fn doubled_flow_2(f: &Flow) -> f64 {
        if f.id == 2 {
            2.0
        } else {
            1.0
        }
    }

    /// One class as [`classes_by_search`] finds it: its first member,
    /// its member count and its members' exact rate sum.
    type Found = (u32, u32, u128);

    /// `inst`'s flows priced as `priced`, put into classes by a linear
    /// search over path and pricing bits, numbered by first appearance:
    /// each flow's class, and every class found.
    fn classes_by_search(inst: &Instance, priced: &[(Vec<f64>, f64)]) -> (Vec<u32>, Vec<Found>) {
        let key = |f: &Flow| {
            let (gains, cost) = &priced[ix(f.id)];
            let bits: Vec<u64> = gains.iter().chain([cost]).map(|x| x.to_bits()).collect();
            (f.path.clone(), bits)
        };
        let mut keys = Vec::new();
        let mut class_of = Vec::new();
        let mut classes: Vec<Found> = Vec::new();
        for f in inst.flows() {
            let k = key(f);
            let c = keys.iter().position(|x| *x == k).unwrap_or_else(|| {
                keys.push(k);
                classes.push((f.id, 0, 0));
                keys.len() - 1
            });
            classes[c].1 += 1;
            classes[c].2 += u128::from(f.rate);
            class_of.push(id32(c));
        }
        (class_of, classes)
    }

    /// `compile_classified` of `class_of` and `classes`, each class
    /// priced through its first member as `priced` gives it.
    fn classified(
        inst: &Instance,
        priced: &[(Vec<f64>, f64)],
        class_of: Vec<u32>,
        classes: &[Found],
    ) -> FlowIndex {
        FlowIndex::compile_classified(
            inst.node_count(),
            inst.lambda(),
            true,
            class_of,
            classes.iter().map(|&(first, size, rate)| PricedClass {
                path: &inst.flows()[ix(first)].path,
                gains: &priced[ix(first)].0,
                cost: priced[ix(first)].1,
                size,
                first,
                rate,
            }),
        )
    }

    /// `compile_classified`, handed classes found by a linear search
    /// over path and pricing, builds `compile`'s index of the same
    /// flows bit for bit: on a path split by pricing and on random
    /// gateway and all-pairs instances at a non-dyadic `1 − λ`.
    #[test]
    fn compile_classified_takes_the_callers_classes() {
        let searched = |inst: &Instance, priced: &[(Vec<f64>, f64)]| {
            let (class_of, classes) = classes_by_search(inst, priced);
            classified(inst, priced, class_of, &classes)
        };
        let shared = fig1_shared_paths();
        let priced = priced_scaled(&shared, &HopCount, doubled_flow_2);
        assert_same_index(&searched(&shared, &priced), &fig1_split_class());
        let seed = proptest::fnv1a("compile_classified_takes_the_callers_classes");
        for case in 0..100u64 {
            let mut rng = StdRng::seed_from_u64(TestRng::for_case(seed, case).next_u64());
            let inst = random_instance(&mut rng).with_lambda(0.3);
            let priced = priced_scaled(&inst, &HopCount, |_| 1.0);
            let want = FlowIndex::compile(
                inst.node_count(),
                inst.lambda(),
                true,
                as_priced(&inst, &priced),
            );
            assert_same_index(&searched(&inst, &priced), &want);
        }
    }

    /// A flow must name a listed class.
    #[test]
    #[should_panic(expected = "flow 2 names class 5 of 5 listed")]
    fn compile_classified_rejects_a_class_past_the_list() {
        let inst = fig1_shared_paths();
        let priced = priced_scaled(&inst, &HopCount, doubled_flow_2);
        let (mut class_of, classes) = classes_by_search(&inst, &priced);
        class_of[2] = 5;
        classified(&inst, &priced, class_of, &classes);
    }

    /// A class list whose counts disagree with `class_of` compiles, and
    /// the kernel's index check catches it: a class counting one
    /// member too many (`index-class-sizes`), or naming a later member
    /// first (`index-class-first`). With the audit switch on, the
    /// kernel checks before it solves.
    #[test]
    #[should_panic(expected = "index-class-sizes")]
    fn compile_classified_miscounts_are_caught_at_the_kernel() {
        use crate::algorithms::gtp::gtp_budgeted_index;
        use crate::audit::check_index;
        let inst = fig1_shared_paths();
        let priced = priced_scaled(&inst, &HopCount, doubled_flow_2);
        let (class_of, classes) = classes_by_search(&inst, &priced);
        // Class 1 holds flows 1 and 4.
        let skewed = |skew: fn(&mut Found)| {
            let mut classes = classes.clone();
            skew(&mut classes[1]);
            classified(&inst, &priced, class_of.clone(), &classes)
        };
        check_index(&skewed(|_| {})).unwrap();
        let late = skewed(|c| c.0 = 4);
        assert_eq!(check_index(&late).unwrap_err().check, "index-class-first");
        let _ = gtp_budgeted_index(&skewed(|c| c.1 += 1), 2);
    }

    /// Prices `inst`'s flows with `model` by hand and compiles them.
    fn compiled_by_hand<M: CostModel + ?Sized>(inst: &Instance, model: &M) -> FlowIndex {
        compiled_scaled(inst, model, |_| 1.0)
    }

    /// `a` and `b` are the same index, bit for bit: rows, per-class
    /// arrays and `class_of`.
    fn assert_same_index(a: &FlowIndex, b: &FlowIndex) {
        let bits = |x: &FlowIndex| -> Vec<(u32, u64)> {
            x.row_class
                .iter()
                .zip(&x.row_gain)
                .map(|(&c, g)| (c, g.to_bits()))
                .collect()
        };
        let floats = |xs: &[f64]| -> Vec<u64> { xs.iter().map(|x| x.to_bits()).collect() };
        assert_eq!(a.offsets, b.offsets);
        assert_eq!(bits(a), bits(b));
        assert_eq!(a.class_of, b.class_of);
        assert_eq!(a.class_size, b.class_size);
        assert_eq!(a.class_first, b.class_first);
        assert_eq!(a.class_rate, b.class_rate);
        assert_eq!(floats(&a.class_weight), floats(&b.class_weight));
        assert_eq!(floats(&a.class_cost), floats(&b.class_cost));
        assert_eq!(a.class_offsets, b.class_offsets);
        assert_eq!(a.class_nodes, b.class_nodes);
        assert_eq!(a.coverage_ties, b.coverage_ties);
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
            assert_same_index(&a, &b);
            for f in inst.flows() {
                assert_eq!(a.path(f.id), &f.path[..]);
            }
            assert_eq!(a.candidate_vertices(), inst.candidate_vertices());
        }
    }

    /// On random gateway and all-pairs instances, the index holds one
    /// class per distinct path, numbered in first-appearance order,
    /// each with its members, lowest member, rate sum, weight and
    /// path; a vertex's row lists exactly the classes crossing it,
    /// ascending, each with its hop gain there; and `compile` of the
    /// same flows, priced by hand, builds the same index bit for bit.
    #[test]
    fn classes_are_the_distinct_paths_in_first_appearance_order() {
        let seed = proptest::fnv1a("classes_are_the_distinct_paths_in_first_appearance_order");
        let mut shared = 0;
        for case in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(TestRng::for_case(seed, case).next_u64());
            let inst = random_instance(&mut rng).with_lambda(0.3);
            let index = FlowIndex::build(&inst, &HopCount);
            let mut paths: Vec<&[NodeId]> = Vec::new();
            let mut members: Vec<Vec<u32>> = Vec::new();
            let mut rates: Vec<u128> = Vec::new();
            for f in inst.flows() {
                let c = match paths.iter().position(|&p| p == &f.path[..]) {
                    Some(c) => c,
                    None => {
                        paths.push(&f.path);
                        members.push(Vec::new());
                        rates.push(0);
                        paths.len() - 1
                    }
                };
                members[c].push(f.id);
                rates[c] += u128::from(f.rate);
                assert_eq!(index.class_of(f.id), id32(c), "case {case}, flow {}", f.id);
                assert_eq!(index.path(f.id), &f.path[..]);
            }
            assert_eq!(index.class_count(), paths.len(), "case {case}");
            for (c, path) in paths.iter().enumerate() {
                let c32 = id32(c);
                assert_eq!(index.class_path(c32), *path);
                assert_eq!(ix(index.class_size(c32)), members[c].len());
                assert_eq!(index.class_first(c32), members[c][0]);
                assert_eq!(index.class_rate(c32), rates[c]);
                assert_eq!(
                    index.class_weight(c32).to_bits(),
                    (rate_sum_f64(rates[c]) * (1.0 - 0.3)).to_bits()
                );
                assert_eq!(index.class_cost(c32), (path.len() - 1) as f64);
            }
            for v in 0..inst.node_count() as NodeId {
                let crossing: Vec<(u32, f64)> = paths
                    .iter()
                    .enumerate()
                    .filter_map(|(c, p)| {
                        let pos = p.iter().position(|&u| u == v)?;
                        Some((id32(c), (p.len() - 1 - pos) as f64))
                    })
                    .collect();
                assert_eq!(
                    index.row_entries(v).collect::<Vec<_>>(),
                    crossing,
                    "case {case}, vertex {v}"
                );
            }
            assert_same_index(&index, &compiled_by_hand(&inst, &HopCount));
            shared += usize::from(paths.len() < inst.flows().len());
        }
        assert!(shared > 0, "no instance had two flows on one path");
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

    /// [`fig1_shared_paths`] compiled with flow 2's hop gains and cost
    /// doubled: it shares flow 0's path but not its pricing.
    fn fig1_split_class() -> FlowIndex {
        compiled_scaled(&fig1_shared_paths(), &HopCount, doubled_flow_2)
    }

    /// `compile` keys a class by path and pricing: flow 2 opens a
    /// class of its own on flow 0's path, classes keep first-appearance
    /// order, and flows 1 and 4, priced alike, still share one.
    #[test]
    fn compile_splits_a_path_whose_flows_are_priced_differently() {
        use crate::audit::check_index;
        let index = fig1_split_class();
        check_index(&index).unwrap();
        assert_eq!(index.class_of, [0, 1, 2, 3, 1, 4]);
        assert_eq!(index.class_size, [1, 2, 1, 1, 1]);
        assert_eq!(index.class_first, [0, 1, 2, 3, 5]);
        assert_eq!(index.class_rate, [1, 7, 3, 4, 6]);
        assert_eq!(index.class_path(0), index.class_path(2));
        assert_eq!(index.class_cost, [2.0, 2.0, 4.0, 1.0, 1.0]);
        // Vertex 2 sits mid-path on classes 0, 1 and 2.
        assert_eq!(
            index.row_entries(2).collect::<Vec<_>>(),
            [(0, 1.0), (1, 1.0), (2, 2.0)]
        );
        // Served at vertex 4 (gain 2 for flow 0, 4 for flow 2), the
        // split path saves 0.5 · (1 · 2 + 3 · 4) = 7.
        let cur = vec![0.0; 5];
        assert_eq!(index.decrement(&cur, 4), 7.0);
        // Priced alike, the same flows share one class per path.
        let inst = fig1_shared_paths();
        assert_same_index(
            &compiled_by_hand(&inst, &HopCount),
            &FlowIndex::build(&inst, &HopCount),
        );
    }

    #[test]
    fn weights_fold_rate_and_lambda() {
        let inst = weighted_line(1).with_lambda(0.3);
        let index = FlowIndex::build(&inst, &HopCount);
        // Bitwise the product the per-flow kernel formed.
        assert_eq!(
            index.class_weight(0).to_bits(),
            (2.0 * (1.0 - 0.3f64)).to_bits()
        );
        let cur = vec![0.0];
        assert_eq!(
            index.marginal_decrement(&inst, &cur, 3).to_bits(),
            (2.0 * (1.0 - 0.3f64) * 3.0).to_bits()
        );
    }

    /// Hop counts scaled by a float saving, as `tdmd-chain`'s
    /// `ChainStackModel` prices: gains that are not integers.
    struct StackSaving(f64);

    impl CostModel for StackSaving {
        fn serving_gain(&self, flow: &Flow, pos: usize) -> f64 {
            self.0 * (flow.hops() - pos) as f64
        }

        fn unprocessed_cost(&self, flow: &Flow) -> f64 {
            flow.hops() as f64
        }
    }

    /// Def. 2 as the per-flow kernel summed it: flow by flow in id
    /// order, each flow priced itself, `r_f · (1 − λ) · (g − cur[f])`.
    fn per_flow_decrement<M: CostModel + ?Sized>(
        inst: &Instance,
        model: &M,
        current: &[f64],
        v: NodeId,
    ) -> f64 {
        let factor = 1.0 - inst.lambda();
        inst.flows()
            .iter()
            .filter_map(|f| {
                let pos = f.path.iter().position(|&u| u == v)?;
                let (g, now) = (model.serving_gain(f, pos), current[ix(f.id)]);
                (g > now).then(|| approx_f64(f.rate) * factor * (g - now))
            })
            .sum()
    }

    /// On random gateway and all-pairs ER instances, under hop, random
    /// integer edge-weight and float-saving (chain) pricing, at
    /// λ ∈ {0.5, 0.3, 0.7, 1} and under random deployments, the class
    /// decrement of every vertex equals the per-flow sum within 1e-12
    /// relative, and bit for bit where every term is exact: integral
    /// gains and a dyadic `1 − λ`. `marginal_decrement` on the
    /// deployment's per-flow `current` equals the class decrement bit
    /// for bit.
    #[test]
    fn class_decrement_matches_the_per_flow_sum() {
        let seed = proptest::fnv1a("class_decrement_matches_the_per_flow_sum");
        let (mut exact, mut close) = (0usize, 0usize);
        for case in 0..150u64 {
            let mut rng = StdRng::seed_from_u64(TestRng::for_case(seed, case).next_u64());
            let base = random_instance(&mut rng);
            let g = base.graph();
            let n = g.node_count();
            let edges: Vec<_> = g
                .edges()
                .map(|(u, v, _)| (u, v, rng.gen_range(1..=9)))
                .collect();
            let weighted_graph = tdmd_graph::DiGraph::from_edges(n, &edges);
            let weighted = WeightedEdges::new(&weighted_graph);
            let stack = StackSaving(rng.gen_range(0.05..0.95));
            for lambda in [0.5, 0.3, 0.7, 1.0] {
                let hop_inst = base.with_lambda(lambda);
                let weighted_inst =
                    Instance::new(weighted_graph.clone(), base.flows().to_vec(), lambda, 1)
                        .expect("same paths, same edges");
                let pricings: [(&Instance, &dyn CostModel, bool); 3] = [
                    (&hop_inst, &HopCount, true),
                    (&weighted_inst, &weighted, true),
                    (&hop_inst, &stack, false),
                ];
                for (inst, model, integral) in pricings {
                    let index = FlowIndex::build(inst, model);
                    for _ in 0..3 {
                        let boxes: Vec<NodeId> = (0..rng.gen_range(0..4))
                            .map(|_| id32(rng.gen_range(0..n)))
                            .collect();
                        let d = Deployment::from_vertices(n, boxes);
                        let current: Vec<f64> = index
                            .best_down(&d)
                            .into_iter()
                            .map(|g| g.unwrap_or(0.0))
                            .collect();
                        let cur: Vec<f64> = index
                            .class_best(&d)
                            .into_iter()
                            .map(|g| g.unwrap_or(0.0))
                            .collect();
                        for v in 0..id32(n) {
                            let class = index.decrement(&cur, v);
                            let via_flows = index.marginal_decrement(inst, &current, v);
                            assert_eq!(class.to_bits(), via_flows.to_bits(), "case {case}");
                            let want = per_flow_decrement(inst, model, &current, v);
                            let at = format!("case {case}, λ {lambda}, vertex {v}");
                            if integral && (lambda == 0.5 || lambda == 1.0) {
                                assert_eq!(class.to_bits(), want.to_bits(), "{at}");
                                exact += 1;
                            } else {
                                let scale = class.abs().max(want.abs());
                                assert!((class - want).abs() <= 1e-12 * scale, "{at}");
                                close += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(
            exact > 0 && close > 0,
            "vacuous: {exact} exact, {close} close"
        );
    }

    /// Prices a flow by its rate, which breaks the contract that a
    /// model prices from the path alone.
    struct ByRate;

    impl CostModel for ByRate {
        fn serving_gain(&self, flow: &Flow, pos: usize) -> f64 {
            (flow.rate * (flow.hops() - pos) as u64) as f64
        }

        fn unprocessed_cost(&self, flow: &Flow) -> f64 {
            (flow.rate * flow.hops() as u64) as f64
        }
    }

    /// A model that prices two members of one class apart is caught at
    /// build, whether the gains or only the cost differ.
    #[test]
    fn class_pricing_audit_catches_a_model_that_prices_by_flow() {
        use crate::audit::check_class_pricing;
        let inst = fig1_shared_paths();
        let fill = |model: &dyn CostModel| {
            FlowIndex::fill(
                inst.node_count(),
                inst.lambda(),
                true,
                inst.flows().iter().map(|flow| Modeled { flow, model }),
            )
        };
        check_class_pricing(&inst, &HopCount, &fill(&HopCount)).unwrap();
        let err = check_class_pricing(&inst, &ByRate, &fill(&ByRate)).unwrap_err();
        assert_eq!(err.check, "index-class-pricing", "{err}");
        // Flow 2 is the first member priced apart from its class.
        assert!(err.detail.starts_with("flow 2 "), "{err}");
        // The rate-priced index read against hop pricing: class 0 was
        // priced at rate 1 and matches, class 1 at rate 2 does not.
        let err = check_class_pricing(&inst, &HopCount, &fill(&ByRate)).unwrap_err();
        assert_eq!(err.check, "index-class-pricing", "{err}");
    }

    #[test]
    #[should_panic(expected = "index-class-pricing")]
    fn build_enforces_the_class_pricing_audit() {
        FlowIndex::build(&fig1_shared_paths(), &ByRate);
    }

    #[test]
    fn structural_audit_accepts_a_clean_index_and_catches_corruption() {
        use crate::audit::{check_index, check_index_solution};
        let inst = fig1_instance(2);
        let clean = FlowIndex::build(&inst, &HopCount);
        check_index(&clean).unwrap();

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

    /// One corruption per index check, each caught under its own name.
    #[test]
    fn structural_audit_catches_corrupt_classes() {
        use crate::audit::check_index;
        let inst = fig1_shared_paths();
        let clean = FlowIndex::build(&inst, &HopCount);
        check_index(&clean).unwrap();
        assert_eq!(clean.class_of, [0, 1, 0, 2, 1, 3]);
        assert_eq!(clean.class_size, [2, 2, 1, 1]);
        assert_eq!(clean.class_first, [0, 1, 3, 5]);
        assert_eq!(clean.class_rate, [4, 7, 4, 6]);
        let check_on = |base: &FlowIndex, corrupt: &dyn Fn(&mut FlowIndex)| {
            let mut index = base.clone();
            corrupt(&mut index);
            check_index(&index).unwrap_err().check
        };
        let check = |corrupt: &dyn Fn(&mut FlowIndex)| check_on(&clean, corrupt);

        assert_eq!(
            check(&|x| {
                x.class_weight.pop();
            }),
            "index-shape"
        );
        assert_eq!(check(&|x| x.offsets.push(0)), "index-shape");
        assert_eq!(
            check(&|x| {
                x.row_gain.pop();
            }),
            "index-shape"
        );
        assert_eq!(check(&|x| x.class_nodes.push(0)), "index-class-fence");
        assert_eq!(check(&|x| x.offsets.swap(1, 2)), "index-offsets-monotone");
        assert_eq!(check(&|x| x.class_nodes[0] = 9), "index-path-bounds");
        assert_eq!(check(&|x| x.class_of[3] = 4), "index-class-bounds");
        assert_eq!(check(&|x| x.class_size[0] = 3), "index-class-sizes");
        // Flow 2 moved to class 1: both sizes disagree with `class_of`.
        assert_eq!(check(&|x| x.class_of[2] = 1), "index-class-sizes");
        // Class 0's lowest member is flow 0, not flow 2.
        assert_eq!(check(&|x| x.class_first[0] = 2), "index-class-first");
        assert_eq!(check(&|x| x.class_rate[2] = 0), "index-class-rates");
        assert_eq!(check(&|x| x.class_weight[1] = 8.0), "index-class-rates");
        assert_eq!(check(&|x| x.class_weight[1] = -1.0), "index-class-rates");
        // Vertex 2 is crossed by classes 0 and 1.
        let at = ix(clean.offsets[2]);
        assert_eq!(clean.row_class[at..at + 2], [0, 1]);
        assert_eq!(check(&|x| x.row_class.swap(at, at + 1)), "index-row-sorted");
        assert_eq!(check(&|x| x.row_class[at + 1] = 9), "index-entry-bounds");
        // Class 2's path [3, 1] avoids vertex 2.
        assert_eq!(check(&|x| x.row_class[at + 1] = 2), "index-entry-offpath");
        // Class 1's entry on vertex 2 dropped: every row is still
        // sorted and on-path, but class 1 has two entries for three
        // path vertices.
        assert_eq!(
            check(&|x| {
                x.row_class.remove(at + 1);
                x.row_gain.remove(at + 1);
                for o in &mut x.offsets[3..] {
                    *o -= 1;
                }
            }),
            "index-bijective"
        );
        // On the split index, class 2 given class 0's gains and cost:
        // one path, one pricing, two classes.
        let split = fig1_split_class();
        assert_eq!(
            check_on(&split, &|x| {
                for (c, g) in x.row_class.iter().zip(&mut x.row_gain) {
                    if *c == 2 {
                        *g /= 2.0;
                    }
                }
                x.class_cost[2] = 2.0;
            }),
            "index-class-distinct"
        );
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
        assert_eq!(index.class_cost(0), 12.0);
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
