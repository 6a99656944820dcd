//! [`DeltaState`] — the incrementally-maintained mirror of the static
//! CSR flow index.
//!
//! The static engine compiles the whole workload into one immutable
//! CSR arena; a stream cannot. `DeltaState` keeps the same
//! information — per-vertex rows, serving assignments, and the
//! objective — under churn. Eq. 1 and Def. 2 see a flow only through
//! its path and its rate, so the members of one *live path class* (a
//! path priced one way) share their gains, their assignment and their
//! share of every marginal decrement. The class therefore holds the
//! path and the gains and cost its members arrived with, the exact sum
//! `R_c` of their rates (a `u128`), their assignment and the class's
//! row entries. A flow keeps only its key, rate, class, its position in
//! the *arrival log* and its links in the class's *member list*, which
//! holds the members in arrival order. An arrival on or a departure
//! from a live class touches no row; commits and re-homes move whole
//! classes.
//!
//! An arrival makes two lookups, its key to a slot and its path and
//! pricing to a class, and both run on tdmd-core's one open-addressing
//! table, [`IdTable`]. The key table files each slot under a Fibonacci
//! hash of its flow's key and matches by the key the slot holds, so a
//! reused slot never answers for the key that left it; the class table
//! files each live class under its [`ClassKey`].
//!
//! Eq. 1 and Def. 2 sum flow by flow, and every such sum here runs in
//! arrival order, so that the live state, a snapshot of it and static
//! GTP on the densified flows add the same floats in the same order.
//! The arrival log keeps that order without sorting: an append-only
//! list of slots that a departure never touches, compacted in place
//! once dead entries outnumber live ones (invariant 6).
//!
//! # Invariants
//!
//! 1. **Row mirror** — for every vertex `v`, `rows[v]` holds exactly
//!    one `(class, pos)` entry per live class whose path crosses `v`,
//!    and the class's row back-pointers index those entries. Entries
//!    open and close with their class; a closing class removes its
//!    entries by `swap_remove` in O(path length) without scanning.
//!    An entry reads its gain through the class.
//! 2. **Assignment optimality** — each live class's assignment is the
//!    deployed on-path vertex maximizing `(gain, smaller id)`, or
//!    `None` when no deployed vertex lies on its path, and it serves
//!    every member; this matches the forced allocation of the static
//!    `allocate` (§3.1) deterministically, tie-break included.
//! 3. **Running objective** — `unprocessed = Σ r_f · cost(p_f)` and
//!    `saved = Σ_{served f} r_f · (1 − λ) · gain` over active flows,
//!    so `objective() = unprocessed − saved` in O(1). `primary_load[v]`
//!    is the `saved` share of the flows served at `v` — an upper bound
//!    on the objective loss of undeploying `v` (flows re-home to their
//!    second-best box, recovering part of it). An arrival or departure
//!    adds or takes its own term; a class that moves moves
//!    `R_c · (1 − λ) · gain`, which equals its members' terms exactly
//!    whenever those products are exact (integer rates at λ = 0.5, for
//!    one) and up to rounding otherwise.
//! 4. **Unserved census** — `unserved` counts exactly the active
//!    flows whose class has no assignment. Those flows ride at full
//!    rate (their whole `r_f · cost(p_f)` stays in the objective); the
//!    failure layer reads this as its degraded-flow census. A class
//!    changes between served and unserved only when it gains its first
//!    or loses its last deployed on-path vertex, and each such change
//!    appends every member to the flip log ([`DeltaState::flips`]) in
//!    arrival order, so a reader can keep per-flow-group sums of
//!    served and degraded rate without walking the flows.
//! 5. **Class census** — every active flow names a live class; each
//!    live class counts exactly the active flows naming it (so none is
//!    empty), sums their rates exactly in `R_c`, and links exactly
//!    those flows, in arrival order, in its member list; and the class
//!    table maps each live class's [`ClassKey`] (its path and the bits
//!    of its gains and cost, the key [`FlowIndex::compile`] classifies
//!    by) to that class alone. A class that empties leaves the table,
//!    and its id is reused.
//! 6. **Arrival log** — `order` lists the slot of every arrival since
//!    the last compaction, oldest first, and each active flow records
//!    its entry's index as `pos`. Entry `p` is live iff the slot it
//!    names holds a flow whose `pos` is `p`, so a departure writes
//!    nothing to the log and a reused slot's new flow names its own,
//!    later entry. The live entries, in log order, are the active
//!    flows in arrival order, which every canonical-order reader walks
//!    ([`DeltaState::flows_in_arrival_order`]). A departure that
//!    leaves the log longer than `2 · active + 64` entries compacts it
//!    in place, keeping the live entries in order and rewriting each
//!    `pos`: amortized O(1) a departure, and the log never holds more
//!    than twice the active flows plus 64.
//!
//! All six are restored by every mutation (insert, remove, commit,
//! failover, rebuild); the engine's repair logic relies on them.

use tdmd_core::num::{approx_f64, id32, ix, rate_sum_f64, KahanSum};
use tdmd_core::table::IdTable;
use tdmd_core::{ClassKey, Deployment, FlowIndex, PricedClass, PricedFlow};
use tdmd_graph::NodeId;
use tdmd_traffic::Flow;

use crate::event::FlowKey;

/// The end of a member list: no slot.
const NIL: u32 = u32::MAX;

/// Fibonacci hash of a flow key (multiply by ⌊2⁶⁴/φ⌋), which leaves
/// its best-mixed bits on top, where an [`IdTable`] reads them.
#[inline]
fn key_hash(key: FlowKey) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The key table's equality test for `key`: whether a slot of `flows`
/// holds the flow of that key.
#[inline]
fn holds_key(flows: &[Option<ActiveFlow>], key: FlowKey) -> impl Fn(u32) -> bool + '_ {
    move |slot| flows[ix(slot)].as_ref().is_some_and(|f| f.key == key)
}

/// An active flow: its key, rate and place in the arrival log, and the
/// live class that holds its path, pricing and assignment.
#[derive(Debug, Clone)]
pub struct ActiveFlow {
    /// Stream-stable key the flow arrived under.
    pub key: FlowKey,
    /// Rate `r_f`.
    pub rate: u64,
    /// Index of the flow's entry in the arrival log (invariant 6):
    /// flows compare in arrival order by it, and a compaction rewrites
    /// it.
    pos: u32,
    /// The live class holding the flow's path, the pricing it arrived
    /// with ([`DeltaState::priced`]) and its assignment
    /// ([`DeltaState::assigned`]).
    class: u32,
    /// The previous member's slot in the class's member list, or
    /// [`NIL`] at its head.
    prev: u32,
    /// The next member's slot, or [`NIL`] at the tail.
    next: u32,
}

/// Outcome of orphaning the flows served at a failed/undeployed
/// vertex (see [`DeltaState::fail_rehome`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failover {
    /// Orphans re-pinned to a surviving deployed on-path vertex.
    pub reassigned: usize,
    /// Orphans left with no serving middlebox — they ride at full
    /// rate (degraded-unprocessed accounting) until repair or
    /// recovery re-covers them.
    pub degraded: usize,
}

/// One per-vertex row entry: which live class, at which position of
/// its path. The gain is read through the class, at `pos` of its
/// gains, so a row entry never goes stale.
#[derive(Debug, Clone, Copy)]
struct RowEntry {
    class: u32,
    pos: u32,
}

/// One path class of the live flows: a path, the pricing its members
/// arrived with, the members' exact rate sum and count, their
/// assignment and the ends of their member list. The path, the gains
/// and the row back-pointers sit in a span of the class table's
/// arenas.
#[derive(Debug, Clone, Copy)]
struct LiveClass {
    /// Start of the class's span in [`ClassTable::nodes`],
    /// [`ClassTable::gains`] and [`ClassTable::row_pos`].
    at: u32,
    /// Path length: the span's length.
    len: u32,
    /// Unprocessed metric of the whole path.
    cost: f64,
    /// Active flows naming the class; 0 marks a freed id awaiting
    /// reuse.
    members: u32,
    /// `R_c`: the exact sum of the members' rates. No sum of `u64`
    /// rates over fewer than 2^64 flows overflows a `u128`.
    rate: u128,
    /// Serving middlebox and its gain, shared by every member
    /// (invariant 2).
    assigned: Option<(NodeId, f64)>,
    /// Slot of the earliest-arrived member, or [`NIL`].
    head: u32,
    /// Slot of the latest-arrived member, or [`NIL`].
    tail: u32,
}

/// The live path classes, filed in an [`IdTable`] under their
/// [`ClassKey`] (path and pricing), the key [`FlowIndex::compile`]
/// classifies by; classes of one path with different pricings sit
/// further along the same probe sequence. Paths, gains and row
/// back-pointers live in three parallel arenas, one span per class, so
/// opening a class allocates nothing once the arenas have grown. A
/// class that empties leaves the table; its id joins one free list and
/// its span another, kept per length, for the next class of that
/// length. A freed span keeps its path until then, so
/// [`DeltaState::remove`] can lend the path out.
#[derive(Debug, Clone, Default)]
struct ClassTable {
    /// Live class ids under their keys' hashes.
    table: IdTable,
    classes: Vec<LiveClass>,
    /// Freed class ids awaiting reuse.
    free: Vec<u32>,
    /// Path arena.
    nodes: Vec<NodeId>,
    /// Serving gains, parallel to `nodes`.
    gains: Vec<f64>,
    /// Row back-pointers, parallel to `nodes`: the index of the
    /// class's entry in `rows[v]` for the path vertex `v` beside it.
    row_pos: Vec<u32>,
    /// `spans[len]`: starts of the freed arena spans of `len`
    /// positions.
    spans: Vec<Vec<u32>>,
}

impl ClassTable {
    /// Class `c`.
    #[inline]
    fn class(&self, c: u32) -> &LiveClass {
        &self.classes[ix(c)]
    }

    /// Class `c`, mutably.
    #[inline]
    fn class_mut(&mut self, c: u32) -> &mut LiveClass {
        &mut self.classes[ix(c)]
    }

    /// Class `c`'s span of the arenas.
    #[inline]
    fn span(&self, c: u32) -> std::ops::Range<usize> {
        let class = self.class(c);
        ix(class.at)..ix(class.at) + ix(class.len)
    }

    /// The path of class `c`.
    #[inline]
    fn path(&self, c: u32) -> &[NodeId] {
        &self.nodes[self.span(c)]
    }

    /// The per-position serving gains of class `c`
    /// ([`CostModel::gains`](tdmd_core::CostModel::gains), fixed at
    /// arrival).
    #[inline]
    fn gains(&self, c: u32) -> &[f64] {
        &self.gains[self.span(c)]
    }

    /// The gain of class `c` at position `pos` of its path.
    #[inline]
    fn gain_at(&self, c: u32, pos: u32) -> f64 {
        self.gains[ix(self.class(c).at) + ix(pos)]
    }

    /// The unprocessed metric of class `c`'s whole path.
    #[inline]
    fn cost(&self, c: u32) -> f64 {
        self.class(c).cost
    }

    /// The key class `c` is filed under: its path and pricing.
    #[inline]
    fn key(&self, c: u32) -> ClassKey<'_> {
        let span = self.span(c);
        ClassKey {
            path: &self.nodes[span.clone()],
            gains: &self.gains[span],
            cost: self.class(c).cost,
        }
    }

    /// Number of live classes.
    fn live(&self) -> usize {
        self.classes.len() - self.free.len()
    }

    /// The live class keyed `key`, if any.
    fn find(&self, key: &ClassKey<'_>) -> Option<u32> {
        self.table.find(key.hash(), |c| self.key(c).same(key))
    }

    /// Joins one more member to the class keyed `key` (one gain per
    /// path position): an open class, or a new one — unassigned, with
    /// no rate and an empty member list — under a freed id and in a
    /// freed span of its length when there are. Returns the class and
    /// whether it is new.
    fn intern(&mut self, key: &ClassKey<'_>) -> (u32, bool) {
        let h = key.hash();
        if let Some(c) = self.table.find(h, |c| self.key(c).same(key)) {
            self.class_mut(c).members += 1;
            return (c, false);
        }
        let len = key.path.len();
        let at = match self.spans.get_mut(len).and_then(Vec::pop) {
            Some(at) => {
                let span = ix(at)..ix(at) + len;
                self.nodes[span.clone()].copy_from_slice(key.path);
                self.gains[span].copy_from_slice(key.gains);
                at
            }
            None => {
                let at = id32(self.nodes.len());
                self.nodes.extend_from_slice(key.path);
                self.gains.extend_from_slice(key.gains);
                self.row_pos.resize(self.nodes.len(), 0);
                at
            }
        };
        let class = LiveClass {
            at,
            len: id32(len),
            cost: key.cost,
            members: 1,
            rate: 0,
            assigned: None,
            head: NIL,
            tail: NIL,
        };
        let c = match self.free.pop() {
            Some(c) => {
                *self.class_mut(c) = class;
                c
            }
            None => {
                self.classes.push(class);
                id32(self.classes.len() - 1)
            }
        };
        self.table.insert(h, c);
        (c, true)
    }

    /// Removes one member from class `c`. A class left empty leaves
    /// the table, and its id and span are freed; returns whether it
    /// was. A freed span keeps its path and back-pointers until the
    /// next class of its length opens.
    fn release(&mut self, c: u32) -> bool {
        let class = self.class_mut(c);
        class.members -= 1;
        if class.members > 0 {
            return false;
        }
        let (at, len) = (class.at, ix(class.len));
        self.unmap(c);
        self.free.push(c);
        if self.spans.len() <= len {
            self.spans.resize_with(len + 1, Vec::new);
        }
        self.spans[len].push(at);
        true
    }

    /// Takes class `c` out of the table, if the table holds it.
    fn unmap(&mut self, c: u32) {
        self.table.remove(self.key(c).hash(), |x| x == c);
    }
}

/// Incrementally-maintained flow index, assignments and objective.
#[derive(Debug, Clone)]
pub struct DeltaState {
    lambda: f64,
    /// Flow slots; `None` marks a freed slot awaiting reuse.
    flows: Vec<Option<ActiveFlow>>,
    free: Vec<u32>,
    /// The slot of every active flow, filed under its key's
    /// [`key_hash`] and matched by the key the slot holds.
    keys: IdTable,
    /// The live path classes the flows name, with their rate sums,
    /// assignments, member lists and row back-pointers (invariants 1,
    /// 2 and 5).
    classes: ClassTable,
    /// Per-vertex rows of live classes — the mutable analogue of the
    /// CSR arena.
    rows: Vec<Vec<RowEntry>>,
    unprocessed: KahanSum,
    saved: KahanSum,
    /// Per-vertex saved share of the flows served there.
    primary_load: Vec<f64>,
    active: usize,
    /// Active flows whose class has no serving middlebox — they are
    /// accounted at full rate.
    unserved: usize,
    /// The arrival log (invariant 6): the slot of each arrival, oldest
    /// first, live where the slot's flow names the entry.
    order: Vec<u32>,
    /// Reusable dirty-vertex scratch: [`DeltaState::commit`] and
    /// [`DeltaState::fail_rehome`] fill it, sorted and deduplicated,
    /// and lend it out, so the hot repair path allocates nothing.
    dirty: Vec<NodeId>,
    /// Monotone census of flow assignment changes applied by
    /// [`DeltaState::commit`], [`DeltaState::fail_rehome`] and
    /// [`DeltaState::rebuild_assignments`] (a class that moves counts
    /// each member; arrival-time initial assignments are not changes).
    /// The engine reads it differentially around each repair move to
    /// price flow reassignments, so the absolute value carries no
    /// meaning and is not serialized.
    reassignments: u64,
    /// `(key, now_served)` of every served↔unserved change since the
    /// last [`DeltaState::clear_flips`], in the order made.
    flips: Vec<(FlowKey, bool)>,
}

/// `(gain, smaller id)` assignment preference (invariant 2).
#[inline]
fn better_assignment(cand: (NodeId, f64), cur: Option<(NodeId, f64)>) -> bool {
    match cur {
        None => true,
        Some((cv, cg)) => cand.1 > cg || (cand.1 == cg && cand.0 < cv),
    }
}

/// The best deployed vertex on `path` under the `(gain, smaller id)`
/// preference, with its gain, or `None` when no deployed vertex lies
/// on the path (invariant 2).
fn best_assignment(
    path: &[NodeId],
    gains: &[f64],
    deployment: &Deployment,
) -> Option<(NodeId, f64)> {
    let mut best = None;
    for (&v, &g) in path.iter().zip(gains) {
        if deployment.contains(v) && better_assignment((v, g), best) {
            best = Some((v, g));
        }
    }
    best
}

/// Whether two assignments name the same vertex with the same gain
/// bits.
fn same_assignment(a: Option<(NodeId, f64)>, b: Option<(NodeId, f64)>) -> bool {
    a.map(|(v, g)| (v, g.to_bits())) == b.map(|(v, g)| (v, g.to_bits()))
}

/// The live entries of the arrival log `order` over the slots `flows`:
/// the active flows in arrival order (invariant 6). A free function, so
/// a walk can borrow the log and the slots while the caller writes the
/// state's other fields.
fn arrivals<'a>(
    order: &'a [u32],
    flows: &'a [Option<ActiveFlow>],
) -> impl Iterator<Item = &'a ActiveFlow> + 'a {
    order
        .iter()
        .enumerate()
        .filter_map(move |(p, &slot)| flows[ix(slot)].as_ref().filter(|f| ix(f.pos) == p))
}

impl DeltaState {
    /// Empty state over a topology of `n` vertices with
    /// traffic-changing ratio `lambda`.
    pub fn new(n: usize, lambda: f64) -> Self {
        Self {
            lambda,
            flows: Vec::new(),
            free: Vec::new(),
            keys: IdTable::default(),
            classes: ClassTable::default(),
            rows: vec![Vec::new(); n],
            unprocessed: KahanSum::default(),
            saved: KahanSum::default(),
            primary_load: vec![0.0; n],
            active: 0,
            unserved: 0,
            order: Vec::new(),
            dirty: Vec::new(),
            reassignments: 0,
            flips: Vec::new(),
        }
    }

    /// Monotone count of assignment changes (see the field doc) —
    /// meaningful only as a difference across one mutation.
    #[inline]
    pub fn reassignments(&self) -> u64 {
        self.reassignments
    }

    /// `(key, now_served)` of every change of an active flow between
    /// served (its class has an assignment) and unserved since the
    /// last [`DeltaState::clear_flips`], in the order made: a class
    /// that flips logs each member in arrival order. Only
    /// [`DeltaState::commit`], [`DeltaState::fail_rehome`] and
    /// [`DeltaState::rebuild_assignments`] append — the three places
    /// that move the unserved census — so arrivals and departures,
    /// which enter and leave with their own status, never appear.
    /// [`OnlineEngine`](crate::OnlineEngine) clears the log at the start
    /// of every public mutating call, so there it holds the flips of
    /// the last call only.
    #[inline]
    pub fn flips(&self) -> &[(FlowKey, bool)] {
        &self.flips
    }

    /// Empties the flip log (keeping its allocation).
    #[inline]
    pub fn clear_flips(&mut self) {
        self.flips.clear();
    }

    /// The vertices the last [`DeltaState::commit`] or
    /// [`DeltaState::fail_rehome`] dirtied — the paths of every class
    /// it moved — ascending, each once. Borrowed from an internal
    /// scratch buffer, valid until the next of those calls.
    #[inline]
    pub fn dirty(&self) -> &[NodeId] {
        &self.dirty
    }

    /// Resolves `key` to its live slot. The key table matches a slot
    /// by the key stored in it, so a slot freed and reused by another
    /// flow never answers for the old key.
    #[inline]
    fn lookup(&self, key: FlowKey) -> Option<u32> {
        self.keys.find(key_hash(key), holds_key(&self.flows, key))
    }

    /// `1 − λ`, the diminishing factor every saving is scaled by.
    #[inline]
    fn factor(&self) -> f64 {
        1.0 - self.lambda
    }

    /// Number of active flows.
    #[inline]
    pub fn active_count(&self) -> usize {
        self.active
    }

    /// Number of live path classes: distinct paths among the active
    /// flows, one per pricing where flows on one path carry different
    /// stored gains.
    #[inline]
    pub fn class_count(&self) -> usize {
        self.classes.live()
    }

    /// Number of active flows with no serving middlebox — whether
    /// because no deployed vertex lies on their path or because a
    /// failure orphaned them. These flows are accounted at full rate.
    #[inline]
    pub fn unserved_count(&self) -> usize {
        self.unserved
    }

    /// Iterates over the active flows in unspecified order (use
    /// [`DeltaState::active_snapshot`] for the canonical arrival
    /// order). Handy for invariant checks: every vertex
    /// [`DeltaState::assigned`] names must be deployed, never failed.
    pub fn active_flows(&self) -> impl Iterator<Item = &ActiveFlow> {
        self.flows.iter().filter_map(|f| f.as_ref())
    }

    /// True if `key` is currently active.
    #[inline]
    pub fn is_active(&self, key: FlowKey) -> bool {
        self.lookup(key).is_some()
    }

    /// Running objective: unprocessed total minus savings (invariant
    /// 3). O(1). Both terms are Neumaier-compensated
    /// ([`KahanSum`]), so the drift against
    /// [`DeltaState::exact_objective`] stays O(ε) per stream instead
    /// of growing with the event count.
    #[inline]
    pub fn objective(&self) -> f64 {
        self.unprocessed.value() - self.saved.value()
    }

    /// The active flow stored under `key`.
    pub fn flow(&self, key: FlowKey) -> Option<&ActiveFlow> {
        let slot = self.lookup(key)?;
        self.flows[ix(slot)].as_ref()
    }

    /// Flow `f` with its path and the gains and cost it arrived with,
    /// read through its class.
    pub(crate) fn priced(&self, f: &ActiveFlow) -> PricedFlow<'_> {
        PricedFlow {
            rate: f.rate,
            path: self.classes.path(f.class),
            gains: self.classes.gains(f.class),
            cost: self.classes.cost(f.class),
        }
    }

    /// The middlebox serving `f` and its gain there — its class's
    /// assignment (invariant 2) — or `None` when no deployed vertex
    /// lies on its path.
    #[inline]
    pub fn assigned(&self, f: &ActiveFlow) -> Option<(NodeId, f64)> {
        self.classes.class(f.class).assigned
    }

    /// Per-vertex saved share (the swap-repair victim metric).
    #[inline]
    pub fn primary_load(&self, v: NodeId) -> f64 {
        self.primary_load[ix(v)]
    }

    /// The live flow in `slot`.
    #[inline]
    fn live(&self, slot: u32) -> &ActiveFlow {
        self.flows[ix(slot)].as_ref().expect("live slot")
    }

    /// The live flow in `slot`, mutably.
    #[inline]
    fn live_mut(&mut self, slot: u32) -> &mut ActiveFlow {
        self.flows[ix(slot)].as_mut().expect("live slot")
    }

    /// Active flows in arrival order — the canonical order engine
    /// snapshots serialize and restores replay, so both sides of a
    /// snapshot/restore round trip rebuild bitwise-identical float
    /// sums. A walk of the arrival log (invariant 6): no sort, and
    /// O(log length), at most twice the active flows plus 64.
    pub fn flows_in_arrival_order(&self) -> impl Iterator<Item = &ActiveFlow> + '_ {
        arrivals(&self.order, &self.flows)
    }

    /// Densified snapshot of the active flows (ids re-assigned
    /// `0..n` in arrival order) — the workload of the from-scratch
    /// oracle.
    pub fn active_snapshot(&self) -> Vec<Flow> {
        self.flows_in_arrival_order()
            .enumerate()
            .map(|(i, f)| Flow::new(id32(i), f.rate, self.classes.path(f.class).to_vec()))
            .collect()
    }

    /// The active flows compiled for the greedy kernel, numbered in
    /// arrival order from the gains and costs stored at arrival — no
    /// flow is priced again and no path is hashed or copied per flow.
    /// Bitwise equal to [`FlowIndex::build`] of the densified snapshot
    /// ([`DeltaState::active_snapshot`]) under the model those gains
    /// came from, and to [`FlowIndex::compile`] of the snapshot with
    /// the stored gains whatever they are. One walk of the arrival log
    /// numbers the live classes in the order they first appear, which
    /// is how `compile` numbers them, whatever ids the table reused,
    /// and records each flow's class; the live classes then go to
    /// [`FlowIndex::compile_classified`] whole, with the member count,
    /// first member and exact rate sum they keep. `coverage_tiebreak`
    /// is the model's
    /// [`CostModel::coverage_tiebreak`](tdmd_core::CostModel::coverage_tiebreak).
    pub fn flow_index(&self, coverage_tiebreak: bool) -> FlowIndex {
        let mut number = vec![u32::MAX; self.classes.classes.len()];
        // The live classes in number order, each with its first member.
        let mut numbered: Vec<(u32, u32)> = Vec::with_capacity(self.classes.live());
        let mut class_of = Vec::with_capacity(self.active);
        for (fi, f) in self.flows_in_arrival_order().enumerate() {
            let n = &mut number[ix(f.class)];
            if *n == u32::MAX {
                *n = id32(numbered.len());
                numbered.push((f.class, id32(fi)));
            }
            class_of.push(*n);
        }
        FlowIndex::compile_classified(
            self.rows.len(),
            self.lambda,
            coverage_tiebreak,
            class_of,
            numbered.iter().map(|&(c, first)| {
                let class = self.classes.class(c);
                PricedClass {
                    path: self.classes.path(c),
                    gains: self.classes.gains(c),
                    cost: class.cost,
                    size: class.members,
                    first,
                    rate: class.rate,
                }
            }),
        )
    }

    /// Objective recomputed from scratch, flow by flow in arrival
    /// order — term-for-term the same sum as the static
    /// `FlowIndex::bandwidth_of` evaluates on the densified snapshot,
    /// so the two agree *exactly* (bitwise), not just approximately.
    /// O(active flows): one walk of the arrival log.
    pub fn exact_objective(&self) -> f64 {
        let factor = self.factor();
        self.flows_in_arrival_order()
            .map(|f| {
                let class = self.classes.class(f.class);
                let full = approx_f64(f.rate) * class.cost;
                match class.assigned {
                    Some((_, g)) => full - approx_f64(f.rate) * factor * g,
                    None => full,
                }
            })
            .sum::<f64>()
            // `Sum<f64>` folds from -0.0, so a drained state would
            // otherwise report a negative zero.
            + 0.0
    }

    /// Marginal objective decrement of deploying on `v` given the
    /// current assignments — Def. 2 maintained incrementally: only
    /// `rows[v]` is scanned, one term `R_c · (1 − λ) · (g − cur)` per
    /// live class through `v`.
    pub fn marginal_gain(&self, v: NodeId) -> f64 {
        let factor = self.factor();
        self.rows[ix(v)]
            .iter()
            .map(|e| {
                let class = self.classes.class(e.class);
                let g = self.classes.gain_at(e.class, e.pos);
                let cur = class.assigned.map_or(0.0, |(_, cg)| cg);
                if g > cur {
                    rate_sum_f64(class.rate) * factor * (g - cur)
                } else {
                    0.0
                }
            })
            .sum()
    }

    /// Inserts an arriving flow into the class of its path and
    /// pricing, opening one if it is the first, and computes its
    /// assignment against `deployment`. The vectors are only read: a
    /// new class copies them into its table's arenas. O(path length).
    ///
    /// # Panics
    /// Panics if `key` is already active or `gains` does not match the
    /// path length — the engine validates events before applying them.
    pub fn insert(
        &mut self,
        key: FlowKey,
        rate: u64,
        path: Vec<NodeId>,
        gains: Vec<f64>,
        cost: f64,
        deployment: &Deployment,
    ) {
        self.insert_priced(
            key,
            PricedFlow {
                rate,
                path: &path,
                gains: &gains,
                cost,
            },
            deployment,
        );
    }

    /// Inserts the flow `f` under `key` into the class of its path and
    /// pricing. A new class takes its assignment against `deployment`
    /// and opens its row entries; a flow joining a live class takes the
    /// class's assignment, which must be the one `deployment` gives
    /// (invariant 2; debug-asserted), and touches no row. The caller
    /// dirties the path vertices it already holds — no copy is
    /// returned. O(path length) to find the class; allocates nothing
    /// once the slot table and the class arenas have grown.
    ///
    /// # Panics
    /// Panics if `key` is already active or `f.gains` does not match
    /// the path length.
    pub(crate) fn insert_priced(
        &mut self,
        key: FlowKey,
        f: PricedFlow<'_>,
        deployment: &Deployment,
    ) {
        let PricedFlow {
            rate,
            path,
            gains,
            cost,
        } = f;
        assert!(self.lookup(key).is_none(), "duplicate flow key");
        assert_eq!(gains.len(), path.len(), "one gain per path position");
        // A joined class holds these very bits, so the arguments stand
        // for it below.
        let (class, opened) = self.classes.intern(&f.key());
        if opened {
            self.classes.class_mut(class).assigned = best_assignment(path, gains, deployment);
            self.open_rows(class);
        } else {
            debug_assert!(
                same_assignment(
                    self.classes.class(class).assigned,
                    best_assignment(path, gains, deployment)
                ),
                "a joined class is assigned as `deployment` gives"
            );
        }
        let c = self.classes.class_mut(class);
        c.rate += u128::from(rate);
        let assigned = c.assigned;
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.flows.push(None);
                id32(self.flows.len() - 1)
            }
        };
        self.unprocessed.add(approx_f64(rate) * cost);
        if let Some((v, g)) = assigned {
            let s = approx_f64(rate) * self.factor() * g;
            self.saved.add(s);
            self.primary_load[ix(v)] += s;
        } else {
            self.unserved += 1;
        }
        self.flows[ix(slot)] = Some(ActiveFlow {
            key,
            rate,
            pos: id32(self.order.len()),
            class,
            prev: NIL,
            next: NIL,
        });
        self.order.push(slot);
        self.link(slot, class);
        self.keys.insert(key_hash(key), slot);
        self.active += 1;
    }

    /// Removes a departing flow, subtracting its contributions and
    /// leaving its class, which closes its row entries and frees the
    /// class if the flow was its last member. Its arrival-log entry
    /// turns dead where it stands, and a log left longer than
    /// `2 · active + 64` is compacted (invariant 6). Returns its path,
    /// which the caller dirties; the slice stays valid until the next
    /// mutation. O(path length) when the class closes, amortized O(1)
    /// otherwise.
    ///
    /// # Panics
    /// Panics if `key` is not active.
    pub fn remove(&mut self, key: FlowKey) -> &[NodeId] {
        let slot = self
            .keys
            .remove(key_hash(key), holds_key(&self.flows, key))
            .expect("departure of an unknown flow key");
        let flow = self.flows[ix(slot)].take().expect("slot is live");
        self.unlink(&flow);
        let c = self.classes.class_mut(flow.class);
        c.rate -= u128::from(flow.rate);
        let (cost, assigned) = (c.cost, c.assigned);
        self.unprocessed.sub(approx_f64(flow.rate) * cost);
        if let Some((v, g)) = assigned {
            let s = approx_f64(flow.rate) * self.factor() * g;
            self.saved.sub(s);
            self.primary_load[ix(v)] -= s;
        } else {
            self.unserved -= 1;
        }
        self.free.push(slot);
        self.active -= 1;
        if self.order.len() > 2 * self.active + 64 {
            self.compact_order();
        }
        if self.classes.release(flow.class) {
            self.close_rows(flow.class);
        }
        // A freed class keeps its span until the next class of its
        // length opens.
        self.classes.path(flow.class)
    }

    /// Drops the dead entries of the arrival log in one order-keeping
    /// pass, rewriting each live flow's `pos` to its entry's new index
    /// (invariant 6). A slot's entries before its flow's own are dead,
    /// and none follow it, so a rewritten `pos` never makes a later
    /// entry look live.
    fn compact_order(&mut self) {
        let mut kept = 0;
        for p in 0..self.order.len() {
            let slot = self.order[p];
            if let Some(f) = self.flows[ix(slot)].as_mut().filter(|f| ix(f.pos) == p) {
                f.pos = id32(kept);
                self.order[kept] = slot;
                kept += 1;
            }
        }
        self.order.truncate(kept);
    }

    /// Appends the member in `slot` to the tail of class `c`'s member
    /// list.
    fn link(&mut self, slot: u32, c: u32) {
        let tail = std::mem::replace(&mut self.classes.class_mut(c).tail, slot);
        if tail == NIL {
            self.classes.class_mut(c).head = slot;
        } else {
            self.live_mut(tail).next = slot;
        }
        self.live_mut(slot).prev = tail;
    }

    /// Takes the departed flow `f` out of its class's member list,
    /// joining its neighbours.
    fn unlink(&mut self, f: &ActiveFlow) {
        match f.prev {
            NIL => self.classes.class_mut(f.class).head = f.next,
            p => self.live_mut(p).next = f.next,
        }
        match f.next {
            NIL => self.classes.class_mut(f.class).tail = f.prev,
            n => self.live_mut(n).prev = f.prev,
        }
    }

    /// Pushes one row entry per position of the new class `c` and
    /// points its back-pointers at them (invariant 1).
    fn open_rows(&mut self, c: u32) {
        for (pos, at) in self.classes.span(c).enumerate() {
            let row = &mut self.rows[ix(self.classes.nodes[at])];
            self.classes.row_pos[at] = id32(row.len());
            row.push(RowEntry {
                class: c,
                pos: id32(pos),
            });
        }
    }

    /// Removes the row entries of the closed class `c`, whose span
    /// still holds its path and back-pointers, by `swap_remove`, and
    /// re-points the back-pointer of each entry that moved.
    fn close_rows(&mut self, c: u32) {
        for at in self.classes.span(c) {
            let idx = ix(self.classes.row_pos[at]);
            let row = &mut self.rows[ix(self.classes.nodes[at])];
            row.swap_remove(idx);
            if let Some(&moved) = row.get(idx) {
                // A simple path visits each vertex once, so the moved
                // entry belongs to another, live class.
                let back = ix(self.classes.class(moved.class).at) + ix(moved.pos);
                self.classes.row_pos[back] = id32(idx);
            }
        }
    }

    /// Appends every member of the class whose member list starts at
    /// `head` to the flip log as `now_served`, in arrival order.
    fn log_flips(&mut self, head: u32, now_served: bool) {
        let mut slot = head;
        while slot != NIL {
            let f = self.live(slot);
            let (key, next) = (f.key, f.next);
            self.flips.push((key, now_served));
            slot = next;
        }
    }

    /// Moves class `c` from its assignment to `next`: its whole saved
    /// share `R_c · (1 − λ) · gain` leaves the old box and lands on the
    /// new one, a class that turns served or unserved moves its members
    /// across the census and logs each, every member counts as a
    /// reassignment, and the class's path joins the dirty scratch.
    fn move_class(&mut self, c: u32, next: Option<(NodeId, f64)>) {
        let factor = self.factor();
        let class = *self.classes.class(c);
        let rate = rate_sum_f64(class.rate);
        let members = ix(class.members);
        match class.assigned {
            Some((v, g)) => {
                let s = rate * factor * g;
                self.saved.sub(s);
                self.primary_load[ix(v)] -= s;
            }
            None => self.unserved -= members,
        }
        match next {
            Some((v, g)) => {
                let s = rate * factor * g;
                self.saved.add(s);
                self.primary_load[ix(v)] += s;
            }
            None => self.unserved += members,
        }
        if class.assigned.is_some() != next.is_some() {
            self.log_flips(class.head, next.is_some());
        }
        self.classes.class_mut(c).assigned = next;
        self.reassignments += u64::from(class.members);
        self.dirty.extend_from_slice(self.classes.path(c));
    }

    /// Sorts and deduplicates the dirty scratch.
    fn settle_dirty(&mut self) {
        self.dirty.sort_unstable();
        self.dirty.dedup();
    }

    /// Re-homes every class whose serving gain improves under a newly
    /// deployed `v` (invariant 2 restoration after an insert into the
    /// deployment). Returns the dirtied vertices: the paths of every
    /// re-homed class (their marginal gains changed everywhere),
    /// ascending, each once.
    ///
    /// The returned slice borrows an internal scratch buffer
    /// ([`DeltaState::dirty`]) — the hot repair path neither clones the
    /// vertex row nor allocates a fresh dirty vector. The slice is
    /// valid until the next `commit` or `fail_rehome`.
    pub fn commit(&mut self, v: NodeId) -> &[NodeId] {
        self.dirty.clear();
        // Index-based row walk: `RowEntry` is `Copy`, so each entry is
        // read out before the class table is borrowed mutably, and
        // `commit` itself never mutates the row.
        for i in 0..self.rows[ix(v)].len() {
            let e = self.rows[ix(v)][i];
            let g = self.classes.gain_at(e.class, e.pos);
            if better_assignment((v, g), self.classes.class(e.class).assigned) {
                self.move_class(e.class, Some((v, g)));
            }
        }
        self.settle_dirty();
        &self.dirty
    }

    /// Orphan reassignment after `v` stopped serving (failure or
    /// undeployment; `deployment` must no longer contain `v`): every
    /// class assigned to `v` is re-pinned to the best surviving
    /// deployed vertex on its path under the `(gain, smaller id)`
    /// preference, or marked degraded-unprocessed (full-rate
    /// accounting, [`DeltaState::unserved_count`]) when none exists.
    /// Returns how many orphaned flows were reassigned vs degraded; the
    /// dirtied vertices — the paths of every orphaned class, ascending,
    /// each once — are lent out by [`DeltaState::dirty`]. O(Σ path
    /// length of the affected classes); allocates nothing.
    pub fn fail_rehome(&mut self, v: NodeId, deployment: &Deployment) -> Failover {
        debug_assert!(!deployment.contains(v), "remove v before re-homing");
        self.dirty.clear();
        let mut out = Failover::default();
        for i in 0..self.rows[ix(v)].len() {
            let c = self.rows[ix(v)][i].class;
            let class = self.classes.class(c);
            if class.assigned.is_none_or(|(av, _)| av != v) {
                continue;
            }
            let members = ix(class.members);
            let next = best_assignment(self.classes.path(c), self.classes.gains(c), deployment);
            if next.is_some() {
                out.reassigned += members;
            } else {
                out.degraded += members;
            }
            self.move_class(c, next);
        }
        self.settle_dirty();
        out
    }

    /// The best assignment of every live class under `deployment`,
    /// indexed by class id (`None` for freed ids as for unserved
    /// classes): what [`best_assignment`] gives each member, found once
    /// per class.
    fn class_best(&self, deployment: &Deployment) -> Vec<Option<(NodeId, f64)>> {
        let table = &self.classes;
        (0..id32(table.classes.len()))
            .map(|c| {
                (table.class(c).members > 0)
                    .then(|| best_assignment(table.path(c), table.gains(c), deployment))
                    .flatten()
            })
            .collect()
    }

    /// Recomputes every assignment and all running sums from scratch
    /// against `deployment` (after a full replan adopts a new
    /// deployment wholesale). Each live class finds its best box once;
    /// a class that moves counts each member as a reassignment, and one
    /// that flips logs each member. The sums are then rebuilt flow by
    /// flow in arrival order and adopted via [`KahanSum::reset`] (exact
    /// re-sync, zero compensation), so the running objective coincides
    /// with [`DeltaState::exact_objective`] bitwise right after a
    /// rebuild.
    pub fn rebuild_assignments(&mut self, deployment: &Deployment) {
        for c in 0..id32(self.classes.classes.len()) {
            let class = *self.classes.class(c);
            if class.members == 0 {
                continue;
            }
            let best = best_assignment(self.classes.path(c), self.classes.gains(c), deployment);
            if class.assigned.map(|(v, _)| v) != best.map(|(v, _)| v) {
                self.reassignments += u64::from(class.members);
            }
            if class.assigned.is_some() != best.is_some() {
                self.log_flips(class.head, best.is_some());
            }
            self.classes.class_mut(c).assigned = best;
        }
        let factor = self.factor();
        self.primary_load.iter_mut().for_each(|l| *l = 0.0);
        let mut unprocessed = 0.0f64;
        let mut saved = 0.0f64;
        self.unserved = 0;
        for f in arrivals(&self.order, &self.flows) {
            let rate = approx_f64(f.rate);
            let class = self.classes.class(f.class);
            let (cost, assigned) = (class.cost, class.assigned);
            unprocessed += rate * cost;
            if let Some((v, g)) = assigned {
                let s = rate * factor * g;
                saved += s;
                self.primary_load[ix(v)] += s;
            } else {
                self.unserved += 1;
            }
        }
        self.unprocessed.reset(unprocessed);
        self.saved.reset(saved);
    }

    /// The objective `deployment` would yield against the current
    /// active flows, with every assignment recomputed from scratch —
    /// what cloning the state, calling
    /// [`DeltaState::rebuild_assignments`] and reading
    /// [`DeltaState::exact_objective`] would report, evaluated
    /// read-only without materializing the copy. Each live class's best
    /// gain is found once; the terms are then summed flow by flow in
    /// arrival order, term-for-term the same sum, so the agreement is
    /// bitwise.
    pub fn objective_under(&self, deployment: &Deployment) -> f64 {
        let factor = self.factor();
        let best_of = self.class_best(deployment);
        self.flows_in_arrival_order()
            .map(|f| {
                let full = approx_f64(f.rate) * self.classes.cost(f.class);
                match best_of[ix(f.class)] {
                    Some((_, g)) => full - approx_f64(f.rate) * factor * g,
                    None => full,
                }
            })
            .sum::<f64>()
            // Same -0.0 normalization as `exact_objective`.
            + 0.0
    }
}

/// Structural auditor and corruption hooks (tdmd-audit).
///
/// [`DeltaState::check_invariants`] re-derives every documented
/// invariant from scratch and compares it against the incremental
/// bookkeeping; the `audit_*` hooks deliberately break one invariant
/// each so the corruption proptests can assert the auditor catches it.
impl DeltaState {
    /// Validates invariants 1–6 (module docs) against a from-scratch
    /// recomputation under `deployment`.
    ///
    /// # Errors
    /// Returns the first violated check among `delta-key-map`,
    /// `delta-order-log`, `delta-class-census`, `delta-class-key`,
    /// `delta-class-rate`, `delta-class-members`, `delta-active-census`,
    /// `delta-row-mirror`, `delta-row-backpointer`, `delta-assignment`,
    /// `delta-sum-unprocessed`, `delta-sum-saved`,
    /// `delta-primary-load` and `delta-unserved-census`.
    pub fn check_invariants(
        &self,
        deployment: &Deployment,
    ) -> Result<(), tdmd_core::audit::AuditError> {
        use tdmd_core::audit::AuditError;
        let err = |check: &'static str, detail: String| Err(AuditError { check, detail });
        let tol = |x: f64| 1e-6 * x.abs().max(1.0);
        // Slot table vs key map.
        for (slot, f) in self.flows.iter().enumerate() {
            let Some(f) = f else { continue };
            if self.lookup(f.key) != Some(id32(slot)) {
                return err(
                    "delta-key-map",
                    format!("flow key {} not mapped to slot {slot}", f.key),
                );
            }
        }
        // Invariant 6 — the arrival log. Each live flow's `pos` indexes
        // an entry naming its slot, so the live entries are the active
        // flows, each once; every entry names a slot, so a walk never
        // leaves the slot table; and the log is within its compaction
        // bound. The log is the arrival order: the member lists below
        // must agree with it.
        let bound = 2 * self.active + 64;
        if self.order.len() > bound {
            return err(
                "delta-order-log",
                format!(
                    "arrival log holds {} entries for {} active flows, past {bound}",
                    self.order.len(),
                    self.active
                ),
            );
        }
        if let Some(p) = self.order.iter().position(|&s| ix(s) >= self.flows.len()) {
            return err(
                "delta-order-log",
                format!(
                    "arrival log entry {p} names slot {} of {}",
                    self.order[p],
                    self.flows.len()
                ),
            );
        }
        for (slot, f) in self.flows.iter().enumerate() {
            let Some(f) = f else { continue };
            let named = self.order.get(ix(f.pos));
            if named != Some(&id32(slot)) {
                return err(
                    "delta-order-log",
                    format!(
                        "flow key {} in slot {slot} claims arrival log entry {}, which names \
                         slot {named:?}",
                        f.key, f.pos
                    ),
                );
            }
        }
        // Invariant 5 — the class census, recounted from the flows.
        let table = &self.classes;
        let mut freed = vec![false; table.classes.len()];
        for &c in &table.free {
            match freed.get_mut(ix(c)) {
                Some(seen) if !*seen => *seen = true,
                _ => {
                    return err(
                        "delta-class-census",
                        format!("free list names class {c} twice or out of range"),
                    )
                }
            }
        }
        let mut members = vec![0u32; table.classes.len()];
        let mut rates = vec![0u128; table.classes.len()];
        for f in self.active_flows() {
            if freed.get(ix(f.class)) != Some(&false) {
                return err(
                    "delta-class-census",
                    format!("flow key {} names freed class {}", f.key, f.class),
                );
            }
            members[ix(f.class)] += 1;
            rates[ix(f.class)] += u128::from(f.rate);
        }
        for (c, (class, &counted)) in table.classes.iter().zip(&members).enumerate() {
            // A freed class counts no flow, a live one at least one.
            if class.members != counted || (counted == 0) != freed[c] {
                return err(
                    "delta-class-census",
                    format!(
                        "class {c} counts {} members, {counted} live flows name it{}",
                        class.members,
                        if freed[c] { " (freed)" } else { "" }
                    ),
                );
            }
        }
        // Each live class owns its span of the arenas, as does each
        // freed span awaiting reuse.
        if table.gains.len() != table.nodes.len() || table.row_pos.len() != table.nodes.len() {
            return err(
                "delta-class-census",
                format!(
                    "path arena holds {}, gain arena {}, back-pointer arena {}",
                    table.nodes.len(),
                    table.gains.len(),
                    table.row_pos.len()
                ),
            );
        }
        let live_classes = || (0..id32(table.classes.len())).filter(|&c| !freed[ix(c)]);
        let mut owned = vec![false; table.nodes.len()];
        let live_spans = live_classes().map(|c| (ix(table.class(c).at), ix(table.class(c).len)));
        let freed_spans = table
            .spans
            .iter()
            .enumerate()
            .flat_map(|(len, starts)| starts.iter().map(move |&at| (ix(at), len)));
        for (at, len) in live_spans.chain(freed_spans) {
            let cells = owned.get_mut(at..at + len);
            if cells.as_ref().is_none_or(|c| c.contains(&true)) {
                return err(
                    "delta-class-census",
                    format!(
                        "arena span {at}..{} overlaps another or leaves the arenas",
                        at + len
                    ),
                );
            }
            cells.into_iter().for_each(|c| c.fill(true));
        }
        // Invariant 5 — the table maps each live class's key to it.
        if table.table.len() != table.live() {
            return err(
                "delta-class-key",
                format!(
                    "{} table entries for {} live classes",
                    table.table.len(),
                    table.live()
                ),
            );
        }
        for c in live_classes() {
            let found = table.find(&table.key(c));
            if found != Some(c) {
                return err(
                    "delta-class-key",
                    format!(
                        "class {c}'s path and pricing map to {found:?}: unmapped, or shared \
                         with another live class"
                    ),
                );
            }
        }
        // Invariant 5 — `R_c` against a recount of the members' rates.
        for (c, (class, &rate)) in table.classes.iter().zip(&rates).enumerate() {
            if class.rate != rate {
                return err(
                    "delta-class-rate",
                    format!("class {c} sums rate {}, its members {rate}", class.rate),
                );
            }
        }
        // Invariant 5 — each member list links exactly its class's
        // flows in arrival order: at rising arrival-log positions. The
        // census fixed how many flows name the class, so a walk of that
        // many distinct (position-increasing) members that ends at the
        // tail holds them all.
        for c in live_classes() {
            let class = table.class(c);
            let (mut prev, mut slot, mut walked) = (NIL, class.head, 0u32);
            let mut last_pos = None;
            while slot != NIL && walked < class.members {
                let f = self.flows.get(ix(slot)).and_then(Option::as_ref);
                let Some(f) = f.filter(|f| {
                    f.class == c && f.prev == prev && last_pos.is_none_or(|p| p < f.pos)
                }) else {
                    return err(
                        "delta-class-members",
                        format!(
                            "class {c}'s member list breaks at slot {slot}: dead, another \
                             class's, mislinked or out of arrival order"
                        ),
                    );
                };
                last_pos = Some(f.pos);
                prev = slot;
                slot = f.next;
                walked += 1;
            }
            if slot != NIL || walked != class.members || class.tail != prev {
                return err(
                    "delta-class-members",
                    format!(
                        "class {c}'s member list links {walked} of {} members{}",
                        class.members,
                        if class.tail == prev {
                            ""
                        } else {
                            " and misses its tail"
                        }
                    ),
                );
            }
        }
        let live = self.active_flows().count();
        if live != self.active || self.keys.len() != live {
            return err(
                "delta-active-census",
                format!(
                    "{live} live slots, active = {}, key map = {}",
                    self.active,
                    self.keys.len()
                ),
            );
        }
        // Invariant 1 — row mirror, both directions. Forward: every
        // row entry names a live class crossing this vertex, and the
        // class's back-pointer points back at it.
        let mut total_entries = 0usize;
        for (v, row) in self.rows.iter().enumerate() {
            for (idx, e) in row.iter().enumerate() {
                if freed.get(ix(e.class)) != Some(&false)
                    || table.path(e.class).get(ix(e.pos)) != Some(&id32(v))
                {
                    return err(
                        "delta-row-mirror",
                        format!(
                            "rows[{v}][{idx}] claims position {} of class {}, which is not live \
                             or whose path disagrees",
                            e.pos, e.class
                        ),
                    );
                }
                let back = table.row_pos[ix(table.class(e.class).at) + ix(e.pos)];
                if back != id32(idx) {
                    return err(
                        "delta-row-backpointer",
                        format!(
                            "rows[{v}][{idx}]: class {} back-pointer says {back}",
                            e.class
                        ),
                    );
                }
                total_entries += 1;
            }
        }
        // Reverse: one entry per (live class, path vertex). Combined
        // with the forward direction this pins the mirror 1:1.
        let path_total: usize = live_classes().map(|c| ix(table.class(c).len)).sum();
        if total_entries != path_total {
            return err(
                "delta-row-mirror",
                format!("{total_entries} row entries for {path_total} class path vertices"),
            );
        }
        // Invariant 2 — assignment optimality, recomputed per class.
        // Gains are bitwise copies of the stored per-position gains,
        // so the comparison is exact (bit-level, not float ==).
        for c in live_classes() {
            let mut best: Option<(NodeId, f64)> = None;
            for (&u, &g) in table.path(c).iter().zip(table.gains(c)) {
                if deployment.contains(u) && better_assignment((u, g), best) {
                    best = Some((u, g));
                }
            }
            let assigned = table.class(c).assigned;
            if !same_assignment(assigned, best) {
                return err(
                    "delta-assignment",
                    format!(
                        "class {c} (path {:?}): assigned {assigned:?}, optimal {best:?}",
                        table.path(c)
                    ),
                );
            }
        }
        // Invariants 3–4 — running sums and unserved census, rebuilt
        // flow by flow in arrival order like `rebuild_assignments`.
        let factor = self.factor();
        let mut unprocessed = 0.0;
        let mut saved = 0.0;
        let mut primary = vec![0.0f64; self.rows.len()];
        let mut unserved = 0usize;
        for f in self.flows_in_arrival_order() {
            unprocessed += approx_f64(f.rate) * table.cost(f.class);
            match self.assigned(f) {
                Some((v, g)) => {
                    let s = approx_f64(f.rate) * factor * g;
                    saved += s;
                    primary[ix(v)] += s;
                }
                None => unserved += 1,
            }
        }
        if (self.unprocessed.value() - unprocessed).abs() > tol(unprocessed) {
            return err(
                "delta-sum-unprocessed",
                format!(
                    "running {} vs rebuilt {unprocessed}",
                    self.unprocessed.value()
                ),
            );
        }
        if (self.saved.value() - saved).abs() > tol(saved) {
            return err(
                "delta-sum-saved",
                format!("running {} vs rebuilt {saved}", self.saved.value()),
            );
        }
        for (v, (&a, &b)) in self.primary_load.iter().zip(&primary).enumerate() {
            if (a - b).abs() > tol(b) {
                return err(
                    "delta-primary-load",
                    format!("vertex {v}: running {a} vs rebuilt {b}"),
                );
            }
        }
        if self.unserved != unserved {
            return err(
                "delta-unserved-census",
                format!("running {} vs rebuilt {unserved}", self.unserved),
            );
        }
        Ok(())
    }

    /// The class of the active flow `key`, for a corruption hook.
    ///
    /// # Panics
    /// Panics if `key` is not active.
    fn class_of(&self, key: FlowKey) -> u32 {
        match self.flow(key) {
            Some(f) => f.class,
            None => panic!("corrupting an unknown flow key"),
        }
    }

    /// Corruption hook: repins the assignment of `key`'s class without
    /// fixing the running sums — breaks invariant 2 (and usually 3).
    ///
    /// # Panics
    /// Panics if `key` is not active.
    pub fn audit_force_assignment(&mut self, key: FlowKey, assigned: Option<(NodeId, f64)>) {
        let c = self.class_of(key);
        self.classes.class_mut(c).assigned = assigned;
    }

    /// Corruption hook: counts one member too many in `key`'s class —
    /// breaks invariant 5 (`delta-class-census`).
    ///
    /// # Panics
    /// Panics if `key` is not active.
    pub fn audit_miscount_class(&mut self, key: FlowKey) {
        let c = self.class_of(key);
        self.classes.class_mut(c).members += 1;
    }

    /// Corruption hook: takes `key`'s class out of the class table
    /// while its flows still name it — breaks invariant 5
    /// (`delta-class-key`).
    ///
    /// # Panics
    /// Panics if `key` is not active.
    pub fn audit_unmap_class(&mut self, key: FlowKey) {
        let c = self.class_of(key);
        self.classes.unmap(c);
    }

    /// Corruption hook: adds `by` to the rate sum `R_c` of `key`'s
    /// class — breaks invariant 5 (`delta-class-rate`).
    ///
    /// # Panics
    /// Panics if `key` is not active.
    pub fn audit_skew_class_rate(&mut self, key: FlowKey, by: u64) {
        let c = self.class_of(key);
        self.classes.class_mut(c).rate += u128::from(by);
    }

    /// Corruption hook: swaps the first two members of `key`'s class's
    /// member list, relinking both so that the list stays whole but
    /// leaves arrival order — breaks invariant 5
    /// (`delta-class-members`). Returns whether the class had two
    /// members to swap.
    ///
    /// # Panics
    /// Panics if `key` is not active.
    pub fn audit_swap_members(&mut self, key: FlowKey) -> bool {
        let c = self.class_of(key);
        let first = self.classes.class(c).head;
        let second = self.live(first).next;
        if second == NIL {
            return false;
        }
        let third = self.live(second).next;
        self.classes.class_mut(c).head = second;
        let f = self.live_mut(second);
        (f.prev, f.next) = (NIL, first);
        let f = self.live_mut(first);
        (f.prev, f.next) = (second, third);
        if third == NIL {
            self.classes.class_mut(c).tail = first;
        } else {
            self.live_mut(third).prev = first;
        }
        true
    }

    /// Corruption hook: swaps the first two live entries of the arrival
    /// log without rewriting either flow's `pos` — breaks invariant 6
    /// (`delta-order-log`). Returns whether the log had two live
    /// entries to swap.
    pub fn audit_swap_order(&mut self) -> bool {
        let live: Vec<usize> = self
            .flows_in_arrival_order()
            .take(2)
            .map(|f| ix(f.pos))
            .collect();
        let &[a, b] = live.as_slice() else {
            return false;
        };
        self.order.swap(a, b);
        true
    }

    /// Corruption hook: skews the running `saved` sum — breaks
    /// invariant 3.
    pub fn audit_skew_saved(&mut self, delta: f64) {
        self.saved.add(delta);
    }

    /// Corruption hook: swaps the first two entries of `v`'s row
    /// without fixing the back-pointers — breaks invariant 1
    /// (`delta-row-backpointer`). Returns whether the row had two
    /// entries to swap.
    pub fn audit_swap_row_entries(&mut self, v: NodeId) -> bool {
        let row = &mut self.rows[ix(v)];
        if row.len() < 2 {
            return false;
        }
        row.swap(0, 1);
        true
    }

    /// Corruption hook: drops the last entry of `v`'s row while its
    /// class stays live — breaks invariant 1 (`delta-row-mirror`).
    /// Returns whether the row had an entry to drop.
    pub fn audit_drop_row_entry(&mut self, v: NodeId) -> bool {
        self.rows[ix(v)].pop().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdmd_core::{CostModel, HopCount};

    /// Inserts a flow priced by hop count.
    fn add(state: &mut DeltaState, key: FlowKey, rate: u64, path: Vec<NodeId>, dep: &Deployment) {
        let f = Flow::new(0, rate, path.clone());
        let gains = HopCount.gains(&f);
        let cost = HopCount.unprocessed_cost(&f);
        state.insert(key, rate, path, gains, cost, dep);
    }

    #[test]
    fn objective_tracks_arrivals_and_departures() {
        let mut st = DeltaState::new(4, 0.5);
        let dep = Deployment::from_vertices(4, [1]);
        add(&mut st, 7, 2, vec![3, 2, 1, 0], &dep); // gain at v1 = 1
        assert_eq!(st.active_count(), 1);
        // unprocessed 2*3 = 6; saved 2*0.5*1 = 1.
        assert_eq!(st.objective(), 5.0);
        assert_eq!(st.exact_objective(), 5.0);
        add(&mut st, 8, 4, vec![2, 1, 0], &dep); // gain at v1 = 1
                                                 // + unprocessed 4*2 = 8, + saved 4*0.5*1 = 2.
        assert_eq!(st.objective(), 11.0);
        assert_eq!(st.remove(7), [3, 2, 1, 0]);
        assert_eq!(st.objective(), 6.0);
        st.remove(8);
        assert_eq!(st.objective(), 0.0);
        assert_eq!(st.active_count(), 0);
        // Not the empty `Sum<f64>`'s -0.0 — a drained state must
        // format as "0.00", not "-0.00".
        assert!(st.exact_objective().is_sign_positive());
    }

    /// The assignment of the active flow `key`.
    fn assigned(state: &DeltaState, key: FlowKey) -> Option<(NodeId, f64)> {
        state.assigned(state.flow(key).unwrap())
    }

    #[test]
    fn commit_rehomes_to_better_boxes() {
        let mut st = DeltaState::new(4, 0.0);
        let mut dep = Deployment::from_vertices(4, [1]);
        add(&mut st, 0, 1, vec![3, 2, 1, 0], &dep);
        assert_eq!(st.objective(), 2.0); // 3 hops − gain 1
        dep.insert(3);
        let dirty = st.commit(3);
        assert_eq!(dirty, vec![0, 1, 2, 3], "the path, ascending");
        assert_eq!(st.objective(), 0.0); // served at the source
        assert_eq!(st.primary_load(3), 3.0);
        assert_eq!(st.primary_load(1), 0.0);
    }

    #[test]
    fn fail_rehome_falls_back_to_second_best() {
        let mut st = DeltaState::new(4, 0.0);
        let mut dep = Deployment::from_vertices(4, [1, 3]);
        add(&mut st, 0, 1, vec![3, 2, 1, 0], &dep);
        assert_eq!(assigned(&st, 0), Some((3, 3.0)));
        dep.remove(3);
        let fo = st.fail_rehome(3, &dep);
        assert_eq!((fo.reassigned, fo.degraded), (1, 0));
        assert_eq!(st.dirty(), [0, 1, 2, 3]);
        assert_eq!(assigned(&st, 0), Some((1, 1.0)));
        assert_eq!(st.objective(), 2.0);
        assert!(st.primary_load(3).abs() < 1e-12);
    }

    #[test]
    fn marginal_gain_matches_def2() {
        let mut st = DeltaState::new(4, 0.5);
        let dep = Deployment::empty(4);
        add(&mut st, 0, 2, vec![3, 2, 1, 0], &dep);
        add(&mut st, 1, 4, vec![2, 1], &dep);
        // v2 (id 2): f0 gain 2, f1 gain 1 → 0.5*(2*2 + 4*1) = 4.
        assert_eq!(st.marginal_gain(2), 4.0);
        // After deploying v2, v3's marginal shrinks to the delta.
        let mut dep = dep;
        dep.insert(2);
        st.commit(2);
        // v3: f0 gain 3 vs current 2 → 0.5*2*(3−2) = 1.
        assert_eq!(st.marginal_gain(3), 1.0);
    }

    #[test]
    fn snapshot_densifies_in_arrival_order_with_slot_reuse() {
        let mut st = DeltaState::new(4, 0.5);
        let dep = Deployment::empty(4);
        add(&mut st, 10, 1, vec![0, 1], &dep);
        add(&mut st, 20, 2, vec![1, 2], &dep);
        st.remove(10);
        add(&mut st, 30, 3, vec![2, 3], &dep); // reuses slot 0 but arrives last
        let snap = st.active_snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].id, 0);
        assert_eq!(snap[0].rate, 2, "key 20 arrived first among survivors");
        assert_eq!(snap[1].rate, 3);
    }

    #[test]
    fn rebuild_matches_incremental_bookkeeping() {
        let mut st = DeltaState::new(5, 0.3);
        let mut dep = Deployment::empty(5);
        add(&mut st, 0, 2, vec![4, 3, 2, 1, 0], &dep);
        add(&mut st, 1, 5, vec![3, 2, 1], &dep);
        dep.insert(2);
        st.commit(2);
        dep.insert(4);
        st.commit(4);
        let incremental = st.objective();
        let mut rebuilt = st.clone();
        rebuilt.rebuild_assignments(&dep);
        assert!((rebuilt.objective() - incremental).abs() < 1e-9);
        assert_eq!(rebuilt.exact_objective(), st.exact_objective());
    }

    /// The flip log after one call names exactly the flows whose
    /// `assigned` went `None`↔`Some` in it, with their new status.
    #[test]
    fn flip_log_names_exactly_the_status_changes_of_the_last_call() {
        fn served(st: &DeltaState) -> Vec<(FlowKey, bool)> {
            let mut v: Vec<_> = st
                .active_flows()
                .map(|f| (f.key, st.assigned(f).is_some()))
                .collect();
            v.sort_unstable();
            v
        }
        fn check(st: &mut DeltaState, call: impl FnOnce(&mut DeltaState)) -> Vec<(FlowKey, bool)> {
            let before = served(st);
            st.clear_flips();
            call(st);
            let changed: Vec<_> = served(st)
                .into_iter()
                .zip(before)
                .filter(|(after, before)| after.1 != before.1)
                .map(|(after, _)| after)
                .collect();
            let mut log = st.flips().to_vec();
            log.sort_unstable();
            assert_eq!(log, changed);
            log
        }
        let mut st = DeltaState::new(6, 0.5);
        let mut dep = Deployment::empty(6);
        add(&mut st, 0, 1, vec![0, 1, 2], &dep);
        add(&mut st, 1, 2, vec![3, 1, 4], &dep);
        add(&mut st, 2, 3, vec![5, 4], &dep);
        add(&mut st, 3, 4, vec![2, 5], &dep);
        assert!(
            st.flips().is_empty(),
            "arrivals enter with their own status"
        );
        dep.insert(1);
        let log = check(&mut st, |st| {
            st.commit(1);
        });
        assert_eq!(log, [(0, true), (1, true)]);
        dep.insert(4);
        let log = check(&mut st, |st| {
            st.commit(4);
        });
        assert_eq!(log, [(2, true)], "flow 1 keeps its better box at v1");
        dep.remove(1);
        let log = check(&mut st, |st| {
            st.fail_rehome(1, &dep);
        });
        assert_eq!(log, [(0, false)], "flow 1 re-homes to v4 and stays served");
        let dep = Deployment::from_vertices(6, [2, 3]);
        let log = check(&mut st, |st| st.rebuild_assignments(&dep));
        assert_eq!(log, [(0, true), (2, false), (3, true)]);
        add(&mut st, 4, 1, vec![5, 4], &dep);
        let log = check(&mut st, |st| st.rebuild_assignments(&dep));
        assert!(
            log.is_empty(),
            "a rebuild against the same deployment moves nothing"
        );
    }

    #[test]
    fn assignment_tiebreak_prefers_smaller_vertex() {
        // Two deployed vertices with equal gain 0 at the destination
        // never happen on simple paths under hop pricing, so force a
        // tie with λ anything and a custom gains vector.
        let mut st = DeltaState::new(3, 0.5);
        let dep = Deployment::from_vertices(3, [1, 2]);
        st.insert(0, 1, vec![2, 1, 0], vec![1.0, 1.0, 0.0], 2.0, &dep);
        assert_eq!(assigned(&st, 0), Some((1, 1.0)));
    }

    #[test]
    #[should_panic(expected = "duplicate flow key")]
    fn duplicate_keys_are_rejected() {
        let mut st = DeltaState::new(3, 0.5);
        let dep = Deployment::empty(3);
        add(&mut st, 0, 1, vec![0, 1], &dep);
        add(&mut st, 0, 1, vec![1, 2], &dep);
    }

    #[test]
    fn a_reused_slot_answers_only_for_its_new_key() {
        let mut st = DeltaState::new(4, 0.5);
        let dep = Deployment::empty(4);
        add(&mut st, 10, 1, vec![0, 1], &dep);
        st.remove(10);
        assert!(!st.is_active(10));
        assert!(st.flow(10).is_none());
        // Key 20 reuses slot 0; the old key is dead, the new key
        // resolves.
        add(&mut st, 20, 2, vec![1, 2], &dep);
        assert_eq!(st.lookup(20), Some(0));
        assert!(st.is_active(20));
        assert_eq!(st.flow(20).unwrap().rate, 2);
        assert!(st.flow(10).is_none());
    }

    #[test]
    fn commit_reuses_the_dirty_scratch_across_calls() {
        let mut st = DeltaState::new(4, 0.0);
        let mut dep = Deployment::from_vertices(4, [1]);
        add(&mut st, 0, 1, vec![3, 2, 1, 0], &dep);
        dep.insert(2);
        assert_eq!(st.commit(2), vec![0, 1, 2, 3]);
        // The second commit clears and refills the same scratch; a
        // no-improvement commit yields an empty dirty set.
        dep.insert(3);
        assert_eq!(st.commit(3), vec![0, 1, 2, 3]);
        assert_eq!(st.commit(1), &[] as &[NodeId]);
    }

    #[test]
    fn objective_under_matches_clone_rebuild_bitwise() {
        let mut st = DeltaState::new(5, 0.3);
        let dep = Deployment::empty(5);
        add(&mut st, 0, 2, vec![4, 3, 2, 1, 0], &dep);
        add(&mut st, 1, 5, vec![3, 2, 1], &dep);
        add(&mut st, 2, 3, vec![2, 1, 0], &dep);
        for probe in [
            Deployment::from_vertices(5, [2]),
            Deployment::from_vertices(5, [1, 4]),
            Deployment::from_vertices(5, [0, 2, 3]),
            Deployment::empty(5),
        ] {
            let mut cloned = st.clone();
            cloned.rebuild_assignments(&probe);
            assert_eq!(
                st.objective_under(&probe).to_bits(),
                cloned.exact_objective().to_bits(),
                "probe {probe:?}"
            );
        }
        // The read-only probe did not disturb the live state.
        st.check_invariants(&dep).unwrap();
    }

    #[test]
    fn kahan_sums_recover_exactness_after_rebuild() {
        let mut st = DeltaState::new(4, 0.5);
        let mut dep = Deployment::empty(4);
        for key in 0..64u64 {
            add(&mut st, key, 1 + key % 7, vec![3, 2, 1, 0], &dep);
        }
        for key in (0..64u64).step_by(3) {
            st.remove(key);
        }
        dep.insert(1);
        st.commit(1);
        st.rebuild_assignments(&dep);
        assert_eq!(st.objective().to_bits(), st.exact_objective().to_bits());
    }

    /// Flows on one path priced alike share one class; a second
    /// pricing of that path opens its own; the last member's departure
    /// frees the class, whose id the next new class takes, and
    /// `remove` still lends out the freed class's path.
    #[test]
    fn classes_are_shared_split_by_pricing_freed_and_reused() {
        let mut st = DeltaState::new(5, 0.5);
        let dep = Deployment::from_vertices(5, [2]);
        add(&mut st, 0, 1, vec![0, 1, 2], &dep);
        add(&mut st, 1, 2, vec![0, 1, 2], &dep);
        add(&mut st, 2, 3, vec![3, 2], &dep);
        assert_eq!(st.class_count(), 2);
        assert_eq!(st.flow(0).unwrap().class, st.flow(1).unwrap().class);
        // The same path priced at twice the hop counts.
        st.insert(3, 4, vec![0, 1, 2], vec![4.0, 2.0, 0.0], 4.0, &dep);
        assert_eq!(st.class_count(), 3);
        assert_ne!(st.flow(3).unwrap().class, st.flow(0).unwrap().class);
        let priced = st.priced(st.flow(3).unwrap());
        assert_eq!(
            (priced.rate, priced.gains, priced.cost),
            (4, &[4.0, 2.0, 0.0][..], 4.0)
        );
        st.check_invariants(&dep).unwrap();
        let freed = st.flow(2).unwrap().class;
        assert_eq!(st.remove(2), [3, 2], "the freed class's path");
        assert_eq!(st.class_count(), 2);
        st.check_invariants(&dep).unwrap();
        add(&mut st, 4, 1, vec![4, 3], &dep);
        assert_eq!(st.flow(4).unwrap().class, freed, "a freed id is reused");
        assert_eq!(st.remove(0), [0, 1, 2]);
        assert_eq!(st.class_count(), 3, "flow 1 keeps the class open");
        st.check_invariants(&dep).unwrap();
        for key in [1, 3, 4] {
            st.remove(key);
        }
        assert_eq!(st.class_count(), 0);
        st.check_invariants(&dep).unwrap();
    }

    /// Flows on one path share one class: a member that joins or
    /// leaves a live class touches no row, the class moves whole on a
    /// commit or a failover, and a class that flips logs every member
    /// in arrival order.
    #[test]
    fn members_share_rows_and_move_with_their_class() {
        let mut st = DeltaState::new(4, 0.5);
        let mut dep = Deployment::empty(4);
        let entries = |st: &DeltaState| st.rows.iter().map(Vec::len).sum::<usize>();
        add(&mut st, 5, 2, vec![3, 2, 1, 0], &dep);
        assert_eq!(entries(&st), 4);
        add(&mut st, 3, 1, vec![3, 2, 1, 0], &dep);
        add(&mut st, 9, 4, vec![3, 2, 1, 0], &dep);
        st.remove(3);
        assert_eq!(entries(&st), 4, "joining and leaving members touch no row");
        // R_c = 6 at gain 2: 0.5 · 6 · 2.
        assert_eq!(st.marginal_gain(2), 6.0);
        dep.insert(2);
        st.commit(2);
        assert_eq!(
            st.flips(),
            [(5, true), (9, true)],
            "members in arrival order"
        );
        assert_eq!((st.reassignments(), st.primary_load(2)), (2, 6.0));
        dep.remove(2);
        st.clear_flips();
        let fo = st.fail_rehome(2, &dep);
        assert_eq!(
            fo,
            Failover {
                reassigned: 0,
                degraded: 2
            }
        );
        assert_eq!(st.flips(), [(5, false), (9, false)]);
        assert_eq!(st.unserved_count(), 2);
        st.check_invariants(&dep).unwrap();
        st.remove(5);
        st.remove(9);
        assert_eq!(entries(&st), 0, "the last member closes the class's rows");
        st.check_invariants(&dep).unwrap();
    }

    /// The class checks catch what the public hooks cannot seed: a
    /// flow naming a freed class, an emptied class left in the table,
    /// two classes on one arena span, and two live classes with one
    /// path and one pricing.
    #[test]
    fn class_audit_catches_freed_empty_and_duplicate_classes() {
        let dep = Deployment::empty(4);
        let mut clean = DeltaState::new(4, 0.5);
        add(&mut clean, 0, 1, vec![0, 1, 2], &dep);
        clean.insert(1, 2, vec![0, 1, 2], vec![4.0, 2.0, 0.0], 4.0, &dep);
        add(&mut clean, 2, 3, vec![3, 2], &dep);
        clean.remove(2);
        clean.check_invariants(&dep).unwrap();
        let (c0, c1) = (clean.flow(0).unwrap().class, clean.flow(1).unwrap().class);
        let freed = clean.classes.free[0];
        let check = |corrupt: &dyn Fn(&mut DeltaState)| {
            let mut st = clean.clone();
            corrupt(&mut st);
            st.check_invariants(&dep).unwrap_err().check
        };
        let slot = |st: &DeltaState, key| ix(st.lookup(key).unwrap());
        assert_eq!(
            check(&|st| {
                let s = slot(st, 0);
                st.flows[s].as_mut().unwrap().class = freed;
            }),
            "delta-class-census"
        );
        assert_eq!(
            check(&|st| st.classes.classes[ix(c0)].members = 0),
            "delta-class-census"
        );
        // The drained class back off the free list: empty, yet live.
        assert_eq!(check(&|st| st.classes.free.clear()), "delta-class-census");
        assert_eq!(check(&|st| st.classes.free.push(c1)), "delta-class-census");
        // Class 1 moved onto class 0's span of the arenas.
        assert_eq!(
            check(&|st| st.classes.classes[ix(c1)].at = st.classes.classes[ix(c0)].at),
            "delta-class-census"
        );
        assert_eq!(
            check(&|st| {
                let twin = st.classes.gains(c0).to_vec();
                let span = st.classes.span(c1);
                st.classes.gains[span].copy_from_slice(&twin);
                st.classes.classes[ix(c1)].cost = st.classes.cost(c0);
            }),
            "delta-class-key"
        );
    }

    /// The arrival log grows by one entry per arrival and by none per
    /// departure until it holds exactly `2 · active + 64` entries; the
    /// next departure that leaves it past that bound compacts it to the
    /// live entries, in arrival order, each flow's `pos` rewritten.
    #[test]
    fn arrival_log_compacts_just_past_its_bound() {
        let mut st = DeltaState::new(4, 0.5);
        let dep = Deployment::from_vertices(4, [1]);
        let pos = |st: &DeltaState, key| st.flow(key).unwrap().pos;
        let keys = |st: &DeltaState| {
            st.flows_in_arrival_order()
                .map(|f| f.key)
                .collect::<Vec<_>>()
        };
        add(&mut st, 10, 1, vec![0, 1, 2], &dep);
        add(&mut st, 11, 2, vec![3, 2, 1], &dep);
        add(&mut st, 12, 3, vec![0, 1, 2], &dep);
        st.remove(10);
        assert_eq!((pos(&st, 11), pos(&st, 12)), (1, 2));
        // Each arrival reuses slot 0 and leaves a dead entry behind it.
        let mut key = 100;
        while st.order.len() < 2 * st.active_count() + 64 {
            let len = st.order.len();
            add(&mut st, key, 1, vec![2, 1, 0], &dep);
            st.remove(key);
            assert_eq!(st.order.len(), len + 1, "no compaction below the bound");
            key += 1;
        }
        assert_eq!(st.order.len(), 68);
        assert_eq!((pos(&st, 11), pos(&st, 12)), (1, 2));
        st.check_invariants(&dep).unwrap();
        add(&mut st, key, 1, vec![2, 1, 0], &dep);
        assert_eq!(st.order.len(), 69, "an arrival never compacts");
        st.remove(key);
        assert_eq!(st.order, [1, 2], "only the live entries remain");
        assert_eq!((pos(&st, 11), pos(&st, 12)), (0, 1));
        assert_eq!(keys(&st), [11, 12]);
        st.check_invariants(&dep).unwrap();
        add(&mut st, 13, 4, vec![3, 2, 1], &dep);
        assert_eq!((pos(&st, 13), keys(&st)), (2, vec![11, 12, 13]));
        st.check_invariants(&dep).unwrap();
    }

    /// A flow slot keeps key, rate, class, log position and two member
    /// links: 40 bytes with the `Option`'s tag.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_flow_slot_is_forty_bytes() {
        assert_eq!(std::mem::size_of::<Option<ActiveFlow>>(), 40);
    }

    #[test]
    fn class_table_survives_grow_and_backward_shift_churn() {
        // 300 distinct two-hop paths through vertex 0 force growth;
        // every third class then empties, and every survivor must stay
        // reachable by its key across the backward shifts.
        let mut st = DeltaState::new(301, 0.5);
        let dep = Deployment::empty(301);
        for v in 1..=300u32 {
            add(&mut st, u64::from(v), 1, vec![v, 0], &dep);
        }
        assert_eq!(st.class_count(), 300);
        for v in (1..=300u32).step_by(3) {
            st.remove(u64::from(v));
        }
        assert_eq!(st.class_count(), 200);
        st.check_invariants(&dep).unwrap();
        for v in (1..=300u32).step_by(3) {
            add(&mut st, 1000 + u64::from(v), 1, vec![v, 0], &dep);
        }
        assert_eq!(st.class_count(), 300);
        assert!(st.classes.classes.len() == 300, "freed ids were reused");
        st.check_invariants(&dep).unwrap();
    }
}
