//! [`DeltaState`] — the incrementally-maintained mirror of the static
//! CSR flow index.
//!
//! The static engine compiles the whole workload into one immutable
//! CSR arena; a stream cannot. `DeltaState` keeps the same
//! information — per-vertex `(flow, gain)` rows, per-flow serving
//! assignments, and the objective — under churn, with every update
//! touching only the affected flow's path:
//!
//! # Invariants
//!
//! 1. **Row mirror** — for every vertex `v`, `rows[v]` holds exactly
//!    one entry per *active* flow whose path crosses `v`, and the
//!    flow's `row_pos` back-pointers index those entries (so a
//!    departure removes its entries by `swap_remove` in O(path
//!    length) without scanning).
//! 2. **Assignment optimality** — each active flow's `assigned` is
//!    the deployed on-path vertex maximizing `(gain, smaller id)`, or
//!    `None` when no deployed vertex lies on its path; this matches
//!    the forced allocation of the static `allocate` (§3.1)
//!    deterministically, tie-break included.
//! 3. **Running objective** — `unprocessed = Σ r_f · cost(p_f)` and
//!    `saved = Σ_{assigned} r_f · (1 − λ) · gain` over active flows,
//!    so `objective() = unprocessed − saved` in O(1). `primary_load[v]`
//!    is the `saved` share of the flows assigned to `v` — an upper
//!    bound on the objective loss of undeploying `v` (flows re-home
//!    to their second-best box, recovering part of it).
//! 4. **Unserved census** — `unserved` counts exactly the active
//!    flows with `assigned == None`. Those flows ride at full rate
//!    (their whole `r_f · cost(p_f)` stays in the objective); the
//!    failure layer reads this as its degraded-flow census. Every
//!    change of an active flow between served and unserved is also
//!    appended to the flip log ([`DeltaState::flips`]), so a reader
//!    can keep per-flow-group sums of served and degraded rate without
//!    walking the flows.
//!
//! All four are restored by every mutation (insert, remove, commit,
//! rehome/failover, rebuild); the engine's repair logic relies on
//! them.

use tdmd_core::num::{approx_f64, big_ix, id32, ix, KahanSum};
use tdmd_core::{Deployment, FlowIndex, PricedFlow};
use tdmd_graph::NodeId;
use tdmd_traffic::Flow;

use crate::event::FlowKey;

/// An active flow with its arrival-time pricing and current serving
/// assignment.
#[derive(Debug, Clone)]
pub struct ActiveFlow {
    /// Stream-stable key the flow arrived under.
    pub key: FlowKey,
    /// Rate `r_f`.
    pub rate: u64,
    /// Path `p_f`.
    pub path: Vec<NodeId>,
    /// Per-position serving gains ([`CostModel::gains`](tdmd_core::CostModel::gains),
    /// fixed at arrival).
    pub gains: Vec<f64>,
    /// Unprocessed metric of the whole path.
    pub cost: f64,
    /// Serving middlebox and its gain, if any deployed vertex lies on
    /// the path.
    pub assigned: Option<(NodeId, f64)>,
    /// Arrival sequence number — the canonical densification order.
    pub seq: u64,
    /// `row_pos[i]` = index of this flow's entry within
    /// `rows[path[i]]`.
    row_pos: Vec<u32>,
}

/// Outcome of orphaning the flows served at a failed/undeployed
/// vertex (see [`DeltaState::fail_rehome`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Failover {
    /// Orphans re-pinned to a surviving deployed on-path vertex.
    pub reassigned: usize,
    /// Orphans left with no serving middlebox — they ride at full
    /// rate (degraded-unprocessed accounting) until repair or
    /// recovery re-covers them.
    pub degraded: usize,
    /// Vertices whose marginal gains may have changed (the full paths
    /// of every orphaned flow).
    pub dirty: Vec<NodeId>,
}

/// One per-vertex row entry: which flow slot, at which path position.
/// The gain is read through the slot (`flows[slot].gains[pos]`) so a
/// row entry never goes stale.
#[derive(Debug, Clone, Copy)]
struct RowEntry {
    slot: u32,
    pos: u32,
}

/// A generation-validated reference into the flow slot arena: `slot`
/// indexes `DeltaState::flows`, and the reference resolves only while
/// `gen` matches `DeltaState::gens[slot]` — freeing a slot bumps its
/// generation, so a stale reference can never silently alias the next
/// flow reusing that slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SlotRef {
    slot: u32,
    gen: u32,
}

/// Flat open-addressing `FlowKey → SlotRef` map — the generation-
/// indexed slot map that replaces the `HashMap` on the per-event hot
/// path. Fibonacci hashing (multiply by ⌊2⁶⁴/φ⌋, keep the top
/// log₂(capacity) bits), linear probing over a power-of-two bucket
/// array, and backward-shift deletion (Knuth 6.4 Algorithm R) instead
/// of tombstones, so probe chains stay short under churn and no
/// per-operation allocation or SipHash state is involved. Capacity
/// grows at 7/8 load, which guarantees an empty bucket always
/// terminates a probe.
#[derive(Debug, Clone, Default)]
struct KeyIndex {
    /// Power-of-two bucket array; `None` is empty (probe terminator).
    table: Vec<Option<(FlowKey, SlotRef)>>,
    len: usize,
}

impl KeyIndex {
    const MIN_CAPACITY: usize = 8;

    /// Number of mapped keys.
    #[cfg(any(debug_assertions, feature = "audit", test))]
    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    /// Home bucket of `key` in the current table.
    #[inline]
    fn home(&self, key: FlowKey) -> usize {
        debug_assert!(self.table.len().is_power_of_two());
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // The shifted value is < capacity ≤ usize::MAX, so `big_ix`
        // never panics here.
        big_ix(h >> (64 - self.table.len().trailing_zeros()))
    }

    /// Looks up `key`. O(probe chain), allocation-free.
    fn get(&self, key: FlowKey) -> Option<SlotRef> {
        if self.table.is_empty() {
            return None;
        }
        let mask = self.table.len() - 1;
        let mut i = self.home(key);
        loop {
            match self.table[i] {
                None => return None,
                Some((k, r)) if k == key => return Some(r),
                Some(_) => i = (i + 1) & mask,
            }
        }
    }

    /// Inserts a key the caller has verified to be absent.
    fn insert(&mut self, key: FlowKey, r: SlotRef) {
        self.grow_if_needed();
        let mask = self.table.len() - 1;
        let mut i = self.home(key);
        while let Some((k, _)) = self.table[i] {
            debug_assert_ne!(k, key, "key already present");
            i = (i + 1) & mask;
        }
        self.table[i] = Some((key, r));
        self.len += 1;
    }

    /// Removes `key`, returning its reference if it was present.
    fn remove(&mut self, key: FlowKey) -> Option<SlotRef> {
        if self.table.is_empty() {
            return None;
        }
        let mask = self.table.len() - 1;
        let mut gap = self.home(key);
        let removed = loop {
            match self.table[gap] {
                None => return None,
                Some((k, r)) if k == key => break r,
                Some(_) => gap = (gap + 1) & mask,
            }
        };
        self.len -= 1;
        // Backward-shift deletion: slide the rest of the probe chain
        // left over the gap. An entry at `j` may fill the gap iff its
        // home bucket does not lie strictly between the gap and `j`
        // (otherwise the shift would strand it before its home).
        let mut j = (gap + 1) & mask;
        while let Some((k, _)) = self.table[j] {
            let home = self.home(k);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(gap) & mask) {
                self.table[gap] = self.table[j].take();
                gap = j;
            }
            j = (j + 1) & mask;
        }
        self.table[gap] = None;
        Some(removed)
    }

    /// Doubles the table before the 7/8 load factor is reached (and
    /// bootstraps the first allocation).
    fn grow_if_needed(&mut self) {
        if self.table.is_empty() {
            self.table = vec![None; Self::MIN_CAPACITY];
            return;
        }
        if (self.len + 1) * 8 < self.table.len() * 7 {
            return;
        }
        let doubled = self.table.len() * 2;
        let old = std::mem::replace(&mut self.table, vec![None; doubled]);
        let mask = doubled - 1;
        for entry in old.into_iter().flatten() {
            let mut i = self.home(entry.0);
            while self.table[i].is_some() {
                i = (i + 1) & mask;
            }
            self.table[i] = Some(entry);
        }
    }
}

/// Incrementally-maintained flow index, assignments and objective.
#[derive(Debug, Clone)]
pub struct DeltaState {
    lambda: f64,
    /// Flow slots; `None` marks a freed slot awaiting reuse.
    flows: Vec<Option<ActiveFlow>>,
    /// Slot generations (parallel to `flows`), bumped when a slot is
    /// freed; see [`SlotRef`].
    gens: Vec<u32>,
    free: Vec<u32>,
    key_index: KeyIndex,
    /// Per-vertex rows — the mutable analogue of the CSR arena.
    rows: Vec<Vec<RowEntry>>,
    unprocessed: KahanSum,
    saved: KahanSum,
    /// Per-vertex saved share of the flows assigned there.
    primary_load: Vec<f64>,
    active: usize,
    /// Active flows with no serving middlebox (`assigned == None`) —
    /// they are accounted at full rate.
    unserved: usize,
    next_seq: u64,
    /// Reusable dirty-vertex scratch; [`DeltaState::commit`] lends it
    /// out as a slice so the hot repair path allocates nothing.
    dirty: Vec<NodeId>,
    /// Monotone census of assignment changes applied by
    /// [`DeltaState::commit`], [`DeltaState::fail_rehome`] and
    /// [`DeltaState::rebuild_assignments`] (arrival-time initial
    /// assignments are not changes). The engine reads it differentially
    /// around each repair move to price flow reassignments, so the
    /// absolute value carries no meaning and is not serialized.
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

impl DeltaState {
    /// Empty state over a topology of `n` vertices with
    /// traffic-changing ratio `lambda`.
    pub fn new(n: usize, lambda: f64) -> Self {
        Self {
            lambda,
            flows: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            key_index: KeyIndex::default(),
            rows: vec![Vec::new(); n],
            unprocessed: KahanSum::default(),
            saved: KahanSum::default(),
            primary_load: vec![0.0; n],
            active: 0,
            unserved: 0,
            next_seq: 0,
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
    /// served (`assigned` is `Some`) and unserved since the last
    /// [`DeltaState::clear_flips`], in the order made. Only
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

    /// Resolves `key` to its live slot, validating the generation
    /// stamp (a mismatch means the slot was freed and reused since the
    /// reference was minted — structurally impossible while the key
    /// index is maintained, hence the debug assert).
    #[inline]
    fn lookup(&self, key: FlowKey) -> Option<u32> {
        let r = self.key_index.get(key)?;
        debug_assert_eq!(self.gens[ix(r.slot)], r.gen, "stale slot reference");
        (self.gens[ix(r.slot)] == r.gen).then_some(r.slot)
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

    /// Number of active flows with no serving middlebox — whether
    /// because no deployed vertex lies on their path or because a
    /// failure orphaned them. These flows are accounted at full rate.
    #[inline]
    pub fn unserved_count(&self) -> usize {
        self.unserved
    }

    /// Iterates over the active flows in unspecified order (use
    /// [`DeltaState::active_snapshot`] for the canonical arrival
    /// order). Handy for invariant checks: every `assigned` vertex
    /// must be deployed, never failed.
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

    /// Per-vertex saved share (the swap-repair victim metric).
    #[inline]
    pub fn primary_load(&self, v: NodeId) -> f64 {
        self.primary_load[ix(v)]
    }

    /// Active flow slots in arrival (seq) order — the canonical
    /// densification order for oracle snapshots. Sorts `(seq, slot)`
    /// pairs, so the sort never dereferences a flow; seqs are unique,
    /// so the order is the seq order exactly.
    fn slots_in_seq_order(&self) -> Vec<u32> {
        let mut order: Vec<(u64, u32)> = self
            .flows
            .iter()
            .enumerate()
            .filter_map(|(i, f)| f.as_ref().map(|f| (f.seq, id32(i))))
            .collect();
        order.sort_unstable();
        order.into_iter().map(|(_, slot)| slot).collect()
    }

    /// Active flows in arrival (seq) order — the canonical order
    /// engine snapshots serialize and restores replay, so both sides
    /// of a snapshot/restore round trip rebuild bitwise-identical
    /// float sums.
    pub fn flows_in_seq_order(&self) -> Vec<&ActiveFlow> {
        self.slots_in_seq_order()
            .into_iter()
            .map(|s| self.flows[ix(s)].as_ref().expect("live slot"))
            .collect()
    }

    /// Densified snapshot of the active flows (ids re-assigned
    /// `0..n` in arrival order) — the workload of the from-scratch
    /// oracle.
    pub fn active_snapshot(&self) -> Vec<Flow> {
        self.slots_in_seq_order()
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                let f = self.flows[ix(s)].as_ref().expect("live slot");
                Flow::new(id32(i), f.rate, f.path.clone())
            })
            .collect()
    }

    /// The active flows compiled for the greedy kernel, numbered in
    /// arrival order from the gains and costs stored at arrival — no
    /// flow is priced again. Bitwise equal to [`FlowIndex::build`] of
    /// the densified snapshot ([`DeltaState::active_snapshot`]) under
    /// the model those gains came from: the same flows, in the same
    /// order, through the same fill. `coverage_tiebreak` is the
    /// model's [`CostModel::coverage_tiebreak`](tdmd_core::CostModel::coverage_tiebreak).
    pub fn flow_index(&self, coverage_tiebreak: bool) -> FlowIndex {
        let slots = self.slots_in_seq_order();
        FlowIndex::compile(
            self.rows.len(),
            self.lambda,
            coverage_tiebreak,
            slots.iter().map(|&s| {
                let f = self.flows[ix(s)].as_ref().expect("live slot");
                PricedFlow {
                    rate: f.rate,
                    path: &f.path,
                    gains: &f.gains,
                    cost: f.cost,
                }
            }),
        )
    }

    /// Objective recomputed from scratch, flow by flow in arrival
    /// order — term-for-term the same sum as the static
    /// `FlowIndex::bandwidth_of` evaluates on the densified snapshot,
    /// so the two agree *exactly* (bitwise), not just approximately.
    pub fn exact_objective(&self) -> f64 {
        let factor = self.factor();
        self.slots_in_seq_order()
            .into_iter()
            .map(|s| {
                let f = self.flows[ix(s)].as_ref().expect("live slot");
                let full = approx_f64(f.rate) * f.cost;
                match f.assigned {
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
    /// `rows[v]` is scanned.
    pub fn marginal_gain(&self, v: NodeId) -> f64 {
        let factor = self.factor();
        self.rows[ix(v)]
            .iter()
            .map(|e| {
                let f = self.flows[ix(e.slot)].as_ref().expect("row entry is live");
                let g = f.gains[ix(e.pos)];
                let cur = f.assigned.map_or(0.0, |(_, cg)| cg);
                if g > cur {
                    approx_f64(f.rate) * factor * (g - cur)
                } else {
                    0.0
                }
            })
            .sum()
    }

    /// Inserts an arriving flow and computes its assignment against
    /// `deployment`. The caller dirties the path vertices it already
    /// holds — no copy is returned. O(path length), zero allocation
    /// beyond the flow's own storage.
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
        assert!(self.lookup(key).is_none(), "duplicate flow key");
        assert_eq!(gains.len(), path.len(), "one gain per path position");
        let factor = self.factor();
        // Best deployed on-path vertex under the (gain, smaller id)
        // preference.
        let mut assigned: Option<(NodeId, f64)> = None;
        for (pos, &v) in path.iter().enumerate() {
            if deployment.contains(v) && better_assignment((v, gains[pos]), assigned) {
                assigned = Some((v, gains[pos]));
            }
        }
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.flows.push(None);
                self.gens.push(0);
                id32(self.flows.len() - 1)
            }
        };
        let mut row_pos = Vec::with_capacity(path.len());
        for (pos, &v) in path.iter().enumerate() {
            let row = &mut self.rows[ix(v)];
            row_pos.push(id32(row.len()));
            row.push(RowEntry {
                slot,
                pos: id32(pos),
            });
        }
        self.unprocessed.add(approx_f64(rate) * cost);
        if let Some((v, g)) = assigned {
            let s = approx_f64(rate) * factor * g;
            self.saved.add(s);
            self.primary_load[ix(v)] += s;
        } else {
            self.unserved += 1;
        }
        self.flows[ix(slot)] = Some(ActiveFlow {
            key,
            rate,
            path,
            gains,
            cost,
            assigned,
            seq: self.next_seq,
            row_pos,
        });
        self.next_seq += 1;
        self.key_index.insert(
            key,
            SlotRef {
                slot,
                gen: self.gens[ix(slot)],
            },
        );
        self.active += 1;
    }

    /// Removes a departing flow, subtracting its contributions and
    /// unlinking its row entries. Returns its path vertices (the
    /// caller dirties them). O(path length).
    ///
    /// # Panics
    /// Panics if `key` is not active.
    pub fn remove(&mut self, key: FlowKey) -> Vec<NodeId> {
        let r = self
            .key_index
            .remove(key)
            .expect("departure of an unknown flow key");
        debug_assert_eq!(self.gens[ix(r.slot)], r.gen, "stale slot reference");
        let slot = r.slot;
        let flow = self.flows[ix(slot)].take().expect("slot is live");
        // Bump the generation so any reference minted for the departed
        // flow can never resolve against the slot's next tenant.
        self.gens[ix(slot)] = self.gens[ix(slot)].wrapping_add(1);
        let factor = self.factor();
        self.unprocessed.sub(approx_f64(flow.rate) * flow.cost);
        if let Some((v, g)) = flow.assigned {
            let s = approx_f64(flow.rate) * factor * g;
            self.saved.sub(s);
            self.primary_load[ix(v)] -= s;
        } else {
            self.unserved -= 1;
        }
        for (pos, &v) in flow.path.iter().enumerate() {
            let idx = ix(flow.row_pos[pos]);
            let row = &mut self.rows[ix(v)];
            row.swap_remove(idx);
            if idx < row.len() {
                // Fix the back-pointer of the entry that moved into
                // `idx`. A simple path visits each vertex once, so the
                // moved entry belongs to a *different* (live) flow.
                let moved = row[idx];
                self.flows[ix(moved.slot)]
                    .as_mut()
                    .expect("moved row entry is live")
                    .row_pos[ix(moved.pos)] = id32(idx);
            }
        }
        self.free.push(slot);
        self.active -= 1;
        flow.path
    }

    /// Switches an active flow to a different route — a remove + insert
    /// that preserves the key, rate and sequence-independent identity.
    /// Used when a candidate-path re-selection (the joint solver's
    /// routing rounds) changes a flow's active path while it is live in
    /// the online engine. Returns the union of dirtied vertices: the
    /// old path and the new one.
    ///
    /// # Panics
    /// Panics if `key` is not active or `gains` does not match the new
    /// path length.
    pub fn reroute(
        &mut self,
        key: FlowKey,
        path: Vec<NodeId>,
        gains: Vec<f64>,
        cost: f64,
        deployment: &Deployment,
    ) -> Vec<NodeId> {
        let slot = self.lookup(key).expect("reroute of an unknown flow key");
        let rate = self.flows[ix(slot)].as_ref().expect("slot is live").rate;
        let mut dirty = self.remove(key);
        for &v in &path {
            if !dirty.contains(&v) {
                dirty.push(v);
            }
        }
        self.insert(key, rate, path, gains, cost, deployment);
        dirty
    }

    /// Re-homes every flow whose serving gain improves under a newly
    /// deployed `v` (invariant 2 restoration after an insert into the
    /// deployment). Returns the dirtied vertices: the full paths of
    /// every re-homed flow (their marginal gains changed everywhere).
    ///
    /// The returned slice borrows an internal scratch buffer — the hot
    /// repair path neither clones the vertex row nor allocates a fresh
    /// dirty vector. The slice is valid until the next `commit`.
    pub fn commit(&mut self, v: NodeId) -> &[NodeId] {
        let factor = self.factor();
        self.dirty.clear();
        // Index-based row walk: `RowEntry` is `Copy`, so each entry is
        // read out before the flow table is borrowed mutably — no
        // snapshot clone of the row is needed, and `commit` itself
        // never mutates the row.
        for i in 0..self.rows[ix(v)].len() {
            let e = self.rows[ix(v)][i];
            let f = self.flows[ix(e.slot)].as_mut().expect("row entry is live");
            let g = f.gains[ix(e.pos)];
            if !better_assignment((v, g), f.assigned) {
                continue;
            }
            if let Some((ov, og)) = f.assigned {
                let s = approx_f64(f.rate) * factor * og;
                self.saved.sub(s);
                self.primary_load[ix(ov)] -= s;
            } else {
                self.unserved -= 1;
                self.flips.push((f.key, true));
            }
            let s = approx_f64(f.rate) * factor * g;
            self.saved.add(s);
            self.primary_load[ix(v)] += s;
            f.assigned = Some((v, g));
            self.reassignments += 1;
            self.dirty.extend_from_slice(&f.path);
        }
        &self.dirty
    }

    /// Re-homes every flow assigned to `v` after `v` was removed from
    /// `deployment` (which must no longer contain `v`). Returns the
    /// dirtied vertices. O(Σ path length of the affected flows).
    pub fn rehome_from(&mut self, v: NodeId, deployment: &Deployment) -> Vec<NodeId> {
        self.fail_rehome(v, deployment).dirty
    }

    /// Orphan reassignment after `v` stopped serving (failure or
    /// undeployment; `deployment` must no longer contain `v`): every
    /// flow assigned to `v` is re-pinned to the best surviving
    /// deployed vertex on its path under the `(gain, smaller id)`
    /// preference, or marked degraded-unprocessed (full-rate
    /// accounting, [`DeltaState::unserved_count`]) when none exists.
    /// Returns how many orphans were reassigned vs degraded alongside
    /// the dirtied vertices. O(Σ path length of the affected flows).
    pub fn fail_rehome(&mut self, v: NodeId, deployment: &Deployment) -> Failover {
        debug_assert!(!deployment.contains(v), "remove v before re-homing");
        let factor = self.factor();
        let orphans: Vec<u32> = self.rows[ix(v)]
            .iter()
            .filter(|e| {
                self.flows[ix(e.slot)]
                    .as_ref()
                    .expect("row entry is live")
                    .assigned
                    .is_some_and(|(av, _)| av == v)
            })
            .map(|e| e.slot)
            .collect();
        let mut out = Failover::default();
        for slot in orphans {
            let f = self.flows[ix(slot)].as_mut().expect("orphan is live");
            let old = f.assigned.expect("orphan was assigned").1;
            let mut next: Option<(NodeId, f64)> = None;
            for (pos, &u) in f.path.iter().enumerate() {
                if deployment.contains(u) && better_assignment((u, f.gains[pos]), next) {
                    next = Some((u, f.gains[pos]));
                }
            }
            let s_old = approx_f64(f.rate) * factor * old;
            self.saved.sub(s_old);
            self.primary_load[ix(v)] -= s_old;
            if let Some((nv, ng)) = next {
                let s = approx_f64(f.rate) * factor * ng;
                self.saved.add(s);
                self.primary_load[ix(nv)] += s;
                out.reassigned += 1;
            } else {
                self.unserved += 1;
                self.flips.push((f.key, false));
                out.degraded += 1;
            }
            f.assigned = next;
            self.reassignments += 1;
            out.dirty.extend_from_slice(&f.path);
        }
        out
    }

    /// Exact objective increase of undeploying `v` under `deployment`
    /// (which still contains `v`): each flow assigned to `v` falls
    /// back to its second-best deployed box. Never exceeds
    /// [`DeltaState::primary_load`] of `v`.
    pub fn removal_loss(&self, v: NodeId, deployment: &Deployment) -> f64 {
        let factor = self.factor();
        let mut loss = 0.0;
        for e in &self.rows[ix(v)] {
            let f = self.flows[ix(e.slot)].as_ref().expect("row entry is live");
            let Some((av, ag)) = f.assigned else { continue };
            if av != v {
                continue;
            }
            let mut second = 0.0f64;
            for (pos, &u) in f.path.iter().enumerate() {
                if u != v && deployment.contains(u) && f.gains[pos] > second {
                    second = f.gains[pos];
                }
            }
            loss += approx_f64(f.rate) * factor * (ag - second);
        }
        loss
    }

    /// Recomputes every assignment and all running sums from scratch
    /// against `deployment` (after a full replan adopts a new
    /// deployment wholesale). Sums are rebuilt in arrival order and
    /// adopted via [`KahanSum::reset`] (exact re-sync, zero
    /// compensation), so the running objective coincides with
    /// [`DeltaState::exact_objective`] bitwise right after a rebuild.
    pub fn rebuild_assignments(&mut self, deployment: &Deployment) {
        let factor = self.factor();
        self.primary_load.iter_mut().for_each(|l| *l = 0.0);
        let mut unprocessed = 0.0f64;
        let mut saved = 0.0f64;
        self.unserved = 0;
        for slot in self.slots_in_seq_order() {
            let f = self.flows[ix(slot)].as_mut().expect("live slot");
            let mut best: Option<(NodeId, f64)> = None;
            for (pos, &u) in f.path.iter().enumerate() {
                if deployment.contains(u) && better_assignment((u, f.gains[pos]), best) {
                    best = Some((u, f.gains[pos]));
                }
            }
            if f.assigned.map(|(v, _)| v) != best.map(|(v, _)| v) {
                self.reassignments += 1;
            }
            if f.assigned.is_some() != best.is_some() {
                self.flips.push((f.key, best.is_some()));
            }
            f.assigned = best;
            unprocessed += approx_f64(f.rate) * f.cost;
            if let Some((v, g)) = best {
                let s = approx_f64(f.rate) * factor * g;
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
    /// read-only without materializing the copy. Term-for-term the
    /// same arrival-order sum, so the agreement is bitwise.
    pub fn objective_under(&self, deployment: &Deployment) -> f64 {
        let factor = self.factor();
        self.slots_in_seq_order()
            .into_iter()
            .map(|s| {
                let f = self.flows[ix(s)].as_ref().expect("live slot");
                let mut best: Option<(NodeId, f64)> = None;
                for (pos, &u) in f.path.iter().enumerate() {
                    if deployment.contains(u) && better_assignment((u, f.gains[pos]), best) {
                        best = Some((u, f.gains[pos]));
                    }
                }
                let full = approx_f64(f.rate) * f.cost;
                match best {
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
#[cfg(any(debug_assertions, feature = "audit", test))]
impl DeltaState {
    /// Validates invariants 1–4 (module docs) against a from-scratch
    /// recomputation under `deployment`.
    ///
    /// # Errors
    /// Returns the first violated check among `delta-key-map`,
    /// `delta-flow-shape`, `delta-active-census`, `delta-row-dead-slot`,
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
        // Slot table vs key map vs census.
        let mut live = 0usize;
        for (slot, f) in self.flows.iter().enumerate() {
            let Some(f) = f else { continue };
            live += 1;
            let expected = SlotRef {
                slot: id32(slot),
                gen: self.gens[slot],
            };
            if self.key_index.get(f.key) != Some(expected) {
                return err(
                    "delta-key-map",
                    format!(
                        "flow key {} not mapped to slot {slot} at generation {}",
                        f.key, expected.gen
                    ),
                );
            }
            if f.gains.len() != f.path.len() || f.row_pos.len() != f.path.len() {
                return err(
                    "delta-flow-shape",
                    format!(
                        "flow key {}: path {}, gains {}, row_pos {}",
                        f.key,
                        f.path.len(),
                        f.gains.len(),
                        f.row_pos.len()
                    ),
                );
            }
        }
        if live != self.active || self.key_index.len() != live {
            return err(
                "delta-active-census",
                format!(
                    "{live} live slots, active = {}, key map = {}",
                    self.active,
                    self.key_index.len()
                ),
            );
        }
        // Invariant 1 — row mirror, both directions. Forward: every
        // row entry points at a live flow crossing this vertex, and
        // the flow's back-pointer points back at it.
        let mut total_entries = 0usize;
        for (v, row) in self.rows.iter().enumerate() {
            for (idx, e) in row.iter().enumerate() {
                let Some(f) = self.flows.get(ix(e.slot)).and_then(|f| f.as_ref()) else {
                    return err(
                        "delta-row-dead-slot",
                        format!("rows[{v}][{idx}] references dead slot {}", e.slot),
                    );
                };
                if f.path.get(ix(e.pos)) != Some(&id32(v)) {
                    return err(
                        "delta-row-mirror",
                        format!(
                            "rows[{v}][{idx}] claims position {} of flow key {}, whose path \
                             disagrees",
                            e.pos, f.key
                        ),
                    );
                }
                if f.row_pos[ix(e.pos)] != id32(idx) {
                    return err(
                        "delta-row-backpointer",
                        format!(
                            "rows[{v}][{idx}]: flow key {} back-pointer says {}",
                            f.key,
                            f.row_pos[ix(e.pos)]
                        ),
                    );
                }
                total_entries += 1;
            }
        }
        // Reverse: one entry per (active flow, path vertex). Combined
        // with the forward direction this pins the mirror 1:1.
        let path_total: usize = self.active_flows().map(|f| f.path.len()).sum();
        if total_entries != path_total {
            return err(
                "delta-row-mirror",
                format!("{total_entries} row entries for {path_total} path vertices"),
            );
        }
        // Invariant 2 — assignment optimality, recomputed per flow.
        // Gains are bitwise copies of the stored per-position gains,
        // so the comparison is exact (bit-level, not float ==).
        for f in self.active_flows() {
            let mut best: Option<(NodeId, f64)> = None;
            for (pos, &u) in f.path.iter().enumerate() {
                if deployment.contains(u) && better_assignment((u, f.gains[pos]), best) {
                    best = Some((u, f.gains[pos]));
                }
            }
            let agree = match (f.assigned, best) {
                (None, None) => true,
                (Some((av, ag)), Some((bv, bg))) => av == bv && ag.to_bits() == bg.to_bits(),
                _ => false,
            };
            if !agree {
                return err(
                    "delta-assignment",
                    format!(
                        "flow key {}: assigned {:?}, optimal {best:?}",
                        f.key, f.assigned
                    ),
                );
            }
        }
        // Invariants 3–4 — running sums and unserved census, rebuilt
        // in arrival order like `rebuild_assignments`.
        let factor = self.factor();
        let mut unprocessed = 0.0;
        let mut saved = 0.0;
        let mut primary = vec![0.0f64; self.rows.len()];
        let mut unserved = 0usize;
        for slot in self.slots_in_seq_order() {
            let f = self.flows[ix(slot)].as_ref().expect("live slot");
            unprocessed += approx_f64(f.rate) * f.cost;
            match f.assigned {
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

    /// Corruption hook: repins `key`'s assignment without fixing the
    /// running sums — breaks invariant 2 (and usually 3).
    ///
    /// # Panics
    /// Panics if `key` is not active.
    pub fn audit_force_assignment(&mut self, key: FlowKey, assigned: Option<(NodeId, f64)>) {
        let Some(slot) = self.lookup(key) else {
            panic!("corrupting an unknown flow key")
        };
        self.flows[ix(slot)]
            .as_mut()
            .expect("slot is live")
            .assigned = assigned;
    }

    /// Corruption hook: skews the running `saved` sum — breaks
    /// invariant 3.
    pub fn audit_skew_saved(&mut self, delta: f64) {
        self.saved.add(delta);
    }

    /// Corruption hook: swaps the first two entries of `v`'s row
    /// without fixing the back-pointers — breaks invariant 1. Returns
    /// whether the row had two entries to swap.
    pub fn audit_swap_row_entries(&mut self, v: NodeId) -> bool {
        let row = &mut self.rows[ix(v)];
        if row.len() < 2 {
            return false;
        }
        row.swap(0, 1);
        true
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
        let dirty = st.remove(7);
        assert_eq!(dirty, vec![3, 2, 1, 0]);
        assert_eq!(st.objective(), 6.0);
        st.remove(8);
        assert_eq!(st.objective(), 0.0);
        assert_eq!(st.active_count(), 0);
        // Not the empty `Sum<f64>`'s -0.0 — a drained state must
        // format as "0.00", not "-0.00".
        assert!(st.exact_objective().is_sign_positive());
    }

    #[test]
    fn reroute_switches_path_and_preserves_identity() {
        let mut st = DeltaState::new(5, 0.5);
        let dep = Deployment::from_vertices(5, [4]);
        // Active on 0 → 1 → 2: no deployed vertex on path, unserved.
        add(&mut st, 7, 2, vec![0, 1, 2], &dep);
        assert_eq!(st.objective(), 4.0); // 2·2, nothing saved
        assert_eq!(st.unserved_count(), 1);
        // Switch to the covered candidate 0 → 4 → 2.
        let f = Flow::new(0, 2, vec![0, 4, 2]);
        let (gains, cost) = (HopCount.gains(&f), HopCount.unprocessed_cost(&f));
        let mut dirty = st.reroute(7, vec![0, 4, 2], gains, cost, &dep);
        dirty.sort_unstable();
        assert_eq!(dirty, vec![0, 1, 2, 4]); // old ∪ new path
        assert_eq!(st.active_count(), 1);
        assert_eq!(st.unserved_count(), 0);
        assert_eq!(st.flow(7).unwrap().assigned, Some((4, 1.0)));
        assert_eq!(st.objective(), 3.0); // 2·2 − 2·0.5·1
                                         // The old route's rows are fully unlinked.
        assert_eq!(st.marginal_gain(1), 0.0);
    }

    #[test]
    fn commit_rehomes_to_better_boxes() {
        let mut st = DeltaState::new(4, 0.0);
        let mut dep = Deployment::from_vertices(4, [1]);
        add(&mut st, 0, 1, vec![3, 2, 1, 0], &dep);
        assert_eq!(st.objective(), 2.0); // 3 hops − gain 1
        dep.insert(3);
        let dirty = st.commit(3);
        assert_eq!(dirty, vec![3, 2, 1, 0]);
        assert_eq!(st.objective(), 0.0); // served at the source
        assert_eq!(st.primary_load(3), 3.0);
        assert_eq!(st.primary_load(1), 0.0);
    }

    #[test]
    fn rehome_from_falls_back_to_second_best() {
        let mut st = DeltaState::new(4, 0.0);
        let mut dep = Deployment::from_vertices(4, [1, 3]);
        add(&mut st, 0, 1, vec![3, 2, 1, 0], &dep);
        assert_eq!(st.flow(0).unwrap().assigned, Some((3, 3.0)));
        assert_eq!(st.removal_loss(3, &dep), 2.0); // falls to gain 1 at v1
        dep.remove(3);
        st.rehome_from(3, &dep);
        assert_eq!(st.flow(0).unwrap().assigned, Some((1, 1.0)));
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
                .map(|f| (f.key, f.assigned.is_some()))
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
        assert_eq!(st.flow(0).unwrap().assigned, Some((1, 1.0)));
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
    fn key_index_survives_grow_and_backward_shift_churn() {
        // Adversarial keys: multiples of the table capacity collide in
        // the low bits; Fibonacci hashing must still spread them, and
        // backward-shift deletion must keep every survivor reachable
        // across interleaved insert/remove waves that force growth.
        let mut idx = KeyIndex::default();
        for slot in 0..512u32 {
            idx.insert(u64::from(slot) * 64, SlotRef { slot, gen: 0 });
        }
        assert_eq!(idx.len(), 512);
        for slot in (0..512u32).step_by(2) {
            assert!(idx.remove(u64::from(slot) * 64).is_some());
        }
        assert_eq!(idx.len(), 256);
        for slot in 0..512u32 {
            let got = idx.get(u64::from(slot) * 64);
            if slot % 2 == 0 {
                assert_eq!(got, None, "removed key {slot} resurfaced");
            } else {
                assert_eq!(
                    got,
                    Some(SlotRef { slot, gen: 0 }),
                    "surviving key {slot} lost"
                );
            }
        }
        assert_eq!(idx.remove(9_999_999), None);
    }

    #[test]
    fn slot_reuse_bumps_generation() {
        let mut st = DeltaState::new(4, 0.5);
        let dep = Deployment::empty(4);
        add(&mut st, 10, 1, vec![0, 1], &dep);
        st.remove(10);
        assert!(!st.is_active(10));
        assert!(st.flow(10).is_none());
        // Key 20 reuses slot 0 under a bumped generation; the old
        // key's references are dead, the new key's resolve.
        add(&mut st, 20, 2, vec![1, 2], &dep);
        assert_eq!(st.gens[0], 1);
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
        assert_eq!(st.commit(2), vec![3, 2, 1, 0]);
        // The second commit clears and refills the same scratch; a
        // no-improvement commit yields an empty dirty set.
        dep.insert(3);
        assert_eq!(st.commit(3), vec![3, 2, 1, 0]);
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
}
