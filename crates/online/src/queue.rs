//! [`LazyQueue`] — a CELF lazy priority queue whose cached gains
//! survive across churn events.
//!
//! The static CELF greedy exploits submodularity: cached marginal
//! gains only shrink as the deployment grows, so a popped entry whose
//! refreshed gain still tops the heap is the round's true maximum.
//! Under churn the same trick works across *events* with two
//! amendments:
//!
//! * **Departures and commits** only lower gains, so existing cached
//!   entries stay valid *upper bounds* — they are merely flagged
//!   dirty and re-evaluated lazily if they ever reach the top.
//! * **Arrivals** can raise a gain, breaking the upper-bound
//!   invariant; the queue restores it by bumping the cache with the
//!   new flow's maximum possible contribution (`r · (1 − λ) · gain`
//!   at that vertex) — an optimistic bound that the next lazy
//!   re-evaluation tightens.
//!
//! * **Failures** remove a vertex from the race entirely:
//!   [`LazyQueue::block`] makes [`LazyQueue::settle`] discard the
//!   vertex's entries instead of returning them, and recovery
//!   ([`LazyQueue::unblock`]) re-enters it via [`LazyQueue::reinsert`]
//!   with an exact bound.
//!
//! Every push carries an **epoch stamp**; bumping a vertex's stamp
//! invalidates all of its older heap entries at once (they are
//! skipped on pop), so the queue never scans the heap to invalidate.
//! Per vertex at most one entry carries the current stamp. Dead
//! entries of vertices that never reach the top would otherwise pile
//! up for as long as the stream runs, so a push first drops every dead
//! entry once they could outnumber the live ones: the heap stays
//! within twice the vertex count plus a constant, at O(1) amortized
//! per push, and each event pushes only O(path length) entries.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use tdmd_core::num::ix;
use tdmd_core::order::TotalGain;
use tdmd_core::Deployment;
use tdmd_graph::NodeId;

/// Heap entry: cached gain upper bound for a vertex at a stamp.
#[derive(Debug, Clone, Copy)]
struct QEntry {
    gain: f64,
    v: NodeId,
    stamp: u64,
}

impl QEntry {
    /// Ordering key: larger gain first ([`TotalGain`]'s total order);
    /// ties prefer the smaller vertex id, like the static greedy's
    /// ladder.
    #[inline]
    fn key(&self) -> (TotalGain, Reverse<NodeId>) {
        (TotalGain::new(self.gain), Reverse(self.v))
    }
}

impl PartialEq for QEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for QEntry {}
impl PartialOrd for QEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// Lazy max-gain queue with epoch-stamped invalidation.
#[derive(Debug, Clone)]
pub struct LazyQueue {
    heap: BinaryHeap<QEntry>,
    /// Current stamp per vertex; heap entries with an older stamp are
    /// dead.
    stamp: Vec<u64>,
    /// Last known gain upper bound per vertex.
    cached: Vec<f64>,
    /// Whether the cached bound must be re-evaluated before trusting
    /// it as exact.
    dirty: Vec<bool>,
    /// Failed vertices: ineligible candidates whose entries are
    /// consumed (not returned) by [`LazyQueue::settle`]. Unblocking
    /// does not resurrect consumed entries — the caller re-enters the
    /// vertex with [`LazyQueue::reinsert`].
    blocked: Vec<bool>,
    /// Number of exact re-evaluations performed (telemetry).
    pub recomputes: u64,
}

impl LazyQueue {
    /// Heap entries allowed beyond twice the vertex count before a
    /// push drops the dead ones.
    const SLACK: usize = 64;

    /// Empty queue over `n` vertices. Vertices enter the heap the
    /// first time a flow path touches them ([`LazyQueue::touch_up`]).
    pub fn new(n: usize) -> Self {
        Self {
            heap: BinaryHeap::new(),
            stamp: vec![0; n],
            cached: vec![0.0; n],
            dirty: vec![false; n],
            blocked: vec![false; n],
            recomputes: 0,
        }
    }

    /// Marks `v` ineligible (failed): [`LazyQueue::settle`] discards
    /// its entries instead of returning them.
    pub fn block(&mut self, v: NodeId) {
        self.blocked[ix(v)] = true;
    }

    /// Lifts a [`LazyQueue::block`]. Entries discarded while blocked
    /// are gone — follow up with [`LazyQueue::reinsert`] to put the
    /// vertex back in the race.
    pub fn unblock(&mut self, v: NodeId) {
        self.blocked[ix(v)] = false;
    }

    /// Whether `v` is currently blocked.
    pub fn is_blocked(&self, v: NodeId) -> bool {
        self.blocked[ix(v)]
    }

    /// Arrival invalidation: raises `v`'s bound by `bump` (the new
    /// flow's maximum contribution at `v`) and pushes a fresh entry.
    pub fn touch_up(&mut self, v: NodeId, bump: f64) {
        let i = ix(v);
        self.cached[i] += bump;
        self.dirty[i] = true;
        self.stamp[i] += 1;
        self.push(QEntry {
            gain: self.cached[i],
            v,
            stamp: self.stamp[i],
        });
    }

    /// Departure/commit invalidation: gains only shrink, so the
    /// existing entry stays a valid upper bound — just mark it for
    /// lazy re-evaluation.
    pub fn touch_down(&mut self, v: NodeId) {
        self.dirty[ix(v)] = true;
    }

    /// Re-enters a vertex that left the candidate pool (it was
    /// deployed and has now been undeployed, e.g. by a swap or a
    /// replan).
    pub fn reinsert(&mut self, v: NodeId, bound: f64) {
        let i = ix(v);
        self.cached[i] = bound;
        self.dirty[i] = true;
        self.stamp[i] += 1;
        self.push(QEntry {
            gain: bound,
            v,
            stamp: self.stamp[i],
        });
    }

    /// Settles the head of the queue: skips dead and deployed
    /// entries, lazily re-evaluates dirty ones via `recompute`, and
    /// returns the vertex with the (exact) maximum gain without
    /// removing it. `None` when no candidate remains.
    pub fn settle<F: FnMut(NodeId) -> f64>(
        &mut self,
        deployment: &Deployment,
        mut recompute: F,
    ) -> Option<(NodeId, f64)> {
        loop {
            let top = *self.heap.peek()?;
            let i = ix(top.v);
            if top.stamp != self.stamp[i] || deployment.contains(top.v) || self.blocked[i] {
                self.heap.pop();
                continue;
            }
            if self.dirty[i] {
                self.heap.pop();
                let g = recompute(top.v);
                self.recomputes += 1;
                self.dirty[i] = false;
                self.cached[i] = g;
                self.stamp[i] += 1;
                self.push(QEntry {
                    gain: g,
                    v: top.v,
                    stamp: self.stamp[i],
                });
                continue;
            }
            return Some((top.v, top.gain));
        }
    }

    /// Pushes `e`, first dropping every dead entry (one whose stamp
    /// is no longer its vertex's) once the heap holds twice the vertex
    /// count plus [`LazyQueue::SLACK`]. At most one entry per vertex is
    /// live, so a compaction leaves at most one per vertex and the next
    /// one comes at least that many pushes later. Dropping dead entries
    /// changes no outcome: [`LazyQueue::settle`] only ever skips them.
    fn push(&mut self, e: QEntry) {
        if self.heap.len() >= 2 * self.stamp.len() + Self::SLACK {
            let stamp = &self.stamp;
            self.heap.retain(|d| d.stamp == stamp[ix(d.v)]);
        }
        self.heap.push(e);
    }

    /// Removes the settled head (call right after
    /// [`LazyQueue::settle`] returned `Some((v, _))` to consume it,
    /// typically because `v` is being deployed).
    pub fn take(&mut self, v: NodeId) {
        debug_assert_eq!(self.heap.peek().map(|e| e.v), Some(v), "take after settle");
        self.heap.pop();
    }

    /// Marks every vertex dirty (after a replan rewires assignments
    /// wholesale). Existing entries survive as stale upper bounds
    /// only if gains could not have increased; the caller must
    /// [`LazyQueue::reinsert`] vertices whose bound may have risen.
    pub fn invalidate_all(&mut self) {
        self.dirty.iter_mut().for_each(|d| *d = true);
    }

    /// Number of live + dead entries currently in the heap.
    pub fn heap_len(&self) -> usize {
        self.heap.len()
    }
}

/// Structural auditor and corruption hooks (tdmd-audit).
impl LazyQueue {
    /// Validates epoch coherence against a from-scratch gain
    /// evaluation: per-vertex bookkeeping shapes agree, no heap entry
    /// carries a stamp from the future, at most one entry per vertex
    /// is live (stamp-current) and its gain is bitwise the cached
    /// bound, every clean cached bound equals the exact gain, every
    /// dirty bound still upper-bounds it, and every eligible vertex
    /// with a positive exact gain has a live entry (nothing silently
    /// fell out of the race).
    ///
    /// # Errors
    /// Returns the first violated check among `queue-shape`,
    /// `queue-entry-bounds`, `queue-epoch-ahead`,
    /// `queue-epoch-duplicate`, `queue-cached-mismatch`,
    /// `queue-stale-exact`, `queue-bound-violated` and
    /// `queue-missing-candidate`.
    pub fn check_coherence<F: FnMut(NodeId) -> f64>(
        &self,
        deployment: &Deployment,
        mut exact: F,
    ) -> Result<(), tdmd_core::audit::AuditError> {
        use tdmd_core::audit::AuditError;
        let err = |check: &'static str, detail: String| Err(AuditError { check, detail });
        let n = self.stamp.len();
        if self.cached.len() != n || self.dirty.len() != n || self.blocked.len() != n {
            return err(
                "queue-shape",
                format!(
                    "stamp {n}, cached {}, dirty {}, blocked {}",
                    self.cached.len(),
                    self.dirty.len(),
                    self.blocked.len()
                ),
            );
        }
        let mut live = vec![false; n];
        for e in &self.heap {
            let i = ix(e.v);
            if i >= n {
                return err(
                    "queue-entry-bounds",
                    format!("heap entry for vertex {} of {n}", e.v),
                );
            }
            if e.stamp > self.stamp[i] {
                return err(
                    "queue-epoch-ahead",
                    format!(
                        "vertex {} entry stamped {} ahead of epoch {}",
                        e.v, e.stamp, self.stamp[i]
                    ),
                );
            }
            if e.stamp == self.stamp[i] {
                if live[i] {
                    return err(
                        "queue-epoch-duplicate",
                        format!("vertex {} has two live heap entries", e.v),
                    );
                }
                live[i] = true;
                // Pushes always carry the cached bound, so a live
                // entry matches it bit for bit.
                if e.gain.to_bits() != self.cached[i].to_bits() {
                    return err(
                        "queue-cached-mismatch",
                        format!(
                            "vertex {} live entry gain {} != cached bound {}",
                            e.v, e.gain, self.cached[i]
                        ),
                    );
                }
            }
        }
        const EPS: f64 = 1e-9;
        for (i, &is_live) in live.iter().enumerate() {
            let v = tdmd_core::num::id32(i);
            if self.blocked[i] || deployment.contains(v) {
                continue;
            }
            let g = exact(v);
            if is_live {
                if self.dirty[i] {
                    if self.cached[i] + EPS < g {
                        return err(
                            "queue-bound-violated",
                            format!(
                                "vertex {v}: dirty bound {} below exact gain {g}",
                                self.cached[i]
                            ),
                        );
                    }
                } else if (self.cached[i] - g).abs() > EPS * g.abs().max(1.0) {
                    return err(
                        "queue-stale-exact",
                        format!(
                            "vertex {v}: clean bound {} != exact gain {g}",
                            self.cached[i]
                        ),
                    );
                }
            } else if g > EPS {
                return err(
                    "queue-missing-candidate",
                    format!("vertex {v} has exact gain {g} but no live heap entry"),
                );
            }
        }
        Ok(())
    }

    /// Corruption hook: bumps `v`'s epoch without pushing a fresh
    /// entry, killing its live entry — breaks the coverage invariant
    /// (`queue-missing-candidate`) or the staleness accounting.
    pub fn audit_stale_stamp(&mut self, v: NodeId) {
        self.stamp[ix(v)] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settle_returns_exact_max_after_lazy_refresh() {
        let mut q = LazyQueue::new(3);
        // Optimistic bounds: v0=5, v1=9, v2=1; true gains 4, 3, 1.
        q.touch_up(0, 5.0);
        q.touch_up(1, 9.0);
        q.touch_up(2, 1.0);
        let dep = Deployment::empty(3);
        let truth = [4.0, 3.0, 1.0];
        let (v, g) = q.settle(&dep, |v| truth[v as usize]).unwrap();
        assert_eq!((v, g), (0, 4.0));
        // v1's inflated bound forced one refresh, v0's another.
        assert!(q.recomputes >= 2);
    }

    #[test]
    fn deployed_vertices_are_skipped() {
        let mut q = LazyQueue::new(2);
        q.touch_up(0, 5.0);
        q.touch_up(1, 2.0);
        let dep = Deployment::from_vertices(2, [0]);
        let (v, _) = q.settle(&dep, |_| 2.0).unwrap();
        assert_eq!(v, 1);
    }

    #[test]
    fn stale_stamps_are_dead() {
        let mut q = LazyQueue::new(2);
        q.touch_up(0, 5.0);
        q.touch_up(0, 5.0); // stamps the old entry dead, bound now 10
        let dep = Deployment::empty(2);
        let (v, g) = q.settle(&dep, |_| 7.0).unwrap();
        assert_eq!((v, g), (0, 7.0));
        q.take(0);
        assert!(q.settle(&dep, |_| 0.0).is_none(), "no duplicate survives");
    }

    #[test]
    fn touch_down_forces_reevaluation() {
        let mut q = LazyQueue::new(2);
        q.touch_up(0, 5.0);
        let dep = Deployment::empty(2);
        let (_, g) = q.settle(&dep, |_| 5.0).unwrap();
        assert_eq!(g, 5.0);
        q.touch_down(0);
        let (_, g) = q.settle(&dep, |_| 2.5).unwrap();
        assert_eq!(g, 2.5, "departure shrank the gain");
    }

    #[test]
    fn reinsert_revives_an_undeployed_vertex() {
        let mut q = LazyQueue::new(2);
        q.touch_up(0, 4.0);
        let dep = Deployment::empty(2);
        q.settle(&dep, |_| 4.0).unwrap();
        q.take(0);
        assert!(q.settle(&dep, |_| 4.0).is_none());
        q.reinsert(0, 4.0);
        let (v, g) = q.settle(&dep, |_| 3.0).unwrap();
        assert_eq!((v, g), (0, 3.0));
    }

    /// Repeated arrivals at low-gain vertices leave dead entries that
    /// never reach the top; the heap drops them instead of growing
    /// with the stream, and every live bound survives.
    #[test]
    fn dead_entries_never_outgrow_the_live_ones() {
        let mut q = LazyQueue::new(4);
        for i in 0..10_000u32 {
            q.touch_up(i % 4, 1.0);
            assert!(q.heap_len() <= 2 * 4 + LazyQueue::SLACK);
        }
        let dep = Deployment::empty(4);
        let exact = |v: NodeId| f64::from(v);
        q.check_coherence(&dep, exact).unwrap();
        assert_eq!(q.settle(&dep, exact), Some((3, 3.0)));
    }

    #[test]
    fn ties_prefer_the_smaller_vertex() {
        let mut q = LazyQueue::new(3);
        q.touch_up(2, 4.0);
        q.touch_up(1, 4.0);
        let dep = Deployment::empty(3);
        let (v, _) = q.settle(&dep, |_| 4.0).unwrap();
        assert_eq!(v, 1);
    }
}
