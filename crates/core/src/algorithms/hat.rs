//! HAT — Heuristic Algorithm for Trees (Alg. 2).
//!
//! Start with a middlebox on every flow source (the bandwidth-minimal
//! deployment: every flow is diminished from its first edge), then
//! repeatedly *merge* the pair of middleboxes whose replacement by a
//! single box on their LCA raises the total bandwidth the least, until
//! only `k` middleboxes remain. A min-heap over pair costs `Δb(i, j)`
//! drives the merges, giving the paper's `O(|V|² log |V|)` complexity.
//!
//! Two pragmatic refinements over the paper's sketch (both strictly
//! improve accuracy at the same complexity):
//!
//! * the paper initializes with a box on *every leaf*; we use every
//!   *source* vertex — identical bandwidth (leaves without flows
//!   contribute nothing) and it also supports flows sourced at
//!   internal vertices;
//! * `Δb(i, j)` is recomputed against the *current* deployment when a
//!   heap entry is popped stale (merges elsewhere can change where the
//!   affected flows re-home), instead of trusting the stale key.
//!
//! Flows on one path re-home together, so the merge state is kept per
//! path class: each class's best downstream hops, and `Δb` summed over
//! the affected classes weighted by their exact rate sums.

use crate::algorithms::dp::validate_tree_instance;
use crate::cost::{FlowIndex, HopCount};
use crate::error::TdmdError;
use crate::instance::Instance;
use crate::num::{id32, ix, rate_sum_f64};
use crate::order::TotalGain;
use crate::plan::Deployment;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tdmd_graph::{Lca, NodeId};

/// Mutable merge state.
struct MergeState {
    /// `1 − λ`.
    factor: f64,
    /// Hop-count rows: the classes crossing each vertex.
    index: FlowIndex,
    /// Deployment bitmap (kept separate from `Deployment` for cheap
    /// temporary flips while evaluating a merge).
    member: Vec<bool>,
    /// Live middlebox vertices.
    live: Vec<NodeId>,
    /// Per-class current best downstream hops under `member`.
    best_l: Vec<u32>,
}

impl MergeState {
    /// Best downstream hops of class `c` under the current bitmap.
    fn class_best(&self, c: u32) -> u32 {
        let path = self.index.class_path(c);
        let hops = id32(path.len() - 1);
        let mut best = 0;
        for (pos, &v) in path.iter().enumerate() {
            if self.member[ix(v)] {
                best = best.max(hops - id32(pos));
                break; // first on-path box from the source is the max l
            }
        }
        best
    }

    /// Classes whose serving box could change when `{i, j}` merge into
    /// `lca`: everything crossing `i`, `j` or `lca`.
    fn affected(&self, i: NodeId, j: NodeId, lca: NodeId) -> Vec<u32> {
        let mut out: Vec<u32> = self
            .index
            .classes_through(i)
            .iter()
            .chain(self.index.classes_through(j))
            .chain(self.index.classes_through(lca))
            .copied()
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Exact `Δb(i, j)`: bandwidth change of merging `i, j → lca`
    /// against the current deployment (positive = worse).
    fn delta_b(&mut self, i: NodeId, j: NodeId, lca: NodeId) -> f64 {
        let affected = self.affected(i, j, lca);
        // `member` mirrors `live` outside the flip window, so the
        // pre-flip bit is exactly `live.contains(&lca)` — saving it
        // avoids an O(|live|) scan per candidate evaluation.
        let lca_was_member = self.member[ix(lca)];
        self.flip(i, j, lca);
        let mut delta = 0.0;
        for &c in &affected {
            let new_l = self.class_best(c);
            let old_l = self.best_l[ix(c)];
            delta += rate_sum_f64(self.index.class_rate(c))
                * self.factor
                * (f64::from(old_l) - f64::from(new_l));
        }
        self.unflip(i, j, lca, lca_was_member);
        delta
    }

    fn flip(&mut self, i: NodeId, j: NodeId, lca: NodeId) {
        self.member[ix(i)] = false;
        self.member[ix(j)] = false;
        self.member[ix(lca)] = true;
    }

    fn unflip(&mut self, i: NodeId, j: NodeId, lca: NodeId, lca_was_member: bool) {
        self.member[ix(lca)] = lca_was_member;
        self.member[ix(i)] = true;
        self.member[ix(j)] = true;
    }

    /// Commits the merge and refreshes per-class assignments.
    fn commit(&mut self, i: NodeId, j: NodeId, lca: NodeId) {
        let affected = self.affected(i, j, lca);
        self.member[ix(i)] = false;
        self.member[ix(j)] = false;
        self.member[ix(lca)] = true;
        self.live.retain(|&v| v != i && v != j);
        if !self.live.contains(&lca) {
            self.live.push(lca);
        }
        for &c in &affected {
            self.best_l[ix(c)] = self.class_best(c);
        }
    }
}

/// Runs HAT with budget `k`.
///
/// # Errors
/// * [`TdmdError::NotATreeInstance`] on non-tree instances.
/// * [`TdmdError::Infeasible`] when `k = 0` while flows exist.
pub fn hat(instance: &Instance, k: usize) -> Result<Deployment, TdmdError> {
    let n = instance.node_count();
    if instance.flows().is_empty() {
        return Ok(Deployment::empty(n));
    }
    if k == 0 {
        return Err(TdmdError::Infeasible { budget: 0 });
    }
    let (tree, _local) = validate_tree_instance(instance)?;
    let lca = Lca::new(&tree);

    // Initial deployment: one box per distinct source.
    let mut sources: Vec<NodeId> = instance.flows().iter().map(|f| f.src()).collect();
    sources.sort_unstable();
    sources.dedup();

    let mut member = vec![false; n];
    for &s in &sources {
        member[ix(s)] = true;
    }
    let index = FlowIndex::build(instance, &HopCount);
    let best_l = (0..id32(index.class_count()))
        .map(|c| id32(index.class_path(c).len() - 1))
        .collect();
    let mut state = MergeState {
        factor: 1.0 - instance.lambda(),
        index,
        member,
        live: sources.clone(),
        best_l,
    };

    // Version-stamped lazy min-heap of merge candidates.
    let mut version = 0usize;
    let mut heap: BinaryHeap<Reverse<(TotalGain, NodeId, NodeId, usize)>> = BinaryHeap::new();
    for a in 0..sources.len() {
        for b in (a + 1)..sources.len() {
            let (i, j) = (sources[a], sources[b]);
            let anc = lca.query(i, j);
            let d = state.delta_b(i, j, anc);
            heap.push(Reverse((TotalGain::new(d), i, j, version)));
        }
    }

    while state.live.len() > k {
        let Some(Reverse((_, i, j, stamp))) = heap.pop() else {
            // Cannot merge further (single box can't pair) — only
            // possible when k == 0, which we rejected above.
            return Err(TdmdError::Infeasible { budget: k });
        };
        if !state.member[ix(i)] || !state.member[ix(j)] {
            continue; // endpoint already merged away
        }
        let anc = lca.query(i, j);
        if stamp != version {
            // Stale: refresh the cost at the current deployment.
            let d = state.delta_b(i, j, anc);
            heap.push(Reverse((TotalGain::new(d), i, j, version)));
            continue;
        }
        state.commit(i, j, anc);
        version += 1;
        // New candidate pairs involving the merged box.
        for &other in state.live.clone().iter() {
            if other == anc {
                continue;
            }
            let a2 = lca.query(anc, other);
            let d = state.delta_b(anc, other, a2);
            heap.push(Reverse((TotalGain::new(d), anc, other, version)));
        }
        // Refresh surviving pairs lazily: stale stamps are corrected
        // on pop.
    }
    Ok(Deployment::from_vertices(n, state.live.iter().copied()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::dp::dp_optimal;
    use crate::feasibility::is_feasible;
    use crate::objective::bandwidth_of;
    use crate::paper::fig5_instance;

    #[test]
    fn fig5_k4_keeps_all_sources() {
        // |sources| = 4 ≤ k: no merging happens.
        let inst = fig5_instance(4);
        let d = hat(&inst, 4).unwrap();
        assert_eq!(d.vertices(), &[3, 4, 6, 7]);
        assert_eq!(bandwidth_of(&inst, &d), 12.0);
    }

    #[test]
    fn fig5_k3_merges_v4_v5_into_v2() {
        // Paper: Δb(4,5) = 1.5 is the cheapest pair → P = {v2, v7, v8}.
        let inst = fig5_instance(3);
        let d = hat(&inst, 3).unwrap();
        assert_eq!(d.vertices(), &[1, 6, 7]);
        assert_eq!(bandwidth_of(&inst, &d), 13.5);
    }

    #[test]
    fn fig5_k2_matches_paper_outcome() {
        // Paper: second merge ties Δb(2,8) = Δb(7,8) = 3 → {v2, v6} or
        // {v1, v7}; both cost 16.5.
        let inst = fig5_instance(2);
        let d = hat(&inst, 2).unwrap();
        let b = bandwidth_of(&inst, &d);
        assert_eq!(b, 16.5);
        assert!(is_feasible(&inst, &d));
    }

    #[test]
    fn fig5_k1_collapses_to_root() {
        let inst = fig5_instance(1);
        let d = hat(&inst, 1).unwrap();
        assert_eq!(d.vertices(), &[0]);
        assert_eq!(bandwidth_of(&inst, &d), 24.0);
    }

    #[test]
    fn hat_never_beats_dp() {
        for k in 1..=4 {
            let inst = fig5_instance(k);
            let h = bandwidth_of(&inst, &hat(&inst, k).unwrap());
            let d = dp_optimal(&inst).unwrap().bandwidth;
            assert!(h >= d - 1e-9, "k={k}: HAT {h} beat DP {d}");
        }
    }

    #[test]
    fn hat_matches_dp_on_fig5() {
        // On this example HAT happens to be optimal for every k.
        for k in 1..=4 {
            let inst = fig5_instance(k);
            let h = bandwidth_of(&inst, &hat(&inst, k).unwrap());
            assert_eq!(h, dp_optimal(&inst).unwrap().bandwidth, "k={k}");
        }
    }

    #[test]
    fn candidate_evaluation_leaves_state_intact() {
        // `delta_b` must restore `member` exactly — including when the
        // candidate pair's LCA is already a live box (the k=1 collapse
        // revisits the root repeatedly). Together with the pinned
        // deployments above this guards the saved-bit `unflip`.
        for k in 1..=4 {
            let inst = fig5_instance(k);
            assert_eq!(hat(&inst, k).unwrap(), hat(&inst, k).unwrap(), "k={k}");
        }
    }

    #[test]
    fn k0_with_flows_is_infeasible() {
        let inst = fig5_instance(0);
        assert_eq!(
            hat(&inst, 0).unwrap_err(),
            TdmdError::Infeasible { budget: 0 }
        );
    }

    #[test]
    fn non_tree_rejected() {
        let inst = crate::paper::fig1_instance(2);
        assert!(matches!(
            hat(&inst, 2).unwrap_err(),
            TdmdError::NotATreeInstance(_)
        ));
    }

    #[test]
    fn plans_are_always_feasible() {
        for k in 1..=4 {
            let inst = fig5_instance(k);
            let d = hat(&inst, k).unwrap();
            assert!(is_feasible(&inst, &d), "k={k}");
            assert!(d.len() <= k);
        }
    }
}
