//! Candidate path sets.
//!
//! The joint routing + placement extension (Charikar et al.'s
//! multi-commodity flow with in-network processing, see PAPERS.md)
//! lets the solver choose each flow's route from a small set of
//! loopless candidates instead of committing to one path a priori.
//! [`FlowPaths`] is the workload-side record: a flow id, a rate, and
//! an ordered candidate list whose first entry (the *primary*) is the
//! path a fixed-path solver would use — so a singleton candidate set
//! degenerates to the paper's original model exactly.

use crate::flow::{Flow, FlowId};
use serde::{Deserialize, Serialize};
use tdmd_graph::kpaths::k_shortest_paths;
use tdmd_graph::{DiGraph, NodeId};

/// A flow together with its candidate path set.
///
/// All candidates share the primary's endpoints; the order is
/// significant (index 0 is the primary route, the one a fixed-path
/// run uses) and downstream indices are stable handles: the core's
/// joint solver (`JointInstance` and its solutions' routings)
/// addresses candidates by their position in this list.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowPaths {
    /// Flow id (dense, unique within a workload).
    pub id: FlowId,
    /// Initial traffic rate `r_f` in integral rate units.
    pub rate: u64,
    /// Candidate paths, each a vertex sequence `src .. dst`. Index 0
    /// is the primary (fixed-path) route.
    pub candidates: Vec<Vec<NodeId>>,
}

impl FlowPaths {
    /// Creates a candidate set, validating its shape.
    ///
    /// # Panics
    /// Panics if the rate is zero, the candidate list is empty, any
    /// candidate has fewer than 2 vertices or repeats a vertex, or a
    /// candidate's endpoints differ from the primary's.
    pub fn new(id: FlowId, rate: u64, candidates: Vec<Vec<NodeId>>) -> Self {
        assert!(rate > 0, "flow rate must be positive");
        assert!(!candidates.is_empty(), "need at least one candidate path");
        for p in &candidates {
            assert!(p.len() >= 2, "candidate path must traverse an edge");
            let mut seen = p.clone();
            seen.sort_unstable();
            assert!(
                seen.windows(2).all(|w| w[0] != w[1]),
                "candidate path must be simple"
            );
            assert_eq!(p[0], candidates[0][0], "candidates share the source");
            assert_eq!(
                p.last(),
                candidates[0].last(),
                "candidates share the destination"
            );
        }
        Self {
            id,
            rate,
            candidates,
        }
    }

    /// The singleton set: exactly the flow's own path. Feeding
    /// singletons to the core gives back the paper's fixed-path model.
    pub fn singleton(flow: &Flow) -> Self {
        Self {
            id: flow.id,
            rate: flow.rate,
            candidates: vec![flow.path.clone()],
        }
    }

    /// The primary (index-0) candidate.
    ///
    /// # Panics
    /// Panics on an empty candidate list — unreachable for sets built
    /// through [`FlowPaths::new`], which validates the shape.
    #[inline]
    pub fn primary(&self) -> &[NodeId] {
        &self.candidates[0]
    }

    /// Shared source of every candidate.
    ///
    /// # Panics
    /// Panics on an empty or zero-length primary candidate —
    /// unreachable for sets built through [`FlowPaths::new`].
    #[inline]
    pub fn src(&self) -> NodeId {
        self.candidates[0][0]
    }

    /// Shared destination of every candidate.
    ///
    /// # Panics
    /// Panics on an empty primary candidate — unreachable for sets
    /// built through [`FlowPaths::new`].
    #[inline]
    pub fn dst(&self) -> NodeId {
        *self.candidates[0].last().expect("candidate is non-empty")
    }

    /// The flow record a fixed-path solver sees: the primary route.
    ///
    /// # Panics
    /// Panics on an empty candidate list — unreachable for sets built
    /// through [`FlowPaths::new`].
    pub fn primary_flow(&self) -> Flow {
        Flow::new(self.id, self.rate, self.candidates[0].clone())
    }

    /// Augments a flow with up to `k_paths` candidates: the flow's own
    /// path stays primary, alternatives come from Yen's k-shortest
    /// loopless paths between its endpoints (duplicates of the primary
    /// are dropped). `k_paths = 1` yields the singleton set.
    pub fn augment(flow: &Flow, g: &DiGraph, k_paths: usize) -> Self {
        let want = k_paths.max(1);
        let mut candidates = vec![flow.path.clone()];
        if want > 1 {
            for p in k_shortest_paths(g, flow.src(), flow.dst(), want) {
                if candidates.len() >= want {
                    break;
                }
                if p != flow.path {
                    candidates.push(p);
                }
            }
        }
        Self {
            id: flow.id,
            rate: flow.rate,
            candidates,
        }
    }
}

/// Builds the candidate sets of a whole workload: every flow keeps its
/// drawn path as the primary and gains up to `k_paths - 1` k-shortest
/// alternatives. This is how
/// [`general_workload_multipath`](crate::generator::general_workload_multipath)
/// workloads feed the joint solver real route diversity.
pub fn candidate_sets(flows: &[Flow], g: &DiGraph, k_paths: usize) -> Vec<FlowPaths> {
    flows
        .iter()
        .map(|f| FlowPaths::augment(f, g, k_paths))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdmd_graph::GraphBuilder;

    /// A diamond: 0 → {1, 2} → 3, both routes two hops.
    fn diamond() -> DiGraph {
        let mut b = GraphBuilder::new(4);
        b.add_bidirectional(0, 1);
        b.add_bidirectional(1, 3);
        b.add_bidirectional(0, 2);
        b.add_bidirectional(2, 3);
        b.build()
    }

    #[test]
    fn singleton_wraps_the_flow_path() {
        let f = Flow::new(0, 4, vec![0, 1, 3]);
        let s = FlowPaths::singleton(&f);
        assert_eq!(s.candidates, vec![vec![0, 1, 3]]);
        assert_eq!(s.primary_flow(), f);
        assert_eq!((s.src(), s.dst()), (0, 3));
    }

    #[test]
    fn augment_keeps_the_drawn_path_primary() {
        let g = diamond();
        let f = Flow::new(0, 2, vec![0, 2, 3]); // the lexicographically later route
        let s = FlowPaths::augment(&f, &g, 3);
        assert_eq!(s.primary(), &[0, 2, 3]);
        assert_eq!(s.candidates.len(), 2, "diamond has two simple routes");
        assert!(s.candidates.contains(&vec![0, 1, 3]));
    }

    #[test]
    fn augment_with_one_path_is_the_singleton() {
        let g = diamond();
        let f = Flow::new(1, 1, vec![0, 1, 3]);
        assert_eq!(
            FlowPaths::augment(&f, &g, 1),
            FlowPaths::singleton(&f),
            "k_paths = 1 must not consult Yen's"
        );
    }

    #[test]
    fn candidate_sets_cover_the_workload_in_order() {
        let g = diamond();
        let flows = vec![
            Flow::new(0, 1, vec![0, 1, 3]),
            Flow::new(1, 5, vec![3, 2, 0]),
        ];
        let sets = candidate_sets(&flows, &g, 2);
        assert_eq!(sets.len(), 2);
        for (f, s) in flows.iter().zip(&sets) {
            assert_eq!(s.id, f.id);
            assert_eq!(s.rate, f.rate);
            assert_eq!(s.primary(), &f.path[..]);
            assert!(s.candidates.len() <= 2);
        }
    }

    #[test]
    #[should_panic(expected = "share the destination")]
    fn mismatched_endpoints_rejected() {
        FlowPaths::new(0, 1, vec![vec![0, 1, 3], vec![0, 1]]);
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_candidate_list_rejected() {
        FlowPaths::new(0, 1, vec![]);
    }

    #[test]
    fn serde_round_trip() {
        let s = FlowPaths::new(3, 7, vec![vec![0, 1, 3], vec![0, 2, 3]]);
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(serde_json::from_str::<FlowPaths>(&json).unwrap(), s);
    }
}
