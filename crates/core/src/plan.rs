//! Deployment and allocation plans (the paper's `P` and `F`).

use crate::instance::Instance;
use serde::{Deserialize, Serialize};
use tdmd_graph::NodeId;

/// A deployment plan `P ⊆ V`: the set of vertices carrying a
/// middlebox. Stored as a sorted vertex list plus a membership bitmap
/// for `O(1)` tests. It serializes both but does not deserialize: a
/// decoded list and bitmap could disagree, so a saved plan is read
/// back through [`Deployment::from_vertices`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Deployment {
    vertices: Vec<NodeId>,
    member: Vec<bool>,
}

impl Deployment {
    /// Empty deployment over a graph of `n` vertices.
    pub fn empty(n: usize) -> Self {
        Self {
            vertices: Vec::new(),
            member: vec![false; n],
        }
    }

    /// Deployment from a vertex list (duplicates ignored).
    ///
    /// # Panics
    /// Panics if a vertex id is out of range.
    pub fn from_vertices(n: usize, vs: impl IntoIterator<Item = NodeId>) -> Self {
        let mut d = Self::empty(n);
        for v in vs {
            d.insert(v);
        }
        d
    }

    /// Adds a middlebox on `v` (idempotent). Returns true if new.
    pub fn insert(&mut self, v: NodeId) -> bool {
        let slot = &mut self.member[v as usize];
        if *slot {
            return false;
        }
        *slot = true;
        let pos = self.vertices.partition_point(|&x| x < v);
        self.vertices.insert(pos, v);
        true
    }

    /// Removes the middlebox on `v`. Returns true if present.
    pub fn remove(&mut self, v: NodeId) -> bool {
        let slot = &mut self.member[v as usize];
        if !*slot {
            return false;
        }
        *slot = false;
        let pos = self
            .vertices
            .binary_search(&v)
            .expect("bitmap and list agree");
        self.vertices.remove(pos);
        true
    }

    /// Membership test `m_v = 1`.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.member[v as usize]
    }

    /// Number of deployed middleboxes `|P|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// True if no middlebox is deployed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Sorted deployed vertex list.
    #[inline]
    pub fn vertices(&self) -> &[NodeId] {
        &self.vertices
    }
}

/// An allocation plan `F`: which deployed middlebox serves each flow.
/// `assigned[f] == None` means flow `f` is unserved (infeasible
/// deployments can arise mid-algorithm).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Allocation {
    /// Per-flow serving vertex.
    pub assigned: Vec<Option<NodeId>>,
}

impl Allocation {
    /// True if every flow is served (Eq. 4 holds).
    pub fn is_complete(&self) -> bool {
        self.assigned.iter().all(Option::is_some)
    }

    /// Indices of unserved flows.
    pub fn unserved(&self) -> Vec<usize> {
        self.assigned
            .iter()
            .enumerate()
            .filter_map(|(i, a)| a.is_none().then_some(i))
            .collect()
    }
}

/// Evaluation summary for a deployment on an instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanReport {
    /// Total bandwidth consumption `b(P, F)` (Eq. 1).
    pub bandwidth: f64,
    /// Decrement `d(P)` (Def. 1).
    pub decrement: f64,
    /// Whether every flow is served.
    pub feasible: bool,
    /// Number of middleboxes used.
    pub middleboxes: usize,
}

impl PlanReport {
    /// Builds a report by allocating and scoring `deployment`.
    pub fn evaluate(instance: &Instance, deployment: &Deployment) -> Self {
        let alloc = crate::objective::allocate(instance, deployment);
        let bandwidth = crate::objective::bandwidth(instance, &alloc);
        let decrement = instance.unprocessed_bandwidth() - bandwidth;
        Self {
            bandwidth,
            decrement,
            feasible: alloc.is_complete(),
            middleboxes: deployment.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut d = Deployment::empty(5);
        assert!(d.is_empty());
        assert!(d.insert(3));
        assert!(!d.insert(3), "idempotent");
        assert!(d.insert(1));
        assert_eq!(d.vertices(), &[1, 3]);
        assert!(d.contains(3) && !d.contains(2));
        assert_eq!(d.len(), 2);
        assert!(d.remove(3));
        assert!(!d.remove(3));
        assert_eq!(d.vertices(), &[1]);
    }

    #[test]
    fn from_vertices_sorts_and_dedups() {
        let d = Deployment::from_vertices(6, [5, 2, 5, 0]);
        assert_eq!(d.vertices(), &[0, 2, 5]);
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn allocation_completeness() {
        let full = Allocation {
            assigned: vec![Some(1), Some(2)],
        };
        assert!(full.is_complete());
        assert!(full.unserved().is_empty());
        let partial = Allocation {
            assigned: vec![Some(1), None, None],
        };
        assert!(!partial.is_complete());
        assert_eq!(partial.unserved(), vec![1, 2]);
    }
}
