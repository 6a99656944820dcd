//! Deployment and allocation plans (the paper's `P` and `F`).

use crate::instance::Instance;
use serde::{Deserialize, Serialize, Value};
use tdmd_graph::NodeId;

/// A deployment plan `P ⊆ V`: the set of vertices carrying a
/// middlebox. Stored as a sorted vertex list plus a membership bitset
/// (one bit per vertex, in `u64` words) for `O(1)` tests. It
/// serializes the list and the membership as a list of `n` booleans,
/// but does not deserialize: a decoded list and bitmap could disagree,
/// so a saved plan is read back through [`Deployment::from_vertices`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deployment {
    vertices: Vec<NodeId>,
    /// Bit `v % 64` of word `v / 64` is set iff `v` is deployed.
    member: Vec<u64>,
    /// Vertex count of the graph.
    n: usize,
}

impl Deployment {
    /// Empty deployment over a graph of `n` vertices.
    pub fn empty(n: usize) -> Self {
        Self {
            vertices: Vec::new(),
            member: vec![0; n.div_ceil(64)],
            n,
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

    /// The word holding `v`'s bit and the bit's mask.
    ///
    /// # Panics
    /// Panics if `v` is not below the vertex count.
    #[inline]
    fn bit(&self, v: NodeId) -> (usize, u64) {
        let i = v as usize;
        assert!(
            i < self.n,
            "vertex {v} out of range for {} vertices",
            self.n
        );
        (i / 64, 1 << (i % 64))
    }

    /// Adds a middlebox on `v` (idempotent). Returns true if new.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn insert(&mut self, v: NodeId) -> bool {
        let (w, mask) = self.bit(v);
        if self.member[w] & mask != 0 {
            return false;
        }
        self.member[w] |= mask;
        let pos = self.vertices.partition_point(|&x| x < v);
        self.vertices.insert(pos, v);
        true
    }

    /// Removes the middlebox on `v`. Returns true if present.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn remove(&mut self, v: NodeId) -> bool {
        let (w, mask) = self.bit(v);
        if self.member[w] & mask == 0 {
            return false;
        }
        self.member[w] &= !mask;
        let pos = self
            .vertices
            .binary_search(&v)
            .expect("bitmap and list agree");
        self.vertices.remove(pos);
        true
    }

    /// Membership test `m_v = 1`.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        let (w, mask) = self.bit(v);
        self.member[w] & mask != 0
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

/// `{"vertices": [..], "member": [bool; n]}`, the shape plans have
/// always been written in.
impl Serialize for Deployment {
    fn to_value(&self) -> Value {
        let member = (0..self.n)
            .map(|i| Value::Bool((self.member[i / 64] >> (i % 64)) & 1 == 1))
            .collect();
        Value::Map(vec![
            ("vertices".to_owned(), self.vertices.to_value()),
            ("member".to_owned(), Value::Seq(member)),
        ])
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
    fn membership_spans_word_boundaries() {
        let mut d = Deployment::from_vertices(130, [0, 63, 64, 129]);
        for v in 0..130 {
            assert_eq!(d.contains(v), [0, 63, 64, 129].contains(&v), "vertex {v}");
        }
        assert!(d.remove(64));
        assert!(!d.contains(64) && d.contains(63));
        assert_eq!(d.vertices(), &[0, 63, 129]);
        assert_eq!(d, Deployment::from_vertices(130, [129, 63, 0]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_vertices_panic() {
        // Vertex 6 would fit in the first word, but the graph has 6.
        Deployment::empty(6).contains(6);
    }

    /// A plan serializes as the vertex list and one boolean per vertex,
    /// as `tdmd place --out` has always written it.
    #[test]
    fn serializes_membership_as_a_bool_list() {
        let d = Deployment::from_vertices(4, [3, 1]);
        assert_eq!(
            serde_json::to_string(&d).unwrap(),
            r#"{"vertices":[1,3],"member":[false,true,false,true]}"#
        );
        assert_eq!(
            serde_json::to_string(&Deployment::empty(0)).unwrap(),
            r#"{"vertices":[],"member":[]}"#
        );
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
