//! Per-type instance sets.

use tdmd_core::Deployment;
use tdmd_graph::NodeId;

/// A chain deployment: for every chain type, the set of vertices
/// hosting an instance of that type, held as one core [`Deployment`]
/// per type. Instances of different types may share a vertex (a flow
/// can be processed by several collocated types back to back). Like
/// [`Deployment`], it does not deserialize: a decoded membership and
/// instance list could disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainDeployment {
    /// `types[t]`: the vertices hosting an instance of type `t`.
    types: Vec<Deployment>,
}

impl ChainDeployment {
    /// Empty deployment for `m` types over `n` vertices.
    pub fn empty(m: usize, n: usize) -> Self {
        Self {
            types: vec![Deployment::empty(n); m],
        }
    }

    /// Number of chain types.
    pub fn type_count(&self) -> usize {
        self.types.len()
    }

    /// Adds an instance of type `t` on `v` (idempotent); returns true
    /// if new.
    pub fn insert(&mut self, t: usize, v: NodeId) -> bool {
        self.types[t].insert(v)
    }

    /// Removes the instance of type `t` on `v`; returns true if it
    /// existed.
    pub fn remove(&mut self, t: usize, v: NodeId) -> bool {
        self.types[t].remove(v)
    }

    /// Instance test.
    #[inline]
    pub fn has(&self, t: usize, v: NodeId) -> bool {
        self.types[t].contains(v)
    }

    /// Sorted instances of type `t`.
    pub fn instances(&self, t: usize) -> &[NodeId] {
        self.types[t].vertices()
    }

    /// Total number of placed instances across all types (the budget
    /// the greedy spends).
    pub fn total_instances(&self) -> usize {
        self.types.iter().map(Deployment::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_per_type() {
        let mut d = ChainDeployment::empty(2, 5);
        assert!(d.insert(0, 3));
        assert!(!d.insert(0, 3));
        assert!(d.insert(1, 3), "types are independent on the same vertex");
        assert!(d.has(0, 3) && d.has(1, 3) && !d.has(0, 2));
        assert_eq!(d.total_instances(), 2);
        assert!(d.remove(0, 3));
        assert!(!d.remove(0, 3));
        assert_eq!(d.instances(0), &[] as &[u32]);
        assert_eq!(d.instances(1), &[3]);
    }

    #[test]
    fn lists_stay_sorted() {
        let mut d = ChainDeployment::empty(1, 6);
        for v in [5, 1, 3] {
            d.insert(0, v);
        }
        assert_eq!(d.instances(0), &[1, 3, 5]);
    }
}
