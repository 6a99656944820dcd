//! The flow record.
//!
//! A flow is unsplittable (§3.1: splitting breaks TCP ordering), has
//! one valid *active* path (pre-determined in the paper; selected from
//! a [`crate::pathset::FlowPaths`] candidate set under the joint
//! routing extension), and an integer initial rate. Integer
//! rates matter: the paper's tree DP is pseudo-polynomial in the
//! largest rate, so rates are modeled in integral "rate units".

use serde::{Deserialize, Serialize};
use tdmd_graph::{DiGraph, NodeId};

/// Dense flow identifier.
pub type FlowId = u32;

/// Tenant (traffic-class) identifier. Tenant `0` is the default
/// anonymous class every single-tenant workload lives in.
pub type TenantId = u16;

/// An unsplittable flow with its currently active path.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Flow {
    /// Flow id (dense, unique within a workload).
    pub id: FlowId,
    /// Initial traffic rate `r_f` in integral rate units.
    pub rate: u64,
    /// The path `p_f` as a vertex sequence `src .. dst`
    /// (length = hop count + 1).
    pub path: Vec<NodeId>,
    /// Tenant / traffic class the flow belongs to. Defaults to `0`
    /// (including when absent from serialized workloads, so pre-tenant
    /// workload files keep loading).
    #[serde(default)]
    pub tenant: TenantId,
}

impl Flow {
    /// Creates a flow (tenant `0`), validating that the path is
    /// non-degenerate.
    ///
    /// # Panics
    /// Panics if the rate is zero (the paper's flows carry positive
    /// traffic, and the tree DP's coverage accounting relies on it),
    /// if the path has fewer than 2 vertices, or if the path repeats a
    /// vertex (the paper's paths are simple).
    pub fn new(id: FlowId, rate: u64, path: Vec<NodeId>) -> Self {
        assert!(rate > 0, "flow rate must be positive");
        assert!(path.len() >= 2, "flow path must traverse at least one edge");
        let mut seen = path.clone();
        seen.sort_unstable();
        let unique = seen.windows(2).all(|w| w[0] != w[1]);
        assert!(unique, "flow path must be simple");
        Self {
            id,
            rate,
            path,
            tenant: 0,
        }
    }

    /// Tags the flow with a tenant / traffic class (builder style).
    #[must_use]
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// Source vertex `src_f`.
    ///
    /// # Panics
    /// Panics on an empty path — unreachable for flows built through
    /// [`Flow::new`], which validates the path.
    #[inline]
    pub fn src(&self) -> NodeId {
        self.path[0]
    }

    /// Destination vertex `dst_f`.
    #[inline]
    pub fn dst(&self) -> NodeId {
        *self.path.last().expect("path is non-empty")
    }

    /// Number of edges `|p_f|`.
    #[inline]
    pub fn hops(&self) -> usize {
        self.path.len() - 1
    }

    /// Position of `v` on the path, if any.
    #[inline]
    pub fn position_of(&self, v: NodeId) -> Option<usize> {
        self.path.iter().position(|&x| x == v)
    }

    /// Number of path edges *downstream* of `v` — the paper's
    /// `l_v(f)` as used in Eq. (1) (see the notation fix in
    /// DESIGN.md): hops from `v` to the destination along `p_f`.
    /// `None` if `v` is not on the path.
    #[inline]
    pub fn downstream_hops(&self, v: NodeId) -> Option<usize> {
        self.position_of(v).map(|i| self.hops() - i)
    }

    /// Bandwidth consumption `r_f · |p_f|` when unprocessed. The
    /// product is formed in `f64`, so no rate wraps it; it is exact
    /// below 2⁵³.
    #[inline]
    pub fn unprocessed_bandwidth(&self) -> f64 {
        self.rate as f64 * self.hops() as f64
    }

    /// Checks that every consecutive pair of the path is a directed
    /// edge of `g`.
    pub fn path_is_valid(&self, g: &DiGraph) -> bool {
        self.path.windows(2).all(|w| g.has_edge(w[0], w[1]))
    }
}

/// Total initial load `Σ r_f · |p_f|` of a workload — the numerator of
/// the flow-density metric and the `d(∅)` baseline of Lemma 1.
pub fn total_load(flows: &[Flow]) -> f64 {
    flows.iter().map(Flow::unprocessed_bandwidth).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdmd_graph::GraphBuilder;

    fn line_graph(n: usize) -> DiGraph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_bidirectional(i as NodeId, (i + 1) as NodeId);
        }
        b.build()
    }

    #[test]
    fn accessors() {
        let f = Flow::new(0, 4, vec![5, 3, 1]);
        assert_eq!(f.src(), 5);
        assert_eq!(f.dst(), 1);
        assert_eq!(f.hops(), 2);
        assert_eq!(f.unprocessed_bandwidth(), 8.0);
    }

    #[test]
    fn unprocessed_bandwidth_does_not_wrap() {
        // 2^62 · 4 hops passes u64::MAX; the f64 product is exact.
        let big = Flow::new(0, 1 << 62, vec![0, 1, 2, 3, 4]);
        assert_eq!(big.unprocessed_bandwidth(), 2f64.powi(64));
        assert_eq!(total_load(&[big]), 2f64.powi(64));
    }

    #[test]
    fn downstream_hops_matches_fig1() {
        // Fig. 1: f1 from v5 via v3 to v1, rate 4, middlebox at the
        // source ⇒ l = |p| = 2 (all edges carry diminished traffic).
        let f = Flow::new(0, 4, vec![5, 3, 1]);
        assert_eq!(f.downstream_hops(5), Some(2));
        assert_eq!(f.downstream_hops(3), Some(1));
        assert_eq!(f.downstream_hops(1), Some(0));
        assert_eq!(f.downstream_hops(9), None);
    }

    #[test]
    fn position_of_finds_vertices() {
        let f = Flow::new(1, 1, vec![2, 4, 6, 8]);
        assert_eq!(f.position_of(2), Some(0));
        assert_eq!(f.position_of(8), Some(3));
        assert_eq!(f.position_of(5), None);
    }

    #[test]
    fn path_validation_against_graph() {
        let g = line_graph(4);
        assert!(Flow::new(0, 1, vec![0, 1, 2, 3]).path_is_valid(&g));
        assert!(
            Flow::new(1, 1, vec![3, 2, 1]).path_is_valid(&g),
            "links are bidirectional"
        );
        assert!(
            !Flow::new(2, 1, vec![0, 2]).path_is_valid(&g),
            "no shortcut edge"
        );
    }

    #[test]
    fn total_load_sums_rate_times_hops() {
        let flows = vec![Flow::new(0, 4, vec![0, 1, 2]), Flow::new(1, 2, vec![3, 1])];
        assert_eq!(total_load(&flows), 10.0);
    }

    #[test]
    #[should_panic(expected = "at least one edge")]
    fn degenerate_path_rejected() {
        Flow::new(0, 1, vec![3]);
    }

    #[test]
    #[should_panic(expected = "simple")]
    fn looping_path_rejected() {
        Flow::new(0, 1, vec![0, 1, 0]);
    }

    #[test]
    fn serde_round_trip() {
        let f = Flow::new(7, 9, vec![1, 2, 3]).with_tenant(3);
        let s = serde_json::to_string(&f).unwrap();
        let g: Flow = serde_json::from_str(&s).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn tenant_defaults_to_zero_and_tolerates_old_documents() {
        assert_eq!(Flow::new(0, 1, vec![0, 1]).tenant, 0);
        // Pre-tenant workload files carry no `tenant` field.
        let old = r#"{"id":3,"rate":7,"path":[0,1,2]}"#;
        let f: Flow = serde_json::from_str(old).unwrap();
        assert_eq!(f, Flow::new(3, 7, vec![0, 1, 2]));
        assert_eq!(Flow::new(0, 1, vec![0, 1]).with_tenant(9).tenant, 9);
    }
}
