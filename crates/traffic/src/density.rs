//! Flow-density bookkeeping.
//!
//! §6.2: "The flow density is defined as the ratio of the total
//! traffic load to the total capacity of the network." Load is the
//! unprocessed bandwidth `Σ r_f · |p_f|`; capacity is `Σ_links C` with
//! a uniform nominal per-link capacity (the paper assumes
//! over-provisioned links, §6.1, so capacity never constrains
//! routing — it only calibrates the density knob).

use crate::flow::{total_load, Flow};
use tdmd_graph::DiGraph;

/// Nominal capacity of one directed link, in rate units. Chosen so the
/// paper's density range (0.3–0.8) is reachable with realistic flow
/// counts on 12–52-vertex topologies.
pub const DEFAULT_LINK_CAPACITY: u64 = 100;

/// Total network capacity: directed link count × per-link capacity.
pub fn total_capacity(g: &DiGraph, link_capacity: u64) -> u64 {
    g.edge_count() as u64 * link_capacity
}

/// Flow density of a workload: total load / total capacity.
pub fn flow_density(g: &DiGraph, flows: &[Flow], link_capacity: u64) -> f64 {
    let cap = total_capacity(g, link_capacity);
    if cap == 0 {
        return 0.0;
    }
    total_load(flows) / cap as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdmd_graph::{GraphBuilder, NodeId};

    fn line(n: usize) -> DiGraph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_bidirectional(i as NodeId, (i + 1) as NodeId);
        }
        b.build()
    }

    #[test]
    fn capacity_counts_directed_links() {
        let g = line(3); // 2 undirected = 4 directed links
        assert_eq!(total_capacity(&g, 100), 400);
    }

    #[test]
    fn density_is_load_over_capacity() {
        let g = line(3);
        let flows = vec![Flow::new(0, 100, vec![0, 1, 2])]; // load 200
        assert!((flow_density(&g, &flows, 100) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_workload_has_zero_density() {
        let g = line(4);
        assert_eq!(flow_density(&g, &[], 100), 0.0);
    }

    #[test]
    fn edgeless_graph_reports_zero_not_nan() {
        let g = GraphBuilder::new(3).build();
        assert_eq!(flow_density(&g, &[], 100), 0.0);
    }
}
