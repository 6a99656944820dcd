//! Instance families matching the paper's simulation setting (§6.1–6.2).
//!
//! Defaults: tree topology size 22 with budget `k = 8`; general
//! topology size 30 with `k = 10`; traffic-changing ratio `λ = 0.5`;
//! flow density 0.5; CAIDA-like flow rates; tree destinations at the
//! root, general destinations on designated "red" vertices.

use rand::rngs::StdRng;
use rand::Rng;
use tdmd_core::algorithms::joint::JointInstance;
use tdmd_core::Instance;
use tdmd_graph::generators::ark::ark_like;
use tdmd_graph::generators::trees::random_tree;
use tdmd_graph::{NodeId, RootedTree};
use tdmd_traffic::{general_workload, general_workload_pathsets, tree_workload, WorkloadConfig};

/// Parameters of one experiment point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// Topology size (vertex count).
    pub size: usize,
    /// Flow density target.
    pub density: f64,
    /// Traffic-changing ratio λ.
    pub lambda: f64,
    /// Middlebox budget k.
    pub k: usize,
}

impl Scenario {
    /// Paper defaults for the tree topology (§6.2).
    pub fn tree_default() -> Self {
        Self {
            size: 22,
            density: 0.5,
            lambda: 0.5,
            k: 8,
        }
    }

    /// Paper defaults for the general topology (§6.2).
    pub fn general_default() -> Self {
        Self {
            size: 30,
            density: 0.5,
            lambda: 0.5,
            k: 10,
        }
    }
}

/// Number of clusters of the Ark-like general topology.
pub const ARK_CLUSTERS: usize = 5;
/// Number of designated destination ("red") vertices in the general
/// topology.
pub const GENERAL_DESTINATIONS: usize = 3;

/// Builds one random tree instance per the scenario.
pub fn tree_instance(rng: &mut StdRng, s: Scenario) -> Instance {
    let g = random_tree(s.size.max(2), rng);
    let tree = RootedTree::from_digraph(&g, 0).expect("random_tree is a tree");
    let flows = tree_workload(&g, &tree, &WorkloadConfig::with_density(s.density), rng);
    Instance::new(g, flows, s.lambda, s.k).expect("generated tree instance is valid")
}

/// Builds one Ark-like general instance per the scenario. Destinations
/// are a random subset of the backbone gateways (the paper's red
/// nodes).
pub fn general_instance(rng: &mut StdRng, s: Scenario) -> Instance {
    let clusters = ARK_CLUSTERS.min(s.size);
    let g = ark_like(s.size.max(2), clusters, rng);
    let mut dests: Vec<NodeId> = Vec::new();
    let want = GENERAL_DESTINATIONS.min(clusters);
    while dests.len() < want {
        let d = rng.gen_range(0..clusters) as NodeId;
        if !dests.contains(&d) {
            dests.push(d);
        }
    }
    let flows = general_workload(&g, &dests, &WorkloadConfig::with_density(s.density), rng);
    Instance::new(g, flows, s.lambda, s.k).expect("generated general instance is valid")
}

/// Builds one Ark-like general instance whose flows carry `k_paths`
/// candidate routes each (the joint-routing experiment setting): the
/// multipath workload draws each flow's primary among its candidates,
/// then the full candidate set is attached. Every entry of a
/// `k_paths` sweep therefore carries its own fixed-routing baseline
/// (GTP on the drawn primaries) for the joint solver to improve on.
pub fn general_pathset_instance(rng: &mut StdRng, s: Scenario, k_paths: usize) -> JointInstance {
    let clusters = ARK_CLUSTERS.min(s.size);
    let g = ark_like(s.size.max(2), clusters, rng);
    let mut dests: Vec<NodeId> = Vec::new();
    let want = GENERAL_DESTINATIONS.min(clusters);
    while dests.len() < want {
        let d = rng.gen_range(0..clusters) as NodeId;
        if !dests.contains(&d) {
            dests.push(d);
        }
    }
    let sets = general_workload_pathsets(
        &g,
        &dests,
        &WorkloadConfig::with_density(s.density),
        k_paths,
        rng,
    );
    JointInstance::new(g, sets, s.lambda, s.k).expect("generated pathset instance is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tdmd_traffic::density::flow_density;

    #[test]
    fn tree_instances_hit_defaults() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = Scenario::tree_default();
        let inst = tree_instance(&mut rng, s);
        assert_eq!(inst.node_count(), 22);
        assert_eq!(inst.k(), 8);
        assert_eq!(inst.lambda(), 0.5);
        let d = flow_density(inst.graph(), inst.flows(), 100);
        assert!(d >= 0.5, "density {d}");
    }

    #[test]
    fn general_instances_route_to_red_nodes() {
        let mut rng = StdRng::seed_from_u64(2);
        let inst = general_instance(&mut rng, Scenario::general_default());
        assert_eq!(inst.node_count(), 30);
        for f in inst.flows() {
            assert!(
                (f.dst() as usize) < ARK_CLUSTERS,
                "destinations are gateways"
            );
            assert!(f.path_is_valid(inst.graph()));
        }
    }

    #[test]
    fn scenarios_are_deterministic() {
        let s = Scenario::tree_default();
        let a = tree_instance(&mut StdRng::seed_from_u64(5), s);
        let b = tree_instance(&mut StdRng::seed_from_u64(5), s);
        assert_eq!(a.flows(), b.flows());
    }

    #[test]
    fn tiny_sizes_are_clamped_sanely() {
        let mut rng = StdRng::seed_from_u64(9);
        let s = Scenario {
            size: 2,
            density: 0.3,
            lambda: 0.5,
            k: 1,
        };
        let inst = tree_instance(&mut rng, s);
        assert_eq!(inst.node_count(), 2);
    }
}
