//! Crate-level property tests of the joint routing + placement solver:
//! the singleton case collapses to the legacy fixed-path GTP
//! bit-for-bit, and candidate diversity never hurts — the joint
//! objective is sandwiched between the LP lower bound and the
//! fixed-path baseline on random topologies.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdmd_core::algorithms::gtp::gtp_budgeted;
use tdmd_core::algorithms::joint::{joint_solve, JointInstance};
use tdmd_core::objective::bandwidth_of;
use tdmd_core::{Instance, TdmdError};
use tdmd_graph::traversal::bfs_path;
use tdmd_graph::{DiGraph, GraphBuilder, NodeId};
use tdmd_traffic::{candidate_sets, Flow};

/// Random connected bidirectional graph: a random tree plus `n` chords
/// (chords create the route diversity Yen's enumeration feeds on).
fn random_graph(rng: &mut StdRng, n: usize) -> DiGraph {
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        let p = rng.gen_range(0..v);
        b.add_bidirectional(p as NodeId, v as NodeId);
    }
    for _ in 0..n {
        let u = rng.gen_range(0..n) as NodeId;
        let v = rng.gen_range(0..n) as NodeId;
        if u != v {
            b.add_bidirectional(u, v);
        }
    }
    b.build()
}

/// Random flows on shortest paths between distinct endpoint pairs.
fn random_flows(rng: &mut StdRng, g: &DiGraph, n: usize, n_flows: usize) -> Vec<Flow> {
    let mut flows = Vec::new();
    let mut id = 0u32;
    while flows.len() < n_flows {
        let src = rng.gen_range(0..n) as NodeId;
        let dst = rng.gen_range(0..n) as NodeId;
        if src == dst {
            continue;
        }
        if let Some(path) = bfs_path(g, src, dst) {
            flows.push(Flow::new(id, rng.gen_range(1..=6), path));
            id += 1;
        }
    }
    flows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// With singleton candidate sets the joint solver IS the legacy
    /// solver: identical deployment, identical objective, no routing
    /// activity — and both agree on infeasibility.
    #[test]
    fn singleton_joint_equals_legacy_gtp(
        seed in any::<u64>(),
        n in 4usize..14,
        n_flows in 1usize..6,
        k in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_graph(&mut rng, n);
        let flows = random_flows(&mut rng, &g, n, n_flows);
        let inst = Instance::new(g, flows, 0.5, k).expect("valid instance");
        match (joint_solve(&JointInstance::from(inst.clone())), gtp_budgeted(&inst, k)) {
            (Ok(sol), Ok(legacy)) => {
                prop_assert_eq!(&sol.deployment, &legacy);
                prop_assert_eq!(sol.objective, bandwidth_of(&inst, &legacy));
                prop_assert_eq!(sol.objective, sol.fixed_objective);
                prop_assert_eq!(sol.path_switches, 0);
                prop_assert_eq!(sol.active, vec![0u32; inst.flows().len()]);
            }
            (Err(TdmdError::Infeasible { .. }), Err(TdmdError::Infeasible { .. })) => {}
            (j, l) => prop_assert!(
                false,
                "solvers disagree: joint ok = {}, legacy ok = {}",
                j.is_ok(),
                l.is_ok()
            ),
        }
    }

    /// With k ≥ 2 candidates per flow the joint objective never
    /// exceeds the fixed-path baseline (the incumbent is seeded from
    /// it), and the LP bound stays below the objective (it relaxes the
    /// joint problem). Draws where even the baseline is infeasible are
    /// skipped — a budget that cannot cover the primaries says nothing
    /// about routing.
    #[test]
    fn diverse_joint_is_sandwiched(
        seed in any::<u64>(),
        n in 5usize..14,
        n_flows in 1usize..6,
        k in 1usize..4,
        k_paths in 2usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_graph(&mut rng, n);
        let flows = random_flows(&mut rng, &g, n, n_flows);
        let sets = candidate_sets(&flows, &g, k_paths);
        let built = JointInstance::new(g.clone(), sets, 0.5, k);
        prop_assume!(built.is_ok());
        let inst = built.unwrap();
        let fixed_inst = Instance::new(g, flows, 0.5, k).expect("valid instance");
        let fixed_dep = gtp_budgeted(&fixed_inst, k);
        prop_assume!(fixed_dep.is_ok());
        let fixed = bandwidth_of(&fixed_inst, &fixed_dep.unwrap());
        let sol = joint_solve(&inst).expect("joint at least matches the feasible baseline");
        prop_assert_eq!(sol.fixed_objective, fixed);
        prop_assert!(
            sol.objective <= fixed + 1e-9,
            "joint {} worse than fixed {}", sol.objective, fixed
        );
        prop_assert!(
            sol.lp_bound <= sol.objective + 1e-9,
            "lp bound {} above objective {}", sol.lp_bound, sol.objective
        );
        prop_assert!(sol.lp_bound >= 0.0);
    }
}
