//! tdmd-audit corruption properties for the static layer.
//!
//! Soundness: every randomly generated instance passes
//! [`check_instance`], and every GTP solve with its forced §3.1
//! allocation passes [`check_solution`]. Completeness: each seeded
//! corruption of the deployment or the allocation is rejected with the
//! expected check name.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdmd_core::algorithms::gtp::gtp_budgeted;
use tdmd_core::audit::{check_greedy_trace, check_instance, check_solution, TraceRound};
use tdmd_core::objective::{allocate, best_hops};
use tdmd_core::{Deployment, Instance};
use tdmd_graph::traversal::bfs_path;
use tdmd_graph::{GraphBuilder, NodeId};
use tdmd_traffic::Flow;

/// Random connected graph with BFS-routed flows (same shape as the
/// solver property tests).
fn random_parts(seed: u64, n: usize, n_flows: usize) -> (tdmd_graph::DiGraph, Vec<Flow>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        let p = rng.gen_range(0..v);
        b.add_bidirectional_weighted(p as NodeId, v as NodeId, rng.gen_range(1..10));
    }
    for _ in 0..n {
        let u = rng.gen_range(0..n) as NodeId;
        let v = rng.gen_range(0..n) as NodeId;
        if u != v {
            b.add_bidirectional_weighted(u, v, rng.gen_range(1..10));
        }
    }
    let g = b.build();
    let mut flows = Vec::new();
    let mut id = 0u32;
    while flows.len() < n_flows {
        let src = rng.gen_range(0..n) as NodeId;
        let dst = rng.gen_range(0..n) as NodeId;
        if src == dst {
            continue;
        }
        if let Some(path) = bfs_path(&g, src, dst) {
            flows.push(Flow::new(id, rng.gen_range(1..=6), path));
            id += 1;
        }
    }
    (g, flows)
}

/// Random fixed-path instance.
fn random_instance(seed: u64, n: usize, n_flows: usize, k: usize) -> Instance {
    let (g, flows) = random_parts(seed, n, n_flows);
    Instance::new(g, flows, 0.5, k).expect("valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every constructed instance is well-formed, and every GTP solve
    /// with its forced allocation passes the solution auditor.
    #[test]
    fn random_instances_and_gtp_solutions_pass(
        seed in any::<u64>(), n in 3usize..14, k in 1usize..4,
    ) {
        let inst = random_instance(seed, n, 5, k);
        check_instance(&inst).unwrap();
        if let Ok(dep) = gtp_budgeted(&inst, k) {
            let alloc = allocate(&inst, &dep);
            check_solution(&inst, &dep, k, Some(&alloc)).unwrap();
        }
    }

    /// Deploying more than `k` middleboxes violates the budget.
    #[test]
    fn over_budget_deployment_is_rejected(
        seed in any::<u64>(), n in 4usize..14, k in 1usize..4,
    ) {
        let inst = random_instance(seed, n, 5, k);
        prop_assume!(k + 1 < n);
        let dep = Deployment::from_vertices(n, (0..=k).map(|v| v as NodeId));
        let err = check_solution(&inst, &dep, k, None).unwrap_err();
        prop_assert_eq!(err.check, "deployment-over-budget", "{}", err);
    }

    /// Serving a flow anywhere but the deployed on-path vertex
    /// maximizing `l_v(f)` (§3.1's forced allocation) is rejected —
    /// off-path, undeployed, suboptimal and dropped assignments each
    /// hit their own check.
    #[test]
    fn corrupted_allocations_are_rejected(
        seed in any::<u64>(), n in 4usize..14, k in 1usize..4,
    ) {
        let inst = random_instance(seed, n, 5, k);
        let dep = match gtp_budgeted(&inst, k) {
            Ok(d) if !d.is_empty() => d,
            _ => return Ok(()),
        };
        let best = best_hops(&inst, &dep);
        let clean = allocate(&inst, &dep);

        // Dropping a served flow: unserved with a deployed on-path box.
        if let Some(idx) = best.iter().position(Option::is_some) {
            let mut alloc = clean.clone();
            alloc.assigned[idx] = None;
            let err = check_solution(&inst, &dep, k, Some(&alloc)).unwrap_err();
            prop_assert_eq!(err.check, "assignment-unserved", "{}", err);
        }

        // Pointing a flow at a vertex nobody deployed.
        if let Some(v) = (0..n as NodeId).find(|&v| !dep.contains(v)) {
            let mut alloc = clean.clone();
            alloc.assigned[0] = Some(v);
            let err = check_solution(&inst, &dep, k, Some(&alloc)).unwrap_err();
            prop_assert_eq!(err.check, "assignment-undeployed", "{}", err);
        }

        // Pointing a flow at a deployed vertex its path avoids.
        let offpath = inst.flows().iter().enumerate().find_map(|(idx, f)| {
            dep.vertices()
                .iter()
                .find(|&&v| f.downstream_hops(v).is_none())
                .map(|&v| (idx, v))
        });
        if let Some((idx, v)) = offpath {
            let mut alloc = clean.clone();
            alloc.assigned[idx] = Some(v);
            let err = check_solution(&inst, &dep, k, Some(&alloc)).unwrap_err();
            prop_assert_eq!(err.check, "assignment-offpath", "{}", err);
        }

        // Serving a flow at a deployed on-path vertex with fewer
        // downstream hops than the forced optimum.
        let subopt = inst.flows().iter().enumerate().find_map(|(idx, f)| {
            let best_l = best[idx]?;
            f.path
                .iter()
                .find(|&&v| {
                    dep.contains(v)
                        && f.downstream_hops(v).is_some_and(|l| (l as u32) < best_l)
                })
                .map(|&v| (idx, v))
        });
        if let Some((idx, v)) = subopt {
            let mut alloc = clean.clone();
            alloc.assigned[idx] = Some(v);
            let err = check_solution(&inst, &dep, k, Some(&alloc)).unwrap_err();
            prop_assert_eq!(err.check, "assignment-suboptimal", "{}", err);
        }
    }
}

#[test]
fn rising_unguarded_gains_violate_submodularity() {
    let trace = [
        TraceRound {
            gain: 3.0,
            guarded: false,
        },
        TraceRound {
            gain: 1.0,
            guarded: false,
        },
        TraceRound {
            gain: 2.0,
            guarded: false,
        },
    ];
    let err = check_greedy_trace(&trace).unwrap_err();
    assert_eq!(err.check, "trace-not-monotone", "{err}");
}

#[test]
fn guard_rounds_are_exempt_from_monotonicity() {
    // A guard round may pick a low-gain forced vertex; the next
    // unguarded round compares against the last *unguarded* gain.
    let trace = [
        TraceRound {
            gain: 3.0,
            guarded: false,
        },
        TraceRound {
            gain: 0.5,
            guarded: true,
        },
        TraceRound {
            gain: 2.0,
            guarded: false,
        },
    ];
    check_greedy_trace(&trace).unwrap();
}

#[test]
fn negative_and_non_finite_gains_are_rejected() {
    let err = check_greedy_trace(&[TraceRound {
        gain: -1.0,
        guarded: false,
    }])
    .unwrap_err();
    assert_eq!(err.check, "trace-gain-negative", "{err}");
    let err = check_greedy_trace(&[TraceRound {
        gain: f64::NAN,
        guarded: true,
    }])
    .unwrap_err();
    assert_eq!(err.check, "trace-gain-finite", "{err}");
}
