//! Crate-level property tests for the extension solvers: branch and
//! bound vs exhaustive, weighted submodularity, capacitated allocation
//! exactness, local-search dominance, centrality feasibility.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdmd_core::algorithms::branch_bound::branch_and_bound;
use tdmd_core::algorithms::centrality::centrality_placement;
use tdmd_core::algorithms::exhaustive::exhaustive_optimal;
use tdmd_core::algorithms::gtp::gtp_budgeted;
use tdmd_core::algorithms::local_search::local_search;
use tdmd_core::capacitated::{allocate_capacitated, evaluate_capacitated};
use tdmd_core::feasibility::is_feasible;
use tdmd_core::objective::bandwidth_of;
use tdmd_core::{Deployment, FlowIndex, Instance, WeightedEdges};
use tdmd_graph::traversal::bfs_path;
use tdmd_graph::{GraphBuilder, NodeId};
use tdmd_traffic::Flow;

/// Random small general instance with random edge weights.
fn weighted_instance(seed: u64, n: usize, n_flows: usize, k: usize) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    // Random connected graph with weighted bidirectional links.
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
    Instance::new(g, flows, 0.5, k).expect("valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Branch and bound returns exactly the exhaustive optimum and
    /// agrees on infeasibility.
    #[test]
    fn bnb_equals_exhaustive(seed in any::<u64>(), n in 3usize..12, k in 1usize..4) {
        let inst = weighted_instance(seed, n, 4, k);
        let bnb = branch_and_bound(&inst, k, 50_000_000);
        let ex = exhaustive_optimal(&inst, k, u128::MAX);
        match (bnb, ex) {
            (Ok((_, b, _)), Ok((_, e))) => prop_assert!((b - e).abs() < 1e-9, "{b} vs {e}"),
            (Err(_), Err(_)) => {}
            other => prop_assert!(false, "solvers disagree: {:?}", other.0.is_ok()),
        }
    }

    /// Weighted marginal decrements are submodular too (the Thm. 2
    /// argument only uses monotone downstream weights).
    #[test]
    fn weighted_decrement_is_submodular(seed in any::<u64>(), n in 3usize..14) {
        let inst = weighted_instance(seed, n, 5, 3);
        let index = FlowIndex::build(&inst, &WeightedEdges::new(inst.graph()));
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let small = Deployment::from_vertices(n, (0..2).map(|_| rng.gen_range(0..n) as NodeId));
        let mut big = small.clone();
        big.insert(rng.gen_range(0..n) as NodeId);
        let cur = |d: &Deployment| -> Vec<f64> {
            index.best_down(d).into_iter().map(|w| w.unwrap_or(0.0)).collect()
        };
        let (cs, cb) = (cur(&small), cur(&big));
        for v in 0..n as NodeId {
            if big.contains(v) {
                continue;
            }
            prop_assert!(
                index.marginal_decrement(&inst, &cs, v)
                    >= index.marginal_decrement(&inst, &cb, v) - 1e-9
            );
        }
    }

    /// The capacitated evaluation with cap ≥ |F| equals the nearest-
    /// source objective, and the matching never exceeds capacities.
    #[test]
    fn capacitated_evaluation_is_consistent(seed in any::<u64>(), n in 3usize..12,
                                            cap in 1usize..5) {
        let inst = weighted_instance(seed, n, 4, 3);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x77);
        let d = Deployment::from_vertices(n, (0..3).map(|_| rng.gen_range(0..n) as NodeId));
        // Loose capacity reduces to the unconstrained allocation.
        if let Some((_, b)) = allocate_capacitated(&inst, &d, 10) {
            prop_assert!((b - bandwidth_of(&inst, &d)).abs() < 1e-9);
        }
        // Any capacity: box loads bounded by cap; matched bounded by
        // both |F| and Σ capacities.
        let eval = evaluate_capacitated(&inst, &d, cap);
        let mut counts = std::collections::HashMap::new();
        for v in eval.allocation.assigned.iter().flatten() {
            *counts.entry(*v).or_insert(0usize) += 1;
        }
        prop_assert!(counts.values().all(|&c| c <= cap));
        prop_assert!(eval.matched <= inst.flows().len());
        prop_assert!(eval.matched <= d.len() * cap);
        // Tighter capacity never serves more flows; at equal matching
        // size the looser polytope can only improve the gain (a
        // max-matching increase may legitimately trade gain, so the
        // bandwidth comparison is only asserted at equal size).
        let looser = evaluate_capacitated(&inst, &d, cap + 1);
        prop_assert!(looser.matched >= eval.matched);
        if looser.matched == eval.matched {
            prop_assert!(looser.bandwidth <= eval.bandwidth + 1e-9);
        }
    }

    /// Local search from any feasible start never worsens and respects
    /// the start's size budget.
    #[test]
    fn local_search_is_safe(seed in any::<u64>(), n in 4usize..14) {
        let inst = weighted_instance(seed, n, 5, 4);
        let Ok(start) = gtp_budgeted(&inst, 4) else { return Ok(()) };
        let before = bandwidth_of(&inst, &start);
        let out = local_search(&inst, start.clone(), 50);
        prop_assert!(out.bandwidth <= before + 1e-9);
        prop_assert!(out.deployment.len() <= start.len());
        prop_assert!(is_feasible(&inst, &out.deployment));
    }

    /// Centrality placement is feasible whenever it succeeds, within
    /// budget, and traffic-blind (same deployment for any λ).
    #[test]
    fn centrality_placement_properties(seed in any::<u64>(), n in 4usize..14, k in 1usize..5) {
        let inst = weighted_instance(seed, n, 4, k);
        if let Ok(d) = centrality_placement(&inst, k) {
            prop_assert!(d.len() <= k);
            prop_assert!(is_feasible(&inst, &d));
            let other = centrality_placement(&inst.with_lambda(0.0), k).unwrap();
            prop_assert_eq!(d, other, "λ must not influence a traffic-blind heuristic");
        }
    }
}
