//! Property-based tests of the paper's structural claims: Theorem 2
//! (monotone submodularity of the decrement), Lemma 1 (envelope),
//! DP optimality (certified against exhaustive search), heuristic
//! dominance, allocation optimality and replay consistency.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdmd::core::algorithms::best_effort::best_effort;
use tdmd::core::algorithms::dp::dp_optimal;
use tdmd::core::algorithms::exhaustive::exhaustive_optimal;
use tdmd::core::algorithms::gtp::gtp_budgeted;
use tdmd::core::algorithms::hat::hat;
use tdmd::core::objective::{allocate, bandwidth_of, decrement, lemma1_bounds};
use tdmd::core::{Deployment, FlowIndex, HopCount, Instance};
use tdmd::graph::generators::random::erdos_renyi_connected;
use tdmd::graph::generators::trees::random_tree;
use tdmd::graph::traversal::bfs_path;
use tdmd::graph::{NodeId, RootedTree};
use tdmd::sim::replay;
use tdmd::traffic::distribution::RateDistribution;
use tdmd::traffic::{tree_workload, Flow, WorkloadConfig};

/// Random small tree instance (seed-driven so strategies stay simple).
fn tree_instance(seed: u64, n: usize, n_flows: usize, lambda: f64, k: usize) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = random_tree(n, &mut rng);
    let t = RootedTree::from_digraph(&g, 0).expect("tree");
    let cfg = WorkloadConfig::with_count(n_flows)
        .distribution(RateDistribution::Uniform { lo: 1, hi: 9 });
    let flows = tree_workload(&g, &t, &cfg, &mut rng);
    Instance::new(g, flows, lambda, k).expect("valid")
}

/// Random small general instance over a connected ER graph.
fn general_instance(seed: u64, n: usize, n_flows: usize, lambda: f64, k: usize) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = erdos_renyi_connected(n, 0.25, &mut rng);
    let mut flows = Vec::new();
    let mut id = 0u32;
    while flows.len() < n_flows {
        let src = rng.gen_range(0..n) as NodeId;
        let dst = rng.gen_range(0..n) as NodeId;
        if src == dst {
            continue;
        }
        if let Some(path) = bfs_path(&g, src, dst) {
            flows.push(Flow::new(id, rng.gen_range(1..=9), path));
            id += 1;
        }
    }
    Instance::new(g, flows, lambda, k).expect("valid")
}

/// Random deployment of `k` vertices.
fn random_deployment(seed: u64, n: usize, k: usize) -> Deployment {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD_BEEF);
    Deployment::from_vertices(n, (0..k).map(|_| rng.gen_range(0..n) as NodeId))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 2, monotonicity: adding middleboxes never shrinks d(P).
    #[test]
    fn decrement_is_monotone(seed in any::<u64>(), n in 3usize..16, k in 1usize..5) {
        let inst = general_instance(seed, n, 6, 0.5, k);
        let small = random_deployment(seed, n, k);
        let mut big = small.clone();
        let extra = (seed % n as u64) as NodeId;
        big.insert(extra);
        prop_assert!(decrement(&inst, &big) >= decrement(&inst, &small) - 1e-9);
    }

    /// Theorem 2, submodularity: marginal gains shrink as P grows.
    #[test]
    fn decrement_is_submodular(seed in any::<u64>(), n in 3usize..16) {
        let inst = general_instance(seed, n, 6, 0.5, 3);
        let p_small = random_deployment(seed, n, 2);
        let mut p_big = p_small.clone();
        p_big.insert((seed % n as u64) as NodeId);
        p_big.insert(((seed >> 8) % n as u64) as NodeId);
        let index = FlowIndex::build(&inst, &HopCount);
        let cur = |d: &Deployment| -> Vec<f64> {
            index.best_down(d).into_iter().map(|g| g.unwrap_or(0.0)).collect()
        };
        let (cur_small, cur_big) = (cur(&p_small), cur(&p_big));
        for v in 0..n as NodeId {
            if p_big.contains(v) || p_small.contains(v) {
                continue;
            }
            prop_assert!(
                index.marginal_decrement(&inst, &cur_small, v)
                    >= index.marginal_decrement(&inst, &cur_big, v) - 1e-9,
                "gain grew at v={v}"
            );
        }
    }

    /// Lemma 1: 0 <= d(P) <= (1 - λ) Σ r|p| for any deployment.
    #[test]
    fn lemma1_envelope(seed in any::<u64>(), n in 3usize..16, k in 0usize..6,
                       lam_idx in 0usize..5) {
        let lambda = [0.0, 0.25, 0.5, 0.75, 1.0][lam_idx];
        let inst = general_instance(seed, n, 5, lambda, k.max(1));
        let d = random_deployment(seed, n, k);
        let (lo, hi) = lemma1_bounds(&inst);
        let val = decrement(&inst, &d);
        prop_assert!(val >= lo - 1e-9 && val <= hi + 1e-9, "{val} outside [{lo}, {hi}]");
    }

    /// The replay simulator and Eq. (1) agree on every deployment.
    #[test]
    fn replay_matches_analytic(seed in any::<u64>(), n in 3usize..16, k in 0usize..6) {
        let inst = general_instance(seed, n, 6, 0.5, k.max(1));
        let d = random_deployment(seed, n, k);
        let loads = replay(&inst, &d);
        let analytic = bandwidth_of(&inst, &d);
        prop_assert!((loads.total - analytic).abs() < 1e-9 * analytic.max(1.0));
    }

    /// Allocation optimality: each flow's assigned box maximizes the
    /// downstream hop count among deployed on-path vertices.
    #[test]
    fn allocation_is_nearest_source(seed in any::<u64>(), n in 3usize..16, k in 1usize..6) {
        let inst = general_instance(seed, n, 6, 0.5, k);
        let d = random_deployment(seed, n, k);
        let alloc = allocate(&inst, &d);
        for f in inst.flows() {
            let best = f
                .path
                .iter()
                .filter(|&&v| d.contains(v))
                .map(|&v| f.downstream_hops(v).unwrap())
                .max();
            match (alloc.assigned[f.id as usize], best) {
                (Some(v), Some(l)) => {
                    prop_assert_eq!(f.downstream_hops(v).unwrap(), l)
                }
                (None, None) => {}
                other => prop_assert!(false, "mismatch {:?}", other),
            }
        }
    }

    /// DP is optimal: certified against exhaustive search on small
    /// trees, and never beaten by any heuristic.
    #[test]
    fn dp_is_optimal_on_small_trees(seed in any::<u64>(), n in 2usize..11, k in 1usize..4) {
        let inst = tree_instance(seed, n, 4, 0.5, k);
        let dp = dp_optimal(&inst).unwrap();
        let (_, ex) = exhaustive_optimal(&inst, k, 1_000_000_000).unwrap();
        prop_assert!((dp.bandwidth - ex).abs() < 1e-9, "dp {} vs exhaustive {}", dp.bandwidth, ex);
        prop_assert!((bandwidth_of(&inst, &dp.deployment) - ex).abs() < 1e-9);
    }

    /// Heuristic dominance on trees: DP <= {HAT, GTP, Best-effort}.
    #[test]
    fn dp_lower_bounds_heuristics(seed in any::<u64>(), n in 3usize..14, k in 1usize..5) {
        let inst = tree_instance(seed, n, 5, 0.5, k);
        let dp = dp_optimal(&inst).unwrap().bandwidth;
        for (name, b) in [
            ("hat", hat(&inst, k).map(|d| bandwidth_of(&inst, &d))),
            ("gtp", gtp_budgeted(&inst, k).map(|d| bandwidth_of(&inst, &d))),
            ("best-effort", best_effort(&inst, k).map(|d| bandwidth_of(&inst, &d))),
        ] {
            // Trees are always feasible for k >= 1 (a root box covers
            // everything).
            let b = b.unwrap_or_else(|e| panic!("{name} failed: {e}"));
            prop_assert!(b >= dp - 1e-9, "{name} {b} beat DP {dp}");
        }
    }

    /// Feasible plans stay feasible and within budget across all
    /// algorithms on trees.
    #[test]
    fn all_tree_algorithms_respect_budget(seed in any::<u64>(), n in 3usize..14, k in 1usize..5) {
        let inst = tree_instance(seed, n, 5, 0.5, k);
        for d in [
            dp_optimal(&inst).unwrap().deployment,
            hat(&inst, k).unwrap(),
            gtp_budgeted(&inst, k).unwrap(),
            best_effort(&inst, k).unwrap(),
        ] {
            prop_assert!(d.len() <= k);
            prop_assert!(tdmd::core::feasibility::is_feasible(&inst, &d));
        }
    }
}
