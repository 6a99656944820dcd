//! Property tests for the service-chain extension.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdmd_chain::{chain_at_destinations, chain_gtp, evaluate_chain, ChainDeployment, ChainSpec};
use tdmd_graph::generators::trees::random_tree;
use tdmd_graph::RootedTree;
use tdmd_traffic::distribution::RateDistribution;
use tdmd_traffic::flow::total_load;
use tdmd_traffic::{tree_workload, WorkloadConfig};

fn fixture(seed: u64, n: usize, flows: usize) -> (tdmd_graph::DiGraph, Vec<tdmd_traffic::Flow>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = random_tree(n, &mut rng);
    let t = RootedTree::from_digraph(&g, 0).unwrap();
    let cfg =
        WorkloadConfig::with_count(flows).distribution(RateDistribution::Uniform { lo: 1, hi: 5 });
    let fl = tree_workload(&g, &t, &cfg, &mut rng);
    (g, fl)
}

fn random_chain(seed: u64, m: usize) -> ChainSpec {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A1);
    let ratios = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0];
    ChainSpec::new(
        (0..m)
            .map(|i| tdmd_chain::MiddleboxType {
                name: format!("t{i}"),
                lambda: ratios[rng.gen_range(0..ratios.len())],
            })
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Adding instances never makes any flow worse (monotonicity of
    /// the per-flow DP in the deployment).
    #[test]
    fn more_instances_never_hurt(seed in any::<u64>(), n in 3usize..14, m in 1usize..4) {
        let (g, flows) = fixture(seed, n, 5);
        let chain = random_chain(seed, m);
        let mut dep = chain_at_destinations(&g, &flows, &chain);
        let mut prev = evaluate_chain(&flows, &chain, &dep).bandwidth;
        let mut rng = StdRng::seed_from_u64(seed ^ 1);
        for _ in 0..6 {
            let t = rng.gen_range(0..chain.len());
            let v = rng.gen_range(0..n) as u32;
            dep.insert(t, v);
            let now = evaluate_chain(&flows, &chain, &dep).bandwidth;
            prop_assert!(now <= prev + 1e-9, "adding ({t},{v}) raised {prev} -> {now}");
            prev = now;
        }
    }

    /// The egress baseline is always feasible and costs exactly the
    /// unprocessed bandwidth when every prefix ratio is ≥ ... it costs
    /// exactly the unprocessed bandwidth regardless of ratios, because
    /// processing at the last vertex touches no edge.
    #[test]
    fn egress_baseline_costs_unprocessed(seed in any::<u64>(), n in 3usize..14, m in 1usize..4) {
        let (g, flows) = fixture(seed, n, 5);
        let chain = random_chain(seed, m);
        let dep = chain_at_destinations(&g, &flows, &chain);
        let eval = evaluate_chain(&flows, &chain, &dep);
        prop_assert!(eval.feasible());
        let unprocessed = total_load(&flows);
        prop_assert!((eval.bandwidth - unprocessed).abs() < 1e-9);
    }

    /// chain_gtp stays within budget, stays feasible, and never ends
    /// above the egress baseline.
    #[test]
    fn greedy_dominates_the_baseline(seed in any::<u64>(), n in 3usize..14,
                                     m in 1usize..3, extra in 0usize..6) {
        let (g, flows) = fixture(seed, n, 5);
        let chain = random_chain(seed, m);
        let baseline = chain_at_destinations(&g, &flows, &chain);
        let budget = baseline.total_instances() + extra;
        let (dep, eval) = chain_gtp(&g, &flows, &chain, budget).unwrap();
        prop_assert!(eval.feasible());
        prop_assert!(dep.total_instances() <= budget);
        let base = evaluate_chain(&flows, &chain, &baseline).bandwidth;
        prop_assert!(eval.bandwidth <= base + 1e-9);
    }

    /// A single-type chain with ratio λ reproduces the paper's
    /// objective: the chain evaluation of any deployment equals the
    /// core objective of the same vertex set.
    #[test]
    fn single_type_chain_equals_core_objective(seed in any::<u64>(), n in 3usize..14,
                                               lam_idx in 0usize..4) {
        let lambda = [0.0, 0.3, 0.5, 0.9][lam_idx];
        let (g, flows) = fixture(seed, n, 5);
        let chain = ChainSpec::from_ratios(&[("m", lambda)]);
        let inst = tdmd_core::Instance::new(g.clone(), flows.clone(), lambda, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 2);
        let vs: Vec<u32> = (0..3).map(|_| rng.gen_range(0..n) as u32).collect();
        let mut dep = ChainDeployment::empty(1, n);
        for &v in &vs {
            dep.insert(0, v);
        }
        let core_dep = tdmd_core::Deployment::from_vertices(n, vs.iter().copied());
        let chain_bw = evaluate_chain(&flows, &chain, &dep).bandwidth;
        let core_bw = tdmd_core::objective::bandwidth_of(&inst, &core_dep);
        prop_assert!((chain_bw - core_bw).abs() < 1e-9, "{chain_bw} vs {core_bw}");
    }
}
