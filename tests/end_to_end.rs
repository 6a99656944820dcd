//! End-to-end pipelines through the facade: topology generation →
//! workload → placement → replay validation → experiment aggregation
//! → serialization, at reduced scale.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tdmd::core::algorithms::Algorithm;
use tdmd::core::Instance;
use tdmd::graph::generators::ark::ark_like;
use tdmd::graph::generators::trees::random_tree;
use tdmd::graph::io::TopologyDoc;
use tdmd::graph::RootedTree;
use tdmd::sim::prelude::validate_deployment;
use tdmd::sim::{run_comparison, TrialConfig};
use tdmd::traffic::{general_workload, tree_workload, WorkloadConfig};
use tdmd_experiments::figures;
use tdmd_experiments::scenarios::Scenario;

fn quick() -> TrialConfig {
    TrialConfig {
        trials: 2,
        seed: 1234,
        resample_limit: 10,
    }
}

#[test]
fn tree_pipeline_five_algorithms() {
    let make = |rng: &mut StdRng| {
        let g = random_tree(14, rng);
        let t = RootedTree::from_digraph(&g, 0).unwrap();
        let flows = tree_workload(&g, &t, &WorkloadConfig::with_density(0.4), rng);
        Instance::new(g, flows, 0.5, 5).unwrap()
    };
    let stats = run_comparison(make, &Algorithm::tree_suite(), &quick());
    assert_eq!(stats.len(), 5);
    let get = |n: &str| {
        stats
            .iter()
            .find(|s| s.algorithm == n)
            .unwrap()
            .mean_bandwidth
    };
    assert!(get("DP") <= get("HAT") + 1e-9);
    assert!(get("DP") <= get("GTP") + 1e-9);
    assert!(get("DP") <= get("Best-effort") + 1e-9);
    assert!(get("DP") <= get("Random") + 1e-9);
    assert!(
        stats.iter().all(|s| s.trials == 2),
        "no trial should be dropped on trees"
    );
}

#[test]
fn general_pipeline_three_algorithms() {
    let make = |rng: &mut StdRng| {
        let g = ark_like(20, 4, rng);
        let flows = general_workload(&g, &[0, 1], &WorkloadConfig::with_density(0.4), rng);
        Instance::new(g, flows, 0.5, 8).unwrap()
    };
    let stats = run_comparison(make, &Algorithm::general_suite(), &quick());
    let get = |n: &str| {
        stats
            .iter()
            .find(|s| s.algorithm == n)
            .unwrap()
            .mean_bandwidth
    };
    assert!(get("GTP") <= get("Random") + 1e-9);
}

#[test]
fn every_algorithm_survives_replay_validation() {
    let mut rng = StdRng::seed_from_u64(5);
    let g = random_tree(16, &mut rng);
    let t = RootedTree::from_digraph(&g, 0).unwrap();
    let flows = tree_workload(&g, &t, &WorkloadConfig::with_count(10), &mut rng);
    let inst = Instance::new(g, flows, 0.3, 6).unwrap();
    for alg in Algorithm::tree_suite() {
        let d = alg
            .run(&inst, &mut rng)
            .unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
        validate_deployment(&inst, &d).unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
    }
}

#[test]
fn figure_results_serialize_and_reload() {
    let base = Scenario {
        size: 10,
        density: 0.3,
        k: 4,
        ..Scenario::tree_default()
    };
    let fig = figures::fig09::run_at(&quick(), base);
    let json = serde_json::to_string(&fig).unwrap();
    let back: tdmd_experiments::FigureResult = serde_json::from_str(&json).unwrap();
    // serde_json may round-trip f64 off by one ULP; compare fields
    // with a tolerance instead of structural equality.
    assert_eq!(back.name, fig.name);
    assert_eq!(back.series.len(), fig.series.len());
    for (a, b) in back.series.iter().zip(&fig.series) {
        assert_eq!(a.algorithm, b.algorithm);
        for (p, q) in a.points.iter().zip(&b.points) {
            assert_eq!(p.x, q.x);
            assert!((p.bandwidth - q.bandwidth).abs() < 1e-9);
            assert!((p.time_ms - q.time_ms).abs() < 1e-9);
            assert_eq!(p.trials, q.trials);
        }
    }
    let csv = fig.to_csv();
    // 5 algorithms x 6 sweep points + header.
    assert_eq!(csv.lines().count(), 5 * 6 + 1);
}

#[test]
fn topologies_round_trip_through_json() {
    let mut rng = StdRng::seed_from_u64(6);
    let g = ark_like(18, 3, &mut rng);
    let doc = TopologyDoc::from_graph(&g, "ark-18");
    let back = TopologyDoc::from_json(&doc.to_json()).unwrap().to_graph();
    assert_eq!(back, g);
    // The reloaded topology supports the whole pipeline.
    let flows = general_workload(&back, &[0], &WorkloadConfig::with_count(8), &mut rng);
    let inst = Instance::new(back, flows, 0.5, 5).unwrap();
    let d = tdmd::core::algorithms::gtp::gtp_budgeted(&inst, 5).unwrap();
    validate_deployment(&inst, &d).unwrap();
}

#[test]
fn derive_k_mode_covers_all_flows_on_general_graphs() {
    let mut rng = StdRng::seed_from_u64(7);
    let g = ark_like(24, 4, &mut rng);
    let flows = general_workload(&g, &[0, 1, 2], &WorkloadConfig::with_density(0.4), &mut rng);
    let inst = Instance::new(g, flows, 0.5, 0).unwrap();
    let d = tdmd::core::algorithms::gtp::gtp_derive_k(&inst).unwrap();
    assert!(tdmd::core::feasibility::is_feasible(&inst, &d));
    // Thm. 3 setting: the derived k is at most the vertex count and at
    // least the greedy cover size.
    assert!(d.len() <= inst.node_count());
}
