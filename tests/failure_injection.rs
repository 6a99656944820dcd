//! Failure injection: infeasible budgets, degenerate workloads,
//! boundary λ values, malformed topologies — every error path of the
//! public API must fail loudly and precisely, never panic.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tdmd::core::algorithms::dp::dp_optimal;
use tdmd::core::algorithms::exhaustive::exhaustive_optimal;
use tdmd::core::algorithms::gtp::gtp_budgeted;
use tdmd::core::algorithms::hat::hat;
use tdmd::core::algorithms::random::random_feasible;
use tdmd::core::error::TdmdError;
use tdmd::core::paper::{fig1_instance, fig5_graph, fig5_instance};
use tdmd::core::Instance;
use tdmd::graph::io::{TopologyDoc, TopologyError};
use tdmd::graph::GraphBuilder;
use tdmd::traffic::{Flow, FlowPaths};

#[test]
fn zero_budget_with_flows_is_always_infeasible() {
    let inst = fig5_instance(0);
    assert_eq!(
        dp_optimal(&inst).unwrap_err(),
        TdmdError::Infeasible { budget: 0 }
    );
    assert_eq!(
        hat(&inst, 0).unwrap_err(),
        TdmdError::Infeasible { budget: 0 }
    );
    assert!(gtp_budgeted(&inst, 0).is_err());
    let mut rng = StdRng::seed_from_u64(1);
    assert!(random_feasible(&inst, 0, &mut rng, 50).is_err());
}

#[test]
fn budget_below_cover_number_fails_across_algorithms() {
    // Fig. 1 needs two middleboxes; k = 1 must fail everywhere.
    let inst = fig1_instance(1);
    assert!(gtp_budgeted(&inst, 1).is_err());
    assert_eq!(
        exhaustive_optimal(&inst, 1, 1_000_000).unwrap_err(),
        TdmdError::Infeasible { budget: 1 }
    );
    let mut rng = StdRng::seed_from_u64(2);
    assert!(random_feasible(&inst, 1, &mut rng, 100).is_err());
}

#[test]
fn lambda_out_of_range_is_rejected_at_construction() {
    let g = fig5_graph();
    let flows = vec![Flow::new(0, 1, vec![3, 1, 0])];
    for bad in [-0.5, 1.0001, f64::NAN, f64::INFINITY] {
        let err = Instance::new(g.clone(), flows.clone(), bad, 1).unwrap_err();
        assert!(matches!(err, TdmdError::BadLambda(_)), "lambda {bad}");
    }
}

#[test]
fn invalid_flow_paths_are_rejected_at_construction() {
    let g = fig5_graph();
    // 3 -> 0 is not an edge of the Fig. 5 tree.
    let err = Instance::new(g, vec![Flow::new(7, 1, vec![3, 0])], 0.5, 1).unwrap_err();
    assert_eq!(err, TdmdError::InvalidPath { flow: 7 });
}

#[test]
fn tree_algorithms_reject_general_topologies() {
    let inst = fig1_instance(3); // contains a cycle
    assert!(matches!(
        dp_optimal(&inst).unwrap_err(),
        TdmdError::NotATreeInstance(_)
    ));
    assert!(matches!(
        hat(&inst, 3).unwrap_err(),
        TdmdError::NotATreeInstance(_)
    ));
}

#[test]
fn tree_algorithms_reject_mixed_destinations() {
    let g = fig5_graph();
    let flows = vec![
        Flow::new(0, 2, vec![3, 1, 0]),
        Flow::new(1, 2, vec![6, 5, 2]),
    ];
    let inst = Instance::new(g, flows, 0.5, 3).unwrap();
    assert!(matches!(
        dp_optimal(&inst).unwrap_err(),
        TdmdError::NotATreeInstance(_)
    ));
    assert!(matches!(
        hat(&inst, 3).unwrap_err(),
        TdmdError::NotATreeInstance(_)
    ));
}

#[test]
fn empty_workloads_are_trivially_solved() {
    let g = fig5_graph();
    let inst = Instance::new(g, vec![], 0.5, 0).unwrap();
    assert_eq!(dp_optimal(&inst).unwrap().bandwidth, 0.0);
    assert!(hat(&inst, 0).unwrap().is_empty());
    let (d, b) = exhaustive_optimal(&inst, 0, 100).unwrap();
    assert!(d.is_empty());
    assert_eq!(b, 0.0);
}

#[test]
fn disconnected_topology_fails_tree_validation_not_construction() {
    let mut b = GraphBuilder::new(4);
    b.add_bidirectional(0, 1);
    b.add_bidirectional(2, 3);
    let g = b.build();
    let flows = vec![Flow::new(0, 1, vec![1, 0])];
    // Paths are valid on their component, so construction succeeds ...
    let inst = Instance::new(g, flows, 0.5, 1).unwrap();
    // ... but the tree DP refuses the disconnected skeleton.
    assert!(matches!(
        dp_optimal(&inst).unwrap_err(),
        TdmdError::NotATreeInstance(_)
    ));
    // The general-topology greedy is fine with it.
    assert!(gtp_budgeted(&inst, 1).is_ok());
}

#[test]
fn exhaustive_cap_trips_before_blowing_up() {
    let inst = fig5_instance(4);
    assert!(matches!(
        exhaustive_optimal(&inst, 4, 3).unwrap_err(),
        TdmdError::SearchSpaceTooLarge { .. }
    ));
}

#[test]
fn boundary_lambdas_run_end_to_end() {
    for lambda in [0.0, 1.0] {
        let inst = fig5_instance(3).with_lambda(lambda);
        let d = dp_optimal(&inst).unwrap();
        assert!(
            tdmd::core::feasibility::is_feasible(&inst, &d.deployment),
            "λ={lambda}"
        );
        let h = hat(&inst, 3).unwrap();
        assert!(
            tdmd::core::feasibility::is_feasible(&inst, &h),
            "λ={lambda}"
        );
        let g = gtp_budgeted(&inst, 3).unwrap();
        assert!(
            tdmd::core::feasibility::is_feasible(&inst, &g),
            "λ={lambda}"
        );
    }
}

#[test]
fn zero_rate_flows_are_rejected_everywhere() {
    // Eq. (4) requires coverage of every flow, but a zero-rate flow is
    // invisible to the DP's rate-based accounting — so the model
    // rejects it outright (the paper's flows carry positive traffic).
    let g = fig5_graph();
    let mut zero = Flow::new(0, 1, vec![3, 1, 0]);
    zero.rate = 0; // bypasses the constructor's assertion on purpose
    let err = Instance::new(g, vec![zero], 0.5, 2).unwrap_err();
    assert_eq!(err, TdmdError::InvalidPath { flow: 0 });
    // The constructor itself refuses too.
    let panicked = std::panic::catch_unwind(|| Flow::new(0, 0, vec![3, 1, 0])).is_err();
    assert!(panicked, "Flow::new must reject rate 0");
}

#[test]
fn degenerate_paths_are_rejected_everywhere() {
    // A decoded workload bypasses `Flow::new`'s checks, so the
    // instance constructors reject what it would have refused: an
    // empty path, a one-vertex path, a path that revisits a vertex
    // (every hop of [0, 1, 0, 1, 3] is an edge of Fig. 5), and a
    // vertex outside the topology.
    for path in [vec![], vec![1], vec![0, 1, 0, 1, 3], vec![99, 0]] {
        let mut bad = Flow::new(0, 1, vec![3, 1, 0]);
        bad.path = path.clone();
        let err = Instance::new(fig5_graph(), vec![bad], 0.5, 2).unwrap_err();
        assert_eq!(err, TdmdError::InvalidPath { flow: 0 }, "path {path:?}");
        let sets = vec![FlowPaths {
            id: 0,
            rate: 1,
            candidates: vec![path.clone()],
        }];
        let err = Instance::with_path_sets(fig5_graph(), sets, 0.5, 2).unwrap_err();
        assert_eq!(err, TdmdError::InvalidPath { flow: 0 }, "path {path:?}");
    }
}

#[test]
fn hostile_topology_documents_fail_with_a_typed_error() {
    // An edge endpoint at `nodes` used to panic in `DiGraph::from_edges`;
    // a `nodes` beyond the vertex limit used to abort on the allocation.
    let out_of_range = r#"{"nodes": 3, "edges": [[0, 1, 1], [2, 3, 1]]}"#;
    let err = TopologyDoc::from_json(out_of_range).unwrap_err();
    assert_eq!(
        err,
        TopologyError::EdgeOutOfRange {
            edge: 1,
            endpoint: 3,
            nodes: 3
        }
    );
    assert!(err.to_string().contains("`edges`"), "{err}");
    let huge = r#"{"nodes": 100000000000, "edges": [[0, 1, 1]]}"#;
    let err = TopologyDoc::from_json(huge).unwrap_err();
    assert_eq!(
        err,
        TopologyError::TooManyNodes {
            nodes: 100_000_000_000
        }
    );
    assert!(err.to_string().contains("`nodes`"), "{err}");
    let deep = format!(
        r#"{{"nodes": 2, "edges": [], "name": {}}}"#,
        "[".repeat(1 << 20)
    );
    assert!(matches!(
        TopologyDoc::from_json(&deep),
        Err(TopologyError::Json(_))
    ));
}
