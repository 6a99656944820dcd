//! The audit switch ([`tdmd_core::audit::enabled`]) is one
//! process-wide flag, so this file holds the only test that reads it:
//! no other test in the process can turn it on first.
//!
//! Without debug assertions the solver seams stay off until
//! [`tdmd_core::audit::enable`]; under debug assertions they always
//! run.

use std::panic::{catch_unwind, AssertUnwindSafe};

use tdmd_core::{audit, CostModel, FlowIndex, Instance};
use tdmd_graph::DiGraph;
use tdmd_traffic::Flow;

/// Prices a flow by its rate, which breaks the contract that a model
/// prices from the path alone.
struct ByRate;

impl CostModel for ByRate {
    fn serving_gain(&self, flow: &Flow, pos: usize) -> f64 {
        (flow.rate * (flow.hops() - pos) as u64) as f64
    }

    fn unprocessed_cost(&self, flow: &Flow) -> f64 {
        (flow.rate * flow.hops() as u64) as f64
    }
}

/// Two flows on the path 0 → 1 → 2 at rates 1 and 2: one path class
/// that [`ByRate`] prices apart.
fn shared_path() -> Instance {
    let graph = DiGraph::from_edges(3, &[(0, 1, 1), (1, 2, 1)]);
    let flows = vec![
        Flow::new(0, 1, vec![0, 1, 2]),
        Flow::new(1, 2, vec![0, 1, 2]),
    ];
    Instance::new(graph, flows, 0.5, 1).unwrap()
}

/// Builds the index and returns the panic message, if it panicked.
fn build_panic(instance: &Instance) -> Option<String> {
    let err = catch_unwind(AssertUnwindSafe(|| FlowIndex::build(instance, &ByRate))).err()?;
    Some(
        err.downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic".to_string()),
    )
}

#[test]
fn the_switch_gates_the_class_pricing_seam() {
    let instance = shared_path();
    let debug = cfg!(debug_assertions);
    assert_eq!(audit::enabled(), debug);
    // Debug builds always audit; release builds start with the seams off.
    let first = build_panic(&instance);
    assert_eq!(first.is_some(), debug, "{first:?}");
    if let Some(msg) = first {
        assert!(msg.contains("index-class-pricing"), "{msg}");
    }
    audit::enable();
    assert!(audit::enabled());
    let msg = build_panic(&instance).expect("the switch turns the seam on");
    assert!(msg.contains("index-class-pricing"), "{msg}");
}
