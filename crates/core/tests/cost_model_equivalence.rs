//! Cost-model equivalence properties.
//!
//! The `CostModel` refactor routes GTP through one generic engine;
//! these tests pin the two invariants that make the refactor safe to
//! lean on:
//!
//! 1. `WeightedEdges` over a unit-weight graph prices exactly like
//!    `HopCount` (a suffix sum of ones is the downstream hop count),
//!    so GTP must return *byte-identical* deployments under both —
//!    same vertices, same order, same errors.
//! 2. `gtp_capacitated` with a capacity that can never bind
//!    (`cap ≥ |F|`) reduces to plain budgeted GTP.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdmd_core::algorithms::gtp::{gtp_budgeted, gtp_budgeted_with};
use tdmd_core::capacitated::gtp_capacitated;
use tdmd_core::objective::bandwidth_of;
use tdmd_core::{Instance, WeightedEdges};
use tdmd_graph::traversal::bfs_path;
use tdmd_graph::{GraphBuilder, NodeId};
use tdmd_traffic::Flow;

/// Random small connected instance whose edges all weigh 1.
fn unit_weight_instance(seed: u64, n: usize, n_flows: usize, k: usize) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
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

    /// On unit weights, the weighted model is the hop-count model:
    /// GTP must agree with its hop-count twin verbatim, deployment
    /// for deployment, error for error.
    #[test]
    fn unit_weights_reproduce_hop_count_exactly(seed in any::<u64>(),
                                                n in 3usize..14,
                                                k in 1usize..5) {
        let inst = unit_weight_instance(seed, n, 5, k);
        let model = WeightedEdges::new(&inst);
        prop_assert_eq!(gtp_budgeted(&inst, k), gtp_budgeted_with(&inst, k, &model));
    }

    /// A capacity that can never bind (cap ≥ |F|) makes the
    /// capacitated solver price plans exactly like plain GTP: both
    /// must agree on feasibility and on the achieved bandwidth.
    #[test]
    fn loose_capacity_matches_uncapacitated_gtp(seed in any::<u64>(),
                                                n in 3usize..12,
                                                k in 1usize..5) {
        let inst = unit_weight_instance(seed, n, 4, k);
        let cap = inst.flows().len(); // one box could host every flow
        match (gtp_budgeted(&inst, k), gtp_capacitated(&inst, k, cap)) {
            (Ok(plain), Ok((_, alloc, b_capped))) => {
                let b_plain = bandwidth_of(&inst, &plain);
                prop_assert!((b_capped - b_plain).abs() < 1e-9, "{b_capped} vs {b_plain}");
                prop_assert!(alloc.assigned.iter().all(Option::is_some),
                             "a never-binding capacity must serve every flow");
            }
            (Err(_), Err(_)) => {}
            (p, c) => prop_assert!(false, "feasibility disagrees: plain ok={} capacitated ok={}",
                                   p.is_ok(), c.is_ok()),
        }
    }
}
