//! The drift oracle's index, compiled straight from the live
//! `DeltaState`, against the static path it replaced: after every
//! event of random arrival, departure, failure and recovery streams,
//!
//! * `DeltaState::flow_index` equals `FlowIndex::build` on the
//!   densified `snapshot_instance()` bit for bit (rows, path classes
//!   with their rate sums, weights and costs, and each flow's class),
//!   and
//! * `OnlineEngine::solve_oracle` returns what `gtp_budgeted_with`
//!   returns on that instance,
//!
//! under hop-count pricing, hop-count pricing without the coverage
//! tie-break, and weighted-edge pricing with non-unit weights, at λ
//! values that include non-dyadic ones, where a different summation
//! order would show in the low bits. The engine and the static path
//! price with the same model object.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdmd_core::algorithms::gtp::gtp_budgeted_with;
use tdmd_core::{CostModel, FlowIndex, HopCount, WeightedEdges};
use tdmd_graph::generators::random::erdos_renyi_connected;
use tdmd_graph::traversal::bfs;
use tdmd_graph::{DiGraph, GraphBuilder, NodeId};
use tdmd_online::{Event, FlowKey, OnlineEngine, RepairPolicy};
use tdmd_traffic::Flow;

const LAMBDAS: [f64; 6] = [0.3, 0.7, 0.1, 0.5, 0.0, 1.0];

/// A connected ER graph whose edges carry weights 1–9 (the same
/// weight both ways).
fn weighted_graph(n: usize, rng: &mut StdRng) -> DiGraph {
    let plain = erdos_renyi_connected(n, 0.3, rng);
    let mut b = GraphBuilder::new(n);
    for (u, v, _) in plain.edges() {
        if u < v {
            b.add_bidirectional_weighted(u, v, rng.gen_range(1..=9));
        }
    }
    b.build()
}

/// BFS shortest path `src → dst` (the generator keeps the graph
/// connected).
fn shortest_path(g: &DiGraph, src: NodeId, dst: NodeId) -> Vec<NodeId> {
    let r = bfs(g, src);
    let mut path = vec![dst];
    let mut v = dst;
    while v != src {
        v = r.parent[v as usize];
        path.push(v);
    }
    path.reverse();
    path
}

/// The next valid event for `engine`: mostly arrivals and departures,
/// with box failures, vertex outages and recoveries mixed in.
fn next_event<M: CostModel>(
    engine: &OnlineEngine<M>,
    g: &DiGraph,
    active: &mut Vec<FlowKey>,
    next_key: &mut FlowKey,
    rng: &mut StdRng,
) -> Event {
    let n = g.node_count() as NodeId;
    let failed = engine.failed_vertices();
    match rng.gen_range(0..20) {
        0..=1 if !engine.deployment().is_empty() => {
            let deployed = engine.deployment().vertices();
            Event::MiddleboxFailed {
                vertex: deployed[rng.gen_range(0..deployed.len())],
            }
        }
        2 if failed.len() < g.node_count() => loop {
            let vertex = rng.gen_range(0..n);
            if !engine.is_failed(vertex) {
                break Event::VertexDown { vertex };
            }
        },
        3..=4 if !failed.is_empty() => Event::MiddleboxRecovered {
            vertex: failed[rng.gen_range(0..failed.len())],
        },
        5..=10 if !active.is_empty() => {
            let i = rng.gen_range(0..active.len());
            Event::FlowDeparted {
                key: active.swap_remove(i),
            }
        }
        _ => {
            let src = rng.gen_range(0..n);
            let mut dst = rng.gen_range(0..n);
            while dst == src {
                dst = rng.gen_range(0..n);
            }
            let key = *next_key;
            *next_key += 1;
            active.push(key);
            Event::FlowArrived {
                key,
                rate: rng.gen_range(1..=12),
                path: shortest_path(g, src, dst),
            }
        }
    }
}

/// Asserts two indexes are equal bit for bit: every row's `(class,
/// gain)` entries, every per-class array (path, size, first member,
/// rate sum, weight, cost) and every flow's class.
fn assert_bitwise(compiled: &FlowIndex, built: &FlowIndex) {
    assert_eq!(compiled.node_count(), built.node_count());
    assert_eq!(compiled.flow_count(), built.flow_count());
    assert_eq!(compiled.class_count(), built.class_count());
    assert_eq!(compiled.coverage_tiebreak(), built.coverage_tiebreak());
    for v in 0..compiled.node_count() as NodeId {
        let bits = |index: &FlowIndex| -> Vec<(u32, u64)> {
            index
                .row_entries(v)
                .map(|(c, g)| (c, g.to_bits()))
                .collect()
        };
        assert_eq!(bits(compiled), bits(built), "row of vertex {}", v);
    }
    for c in 0..compiled.class_count() as u32 {
        assert_eq!(compiled.class_path(c), built.class_path(c));
        assert_eq!(compiled.class_size(c), built.class_size(c));
        assert_eq!(compiled.class_first(c), built.class_first(c));
        assert_eq!(compiled.class_rate(c), built.class_rate(c));
        assert_eq!(
            compiled.class_weight(c).to_bits(),
            built.class_weight(c).to_bits()
        );
        assert_eq!(
            compiled.class_cost(c).to_bits(),
            built.class_cost(c).to_bits()
        );
    }
    for f in 0..compiled.flow_count() as u32 {
        assert_eq!(compiled.class_of(f), built.class_of(f));
    }
}

/// Hop-count gains without the coverage tie-break: the oracle must
/// pass the model's flag to the kernel, not assume the default.
#[derive(Clone, Copy)]
struct NoTies;

impl CostModel for NoTies {
    fn serving_gain(&self, flow: &Flow, pos: usize) -> f64 {
        HopCount.serving_gain(flow, pos)
    }

    fn unprocessed_cost(&self, flow: &Flow) -> f64 {
        HopCount.unprocessed_cost(flow)
    }

    fn coverage_tiebreak(&self) -> bool {
        false
    }
}

/// Drives one stream through an engine priced by `model`, checking
/// after every event that the compiled index and the oracle match the
/// static path under the same `model`.
fn check_stream<M: CostModel + Clone>(
    g: DiGraph,
    lambda: f64,
    k: usize,
    model: M,
    seed: u64,
    len: usize,
) {
    let ties = model.coverage_tiebreak();
    let policy = RepairPolicy {
        sample_every: 3,
        ..RepairPolicy::default()
    };
    let mut engine = OnlineEngine::new(g.clone(), lambda, k, model.clone(), policy).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut active, mut next_key) = (Vec::new(), 0);
    for _ in 0..len {
        let ev = next_event(&engine, &g, &mut active, &mut next_key, &mut rng);
        engine.apply(&ev).unwrap();
        let inst = engine.snapshot_instance().unwrap();
        assert_bitwise(
            &engine.state().flow_index(ties),
            &FlowIndex::build(&inst, &model),
        );
        assert_eq!(
            engine.solve_oracle(),
            gtp_budgeted_with(&inst, k, &model),
            "oracle after {:?}",
            ev
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn hop_priced_oracle_index_is_the_snapshot_index(
        seed in any::<u64>(),
        n in 4usize..16,
        len in 1usize..40,
        k in 1usize..5,
        li in 0usize..LAMBDAS.len(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi_connected(n, 0.3, &mut rng);
        check_stream(g, LAMBDAS[li], k, HopCount, seed ^ 0x0C, len);
    }

    #[test]
    fn untied_oracle_index_is_the_snapshot_index(
        seed in any::<u64>(),
        n in 4usize..16,
        len in 1usize..40,
        k in 1usize..5,
        li in 0usize..LAMBDAS.len(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi_connected(n, 0.3, &mut rng);
        check_stream(g, LAMBDAS[li], k, NoTies, seed ^ 0x0E, len);
    }

    #[test]
    fn weight_priced_oracle_index_is_the_snapshot_index(
        seed in any::<u64>(),
        n in 4usize..16,
        len in 1usize..40,
        k in 1usize..5,
        li in 0usize..LAMBDAS.len(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = weighted_graph(n, &mut rng);
        let model = WeightedEdges::new(&g);
        check_stream(g, LAMBDAS[li], k, model, seed ^ 0x0D, len);
    }
}
