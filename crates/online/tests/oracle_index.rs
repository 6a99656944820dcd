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
//! price with the same model object. Streams over a few paths drain
//! path classes and reopen them, so the live class table reuses ids
//! that must not leak into the index's first-appearance numbering.
//! A restored snapshot whose flows on one path carry different stored
//! gains keeps one class per pricing, as `FlowIndex::compile` of the
//! snapshot does, and a new arrival on that path joins the class its
//! model prices.
//!
//! Both sides above read the engine's arrival log, so a wrong log
//! order would pass them. A second check keeps its own arrival-ordered
//! list of the flows over thousands of events that reuse slots and
//! cross the log's compaction bound many times, and compares the
//! engine's arrival walk, its index and its arrival-order objective
//! sums with that list after every event.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdmd_core::algorithms::gtp::{gtp_budgeted_index, gtp_budgeted_with};
use tdmd_core::{CostModel, FlowIndex, HopCount, PricedFlow, WeightedEdges};
use tdmd_graph::generators::random::erdos_renyi_connected;
use tdmd_graph::traversal::bfs;
use tdmd_graph::{DiGraph, GraphBuilder, NodeId};
use tdmd_online::{EngineSnapshot, Event, FlowKey, OnlineEngine, RepairPolicy};
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

/// Mostly [`next_event`]'s flow churn confined to the paths of `pool`,
/// so path classes drain and reopen; one event in five is a free
/// [`next_event`].
fn pooled_event<M: CostModel>(
    engine: &OnlineEngine<M>,
    g: &DiGraph,
    pool: &[Vec<NodeId>],
    active: &mut Vec<FlowKey>,
    next_key: &mut FlowKey,
    rng: &mut StdRng,
) -> Event {
    match rng.gen_range(0..10) {
        0..=1 => next_event(engine, g, active, next_key, rng),
        2..=5 if !active.is_empty() => {
            let i = rng.gen_range(0..active.len());
            Event::FlowDeparted {
                key: active.swap_remove(i),
            }
        }
        _ => {
            let key = *next_key;
            *next_key += 1;
            active.push(key);
            Event::FlowArrived {
                key,
                rate: rng.gen_range(1..=12),
                path: pool[rng.gen_range(0..pool.len())].clone(),
            }
        }
    }
}

/// The event stream a check drives: the next event for the engine.
type NextEvent<'a, M> =
    dyn FnMut(&OnlineEngine<M>, &mut Vec<FlowKey>, &mut FlowKey, &mut StdRng) -> Event + 'a;

/// Drives one stream of [`next_event`]s through an engine priced by
/// `model`, checking after every event that the compiled index and
/// the oracle match the static path under the same `model`.
fn check_stream<M: CostModel + Clone>(
    g: DiGraph,
    lambda: f64,
    k: usize,
    model: M,
    seed: u64,
    len: usize,
) {
    let graph = g.clone();
    check_events(
        g,
        lambda,
        k,
        model,
        seed,
        len,
        &mut |e, active, key, rng| next_event(e, &graph, active, key, rng),
    );
}

/// [`check_stream`] over the events `next` draws.
fn check_events<M: CostModel + Clone>(
    g: DiGraph,
    lambda: f64,
    k: usize,
    model: M,
    seed: u64,
    len: usize,
    next: &mut NextEvent<'_, M>,
) {
    let ties = model.coverage_tiebreak();
    let policy = RepairPolicy {
        sample_every: 3,
        ..RepairPolicy::default()
    };
    let mut engine = OnlineEngine::new(g, lambda, k, model.clone(), policy).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut active, mut next_key) = (Vec::new(), 0);
    for _ in 0..len {
        let ev = next(&engine, &mut active, &mut next_key, &mut rng);
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
    fn drained_and_reopened_classes_keep_the_snapshot_index(
        seed in any::<u64>(),
        n in 5usize..16,
        len in 1usize..60,
        k in 1usize..5,
        li in 0usize..LAMBDAS.len(),
        paths in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = weighted_graph(n, &mut rng);
        let pool: Vec<Vec<NodeId>> = (0..paths)
            .map(|_| {
                let src = rng.gen_range(0..n as NodeId);
                let dst = (src + rng.gen_range(1..n as NodeId)) % n as NodeId;
                shortest_path(&g, src, dst)
            })
            .collect();
        let model = WeightedEdges::new(&g);
        let graph = g.clone();
        check_events(g, LAMBDAS[li], k, model, seed ^ 0x0F, len, &mut |e, active, key, rng| {
            pooled_event(e, &graph, &pool, active, key, rng)
        });
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

/// One flow of [`ArrivalList`]: key, rate, path, and the gains and
/// cost its model gives it.
type Listed = (FlowKey, u64, Vec<NodeId>, Vec<f64>, f64);

/// The test's own record of the active flows, in arrival order: an
/// arrival appends, a departure removes its flow where it stands.
/// Nothing in it depends on the engine's slots, log or classes.
#[derive(Default)]
struct ArrivalList(Vec<Listed>);

impl ArrivalList {
    fn keys(&self) -> Vec<FlowKey> {
        self.0.iter().map(|f| f.0).collect()
    }

    /// `FlowIndex::compile` of the list, flows numbered in its order.
    fn compiled(&self, n: usize, lambda: f64, ties: bool) -> FlowIndex {
        FlowIndex::compile(
            n,
            lambda,
            ties,
            self.0
                .iter()
                .map(|(_, rate, path, gains, cost)| PricedFlow {
                    rate: *rate,
                    path,
                    gains,
                    cost: *cost,
                }),
        )
    }

    /// Eq. 1 under `dep`, flow by flow in the list's order, each flow
    /// served at its best deployed on-path gain.
    fn objective(&self, lambda: f64, dep: &tdmd_core::Deployment) -> f64 {
        let factor = 1.0 - lambda;
        self.0
            .iter()
            .map(|(_, rate, path, gains, cost)| {
                let r = *rate as f64;
                let best = path
                    .iter()
                    .zip(gains)
                    .filter(|&(&v, _)| dep.contains(v))
                    .map(|(_, &g)| g)
                    .reduce(f64::max);
                match best {
                    Some(g) => r * cost - r * factor * g,
                    None => r * cost,
                }
            })
            .sum::<f64>()
            + 0.0
    }
}

/// Churn between 1 and `cap` live flows over `len` events, on paths
/// drawn mostly from a pool of four (classes drain and reopen) and
/// otherwise at random, departures picked anywhere in the list (slots
/// are reused out of arrival order). After every event the engine's
/// arrival-order walk must list exactly the keys of the test's own
/// [`ArrivalList`]; the live index must equal `compile` of that list
/// bit for bit; and the exact objective and the objective under the
/// deployment must equal the list's own arrival-order sums bitwise.
/// Returns how many times the engine's arrival log was compacted, by
/// its documented rule: a departure that leaves more than
/// `2 · active + 64` entries.
fn check_arrival_order<M: CostModel + Clone>(
    g: &DiGraph,
    lambda: f64,
    model: M,
    cap: usize,
    seed: u64,
    len: usize,
) -> usize {
    let n = g.node_count();
    let ties = model.coverage_tiebreak();
    let mut engine = OnlineEngine::new(
        g.clone(),
        lambda,
        3,
        model.clone(),
        RepairPolicy::local_only(2),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let random_path = |rng: &mut StdRng| {
        let src = rng.gen_range(0..n as NodeId);
        let dst = (src + rng.gen_range(1..n as NodeId)) % n as NodeId;
        shortest_path(g, src, dst)
    };
    let pool: Vec<Vec<NodeId>> = (0..4).map(|_| random_path(&mut rng)).collect();
    let mut list = ArrivalList::default();
    let (mut next_key, mut log, mut compactions) = (0, 0usize, 0);
    for _ in 0..len {
        let live = list.0.len();
        let ev = if live > 0 && (live == cap || rng.gen_bool(0.5)) {
            let (key, ..) = list.0.remove(rng.gen_range(0..live));
            if log > 2 * list.0.len() + 64 {
                log = list.0.len();
                compactions += 1;
            }
            Event::FlowDeparted { key }
        } else {
            let path = if rng.gen_range(0..4) == 0 {
                random_path(&mut rng)
            } else {
                pool[rng.gen_range(0..pool.len())].clone()
            };
            let rate = rng.gen_range(1..=12);
            let probe = Flow::new(0, rate, path.clone());
            let (gains, cost) = (model.gains(&probe), model.unprocessed_cost(&probe));
            list.0.push((next_key, rate, path.clone(), gains, cost));
            log += 1;
            next_key += 1;
            Event::FlowArrived {
                key: next_key - 1,
                rate,
                path,
            }
        };
        engine.apply(&ev).unwrap();
        let state = engine.state();
        let walked: Vec<FlowKey> = state.flows_in_arrival_order().map(|f| f.key).collect();
        assert_eq!(walked, list.keys(), "after {ev:?}");
        assert_bitwise(&state.flow_index(ties), &list.compiled(n, lambda, ties));
        let dep = engine.deployment();
        assert_eq!(
            state.exact_objective().to_bits(),
            list.objective(lambda, dep).to_bits(),
            "exact objective after {ev:?}"
        );
        assert_eq!(
            state.objective_under(dep).to_bits(),
            list.objective(lambda, dep).to_bits(),
            "objective under the deployment after {ev:?}"
        );
    }
    compactions
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn arrival_order_matches_an_independent_list(
        seed in any::<u64>(),
        n in 5usize..14,
        cap in 1usize..=40,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = weighted_graph(n, &mut rng);
        let weighted = WeightedEdges::new(&g);
        let mut compactions = 0;
        for (i, lambda) in [0.5, 0.3].into_iter().enumerate() {
            let s = seed ^ (i as u64 + 1);
            compactions += check_arrival_order(&g, lambda, HopCount, cap, s, 3000);
            compactions += check_arrival_order(&g, lambda, weighted.clone(), cap, s ^ 0x10, 3000);
        }
        // Each of the four streams of 3,000 events crosses the bound
        // about every 65–105 departures.
        prop_assert!(compactions >= 4 * 10, "only {} compactions", compactions);
    }
}

/// Four paths on a 6-vertex graph; the classes open, drain and reopen
/// in an order where every reopened path takes a freed id that
/// belonged to another path, and the index must still number the
/// classes by first arrival among the live flows.
#[test]
fn reused_class_ids_do_not_leak_into_the_numbering() {
    let mut b = GraphBuilder::new(6);
    for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 4)] {
        b.add_bidirectional_weighted(u, v, 1);
    }
    let g = b.build();
    let [a, bb, c, d]: [Vec<NodeId>; 4] = [
        vec![0, 1, 2],
        vec![5, 4, 3],
        vec![0, 1, 4, 5],
        vec![3, 2, 1],
    ];
    let arrive = |key: FlowKey, rate: u64, path: &Vec<NodeId>| Event::FlowArrived {
        key,
        rate,
        path: path.clone(),
    };
    let depart = |key: FlowKey| Event::FlowDeparted { key };
    let events = [
        arrive(0, 3, &a),
        arrive(1, 5, &bb),
        arrive(2, 2, &c),
        arrive(3, 4, &a),
        depart(0),
        depart(3),         // a drains: its id is freed
        arrive(4, 7, &d),  // d takes a's id but arrives after bb and c
        arrive(5, 1, &a),  // a reopens under a new id
        depart(1),         // bb drains
        arrive(6, 6, &bb), // bb reopens under its own id, now last
        arrive(7, 2, &c),
        depart(2),
        depart(7), // c drains
        arrive(8, 9, &c),
    ];
    let counts = [1, 2, 3, 3, 3, 2, 3, 4, 3, 4, 4, 4, 3, 4];
    for lambda in [0.3, 0.5] {
        let model = WeightedEdges::new(&g);
        let mut engine =
            OnlineEngine::new(g.clone(), lambda, 2, model.clone(), RepairPolicy::default())
                .unwrap();
        for (ev, &count) in events.iter().zip(&counts) {
            engine.apply(ev).unwrap();
            assert_eq!(engine.state().class_count(), count, "after {ev:?}");
            let inst = engine.snapshot_instance().unwrap();
            assert_bitwise(
                &engine.state().flow_index(true),
                &FlowIndex::build(&inst, &model),
            );
            assert_eq!(
                engine.solve_oracle(),
                gtp_budgeted_with(&inst, 2, &model),
                "oracle after {ev:?}"
            );
        }
    }
}

/// The index `compile` builds from a snapshot's stored gains, in
/// arrival order.
fn compiled(snap: &EngineSnapshot, ties: bool) -> FlowIndex {
    FlowIndex::compile(
        snap.node_count as usize,
        snap.lambda,
        ties,
        snap.flows.iter().map(|f| PricedFlow {
            rate: f.rate,
            path: &f.path,
            gains: &f.gains,
            cost: f.cost,
        }),
    )
}

/// Fig. 1's graph and four flows plus a second flow (key 5) on flow
/// 2's path v6 → v3 → v2; the snapshot stores flow 2's gains and cost
/// at fifty times its hop counts. Restored, the path keeps two
/// classes, one per pricing, as `compile` of the snapshot has them; a
/// hop-priced arrival on that path joins key 5's class; and after
/// every step the live index is `compile`'s bit for bit and the oracle
/// is the kernel's answer on it.
#[test]
fn a_restored_path_priced_two_ways_keeps_two_classes() {
    let fig1 = tdmd_core::paper::fig1_instance(2);
    let g = fig1.graph().clone();
    let mut e =
        OnlineEngine::new(g.clone(), 0.3, 2, HopCount, RepairPolicy::local_only(0)).unwrap();
    let flows: [(FlowKey, u64, Vec<NodeId>); 5] = [
        (1, 4, vec![4, 2, 0]),
        (2, 2, vec![5, 2, 1]),
        (3, 2, vec![3, 1]),
        (4, 2, vec![5, 1]),
        (5, 3, vec![5, 2, 1]),
    ];
    for (key, rate, path) in flows {
        e.apply(&Event::FlowArrived { key, rate, path }).unwrap();
    }
    assert_eq!(e.state().class_count(), 4);
    let mut snap = e.snapshot();
    let f = snap.flows.iter_mut().find(|f| f.key == 2).unwrap();
    f.gains = f.gains.iter().map(|g| 50.0 * g).collect();
    f.cost *= 50.0;
    let mut r = OnlineEngine::restore(g, HopCount, RepairPolicy::local_only(0), &snap).unwrap();
    assert_eq!(r.state().class_count(), 5, "one class per pricing");
    let check = |r: &OnlineEngine<HopCount>, snap: &EngineSnapshot| {
        let want = compiled(snap, true);
        let live = r.state().flow_index(true);
        assert_bitwise(&live, &want);
        assert_eq!(r.solve_oracle(), gtp_budgeted_index(&want, 2));
        let on_path = (0..live.class_count() as u32)
            .filter(|&c| live.class_path(c) == [5, 2, 1])
            .count();
        assert_eq!(on_path, 2);
        live
    };
    let live = check(&r, &snap);
    // Ranks are arrival order: keys 1..=5 are flows 0..=4.
    assert_ne!(live.class_of(1), live.class_of(4));
    r.apply(&Event::FlowArrived {
        key: 6,
        rate: 1,
        path: vec![5, 2, 1],
    })
    .unwrap();
    assert_eq!(r.state().class_count(), 5, "the arrival joins a class");
    let mut grown = r.snapshot();
    assert_eq!(grown.flows.last().map(|f| f.key), Some(6));
    let live = check(&r, &grown);
    assert_eq!(live.class_of(5), live.class_of(4), "key 6 joins key 5");
    assert_eq!(live.class_size(live.class_of(4)), 2);
    // Key 2 leaves: its class drains, and the hop-priced one remains.
    r.apply(&Event::FlowDeparted { key: 2 }).unwrap();
    assert_eq!(r.state().class_count(), 4);
    grown.flows.retain(|f| f.key != 2);
    let want = compiled(&grown, true);
    assert_bitwise(&r.state().flow_index(true), &want);
    assert_eq!(r.solve_oracle(), gtp_budgeted_index(&want, 2));
}
