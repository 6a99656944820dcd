//! Property tests pinning the incremental engine to the static
//! solver:
//!
//! * forced replan on every event is *bit-for-bit* the from-scratch
//!   GTP — same deployment, and the maintained objective equals the
//!   static CSR evaluation exactly (not approximately);
//! * the drift-sampled policy stays within the documented
//!   `1 + drift_eps` bound of the oracle at every sampled event
//!   (here every event, `sample_every = 1`);
//! * `DeltaState`'s maintained assignments match the static
//!   `allocate` on a densified snapshot, tie-breaks included.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdmd_core::algorithms::gtp::gtp_budgeted;
use tdmd_core::cost::FlowIndex;
use tdmd_core::objective::allocate;
use tdmd_core::{HopCount, Instance};
use tdmd_graph::generators::random::erdos_renyi_connected;
use tdmd_graph::traversal::bfs;
use tdmd_graph::{DiGraph, NodeId};
use tdmd_online::{Event, FlowKey, OnlineEngine, RepairPolicy};

/// BFS shortest path `src → dst` (both reachable: the generator
/// guarantees connectivity).
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

/// A random churn history: interleaved arrivals (shortest-path flows)
/// and departures of still-active flows.
fn random_events(g: &DiGraph, seed: u64, len: usize) -> Vec<Event> {
    let n = g.node_count() as NodeId;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut active: Vec<FlowKey> = Vec::new();
    let mut next_key: FlowKey = 0;
    let mut out = Vec::new();
    for _ in 0..len {
        let depart = !active.is_empty() && rng.gen_range(0..10) < 4;
        if depart {
            let i = rng.gen_range(0..active.len());
            out.push(Event::FlowDeparted {
                key: active.swap_remove(i),
            });
        } else {
            let src = rng.gen_range(0..n);
            let mut dst = rng.gen_range(0..n);
            while dst == src {
                dst = rng.gen_range(0..n);
            }
            out.push(Event::FlowArrived {
                key: next_key,
                rate: rng.gen_range(1..=10),
                path: shortest_path(g, src, dst),
            });
            active.push(next_key);
            next_key += 1;
        }
    }
    out
}

fn snapshot(engine: &OnlineEngine<HopCount>, g: &DiGraph, lambda: f64, k: usize) -> Instance {
    Instance::new(g.clone(), engine.state().active_snapshot(), lambda, k)
        .expect("engine-accepted flows form a valid instance")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Forcing a full replan on every event makes the engine exactly
    /// the per-event from-scratch GTP: same deployment whenever the
    /// oracle solves, and the maintained objective equals the static
    /// CSR evaluation bitwise.
    #[test]
    fn forced_replan_is_bitwise_from_scratch_gtp(
        seed in any::<u64>(),
        n in 4usize..14,
        len in 1usize..24,
        k in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi_connected(n, 0.3, &mut rng);
        let lambda = 0.5;
        let mut engine = OnlineEngine::new(
            g.clone(), lambda, k, HopCount, RepairPolicy::forced_replan(),
        ).unwrap();
        for ev in random_events(&g, seed ^ 0xA5, len) {
            engine.apply(&ev).unwrap();
            let inst = snapshot(&engine, &g, lambda, k);
            match gtp_budgeted(&inst, k) {
                Ok(oracle) => {
                    prop_assert_eq!(engine.deployment(), &oracle);
                    let index = FlowIndex::build(&inst, &HopCount);
                    // Bitwise: both sums run per-flow in arrival order.
                    prop_assert_eq!(
                        engine.exact_objective(),
                        index.bandwidth_of(&inst, &oracle)
                    );
                    prop_assert_eq!(engine.objective(), engine.exact_objective());
                }
                Err(_) => {
                    // Budget cannot cover the active flows: the engine
                    // keeps its previous deployment. Its books must
                    // still balance.
                    prop_assert!(
                        (engine.objective() - engine.exact_objective()).abs() < 1e-9
                    );
                }
            }
        }
    }

    /// With drift sampling on every event, the maintained objective
    /// never exceeds `(1 + drift_eps) ·` the from-scratch solve at any
    /// event where the oracle is solvable — the documented bound.
    #[test]
    fn drift_sampling_enforces_the_documented_bound(
        seed in any::<u64>(),
        n in 4usize..14,
        len in 1usize..32,
        k in 1usize..4,
        eps_pct in 0u32..30,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi_connected(n, 0.3, &mut rng);
        let lambda = 0.5;
        let eps = eps_pct as f64 / 100.0;
        let policy = RepairPolicy {
            move_budget: 2,
            drift_eps: eps,
            sample_every: 1,
            ..RepairPolicy::default()
        };
        let mut engine = OnlineEngine::new(
            g.clone(), lambda, k, HopCount, policy,
        ).unwrap();
        for ev in random_events(&g, seed ^ 0x5A, len) {
            engine.apply(&ev).unwrap();
            let inst = snapshot(&engine, &g, lambda, k);
            if let Ok(oracle) = gtp_budgeted(&inst, k) {
                let oracle_obj = engine.evaluate_deployment(&oracle);
                prop_assert!(
                    engine.objective() <= oracle_obj * (1.0 + eps) + 1e-9,
                    "objective {} exceeds (1+{eps}) x oracle {}",
                    engine.objective(),
                    oracle_obj
                );
            }
        }
    }

    /// The incrementally maintained per-flow assignments equal the
    /// static `allocate` of the same deployment on a densified
    /// snapshot — invariant 2 of `DeltaState`, tie-breaks included.
    #[test]
    fn maintained_assignments_match_static_allocate(
        seed in any::<u64>(),
        n in 4usize..14,
        len in 1usize..32,
        k in 1usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi_connected(n, 0.3, &mut rng);
        let lambda = 0.5;
        let mut engine = OnlineEngine::new(
            g.clone(), lambda, k, HopCount, RepairPolicy::local_only(2),
        ).unwrap();
        // Shadow the active key set in arrival order — the same order
        // the snapshot densifies to.
        let mut active: Vec<FlowKey> = Vec::new();
        for ev in random_events(&g, seed ^ 0x3C, len) {
            match &ev {
                Event::FlowArrived { key, .. } => active.push(*key),
                Event::FlowDeparted { key } => active.retain(|k2| k2 != key),
                _ => {} // random_events emits only flow churn
            }
            engine.apply(&ev).unwrap();
            let inst = snapshot(&engine, &g, lambda, k);
            let alloc = allocate(&inst, engine.deployment());
            prop_assert_eq!(alloc.assigned.len(), active.len());
            for (i, key) in active.iter().enumerate() {
                let state = engine.state();
                let maintained = state
                    .assigned(state.flow(*key).expect("shadowed key is active"))
                    .map(|(v, _)| v);
                prop_assert_eq!(
                    maintained, alloc.assigned[i],
                    "flow {} (snapshot id {}) disagrees", key, i
                );
            }
        }
    }

    /// Over a long churn stream the Kahan-compensated running
    /// objective stays within float-ulp relative distance of the
    /// from-scratch exact sum — the accumulated error no longer grows
    /// with stream length. Exercised at both a dyadic λ (where the
    /// sums are exact and the drift must be literally zero) and a
    /// non-dyadic λ that forces the compensation term to do work.
    #[test]
    fn running_objective_does_not_drift_over_long_streams(
        seed in any::<u64>(),
        n in 4usize..12,
        len in 50usize..250,
        dyadic in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi_connected(n, 0.3, &mut rng);
        let lambda = if dyadic { 0.5 } else { 0.3 };
        let mut engine = OnlineEngine::new(
            g.clone(), lambda, 3, HopCount, RepairPolicy::local_only(2),
        ).unwrap();
        for ev in random_events(&g, seed ^ 0xD81F7, len) {
            engine.apply(&ev).unwrap();
        }
        let exact = engine.exact_objective();
        let drift = (engine.objective() - exact).abs();
        prop_assert!(
            drift <= 1e-9 * exact.abs().max(1.0),
            "drift {} vs exact {} after {} events", drift, exact, len
        );
        if dyadic {
            prop_assert_eq!(engine.objective().to_bits(), exact.to_bits());
        }
    }

    /// Departing every flow in any order drains the engine to an
    /// exactly-empty state: zero objective, zero deployment load.
    #[test]
    fn full_drain_reaches_the_empty_state(
        seed in any::<u64>(),
        n in 4usize..12,
        arrivals in 1usize..12,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi_connected(n, 0.3, &mut rng);
        let mut engine = OnlineEngine::new(
            g.clone(), 0.5, 2, HopCount, RepairPolicy::default(),
        ).unwrap();
        let nn = g.node_count() as NodeId;
        for key in 0..arrivals as FlowKey {
            let src = rng.gen_range(0..nn);
            let mut dst = rng.gen_range(0..nn);
            while dst == src { dst = rng.gen_range(0..nn); }
            engine.apply(&Event::FlowArrived {
                key,
                rate: rng.gen_range(1..=10),
                path: shortest_path(&g, src, dst),
            }).unwrap();
        }
        let mut keys: Vec<FlowKey> = (0..arrivals as FlowKey).collect();
        // Depart in a shuffled order.
        for i in (1..keys.len()).rev() {
            keys.swap(i, rng.gen_range(0..=i));
        }
        for key in keys {
            engine.apply(&Event::FlowDeparted { key }).unwrap();
        }
        prop_assert_eq!(engine.active_count(), 0);
        prop_assert_eq!(engine.objective(), 0.0);
        prop_assert_eq!(engine.exact_objective(), 0.0);
    }
}
