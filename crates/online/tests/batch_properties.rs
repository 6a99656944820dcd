//! Property tests pinning `apply_batch` to the one-by-one event path:
//!
//! * under a forced-replan policy, applying a mixed
//!   arrival/departure/failure/recovery stream in **any** partition of
//!   batches ends bitwise-identical (deployment, maintained and exact
//!   objectives, active count) to applying it event by event — the
//!   batch boundary is an amortization knob, never a semantic one.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdmd_core::HopCount;
use tdmd_graph::generators::random::erdos_renyi_connected;
use tdmd_graph::traversal::bfs;
use tdmd_graph::{DiGraph, NodeId};
use tdmd_online::{Event, FlowKey, OnlineEngine, RepairPolicy};

/// BFS shortest path `src → dst` (the generator guarantees
/// connectivity).
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

/// A random mixed churn history: arrivals, departures of still-active
/// flows, and vertex failures/recoveries — with at most one vertex
/// failed at a time, so every (≥ 2-vertex) path keeps a live
/// middlebox candidate and a budget of `n` keeps the oracle feasible
/// at every prefix.
fn mixed_events(g: &DiGraph, seed: u64, len: usize) -> Vec<Event> {
    let n = g.node_count() as NodeId;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut active: Vec<FlowKey> = Vec::new();
    let mut failed: Option<NodeId> = None;
    let mut next_key: FlowKey = 0;
    let mut out = Vec::new();
    for _ in 0..len {
        let roll = rng.gen_range(0..8);
        match roll {
            0..=3 => {
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
            4..=5 if !active.is_empty() => {
                let i = rng.gen_range(0..active.len());
                out.push(Event::FlowDeparted {
                    key: active.swap_remove(i),
                });
            }
            6 if failed.is_none() => {
                let v = rng.gen_range(0..n);
                failed = Some(v);
                out.push(Event::VertexDown { vertex: v });
            }
            7 => {
                if let Some(v) = failed.take() {
                    out.push(Event::MiddleboxRecovered { vertex: v });
                }
            }
            _ => {} // departure with nothing active / failure while failed
        }
    }
    out
}

/// Splits `events` into a random partition of non-empty batches drawn
/// from `seed` (batch lengths 1..=5).
fn random_partition(events: &[Event], seed: u64) -> Vec<&[Event]> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut rest = events;
    while !rest.is_empty() {
        let take = rng.gen_range(1..=5usize).min(rest.len());
        let (head, tail) = rest.split_at(take);
        out.push(head);
        rest = tail;
    }
    out
}

fn engine(g: &DiGraph, k: usize, policy: RepairPolicy) -> OnlineEngine<HopCount> {
    OnlineEngine::new(g.clone(), 0.5, k, HopCount, policy).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `apply_batch` over any partition of a mixed event stream is
    /// bitwise-equal to the sequential `apply` of the same stream
    /// under a forced-replan policy: every repair ends by adopting
    /// the oracle of the current flow set, a pure function of state
    /// that both paths reach identically at each batch boundary.
    #[test]
    fn any_partition_matches_sequential_apply(
        seed in any::<u64>(),
        part_seed in any::<u64>(),
        n in 4usize..12,
        len in 1usize..40,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi_connected(n, 0.3, &mut rng);
        let events = mixed_events(&g, seed ^ 0xBA7C, len);
        // Budget n: with at most one failed vertex and simple paths of
        // ≥ 2 vertices, the oracle stays feasible at every prefix.
        let k = n;
        let mut seq = engine(&g, k, RepairPolicy::forced_replan());
        for ev in &events {
            seq.apply(ev).unwrap();
        }
        let mut batched = engine(&g, k, RepairPolicy::forced_replan());
        for chunk in random_partition(&events, part_seed) {
            batched.apply_batch(chunk).unwrap();
        }
        prop_assert_eq!(seq.deployment(), batched.deployment());
        prop_assert_eq!(seq.active_count(), batched.active_count());
        prop_assert_eq!(
            seq.exact_objective().to_bits(),
            batched.exact_objective().to_bits()
        );
        prop_assert_eq!(
            seq.objective().to_bits(),
            batched.objective().to_bits()
        );
    }
}
