//! Property tests for the bounded-reconfiguration budget
//! (`tdmd_online::budget`):
//!
//! * **Transparency** — a budget that never binds (zero costs, or a
//!   refill large enough to cover any single event's migration
//!   demand) leaves the engine *bitwise* identical to the unbudgeted
//!   default, event by event.
//! * **Constant factor** — with a sufficient budget the engine
//!   inherits the documented `1 + drift_eps` bound against the
//!   from-scratch oracle at every sampled event (the
//!   factor-of-unconstrained argument of DESIGN.md §15).
//! * **Graceful degradation** — under an arbitrarily tight budget the
//!   engine only exceeds that bound after explicitly recording a
//!   deferral; it never silently drifts.
//! * **Amortized spend** — total migration cost charged never exceeds
//!   `burst + events × refill` plus the post-hoc flow debit, for any
//!   cost configuration.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdmd_core::algorithms::gtp::gtp_budgeted;
use tdmd_core::{HopCount, Instance};
use tdmd_graph::generators::random::erdos_renyi_connected;
use tdmd_graph::traversal::bfs;
use tdmd_graph::{DiGraph, NodeId};
use tdmd_online::{Event, FlowKey, OnlineEngine, ReconfigBudget, RepairPolicy};

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

/// A random churn + failure history, valid for sequential application.
fn random_events(g: &DiGraph, seed: u64, len: usize) -> Vec<Event> {
    let n = g.node_count() as NodeId;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut active: Vec<FlowKey> = Vec::new();
    let mut failed: Vec<NodeId> = Vec::new();
    let mut next_key: FlowKey = 0;
    let mut out = Vec::new();
    for _ in 0..len {
        match rng.gen_range(0..10) {
            0..=4 => {
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
            5..=6 if !active.is_empty() => {
                let i = rng.gen_range(0..active.len());
                out.push(Event::FlowDeparted {
                    key: active.swap_remove(i),
                });
            }
            7..=8 if (failed.len() as NodeId) + 1 < n => {
                let mut v = rng.gen_range(0..n);
                while failed.contains(&v) {
                    v = rng.gen_range(0..n);
                }
                out.push(Event::VertexDown { vertex: v });
                failed.push(v);
            }
            _ if !failed.is_empty() => {
                let i = rng.gen_range(0..failed.len());
                out.push(Event::MiddleboxRecovered {
                    vertex: failed.swap_remove(i),
                });
            }
            _ => {}
        }
    }
    out
}

/// Churn-only history (no failures): the drift-bound properties
/// compare against a from-scratch oracle that knows nothing about
/// failed vertices, so failure events would break the bound for
/// reasons unrelated to the budget.
fn random_churn_events(g: &DiGraph, seed: u64, len: usize) -> Vec<Event> {
    let n = g.node_count() as NodeId;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut active: Vec<FlowKey> = Vec::new();
    let mut next_key: FlowKey = 0;
    let mut out = Vec::new();
    for _ in 0..len {
        if !active.is_empty() && rng.gen_range(0..10) < 4 {
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

/// Asserts two engines are bitwise interchangeable right now.
fn assert_bitwise(a: &OnlineEngine<HopCount>, b: &OnlineEngine<HopCount>) {
    assert_eq!(a.deployment(), b.deployment());
    assert_eq!(a.objective().to_bits(), b.objective().to_bits());
    assert_eq!(a.exact_objective().to_bits(), b.exact_objective().to_bits());
    assert_eq!(a.failed_vertices(), b.failed_vertices());
    assert_eq!(a.degraded_count(), b.degraded_count());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A zero-cost finite bucket and a refill that covers any single
    /// event's migration demand are both *transparent*: the budgeted
    /// engine tracks the unbudgeted default bitwise, event by event
    /// (and the zero-cost run never spends a token).
    #[test]
    fn non_binding_budgets_are_bitwise_transparent(
        seed in any::<u64>(),
        n in 4usize..14,
        len in 1usize..28,
        k in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi_connected(n, 0.3, &mut rng);
        let base = RepairPolicy::default();
        // Zero per-move cost: admission always passes, nothing is
        // ever debited.
        let zero_cost = RepairPolicy {
            budget: ReconfigBudget {
                box_move_cost: 0.0,
                flow_reassign_cost: 0.0,
                refill_per_event: 0.25,
                burst: 2.0,
                hysteresis: 0.0,
            },
            ..RepairPolicy::default()
        };
        // Generous refill: any one event's worth of adds + swaps +
        // replan costs at most O(k + move_budget) boxes, far below
        // this refill, so no move is ever deferred.
        let generous = RepairPolicy {
            budget: ReconfigBudget {
                box_move_cost: 1.0,
                flow_reassign_cost: 0.0,
                refill_per_event: 64.0 * (k as f64 + 1.0),
                burst: 64.0 * (k as f64 + 1.0),
                hysteresis: 0.0,
            },
            ..RepairPolicy::default()
        };
        let mut unbudgeted =
            OnlineEngine::new(g.clone(), 0.5, k, HopCount, base).unwrap();
        let mut free =
            OnlineEngine::new(g.clone(), 0.5, k, HopCount, zero_cost).unwrap();
        let mut rich =
            OnlineEngine::new(g.clone(), 0.5, k, HopCount, generous).unwrap();
        for ev in random_events(&g, seed ^ 0xB1, len) {
            prop_assert_eq!(unbudgeted.apply(&ev), free.apply(&ev));
            assert_bitwise(&unbudgeted, &free);
            rich.apply(&ev).unwrap();
            assert_bitwise(&unbudgeted, &rich);
        }
        prop_assert_eq!(free.stats().budget_spent.to_bits(), 0.0f64.to_bits());
        prop_assert_eq!(free.stats().budget_deferrals, 0);
        prop_assert_eq!(rich.stats().budget_deferrals, 0);
        // The transparent runs still account their moves.
        prop_assert_eq!(free.stats().boxes_moved, unbudgeted.stats().boxes_moved);
        prop_assert_eq!(rich.stats().boxes_moved, unbudgeted.stats().boxes_moved);
    }

    /// With drift sampling on every event and a budget large enough to
    /// cover each event's migration demand, the budgeted engine
    /// inherits the unbudgeted `1 + drift_eps` bound against the
    /// from-scratch oracle — the constant-factor-of-unconstrained
    /// guarantee.
    #[test]
    fn sufficient_budget_inherits_the_drift_bound(
        seed in any::<u64>(),
        n in 4usize..14,
        len in 1usize..28,
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
            budget: ReconfigBudget {
                box_move_cost: 1.0,
                flow_reassign_cost: 0.0,
                // One event spends at most k adds + 2·move_budget
                // swap boxes + a 2k-box replan; 16(k+1) covers it.
                refill_per_event: 16.0 * (k as f64 + 1.0),
                burst: 16.0 * (k as f64 + 1.0),
                hysteresis: 0.0,
            },
            ..RepairPolicy::default()
        };
        let mut engine = OnlineEngine::new(
            g.clone(), lambda, k, HopCount, policy,
        ).unwrap();
        for ev in random_churn_events(&g, seed ^ 0x5A, len) {
            engine.apply(&ev).unwrap();
            let inst = Instance::new(
                g.clone(), engine.state().active_snapshot(), lambda, k,
            ).expect("engine-accepted flows form a valid instance");
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
        prop_assert_eq!(engine.stats().budget_deferrals, 0);
    }

    /// Under an arbitrarily tight budget the engine degrades
    /// *gracefully*: at any sampled event it either still meets the
    /// `1 + drift_eps` bound or has explicitly recorded a budget
    /// deferral — it never silently exceeds the bound.
    #[test]
    fn tight_budget_meets_the_bound_or_records_a_deferral(
        seed in any::<u64>(),
        n in 4usize..14,
        len in 1usize..28,
        k in 1usize..4,
        tokens_tenths in 1u32..20,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi_connected(n, 0.3, &mut rng);
        let lambda = 0.5;
        let eps = 0.05;
        let policy = RepairPolicy {
            move_budget: 2,
            drift_eps: eps,
            sample_every: 1,
            budget: ReconfigBudget::windowed(tokens_tenths as f64 / 10.0, 8),
            ..RepairPolicy::default()
        };
        let mut engine = OnlineEngine::new(
            g.clone(), lambda, k, HopCount, policy,
        ).unwrap();
        for ev in random_churn_events(&g, seed ^ 0x71, len) {
            engine.apply(&ev).unwrap();
            if engine.stats().budget_deferrals > 0 {
                // The budget has bound at least once: the engine is
                // allowed to lag the oracle from here on.
                continue;
            }
            let inst = Instance::new(
                g.clone(), engine.state().active_snapshot(), lambda, k,
            ).expect("engine-accepted flows form a valid instance");
            if let Ok(oracle) = gtp_budgeted(&inst, k) {
                let oracle_obj = engine.evaluate_deployment(&oracle);
                prop_assert!(
                    engine.objective() <= oracle_obj * (1.0 + eps) + 1e-9,
                    "no deferral recorded, yet objective {} exceeds \
                     (1+{eps}) x oracle {}",
                    engine.objective(),
                    oracle_obj
                );
            }
        }
    }

    /// Total migration cost charged never exceeds the bucket's
    /// amortized schedule: `burst + events × refill`, plus the
    /// post-hoc flow debit (bounded by the total reassignment cost).
    /// Tokens never exceed the burst capacity.
    #[test]
    fn spend_respects_the_amortized_schedule(
        seed in any::<u64>(),
        n in 4usize..14,
        len in 1usize..40,
        k in 1usize..4,
        refill_tenths in 0u32..30,
        burst_tenths in 1u32..50,
        flow_cost_hundredths in 0u32..20,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi_connected(n, 0.3, &mut rng);
        let budget = ReconfigBudget {
            box_move_cost: 1.0,
            flow_reassign_cost: flow_cost_hundredths as f64 / 100.0,
            refill_per_event: refill_tenths as f64 / 10.0,
            burst: burst_tenths as f64 / 10.0,
            hysteresis: 0.0,
        };
        let policy = RepairPolicy { budget, ..RepairPolicy::default() };
        let mut engine = OnlineEngine::new(
            g.clone(), 0.5, k, HopCount, policy,
        ).unwrap();
        let events = random_events(&g, seed ^ 0x9D, len);
        for ev in &events {
            engine.apply(ev).unwrap();
            prop_assert!(engine.budget_tokens() <= budget.burst + 1e-9);
        }
        let stats = engine.stats();
        let cap = budget.burst
            + budget.refill_per_event * events.len() as f64
            + budget.flow_reassign_cost * stats.flows_reassigned as f64;
        prop_assert!(
            stats.budget_spent <= cap + 1e-6,
            "spent {} exceeds amortized cap {}",
            stats.budget_spent,
            cap
        );
        prop_assert!(stats.budget_spent >= 0.0);
        engine.audit_now().expect("budgeted engine passes the full audit");
    }
}
