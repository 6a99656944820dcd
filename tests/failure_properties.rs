//! Property tests of the failure layer: under any seeded schedule of
//! flow churn, middlebox failures and recoveries,
//!
//! * **safety** — no event ever leaves a flow assigned to a failed
//!   vertex, the deployment never contains a failed vertex, and the
//!   budget is respected; and
//! * **recovery transparency** — once every failed vertex has
//!   recovered, a forced replan lands bitwise on the from-scratch GTP
//!   deployment of the same snapshot (failures leave no residue).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdmd::core::algorithms::gtp::gtp_budgeted;
use tdmd::core::objective::bandwidth_of;
use tdmd::core::HopCount;
use tdmd::graph::generators::random::erdos_renyi_connected;
use tdmd::graph::traversal::bfs_path;
use tdmd::graph::{DiGraph, NodeId};
use tdmd::online::{Event, FlowKey, OnlineEngine, RepairPolicy};
use tdmd::sim::chaos::{run_chaos, ChaosConfig, ChaosMode};
use tdmd::sim::prelude::{DynamicScenario, FlowSpan};
use tdmd::traffic::Flow;

/// Interprets a seeded op tape against the engine's live state,
/// producing only valid events: arrivals use fresh keys and BFS
/// paths, departures name active keys, failures hit non-failed
/// vertices, recoveries failed ones. Inapplicable ops are skipped.
fn random_valid_events(g: &DiGraph, seed: u64, len: usize) -> Vec<Event> {
    let n = g.node_count();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next_key: FlowKey = 0;
    let mut active: Vec<FlowKey> = Vec::new();
    let mut failed: Vec<NodeId> = Vec::new();
    let mut out = Vec::new();
    while out.len() < len {
        match rng.gen_range(0..6u32) {
            // Arrivals twice as likely so streams stay populated.
            0 | 1 => {
                let src = rng.gen_range(0..n) as NodeId;
                let dst = rng.gen_range(0..n) as NodeId;
                if src == dst {
                    continue;
                }
                let Some(path) = bfs_path(g, src, dst) else {
                    continue;
                };
                if path.len() < 2 {
                    continue;
                }
                let key = next_key;
                next_key += 1;
                active.push(key);
                out.push(Event::FlowArrived {
                    key,
                    rate: rng.gen_range(1..=9),
                    path,
                });
            }
            2 => {
                if active.is_empty() {
                    continue;
                }
                let key = active.swap_remove(rng.gen_range(0..active.len()));
                out.push(Event::FlowDeparted { key });
            }
            3 | 4 => {
                let v = rng.gen_range(0..n) as NodeId;
                if failed.contains(&v) {
                    continue;
                }
                failed.push(v);
                out.push(Event::VertexDown { vertex: v });
            }
            _ => {
                if failed.is_empty() {
                    continue;
                }
                let v = failed.swap_remove(rng.gen_range(0..failed.len()));
                out.push(Event::MiddleboxRecovered { vertex: v });
            }
        }
    }
    out
}

/// Safety invariants that must hold after *every* applied event.
fn assert_safe(e: &OnlineEngine<HopCount>, k: usize) {
    assert!(e.deployment().len() <= k, "budget respected");
    for &v in e.deployment().vertices() {
        assert!(!e.is_failed(v), "deployed vertex {v} is failed");
    }
    for f in e.state().active_flows() {
        if let Some((v, _)) = e.state().assigned(f) {
            assert!(
                e.deployment().contains(v),
                "flow {} assigned to undeployed vertex {v}",
                f.key
            );
            assert!(!e.is_failed(v), "flow {} assigned to failed {v}", f.key);
        }
    }
    assert!(
        (e.objective() - e.exact_objective()).abs() < 1e-6,
        "running objective drifted from the exact sum"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Tentpole acceptance property: safety after every event, and
    /// bitwise oracle equivalence after full recovery + forced replan.
    #[test]
    fn failure_schedules_are_safe_and_leave_no_residue(
        seed in any::<u64>(),
        n in 4usize..14,
        len in 1usize..40,
        k in 1usize..4,
        policy_ix in 0usize..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi_connected(n, 0.3, &mut rng);
        let policy = [
            RepairPolicy::default(),
            RepairPolicy::local_only(2),
            RepairPolicy::forced_replan(),
        ][policy_ix];
        let mut engine = OnlineEngine::new(
            g.clone(), 0.5, k, HopCount, policy,
        ).unwrap();
        for ev in random_valid_events(&g, seed ^ 0xFA11, len) {
            engine.apply(&ev).unwrap();
            assert_safe(&engine, k);
        }
        // Recover every failed vertex, re-checking safety per event.
        for v in engine.failed_vertices() {
            engine.apply(&Event::MiddleboxRecovered { vertex: v }).unwrap();
            assert_safe(&engine, k);
        }
        prop_assert_eq!(engine.failed_count(), 0);
        // Recovery transparency: whenever the oracle is solvable, a
        // forced replan now matches the from-scratch GTP solve
        // bitwise. (An infeasible budget makes replan_now a no-op for
        // any engine history, failure-scarred or not.)
        if engine.active_count() > 0 {
            let inst = engine.snapshot_instance().unwrap();
            if let Ok(oracle) = gtp_budgeted(&inst, inst.k()) {
                prop_assert!(engine.replan_now());
                prop_assert_eq!(engine.deployment(), &oracle, "failure residue");
                prop_assert_eq!(
                    engine.exact_objective(),
                    bandwidth_of(&inst, &oracle),
                    "objective residue"
                );
            }
        }
    }

    /// The chaos harness's seeded schedules uphold the same contract
    /// end to end: every failure recovers, the timeline never exceeds
    /// the budget, and the degraded-time integral is consistent with
    /// the per-point census.
    #[test]
    fn chaos_harness_runs_are_consistent(
        seed in any::<u64>(),
        n in 4usize..12,
        n_flows in 1usize..8,
        mtbf_us in 100u64..2_000,
        targeted in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi_connected(n, 0.3, &mut rng);
        let mut spans = Vec::new();
        while spans.len() < n_flows {
            let src = rng.gen_range(0..n) as NodeId;
            let dst = rng.gen_range(0..n) as NodeId;
            if src == dst { continue; }
            let Some(path) = bfs_path(&g, src, dst) else { continue };
            if path.len() < 2 { continue; }
            let start_us = rng.gen_range(0..5_000u64);
            spans.push(FlowSpan {
                start_us,
                end_us: start_us + rng.gen_range(1..5_000u64),
                flow: Flow::new(spans.len() as u32, rng.gen_range(1..=9), path),
            });
        }
        let scn = DynamicScenario { graph: g, lambda: 0.5, k: 2, spans };
        let mode = if targeted {
            ChaosMode::Targeted { period_us: mtbf_us, mttr_us: mtbf_us / 2 + 1 }
        } else {
            ChaosMode::Independent { mtbf_us, mttr_us: mtbf_us / 2 + 1 }
        };
        let report = run_chaos(
            &scn, RepairPolicy::default(), &ChaosConfig { mode, seed },
        ).unwrap();
        prop_assert_eq!(report.failures, report.recoveries);
        prop_assert_eq!(
            report.repair_latency_us.len() as u64, report.failures,
            "one latency sample per failure"
        );
        if let Some(last) = report.points.last() {
            prop_assert_eq!(last.failed_vertices, 0, "ends recovered");
        }
        for p in &report.points {
            prop_assert!(p.middleboxes <= scn.k);
            prop_assert!(p.degraded_flows <= p.active_flows);
            prop_assert!(p.bandwidth >= 0.0);
        }
        if report.points.iter().all(|p| p.degraded_flows == 0) {
            prop_assert_eq!(report.degraded_flow_us, 0);
        }
    }
}
