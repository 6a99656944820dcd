//! Property tests for the engine snapshot/restore contract
//! (`tdmd_online::snapshot`):
//!
//! * **Bitwise restore** — snapshot a live engine mid-stream, restore
//!   it, then drive both engines through the same suffix of churn +
//!   failure events: deployments, objectives (`to_bits`), stats and
//!   failure masks stay identical after *every* event, and the final
//!   snapshots are byte-for-byte equal documents.
//! * **JSON round trip** — a snapshot survives
//!   serialize → deserialize losslessly (floats bitwise), and the
//!   restored-from-JSON engine is as good as the restored-in-memory
//!   one.
//! * **Validation** — corrupt documents (bad version, wrong topology,
//!   duplicate keys, over-budget deployments, deployed-while-failed
//!   vertices, stored gains that break the cost-model contract, an
//!   overflowing total load) are rejected with the right error.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdmd_core::HopCount;
use tdmd_graph::generators::random::erdos_renyi_connected;
use tdmd_graph::traversal::bfs;
use tdmd_graph::{DiGraph, NodeId};
use tdmd_obs::NoopRecorder;
use tdmd_online::{
    EngineSnapshot, Event, FlowKey, OnlineEngine, ReconfigBudget, RepairPolicy, SnapshotError,
    SNAPSHOT_VERSION,
};

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

/// A random history of arrivals, departures, vertex failures and
/// recoveries, all valid for sequential application.
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
            7..=8 if (failed.len() as NodeId) < n => {
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
            _ => {} // nothing valid to do this tick
        }
    }
    out
}

/// A drift-sampling policy with a short enough period that the
/// suffix replay crosses sampling boundaries — `stats.events` is
/// carried through the snapshot, so the restored engine must resume
/// the schedule in phase with the live one.
fn sampling_policy() -> RepairPolicy {
    RepairPolicy {
        move_budget: 2,
        drift_eps: 0.05,
        sample_every: 3,
        force_replan: false,
        replan_on_degraded: true,
        ..RepairPolicy::default()
    }
}

fn restore(g: &DiGraph, snap: &EngineSnapshot) -> OnlineEngine<HopCount> {
    OnlineEngine::restore(g.clone(), HopCount, sampling_policy(), NoopRecorder, snap)
        .expect("engine-produced snapshots restore")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Snapshot mid-stream, restore, replay the suffix on both: the
    /// engines stay bitwise interchangeable event by event, and their
    /// final snapshots are identical documents.
    #[test]
    fn restore_is_bitwise_equal_to_the_continuing_engine(
        seed in any::<u64>(),
        n in 4usize..14,
        prefix in 0usize..24,
        suffix in 1usize..24,
        k in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi_connected(n, 0.3, &mut rng);
        let mut live = OnlineEngine::new(
            g.clone(), 0.5, k, HopCount, sampling_policy(),
        ).unwrap();
        let events = random_events(&g, seed ^ 0xC3, prefix + suffix);
        for ev in &events[..prefix.min(events.len())] {
            live.apply(ev).unwrap();
        }
        let snap = live.snapshot();
        let mut restored = restore(&g, &snap);
        // Both sides start bitwise aligned...
        prop_assert_eq!(live.deployment(), restored.deployment());
        prop_assert_eq!(
            live.exact_objective().to_bits(),
            restored.exact_objective().to_bits()
        );
        // ...and stay aligned through the whole suffix.
        for ev in &events[prefix.min(events.len())..] {
            prop_assert_eq!(live.apply(ev), restored.apply(ev));
            prop_assert_eq!(live.deployment(), restored.deployment());
            prop_assert_eq!(
                live.objective().to_bits(),
                restored.objective().to_bits()
            );
            prop_assert_eq!(
                live.exact_objective().to_bits(),
                restored.exact_objective().to_bits()
            );
            prop_assert_eq!(live.stats(), restored.stats());
            prop_assert_eq!(live.failed_vertices(), restored.failed_vertices());
            prop_assert_eq!(live.degraded_count(), restored.degraded_count());
        }
        restored.audit_now().expect("restored engine passes the full audit");
        prop_assert_eq!(live.snapshot(), restored.snapshot());
    }

    /// A snapshot survives the JSON round trip losslessly (floats
    /// bitwise — `PartialEq` on `f64` fields is exact here because
    /// every serialized float is finite).
    #[test]
    fn snapshot_round_trips_through_json(
        seed in any::<u64>(),
        n in 4usize..12,
        len in 0usize..20,
        k in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi_connected(n, 0.3, &mut rng);
        let mut live = OnlineEngine::new(
            g.clone(), 0.5, k, HopCount, sampling_policy(),
        ).unwrap();
        for ev in random_events(&g, seed ^ 0x7E, len) {
            live.apply(&ev).unwrap();
        }
        let snap = live.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: EngineSnapshot = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, &snap);
        let restored = restore(&g, &back);
        prop_assert_eq!(live.deployment(), restored.deployment());
        prop_assert_eq!(
            live.exact_objective().to_bits(),
            restored.exact_objective().to_bits()
        );
    }
}

/// A budgeted variant of [`sampling_policy`], used to check the
/// budget state rides through snapshot/restore bitwise.
fn budgeted_policy() -> RepairPolicy {
    RepairPolicy {
        budget: ReconfigBudget::windowed(3.0, 8).with_hysteresis(0.1),
        ..sampling_policy()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The migration-budget token level survives snapshot → restore:
    /// both engines spend, defer and refill identically through the
    /// suffix, and their stats (including `budget_spent` /
    /// `budget_deferrals`) stay bitwise equal.
    #[test]
    fn budget_state_round_trips_through_snapshots(
        seed in any::<u64>(),
        n in 4usize..14,
        prefix in 0usize..24,
        suffix in 1usize..24,
        k in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi_connected(n, 0.3, &mut rng);
        let mut live = OnlineEngine::new(
            g.clone(), 0.5, k, HopCount, budgeted_policy(),
        ).unwrap();
        let events = random_events(&g, seed ^ 0xBD, prefix + suffix);
        for ev in &events[..prefix.min(events.len())] {
            live.apply(ev).unwrap();
        }
        let snap = live.snapshot();
        prop_assert!(
            snap.budget_tokens.is_finite(),
            "finite-budget snapshots persist a finite token level"
        );
        let mut restored = OnlineEngine::restore(
            g.clone(),
            HopCount,
            budgeted_policy(),
            NoopRecorder,
            &snap,
        ).expect("engine-produced snapshots restore");
        prop_assert_eq!(
            live.budget_tokens().to_bits(),
            restored.budget_tokens().to_bits()
        );
        for ev in &events[prefix.min(events.len())..] {
            prop_assert_eq!(live.apply(ev), restored.apply(ev));
            prop_assert_eq!(live.deployment(), restored.deployment());
            prop_assert_eq!(
                live.budget_tokens().to_bits(),
                restored.budget_tokens().to_bits()
            );
            prop_assert_eq!(live.stats(), restored.stats());
        }
        prop_assert_eq!(live.snapshot(), restored.snapshot());
    }
}

/// A tiny deterministic snapshot to corrupt in the validation tests.
fn small_snapshot() -> (DiGraph, EngineSnapshot) {
    let mut rng = StdRng::seed_from_u64(7);
    let g = erdos_renyi_connected(6, 0.4, &mut rng);
    let mut e = OnlineEngine::new(g.clone(), 0.5, 2, HopCount, RepairPolicy::default()).unwrap();
    for ev in random_events(&g, 7, 12) {
        e.apply(&ev).unwrap();
    }
    (g, e.snapshot())
}

#[test]
fn unsupported_versions_are_rejected() {
    let (g, mut snap) = small_snapshot();
    snap.version = SNAPSHOT_VERSION + 1;
    let err = OnlineEngine::restore(g, HopCount, RepairPolicy::default(), NoopRecorder, &snap)
        .err()
        .expect("restore must fail");
    assert_eq!(
        err,
        SnapshotError::UnsupportedVersion {
            found: SNAPSHOT_VERSION + 1
        }
    );
}

#[test]
fn pre_budget_v1_documents_are_rejected_not_silently_upgraded() {
    // A v1 document parses (the budget field is `#[serde(default)]`)
    // but must be refused at restore: silently defaulting the token
    // level would break the bitwise-restore contract for budgeted
    // engines, so `tdmd-serve` never resumes from a pre-budget
    // snapshot without an explicit re-snapshot.
    let (g, snap) = small_snapshot();
    let json = serde_json::to_string(&snap).unwrap();
    assert!(json.contains("\"version\":2"), "{json}");
    let json = json.replacen("\"version\":2", "\"version\":1", 1);
    // Drop the budget field textually, mimicking a document written
    // before the field existed.
    let field = ",\"budget_tokens\":";
    let start = json.find(field).expect("field serialized");
    let value_len = json[start + field.len()..]
        .find([',', '}'])
        .expect("well-formed JSON");
    let json = format!(
        "{}{}",
        &json[..start],
        &json[start + field.len() + value_len..]
    );
    let v1: EngineSnapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(v1.version, 1);
    assert_eq!(v1.budget_tokens, 0.0, "the serde default fills the gap");
    let err = OnlineEngine::restore(g, HopCount, RepairPolicy::default(), NoopRecorder, &v1)
        .err()
        .expect("restore must fail");
    assert_eq!(err, SnapshotError::UnsupportedVersion { found: 1 });
}

#[test]
fn non_finite_budget_state_is_rejected() {
    let (g, mut snap) = small_snapshot();
    snap.budget_tokens = f64::NAN;
    let err = OnlineEngine::restore(g, HopCount, RepairPolicy::default(), NoopRecorder, &snap)
        .err()
        .expect("restore must fail");
    assert!(matches!(err, SnapshotError::BadBudgetState(_)));
}

#[test]
fn topology_mismatches_are_rejected() {
    let (_, snap) = small_snapshot();
    let other = DiGraph::from_edges(3, &[(0, 1, 1), (1, 2, 1)]);
    let err = OnlineEngine::restore(
        other,
        HopCount,
        RepairPolicy::default(),
        NoopRecorder,
        &snap,
    )
    .err()
    .expect("restore must fail");
    assert_eq!(
        err,
        SnapshotError::TopologyMismatch {
            expected: snap.node_count,
            found: 3
        }
    );
}

#[test]
fn structurally_corrupt_documents_are_rejected() {
    let (g, snap) = small_snapshot();
    let restore_err = |s: &EngineSnapshot| {
        OnlineEngine::restore(
            g.clone(),
            HopCount,
            RepairPolicy::default(),
            NoopRecorder,
            s,
        )
        .err()
        .expect("restore must fail")
    };

    let mut dup = snap.clone();
    if dup.flows.len() >= 2 {
        let first = dup.flows[0].clone();
        let last = dup.flows.len() - 1;
        dup.flows[last] = first;
        assert_eq!(
            restore_err(&dup),
            SnapshotError::DuplicateKey {
                key: snap.flows[0].key
            }
        );
    }

    let mut over = snap.clone();
    over.k = 0;
    if !over.deployment.is_empty() {
        assert_eq!(
            restore_err(&over),
            SnapshotError::OverBudget {
                deployed: over.deployment.len() as u64,
                k: 0
            }
        );
    }

    let mut clash = snap.clone();
    if let Some(&v) = clash.deployment.first() {
        clash.failed.push(v);
        assert_eq!(
            restore_err(&clash),
            SnapshotError::DeployedWhileFailed { vertex: v }
        );
    }

    let mut oob = snap.clone();
    oob.failed.push(99);
    assert_eq!(restore_err(&oob), SnapshotError::BadVertex { vertex: 99 });

    let mut gains = snap.clone();
    if let Some(f) = gains.flows.first_mut() {
        let key = f.key;
        f.gains.pop();
        assert_eq!(restore_err(&gains), SnapshotError::InvalidFlow { key });
    }

    // Stored gains must obey the cost-model contract: none negative,
    // none rising along the path, none above the flow's cost.
    if let Some(f) = snap.flows.first() {
        let (key, m, cost) = (f.key, f.path.len(), f.cost);
        let ending = |body: f64, last: f64| {
            let mut gains = vec![body; m - 1];
            gains.push(last);
            gains
        };
        for (gains, cost) in [
            (ending(1e308, 0.0), 1.0),
            (ending(-7.0, 0.0), cost),
            (ending(0.0, -1.0), cost),
            (ending(0.0, cost), cost),
            ((0..m).map(|i| 4.5 * i as f64).collect(), cost),
        ] {
            let mut bad = snap.clone();
            bad.flows[0].gains = gains;
            bad.flows[0].cost = cost;
            assert_eq!(restore_err(&bad), SnapshotError::InvalidFlow { key });
        }
    }

    // Each flow alone obeys the contract, but Σ rate·cost overflows at
    // the second one.
    if snap.flows.len() >= 2 {
        let mut huge = snap.clone();
        for f in &mut huge.flows[..2] {
            f.rate = 1;
            f.gains = vec![1e308; f.path.len() - 1];
            f.gains.push(0.0);
            f.cost = 1e308;
        }
        assert_eq!(
            restore_err(&huge),
            SnapshotError::InvalidFlow {
                key: snap.flows[1].key
            }
        );
    }

    let mut lambda = snap.clone();
    lambda.lambda = 1.5;
    assert_eq!(restore_err(&lambda), SnapshotError::BadLambda(1.5));
}
