//! End-to-end properties of the serve loop:
//!
//! * **Restore ≡ never stopping** — run a session over a random
//!   multi-tenant event stream, snapshotting mid-stream; restore a
//!   second session from the (JSON round-tripped) snapshot and replay
//!   the suffix: final deployments, objectives (bitwise) and
//!   per-tenant served/degraded bandwidth are identical.
//! * **NDJSON pipeline** — the same property through the full
//!   reader/writer loop: pipe the whole stream into one session and
//!   the tail into a restored one, compare the `Bye` telemetry.
//! * **Incremental sums ≡ a from-scratch pass** — after every line,
//!   each tenant's served and degraded bandwidth equals a sum over
//!   the engine's active flows, through failures, rejected events,
//!   replans and a mid-stream restore.
//! * **Robustness** — bad lines and engine-rejected events produce
//!   `Rejected` records and never kill the loop.

use std::collections::{BTreeMap, BTreeSet};
use std::io::BufRead;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdmd_core::HopCount;
use tdmd_graph::generators::random::erdos_renyi_connected;
use tdmd_graph::traversal::bfs;
use tdmd_graph::{DiGraph, NodeId};
use tdmd_online::{FlowKey, OnlineEngine, RepairPolicy};
use tdmd_serve::{
    ServeConfig, ServeSession, ServeSnapshot, Telemetry, WireEvent, WireRecord, MAX_LINE_BYTES,
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

/// A random multi-tenant history of arrivals, departures, vertex
/// failures and recoveries, all valid for sequential application.
fn random_wire_events(g: &DiGraph, seed: u64, len: usize) -> Vec<WireEvent> {
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
                out.push(WireEvent::Arrive {
                    key: next_key,
                    rate: rng.gen_range(1..=10),
                    path: shortest_path(g, src, dst),
                    tenant: rng.gen_range(0..3),
                });
                active.push(next_key);
                next_key += 1;
            }
            5..=6 if !active.is_empty() => {
                let i = rng.gen_range(0..active.len());
                out.push(WireEvent::Depart {
                    key: active.swap_remove(i),
                });
            }
            7..=8 if (failed.len() as NodeId) < n => {
                let mut v = rng.gen_range(0..n);
                while failed.contains(&v) {
                    v = rng.gen_range(0..n);
                }
                out.push(WireEvent::Down { vertex: v });
                failed.push(v);
            }
            _ if !failed.is_empty() => {
                let i = rng.gen_range(0..failed.len());
                out.push(WireEvent::Recover {
                    vertex: failed.swap_remove(i),
                });
            }
            _ => {} // nothing valid to do this tick
        }
    }
    out
}

fn policy() -> RepairPolicy {
    RepairPolicy {
        move_budget: 2,
        drift_eps: 0.05,
        sample_every: 3,
        force_replan: false,
        replan_on_degraded: true,
        ..RepairPolicy::default()
    }
}

fn session(g: &DiGraph, k: usize) -> ServeSession<HopCount> {
    let engine =
        OnlineEngine::new(g.clone(), 0.5, k, HopCount, policy()).expect("valid engine parameters");
    ServeSession::new(engine, ServeConfig::default())
}

/// The replayable subset of a telemetry record: everything except the
/// process-lifetime latency percentiles and snapshot counters.
type ReplayFields = (u64, u64, Vec<NodeId>, u64, u64, Vec<(u16, u64, u64)>);

fn replay_fields(t: &Telemetry) -> ReplayFields {
    (
        t.events,
        t.active_flows,
        t.deployment.clone(),
        t.objective.to_bits(),
        t.degraded_flows,
        t.tenants
            .iter()
            .map(|x| (x.tenant, x.served_bw, x.degraded_bw))
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Snapshot mid-stream, restore (through JSON), replay the
    /// suffix: the restored session's final state is bitwise equal to
    /// the session that never stopped.
    #[test]
    fn restored_session_replays_to_the_same_state(
        seed in any::<u64>(),
        n in 4usize..12,
        prefix in 0usize..20,
        suffix in 1usize..20,
        k in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi_connected(n, 0.3, &mut rng);
        let events = random_wire_events(&g, seed ^ 0x5A, prefix + suffix);
        let cut = prefix.min(events.len());

        let mut live = session(&g, k);
        for ev in &events[..cut] {
            live.apply(ev).expect("generated events are valid");
        }
        let snap = live.snapshot();
        // The snapshot must survive the JSON round trip losslessly.
        let json = serde_json::to_string(&snap).expect("snapshots serialize");
        let back: ServeSnapshot = serde_json::from_str(&json).expect("snapshots parse");
        prop_assert_eq!(&back, &snap);

        let mut restored = ServeSession::restore(
            g.clone(),
            HopCount,
            policy(),
            ServeConfig::default(),
            &back,
        )
        .expect("session-produced snapshots restore");

        for ev in &events[cut..] {
            prop_assert_eq!(live.apply(ev), restored.apply(ev));
        }
        let a = live.telemetry();
        let b = restored.telemetry();
        prop_assert_eq!(replay_fields(&a), replay_fields(&b));
        prop_assert_eq!(b.snapshots_taken, 1);
        prop_assert_eq!(b.snapshots_restored, 1);
        live.engine().audit_now().expect("live session passes the audit");
        restored.engine().audit_now().expect("restored session passes the audit");
    }
}

/// A seeded stream of valid and engine-rejected events: arrivals
/// (some with a duplicate key or a zero rate), departures (some of
/// unknown keys), and `Fail`, `Down` and `Recover` at random vertices,
/// which the engine rejects where there is no box, the vertex is
/// already down, or it is not down.
fn noisy_wire_events(g: &DiGraph, seed: u64, len: usize) -> Vec<WireEvent> {
    let n = g.node_count() as NodeId;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut keys: Vec<FlowKey> = Vec::new();
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        let v = rng.gen_range(0..n);
        out.push(match rng.gen_range(0..12) {
            0..=4 => {
                let mut dst = rng.gen_range(0..n);
                while dst == v {
                    dst = rng.gen_range(0..n);
                }
                let key = if !keys.is_empty() && rng.gen_range(0..8) == 0 {
                    keys[rng.gen_range(0..keys.len())]
                } else {
                    keys.push(keys.len() as FlowKey);
                    keys.len() as FlowKey - 1
                };
                WireEvent::Arrive {
                    key,
                    rate: rng.gen_range(0..=20),
                    path: shortest_path(g, v, dst),
                    tenant: rng.gen_range(0..4),
                }
            }
            5..=7 => WireEvent::Depart {
                key: rng.gen_range(0..keys.len() as FlowKey + 2),
            },
            8 => WireEvent::Fail { vertex: v },
            9 => WireEvent::Down { vertex: v },
            _ => WireEvent::Recover { vertex: v },
        });
    }
    out
}

/// Asserts that every tenant's served and degraded bandwidth in the
/// session's telemetry equals a from-scratch sum over the engine's
/// active flows, and that the listed tenants are exactly `known`.
fn assert_sums_match(
    s: &ServeSession<HopCount>,
    owner: &BTreeMap<FlowKey, u16>,
    known: &BTreeSet<u16>,
) {
    let mut expect: BTreeMap<u16, (u128, u128)> = known.iter().map(|&t| (t, (0, 0))).collect();
    let state = s.engine().state();
    for f in state.active_flows() {
        let sums = expect.get_mut(&owner[&f.key]).expect("owners are known");
        if state.assigned(f).is_some() {
            sums.0 += u128::from(f.rate);
        } else {
            sums.1 += u128::from(f.rate);
        }
    }
    let saturate = |x: u128| u64::try_from(x).unwrap_or(u64::MAX);
    let expect: Vec<(u16, u64, u64)> = expect
        .into_iter()
        .map(|(t, (served, degraded))| (t, saturate(served), saturate(degraded)))
        .collect();
    let got: Vec<(u16, u64, u64)> = s
        .telemetry()
        .tenants
        .iter()
        .map(|t| (t.tenant, t.served_bw, t.degraded_bw))
        .collect();
    assert_eq!(got, expect);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The session's per-tenant sums, kept from arrivals, departures
    /// and the engine's flip log, equal a from-scratch pass after
    /// every line — under local repair, the sampled drift oracle and a
    /// forced replan on every event, across a snapshot→restore.
    #[test]
    fn incremental_tenant_sums_equal_a_from_scratch_pass(
        seed in any::<u64>(),
        n in 4usize..12,
        len in 20usize..120,
        k in 1usize..4,
        which in 0usize..3,
    ) {
        let policy = [policy(), RepairPolicy::forced_replan(), RepairPolicy::local_only(2)][which];
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi_connected(n, 0.3, &mut rng);
        let events = noisy_wire_events(&g, seed ^ 0xF1, len);
        let cut = len / 2;
        let engine = OnlineEngine::new(g.clone(), 0.5, k, HopCount, policy)
            .expect("valid engine parameters");
        let mut s = ServeSession::new(engine, ServeConfig::default());
        let mut owner: BTreeMap<FlowKey, u16> = BTreeMap::new();
        let mut known: BTreeSet<u16> = BTreeSet::new();
        let (mut applied, mut rejected) = (0, 0);
        for (i, ev) in events.iter().enumerate() {
            if i == cut {
                let json = serde_json::to_string(&s.snapshot()).expect("snapshots serialize");
                let snap: ServeSnapshot = serde_json::from_str(&json).expect("snapshots parse");
                s = ServeSession::restore(
                    g.clone(),
                    HopCount,
                    policy,
                    ServeConfig::default(),
                    &snap,
                )
                .expect("session-produced snapshots restore");
                assert_sums_match(&s, &owner, &known);
            }
            match (s.apply(ev), ev) {
                (Err(_), _) => rejected += 1,
                (Ok(()), WireEvent::Arrive { key, tenant, .. }) => {
                    owner.insert(*key, *tenant);
                    known.insert(*tenant);
                    applied += 1;
                }
                (Ok(()), WireEvent::Depart { key }) => {
                    owner.remove(key);
                    applied += 1;
                }
                (Ok(()), _) => applied += 1,
            }
            assert_sums_match(&s, &owner, &known);
        }
        prop_assert!(applied > 0 && rejected > 0, "{applied} applied, {rejected} rejected");
        s.engine().audit_now().expect("the session passes the audit");
    }
}

/// Parses every output line back into a [`WireRecord`].
fn parse_output(out: &[u8]) -> Vec<WireRecord> {
    out.lines()
        .map(|l| {
            let l = l.expect("output is valid UTF-8 lines");
            serde_json::from_str(&l).expect("output lines are wire records")
        })
        .collect()
}

fn bye_of(records: &[WireRecord]) -> Telemetry {
    match records.last().expect("loop always emits records") {
        WireRecord::Bye { telemetry } => telemetry.clone(),
        other => panic!("last record must be Bye, got {other:?}"),
    }
}

/// The same restore property through the full NDJSON pipeline: run
/// the whole stream in one session (with a `"Snapshot"` control line
/// mid-stream), pipe the tail into a session restored from that
/// snapshot, and compare the `Bye` telemetry.
#[test]
fn ndjson_pipeline_snapshot_restore_roundtrip() {
    let mut rng = StdRng::seed_from_u64(2020);
    let g = erdos_renyi_connected(10, 0.3, &mut rng);
    let events = random_wire_events(&g, 42, 120);
    let cut = 60;

    let to_line = |ev: &WireEvent| serde_json::to_string(ev).expect("events serialize");
    let mut full = String::new();
    for ev in &events[..cut] {
        full.push_str(&to_line(ev));
        full.push('\n');
    }
    full.push_str("\"Snapshot\"\n");
    let mut tail = String::new();
    for ev in &events[cut..] {
        tail.push_str(&to_line(ev));
        tail.push('\n');
    }
    full.push_str(&tail);

    let mut live = session(&g, 3);
    let mut live_out = Vec::new();
    live.run(full.as_bytes(), &mut live_out)
        .expect("serve loop runs");
    let live_records = parse_output(&live_out);
    assert!(
        live_records
            .iter()
            .any(|r| matches!(r, WireRecord::Snapshot { .. })),
        "the Snapshot control line must be acknowledged"
    );
    // Every generated event is valid, so the snapshot sits exactly
    // at the cut.
    let snap = live.last_snapshot().expect("snapshot was retained").clone();
    assert_eq!(snap.events, cut as u64);

    let mut restored =
        ServeSession::restore(g.clone(), HopCount, policy(), ServeConfig::default(), &snap)
            .expect("pipeline snapshots restore");
    let mut tail_out = Vec::new();
    restored
        .run(tail.as_bytes(), &mut tail_out)
        .expect("tail replay runs");

    let a = bye_of(&live_records);
    let b = bye_of(&parse_output(&tail_out));
    assert_eq!(replay_fields(&a), replay_fields(&b));
    assert_eq!(a.objective.to_bits(), b.objective.to_bits());
    assert_eq!(b.snapshots_restored, 1);
}

/// Bad JSON, unknown variants and engine-rejected events all come
/// back as `Rejected` records and the loop keeps going.
#[test]
fn bad_lines_are_rejected_without_killing_the_loop() {
    let g = DiGraph::from_edges(3, &[(0, 1, 1), (1, 2, 1)]);
    let engine = OnlineEngine::new(g, 0.5, 1, HopCount, RepairPolicy::default())
        .expect("valid engine parameters");
    let mut s = ServeSession::new(engine, ServeConfig::default());
    let too_deep = "[".repeat(1_000_000);
    let too_long = "x".repeat(2 * MAX_LINE_BYTES);
    let lines: [&[u8]; 8] = [
        b"this is not json",
        too_deep.as_bytes(),
        too_long.as_bytes(),
        b"\xff\xfe",
        br#"{"Arrive":{"key":1,"rate":0,"path":[0,1,2]}}"#, // rate 0: engine rejects
        br#"{"Arrive":{"key":1,"rate":4,"path":[0,1,2]}}"#,
        br#"{"Arrive":{"key":1,"rate":4,"path":[0,1,2]}}"#, // duplicate key
        b"\"Shutdown\"\r",
    ];
    let input = lines.join(&b'\n');
    let mut out = Vec::new();
    s.run(input.as_slice(), &mut out).expect("loop survives");
    let records = parse_output(&out);
    let rejected: Vec<u64> = records
        .iter()
        .filter_map(|r| match r {
            WireRecord::Rejected { line, .. } => Some(*line),
            _ => None,
        })
        .collect();
    assert_eq!(rejected, vec![1, 2, 3, 4, 5, 7]);
    assert_eq!(s.events(), 1);
    let bye = bye_of(&records);
    assert_eq!(bye.active_flows, 1);
    assert_eq!(bye.tenants.len(), 1);
    assert_eq!(bye.tenants[0].served_bw, 4);
}

/// The line cap is exact: a line of `MAX_LINE_BYTES` bytes is read,
/// one byte more is rejected. Blank lines count toward line numbers,
/// and a last line without a `\n` is still read.
#[test]
fn line_cap_is_exact_and_line_numbers_are_physical() {
    let g = DiGraph::from_edges(3, &[(0, 1, 1), (1, 2, 1)]);
    let engine = OnlineEngine::new(g, 0.5, 1, HopCount, RepairPolicy::default())
        .expect("valid engine parameters");
    let mut s = ServeSession::new(engine, ServeConfig::default());
    let padded = |key: u64, len: usize| {
        let line = format!(r#"{{"Arrive":{{"key":{key},"rate":4,"path":[0,1,2]}}}}"#);
        format!("{line}{}", " ".repeat(len - line.len()))
    };
    let input = [
        String::new(),
        "\r".to_string(),
        padded(1, MAX_LINE_BYTES),
        padded(2, MAX_LINE_BYTES + 1),
        "{bad".to_string(),
        padded(3, 60),
    ]
    .join("\n");
    let mut out = Vec::new();
    s.run(input.as_bytes(), &mut out).expect("loop survives");
    let records = parse_output(&out);
    let rejected: Vec<u64> = records
        .iter()
        .filter_map(|r| match r {
            WireRecord::Rejected { line, .. } => Some(*line),
            _ => None,
        })
        .collect();
    assert_eq!(rejected, vec![4, 5]);
    assert_eq!(s.events(), 2);
    assert_eq!(bye_of(&records).active_flows, 2);
}

/// A snapshot whose tenant list names a flow that is not active (key
/// 999) restores without it: the next snapshot lists every active flow
/// and nothing else, and the stale entry's tenant never reaches the
/// telemetry.
#[test]
fn restore_drops_tenant_entries_of_inactive_flows() {
    let g = DiGraph::from_edges(3, &[(0, 1, 1), (1, 2, 1)]);
    let mut s = session(&g, 1);
    s.apply(&WireEvent::Arrive {
        key: 1,
        rate: 3,
        path: vec![0, 1, 2],
        tenant: 1,
    })
    .expect("valid arrival");
    let mut snap = s.snapshot();
    snap.tenants.push((999, 2));
    let mut restored = ServeSession::restore(g, HopCount, policy(), ServeConfig::default(), &snap)
        .expect("the engine state is valid");
    assert_eq!(restored.snapshot().tenants, [(1, 1)]);
    let tenants: Vec<u16> = restored
        .telemetry()
        .tenants
        .iter()
        .map(|t| t.tenant)
        .collect();
    assert_eq!(tenants, [1]);
}

/// Two valid flows of one tenant at the largest `u64` rate: the
/// per-tenant sums saturate instead of overflowing, and the loop
/// reaches its `Bye` record.
#[test]
fn tenant_rate_sums_saturate_at_u64_max() {
    let g = DiGraph::from_edges(3, &[(0, 1, 1), (1, 2, 1)]);
    let engine = OnlineEngine::new(g, 0.5, 1, HopCount, RepairPolicy::default())
        .expect("valid engine parameters");
    let mut s = ServeSession::new(engine, ServeConfig::default());
    let input = concat!(
        r#"{"Arrive":{"key":1,"rate":18446744073709551615,"path":[0,1,2]}}"#,
        "\n",
        r#"{"Arrive":{"key":2,"rate":18446744073709551615,"path":[0,1,2]}}"#,
        "\n",
    );
    let mut out = Vec::new();
    s.run(input.as_bytes(), &mut out).expect("loop survives");
    let bye = bye_of(&parse_output(&out));
    assert_eq!(bye.active_flows, 2);
    assert_eq!(bye.tenants.len(), 1);
    assert_eq!(bye.tenants[0].served_bw, u64::MAX);
    assert_eq!(bye.tenants[0].degraded_bw, 0);
}

/// Periodic telemetry and snapshots fire on the configured schedule.
#[test]
fn periodic_telemetry_and_snapshots_fire_on_schedule() {
    let g = DiGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1)]);
    let engine = OnlineEngine::new(g, 0.5, 1, HopCount, RepairPolicy::default())
        .expect("valid engine parameters");
    let mut s = ServeSession::new(
        engine,
        ServeConfig {
            telemetry_every: 2,
            snapshot_every: 3,
            snapshot_path: None,
        },
    );
    let mut input = String::new();
    for key in 0..6u64 {
        input.push_str(&format!(
            r#"{{"Arrive":{{"key":{key},"rate":1,"path":[0,1,2,3],"tenant":{t}}}}}"#,
            t = key % 2,
        ));
        input.push('\n');
    }
    let mut out = Vec::new();
    s.run(input.as_bytes(), &mut out).expect("loop runs");
    let records = parse_output(&out);
    let telemetry_ticks = records
        .iter()
        .filter(|r| matches!(r, WireRecord::Telemetry { .. }))
        .count();
    let snapshot_ticks = records
        .iter()
        .filter(|r| matches!(r, WireRecord::Snapshot { .. }))
        .count();
    assert_eq!(telemetry_ticks, 3); // events 2, 4, 6
    assert_eq!(snapshot_ticks, 2); // events 3, 6
    let bye = bye_of(&records);
    assert_eq!(bye.events, 6);
    assert_eq!(bye.snapshots_taken, 2);
    assert_eq!(bye.tenants.len(), 2);
    // Per-tenant latency percentiles exist once a tenant has events.
    assert!(bye.tenants.iter().all(|t| t.apply_p50_us.is_some()));
}
