//! Seeded hostile-input harness for every document the daemon and the
//! CLI decode: NDJSON wire lines, `ServeSnapshot` documents, and
//! topology / workload documents.
//!
//! Each case takes its seed from the vendored `proptest` runner (so a
//! failure names a reproducible case, as in `tdmd-sim::race` and
//! `chaos`) and mutates valid documents: byte overwrites (often into
//! invalid UTF-8 or stray newlines), truncation, deletion, duplicated
//! spans, inserted JSON tokens, nesting far past the decoder's depth
//! limit, and lines padded past the serve loop's line cap.
//!
//! Invariants:
//! * no input panics or aborts the process;
//! * the serve loop answers every bad line with exactly one `Rejected`
//!   record, on that line's number, and always ends with a `Bye`;
//! * the audit-enabled engine passes the full invariant audit after
//!   every accepted event;
//! * every accepted document survives an encode → decode round trip.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::de::MAX_DEPTH;
use serde::{Deserialize, Serialize};
use tdmd_core::Instance;
use tdmd_graph::generators::random::erdos_renyi_connected;
use tdmd_graph::io::TopologyDoc;
use tdmd_graph::traversal::bfs;
use tdmd_graph::{DiGraph, NodeId};
use tdmd_online::{HopPricer, OnlineEngine, RepairPolicy};
use tdmd_serve::{ServeConfig, ServeSession, ServeSnapshot, WireEvent, WireRecord, MAX_LINE_BYTES};
use tdmd_traffic::Flow;

const NODES: usize = 12;
const K: usize = 3;

fn graph(seed: u64) -> DiGraph {
    erdos_renyi_connected(NODES, 0.3, &mut StdRng::seed_from_u64(seed))
}

fn session(g: &DiGraph) -> ServeSession<HopPricer> {
    let mut engine = OnlineEngine::new(
        g.clone(),
        0.5,
        K,
        HopPricer::default(),
        RepairPolicy::default(),
    )
    .expect("valid engine parameters");
    engine.enable_audit();
    ServeSession::new(engine, ServeConfig::default())
}

/// BFS shortest path `src → dst` (the generator guarantees
/// connectivity).
fn shortest_path(g: &DiGraph, src: NodeId, dst: NodeId) -> Vec<NodeId> {
    let r = bfs(g, src);
    let mut path = vec![dst];
    while *path.last().expect("starts at dst") != src {
        path.push(r.parent[*path.last().expect("non-empty") as usize]);
    }
    path.reverse();
    path
}

/// A valid stream: arrivals, departures of live flows, failures and
/// recoveries, plus the occasional control line.
fn valid_events(g: &DiGraph, rng: &mut StdRng, len: usize) -> Vec<WireEvent> {
    let n = g.node_count() as NodeId;
    let mut live = Vec::new();
    let mut next_key = 0;
    let mut out = Vec::new();
    for _ in 0..len {
        let ev = match rng.gen_range(0..12) {
            0..=5 => {
                let src = rng.gen_range(0..n);
                let dst = (src + rng.gen_range(1..n)) % n;
                live.push(next_key);
                next_key += 1;
                WireEvent::Arrive {
                    key: next_key - 1,
                    rate: rng.gen_range(1..=9),
                    path: shortest_path(g, src, dst),
                    tenant: rng.gen_range(0..3),
                }
            }
            6..=8 if !live.is_empty() => WireEvent::Depart {
                key: live.swap_remove(rng.gen_range(0..live.len())),
            },
            9 => WireEvent::Down {
                vertex: rng.gen_range(0..n),
            },
            10 => WireEvent::Recover {
                vertex: rng.gen_range(0..n),
            },
            _ => WireEvent::Telemetry,
        };
        out.push(ev);
    }
    out
}

const TOKENS: &[&str] = &[
    "[",
    "]",
    "{",
    "}",
    "\"",
    ",",
    ":",
    "null",
    "-",
    "0",
    "1e999",
    "-9223372036854775808",
    "18446744073709551616",
    "\\u",
    "\\ud800",
    "\u{e9}",
    "\t",
    " ",
    "\"Arrive\"",
    "{\"x\":",
];

/// One seeded mutation of `doc`.
fn mutate(doc: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let mut out = doc.to_vec();
    let at = rng.gen_range(0..=out.len());
    match rng.gen_range(0..8) {
        0 if !out.is_empty() => {
            let i = rng.gen_range(0..out.len());
            out[i] = rng.gen_range(0..=255u8);
        }
        1 => out.truncate(at),
        2 => {
            let end = rng.gen_range(at..=out.len().min(at + 8));
            out.drain(at..end);
        }
        3 => {
            let tok = TOKENS[rng.gen_range(0..TOKENS.len())];
            out.splice(at..at, tok.bytes());
        }
        4 => {
            let from = rng.gen_range(0..=out.len());
            let to = rng.gen_range(from..=out.len().min(from + 16));
            let span = out[from..to].to_vec();
            out.splice(at..at, span);
        }
        5 => {
            // Balanced nesting under an unknown key of the innermost
            // map, so that the decoder meets it while skipping: within
            // the limit the document still decodes, past it the depth
            // check fails.
            let depth = [MAX_DEPTH - 3, MAX_DEPTH + 1, 10_000, 1_000_000][rng.gen_range(0..4usize)];
            let at = out.iter().rposition(|&b| b == b'{').map_or(at, |i| i + 1);
            let nest = format!("\"deep\":{}{},", "[".repeat(depth), "]".repeat(depth));
            out.splice(at..at, nest.bytes());
        }
        6 => {
            let depth = [10_000, 1_000_000][rng.gen_range(0..2usize)];
            out.splice(at..at, "[".repeat(depth).bytes());
        }
        _ => {
            let i = rng.gen_range(0..out.len().max(1));
            out.insert(i.min(out.len()), b'\n');
        }
    }
    out
}

/// `encode(decode(encode(v))) == encode(v)`: a float that decoded from
/// `null` is NaN, which `PartialEq` cannot compare, but its encoding
/// can.
fn assert_round_trip<T: Serialize + Deserialize>(value: &T) {
    let text = serde_json::to_string(value).expect("encoding never fails");
    let back: T = serde_json::from_str(&text).expect("an encoded document decodes");
    assert_eq!(serde_json::to_string(&back).expect("encodes"), text);
}

/// What the serve loop must do with one physical line.
enum Verdict {
    Blank,
    Rejected,
    Applied,
    Control,
    Shutdown,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// A stream with mutated and padded lines through `ServeSession::run`,
    /// checked against a line-by-line replay that audits the engine
    /// after every accepted event.
    #[test]
    fn hostile_wire_lines_get_one_rejection_each(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = graph(seed % 8);
        let mut lines: Vec<Vec<u8>> = valid_events(&g, &mut rng, 60)
            .iter()
            .map(|ev| serde_json::to_string(ev).expect("encodes").into_bytes())
            .collect();
        for line in lines.iter_mut() {
            if rng.gen_bool(0.3) {
                *line = mutate(line, &mut rng);
            }
        }
        if rng.gen_bool(0.1) {
            let i = rng.gen_range(0..lines.len());
            lines[i].resize(MAX_LINE_BYTES + 1, b' ');
        }
        let mut stream = lines.join(&b'\n');
        if rng.gen_bool(0.5) {
            stream.push(b'\n');
        }

        // The replay: split as the loop reads, decode, apply, audit.
        let mut reference = session(&g);
        let mut physical: Vec<&[u8]> = stream.split(|&b| b == b'\n').collect();
        if stream.last() == Some(&b'\n') {
            physical.pop();
        }
        let mut want_rejected = Vec::new();
        let mut accepted = 0u64;
        for (idx, line) in physical.iter().enumerate() {
            let verdict = match std::str::from_utf8(line) {
                _ if line.len() > MAX_LINE_BYTES => Verdict::Rejected,
                Err(_) => Verdict::Rejected,
                Ok(text) if text.trim().is_empty() => Verdict::Blank,
                Ok(text) => match serde_json::from_str::<WireEvent>(text.trim()) {
                    Err(_) => Verdict::Rejected,
                    Ok(WireEvent::Shutdown) => Verdict::Shutdown,
                    Ok(WireEvent::Snapshot | WireEvent::Telemetry) => Verdict::Control,
                    Ok(ev) => {
                        assert_round_trip(&ev);
                        if reference.apply(&ev).is_ok() {
                            reference
                                .engine()
                                .audit_now()
                                .expect("the engine passes the audit after every accepted event");
                            Verdict::Applied
                        } else {
                            Verdict::Rejected
                        }
                    }
                },
            };
            match verdict {
                Verdict::Rejected => want_rejected.push(idx as u64 + 1),
                Verdict::Applied => accepted += 1,
                Verdict::Shutdown => break,
                Verdict::Blank | Verdict::Control => {}
            }
        }

        let mut live = session(&g);
        let mut out = Vec::new();
        live.run(stream.as_slice(), &mut out).expect("bad lines never end the loop");
        let records: Vec<WireRecord> = std::str::from_utf8(&out)
            .expect("output is UTF-8")
            .lines()
            .map(|l| serde_json::from_str(l).expect("output lines are wire records"))
            .collect();
        let rejected: Vec<u64> = records
            .iter()
            .filter_map(|r| match r {
                WireRecord::Rejected { line, .. } => Some(*line),
                _ => None,
            })
            .collect();
        prop_assert_eq!(rejected, want_rejected);
        match records.last() {
            Some(WireRecord::Bye { telemetry }) => prop_assert_eq!(telemetry.events, accepted),
            other => panic!("the loop must end with Bye, got {other:?}"),
        }
        prop_assert_eq!(live.engine().deployment(), reference.engine().deployment());
    }

    /// Mutated snapshot documents: decoding and restoring either fails
    /// with an error or succeeds, and what decodes round-trips.
    #[test]
    fn hostile_snapshot_documents_fail_cleanly(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = graph(seed % 8);
        let mut s = session(&g);
        for ev in valid_events(&g, &mut rng, 40) {
            let _ = s.apply(&ev);
        }
        let doc = serde_json::to_string(&s.snapshot()).expect("encodes").into_bytes();
        for _ in 0..8 {
            let hostile = mutate(&doc, &mut rng);
            let Ok(text) = std::str::from_utf8(&hostile) else {
                continue;
            };
            if let Ok(snap) = serde_json::from_str::<ServeSnapshot>(text) {
                assert_round_trip(&snap);
                let policy = RepairPolicy::default();
                let config = ServeConfig::default();
                let _ = ServeSession::restore(g.clone(), HopPricer::default(), policy, config, &snap);
            }
        }
    }

    /// Mutated topology and workload documents: decoding fails with an
    /// error or yields a document that builds a graph and an instance
    /// (or a typed `Instance::new` error), and round-trips.
    #[test]
    fn hostile_topology_and_workload_documents_fail_cleanly(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = graph(seed % 8);
        let topo = TopologyDoc::from_graph(&g, "er").to_json().into_bytes();
        let flows: Vec<Flow> = valid_events(&g, &mut rng, 30)
            .into_iter()
            .filter_map(|ev| match ev {
                WireEvent::Arrive { rate, path, tenant, .. } => Some((rate, path, tenant)),
                _ => None,
            })
            .enumerate()
            .map(|(id, (rate, path, tenant))| Flow::new(id as u32, rate, path).with_tenant(tenant))
            .collect();
        let workload = serde_json::to_string_pretty(&flows).expect("encodes").into_bytes();
        for _ in 0..8 {
            let hostile_topo = mutate(&topo, &mut rng);
            let hostile_flows = mutate(&workload, &mut rng);
            let graph = match std::str::from_utf8(&hostile_topo).map(TopologyDoc::from_json) {
                Ok(Ok(doc)) => {
                    assert_round_trip(&doc);
                    // `to_graph` allocates per declared vertex; a mutated
                    // count may be valid yet huge, so build small ones only.
                    (doc.nodes <= 4 * NODES).then(|| doc.to_graph())
                }
                _ => None,
            };
            let Ok(text) = std::str::from_utf8(&hostile_flows) else {
                continue;
            };
            if let Ok(flows) = serde_json::from_str::<Vec<Flow>>(text) {
                assert_round_trip(&flows);
                let _ = Instance::new(graph.unwrap_or_else(|| g.clone()), flows, 0.5, K);
            }
        }
    }
}
