//! `tdmd serve` — the long-running placement service front end.
//!
//! `serve gen` lowers a multi-tenant gravity workload to an NDJSON
//! event file (the [`tdmd_serve::WireEvent`] wire format); `serve run`
//! drives a [`tdmd_serve::ServeSession`] from such a file (or stdin)
//! and writes placement decisions, telemetry and snapshot notices as
//! NDJSON (to a file or stdout). A session can be started from a
//! previous run's state snapshot with `--restore-from`; replaying the
//! remaining events then reproduces the uninterrupted run bitwise
//! (see `tdmd-serve`'s property tests).

use crate::args::Args;
use crate::commands::load_topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdmd_core::HopCount;
use tdmd_graph::NodeId;
use tdmd_online::{events_from_spans, Event, FlowSpan, RepairPolicy};
use tdmd_serve::{ServeConfig, ServeSession, ServeSnapshot, WireEvent};
use tdmd_traffic::{gravity_workload, GravityConfig, TenantProfile};

/// Builds the tenant profile set for `serve gen`: tenant 0 is a
/// premium class (larger share, bursty rate, higher weight), the last
/// is best-effort, classes in between interpolate linearly.
fn tenant_profiles(count: usize) -> Vec<TenantProfile> {
    assert!(count > 0, "need at least one tenant");
    if count == 1 {
        return TenantProfile::uniform(1);
    }
    let share = 1.0 / count as f64;
    (0..count)
        .map(|t| {
            // 1.0 for tenant 0 down to 0.0 for the last.
            let rank = 1.0 - t as f64 / (count - 1) as f64;
            TenantProfile {
                share,
                rate_scale: 0.5 + rank,   // 1.5 premium … 0.5 best-effort
                weight: 0.5 + 1.5 * rank, // 2.0 premium … 0.5 best-effort
            }
        })
        .collect()
}

/// Lowers timed span churn to NDJSON wire-event lines, tagging each
/// arrival with its span's tenant (`events_from_spans` keys flows by
/// span index, so the tenant lookup is direct).
pub fn wire_lines(spans: &[FlowSpan]) -> Result<Vec<String>, String> {
    events_from_spans(spans)
        .into_iter()
        .map(|te| {
            let ev = match te.event {
                Event::FlowArrived { key, rate, path } => WireEvent::Arrive {
                    key,
                    rate,
                    path,
                    tenant: spans[key as usize].flow.tenant,
                },
                Event::FlowDeparted { key } => WireEvent::Depart { key },
                Event::MiddleboxFailed { vertex } => WireEvent::Fail { vertex },
                Event::VertexDown { vertex } => WireEvent::Down { vertex },
                Event::MiddleboxRecovered { vertex } => WireEvent::Recover { vertex },
            };
            serde_json::to_string(&ev).map_err(|e| e.to_string())
        })
        .collect()
}

/// Generates the seeded multi-tenant event stream `serve gen` and
/// `tdmd bench` share: a gravity workload over all vertices with
/// `tenants` traffic classes, each flow living a random span inside
/// `[0, duration)`.
pub fn generate_events(
    g: &tdmd_graph::DiGraph,
    tenants: usize,
    total_rate: u64,
    max_flows: usize,
    duration: u64,
    mean_hold: u64,
    seed: u64,
) -> Result<Vec<String>, String> {
    if duration == 0 {
        return Err("--duration must be positive".to_string());
    }
    let cfg = GravityConfig {
        total_rate,
        tenants: tenant_profiles(tenants),
        population_range: (1 << 15, 1 << 18),
        max_flows,
    };
    let all: Vec<NodeId> = (0..g.node_count() as NodeId).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let flows = gravity_workload(g, &all, &all, &cfg, &mut rng);
    if flows.is_empty() {
        return Err("gravity workload is empty (raise --total-rate)".to_string());
    }
    let mean_hold = mean_hold.max(1);
    let spans: Vec<FlowSpan> = flows
        .into_iter()
        .map(|flow| {
            let start_us = rng.gen_range(0..duration);
            let u = (rng.gen_range(1..=1000) as f64) / 1000.0;
            let hold = ((-u.ln()) * mean_hold as f64).ceil() as u64;
            FlowSpan {
                start_us,
                end_us: start_us + hold.max(1),
                flow,
            }
        })
        .collect();
    wire_lines(&spans)
}

/// `tdmd serve gen --topo t.json --out events.ndjson [--tenants N]
/// [--total-rate R] [--max-flows M] [--duration D] [--mean-hold H]
/// [--seed S]`
///
/// Writes one NDJSON [`WireEvent`] per line: every flow of a
/// multi-tenant gravity workload arrives at a uniform-random time in
/// `[0, D)` and departs after a geometric-flavoured hold around `H`.
pub fn generate(args: &Args) -> Result<String, String> {
    let g = load_topology(args.required("topo")?)?;
    let out_path = args.required("out")?;
    let tenants: usize = args.num("tenants", 3)?;
    if tenants == 0 {
        return Err("--tenants must be positive".to_string());
    }
    let total_rate: u64 = args.num("total-rate", 100_000)?;
    let max_flows: usize = args.num("max-flows", 100_000)?;
    let duration: u64 = args.num("duration", 1_000_000)?;
    let mean_hold: u64 = args.num("mean-hold", duration / 4)?;
    let seed: u64 = args.num("seed", 0)?;

    let lines = generate_events(
        &g, tenants, total_rate, max_flows, duration, mean_hold, seed,
    )?;
    let n = lines.len();
    let mut text = lines.join("\n");
    text.push('\n');
    crate::commands::write_out(out_path, &text)?;
    Ok(format!(
        "{n} events ({} flows, {tenants} tenants) over [0, {duration}) µs written to {out_path}\n",
        n / 2,
    ))
}

/// Parses the repair-policy flags shared with `stream run`, including
/// the migration-budget flags (`--budget`, `--burst`, `--box-cost`,
/// `--flow-cost`, `--hysteresis` — see
/// [`crate::commands::budget_from`]).
fn policy_from(args: &Args) -> Result<RepairPolicy, String> {
    match args.optional("policy").unwrap_or("incremental") {
        "incremental" => Ok(RepairPolicy {
            move_budget: args.num("move-budget", 4)?,
            drift_eps: args.num("eps", 0.05)?,
            sample_every: args.num("sample-every", 256)?,
            budget: crate::commands::budget_from(args)?,
            ..RepairPolicy::default()
        }),
        "replanned" => Ok(RepairPolicy::forced_replan()),
        other => Err(format!("unknown policy '{other}' (incremental|replanned)")),
    }
}

/// Loads a `ServeSnapshot` JSON file.
fn load_snapshot(path: &str) -> Result<ServeSnapshot, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))
}

/// `tdmd serve run --topo t.json --lambda L --k K [--in events.ndjson]
/// [--out records.ndjson] [--telemetry-every N] [--snapshot-every N]
/// [--snapshot-path state.json] [--restore-from state.json]
/// [--policy incremental|replanned] [--move-budget N] [--eps E]
/// [--sample-every N] [--budget R] [--burst B] [--box-cost C]
/// [--flow-cost C] [--hysteresis M]`
///
/// Runs the serve loop over the event file (stdin when `--in` is
/// omitted), writing NDJSON records to `--out` (stdout when omitted).
/// `--restore-from` starts the session from a previous run's snapshot
/// instead of an empty engine; `--snapshot-path` is where periodic
/// (`--snapshot-every`) and requested (`"Snapshot"` line) snapshots
/// are written, latest wins.
pub fn run(args: &Args) -> Result<String, String> {
    let graph = load_topology(args.required("topo")?)?;
    let lambda: f64 = args.num_required("lambda")?;
    let k: usize = args.num_required("k")?;
    let policy = policy_from(args)?;
    let config = ServeConfig {
        telemetry_every: args.num("telemetry-every", 1000)?,
        snapshot_every: args.num("snapshot-every", 0)?,
        snapshot_path: args.optional("snapshot-path").map(Into::into),
    };

    let mut session = match args.optional("restore-from") {
        Some(path) => {
            let snap = load_snapshot(path)?;
            ServeSession::restore(graph, HopCount, policy, config, &snap)
                .map_err(|e| format!("restore {path}: {e}"))?
        }
        None => {
            let engine = tdmd_online::OnlineEngine::new(graph, lambda, k, HopCount, policy)
                .map_err(|e| e.to_string())?;
            ServeSession::new(engine, config)
        }
    };

    // Records stream to `--out` as they are written, so memory does
    // not grow with the output.
    let reader: Box<dyn std::io::BufRead> = match args.optional("in") {
        Some(inp) => {
            let file = std::fs::File::open(inp).map_err(|e| format!("open {inp}: {e}"))?;
            Box::new(std::io::BufReader::new(file))
        }
        None => Box::new(std::io::stdin().lock()),
    };
    let writer: Box<dyn std::io::Write> = match args.optional("out") {
        Some(outp) => Box::new(crate::commands::create_out(outp)?),
        None => Box::new(std::io::stdout().lock()),
    };
    session
        .run(reader, writer)
        .map_err(|e| format!("serve loop: {e}"))?;
    // All reporting went through the NDJSON stream already.
    Ok(String::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::topo;
    use tdmd_serve::WireRecord;

    fn args(pairs: &[(&str, &str)]) -> Args {
        let flat: Vec<String> = pairs
            .iter()
            .flat_map(|(k, v)| [format!("--{k}"), v.to_string()])
            .collect();
        Args::parse(&flat).unwrap()
    }

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("tdmd-cli-test-{name}"))
            .display()
            .to_string()
    }

    fn fixture(test: &str) -> String {
        let topo_path = tmp(&format!("{test}-serve-topo.json"));
        topo::generate(&args(&[
            ("kind", "tree"),
            ("size", "14"),
            ("out", &topo_path),
        ]))
        .unwrap();
        topo_path
    }

    #[test]
    fn gen_writes_parseable_tenant_tagged_events() {
        let topo = fixture("gen_writes_parseable_tenant_tagged_events");
        let out = tmp("serve-events.ndjson");
        let report = generate(&args(&[
            ("topo", &topo),
            ("out", &out),
            ("tenants", "3"),
            ("total-rate", "5000"),
            ("duration", "1000"),
            ("seed", "7"),
        ]))
        .unwrap();
        assert!(report.contains("3 tenants"), "{report}");
        let text = std::fs::read_to_string(&out).unwrap();
        let mut tenants_seen = std::collections::BTreeSet::new();
        for line in text.lines() {
            let ev: WireEvent = serde_json::from_str(line).unwrap();
            if let WireEvent::Arrive { tenant, .. } = ev {
                tenants_seen.insert(tenant);
            }
        }
        assert_eq!(tenants_seen.into_iter().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn run_snapshot_restore_replay_matches_the_uninterrupted_run() {
        let topo = fixture("run_snapshot_restore_replay_matches_the_uninterrupted_run");
        let events_path = tmp("serve-replay-events.ndjson");
        generate(&args(&[
            ("topo", &topo),
            ("out", &events_path),
            ("tenants", "2"),
            ("total-rate", "4000"),
            ("duration", "2000"),
            ("seed", "11"),
        ]))
        .unwrap();
        let all = std::fs::read_to_string(&events_path).unwrap();
        let lines: Vec<&str> = all.lines().collect();
        assert!(lines.len() >= 10, "need a non-trivial stream");
        let cut = lines.len() / 2;

        // Uninterrupted run, snapshotting at the cut.
        let full_out = tmp("serve-replay-full.ndjson");
        let snap_path = tmp("serve-replay-snap.json");
        let mut with_snapshot = lines[..cut].join("\n");
        with_snapshot.push_str("\n\"Snapshot\"\n");
        with_snapshot.push_str(&lines[cut..].join("\n"));
        with_snapshot.push('\n');
        let full_in = tmp("serve-replay-full-in.ndjson");
        std::fs::write(&full_in, &with_snapshot).unwrap();
        run(&args(&[
            ("topo", &topo),
            ("lambda", "0.5"),
            ("k", "3"),
            ("in", &full_in),
            ("out", &full_out),
            ("snapshot-path", &snap_path),
        ]))
        .unwrap();

        // Restored run over the tail only.
        let tail_in = tmp("serve-replay-tail-in.ndjson");
        let mut tail = lines[cut..].join("\n");
        tail.push('\n');
        std::fs::write(&tail_in, &tail).unwrap();
        let tail_out = tmp("serve-replay-tail.ndjson");
        run(&args(&[
            ("topo", &topo),
            ("lambda", "0.5"),
            ("k", "3"),
            ("in", &tail_in),
            ("out", &tail_out),
            ("restore-from", &snap_path),
        ]))
        .unwrap();

        let bye = |path: &str| -> tdmd_serve::Telemetry {
            let text = std::fs::read_to_string(path).unwrap();
            let last = text.lines().last().unwrap();
            match serde_json::from_str(last).unwrap() {
                WireRecord::Bye { telemetry } => telemetry,
                other => panic!("expected Bye, got {other:?}"),
            }
        };
        let a = bye(&full_out);
        let b = bye(&tail_out);
        assert_eq!(a.events, b.events);
        assert_eq!(a.deployment, b.deployment);
        assert_eq!(a.objective.to_bits(), b.objective.to_bits());
        assert_eq!(a.active_flows, b.active_flows);
        assert_eq!(b.snapshots_restored, 1);
    }

    #[test]
    fn run_rejects_unknown_policy() {
        let topo = fixture("run_rejects_unknown_policy");
        let err = run(&args(&[
            ("topo", &topo),
            ("lambda", "0.5"),
            ("k", "3"),
            ("in", "/nonexistent"),
            ("policy", "psychic"),
        ]))
        .unwrap_err();
        assert!(err.contains("unknown policy"));
    }
}
