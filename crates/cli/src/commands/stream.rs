//! `tdmd stream` — span-file generation, churn replay and fault
//! injection.
//!
//! `stream gen` lowers a static workload to a span file (each flow
//! gets a random lifetime inside the scenario horizon); `stream run`
//! replays a span file through the incremental engine and reports
//! per-event repair latency percentiles, throughput, and the
//! objective-vs-oracle gap; `stream inject` replays the same spans
//! under a seeded failure schedule (independent MTBF/MTTR or targeted
//! kills) and reports the degradation/repair telemetry.

use crate::args::Args;
use crate::commands::{budget_from, load_topology, load_workload, write_out};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdmd_core::HopCount;
use tdmd_obs::{normalize_zero, percentile, StatsRecorder, Stopwatch};
use tdmd_online::{events_from_spans, obs_keys, FlowSpan, OnlineEngine, RepairPolicy};
use tdmd_sim::chaos::{run_chaos, ChaosConfig, ChaosMode};
use tdmd_sim::timeline::DynamicScenario;

/// `tdmd stream gen --workload wl.json --duration D [--mean-hold H]
/// [--seed S] --out spans.json`
///
/// Every flow of the workload receives a uniform-random arrival in
/// `[0, D − 1]` and an exponential-ish hold time around `H`
/// (clamped to at least 1 µs), producing a churn scenario with the
/// same spatial structure as the static workload.
pub fn generate(args: &Args) -> Result<String, String> {
    let flows = load_workload(args.required("workload")?)?;
    let duration: u64 = args.num("duration", 1_000_000)?;
    if duration == 0 {
        return Err("--duration must be positive".to_string());
    }
    let mean_hold: u64 = args.num("mean-hold", duration / 4)?;
    let seed: u64 = args.num("seed", 0)?;
    let out_path = args.required("out")?;

    let mut rng = StdRng::seed_from_u64(seed);
    let spans: Vec<FlowSpan> = flows
        .into_iter()
        .map(|flow| {
            let start_us = rng.gen_range(0..duration);
            // Geometric-flavoured hold time: the product of a uniform
            // pair stretches the tail without needing a distr crate.
            let u = (rng.gen_range(1..=1000) as f64) / 1000.0;
            let hold = ((-u.ln()) * mean_hold.max(1) as f64).ceil() as u64;
            FlowSpan {
                start_us,
                end_us: start_us + hold.max(1),
                flow,
            }
        })
        .collect();

    let n = spans.len();
    let json = serde_json::to_string_pretty(&spans).map_err(|e| e.to_string())?;
    write_out(out_path, &json)?;
    Ok(format!(
        "{n} spans over [0, {duration}) µs (mean hold ≈ {mean_hold} µs) written to {out_path}\n"
    ))
}

/// Loads a span JSON file (a `Vec<FlowSpan>`).
pub fn load_spans(path: &str) -> Result<Vec<FlowSpan>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))
}

/// `tdmd stream run --topo t.json --spans spans.json --lambda L --k K
/// [--policy incremental|replanned] [--move-budget N] [--eps E]
/// [--sample-every N] [--budget R] [--burst B] [--box-cost C]
/// [--flow-cost C] [--hysteresis M] [--oracle-every N] [--audit true]`
///
/// Replays the span file event by event, measuring the wall-clock
/// latency of each apply+repair step, and samples the gap between the
/// maintained objective and a from-scratch GTP solve every
/// `--oracle-every` events (0 disables gap sampling; the final event
/// is always sampled). With `--budget`, repair moves are admitted
/// against a migration token bucket (see
/// [`tdmd_online::ReconfigBudget`]) and the report adds the
/// moves/deferral/spend accounting.
pub fn run(args: &Args) -> Result<String, String> {
    let graph = load_topology(args.required("topo")?)?;
    let spans = load_spans(args.required("spans")?)?;
    let lambda: f64 = args.num_required("lambda")?;
    let k: usize = args.num_required("k")?;
    let policy_name = args.optional("policy").unwrap_or("incremental");
    let policy = match policy_name {
        "incremental" => RepairPolicy {
            move_budget: args.num("move-budget", 4)?,
            drift_eps: args.num("eps", 0.05)?,
            sample_every: args.num("sample-every", 256)?,
            budget: budget_from(args)?,
            ..RepairPolicy::default()
        },
        "replanned" => RepairPolicy::forced_replan(),
        other => return Err(format!("unknown policy '{other}' (incremental|replanned)")),
    };
    let oracle_every: u64 = args.num("oracle-every", 0)?;
    let audit = args.flag("audit")?;

    let recorder = StatsRecorder::new();
    let mut engine = OnlineEngine::with_recorder(graph, lambda, k, HopCount, policy, &recorder)
        .map_err(|e| e.to_string())?;
    if audit {
        engine.enable_audit();
    }
    let events = events_from_spans(&spans);
    if events.is_empty() {
        return Ok("no events (every span is zero-length)\n".to_string());
    }

    let mut gaps: Vec<f64> = Vec::new();
    let total = events.len() as u64;
    let replay_start = Stopwatch::start();
    for (i, ev) in events.iter().enumerate() {
        engine.apply(&ev.event).map_err(|e| e.to_string())?;

        let is_last = i as u64 + 1 == total;
        let sampled = oracle_every > 0 && (i as u64 + 1).is_multiple_of(oracle_every);
        if (sampled || is_last) && engine.active_count() > 0 {
            if let Ok(oracle) = engine.solve_oracle() {
                let oracle_obj = engine.evaluate_deployment(&oracle);
                if oracle_obj > 0.0 {
                    gaps.push(engine.objective() / oracle_obj - 1.0);
                }
            }
        }
    }
    let replay_secs = replay_start.elapsed_secs();

    let latencies_us = recorder.sorted_samples(obs_keys::EVENT_APPLY_US);
    let stats = engine.stats();
    let mut out = format!(
        "policy:       {policy_name}\nevents:       {total} ({} arrivals, {} departures)\n\
         events/sec:   {:.0}\nlatency p50:  {:.1} µs\nlatency p90:  {:.1} µs\n\
         latency p99:  {:.1} µs\nlatency max:  {:.1} µs\n",
        stats.arrivals,
        stats.departures,
        total as f64 / replay_secs.max(1e-9),
        percentile(&latencies_us, 50.0),
        percentile(&latencies_us, 90.0),
        percentile(&latencies_us, 99.0),
        latencies_us.last().copied().unwrap_or(0.0),
    );
    out.push_str(&format!(
        "repairs:      {} adds, {} drops, {} swaps, {} replans\n",
        stats.adds, stats.drops, stats.swaps, stats.replans
    ));
    out.push_str(&format!(
        "migrations:   {} boxes moved, {} flows reassigned ({:.3} moves/event)\n",
        stats.boxes_moved,
        stats.flows_reassigned,
        stats.boxes_moved as f64 / total as f64,
    ));
    if !engine.budget_tokens().is_infinite() {
        out.push_str(&format!(
            "budget:       {:.2} tokens spent, {} deferrals, {:.2} tokens left\n",
            stats.budget_spent,
            stats.budget_deferrals,
            engine.budget_tokens()
        ));
    }
    if gaps.is_empty() {
        out.push_str("oracle gap:   n/a (stream drained or oracle infeasible)\n");
    } else {
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let max = gaps.iter().cloned().fold(0.0f64, f64::max);
        out.push_str(&format!(
            "oracle gap:   mean {:.2}% / max {:.2}% over {} samples\n",
            100.0 * mean,
            100.0 * max,
            gaps.len()
        ));
    }
    out.push_str(&format!(
        "final state:  {} active flows, objective {:.2}, {} middleboxes\n",
        engine.active_count(),
        normalize_zero(engine.exact_objective()),
        engine.deployment().len()
    ));
    if audit {
        tdmd_online::audit::check_engine(&engine).map_err(|e| format!("audit: {e}"))?;
        out.push_str(&format!(
            "audit:        engine invariants held after every one of {total} events\n"
        ));
    }
    Ok(out)
}

/// `tdmd stream inject --topo t.json --spans spans.json --lambda L
/// --k K [--mode independent|targeted] [--mtbf-us N] [--mttr-us N]
/// [--period-us N] [--seed S] [--policy incremental|replanned|local]
/// [--move-budget N] [--eps E] [--sample-every N] [--budget R]
/// [--burst B] [--box-cost C] [--flow-cost C] [--hysteresis M]`
///
/// Replays the span file through the incremental engine while
/// injecting middlebox failures: `independent` draws per-vertex
/// exponential up/down phases (means `--mtbf-us` / `--mttr-us`);
/// `targeted` kills the highest-loaded deployed vertex every
/// `--period-us`, recovering it `--mttr-us` later. Reports failures,
/// orphaned/degraded flows, degraded flow-time, and post-failure
/// repair latency percentiles.
pub fn inject(args: &Args) -> Result<String, String> {
    let graph = load_topology(args.required("topo")?)?;
    let spans = load_spans(args.required("spans")?)?;
    let lambda: f64 = args.num_required("lambda")?;
    let k: usize = args.num_required("k")?;
    let mttr_us: u64 = args.num("mttr-us", 2_000)?;
    let seed: u64 = args.num("seed", 0)?;
    let mode_name = args.optional("mode").unwrap_or("independent");
    let mode = match mode_name {
        "independent" => ChaosMode::Independent {
            mtbf_us: args.num("mtbf-us", 10_000)?,
            mttr_us,
        },
        "targeted" => ChaosMode::Targeted {
            period_us: args.num("period-us", 5_000)?,
            mttr_us,
        },
        other => return Err(format!("unknown mode '{other}' (independent|targeted)")),
    };
    let policy_name = args.optional("policy").unwrap_or("incremental");
    let policy = match policy_name {
        "incremental" => RepairPolicy {
            move_budget: args.num("move-budget", 4)?,
            drift_eps: args.num("eps", 0.05)?,
            sample_every: args.num("sample-every", 256)?,
            budget: budget_from(args)?,
            ..RepairPolicy::default()
        },
        "replanned" => RepairPolicy::forced_replan(),
        "local" => RepairPolicy {
            budget: budget_from(args)?,
            ..RepairPolicy::local_only(args.num("move-budget", 4)?)
        },
        other => {
            return Err(format!(
                "unknown policy '{other}' (incremental|replanned|local)"
            ))
        }
    };

    let scn = DynamicScenario {
        graph,
        lambda,
        k,
        spans,
    };
    let report = run_chaos(&scn, policy, &ChaosConfig { mode, seed }).map_err(|e| e.to_string())?;

    let lat = &report.repair_latency_us;
    let mut out = format!(
        "mode:           {mode_name} (seed {seed})\npolicy:         {policy_name}\n\
         failures:       {} ({} recoveries)\nflows orphaned: {} ({} degraded)\n\
         degraded time:  {} flow·µs\n",
        report.failures,
        report.recoveries,
        report.flows_orphaned,
        report.flows_degraded,
        report.degraded_flow_us,
    );
    if lat.is_empty() {
        out.push_str("repair latency: n/a (no failures injected)\n");
    } else {
        out.push_str(&format!(
            "repair latency: p50 {:.1} µs / p90 {:.1} µs / p99 {:.1} µs over {} failures\n",
            percentile(lat, 50.0),
            percentile(lat, 90.0),
            percentile(lat, 99.0),
            lat.len()
        ));
    }
    out.push_str(&format!(
        "migrations:     {} boxes moved, {} flows reassigned\n",
        report.boxes_moved, report.flows_reassigned
    ));
    if report.budget_spent > 0.0 || report.budget_deferrals > 0 {
        out.push_str(&format!(
            "budget:         {:.2} tokens spent, {} deferrals\n",
            report.budget_spent, report.budget_deferrals
        ));
    }
    match report.points.last() {
        Some(p) => out.push_str(&format!(
            "final state:    {} active flows, {} degraded, objective {:.2}, \
             {} middleboxes, {} failed vertices\n",
            p.active_flows,
            p.degraded_flows,
            normalize_zero(p.bandwidth),
            p.middleboxes,
            p.failed_vertices
        )),
        None => out.push_str("final state:    no events (every span is zero-length)\n"),
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::{topo, workload};

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

    fn fixture(test: &str) -> (String, String) {
        let topo_path = tmp(&format!("{test}-stream-topo.json"));
        topo::generate(&args(&[
            ("kind", "tree"),
            ("size", "14"),
            ("out", &topo_path),
        ]))
        .unwrap();
        let wl_path = tmp(&format!("{test}-stream-wl.json"));
        workload::generate(&args(&[
            ("topo", &topo_path),
            ("count", "10"),
            ("out", &wl_path),
        ]))
        .unwrap();
        (topo_path, wl_path)
    }

    #[test]
    fn gen_writes_a_replayable_span_file() {
        let (_topo, wl) = fixture("gen_writes_a_replayable_span_file");
        let spans_path = tmp("stream-spans.json");
        let report = generate(&args(&[
            ("workload", &wl),
            ("duration", "1000"),
            ("seed", "7"),
            ("out", &spans_path),
        ]))
        .unwrap();
        assert!(report.contains("10 spans"));
        let spans = load_spans(&spans_path).unwrap();
        assert_eq!(spans.len(), 10);
        assert!(spans.iter().all(|s| s.start_us < s.end_us));
    }

    #[test]
    fn run_reports_latency_and_oracle_gap() {
        let (topo_path, wl) = fixture("run_reports_latency_and_oracle_gap");
        let spans_path = tmp("stream-run-spans.json");
        generate(&args(&[
            ("workload", &wl),
            ("duration", "1000"),
            ("seed", "7"),
            ("out", &spans_path),
        ]))
        .unwrap();
        for policy in ["incremental", "replanned"] {
            let report = run(&args(&[
                ("topo", &topo_path),
                ("spans", &spans_path),
                ("lambda", "0.5"),
                ("k", "4"),
                ("policy", policy),
                ("oracle-every", "5"),
            ]))
            .unwrap();
            assert!(report.contains("latency p99:"), "{policy}: {report}");
            assert!(report.contains("oracle gap:"), "{policy}: {report}");
            assert!(report.contains("0 active flows"), "{policy}: {report}");
        }
    }

    #[test]
    fn audit_flag_checks_every_event_and_the_final_state() {
        let (topo_path, wl) = fixture("audit_flag_checks_every_event_and_the_final_state");
        let spans_path = tmp("stream-audit-spans.json");
        generate(&args(&[
            ("workload", &wl),
            ("duration", "1000"),
            ("seed", "11"),
            ("out", &spans_path),
        ]))
        .unwrap();
        let report = run(&args(&[
            ("topo", &topo_path),
            ("spans", &spans_path),
            ("lambda", "0.5"),
            ("k", "4"),
            ("audit", "true"),
        ]))
        .unwrap();
        assert!(report.contains("engine invariants held"), "{report}");
    }

    #[test]
    fn replanned_policy_reports_a_zero_gap() {
        let (topo_path, wl) = fixture("replanned_policy_reports_a_zero_gap");
        let spans_path = tmp("stream-zero-gap-spans.json");
        generate(&args(&[
            ("workload", &wl),
            ("duration", "500"),
            ("seed", "3"),
            ("out", &spans_path),
        ]))
        .unwrap();
        let report = run(&args(&[
            ("topo", &topo_path),
            ("spans", &spans_path),
            ("lambda", "0.5"),
            ("k", "6"),
            ("policy", "replanned"),
            ("oracle-every", "1"),
        ]))
        .unwrap();
        assert!(
            report.contains("mean 0.00% / max 0.00%"),
            "forced replans track the oracle exactly: {report}"
        );
    }

    #[test]
    fn budgeted_run_reports_spend_and_deferrals() {
        let (topo_path, wl) = fixture("budgeted_run_reports_spend_and_deferrals");
        let spans_path = tmp("stream-budget-spans.json");
        generate(&args(&[
            ("workload", &wl),
            ("duration", "1000"),
            ("seed", "7"),
            ("out", &spans_path),
        ]))
        .unwrap();
        let report = run(&args(&[
            ("topo", &topo_path),
            ("spans", &spans_path),
            ("lambda", "0.5"),
            ("k", "4"),
            ("budget", "0.25"),
            ("burst", "1"),
            ("hysteresis", "0.1"),
        ]))
        .unwrap();
        assert!(report.contains("migrations:"), "{report}");
        assert!(report.contains("budget:"), "{report}");
        assert!(report.contains("tokens spent"), "{report}");
        // Without --budget the budget line disappears.
        let free = run(&args(&[
            ("topo", &topo_path),
            ("spans", &spans_path),
            ("lambda", "0.5"),
            ("k", "4"),
        ]))
        .unwrap();
        assert!(free.contains("migrations:"), "{free}");
        assert!(!free.contains("budget:"), "{free}");
    }

    #[test]
    fn bad_budget_flags_are_rejected() {
        let (topo_path, wl) = fixture("bad_budget_flags_are_rejected");
        let spans_path = tmp("stream-badbudget-spans.json");
        generate(&args(&[
            ("workload", &wl),
            ("duration", "100"),
            ("out", &spans_path),
        ]))
        .unwrap();
        let err = run(&args(&[
            ("topo", &topo_path),
            ("spans", &spans_path),
            ("lambda", "0.5"),
            ("k", "4"),
            ("budget", "-1"),
        ]))
        .unwrap_err();
        assert!(err.contains("--budget"), "{err}");
    }

    #[test]
    fn inject_reports_failures_for_both_modes() {
        let (topo_path, wl) = fixture("inject_reports_failures_for_both_modes");
        let spans_path = tmp("stream-inject-spans.json");
        generate(&args(&[
            ("workload", &wl),
            ("duration", "10000"),
            ("seed", "7"),
            ("out", &spans_path),
        ]))
        .unwrap();
        for (mode, extra) in [
            ("independent", ("mtbf-us", "2000")),
            ("targeted", ("period-us", "1500")),
        ] {
            let report = inject(&args(&[
                ("topo", &topo_path),
                ("spans", &spans_path),
                ("lambda", "0.5"),
                ("k", "4"),
                ("mode", mode),
                extra,
                ("mttr-us", "500"),
                ("seed", "3"),
            ]))
            .unwrap();
            assert!(report.contains("failures:"), "{mode}: {report}");
            assert!(report.contains("repair latency:"), "{mode}: {report}");
            assert!(report.contains("0 failed vertices"), "{mode}: {report}");
        }
    }

    #[test]
    fn inject_rejects_unknown_mode() {
        let (topo_path, wl) = fixture("inject_rejects_unknown_mode");
        let spans_path = tmp("stream-inject-badmode-spans.json");
        generate(&args(&[
            ("workload", &wl),
            ("duration", "100"),
            ("out", &spans_path),
        ]))
        .unwrap();
        let err = inject(&args(&[
            ("topo", &topo_path),
            ("spans", &spans_path),
            ("lambda", "0.5"),
            ("k", "4"),
            ("mode", "cosmic-rays"),
        ]))
        .unwrap_err();
        assert!(err.contains("unknown mode"));
    }

    #[test]
    fn bad_policy_is_rejected() {
        let (topo_path, wl) = fixture("bad_policy_is_rejected");
        let spans_path = tmp("stream-badpolicy-spans.json");
        generate(&args(&[
            ("workload", &wl),
            ("duration", "100"),
            ("out", &spans_path),
        ]))
        .unwrap();
        let err = run(&args(&[
            ("topo", &topo_path),
            ("spans", &spans_path),
            ("lambda", "0.5"),
            ("k", "4"),
            ("policy", "psychic"),
        ]))
        .unwrap_err();
        assert!(err.contains("unknown policy"));
    }
}
