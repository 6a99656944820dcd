//! Self-test of the benchmark: `BENCHMARK.json` declares exactly what
//! the benchmark emits, every workload emits every metric of its kind
//! with its unit and passes its checks at a small size, and every
//! output check fails on a deliberately corrupted output.

use std::collections::BTreeMap;

use serde::Deserialize;
use tdmd_perfbench::checks::{self, ServeExpect, ServeOutput};
use tdmd_perfbench::report::Report;
use tdmd_perfbench::spec::{Kind, METRICS, WORKLOADS};
use tdmd_perfbench::{churn, cold, run_shaped, serve, Opts, Shapes};

#[derive(Deserialize)]
struct Declared {
    name: String,
    unit: String,
    better: String,
}

#[derive(Deserialize)]
struct Workload {
    name: String,
    why: String,
}

#[derive(Deserialize)]
struct Benchmark {
    paths: Vec<String>,
    workloads: Vec<Workload>,
    end_to_end: Vec<Declared>,
    per_layer: Vec<Declared>,
}

#[derive(Deserialize)]
struct Value {
    value: f64,
    unit: String,
}

#[derive(Deserialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Value>,
}

fn benchmark_json() -> Benchmark {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn declared(kind: Kind) -> Vec<(String, String, String)> {
    METRICS
        .iter()
        .filter(|m| m.kind == kind)
        .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
        .collect()
}

fn listed(metrics: &[Declared]) -> Vec<(String, String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone(), m.better.clone()))
        .collect()
}

#[test]
fn benchmark_json_declares_what_the_benchmark_emits() {
    let b = benchmark_json();
    assert_eq!(b.paths, ["perfbench"]);
    let names: Vec<&str> = b.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(names, WORKLOADS);
    assert!(b
        .workloads
        .iter()
        .all(|w| !w.why.is_empty() && w.why.len() <= 200));
    assert_eq!(listed(&b.end_to_end), declared(Kind::EndToEnd));
    assert_eq!(listed(&b.per_layer), declared(Kind::PerLayer));
}

/// Workload sizes small enough for a test, same structure.
const COLD: cold::Shape = cold::Shape {
    inputs: 2,
    nodes: 32,
    gateways: 4,
    flows: 600,
    k: 8,
    setups: 3,
    traced_solves: 3,
    probes: 2,
};

const CHURN: churn::Shape = churn::Shape {
    inputs: 2,
    nodes: 64,
    gateways: 4,
    k: 8,
    standing: 3_000,
    batch: 64,
    chunk: 4,
    ratio_chunks: 2,
    window: 16,
    traced_chunks: 3,
};

const SERVE: serve::Shape = serve::Shape {
    inputs: 2,
    nodes: 32,
    gateways: 4,
    k: 8,
    standing: 300,
    lines: 2_500,
    // Enough traced work (about 30 ms) that one preemption landing
    // between two spans cannot move coverage by its 0.03 margin here.
    traced_sessions: 8,
    probes: 2,
};

const SMALL: Shapes = Shapes {
    cold: COLD,
    churn: CHURN,
    oracle: SERVE,
    local: SERVE,
};

fn run_small(workload: &str, trace: bool) -> Report {
    let opts = Opts {
        seed: 7,
        seconds: 0.05,
        trace,
    };
    run_shaped(workload, &opts, &SMALL).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

#[test]
fn every_workload_emits_every_metric_with_its_unit_and_passes_its_checks() {
    let b = benchmark_json();
    for workload in WORKLOADS {
        for (trace, declared) in [(false, &b.end_to_end), (true, &b.per_layer)] {
            let report = run_small(workload, trace);
            assert!(
                report.correct(),
                "{workload} trace={trace}: {:?}",
                report.problems
            );
            let line: ResultLine =
                serde_json::from_str(&report.json_line()).expect("result line parses");
            assert!(line.correct && line.attempted > 0 && line.failed == 0);
            let emitted: Vec<(&str, &str)> = line
                .metrics
                .iter()
                .map(|(k, v)| (k.as_str(), v.unit.as_str()))
                .collect();
            let mut expected: Vec<(&str, &str)> = declared
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str()))
                .collect();
            expected.sort();
            assert_eq!(emitted, expected, "{workload} trace={trace}");
            assert!(line.metrics.values().all(|v| v.value.is_finite()));
            if !trace {
                for (name, v) in &line.metrics {
                    assert!(v.value > 0.0, "{workload}: {name} reads {}", v.value);
                }
            }
        }
    }
}

#[test]
fn traced_serve_runs_cover_their_loops_and_the_oracle_never_fails() {
    let report = run_small("serve-oracle", true);
    assert!(report.get("trace.coverage") >= 0.95);
    assert!(report.get("online.drift_samples") > 0.0);
    assert_eq!(report.get("online.oracle_failures"), 0.0);
}

#[test]
fn the_cold_check_fails_on_a_perturbed_or_infeasible_deployment() {
    let (instance, dep) = cold::solve_once(7, &COLD).expect("small cold solve");
    let k = COLD.k;
    assert_eq!(
        checks::cold(&instance, k, &[dep.clone(), dep.clone()]),
        Ok(())
    );

    let n = instance.node_count() as u32;
    let mut vs = dep.vertices().to_vec();
    let outside = (0..n).find(|v| !dep.contains(*v)).expect("a free vertex");
    vs[0] = outside;
    let perturbed = tdmd_core::Deployment::from_vertices(instance.node_count(), vs);
    assert!(checks::cold(&instance, k, &[dep.clone(), perturbed]).is_err());

    let empty = tdmd_core::Deployment::empty(instance.node_count());
    assert!(checks::cold(&instance, k, &[empty]).is_err());
    assert!(checks::cold(&instance, dep.len() - 1, &[dep]).is_err());
    assert!(checks::cold(&instance, k, &[]).is_err());
}

#[test]
fn the_churn_check_fails_on_drift_or_a_lost_flow() {
    assert_eq!(checks::churn(10.5, 10.5, 3, 3), Ok(()));
    assert!(checks::churn(10.5, f64::from_bits(10.5f64.to_bits() + 1), 3, 3).is_err());
    assert!(checks::churn(10.5, 10.5, 3, 4).is_err());
}

#[test]
fn the_serve_checks_fail_on_corrupted_records() {
    let sample = serve::sample_session(7, &SERVE, serve::Mode::Oracle).expect("small session");
    let expect = ServeExpect {
        planted: &sample.planted,
        events: sample.events,
        active: sample.active,
    };
    let good = ServeOutput::parse(&sample.output).expect("records parse");
    assert_eq!(checks::serve(&good, expect), Ok(()));
    assert_eq!(checks::same_decisions(&good, &good), Ok(()));
    assert!(!good.placements.is_empty() && !sample.planted.is_empty());

    let text = String::from_utf8(sample.output.clone()).expect("utf-8");
    let mut lines: Vec<&str> = text.lines().collect();
    let bye = lines.pop().expect("a Bye line");

    // An extra Rejected record naming a line that was fine.
    let extra = r#"{"Rejected":{"line":1,"error":"injected"}}"#;
    let with_extra = format!("{extra}\n{text}");
    let parsed = ServeOutput::parse(with_extra.as_bytes()).expect("parses");
    assert!(checks::serve(&parsed, expect).is_err());

    // A planted line whose rejection went missing.
    let without: Vec<&str> = text
        .lines()
        .filter(|l| !l.starts_with(r#"{"Rejected""#))
        .collect();
    let parsed = ServeOutput::parse(without.join("\n").as_bytes()).expect("parses");
    assert!(checks::serve(&parsed, expect).is_err());

    // No final Bye.
    let parsed = ServeOutput::parse(lines.join("\n").as_bytes()).expect("parses");
    assert!(checks::serve(&parsed, expect).is_err());

    // A Bye that miscounts events or active flows.
    let mut miscounted = good.clone();
    miscounted.bye.as_mut().expect("bye").events += 1;
    assert!(checks::serve(&miscounted, expect).is_err());
    let mut lost = good.clone();
    lost.bye.as_mut().expect("bye").active_flows -= 1;
    assert!(checks::serve(&lost, expect).is_err());

    // A perturbed deployment, in a placement or in the final state.
    let mut moved = good.clone();
    moved.placements[0].1[0] += 1;
    assert!(checks::same_decisions(&good, &moved).is_err());
    let mut moved = good.clone();
    moved.bye.as_mut().expect("bye").deployment.pop();
    assert!(checks::same_decisions(&good, &moved).is_err());
    assert!(bye.starts_with(r#"{"Bye""#));
}

#[test]
fn the_oracle_and_coverage_checks_fail_past_their_limits() {
    assert_eq!(checks::oracle(0), Ok(()));
    assert!(checks::oracle(1).is_err());
    assert_eq!(checks::coverage(0.97, 0.95), Ok(()));
    assert!(checks::coverage(0.94, 0.95).is_err());
}
