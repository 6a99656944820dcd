//! cold-solve: offline planning. Decode the topology and workload
//! documents `tdmd place` reads, build the instance, then solve it
//! again and again with `gtp_budgeted`, the kernel the online oracle
//! calls.

use std::hint::black_box;
use std::time::Instant;

use tdmd_core::algorithms::gtp::gtp_budgeted;
use tdmd_core::feasibility::greedy_cover;
use tdmd_core::objective::bandwidth_of;
use tdmd_core::{Deployment, FlowIndex, HopCount, Instance};
use tdmd_graph::io::TopologyDoc;
use tdmd_traffic::Flow;

use crate::host::{HostProbe, Span, EDGE_SAMPLES};
use crate::inputs::{self, Topology, LAMBDA};
use crate::mem::RssMeter;
use crate::report::Report;
use crate::spec::Kind;
use crate::stats::{median, Groups};
use crate::{checks, secs, Opts};

/// Sizes of the workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Independent instances per run, solved in turn, so that one
    /// seed's instance does not set the run's figures alone.
    pub inputs: usize,
    pub nodes: usize,
    pub gateways: usize,
    pub flows: usize,
    pub k: usize,
    /// Decode + build repetitions of each instance behind `setup_s`.
    pub setups: usize,
    /// Solves in each pass of the traced run.
    pub traced_solves: usize,
    /// Repetitions of each probe in the traced run.
    pub probes: usize,
}

/// The benchmark's shape: the scale tier's smoke size.
pub const SHAPE: Shape = Shape {
    inputs: 4,
    nodes: 128,
    gateways: 4,
    flows: 20_000,
    k: 8,
    setups: 3,
    traced_solves: 40,
    probes: 5,
};

struct Docs {
    topology: String,
    workload: String,
}

fn generate(seed: u64, shape: &Shape) -> Vec<Docs> {
    (0..shape.inputs as u64)
        .map(|i| {
            let mut rng = inputs::rng(seed, 0x100 + i);
            let topo = Topology::new(shape.nodes, 8.0, shape.gateways, &mut rng);
            let flows = topo.flows(shape.flows, &mut rng);
            Docs {
                topology: TopologyDoc::from_graph(&topo.graph, "er").to_json(),
                workload: serde_json::to_string_pretty(&flows).expect("flows serialize"),
            }
        })
        .collect()
}

/// Decodes both documents and builds the instance, timing the two
/// steps.
fn set_up(docs: &Docs, k: usize) -> Result<(Instance, f64, f64), String> {
    let t0 = Instant::now();
    let graph = TopologyDoc::from_json(&docs.topology)
        .map_err(|e| format!("topology: {e}"))?
        .to_graph();
    let flows: Vec<Flow> =
        serde_json::from_str(&docs.workload).map_err(|e| format!("workload: {e}"))?;
    let t1 = Instant::now();
    let instance = Instance::new(graph, flows, LAMBDA, k).map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    Ok((instance, secs(t1 - t0), secs(t2 - t1)))
}

/// The instances of a run and the set-up times behind them.
struct SetUp {
    /// The last build of each instance.
    instances: Vec<Instance>,
    /// Decode times of every repetition, in seconds.
    decode: Vec<f64>,
    /// `Instance::new` times of every repetition, in seconds.
    build: Vec<f64>,
    /// When each repetition ran.
    spans: Vec<Span>,
}

/// Sets every instance up `shape.setups` times.
fn set_up_repeatedly(docs: &[Docs], shape: &Shape) -> Result<SetUp, String> {
    let mut done = SetUp {
        instances: Vec::new(),
        decode: Vec::new(),
        build: Vec::new(),
        spans: Vec::new(),
    };
    for _ in 0..shape.setups {
        done.instances.clear();
        for doc in docs {
            let t = Instant::now();
            let (instance, d, b) = set_up(doc, shape.k)?;
            done.spans.push((t, Instant::now()));
            done.decode.push(d);
            done.build.push(b);
            done.instances.push(instance);
        }
    }
    Ok(done)
}

/// Runs the workload.
pub fn run(opts: &Opts, shape: &Shape, host: &mut HostProbe) -> Result<Report, String> {
    if opts.trace {
        traced(opts, shape)
    } else {
        untraced(opts, shape, host)
    }
}

fn untraced(opts: &Opts, shape: &Shape, host: &mut HostProbe) -> Result<Report, String> {
    let docs = generate(opts.seed, shape);
    let meter = RssMeter::start();
    let mut report = Report::new(Kind::EndToEnd);
    host.sample_n(EDGE_SAMPLES);
    let SetUp {
        instances,
        decode,
        build,
        spans,
    } = set_up_repeatedly(&docs, shape)?;

    let mut solves: Vec<(usize, Span)> = Vec::new();
    let mut deployments = vec![Vec::new(); instances.len()];
    let start = Instant::now();
    while solves.len() < instances.len() || secs(start.elapsed()) < opts.seconds {
        let i = solves.len() % instances.len();
        report.attempted += 1;
        let t = Instant::now();
        let result = gtp_budgeted(black_box(&instances[i]), shape.k);
        solves.push((i, (t, Instant::now())));
        match result {
            Ok(dep) => deployments[i].push(dep),
            Err(e) => {
                report.failed += 1;
                report.check("solve", Err(e.to_string()));
                break;
            }
        }
        host.maybe_sample();
    }
    host.sample_n(EDGE_SAMPLES);
    let mut ratios = Vec::new();
    for (instance, deps) in instances.iter().zip(&deployments) {
        report.check("cold-solve", checks::cold(instance, shape.k, deps));
        if let Some(dep) = deps.first() {
            ratios.push(bandwidth_of(instance, dep) / instance.unprocessed_bandwidth());
        }
    }

    // Every timing is rescaled once the samples after it exist too.
    let setup: Vec<f64> = spans
        .iter()
        .zip(decode.iter().zip(&build))
        .map(|(&span, (d, b))| host.rescale(span, d + b))
        .collect();
    // One group per instance: each instance's solves do the same work,
    // so they cluster, and pooling the instances would put every
    // percentile on a border between clusters. The figures are medians
    // over instances.
    let mut lat_us = vec![Vec::new(); instances.len()];
    let mut busy = vec![0.0; instances.len()];
    for &(i, span) in &solves {
        let dt = host.rescale(span, secs(span.1 - span.0));
        busy[i] += dt;
        lat_us[i].push(dt * 1e6);
    }
    let mut groups = Groups::default();
    for (lat, busy) in lat_us.iter_mut().zip(&busy) {
        groups.close(lat.len() as f64, *busy, lat);
    }
    report.set("setup_s", median(&setup));
    crate::set_groups(&mut report, &groups);
    report.set(
        "bandwidth_ratio",
        ratios.iter().sum::<f64>() / ratios.len() as f64,
    );
    report.set("peak_rss_mb", meter.peak_above_base_mb());
    report.notes.push(format!(
        "{} solves over {} instances of {} vertices, {} flows, k = {}; \
         throughput and latency are medians over instances (p99 read at p{:.2})",
        solves.len(),
        instances.len(),
        shape.nodes,
        shape.flows,
        shape.k,
        groups.read_at
    ));
    Ok(report)
}

/// Times `f` `n` times; returns the median in seconds.
fn probe<T>(n: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            secs(t.elapsed())
        })
        .collect();
    median(&samples)
}

fn traced(opts: &Opts, shape: &Shape) -> Result<Report, String> {
    let docs = generate(opts.seed, shape);
    let mut report = Report::new(Kind::PerLayer);
    let SetUp {
        instances,
        decode,
        build,
        ..
    } = set_up_repeatedly(&docs, shape)?;
    report.set("core.decode_s", median(&decode));
    report.set("core.instance_build_s", median(&build));

    // Reference pass: the untraced loop over the same solves.
    let t = Instant::now();
    for j in 0..shape.traced_solves {
        report.attempted += 1;
        let t = Instant::now();
        let result = black_box(gtp_budgeted(
            black_box(&instances[j % instances.len()]),
            shape.k,
        ));
        black_box(t.elapsed());
        if let Err(e) = result {
            report.failed += 1;
            report.check("solve", Err(e.to_string()));
        }
    }
    let untraced_total = secs(t.elapsed());

    // Traced pass: a span and the engine counters around every solve.
    let mut spans = Vec::with_capacity(shape.traced_solves);
    let mut deployments = vec![Vec::new(); instances.len()];
    let before = tdmd_core::obs::snapshot();
    let t = Instant::now();
    for j in 0..shape.traced_solves {
        let i = j % instances.len();
        report.attempted += 1;
        let t = Instant::now();
        let result = gtp_budgeted(black_box(&instances[i]), shape.k);
        spans.push(secs(t.elapsed()));
        match result {
            Ok(dep) => deployments[i].push(dep),
            Err(e) => {
                report.failed += 1;
                report.check("solve", Err(e.to_string()));
            }
        }
    }
    let traced_total = secs(t.elapsed());
    let counts = tdmd_core::obs::snapshot().delta_since(&before);
    for (instance, deps) in instances.iter().zip(&deployments) {
        report.check("cold-solve", checks::cold(instance, shape.k, deps));
    }

    let solves = shape.traced_solves as f64;
    report.set("core.solve_s", median(&spans));
    report.set("core.gain_evals", counts.gain_evals as f64 / solves);
    report.set("core.guard_checks", counts.guard_checks as f64 / solves);
    report.set(
        "core.guard_activations",
        counts.guard_activations as f64 / solves,
    );
    let coverage = spans.iter().sum::<f64>() / traced_total;
    report.set("trace.coverage", coverage);
    report.set("trace.overhead", traced_total / untraced_total - 1.0);
    report.check(
        "trace coverage",
        checks::coverage(coverage, crate::MIN_COVERAGE),
    );

    // Probes of the scoring and guard paths on the same instances.
    let (mut index_build, mut guard, mut score) = (Vec::new(), Vec::new(), Vec::new());
    for instance in &instances {
        index_build.push(probe(shape.probes, || {
            FlowIndex::build(instance, &HopCount)
        }));
        let unserved = vec![false; instance.flows().len()];
        guard.push(probe(shape.probes, || greedy_cover(instance, &unserved)));
        let index = FlowIndex::build(instance, &HopCount);
        let current = vec![0.0; instance.flows().len()];
        score.push(probe(shape.probes, || {
            (0..instance.node_count() as u32)
                .map(|v| index.marginal_decrement(instance, &current, v))
                .sum::<f64>()
        }));
    }
    report.set("core.flow_index_build_s", median(&index_build));
    report.set("core.guard_probe_us", 1e6 * median(&guard));
    report.set("core.score_probe_us", 1e6 * median(&score));
    Ok(report)
}

/// The deployment of one solve of the first cold-solve instance —
/// for tests that corrupt it.
pub fn solve_once(seed: u64, shape: &Shape) -> Result<(Instance, Deployment), String> {
    let docs = generate(seed, shape);
    let (instance, _, _) = set_up(&docs[0], shape.k)?;
    let dep = gtp_budgeted(&instance, shape.k).map_err(|e| e.to_string())?;
    Ok((instance, dep))
}
