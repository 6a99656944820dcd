//! churn-batched: the online engine's batched hot path. Bulk-load a
//! standing flow set, then feed 50/50 arrival/departure churn through
//! `OnlineEngine::apply_batch` under local-only repair: no oracle and
//! no wire format, so engine changes show undiluted.

use std::hint::black_box;
use std::time::Instant;

use tdmd_core::Deployment;
use tdmd_online::{DeltaState, Event, HopPricer, OnlineEngine, PathPricer, RepairPolicy};
use tdmd_traffic::Flow;

use crate::host::{HostProbe, EDGE_SAMPLES};
use crate::inputs::{self, Churn, Topology, LAMBDA};
use crate::mem::RssMeter;
use crate::report::Report;
use crate::spec::Kind;
use crate::stats::{median, Groups};
use crate::{checks, secs, Opts};

/// Sizes of the workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Independent inputs per run, each churned for an equal share of
    /// the measured time, so that one seed's stream does not set the
    /// run's figures alone.
    pub inputs: usize,
    pub nodes: usize,
    pub gateways: usize,
    pub k: usize,
    /// Flows bulk-loaded before the churn.
    pub standing: usize,
    /// Events per `apply_batch` call.
    pub batch: usize,
    /// Batches generated at a time, outside the timed loop.
    pub chunk: usize,
    /// Leading chunks of each input every untraced run completes; the
    /// bandwidth ratio averages over them, so it does not depend on
    /// speed.
    pub ratio_chunks: usize,
    /// Calls per window (see [`Groups`]). The calls carry a
    /// heavy tail of repair cascades whose share depends on the seed
    /// and on the host: p99.9 over whole runs spread by 0.8 of its
    /// median across seeds, p99 by 0.2.
    pub window: usize,
    /// Chunks in each pass of the traced run.
    pub traced_chunks: usize,
}

/// The benchmark's shape.
pub const SHAPE: Shape = Shape {
    inputs: 8,
    nodes: 512,
    gateways: 8,
    k: 16,
    standing: 200_000,
    batch: 1024,
    chunk: 16,
    ratio_chunks: 16,
    window: 256,
    traced_chunks: 40,
};

struct Inputs {
    topo: Topology,
    load: Vec<Event>,
    churn: Churn,
}

fn generate(seed: u64, i: u64, shape: &Shape) -> Inputs {
    let mut rng = inputs::rng(seed, 0x400 + i);
    let topo = Topology::new(shape.nodes, 8.0, shape.gateways, &mut rng);
    let standing = topo.flows(shape.standing, &mut rng);
    let churn = Churn::new(inputs::rng(seed, 0x500 + i), &standing);
    let load = standing.into_iter().map(arrival).collect();
    Inputs { topo, load, churn }
}

fn arrival(f: Flow) -> Event {
    Event::FlowArrived {
        key: f.id.into(),
        rate: f.rate,
        path: f.path,
    }
}

type Engine = OnlineEngine<HopPricer>;

/// `OnlineEngine::new`, then the bulk load; returns the engine and
/// the summed `apply_batch` time of the load.
fn bulk_load(inp: &Inputs, shape: &Shape) -> Result<(Engine, f64), String> {
    let mut engine = OnlineEngine::new(
        inp.topo.graph.clone(),
        LAMBDA,
        shape.k,
        HopPricer::default(),
        RepairPolicy::local_only(4),
    )
    .map_err(|e| e.to_string())?;
    let mut busy = 0.0;
    for batch in inp.load.chunks(shape.batch) {
        let t = Instant::now();
        engine
            .apply_batch(batch)
            .map_err(|e| format!("bulk load: {e}"))?;
        busy += secs(t.elapsed());
    }
    Ok((engine, busy))
}

/// The next `shape.chunk` batches of churn, with b(∅) after each.
fn next_chunk(churn: &mut Churn, topo: &Topology, shape: &Shape) -> (Vec<Vec<Event>>, Vec<u64>) {
    let mut batches = Vec::with_capacity(shape.chunk);
    let mut bases = Vec::with_capacity(shape.chunk);
    for _ in 0..shape.chunk {
        batches.push((0..shape.batch).map(|_| churn.step(topo).event()).collect());
        bases.push(churn.base());
    }
    (batches, bases)
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
    let mut lat_us = Vec::with_capacity(shape.window);
    let mut report = Report::new(Kind::EndToEnd);

    let share = opts.seconds / shape.inputs as f64;
    let (mut setup, mut rss) = (Vec::new(), Vec::new());
    let mut groups = Groups::default();
    let (mut window_start, mut window_busy) = (Instant::now(), 0.0);
    let mut ratios = Vec::new();
    let (mut events, mut calls) = (0u64, 0u64);
    for i in 0..shape.inputs as u64 {
        // Each input is generated just before its turn, so that only one
        // is resident; the meter starts once it exists.
        let mut inp = generate(opts.seed, i, shape);
        let meter = RssMeter::start();
        host.sample_n(EDGE_SAMPLES);
        let t = Instant::now();
        let (mut engine, _) = bulk_load(&inp, shape)?;
        let end = Instant::now();
        setup.push(((t, end), secs(end - t)));

        let (mut ratio_sum, mut ratio_n) = (0.0, 0);
        let mut chunks = 0;
        let start = Instant::now();
        while chunks < shape.ratio_chunks || secs(start.elapsed()) < share {
            let (batches, bases) = next_chunk(&mut inp.churn, &inp.topo, shape);
            for (batch, base) in batches.iter().zip(&bases) {
                report.attempted += batch.len() as u64;
                let t = Instant::now();
                let result = engine.apply_batch(batch);
                let dt = secs(t.elapsed());
                if lat_us.is_empty() {
                    window_start = t;
                }
                window_busy += dt;
                lat_us.push(dt * 1e6);
                // A window that is still open when an input ends carries
                // over to the next, so every window holds the same calls.
                if lat_us.len() == shape.window {
                    let ops = (lat_us.len() * shape.batch) as f64;
                    close_window(
                        &mut groups,
                        host,
                        window_start,
                        ops,
                        window_busy,
                        &mut lat_us,
                    );
                    window_busy = 0.0;
                }
                fail(&mut report, batch, result);
                if chunks < shape.ratio_chunks {
                    ratio_sum += engine.objective() / *base as f64;
                    ratio_n += 1;
                }
            }
            events += (batches.len() * shape.batch) as u64;
            calls += batches.len() as u64;
            chunks += 1;
            host.maybe_sample();
        }
        rss.push(meter.peak_above_base_mb());
        ratios.push(ratio_sum / f64::from(ratio_n));
        report.check(
            "churn-batched",
            checks::churn(
                engine.objective(),
                engine.exact_objective(),
                engine.active_count(),
                inp.churn.active_count(),
            ),
        );
    }
    if groups.is_empty() {
        let ops = (lat_us.len() * shape.batch) as f64;
        close_window(
            &mut groups,
            host,
            window_start,
            ops,
            window_busy,
            &mut lat_us,
        );
    }
    host.sample_n(EDGE_SAMPLES);
    let setup: Vec<f64> = setup
        .iter()
        .map(|&(span, s)| host.rescale(span, s))
        .collect();

    report.set("setup_s", median(&setup));
    crate::set_groups(&mut report, &groups);
    report.set(
        "bandwidth_ratio",
        ratios.iter().sum::<f64>() / ratios.len() as f64,
    );
    report.set("peak_rss_mb", median(&rss));
    report.notes.push(format!(
        "{events} churn events in {calls} calls of {} over {} inputs of {} standing flows; \
         throughput and latency are medians over windows of {} calls (p99 read at p{:.2})",
        shape.batch,
        ratios.len(),
        shape.standing,
        shape.window,
        groups.read_at
    ));
    Ok(report)
}

/// Closes a window of calls that began at `start` and completed `ops`
/// events, rescaled to the reference speed.
fn close_window(
    groups: &mut Groups,
    host: &HostProbe,
    start: Instant,
    ops: f64,
    busy: f64,
    lat_us: &mut Vec<f64>,
) {
    let slowness = host.slowness((start, Instant::now()));
    for l in lat_us.iter_mut() {
        *l /= slowness;
    }
    groups.close(ops, busy / slowness, lat_us);
}

fn traced(opts: &Opts, shape: &Shape) -> Result<Report, String> {
    let inp = generate(opts.seed, 0, shape);
    let mut report = Report::new(Kind::PerLayer);

    // Reference pass: the untraced loop.
    let (mut engine, load_a) = bulk_load(&inp, shape)?;
    let mut churn = inp.churn.clone();
    let mut untraced_total = 0.0;
    for _ in 0..shape.traced_chunks {
        let (batches, _) = next_chunk(&mut churn, &inp.topo, shape);
        let t_chunk = Instant::now();
        for batch in &batches {
            report.attempted += batch.len() as u64;
            let t = Instant::now();
            let result = engine.apply_batch(batch);
            black_box(t.elapsed());
            fail(&mut report, batch, result);
        }
        untraced_total += secs(t_chunk.elapsed());
    }
    drop(engine);

    // Traced pass over the same churn: a span around every call.
    let (mut engine, load_b) = bulk_load(&inp, shape)?;
    let loaded: Deployment = engine.deployment().clone();
    let stats0 = *engine.stats();
    let mut churn = inp.churn.clone();
    let mut traced_total = 0.0;
    let mut busy = 0.0;
    for _ in 0..shape.traced_chunks {
        let (batches, _) = next_chunk(&mut churn, &inp.topo, shape);
        let t_chunk = Instant::now();
        for batch in &batches {
            report.attempted += batch.len() as u64;
            let t = Instant::now();
            let result = engine.apply_batch(batch);
            busy += secs(t.elapsed());
            fail(&mut report, batch, result);
        }
        traced_total += secs(t_chunk.elapsed());
    }
    report.check(
        "churn-batched",
        checks::churn(
            engine.objective(),
            engine.exact_objective(),
            engine.active_count(),
            churn.active_count(),
        ),
    );
    crate::add_repair_stats(&mut report, &stats0, engine.stats());
    crate::set_useful_ratio(&mut report);
    drop(engine);

    report.set("online.bulk_load_s", median(&[load_a, load_b]));
    report.set("online.batch_busy_s", busy);
    let coverage = busy / traced_total;
    report.set("trace.coverage", coverage);
    report.set("trace.overhead", traced_total / untraced_total - 1.0);
    report.check(
        "trace coverage",
        checks::coverage(coverage, crate::MIN_COVERAGE),
    );

    // Ingest probe: the same churn replayed into a bare DeltaState —
    // pricing plus insert/remove, without validation or repair.
    report.set("online.ingest_probe_s", ingest_probe(&inp, shape, &loaded));
    Ok(report)
}

/// Counts a failed `apply_batch` call as failed events and as a
/// failed check.
fn fail<E: std::fmt::Display>(report: &mut Report, batch: &[Event], result: Result<(), E>) {
    if let Err(e) = result {
        report.failed += batch.len() as u64;
        report.check("apply_batch", Err(e.to_string()));
    }
}

fn ingest_probe(inp: &Inputs, shape: &Shape, deployment: &Deployment) -> f64 {
    let pricer = HopPricer::default();
    let mut state = DeltaState::new(inp.topo.graph.node_count(), LAMBDA);
    let ingest = |state: &mut DeltaState, ev: &Event| match ev {
        Event::FlowArrived { key, rate, path } => {
            let probe = Flow::new(0, *rate, path.clone());
            let gains = pricer.gains(&probe);
            let cost = pricer.unprocessed_cost(&probe);
            state.insert(*key, *rate, path.clone(), gains, cost, deployment);
        }
        Event::FlowDeparted { key } => {
            black_box(state.remove(*key));
        }
        _ => {}
    };
    for ev in &inp.load {
        ingest(&mut state, ev);
    }
    let mut churn = inp.churn.clone();
    let mut total = 0.0;
    for _ in 0..shape.traced_chunks {
        let (batches, _) = next_chunk(&mut churn, &inp.topo, shape);
        let t = Instant::now();
        for ev in batches.iter().flatten() {
            ingest(&mut state, ev);
        }
        total += secs(t.elapsed());
    }
    black_box(state.objective());
    total
}
