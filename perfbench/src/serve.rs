//! serve-oracle and serve-local: the `tdmd serve` daemon loop.
//!
//! Each session is a daemon restart (decode the snapshot document,
//! `ServeSession::restore`) followed by `ServeSession::run` over the
//! same in-memory NDJSON stream. The loop is closed with one client:
//! the next line is handed over when the loop asks for it. Every
//! session holds the same lines, because telemetry ticks clone and
//! sort the latency history since restore and so grow with session
//! length.

use std::io::{self, BufRead, Read, Write};
use std::time::Instant;

use tdmd_core::algorithms::gtp::gtp_budgeted;
use tdmd_obs::normalize_zero;
use tdmd_online::{HopPricer, OnlineEngine, RepairPolicy, RepairStats};
use tdmd_serve::{ServeConfig, ServeSession, ServeSnapshot, WireEvent, WireRecord};

use crate::checks::{self, ServeExpect, ServeOutput};
use crate::host::{HostProbe, EDGE_SAMPLES};
use crate::inputs::{self, Churn, ServeStream, Step, Topology, LAMBDA};
use crate::mem::RssMeter;
use crate::report::Report;
use crate::spec::Kind;
use crate::stats::{median, Groups};
use crate::{secs, Opts};

/// Which repair policy the daemon runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `RepairPolicy::default()`: the drift oracle every 256 events.
    Oracle,
    /// `RepairPolicy::local_only(4)`: no oracle.
    Local,
}

impl Mode {
    fn policy(self) -> RepairPolicy {
        match self {
            Mode::Oracle => RepairPolicy::default(),
            Mode::Local => RepairPolicy::local_only(4),
        }
    }
}

/// Sizes of the workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Independent topologies, snapshots and streams per run, taken in
    /// turn by successive sessions, so that one seed's stream does not
    /// set the run's figures alone. A block's p99 depends on its input:
    /// with 8 inputs, p99 spread across seeds by about an eighth of its
    /// median.
    pub inputs: usize,
    pub nodes: usize,
    pub gateways: usize,
    pub k: usize,
    /// Flows in the restored snapshot.
    pub standing: usize,
    /// Input lines per session.
    pub lines: usize,
    /// Sessions in each pass of the traced run.
    pub traced_sessions: usize,
    /// Repetitions of each oracle probe in the traced run.
    pub probes: usize,
}

/// The benchmark's shape for serve-oracle.
pub const ORACLE: Shape = Shape {
    inputs: 16,
    nodes: 128,
    gateways: 4,
    k: 8,
    standing: 4_000,
    lines: 10_000,
    traced_sessions: 8,
    probes: 5,
};

/// The benchmark's shape for serve-local: the same inputs; its
/// sessions are ten times shorter, so the traced run holds more.
pub const LOCAL: Shape = Shape {
    traced_sessions: 40,
    ..ORACLE
};

/// The CLI's defaults: telemetry every 1,000 events, no periodic
/// snapshots.
fn config() -> ServeConfig {
    ServeConfig {
        telemetry_every: TELEMETRY_EVERY,
        snapshot_every: 0,
        snapshot_path: None,
    }
}

const TELEMETRY_EVERY: u64 = 1000;

type Session = ServeSession<HopPricer>;

struct Input {
    topo: Topology,
    /// The `ServeSnapshot` document every session restores.
    snapshot: String,
    /// Session events recorded in the snapshot.
    snap_events: u64,
    stream: ServeStream,
}

/// Builds the standing state the way the daemon would have — applying
/// the arrivals under the workload's own policy — and snapshots it.
fn generate(seed: u64, shape: &Shape, mode: Mode) -> Result<Vec<Input>, String> {
    (0..shape.inputs as u64)
        .map(|i| generate_one(seed, i, shape, mode))
        .collect()
}

fn generate_one(seed: u64, i: u64, shape: &Shape, mode: Mode) -> Result<Input, String> {
    let mut rng = inputs::rng(seed, 0x200 + i);
    let topo = Topology::new(shape.nodes, 8.0, shape.gateways, &mut rng);
    let standing = topo.flows(shape.standing, &mut rng);
    let engine = OnlineEngine::new(
        topo.graph.clone(),
        LAMBDA,
        shape.k,
        HopPricer::default(),
        mode.policy(),
    )
    .map_err(|e| e.to_string())?;
    let mut session = ServeSession::new(engine, config());
    for f in &standing {
        let step = Step::Arrive {
            key: f.id.into(),
            rate: f.rate,
            path: f.path.clone(),
        };
        session
            .apply(&step.wire())
            .map_err(|e| format!("standing flow {}: {e}", f.id))?;
    }
    let snap = session.snapshot();
    let mut churn = Churn::new(inputs::rng(seed, 0x300 + i), &standing);
    let stream = ServeStream::new(&topo, &mut churn, shape.lines);
    Ok(Input {
        topo,
        snapshot: serde_json::to_string(&snap).map_err(|e| e.to_string())?,
        snap_events: snap.events,
        stream,
    })
}

/// A daemon restart: decode the snapshot document, then restore.
/// Returns the session, the repair stats it resumes from, and the
/// decode and restore times.
fn restart(inp: &Input, mode: Mode) -> Result<(Session, RepairStats, f64, f64), String> {
    let t0 = Instant::now();
    let snap: ServeSnapshot =
        serde_json::from_str(&inp.snapshot).map_err(|e| format!("snapshot: {e}"))?;
    let t1 = Instant::now();
    let session = ServeSession::restore(
        inp.topo.graph.clone(),
        HopPricer::default(),
        mode.policy(),
        config(),
        &snap,
    )
    .map_err(|e| format!("restore: {e}"))?;
    let t2 = Instant::now();
    Ok((session, snap.engine.stats, secs(t1 - t0), secs(t2 - t1)))
}

/// Hands the stream to `ServeSession::run` one line at a time and
/// records, per line, the time from handing it over until the loop
/// asks for the next one, and when each block of [`GROUP_LINES`] lines
/// began and the last one ended. Between blocks, outside every line's
/// time, it lets the host probe sample.
struct ClosedLoop<'a> {
    text: &'a [u8],
    ends: &'a [usize],
    /// Lines handed over so far.
    next: usize,
    pos: usize,
    handed: Option<Instant>,
    lat_us: &'a mut Vec<f64>,
    marks: &'a mut Vec<Instant>,
    host: Option<&'a mut HostProbe>,
}

impl<'a> ClosedLoop<'a> {
    fn new(
        stream: &'a ServeStream,
        lat_us: &'a mut Vec<f64>,
        marks: &'a mut Vec<Instant>,
        host: Option<&'a mut HostProbe>,
    ) -> Self {
        Self {
            text: stream.text.as_bytes(),
            ends: &stream.ends,
            next: 0,
            pos: 0,
            handed: None,
            lat_us,
            marks,
            host,
        }
    }
}

impl Read for ClosedLoop<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(buf.len());
        buf[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for ClosedLoop<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        let end = if self.next == 0 {
            0
        } else {
            self.ends[self.next - 1]
        };
        if self.pos >= end {
            // The current line is consumed: the loop asks for the next.
            let now = Instant::now();
            if let Some(t) = self.handed.take() {
                self.lat_us.push(secs(now - t) * 1e6);
            }
            if self.next == self.ends.len() {
                self.marks.push(now);
                return Ok(&[]);
            }
            let mut now = now;
            if self.next.is_multiple_of(GROUP_LINES) {
                if self.next > 0 {
                    self.marks.push(now);
                    if let Some(host) = self.host.as_deref_mut() {
                        host.maybe_sample();
                        now = Instant::now();
                    }
                }
                self.marks.push(now);
            }
            self.next += 1;
            self.handed = Some(now);
        }
        Ok(&self.text[self.pos..self.ends[self.next - 1]])
    }

    fn consume(&mut self, amt: usize) {
        self.pos += amt;
    }
}

fn expect(inp: &Input) -> ServeExpect<'_> {
    ServeExpect {
        planted: &inp.stream.planted,
        events: inp.snap_events + inp.stream.applied(),
        active: inp.stream.final_active as u64,
    }
}

/// Checks one session's output; returns how many rejections were not
/// planted.
fn check_session(
    report: &mut Report,
    inp: &Input,
    mode: Mode,
    session: &Session,
    out: &ServeOutput,
    reference: Option<&ServeOutput>,
) -> u64 {
    report.check("serve", checks::serve(out, expect(inp)));
    if mode == Mode::Oracle {
        report.check(
            "serve-oracle",
            checks::oracle(session.engine().stats().oracle_failures),
        );
    }
    if let Some(reference) = reference {
        report.check("serve determinism", checks::same_decisions(reference, out));
    }
    out.rejected
        .iter()
        .filter(|l| inp.stream.planted.binary_search(l).is_err())
        .count() as u64
}

/// Runs the workload.
pub fn run(opts: &Opts, shape: &Shape, mode: Mode, host: &mut HostProbe) -> Result<Report, String> {
    if opts.trace {
        traced(opts, shape, mode)
    } else {
        untraced(opts, shape, mode, host)
    }
}

/// Latency, block-mark and output buffers, written once before the
/// memory meter starts so that it sees the daemon's growth and not the
/// benchmark's bookkeeping.
fn buffers(shape: &Shape) -> (Vec<f64>, Vec<Instant>, Vec<u8>) {
    let mut lat = Vec::new();
    lat.resize(shape.lines + 1, 1.0);
    lat.clear();
    let marks = Vec::with_capacity(2 * (shape.lines / GROUP_LINES + 2));
    let mut out = Vec::new();
    out.resize(1 << 20, b' ');
    out.clear();
    (lat, marks, out)
}

/// Lines per group: one telemetry period. A session splits into ten,
/// so even serve-oracle, whose sessions take about a second, yields
/// enough groups for their medians to ride out a stretch of host
/// noise.
const GROUP_LINES: usize = 1000;

fn untraced(
    opts: &Opts,
    shape: &Shape,
    mode: Mode,
    host: &mut HostProbe,
) -> Result<Report, String> {
    let inputs = generate(opts.seed, shape, mode)?;
    let (mut lat, mut marks, mut out) = buffers(shape);
    let mut block_lat = Vec::with_capacity(GROUP_LINES);
    block_lat.resize(GROUP_LINES, 1.0);
    let mut report = Report::new(Kind::EndToEnd);
    host.sample_n(EDGE_SAMPLES);

    let (mut setup, mut rss) = (Vec::new(), Vec::new());
    let mut groups = Groups::default();
    let mut references: Vec<Option<ServeOutput>> = vec![None; inputs.len()];
    // Whole rounds over the inputs, so that every input weighs the same
    // however many sessions fit; the run ends at the round boundary
    // nearest the measured time.
    let start = Instant::now();
    let mut rounds = 0;
    loop {
        for (inp, reference) in inputs.iter().zip(&mut references) {
            out.clear();
            lat.clear();
            marks.clear();
            // Each session is one daemon lifetime, metered on its own.
            let meter = RssMeter::start();
            let t = Instant::now();
            let (mut session, _, decode, restore) = restart(inp, mode)?;
            setup.push(((t, Instant::now()), decode + restore));
            session
                .run(
                    ClosedLoop::new(&inp.stream, &mut lat, &mut marks, Some(&mut *host)),
                    &mut out,
                )
                .map_err(|e| format!("serve loop: {e}"))?;
            rss.push(meter.peak_above_base_mb());
            report.attempted += inp.stream.ends.len() as u64;
            // A line's latency is its share of the loop's busy time,
            // rescaled by the host probe around its block.
            for (block, span) in lat.chunks(GROUP_LINES).zip(marks.chunks_exact(2)) {
                let slowness = host.slowness((span[0], span[1]));
                block_lat.clear();
                block_lat.extend(block.iter().map(|l| l / slowness));
                let busy_us: f64 = block_lat.iter().sum();
                groups.close(block.len() as f64, busy_us / 1e6, &mut block_lat);
            }
            let parsed = ServeOutput::parse(&out)?;
            report.failed += check_session(
                &mut report,
                inp,
                mode,
                &session,
                &parsed,
                reference.as_ref(),
            );
            reference.get_or_insert(parsed);
        }
        rounds += 1;
        let elapsed = secs(start.elapsed());
        if elapsed + 0.5 * elapsed / f64::from(rounds) >= opts.seconds {
            break;
        }
    }

    host.sample_n(EDGE_SAMPLES);
    let setup: Vec<f64> = setup
        .iter()
        .map(|&(span, s)| host.rescale(span, s))
        .collect();

    let mut ratios = Vec::new();
    let mut rejected = 0;
    for (inp, reference) in inputs.iter().zip(&references) {
        let reference = reference.as_ref().ok_or("an input never ran")?;
        rejected += reference.rejected.len();
        for &(events, objective) in &reference.telemetry {
            let applied = (events - inp.snap_events) as usize;
            ratios.push(objective / inp.stream.base_after[applied] as f64);
        }
    }
    report.set("setup_s", median(&setup));
    crate::set_groups(&mut report, &groups);
    report.set(
        "bandwidth_ratio",
        ratios.iter().sum::<f64>() / ratios.len() as f64,
    );
    report.set("peak_rss_mb", median(&rss));
    report.notes.push(format!(
        "{rounds} rounds of {} sessions of {} lines, one per input of {} restored flows; \
         throughput and latency are medians over blocks of {GROUP_LINES} lines",
        inputs.len(),
        shape.lines,
        shape.standing
    ));
    report.notes.push(format!(
        "error_rate {:.6} (rejected / lines, planted rejections included)",
        rejected as f64 / (shape.lines * inputs.len()) as f64
    ));
    Ok(report)
}

/// Per-layer busy time of the traced driver.
#[derive(Debug, Default)]
struct Spans {
    decode: f64,
    apply_plain: f64,
    apply_sampled: f64,
    encode: f64,
    telemetry: f64,
    ticks: u64,
    last_tick: f64,
    total: f64,
}

impl Spans {
    fn busy(&self) -> f64 {
        self.decode + self.apply_plain + self.apply_sampled + self.encode + self.telemetry
    }
}

fn emit(out: &mut impl Write, record: &WireRecord) -> io::Result<()> {
    let line = serde_json::to_string(record)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    writeln!(out, "{line}")
}

/// Span timer. Where one layer call follows another with nothing but
/// dispatch between them, a span starts where the previous one ended,
/// so that each boundary costs one clock reading.
struct Clock(Instant);

impl Clock {
    /// Time since the previous reading, for the span that ends now.
    fn lap(&mut self) -> f64 {
        let now = Instant::now();
        let dt = secs(now - self.0);
        self.0 = now;
        dt
    }

    /// Starts a span without booking the time since the previous
    /// reading to any layer.
    fn skip(&mut self) {
        self.0 = Instant::now();
    }
}

fn tick(
    session: &Session,
    out: &mut Vec<u8>,
    spans: &mut Spans,
    clock: &mut Clock,
) -> io::Result<()> {
    let telemetry = session.telemetry();
    emit(out, &WireRecord::Telemetry { telemetry })?;
    let dt = clock.lap();
    spans.telemetry += dt;
    spans.ticks += 1;
    spans.last_tick = dt;
    Ok(())
}

/// `ServeSession::run`, step for step, with a span around every call
/// into a layer: decode (reading the line, decoding the event and
/// freeing the line), apply, encode (the placement-change check and
/// the record write) and telemetry. The loop's step from one line to
/// the next — dropping the event, testing for the end — is booked to
/// no layer, so coverage shows how much of the loop the layer calls
/// explain.
fn traced_session(
    session: &mut Session,
    input: &[u8],
    out: &mut Vec<u8>,
    spans: &mut Spans,
) -> io::Result<()> {
    let start = Instant::now();
    let mut clock = Clock(start);
    let mut lines = input.lines().enumerate();
    loop {
        clock.skip();
        let Some((idx, line)) = lines.next() else {
            // Reading end-of-stream.
            spans.decode += clock.lap();
            break;
        };
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            spans.decode += clock.lap();
            continue;
        }
        let decoded = serde_json::from_str::<WireEvent>(trimmed);
        drop(line);
        spans.decode += clock.lap();
        let line_no = idx as u64 + 1;
        let ev = match decoded {
            Ok(ev) => ev,
            Err(e) => {
                emit(
                    out,
                    &WireRecord::Rejected {
                        line: line_no,
                        error: e.to_string(),
                    },
                )?;
                spans.encode += clock.lap();
                continue;
            }
        };
        match ev {
            WireEvent::Shutdown => break,
            WireEvent::Snapshot => {
                session.snapshot();
                let event = session.events();
                emit(out, &WireRecord::Snapshot { event, path: None })?;
                spans.encode += clock.lap();
            }
            WireEvent::Telemetry => tick(session, out, spans, &mut clock)?,
            ref event => {
                let samples = session.engine().stats().drift_samples;
                let before = session.engine().deployment().vertices().to_vec();
                spans.encode += clock.lap();
                let result = session.apply(event);
                let dt = clock.lap();
                if session.engine().stats().drift_samples == samples {
                    spans.apply_plain += dt;
                } else {
                    spans.apply_sampled += dt;
                }
                match result {
                    Ok(()) => {
                        let engine = session.engine();
                        if engine.deployment().vertices() != before.as_slice() {
                            emit(
                                out,
                                &WireRecord::Placement {
                                    event: session.events(),
                                    deployment: engine.deployment().vertices().to_vec(),
                                    objective: normalize_zero(engine.exact_objective()),
                                },
                            )?;
                        }
                        drop(before);
                        spans.encode += clock.lap();
                        if session.events().is_multiple_of(TELEMETRY_EVERY) {
                            tick(session, out, spans, &mut clock)?;
                        }
                    }
                    Err(e) => {
                        emit(
                            out,
                            &WireRecord::Rejected {
                                line: line_no,
                                error: e.to_string(),
                            },
                        )?;
                        spans.encode += clock.lap();
                    }
                }
            }
        }
    }
    let telemetry = session.telemetry();
    spans.telemetry += clock.lap();
    emit(out, &WireRecord::Bye { telemetry })?;
    out.flush()?;
    spans.encode += clock.lap();
    spans.total += secs(start.elapsed());
    Ok(())
}

fn traced(opts: &Opts, shape: &Shape, mode: Mode) -> Result<Report, String> {
    let inputs = generate(opts.seed, shape, mode)?;
    let (mut lat, mut marks, mut out) = buffers(shape);
    let mut report = Report::new(Kind::PerLayer);
    let (mut decode, mut restore) = (Vec::new(), Vec::new());

    // Reference pass: the untraced loop.
    let mut references: Vec<Option<ServeOutput>> = vec![None; inputs.len()];
    let mut untraced_total = 0.0;
    for j in 0..shape.traced_sessions {
        let inp = &inputs[j % inputs.len()];
        let (mut session, _, d, r) = restart(inp, mode)?;
        decode.push(d);
        restore.push(r);
        out.clear();
        lat.clear();
        marks.clear();
        let t = Instant::now();
        session
            .run(
                ClosedLoop::new(&inp.stream, &mut lat, &mut marks, None),
                &mut out,
            )
            .map_err(|e| format!("serve loop: {e}"))?;
        untraced_total += secs(t.elapsed());
        report.attempted += inp.stream.ends.len() as u64;
        let parsed = ServeOutput::parse(&out)?;
        let i = j % inputs.len();
        report.failed += check_session(
            &mut report,
            inp,
            mode,
            &session,
            &parsed,
            references[i].as_ref(),
        );
        references[i].get_or_insert(parsed);
    }

    // Traced pass: the driver above over the same input.
    let mut spans = Spans::default();
    let (mut lines, mut rejected, mut placements) = (0, 0, 0);
    let mut last_ticks = Vec::new();
    let mut last_session = None;
    let before = tdmd_core::obs::snapshot();
    for j in 0..shape.traced_sessions {
        let inp = &inputs[j % inputs.len()];
        let (mut session, stats0, d, r) = restart(inp, mode)?;
        decode.push(d);
        restore.push(r);
        out.clear();
        traced_session(
            &mut session,
            inp.stream.text.as_bytes(),
            &mut out,
            &mut spans,
        )
        .map_err(|e| format!("traced serve loop: {e}"))?;
        last_ticks.push(spans.last_tick);
        report.attempted += inp.stream.ends.len() as u64;
        let parsed = ServeOutput::parse(&out)?;
        let reference = references[j % inputs.len()].as_ref();
        report.failed += check_session(&mut report, inp, mode, &session, &parsed, reference);
        // Lines the daemon answered: every applied event the Bye
        // counts beyond the snapshot's, plus every rejected line.
        let applied = parsed
            .bye
            .as_ref()
            .map_or(0, |b| b.events - inp.snap_events);
        lines += applied + parsed.rejected.len() as u64;
        rejected += parsed.rejected.len();
        placements += parsed.placements.len();
        crate::add_repair_stats(&mut report, &stats0, session.engine().stats());
        last_session = Some(session);
    }
    let counts = tdmd_core::obs::snapshot().delta_since(&before);
    let session = last_session.ok_or("no traced sessions")?;

    report.set("serve.snapshot_decode_s", median(&decode));
    report.set("online.restore_s", median(&restore));
    report.set("serve.decode_busy_s", spans.decode);
    report.set("online.apply_plain_busy_s", spans.apply_plain);
    report.set("online.apply_sampled_busy_s", spans.apply_sampled);
    report.set("serve.encode_busy_s", spans.encode);
    report.set("serve.telemetry_busy_s", spans.telemetry);
    report.set("serve.telemetry_ticks", spans.ticks as f64);
    report.set("serve.telemetry_last_us", 1e6 * median(&last_ticks));
    report.set("serve.lines", lines as f64);
    report.set("serve.rejected", rejected as f64);
    report.set("serve.placements", placements as f64);
    report.set("core.gain_evals", counts.gain_evals as f64);
    report.set("core.guard_checks", counts.guard_checks as f64);
    report.set("core.guard_activations", counts.guard_activations as f64);
    crate::set_useful_ratio(&mut report);
    let coverage = spans.busy() / spans.total;
    report.set("trace.coverage", coverage);
    report.set("trace.overhead", spans.total / untraced_total - 1.0);
    report.check(
        "trace coverage",
        checks::coverage(coverage, crate::MIN_COVERAGE),
    );

    // Oracle probes on the final live state: the copy into a fresh
    // instance, then the solve the drift oracle runs on it.
    let (mut copy, mut solve) = (Vec::new(), Vec::new());
    for _ in 0..shape.probes {
        let t = Instant::now();
        let instance = session
            .engine()
            .snapshot_instance()
            .map_err(|e| e.to_string())?;
        copy.push(secs(t.elapsed()));
        let t = Instant::now();
        let dep = gtp_budgeted(&instance, shape.k);
        solve.push(secs(t.elapsed()));
        report.check("oracle probe", dep.map(drop).map_err(|e| e.to_string()));
    }
    report.set("online.oracle_copy_ms", 1e3 * median(&copy));
    report.set("online.oracle_solve_ms", 1e3 * median(&solve));
    Ok(report)
}

/// One session's output records and what the generator expects of
/// them.
pub struct Sample {
    pub output: Vec<u8>,
    pub planted: Vec<u64>,
    pub events: u64,
    pub active: u64,
}

/// One untraced session over the first input — for tests that
/// corrupt its output.
pub fn sample_session(seed: u64, shape: &Shape, mode: Mode) -> Result<Sample, String> {
    let inputs = generate(seed, shape, mode)?;
    let inp = &inputs[0];
    let (mut session, _, _, _) = restart(inp, mode)?;
    let mut output = Vec::new();
    session
        .run(inp.stream.text.as_bytes(), &mut output)
        .map_err(|e| format!("serve loop: {e}"))?;
    let expect = expect(inp);
    Ok(Sample {
        output,
        planted: inp.stream.planted.clone(),
        events: expect.events,
        active: expect.active,
    })
}
