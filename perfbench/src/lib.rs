//! The tdmd benchmark: four workloads that together reach the three
//! layers on the measured path — `tdmd-core` (instance and index
//! build, scoring, feasibility guard, commit), `tdmd-online` (ingest,
//! local repair, drift oracle) and `tdmd-serve` (decode, apply,
//! encode, telemetry, snapshot/restore) — through their public
//! functions only, from one thread.
//!
//! Each run generates its inputs from the seed, measures, checks the
//! program's outputs and reports either the end-to-end metrics
//! (untraced) or the per-layer metrics (traced, with a span around
//! every layer call). See `README.md` beside this crate for why each
//! workload exists and where each layer should read flat.

pub mod checks;
pub mod churn;
pub mod cold;
pub mod host;
pub mod inputs;
pub mod mem;
pub mod report;
pub mod serve;
pub mod spec;
pub mod stats;

use std::time::Duration;

use tdmd_online::RepairStats;

use host::HostProbe;
use report::Report;
use stats::{Groups, GROUP_METRICS};

/// Share of a traced loop that layer spans must cover.
pub const MIN_COVERAGE: f64 = 0.95;

/// Options of one run.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    /// Length of the measured phase of an untraced run.
    pub seconds: f64,
    /// Run traced (per-layer metrics) instead of untraced.
    pub trace: bool,
}

/// The sizes of every workload.
#[derive(Debug, Clone, Copy)]
pub struct Shapes {
    pub cold: cold::Shape,
    pub churn: churn::Shape,
    pub oracle: serve::Shape,
    pub local: serve::Shape,
}

/// The benchmark's shapes.
pub const SHAPES: Shapes = Shapes {
    cold: cold::SHAPE,
    churn: churn::SHAPE,
    oracle: serve::ORACLE,
    local: serve::LOCAL,
};

/// Runs one workload at the benchmark's shape (see [`run_shaped`]).
///
/// # Errors
/// Unknown workloads, and failures that leave nothing to measure.
pub fn run(workload: &str, opts: &Opts) -> Result<Report, String> {
    run_shaped(workload, opts, &SHAPES)
}

/// Runs one workload at the given shapes. Untraced runs report their
/// timings at the host probe's reference speed (see [`host`]); traced
/// runs report them raw, with the probe's reading beside them.
///
/// # Errors
/// Unknown workloads, and failures that leave nothing to measure.
pub fn run_shaped(workload: &str, opts: &Opts, shapes: &Shapes) -> Result<Report, String> {
    let mut host = HostProbe::new();
    let mut report = match workload {
        "cold-solve" => cold::run(opts, &shapes.cold, &mut host),
        "churn-batched" => churn::run(opts, &shapes.churn, &mut host),
        "serve-oracle" => serve::run(opts, &shapes.oracle, serve::Mode::Oracle, &mut host),
        "serve-local" => serve::run(opts, &shapes.local, serve::Mode::Local, &mut host),
        other => {
            return Err(format!(
                "unknown workload {other:?} (expected one of {:?})",
                spec::WORKLOADS
            ))
        }
    }?;
    if opts.trace {
        host.sample_n(host::EDGE_SAMPLES);
        report.set("host.probe_us", host.median_us());
    }
    report.notes.push(host.note());
    Ok(report)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Sets throughput and the latency percentiles.
fn set_groups(report: &mut Report, groups: &Groups) {
    for (i, name) in GROUP_METRICS.iter().enumerate() {
        report.set(name, groups.value(i));
    }
}

/// Adds the repair work between two `RepairStats` readings.
fn add_repair_stats(report: &mut Report, from: &RepairStats, to: &RepairStats) {
    for (name, a, b) in [
        ("online.drift_samples", from.drift_samples, to.drift_samples),
        (
            "online.oracle_failures",
            from.oracle_failures,
            to.oracle_failures,
        ),
        ("online.replans", from.replans, to.replans),
        ("online.adds", from.adds, to.adds),
        ("online.drops", from.drops, to.drops),
        ("online.swaps", from.swaps, to.swaps),
        ("online.boxes_moved", from.boxes_moved, to.boxes_moved),
    ] {
        report.add(name, (b - a) as f64);
    }
}

/// Oracle samples that produced a usable answer, as a share of all
/// samples (0 when the oracle never ran).
fn set_useful_ratio(report: &mut Report) {
    let samples = report.get("online.drift_samples");
    let failures = report.get("online.oracle_failures");
    let useful = if samples > 0.0 {
        (samples - failures) / samples
    } else {
        0.0
    };
    report.set("online.oracle_useful_ratio", useful);
}
