//! The benchmark's declared surface: workload names and every metric
//! it emits, with unit and direction. `BENCHMARK.json` at the
//! repository root must declare exactly these (the self-test checks
//! it).

/// Whether a metric comes from the untraced run (`--trace 0`) or the
/// traced run (`--trace 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A figure a user of the system would see.
    EndToEnd,
    /// A figure of one layer, taken from the traced run.
    PerLayer,
}

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind: Kind::EndToEnd,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind: Kind::PerLayer,
    }
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["cold-solve", "churn-batched", "serve-oracle", "serve-local"];

/// Every metric the benchmark emits. Each workload emits all of its
/// kind; a layer a workload does not run reads 0 there.
pub const METRICS: &[Metric] = &[
    e2e("setup_s", "s", "lower"),
    e2e("throughput", "ops/s", "higher"),
    e2e("latency_p50_us", "us", "lower"),
    e2e("latency_p99_us", "us", "lower"),
    e2e("bandwidth_ratio", "ratio", "lower"),
    e2e("peak_rss_mb", "MB", "lower"),
    // core (tdmd-core)
    layer("core.decode_s", "s", "lower"),
    layer("core.instance_build_s", "s", "lower"),
    layer("core.solve_s", "s", "lower"),
    layer("core.flow_index_build_s", "s", "lower"),
    layer("core.gain_evals", "count", "lower"),
    layer("core.guard_checks", "count", "lower"),
    layer("core.guard_activations", "count", "lower"),
    layer("core.guard_probe_us", "us", "lower"),
    layer("core.score_probe_us", "us", "lower"),
    // online (tdmd-online)
    layer("online.bulk_load_s", "s", "lower"),
    layer("online.batch_busy_s", "s", "lower"),
    layer("online.ingest_probe_s", "s", "lower"),
    layer("online.apply_plain_busy_s", "s", "lower"),
    layer("online.apply_sampled_busy_s", "s", "lower"),
    layer("online.oracle_copy_ms", "ms", "lower"),
    layer("online.oracle_solve_ms", "ms", "lower"),
    layer("online.drift_samples", "count", "lower"),
    layer("online.oracle_failures", "count", "lower"),
    layer("online.replans", "count", "lower"),
    layer("online.oracle_useful_ratio", "ratio", "higher"),
    layer("online.adds", "count", "lower"),
    layer("online.drops", "count", "lower"),
    layer("online.swaps", "count", "lower"),
    layer("online.boxes_moved", "count", "lower"),
    layer("online.restore_s", "s", "lower"),
    // serve (tdmd-serve)
    layer("serve.snapshot_decode_s", "s", "lower"),
    layer("serve.decode_busy_s", "s", "lower"),
    layer("serve.encode_busy_s", "s", "lower"),
    layer("serve.telemetry_busy_s", "s", "lower"),
    layer("serve.telemetry_ticks", "count", "lower"),
    layer("serve.telemetry_last_us", "us", "lower"),
    layer("serve.lines", "count", "higher"),
    layer("serve.rejected", "count", "lower"),
    layer("serve.placements", "count", "lower"),
    // the trace itself, and the host it ran on (raw, not rescaled)
    layer("trace.coverage", "ratio", "higher"),
    layer("trace.overhead", "ratio", "lower"),
    layer("host.probe_us", "us", "lower"),
];
