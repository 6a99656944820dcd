//! `tdmd bench` — the seeded benchmark trajectory.
//!
//! Runs the paper-default scenarios through the static solvers and
//! the incremental engine, collecting wall-clock time, the objective,
//! and the `tdmd-obs` telemetry (engine counters, event latency
//! percentiles), and writes two schema-stable JSON artifacts:
//!
//! * `BENCH_solve.json` ([`SOLVE_SCHEMA`]) — one GTP entry per
//!   scenario with the engine counter deltas and the median time of
//!   [`SOLVE_REPEATS`] solves.
//! * `BENCH_stream.json` ([`STREAM_SCHEMA`]) — one entry per
//!   scenario × repair policy with per-event latency percentiles.
//! * `BENCH_joint.json` ([`JOINT_SCHEMA`]) — the route-diversity
//!   sweep: one entry per candidate-set size, comparing the joint
//!   routing + placement solver against its fixed-path baseline and
//!   LP lower bound.
//! * `BENCH_scale.json` ([`SCALE_SCHEMA`], via `tdmd bench --scale
//!   true`) — the million-flow scale tier: one GTP solve plus a
//!   batched churn replay, pinning the solve's wall time and gain
//!   evaluations and the replay's `events_per_sec`.
//! * `BENCH_reconfig.json` ([`RECONFIG_SCHEMA`]) — the
//!   migration-budget sweep: the same churn stream replayed at
//!   decreasing [`ReconfigBudget`] levels, pinning the moves/event
//!   curve and the objective gap vs. the unconstrained baseline.
//!
//! Every measured latency/wall-clock/throughput field is rounded to
//! three fractional digits at the serialization boundary
//! ([`tdmd_obs::round_metric`]) so committed artifacts never churn on
//! float noise (`8.549999999999999`); objective fields stay exact.
//!
//! The JSON shape is a consumer contract (CI parses it, trend tooling
//! diffs it); grow it by *adding* fields, never renaming.

use crate::args::Args;
use crate::commands::write_out;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use tdmd_core::algorithms::gtp::gtp_budgeted;
use tdmd_core::algorithms::joint::{joint_solve, lp_lower_bound};
use tdmd_core::objective::bandwidth_of;
use tdmd_core::{HopCount, Instance};
use tdmd_experiments::scenarios::{
    general_instance, general_pathset_instance, tree_instance, Scenario,
};
use tdmd_obs::{normalize_zero, percentile, round_metric, Stopwatch};
use tdmd_online::{events_from_spans, Event, FlowSpan, OnlineEngine, ReconfigBudget, RepairPolicy};
use tdmd_traffic::GatewayWorkload;

/// Schema tag of `BENCH_solve.json`.
pub const SOLVE_SCHEMA: &str = "tdmd-bench-solve/v3";
/// Schema tag of `BENCH_stream.json`.
pub const STREAM_SCHEMA: &str = "tdmd-bench-stream/v1";
/// Schema tag of `BENCH_joint.json`.
pub const JOINT_SCHEMA: &str = "tdmd-bench-joint/v1";
/// Schema tag of `BENCH_serve.json`.
pub const SERVE_SCHEMA: &str = "tdmd-bench-serve/v1";
/// Schema tag of `BENCH_scale.json`.
pub const SCALE_SCHEMA: &str = "tdmd-bench-scale/v2";
/// Schema tag of `BENCH_reconfig.json`.
pub const RECONFIG_SCHEMA: &str = "tdmd-bench-reconfig/v1";

/// Engine-counter deltas attributed to one solve (see
/// [`tdmd_core::obs::EngineCounters`] for the meanings).
#[derive(Debug, Serialize, Deserialize)]
pub struct SolveCounters {
    /// Marginal-gain evaluations.
    pub gain_evals: u64,
    /// Feasibility-guard evaluations.
    pub guard_checks: u64,
    /// Rounds where the guard restricted the candidate set.
    pub guard_activations: u64,
}

/// One scenario's GTP measurement.
#[derive(Debug, Serialize, Deserialize)]
pub struct SolveEntry {
    /// Scenario name (`tree-default` / `general-default`).
    pub scenario: String,
    /// Solver name (`gtp`).
    pub algorithm: String,
    /// Topology size.
    pub nodes: usize,
    /// Workload size.
    pub flows: usize,
    /// Middlebox budget.
    pub k: usize,
    /// Traffic-changing ratio.
    pub lambda: f64,
    /// Median wall-clock time of one solve in µs, over
    /// [`SOLVE_REPEATS`] solves after one warm-up. A single solve of
    /// these scenarios takes 0.1–0.3 ms, so timing one alone reads
    /// timer and cache noise.
    pub wall_us: f64,
    /// Total bandwidth of the returned plan.
    pub objective: f64,
    /// Engine hot-path counters spent by one solve (the warm-up).
    pub counters: SolveCounters,
}

/// `BENCH_solve.json` document.
#[derive(Debug, Serialize, Deserialize)]
pub struct SolveBench {
    /// Always [`SOLVE_SCHEMA`].
    pub schema: String,
    /// Base RNG seed the scenarios were drawn from.
    pub seed: u64,
    /// Measurements.
    pub entries: Vec<SolveEntry>,
}

/// Per-event latency percentiles in µs (nearest-rank).
#[derive(Debug, Serialize, Deserialize)]
pub struct LatencyUs {
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Slowest event.
    pub max: f64,
}

/// Repair-activity counters for one stream replay.
#[derive(Debug, Serialize, Deserialize)]
pub struct StreamCounters {
    /// Arrival events applied.
    pub arrivals: u64,
    /// Departure events applied.
    pub departures: u64,
    /// Greedy adds performed by local repair.
    pub adds: u64,
    /// Free drops performed by local repair.
    pub drops: u64,
    /// Bounded swaps performed by local repair.
    pub swaps: u64,
    /// Oracle deployments adopted.
    pub replans: u64,
}

/// One scenario × policy stream measurement.
#[derive(Debug, Serialize, Deserialize)]
pub struct StreamEntry {
    /// Scenario name.
    pub scenario: String,
    /// Repair policy (`incremental` / `replanned`).
    pub policy: String,
    /// Events replayed.
    pub events: usize,
    /// Wall-clock replay time in µs.
    pub wall_us: f64,
    /// Final exact objective after the replay.
    pub objective: f64,
    /// Per-event apply latency percentiles.
    pub latency_us: LatencyUs,
    /// Event and repair counters.
    pub counters: StreamCounters,
}

/// `BENCH_stream.json` document.
#[derive(Debug, Serialize, Deserialize)]
pub struct StreamBench {
    /// Always [`STREAM_SCHEMA`].
    pub schema: String,
    /// Base RNG seed.
    pub seed: u64,
    /// Measurements.
    pub entries: Vec<StreamEntry>,
}

/// One route-diversity measurement of the joint solver.
#[derive(Debug, Serialize, Deserialize)]
pub struct JointEntry {
    /// Scenario name.
    pub scenario: String,
    /// Candidate paths per flow fed to the solver.
    pub k_paths: usize,
    /// Topology size.
    pub nodes: usize,
    /// Workload size.
    pub flows: usize,
    /// Middlebox budget.
    pub k: usize,
    /// Traffic-changing ratio.
    pub lambda: f64,
    /// Wall-clock joint solve time in µs (includes the LP bound).
    pub wall_us: f64,
    /// Joint objective (routing + placement).
    pub objective: f64,
    /// Fixed-path GTP baseline on the same workload's primaries.
    pub fixed_objective: f64,
    /// LP-relaxation lower bound on the joint optimum.
    pub lp_bound: f64,
    /// GTP placement rounds the alternation spent.
    pub rounds: usize,
    /// Active-path switches applied.
    pub path_switches: u64,
    /// Wall-clock µs of one `lp_lower_bound` call on the instance,
    /// timed apart from the solve (which computes the same bound
    /// once).
    pub lp_bound_us: f64,
}

/// `BENCH_joint.json` document.
#[derive(Debug, Serialize, Deserialize)]
pub struct JointBench {
    /// Always [`JOINT_SCHEMA`].
    pub schema: String,
    /// Base RNG seed.
    pub seed: u64,
    /// Measurements, one per swept candidate-set size.
    pub entries: Vec<JointEntry>,
}

/// Per-tenant figures of one serve-loop replay.
#[derive(Debug, Serialize, Deserialize)]
pub struct ServeTenantEntry {
    /// Tenant / traffic class id.
    pub tenant: u16,
    /// Events attributed to the tenant over the replay.
    pub events: u64,
    /// Served bandwidth at shutdown (rate units).
    pub served_bw: u64,
    /// Degraded bandwidth at shutdown (rate units).
    pub degraded_bw: u64,
    /// p50 of the tenant-attributed apply latency in µs.
    pub apply_p50_us: f64,
    /// p99 of the tenant-attributed apply latency in µs.
    pub apply_p99_us: f64,
}

/// `BENCH_serve.json` document: one long multi-tenant NDJSON replay
/// through the serve loop, with a mid-stream snapshot → restore →
/// tail-replay bitwise check.
#[derive(Debug, Serialize, Deserialize)]
pub struct ServeBench {
    /// Always [`SERVE_SCHEMA`].
    pub schema: String,
    /// Base RNG seed.
    pub seed: u64,
    /// Events piped through the loop.
    pub events: usize,
    /// Wall-clock replay time in µs (full uninterrupted run).
    pub wall_us: f64,
    /// Sustained event throughput of the uninterrupted run.
    pub events_per_sec: f64,
    /// Event index the mid-stream snapshot was taken at.
    pub snapshot_at: u64,
    /// Whether the restored tail replay finished bitwise-identical to
    /// the uninterrupted run (deployment and exact objective). The
    /// bench fails loudly when it does not, so a committed artifact
    /// always says `true`.
    pub restore_bitwise: bool,
    /// Whole-loop event latency p50 in µs.
    pub event_p50_us: f64,
    /// Whole-loop event latency p99 in µs.
    pub event_p99_us: f64,
    /// Per-tenant fairness figures, ascending by tenant id.
    pub tenants: Vec<ServeTenantEntry>,
}

/// One budget level of the reconfiguration sweep.
#[derive(Debug, Serialize, Deserialize)]
pub struct ReconfigEntry {
    /// Sweep-point name (`unlimited` is the baseline every gap is
    /// measured against).
    pub name: String,
    /// Token refill per applied event (`0` for the unlimited
    /// baseline — `∞` is not representable in JSON).
    pub refill_per_event: f64,
    /// Token-bucket capacity (`0` reported for the unlimited
    /// baseline).
    pub burst: f64,
    /// Tokens charged per middlebox moved.
    pub box_move_cost: f64,
    /// Tokens charged per flow reassigned.
    pub flow_reassign_cost: f64,
    /// Swap hysteresis margin.
    pub hysteresis: f64,
    /// Events replayed.
    pub events: usize,
    /// Middleboxes moved over the replay.
    pub boxes_moved: u64,
    /// Flow reassignments caused by those moves.
    pub flows_reassigned: u64,
    /// `boxes_moved / events` — the migration-rate curve the sweep
    /// exists to plot.
    pub moves_per_event: f64,
    /// Reconfigurations the budget deferred.
    pub budget_deferrals: u64,
    /// Migration cost charged against the budget (token units).
    pub budget_spent: f64,
    /// Mean of the maintained objective over all events (the streams
    /// drain, so the final objective is uninformative; the mean tracks
    /// how much bandwidth saving the budgeted engine held *during*
    /// churn).
    pub mean_objective: f64,
    /// `mean_objective / mean_objective(unlimited) − 1` — the price of
    /// the budget as extra bandwidth consumed (positive = worse than
    /// unconstrained). `0` for the baseline; may go slightly negative
    /// when hysteresis happens to avoid an unprofitable greedy move.
    pub objective_gap_vs_unconstrained: f64,
}

/// `BENCH_reconfig.json` document: the migration-budget sweep on the
/// general-default churn scenario under drift-sampled repair.
#[derive(Debug, Serialize, Deserialize)]
pub struct ReconfigBench {
    /// Always [`RECONFIG_SCHEMA`].
    pub schema: String,
    /// Base RNG seed.
    pub seed: u64,
    /// Measurements, unlimited baseline first.
    pub entries: Vec<ReconfigEntry>,
}

/// Workload knobs of the scale tier.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ScaleParams {
    /// Topology size (connected Erdős–Rényi, average degree ≈ 8).
    pub nodes: usize,
    /// Flows loaded before the churn phase.
    pub flows: usize,
    /// Mixed arrival/departure events replayed after the load.
    pub churn_events: usize,
    /// Events per `apply_batch` call.
    pub batch: usize,
    /// Middlebox budget.
    pub k: usize,
    /// Gateway (destination) vertices.
    pub gateways: usize,
    /// Traffic-changing ratio λ.
    pub lambda: f64,
    /// Uniform per-flow rate ceiling (integral rate units).
    pub max_rate: u64,
}

impl ScaleParams {
    /// The committed-artifact tier: a million flows over a
    /// thousand-vertex topology.
    pub fn full_tier() -> Self {
        Self {
            nodes: 1024,
            flows: 1_000_000,
            churn_events: 200_000,
            batch: 1024,
            k: 32,
            gateways: 8,
            lambda: 0.5,
            max_rate: 10,
        }
    }

    /// CI-sized smoke tier: same shape, ~50× smaller, minutes → a few
    /// seconds even in debug builds.
    pub fn smoke() -> Self {
        Self {
            nodes: 128,
            flows: 20_000,
            churn_events: 4_000,
            batch: 256,
            k: 8,
            gateways: 4,
            lambda: 0.5,
            max_rate: 10,
        }
    }

    /// [`ScaleParams::smoke`] when the `TDMD_BENCH_SMOKE` environment
    /// variable is set (the CI smoke job), [`ScaleParams::full_tier`]
    /// otherwise.
    pub fn from_env() -> Self {
        if std::env::var_os("TDMD_BENCH_SMOKE").is_some() {
            Self::smoke()
        } else {
            Self::full_tier()
        }
    }
}

/// `BENCH_scale.json` document: one static GTP solve over
/// the full workload, then a batched online replay (bulk load + mixed
/// churn) through [`OnlineEngine::apply_batch`] under a local-only
/// repair policy.
#[derive(Debug, Serialize, Deserialize)]
pub struct ScaleBench {
    /// Always [`SCALE_SCHEMA`].
    pub schema: String,
    /// Base RNG seed.
    pub seed: u64,
    /// Workload knobs the run used (the smoke tier writes smaller
    /// numbers here, which is how CI tells the artifacts apart).
    pub params: ScaleParams,
    /// Wall-clock µs of the GTP solve.
    pub solve_wall_us: f64,
    /// Marginal-gain evaluations the solve spent.
    pub solve_gain_evals: u64,
    /// Exact objective of the static solve.
    pub solve_objective: f64,
    /// Wall-clock µs of the bulk load (all flows arriving through
    /// `apply_batch`).
    pub load_wall_us: f64,
    /// Arrival events per second sustained during the bulk load.
    pub load_events_per_sec: f64,
    /// Wall-clock µs of the churn replay.
    pub churn_wall_us: f64,
    /// Churn events per second sustained through `apply_batch`.
    pub events_per_sec: f64,
    /// p50 of per-batch apply latency during churn, µs.
    pub batch_p50_us: f64,
    /// p99 of per-batch apply latency during churn, µs.
    pub batch_p99_us: f64,
    /// `|objective() − exact_objective()|` after the whole replay —
    /// the running-sum drift the Kahan accumulation bounds.
    pub objective_drift: f64,
    /// Exact engine objective at the end of the replay.
    pub final_objective: f64,
    /// Active flows at the end of the replay.
    pub final_flows: usize,
}

/// Runs the scale tier: mint the gateway workload, solve it statically
/// with [`gtp_budgeted`], then replay it through the online engine in
/// `params.batch`-sized batches (bulk load, then a 50/50
/// arrival/departure churn stream).
pub fn scale_bench(seed: u64, params: ScaleParams) -> Result<ScaleBench, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5CA1E);
    // Average degree ≈ 8 keeps BFS paths short without densifying the
    // CSR rows into quadratic territory.
    let p = 8.0 / (params.nodes.saturating_sub(1).max(1)) as f64;
    let graph = tdmd_graph::generators::erdos_renyi_connected(params.nodes, p.min(1.0), &mut rng);
    let gateways = GatewayWorkload::pick_gateways(params.nodes, params.gateways, &mut rng);
    let workload = GatewayWorkload::new(&graph, gateways, params.max_rate);
    let flows = workload.flows(&graph, 0, params.flows, &mut rng);

    // Static solve: GTP over the whole workload, with the
    // gain-evaluation counter delta attributed.
    let inst = Instance::new(graph.clone(), flows.clone(), params.lambda, params.k)
        .map_err(|e| format!("scale instance: {e}"))?;
    let before = tdmd_core::obs::snapshot();
    let sw = Stopwatch::start();
    let dep = gtp_budgeted(&inst, params.k).map_err(|e| format!("scale solve: {e}"))?;
    let solve_wall_us = sw.elapsed_us();
    let solve_gain_evals = tdmd_core::obs::snapshot().delta_since(&before).gain_evals;
    let solve_objective = normalize_zero(bandwidth_of(&inst, &dep));
    drop(inst);

    // Online replay under local-only repair: the oracle is what the
    // static solve above measures; here the meter is on the batched
    // event path itself, timed one whole `apply_batch` call at a time.
    let mut engine = OnlineEngine::new(
        graph.clone(),
        params.lambda,
        params.k,
        HopCount,
        RepairPolicy::local_only(4),
    )
    .map_err(|e| e.to_string())?;

    let mut batch_buf: Vec<Event> = Vec::with_capacity(params.batch);
    let sw = Stopwatch::start();
    let mut it = flows.iter();
    loop {
        batch_buf.clear();
        batch_buf.extend(it.by_ref().take(params.batch).map(|f| Event::FlowArrived {
            key: u64::from(f.id),
            rate: f.rate,
            path: f.path.clone(),
        }));
        if batch_buf.is_empty() {
            break;
        }
        engine
            .apply_batch(&batch_buf)
            .map_err(|e| format!("scale load: {e}"))?;
    }
    let load_wall_us = sw.elapsed_us();

    // Churn: 50/50 departures of random active flows and arrivals of
    // freshly minted ones, batched.
    let mut active: Vec<u64> = flows.iter().map(|f| u64::from(f.id)).collect();
    let mut next_id = u32::try_from(flows.len()).map_err(|_| "flow ids overflow u32")?;
    drop(flows);
    let mut batch_lat: Vec<f64> = Vec::new();
    let mut remaining = params.churn_events;
    let sw = Stopwatch::start();
    while remaining > 0 {
        batch_buf.clear();
        for _ in 0..params.batch.min(remaining) {
            if rng.gen_bool(0.5) && !active.is_empty() {
                let victim = active.swap_remove(rng.gen_range(0..active.len()));
                batch_buf.push(Event::FlowDeparted { key: victim });
            } else {
                let f = workload.flow(&graph, next_id, &mut rng);
                next_id += 1;
                active.push(u64::from(f.id));
                batch_buf.push(Event::FlowArrived {
                    key: u64::from(f.id),
                    rate: f.rate,
                    path: f.path,
                });
            }
        }
        remaining -= batch_buf.len();
        let bsw = Stopwatch::start();
        engine
            .apply_batch(&batch_buf)
            .map_err(|e| format!("scale churn: {e}"))?;
        batch_lat.push(bsw.elapsed_us());
    }
    let churn_wall_us = sw.elapsed_us();
    batch_lat.sort_by(f64::total_cmp);

    let final_objective = engine.exact_objective();
    let objective_drift = (engine.objective() - final_objective).abs();
    Ok(ScaleBench {
        schema: SCALE_SCHEMA.to_string(),
        seed,
        params,
        solve_wall_us: round_metric(solve_wall_us, 3),
        solve_gain_evals,
        solve_objective,
        load_wall_us: round_metric(load_wall_us, 3),
        load_events_per_sec: round_metric(params.flows as f64 / (load_wall_us / 1e6).max(1e-9), 3),
        churn_wall_us: round_metric(churn_wall_us, 3),
        events_per_sec: round_metric(
            params.churn_events as f64 / (churn_wall_us / 1e6).max(1e-9),
            3,
        ),
        batch_p50_us: round_metric(percentile(&batch_lat, 50.0), 3),
        batch_p99_us: round_metric(percentile(&batch_lat, 99.0), 3),
        objective_drift,
        final_objective: normalize_zero(final_objective),
        final_flows: engine.active_count(),
    })
}

/// The two paper-default scenarios, with their bench names.
fn scenarios() -> [(&'static str, Scenario, bool); 2] {
    [
        ("tree-default", Scenario::tree_default(), true),
        ("general-default", Scenario::general_default(), false),
    ]
}

fn instance_for(seed: u64, s: Scenario, is_tree: bool) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    if is_tree {
        tree_instance(&mut rng, s)
    } else {
        general_instance(&mut rng, s)
    }
}

/// Solves timed per scenario for `wall_us`, after one warm-up.
pub const SOLVE_REPEATS: usize = 64;

/// Solves with GTP at budget `k` once, attributing the engine counter
/// delta and the objective to that solve, then times
/// [`SOLVE_REPEATS`] more solves and reports their median.
fn measure_solve(scenario: &str, inst: &Instance, k: usize) -> Result<SolveEntry, String> {
    let solve = || gtp_budgeted(inst, k).map_err(|e| format!("{scenario}/gtp: {e}"));
    let before = tdmd_core::obs::snapshot();
    let dep = solve()?;
    let spent = tdmd_core::obs::snapshot().delta_since(&before);
    let mut times = Vec::with_capacity(SOLVE_REPEATS);
    for _ in 0..SOLVE_REPEATS {
        let sw = Stopwatch::start();
        let again = solve()?;
        times.push(sw.elapsed_us());
        if again != dep {
            return Err(format!("{scenario}/gtp: repeated solves disagree"));
        }
    }
    times.sort_by(f64::total_cmp);
    Ok(SolveEntry {
        scenario: scenario.to_string(),
        algorithm: "gtp".to_string(),
        nodes: inst.node_count(),
        flows: inst.flows().len(),
        k: inst.k(),
        lambda: inst.lambda(),
        wall_us: round_metric(percentile(&times, 50.0), 3),
        objective: normalize_zero(bandwidth_of(inst, &dep)),
        counters: SolveCounters {
            gain_evals: spent.gain_evals,
            guard_checks: spent.guard_checks,
            guard_activations: spent.guard_activations,
        },
    })
}

/// Solves every scenario with GTP: one warm-up solve for the counters
/// and the objective, then [`SOLVE_REPEATS`] timed solves.
pub fn solve_bench(seed: u64) -> Result<SolveBench, String> {
    let mut entries = Vec::new();
    for (name, s, is_tree) in scenarios() {
        let inst = instance_for(seed, s, is_tree);
        entries.push(measure_solve(name, &inst, s.k)?);
    }
    Ok(SolveBench {
        schema: SOLVE_SCHEMA.to_string(),
        seed,
        entries,
    })
}

/// Synthesizes a churn stream from the scenario's workload (uniform
/// arrivals, geometric-flavoured holds — same shape as `stream gen`).
fn spans_for(inst: &Instance, seed: u64) -> Vec<FlowSpan> {
    let duration = 1_000_000u64;
    let mean_hold = duration / 4;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x57_AE_A0);
    inst.flows()
        .iter()
        .map(|flow| {
            let start_us = rng.gen_range(0..duration);
            let u = (rng.gen_range(1..=1000) as f64) / 1000.0;
            let hold = ((-u.ln()) * mean_hold as f64).ceil() as u64;
            FlowSpan {
                start_us,
                end_us: start_us + hold.max(1),
                flow: flow.clone(),
            }
        })
        .collect()
}

/// Replays every scenario's synthetic stream under both policies.
pub fn stream_bench(seed: u64) -> Result<StreamBench, String> {
    let mut entries = Vec::new();
    for (name, s, is_tree) in scenarios() {
        let inst = instance_for(seed, s, is_tree);
        let spans = spans_for(&inst, seed);
        let events = events_from_spans(&spans);
        for (policy_name, policy) in [
            ("incremental", RepairPolicy::default()),
            ("replanned", RepairPolicy::forced_replan()),
        ] {
            let mut engine =
                OnlineEngine::new(inst.graph().clone(), s.lambda, s.k, HopCount, policy)
                    .map_err(|e| e.to_string())?;
            let mut lat = Vec::with_capacity(events.len());
            let sw = Stopwatch::start();
            for ev in &events {
                let event_sw = Stopwatch::start();
                engine
                    .apply(&ev.event)
                    .map_err(|e| format!("{name}/{policy_name}: {e}"))?;
                lat.push(event_sw.elapsed_us());
            }
            let wall_us = sw.elapsed_us();
            lat.sort_by(f64::total_cmp);
            let stats = engine.stats();
            entries.push(StreamEntry {
                scenario: name.to_string(),
                policy: policy_name.to_string(),
                events: events.len(),
                wall_us: round_metric(wall_us, 3),
                objective: normalize_zero(engine.exact_objective()),
                latency_us: LatencyUs {
                    p50: round_metric(percentile(&lat, 50.0), 3),
                    p90: round_metric(percentile(&lat, 90.0), 3),
                    p99: round_metric(percentile(&lat, 99.0), 3),
                    max: round_metric(lat.last().copied().unwrap_or(0.0), 3),
                },
                counters: StreamCounters {
                    arrivals: stats.arrivals,
                    departures: stats.departures,
                    adds: stats.adds,
                    drops: stats.drops,
                    swaps: stats.swaps,
                    replans: stats.replans,
                },
            });
        }
    }
    Ok(StreamBench {
        schema: STREAM_SCHEMA.to_string(),
        seed,
        entries,
    })
}

/// The migration-budget sweep: the general-default churn stream
/// replayed under drift-sampled incremental repair at decreasing
/// reconfiguration budgets (plus one hysteresis and one
/// flow-cost point), each compared against the unlimited baseline on
/// the mean maintained objective and the moves/event rate.
pub fn reconfig_bench(seed: u64) -> Result<ReconfigBench, String> {
    let s = Scenario::general_default();
    let mut rng = StdRng::seed_from_u64(seed);
    let inst = general_instance(&mut rng, s);
    let spans = spans_for(&inst, seed);
    let events = events_from_spans(&spans);
    if events.is_empty() {
        return Err("reconfig bench: empty event stream".to_string());
    }
    let sweep: Vec<(&str, ReconfigBudget)> = vec![
        ("unlimited", ReconfigBudget::unlimited()),
        ("windowed-8/16", ReconfigBudget::windowed(8.0, 16)),
        ("windowed-4/64", ReconfigBudget::windowed(4.0, 64)),
        ("windowed-2/256", ReconfigBudget::windowed(2.0, 256)),
        (
            "windowed-8/16+hyst-0.25",
            ReconfigBudget::windowed(8.0, 16).with_hysteresis(0.25),
        ),
        (
            "windowed-8/16+flow-cost",
            ReconfigBudget::windowed(8.0, 16).with_costs(1.0, 0.05),
        ),
    ];
    let mut entries = Vec::new();
    let mut baseline_mean = 0.0;
    for (name, budget) in sweep {
        let policy = RepairPolicy {
            sample_every: 64,
            budget,
            ..RepairPolicy::default()
        };
        let mut engine = OnlineEngine::new(inst.graph().clone(), s.lambda, s.k, HopCount, policy)
            .map_err(|e| format!("reconfig/{name}: {e}"))?;
        let mut obj_sum = 0.0;
        for ev in &events {
            engine
                .apply(&ev.event)
                .map_err(|e| format!("reconfig/{name}: {e}"))?;
            obj_sum += engine.objective();
        }
        let mean_objective = normalize_zero(obj_sum / events.len() as f64);
        if name == "unlimited" {
            baseline_mean = mean_objective;
        }
        let gap = if baseline_mean > 0.0 {
            mean_objective / baseline_mean - 1.0
        } else {
            0.0
        };
        let stats = engine.stats();
        entries.push(ReconfigEntry {
            name: name.to_string(),
            refill_per_event: if budget.is_unlimited() {
                0.0
            } else {
                budget.refill_per_event
            },
            burst: if budget.is_unlimited() {
                0.0
            } else {
                budget.burst
            },
            box_move_cost: budget.box_move_cost,
            flow_reassign_cost: budget.flow_reassign_cost,
            hysteresis: budget.hysteresis,
            events: events.len(),
            boxes_moved: stats.boxes_moved,
            flows_reassigned: stats.flows_reassigned,
            moves_per_event: round_metric(stats.boxes_moved as f64 / events.len() as f64, 6),
            budget_deferrals: stats.budget_deferrals,
            budget_spent: round_metric(stats.budget_spent, 6),
            mean_objective,
            objective_gap_vs_unconstrained: round_metric(normalize_zero(gap), 6),
        });
    }
    Ok(ReconfigBench {
        schema: RECONFIG_SCHEMA.to_string(),
        seed,
        entries,
    })
}

/// Route-diversity sweep: the general-default scenario re-drawn with
/// `k_paths ∈ {1, 2, 3, 4}` candidates per flow, each entry solved
/// jointly and compared against its own fixed-path GTP baseline.
pub fn joint_bench(seed: u64) -> Result<JointBench, String> {
    let s = Scenario::general_default();
    let mut entries = Vec::new();
    for k_paths in 1..=4usize {
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = general_pathset_instance(&mut rng, s, k_paths);
        let sw = Stopwatch::start();
        let sol = joint_solve(&inst).map_err(|e| format!("joint/k_paths={k_paths}: {e}"))?;
        let wall_us = sw.elapsed_us();
        // The solve computes its certificate once; time that same call
        // on its own, and fail unless it reproduces the solve's bound.
        let lp_sw = Stopwatch::start();
        let lp_bound = lp_lower_bound(&inst);
        let lp_bound_us = lp_sw.elapsed_us();
        if lp_bound.to_bits() != sol.lp_bound.to_bits() {
            return Err(format!(
                "joint/k_paths={k_paths}: lp_lower_bound {lp_bound} differs from the solve's {}",
                sol.lp_bound
            ));
        }
        entries.push(JointEntry {
            scenario: "general-default".to_string(),
            k_paths,
            nodes: inst.node_count(),
            flows: inst.flows().len(),
            k: inst.k(),
            lambda: inst.lambda(),
            wall_us: round_metric(wall_us, 3),
            objective: normalize_zero(sol.objective),
            fixed_objective: normalize_zero(sol.fixed_objective),
            lp_bound: normalize_zero(sol.lp_bound),
            rounds: sol.rounds,
            path_switches: sol.path_switches,
            lp_bound_us: round_metric(lp_bound_us, 3),
        });
    }
    Ok(JointBench {
        schema: JOINT_SCHEMA.to_string(),
        seed,
        entries,
    })
}

/// One long multi-tenant replay through the serve loop's NDJSON
/// pipeline (`target_events` ≈ the stream length; flows = half). The
/// stream is generated by the same gravity lowering as
/// `tdmd serve gen`, snapshot at mid-stream, and the tail is replayed
/// through a restored session: the bench *fails* unless the restored
/// run finishes bitwise-identical (deployment + exact objective) to
/// the uninterrupted one.
pub fn serve_bench(seed: u64, target_events: usize) -> Result<ServeBench, String> {
    use tdmd_serve::{ServeConfig, ServeSession, Telemetry, WireRecord};

    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E_44E);
    let graph = tdmd_graph::generators::random::erdos_renyi_connected(140, 0.05, &mut rng);
    let lines = crate::commands::serve::generate_events(
        &graph,
        3,
        400_000,
        target_events.div_ceil(2).max(1),
        1_000_000,
        250_000,
        seed,
    )?;
    let cut = lines.len() / 2;
    let mut full = lines[..cut].join("\n");
    full.push_str("\n\"Snapshot\"\n");
    full.push_str(&lines[cut..].join("\n"));
    full.push('\n');
    let mut tail = lines[cut..].join("\n");
    tail.push('\n');

    let bye_of = |out: &[u8]| -> Result<Telemetry, String> {
        let text = std::str::from_utf8(out).map_err(|e| e.to_string())?;
        let last = text.lines().last().ok_or("serve loop wrote no records")?;
        match serde_json::from_str(last).map_err(|e| e.to_string())? {
            WireRecord::Bye { telemetry } => Ok(telemetry),
            other => Err(format!("expected a final Bye record, got {other:?}")),
        }
    };
    let config = ServeConfig::default();
    let policy = RepairPolicy::default();

    let engine =
        OnlineEngine::new(graph.clone(), 0.5, 8, HopCount, policy).map_err(|e| e.to_string())?;
    let mut live = ServeSession::new(engine, config.clone());
    let mut live_out = Vec::new();
    let sw = Stopwatch::start();
    live.run(full.as_bytes(), &mut live_out)
        .map_err(|e| format!("serve replay: {e}"))?;
    let wall_us = sw.elapsed_us();
    let a = bye_of(&live_out)?;

    let snap = live
        .last_snapshot()
        .ok_or("the Snapshot control line left no snapshot")?;
    let mut restored = ServeSession::restore(graph, HopCount, policy, config, snap)
        .map_err(|e| format!("serve restore: {e}"))?;
    let mut tail_out = Vec::new();
    restored
        .run(tail.as_bytes(), &mut tail_out)
        .map_err(|e| format!("serve tail replay: {e}"))?;
    let b = bye_of(&tail_out)?;
    let restore_bitwise = a.deployment == b.deployment
        && a.objective.to_bits() == b.objective.to_bits()
        && a.active_flows == b.active_flows
        && a.degraded_flows == b.degraded_flows;
    if !restore_bitwise {
        return Err(format!(
            "snapshot restore diverged from the uninterrupted run: \
             {:?}/{} vs {:?}/{}",
            a.deployment, a.objective, b.deployment, b.objective
        ));
    }

    Ok(ServeBench {
        schema: SERVE_SCHEMA.to_string(),
        seed,
        events: lines.len(),
        wall_us: round_metric(wall_us, 3),
        events_per_sec: round_metric(lines.len() as f64 / (wall_us / 1e6).max(1e-9), 3),
        snapshot_at: snap.events,
        restore_bitwise,
        event_p50_us: round_metric(a.event_p50_us.unwrap_or(0.0), 3),
        event_p99_us: round_metric(a.event_p99_us.unwrap_or(0.0), 3),
        tenants: a
            .tenants
            .iter()
            .map(|t| ServeTenantEntry {
                tenant: t.tenant,
                events: t.events,
                served_bw: t.served_bw,
                degraded_bw: t.degraded_bw,
                apply_p50_us: round_metric(t.apply_p50_us.unwrap_or(0.0), 3),
                apply_p99_us: round_metric(t.apply_p99_us.unwrap_or(0.0), 3),
            })
            .collect(),
    })
}

/// `tdmd bench [--seed S] [--out-dir DIR] [--serve-events N]
/// [--scale true]`
///
/// Writes `BENCH_solve.json`, `BENCH_stream.json`,
/// `BENCH_joint.json`, `BENCH_serve.json` and `BENCH_reconfig.json`
/// into `DIR` (default `.`) and prints a
/// one-line-per-entry summary. With `--scale true` it instead runs the
/// million-flow scale tier and writes only `BENCH_scale.json`
/// (smoke-sized when `TDMD_BENCH_SMOKE` is set).
pub fn bench(args: &Args) -> Result<String, String> {
    let seed: u64 = args.num("seed", 42)?;
    let out_dir = args.optional("out-dir").unwrap_or(".");
    let serve_events: usize = args.num("serve-events", 100_000)?;

    if args.flag("scale")? {
        let scale = scale_bench(seed, ScaleParams::from_env())?;
        let scale_path = format!("{out_dir}/BENCH_scale.json");
        write_out(
            &scale_path,
            &serde_json::to_string_pretty(&scale).map_err(|e| e.to_string())?,
        )?;
        return Ok(format!(
            "seed {seed}\n== scale ({scale_path}) ==\n  {} nodes  {} flows  k={}\n  \
             solve {:.0} µs  {} gain evals  objective {:.2}\n  \
             load {:.0} events/sec  churn {:.0} events/sec  batch p99 {:.1} µs\n  \
             drift {:e}  final flows {}\n",
            scale.params.nodes,
            scale.params.flows,
            scale.params.k,
            scale.solve_wall_us,
            scale.solve_gain_evals,
            scale.solve_objective,
            scale.load_events_per_sec,
            scale.events_per_sec,
            scale.batch_p99_us,
            scale.objective_drift,
            scale.final_flows,
        ));
    }

    let solve = solve_bench(seed)?;
    let stream = stream_bench(seed)?;
    let joint = joint_bench(seed)?;
    let serve = serve_bench(seed, serve_events)?;
    let reconfig = reconfig_bench(seed)?;

    let solve_path = format!("{out_dir}/BENCH_solve.json");
    let stream_path = format!("{out_dir}/BENCH_stream.json");
    let joint_path = format!("{out_dir}/BENCH_joint.json");
    let serve_path = format!("{out_dir}/BENCH_serve.json");
    let reconfig_path = format!("{out_dir}/BENCH_reconfig.json");
    write_out(
        &solve_path,
        &serde_json::to_string_pretty(&solve).map_err(|e| e.to_string())?,
    )?;
    write_out(
        &stream_path,
        &serde_json::to_string_pretty(&stream).map_err(|e| e.to_string())?,
    )?;
    write_out(
        &joint_path,
        &serde_json::to_string_pretty(&joint).map_err(|e| e.to_string())?,
    )?;
    write_out(
        &serve_path,
        &serde_json::to_string_pretty(&serve).map_err(|e| e.to_string())?,
    )?;
    write_out(
        &reconfig_path,
        &serde_json::to_string_pretty(&reconfig).map_err(|e| e.to_string())?,
    )?;

    let mut out = format!("seed {seed}\n== solve ({solve_path}) ==\n");
    for e in &solve.entries {
        out.push_str(&format!(
            "  {:>16}/{:<12} {:>10.0} µs  objective {:>10.2}  {} gain evals\n",
            e.scenario, e.algorithm, e.wall_us, e.objective, e.counters.gain_evals
        ));
    }
    out.push_str(&format!("== stream ({stream_path}) ==\n"));
    for e in &stream.entries {
        out.push_str(&format!(
            "  {:>16}/{:<12} {:>6} events  p99 {:>8.1} µs  {} replans\n",
            e.scenario, e.policy, e.events, e.latency_us.p99, e.counters.replans
        ));
    }
    out.push_str(&format!("== joint ({joint_path}) ==\n"));
    for e in &joint.entries {
        out.push_str(&format!(
            "  {:>16}/k_paths={} joint {:>10.2}  fixed {:>10.2}  lp bound {:>10.2}  \
             {} switches\n",
            e.scenario, e.k_paths, e.objective, e.fixed_objective, e.lp_bound, e.path_switches
        ));
    }
    out.push_str(&format!("== serve ({serve_path}) ==\n"));
    out.push_str(&format!(
        "  {} events  {:.0} events/sec  p99 {:.1} µs  snapshot @ {}  restore bitwise: {}\n",
        serve.events,
        serve.events_per_sec,
        serve.event_p99_us,
        serve.snapshot_at,
        serve.restore_bitwise
    ));
    for t in &serve.tenants {
        out.push_str(&format!(
            "  tenant {}: {} events  p50 {:.1} µs  p99 {:.1} µs  served {}  degraded {}\n",
            t.tenant, t.events, t.apply_p50_us, t.apply_p99_us, t.served_bw, t.degraded_bw
        ));
    }
    out.push_str(&format!("== reconfig ({reconfig_path}) ==\n"));
    for e in &reconfig.entries {
        out.push_str(&format!(
            "  {:>24}: {:.4} moves/event  {} deferrals  gap {:.2}%\n",
            e.name,
            e.moves_per_event,
            e.budget_deferrals,
            100.0 * e.objective_gap_vs_unconstrained
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(pairs: &[(&str, &str)]) -> Args {
        let flat: Vec<String> = pairs
            .iter()
            .flat_map(|(k, v)| [format!("--{k}"), v.to_string()])
            .collect();
        Args::parse(&flat).unwrap()
    }

    #[test]
    fn solve_bench_covers_every_scenario() {
        let b = solve_bench(7).unwrap();
        assert_eq!(b.schema, SOLVE_SCHEMA);
        assert_eq!(b.entries.len(), 2, "one GTP entry per scenario");
        for e in &b.entries {
            assert_eq!(e.algorithm, "gtp");
            assert!(e.wall_us >= 0.0);
            assert!(e.objective > 0.0, "{}/{}", e.scenario, e.algorithm);
            assert!(e.counters.gain_evals > 0);
            assert!(e.flows > 0 && e.nodes > 0);
        }
    }

    #[test]
    fn scale_bench_reports_throughput_on_a_tiny_tier() {
        // Debug-build-sized params: the full tier and the CI smoke
        // tier share this exact code path.
        let params = ScaleParams {
            nodes: 48,
            flows: 1_500,
            churn_events: 600,
            batch: 128,
            k: 6,
            gateways: 3,
            lambda: 0.5,
            max_rate: 10,
        };
        let b = scale_bench(13, params).unwrap();
        assert_eq!(b.schema, SCALE_SCHEMA);
        assert_eq!(b.params.flows, 1_500);
        assert!(b.solve_gain_evals > 0);
        assert!(b.events_per_sec > 0.0);
        assert!(b.load_events_per_sec > 0.0);
        assert!(b.solve_objective > 0.0);
        assert!(b.batch_p50_us <= b.batch_p99_us);
        // Kahan accumulation keeps the running objective exact on
        // integral-rate workloads.
        assert_eq!(b.objective_drift, 0.0);
        // 50/50 churn: the active set stays near the loaded size.
        assert!(b.final_flows > 0);
        // The document round-trips through its published type.
        let json = serde_json::to_string(&b).unwrap();
        let back: ScaleBench = serde_json::from_str(&json).unwrap();
        assert_eq!(back.schema, SCALE_SCHEMA);
        assert_eq!(back.final_flows, b.final_flows);
    }

    #[test]
    fn bench_scale_flag_is_validated() {
        // Running either real tier is a release-build job (the CI
        // smoke step runs `tdmd bench --scale true` under
        // TDMD_BENCH_SMOKE); the debug test pins the flag parsing and
        // the tier selection table.
        let bad = bench(&args(&[("scale", "maybe")]));
        assert!(bad.unwrap_err().contains("expected true|false"));
        let full = ScaleParams::full_tier();
        assert_eq!(full.flows, 1_000_000, "the committed tier is 1M flows");
        assert!(full.nodes >= 1_000, "thousand-vertex topology");
        let smoke = ScaleParams::smoke();
        assert!(smoke.flows < full.flows / 10);
        assert!(smoke.gateways <= smoke.k, "guard stays trivially feasible");
        assert!(full.gateways <= full.k, "guard stays trivially feasible");
    }

    #[test]
    fn stream_bench_reports_latency_and_drains() {
        let b = stream_bench(7).unwrap();
        assert_eq!(b.schema, STREAM_SCHEMA);
        assert_eq!(b.entries.len(), 4, "2 scenarios × 2 policies");
        for e in &b.entries {
            assert!(e.events > 0);
            assert_eq!(e.counters.arrivals + e.counters.departures, e.events as u64);
            // Every span ends inside the horizon, so the stream
            // drains and the final objective is exactly zero, with a
            // positive sign (+0.0) at the formatting boundary.
            assert_eq!(e.objective.to_bits(), 0.0f64.to_bits());
            assert!(e.latency_us.p50 <= e.latency_us.p99);
            assert!(e.latency_us.p99 <= e.latency_us.max);
        }
    }

    #[test]
    fn joint_bench_certifies_the_route_diversity_sweep() {
        let b = joint_bench(42).unwrap();
        assert_eq!(b.schema, JOINT_SCHEMA);
        assert_eq!(b.entries.len(), 4, "k_paths 1..=4");
        for e in &b.entries {
            // The incumbent is seeded with the fixed-path baseline
            // and the LP bound is a valid relaxation: the sandwich
            // lp_bound ≤ objective ≤ fixed_objective always holds.
            assert!(e.objective <= e.fixed_objective, "k_paths={}", e.k_paths);
            assert!(e.lp_bound <= e.objective + 1e-9, "k_paths={}", e.k_paths);
            assert!(e.lp_bound >= 0.0);
            assert!(e.rounds >= 1);
        }
        // A singleton candidate set *is* the fixed-path problem.
        let singleton = &b.entries[0];
        assert_eq!(singleton.k_paths, 1);
        assert_eq!(singleton.objective, singleton.fixed_objective);
        assert_eq!(singleton.path_switches, 0);
        // With ≥ 3 candidate routes per flow the joint solver finds a
        // strictly better routing than fixed-path GTP on this seed.
        let diverse = b.entries.iter().find(|e| e.k_paths >= 3).unwrap();
        assert!(
            diverse.objective < diverse.fixed_objective,
            "k_paths={} joint {} ≥ fixed {}",
            diverse.k_paths,
            diverse.objective,
            diverse.fixed_objective
        );
    }

    #[test]
    fn reconfig_bench_sweeps_budgets_against_the_unlimited_baseline() {
        let b = reconfig_bench(42).unwrap();
        assert_eq!(b.schema, RECONFIG_SCHEMA);
        assert!(b.entries.len() >= 5, "baseline + at least 4 sweep points");
        let base = &b.entries[0];
        assert_eq!(base.name, "unlimited");
        assert_eq!(base.objective_gap_vs_unconstrained, 0.0);
        assert_eq!(base.budget_deferrals, 0, "an infinite bucket never defers");
        assert_eq!(base.budget_spent, 0.0, "unlimited moves are free");
        assert!(base.boxes_moved > 0 && base.mean_objective > 0.0);
        for e in &b.entries[1..] {
            assert!(e.events == base.events, "{}: same stream", e.name);
            // Amortized spend bound: burst + refill × events, plus
            // the post-hoc flow debit of the overdrawing move (one
            // move's reassignments ≤ the total, so this slack is a
            // provable over-approximation).
            let cap = e.burst
                + e.refill_per_event * e.events as f64
                + e.flow_reassign_cost * e.flows_reassigned as f64;
            assert!(
                e.budget_spent <= cap + 1e-6,
                "{}: spent {} > cap {}",
                e.name,
                e.budget_spent,
                cap
            );
            // A finite budget can only reduce migration activity.
            assert!(
                e.boxes_moved <= base.boxes_moved,
                "{}: {} boxes > unconstrained {}",
                e.name,
                e.boxes_moved,
                base.boxes_moved
            );
            // The objective price of the budget stays a constant
            // factor, not a collapse — and a budget cannot make the
            // engine meaningfully *better* than unconstrained.
            assert!(
                e.objective_gap_vs_unconstrained < 0.5 && e.objective_gap_vs_unconstrained > -0.05,
                "{}: gap {}",
                e.name,
                e.objective_gap_vs_unconstrained
            );
        }
        // At least one tight point actually deferred something,
        // otherwise the sweep is not exercising the budget.
        assert!(b.entries[1..].iter().any(|e| e.budget_deferrals > 0));
        // A hysteresis row binds: it moves a different number of
        // boxes than its control, the same budget without the margin.
        for e in &b.entries {
            if let Some((control, _)) = e.name.split_once("+hyst-") {
                let c = b.entries.iter().find(|c| c.name == control).unwrap();
                assert_ne!(e.boxes_moved, c.boxes_moved, "{}", e.name);
            }
        }
        // Determinism: the committed artifact never churns.
        let again = reconfig_bench(42).unwrap();
        let a = serde_json::to_string(&b).unwrap();
        let c = serde_json::to_string(&again).unwrap();
        assert_eq!(a, c, "reconfig bench is bit-deterministic");
    }

    #[test]
    fn serve_bench_checks_restore_and_reports_per_tenant_percentiles() {
        let b = serve_bench(9, 2_000).unwrap();
        assert_eq!(b.schema, SERVE_SCHEMA);
        assert!(b.events >= 1_000);
        assert!(b.restore_bitwise, "bench must certify the restore");
        assert!(b.events_per_sec > 0.0);
        assert!(b.snapshot_at > 0 && b.snapshot_at < b.events as u64);
        assert_eq!(b.tenants.len(), 3, "3 traffic classes");
        for t in &b.tenants {
            assert!(t.events > 0, "tenant {}", t.tenant);
            assert!(t.apply_p50_us <= t.apply_p99_us, "tenant {}", t.tenant);
        }
    }

    #[test]
    fn bench_writes_schema_stable_json() {
        let dir = std::env::temp_dir().join("tdmd-cli-test-bench");
        let out = bench(&args(&[
            ("seed", "11"),
            ("out-dir", &dir.display().to_string()),
            // Keep the serve replay short in the debug-build test;
            // the committed artifact uses the 100k default.
            ("serve-events", "2000"),
        ]))
        .unwrap();
        assert!(out.contains("== solve"));
        assert!(out.contains("== stream"));
        assert!(out.contains("== serve"));
        // Golden-schema check: the emitted JSON must round-trip into
        // the published document types.
        let solve: SolveBench =
            serde_json::from_str(&std::fs::read_to_string(dir.join("BENCH_solve.json")).unwrap())
                .unwrap();
        assert_eq!(solve.schema, SOLVE_SCHEMA);
        assert_eq!(solve.seed, 11);
        assert!(!solve.entries.is_empty());
        let stream: StreamBench =
            serde_json::from_str(&std::fs::read_to_string(dir.join("BENCH_stream.json")).unwrap())
                .unwrap();
        assert_eq!(stream.schema, STREAM_SCHEMA);
        assert!(!stream.entries.is_empty());
        let joint: JointBench =
            serde_json::from_str(&std::fs::read_to_string(dir.join("BENCH_joint.json")).unwrap())
                .unwrap();
        assert_eq!(joint.schema, JOINT_SCHEMA);
        assert_eq!(joint.entries.len(), 4);
        let serve: ServeBench =
            serde_json::from_str(&std::fs::read_to_string(dir.join("BENCH_serve.json")).unwrap())
                .unwrap();
        assert_eq!(serve.schema, SERVE_SCHEMA);
        assert!(serve.restore_bitwise);
        let reconfig: ReconfigBench = serde_json::from_str(
            &std::fs::read_to_string(dir.join("BENCH_reconfig.json")).unwrap(),
        )
        .unwrap();
        assert_eq!(reconfig.schema, RECONFIG_SCHEMA);
        assert_eq!(reconfig.entries[0].name, "unlimited");
    }

    #[test]
    fn bench_is_deterministic_in_everything_but_time() {
        let a = solve_bench(3).unwrap();
        let b = solve_bench(3).unwrap();
        for (x, y) in a.entries.iter().zip(&b.entries) {
            assert_eq!(x.objective, y.objective);
            assert_eq!(x.flows, y.flows);
            // Counter deltas are merged across concurrent solves
            // (tests in this binary run in parallel), so only their
            // presence is stable here.
            assert!(x.counters.gain_evals > 0 && y.counters.gain_evals > 0);
        }
    }
}
