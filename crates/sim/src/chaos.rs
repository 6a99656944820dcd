//! Seeded fault-injection ("chaos") harness for the online engine.
//!
//! Replays a [`DynamicScenario`]'s flow churn through an
//! [`OnlineEngine`] while injecting middlebox failures from a seeded
//! schedule, and reports how the degradation-aware repair coped:
//! failures seen, flows orphaned, repair latency samples, and the
//! integral of degraded flows over time (degraded flow-microseconds).
//!
//! Two failure models ([`ChaosMode`]):
//!
//! * **Independent** — every vertex alternates up/down phases with
//!   exponentially distributed durations (mean MTBF / MTTR), the
//!   classic memoryless chaos model. Schedules are pre-generated
//!   ([`independent_failure_schedule`]) and merged into the flow
//!   stream, so a run is fully reproducible from its seed.
//! * **Targeted** — the adversarial model: every `period_us` the
//!   harness kills the deployed vertex carrying the highest primary
//!   load (the one whose loss orphans the most saved bandwidth),
//!   recovering it `mttr_us` later. Victim choice depends on the
//!   engine's live state, so these events are injected adaptively
//!   during the replay rather than pre-generated.
//!
//! Every schedule ends fully recovered, so a post-run forced replan
//! ([`OnlineEngine::replan_now`]) must land bitwise on the
//! from-scratch solve — the recovery-transparency property the
//! `failure_properties` suite pins.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdmd_core::error::TdmdError;
use tdmd_core::HopCount;
use tdmd_graph::NodeId;
use tdmd_obs::Stopwatch;
use tdmd_online::{events_from_spans, merge_events, Event, OnlineEngine, RepairPolicy, TimedEvent};

use crate::timeline::{lift, DynamicScenario};

/// How failures are injected into the stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChaosMode {
    /// Independent per-vertex up/down phases with exponential
    /// durations (memoryless failures).
    Independent {
        /// Mean time between failures per vertex, µs.
        mtbf_us: u64,
        /// Mean time to recovery per failure, µs.
        mttr_us: u64,
    },
    /// Kill the deployed vertex with the highest primary load every
    /// period (worst-case adversary).
    Targeted {
        /// Kill period, µs.
        period_us: u64,
        /// Fixed time to recovery per kill, µs.
        mttr_us: u64,
    },
}

/// A seeded chaos run configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Failure model.
    pub mode: ChaosMode,
    /// Seed for the failure schedule (flow churn comes from the
    /// scenario's spans and is unaffected).
    pub seed: u64,
}

/// Engine state right after one applied event.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPoint {
    /// Event time, µs.
    pub time_us: u64,
    /// Active flows after the event.
    pub active_flows: usize,
    /// Active flows with no serving middlebox (full-rate accounting).
    pub degraded_flows: usize,
    /// Currently failed vertices.
    pub failed_vertices: usize,
    /// Objective (total bandwidth) of the maintained state.
    pub bandwidth: f64,
    /// Middleboxes deployed.
    pub middleboxes: usize,
}

/// Outcome of a chaos run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// Failure events applied.
    pub failures: u64,
    /// Recovery events applied.
    pub recoveries: u64,
    /// Flows orphaned by failures (re-pinned or degraded).
    pub flows_orphaned: u64,
    /// Orphaned flows left degraded at the instant of their failure.
    pub flows_degraded: u64,
    /// Integral of the degraded-flow count over time (flow·µs) — the
    /// degraded-seconds metric, in microsecond units.
    pub degraded_flow_us: u64,
    /// Ascending-sorted wall-clock µs of each failure event's `apply`
    /// — orphan re-pinning plus the repair pass, one sample per
    /// failure (feed to [`tdmd_obs::percentile`]).
    pub repair_latency_us: Vec<f64>,
    /// Middleboxes moved by repair and replans across the run —
    /// degraded repair charges the same migration budget as churn
    /// repair, so under a tight [`RepairPolicy::budget`] this stays
    /// bounded by the bucket's refill schedule.
    pub boxes_moved: u64,
    /// Flow→middlebox reassignments caused by those moves
    /// (failure-induced orphaning itself is never charged).
    pub flows_reassigned: u64,
    /// Reconfigurations the migration budget deferred.
    pub budget_deferrals: u64,
    /// Total migration cost charged against the budget (token units).
    pub budget_spent: f64,
    /// Per-event timeline.
    pub points: Vec<ChaosPoint>,
}

/// Pre-generates an independent per-vertex failure schedule over
/// `[0, horizon_us)`: each vertex alternates an exponential up phase
/// (mean `mtbf_us`) and an exponential down phase (mean `mttr_us`),
/// emitting [`Event::VertexDown`] / [`Event::MiddleboxRecovered`]
/// pairs. A vertex still down at the horizon recovers exactly there,
/// so every schedule ends fully recovered. Deterministic in `seed`.
pub fn independent_failure_schedule(
    n_vertices: usize,
    horizon_us: u64,
    mtbf_us: u64,
    mttr_us: u64,
    seed: u64,
) -> Vec<TimedEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Exponential draw without a distr crate: −ln(u)·mean, u ∈ (0, 1].
    let mut exp = |mean: u64| -> u64 {
        let u: f64 = 1.0 - rng.gen::<f64>();
        ((-u.ln()) * mean.max(1) as f64).ceil().max(1.0) as u64
    };
    let mut out = Vec::new();
    for v in 0..n_vertices as NodeId {
        let mut t = exp(mtbf_us);
        while t < horizon_us {
            out.push(TimedEvent {
                time_us: t,
                event: Event::VertexDown { vertex: v },
            });
            let up = t.saturating_add(exp(mttr_us)).min(horizon_us);
            out.push(TimedEvent {
                time_us: up,
                event: Event::MiddleboxRecovered { vertex: v },
            });
            if up >= horizon_us {
                break;
            }
            t = up.saturating_add(exp(mtbf_us));
        }
    }
    // Establish the (time, class) order contract via the canonical
    // merge.
    merge_events(&out, &[])
}

/// The replay loop's accounting shell around the engine.
struct ChaosRun {
    engine: OnlineEngine<HopCount>,
    last_us: u64,
    degraded_flow_us: u64,
    /// Wall-clock µs of each failure event's `apply`.
    repair_latency_us: Vec<f64>,
    points: Vec<ChaosPoint>,
}

impl ChaosRun {
    /// Integrates degraded-seconds up to `t`, applies the event (timing
    /// it when it is a failure), and records a timeline point.
    fn step(&mut self, t: u64, ev: &Event) -> Result<(), TdmdError> {
        let t = t.max(self.last_us);
        self.degraded_flow_us += self.engine.degraded_count() as u64 * (t - self.last_us);
        self.last_us = t;
        let sw = Stopwatch::start();
        self.engine.apply(ev).map_err(lift)?;
        if matches!(ev, Event::MiddleboxFailed { .. } | Event::VertexDown { .. }) {
            self.repair_latency_us.push(sw.elapsed_us());
        }
        self.points.push(ChaosPoint {
            time_us: t,
            active_flows: self.engine.active_count(),
            degraded_flows: self.engine.degraded_count(),
            failed_vertices: self.engine.failed_count(),
            bandwidth: tdmd_obs::normalize_zero(self.engine.exact_objective()),
            middleboxes: self.engine.deployment().len(),
        });
        Ok(())
    }

    /// The targeted adversary's victim: the deployed vertex carrying
    /// the highest primary load (ties to the smaller id).
    fn victim(&self) -> Option<NodeId> {
        let mut best: Option<(NodeId, f64)> = None;
        for &v in self.engine.deployment().vertices() {
            let load = self.engine.state().primary_load(v);
            if best.is_none_or(|(_, bl)| load > bl) {
                best = Some((v, load));
            }
        }
        best.map(|(v, _)| v)
    }
}

/// Interleaves targeted kills and their recoveries with the flow
/// stream. Kills stop at the horizon; scheduled recoveries always
/// drain, so the run ends fully recovered.
fn run_targeted(
    run: &mut ChaosRun,
    flow_events: &[TimedEvent],
    period_us: u64,
    mttr_us: u64,
    horizon_us: u64,
) -> Result<(), TdmdError> {
    let period = period_us.max(1);
    let mut next_kill = period;
    let mut recoveries: BinaryHeap<Reverse<(u64, NodeId)>> = BinaryHeap::new();
    let mut i = 0usize;
    loop {
        let flow_t = flow_events.get(i).map(|e| e.time_us);
        let rec_t = recoveries.peek().map(|&Reverse((t, _))| t);
        let kill_t = (flow_t.is_some() && next_kill < horizon_us).then_some(next_kill);
        // Earliest due action wins; recoveries beat kills beat flow
        // events at equal times (a kill at t must see post-recovery
        // state, an arrival at t the post-churn deployable set).
        let due = |t: Option<u64>, others: [Option<u64>; 2]| {
            t.is_some_and(|t| others.iter().flatten().all(|&o| t <= o))
        };
        if due(rec_t, [kill_t, flow_t]) {
            let Reverse((t, v)) = recoveries.pop().expect("peeked");
            run.step(t, &Event::MiddleboxRecovered { vertex: v })?;
        } else if due(kill_t, [rec_t, flow_t]) {
            let t = next_kill;
            next_kill += period;
            if let Some(v) = run.victim() {
                run.step(t, &Event::MiddleboxFailed { vertex: v })?;
                recoveries.push(Reverse((t.saturating_add(mttr_us.max(1)), v)));
            }
        } else if let Some(ev) = flow_events.get(i) {
            run.step(ev.time_us, &ev.event)?;
            i += 1;
        } else {
            break;
        }
    }
    Ok(())
}

/// Runs a seeded chaos replay of `scn` under `policy` and reports the
/// failure/repair telemetry.
///
/// # Errors
/// Propagates stream-layer rejections lifted onto [`TdmdError`]
/// (invalid span paths, bad λ); the seeded schedules themselves never
/// produce invalid failure events.
pub fn run_chaos(
    scn: &DynamicScenario,
    policy: RepairPolicy,
    cfg: &ChaosConfig,
) -> Result<ChaosReport, TdmdError> {
    let engine =
        OnlineEngine::new(scn.graph.clone(), scn.lambda, scn.k, HopCount, policy).map_err(lift)?;
    let flow_events = events_from_spans(&scn.spans);
    let horizon_us = flow_events.last().map_or(0, |e| e.time_us);
    let mut run = ChaosRun {
        engine,
        last_us: 0,
        degraded_flow_us: 0,
        repair_latency_us: Vec::new(),
        points: Vec::new(),
    };
    match cfg.mode {
        ChaosMode::Independent { mtbf_us, mttr_us } => {
            let sched = independent_failure_schedule(
                scn.graph.node_count(),
                horizon_us,
                mtbf_us,
                mttr_us,
                cfg.seed,
            );
            for ev in merge_events(&flow_events, &sched) {
                run.step(ev.time_us, &ev.event)?;
            }
        }
        ChaosMode::Targeted { period_us, mttr_us } => {
            run_targeted(&mut run, &flow_events, period_us, mttr_us, horizon_us)?;
        }
    }
    let stats = *run.engine.stats();
    run.repair_latency_us.sort_by(f64::total_cmp);
    Ok(ChaosReport {
        failures: stats.failures,
        recoveries: stats.recoveries,
        flows_orphaned: stats.flows_orphaned,
        flows_degraded: stats.flows_degraded,
        degraded_flow_us: run.degraded_flow_us,
        repair_latency_us: run.repair_latency_us,
        boxes_moved: stats.boxes_moved,
        flows_reassigned: stats.flows_reassigned,
        budget_deferrals: stats.budget_deferrals,
        budget_spent: stats.budget_spent,
        points: run.points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::FlowSpan;
    use tdmd_core::paper::fig5_graph;
    use tdmd_traffic::Flow;

    fn scenario() -> DynamicScenario {
        let mk = |rate, path: Vec<u32>| Flow::new(0, rate, path);
        DynamicScenario {
            graph: fig5_graph(),
            lambda: 0.5,
            k: 2,
            spans: vec![
                FlowSpan {
                    start_us: 0,
                    end_us: 1000,
                    flow: mk(2, vec![3, 1, 0]),
                },
                FlowSpan {
                    start_us: 200,
                    end_us: 800,
                    flow: mk(1, vec![7, 5, 2, 0]),
                },
                FlowSpan {
                    start_us: 400,
                    end_us: 1200,
                    flow: mk(5, vec![6, 5, 2, 0]),
                },
                FlowSpan {
                    start_us: 600,
                    end_us: 900,
                    flow: mk(1, vec![4, 1, 0]),
                },
            ],
        }
    }

    #[test]
    fn independent_schedule_is_seeded_and_balanced() {
        let a = independent_failure_schedule(8, 10_000, 1_000, 200, 42);
        let b = independent_failure_schedule(8, 10_000, 1_000, 200, 42);
        assert_eq!(a, b, "deterministic in the seed");
        let downs = a
            .iter()
            .filter(|e| matches!(e.event, Event::VertexDown { .. }))
            .count();
        let ups = a
            .iter()
            .filter(|e| matches!(e.event, Event::MiddleboxRecovered { .. }))
            .count();
        assert!(downs > 0, "a tight MTBF produces failures");
        assert_eq!(downs, ups, "every failure recovers by the horizon");
        assert!(a.windows(2).all(|w| w[0].time_us <= w[1].time_us));
        // Per vertex the schedule alternates down/up.
        for v in 0..8u32 {
            let mut down = false;
            for e in &a {
                match e.event {
                    Event::VertexDown { vertex } if vertex == v => {
                        assert!(!down, "double down at v{v}");
                        down = true;
                    }
                    Event::MiddleboxRecovered { vertex } if vertex == v => {
                        assert!(down, "recovery without failure at v{v}");
                        down = false;
                    }
                    _ => {}
                }
            }
            assert!(!down, "v{v} still down after the horizon");
        }
    }

    #[test]
    fn independent_chaos_run_ends_recovered_and_consistent() {
        let scn = scenario();
        let report = run_chaos(
            &scn,
            RepairPolicy::default(),
            &ChaosConfig {
                mode: ChaosMode::Independent {
                    mtbf_us: 300,
                    mttr_us: 100,
                },
                seed: 7,
            },
        )
        .unwrap();
        assert!(report.failures > 0, "tight MTBF injects failures");
        assert_eq!(report.failures, report.recoveries);
        let last = report.points.last().unwrap();
        assert_eq!(last.failed_vertices, 0, "schedule ends recovered");
        assert_eq!(last.active_flows, 0);
        assert_eq!(last.bandwidth, 0.0);
        assert!(report.points.iter().all(|p| p.middleboxes <= scn.k));
    }

    #[test]
    fn targeted_chaos_kills_and_recovers() {
        let scn = scenario();
        let report = run_chaos(
            &scn,
            RepairPolicy::default(),
            &ChaosConfig {
                mode: ChaosMode::Targeted {
                    period_us: 250,
                    mttr_us: 100,
                },
                seed: 0,
            },
        )
        .unwrap();
        assert!(report.failures > 0, "periodic kills fire");
        assert_eq!(report.failures, report.recoveries, "recoveries drain");
        assert!(
            report.flows_orphaned > 0,
            "killing the max-load box orphans its flows"
        );
        assert_eq!(report.points.last().unwrap().failed_vertices, 0);
    }

    #[test]
    fn degraded_seconds_accumulate_when_budget_cannot_cover() {
        // k = 1 with a targeted kill and a long MTTR: while the only
        // box is down and every alternative is the failed vertex
        // itself, flows ride degraded and the integral must be > 0.
        let scn = DynamicScenario {
            k: 1,
            spans: vec![FlowSpan {
                start_us: 0,
                end_us: 1000,
                // Two-vertex path: v1 is the only profitable site, so
                // killing it leaves nothing to re-pin to.
                flow: Flow::new(0, 2, vec![3, 1, 0]),
            }],
            ..scenario()
        };
        let report = run_chaos(
            &scn,
            RepairPolicy::local_only(0),
            &ChaosConfig {
                mode: ChaosMode::Targeted {
                    period_us: 100,
                    mttr_us: 400,
                },
                seed: 0,
            },
        )
        .unwrap();
        assert!(report.failures > 0);
        assert!(report.flows_degraded > 0, "no surviving on-path box");
        assert!(report.degraded_flow_us > 0, "degraded time integrates");
        assert_eq!(
            report.repair_latency_us.len() as u64,
            report.failures,
            "one repair-latency sample per failure"
        );
    }

    #[test]
    fn unlimited_budget_chaos_spends_nothing() {
        let report = run_chaos(
            &scenario(),
            RepairPolicy::default(),
            &ChaosConfig {
                mode: ChaosMode::Independent {
                    mtbf_us: 300,
                    mttr_us: 100,
                },
                seed: 7,
            },
        )
        .unwrap();
        assert!(report.boxes_moved > 0, "churn + failures move boxes");
        assert_eq!(report.budget_spent, 0.0, "unlimited moves are free");
        assert_eq!(report.budget_deferrals, 0);
    }

    #[test]
    fn degraded_repair_respects_the_migration_budget() {
        use tdmd_online::ReconfigBudget;
        let scn = scenario();
        let budget = ReconfigBudget::windowed(1.0, 4);
        let policy = RepairPolicy::budgeted(budget);
        let report = run_chaos(
            &scn,
            policy,
            &ChaosConfig {
                mode: ChaosMode::Targeted {
                    period_us: 150,
                    mttr_us: 100,
                },
                seed: 0,
            },
        )
        .unwrap();
        assert!(report.failures > 0, "targeted kills fire");
        // Amortized bound: spend never exceeds the initial burst plus
        // everything refilled over the run (flow costs are zero here).
        let events = report.points.len() as f64;
        let cap = budget.burst + budget.refill_per_event * events;
        assert!(
            report.budget_spent <= cap + 1e-9,
            "spent {} > amortized cap {}",
            report.budget_spent,
            cap
        );
        // The unbudgeted run moves strictly more boxes, so a tight
        // bucket must have deferred something.
        let free = run_chaos(
            &scn,
            RepairPolicy::default(),
            &ChaosConfig {
                mode: ChaosMode::Targeted {
                    period_us: 150,
                    mttr_us: 100,
                },
                seed: 0,
            },
        )
        .unwrap();
        assert!(
            report.boxes_moved < free.boxes_moved || report.budget_deferrals > 0,
            "a tight budget either moves less or records deferrals"
        );
    }

    #[test]
    fn empty_scenario_reports_nothing() {
        let scn = DynamicScenario {
            spans: vec![],
            ..scenario()
        };
        let report = run_chaos(
            &scn,
            RepairPolicy::default(),
            &ChaosConfig {
                mode: ChaosMode::Independent {
                    mtbf_us: 10,
                    mttr_us: 10,
                },
                seed: 1,
            },
        )
        .unwrap();
        assert_eq!(report.failures, 0);
        assert!(report.points.is_empty());
    }
}
