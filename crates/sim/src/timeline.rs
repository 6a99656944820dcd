//! Dynamic-workload timeline simulation.
//!
//! The paper places middleboxes for a static workload; production
//! networks see flows arrive and depart (the adaptive-provisioning
//! line of work it cites, Fei et al. \[11\]). This module simulates a
//! timeline of flow spans under three policies:
//!
//! * **static** — place once for the *union* workload, keep the plan;
//! * **replanned** — rerun the placement algorithm at every arrival /
//!   departure event on the then-active flows, warm-started from the
//!   previous event's deployment (the incumbent plan is kept whenever
//!   it is feasible and beats the fresh solve);
//! * **incremental** — drive [`tdmd_online::OnlineEngine`] over the
//!   event stream, never solving from scratch except when its
//!   [`RepairPolicy`] triggers a drift replan.
//!
//! Comparing them quantifies how much bandwidth a static plan leaves
//! on the table, and how close bounded-work incremental repair gets to
//! per-event replanning — extension experiments over the paper.
//!
//! All policies report on the same interval grid (every span start and
//! end), produced by a single event sweep ([`DynamicScenario`]'s
//! interval accounting) so the per-policy timelines are directly
//! comparable point by point.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tdmd_core::algorithms::Algorithm;
use tdmd_core::error::TdmdError;
use tdmd_core::feasibility::is_feasible;
use tdmd_core::objective::bandwidth_of;
use tdmd_core::{Deployment, HopCount, Instance};
use tdmd_graph::DiGraph;
use tdmd_online::{events_from_spans, Event, OnlineEngine, OnlineError};
use tdmd_traffic::Flow;

pub use tdmd_online::{FlowSpan, RepairPolicy};

/// A dynamic scenario: a fixed topology with flows coming and going.
#[derive(Debug, Clone)]
pub struct DynamicScenario {
    /// The topology.
    pub graph: DiGraph,
    /// Traffic-changing ratio λ.
    pub lambda: f64,
    /// Middlebox budget per (re)placement.
    pub k: usize,
    /// Flow lifetimes.
    pub spans: Vec<FlowSpan>,
}

/// The state of the network over one inter-event interval.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelinePoint {
    /// Interval start time.
    pub time_us: u64,
    /// Number of active flows.
    pub active_flows: usize,
    /// Total bandwidth consumption of the active flows under the
    /// policy's deployment.
    pub bandwidth: f64,
    /// Middleboxes in use.
    pub middleboxes: usize,
}

impl DynamicScenario {
    /// Sorted, deduplicated event times (arrivals and departures).
    fn event_times(&self) -> Vec<u64> {
        let mut ts: Vec<u64> = self
            .spans
            .iter()
            .flat_map(|s| [s.start_us, s.end_us])
            .collect();
        ts.sort_unstable();
        ts.dedup();
        ts
    }

    /// One sweep over the event stream yielding, per interval start,
    /// the then-active flows re-densified to fresh ids (in span
    /// order). This is the single source of interval accounting shared
    /// by every policy — O(events · active) total instead of the
    /// per-policy O(events · spans) rescans it replaces.
    fn intervals(&self) -> Vec<(u64, Vec<Flow>)> {
        let events = events_from_spans(&self.spans);
        let mut active: BTreeSet<usize> = BTreeSet::new();
        let mut next = 0usize;
        let mut out = Vec::new();
        for t in self.event_times() {
            while next < events.len() && events[next].time_us <= t {
                match events[next].event {
                    Event::FlowArrived { key, .. } => {
                        active.insert(key as usize);
                    }
                    Event::FlowDeparted { key } => {
                        active.remove(&(key as usize));
                    }
                    // Spans lower only to arrivals/departures; failure
                    // events belong to the chaos harness's streams.
                    _ => {}
                }
                next += 1;
            }
            let flows = active
                .iter()
                .enumerate()
                .map(|(i, &s)| {
                    let f = &self.spans[s].flow;
                    Flow::new(i as u32, f.rate, f.path.clone())
                })
                .collect();
            out.push((t, flows));
        }
        out
    }

    /// The union workload (every flow that is ever *active*),
    /// densified. Zero-length spans are excluded — under the
    /// half-open `[start, end)` convention they never exist, so they
    /// must not influence the static plan either.
    fn union_flows(&self) -> Vec<Flow> {
        self.spans
            .iter()
            .filter(|s| s.start_us < s.end_us)
            .enumerate()
            .map(|(i, s)| Flow::new(i as u32, s.flow.rate, s.flow.path.clone()))
            .collect()
    }

    fn instance(&self, flows: Vec<Flow>) -> Result<Instance, TdmdError> {
        Instance::new(self.graph.clone(), flows, self.lambda, self.k)
    }
}

/// Walks the interval grid, asking `deployment_for` for a plan on
/// every non-empty interval.
fn evaluate(
    scn: &DynamicScenario,
    deployment_for: &mut dyn FnMut(&Instance) -> Result<Deployment, TdmdError>,
) -> Result<Vec<TimelinePoint>, TdmdError> {
    let mut out = Vec::new();
    for (t, active) in scn.intervals() {
        if active.is_empty() {
            out.push(TimelinePoint {
                time_us: t,
                active_flows: 0,
                bandwidth: 0.0,
                middleboxes: 0,
            });
            continue;
        }
        let inst = scn.instance(active)?;
        let dep = deployment_for(&inst)?;
        out.push(TimelinePoint {
            time_us: t,
            active_flows: inst.flows().len(),
            bandwidth: bandwidth_of(&inst, &dep),
            middleboxes: dep.len(),
        });
    }
    Ok(out)
}

/// Static policy: place once for the union workload, evaluate the
/// frozen plan on every interval.
///
/// # Errors
/// Propagates placement failures ([`TdmdError::Infeasible`] etc.).
pub fn simulate_static(
    scn: &DynamicScenario,
    algorithm: Algorithm,
    seed: u64,
) -> Result<Vec<TimelinePoint>, TdmdError> {
    let union = scn.instance(scn.union_flows())?;
    let mut rng = StdRng::seed_from_u64(seed);
    let plan = algorithm.run(&union, &mut rng)?;
    evaluate(scn, &mut |_inst| Ok(plan.clone()))
}

/// Replanned policy with optional warm start (see
/// [`simulate_replanned`]).
fn simulate_replanned_with(
    scn: &DynamicScenario,
    algorithm: Algorithm,
    seed: u64,
    warm_start: bool,
) -> Result<Vec<TimelinePoint>, TdmdError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut prev: Option<Deployment> = None;
    evaluate(scn, &mut |inst| {
        let incumbent = prev.clone().filter(|p| warm_start && is_feasible(inst, p));
        let chosen = match (algorithm.run(inst, &mut rng), incumbent) {
            // Keep the incumbent only when it strictly beats the
            // fresh solve — ties go to the fresh plan, so a
            // non-warm-started run is never better.
            (Ok(fresh), Some(p)) => {
                if bandwidth_of(inst, &p) < bandwidth_of(inst, &fresh) {
                    p
                } else {
                    fresh
                }
            }
            (Ok(fresh), None) => fresh,
            // The solver failed on this interval but the previous
            // plan still covers it: ride the incumbent.
            (Err(_), Some(p)) => p,
            (Err(e), None) => return Err(e),
        };
        prev = Some(chosen.clone());
        Ok(chosen)
    })
}

/// Replanned policy: rerun the algorithm at every event on the active
/// flows, warm-started from the previous event's deployment — the
/// incumbent plan is kept when it is still feasible and strictly
/// cheaper than the fresh solve (re-solving after a departure can
/// otherwise *lose* ground with a greedy algorithm), and rides
/// through intervals where the fresh solve fails.
///
/// # Errors
/// Propagates placement failures from any event with no feasible
/// incumbent to fall back on.
pub fn simulate_replanned(
    scn: &DynamicScenario,
    algorithm: Algorithm,
    seed: u64,
) -> Result<Vec<TimelinePoint>, TdmdError> {
    simulate_replanned_with(scn, algorithm, seed, true)
}

/// Incremental policy: drive an [`OnlineEngine`] (hop-count pricing)
/// over the event stream and report the maintained state on the same
/// interval grid as the other policies.
///
/// # Errors
/// [`TdmdError::BadLambda`] / [`TdmdError::InvalidPath`] when the
/// scenario's λ or a span's path is invalid for the topology.
pub fn simulate_incremental(
    scn: &DynamicScenario,
    policy: RepairPolicy,
) -> Result<Vec<TimelinePoint>, TdmdError> {
    let mut engine =
        OnlineEngine::new(scn.graph.clone(), scn.lambda, scn.k, HopCount, policy).map_err(lift)?;
    let events = events_from_spans(&scn.spans);
    let mut next = 0usize;
    let mut out = Vec::new();
    for t in scn.event_times() {
        while next < events.len() && events[next].time_us <= t {
            engine.apply(&events[next].event).map_err(lift)?;
            next += 1;
        }
        out.push(TimelinePoint {
            time_us: t,
            // The incremental engine's running sum can end a drained
            // stream at -0.0, which CSV sinks print as "-0".
            bandwidth: tdmd_obs::normalize_zero(engine.exact_objective()),
            active_flows: engine.active_count(),
            middleboxes: engine.deployment().len(),
        });
    }
    Ok(out)
}

/// Maps stream-layer errors onto the core error type.
pub(crate) fn lift(err: OnlineError) -> TdmdError {
    match err {
        OnlineError::BadLambda(l) => TdmdError::BadLambda(l),
        // Span keys are span indices, densified flow ids elsewhere.
        OnlineError::InvalidFlow { key }
        | OnlineError::DuplicateKey { key }
        | OnlineError::UnknownKey { key } => TdmdError::InvalidPath { flow: key as u32 },
        OnlineError::UnknownVertex { vertex }
        | OnlineError::AlreadyFailed { vertex }
        | OnlineError::NotFailed { vertex }
        | OnlineError::NoMiddleboxAt { vertex } => TdmdError::FailedVertex { vertex },
        OnlineError::BadBudget { reason } => TdmdError::BadReconfigBudget { reason },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdmd_core::paper::fig5_graph;

    /// Fig. 5 tree with the four flows arriving/leaving in phases.
    fn scenario() -> DynamicScenario {
        let mk = |rate, path: Vec<u32>| Flow::new(0, rate, path);
        DynamicScenario {
            graph: fig5_graph(),
            lambda: 0.5,
            k: 2,
            spans: vec![
                FlowSpan {
                    start_us: 0,
                    end_us: 100,
                    flow: mk(2, vec![3, 1, 0]),
                },
                FlowSpan {
                    start_us: 20,
                    end_us: 80,
                    flow: mk(1, vec![7, 5, 2, 0]),
                },
                FlowSpan {
                    start_us: 40,
                    end_us: 120,
                    flow: mk(5, vec![6, 5, 2, 0]),
                },
                FlowSpan {
                    start_us: 60,
                    end_us: 90,
                    flow: mk(1, vec![4, 1, 0]),
                },
            ],
        }
    }

    #[test]
    fn event_grid_covers_all_transitions() {
        let scn = scenario();
        let pts = simulate_static(&scn, Algorithm::Dp, 1).unwrap();
        let times: Vec<u64> = pts.iter().map(|p| p.time_us).collect();
        assert_eq!(times, vec![0, 20, 40, 60, 80, 90, 100, 120]);
        // Active-flow counts follow the spans.
        let counts: Vec<usize> = pts.iter().map(|p| p.active_flows).collect();
        assert_eq!(counts, vec![1, 2, 3, 4, 3, 2, 1, 0]);
    }

    #[test]
    fn replanned_dp_never_loses_to_static_dp() {
        let scn = scenario();
        let stat = simulate_static(&scn, Algorithm::Dp, 1).unwrap();
        let re = simulate_replanned(&scn, Algorithm::Dp, 1).unwrap();
        for (s, r) in stat.iter().zip(&re) {
            assert!(
                r.bandwidth <= s.bandwidth + 1e-9,
                "t={}: replanned {} vs static {}",
                s.time_us,
                r.bandwidth,
                s.bandwidth
            );
        }
        // And it strictly wins somewhere on this scenario.
        assert!(re
            .iter()
            .zip(&stat)
            .any(|(r, s)| r.bandwidth < s.bandwidth - 1e-9));
    }

    #[test]
    fn warm_start_never_loses_to_cold_replanning() {
        let scn = scenario();
        for algo in [Algorithm::Gtp, Algorithm::Dp] {
            let warm = simulate_replanned_with(&scn, algo, 1, true).unwrap();
            let cold = simulate_replanned_with(&scn, algo, 1, false).unwrap();
            for (w, c) in warm.iter().zip(&cold) {
                assert!(
                    w.bandwidth <= c.bandwidth + 1e-9,
                    "t={}: warm {} vs cold {}",
                    w.time_us,
                    w.bandwidth,
                    c.bandwidth
                );
            }
        }
    }

    #[test]
    fn incremental_forced_replan_matches_cold_replanned_gtp() {
        let scn = scenario();
        let inc = simulate_incremental(&scn, RepairPolicy::forced_replan()).unwrap();
        let re = simulate_replanned_with(&scn, Algorithm::Gtp, 1, false).unwrap();
        assert_eq!(inc.len(), re.len());
        for (i, r) in inc.iter().zip(&re) {
            assert_eq!(i.time_us, r.time_us);
            assert_eq!(i.active_flows, r.active_flows);
            assert!(
                (i.bandwidth - r.bandwidth).abs() < 1e-9,
                "t={}: incremental {} vs replanned {}",
                i.time_us,
                i.bandwidth,
                r.bandwidth
            );
        }
    }

    #[test]
    fn incremental_local_repair_tracks_the_grid() {
        let scn = scenario();
        let pts = simulate_incremental(&scn, RepairPolicy::default()).unwrap();
        let counts: Vec<usize> = pts.iter().map(|p| p.active_flows).collect();
        assert_eq!(counts, vec![1, 2, 3, 4, 3, 2, 1, 0]);
        assert!(pts.iter().all(|p| p.middleboxes <= scn.k));
    }

    #[test]
    fn empty_intervals_cost_nothing() {
        let scn = scenario();
        let pts = simulate_static(&scn, Algorithm::Gtp, 1).unwrap();
        let last = pts.last().unwrap();
        assert_eq!(last.active_flows, 0);
        assert_eq!(last.bandwidth, 0.0);
    }

    #[test]
    fn budget_respected_at_every_event() {
        let scn = scenario();
        for pts in [
            simulate_replanned(&scn, Algorithm::Dp, 1).unwrap(),
            simulate_replanned(&scn, Algorithm::Gtp, 1).unwrap(),
        ] {
            assert!(pts.iter().all(|p| p.middleboxes <= 2));
        }
    }

    #[test]
    fn no_spans_means_empty_timeline() {
        let scn = DynamicScenario {
            spans: vec![],
            ..scenario()
        };
        assert!(simulate_static(&scn, Algorithm::Dp, 1).unwrap().is_empty());
        assert!(simulate_incremental(&scn, RepairPolicy::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn zero_length_spans_never_activate() {
        let mut scn = scenario();
        scn.spans.push(FlowSpan {
            start_us: 50,
            end_us: 50,
            flow: Flow::new(0, 9, vec![6, 5, 2, 0]),
        });
        for pts in [
            simulate_static(&scn, Algorithm::Dp, 1).unwrap(),
            simulate_replanned(&scn, Algorithm::Gtp, 1).unwrap(),
            simulate_incremental(&scn, RepairPolicy::default()).unwrap(),
        ] {
            // The degenerate span contributes an interval boundary but
            // never a flow.
            let at_50 = pts.iter().find(|p| p.time_us == 50).unwrap();
            assert_eq!(at_50.active_flows, 3);
            // Total bandwidth is everywhere unaffected by the phantom
            // flow: the span set with it removed agrees point-for-point
            // on the shared times.
        }
        let with_phantom = simulate_static(&scn, Algorithm::Dp, 1).unwrap();
        scn.spans.pop();
        let without = simulate_static(&scn, Algorithm::Dp, 1).unwrap();
        for p in &without {
            let q = with_phantom
                .iter()
                .find(|q| q.time_us == p.time_us)
                .unwrap();
            assert_eq!(p.bandwidth, q.bandwidth);
        }
    }

    #[test]
    fn identical_arrival_timestamps_coexist() {
        let scn = DynamicScenario {
            graph: fig5_graph(),
            lambda: 0.5,
            k: 2,
            spans: vec![
                FlowSpan {
                    start_us: 10,
                    end_us: 30,
                    flow: Flow::new(0, 2, vec![3, 1, 0]),
                },
                FlowSpan {
                    start_us: 10,
                    end_us: 40,
                    flow: Flow::new(0, 5, vec![6, 5, 2, 0]),
                },
            ],
        };
        for pts in [
            simulate_replanned(&scn, Algorithm::Gtp, 1).unwrap(),
            simulate_incremental(&scn, RepairPolicy::default()).unwrap(),
        ] {
            let at_10 = pts.iter().find(|p| p.time_us == 10).unwrap();
            assert_eq!(at_10.active_flows, 2, "both arrivals land at t=10");
            assert!(at_10.bandwidth > 0.0);
        }
    }

    #[test]
    fn last_departure_leaves_a_consistent_empty_state() {
        // After the final flow departs the active instance is empty —
        // every policy must report a zero point rather than panic.
        let scn = scenario();
        for pts in [
            simulate_replanned(&scn, Algorithm::Gtp, 1).unwrap(),
            simulate_incremental(&scn, RepairPolicy::forced_replan()).unwrap(),
            simulate_incremental(&scn, RepairPolicy::local_only(4)).unwrap(),
        ] {
            let last = pts.last().unwrap();
            assert_eq!(last.time_us, 120);
            assert_eq!(last.active_flows, 0);
            assert_eq!(last.bandwidth, 0.0);
            assert_eq!(last.middleboxes, 0, "budget fully reclaimed");
        }
    }

    #[test]
    fn invalid_span_paths_surface_as_errors() {
        let mut scn = scenario();
        // v3 → v7 is not an edge of the Fig. 5 tree.
        scn.spans.push(FlowSpan {
            start_us: 0,
            end_us: 10,
            flow: Flow::new(0, 1, vec![2, 6, 0]),
        });
        assert!(matches!(
            simulate_incremental(&scn, RepairPolicy::default()),
            Err(TdmdError::InvalidPath { .. })
        ));
        assert!(simulate_replanned(&scn, Algorithm::Gtp, 1).is_err());
    }
}
