//! Schedule-perturbation race harness: adversarial reruns of the
//! batched online kernel against its sequential oracle.
//!
//! The determinism story of the online engine rests on one contract:
//! [`OnlineEngine::apply_batch`] under a forced-replan policy is
//! **bitwise identical** to one-by-one [`OnlineEngine::apply`] for
//! *every* partition of the event stream into batches.
//!
//! Unit and property tests exercise it on friendly inputs; this
//! module attacks it. [`run_race`] replays seeded churn streams under
//! randomized batch partitions, hard-failing on the first bitwise
//! divergence from the sequential oracle.
//!
//! The kernel under test is injected as a closure
//! ([`batch_race_with`]), so the harness itself is testable: the
//! saboteur test below hands it a deliberately tampered applier and
//! asserts the divergence is caught. CI wires the production closure
//! via `cargo xtask race` → `tdmd race`.
//!
//! Everything here is seeded: a reported divergence names the seed,
//! the perturbation, and both fingerprints, and replays exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdmd_core::{Deployment, HopCount};
use tdmd_graph::generators::random::erdos_renyi_connected;
use tdmd_graph::traversal::bfs;
use tdmd_graph::{DiGraph, NodeId};
use tdmd_online::{Event, FlowKey, OnlineEngine, OnlineError, RepairPolicy};

/// Tuning for [`run_race`]: how many seeded scenarios, how large, and
/// how many batch partitions per stream.
#[derive(Debug, Clone)]
pub struct RaceConfig {
    /// Scenario seeds; each seed generates one topology plus one
    /// churn stream.
    pub seeds: Vec<u64>,
    /// Vertices per generated topology.
    pub nodes: usize,
    /// Events in the churn stream.
    pub events: usize,
    /// Random batch partitions tried per churn stream.
    pub partitions: usize,
}

impl Default for RaceConfig {
    /// The CI profile: 4 scenarios, 12-vertex topologies, 48-event
    /// streams, 6 partitions. Small enough for a debug-build test,
    /// adversarial enough to have caught every nondeterminism bug
    /// this repo has had (map-iteration merges, accumulation-order
    /// drift).
    fn default() -> Self {
        Self {
            seeds: vec![1, 2, 3, 4],
            nodes: 12,
            events: 48,
            partitions: 6,
        }
    }
}

/// One bitwise divergence between a perturbed run and its oracle.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Scenario seed that reproduces it.
    pub seed: u64,
    /// The perturbation applied (partition seed, or the oracle itself).
    pub perturbation: String,
    /// Oracle-vs-observed fingerprints, or the error the run died with.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[seed={}] {}: {}",
            self.seed, self.perturbation, self.detail
        )
    }
}

/// Outcome of a [`run_race`] sweep.
#[derive(Debug, Clone, Default)]
pub struct RaceReport {
    /// Batch-partition replays compared against the oracle.
    pub batch_trials: usize,
    /// Every bitwise divergence found (empty means the contract held).
    pub divergences: Vec<Divergence>,
}

impl RaceReport {
    /// True when every perturbed run matched its oracle bitwise.
    pub fn passed(&self) -> bool {
        self.divergences.is_empty()
    }

    /// Human-readable summary; one line per divergence after the
    /// verdict line.
    pub fn render(&self) -> String {
        let mut out = format!(
            "race: {} — {} batch trials, {} divergence(s)\n",
            if self.passed() { "PASS" } else { "FAIL" },
            self.batch_trials,
            self.divergences.len()
        );
        for d in &self.divergences {
            out.push_str(&format!("  {d}\n"));
        }
        out
    }
}

/// Engine fingerprint compared bitwise across the batch race: the
/// deployment, the active-flow count, and both objectives' raw bits
/// (`exact_objective` from scratch, `objective` as maintained — the
/// maintained one is the accumulation-order canary).
#[derive(Debug, Clone, PartialEq)]
struct EngineFingerprint {
    deployment: Deployment,
    active: usize,
    exact_bits: u64,
    maintained_bits: u64,
}

impl EngineFingerprint {
    fn of(e: &OnlineEngine<HopCount>) -> Self {
        Self {
            deployment: e.deployment().clone(),
            active: e.active_count(),
            exact_bits: e.exact_objective().to_bits(),
            maintained_bits: e.objective().to_bits(),
        }
    }
}

impl std::fmt::Display for EngineFingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "vertices={:?} active={} exact_bits={:#018x} maintained_bits={:#018x}",
            self.deployment.vertices(),
            self.active,
            self.exact_bits,
            self.maintained_bits
        )
    }
}

fn fresh_engine(g: &DiGraph, k: usize) -> Result<OnlineEngine<HopCount>, OnlineError> {
    OnlineEngine::new(g.clone(), 0.5, k, HopCount, RepairPolicy::forced_replan())
}

/// Races `applier` against the one-by-one sequential oracle: the same
/// churn stream is replayed under `partitions` seeded random batch
/// partitions, and the end-state fingerprint (deployment, active
/// count, both objectives bitwise) must match the engine that applied
/// every event individually. Returns the divergences found and the
/// number of perturbed replays.
///
/// `applier(engine, batch)` is the kernel under test — production
/// passes [`OnlineEngine::apply_batch`]; saboteur tests pass a closure
/// that tampers with the batch to prove detection works.
pub fn batch_race_with<F>(
    g: &DiGraph,
    k: usize,
    seed: u64,
    events: &[Event],
    partitions: usize,
    mut applier: F,
) -> (usize, Vec<Divergence>)
where
    F: FnMut(&mut OnlineEngine<HopCount>, &[Event]) -> Result<(), OnlineError>,
{
    let mut divergences = Vec::new();
    let mut trials = 0usize;
    let oracle = match fresh_engine(g, k).and_then(|mut e| {
        for ev in events {
            e.apply(ev)?;
        }
        Ok(EngineFingerprint::of(&e))
    }) {
        Ok(fp) => fp,
        Err(e) => {
            divergences.push(Divergence {
                seed,
                perturbation: "oracle".to_string(),
                detail: format!("sequential oracle failed: {e}"),
            });
            return (trials, divergences);
        }
    };
    for p in 0..partitions {
        trials += 1;
        let part_seed = seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(p as u64 + 1));
        let perturbation = format!("partition_seed={part_seed:#x}");
        let run = fresh_engine(g, k).and_then(|mut e| {
            for batch in random_partition(events, part_seed) {
                applier(&mut e, batch)?;
            }
            Ok(EngineFingerprint::of(&e))
        });
        match run {
            Ok(fp) if fp == oracle => {}
            Ok(fp) => divergences.push(Divergence {
                seed,
                perturbation,
                detail: format!("oracle {oracle} != perturbed {fp}"),
            }),
            Err(e) => divergences.push(Divergence {
                seed,
                perturbation,
                detail: format!("perturbed run failed: {e}"),
            }),
        }
    }
    (trials, divergences)
}

/// BFS shortest path `src → dst`; the connected generator guarantees
/// the walk terminates.
fn shortest_path(g: &DiGraph, src: NodeId, dst: NodeId) -> Vec<NodeId> {
    let r = bfs(g, src);
    let mut path = vec![dst];
    let mut v = dst;
    while v != src {
        v = r.parent[v as usize];
        path.push(v);
    }
    path.reverse();
    path
}

/// A seeded mixed churn stream (arrivals, departures of live flows,
/// at most one failed vertex at a time) — the same event mix the
/// online-engine property tests pin semantics with.
fn mixed_events(g: &DiGraph, seed: u64, len: usize) -> Vec<Event> {
    let n = g.node_count() as NodeId;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut active: Vec<FlowKey> = Vec::new();
    let mut failed: Option<NodeId> = None;
    let mut next_key: FlowKey = 0;
    let mut out = Vec::new();
    for _ in 0..len {
        match rng.gen_range(0..8) {
            0..=3 => {
                let src = rng.gen_range(0..n);
                let mut dst = rng.gen_range(0..n);
                while dst == src {
                    dst = rng.gen_range(0..n);
                }
                out.push(Event::FlowArrived {
                    key: next_key,
                    rate: rng.gen_range(1..=10),
                    path: shortest_path(g, src, dst),
                });
                active.push(next_key);
                next_key += 1;
            }
            4..=5 if !active.is_empty() => {
                let i = rng.gen_range(0..active.len());
                out.push(Event::FlowDeparted {
                    key: active.swap_remove(i),
                });
            }
            6 if failed.is_none() => {
                let v = rng.gen_range(0..n);
                failed = Some(v);
                out.push(Event::VertexDown { vertex: v });
            }
            7 => {
                if let Some(v) = failed.take() {
                    out.push(Event::MiddleboxRecovered { vertex: v });
                }
            }
            _ => {}
        }
    }
    out
}

/// Splits `events` into a seeded random partition of non-empty
/// batches (lengths `1..=5`).
fn random_partition(events: &[Event], seed: u64) -> Vec<&[Event]> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut rest = events;
    while !rest.is_empty() {
        let take = rng.gen_range(1..=5usize).min(rest.len());
        let (head, tail) = rest.split_at(take);
        out.push(head);
        rest = tail;
    }
    out
}

/// Runs the full schedule-perturbation sweep with the **production**
/// kernel: [`OnlineEngine::apply_batch`] against one-by-one apply over
/// seeded partitions. A non-empty [`RaceReport::divergences`] is a
/// determinism-contract violation; `cargo xtask race` turns it into a
/// hard CI failure.
pub fn run_race(cfg: &RaceConfig) -> RaceReport {
    let mut report = RaceReport::default();
    for &seed in &cfg.seeds {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi_connected(cfg.nodes, 0.3, &mut rng);
        let events = mixed_events(&g, seed ^ 0xBA7C, cfg.events);
        // Budget n: with ≤ 1 failed vertex and ≥ 2-vertex paths the
        // replan oracle stays feasible at every prefix.
        let (trials, divs) =
            batch_race_with(&g, cfg.nodes, seed, &events, cfg.partitions, |e, batch| {
                e.apply_batch(batch)
            });
        report.batch_trials += trials;
        report.divergences.extend(divs);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> RaceConfig {
        RaceConfig {
            seeds: vec![11, 12],
            nodes: 8,
            events: 24,
            partitions: 3,
        }
    }

    #[test]
    fn production_kernels_pass_the_race() {
        let report = run_race(&small_cfg());
        assert!(report.passed(), "{}", report.render());
        assert!(report.batch_trials > 0);
    }

    /// A batch applier that smuggles an extra arrival into multi-event
    /// batches diverges from the one-by-one oracle (the active count
    /// can never match) and must be caught.
    #[test]
    fn injected_batch_nondeterminism_is_detected() {
        let cfg = small_cfg();
        let mut rng = StdRng::seed_from_u64(11);
        let g = erdos_renyi_connected(cfg.nodes, 0.3, &mut rng);
        let events = mixed_events(&g, 11 ^ 0xBA7C, cfg.events);
        let ghost_path = shortest_path(&g, 0, 1);
        let mut ghost_key: FlowKey = 1_000_000;
        let (_, divs) = batch_race_with(&g, cfg.nodes, 11, &events, 3, move |e, batch| {
            // Every replay smuggles one extra arrival before the first
            // batch, so the active count can never match the oracle.
            if ghost_key < 1_000_003 {
                e.apply_batch(&[Event::FlowArrived {
                    key: ghost_key,
                    rate: 1,
                    path: ghost_path.clone(),
                }])?;
                ghost_key += 1;
            }
            e.apply_batch(batch)
        });
        assert!(
            !divs.is_empty(),
            "tampered batch stream escaped detection: {divs:?}"
        );
    }

    #[test]
    fn report_render_names_every_divergence() {
        let report = RaceReport {
            batch_trials: 2,
            divergences: vec![Divergence {
                seed: 7,
                perturbation: "partition_seed=0x3".to_string(),
                detail: "oracle x != perturbed y".to_string(),
            }],
        };
        assert!(!report.passed());
        let text = report.render();
        assert!(text.contains("FAIL"));
        assert!(text.contains("[seed=7] partition_seed=0x3"));
    }

    #[test]
    fn generators_are_deterministic_under_seed() {
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(5);
        let g1 = erdos_renyi_connected(8, 0.3, &mut r1);
        let g2 = erdos_renyi_connected(8, 0.3, &mut r2);
        assert_eq!(mixed_events(&g1, 9, 30), mixed_events(&g2, 9, 30));
        let ev = mixed_events(&g1, 9, 30);
        assert_eq!(
            random_partition(&ev, 4)
                .iter()
                .map(|b| b.len())
                .collect::<Vec<_>>(),
            random_partition(&ev, 4)
                .iter()
                .map(|b| b.len())
                .collect::<Vec<_>>()
        );
    }
}
