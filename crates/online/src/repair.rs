//! The pluggable repair policy and its telemetry.
//!
//! After every event the engine restores solution quality with two
//! mechanisms, both bounded per event:
//!
//! * **Local repair** — drop deployed vertices whose removal is free
//!   (zero primary load), greedily fill spare budget from the lazy
//!   queue, then apply up to [`RepairPolicy::move_budget`] improving
//!   swaps (undeploy the lightest-loaded box, deploy the queue's best
//!   candidate) — each swap is accepted only when the candidate's
//!   exact gain exceeds the victim's primary load, a conservative
//!   upper bound on the removal loss, so every accepted swap strictly
//!   improves the objective.
//! * **Drift-triggered full replan** — every
//!   [`RepairPolicy::sample_every`] events the engine runs the
//!   from-scratch oracle
//!   ([`OnlineEngine::solve_oracle`](crate::OnlineEngine::solve_oracle))
//!   on the active flows, compiled from the live state in arrival
//!   order. If the incremental objective exceeds the oracle's
//!   by more than a factor of `1 + drift_eps`, the oracle's
//!   deployment is adopted. With [`RepairPolicy::force_replan`] the
//!   oracle is adopted *unconditionally on every event*, which makes
//!   the engine bit-for-bit equivalent to a per-event from-scratch
//!   solve — the property tests pin that equivalence.
//!
//! Both mechanisms are additionally subject to the policy's
//! [`ReconfigBudget`]: every chargeable move
//! (greedy add, swap, adopted replan) must be admitted by the
//! migration token bucket, swaps must beat their migration cost by
//! the configured hysteresis margin, and a replan whose deployment
//! diff the bucket cannot cover is *deferred* — repair falls back to
//! budget-capped local repair instead (see [`crate::budget`]). Under
//! the default [`ReconfigBudget::unlimited`](crate::ReconfigBudget::unlimited)
//! budget no move is ever deferred and the engine is bitwise the
//! unbudgeted engine described above.
//!
//! The documented bound: at every sampled event where the replan was
//! admitted (always, under an unlimited or sufficient budget — see
//! DESIGN.md §15) the objective is within `1 + drift_eps` of the
//! from-scratch solve (exactly equal under `force_replan`); between
//! admitted samples only budget-capped local repair runs, so the
//! instantaneous gap is bounded by the drift accumulated since the
//! last admitted sample, with every deferral counted in
//! [`RepairStats::budget_deferrals`].
//!
//! # Degradation-aware repair
//!
//! Failure events get one extra mechanism. A
//! [`MiddleboxFailed`](crate::Event::MiddleboxFailed) /
//! [`VertexDown`](crate::Event::VertexDown) frees the victim's budget
//! slot, and the ordinary greedy fill immediately spends it on the
//! best surviving candidate from the cross-event CELF queue. When
//! that still leaves flows degraded (no surviving middlebox on their
//! path) and [`RepairPolicy::replan_on_degraded`] is set, the engine
//! falls back to an off-schedule drift check: the from-scratch oracle
//! is consulted right away (failed vertices stripped from its answer)
//! and adopted under the usual `1 + drift_eps` rule. Under active
//! failures the oracle-equality guarantee is relaxed to *safety*: no
//! repair mechanism ever deploys on, or leaves a flow assigned to, a
//! failed vertex.

use serde::{Deserialize, Serialize};

use crate::budget::ReconfigBudget;

/// Repair configuration of an [`OnlineEngine`](crate::OnlineEngine).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairPolicy {
    /// Maximum improving swaps applied per event.
    pub move_budget: usize,
    /// Relative drift tolerance ε: a sampled incremental objective
    /// above `(1 + ε) ·` oracle triggers adoption of the oracle
    /// deployment.
    pub drift_eps: f64,
    /// Sample the from-scratch oracle every this many events
    /// (`0` disables drift sampling entirely).
    pub sample_every: u64,
    /// Adopt the oracle on every event (testing / oracle-tracking
    /// mode; equivalent to the timeline's "replanned" policy).
    pub force_replan: bool,
    /// After a failure event that leaves flows degraded (no surviving
    /// on-path middlebox) even once local repair has spent the freed
    /// budget slot, run an off-schedule drift check so a full replan
    /// can recover coverage without waiting for the next sample.
    pub replan_on_degraded: bool,
    /// Migration-cost model and amortized reconfiguration budget every
    /// chargeable repair move is admitted against (see
    /// [`crate::budget`]). The default
    /// [`ReconfigBudget::unlimited`] never defers a move.
    pub budget: ReconfigBudget,
}

impl Default for RepairPolicy {
    fn default() -> Self {
        Self {
            move_budget: 4,
            drift_eps: 0.05,
            sample_every: 256,
            force_replan: false,
            replan_on_degraded: true,
            budget: ReconfigBudget::unlimited(),
        }
    }
}

impl RepairPolicy {
    /// Local-repair-only policy: never consults the oracle, not even
    /// after a degrading failure.
    pub fn local_only(move_budget: usize) -> Self {
        Self {
            move_budget,
            drift_eps: f64::INFINITY,
            sample_every: 0,
            force_replan: false,
            replan_on_degraded: false,
            budget: ReconfigBudget::unlimited(),
        }
    }

    /// Oracle-tracking policy: replan from scratch on every event.
    pub fn forced_replan() -> Self {
        Self {
            move_budget: 0,
            drift_eps: 0.0,
            sample_every: 1,
            force_replan: true,
            replan_on_degraded: true,
            budget: ReconfigBudget::unlimited(),
        }
    }

    /// The default policy running under `budget` — the "operating
    /// under a migration budget" configuration of the README
    /// quickstart.
    pub fn budgeted(budget: ReconfigBudget) -> Self {
        Self {
            budget,
            ..Self::default()
        }
    }
}

/// Per-engine repair telemetry.
///
/// Serializable because engine snapshots
/// ([`crate::snapshot::EngineSnapshot`]) carry it across a
/// snapshot/restore round trip: `events` drives the
/// [`RepairPolicy::sample_every`] schedule, so a restored engine must
/// resume the drift-sampling cadence exactly where the live one left
/// off. Every field is finite (`last_drift` is a ratio of finite
/// objectives, 0 when never sampled), so the JSON round trip is
/// lossless.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RepairStats {
    /// Events applied.
    pub events: u64,
    /// Arrival events.
    pub arrivals: u64,
    /// Departure events.
    pub departures: u64,
    /// Greedy additions committed.
    pub adds: u64,
    /// Free (zero-loss) drops.
    pub drops: u64,
    /// Improving swaps applied.
    pub swaps: u64,
    /// Oracle solves sampled.
    pub drift_samples: u64,
    /// Full replans adopted.
    pub replans: u64,
    /// Oracle solves that failed (infeasible budget).
    pub oracle_failures: u64,
    /// Failure events applied ([`MiddleboxFailed`](crate::Event::MiddleboxFailed)
    /// + [`VertexDown`](crate::Event::VertexDown)).
    pub failures: u64,
    /// Recovery events applied.
    pub recoveries: u64,
    /// Flows orphaned by failures (re-pinned or degraded).
    pub flows_orphaned: u64,
    /// Orphaned flows left degraded (no surviving on-path middlebox
    /// at the instant of the failure; repair may re-cover them later).
    pub flows_degraded: u64,
    /// Relative drift observed at the last sample
    /// (`objective / oracle − 1`; 0 when never sampled).
    pub last_drift: f64,
    /// Middleboxes deployed/undeployed by chargeable repair moves
    /// (adds, both legs of a swap, the symmetric difference of an
    /// adopted replan; free zero-load drops are exempt).
    ///
    /// The four budget fields carry `#[serde(default)]` so pre-budget
    /// snapshot documents still *parse* — restore then rejects them on
    /// the snapshot version, never silently zero-filling live budget
    /// state.
    #[serde(default)]
    pub boxes_moved: u64,
    /// Flow→middlebox assignment changes caused by chargeable repair
    /// moves (failure-induced orphaning is not charged).
    #[serde(default)]
    pub flows_reassigned: u64,
    /// Repair moves skipped because the reconfiguration token bucket
    /// could not cover their migration cost.
    #[serde(default)]
    pub budget_deferrals: u64,
    /// Total migration cost debited from the token bucket.
    #[serde(default)]
    pub budget_spent: f64,
}
