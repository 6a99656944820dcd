//! Engine telemetry: process-global counters on the greedy hot paths.
//!
//! The static engine ([`crate::algorithms::engine`]) runs deep inside
//! every solver API and returns only a deployment, so its counters
//! live in one always-compiled global instead of in any return value
//! — relaxed atomic increments, safe across threads, costing one
//! `fetch_add` next to loops that already scan whole CSR rows. This
//! is tdmd-core's one record; the joint solver counts its rounds in
//! its `JointSolution`, and callers time their own calls.
//!
//! Usage pattern (the `tdmd bench` command, perf tests):
//!
//! ```
//! let before = tdmd_core::obs::snapshot();
//! // ... run a solver ...
//! let spent = tdmd_core::obs::snapshot().delta_since(&before);
//! println!("{} marginal-gain evaluations", spent.gain_evals);
//! ```
//!
//! Deltas between snapshots taken around a solver call are exact when
//! nothing else solves concurrently; concurrent solvers simply see
//! their counts merged (telemetry, not accounting).

use tdmd_obs::Counter;

/// The engine's counter set. See [`ENGINE`].
#[derive(Debug, Default)]
pub struct EngineCounters {
    /// Candidate scorings: one per marginal-decrement evaluation.
    pub gain_evals: Counter,
    /// Feasibility-guard evaluations (one per guarded greedy round).
    pub guard_checks: Counter,
    /// Guard activations: rounds where the budget was tight and the
    /// guard restricted the candidate set (the paper's "can only
    /// deploy on v2" rule firing).
    pub guard_activations: Counter,
}

/// The process-global engine counters.
pub static ENGINE: EngineCounters = EngineCounters {
    gain_evals: Counter::new(),
    guard_checks: Counter::new(),
    guard_activations: Counter::new(),
};

/// Point-in-time copy of [`ENGINE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineSnapshot {
    /// See [`EngineCounters::gain_evals`].
    pub gain_evals: u64,
    /// See [`EngineCounters::guard_checks`].
    pub guard_checks: u64,
    /// See [`EngineCounters::guard_activations`].
    pub guard_activations: u64,
}

impl EngineSnapshot {
    /// Counts accumulated between `earlier` and `self` (saturating,
    /// so an interleaved [`reset`] never underflows).
    pub fn delta_since(&self, earlier: &EngineSnapshot) -> EngineSnapshot {
        EngineSnapshot {
            gain_evals: self.gain_evals.saturating_sub(earlier.gain_evals),
            guard_checks: self.guard_checks.saturating_sub(earlier.guard_checks),
            guard_activations: self
                .guard_activations
                .saturating_sub(earlier.guard_activations),
        }
    }
}

/// Reads every counter.
pub fn snapshot() -> EngineSnapshot {
    EngineSnapshot {
        gain_evals: ENGINE.gain_evals.get(),
        guard_checks: ENGINE.guard_checks.get(),
        guard_activations: ENGINE.guard_activations.get(),
    }
}

/// Zeroes every counter. Prefer [`EngineSnapshot::delta_since`] in
/// code that can run concurrently with other solves (tests!).
pub fn reset() {
    ENGINE.gain_evals.reset();
    ENGINE.guard_checks.reset();
    ENGINE.guard_activations.reset();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::gtp::gtp_budgeted;
    use crate::paper::fig1_instance;

    #[test]
    fn solves_move_the_counters() {
        let inst = fig1_instance(2);
        let before = snapshot();
        gtp_budgeted(&inst, 2).unwrap();
        let spent = snapshot().delta_since(&before);
        assert!(spent.gain_evals > 0, "GTP scores candidates");
        assert!(spent.guard_checks > 0, "budgeted GTP consults the guard");
        assert!(
            spent.guard_activations > 0,
            "fig1 k=2 is the paper's tight-budget walk-through"
        );
    }

    #[test]
    fn delta_since_saturates_instead_of_underflowing() {
        let hi = EngineSnapshot {
            gain_evals: 10,
            ..Default::default()
        };
        let lo = EngineSnapshot::default();
        assert_eq!(lo.delta_since(&hi).gain_evals, 0);
        assert_eq!(hi.delta_since(&lo).gain_evals, 10);
    }
}
