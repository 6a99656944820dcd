//! The telemetry key registry — the stable schema of every metric the
//! workspace records through a [`Recorder`](crate::Recorder).
//!
//! Every key a crate passes to [`Recorder::count`](crate::Recorder::count)
//! or [`Recorder::sample`](crate::Recorder::sample) must be a constant
//! from this module, and every constant here must be emitted somewhere:
//! the `cargo xtask lint` `obs-keys` rule checks both directions, and a
//! golden test pins [`ALL`] so renames are a deliberate schema change
//! (the keys surface verbatim in the `tdmd bench` stream JSON).

/// Sample: wall-clock µs of one full online-engine event application
/// (event ingestion + repair).
pub const EVENT_APPLY_US: &str = "event_apply_us";
/// Sample: wall-clock µs of one post-event repair pass.
pub const REPAIR_US: &str = "repair_us";
/// Sample: wall-clock µs of one drift-oracle solve (sampled events
/// only).
pub const REPLAN_US: &str = "replan_us";
/// Counter: arrival events applied.
pub const ARRIVALS: &str = "arrivals";
/// Counter: departure events applied.
pub const DEPARTURES: &str = "departures";
/// Counter: oracle deployments adopted (replans).
pub const REPLANS: &str = "replans";
/// Counter: failure events applied (middlebox failures + vertex-down
/// events).
pub const FAILURES: &str = "failures";
/// Counter: recovery events applied.
pub const RECOVERIES: &str = "recoveries";
/// Counter: flows orphaned by failures (re-pinned or degraded).
pub const FLOWS_ORPHANED: &str = "flows_orphaned";
/// Counter: orphaned flows left degraded (no surviving on-path
/// middlebox at the instant of the failure).
pub const FLOWS_DEGRADED: &str = "flows_degraded";
/// Sample: wall-clock µs of the repair pass following a failure event
/// (a subset of [`REPAIR_US`]) — the repair-latency histogram of the
/// chaos harness.
pub const FAILURE_REPAIR_US: &str = "failure_repair_us";
/// Counter: flow route changes applied by the joint routing +
/// placement solver (active-path switches across all rounds).
pub const PATH_SWITCHES: &str = "path_switches";
/// Counter: GTP placement rounds run by the joint solver's
/// alternation loop (across both of its warm starts).
pub const JOINT_ROUNDS: &str = "joint_rounds";
/// Sample: wall-clock µs of one flownet LP-relaxation lower-bound
/// computation (the joint solver's optimality-gap certificate).
pub const LP_BOUND_US: &str = "lp_bound_us";
/// Counter: event batches applied through the online engine's batched
/// path (`apply_batch` — one repair pass per batch).
pub const BATCHES: &str = "batches";
/// Sample: wall-clock µs of one whole `apply_batch` call (all event
/// ingestions + the single batch-boundary repair pass).
pub const BATCH_APPLY_US: &str = "batch_apply_us";
/// Counter: middleboxes deployed or undeployed by chargeable repair
/// moves (greedy adds, both legs of a swap, the symmetric difference
/// of an adopted replan; free zero-load drops are exempt).
pub const BOXES_MOVED: &str = "boxes_moved";
/// Counter: flow→middlebox assignment changes caused by chargeable
/// repair moves (failure-induced orphaning is not charged — it is not
/// a reconfiguration the engine chose).
pub const FLOWS_REASSIGNED: &str = "flows_reassigned";
/// Counter: repair moves (adds, swaps or replans) skipped because the
/// reconfiguration token bucket could not cover their migration cost.
pub const BUDGET_DEFERRALS: &str = "budget_deferrals";
/// Sample: migration cost debited from the reconfiguration token
/// bucket by one chargeable repair move.
pub const BUDGET_SPEND: &str = "budget_spend";

/// Every registered key, in registration order. The golden test and
/// the `obs-keys` lint rule both walk this slice.
pub const ALL: &[&str] = &[
    EVENT_APPLY_US,
    REPAIR_US,
    REPLAN_US,
    ARRIVALS,
    DEPARTURES,
    REPLANS,
    FAILURES,
    RECOVERIES,
    FLOWS_ORPHANED,
    FLOWS_DEGRADED,
    FAILURE_REPAIR_US,
    PATH_SWITCHES,
    JOINT_ROUNDS,
    LP_BOUND_US,
    BATCHES,
    BATCH_APPLY_US,
    BOXES_MOVED,
    FLOWS_REASSIGNED,
    BUDGET_DEFERRALS,
    BUDGET_SPEND,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_duplicate_free() {
        let mut sorted: Vec<&str> = ALL.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ALL.len(), "duplicate key in registry");
    }

    #[test]
    fn keys_are_snake_case_identifiers() {
        for key in ALL {
            assert!(
                key.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
                "key {key:?} is not snake_case"
            );
        }
    }
}
