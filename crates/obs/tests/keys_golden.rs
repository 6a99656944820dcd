//! Golden pin of the telemetry key registry.
//!
//! The `obs-keys` xtask lint rule and every dashboard/export consumer
//! treat these strings as a stable wire format: renaming or reordering
//! a key is a breaking change and must update this pin deliberately.

use tdmd_obs::keys;

#[test]
fn registry_matches_the_golden_list() {
    assert_eq!(
        keys::ALL,
        [
            "event_apply_us",
            "repair_us",
            "replan_us",
            "arrivals",
            "departures",
            "replans",
            "failures",
            "recoveries",
            "flows_orphaned",
            "flows_degraded",
            "failure_repair_us",
            "path_switches",
            "joint_rounds",
            "lp_bound_us",
            "batches",
            "batch_apply_us",
            "boxes_moved",
            "flows_reassigned",
            "budget_deferrals",
            "budget_spend",
        ]
    );
}

#[test]
fn named_constants_point_into_the_registry() {
    for key in [
        keys::EVENT_APPLY_US,
        keys::REPAIR_US,
        keys::REPLAN_US,
        keys::ARRIVALS,
        keys::DEPARTURES,
        keys::REPLANS,
        keys::FAILURES,
        keys::RECOVERIES,
        keys::FLOWS_ORPHANED,
        keys::FLOWS_DEGRADED,
        keys::FAILURE_REPAIR_US,
        keys::PATH_SWITCHES,
        keys::JOINT_ROUNDS,
        keys::LP_BOUND_US,
        keys::BATCHES,
        keys::BATCH_APPLY_US,
        keys::BOXES_MOVED,
        keys::FLOWS_REASSIGNED,
        keys::BUDGET_DEFERRALS,
        keys::BUDGET_SPEND,
    ] {
        assert!(keys::ALL.contains(&key), "{key} missing from keys::ALL");
    }
}
