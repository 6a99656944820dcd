//! # tdmd-sim — link-level replay simulator and experiment runner
//!
//! The analytic objective (Eq. 1) says what a deployment *should*
//! cost; this crate independently verifies it by *replaying* every
//! flow hop by hop over the topology ([`mod@replay`]), accounting the
//! occupied bandwidth on each directed link, and then drives the
//! paper's evaluation protocol ([`runner`]): seeded multi-trial
//! sweeps, per-algorithm wall-clock timing, mean ± std aggregation and
//! workload resampling on infeasibility (§6.1).
//!
//! * [`mod@replay`] — hop-by-hop flow replay into per-link occupied
//!   bandwidth (the independent check of Eq. 1).
//! * [`metrics`] — aggregate link metrics (total/max/mean load,
//!   utilization, coverage feasibility) over a replay.
//! * [`runner`] — the seeded multi-trial experiment runner, one
//!   trial after another so measured execution times are honest.
//! * [`validate`] — invariant checks (replay == analytic objective,
//!   Lemma-1 bounds, coverage).
//! * [`timeline`] — dynamic flow timelines replayed under the
//!   static / warm-started-replanned / incremental policies.
//! * [`chaos`] — seeded fault injection over the online engine:
//!   independent MTBF/MTTR schedules and a targeted
//!   kill-the-biggest-box adversary, with degraded-time and
//!   repair-latency reporting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod metrics;
pub mod race;
pub mod replay;
pub mod runner;
pub mod timeline;
pub mod validate;

pub use replay::{replay, LinkLoads};
pub use runner::{run_comparison, AlgoStats, TrialConfig};

/// Convenience prelude.
pub mod prelude {
    pub use crate::chaos::{
        independent_failure_schedule, run_chaos, ChaosConfig, ChaosMode, ChaosPoint, ChaosReport,
    };
    pub use crate::metrics::{jain_fairness, LinkMetrics};
    pub use crate::race::{batch_race_with, run_race, Divergence, RaceConfig, RaceReport};
    pub use crate::replay::{replay, LinkLoads};
    pub use crate::runner::{run_comparison, AlgoStats, TrialConfig};
    pub use crate::timeline::{
        simulate_incremental, simulate_replanned, simulate_static, DynamicScenario, FlowSpan,
        RepairPolicy,
    };
    pub use crate::validate::validate_deployment;
}
