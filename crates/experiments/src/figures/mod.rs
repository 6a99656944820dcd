//! One module per evaluation figure (§6.3–6.5).
//!
//! Every module exposes `run(cfg) -> FigureResult` (Fig. 17:
//! `run_tree` / `run_general`, one grid each). The sweep ranges and
//! defaults are the paper's; see DESIGN.md's experiment index.

pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;

use tdmd_sim::TrialConfig;

/// The default evaluation protocol: 5 seeded trials per point, run
/// one after another (so execution times are honest).
pub fn default_protocol() -> TrialConfig {
    TrialConfig {
        trials: 5,
        seed: 0x7D_D0,
        resample_limit: 25,
    }
}

/// Reduced protocol for smoke tests and `--quick` runs.
pub fn quick_protocol() -> TrialConfig {
    TrialConfig {
        trials: 2,
        seed: 0x7D_D0,
        resample_limit: 10,
    }
}
