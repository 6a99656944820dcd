//! `tdmd race` — the schedule-perturbation determinism race
//! (see [`tdmd_sim::race`]).
//!
//! Replays the online batch path under randomized batch partitions
//! and hard-fails (non-zero exit) on any bitwise divergence from the
//! one-by-one sequential oracle, with tdmd-core's solver seams
//! ([`tdmd_core::audit::enable`]) on in every solve. CI invokes it
//! through `cargo xtask race`.
//!
//! ```text
//! tdmd race [--seeds 1,2,3,4] [--nodes 12] [--events 48] [--partitions 6]
//! ```

use crate::args::Args;
use tdmd_sim::race::{run_race, RaceConfig};

/// Runs the race sweep; `Err` (exit 1) when any perturbed run
/// diverges bitwise from its sequential oracle.
pub fn run(args: &Args) -> Result<String, String> {
    let defaults = RaceConfig::default();
    let seeds = match args.optional("seeds") {
        None => defaults.seeds,
        Some(raw) => raw
            .split(',')
            .map(|s| {
                s.trim()
                    .parse::<u64>()
                    .map_err(|e| format!("--seeds: bad seed '{s}': {e}"))
            })
            .collect::<Result<Vec<u64>, String>>()?,
    };
    if seeds.is_empty() {
        return Err("--seeds: need at least one seed".to_string());
    }
    let cfg = RaceConfig {
        seeds,
        nodes: args.num("nodes", defaults.nodes)?,
        events: args.num("events", defaults.events)?,
        partitions: args.num("partitions", defaults.partitions)?,
    };
    if cfg.nodes < 4 {
        return Err("--nodes: need at least 4 vertices".to_string());
    }
    tdmd_core::audit::enable();
    let report = run_race(&cfg);
    let text = report.render();
    if report.passed() {
        Ok(text)
    } else {
        Err(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(pairs: &[(&str, &str)]) -> Args {
        let argv: Vec<String> = pairs
            .iter()
            .flat_map(|(k, v)| [format!("--{k}"), v.to_string()])
            .collect();
        Args::parse(&argv).unwrap()
    }

    #[test]
    fn small_race_passes_and_reports_trials() {
        let out = run(&args(&[
            ("seeds", "5"),
            ("nodes", "6"),
            ("events", "16"),
            ("partitions", "2"),
        ]))
        .unwrap();
        assert!(out.contains("race: PASS"), "{out}");
        assert!(out.contains("batch trials"), "{out}");
    }

    #[test]
    fn bad_flags_are_rejected() {
        assert!(run(&args(&[("seeds", "x")])).is_err());
        assert!(run(&args(&[("nodes", "2"), ("seeds", "1")])).is_err());
    }
}
