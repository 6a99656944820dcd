//! Multi-trial experiment runner implementing the paper's protocol
//! (§6.1–6.2): every data point is the mean ± std over several seeded
//! trials; workloads whose instance is infeasible for some algorithm
//! are regenerated ("we choose to regenerate a traffic distribution");
//! each algorithm's wall-clock execution time is recorded alongside
//! its bandwidth objective.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tdmd_core::algorithms::Algorithm;
use tdmd_core::objective::bandwidth_of;
use tdmd_core::Instance;

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct TrialConfig {
    /// Number of successful trials to aggregate.
    pub trials: usize,
    /// Base RNG seed; trial `t` uses `seed + t`.
    pub seed: u64,
    /// How many workload regenerations to attempt per trial before
    /// giving the trial up.
    pub resample_limit: usize,
}

impl Default for TrialConfig {
    fn default() -> Self {
        Self {
            trials: 10,
            seed: 0xC0FFEE,
            resample_limit: 25,
        }
    }
}

/// Aggregated outcome of one algorithm across trials.
#[derive(Debug, Clone, PartialEq)]
pub struct AlgoStats {
    /// Display name.
    pub algorithm: &'static str,
    /// Mean total bandwidth consumption.
    pub mean_bandwidth: f64,
    /// Std-dev of the bandwidth (the paper's error bars).
    pub std_bandwidth: f64,
    /// Mean execution time in milliseconds.
    pub mean_time_ms: f64,
    /// Std-dev of the execution time.
    pub std_time_ms: f64,
    /// Number of trials that contributed.
    pub trials: usize,
}

fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
    (mean, var.sqrt())
}

/// One trial: regenerate workloads until every algorithm yields a
/// feasible plan, then return each algorithm's `(bandwidth, time_ms)`.
fn one_trial<F>(
    make_instance: &F,
    algorithms: &[Algorithm],
    seed: u64,
    resample_limit: usize,
) -> Option<Vec<(f64, f64)>>
where
    F: Fn(&mut StdRng) -> Instance,
{
    let mut rng = StdRng::seed_from_u64(seed);
    'resample: for _ in 0..resample_limit {
        let instance = make_instance(&mut rng);
        let mut row = Vec::with_capacity(algorithms.len());
        for alg in algorithms {
            let mut alg_rng = StdRng::seed_from_u64(seed ^ 0x5EED_5EED);
            let sw = tdmd_obs::Stopwatch::start();
            let result = alg.run(&instance, &mut alg_rng);
            let elapsed_ms = sw.elapsed_ms();
            match result {
                Ok(dep) => {
                    debug_assert!(
                        crate::validate::validate_deployment(&instance, &dep).is_ok(),
                        "algorithm {} produced an inconsistent plan",
                        alg.name()
                    );
                    row.push((bandwidth_of(&instance, &dep), elapsed_ms));
                }
                Err(_) => continue 'resample,
            }
        }
        return Some(row);
    }
    None
}

/// Runs every algorithm over `cfg.trials` seeded trials of the
/// instance family produced by `make_instance` and aggregates the
/// paper's two metrics.
pub fn run_comparison<F>(
    make_instance: F,
    algorithms: &[Algorithm],
    cfg: &TrialConfig,
) -> Vec<AlgoStats>
where
    F: Fn(&mut StdRng) -> Instance,
{
    let rows: Vec<Vec<(f64, f64)>> = (0..cfg.trials)
        .filter_map(|t| {
            one_trial(
                &make_instance,
                algorithms,
                cfg.seed + t as u64,
                cfg.resample_limit,
            )
        })
        .collect();
    algorithms
        .iter()
        .enumerate()
        .map(|(i, alg)| {
            let bws: Vec<f64> = rows.iter().map(|r| r[i].0).collect();
            let ts: Vec<f64> = rows.iter().map(|r| r[i].1).collect();
            let (mb, sb) = mean_std(&bws);
            let (mt, st) = mean_std(&ts);
            AlgoStats {
                algorithm: alg.name(),
                mean_bandwidth: mb,
                std_bandwidth: sb,
                mean_time_ms: mt,
                std_time_ms: st,
                trials: rows.len(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdmd_graph::generators::trees::random_tree;
    use tdmd_graph::RootedTree;
    use tdmd_traffic::{tree_workload, WorkloadConfig};

    fn make_tree_instance(rng: &mut StdRng) -> Instance {
        let g = random_tree(16, rng);
        let t = RootedTree::from_digraph(&g, 0).unwrap();
        let flows = tree_workload(&g, &t, &WorkloadConfig::with_count(12), rng);
        Instance::new(g, flows, 0.5, 4).unwrap()
    }

    #[test]
    fn comparison_orders_algorithms_correctly() {
        let cfg = TrialConfig {
            trials: 6,
            seed: 7,
            ..Default::default()
        };
        let stats = run_comparison(make_tree_instance, &Algorithm::tree_suite(), &cfg);
        assert_eq!(stats.len(), 5);
        let by_name: std::collections::HashMap<_, _> =
            stats.iter().map(|s| (s.algorithm, s)).collect();
        let dp = by_name["DP"].mean_bandwidth;
        let hat = by_name["HAT"].mean_bandwidth;
        let gtp = by_name["GTP"].mean_bandwidth;
        let rnd = by_name["Random"].mean_bandwidth;
        assert!(dp <= hat + 1e-9, "DP {dp} must lower-bound HAT {hat}");
        assert!(dp <= gtp + 1e-9, "DP {dp} must lower-bound GTP {gtp}");
        assert!(dp <= rnd + 1e-9);
        assert!(stats.iter().all(|s| s.trials == 6));
    }

    #[test]
    fn stats_are_deterministic_under_seed() {
        let cfg = TrialConfig {
            trials: 3,
            seed: 21,
            ..Default::default()
        };
        let a = run_comparison(make_tree_instance, &[Algorithm::Hat], &cfg);
        let b = run_comparison(make_tree_instance, &[Algorithm::Hat], &cfg);
        assert_eq!(a[0].mean_bandwidth, b[0].mean_bandwidth);
    }

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[2.0, 4.0]);
        assert_eq!(m, 3.0);
        assert_eq!(s, 1.0);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }

    #[test]
    fn impossible_instances_yield_zero_trials() {
        // k = 0 with flows: every algorithm fails, every trial is
        // given up after the resample limit.
        let make = |rng: &mut StdRng| {
            let g = random_tree(8, rng);
            let t = RootedTree::from_digraph(&g, 0).unwrap();
            let flows = tree_workload(&g, &t, &WorkloadConfig::with_count(4), rng);
            Instance::new(g, flows, 0.5, 0).unwrap()
        };
        let cfg = TrialConfig {
            trials: 2,
            seed: 3,
            resample_limit: 3,
        };
        let stats = run_comparison(make, &[Algorithm::Dp], &cfg);
        assert_eq!(stats[0].trials, 0);
    }
}
