//! Extension experiments beyond the paper's evaluation.
//!
//! * [`optimality_gap`] — measured gap of every heuristic to the
//!   *certified* optimum (branch and bound) on small general
//!   instances, against the `(1 − 1/e)` guarantee of Thm. 3.
//! * [`feasibility_rate`] — how often each algorithm finds a feasible
//!   plan at a given budget without resampling the workload (the
//!   paper's §6.4 observation that infeasibility is more likely in
//!   general topologies, quantified).
//! * [`dynamic_replanning`] — static vs replanned placement over a
//!   dynamic flow timeline (`tdmd-sim::timeline`).

use crate::scenarios::{general_instance, tree_instance, Scenario};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdmd_core::algorithms::branch_bound::branch_and_bound;
use tdmd_core::algorithms::Algorithm;
use tdmd_core::objective::bandwidth_of;
use tdmd_graph::RootedTree;
use tdmd_sim::timeline::{simulate_replanned, simulate_static, DynamicScenario, FlowSpan};
use tdmd_traffic::{tree_workload, Flow, WorkloadConfig};

/// One rendered extension experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtraResult {
    /// Short id (file stem for the CSV).
    pub name: String,
    /// Rendered text report.
    pub text: String,
    /// Machine-readable CSV.
    pub csv: String,
}

/// Mean optimality gap (percent above the optimum) of the heuristics
/// on small general instances where branch and bound certifies the
/// optimum.
pub fn optimality_gap(trials: usize, seed: u64) -> ExtraResult {
    let algs = [
        Algorithm::Gtp,
        Algorithm::GtpLs,
        Algorithm::BestEffort,
        Algorithm::Random,
    ];
    let mut gaps: Vec<Vec<f64>> = vec![Vec::new(); algs.len()];
    let mut done = 0usize;
    let mut t = 0u64;
    while done < trials && t < trials as u64 * 20 {
        t += 1;
        let mut rng = StdRng::seed_from_u64(seed ^ t);
        let s = Scenario {
            size: 14,
            density: 0.4,
            k: 5,
            ..Scenario::general_default()
        };
        let inst = general_instance(&mut rng, s);
        let Ok((_, opt, _)) = branch_and_bound(&inst, s.k, 5_000_000) else {
            continue;
        };
        let mut row = Vec::with_capacity(algs.len());
        for alg in &algs {
            match alg.run(&inst, &mut rng) {
                Ok(d) => row.push(100.0 * (bandwidth_of(&inst, &d) / opt - 1.0)),
                Err(_) => {
                    row.clear();
                    break;
                }
            }
        }
        if row.len() == algs.len() {
            for (g, v) in gaps.iter_mut().zip(row) {
                g.push(v);
            }
            done += 1;
        }
    }
    let mut text = String::from("== extension: optimality gap vs certified optimum ==\n");
    let mut csv = String::from("algorithm,mean_gap_pct,max_gap_pct,trials\n");
    for (alg, g) in algs.iter().zip(&gaps) {
        let mean = if g.is_empty() {
            0.0
        } else {
            g.iter().sum::<f64>() / g.len() as f64
        };
        let max = g.iter().cloned().fold(0.0f64, f64::max);
        text.push_str(&format!(
            "  {:<12} mean gap {:>6.2}%   worst {:>6.2}%   ({} instances)\n",
            alg.name(),
            mean,
            max,
            g.len()
        ));
        csv.push_str(&format!("{},{mean},{max},{}\n", alg.name(), g.len()));
    }
    ExtraResult {
        name: "ext_gap".into(),
        text,
        csv,
    }
}

/// Fraction of freshly generated workloads for which each algorithm
/// finds a feasible plan at budget `k`, on tree vs general topologies.
pub fn feasibility_rate(trials: usize, seed: u64) -> ExtraResult {
    let ks = [2usize, 4, 6, 8];
    let mut text = String::from("== extension: feasibility rate without resampling ==\n");
    let mut csv = String::from("topology,k,algorithm,feasible_rate\n");
    for (topo, is_tree) in [("tree", true), ("general", false)] {
        for &k in &ks {
            let algs: &[Algorithm] = if is_tree {
                &[Algorithm::Gtp, Algorithm::Random, Algorithm::Dp]
            } else {
                &[Algorithm::Gtp, Algorithm::Random]
            };
            for alg in algs {
                let mut ok = 0usize;
                for t in 0..trials {
                    let mut rng = StdRng::seed_from_u64(seed ^ (t as u64) << 8 ^ k as u64);
                    let s = if is_tree {
                        Scenario {
                            size: 18,
                            k,
                            density: 0.4,
                            ..Scenario::tree_default()
                        }
                    } else {
                        Scenario {
                            size: 22,
                            k,
                            density: 0.4,
                            ..Scenario::general_default()
                        }
                    };
                    let inst = if is_tree {
                        tree_instance(&mut rng, s)
                    } else {
                        general_instance(&mut rng, s)
                    };
                    // One shot, deliberately few retries for Random.
                    let feasible = match alg {
                        Algorithm::Random => {
                            tdmd_core::algorithms::random::random_feasible(&inst, k, &mut rng, 1)
                                .is_ok()
                        }
                        other => other.run(&inst, &mut rng).is_ok(),
                    };
                    ok += usize::from(feasible);
                }
                let rate = ok as f64 / trials as f64;
                text.push_str(&format!(
                    "  {topo:<8} k={k:<2} {:<8} feasible {:>5.1}%\n",
                    alg.name(),
                    100.0 * rate
                ));
                csv.push_str(&format!("{topo},{k},{},{rate}\n", alg.name()));
            }
        }
    }
    ExtraResult {
        name: "ext_feasibility".into(),
        text,
        csv,
    }
}

/// Static vs replanned placement over a random dynamic timeline on a
/// tree.
pub fn dynamic_replanning(seed: u64) -> ExtraResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let s = Scenario {
        size: 16,
        density: 0.5,
        k: 4,
        ..Scenario::tree_default()
    };
    let base = tree_instance(&mut rng, s);
    let tree = RootedTree::from_digraph(base.graph(), 0).expect("tree");
    // Draw flow lifetimes over a 1000-unit horizon.
    let cfg = WorkloadConfig::with_count(24);
    let flows = tree_workload(base.graph(), &tree, &cfg, &mut rng);
    let spans: Vec<FlowSpan> = flows
        .into_iter()
        .map(|f| {
            let start = rng.gen_range(0..800u64);
            let end = start + rng.gen_range(100..200u64);
            FlowSpan {
                start_us: start,
                end_us: end,
                flow: Flow::new(0, f.rate, f.path),
            }
        })
        .collect();
    let scn = DynamicScenario {
        graph: base.graph().clone(),
        lambda: 0.5,
        k: 4,
        spans,
    };
    let stat = simulate_static(&scn, Algorithm::Dp, seed).expect("static plan feasible");
    let re = simulate_replanned(&scn, Algorithm::Dp, seed).expect("replanning feasible");
    let mut text = String::from("== extension: static vs replanned DP over a flow timeline ==\n");
    let mut csv = String::from("time,active,static_bw,replanned_bw\n");
    let (mut sum_s, mut sum_r) = (0.0, 0.0);
    for (a, b) in stat.iter().zip(&re) {
        sum_s += a.bandwidth;
        sum_r += b.bandwidth;
        csv.push_str(&format!(
            "{},{},{},{}\n",
            a.time_us, a.active_flows, a.bandwidth, b.bandwidth
        ));
    }
    text.push_str(&format!(
        "  events: {}   Σ static {:.1}   Σ replanned {:.1}   saved {:.1}%\n",
        stat.len(),
        tdmd_obs::normalize_zero(sum_s),
        tdmd_obs::normalize_zero(sum_r),
        tdmd_obs::normalize_zero(100.0 * (1.0 - sum_r / sum_s.max(1e-12)))
    ));
    ExtraResult {
        name: "ext_dynamic".into(),
        text,
        csv,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_report_contains_all_algorithms() {
        let r = optimality_gap(3, 11);
        for name in ["GTP", "GTP+LS", "Best-effort", "Random"] {
            assert!(r.text.contains(name), "{name} missing");
        }
        assert!(r.csv.lines().count() >= 5);
    }

    #[test]
    fn feasibility_rates_are_probabilities() {
        let r = feasibility_rate(4, 13);
        for line in r.csv.lines().skip(1) {
            let rate: f64 = line.rsplit(',').next().unwrap().parse().unwrap();
            assert!((0.0..=1.0).contains(&rate), "{line}");
        }
        // DP on trees with k >= 1 is always feasible.
        assert!(r
            .csv
            .lines()
            .any(|l| l.starts_with("tree,") && l.contains("DP,1")));
    }

    #[test]
    fn dynamic_report_shows_savings_or_tie() {
        let r = dynamic_replanning(17);
        assert!(r.text.contains("replanned"));
        // Replanned never exceeds static in total.
        let rows: Vec<(f64, f64)> = r
            .csv
            .lines()
            .skip(1)
            .map(|l| {
                let f: Vec<&str> = l.split(',').collect();
                (f[2].parse().unwrap(), f[3].parse().unwrap())
            })
            .collect();
        for (s, re) in rows {
            assert!(re <= s + 1e-9);
        }
    }
}

/// Service-chain budget sweep: bandwidth of the shared-instance chain
/// greedy vs the egress baseline on a tree workload (extension over
/// the paper's single-type setting, `tdmd-chain`).
pub fn chain_budget_sweep(seed: u64) -> ExtraResult {
    use tdmd_chain::{chain_at_destinations, chain_gtp, evaluate_chain, ChainSpec};
    let mut rng = StdRng::seed_from_u64(seed);
    let s = Scenario {
        size: 16,
        density: 0.5,
        k: 0,
        ..Scenario::tree_default()
    };
    let base = tree_instance(&mut rng, s);
    let flows = base.flows().to_vec();
    let chain = ChainSpec::from_ratios(&[("firewall", 1.0), ("optimizer", 0.5), ("ids", 0.8)]);
    let egress = chain_at_destinations(base.graph(), &flows, &chain);
    let egress_bw = evaluate_chain(&flows, &chain, &egress).bandwidth;
    let mut text = String::from("== extension: service-chain budget sweep (fw -> opt -> ids) ==\n");
    let mut csv = String::from("budget,instances,bandwidth,egress_bandwidth\n");
    text.push_str(&format!(
        "  egress baseline: {} instances, bandwidth {egress_bw:.0}\n",
        egress.total_instances()
    ));
    for budget in [3usize, 6, 9, 12, 18, 24] {
        match chain_gtp(base.graph(), &flows, &chain, budget) {
            Ok((dep, eval)) => {
                text.push_str(&format!(
                    "  budget {budget:>2}: {:>2} instances, bandwidth {:>8.0} ({:>5.1}% of egress)\n",
                    dep.total_instances(),
                    eval.bandwidth,
                    100.0 * eval.bandwidth / egress_bw
                ));
                csv.push_str(&format!(
                    "{budget},{},{},{egress_bw}\n",
                    dep.total_instances(),
                    eval.bandwidth
                ));
            }
            Err(e) => text.push_str(&format!("  budget {budget:>2}: {e}\n")),
        }
    }
    ExtraResult {
        name: "ext_chain".into(),
        text,
        csv,
    }
}

/// Capacitated sweep: bandwidth of capacity-constrained GTP as the
/// per-middlebox capacity tightens (extension, `tdmd-core::capacitated`).
pub fn capacity_sweep(seed: u64) -> ExtraResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let s = Scenario {
        size: 16,
        density: 0.4,
        k: 6,
        ..Scenario::tree_default()
    };
    let inst = tree_instance(&mut rng, s);
    let n_flows = inst.flows().len();
    let mut text = String::from("== extension: per-middlebox capacity sweep (k = 6) ==\n");
    let mut csv = String::from("capacity,bandwidth,feasible\n");
    // Surface an infeasible baseline as such instead of folding it
    // into a NaN that renders as "NaN" downstream.
    match tdmd_core::algorithms::gtp::gtp_budgeted(&inst, 6) {
        Ok(d) => {
            let uncapped = bandwidth_of(&inst, &d);
            text.push_str(&format!(
                "  {n_flows} flows; uncapacitated GTP: {uncapped:.0}\n"
            ));
        }
        Err(e) => text.push_str(&format!("  {n_flows} flows; uncapacitated GTP: {e}\n")),
    }
    for cap in [n_flows, n_flows / 2, n_flows / 3, n_flows / 4, n_flows / 6] {
        let cap = cap.max(1);
        match tdmd_core::capacitated::gtp_capacitated(&inst, 6, cap) {
            Ok((_, _, b)) => {
                text.push_str(&format!("  cap {cap:>3}: bandwidth {b:>8.0}\n"));
                csv.push_str(&format!("{cap},{b},true\n"));
            }
            Err(_) => {
                text.push_str(&format!("  cap {cap:>3}: infeasible within k = 6\n"));
                csv.push_str(&format!("{cap},,false\n"));
            }
        }
    }
    ExtraResult {
        name: "ext_capacity".into(),
        text,
        csv,
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;

    #[test]
    fn chain_sweep_improves_over_egress() {
        let r = chain_budget_sweep(31);
        assert!(r.text.contains("egress baseline"));
        // The largest budget's bandwidth must be below the egress.
        let rows: Vec<(usize, f64, f64)> = r
            .csv
            .lines()
            .skip(1)
            .map(|l| {
                let f: Vec<&str> = l.split(',').collect();
                (
                    f[0].parse().unwrap(),
                    f[2].parse().unwrap(),
                    f[3].parse().unwrap(),
                )
            })
            .collect();
        let (_, best, egress) = rows.last().copied().expect("rows exist");
        assert!(best < egress, "budget 24 should beat the egress baseline");
        // Monotone in budget.
        for w in rows.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-9);
        }
    }

    #[test]
    fn capacity_sweep_reports_all_caps() {
        let r = capacity_sweep(33);
        assert!(r.csv.lines().count() >= 5);
        assert!(r.text.contains("uncapacitated"));
        assert!(
            !r.text.contains("NaN"),
            "infeasibility must be reported, not formatted as NaN: {}",
            r.text
        );
    }
}
