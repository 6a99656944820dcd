//! Crate-level property tests of the joint routing + placement solver:
//! the singleton case collapses to the legacy fixed-path GTP
//! bit-for-bit, and candidate diversity never hurts — the joint
//! objective is sandwiched between the LP lower bound and the
//! fixed-path baseline on random topologies. The LP bound's closed
//! form equals, bit for bit, the min-cost-flow formulation it
//! replaces.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdmd_core::algorithms::gtp::gtp_budgeted;
use tdmd_core::algorithms::joint::{joint_solve, lp_lower_bound, JointInstance};
use tdmd_core::objective::bandwidth_of;
use tdmd_core::{Instance, TdmdError};
use tdmd_graph::flownet::FlowNetwork;
use tdmd_graph::traversal::bfs_path;
use tdmd_graph::{DiGraph, GraphBuilder, NodeId};
use tdmd_traffic::{candidate_sets, Flow, FlowPaths};

/// Random connected bidirectional graph: a random tree plus `n` chords
/// (chords create the route diversity Yen's enumeration feeds on).
fn random_graph(rng: &mut StdRng, n: usize) -> DiGraph {
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        let p = rng.gen_range(0..v);
        b.add_bidirectional(p as NodeId, v as NodeId);
    }
    for _ in 0..n {
        let u = rng.gen_range(0..n) as NodeId;
        let v = rng.gen_range(0..n) as NodeId;
        if u != v {
            b.add_bidirectional(u, v);
        }
    }
    b.build()
}

/// Random flows on shortest paths between distinct endpoint pairs.
fn random_flows(rng: &mut StdRng, g: &DiGraph, n: usize, n_flows: usize) -> Vec<Flow> {
    let mut flows = Vec::new();
    let mut id = 0u32;
    while flows.len() < n_flows {
        let src = rng.gen_range(0..n) as NodeId;
        let dst = rng.gen_range(0..n) as NodeId;
        if src == dst {
            continue;
        }
        if let Some(path) = bfs_path(g, src, dst) {
            flows.push(Flow::new(id, rng.gen_range(1..=6), path));
            id += 1;
        }
    }
    flows
}

/// The LP certificate as a network, the formulation `lp_lower_bound`
/// replaced: at each `μ` of its 17-point grid, flows ship one unit
/// each to the sink, either free or through a vertex `v` at cost
/// `−⌈(g*(f, v) − μ/|F_v|) · 2^20⌉`, with `|F_v|` units of room from
/// `v` to the sink, and min-cost flow prices the transportation LP.
fn network_lp_bound(sets: &[FlowPaths], n: usize, lambda: f64, k: usize) -> f64 {
    const SCALE: f64 = 1_048_576.0;
    const GRID: usize = 16;
    if sets.is_empty() {
        return 0.0;
    }
    // g*(f, v): per vertex, in flow order, each flow's best gain over
    // its candidates through v.
    let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for (f, s) in sets.iter().enumerate() {
        for p in &s.candidates {
            for (pos, &v) in p.iter().enumerate() {
                let g = s.rate as f64 * (1.0 - lambda) * f64::from((p.len() - 1 - pos) as u32);
                let row = &mut rows[v as usize];
                match row.last_mut() {
                    Some(last) if last.0 == f => last.1 = last.1.max(g),
                    _ => row.push((f, g)),
                }
            }
        }
    }
    let base: f64 = sets
        .iter()
        .map(|s| {
            let min_hops = s.candidates.iter().map(|p| p.len() - 1).min().unwrap();
            s.rate as f64 * min_hops as f64
        })
        .sum();
    let lb_lambda = lambda * base;
    let g_max = rows.iter().flatten().fold(0.0f64, |m, &(_, g)| m.max(g));
    if g_max <= 0.0 {
        return base.max(lb_lambda).max(0.0);
    }
    // Nodes: 0 = source, 1..=F flows, then the vertices, last = sink.
    let voff = 1 + sets.len();
    let t = voff + n;
    let mut d_ub = f64::INFINITY;
    for i in 0..=GRID {
        let mu = g_max * i as f64 / GRID as f64;
        let mut net = FlowNetwork::new(t + 1);
        for f in 0..sets.len() {
            net.add_arc(0, 1 + f, 1, 0);
            net.add_arc(1 + f, t, 1, 0);
        }
        for (v, row) in rows.iter().enumerate().filter(|(_, row)| !row.is_empty()) {
            net.add_arc(voff + v, t, row.len() as i64, 0);
            for &(f, g) in row {
                let surplus = g - mu / row.len() as f64;
                if surplus > 0.0 {
                    net.add_arc(1 + f, voff + v, 1, -(surplus * SCALE).ceil() as i64);
                }
            }
        }
        let (_, cost) = net.min_cost_flow(0, t, sets.len() as i64);
        d_ub = d_ub.min(mu * k as f64 + (-cost) as f64 / SCALE);
    }
    (base - d_ub).max(lb_lambda).max(0.0)
}

/// The λ values the network reference is checked at: both ends, a
/// dyadic middle and three whose `1 − λ` rounds.
const LAMBDAS: [f64; 6] = [0.0, 0.3, 0.5, 0.7, 0.9, 1.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// With singleton candidate sets the joint solver IS the legacy
    /// solver: identical deployment, identical objective, no routing
    /// activity — and both agree on infeasibility.
    #[test]
    fn singleton_joint_equals_legacy_gtp(
        seed in any::<u64>(),
        n in 4usize..14,
        n_flows in 1usize..6,
        k in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_graph(&mut rng, n);
        let flows = random_flows(&mut rng, &g, n, n_flows);
        let inst = Instance::new(g, flows, 0.5, k).expect("valid instance");
        match (joint_solve(&JointInstance::from(inst.clone())), gtp_budgeted(&inst, k)) {
            (Ok(sol), Ok(legacy)) => {
                prop_assert_eq!(&sol.deployment, &legacy);
                prop_assert_eq!(sol.objective, bandwidth_of(&inst, &legacy));
                prop_assert_eq!(sol.objective, sol.fixed_objective);
                prop_assert_eq!(sol.path_switches, 0);
                prop_assert_eq!(sol.active, vec![0u32; inst.flows().len()]);
            }
            (Err(TdmdError::Infeasible { .. }), Err(TdmdError::Infeasible { .. })) => {}
            (j, l) => prop_assert!(
                false,
                "solvers disagree: joint ok = {}, legacy ok = {}",
                j.is_ok(),
                l.is_ok()
            ),
        }
    }

    /// With k ≥ 2 candidates per flow the joint objective never
    /// exceeds the fixed-path baseline (the incumbent is seeded from
    /// it), and the LP bound stays below the objective (it relaxes the
    /// joint problem). Draws where even the baseline is infeasible are
    /// skipped — a budget that cannot cover the primaries says nothing
    /// about routing.
    #[test]
    fn diverse_joint_is_sandwiched(
        seed in any::<u64>(),
        n in 5usize..14,
        n_flows in 1usize..6,
        k in 1usize..4,
        k_paths in 2usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_graph(&mut rng, n);
        let flows = random_flows(&mut rng, &g, n, n_flows);
        let sets = candidate_sets(&flows, &g, k_paths);
        let built = JointInstance::new(g.clone(), sets, 0.5, k);
        prop_assume!(built.is_ok());
        let inst = built.unwrap();
        let fixed_inst = Instance::new(g, flows, 0.5, k).expect("valid instance");
        let fixed_dep = gtp_budgeted(&fixed_inst, k);
        prop_assume!(fixed_dep.is_ok());
        let fixed = bandwidth_of(&fixed_inst, &fixed_dep.unwrap());
        let sol = joint_solve(&inst).expect("joint at least matches the feasible baseline");
        prop_assert_eq!(sol.fixed_objective, fixed);
        prop_assert!(
            sol.objective <= fixed + 1e-9,
            "joint {} worse than fixed {}", sol.objective, fixed
        );
        prop_assert!(
            sol.lp_bound <= sol.objective + 1e-9,
            "lp bound {} above objective {}", sol.lp_bound, sol.objective
        );
        prop_assert!(sol.lp_bound >= 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The closed-form certificate is the network's optimum: with no
    /// binding vertex capacity, each flow takes its best option or
    /// none, and the exact integer sum keeps every bit.
    #[test]
    fn lp_bound_equals_the_min_cost_flow_formulation(
        seed in any::<u64>(),
        n in 6usize..40,
        n_flows in 1usize..120,
        k_paths in 1usize..5,
        lambda_ix in 0usize..6,
        k in 1usize..8,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_graph(&mut rng, n);
        let flows = random_flows(&mut rng, &g, n, n_flows);
        let sets = candidate_sets(&flows, &g, k_paths);
        let lambda = LAMBDAS[lambda_ix];
        let reference = network_lp_bound(&sets, n, lambda, k);
        let inst = JointInstance::new(g, sets, lambda, k).expect("valid candidates");
        let bound = lp_lower_bound(&inst);
        prop_assert_eq!(
            bound.to_bits(),
            reference.to_bits(),
            "closed form {} vs network {}",
            bound,
            reference
        );
    }
}
