//! `tdmd place`.

use crate::args::Args;
use crate::commands::{load_topology, load_workload, write_out};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tdmd_core::algorithms::best_effort::best_effort_with;
use tdmd_core::algorithms::gtp::gtp_budgeted_with;
use tdmd_core::algorithms::joint::{joint_solve, JointInstance};
use tdmd_core::algorithms::local_search::gtp_with_local_search_with;
use tdmd_core::algorithms::Algorithm;
use tdmd_core::objective::{allocate, bandwidth_of, decrement, lemma1_bounds};
use tdmd_core::{FlowIndex, Instance, WeightedEdges};
use tdmd_traffic::candidate_sets;

/// Maps a CLI name to an [`Algorithm`].
pub fn algorithm_by_name(name: &str) -> Result<Algorithm, String> {
    Ok(match name {
        "random" => Algorithm::Random,
        "best-effort" | "besteffort" => Algorithm::BestEffort,
        "gtp" => Algorithm::Gtp,
        "gtp-ls" => Algorithm::GtpLs,
        "hat" => Algorithm::Hat,
        "dp" => Algorithm::Dp,
        "centrality" => Algorithm::Centrality,
        other => {
            return Err(format!(
                "unknown algorithm '{other}' (random|best-effort|gtp|gtp-ls|hat|dp|centrality)"
            ))
        }
    })
}

/// `tdmd place --topo t.json --workload wl.json --lambda L --k K
/// --algorithm NAME [--routing fixed|joint] [--k-paths N]
/// [--cost-model hops|weighted] [--seed S] [--audit true]
/// [--out plan.json]` (also reachable as `tdmd solve`)
///
/// `--audit true` checks the instance and the plan, and turns on
/// tdmd-core's solver seams ([`tdmd_core::audit::enable`]) for the
/// rest of the process.
pub fn place(args: &Args) -> Result<String, String> {
    let g = load_topology(args.required("topo")?)?;
    let flows = load_workload(args.required("workload")?)?;
    let lambda: f64 = args.num_required("lambda")?;
    let k: usize = args.num_required("k")?;
    let alg = algorithm_by_name(args.required("algorithm")?)?;
    let cost_model = args.optional("cost-model").unwrap_or("hops");
    let seed: u64 = args.num("seed", 0)?;
    let audit = args.flag("audit")?;
    if audit {
        tdmd_core::audit::enable();
    }
    let routing = args.optional("routing").unwrap_or("fixed");

    match routing {
        "fixed" => {}
        "joint" => return place_joint(args, g, flows, lambda, k, alg, cost_model, audit),
        other => return Err(format!("unknown routing mode '{other}' (fixed|joint)")),
    }

    let instance = Instance::new(g, flows, lambda, k).map_err(|e| e.to_string())?;
    if audit {
        tdmd_core::audit::check_instance(&instance).map_err(|e| format!("audit: {e}"))?;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let start = std::time::Instant::now();
    let plan = match cost_model {
        "hops" => alg.run(&instance, &mut rng).map_err(|e| e.to_string())?,
        "weighted" => {
            let model = WeightedEdges::new(instance.graph());
            match alg {
                Algorithm::Gtp => gtp_budgeted_with(&instance, k, &model),
                Algorithm::GtpLs => gtp_with_local_search_with(&instance, k, &model),
                Algorithm::BestEffort => best_effort_with(&instance, k, &model),
                other => {
                    return Err(format!(
                        "--cost-model weighted supports gtp|gtp-ls|best-effort, not '{}'",
                        other.name()
                    ))
                }
            }
            .map_err(|e| e.to_string())?
        }
        other => return Err(format!("unknown cost model '{other}' (hops|weighted)")),
    };
    let elapsed = start.elapsed().as_secs_f64() * 1e3;

    if audit {
        let alloc = allocate(&instance, &plan);
        tdmd_core::audit::check_solution(&instance, &plan, k, Some(&alloc))
            .map_err(|e| format!("audit: {e}"))?;
    }
    let b = bandwidth_of(&instance, &plan);
    let d = decrement(&instance, &plan);
    let (_, dmax) = lemma1_bounds(&instance);
    let mut out = format!(
        "algorithm:    {}\nmiddleboxes:  {} / {k}\nvertices:     {:?}\n\
         bandwidth:    {b:.2} (unprocessed {:.2})\ndecrement:    {d:.2} \
         ({:.1}% of the Lemma-1 max)\ntime:         {elapsed:.3} ms\n",
        alg.name(),
        plan.len(),
        plan.vertices(),
        instance.unprocessed_bandwidth(),
        if dmax > 0.0 { 100.0 * d / dmax } else { 100.0 },
    );
    if audit {
        out.push_str("audit:        instance + solution invariants hold\n");
    }
    if cost_model == "weighted" {
        let wi = FlowIndex::build(&instance, &WeightedEdges::new(instance.graph()));
        out.push_str(&format!(
            "weighted bw:  {:.2} (unprocessed {:.2})\n",
            wi.bandwidth_of(&instance, &plan),
            wi.unprocessed(&instance),
        ));
    }
    if let Some(path) = args.optional("out") {
        let json = serde_json::to_string_pretty(&plan).map_err(|e| e.to_string())?;
        write_out(path, &json)?;
        out.push_str(&format!("plan written to {path}\n"));
    }
    Ok(out)
}

/// The `--routing joint` arm: Yen candidate sets feed the alternating
/// joint routing + placement solver, which reports the fixed-path
/// baseline and its LP-relaxation optimality certificate next to the
/// solved objective.
#[allow(clippy::too_many_arguments)]
fn place_joint(
    args: &Args,
    g: tdmd_graph::DiGraph,
    flows: Vec<tdmd_traffic::Flow>,
    lambda: f64,
    k: usize,
    alg: Algorithm,
    cost_model: &str,
    audit: bool,
) -> Result<String, String> {
    if !matches!(alg, Algorithm::Gtp) {
        return Err(format!(
            "--routing joint runs the alternating GTP solver; pass --algorithm gtp, not '{}'",
            alg.name()
        ));
    }
    if cost_model != "hops" {
        return Err(format!(
            "--routing joint prices hop counts only, not '{cost_model}'"
        ));
    }
    let k_paths: usize = args.num("k-paths", 3)?;
    if k_paths == 0 {
        return Err("--k-paths must be at least 1".to_string());
    }
    let sets = candidate_sets(&flows, &g, k_paths);
    let joint = JointInstance::new(g, sets, lambda, k).map_err(|e| e.to_string())?;
    if audit {
        tdmd_core::audit::check_instance(joint.base()).map_err(|e| format!("audit: {e}"))?;
    }
    let start = std::time::Instant::now();
    let sol = joint_solve(&joint).map_err(|e| e.to_string())?;
    let elapsed = start.elapsed().as_secs_f64() * 1e3;

    // The instance of the solution's routing, which the report (and
    // the audit) price the objective on.
    let routed = joint.routed(&sol.active).map_err(|e| e.to_string())?;
    if audit {
        tdmd_core::audit::check_instance(&routed).map_err(|e| format!("audit: {e}"))?;
        let alloc = allocate(&routed, &sol.deployment);
        tdmd_core::audit::check_solution(&routed, &sol.deployment, k, Some(&alloc))
            .map_err(|e| format!("audit: {e}"))?;
    }
    let gap = if sol.lp_bound > 0.0 {
        100.0 * (sol.objective - sol.lp_bound) / sol.lp_bound
    } else {
        f64::NAN
    };
    let mut out = format!(
        "algorithm:    GTP + joint routing ({k_paths} candidate paths)\n\
         middleboxes:  {} / {k}\nvertices:     {:?}\n\
         bandwidth:    {:.2} (unprocessed {:.2})\n\
         fixed-path:   {:.2} (joint saves {:.2})\n\
         lp bound:     {:.2} (objective within {:.1}% of optimal)\n\
         rounds:       {} ({} path switches)\ntime:         {elapsed:.3} ms\n",
        sol.deployment.len(),
        sol.deployment.vertices(),
        sol.objective,
        routed.unprocessed_bandwidth(),
        sol.fixed_objective,
        sol.fixed_objective - sol.objective,
        sol.lp_bound,
        gap,
        sol.rounds,
        sol.path_switches,
    );
    if audit {
        out.push_str("audit:        instance + solution invariants hold\n");
    }
    if let Some(path) = args.optional("out") {
        let json = serde_json::to_string_pretty(&sol.deployment).map_err(|e| e.to_string())?;
        write_out(path, &json)?;
        out.push_str(&format!("plan written to {path}\n"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::{topo, workload};

    fn args(pairs: &[(&str, &str)]) -> Args {
        let flat: Vec<String> = pairs
            .iter()
            .flat_map(|(k, v)| [format!("--{k}"), v.to_string()])
            .collect();
        Args::parse(&flat).unwrap()
    }

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("tdmd-cli-test-{name}"))
            .display()
            .to_string()
    }

    fn fixture(test: &str) -> (String, String) {
        let topo_path = tmp(&format!("{test}-place-topo.json"));
        topo::generate(&args(&[
            ("kind", "tree"),
            ("size", "14"),
            ("out", &topo_path),
        ]))
        .unwrap();
        let wl_path = tmp(&format!("{test}-place-wl.json"));
        workload::generate(&args(&[
            ("topo", &topo_path),
            ("count", "10"),
            ("out", &wl_path),
        ]))
        .unwrap();
        (topo_path, wl_path)
    }

    #[test]
    fn algorithm_names_resolve() {
        for name in [
            "random",
            "best-effort",
            "gtp",
            "gtp-ls",
            "hat",
            "dp",
            "centrality",
        ] {
            algorithm_by_name(name).unwrap();
        }
        for name in ["magic", "gtp-lazy", "gtp-parallel"] {
            let err = algorithm_by_name(name).unwrap_err();
            assert!(err.contains("unknown algorithm"), "{name}: {err}");
        }
    }

    #[test]
    fn place_runs_end_to_end_and_writes_the_plan() {
        let (topo_path, wl_path) = fixture("place_runs_end_to_end_and_writes_the_plan");
        let plan_path = tmp("place-plan.json");
        let report = place(&args(&[
            ("topo", &topo_path),
            ("workload", &wl_path),
            ("lambda", "0.5"),
            ("k", "4"),
            ("algorithm", "dp"),
            ("out", &plan_path),
        ]))
        .unwrap();
        assert!(report.contains("algorithm:    DP"));
        assert!(report.contains("bandwidth:"));
        let n = load_topology(&topo_path).unwrap().node_count();
        let plan = crate::commands::evaluate::load_plan(&plan_path, n).unwrap();
        assert!(plan.len() <= 4);
    }

    #[test]
    fn audit_flag_validates_instance_and_solution() {
        let (topo_path, wl_path) = fixture("audit_flag_validates_instance_and_solution");
        let report = place(&args(&[
            ("topo", &topo_path),
            ("workload", &wl_path),
            ("lambda", "0.5"),
            ("k", "4"),
            ("algorithm", "gtp"),
            ("audit", "true"),
        ]))
        .unwrap();
        assert!(report.contains("audit:        instance + solution invariants hold"));
    }

    #[test]
    fn weighted_cost_model_runs_the_generic_engine() {
        let (topo_path, wl_path) = fixture("weighted_cost_model_runs_the_generic_engine");
        for alg in ["gtp", "gtp-ls", "best-effort"] {
            let report = place(&args(&[
                ("topo", &topo_path),
                ("workload", &wl_path),
                ("lambda", "0.5"),
                ("k", "4"),
                ("algorithm", alg),
                ("cost-model", "weighted"),
            ]))
            .unwrap();
            assert!(report.contains("weighted bw:"), "{alg}");
        }
    }

    #[test]
    fn weighted_cost_model_rejects_unsupported_algorithms() {
        let (topo_path, wl_path) = fixture("weighted_cost_model_rejects_unsupported_algorithms");
        let err = place(&args(&[
            ("topo", &topo_path),
            ("workload", &wl_path),
            ("lambda", "0.5"),
            ("k", "4"),
            ("algorithm", "dp"),
            ("cost-model", "weighted"),
        ]))
        .unwrap_err();
        assert!(err.contains("weighted"));
        let err = place(&args(&[
            ("topo", &topo_path),
            ("workload", &wl_path),
            ("lambda", "0.5"),
            ("k", "4"),
            ("algorithm", "gtp"),
            ("cost-model", "euclidean"),
        ]))
        .unwrap_err();
        assert!(err.contains("unknown cost model"));
    }

    #[test]
    fn joint_routing_reports_bound_and_baseline() {
        let (topo_path, wl_path) = fixture("joint_routing_reports_bound_and_baseline");
        let report = place(&args(&[
            ("topo", &topo_path),
            ("workload", &wl_path),
            ("lambda", "0.5"),
            ("k", "4"),
            ("algorithm", "gtp"),
            ("routing", "joint"),
            ("k-paths", "3"),
            ("audit", "true"),
        ]))
        .unwrap();
        assert!(report.contains("joint routing (3 candidate paths)"));
        assert!(report.contains("fixed-path:"));
        assert!(report.contains("lp bound:"));
        assert!(report.contains("audit:        instance + solution invariants hold"));
    }

    #[test]
    fn joint_routing_never_beats_itself_with_one_candidate() {
        // --k-paths 1 is the singleton case: the joint report must
        // show a zero saving over the fixed-path baseline, and its plan
        // must be the fixed-path GTP plan, byte for byte.
        let test = "joint_routing_never_beats_itself_with_one_candidate";
        let (topo_path, wl_path) = fixture(test);
        let (joint_plan, gtp_plan) = (
            tmp(&format!("{test}-joint.json")),
            tmp(&format!("{test}-gtp.json")),
        );
        let base = [
            ("topo", topo_path.as_str()),
            ("workload", wl_path.as_str()),
            ("lambda", "0.5"),
            ("k", "4"),
            ("algorithm", "gtp"),
        ];
        let mut joint = base.to_vec();
        joint.extend([("routing", "joint"), ("k-paths", "1"), ("out", &joint_plan)]);
        let report = place(&args(&joint)).unwrap();
        assert!(report.contains("joint saves 0.00"));
        let mut fixed = base.to_vec();
        fixed.push(("out", &gtp_plan));
        place(&args(&fixed)).unwrap();
        let read = |path: &str| std::fs::read(path).unwrap();
        assert_eq!(read(&joint_plan), read(&gtp_plan));
    }

    #[test]
    fn joint_routing_rejects_bad_modes() {
        let (topo_path, wl_path) = fixture("joint_routing_rejects_bad_modes");
        let base = [
            ("topo", topo_path.as_str()),
            ("workload", wl_path.as_str()),
            ("lambda", "0.5"),
            ("k", "4"),
        ];
        let mut with_alg = base.to_vec();
        with_alg.extend([("algorithm", "dp"), ("routing", "joint")]);
        assert!(place(&args(&with_alg)).unwrap_err().contains("gtp"));
        let mut with_cost = base.to_vec();
        with_cost.extend([
            ("algorithm", "gtp"),
            ("routing", "joint"),
            ("cost-model", "weighted"),
        ]);
        assert!(place(&args(&with_cost))
            .unwrap_err()
            .contains("hop counts only"));
        let mut with_mode = base.to_vec();
        with_mode.extend([("algorithm", "gtp"), ("routing", "split")]);
        assert!(place(&args(&with_mode))
            .unwrap_err()
            .contains("unknown routing mode"));
    }

    #[test]
    fn infeasible_budget_is_a_clean_error() {
        let (topo_path, wl_path) = fixture("infeasible_budget_is_a_clean_error");
        let err = place(&args(&[
            ("topo", &topo_path),
            ("workload", &wl_path),
            ("lambda", "0.5"),
            ("k", "0"),
            ("algorithm", "dp"),
        ]))
        .unwrap_err();
        assert!(err.contains("feasible") || err.contains("0"));
    }
}
