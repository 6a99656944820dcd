//! `tdmd evaluate`.

use crate::args::Args;
use crate::commands::{load_topology, load_workload};
use tdmd_core::{Deployment, FlowIndex, Instance, WeightedEdges};
use tdmd_sim::metrics::LinkMetrics;
use tdmd_sim::replay;
use tdmd_sim::validate::validate_deployment;

/// `tdmd evaluate --topo t.json --workload wl.json --lambda L --k K
/// --plan plan.json [--capacity C] [--cost-model hops|weighted]`
///
/// Replays the workload through the plan, cross-checks the analytic
/// objective, and prints link metrics. With `--cost-model weighted`
/// the report also prices the plan under physical edge weights.
pub fn evaluate(args: &Args) -> Result<String, String> {
    let g = load_topology(args.required("topo")?)?;
    let flows = load_workload(args.required("workload")?)?;
    let lambda: f64 = args.num_required("lambda")?;
    let k: usize = args.num("k", usize::MAX)?;
    let plan_path = args.required("plan")?;
    let plan: Deployment = serde_json::from_str(
        &std::fs::read_to_string(plan_path).map_err(|e| format!("read {plan_path}: {e}"))?,
    )
    .map_err(|e| format!("parse {plan_path}: {e}"))?;
    let capacity: u64 = args.num("capacity", tdmd_traffic::density::DEFAULT_LINK_CAPACITY)?;

    let instance = Instance::new(g, flows, lambda, k).map_err(|e| e.to_string())?;
    validate_deployment(&instance, &plan).map_err(|e| format!("validation failed: {e}"))?;
    let loads = replay(&instance, &plan);
    let m = LinkMetrics::from_loads(&loads, capacity);
    let ((hu, hv), hl) = loads.max_link().unwrap_or(((0, 0), 0.0));
    let mut report = format!(
        "plan:            {:?}\nfeasible:        {}\ntotal bandwidth: {:.2}\n\
         loaded links:    {} (mean {:.2})\nhottest link:    {hu} -> {hv} at {hl:.2} \
         ({:.1}% of capacity)\n",
        plan.vertices(),
        m.feasible,
        m.total_bandwidth,
        m.loaded_links,
        m.mean_loaded_link,
        100.0 * m.max_utilization,
    );
    match args.optional("cost-model").unwrap_or("hops") {
        "hops" => {}
        "weighted" => {
            let wi = FlowIndex::build(&instance, &WeightedEdges::new(instance.graph()));
            report.push_str(&format!(
                "weighted bw:     {:.2} (unprocessed {:.2})\n",
                wi.bandwidth_of(&instance, &plan),
                wi.unprocessed(&instance),
            ));
        }
        other => return Err(format!("unknown cost model '{other}' (hops|weighted)")),
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::{place, topo, workload};

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

    #[test]
    fn evaluate_a_placed_plan() {
        let topo_path = tmp("eval-topo.json");
        topo::generate(&args(&[
            ("kind", "tree"),
            ("size", "12"),
            ("out", &topo_path),
        ]))
        .unwrap();
        let wl_path = tmp("eval-wl.json");
        workload::generate(&args(&[
            ("topo", &topo_path),
            ("count", "8"),
            ("out", &wl_path),
        ]))
        .unwrap();
        let plan_path = tmp("eval-plan.json");
        place::place(&args(&[
            ("topo", &topo_path),
            ("workload", &wl_path),
            ("lambda", "0.5"),
            ("k", "3"),
            ("algorithm", "gtp"),
            ("out", &plan_path),
        ]))
        .unwrap();
        let report = evaluate(&args(&[
            ("topo", &topo_path),
            ("workload", &wl_path),
            ("lambda", "0.5"),
            ("k", "3"),
            ("plan", &plan_path),
        ]))
        .unwrap();
        assert!(report.contains("feasible:        true"));
        assert!(report.contains("total bandwidth:"));
        let weighted = evaluate(&args(&[
            ("topo", &topo_path),
            ("workload", &wl_path),
            ("lambda", "0.5"),
            ("k", "3"),
            ("plan", &plan_path),
            ("cost-model", "weighted"),
        ]))
        .unwrap();
        assert!(weighted.contains("weighted bw:"));
    }

    #[test]
    fn tampered_plans_fail_validation() {
        let topo_path = tmp("eval-topo2.json");
        topo::generate(&args(&[
            ("kind", "tree"),
            ("size", "10"),
            ("out", &topo_path),
        ]))
        .unwrap();
        let wl_path = tmp("eval-wl2.json");
        workload::generate(&args(&[
            ("topo", &topo_path),
            ("count", "6"),
            ("out", &wl_path),
        ]))
        .unwrap();
        // Empty plan: every flow unserved.
        let plan_path = tmp("eval-plan2.json");
        let empty = tdmd_core::Deployment::empty(10);
        std::fs::write(&plan_path, serde_json::to_string(&empty).unwrap()).unwrap();
        let err = evaluate(&args(&[
            ("topo", &topo_path),
            ("workload", &wl_path),
            ("lambda", "0.5"),
            ("plan", &plan_path),
        ]))
        .unwrap_err();
        assert!(err.contains("validation failed"));
    }
}
