//! `tdmd workload gen`.

use crate::args::Args;
use crate::commands::{load_topology, write_out};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tdmd_graph::RootedTree;
use tdmd_traffic::distribution::RateDistribution;
use tdmd_traffic::flow::total_load;
use tdmd_traffic::generator::WorkloadSize;
use tdmd_traffic::{general_workload, tree_workload, WorkloadConfig};

/// `tdmd workload gen --topo t.json (--density D | --count N)
/// [--dests 0,1 | --root 0] [--rates caida|constant:R|uniform:LO:HI]
/// [--seed S] --out wl.json`
///
/// With `--dests`, flows route to random destinations over shortest
/// paths (general mode); with `--root`, the topology must be a tree
/// and flows go leaf → root.
pub fn generate(args: &Args) -> Result<String, String> {
    let g = load_topology(args.required("topo")?)?;
    let out = args.required("out")?;
    let seed: u64 = args.num("seed", 0)?;
    let mut rng = StdRng::seed_from_u64(seed);

    let size = match (args.optional("density"), args.optional("count")) {
        (Some(d), None) => {
            WorkloadSize::Density(d.parse().map_err(|_| format!("--density: bad '{d}'"))?)
        }
        (None, Some(c)) => {
            WorkloadSize::Count(c.parse().map_err(|_| format!("--count: bad '{c}'"))?)
        }
        _ => return Err("pass exactly one of --density or --count".to_string()),
    };
    let distribution = parse_rates(args.optional("rates").unwrap_or("caida"))?;
    let cfg = WorkloadConfig {
        distribution,
        size,
        link_capacity: args.num("capacity", tdmd_traffic::density::DEFAULT_LINK_CAPACITY)?,
        max_flows: args.num("max-flows", 100_000)?,
    };

    let dests = args.id_list("dests")?;
    let flows = if dests.is_empty() {
        let root: u32 = args.num("root", 0)?;
        let tree = RootedTree::from_digraph(&g, root)
            .map_err(|e| format!("--root mode needs a tree topology: {e}"))?;
        tree_workload(&g, &tree, &cfg, &mut rng)
    } else {
        general_workload(&g, &dests, &cfg, &mut rng)
    };
    let json = serde_json::to_string_pretty(&flows).map_err(|e| e.to_string())?;
    write_out(out, &json)?;
    let load = total_load(&flows);
    Ok(format!(
        "wrote {out}: {} flows, total load {load}\n",
        flows.len()
    ))
}

/// Parses `caida`, `constant:R`, or `uniform:LO:HI`.
fn parse_rates(spec: &str) -> Result<RateDistribution, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    match parts.as_slice() {
        ["caida"] => Ok(RateDistribution::caida_default()),
        ["constant", r] => Ok(RateDistribution::Constant(
            r.parse().map_err(|_| format!("bad rate '{r}'"))?,
        )),
        ["uniform", lo, hi] => Ok(RateDistribution::Uniform {
            lo: lo.parse().map_err(|_| format!("bad lo '{lo}'"))?,
            hi: hi.parse().map_err(|_| format!("bad hi '{hi}'"))?,
        }),
        _ => Err(format!(
            "bad --rates spec '{spec}' (caida|constant:R|uniform:LO:HI)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::topo;

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
    fn rate_spec_parsing() {
        assert!(matches!(
            parse_rates("caida").unwrap(),
            RateDistribution::Caida(_)
        ));
        assert_eq!(
            parse_rates("constant:4").unwrap(),
            RateDistribution::Constant(4)
        );
        assert_eq!(
            parse_rates("uniform:2:9").unwrap(),
            RateDistribution::Uniform { lo: 2, hi: 9 }
        );
        assert!(parse_rates("zipf:1").is_err());
    }

    #[test]
    fn tree_workload_via_cli() {
        let topo_path = tmp("wl-topo.json");
        topo::generate(&args(&[
            ("kind", "tree"),
            ("size", "15"),
            ("out", &topo_path),
        ]))
        .unwrap();
        let wl_path = tmp("wl-flows.json");
        let msg = generate(&args(&[
            ("topo", &topo_path),
            ("count", "12"),
            ("out", &wl_path),
        ]))
        .unwrap();
        assert!(msg.contains("12 flows"));
        let flows = crate::commands::load_workload(&wl_path).unwrap();
        assert_eq!(flows.len(), 12);
        assert!(flows.iter().all(|f| f.dst() == 0));
    }

    #[test]
    fn general_workload_via_cli() {
        let topo_path = tmp("wl-topo2.json");
        topo::generate(&args(&[
            ("kind", "ark"),
            ("size", "20"),
            ("out", &topo_path),
        ]))
        .unwrap();
        let wl_path = tmp("wl-flows2.json");
        generate(&args(&[
            ("topo", &topo_path),
            ("density", "0.3"),
            ("dests", "0,1"),
            ("rates", "uniform:1:5"),
            ("out", &wl_path),
        ]))
        .unwrap();
        let flows = crate::commands::load_workload(&wl_path).unwrap();
        assert!(!flows.is_empty());
        assert!(flows
            .iter()
            .all(|f| f.dst() <= 1 && (1..=5).contains(&f.rate)));
    }

    #[test]
    fn density_and_count_are_mutually_exclusive() {
        let topo_path = tmp("wl-topo3.json");
        topo::generate(&args(&[
            ("kind", "tree"),
            ("size", "8"),
            ("out", &topo_path),
        ]))
        .unwrap();
        let e = generate(&args(&[
            ("topo", &topo_path),
            ("density", "0.3"),
            ("count", "5"),
            ("out", &tmp("x.json")),
        ]))
        .unwrap_err();
        assert!(e.contains("exactly one"));
    }
}
