//! `tdmd place --audit true` turns on tdmd-core's process-wide audit
//! switch. The switch cannot be turned off again, so this file holds
//! the only test that reads it.

use tdmd_cli::args::Args;
use tdmd_cli::commands::{place, topo, workload};

fn args(pairs: &[(&str, &str)]) -> Args {
    let flat: Vec<String> = pairs
        .iter()
        .flat_map(|(k, v)| [format!("--{k}"), v.to_string()])
        .collect();
    Args::parse(&flat).unwrap()
}

fn tmp(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("tdmd-cli-audit-flag-{name}"))
        .display()
        .to_string()
}

#[test]
fn place_with_audit_leaves_the_switch_on() {
    let topo_path = tmp("topo.json");
    topo::generate(&args(&[
        ("kind", "tree"),
        ("size", "14"),
        ("out", &topo_path),
    ]))
    .unwrap();
    let wl_path = tmp("wl.json");
    workload::generate(&args(&[
        ("topo", &topo_path),
        ("count", "10"),
        ("out", &wl_path),
    ]))
    .unwrap();
    assert_eq!(tdmd_core::audit::enabled(), cfg!(debug_assertions));
    let report = place::place(&args(&[
        ("topo", &topo_path),
        ("workload", &wl_path),
        ("lambda", "0.5"),
        ("k", "4"),
        ("algorithm", "gtp"),
        ("audit", "true"),
    ]))
    .unwrap();
    assert!(report.contains("audit:        instance + solution invariants hold"));
    assert!(tdmd_core::audit::enabled());
}
