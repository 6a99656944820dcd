//! Reproduces the paper's motivating example (Fig. 1 + Table 2): the
//! marginal-decrement table, the GTP walk-through for k = 2 and k = 3,
//! and the optimal bandwidth totals 12 and 8.
//!
//! ```sh
//! cargo run --example motivating_example
//! ```

use tdmd::core::algorithms::gtp::gtp_budgeted;
use tdmd::core::objective::bandwidth_of;
use tdmd::core::paper::fig1_instance;
use tdmd::core::{Deployment, FlowIndex, HopCount};

/// Pretty 1-based vertex name.
fn v(name: u32) -> String {
    format!("v{}", name + 1)
}

fn main() {
    let inst = fig1_instance(3);
    println!("Fig. 1: 6 switches, 4 flows, lambda = 0.5");
    for f in inst.flows() {
        let path: Vec<String> = f.path.iter().map(|&x| v(x)).collect();
        println!(
            "  f{}: rate {} path {}",
            f.id + 1,
            f.rate,
            path.join(" -> ")
        );
    }

    // Table 2: marginal decrements for the three GTP rounds.
    println!("\nTable 2 (marginal decrements):");
    let index = FlowIndex::build(&inst, &HopCount);
    let rounds: [&[u32]; 3] = [&[], &[4], &[4, 5]];
    for deployed in rounds {
        let d = Deployment::from_vertices(6, deployed.iter().copied());
        let cur: Vec<f64> = index
            .best_down(&d)
            .into_iter()
            .map(|g| g.unwrap_or(0.0))
            .collect();
        let label: Vec<String> = deployed.iter().map(|&x| v(x)).collect();
        print!("  d_{{{}}}:", label.join(","));
        for cand in 0..6u32 {
            if deployed.contains(&cand) {
                print!(" {}=—", v(cand));
            } else {
                // `+ 0.0` normalizes the empty-sum's negative zero.
                print!(
                    " {}={}",
                    v(cand),
                    index.marginal_decrement(&inst, &cur, cand) + 0.0
                );
            }
        }
        println!();
    }

    // GTP with k = 3: the paper's {v4, v5, v6}, total 8.
    let plan3 = gtp_budgeted(&inst, 3).expect("k = 3 is feasible");
    let names: Vec<String> = plan3.vertices().iter().map(|&x| v(x)).collect();
    println!("\nGTP, k = 3: deploy {{{}}}", names.join(", "));
    println!(
        "  total bandwidth = {} (paper: 8)",
        bandwidth_of(&inst, &plan3)
    );

    // GTP with k = 2: the feasibility fallback forces v2 -> {v2, v5}.
    let inst2 = fig1_instance(2);
    let plan2 = gtp_budgeted(&inst2, 2).expect("k = 2 is feasible");
    let names: Vec<String> = plan2.vertices().iter().map(|&x| v(x)).collect();
    println!("GTP, k = 2: deploy {{{}}}", names.join(", "));
    println!(
        "  total bandwidth = {} (paper: 12)",
        bandwidth_of(&inst2, &plan2)
    );
}
