//! Service chains with traffic-changing effects (`tdmd-chain`): a
//! firewall (neutral) → WAN optimizer (halves traffic) → decryption
//! (doubles traffic) chain over a tree network, placed with shared
//! instances under a total budget.
//!
//! ```sh
//! cargo run --release --example service_chain
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use tdmd::chain::{chain_at_destinations, chain_gtp, evaluate_chain, ChainSpec};
use tdmd::graph::generators::trees::random_tree;
use tdmd::graph::RootedTree;
use tdmd::traffic::flow::total_load;
use tdmd::traffic::{tree_workload, WorkloadConfig};

fn main() {
    let mut rng = StdRng::seed_from_u64(5);
    let graph = random_tree(16, &mut rng);
    let tree = RootedTree::from_digraph(&graph, 0).expect("tree");
    let flows = tree_workload(&graph, &tree, &WorkloadConfig::with_count(20), &mut rng);
    let unprocessed = total_load(&flows);

    let chain = ChainSpec::from_ratios(&[
        ("firewall", 1.0),   // inspects, doesn't change volume
        ("optimizer", 0.5),  // compresses: wants to sit early
        ("decryption", 2.0), // re-inflates: wants to sit last
    ]);
    println!(
        "chain: {} (unprocessed bandwidth {unprocessed:.0})\n",
        chain
            .types()
            .iter()
            .map(|t| format!("{}(λ={})", t.name, t.lambda))
            .collect::<Vec<_>>()
            .join(" -> ")
    );

    let egress = chain_at_destinations(&graph, &flows, &chain);
    let e = evaluate_chain(&flows, &chain, &egress);
    println!(
        "egress baseline: {} instances, bandwidth {:.0}",
        egress.total_instances(),
        e.bandwidth
    );

    println!("\n{:>8} {:>11} {:>10}", "budget", "instances", "bandwidth");
    for budget in [3usize, 6, 9, 12, 16] {
        match chain_gtp(&graph, &flows, &chain, budget) {
            Ok((dep, eval)) => println!(
                "{budget:>8} {:>11} {:>10.0}",
                dep.total_instances(),
                eval.bandwidth
            ),
            Err(err) => println!("{budget:>8} {err:>22}"),
        }
    }
    let (dep, eval) = chain_gtp(&graph, &flows, &chain, 16).expect("budget 16 feasible");
    println!("\nbudget-16 plan:");
    for (t, spec) in chain.types().iter().enumerate() {
        println!("  {:<11} at {:?}", spec.name, dep.instances(t));
    }
    println!(
        "bandwidth {:.0} — the optimizer spreads toward sources while \
         decryption stays at the egress.",
        eval.bandwidth
    );
}
