//! Weighted links and capacitated middleboxes — the two model
//! extensions this repository adds over the paper
//! (`tdmd-core::cost::WeightedEdges`, `tdmd-core::capacitated`).
//!
//! A WAN where one access link is a 100×-priced satellite hop:
//! hop-count placement and cost-aware placement choose *different*
//! deployments, and tight per-box capacities force plans to spread.
//!
//! ```sh
//! cargo run --release --example priced_links
//! ```

use tdmd::core::algorithms::gtp::{gtp_budgeted, gtp_budgeted_with};
use tdmd::core::capacitated::gtp_capacitated;
use tdmd::core::{FlowIndex, Instance, WeightedEdges};
use tdmd::graph::GraphBuilder;
use tdmd::traffic::Flow;

fn main() {
    // Root 0. Metro chain 0-1-2-3 (cost 1 each). Access tree 0-4 with
    // leaves 5 (cheap) and 6 (satellite, cost 100).
    let mut b = GraphBuilder::new(7);
    b.add_bidirectional_weighted(0, 1, 1);
    b.add_bidirectional_weighted(1, 2, 1);
    b.add_bidirectional_weighted(2, 3, 1);
    b.add_bidirectional_weighted(0, 4, 1);
    b.add_bidirectional_weighted(4, 5, 1);
    b.add_bidirectional_weighted(4, 6, 100);
    let graph = b.build();
    let flows = vec![
        Flow::new(0, 1, vec![3, 2, 1, 0]), // 3 cheap hops
        Flow::new(1, 1, vec![5, 4, 0]),    // 2 cheap hops
        Flow::new(2, 1, vec![6, 4, 0]),    // satellite + 1 hop
    ];
    let inst = Instance::new(graph, flows, 0.5, 2).expect("valid");
    let model = WeightedEdges::new(inst.graph());
    let index = FlowIndex::build(&inst, &model);

    println!("k = 2, λ = 0.5, one 100-cost satellite uplink (6 -> 4):\n");
    let hop_plan = gtp_budgeted(&inst, 2).expect("feasible");
    let cost_plan = gtp_budgeted_with(&inst, 2, &model).expect("feasible");
    println!(
        "hop-count GTP deploys  {:?}: hop bandwidth {:>4.1}, true cost {:>6.1}",
        hop_plan.vertices(),
        tdmd::core::objective::bandwidth_of(&inst, &hop_plan),
        index.bandwidth_of(&inst, &hop_plan),
    );
    println!(
        "cost-aware GTP deploys {:?}: hop bandwidth {:>4.1}, true cost {:>6.1}",
        cost_plan.vertices(),
        tdmd::core::objective::bandwidth_of(&inst, &cost_plan),
        index.bandwidth_of(&inst, &cost_plan),
    );
    println!(
        "\n(the hop-count plan leaves the satellite hop at full rate: \
              counting links misprices the network)"
    );

    // Capacity: each box may serve at most one flow.
    println!("\nwith per-middlebox capacity 1:");
    for k in 2..=4 {
        match gtp_capacitated(&inst.with_k(k), k, 1) {
            Ok((d, alloc, bandwidth)) => {
                let served = alloc.assigned.iter().flatten().count();
                println!(
                    "  k = {k}: deploy {:?} serving {served} flows -> hop bandwidth {bandwidth:.1}",
                    d.vertices()
                );
            }
            Err(e) => println!("  k = {k}: {e}"),
        }
    }
}
