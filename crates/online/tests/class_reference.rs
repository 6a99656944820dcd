//! Class-level `DeltaState` against a per-flow reference.
//!
//! `DeltaState` keeps rows, assignments and rate sums per live path
//! class, so `marginal_gain` sums one term per class
//! (`R_c · (1 − λ) · …`) and a class moves its whole saved share in
//! `primary_load`. Def. 2 sums one term per flow. This property
//! streams gateway traffic — few destinations on small graphs, so
//! classes hold several members — through arrivals, departures,
//! failures, recoveries and local repair, and after every event
//! recomputes both quantities at every vertex flow by flow from the
//! densified snapshot. At λ = 0.5 with integer rates every term is
//! exact, so the two must agree bit for bit; at λ = 0.3 they may
//! differ only by rounding.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdmd_core::{CostModel, Deployment, HopCount};
use tdmd_graph::generators::random::erdos_renyi_connected;
use tdmd_graph::NodeId;
use tdmd_online::{Event, FlowKey, OnlineEngine, RepairPolicy};
use tdmd_traffic::{Flow, GatewayWorkload};

/// One flow of the densified snapshot with its hop gains and its
/// assignment under the deployment: the best deployed on-path vertex
/// by `(gain, smaller id)`.
struct Reference {
    flow: Flow,
    gains: Vec<f64>,
    assigned: Option<(NodeId, f64)>,
}

fn reference(flows: Vec<Flow>, dep: &Deployment) -> Vec<Reference> {
    flows
        .into_iter()
        .map(|flow| {
            let gains = HopCount.gains(&flow);
            let mut assigned: Option<(NodeId, f64)> = None;
            for (&v, &g) in flow.path.iter().zip(&gains) {
                let better = assigned.is_none_or(|(av, ag)| g > ag || (g == ag && v < av));
                if dep.contains(v) && better {
                    assigned = Some((v, g));
                }
            }
            Reference {
                flow,
                gains,
                assigned,
            }
        })
        .collect()
}

/// Def. 2 at `v`, flow by flow in arrival order.
fn marginal_gain(flows: &[Reference], v: NodeId, factor: f64) -> f64 {
    flows
        .iter()
        .filter_map(|r| {
            let pos = r.flow.path.iter().position(|&u| u == v)?;
            let (g, cur) = (r.gains[pos], r.assigned.map_or(0.0, |(_, g)| g));
            Some(if g > cur {
                r.flow.rate as f64 * factor * (g - cur)
            } else {
                0.0
            })
        })
        .sum()
}

/// The saved share of the flows served at `v`, flow by flow (from
/// `+0.0`, as the engine's per-vertex sums start).
fn primary_load(flows: &[Reference], v: NodeId, factor: f64) -> f64 {
    flows
        .iter()
        .filter_map(|r| match r.assigned {
            Some((av, g)) if av == v => Some(r.flow.rate as f64 * factor * g),
            _ => None,
        })
        .fold(0.0, |sum, s| sum + s)
}

/// Whether the engine's `got` matches the reference `want`: bit for
/// bit, or within `rel` of the larger of the two and `floor` when
/// `rel` is positive.
fn agrees(got: f64, want: f64, rel: f64, floor: f64) -> bool {
    if rel == 0.0 {
        got.to_bits() == want.to_bits()
    } else {
        (got - want).abs() <= rel * got.abs().max(want.abs()).max(floor)
    }
}

/// Streams `len` events and checks both quantities at every vertex
/// after each. Returns the largest members-per-class ratio seen.
fn stream(seed: u64, n: usize, k: usize, len: usize, lambda: f64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = erdos_renyi_connected(n, 0.3, &mut rng);
    let gateways = GatewayWorkload::pick_gateways(n, 2, &mut rng);
    let traffic = GatewayWorkload::new(&g, gateways, 5);
    let mut engine =
        OnlineEngine::new(g.clone(), lambda, k, HopCount, RepairPolicy::local_only(2)).unwrap();
    let (rel, factor) = (if lambda == 0.5 { 0.0 } else { 1e-9 }, 1.0 - lambda);
    let mut active: Vec<FlowKey> = Vec::new();
    let mut failed: Vec<NodeId> = Vec::new();
    let mut next_key: FlowKey = 0;
    let mut sharing = 0.0f64;
    for _ in 0..len {
        let ev = match rng.gen_range(0..20) {
            0..=10 => {
                let f = traffic.flow(&g, 0, &mut rng);
                active.push(next_key);
                next_key += 1;
                Event::FlowArrived {
                    key: next_key - 1,
                    rate: f.rate,
                    path: f.path,
                }
            }
            11..=15 if !active.is_empty() => Event::FlowDeparted {
                key: active.swap_remove(rng.gen_range(0..active.len())),
            },
            16 | 17 if !engine.deployment().is_empty() => {
                let dep = engine.deployment().vertices();
                let v = dep[rng.gen_range(0..dep.len())];
                failed.push(v);
                Event::MiddleboxFailed { vertex: v }
            }
            18 if failed.len() < n => {
                let mut v = rng.gen_range(0..n as NodeId);
                while failed.contains(&v) {
                    v = rng.gen_range(0..n as NodeId);
                }
                failed.push(v);
                Event::VertexDown { vertex: v }
            }
            _ if !failed.is_empty() => Event::MiddleboxRecovered {
                vertex: failed.swap_remove(rng.gen_range(0..failed.len())),
            },
            _ => continue,
        };
        engine.apply(&ev).unwrap();
        let state = engine.state();
        let dep = engine.deployment();
        let flows = reference(state.active_snapshot(), dep);
        for v in 0..n as NodeId {
            let (got, want) = (state.marginal_gain(v), marginal_gain(&flows, v, factor));
            prop_assert!(
                agrees(got, want, rel, 0.0),
                "λ {lambda}, after {ev:?}: marginal_gain({v}) {got} vs per-flow {want}"
            );
            // A running sum: at λ = 0.3 a box that served classes keeps
            // their rounding after they leave, so compare against a
            // floor of 1.
            let (got, want) = (state.primary_load(v), primary_load(&flows, v, factor));
            prop_assert!(
                agrees(got, want, rel, 1.0),
                "λ {lambda}, after {ev:?}: primary_load({v}) {got} vs per-flow {want}"
            );
        }
        if state.class_count() > 0 {
            sharing = sharing.max(state.active_count() as f64 / state.class_count() as f64);
        }
    }
    sharing
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After every event of a gateway stream with failures and local
    /// repair, the class sums equal the per-flow Def. 2 sums at every
    /// vertex: bitwise at λ = 0.5, to 1e-9 relative at λ = 0.3.
    #[test]
    fn class_sums_equal_per_flow_def2_sums(
        seed in any::<u64>(),
        n in 6usize..14,
        k in 1usize..5,
        len in 40usize..160,
    ) {
        for lambda in [0.5, 0.3] {
            let sharing = stream(seed, n, k, len, lambda);
            prop_assert!(sharing > 1.0, "vacuous: no class ever held two flows");
        }
    }
}
