//! The TDMD objective (Eq. 1) and the decrement function (Def. 1).
//!
//! Once a deployment `P` is fixed, the optimal allocation is forced
//! (§3.1): every flow uses the deployed middlebox nearest its source,
//! i.e. the one maximizing the downstream hop count `l_v(f)`, because
//! `b(f) = r_f(|p_f| − (1 − λ)·l_v(f))` strictly decreases in `l`.
//! All routines below work in terms of per-flow best-`l` vectors,
//! found by walking each flow's path from its source: `l` falls along
//! the path, so the first deployed vertex met is the best one.
//! Marginal decrements `d_P(v)` (Def. 2) are scored on the compiled
//! [`FlowIndex`](crate::cost::FlowIndex), under any cost model.

use crate::instance::Instance;
use crate::num::{id32, ix};
use crate::plan::{Allocation, Deployment};
use tdmd_graph::NodeId;

/// Optimal allocation under `deployment`: each flow is served by the
/// on-path middlebox with the largest `l_v(f)` (nearest the source).
/// Distinct on-path vertices of one flow have distinct `l`, so the
/// choice is unique. Unserved flows get `None`.
pub fn allocate(instance: &Instance, deployment: &Deployment) -> Allocation {
    let assigned = instance
        .flows()
        .iter()
        .map(|f| f.path.iter().copied().find(|&v| deployment.contains(v)))
        .collect();
    Allocation { assigned }
}

/// Per-flow best downstream hop counts under `deployment` —
/// `Some(l)` for served flows, `None` for unserved ones.
pub fn best_hops(instance: &Instance, deployment: &Deployment) -> Vec<Option<u32>> {
    instance
        .flows()
        .iter()
        .map(|f| {
            f.path
                .iter()
                .position(|&v| deployment.contains(v))
                .map(|pos| id32(f.hops() - pos))
        })
        .collect()
}

/// Total bandwidth consumption `b(P, F)` of an allocation (Eq. 1);
/// unserved flows consume their full unprocessed bandwidth.
pub fn bandwidth(instance: &Instance, alloc: &Allocation) -> f64 {
    let lambda = instance.lambda();
    instance
        .flows()
        .iter()
        .map(|f| {
            let base = f.unprocessed_bandwidth();
            match alloc.assigned[f.id as usize] {
                Some(v) => {
                    let l = f.downstream_hops(v).expect("assigned vertex is on path") as f64;
                    base - f.rate as f64 * (1.0 - lambda) * l
                }
                None => base,
            }
        })
        .sum()
}

/// Convenience: bandwidth of a deployment under its optimal
/// allocation.
pub fn bandwidth_of(instance: &Instance, deployment: &Deployment) -> f64 {
    let lambda = instance.lambda();
    let mut total = instance.unprocessed_bandwidth();
    for (f, l) in instance.flows().iter().zip(best_hops(instance, deployment)) {
        if let Some(l) = l {
            total -= f.rate as f64 * (1.0 - lambda) * l as f64;
        }
    }
    total
}

/// Decrement function `d(P) = Σ r_f|p_f| − b(P)` (Def. 1).
pub fn decrement(instance: &Instance, deployment: &Deployment) -> f64 {
    instance.unprocessed_bandwidth() - bandwidth_of(instance, deployment)
}

/// Number of currently-unserved flows that placing a middlebox on `v`
/// would newly cover: the coverage term of the greedy tie-break that
/// keeps GTP making coverage progress even when `λ = 1` flattens the
/// decrement. The greedies keep these counts incrementally; this is
/// their definition, counted from the paths.
pub fn coverage_gain(instance: &Instance, served: &[bool], v: NodeId) -> usize {
    instance
        .flows()
        .iter()
        .filter(|f| !served[ix(f.id)] && f.path.contains(&v))
        .count()
}

/// Lemma 1 bounds: `(min d, max d) = (0, (1 − λ) Σ r_f |p_f|)`.
pub fn lemma1_bounds(instance: &Instance) -> (f64, f64) {
    (
        0.0,
        (1.0 - instance.lambda()) * instance.unprocessed_bandwidth(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::fig1_instance;

    #[test]
    fn fig1_two_middlebox_optimum_is_12() {
        // Fig. 1(a): middleboxes on v5 and v2 (0-based: 4 and 1)
        // give total bandwidth 12.
        let inst = fig1_instance(2);
        let d = Deployment::from_vertices(6, [4, 1]);
        let alloc = allocate(&inst, &d);
        assert!(alloc.is_complete());
        assert_eq!(bandwidth(&inst, &alloc), 12.0);
        assert_eq!(bandwidth_of(&inst, &d), 12.0);
    }

    #[test]
    fn fig1_three_middlebox_optimum_is_8() {
        // Fig. 1(b): a middlebox on every flow source: v5, v6, v4
        // (0-based 4, 5, 3) gives the minimum 8.
        let inst = fig1_instance(3);
        let d = Deployment::from_vertices(6, [4, 5, 3]);
        assert_eq!(bandwidth_of(&inst, &d), 8.0);
        let (_, dmax) = lemma1_bounds(&inst);
        assert_eq!(
            decrement(&inst, &d),
            dmax,
            "source placement reaches Lemma 1 max"
        );
    }

    #[test]
    fn empty_deployment_consumes_everything() {
        let inst = fig1_instance(2);
        let d = Deployment::empty(6);
        assert_eq!(bandwidth_of(&inst, &d), inst.unprocessed_bandwidth());
        assert_eq!(decrement(&inst, &d), 0.0, "Lemma 1: d(∅) = 0");
        assert!(!allocate(&inst, &d).is_complete());
    }

    #[test]
    fn allocation_picks_nearest_source_box() {
        let inst = fig1_instance(2);
        // Boxes on v3 (=2) and v5 (=4): f1 must use v5 (l=2), not v3.
        let d = Deployment::from_vertices(6, [2, 4]);
        let alloc = allocate(&inst, &d);
        assert_eq!(alloc.assigned[0], Some(4));
        assert_eq!(alloc.assigned[1], Some(2));
        // f3/f4 (through v4->v2->v1... i.e. 3 -> 1 -> 0) are unserved.
        assert_eq!(alloc.assigned[2], None);
        assert!(!alloc.is_complete());
    }

    #[test]
    fn best_hops_matches_allocate() {
        let inst = fig1_instance(2);
        let d = Deployment::from_vertices(6, [2, 4, 0]);
        let alloc = allocate(&inst, &d);
        let hops = best_hops(&inst, &d);
        for (f, (a, h)) in inst.flows().iter().zip(alloc.assigned.iter().zip(hops)) {
            match (a, h) {
                (Some(v), Some(l)) => assert_eq!(f.downstream_hops(*v).unwrap() as u32, l),
                (None, None) => {}
                other => panic!("mismatch {other:?}"),
            }
        }
    }

    /// On random gateway and all-pairs ER instances, under empty
    /// deployments, random ones and ones that cover every flow,
    /// `best_hops` equals the hop-count index's `best_down` bit for
    /// bit, `allocate` serves each flow at the deployed on-path vertex
    /// with that `l`, and `is_feasible` agrees with the index.
    #[test]
    fn path_walks_agree_with_the_hop_count_index() {
        use crate::cost::{FlowIndex, HopCount};
        use crate::feasibility::tests::random_instance;
        use crate::feasibility::{greedy_cover, is_feasible};
        use proptest::TestRng;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let seed = proptest::fnv1a("path_walks_agree_with_the_hop_count_index");
        let (mut empty, mut partial, mut full) = (0usize, 0usize, 0usize);
        for case in 0..300u64 {
            let mut rng = StdRng::seed_from_u64(TestRng::for_case(seed, case).next_u64());
            let inst = random_instance(&mut rng);
            let n = inst.node_count();
            let random_boxes = |rng: &mut StdRng| -> Vec<NodeId> {
                let count = rng.gen_range(1..=n);
                (0..count).map(|_| id32(rng.gen_range(0..n))).collect()
            };
            let deployment = match case % 3 {
                0 => Deployment::empty(n),
                1 => Deployment::from_vertices(n, random_boxes(&mut rng)),
                _ => {
                    let unserved = vec![false; inst.flows().len()];
                    let cover = greedy_cover(&inst, &unserved).expect("every path has a vertex");
                    let extra = if rng.gen_bool(0.5) {
                        random_boxes(&mut rng)
                    } else {
                        Vec::new()
                    };
                    Deployment::from_vertices(n, cover.into_iter().chain(extra))
                }
            };
            let index = FlowIndex::build(&inst, &HopCount);
            let want: Vec<Option<u64>> = index
                .best_down(&deployment)
                .into_iter()
                .map(|g| g.map(f64::to_bits))
                .collect();
            let hops = best_hops(&inst, &deployment);
            let got: Vec<Option<u64>> = hops
                .iter()
                .map(|l| l.map(|l| f64::from(l).to_bits()))
                .collect();
            assert_eq!(got, want, "case {case}");
            let alloc = allocate(&inst, &deployment);
            for (f, (a, l)) in inst.flows().iter().zip(alloc.assigned.iter().zip(&hops)) {
                match (*a, *l) {
                    (Some(v), Some(l)) => {
                        assert!(deployment.contains(v), "case {case}, flow {}", f.id);
                        assert_eq!(f.downstream_hops(v), Some(ix(l)), "case {case}");
                    }
                    (None, None) => {}
                    other => panic!("case {case}, flow {}: {other:?}", f.id),
                }
            }
            let covered = want.iter().all(Option::is_some);
            assert_eq!(is_feasible(&inst, &deployment), covered, "case {case}");
            assert_eq!(alloc.is_complete(), covered, "case {case}");
            match (deployment.is_empty(), covered) {
                (true, _) => empty += 1,
                (false, false) => partial += 1,
                (false, true) => full += 1,
            }
        }
        assert!(
            empty > 0 && partial > 0 && full > 0,
            "vacuous run: {empty} empty, {partial} partial, {full} covering deployments"
        );
    }

    #[test]
    fn coverage_gain_counts_unserved_only() {
        let inst = fig1_instance(2);
        let served = vec![false; 4];
        assert_eq!(coverage_gain(&inst, &served, 2), 2); // f1, f2 cross v3
        let served = vec![true, false, false, false];
        assert_eq!(coverage_gain(&inst, &served, 2), 1);
    }

    #[test]
    fn lambda_one_means_no_decrement() {
        let inst = fig1_instance(2).with_lambda(1.0);
        let d = Deployment::from_vertices(6, [3, 4, 5]);
        assert_eq!(decrement(&inst, &d), 0.0);
        assert_eq!(bandwidth_of(&inst, &d), inst.unprocessed_bandwidth());
    }

    #[test]
    fn lambda_zero_spam_filter_cuts_everything_at_source() {
        let inst = fig1_instance(3).with_lambda(0.0);
        let d = Deployment::from_vertices(6, [3, 4, 5]);
        assert_eq!(bandwidth_of(&inst, &d), 0.0, "spam filtered at the source");
    }
}
