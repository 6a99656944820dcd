//! Pins the implementation to every number the paper works out by
//! hand, exercised through the public facade API.

use tdmd::core::algorithms::dp::{dp_optimal, dp_tables};
use tdmd::core::algorithms::exhaustive::{exhaustive_optimal, DEFAULT_SUBSET_CAP};
use tdmd::core::algorithms::gtp::gtp_budgeted;
use tdmd::core::algorithms::hat::hat;
use tdmd::core::objective::{bandwidth_of, lemma1_bounds};
use tdmd::core::paper::{fig1_instance, fig5_instance};
use tdmd::core::{Deployment, FlowIndex, HopCount};

#[test]
fn fig1_optimal_bandwidths() {
    // Fig. 1(a): two middleboxes -> 12; Fig. 1(b): three -> 8.
    let inst2 = fig1_instance(2);
    let (_, b2) = exhaustive_optimal(&inst2, 2, DEFAULT_SUBSET_CAP).unwrap();
    assert_eq!(b2, 12.0);
    let inst3 = fig1_instance(3);
    let (_, b3) = exhaustive_optimal(&inst3, 3, DEFAULT_SUBSET_CAP).unwrap();
    assert_eq!(b3, 8.0);
    // And 8 is the Lemma-1 floor: λ · Σ r|p| = 0.5 · 16.
    let (_, dmax) = lemma1_bounds(&inst3);
    assert_eq!(inst3.unprocessed_bandwidth() - dmax, 8.0);
}

#[test]
fn table2_marginal_decrements() {
    let inst = fig1_instance(3);
    let index = FlowIndex::build(&inst, &HopCount);
    // The row of marginal decrements d_P(v1..v6) after deploying `p`.
    let row = |p: &[u32]| -> Vec<f64> {
        let d = Deployment::from_vertices(6, p.iter().copied());
        let cur: Vec<f64> = index
            .best_down(&d)
            .into_iter()
            .map(|g| g.unwrap_or(0.0))
            .collect();
        (0..6)
            .map(|v| index.marginal_decrement(&inst, &cur, v))
            .collect()
    };
    // Row d_∅ (1-based v1..v6): 0 0 3 1 4 3.
    assert_eq!(row(&[]), vec![0.0, 0.0, 3.0, 1.0, 4.0, 3.0]);
    // Row d_{v5}: 0 0 1 1 — 3.
    let r = row(&[4]);
    assert_eq!(r[..4], [0.0, 0.0, 1.0, 1.0]);
    assert_eq!(r[5], 3.0);
    // Row d_{v5,v6}: 0 0 0 1 — —.
    assert_eq!(row(&[4, 5])[..4], [0.0, 0.0, 0.0, 1.0]);
}

#[test]
fn gtp_walkthrough_matches_section4() {
    // k = 3: rounds pick v5, v6, v4 (paper's max marginal decrements).
    let d = gtp_budgeted(&fig1_instance(3), 3).unwrap();
    assert_eq!(d.vertices(), &[3, 4, 5]);
    // k = 2: "we can only deploy a middlebox on v2" -> {v2, v5}.
    let d = gtp_budgeted(&fig1_instance(2), 2).unwrap();
    assert_eq!(d.vertices(), &[1, 4]);
}

#[test]
fn fig6_f_table_row_of_the_root() {
    let inst = fig5_instance(4);
    let t = dp_tables(&inst).unwrap();
    assert_eq!(
        (1..=4).map(|k| t.f[0][k]).collect::<Vec<_>>(),
        vec![24.0, 16.5, 13.5, 12.0]
    );
}

#[test]
fn section5_hat_walkthrough() {
    // k >= 4: all four sources stay. k = 3: {v2, v7, v8}. k = 1: root.
    let inst = fig5_instance(4);
    assert_eq!(hat(&inst, 4).unwrap().vertices(), &[3, 4, 6, 7]);
    let inst = fig5_instance(3);
    assert_eq!(hat(&inst, 3).unwrap().vertices(), &[1, 6, 7]);
    let inst = fig5_instance(1);
    assert_eq!(hat(&inst, 1).unwrap().vertices(), &[0]);
    // k = 2 ties between {v2, v6} and {v1, v7}; both cost 16.5.
    let inst = fig5_instance(2);
    let d = hat(&inst, 2).unwrap();
    assert_eq!(bandwidth_of(&inst, &d), 16.5);
}

#[test]
fn dp_certified_optimal_by_exhaustive_on_fig5() {
    for k in 1..=4 {
        let inst = fig5_instance(k);
        let dp = dp_optimal(&inst).unwrap().bandwidth;
        let (_, ex) = exhaustive_optimal(&inst, k, DEFAULT_SUBSET_CAP).unwrap();
        assert_eq!(dp, ex, "k={k}");
    }
}

#[test]
fn spam_filter_intercepts_all_traffic_at_sources() {
    // §6.5: spam filters have λ = 0; placed at every source, nothing
    // is carried at all.
    let inst = fig5_instance(4).with_lambda(0.0);
    let d = Deployment::from_vertices(8, [3, 4, 6, 7]);
    assert_eq!(bandwidth_of(&inst, &d), 0.0);
}
