//! tdmd-audit corruption properties for the online layer.
//!
//! Two directions:
//!
//! * **Soundness** — a per-event-audited engine survives arbitrary
//!   churn + failure streams: every documented `DeltaState`,
//!   `LazyQueue` and engine invariant holds after every applied event
//!   (the auditor panics otherwise).
//! * **Completeness** — each corruption hook seeds one specific
//!   invariant break, and the auditor rejects it with the expected
//!   check name: off-path/suboptimal class assignment, skewed running
//!   sums, a dropped or misplaced class row entry, a miscounted,
//!   unmapped or mis-summed path class, a member list out of arrival
//!   order, an arrival log whose entries and positions disagree, stale
//!   queue epoch.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdmd_core::{CostModel, Deployment, HopCount};
use tdmd_graph::generators::random::erdos_renyi_connected;
use tdmd_graph::traversal::bfs;
use tdmd_graph::{DiGraph, NodeId};
use tdmd_online::{DeltaState, Event, FlowKey, LazyQueue, OnlineEngine, RepairPolicy};

/// BFS shortest path `src → dst` (the generator guarantees
/// connectivity).
fn shortest_path(g: &DiGraph, src: NodeId, dst: NodeId) -> Vec<NodeId> {
    let r = bfs(g, src);
    let mut path = vec![dst];
    let mut v = dst;
    while v != src {
        v = r.parent[v as usize];
        path.push(v);
    }
    path.reverse();
    path
}

/// A random history of arrivals, departures, vertex failures and
/// recoveries, all valid for sequential application.
fn random_events(g: &DiGraph, seed: u64, len: usize) -> Vec<Event> {
    let n = g.node_count() as NodeId;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut active: Vec<FlowKey> = Vec::new();
    let mut failed: Vec<NodeId> = Vec::new();
    let mut next_key: FlowKey = 0;
    let mut out = Vec::new();
    for _ in 0..len {
        match rng.gen_range(0..10) {
            0..=4 => {
                let src = rng.gen_range(0..n);
                let mut dst = rng.gen_range(0..n);
                while dst == src {
                    dst = rng.gen_range(0..n);
                }
                out.push(Event::FlowArrived {
                    key: next_key,
                    rate: rng.gen_range(1..=10),
                    path: shortest_path(g, src, dst),
                });
                active.push(next_key);
                next_key += 1;
            }
            5..=6 if !active.is_empty() => {
                let i = rng.gen_range(0..active.len());
                out.push(Event::FlowDeparted {
                    key: active.swap_remove(i),
                });
            }
            7..=8 if (failed.len() as NodeId) < n => {
                let mut v = rng.gen_range(0..n);
                while failed.contains(&v) {
                    v = rng.gen_range(0..n);
                }
                out.push(Event::VertexDown { vertex: v });
                failed.push(v);
            }
            _ if !failed.is_empty() => {
                let i = rng.gen_range(0..failed.len());
                out.push(Event::MiddleboxRecovered {
                    vertex: failed.swap_remove(i),
                });
            }
            _ => {} // nothing valid to do this tick
        }
    }
    out
}

/// Inserts a flow priced by hop count.
fn insert(st: &mut DeltaState, key: FlowKey, rate: u64, path: Vec<NodeId>, dep: &Deployment) {
    let probe = tdmd_traffic::Flow::new(0, rate, path.clone());
    let gains = HopCount.gains(&probe);
    let cost = HopCount.unprocessed_cost(&probe);
    st.insert(key, rate, path, gains, cost, dep);
}

/// A small populated state for corruption seeding: two overlapping
/// flows, each its own path class, on a 4-line, one middlebox at
/// vertex 1.
fn seeded_state() -> (DeltaState, Deployment) {
    let mut st = DeltaState::new(4, 0.5);
    let dep = Deployment::from_vertices(4, [1]);
    insert(&mut st, 7, 2, vec![3, 2, 1, 0], &dep);
    insert(&mut st, 8, 4, vec![2, 1, 0], &dep);
    st.check_invariants(&dep).expect("seed state is clean");
    (st, dep)
}

#[test]
fn forced_offpath_assignment_is_rejected() {
    let (mut st, dep) = seeded_state();
    // Vertex 3 is off flow 8's path entirely; the optimality check
    // recomputes the true best and disagrees.
    st.audit_force_assignment(8, Some((3, 2.0)));
    let err = st.check_invariants(&dep).unwrap_err();
    assert_eq!(err.check, "delta-assignment", "{err}");
}

#[test]
fn dropped_assignment_breaks_the_unserved_census() {
    let (mut st, dep) = seeded_state();
    // Un-assigning without bumping `unserved` breaks invariant 2
    // first (vertex 1 is deployed and on-path, so None is not
    // optimal).
    st.audit_force_assignment(7, None);
    let err = st.check_invariants(&dep).unwrap_err();
    assert_eq!(err.check, "delta-assignment", "{err}");
    // With the box undeployed, None becomes optimal for both flows —
    // now the stale running sums are the first detectable break.
    st.audit_force_assignment(8, None);
    let empty = Deployment::empty(4);
    let err = st.check_invariants(&empty).unwrap_err();
    assert_eq!(err.check, "delta-sum-saved", "{err}");
}

#[test]
fn skewed_saved_sum_is_rejected() {
    let (mut st, dep) = seeded_state();
    st.audit_skew_saved(1.0);
    let err = st.check_invariants(&dep).unwrap_err();
    assert_eq!(err.check, "delta-sum-saved", "{err}");
}

#[test]
fn swapped_row_entries_break_the_mirror() {
    let (mut st, dep) = seeded_state();
    // Vertex 1 carries both flows: swapping its row entries without
    // fixing the back-pointers breaks invariant 1.
    assert!(st.audit_swap_row_entries(1), "vertex 1 carries two flows");
    let err = st.check_invariants(&dep).unwrap_err();
    assert_eq!(err.check, "delta-row-backpointer", "{err}");
}

#[test]
fn dropped_row_entry_breaks_the_mirror() {
    let (mut st, dep) = seeded_state();
    // Both classes still cross vertex 1, but its row lists one.
    assert!(st.audit_drop_row_entry(1), "vertex 1 carries two classes");
    let err = st.check_invariants(&dep).unwrap_err();
    assert_eq!(err.check, "delta-row-mirror", "{err}");
}

#[test]
fn skewed_class_rate_breaks_the_recount() {
    let (mut st, dep) = seeded_state();
    // Flow 8's class sums a rate its one member does not carry.
    st.audit_skew_class_rate(8, 3);
    let err = st.check_invariants(&dep).unwrap_err();
    assert_eq!(err.check, "delta-class-rate", "{err}");
}

#[test]
fn swapped_members_break_the_member_list() {
    let (mut st, dep) = seeded_state();
    // A second member of flow 8's class; the class keeps one row
    // entry per path vertex and serves both at vertex 1.
    insert(&mut st, 9, 1, vec![2, 1, 0], &dep);
    st.check_invariants(&dep).expect("a joined class is clean");
    // Linked whole, but flow 9 now precedes flow 8.
    assert!(st.audit_swap_members(8), "the class holds two members");
    let err = st.check_invariants(&dep).unwrap_err();
    assert_eq!(err.check, "delta-class-members", "{err}");
}

#[test]
fn swapped_order_entries_break_the_arrival_log() {
    let (mut st, dep) = seeded_state();
    // A departure leaves a dead entry ahead of the two live ones; the
    // hook swaps the live ones, so each flow's `pos` names the other's
    // slot.
    insert(&mut st, 9, 1, vec![3, 2], &dep);
    st.remove(7);
    st.check_invariants(&dep).expect("a dead entry is clean");
    assert!(st.audit_swap_order(), "the log holds two live entries");
    let err = st.check_invariants(&dep).unwrap_err();
    assert_eq!(err.check, "delta-order-log", "{err}");
}

#[test]
fn miscounted_class_breaks_the_census() {
    let (mut st, dep) = seeded_state();
    // Flow 8's class counts a member no flow is.
    st.audit_miscount_class(8);
    let err = st.check_invariants(&dep).unwrap_err();
    assert_eq!(err.check, "delta-class-census", "{err}");
}

#[test]
fn unmapped_class_breaks_the_key_map() {
    let (mut st, dep) = seeded_state();
    // Flow 7's class is still named but no longer found by its path.
    st.audit_unmap_class(7);
    let err = st.check_invariants(&dep).unwrap_err();
    assert_eq!(err.check, "delta-class-key", "{err}");
}

#[test]
fn stale_queue_epoch_is_rejected() {
    let mut q = LazyQueue::new(3);
    q.touch_up(0, 5.0);
    q.touch_up(1, 2.0);
    let dep = Deployment::empty(3);
    let gains = [5.0, 2.0, 0.0];
    q.check_coherence(&dep, |v| gains[v as usize])
        .expect("fresh queue is coherent");
    // Bumping vertex 0's epoch without a fresh push kills its live
    // entry while its exact gain is still positive.
    q.audit_stale_stamp(0);
    let err = q.check_coherence(&dep, |v| gains[v as usize]).unwrap_err();
    assert_eq!(err.check, "queue-missing-candidate", "{err}");
}

#[test]
fn optimistic_arrival_bounds_stay_dirty_upper_bounds() {
    let mut q = LazyQueue::new(2);
    q.touch_up(0, 9.0); // optimistic bound, true gain 4
    let dep = Deployment::empty(2);
    q.check_coherence(&dep, |v| if v == 0 { 4.0 } else { 0.0 })
        .expect("dirty bound above exact gain is coherent");
    // A dirty bound *below* the exact gain breaks the CELF
    // upper-bound invariant.
    let err = q
        .check_coherence(&dep, |v| if v == 0 { 20.0 } else { 0.0 })
        .unwrap_err();
    assert_eq!(err.check, "queue-bound-violated", "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every engine invariant holds after every event of an arbitrary
    /// churn + failure stream, under both local-only repair and
    /// drift-sampled replanning (the auditor panics on violation), at
    /// λ = 0.5, where every class sum is exact, and at λ = 0.3, where
    /// class commits, re-homes and flips round.
    #[test]
    fn audited_engine_survives_random_streams(
        seed in any::<u64>(),
        n in 4usize..12,
        len in 1usize..40,
        k in 1usize..4,
        sampled in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi_connected(n, 0.3, &mut rng);
        let policy = if sampled {
            RepairPolicy { sample_every: 3, ..RepairPolicy::default() }
        } else {
            RepairPolicy::local_only(2)
        };
        let events = random_events(&g, seed ^ 0x7E, len);
        for lambda in [0.5, 0.3] {
            let mut engine = OnlineEngine::new(
                g.clone(), lambda, k, HopCount, policy,
            ).unwrap();
            engine.enable_audit();
            for ev in &events {
                engine.apply(ev).unwrap();
            }
            engine.audit_now().unwrap();
        }
    }
}
