//! Feasibility of deployments (Thm. 1 territory).
//!
//! A deployment is feasible when every flow crosses at least one
//! middlebox. Verifying a given plan is `O(|F|)`; *deciding* whether a
//! feasible plan with `k` boxes exists is NP-hard in general
//! topologies (set-cover reduction, Thm. 1), so we also provide the
//! standard greedy set-cover routine both as a constructive upper
//! bound and as the feasibility fallback the budgeted algorithms use.
//!
//! The budgeted greedies keep one `Coverage` state up to date as they
//! deploy, and the tight-budget guard (`guard`) runs its greedy covers
//! on that state's per-vertex counts, never on a copied `served`
//! vector. Both work on the path classes of a compiled [`FlowIndex`],
//! whose rows list classes, not flows (each distinct path once,
//! however many flows follow it), never on the [`Instance`]. A class
//! of [`FlowIndex::compile`] is keyed by path and pricing, so one path
//! may hold several classes; a box serves them all alike, so every
//! count below stays exact.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::cost::{FlowIndex, HopCount};
use crate::error::TdmdError;
use crate::instance::Instance;
use crate::num::{id32, ix};
use crate::plan::Deployment;
use tdmd_graph::NodeId;

/// True if every flow is covered by `deployment`.
pub fn is_feasible(instance: &Instance, deployment: &Deployment) -> bool {
    crate::objective::best_hops(instance, deployment)
        .iter()
        .all(Option::is_some)
}

/// Greedy set cover over the *unserved* flows: repeatedly picks the
/// vertex covering the most still-uncovered flows (ties toward the
/// smaller id). Returns the chosen vertices, or `None` if some flow
/// cannot be covered at all (impossible for valid paths, kept for
/// robustness). The result size is within a `(ln |F| + 1)` factor of
/// the minimum cover and never below it: an *upper* bound on the
/// boxes feasibility needs, so a cover larger than the budget only
/// suggests, and does not prove, that the budget is too small.
pub fn greedy_cover(instance: &Instance, already_served: &[bool]) -> Option<Vec<NodeId>> {
    debug_assert_eq!(already_served.len(), instance.flows().len());
    let index = FlowIndex::build(instance, &HopCount);
    let base = Coverage::from_served(&index, already_served);
    let mut chosen = Vec::new();
    Trial::new(&index, &base).cover(usize::MAX, |v| chosen.push(v))?;
    Some(chosen)
}

/// Which flows a deployment serves, kept up to date one vertex at a
/// time: the unserved members of each path class, the number of
/// unserved flows through each vertex, and the unserved total.
///
/// A box on `v` serves every flow whose path crosses `v`, so serving
/// a vertex serves whole classes: it takes each class through `v` off
/// the count of every vertex on the class's path, once, by the
/// class's unserved members. Only [`greedy_cover`] starts from
/// per-flow flags, where a class may be partly served.
#[derive(Debug)]
pub(crate) struct Coverage {
    /// Unserved members of each path class.
    left: Vec<usize>,
    /// Unserved flows through each vertex, the unserved members of the
    /// classes in its row: always equal to
    /// [`coverage_gain`](crate::objective::coverage_gain) over the
    /// served flows.
    count: Vec<usize>,
    unserved: usize,
}

impl Coverage {
    /// Nothing served yet.
    pub(crate) fn new(index: &FlowIndex) -> Self {
        Self::from_left(
            index,
            (0..id32(index.class_count()))
                .map(|c| ix(index.class_size(c)))
                .collect(),
        )
    }

    /// The state with exactly the `served` flows served.
    fn from_served(index: &FlowIndex, served: &[bool]) -> Self {
        let mut left = vec![0usize; index.class_count()];
        for (fi, _) in served.iter().enumerate().filter(|&(_, &s)| !s) {
            left[ix(index.class_of(id32(fi)))] += 1;
        }
        Self::from_left(index, left)
    }

    /// The state whose class `c` has `left[c]` unserved members, its
    /// counts summed over the rows.
    fn from_left(index: &FlowIndex, left: Vec<usize>) -> Self {
        Self {
            count: (0..id32(index.node_count()))
                .map(|v| index.classes_through(v).iter().map(|&c| left[ix(c)]).sum())
                .collect(),
            unserved: left.iter().sum(),
            left,
        }
    }

    /// Marks every flow through `v` served.
    pub(crate) fn serve(&mut self, index: &FlowIndex, v: NodeId) {
        let left = &mut self.left;
        self.unserved -= serve_row(index, v, &mut self.count, |c| std::mem::take(&mut left[c]));
    }

    /// Whether class `c` is served: whether it has no unserved member,
    /// which is exact because [`Coverage::serve`] serves whole
    /// classes.
    pub(crate) fn is_served(&self, c: u32) -> bool {
        self.left[ix(c)] == 0
    }

    /// Unserved flows that deploying on `v` would cover.
    pub(crate) fn count(&self, v: NodeId) -> usize {
        self.count[ix(v)]
    }

    /// Whether every flow is served.
    pub(crate) fn all_served(&self) -> bool {
        self.unserved == 0
    }
}

/// Takes the members `claim` newly serves of every class through `v`
/// off the count of each vertex on the class's path (one decrement per
/// member and path position), and returns
/// how many members it claimed.
fn serve_row(
    index: &FlowIndex,
    v: NodeId,
    count: &mut [usize],
    mut claim: impl FnMut(usize) -> usize,
) -> usize {
    let mut claimed = 0;
    for &c in index.classes_through(v) {
        let members = claim(ix(c));
        if members > 0 {
            claimed += members;
            for &u in index.class_path(c) {
                count[ix(u)] -= members;
            }
        }
    }
    claimed
}

/// Greedy-cover trials from a fixed [`Coverage`]. Each trial copies
/// the base counts and marks the classes it serves with its own epoch
/// stamp, so no trial copies the base's per-class members.
struct Trial<'a> {
    index: &'a FlowIndex,
    base: &'a Coverage,
    /// A class is served in the current trial when the base serves
    /// all its members or its stamp equals `epoch`.
    stamp: Vec<u32>,
    epoch: u32,
    count: Vec<usize>,
    unserved: usize,
    /// The largest counts of one scan (a min-heap).
    top: BinaryHeap<Reverse<usize>>,
}

impl<'a> Trial<'a> {
    /// A trial positioned at the base state.
    fn new(index: &'a FlowIndex, base: &'a Coverage) -> Self {
        Self {
            index,
            base,
            stamp: vec![0; base.left.len()],
            epoch: 1,
            count: base.count.clone(),
            unserved: base.unserved,
            top: BinaryHeap::new(),
        }
    }

    /// Starts a new trial at the base state.
    fn reset(&mut self) {
        self.epoch += 1;
        self.count.copy_from_slice(&self.base.count);
        self.unserved = self.base.unserved;
    }

    /// Marks every flow through `v` served in this trial.
    fn serve(&mut self, v: NodeId) {
        let (left, stamp, epoch) = (&self.base.left, &mut self.stamp, self.epoch);
        self.unserved -= serve_row(self.index, v, &mut self.count, |c| {
            if std::mem::replace(&mut stamp[c], epoch) == epoch {
                0
            } else {
                left[c]
            }
        });
    }

    /// Runs the greedy cover from the trial's state, reporting each
    /// pick. Returns the number of picks, or `None` when the cover
    /// needs more than `limit` picks or some flow is uncoverable.
    fn cover(&mut self, limit: usize, mut on_pick: impl FnMut(NodeId)) -> Option<usize> {
        let mut picks = 0;
        while self.unserved > 0 {
            let v = self.pick(limit - picks)?;
            on_pick(v);
            self.serve(v);
            picks += 1;
        }
        Some(picks)
    }

    /// The greedy pick: the largest count, ties toward the smaller id.
    /// `None` when no pick is left, no vertex covers a flow, or the
    /// `left` largest counts sum to fewer than the unserved flows.
    /// That last stop is exact: greedy picks distinct vertices, each
    /// covers at most its current count, and counts never rise, so no
    /// `left` picks can then finish the cover.
    fn pick(&mut self, left: usize) -> Option<NodeId> {
        if left == 0 {
            return None;
        }
        let bounded = left < self.count.len();
        let top = &mut self.top;
        top.clear();
        let mut best: Option<(usize, usize)> = None;
        for (v, &c) in self.count.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if best.is_none_or(|(bc, _)| c > bc) {
                best = Some((c, v));
            }
            if bounded {
                if top.len() < left {
                    top.push(Reverse(c));
                } else if let Some(mut least) = top.peek_mut() {
                    if c > least.0 {
                        *least = Reverse(c);
                    }
                }
            }
        }
        let (_, v) = best?;
        if bounded && top.iter().map(|r| r.0).sum::<usize>() < self.unserved {
            return None;
        }
        Some(id32(v))
    }
}

/// Candidates not yet deployed.
pub(crate) fn open_candidates(index: &FlowIndex, deployment: &Deployment) -> Vec<NodeId> {
    index
        .candidate_vertices()
        .into_iter()
        .filter(|&v| !deployment.contains(v))
        .collect()
}

/// The tight-budget feasibility guard shared by every budgeted greedy.
///
/// With some flows still unserved and `remaining` rounds left:
///
/// * uncoverable, or a greedy cover needs *more* than `remaining`
///   boxes → [`TdmdError::Infeasible`];
/// * a cover needs *exactly* `remaining` boxes → `Ok(Some(guard))`:
///   the round may only deploy where [`Guard::allows`], that is on
///   an open candidate after which a greedy cover of the rest fits in
///   `remaining − 1` boxes (the paper's "we can only deploy a
///   middlebox on v2" rule, generalized);
/// * otherwise (slack budget, or everything already served) →
///   `Ok(None)`: pick freely.
///
/// `known_cover` is the size of the greedy cover of the unserved
/// flows when the caller already has it, as the kernel does after a
/// guarded round: the winner's [`Guard::allows`] trial is that cover.
/// `None` runs the cover here, limited to `remaining` picks.
pub(crate) fn guard<'a>(
    index: &'a FlowIndex,
    coverage: &'a Coverage,
    remaining: usize,
    known_cover: Option<usize>,
) -> Result<Option<Guard<'a>>, TdmdError> {
    crate::obs::ENGINE.guard_checks.incr();
    if coverage.all_served() {
        return Ok(None);
    }
    let mut trial = None;
    let cover = match known_cover {
        Some(cover) => Some(cover).filter(|&c| c <= remaining),
        None => trial
            .insert(Trial::new(index, coverage))
            .cover(remaining, |_| {}),
    }
    .ok_or(TdmdError::Infeasible { budget: remaining })?;
    if cover < remaining {
        return Ok(None);
    }
    crate::obs::ENGINE.guard_activations.incr();
    let picks = remaining - 1;
    Ok(Some(Guard {
        bound: TopCounts::new(&coverage.count, picks),
        picks,
        trial: trial.unwrap_or_else(|| Trial::new(index, coverage)),
    }))
}

/// One tight round of the guard: which vertices the round may deploy
/// on. Every check is a [`Trial`] limited to the picks that matter,
/// so a candidate that cannot fit stops early, most of them before
/// their trial starts ([`Guard::rules_out`]).
pub(crate) struct Guard<'a> {
    bound: Option<TopCounts>,
    /// Boxes left after this round's: `remaining − 1`.
    picks: usize,
    trial: Trial<'a>,
}

impl Guard<'_> {
    /// Whether [`TopCounts`] already rules `v` out, in O(1) and
    /// without a trial. Exact: a vertex it rules out is never allowed.
    pub(crate) fn rules_out(&self, v: NodeId) -> bool {
        let base = self.trial.base;
        let c = base.count(v);
        self.bound
            .as_ref()
            .is_some_and(|b| b.without(c) < base.unserved.saturating_sub(c))
    }

    /// The full check: `Some(cover)` when the round may deploy on `v`,
    /// where `cover ≤ remaining − 1` is the size of the greedy cover
    /// of the flows `v` leaves unserved, or `None`.
    pub(crate) fn allows(&mut self, v: NodeId) -> Option<usize> {
        if self.rules_out(v) {
            return None;
        }
        self.trial.reset();
        self.trial.serve(v);
        self.trial.cover(self.picks, |_| {})
    }
}

/// [`guard`] as an eager filter: `Ok(Some(allowed))` lists every open
/// candidate the tight round allows. The capacitated and best-effort
/// greedies score each of them; GTP's kernel asks the [`Guard`] about
/// its heap tops instead.
pub(crate) fn guard_candidates(
    index: &FlowIndex,
    coverage: &Coverage,
    deployment: &Deployment,
    remaining: usize,
) -> Result<Option<Vec<NodeId>>, TdmdError> {
    let Some(mut guard) = guard(index, coverage, remaining, None)? else {
        return Ok(None);
    };
    Ok(Some(
        open_candidates(index, deployment)
            .into_iter()
            .filter(|&v| guard.allows(v).is_some())
            .collect(),
    ))
}

/// The stop of [`Trial::pick`] applied to a candidate before its
/// trial. Serving `v` leaves at least `unserved − count[v]` flows,
/// and afterwards the `picks` largest counts sum to at most the
/// `picks` largest base counts other than `v`'s, because counts never
/// rise and `v`'s drops to zero. When that sum is smaller, the
/// trial's first pick would stop it, so the trial can be skipped.
struct TopCounts {
    /// Sum of the `picks` largest counts.
    sum: usize,
    /// The smallest of them (`None` for no picks) and the count after
    /// it.
    last: Option<usize>,
    next: usize,
}

impl TopCounts {
    /// `None` when there are no more vertices than picks, where the
    /// trial applies no bound either.
    fn new(count: &[usize], picks: usize) -> Option<Self> {
        if picks >= count.len() {
            return None;
        }
        let mut desc = count.to_vec();
        desc.sort_unstable_by(|a, b| b.cmp(a));
        let (top, rest) = desc.split_at(picks);
        Some(Self {
            sum: top.iter().sum(),
            last: top.last().copied(),
            next: rest.first().copied().unwrap_or(0),
        })
    }

    /// Sum of the `picks` largest counts once one count `c` is taken
    /// out.
    fn without(&self, c: usize) -> usize {
        match self.last {
            Some(last) if c >= last => self.sum - c + self.next,
            _ => self.sum,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::paper::fig1_instance;
    use rand::rngs::StdRng;
    use rand::Rng;
    use tdmd_graph::generators::random::erdos_renyi_connected;
    use tdmd_graph::traversal::bfs_path;
    use tdmd_traffic::scale::GatewayWorkload;
    use tdmd_traffic::Flow;

    /// A random ER instance with either gateway traffic (few shared
    /// destinations, long shared path tails) or all-pairs traffic
    /// (random source and destination per flow).
    pub(crate) fn random_instance(rng: &mut StdRng) -> Instance {
        let n = rng.gen_range(4..24);
        let g = erdos_renyi_connected(n, rng.gen_range(0.1..0.5), rng);
        let count = rng.gen_range(1..60);
        let flows = if rng.gen_bool(0.5) {
            let gateways = GatewayWorkload::pick_gateways(n, rng.gen_range(1..4), rng);
            GatewayWorkload::new(&g, gateways, 8).flows(&g, 0, count, rng)
        } else {
            let mut flows = Vec::new();
            while flows.len() < count {
                let src = rng.gen_range(0..n) as NodeId;
                let dst = rng.gen_range(0..n) as NodeId;
                if let Some(path) = bfs_path(&g, src, dst).filter(|p| p.len() >= 2) {
                    flows.push(Flow::new(flows.len() as u32, rng.gen_range(1..=8), path));
                }
            }
            flows
        };
        Instance::new(g, flows, 0.5, 1).expect("generated paths follow edges")
    }

    /// A random ER instance at the path-class extremes: with `shared`,
    /// every flow follows one path (one class); without, no two flows
    /// share a path (one class per flow: distinct endpoints, so
    /// distinct paths).
    fn class_edge_instance(rng: &mut StdRng, shared: bool) -> Instance {
        use rand::seq::SliceRandom;
        let n = rng.gen_range(4..24);
        let g = erdos_renyi_connected(n, rng.gen_range(0.1..0.5), rng);
        let mut pairs: Vec<(NodeId, NodeId)> = (0..n as NodeId)
            .flat_map(|s| {
                (0..n as NodeId)
                    .filter(move |&d| d != s)
                    .map(move |d| (s, d))
            })
            .collect();
        pairs.shuffle(rng);
        let count = rng.gen_range(1..60usize).min(pairs.len());
        let flows = (0..count)
            .map(|i| {
                let (src, dst) = pairs[if shared { 0 } else { i }];
                let path = bfs_path(&g, src, dst).expect("connected graph");
                Flow::new(i as u32, rng.gen_range(1..=8), path)
            })
            .collect();
        Instance::new(g, flows, 0.5, 1).expect("generated paths follow edges")
    }

    #[test]
    fn fig1_feasibility() {
        let inst = fig1_instance(2);
        assert!(is_feasible(&inst, &Deployment::from_vertices(6, [4, 1])));
        assert!(is_feasible(&inst, &Deployment::from_vertices(6, [3, 4, 5])));
        assert!(
            !is_feasible(&inst, &Deployment::from_vertices(6, [4, 5])),
            "f3 unserved"
        );
        assert!(!is_feasible(&inst, &Deployment::empty(6)));
    }

    #[test]
    fn greedy_cover_covers_everything() {
        let inst = fig1_instance(2);
        let cover = greedy_cover(&inst, &[false; 4]).unwrap();
        let d = Deployment::from_vertices(6, cover.iter().copied());
        assert!(is_feasible(&inst, &d));
        // Minimum cover of Fig. 1 is 2 ({v2, v5} or {v2, v3}); greedy
        // finds one of size <= 3.
        assert!(cover.len() <= 3);
    }

    #[test]
    fn greedy_cover_respects_already_served() {
        let inst = fig1_instance(2);
        // f1 and f2 already served: v2 (id 1) alone finishes the job.
        let cover = greedy_cover(&inst, &[true, true, false, false]).unwrap();
        assert_eq!(cover.len(), 1);
    }

    #[test]
    fn greedy_cover_of_served_instance_is_empty() {
        let inst = fig1_instance(2);
        assert_eq!(
            greedy_cover(&inst, &[true; 4]).unwrap(),
            Vec::<NodeId>::new()
        );
    }

    /// The guard and the cover as they were before [`Coverage`]: every
    /// cover from scratch over a cloned `served` vector, rescanning
    /// each vertex's row per pick. Kept as the reference the
    /// count-based versions must reproduce exactly.
    mod reference {
        use crate::error::TdmdError;
        use crate::instance::Instance;
        use crate::num::ix;
        use crate::objective::coverage_gain;
        use crate::plan::Deployment;
        use tdmd_graph::NodeId;

        pub fn greedy_cover(instance: &Instance, already_served: &[bool]) -> Option<Vec<NodeId>> {
            let mut served = already_served.to_vec();
            let mut remaining = served.iter().filter(|&&s| !s).count();
            let mut chosen = Vec::new();
            while remaining > 0 {
                let mut best: Option<(usize, NodeId)> = None;
                for v in 0..instance.node_count() as NodeId {
                    let gain = coverage_gain(instance, &served, v);
                    if gain > 0 && best.is_none_or(|(bg, _)| gain > bg) {
                        best = Some((gain, v));
                    }
                }
                let (gain, v) = best?;
                chosen.push(v);
                serve(instance, &mut served, v);
                remaining -= gain;
            }
            Some(chosen)
        }

        /// Marks every flow whose path crosses `v` served.
        pub fn serve(instance: &Instance, served: &mut [bool], v: NodeId) {
            for f in instance.flows().iter().filter(|f| f.path.contains(&v)) {
                served[ix(f.id)] = true;
            }
        }

        fn cover_after(instance: &Instance, served: &[bool], extra: NodeId) -> usize {
            let mut served = served.to_vec();
            serve(instance, &mut served, extra);
            greedy_cover(instance, &served).map_or(usize::MAX, |c| c.len())
        }

        pub fn guard_candidates(
            instance: &Instance,
            served: &[bool],
            deployment: &Deployment,
            remaining: usize,
        ) -> Result<Option<Vec<NodeId>>, TdmdError> {
            if served.iter().all(|&s| s) {
                return Ok(None);
            }
            let cover = greedy_cover(instance, served)
                .ok_or(TdmdError::Infeasible { budget: remaining })?;
            if cover.len() > remaining {
                return Err(TdmdError::Infeasible { budget: remaining });
            }
            if cover.len() == remaining {
                let allowed = instance
                    .candidate_vertices()
                    .into_iter()
                    .filter(|&v| !deployment.contains(v))
                    .filter(|&v| cover_after(instance, served, v) < remaining)
                    .collect();
                return Ok(Some(allowed));
            }
            Ok(None)
        }
    }

    mod equivalence {
        use super::*;
        use crate::objective::coverage_gain;
        use proptest::TestRng;
        use rand::SeedableRng;

        /// A random deployment of up to three boxes and the flows it
        /// serves, built through [`Coverage::serve`].
        fn random_state(
            inst: &Instance,
            index: &FlowIndex,
            rng: &mut StdRng,
        ) -> (Deployment, Coverage, Vec<bool>) {
            let n = inst.node_count();
            let mut deployment = Deployment::empty(n);
            let mut coverage = Coverage::new(index);
            let mut served = vec![false; inst.flows().len()];
            for _ in 0..rng.gen_range(0..4) {
                let v = rng.gen_range(0..n) as NodeId;
                if deployment.contains(v) {
                    continue;
                }
                deployment.insert(v);
                coverage.serve(index, v);
                reference::serve(inst, &mut served, v);
            }
            (deployment, coverage, served)
        }

        /// On gateway and all-pairs instances, and on instances where
        /// every flow shares one path or no two flows do, with random
        /// served states, [`Coverage::serve`] keeps every count equal
        /// to the row scan, the count-based cover equals the reference
        /// vertex for vertex, and the guard returns what the
        /// from-scratch guard returns for budgets from 1 to twice the
        /// cover size. Served states come from deployments, which
        /// serve whole path classes, and from random per-flow flags,
        /// which split them. The tallies prove both the activation and
        /// the infeasible branch ran, and that classes were split.
        #[test]
        fn guard_and_cover_match_the_from_scratch_reference() {
            let seed = proptest::fnv1a("guard_and_cover_match_the_from_scratch_reference");
            let (mut activations, mut infeasible, mut free, mut split) =
                (0usize, 0usize, 0usize, 0usize);
            for case in 0..600u64 {
                let mut rng = StdRng::seed_from_u64(TestRng::for_case(seed, case).next_u64());
                let inst = match case {
                    0..400 => random_instance(&mut rng),
                    _ => class_edge_instance(&mut rng, case % 2 == 0),
                };
                let index = FlowIndex::build(&inst, &HopCount);
                for round in 0..8 {
                    let (deployment, coverage, served) = if round % 2 == 0 {
                        random_state(&inst, &index, &mut rng)
                    } else {
                        let p = rng.gen_range(0.0..1.0);
                        let served: Vec<bool> =
                            inst.flows().iter().map(|_| rng.gen_bool(p)).collect();
                        // A class is split when its members' flags differ.
                        let mut flag: Vec<Option<bool>> = vec![None; index.class_count()];
                        split += usize::from(inst.flows().iter().any(|f| {
                            let s = served[ix(f.id)];
                            *flag[ix(index.class_of(f.id))].get_or_insert(s) != s
                        }));
                        let coverage = Coverage::from_served(&index, &served);
                        (Deployment::empty(inst.node_count()), coverage, served)
                    };
                    for v in 0..inst.node_count() as NodeId {
                        assert_eq!(coverage.count(v), coverage_gain(&inst, &served, v));
                    }
                    assert_eq!(coverage.unserved, served.iter().filter(|&&s| !s).count());
                    let reference_cover = reference::greedy_cover(&inst, &served);
                    assert_eq!(greedy_cover(&inst, &served), reference_cover, "case {case}");
                    let size = reference_cover.map_or(0, |c| c.len());
                    for remaining in 1..=(2 * size).max(1) {
                        let got = guard_candidates(&index, &coverage, &deployment, remaining);
                        let want =
                            reference::guard_candidates(&inst, &served, &deployment, remaining);
                        assert_eq!(got, want, "case {case}, remaining {remaining}");
                        match want {
                            Ok(Some(_)) => activations += 1,
                            Err(_) => infeasible += 1,
                            Ok(None) => free += 1,
                        }
                    }
                }
            }
            assert!(
                activations > 0 && infeasible > 0 && free > 0 && split > 0,
                "vacuous run: {activations} activations, {infeasible} infeasible, {free} free, \
                 {split} split states"
            );
        }
    }
}
