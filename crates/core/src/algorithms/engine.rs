//! The generic greedy engine behind every objective variant.
//!
//! `run_gtp` runs the paper's Alg. 1 against one compiled
//! [`FlowIndex`], its whole input — the cost model is already baked
//! into the index, so hop-count, weighted-edge, and chain-stack
//! pricing all share this single loop (Thm. 2's submodularity
//! argument only needs the per-flow metric to be monotone along the
//! path, which [`CostModel`](crate::cost::CostModel) implementations
//! guarantee). The index may be compiled from an [`Instance`]
//! ([`FlowIndex::build`]) or from flows priced elsewhere
//! ([`FlowIndex::compile`]; [`FlowIndex::compile_classified`] for the
//! online drift oracle's live path classes).
//!
//! The kernel works per path class, never per flow. Members of a class
//! share every gain and every best-so-far gain, so `cur` holds one
//! value per class, a score sums `R_c · (1 − λ) · (g − cur[c])` over
//! the classes in the vertex's row, and a commit raises `cur` once per
//! class. The scores are the same real numbers as the per-flow sums.
//! Where every term is exact (integer rates, integral gains such as
//! hop counts or `u64` edge weights, a dyadic `1 − λ`) they are the
//! same floats too, so no pick moves; elsewhere only the summation
//! order differs, and a pick can move only on a tie within rounding.
//!
//! Each round's argmax is lazy, after CELF (Leskovec et al., KDD
//! 2007): a max-heap holds every open candidate under the score key
//! it last computed, and only a top computed in an earlier round is
//! scored again. Thm. 2 makes that exact. A vertex's key never rises
//! between rounds, so a stale key is an upper bound, and the first
//! top computed in the current round is the argmax a scan of every
//! candidate would find, bit for bit.
//!
//! The tight-budget **feasibility guard** (the paper's "can only
//! deploy on v2" rule, generalized) lives once in
//! [`crate::feasibility`] and is shared by GTP, the capacitated
//! greedy, and the best-effort baseline; each keeps its served flows
//! in one incrementally updated coverage state the guard reads. GTP
//! asks it about heap tops only: its cheap exact stop before a top is
//! scored again, its cover trial only on the top that would win. The
//! winner's trial is the next round's greedy cover, so that cover is
//! passed forward instead of run again.
//!
//! [`Instance`]: crate::instance::Instance

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use tdmd_graph::NodeId;

use crate::cost::FlowIndex;
use crate::error::TdmdError;
use crate::feasibility::{guard, Coverage, Guard};
use crate::num::ix;
use crate::order::TotalGain;
use crate::plan::Deployment;

/// The score ladder as one comparable key: decrement gain, then
/// coverage, then the smaller vertex id (`Reverse` makes the smaller
/// id the larger key).
type Key = (TotalGain, usize, Reverse<NodeId>);

/// Lexicographic greedy score: decrement gain, then coverage, then
/// smaller vertex id.
#[derive(Debug, Clone, Copy)]
struct Score {
    pub gain: f64,
    pub coverage: usize,
    pub v: NodeId,
}

impl Score {
    /// The full tie-break ladder as one comparable key.
    #[inline]
    fn key(&self) -> Key {
        (TotalGain::new(self.gain), self.coverage, Reverse(self.v))
    }

    #[cfg(test)]
    fn better_than(&self, other: &Score) -> bool {
        self.key() > other.key()
    }
}

/// Mutable greedy state of one GTP run.
struct State {
    deployment: Deployment,
    /// Best serving gain per class so far (0.0 = unserved or served
    /// at the destination — both contribute zero decrement).
    cur: Vec<f64>,
    /// Served flows and per-vertex unserved counts.
    coverage: Coverage,
}

impl State {
    fn new(index: &FlowIndex) -> Self {
        Self {
            deployment: Deployment::empty(index.node_count()),
            cur: vec![0.0; index.class_count()],
            coverage: Coverage::new(index),
        }
    }

    fn all_served(&self) -> bool {
        self.coverage.all_served()
    }

    fn score(&self, index: &FlowIndex, v: NodeId) -> Score {
        crate::obs::ENGINE.gain_evals.incr();
        Score {
            gain: index.decrement(&self.cur, v),
            coverage: if index.coverage_tiebreak() {
                self.coverage.count(v)
            } else {
                0
            },
            v,
        }
    }

    fn commit(&mut self, index: &FlowIndex, v: NodeId) {
        self.deployment.insert(v);
        self.coverage.serve(index, v);
        for (c, g) in index.row_entries(v) {
            let c = ix(c);
            if g > self.cur[c] {
                self.cur[c] = g;
            }
        }
    }
}

/// A round's committed choice, with the audit-trace metadata the
/// submodularity witness needs ([`crate::audit::check_greedy_trace`]).
#[derive(Debug, Clone, Copy)]
struct Picked {
    v: NodeId,
    gain: f64,
    /// Whether the feasibility guard restricted this round.
    guarded: bool,
    /// The winner's [`Guard::allows`] cover, in a guarded round: the
    /// greedy cover of what the pick leaves unserved.
    cover: Option<usize>,
    /// Heap tops the guard ruled out this round without a trial.
    // Only the tests read this tally and the next; without them they
    // are write-only.
    #[cfg_attr(not(test), allow(dead_code))]
    pruned: usize,
    /// Heap tops the guard's trial turned down this round.
    #[cfg_attr(not(test), allow(dead_code))]
    rejected: usize,
}

/// A heap entry: a vertex's score key and the round that computed it.
/// Keys end in the vertex id, so no two entries share one and the
/// derived order is the key's alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    key: Key,
    round: usize,
}

/// The round stamp of an entry that was never scored; no round has it.
const UNSCORED: usize = usize::MAX;

/// The lazy argmax: every open candidate once, keyed by an upper bound
/// on its current score.
///
/// A key never rises between rounds. The decrement falls by
/// submodularity, and so does its float sum: each term shrinks or
/// drops out as `cur` rises, and rounding is monotone. Coverage counts
/// only fall. So a popped key from an earlier round is scored again
/// and pushed back, and the first top computed in the current round
/// beats every other open candidate.
struct Lazy {
    heap: BinaryHeap<Entry>,
    /// Tops the guard turned down this round, with their keys; they
    /// go back on the heap when the round ends.
    aside: Vec<Entry>,
}

impl Lazy {
    /// Every candidate vertex, unscored, under a key above any score.
    fn new(index: &FlowIndex) -> Self {
        let top = TotalGain::new(f64::INFINITY);
        let heap = index
            .candidate_vertices()
            .into_iter()
            .map(|v| Entry {
                key: (top, usize::MAX, Reverse(v)),
                round: UNSCORED,
            })
            .collect();
        Self {
            heap,
            aside: Vec::new(),
        }
    }

    /// Round `round`'s pick: the best-scoring open candidate that
    /// `tight` allows (any, when the round is not guarded), taken off
    /// the heap. `None` when no candidate is left or allowed.
    ///
    /// The guard's cheap check runs before a top is scored again, so
    /// a vertex it rules out costs no gain evaluation; its trial runs
    /// only on a top computed in this round, the round's would-be
    /// pick.
    fn pick(
        &mut self,
        index: &FlowIndex,
        state: &State,
        round: usize,
        mut tight: Option<Guard<'_>>,
    ) -> Option<Picked> {
        let (mut pruned, mut rejected) = (0, 0);
        let picked = loop {
            let Some(top) = self.heap.pop() else {
                break None;
            };
            let Reverse(v) = top.key.2;
            if tight.as_ref().is_some_and(|g| g.rules_out(v)) {
                pruned += 1;
                self.aside.push(top);
                continue;
            }
            if top.round != round {
                let key = state.score(index, v).key();
                self.heap.push(Entry { key, round });
                continue;
            }
            let cover = match tight.as_mut() {
                None => None,
                Some(g) => match g.allows(v) {
                    Some(cover) => Some(cover),
                    None => {
                        rejected += 1;
                        self.aside.push(top);
                        continue;
                    }
                },
            };
            break Some(Picked {
                v,
                gain: top.key.0.get(),
                guarded: tight.is_some(),
                cover,
                pruned,
                rejected,
            });
        };
        self.heap.extend(self.aside.drain(..));
        picked
    }
}

/// GTP (Alg. 1): lazy best-candidate rounds under the feasibility
/// guard; `budget = None` derives `k` (stop at full coverage). With the
/// audit switch on, the index, the round gains and the result are
/// checked.
pub(crate) fn run_gtp(index: &FlowIndex, budget: Option<usize>) -> Result<Deployment, TdmdError> {
    let audit = crate::audit::enabled();
    if audit {
        crate::audit::enforce(crate::audit::check_index(index));
    }
    let mut trace = Vec::new();
    let deployment = rounds(index, budget, |p| {
        if audit {
            trace.push(crate::audit::TraceRound {
                gain: p.gain,
                guarded: p.guarded,
            });
        }
    })?;
    if audit {
        crate::audit::enforce(crate::audit::check_greedy_trace(&trace));
        crate::audit::enforce(crate::audit::check_index_solution(
            index,
            &deployment,
            budget.unwrap_or(index.node_count()),
        ));
    }
    Ok(deployment)
}

/// Alg. 1's rounds, reporting each committed pick to `on_pick`.
///
/// A round with flows left unserved asks the guard first; an
/// uncoverable remainder, or a guarded round with no allowed vertex,
/// is [`TdmdError::Infeasible`] with the budget left. Once every flow
/// is served the guard is skipped and only a positive gain is worth a
/// box; without one the run stops early.
fn rounds(
    index: &FlowIndex,
    budget: Option<usize>,
    mut on_pick: impl FnMut(&Picked),
) -> Result<Deployment, TdmdError> {
    let mut state = State::new(index);
    let mut lazy = Lazy::new(index);
    let limit = budget.unwrap_or(index.node_count());
    let mut known_cover = None;
    for round in 0..limit {
        let remaining = limit - round;
        let all_served = state.all_served();
        let tight = if all_served {
            None
        } else {
            guard(index, &state.coverage, remaining, known_cover)?
        };
        let Some(p) = lazy
            .pick(index, &state, round, tight)
            .filter(|p| !all_served || p.gain > 0.0)
        else {
            if all_served {
                break;
            }
            return Err(TdmdError::Infeasible { budget: remaining });
        };
        on_pick(&p);
        known_cover = p.cover;
        state.commit(index, p.v);
        if budget.is_none() && state.all_served() {
            break;
        }
    }
    if !state.all_served() {
        return Err(TdmdError::Infeasible { budget: limit });
    }
    Ok(state.deployment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostModel, HopCount, PricedFlow, WeightedEdges};
    use crate::feasibility::greedy_cover;
    use crate::feasibility::tests::random_instance;
    use crate::instance::Instance;
    use proptest::TestRng;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tdmd_graph::DiGraph;
    use tdmd_traffic::Flow;

    /// The kernel as it was before the lazy argmax: every open
    /// candidate the guard allows is scored in every round, per path
    /// class like the lazy kernel. Kept as the reference the lazy
    /// kernel must reproduce exactly.
    mod reference {
        use super::super::{Score, State};
        use crate::cost::FlowIndex;
        use crate::error::TdmdError;
        use crate::feasibility::{guard_candidates, open_candidates};
        use crate::plan::Deployment;

        /// Eager GTP: the deployment or error, and each committed
        /// round's `(gain bits, guarded)`.
        pub fn run_gtp(
            index: &FlowIndex,
            budget: Option<usize>,
        ) -> (Result<Deployment, TdmdError>, Vec<(u64, bool)>) {
            let mut trace = Vec::new();
            let result = rounds(index, budget, &mut trace);
            (result, trace)
        }

        fn rounds(
            index: &FlowIndex,
            budget: Option<usize>,
            trace: &mut Vec<(u64, bool)>,
        ) -> Result<Deployment, TdmdError> {
            let mut state = State::new(index);
            let limit = budget.unwrap_or(index.node_count());
            for round in 0..limit {
                let remaining = limit - round;
                let all_served = state.all_served();
                let allowed = if all_served {
                    None
                } else {
                    guard_candidates(index, &state.coverage, &state.deployment, remaining)?
                };
                let guarded = allowed.is_some();
                let cands = allowed.unwrap_or_else(|| open_candidates(index, &state.deployment));
                let mut best: Option<Score> = None;
                for &v in &cands {
                    let s = state.score(index, v);
                    if best.as_ref().is_none_or(|b| s.better_than(b)) {
                        best = Some(s);
                    }
                }
                match best.filter(|s| !all_served || s.gain > 0.0) {
                    Some(s) => {
                        trace.push((s.gain.to_bits(), guarded));
                        state.commit(index, s.v);
                    }
                    None if all_served => break,
                    None => return Err(TdmdError::Infeasible { budget: remaining }),
                }
                if budget.is_none() && state.all_served() {
                    break;
                }
            }
            if !state.all_served() {
                return Err(TdmdError::Infeasible { budget: limit });
            }
            Ok(state.deployment)
        }
    }

    /// Hop-count pricing without the coverage tie-break.
    struct NoCoverage;

    impl CostModel for NoCoverage {
        fn serving_gain(&self, flow: &Flow, pos: usize) -> f64 {
            HopCount.serving_gain(flow, pos)
        }

        fn unprocessed_cost(&self, flow: &Flow) -> f64 {
            HopCount.unprocessed_cost(flow)
        }

        fn coverage_tiebreak(&self) -> bool {
            false
        }
    }

    /// `inst` under `lambda`, compiled by hop count, by random edge
    /// weights, by hop counts scaled by a random weight per flow and
    /// by [`NoCoverage`].
    fn indexes(inst: &Instance, lambda: f64, rng: &mut StdRng) -> Vec<FlowIndex> {
        let g = inst.graph();
        let edges: Vec<_> = g
            .edges()
            .map(|(u, v, _)| (u, v, rng.gen_range(1..=9)))
            .collect();
        let weighted = Instance::new(
            DiGraph::from_edges(g.node_count(), &edges),
            inst.flows().to_vec(),
            lambda,
            1,
        )
        .expect("same paths, same edges");
        // Flows on one path can carry different gains, as in a
        // restored snapshot: each flow's hop gains and cost are scaled
        // by one of three random weights, or by 1, so `compile` splits
        // a path into one class per weight its flows drew.
        let weights: Vec<f64> = (0..3).map(|_| rng.gen_range(0.25..4.0)).collect();
        let scale: Vec<f64> = inst
            .flows()
            .iter()
            .map(|_| {
                let pick: u16 = rng.gen_range(0..4);
                weights.get(usize::from(pick)).copied().unwrap_or(1.0)
            })
            .collect();
        let gains: Vec<Vec<f64>> = inst
            .flows()
            .iter()
            .zip(&scale)
            .map(|(f, w)| HopCount.gains(f).into_iter().map(|g| w * g).collect())
            .collect();
        let scaled = FlowIndex::compile(
            inst.node_count(),
            lambda,
            true,
            inst.flows()
                .iter()
                .zip(&gains)
                .zip(&scale)
                .map(|((f, gains), w)| PricedFlow {
                    rate: f.rate,
                    path: &f.path,
                    gains,
                    cost: w * HopCount.unprocessed_cost(f),
                }),
        );
        let inst = inst.with_lambda(lambda);
        vec![
            FlowIndex::build(&inst, &HopCount),
            FlowIndex::build(&weighted, &WeightedEdges::new(weighted.graph())),
            scaled,
            FlowIndex::build(&inst, &NoCoverage),
        ]
    }

    /// On random gateway and all-pairs ER instances, under four
    /// pricings and λ ∈ {0.5, 1}, for every budget from 1 to twice the
    /// greedy cover and in derive-k mode, the lazy kernel returns the
    /// eager reference's deployment or error and commits the same
    /// `(gain, guarded)` rounds, bit for bit. Both kernels score per
    /// path class. At λ = 1 every gain is zero and coverage decides.
    /// The tallies prove that guarded rounds, both kinds of
    /// guard-rejected heap tops, covers passed forward, `Infeasible`
    /// results and paths split into several classes by their pricing
    /// all occurred.
    #[test]
    fn lazy_kernel_matches_the_eager_reference() {
        let seed = proptest::fnv1a("lazy_kernel_matches_the_eager_reference");
        let (mut guarded, mut pruned, mut rejected, mut forward, mut infeasible) =
            (0usize, 0usize, 0usize, 0usize, 0usize);
        let mut split = 0usize;
        for case in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(TestRng::for_case(seed, case).next_u64());
            let inst = random_instance(&mut rng);
            let cover =
                greedy_cover(&inst, &vec![false; inst.flows().len()]).map_or(0, |c| c.len());
            for lambda in [0.5, 1.0] {
                let indexes = indexes(&inst, lambda, &mut rng);
                // The hop-count build has one class per distinct path.
                let paths = indexes[0].class_count();
                for index in indexes {
                    split += usize::from(index.class_count() > paths);
                    for budget in (1..=(2 * cover).max(1)).map(Some).chain([None]) {
                        let mut picks: Vec<Picked> = Vec::new();
                        let got = rounds(&index, budget, |p| picks.push(*p));
                        let (want, trace) = reference::run_gtp(&index, budget);
                        let at = format!("case {case}, lambda {lambda}, budget {budget:?}");
                        assert_eq!(got, want, "{at}");
                        let got_trace: Vec<(u64, bool)> = picks
                            .iter()
                            .map(|p| (p.gain.to_bits(), p.guarded))
                            .collect();
                        assert_eq!(got_trace, trace, "{at}");
                        infeasible += usize::from(got.is_err());
                        for p in &picks {
                            guarded += usize::from(p.guarded);
                            pruned += p.pruned;
                            rejected += p.rejected;
                            forward += usize::from(p.cover.is_some_and(|c| c > 0));
                        }
                    }
                }
            }
        }
        assert!(
            guarded > 0 && pruned > 0 && rejected > 0 && forward > 0 && infeasible > 0 && split > 0,
            "vacuous run: {guarded} guarded rounds, {pruned} pruned and {rejected} rejected \
             tops, {forward} covers passed forward, {infeasible} infeasible, {split} split \
             indexes"
        );
    }

    #[test]
    fn score_ladder_orders_lexicographically() {
        let a = Score {
            gain: 2.0,
            coverage: 0,
            v: 9,
        };
        let b = Score {
            gain: 1.0,
            coverage: 7,
            v: 0,
        };
        assert!(a.better_than(&b), "gain dominates coverage");
        let c = Score {
            gain: 2.0,
            coverage: 1,
            v: 9,
        };
        assert!(c.better_than(&a), "coverage breaks gain ties");
        let d = Score {
            gain: 2.0,
            coverage: 1,
            v: 3,
        };
        assert!(d.better_than(&c), "smaller vertex id breaks full ties");
        assert!(!c.better_than(&d));
        assert!(!d.better_than(&d), "strict: equal scores never beat");
    }

    #[test]
    fn score_ladder_handles_negative_zero_and_infinities() {
        let neg_zero = Score {
            gain: -0.0,
            coverage: 0,
            v: 0,
        };
        let pos_zero = Score {
            gain: 0.0,
            coverage: 0,
            v: 0,
        };
        // total_cmp: -0.0 < +0.0, matching the old match-ladder.
        assert!(pos_zero.better_than(&neg_zero));
        let inf = Score {
            gain: f64::INFINITY,
            coverage: 0,
            v: 5,
        };
        assert!(inf.better_than(&pos_zero));
    }
}
