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
//! ([`FlowIndex::compile`], the online drift oracle's live state).
//!
//! The tight-budget **feasibility guard** (the paper's "can only
//! deploy on v2" rule, generalized) lives once in
//! [`crate::feasibility`] and is shared by GTP, the capacitated
//! greedy, and the best-effort baseline; each keeps its served flows
//! in one incrementally updated coverage state the guard reads.
//!
//! [`run_move_greedy`] is the engine's second face: a budgeted
//! best-move loop over an arbitrary [`MoveGreedy`] driver, used by the
//! chain crate's prefix-stack greedy where a "move" deploys several
//! middlebox instances at once.
//!
//! [`Instance`]: crate::instance::Instance

use std::cmp::Reverse;

use tdmd_graph::NodeId;

use crate::cost::FlowIndex;
use crate::error::TdmdError;
use crate::feasibility::{guard_candidates, open_candidates, Coverage};
use crate::num::ix;
use crate::order::TotalGain;
use crate::plan::Deployment;

/// Lexicographic greedy score: decrement gain, then coverage, then
/// smaller vertex id.
#[derive(Debug, Clone, Copy)]
struct Score {
    pub gain: f64,
    pub coverage: usize,
    pub v: NodeId,
}

impl Score {
    /// The full tie-break ladder as one comparable key; `Reverse` on
    /// the vertex id makes the *smaller* id the larger key.
    #[inline]
    fn key(&self) -> (TotalGain, usize, Reverse<NodeId>) {
        (TotalGain::new(self.gain), self.coverage, Reverse(self.v))
    }

    #[inline]
    fn better_than(&self, other: &Score) -> bool {
        self.key() > other.key()
    }
}

/// Mutable greedy state of one GTP run.
struct State {
    deployment: Deployment,
    /// Best serving gain per flow so far (0.0 = unserved or served at
    /// the destination — both contribute zero decrement).
    cur: Vec<f64>,
    /// Served flows and per-vertex unserved counts.
    coverage: Coverage,
}

impl State {
    fn new(index: &FlowIndex) -> Self {
        Self {
            deployment: Deployment::empty(index.node_count()),
            cur: vec![0.0; index.flow_count()],
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

    /// The best-scoring candidate, scanned in `cands` order.
    fn best_of(&self, index: &FlowIndex, cands: &[NodeId]) -> Option<Score> {
        let mut best: Option<Score> = None;
        for &v in cands {
            let s = self.score(index, v);
            if best.as_ref().is_none_or(|b| s.better_than(b)) {
                best = Some(s);
            }
        }
        best
    }

    fn commit(&mut self, index: &FlowIndex, v: NodeId) {
        self.deployment.insert(v);
        self.coverage.serve(index, v);
        for &(fi, g) in index.flows_through(v) {
            let fi = ix(fi);
            if g > self.cur[fi] {
                self.cur[fi] = g;
            }
        }
    }
}

/// A round's committed choice, with the audit-trace metadata the
/// submodularity witness needs ([`crate::audit::check_greedy_trace`]).
struct Picked {
    v: NodeId,
    // Only the cfg-gated trace reads these two; without the auditor
    // compiled in they are write-only.
    #[cfg_attr(not(any(debug_assertions, feature = "audit", test)), allow(dead_code))]
    gain: f64,
    /// Whether the feasibility guard restricted this round.
    #[cfg_attr(not(any(debug_assertions, feature = "audit", test)), allow(dead_code))]
    guarded: bool,
}

/// One guarded greedy round; returns the pick to deploy or an error.
///
/// Once every flow is served the guard is skipped and only a positive
/// gain is worth a box; the error then tells the caller to stop.
fn pick(index: &FlowIndex, state: &State, remaining: usize) -> Result<Picked, TdmdError> {
    let all_served = state.all_served();
    let feasible = if all_served {
        None
    } else {
        guard_candidates(index, &state.coverage, &state.deployment, remaining)?
    };
    let guarded = feasible.is_some();
    let cands = feasible.unwrap_or_else(|| open_candidates(index, &state.deployment));
    state
        .best_of(index, &cands)
        .filter(|s| !all_served || s.gain > 0.0)
        .map(|s| Picked {
            v: s.v,
            gain: s.gain,
            guarded,
        })
        .ok_or(TdmdError::Infeasible { budget: remaining })
}

/// GTP (Alg. 1): eager best-candidate rounds under the feasibility
/// guard; `budget = None` derives `k` (stop at full coverage).
pub(crate) fn run_gtp(index: &FlowIndex, budget: Option<usize>) -> Result<Deployment, TdmdError> {
    #[cfg(any(debug_assertions, feature = "audit", test))]
    crate::audit::enforce(crate::audit::check_index(index));
    #[cfg(any(debug_assertions, feature = "audit", test))]
    let mut trace: Vec<crate::audit::TraceRound> = Vec::new();
    let mut state = State::new(index);
    let limit = budget.unwrap_or(index.node_count());
    for round in 0..limit {
        let remaining = limit - round;
        match pick(index, &state, remaining) {
            Ok(p) => {
                #[cfg(any(debug_assertions, feature = "audit", test))]
                trace.push(crate::audit::TraceRound {
                    gain: p.gain,
                    guarded: p.guarded,
                });
                state.commit(index, p.v);
            }
            // No useful vertex left and everything served: done early.
            Err(_) if state.all_served() => break,
            Err(e) => return Err(e),
        }
        if budget.is_none() && state.all_served() {
            break;
        }
    }
    if !state.all_served() {
        return Err(TdmdError::Infeasible { budget: limit });
    }
    #[cfg(any(debug_assertions, feature = "audit", test))]
    {
        crate::audit::enforce(crate::audit::check_greedy_trace(&trace));
        crate::audit::enforce(crate::audit::check_index_solution(
            index,
            &state.deployment,
            limit,
        ));
    }
    Ok(state.deployment)
}

/// A stateful driver for [`run_move_greedy`]: moves priced by exact
/// re-evaluation, each consuming one or more units of budget.
///
/// Used by the chain crate's prefix-stack greedy, where one move
/// deploys every missing type of a chain prefix at a vertex.
pub trait MoveGreedy {
    /// A candidate move.
    type Move;
    /// The comparison key of an evaluated move.
    type Key;

    /// Budget units already spent by the current solution.
    fn spent(&self) -> usize;

    /// Candidate moves affordable within `slack` remaining units, in
    /// deterministic tie-break order (earlier wins on equal keys).
    fn moves(&self, slack: usize) -> Vec<Self::Move>;

    /// Scores a move against the current solution; `None` when the
    /// move does not improve it.
    fn evaluate(&mut self, m: &Self::Move) -> Option<Self::Key>;

    /// Whether `candidate` strictly beats `incumbent`.
    fn better(&self, candidate: &Self::Key, incumbent: &Self::Key) -> bool;

    /// Commits a move to the current solution.
    fn apply(&mut self, m: &Self::Move);
}

/// Budgeted best-move greedy: each round evaluates every affordable
/// move, applies the best improving one, and stops when the budget is
/// exhausted or no move improves the solution.
pub fn run_move_greedy<D: MoveGreedy>(driver: &mut D, budget: usize) {
    while driver.spent() < budget {
        let slack = budget - driver.spent();
        let mut best: Option<(D::Key, D::Move)> = None;
        for m in driver.moves(slack) {
            if let Some(key) = driver.evaluate(&m) {
                if best.as_ref().is_none_or(|(bk, _)| driver.better(&key, bk)) {
                    best = Some((key, m));
                }
            }
        }
        let Some((_, m)) = best else { break };
        driver.apply(&m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Toy driver: items with (value, cost); budgeted knapsack-greedy.
    struct Toy {
        items: Vec<(f64, usize)>,
        taken: Vec<usize>,
        spent: usize,
    }

    impl MoveGreedy for Toy {
        type Move = usize;
        type Key = f64;

        fn spent(&self) -> usize {
            self.spent
        }

        fn moves(&self, slack: usize) -> Vec<usize> {
            (0..self.items.len())
                .filter(|i| !self.taken.contains(i) && self.items[*i].1 <= slack)
                .collect()
        }

        fn evaluate(&mut self, &i: &usize) -> Option<f64> {
            let (value, _) = self.items[i];
            (value > 0.0).then_some(value)
        }

        fn better(&self, a: &f64, b: &f64) -> bool {
            a > b
        }

        fn apply(&mut self, &i: &usize) {
            self.spent += self.items[i].1;
            self.taken.push(i);
        }
    }

    #[test]
    fn move_greedy_respects_budget_and_stops_when_dry() {
        let mut toy = Toy {
            items: vec![(5.0, 2), (3.0, 1), (-1.0, 1), (4.0, 3)],
            taken: vec![],
            spent: 0,
        };
        run_move_greedy(&mut toy, 3);
        // Round 1 takes item 0 (value 5, cost 2); round 2 has slack 1,
        // so only item 1 fits; item 2 never improves.
        assert_eq!(toy.taken, vec![0, 1]);
        assert_eq!(toy.spent, 3);
    }
}
