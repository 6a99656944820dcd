//! Branch-and-bound exact solver for general topologies.
//!
//! The plain exhaustive search enumerates every ≤ k-subset; this
//! solver prunes with a submodularity-based bound: from a partial
//! deployment `P`, the decrement of any completion with `m` more boxes
//! is at most `d(P)` plus the sum of the `m` largest *current*
//! marginal decrements (each marginal only shrinks as `P` grows,
//! Thm. 2). It returns exactly the same optimum as
//! [`crate::algorithms::exhaustive`] while visiting a fraction of the
//! tree, which pushes the certified-optimal frontier from ~15 to ~40
//! vertices at small `k`. The search state is per path class (each
//! class's best gain so far and whether it is served), read from the
//! hop-count [`FlowIndex`]'s class rows.

use crate::cost::{FlowIndex, HopCount};
use crate::error::TdmdError;
use crate::instance::Instance;
use crate::num::{id32, ix};
use crate::plan::Deployment;
use tdmd_graph::NodeId;

/// Search statistics, returned alongside the optimum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BnbStats {
    /// Nodes of the search tree expanded.
    pub expanded: u64,
    /// Nodes pruned by the submodular bound.
    pub pruned: u64,
}

struct Search {
    index: FlowIndex,
    cands: Vec<NodeId>,
    k: usize,
    best_decrement: f64,
    best: Option<Vec<NodeId>>,
    stats: BnbStats,
    node_budget: u64,
}

impl Search {
    /// Depth-first over candidate indices with the submodular bound.
    fn recurse(
        &mut self,
        from: usize,
        chosen: &mut Vec<NodeId>,
        cur: &mut Vec<f64>,
        served: &mut Vec<bool>,
        decrement: f64,
    ) -> Result<(), TdmdError> {
        self.stats.expanded += 1;
        if self.stats.expanded > self.node_budget {
            return Err(TdmdError::SearchSpaceTooLarge {
                subsets: u128::from(self.stats.expanded),
                cap: u128::from(self.node_budget),
            });
        }
        let feasible = served.iter().all(|&s| s);
        if feasible && (decrement > self.best_decrement || self.best.is_none()) {
            self.best_decrement = decrement;
            self.best = Some(chosen.clone());
        }
        let slots = self.k - chosen.len();
        if slots == 0 || from >= self.cands.len() {
            return Ok(());
        }
        // Submodular upper bound: current decrement + top `slots`
        // marginals among the remaining candidates (valid because
        // d(P ∪ S) ≤ d(P) + Σ_{v ∈ S} d_P(v), Thm. 2).
        let unserved_in = |c: u32| {
            if served[ix(c)] {
                0
            } else {
                ix(self.index.class_size(c))
            }
        };
        let mut gains: Vec<(f64, usize)> = self.cands[from..]
            .iter()
            .map(|&v| {
                let row = self.index.classes_through(v);
                (
                    self.index.decrement(cur, v),
                    row.iter().map(|&c| unserved_in(c)).sum(),
                )
            })
            .collect();
        gains.sort_unstable_by(|a, b| b.0.total_cmp(&a.0));
        let bound: f64 = decrement + gains.iter().take(slots).map(|&(g, _)| g).sum::<f64>();
        let coverable: usize = gains.iter().map(|&(_, c)| c).sum();
        let unserved: usize = (0..id32(served.len())).map(unserved_in).sum();
        if (self.best.is_some() && bound <= self.best_decrement + 1e-12) || coverable < unserved {
            self.stats.pruned += 1;
            return Ok(());
        }
        // Branch in candidate order (include / skip each).
        for i in from..self.cands.len() {
            let v = self.cands[i];
            let gain = self.index.decrement(cur, v);
            // Record deltas to undo after the recursive call.
            let mut touched: Vec<(usize, f64, bool)> = Vec::new();
            for (c, g) in self.index.row_entries(v) {
                let c = ix(c);
                touched.push((c, cur[c], served[c]));
                served[c] = true;
                cur[c] = cur[c].max(g);
            }
            chosen.push(v);
            self.recurse(i + 1, chosen, cur, served, decrement + gain)?;
            chosen.pop();
            for (c, old_g, old_s) in touched.into_iter().rev() {
                cur[c] = old_g;
                served[c] = old_s;
            }
        }
        Ok(())
    }
}

/// Exact optimum with at most `k` middleboxes via branch and bound.
/// `node_budget` caps the number of expanded search nodes.
///
/// # Errors
/// * [`TdmdError::Infeasible`] if no ≤ k deployment covers all flows.
/// * [`TdmdError::SearchSpaceTooLarge`] if the node budget trips.
pub fn branch_and_bound(
    instance: &Instance,
    k: usize,
    node_budget: u64,
) -> Result<(Deployment, f64, BnbStats), TdmdError> {
    if instance.flows().is_empty() {
        return Ok((
            Deployment::empty(instance.node_count()),
            0.0,
            BnbStats {
                expanded: 0,
                pruned: 0,
            },
        ));
    }
    let index = FlowIndex::build(instance, &HopCount);
    let classes = index.class_count();
    let mut search = Search {
        index,
        cands: instance.candidate_vertices(),
        k,
        best_decrement: f64::NEG_INFINITY,
        best: None,
        stats: BnbStats {
            expanded: 0,
            pruned: 0,
        },
        node_budget,
    };
    let mut chosen = Vec::with_capacity(k);
    let mut cur = vec![0.0; classes];
    let mut served = vec![false; classes];
    search.recurse(0, &mut chosen, &mut cur, &mut served, 0.0)?;
    match search.best {
        Some(vs) => {
            let d = Deployment::from_vertices(instance.node_count(), vs);
            let b = instance.unprocessed_bandwidth() - search.best_decrement;
            Ok((d, b, search.stats))
        }
        None => Err(TdmdError::Infeasible { budget: k }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::exhaustive::{exhaustive_optimal, DEFAULT_SUBSET_CAP};
    use crate::paper::{fig1_instance, fig5_instance};

    #[test]
    fn matches_exhaustive_on_the_paper_examples() {
        for k in 2..=4 {
            let inst = fig1_instance(k);
            let (_, b, _) = branch_and_bound(&inst, k, 1_000_000).unwrap();
            let (_, e) = exhaustive_optimal(&inst, k, DEFAULT_SUBSET_CAP).unwrap();
            assert_eq!(b, e, "fig1 k={k}");
        }
        for k in 1..=4 {
            let inst = fig5_instance(k);
            let (_, b, _) = branch_and_bound(&inst, k, 1_000_000).unwrap();
            let (_, e) = exhaustive_optimal(&inst, k, DEFAULT_SUBSET_CAP).unwrap();
            assert_eq!(b, e, "fig5 k={k}");
        }
    }

    #[test]
    fn detects_infeasibility() {
        let inst = fig1_instance(1);
        assert_eq!(
            branch_and_bound(&inst, 1, 1_000_000).unwrap_err(),
            TdmdError::Infeasible { budget: 1 }
        );
    }

    #[test]
    fn prunes_something_nontrivial() {
        let inst = fig5_instance(4);
        let (_, _, stats) = branch_and_bound(&inst, 4, 1_000_000).unwrap();
        assert!(stats.pruned > 0, "the bound should fire on fig5");
    }

    #[test]
    fn node_budget_trips() {
        let inst = fig5_instance(4);
        assert!(matches!(
            branch_and_bound(&inst, 4, 2).unwrap_err(),
            TdmdError::SearchSpaceTooLarge { .. }
        ));
    }

    #[test]
    fn empty_flows_are_trivial() {
        let g = crate::paper::fig5_graph();
        let inst = Instance::new(g, vec![], 0.5, 2).unwrap();
        let (d, b, _) = branch_and_bound(&inst, 2, 100).unwrap();
        assert!(d.is_empty());
        assert_eq!(b, 0.0);
    }
}
