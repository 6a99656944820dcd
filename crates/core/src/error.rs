//! Error type shared by the TDMD algorithms.

/// Errors surfaced by instance validation and the placement
/// algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum TdmdError {
    /// `λ` is outside `[0, 1]` — the paper only treats
    /// traffic-diminishing middleboxes.
    BadLambda(f64),
    /// A flow's path uses an edge missing from the topology.
    InvalidPath {
        /// Offending flow id.
        flow: u32,
    },
    /// No deployment within the budget can cover every flow (or the
    /// algorithm could not find one — feasibility is NP-hard to decide
    /// in general topologies, Thm. 1).
    Infeasible {
        /// The budget that was insufficient.
        budget: usize,
    },
    /// A tree algorithm was invoked on an instance that is not a tree
    /// rooted at the flows' common destination with leaf sources.
    NotATreeInstance(String),
    /// An API that needs at least one flow was given an empty
    /// workload (e.g. [`dp_tables`](crate::algorithms::dp::dp_tables)
    /// has nothing to tabulate). Distinct from
    /// [`TdmdError::NotATreeInstance`]: the topology may be a
    /// perfectly good tree.
    EmptyWorkload {
        /// What the caller asked for of the empty workload.
        operation: &'static str,
    },
    /// A failure/recovery event named a vertex the stream layer
    /// rejects (outside the topology, already failed, not failed, or
    /// hosting no middlebox) — see `tdmd_online::OnlineError` for the
    /// fine-grained cause.
    FailedVertex {
        /// Offending vertex id.
        vertex: u32,
    },
    /// A search or table would exceed its cap: the subsets of
    /// exhaustive search, the nodes branch and bound expands, or the
    /// tree DP's table cells and fold pairs.
    SearchSpaceTooLarge {
        /// Size of the space (subsets, nodes, or cells and pairs).
        subsets: u128,
        /// The configured cap.
        cap: u128,
    },
    /// A reconfiguration-budget configuration is malformed (negative,
    /// NaN, or an infinite cost/refill/margin) — see
    /// `tdmd_online::ReconfigBudget::validate` for the field rules.
    BadReconfigBudget {
        /// Which field is malformed.
        reason: &'static str,
    },
}

impl std::fmt::Display for TdmdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TdmdError::BadLambda(l) => write!(f, "traffic-changing ratio {l} outside [0, 1]"),
            TdmdError::InvalidPath { flow } => write!(f, "flow {flow} has an invalid path"),
            TdmdError::Infeasible { budget } => {
                write!(
                    f,
                    "no feasible deployment with {budget} middleboxes was found"
                )
            }
            TdmdError::NotATreeInstance(why) => write!(f, "not a tree instance: {why}"),
            TdmdError::EmptyWorkload { operation } => {
                write!(f, "empty workload: no flows to {operation}")
            }
            TdmdError::FailedVertex { vertex } => {
                write!(f, "invalid failure/recovery event at vertex {vertex}")
            }
            TdmdError::SearchSpaceTooLarge { subsets, cap } => {
                write!(f, "search space of {subsets} exceeds cap {cap}")
            }
            TdmdError::BadReconfigBudget { reason } => {
                write!(f, "bad reconfiguration budget: {reason}")
            }
        }
    }
}

impl std::error::Error for TdmdError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(TdmdError::BadLambda(1.5).to_string().contains("1.5"));
        assert!(TdmdError::Infeasible { budget: 3 }
            .to_string()
            .contains('3'));
        assert!(TdmdError::NotATreeInstance("cycle".into())
            .to_string()
            .contains("cycle"));
        assert!(TdmdError::EmptyWorkload {
            operation: "tabulate"
        }
        .to_string()
        .contains("tabulate"));
        assert!(TdmdError::FailedVertex { vertex: 7 }
            .to_string()
            .contains('7'));
        let e = TdmdError::SearchSpaceTooLarge {
            subsets: 10,
            cap: 5,
        };
        assert!(e.to_string().contains("10") && e.to_string().contains('5'));
    }
}
