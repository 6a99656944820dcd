//! # tdmd-core — the TDMD problem and its placement algorithms
//!
//! Implements the paper's contribution end to end:
//!
//! * [`instance`] — a TDMD problem [`Instance`]: topology + flows +
//!   traffic-changing ratio `λ` + middlebox budget `k`, validated once
//!   and holding nothing else. Only joint routing instances add
//!   candidate [`PathSets`], whose active picks are the flows' paths.
//! * [`cost`] — the [`CostModel`] trait generalizing Eq. (1)'s
//!   pricing ([`HopCount`], [`WeightedEdges`], chain-aware models),
//!   compiled into the CSR [`FlowIndex`] over path classes (the flows
//!   that share a path): the one vertex → flow index, which the greedy
//!   engine scans and every other solver reads.
//! * [`objective`] — Eq. (1): flow allocation, bandwidth consumption
//!   `b(P)` and the decrement function `d(P)` (Def. 1), plus the
//!   Lemma-1 envelope. Marginal decrements `d_P(v)` (Def. 2) live on
//!   [`FlowIndex::marginal_decrement`].
//! * [`feasibility`] — coverage checks and a greedy set-cover bound
//!   (feasibility itself is NP-hard in general topologies, Thm. 1).
//! * [`plan`] — deployments, allocations and evaluation reports.
//! * [`table`] — [`table::IdTable`], the one open-addressing table
//!   behind every keyed lookup on a hot path: path classes here, flow
//!   keys and live classes in the online engine.
//! * [`algorithms`] — GTP (Alg. 1), the tree DP
//!   (Eqs. 7–10), HAT (Alg. 2), the paper's Random and Best-effort
//!   baselines, an exhaustive optimum for small instances, and the
//!   [`algorithms::joint`] routing + placement solver over candidate
//!   path sets with its LP-relaxation optimality certificate.
//!
//! # Example
//!
//! Build an instance by hand and solve it with GTP under the default
//! hop-count cost model:
//!
//! ```
//! use tdmd_core::algorithms::gtp::gtp_budgeted_with;
//! use tdmd_core::objective::bandwidth_of;
//! use tdmd_core::{HopCount, Instance};
//! use tdmd_graph::DiGraph;
//! use tdmd_traffic::Flow;
//!
//! // A 3-vertex path 0 → 1 → 2 carrying two flows.
//! let graph = DiGraph::from_edges(3, &[(0, 1, 1), (1, 2, 1)]);
//! let flows = vec![
//!     Flow::new(0, 5, vec![0, 1, 2]), // rate 5, two hops
//!     Flow::new(1, 3, vec![1, 2]),    // rate 3, one hop
//! ];
//! let inst = Instance::new(graph, flows, 0.5, 1)?; // λ = 0.5, k = 1
//!
//! // With one box, only vertex 1 covers both flows; the feasibility
//! // guard steers GTP there. Unprocessed cost is 5·2 + 3·1 = 13 and
//! // the box saves (1 − λ)·(5·1 + 3·1) = 4 downstream units.
//! let plan = gtp_budgeted_with(&inst, 1, &HopCount)?;
//! assert_eq!(plan.vertices(), &[1]);
//! assert_eq!(bandwidth_of(&inst, &plan), 9.0);
//! # Ok::<(), tdmd_core::TdmdError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithms;
pub mod audit;
pub mod capacitated;
pub mod cost;
pub mod error;
pub mod feasibility;
pub mod instance;
pub mod num;
pub mod objective;
pub mod obs;
pub mod order;
pub mod paper;
pub mod plan;
pub mod table;

pub use cost::{ClassKey, CostModel, FlowIndex, HopCount, PricedClass, PricedFlow, WeightedEdges};
pub use error::TdmdError;
pub use instance::{Instance, PathCheck, PathMember, PathSets};
pub use order::TotalGain;
pub use plan::{Allocation, Deployment, PlanReport};

/// Convenience prelude.
pub mod prelude {
    pub use crate::algorithms::{
        best_effort::best_effort,
        branch_bound::branch_and_bound,
        dp::{dp_optimal, DpSolution},
        exhaustive::exhaustive_optimal,
        gtp::{gtp_budgeted, gtp_derive_k},
        hat::hat,
        joint::{joint_solve, JointSolution},
        local_search::{gtp_with_local_search, local_search},
        random::random_feasible,
        Algorithm,
    };
    pub use crate::error::TdmdError;
    pub use crate::instance::Instance;
    pub use crate::objective::{allocate, bandwidth, decrement};
    pub use crate::plan::{Allocation, Deployment, PlanReport};
}
