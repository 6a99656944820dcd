//! # tdmd-online — incremental placement under streaming flow churn
//!
//! The paper solves a *static* TDMD instance; this crate maintains a
//! deployment and its flow→middlebox assignment under a stream of
//! [`Event::FlowArrived`] / [`Event::FlowDeparted`] events without
//! recomputing from scratch (the Lukovszki–Rost–Schmid incremental
//! placement setting, applied to the traffic-diminishing objective).
//! A failure layer ([`Event::MiddleboxFailed`] / [`Event::VertexDown`]
//! / [`Event::MiddleboxRecovered`]) keeps the deployment safe under
//! middlebox-plane loss: orphaned flows are re-pinned or degraded, and
//! the repair policy re-spends the freed budget.
//!
//! Flows are priced by the same [`CostModel`](tdmd_core::CostModel)
//! the static solvers use (hop count, weighted edges, the chain
//! crate's stack model): the engine calls
//! [`CostModel::gains`](tdmd_core::CostModel::gains) once per arrival
//! and stores the result for the flow's lifetime, and the drift oracle
//! compiles those stored gains, so it optimizes exactly the objective
//! the stream prices.
//!
//! * [`event`] — the churn + failure event stream and the serializable
//!   [`FlowSpan`] records a stream is replayed from.
//! * [`delta`] — [`DeltaState`], the incrementally-maintained mirror
//!   of the static CSR flow index: per-vertex flow rows with O(1)
//!   removal, per-flow assignments, and the objective as a running
//!   sum. Arrivals, departures and candidate-path reroutes (a live
//!   flow switching to another candidate under the joint routing
//!   extension) touch only the flow's own old and new paths.
//! * [`queue`] — [`LazyQueue`], a CELF-style lazy priority queue whose
//!   cached marginal gains survive across events under epoch-stamped
//!   invalidation.
//! * [`engine`] / [`repair`] — [`OnlineEngine`] applies events and
//!   runs the pluggable [`RepairPolicy`]: greedy adds/drops, bounded
//!   swap repair, and a drift-triggered replan against a
//!   periodically-sampled from-scratch GTP solve — each move admitted
//!   against the policy's migration budget, so a replan the budget
//!   cannot cover is deferred to budget-capped local repair rather
//!   than adopted unconditionally.
//! * [`budget`] — [`ReconfigBudget`], the migration-cost model: per
//!   box-move and per flow-reassignment costs, an amortized
//!   token-bucket budget and a swap-hysteresis margin. The default
//!   [`ReconfigBudget::unlimited`] is bitwise the unbudgeted engine.
//! * [`snapshot`] — versioned engine state capture and restore
//!   ([`OnlineEngine::snapshot`] / [`OnlineEngine::restore`]) with a
//!   bitwise-restore contract: the restored engine is float-for-float
//!   interchangeable with the one that took the snapshot. Restore
//!   rejects stored gains that break the cost-model contract.
//!
//! # Example
//!
//! Drive the engine through an arrival, a vertex failure with repair,
//! a recovery and a departure:
//!
//! ```
//! use tdmd_graph::DiGraph;
//! use tdmd_core::HopCount;
//! use tdmd_online::{Event, OnlineEngine, RepairPolicy};
//!
//! let graph = DiGraph::from_edges(3, &[(0, 1, 1), (1, 2, 1)]);
//! let mut engine = OnlineEngine::new(graph, 0.5, 1, HopCount, RepairPolicy::default())?;
//!
//! // A rate-4 flow over both hops: the single box lands at the
//! // source (gain 2 hops), so 4·2 − 0.5·4·2 = 4 units remain.
//! engine.apply(&Event::FlowArrived { key: 1, rate: 4, path: vec![0, 1, 2] })?;
//! assert_eq!(engine.deployment().vertices(), &[0]);
//! assert_eq!(engine.objective(), 4.0);
//!
//! // The source vertex dies: the flow is orphaned and repair
//! // re-spends the freed slot at vertex 1 (gain 1 hop).
//! engine.apply(&Event::VertexDown { vertex: 0 })?;
//! assert_eq!(engine.deployment().vertices(), &[1]);
//! assert_eq!(engine.objective(), 6.0);
//! assert_eq!(engine.degraded_count(), 0);
//!
//! engine.apply(&Event::MiddleboxRecovered { vertex: 0 })?;
//! engine.apply(&Event::FlowDeparted { key: 1 })?;
//! assert_eq!(engine.objective(), 0.0);
//! # Ok::<(), tdmd_online::OnlineError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(any(debug_assertions, feature = "audit", test))]
pub mod audit;
pub mod budget;
pub mod delta;
pub mod engine;
pub mod event;
pub mod queue;
pub mod repair;
pub mod snapshot;

pub use budget::ReconfigBudget;
pub use delta::{DeltaState, Failover};
pub use engine::{obs_keys, OnlineEngine, OnlineError};
pub use event::{events_from_spans, merge_events, Event, FlowKey, FlowSpan, TimedEvent};
pub use queue::LazyQueue;
pub use repair::{RepairPolicy, RepairStats};
pub use snapshot::{EngineSnapshot, SnapshotError, SnapshotFlow, SNAPSHOT_VERSION};

/// Hop-count pricing under the name the benchmark (`perfbench/`) still
/// imports; goes with the benchmark's next change.
pub type HopPricer = tdmd_core::HopCount;
/// [`tdmd_core::CostModel`] under the name the benchmark still
/// imports; goes with the benchmark's next change.
pub use tdmd_core::CostModel as PathPricer;
