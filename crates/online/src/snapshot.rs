//! Versioned engine state snapshots — the crash/restart story of the
//! `tdmd serve` daemon.
//!
//! A snapshot captures everything an [`OnlineEngine`] cannot re-derive
//! from its constructor arguments: the active flows with their
//! arrival-time pricing, the deployment, the failure mask, and the
//! repair telemetry (whose event counter drives the drift-sampling
//! schedule). The topology, cost model and repair policy are *not*
//! serialized — the caller supplies them again at restore time,
//! exactly like at construction. (The policy in particular may carry
//! `drift_eps = ∞`, which JSON cannot round-trip.)
//!
//! # The bitwise-restore contract
//!
//! [`OnlineEngine::snapshot`] takes `&mut self` because it
//! *canonicalizes* the live engine as it serializes it: the delta
//! state is rebuilt by re-inserting every active flow in arrival
//! order against the current deployment, and the CELF queue is
//! rebuilt with exact marginal-gain bounds. [`OnlineEngine::restore`]
//! builds the identical structures from the snapshot, so the restored
//! engine is *bitwise* interchangeable with the one that took the
//! snapshot: every future event stream applied to both produces
//! identical deployments, objectives (`exact_objective().to_bits()`)
//! and stats. Canonicalizing only the restored side would not be
//! enough — [`DeltaState`](crate::DeltaState) row order and the
//! float-summation order of its marginal gains depend on insertion
//! history, so the two sides must be normalized to the *same*
//! history.
//!
//! Canonicalization is behavior-preserving on the live side: the
//! rebuilt assignments are the same deterministic `(gain, smaller
//! id)` argmaxes, the rebuilt running sums equal
//! [`DeltaState::exact_objective`](crate::DeltaState::exact_objective)
//! (which is insertion-order-independent for a fixed arrival order),
//! and the rebuilt queue holds exact bounds — a superset of the
//! coherence the auditor demands.
//!
//! # What restore checks
//!
//! A document is external input, so [`OnlineEngine::restore`] checks
//! its structure (version, topology, λ, vertex ids, budget, every
//! flow's path and rate) and also the stored pricing it will not
//! re-derive. Each flow's gains must obey the
//! [`CostModel`](tdmd_core::CostModel) contract: every gain in
//! `[0, cost]` for a finite cost, none rising along the path. And
//! `Σ rate·cost` over the flows, in arrival order, must stay finite,
//! because every running sum the engine keeps is bounded by it. A
//! snapshot a live engine took always passes; a flow that fails is
//! [`SnapshotError::InvalidFlow`].
//!
//! [`OnlineEngine`]: crate::OnlineEngine
//! [`OnlineEngine::snapshot`]: crate::OnlineEngine::snapshot
//! [`OnlineEngine::restore`]: crate::OnlineEngine::restore

use serde::{Deserialize, Serialize};
use tdmd_graph::NodeId;

use crate::event::FlowKey;
use crate::repair::RepairStats;

/// Schema version written by [`crate::OnlineEngine::snapshot`];
/// [`crate::OnlineEngine::restore`] rejects any other value.
///
/// Version history:
/// * **1** — flows, deployment, failure mask, repair stats.
/// * **2** — adds the reconfiguration-budget state
///   ([`EngineSnapshot::budget_tokens`] and the budget fields of
///   [`RepairStats`]). Version-1 documents are *rejected*, not
///   upgraded: restoring one silently would zero-fill the live token
///   level and amortized spend, and `tdmd-serve` must never resume a
///   budgeted session with a refilled bucket.
pub const SNAPSHOT_VERSION: u32 = 2;

/// One active flow as serialized in a snapshot, in arrival order.
///
/// The arrival-time pricing (`gains`, `cost`) is stored verbatim
/// rather than re-derived from the model at restore time: bitwise
/// restore must reproduce the exact floats the live engine computed.
/// Restore checks them against the [`CostModel`](tdmd_core::CostModel)
/// contract, since nothing else guards a document's floats.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotFlow {
    /// Stream-stable flow key.
    pub key: FlowKey,
    /// Rate `r_f`.
    pub rate: u64,
    /// Active path as a vertex sequence.
    pub path: Vec<NodeId>,
    /// Per-position serving gains
    /// ([`CostModel::gains`](tdmd_core::CostModel::gains), fixed at
    /// arrival).
    pub gains: Vec<f64>,
    /// Unprocessed metric of the whole path.
    pub cost: f64,
}

/// A versioned, serializable capture of an
/// [`OnlineEngine`](crate::OnlineEngine)'s replayable state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineSnapshot {
    /// Schema version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// Vertex count of the topology the engine ran on — restore
    /// re-checks it against the supplied graph.
    pub node_count: u64,
    /// Traffic-changing ratio λ.
    pub lambda: f64,
    /// Middlebox budget `k`.
    pub k: u64,
    /// Active flows in arrival order — the order restore
    /// re-inserts them in.
    pub flows: Vec<SnapshotFlow>,
    /// Deployed vertices, ascending.
    pub deployment: Vec<NodeId>,
    /// Failed vertices, ascending.
    pub failed: Vec<NodeId>,
    /// Repair telemetry; `stats.events` resumes the drift-sampling
    /// schedule and the budget fields resume the amortized-spend
    /// accounting.
    pub stats: RepairStats,
    /// Reconfiguration token level at snapshot time. Stored as `0`
    /// when the engine ran under an unlimited budget (`∞` does not
    /// survive JSON); restore re-derives `∞` from the caller-supplied
    /// policy, so the round trip stays bitwise for both unlimited and
    /// finite budgets. `#[serde(default)]` lets version-1 documents
    /// *parse* — the version check then rejects them explicitly
    /// instead of a deserialization error.
    #[serde(default)]
    pub budget_tokens: f64,
}

/// Why a snapshot could not be restored.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// The snapshot's schema version is not [`SNAPSHOT_VERSION`].
    UnsupportedVersion {
        /// Version found in the document.
        found: u32,
    },
    /// The supplied graph's vertex count disagrees with the snapshot.
    TopologyMismatch {
        /// Vertex count recorded in the snapshot.
        expected: u64,
        /// Vertex count of the supplied graph.
        found: u64,
    },
    /// λ outside `[0, 1]` (a corrupt document — the engine never
    /// accepts one).
    BadLambda(f64),
    /// A flow's path is degenerate, non-simple, off the supplied
    /// topology, or its rate is zero; its gains do not match its path
    /// length or break the [`CostModel`](tdmd_core::CostModel)
    /// contract (negative, rising along the path, above a finite
    /// cost); or the snapshot's `Σ rate·cost` stops being finite at
    /// it.
    InvalidFlow {
        /// Offending flow key.
        key: FlowKey,
    },
    /// Two flows share a key.
    DuplicateKey {
        /// Offending flow key.
        key: FlowKey,
    },
    /// A deployment/failed entry lies outside the topology.
    BadVertex {
        /// Offending vertex id.
        vertex: NodeId,
    },
    /// A vertex is both deployed and failed — the engine's core
    /// safety invariant forbids it.
    DeployedWhileFailed {
        /// Offending vertex id.
        vertex: NodeId,
    },
    /// More vertices deployed than the budget allows.
    OverBudget {
        /// Deployed-vertex count in the snapshot.
        deployed: u64,
        /// Budget `k` recorded in the snapshot.
        k: u64,
    },
    /// The reconfiguration-budget state is corrupt: a non-finite token
    /// level or spend (the engine serializes finite values only).
    BadBudgetState(
        /// Offending value.
        f64,
    ),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported snapshot version {found} (want {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::TopologyMismatch { expected, found } => {
                write!(
                    f,
                    "snapshot taken on {expected} vertices, graph has {found}"
                )
            }
            SnapshotError::BadLambda(l) => write!(f, "snapshot lambda {l} outside [0, 1]"),
            SnapshotError::InvalidFlow { key } => {
                write!(f, "snapshot flow {key}: invalid path, rate or gains")
            }
            SnapshotError::DuplicateKey { key } => {
                write!(f, "snapshot flow key {key} appears twice")
            }
            SnapshotError::BadVertex { vertex } => {
                write!(f, "snapshot vertex {vertex} is not in the topology")
            }
            SnapshotError::DeployedWhileFailed { vertex } => {
                write!(f, "snapshot vertex {vertex} is both deployed and failed")
            }
            SnapshotError::OverBudget { deployed, k } => {
                write!(
                    f,
                    "snapshot deploys {deployed} middleboxes over budget k = {k}"
                )
            }
            SnapshotError::BadBudgetState(x) => {
                write!(f, "snapshot budget state {x} is not finite")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}
