//! Online structural invariant auditor — the streaming half of
//! tdmd-audit.
//!
//! [`check_engine`] validates the full [`OnlineEngine`] invariant
//! stack in one call: deployment/budget/failure-mask consistency,
//! every [`crate::DeltaState`] invariant against a from-scratch
//! rebuild, and [`crate::LazyQueue`] epoch coherence against exact
//! marginal gains. It is compiled under `debug_assertions`, the
//! `audit` cargo feature (which forwards to `tdmd-core/audit`), or
//! tests; `tdmd stream run --audit` re-validates after every applied
//! event via [`OnlineEngine::enable_audit`].

pub use tdmd_core::audit::{enforce, AuditError};

use crate::engine::OnlineEngine;
use tdmd_core::CostModel;
use tdmd_obs::Recorder;

/// Validates every engine invariant now (see [`OnlineEngine::audit_now`]).
///
/// # Errors
/// Returns the first violated check; see
/// [`DeltaState::check_invariants`](crate::DeltaState::check_invariants)
/// and [`LazyQueue::check_coherence`](crate::LazyQueue::check_coherence)
/// for the per-layer check names, plus the engine-level
/// `engine-deployment-bounds`, `engine-deployed-failed`,
/// `engine-over-budget`, `engine-failed-census` and
/// `engine-blocked-sync`.
pub fn check_engine<M: CostModel, R: Recorder>(
    engine: &OnlineEngine<M, R>,
) -> Result<(), AuditError> {
    engine.audit_now()
}
