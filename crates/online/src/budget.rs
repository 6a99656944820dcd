//! [`ReconfigBudget`] — the migration-cost model that bounds how much
//! reconfiguration the repair policy may buy per event.
//!
//! The drift-replan story of [`crate::repair`] assumes reconfiguration
//! is free: adopting an oracle deployment can move every middlebox and
//! re-pin every flow in one event. Production migrations are not free
//! (Lukovszki–Rost–Schmid study exactly this bounded-reconfiguration
//! online setting), so the engine prices every *chargeable move*:
//!
//! * deploying or undeploying one middlebox costs
//!   [`ReconfigBudget::box_move_cost`] (a greedy add is 1 box, a swap
//!   is 2, an adopted replan is the symmetric difference of the old
//!   and new deployments);
//! * every flow whose middlebox assignment the move changes costs
//!   [`ReconfigBudget::flow_reassign_cost`].
//!
//! Free zero-load drops are exempt (no flow is touched), and
//! failure-induced orphaning is never charged — losing a box is not a
//! reconfiguration the engine chose.
//!
//! # Token-bucket semantics
//!
//! Spending is governed by an amortized token bucket: the bucket
//! starts full at [`ReconfigBudget::burst`], gains
//! [`ReconfigBudget::refill_per_event`] tokens per applied event
//! (clamped at `burst`), and a move is **admitted** only when the
//! current token level covers its a-priori box cost. The realized
//! flow-reassignment cost is only known after the move and is debited
//! post-hoc, so the level may overdraw below zero by at most the flow
//! cost of the last admitted move; further moves are blocked until the
//! refill clears the debt. Amortized over any window of `E` events the
//! spend is therefore bounded by `burst + E · refill_per_event` plus
//! one move's flow cost.
//!
//! A move that is *not* admitted is recorded as a **deferral**
//! ([`crate::RepairStats::budget_deferrals`]) and repair degrades
//! gracefully: an unaffordable replan falls back to budget-capped
//! local repair (greedy adds and swaps, each individually admitted),
//! and an unaffordable add/swap ends the repair pass for this event.
//!
//! # Hysteresis
//!
//! With a nonzero [`ReconfigBudget::hysteresis`] margin `m`, a swap
//! must beat the break-even point by `m ×` its migration cost: the
//! candidate's gain must exceed `victim load + m · 2 · box_move_cost`.
//! This suppresses churn-thrashing — swaps that barely pay for
//! themselves are not worth a migration.
//!
//! [`ReconfigBudget::unlimited`] (the [`RepairPolicy`](crate::RepairPolicy)
//! default) has an infinite bucket, zero costs and zero margin, and is
//! bitwise-identical to the pre-budget engine (property-tested in
//! `tests/budget_properties.rs`).

/// Migration-cost model and amortized reconfiguration budget of a
/// [`RepairPolicy`](crate::RepairPolicy).
///
/// # Example
///
/// Run an [`OnlineEngine`](crate::OnlineEngine) under a migration
/// budget: each box move costs one token, the bucket banks at most 4
/// tokens and refills half a token per event, and a swap must beat its
/// cost by a 10 % margin:
///
/// ```
/// use tdmd_graph::DiGraph;
/// use tdmd_core::HopCount;
/// use tdmd_online::{Event, OnlineEngine, ReconfigBudget, RepairPolicy};
///
/// let budget = ReconfigBudget::windowed(4.0, 8).with_hysteresis(0.1);
/// assert!(!budget.is_unlimited());
/// let policy = RepairPolicy { budget, ..RepairPolicy::default() };
///
/// let graph = DiGraph::from_edges(3, &[(0, 1, 1), (1, 2, 1)]);
/// let mut engine = OnlineEngine::new(graph, 0.5, 1, HopCount, policy)?;
/// engine.apply(&Event::FlowArrived { key: 1, rate: 4, path: vec![0, 1, 2] })?;
///
/// // The greedy add that deployed the box charged one token.
/// assert_eq!(engine.stats().boxes_moved, 1);
/// assert_eq!(engine.stats().budget_spent, 1.0);
/// assert!(engine.budget_tokens() <= 4.0);
/// # Ok::<(), tdmd_online::OnlineError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconfigBudget {
    /// Tokens charged per middlebox deployed or undeployed by a
    /// chargeable move (admission is gated on this a-priori cost).
    pub box_move_cost: f64,
    /// Tokens charged per flow whose assignment a chargeable move
    /// changes (debited post-hoc; may overdraw the bucket).
    pub flow_reassign_cost: f64,
    /// Tokens added to the bucket per applied event (the amortized
    /// reconfiguration rate).
    pub refill_per_event: f64,
    /// Token-bucket capacity — the largest reconfiguration burst a
    /// single event may buy. `f64::INFINITY` disables budgeting
    /// entirely ([`ReconfigBudget::is_unlimited`]).
    pub burst: f64,
    /// Hysteresis margin `m ≥ 0`: a swap is taken only when its gain
    /// exceeds the victim's load by more than `m ×` the swap's box
    /// cost. `0` restores the pre-budget break-even rule.
    pub hysteresis: f64,
}

impl Default for ReconfigBudget {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl ReconfigBudget {
    /// No budget at all: infinite bucket, zero costs, zero margin —
    /// bitwise-identical to the pre-budget engine.
    pub fn unlimited() -> Self {
        Self {
            box_move_cost: 0.0,
            flow_reassign_cost: 0.0,
            refill_per_event: 0.0,
            burst: f64::INFINITY,
            hysteresis: 0.0,
        }
    }

    /// Strict per-event budget: `tokens` box-move tokens per event,
    /// nothing banked across events (`burst = refill = tokens`). Box
    /// moves cost 1 token, flow reassignments are free.
    pub fn per_event(tokens: f64) -> Self {
        Self {
            box_move_cost: 1.0,
            flow_reassign_cost: 0.0,
            refill_per_event: tokens,
            burst: tokens,
            hysteresis: 0.0,
        }
    }

    /// Amortized windowed budget: `tokens` box-move tokens per
    /// `window_events` events, bankable up to one full window
    /// (`refill = tokens / window`, `burst = tokens`). Box moves cost
    /// 1 token, flow reassignments are free.
    pub fn windowed(tokens: f64, window_events: u64) -> Self {
        Self {
            box_move_cost: 1.0,
            flow_reassign_cost: 0.0,
            refill_per_event: tokens / tdmd_core::num::approx_f64(window_events.max(1)),
            burst: tokens,
            hysteresis: 0.0,
        }
    }

    /// Sets the per-box and per-flow migration costs.
    #[must_use]
    pub fn with_costs(mut self, box_move_cost: f64, flow_reassign_cost: f64) -> Self {
        self.box_move_cost = box_move_cost;
        self.flow_reassign_cost = flow_reassign_cost;
        self
    }

    /// Sets the swap hysteresis margin.
    #[must_use]
    pub fn with_hysteresis(mut self, hysteresis: f64) -> Self {
        self.hysteresis = hysteresis;
        self
    }

    /// Whether this budget never constrains repair (infinite bucket).
    #[inline]
    pub fn is_unlimited(&self) -> bool {
        self.burst.is_infinite()
    }

    /// Token level a fresh engine starts at (a full bucket).
    #[inline]
    pub fn initial_tokens(&self) -> f64 {
        self.burst
    }

    /// Validates the configuration: every field must be non-negative
    /// and non-NaN; costs, refill and margin must additionally be
    /// finite (only `burst` may be `∞`).
    ///
    /// # Errors
    /// A static description of the first offending field.
    pub fn validate(&self) -> Result<(), &'static str> {
        if !self.box_move_cost.is_finite() || self.box_move_cost < 0.0 {
            return Err("box_move_cost must be finite and non-negative");
        }
        if !self.flow_reassign_cost.is_finite() || self.flow_reassign_cost < 0.0 {
            return Err("flow_reassign_cost must be finite and non-negative");
        }
        if !self.refill_per_event.is_finite() || self.refill_per_event < 0.0 {
            return Err("refill_per_event must be finite and non-negative");
        }
        if self.burst.is_nan() || self.burst < 0.0 {
            return Err("burst must be non-negative (INFINITY disables budgeting)");
        }
        if !self.hysteresis.is_finite() || self.hysteresis < 0.0 {
            return Err("hysteresis must be finite and non-negative");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_is_the_default_and_validates() {
        let b = ReconfigBudget::default();
        assert!(b.is_unlimited());
        assert_eq!(b, ReconfigBudget::unlimited());
        assert!(b.validate().is_ok());
        assert!(b.initial_tokens().is_infinite());
    }

    #[test]
    fn windowed_banks_one_window() {
        let b = ReconfigBudget::windowed(8.0, 16);
        assert!(!b.is_unlimited());
        assert_eq!(b.burst, 8.0);
        assert_eq!(b.refill_per_event, 0.5);
        assert_eq!(b.box_move_cost, 1.0);
        assert!(b.validate().is_ok());
    }

    #[test]
    fn per_event_banks_nothing() {
        let b = ReconfigBudget::per_event(2.0);
        assert_eq!(b.burst, b.refill_per_event);
        assert!(b.validate().is_ok());
    }

    #[test]
    fn builders_compose() {
        let b = ReconfigBudget::per_event(4.0)
            .with_costs(2.0, 0.25)
            .with_hysteresis(0.1);
        assert_eq!(b.box_move_cost, 2.0);
        assert_eq!(b.flow_reassign_cost, 0.25);
        assert_eq!(b.hysteresis, 0.1);
        assert!(b.validate().is_ok());
    }

    #[test]
    fn bad_configurations_are_rejected() {
        assert!(ReconfigBudget::per_event(f64::NAN).validate().is_err());
        assert!(ReconfigBudget::per_event(-1.0).validate().is_err());
        assert!(ReconfigBudget::unlimited()
            .with_costs(f64::INFINITY, 0.0)
            .validate()
            .is_err());
        assert!(ReconfigBudget::unlimited()
            .with_costs(0.0, -0.5)
            .validate()
            .is_err());
        assert!(ReconfigBudget::unlimited()
            .with_hysteresis(-0.1)
            .validate()
            .is_err());
        let mut b = ReconfigBudget::per_event(1.0);
        b.burst = f64::NAN;
        assert!(b.validate().is_err());
    }
}
