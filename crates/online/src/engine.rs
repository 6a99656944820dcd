//! [`OnlineEngine`] — event-driven incremental placement.
//!
//! The engine owns the topology, a [`DeltaState`], a [`LazyQueue`]
//! and the current deployment, and applies churn events in
//! O(path length · log V) amortized state touches: an arrival dirties
//! only the vertices on the new flow's path; a departure subtracts
//! only the departing flow's contributions. Solution quality is
//! restored by the [`RepairPolicy`] (see [`crate::repair`]).
//!
//! The engine optimizes the diminishing objective; it does not
//! enforce the coverage constraint per event (a flow no deployed
//! vertex can profitably serve simply rides at full rate, like the
//! static best-effort baseline). The drift oracle *does* run the full
//! budgeted GTP with its feasibility guard, so adopted replans are
//! feasible whenever the budget allows.
//!
//! # Failure semantics
//!
//! [`Event::MiddleboxFailed`] and [`Event::VertexDown`] mark a vertex
//! *failed*: it is removed from the deployment (orphaning the flows it
//! served — see [`DeltaState::fail_rehome`]) and blocked out of the
//! CELF candidate pool until [`Event::MiddleboxRecovered`] lifts the
//! mark. Two invariants hold after every applied event:
//!
//! * **Deployment safety** — the deployment never contains a failed
//!   vertex, and no active flow is assigned to one.
//! * **Recovery transparency** — once every failed vertex has
//!   recovered, a forced replan ([`OnlineEngine::replan_now`]) leaves
//!   the engine bitwise identical to a from-scratch solve of the same
//!   snapshot; failures leave no residue.
//!
//! While failures are active, drift-oracle deployments are *stripped*
//! of failed vertices before evaluation/adoption and the freed budget
//! is re-spent greedily, so replans stay safe at the cost of the
//! oracle-equality guarantee (restored on full recovery).
//!
//! # Bounded reconfiguration
//!
//! Every chargeable repair move — greedy add, swap, adopted replan —
//! is admitted against the policy's
//! [`ReconfigBudget`](crate::ReconfigBudget) token bucket and charged
//! its migration cost (boxes moved plus flows reassigned); replans
//! the bucket cannot cover are deferred in favor of budget-capped
//! local repair. Under the default unlimited budget no move is ever
//! deferred and the engine behaves exactly as documented above (see
//! [`crate::budget`] for the cost model and DESIGN.md §15 for the
//! bound).

use tdmd_core::algorithms::gtp::gtp_budgeted_index;
use tdmd_core::num::{approx_f64, big_ix, id32, ix, wide};
use tdmd_core::{CostModel, Deployment, Instance, PathCheck, PricedFlow, TdmdError};
use tdmd_graph::{DiGraph, NodeId};
use tdmd_traffic::Flow;

use crate::delta::DeltaState;
use crate::event::{Event, FlowKey};
use crate::queue::LazyQueue;
use crate::repair::{RepairPolicy, RepairStats};
use crate::snapshot::{EngineSnapshot, SnapshotError, SnapshotFlow, SNAPSHOT_VERSION};

/// Gains below this are treated as zero by the repair loop.
const GAIN_EPS: f64 = 1e-12;

/// Errors an event stream can raise.
#[derive(Debug, Clone, PartialEq)]
pub enum OnlineError {
    /// λ outside `[0, 1]`.
    BadLambda(f64),
    /// An arrival's path is degenerate, non-simple, off the topology,
    /// or its rate is zero.
    InvalidFlow {
        /// Offending flow key.
        key: FlowKey,
    },
    /// An arrival reused a key that is still active.
    DuplicateKey {
        /// Offending flow key.
        key: FlowKey,
    },
    /// A departure named a key that is not active.
    UnknownKey {
        /// Offending flow key.
        key: FlowKey,
    },
    /// A failure/recovery event named a vertex outside the topology.
    UnknownVertex {
        /// Offending vertex id.
        vertex: NodeId,
    },
    /// A failure event named a vertex that is already failed.
    AlreadyFailed {
        /// Offending vertex id.
        vertex: NodeId,
    },
    /// A recovery event named a vertex that is not failed.
    NotFailed {
        /// Offending vertex id.
        vertex: NodeId,
    },
    /// [`Event::MiddleboxFailed`] named a vertex with no deployed
    /// middlebox (use [`Event::VertexDown`] for arbitrary vertices).
    NoMiddleboxAt {
        /// Offending vertex id.
        vertex: NodeId,
    },
    /// The policy's [`ReconfigBudget`](crate::ReconfigBudget) is
    /// malformed (negative, NaN, or an infinite cost/refill/margin).
    BadBudget {
        /// Which field is malformed
        /// ([`ReconfigBudget::validate`](crate::ReconfigBudget::validate)).
        reason: &'static str,
    },
}

impl std::fmt::Display for OnlineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OnlineError::BadLambda(l) => write!(f, "lambda {l} outside [0, 1]"),
            OnlineError::InvalidFlow { key } => write!(f, "flow {key}: invalid path or rate"),
            OnlineError::DuplicateKey { key } => write!(f, "flow {key} is already active"),
            OnlineError::UnknownKey { key } => write!(f, "flow {key} is not active"),
            OnlineError::UnknownVertex { vertex } => {
                write!(f, "vertex {vertex} is not in the topology")
            }
            OnlineError::AlreadyFailed { vertex } => write!(f, "vertex {vertex} is already failed"),
            OnlineError::NotFailed { vertex } => write!(f, "vertex {vertex} is not failed"),
            OnlineError::NoMiddleboxAt { vertex } => {
                write!(f, "no middlebox deployed at vertex {vertex}")
            }
            OnlineError::BadBudget { reason } => {
                write!(f, "bad reconfiguration budget: {reason}")
            }
        }
    }
}

impl std::error::Error for OnlineError {}

/// Event-driven incremental placement engine, generic over the
/// [`CostModel`] that prices each arriving flow. Its one record is
/// [`RepairStats`]; callers time the calls they make.
pub struct OnlineEngine<M: CostModel> {
    graph: DiGraph,
    lambda: f64,
    k: usize,
    model: M,
    policy: RepairPolicy,
    state: DeltaState,
    queue: LazyQueue,
    deployment: Deployment,
    /// Failed-vertex mask; `deployment ∩ failed = ∅` always.
    failed: Vec<bool>,
    failed_count: usize,
    stats: RepairStats,
    /// Reconfiguration token level (`∞` under an unlimited budget,
    /// `≤ policy.budget.burst` always; may overdraw below zero by the
    /// post-hoc flow cost of the last admitted move).
    tokens: f64,
    /// Validates arriving paths without allocating.
    paths: PathCheck,
    /// The arriving flow as the model prices it (id 0, tenant 0),
    /// reused across arrivals.
    probe: Flow,
    /// The arriving flow's per-position gains, reused across arrivals.
    gains: Vec<f64>,
    /// Per-event auditing ([`OnlineEngine::enable_audit`]): every
    /// `apply` re-validates the full invariant stack.
    audit: bool,
}

impl<M: CostModel> OnlineEngine<M> {
    /// Creates an engine over `graph` with budget `k`.
    ///
    /// # Errors
    /// [`OnlineError::BadLambda`] if `λ ∉ [0, 1]`.
    pub fn new(
        graph: DiGraph,
        lambda: f64,
        k: usize,
        model: M,
        policy: RepairPolicy,
    ) -> Result<Self, OnlineError> {
        if !(0.0..=1.0).contains(&lambda) || lambda.is_nan() {
            return Err(OnlineError::BadLambda(lambda));
        }
        if let Err(reason) = policy.budget.validate() {
            return Err(OnlineError::BadBudget { reason });
        }
        let n = graph.node_count();
        Ok(Self {
            graph,
            lambda,
            k,
            model,
            policy,
            state: DeltaState::new(n, lambda),
            queue: LazyQueue::new(n),
            deployment: Deployment::empty(n),
            failed: vec![false; n],
            failed_count: 0,
            stats: RepairStats::default(),
            tokens: policy.budget.initial_tokens(),
            paths: PathCheck::new(n),
            probe: Flow {
                id: 0,
                rate: 0,
                path: Vec::new(),
                tenant: 0,
            },
            gains: Vec::new(),
            audit: false,
        })
    }

    /// Current deployment.
    #[inline]
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// Running objective (O(1); see
    /// [`DeltaState::exact_objective`] for the drift-free sum).
    #[inline]
    pub fn objective(&self) -> f64 {
        self.state.objective()
    }

    /// Objective recomputed from scratch in arrival order — bitwise
    /// equal to the static CSR evaluation of the same snapshot.
    pub fn exact_objective(&self) -> f64 {
        self.state.exact_objective()
    }

    /// Number of active flows.
    #[inline]
    pub fn active_count(&self) -> usize {
        self.state.active_count()
    }

    /// Whether `v` is currently failed (ineligible for placement).
    #[inline]
    pub fn is_failed(&self, v: NodeId) -> bool {
        self.failed[ix(v)]
    }

    /// The currently failed vertices, in ascending id order.
    pub fn failed_vertices(&self) -> Vec<NodeId> {
        self.failed
            .iter()
            .enumerate()
            .filter_map(|(i, &f)| f.then_some(id32(i)))
            .collect()
    }

    /// Number of currently failed vertices.
    #[inline]
    pub fn failed_count(&self) -> usize {
        self.failed_count
    }

    /// Active flows with no serving middlebox, accounted at full
    /// rate — the degraded census the chaos harness integrates into
    /// degraded-seconds. (Includes flows that were never served
    /// because no deployed vertex lies on their path.)
    #[inline]
    pub fn degraded_count(&self) -> usize {
        self.state.unserved_count()
    }

    /// Repair telemetry.
    #[inline]
    pub fn stats(&self) -> &RepairStats {
        &self.stats
    }

    /// Current reconfiguration token level (`∞` under an unlimited
    /// budget; may be negative while an admitted move's post-hoc flow
    /// cost is being refilled — see [`crate::budget`]).
    #[inline]
    pub fn budget_tokens(&self) -> f64 {
        self.tokens
    }

    /// The maintained flow, class and assignment state.
    #[inline]
    pub fn state(&self) -> &DeltaState {
        &self.state
    }

    /// Middlebox budget `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Densified [`Instance`] of the current active-flow set, ids in
    /// arrival order: the static problem the drift oracle
    /// ([`OnlineEngine::solve_oracle`]) solves, as a standalone copy.
    ///
    /// # Errors
    /// Propagates [`Instance::new`] validation failures (cannot occur
    /// for flows the engine accepted).
    pub fn snapshot_instance(&self) -> Result<Instance, TdmdError> {
        Instance::new(
            self.graph.clone(),
            self.state.active_snapshot(),
            self.lambda,
            self.k,
        )
    }

    /// The drift oracle: budgeted GTP on the active flows, compiled
    /// straight from the live path classes ([`DeltaState::flow_index`])
    /// with the gains the engine stored at arrival: one walk of the
    /// arrival log numbers the classes by first arrival, and each class
    /// is handed over whole, so no path is hashed or copied per flow
    /// and nothing is sorted. Bitwise the deployment
    /// [`gtp_budgeted_with`](tdmd_core::algorithms::gtp::gtp_budgeted_with)
    /// returns on [`OnlineEngine::snapshot_instance`] under the model
    /// those gains came from, without building the instance.
    ///
    /// # Errors
    /// [`TdmdError::Infeasible`] when the budget cannot cover the
    /// active flows.
    pub fn solve_oracle(&self) -> Result<Deployment, TdmdError> {
        let index = self.state.flow_index(self.model.coverage_tiebreak());
        gtp_budgeted_index(&index, self.k)
    }

    /// Objective the active flows would cost under `dep` (each flow
    /// served by its best on-path vertex in `dep`), summed in arrival
    /// order like [`OnlineEngine::exact_objective`]. Evaluated
    /// read-only against the live state — no clone of the flow and
    /// class tables is materialized for the probe.
    pub fn evaluate_deployment(&self, dep: &Deployment) -> f64 {
        self.state.objective_under(dep)
    }

    /// Ingests one event — state mutation, queue dirtying, per-event
    /// counters — without running the repair policy, which
    /// [`OnlineEngine::apply_batch`] runs once per batch. Returns
    /// whether the event was a failure event.
    fn ingest(&mut self, event: &Event) -> Result<bool, OnlineError> {
        let mut failure = false;
        match event {
            Event::FlowArrived { key, rate, path } => {
                self.on_arrival(*key, *rate, path)?;
            }
            Event::FlowDeparted { key } => {
                self.on_departure(*key)?;
            }
            Event::MiddleboxFailed { vertex } => {
                self.on_failure(*vertex, true)?;
                failure = true;
            }
            Event::VertexDown { vertex } => {
                self.on_failure(*vertex, false)?;
                failure = true;
            }
            Event::MiddleboxRecovered { vertex } => {
                self.on_recovery(*vertex)?;
            }
        }
        self.stats.events += 1;
        // Amortized refill: each applied event earns migration tokens,
        // clamped at the bucket's burst capacity. Under an unlimited
        // budget the level is already `∞` and never moves.
        let budget = self.policy.budget;
        if self.tokens < budget.burst {
            self.tokens = (self.tokens + budget.refill_per_event).min(budget.burst);
        }
        Ok(failure)
    }

    /// A-priori migration cost of moving `boxes` middleboxes — the
    /// admission price of a repair move.
    #[inline]
    fn box_cost(&self, boxes: u64) -> f64 {
        self.policy.budget.box_move_cost * approx_f64(boxes)
    }

    /// Whether the token bucket admits a move of a-priori cost `cost`.
    #[inline]
    fn afford(&self, cost: f64) -> bool {
        cost <= self.tokens
    }

    /// Debits a completed move: `boxes` middleboxes deployed or
    /// undeployed and `flows` assignments changed. The flow share may
    /// overdraw the bucket (it is only known post-hoc); subsequent
    /// moves are blocked until the refill clears the debt.
    fn charge(&mut self, boxes: u64, flows: u64) {
        let budget = self.policy.budget;
        let cost = budget.box_move_cost * approx_f64(boxes)
            + budget.flow_reassign_cost * approx_f64(flows);
        if cost > 0.0 {
            self.tokens -= cost;
            self.stats.budget_spent += cost;
        }
        self.stats.boxes_moved += boxes;
        self.stats.flows_reassigned += flows;
    }

    /// Records a move the bucket could not admit.
    fn defer(&mut self) {
        self.stats.budget_deferrals += 1;
    }

    /// Applies one event and repairs: a batch of one
    /// ([`OnlineEngine::apply_batch`]).
    ///
    /// # Errors
    /// Rejects malformed events ([`OnlineError`]); the engine state
    /// is unchanged on error.
    pub fn apply(&mut self, event: &Event) -> Result<(), OnlineError> {
        self.apply_batch(std::slice::from_ref(event))
    }

    /// Applies `events` as one batch: every event is ingested back to
    /// back (the CELF lazy queue's dirty stamps union naturally —
    /// each touched vertex is re-settled at most once afterwards) and
    /// the repair policy runs **once** at the batch boundary instead
    /// of per event. This is the scale-tier hot path: repair cost is
    /// amortized over the batch, and a sampled policy's replan
    /// schedule is preserved by counting events, not calls — the pass
    /// is sampled iff the batch crossed a `sample_every` boundary, so
    /// a batch of one is sampled at every `sample_every`-th event.
    ///
    /// Under a forced-replan policy the final state is bitwise
    /// identical to applying the same events one by one (the repair
    /// ends in an oracle adoption that is a pure function of the
    /// active-flow set; property-tested over arbitrary partitions of
    /// mixed arrival/departure/failure streams).
    ///
    /// # Errors
    /// Stops at the first malformed event. The already-ingested
    /// prefix is repaired before returning, so the engine is left in
    /// the same state as applying that prefix — never with dangling
    /// unrepaired mutations.
    pub fn apply_batch(&mut self, events: &[Event]) -> Result<(), OnlineError> {
        self.state.clear_flips();
        let events_before = self.stats.events;
        let mut failure = false;
        let mut result = Ok(());
        for ev in events {
            match self.ingest(ev) {
                Ok(f) => failure |= f,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        if self.stats.events > events_before {
            let policy = self.policy;
            let sampled = policy.force_replan
                || (policy.sample_every > 0
                    && self.stats.events / policy.sample_every
                        != events_before / policy.sample_every);
            self.repair(failure, sampled);
        }
        if self.audit {
            tdmd_core::audit::enforce(self.audit_now());
        }
        result
    }

    /// Rejects an arrival whose key is active, whose rate is zero or
    /// whose path fails [`PathCheck`].
    fn validate_arrival(
        &mut self,
        key: FlowKey,
        rate: u64,
        path: &[NodeId],
    ) -> Result<(), OnlineError> {
        if self.state.is_active(key) {
            return Err(OnlineError::DuplicateKey { key });
        }
        if rate == 0 || !self.paths.is_valid(&self.graph, path) {
            return Err(OnlineError::InvalidFlow { key });
        }
        Ok(())
    }

    /// Prices a validated arrival as the flow `Flow::new(0, rate, path)`
    /// — gain by gain through [`CostModel::serving_gain`], which is how
    /// [`CostModel::gains`] is defined — into the reused probe and gain
    /// buffers, and inserts it. An arrival on a live class joins it
    /// without touching a row, and allocates nothing once the state's
    /// tables have grown.
    fn on_arrival(&mut self, key: FlowKey, rate: u64, path: &[NodeId]) -> Result<(), OnlineError> {
        self.validate_arrival(key, rate, path)?;
        self.probe.rate = rate;
        self.probe.path.clear();
        self.probe.path.extend_from_slice(path);
        let (model, probe) = (&self.model, &self.probe);
        self.gains.clear();
        self.gains
            .extend((0..path.len()).map(|pos| model.serving_gain(probe, pos)));
        let cost = model.unprocessed_cost(probe);
        let factor = 1.0 - self.lambda;
        // Gains can only *rise* at the new flow's own vertices; bump
        // each bound by the flow's maximum contribution there.
        for (&v, &g) in path.iter().zip(&self.gains) {
            if !self.deployment.contains(v) {
                self.queue.touch_up(v, approx_f64(rate) * factor * g);
            }
        }
        let f = PricedFlow {
            rate,
            path,
            gains: &self.gains,
            cost,
        };
        self.state.insert_priced(key, f, &self.deployment);
        self.stats.arrivals += 1;
        Ok(())
    }

    fn on_departure(&mut self, key: FlowKey) -> Result<(), OnlineError> {
        if !self.state.is_active(key) {
            return Err(OnlineError::UnknownKey { key });
        }
        // A departure only shrinks marginal gains: cached bounds stay
        // valid, just stale.
        for &v in self.state.remove(key) {
            self.queue.touch_down(v);
        }
        self.stats.departures += 1;
        Ok(())
    }

    /// Marks `v` failed: blocks it out of the candidate pool and, if a
    /// middlebox was deployed there, removes it and orphans the flows
    /// it served ([`DeltaState::fail_rehome`]). With `require_box`
    /// ([`Event::MiddleboxFailed`]) the vertex must host a middlebox.
    fn on_failure(&mut self, v: NodeId, require_box: bool) -> Result<(), OnlineError> {
        if ix(v) >= self.graph.node_count() {
            return Err(OnlineError::UnknownVertex { vertex: v });
        }
        if self.failed[ix(v)] {
            return Err(OnlineError::AlreadyFailed { vertex: v });
        }
        if require_box && !self.deployment.contains(v) {
            return Err(OnlineError::NoMiddleboxAt { vertex: v });
        }
        self.failed[ix(v)] = true;
        self.failed_count += 1;
        self.queue.block(v);
        self.stats.failures += 1;
        if self.deployment.remove(v) {
            let fo = self.state.fail_rehome(v, &self.deployment);
            self.stats.flows_orphaned += wide(fo.reassigned + fo.degraded);
            self.stats.flows_degraded += wide(fo.degraded);
            for &u in self.state.dirty() {
                if u != v && !self.deployment.contains(u) && !self.failed[ix(u)] {
                    // Orphans lost serving quality, so gains here may
                    // have *risen*; restore the exact bound.
                    let g = self.state.marginal_gain(u);
                    self.queue.reinsert(u, g);
                }
            }
        }
        Ok(())
    }

    /// Lifts `v`'s failure mark and re-enters it in the candidate pool
    /// with an exact bound. Redeployment is the repair policy's call.
    fn on_recovery(&mut self, v: NodeId) -> Result<(), OnlineError> {
        if ix(v) >= self.graph.node_count() {
            return Err(OnlineError::UnknownVertex { vertex: v });
        }
        if !self.failed[ix(v)] {
            return Err(OnlineError::NotFailed { vertex: v });
        }
        self.failed[ix(v)] = false;
        self.failed_count -= 1;
        self.queue.unblock(v);
        self.queue.reinsert(v, self.state.marginal_gain(v));
        self.stats.recoveries += 1;
        Ok(())
    }

    /// Post-batch repair per the policy (see [`crate::repair`]).
    /// `failure` flags a failure event in the batch, enabling the
    /// degradation-aware off-schedule drift check; `sampled` is the
    /// batch's crossed-boundary sampling decision.
    fn repair(&mut self, failure: bool, sampled: bool) {
        let policy = self.policy;
        let replanned = sampled && self.drift_check(policy.force_replan);
        if !replanned {
            self.local_repair(policy.move_budget);
            // Degradation-aware fallback: the freed slot has been
            // re-spent, but flows are still unserved — consult the
            // oracle off-schedule rather than waiting for the next
            // sample.
            if failure && policy.replan_on_degraded && !sampled && self.state.unserved_count() > 0 {
                self.drift_check(false);
            }
        }
    }

    /// Commits `v` into the deployment, re-homing improved flows and
    /// propagating queue invalidations.
    fn commit(&mut self, v: NodeId) {
        self.deployment.insert(v);
        for &u in self.state.commit(v) {
            self.queue.touch_down(u);
        }
    }

    /// Removes `v` from the deployment; displaced flows fall back to
    /// their second-best box, which can *raise* other vertices'
    /// gains — bounds are bumped accordingly and `v` re-enters the
    /// candidate pool.
    fn uncommit(&mut self, v: NodeId) {
        self.deployment.remove(v);
        self.state.fail_rehome(v, &self.deployment);
        for &u in self.state.dirty() {
            if u != v && !self.deployment.contains(u) {
                // Re-homed flows lost serving quality, so gains here
                // may have *risen*; restore the exact bound.
                let g = self.state.marginal_gain(u);
                self.queue.reinsert(u, g);
            }
        }
        self.queue.reinsert(v, self.state.marginal_gain(v));
    }

    fn local_repair(&mut self, move_budget: usize) {
        // 1. Free drops: a deployed vertex with zero primary load
        //    loses nothing on removal; reclaim its budget slot.
        let deployed: Vec<NodeId> = self.deployment.vertices().to_vec();
        for v in deployed {
            if !self.deployment.is_empty() && self.state.primary_load(v) <= GAIN_EPS {
                self.uncommit(v);
                self.stats.drops += 1;
            }
        }
        // 2. Greedy fill: add best candidates while budget remains
        //    and gains are positive.
        self.greedy_fill();
        // 3. Bounded swap repair: replace the lightest-loaded box
        //    with the queue's best candidate when that provably
        //    improves the objective (candidate gain exceeds the
        //    victim's primary load, an upper bound on its removal
        //    loss) by more than the hysteresis share of the swap's
        //    migration cost — and the token bucket admits the move.
        for _ in 0..move_budget {
            if self.deployment.len() < self.k {
                break; // spare budget: adds already handled it
            }
            let Some((cand, gain)) = self.settle() else {
                break;
            };
            let Some((victim, load)) = self
                .deployment
                .vertices()
                .iter()
                .map(|&u| (u, self.state.primary_load(u)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
            else {
                break;
            };
            let cost = self.box_cost(2); // undeploy victim + deploy cand
            if gain <= load + self.policy.budget.hysteresis * cost + GAIN_EPS {
                break; // no improvement worth a migration left
            }
            if !self.afford(cost) {
                self.defer();
                break;
            }
            let moved_before = self.state.reassignments();
            self.queue.take(cand);
            self.uncommit(victim);
            self.commit(cand);
            self.charge(2, self.state.reassignments() - moved_before);
            self.stats.swaps += 1;
        }
    }

    /// Greedily spends spare budget on the queue's best candidates
    /// while gains stay positive (step 2 of local repair; also re-run
    /// after a replan adopted an oracle stripped of failed vertices,
    /// to spend the stripped slots on surviving candidates).
    fn greedy_fill(&mut self) {
        while self.deployment.len() < self.k {
            let Some((v, gain)) = self.settle() else {
                break;
            };
            if gain <= GAIN_EPS {
                break;
            }
            if !self.afford(self.box_cost(1)) {
                self.defer();
                break;
            }
            let moved_before = self.state.reassignments();
            self.queue.take(v);
            self.commit(v);
            self.charge(1, self.state.reassignments() - moved_before);
            self.stats.adds += 1;
        }
    }

    /// Settles the lazy queue against the live marginal-gain
    /// evaluator.
    fn settle(&mut self) -> Option<(NodeId, f64)> {
        let state = &self.state;
        self.queue
            .settle(&self.deployment, |v| state.marginal_gain(v))
    }

    /// Forces an immediate full replan: the from-scratch oracle is
    /// solved and adopted unconditionally (failed vertices stripped
    /// while failures are active). Returns `false` only when the
    /// oracle itself fails (infeasible budget) or the reconfiguration
    /// token bucket cannot cover the adoption's deployment diff (a
    /// deferral; never happens under the default unlimited
    /// [`ReconfigBudget`](crate::ReconfigBudget)). With no active
    /// failures and an admitting budget the resulting deployment is
    /// bitwise the from-scratch GTP answer — the
    /// recovery-transparency property.
    pub fn replan_now(&mut self) -> bool {
        self.state.clear_flips();
        self.drift_check(true)
    }

    /// Samples the from-scratch oracle; adopts its deployment when
    /// forced or drifted beyond ε *and* the token bucket admits the
    /// migration (the symmetric difference between the current and
    /// oracle deployments, priced per box) — otherwise the adoption is
    /// deferred and the caller falls back to budget-capped local
    /// repair. While failures are active the oracle's deployment is
    /// stripped of failed vertices before evaluation, and stripped
    /// budget is re-spent by a greedy fill after adoption. Both halves
    /// walk the arrival log instead of sorting: the oracle is compiled
    /// from the live classes numbered in arrival order
    /// ([`DeltaState::flow_index`]), and its deployment is evaluated by
    /// finding each live class's best gain once and summing the flows
    /// in that order ([`DeltaState::objective_under`]). Returns whether
    /// a replan was adopted.
    fn drift_check(&mut self, force: bool) -> bool {
        self.stats.drift_samples += 1;
        let mut oracle = match self.solve_oracle() {
            Ok(dep) => dep,
            Err(_) => {
                self.stats.oracle_failures += 1;
                return false;
            }
        };
        let mut stripped = false;
        if self.failed_count > 0 {
            for v in oracle.vertices().to_vec() {
                if self.failed[ix(v)] {
                    oracle.remove(v);
                    stripped = true;
                }
            }
        }
        let oracle_obj = self.state.objective_under(&oracle);
        let current = self.state.objective();
        self.stats.last_drift = if oracle_obj > 0.0 {
            current / oracle_obj - 1.0
        } else {
            0.0
        };
        let drifted = current > oracle_obj * (1.0 + self.policy.drift_eps) + GAIN_EPS;
        if !(force || drifted) {
            return false;
        }
        // Bounded reconfiguration: adopting the oracle migrates the
        // symmetric difference of the two deployments. Gate on its
        // a-priori box cost; an unaffordable adoption is deferred and
        // the caller falls back to budget-capped local repair.
        let boxes = self.deployment_diff(&oracle);
        if !self.afford(self.box_cost(boxes)) {
            self.defer();
            return false;
        }
        let moved_before = self.state.reassignments();
        self.adopt(oracle);
        self.charge(boxes, self.state.reassignments() - moved_before);
        if stripped {
            // Spend the stripped slots on the best surviving
            // candidates (never engages without active failures, so
            // the bitwise oracle-tracking property is untouched).
            self.greedy_fill();
        }
        true
    }

    /// Size of the symmetric difference between the current deployment
    /// and `next` — the middleboxes an adoption would move.
    fn deployment_diff(&self, next: &Deployment) -> u64 {
        let leaving = self
            .deployment
            .vertices()
            .iter()
            .filter(|&&v| !next.contains(v))
            .count();
        let entering = next
            .vertices()
            .iter()
            .filter(|&&v| !self.deployment.contains(v))
            .count();
        wide(leaving + entering)
    }

    /// Adopts `new_dep` wholesale: rebuild assignments, then restore
    /// the queue invariant by re-entering every affected candidate
    /// with an exact bound (the replan already did strictly more
    /// work, so this does not change the asymptotics).
    fn adopt(&mut self, new_dep: Deployment) {
        let old = std::mem::replace(&mut self.deployment, new_dep);
        self.state.rebuild_assignments(&self.deployment);
        self.queue.invalidate_all();
        for v in 0..id32(self.graph.node_count()) {
            if !self.failed[ix(v)]
                && !self.deployment.contains(v)
                && (old.contains(v) || self.state.marginal_gain(v) > GAIN_EPS)
            {
                self.queue.reinsert(v, self.state.marginal_gain(v));
            }
        }
        self.stats.replans += 1;
    }

    /// Rebuilds the delta state and the CELF queue into their
    /// canonical forms: flows re-inserted in arrival order
    /// against the current deployment, queue entries with exact
    /// marginal-gain bounds for every live candidate. Deployment,
    /// failure mask and stats are untouched, assignments are the same
    /// deterministic argmaxes, and the rebuilt queue is at least as
    /// coherent as the auditor demands — so behavior is preserved
    /// while insertion-history-dependent float-summation order is
    /// normalized (see [`crate::snapshot`]).
    fn canonicalize(&mut self) {
        let n = self.graph.node_count();
        let old = std::mem::replace(&mut self.state, DeltaState::new(n, self.lambda));
        for f in old.flows_in_arrival_order() {
            self.state
                .insert_priced(f.key, old.priced(f), &self.deployment);
        }
        self.queue = self.seeded_queue();
    }

    /// A fresh CELF queue over the current state: failed vertices
    /// blocked, and every other undeployed vertex with a positive exact
    /// gain reinserted under it, in vertex order. Blocking touches no
    /// stamp, so [`OnlineEngine::canonicalize`] and
    /// [`OnlineEngine::restore`] get the same queue from the same state.
    fn seeded_queue(&self) -> LazyQueue {
        let n = self.graph.node_count();
        let mut queue = LazyQueue::new(n);
        for v in 0..id32(n) {
            if self.failed[ix(v)] {
                queue.block(v);
            } else if !self.deployment.contains(v) {
                let g = self.state.marginal_gain(v);
                if g > GAIN_EPS {
                    queue.reinsert(v, g);
                }
            }
        }
        queue
    }

    /// Captures a versioned snapshot of the replayable engine state,
    /// canonicalizing the live engine in place as it does (see
    /// [`crate::snapshot`] for the bitwise-restore contract: after
    /// this call, the engine and any [`OnlineEngine::restore`] of the
    /// returned snapshot are bitwise interchangeable under any future
    /// event stream).
    pub fn snapshot(&mut self) -> EngineSnapshot {
        self.canonicalize();
        let flows = self
            .state
            .flows_in_arrival_order()
            .map(|f| {
                let p = self.state.priced(f);
                SnapshotFlow {
                    key: f.key,
                    rate: f.rate,
                    path: p.path.to_vec(),
                    gains: p.gains.to_vec(),
                    cost: p.cost,
                }
            })
            .collect();
        EngineSnapshot {
            version: SNAPSHOT_VERSION,
            node_count: wide(self.graph.node_count()),
            lambda: self.lambda,
            k: wide(self.k),
            flows,
            deployment: self.deployment.vertices().to_vec(),
            failed: self.failed_vertices(),
            stats: self.stats,
            // `∞` (unlimited budget) does not survive JSON; restore
            // re-derives it from the caller-supplied policy.
            budget_tokens: if self.tokens.is_finite() {
                self.tokens
            } else {
                0.0
            },
        }
    }

    /// Rebuilds an engine from a snapshot. The topology, model and
    /// policy are supplied by the caller exactly as at
    /// construction — only the replayable state (flows, deployment,
    /// failure mask, stats) comes from the snapshot. The restored
    /// engine is bitwise interchangeable with the engine that took
    /// the snapshot (see [`crate::snapshot`]).
    ///
    /// # Errors
    /// Rejects version/topology mismatches and structurally invalid
    /// documents ([`SnapshotError`]), including stored gains that break
    /// the [`CostModel`] contract or a total `Σ rate·cost` that is not
    /// finite ([`SnapshotError::InvalidFlow`]).
    pub fn restore(
        graph: DiGraph,
        model: M,
        policy: RepairPolicy,
        snap: &EngineSnapshot,
    ) -> Result<Self, SnapshotError> {
        if snap.version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: snap.version,
            });
        }
        let n = graph.node_count();
        if snap.node_count != wide(n) {
            return Err(SnapshotError::TopologyMismatch {
                expected: snap.node_count,
                found: wide(n),
            });
        }
        if !(0.0..=1.0).contains(&snap.lambda) || snap.lambda.is_nan() {
            return Err(SnapshotError::BadLambda(snap.lambda));
        }
        let k = big_ix(snap.k);
        for &v in snap.deployment.iter().chain(&snap.failed) {
            if ix(v) >= n {
                return Err(SnapshotError::BadVertex { vertex: v });
            }
        }
        if let Some(&v) = snap.deployment.iter().find(|v| snap.failed.contains(v)) {
            return Err(SnapshotError::DeployedWhileFailed { vertex: v });
        }
        if snap.deployment.len() > k {
            return Err(SnapshotError::OverBudget {
                deployed: wide(snap.deployment.len()),
                k: snap.k,
            });
        }
        if !snap.budget_tokens.is_finite() {
            return Err(SnapshotError::BadBudgetState(snap.budget_tokens));
        }
        if !snap.stats.budget_spent.is_finite() {
            return Err(SnapshotError::BadBudgetState(snap.stats.budget_spent));
        }
        let mut engine = Self::new(graph, snap.lambda, k, model, policy)
            .map_err(|_| SnapshotError::BadLambda(snap.lambda))?;
        engine.deployment = Deployment::from_vertices(n, snap.deployment.iter().copied());
        for &v in &snap.failed {
            engine.failed[ix(v)] = true;
            engine.failed_count += 1;
        }
        // Σ rate·cost in arrival order: every running sum the engine
        // keeps is bounded by it, so it must stay finite.
        let mut load = 0.0f64;
        for f in &snap.flows {
            engine
                .validate_arrival(f.key, f.rate, &f.path)
                .map_err(|e| match e {
                    OnlineError::DuplicateKey { key } => SnapshotError::DuplicateKey { key },
                    _ => SnapshotError::InvalidFlow { key: f.key },
                })?;
            load += approx_f64(f.rate) * f.cost;
            if f.gains.len() != f.path.len()
                || !obeys_contract(&f.gains, f.cost)
                || !load.is_finite()
            {
                return Err(SnapshotError::InvalidFlow { key: f.key });
            }
            let priced = PricedFlow {
                rate: f.rate,
                path: &f.path,
                gains: &f.gains,
                cost: f.cost,
            };
            engine
                .state
                .insert_priced(f.key, priced, &engine.deployment);
        }
        engine.queue = engine.seeded_queue();
        engine.stats = snap.stats;
        // An unlimited policy keeps the `∞` level it was constructed
        // with; a finite budget resumes the serialized level exactly
        // (bitwise restore covers the token bucket too).
        if !policy.budget.is_unlimited() {
            engine.tokens = snap.budget_tokens;
        }
        Ok(engine)
    }
}

/// Whether stored gains obey the [`CostModel`] contract that Theorem 2
/// needs: every gain lies in `[0, cost]` for a finite `cost`, and no
/// gain rises along the path.
fn obeys_contract(gains: &[f64], cost: f64) -> bool {
    cost.is_finite()
        && gains.iter().all(|g| (0.0..=cost).contains(g))
        && gains.windows(2).all(|w| w[1] <= w[0])
}

/// Structural auditor (tdmd-audit): the engine-level invariant stack.
impl<M: CostModel> OnlineEngine<M> {
    /// Turns on per-event auditing: every [`OnlineEngine::apply`]
    /// re-validates the full invariant stack and panics with the
    /// diagnostic on the first violation (`tdmd stream run --audit`).
    pub fn enable_audit(&mut self) {
        self.audit = true;
    }

    /// Validates every engine invariant now: deployment bounds and
    /// budget, deployment ∩ failed = ∅, failure census, queue/failure
    /// block sync, every [`DeltaState`] invariant against a
    /// from-scratch rebuild, and [`LazyQueue`] epoch coherence
    /// against exact marginal gains.
    ///
    /// # Errors
    /// Returns the first violated check: an `engine-*` check, then
    /// those of [`DeltaState::check_invariants`] and
    /// [`LazyQueue::check_coherence`].
    pub fn audit_now(&self) -> Result<(), tdmd_core::audit::AuditError> {
        use tdmd_core::audit::AuditError;
        let err = |check: &'static str, detail: String| Err(AuditError { check, detail });
        let n = self.graph.node_count();
        for &v in self.deployment.vertices() {
            if ix(v) >= n {
                return err(
                    "engine-deployment-bounds",
                    format!("deployed vertex {v} out of bounds (n = {n})"),
                );
            }
            if self.failed[ix(v)] {
                return err(
                    "engine-deployed-failed",
                    format!("vertex {v} is deployed while failed"),
                );
            }
        }
        if self.deployment.len() > self.k {
            return err(
                "engine-over-budget",
                format!(
                    "{} middleboxes deployed, budget k = {}",
                    self.deployment.len(),
                    self.k
                ),
            );
        }
        let failed = self.failed.iter().filter(|&&f| f).count();
        if failed != self.failed_count {
            return err(
                "engine-failed-census",
                format!(
                    "{failed} failed vertices, census says {}",
                    self.failed_count
                ),
            );
        }
        for v in 0..id32(n) {
            if self.queue.is_blocked(v) != self.failed[ix(v)] {
                return err(
                    "engine-blocked-sync",
                    format!("vertex {v}: queue block does not mirror the failure mask"),
                );
            }
        }
        if self.tokens.is_nan() || self.tokens > self.policy.budget.burst {
            return err(
                "engine-budget-tokens",
                format!(
                    "token level {} outside (-∞, burst = {}]",
                    self.tokens, self.policy.budget.burst
                ),
            );
        }
        if !self.stats.budget_spent.is_finite() || self.stats.budget_spent < 0.0 {
            return err(
                "engine-budget-spend",
                format!(
                    "amortized spend {} is not finite non-negative",
                    self.stats.budget_spent
                ),
            );
        }
        self.state.check_invariants(&self.deployment)?;
        self.queue
            .check_coherence(&self.deployment, |v| self.state.marginal_gain(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{events_from_spans, FlowSpan};
    use tdmd_core::algorithms::gtp::gtp_budgeted;
    use tdmd_core::objective::bandwidth_of;
    use tdmd_core::paper::fig1_instance;
    use tdmd_core::HopCount;

    fn fig1_graph() -> tdmd_graph::DiGraph {
        fig1_instance(2).graph().clone()
    }

    fn engine(k: usize, policy: RepairPolicy) -> OnlineEngine<HopCount> {
        OnlineEngine::new(fig1_graph(), 0.5, k, HopCount, policy).unwrap()
    }

    fn arrive(key: FlowKey, rate: u64, path: Vec<NodeId>) -> Event {
        Event::FlowArrived { key, rate, path }
    }

    /// Fig. 1's four flows as arrivals (0-based vertex ids).
    fn fig1_arrivals() -> Vec<Event> {
        vec![
            arrive(1, 4, vec![4, 2, 0]),
            arrive(2, 2, vec![5, 2, 1]),
            arrive(3, 2, vec![3, 1]),
            arrive(4, 2, vec![5, 1]),
        ]
    }

    #[test]
    fn greedy_fill_matches_static_gtp_on_fig1() {
        let mut e = engine(3, RepairPolicy::local_only(0));
        for ev in fig1_arrivals() {
            e.apply(&ev).unwrap();
        }
        // Static GTP with k = 3 picks {3, 4, 5} for bandwidth 8.
        assert_eq!(e.deployment().vertices(), &[3, 4, 5]);
        assert_eq!(e.objective(), 8.0);
        let inst = e.snapshot_instance().unwrap();
        assert_eq!(bandwidth_of(&inst, e.deployment()), 8.0);
    }

    /// Every public mutating call starts a fresh flip log.
    #[test]
    fn the_flip_log_holds_the_last_call_only() {
        let mut e = engine(3, RepairPolicy::local_only(0));
        let arrivals = fig1_arrivals();
        for ev in &arrivals[..3] {
            e.apply(ev).unwrap();
        }
        assert_eq!(
            e.state().flips(),
            [(3, true)],
            "flow 3 is served by a new box"
        );
        e.apply(&arrivals[3]).unwrap();
        assert_eq!(e.deployment().vertices(), &[3, 4, 5]);
        assert!(
            e.state().flips().is_empty(),
            "an arrival that moved nothing"
        );
        e.apply(&Event::VertexDown { vertex: 5 }).unwrap();
        assert!(
            e.state().flips().contains(&(4, false)),
            "flow 4 lost its box"
        );
        e.apply_batch(&[]).unwrap();
        assert!(e.state().flips().is_empty());
    }

    #[test]
    fn departures_shrink_the_objective_to_zero() {
        let mut e = engine(2, RepairPolicy::local_only(2));
        for ev in fig1_arrivals() {
            e.apply(&ev).unwrap();
        }
        for key in [1, 2, 3, 4] {
            e.apply(&Event::FlowDeparted { key }).unwrap();
        }
        assert_eq!(e.active_count(), 0);
        assert_eq!(e.objective(), 0.0);
        assert_eq!(e.exact_objective(), 0.0);
    }

    #[test]
    fn forced_replan_tracks_the_oracle_exactly() {
        let mut e = engine(2, RepairPolicy::forced_replan());
        for ev in fig1_arrivals() {
            e.apply(&ev).unwrap();
        }
        // Per-event GTP with k = 2 ends at {1, 4} (the paper's
        // feasibility-guard walk-through), bandwidth 12.
        assert_eq!(e.deployment().vertices(), &[1, 4]);
        let inst = e.snapshot_instance().unwrap();
        let oracle = gtp_budgeted(&inst, inst.k()).unwrap();
        assert_eq!(e.deployment(), &oracle);
        assert_eq!(e.exact_objective(), bandwidth_of(&inst, &oracle));
        assert_eq!(e.stats().replans, 4);
    }

    #[test]
    fn swap_repair_recovers_after_departures() {
        // Arrive fig1, then remove the two flows served at v5; the
        // engine should eventually rehome budget toward the rest.
        let mut e = engine(2, RepairPolicy::local_only(4));
        for ev in fig1_arrivals() {
            e.apply(&ev).unwrap();
        }
        let before = e.objective();
        e.apply(&Event::FlowDeparted { key: 1 }).unwrap();
        e.apply(&Event::FlowDeparted { key: 2 }).unwrap();
        assert!(e.objective() < before);
        // Whatever the deployment now is, the objective must match
        // its exact evaluation (invariants held through swaps).
        assert!((e.objective() - e.exact_objective()).abs() < 1e-9);
    }

    #[test]
    fn malformed_events_are_rejected_without_state_damage() {
        let mut e = engine(2, RepairPolicy::local_only(0));
        e.apply(&arrive(1, 4, vec![4, 2, 0])).unwrap();
        let obj = e.objective();
        assert_eq!(
            e.apply(&arrive(1, 1, vec![3, 1])),
            Err(OnlineError::DuplicateKey { key: 1 })
        );
        assert_eq!(
            e.apply(&arrive(9, 0, vec![3, 1])),
            Err(OnlineError::InvalidFlow { key: 9 })
        );
        assert_eq!(
            e.apply(&arrive(9, 1, vec![3, 3])),
            Err(OnlineError::InvalidFlow { key: 9 })
        );
        assert_eq!(
            e.apply(&arrive(9, 1, vec![0, 5])),
            Err(OnlineError::InvalidFlow { key: 9 }),
            "no edge 0→5 in fig1"
        );
        assert_eq!(
            e.apply(&arrive(9, 1, vec![0, 99])),
            Err(OnlineError::InvalidFlow { key: 9 })
        );
        assert_eq!(
            e.apply(&Event::FlowDeparted { key: 42 }),
            Err(OnlineError::UnknownKey { key: 42 })
        );
        assert_eq!(e.objective(), obj);
        assert_eq!(e.active_count(), 1);
    }

    #[test]
    fn span_stream_replays_end_to_end() {
        let spans = vec![
            FlowSpan {
                start_us: 0,
                end_us: 100,
                flow: Flow::new(0, 4, vec![4, 2, 0]),
            },
            FlowSpan {
                start_us: 10,
                end_us: 50,
                flow: Flow::new(1, 2, vec![5, 2, 1]),
            },
        ];
        let mut e = engine(2, RepairPolicy::default());
        for ev in events_from_spans(&spans) {
            e.apply(&ev.event).unwrap();
        }
        assert_eq!(e.active_count(), 0);
        assert_eq!(e.stats().events, 4);
        assert_eq!(e.objective(), 0.0);
    }

    #[test]
    fn failure_orphans_and_repair_respends_the_slot() {
        let mut e = engine(2, RepairPolicy::local_only(0));
        for ev in fig1_arrivals() {
            e.apply(&ev).unwrap();
        }
        let dep_before = e.deployment().vertices().to_vec();
        assert_eq!(dep_before.len(), 2);
        let victim = dep_before[0];
        e.apply(&Event::MiddleboxFailed { vertex: victim }).unwrap();
        assert!(e.is_failed(victim));
        assert!(!e.deployment().contains(victim), "deployment ∩ failed = ∅");
        // The freed slot was re-spent on a surviving candidate.
        assert_eq!(e.deployment().len(), 2);
        assert_eq!(e.stats().failures, 1);
        assert!(e.stats().flows_orphaned >= 1);
        // No flow is assigned to the failed vertex.
        assert!(e
            .state()
            .active_flows()
            .all(|f| e.state().assigned(f).is_none_or(|(v, _)| v != victim)));
        assert!((e.objective() - e.exact_objective()).abs() < 1e-9);
    }

    #[test]
    fn vertex_down_blocks_an_undeployed_candidate() {
        let mut e = engine(2, RepairPolicy::local_only(0));
        e.apply(&Event::VertexDown { vertex: 4 }).unwrap();
        for ev in fig1_arrivals() {
            e.apply(&ev).unwrap();
        }
        assert!(!e.deployment().contains(4), "failed vertex never deployed");
        e.apply(&Event::MiddleboxRecovered { vertex: 4 }).unwrap();
        assert_eq!(e.failed_count(), 0);
        // After recovery the vertex is back in the race.
        e.apply(&Event::FlowDeparted { key: 3 }).unwrap();
        assert!((e.objective() - e.exact_objective()).abs() < 1e-9);
    }

    /// The gains a snapshot carries, as a static cost model over the
    /// densified snapshot (flow id = arrival rank).
    struct StoredGains(Vec<(Vec<f64>, f64)>);

    impl CostModel for StoredGains {
        fn serving_gain(&self, flow: &Flow, pos: usize) -> f64 {
            self.0[ix(flow.id)].0[pos]
        }
        fn unprocessed_cost(&self, flow: &Flow) -> f64 {
            self.0[ix(flow.id)].1
        }
    }

    #[test]
    fn restored_gains_drive_the_oracle() {
        use tdmd_core::algorithms::gtp::gtp_budgeted_with;
        let mut e = engine(2, RepairPolicy::local_only(0));
        for ev in fig1_arrivals() {
            e.apply(&ev).unwrap();
        }
        // Price flow 2 (path v6 → v3 → v2) fifty times higher than
        // hop counts would: still monotone along the path.
        let mut snap = e.snapshot();
        let f = snap.flows.iter_mut().find(|f| f.key == 2).unwrap();
        f.gains = f.gains.iter().map(|g| 50.0 * g).collect();
        f.cost *= 50.0;
        let stored = StoredGains(
            snap.flows
                .iter()
                .map(|f| (f.gains.clone(), f.cost))
                .collect(),
        );
        let r = OnlineEngine::restore(fig1_graph(), HopCount, RepairPolicy::local_only(0), &snap)
            .unwrap();
        let inst = r.snapshot_instance().unwrap();
        let oracle = r.solve_oracle().unwrap();
        assert_eq!(oracle, gtp_budgeted_with(&inst, 2, &stored).unwrap());
        // Re-priced by hop counts the oracle would pick {v2, v5}; the
        // stored gains make v3 worth a box.
        assert_eq!(gtp_budgeted(&inst, 2).unwrap().vertices(), &[1, 4]);
        assert_eq!(oracle.vertices(), &[1, 2]);
    }

    /// A drift sample walks the arrival log for both the oracle's
    /// compile and the evaluation of its deployment: `last_drift` is
    /// bit for bit the ratio the public `objective_under` gives for the
    /// same deployment, failed vertices stripped, after churn has left
    /// the slot order unlike the arrival order.
    #[test]
    fn drift_samples_price_the_oracle_like_objective_under() {
        use rand::{rngs::StdRng, SeedableRng};
        use tdmd_graph::generators::random::erdos_renyi_connected;
        use tdmd_traffic::GatewayWorkload;
        let mut rng = StdRng::seed_from_u64(7);
        let g = erdos_renyi_connected(24, 0.2, &mut rng);
        let gateways = GatewayWorkload::pick_gateways(24, 3, &mut rng);
        let flows = GatewayWorkload::new(&g, gateways, 8).flows(&g, 0, 400, &mut rng);
        // λ = 0.3 makes the terms inexact, so the sum's bits depend on
        // its order.
        let mut e = OnlineEngine::new(g, 0.3, 6, HopCount, RepairPolicy::local_only(0)).unwrap();
        for f in &flows[..300] {
            e.apply(&arrive(f.id.into(), f.rate, f.path.clone()))
                .unwrap();
        }
        for key in (0..300).step_by(3) {
            e.apply(&Event::FlowDeparted { key }).unwrap();
        }
        for f in &flows[300..] {
            e.apply(&arrive(f.id.into(), f.rate, f.path.clone()))
                .unwrap();
        }
        let mut drifts = Vec::new();
        for failure in [false, true] {
            if failure {
                let victim = e.deployment().vertices()[0];
                e.apply(&Event::MiddleboxFailed { vertex: victim }).unwrap();
            }
            let mut oracle = e.solve_oracle().unwrap();
            for v in oracle.vertices().to_vec() {
                if e.is_failed(v) {
                    oracle.remove(v);
                }
            }
            assert_eq!(oracle.len() < e.k(), failure, "stripped only under failure");
            let oracle_obj = e.state().objective_under(&oracle);
            let want = e.objective() / oracle_obj - 1.0;
            assert!(e.replan_now());
            assert_eq!(
                e.stats().last_drift.to_bits(),
                want.to_bits(),
                "failure {failure}"
            );
            drifts.push(want);
        }
        assert!(
            drifts.iter().all(|&d| d != 0.0),
            "vacuous: drifts {drifts:?}"
        );
    }

    #[test]
    fn recovery_restores_bitwise_oracle_equivalence() {
        let mut e = engine(2, RepairPolicy::default());
        for ev in fig1_arrivals() {
            e.apply(&ev).unwrap();
        }
        let victim = e.deployment().vertices()[0];
        e.apply(&Event::MiddleboxFailed { vertex: victim }).unwrap();
        e.apply(&Event::MiddleboxRecovered { vertex: victim })
            .unwrap();
        assert!(e.replan_now());
        let inst = e.snapshot_instance().unwrap();
        let oracle = gtp_budgeted(&inst, inst.k()).unwrap();
        assert_eq!(e.deployment(), &oracle, "no failure residue");
        assert_eq!(e.exact_objective(), bandwidth_of(&inst, &oracle));
    }

    #[test]
    fn degraded_flows_ride_at_full_rate() {
        // One flow, one deployable vertex on its path deployed, then
        // failed: the flow must fall back to full-rate accounting.
        let mut e = engine(1, RepairPolicy::local_only(0));
        e.apply(&arrive(1, 4, vec![4, 2, 0])).unwrap();
        assert_eq!(e.degraded_count(), 0);
        let v = e.deployment().vertices()[0];
        // Block every other vertex so the slot cannot be re-spent.
        for u in 0..6 {
            if u != v && !e.is_failed(u) {
                e.apply(&Event::VertexDown { vertex: u }).unwrap();
            }
        }
        e.apply(&Event::MiddleboxFailed { vertex: v }).unwrap();
        assert_eq!(e.degraded_count(), 1);
        assert_eq!(e.stats().flows_degraded, 1);
        // Full rate: 4 · 2 hops, no savings.
        assert_eq!(e.objective(), 8.0);
        assert_eq!(e.exact_objective(), 8.0);
    }

    #[test]
    fn replan_on_degraded_recovers_coverage_off_schedule() {
        // sample_every = 0: scheduled sampling never fires, so only
        // the degradation-aware fallback can consult the oracle.
        let policy = RepairPolicy {
            move_budget: 0,
            drift_eps: 0.0,
            sample_every: 0,
            force_replan: false,
            replan_on_degraded: true,
            ..RepairPolicy::default()
        };
        let mut e = engine(2, policy);
        for ev in fig1_arrivals() {
            e.apply(&ev).unwrap();
        }
        let victim = e.deployment().vertices()[0];
        e.apply(&Event::MiddleboxFailed { vertex: victim }).unwrap();
        // Either local repair re-covered everything or the fallback
        // replan did; either way nothing rides degraded here.
        assert!((e.objective() - e.exact_objective()).abs() < 1e-9);
        assert!(!e.deployment().contains(victim));
    }

    #[test]
    fn malformed_failure_events_are_rejected() {
        let mut e = engine(2, RepairPolicy::local_only(0));
        e.apply(&arrive(1, 4, vec![4, 2, 0])).unwrap();
        assert_eq!(
            e.apply(&Event::MiddleboxFailed { vertex: 99 }),
            Err(OnlineError::UnknownVertex { vertex: 99 })
        );
        assert_eq!(
            e.apply(&Event::MiddleboxRecovered { vertex: 0 }),
            Err(OnlineError::NotFailed { vertex: 0 })
        );
        // v0 hosts no middlebox (only v2/v4 can serve flow 1's path
        // profitably with k = 2).
        let undeployed = (0..6)
            .find(|&v| !e.deployment().contains(v))
            .expect("some vertex is undeployed");
        assert_eq!(
            e.apply(&Event::MiddleboxFailed { vertex: undeployed }),
            Err(OnlineError::NoMiddleboxAt { vertex: undeployed })
        );
        e.apply(&Event::VertexDown { vertex: undeployed }).unwrap();
        assert_eq!(
            e.apply(&Event::VertexDown { vertex: undeployed }),
            Err(OnlineError::AlreadyFailed { vertex: undeployed })
        );
    }

    #[test]
    fn bad_lambda_is_rejected() {
        assert_eq!(
            OnlineEngine::new(fig1_graph(), 1.5, 2, HopCount, RepairPolicy::default()).err(),
            Some(OnlineError::BadLambda(1.5))
        );
    }
}
