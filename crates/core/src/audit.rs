//! Structural invariant auditor — the runtime half of tdmd-audit.
//!
//! The static lint pass (`cargo xtask lint`) keeps *code* honest; this
//! module keeps *data* honest. Each `check_*` function validates one
//! layer of the solver's structural invariants and returns a
//! [`AuditError`] naming the violated check with a `file:line`-style
//! diagnostic detail, so corruption tests can assert on the exact
//! failure mode:
//!
//! * [`check_instance`] — the [`Instance`]'s input is well-formed: `λ`
//!   in range, dense flow ids, positive rates, and paths that are
//!   simple and edge-connected on the topology.
//! * [`check_solution`] — a deployment respects the budget `k`
//!   (Eq. 3's constraint), every assignment is an on-path deployed
//!   vertex with the maximal `l_v(f)` (the forced optimal allocation
//!   of §3.1), and the decrement `d(P)` is non-negative (Lemma 1's
//!   lower bound).
//! * [`check_index`] and [`check_index_solution`] — the same two
//!   layers for a compiled [`FlowIndex`], the greedy kernel's whole
//!   input: rows, path classes, rate sums and weights consistent with
//!   each other, and a result within budget that serves every flow.
//! * [`check_class_pricing`] — a [`FlowIndex::build`] priced each path
//!   class through its first member; every other member must price the
//!   same under the model ([`CostModel`]'s path-only contract).
//! * [`check_greedy_trace`] — the greedy's per-round marginal gains
//!   are non-negative and monotone non-increasing across unguarded
//!   rounds: a live submodularity witness for Thm. 2. Guard rounds
//!   (the tight-budget feasibility rule) restrict the candidate set
//!   and are exempt from the monotone comparison.
//!
//! The module always compiles. The solver seams (`check_class_pricing`
//! in [`FlowIndex::build`], and `check_index`, the greedy trace and
//! `check_index_solution` around the greedy kernel) run
//! while the process-wide switch is on
//! ([`enabled`]): always under `debug_assertions` and in this crate's
//! unit tests, and in release builds once [`enable`] has run, as
//! `tdmd place --audit true`, `tdmd stream run --audit true` and
//! `tdmd race` do. A seam calls [`enforce`], which panics with the
//! diagnostic; with the switch off it costs one relaxed load.
//! `check_instance` is no seam: an [`Instance`] is validated when it
//! is built, and a caller that audits one (`tdmd place --audit true`)
//! checks it once, where a violation can become a typed error.
//!
//! [`FlowIndex::compile_classified`] has no seam of its own: it takes
//! whole classes, one priced path each, so no member passes through it
//! to be checked against its class (`index-class-pricing` runs only on
//! `build`). That each class holds one path and one pricing is pinned
//! where the classes live, by the online engine's `delta-class-key` and
//! `delta-class-census` checks; that the counts it is handed agree
//! with `class_of` is `check_index`'s `index-class-sizes` and
//! `index-class-first`, at the kernel seam.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::cost::{CostModel, FlowIndex};
use crate::instance::Instance;
use crate::plan::{Allocation, Deployment};

/// A violated structural invariant.
///
/// `check` is a stable machine-matchable name (corruption tests match
/// on it); `detail` is the human diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditError {
    /// Stable name of the violated check, e.g. `"path-simple"`.
    pub check: &'static str,
    /// Human-readable description of the violation site.
    pub detail: String,
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.check, self.detail)
    }
}

impl std::error::Error for AuditError {}

/// The seam switch: see [`enabled`].
static SEAMS: AtomicBool = AtomicBool::new(cfg!(any(debug_assertions, test)));

/// Whether the solver seams run: always under `debug_assertions` and
/// in this crate's unit tests, otherwise once [`enable`] has run.
///
/// The greedy kernel sits under every solver entry point, so like
/// [`crate::obs::ENGINE`] the switch is one always-compiled global.
/// The load is relaxed because the switch publishes no other data.
#[inline]
pub fn enabled() -> bool {
    SEAMS.load(Ordering::Relaxed)
}

/// Turns the solver seams on for every later solve in the process,
/// on every thread. Nothing turns them off again.
pub fn enable() {
    SEAMS.store(true, Ordering::Relaxed);
}

/// Shorthand for building an `Err(AuditError)`.
macro_rules! fail {
    ($check:expr, $($arg:tt)*) => {
        return Err(AuditError {
            check: $check,
            detail: format!($($arg)*),
        })
    };
}

/// Panics with the audit diagnostic on a failed check. Solver seams
/// route through this so a corrupted structure aborts loudly instead
/// of producing a silently wrong placement.
///
/// # Panics
/// Panics iff `result` is an `Err`.
pub fn enforce(result: Result<(), AuditError>) {
    if let Err(e) = result {
        panic!("tdmd audit failure: {e}");
    }
}

/// Validates the instance: `λ` in range, dense ids, positive rates
/// and simple connected flow paths.
///
/// # Errors
/// Returns the first violated check among `lambda-range`,
/// `flow-id-dense`, `flow-rate-positive`, `path-vertex-bounds`,
/// `path-simple` and `path-connected`.
pub fn check_instance(instance: &Instance) -> Result<(), AuditError> {
    let graph = instance.graph();
    let n = graph.node_count();
    let flows = instance.flows();
    let lambda = instance.lambda();
    if !(0.0..=1.0).contains(&lambda) || lambda.is_nan() {
        fail!("lambda-range", "λ = {lambda} outside [0, 1]");
    }
    // Flow paths: dense ids, positive rates, simple, edge-connected.
    let mut seen_round = vec![usize::MAX; n];
    for (idx, f) in flows.iter().enumerate() {
        if f.id as usize != idx {
            fail!("flow-id-dense", "flow at index {idx} carries id {}", f.id);
        }
        if f.rate == 0 {
            fail!("flow-rate-positive", "flow {idx} has zero rate");
        }
        if f.path.is_empty() {
            fail!("path-vertex-bounds", "flow {idx} has an empty path");
        }
        for (pos, &v) in f.path.iter().enumerate() {
            if (v as usize) >= n {
                fail!(
                    "path-vertex-bounds",
                    "flow {idx} path[{pos}] = {v} out of bounds (n = {n})"
                );
            }
            if seen_round[v as usize] == idx {
                fail!("path-simple", "flow {idx} visits vertex {v} twice");
            }
            seen_round[v as usize] = idx;
        }
        for w in f.path.windows(2) {
            if !graph.has_edge(w[0], w[1]) {
                fail!(
                    "path-connected",
                    "flow {idx} uses missing edge {} -> {}",
                    w[0],
                    w[1]
                );
            }
        }
    }
    Ok(())
}

/// Validates a deployment (and optionally an allocation) against the
/// instance: budget, vertex bounds, on-path assignments matching the
/// forced optimal allocation, and a non-negative decrement.
///
/// `budget` is the round limit the solver ran under — `instance.k()`
/// for the standard solvers, the derived budget for derive-`k` runs.
///
/// # Errors
/// Returns the first violated check among `deployment-bounds`,
/// `deployment-over-budget`, `assignment-shape`,
/// `assignment-undeployed`, `assignment-offpath`,
/// `assignment-suboptimal`, `assignment-unserved` and
/// `decrement-negative`.
pub fn check_solution(
    instance: &Instance,
    deployment: &Deployment,
    budget: usize,
    alloc: Option<&Allocation>,
) -> Result<(), AuditError> {
    let n = instance.node_count();
    for &v in deployment.vertices() {
        if (v as usize) >= n {
            fail!("deployment-bounds", "deployed vertex {v} out of bounds");
        }
        if !deployment.contains(v) {
            fail!(
                "deployment-bounds",
                "vertex list and membership bitmap disagree on {v}"
            );
        }
    }
    if deployment.len() > budget {
        fail!(
            "deployment-over-budget",
            "{} middleboxes deployed, budget k = {budget}",
            deployment.len()
        );
    }
    if let Some(alloc) = alloc {
        if alloc.assigned.len() != instance.flows().len() {
            fail!(
                "assignment-shape",
                "{} assignment slots for {} flows",
                alloc.assigned.len(),
                instance.flows().len()
            );
        }
        let best = crate::objective::best_hops(instance, deployment);
        for (idx, (f, a)) in instance.flows().iter().zip(&alloc.assigned).enumerate() {
            match *a {
                Some(v) => {
                    if !deployment.contains(v) {
                        fail!(
                            "assignment-undeployed",
                            "flow {idx} assigned to undeployed vertex {v}"
                        );
                    }
                    let Some(l) = f.downstream_hops(v) else {
                        fail!(
                            "assignment-offpath",
                            "flow {idx} assigned to off-path vertex {v}"
                        );
                    };
                    // §3.1: the optimal allocation is forced — the
                    // deployed on-path vertex maximizing l_v(f).
                    if Some(l as u32) != best[idx] {
                        fail!(
                            "assignment-suboptimal",
                            "flow {idx} served at l = {l}, best deployed l = {:?}",
                            best[idx]
                        );
                    }
                }
                None => {
                    if best[idx].is_some() {
                        fail!(
                            "assignment-unserved",
                            "flow {idx} unserved but a deployed vertex sits on its path"
                        );
                    }
                }
            }
        }
    }
    let d = crate::objective::decrement(instance, deployment);
    if d < -DECREMENT_EPS {
        fail!("decrement-negative", "d(P) = {d} < 0 violates Lemma 1");
    }
    Ok(())
}

/// Validates a compiled [`FlowIndex`] on its own: offsets are monotone
/// prefix-sum fences over the rows and the class arena, and every
/// per-class array has one slot per class. The path classes must
/// partition the flows: every flow names a class, each class's size is
/// the number of flows naming it (so the sizes sum to the flow count)
/// and its first member is the lowest of them, and its rate sum is at
/// least its size (rates are positive) with a weight between 0 and that
/// sum. Every row is strictly ascending by class and names classes
/// whose path crosses the vertex, each class has exactly one row entry
/// per path position, and no two classes share both a path and a
/// pricing (the bits of their gains and cost). An index compiled from
/// live state ([`FlowIndex::compile`],
/// [`FlowIndex::compile_classified`]) has no instance to check
/// against, so this is its structural audit.
///
/// # Errors
/// Returns the first violated check among `index-shape`,
/// `index-class-fence`, `index-offsets-monotone`, `index-path-bounds`,
/// `index-class-bounds`, `index-class-sizes`, `index-class-first`,
/// `index-class-rates`, `index-row-sorted`, `index-entry-bounds`,
/// `index-entry-offpath`, `index-bijective` and
/// `index-class-distinct`.
pub fn check_index(index: &FlowIndex) -> Result<(), AuditError> {
    let crate::cost::IndexParts {
        offsets,
        row_class,
        row_gain,
        class_of,
        class_size,
        class_first,
        class_rate,
        class_weight,
        class_cost,
        class_offsets,
        class_nodes,
    } = index.audit_parts();
    let n = index.node_count();
    let classes = class_size.len();
    let spans = |fence: &[u32], len: usize| {
        fence.first() == Some(&0) && fence.last().map(|&o| o as usize) == Some(len)
    };
    if offsets.len() != n + 1
        || !spans(offsets, row_class.len())
        || row_gain.len() != row_class.len()
    {
        fail!(
            "index-shape",
            "row fence of length {} does not span {} classes and {} gains",
            offsets.len(),
            row_class.len(),
            row_gain.len()
        );
    }
    let lengths = [
        class_first.len(),
        class_rate.len(),
        class_weight.len(),
        class_cost.len(),
        class_offsets.len().saturating_sub(1),
    ];
    if class_offsets.is_empty() || lengths.iter().any(|&l| l != classes) {
        fail!(
            "index-shape",
            "per-class arrays (first, rate, weight, cost, fence − 1) of lengths {lengths:?} \
             for {classes} classes"
        );
    }
    if !spans(class_offsets, class_nodes.len()) {
        fail!(
            "index-class-fence",
            "class fence {:?}..{:?} does not span its {} entries",
            class_offsets.first(),
            class_offsets.last(),
            class_nodes.len()
        );
    }
    for (fence, name) in [(offsets, "row"), (class_offsets, "class")] {
        if let Some(i) = fence.windows(2).position(|w| w[0] > w[1]) {
            fail!(
                "index-offsets-monotone",
                "{name} fence decreases at {i}: {} > {}",
                fence[i],
                fence[i + 1]
            );
        }
    }
    if let Some(&v) = class_nodes.iter().find(|&&v| v as usize >= n) {
        fail!(
            "index-path-bounds",
            "path vertex {v} out of bounds (n = {n})"
        );
    }
    if let Some(fi) = class_of.iter().position(|&c| c as usize >= classes) {
        fail!(
            "index-class-bounds",
            "flow {fi} names class {} of {classes}",
            class_of[fi]
        );
    }
    let mut members = vec![0usize; classes];
    let mut first = vec![None; classes];
    for (fi, &c) in class_of.iter().enumerate() {
        members[c as usize] += 1;
        first[c as usize].get_or_insert(fi as u32);
    }
    if let Some(c) = (0..classes).find(|&c| members[c] == 0 || class_size[c] as usize != members[c])
    {
        fail!(
            "index-class-sizes",
            "class {c} has size {} but {} flows name it",
            class_size[c],
            members[c]
        );
    }
    if let Some(c) = (0..classes).find(|&c| first[c] != Some(class_first[c])) {
        fail!(
            "index-class-first",
            "class {c} names flow {} first, but its lowest member is {:?}",
            class_first[c],
            first[c]
        );
    }
    if let Some(c) = (0..classes).find(|&c| {
        class_rate[c] < u128::from(class_size[c])
            || !(0.0..=crate::num::rate_sum_f64(class_rate[c])).contains(&class_weight[c])
    }) {
        fail!(
            "index-class-rates",
            "class {c}: rate sum {} for {} members, weight {}",
            class_rate[c],
            class_size[c],
            class_weight[c]
        );
    }
    let mut per_class = vec![0usize; classes];
    for v in 0..n as tdmd_graph::NodeId {
        let mut prev: Option<u32> = None;
        for &c in index.classes_through(v) {
            if prev.is_some_and(|p| c <= p) {
                fail!(
                    "index-row-sorted",
                    "vertex {v} row not strictly ascending: class {c} after {prev:?}"
                );
            }
            prev = Some(c);
            if c as usize >= classes {
                fail!(
                    "index-entry-bounds",
                    "vertex {v} row references class {c} of {classes}"
                );
            }
            if !index.class_path(c).contains(&v) {
                fail!(
                    "index-entry-offpath",
                    "vertex {v} row lists class {c}, whose path avoids it"
                );
            }
            per_class[c as usize] += 1;
        }
    }
    for (c, &got) in per_class.iter().enumerate() {
        let want = index.class_path(c as u32).len();
        if got != want {
            fail!(
                "index-bijective",
                "class {c}: {got} row entries for {want} path vertices"
            );
        }
    }
    // A class's pricing, read back from the rows: its gains in path
    // order, then its cost.
    let gains = class_gains(index);
    let pricing = |c: u32| {
        let span = class_offsets[c as usize] as usize..class_offsets[c as usize + 1] as usize;
        gains[span]
            .iter()
            .chain([&class_cost[c as usize]])
            .map(|g| g.to_bits())
            .collect::<Vec<u64>>()
    };
    let mut by_key: Vec<u32> = (0..classes as u32).collect();
    by_key.sort_by_cached_key(|&c| (index.class_path(c), pricing(c), c));
    if let Some(w) = by_key.windows(2).find(|w| {
        index.class_path(w[0]) == index.class_path(w[1]) && pricing(w[0]) == pricing(w[1])
    }) {
        fail!(
            "index-class-distinct",
            "classes {} and {} share the path {:?} and its pricing",
            w[0],
            w[1],
            index.class_path(w[0])
        );
    }
    Ok(())
}

/// The serving gains of every class, parallel to the class arena,
/// read back from the rows: the entry of class `c` on the `i`-th vertex
/// of its path is its gain at position `i`.
fn class_gains(index: &FlowIndex) -> Vec<f64> {
    let parts = index.audit_parts();
    let mut gains = vec![0.0; parts.class_nodes.len()];
    for v in 0..index.node_count() as tdmd_graph::NodeId {
        for (c, g) in index.row_entries(v) {
            let lo = parts.class_offsets[c as usize] as usize;
            for (pos, &u) in index.class_path(c).iter().enumerate() {
                if u == v {
                    gains[lo + pos] = g;
                }
            }
        }
    }
    gains
}

/// Validates that `model` prices every flow of `instance` as `index`,
/// its [`FlowIndex::build`], priced the flow's class through the
/// class's first member: the same cost and the same gain at every path
/// position, bit for bit. That is the [`CostModel`] contract that a
/// model prices from the path alone; a model that prices by rate, id or
/// tenant breaks it.
///
/// # Errors
/// `index-class-pricing`, naming the first flow priced apart from its
/// class.
pub fn check_class_pricing<M: CostModel + ?Sized>(
    instance: &Instance,
    model: &M,
    index: &FlowIndex,
) -> Result<(), AuditError> {
    let parts = index.audit_parts();
    for f in instance.flows() {
        let c = index.class_of(f.id);
        let cost = model.unprocessed_cost(f);
        if cost.to_bits() != index.class_cost(c).to_bits() {
            fail!(
                "index-class-pricing",
                "flow {} costs {cost} but its class {c} costs {}",
                f.id,
                index.class_cost(c)
            );
        }
        for (pos, &v) in f.path.iter().enumerate() {
            // Rows ascend by class, so the class's entry is found by
            // binary search; its gain sits at the same offset.
            let lo = parts.offsets[v as usize] as usize;
            let held = index
                .classes_through(v)
                .binary_search(&c)
                .ok()
                .map(|i| parts.row_gain[lo + i]);
            let gain = model.serving_gain(f, pos);
            if held.map(f64::to_bits) != Some(gain.to_bits()) {
                fail!(
                    "index-class-pricing",
                    "flow {} gains {gain} at position {pos} (vertex {v}) but its class {c} \
                     holds {held:?}",
                    f.id
                );
            }
        }
    }
    Ok(())
}

/// Validates a GTP result against the index it was solved on: vertex
/// bounds, the budget, every class (so every flow) served by a deployed
/// vertex on its path, and a non-negative decrement `Σ R_c (1 − λ) ·
/// best gain` over the classes (Lemma 1's lower bound under the
/// compiled model).
///
/// # Errors
/// Returns the first violated check among `deployment-bounds`,
/// `deployment-over-budget`, `flow-unserved` and
/// `decrement-negative`.
pub fn check_index_solution(
    index: &FlowIndex,
    deployment: &Deployment,
    budget: usize,
) -> Result<(), AuditError> {
    let n = index.node_count();
    for &v in deployment.vertices() {
        if (v as usize) >= n || !deployment.contains(v) {
            fail!(
                "deployment-bounds",
                "deployed vertex {v} out of bounds or missing from the bitmap"
            );
        }
    }
    if deployment.len() > budget {
        fail!(
            "deployment-over-budget",
            "{} middleboxes deployed, budget k = {budget}",
            deployment.len()
        );
    }
    let best = index.class_best(deployment);
    if let Some(c) = best.iter().position(Option::is_none) {
        fail!(
            "flow-unserved",
            "flow {} (class {c}) crosses no deployed vertex",
            index.class_first(c as u32)
        );
    }
    let d: f64 = best
        .iter()
        .enumerate()
        .map(|(c, g)| index.class_weight(c as u32) * g.unwrap_or(0.0))
        .sum();
    if d < -DECREMENT_EPS {
        fail!("decrement-negative", "d(P) = {d} < 0 violates Lemma 1");
    }
    Ok(())
}

/// Tolerance for floating-point accumulation error in the decrement
/// and trace-monotonicity checks.
const DECREMENT_EPS: f64 = 1e-9;

/// One committed greedy round, as recorded by the solver seam.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRound {
    /// Marginal decrement gain of the committed vertex.
    pub gain: f64,
    /// Whether the tight-budget feasibility guard restricted this
    /// round's candidates (guard rounds may pick a non-maximal
    /// vertex, so they are exempt from the monotone comparison).
    pub guarded: bool,
}

/// Validates a greedy trace: gains are finite and non-negative, and
/// monotone non-increasing across unguarded rounds — the live
/// submodularity witness for Thm. 2 (each vertex's marginal decrement
/// only shrinks as `P` grows, so the per-round maximum does too).
///
/// # Errors
/// Returns the first violated check among `trace-gain-finite`,
/// `trace-gain-negative` and `trace-not-monotone`.
pub fn check_greedy_trace(trace: &[TraceRound]) -> Result<(), AuditError> {
    let mut last_unguarded: Option<(usize, f64)> = None;
    for (round, r) in trace.iter().enumerate() {
        if !r.gain.is_finite() {
            fail!(
                "trace-gain-finite",
                "round {round} committed a non-finite gain {}",
                r.gain
            );
        }
        if r.gain < -DECREMENT_EPS {
            fail!(
                "trace-gain-negative",
                "round {round} committed negative gain {}",
                r.gain
            );
        }
        if r.guarded {
            continue;
        }
        if let Some((prev_round, prev)) = last_unguarded {
            if r.gain > prev + DECREMENT_EPS {
                fail!(
                    "trace-not-monotone",
                    "round {round} gain {} exceeds round {prev_round} gain {prev} \
                     (submodularity witness, Thm. 2)",
                    r.gain
                );
            }
        }
        last_unguarded = Some((round, r.gain));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::fig1_instance;

    #[test]
    fn clean_instance_passes() {
        check_instance(&fig1_instance(2)).unwrap();
    }

    #[test]
    fn solution_checks_pass_on_the_paper_optimum() {
        let inst = fig1_instance(2);
        let d = Deployment::from_vertices(6, [4, 1]);
        let alloc = crate::objective::allocate(&inst, &d);
        check_solution(&inst, &d, 2, Some(&alloc)).unwrap();
    }

    #[test]
    fn over_budget_and_offpath_assignments_are_caught() {
        let inst = fig1_instance(2);
        let d = Deployment::from_vertices(6, [4, 1, 0]);
        let err = check_solution(&inst, &d, 2, None).unwrap_err();
        assert_eq!(err.check, "deployment-over-budget", "{err}");

        // Boxes on v3 (=2) and v5 (=4): both sit on f1's path, but
        // v3 serves it at l = 1 instead of the optimal l = 2.
        let d = Deployment::from_vertices(6, [2, 4]);
        let mut alloc = crate::objective::allocate(&inst, &d);
        alloc.assigned[0] = Some(2);
        let err = check_solution(&inst, &d, 2, Some(&alloc)).unwrap_err();
        assert_eq!(err.check, "assignment-suboptimal", "{err}");

        alloc.assigned[0] = Some(1); // vertex 1 is off f1's path entirely
        let d3 = Deployment::from_vertices(6, [1, 2, 4]);
        let err = check_solution(&inst, &d3, 3, Some(&alloc)).unwrap_err();
        assert_eq!(err.check, "assignment-offpath", "{err}");
    }

    #[test]
    fn trace_monotonicity_is_enforced_outside_guard_rounds() {
        let ok = [
            TraceRound {
                gain: 4.0,
                guarded: false,
            },
            TraceRound {
                gain: 1.0,
                guarded: true,
            },
            TraceRound {
                gain: 3.0,
                guarded: false,
            },
        ];
        check_greedy_trace(&ok).unwrap();
        let bad = [
            TraceRound {
                gain: 2.0,
                guarded: false,
            },
            TraceRound {
                gain: 3.0,
                guarded: false,
            },
        ];
        let err = check_greedy_trace(&bad).unwrap_err();
        assert_eq!(err.check, "trace-not-monotone", "{err}");
    }

    #[test]
    #[should_panic(expected = "tdmd audit failure")]
    fn enforce_panics_with_the_diagnostic() {
        enforce(Err(AuditError {
            check: "example",
            detail: "boom".into(),
        }));
    }
}
