//! A TDMD problem instance: validated input, nothing precomputed.

use std::borrow::Cow;

use crate::error::TdmdError;
use crate::num::{id32, ix};
use tdmd_graph::{DiGraph, NodeId};
use tdmd_traffic::{Flow, FlowPaths};

/// A complete TDMD problem: topology, flows, traffic-changing ratio
/// `λ` and the middlebox budget `k` (Eq. 3), each checked once at
/// construction.
///
/// [`Instance::new`] builds the paper's fixed-path model: one path per
/// flow, and nothing else. Solvers compile the vertex → flow index
/// they score with, [`FlowIndex`](crate::cost::FlowIndex), from the
/// flows. Only [`Instance::with_path_sets`] adds candidate
/// [`PathSets`] for the joint routing extension, where each flow's
/// *active* candidate is its path; [`Instance::set_active_paths`]
/// switches them.
#[derive(Debug, Clone)]
pub struct Instance {
    graph: DiGraph,
    flows: Vec<Flow>,
    lambda: f64,
    k: usize,
    /// Candidate path sets with the active-path selection, on
    /// instances built by [`Instance::with_path_sets`] only.
    paths: Option<PathSets>,
}

/// Validates flow paths without allocating per path: a per-vertex
/// stamp marks the vertices of the path being checked, so a revisit
/// is a stamp that already holds the path's mark. It owns only the
/// stamps and takes the topology per call, so one checker serves
/// [`Instance`] construction and the online engine's arrivals alike.
#[derive(Debug, Clone)]
pub struct PathCheck {
    stamp: Vec<usize>,
    mark: usize,
}

impl PathCheck {
    /// A checker with stamps for a topology of `node_count` vertices
    /// (a larger topology grows them on first use).
    pub fn new(node_count: usize) -> Self {
        Self {
            stamp: vec![0; node_count],
            mark: 0,
        }
    }

    /// Whether `path` is a valid flow path in `graph`: at least two
    /// vertices, every vertex in range, none twice (the paper's paths
    /// are simple), and every hop an edge of the topology.
    pub fn is_valid(&mut self, graph: &DiGraph, path: &[NodeId]) -> bool {
        let n = graph.node_count();
        if path.len() < 2 {
            return false;
        }
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
        self.mark += 1;
        for &v in path {
            if ix(v) >= n || self.stamp[ix(v)] == self.mark {
                return false;
            }
            self.stamp[ix(v)] = self.mark;
        }
        path.windows(2).all(|w| graph.has_edge(w[0], w[1]))
    }
}

impl Instance {
    /// Builds and validates a fixed-path instance — the paper's
    /// original model. It carries no path sets.
    ///
    /// # Errors
    /// * [`TdmdError::BadLambda`] if `λ ∉ [0, 1]`.
    /// * [`TdmdError::InvalidPath`] if a flow path is degenerate (fewer
    ///   than two vertices), leaves the topology, revisits a vertex or
    ///   uses a missing edge, if flow ids are not dense, or if the flow
    ///   carries no traffic (zero rate) — the tree DP's coverage
    ///   accounting requires strictly positive rates, as in the paper.
    pub fn new(graph: DiGraph, flows: Vec<Flow>, lambda: f64, k: usize) -> Result<Self, TdmdError> {
        if !(0.0..=1.0).contains(&lambda) || lambda.is_nan() {
            return Err(TdmdError::BadLambda(lambda));
        }
        let mut check = PathCheck::new(graph.node_count());
        for (idx, f) in flows.iter().enumerate() {
            // Flow ids double as dense indices into per-flow state
            // everywhere downstream; enforce it here once.
            if f.rate == 0 || f.id as usize != idx || !check.is_valid(&graph, &f.path) {
                return Err(TdmdError::InvalidPath { flow: f.id });
            }
        }
        Ok(Self {
            graph,
            flows,
            lambda,
            k,
            paths: None,
        })
    }

    /// Builds an instance from candidate path sets: each flow's
    /// primary (index-0) candidate starts active, so a fixed-path
    /// solver run on the result equals a run on the primaries.
    ///
    /// # Errors
    /// * [`TdmdError::BadLambda`] if `λ ∉ [0, 1]`.
    /// * [`TdmdError::InvalidPath`] if a flow has a zero rate, a
    ///   non-dense id, an empty candidate list, or any candidate that
    ///   is degenerate, non-simple, uses a missing edge, or does not
    ///   connect the primary's `(src, dst)`.
    pub fn with_path_sets(
        graph: DiGraph,
        sets: Vec<FlowPaths>,
        lambda: f64,
        k: usize,
    ) -> Result<Self, TdmdError> {
        if !(0.0..=1.0).contains(&lambda) || lambda.is_nan() {
            return Err(TdmdError::BadLambda(lambda));
        }
        let mut check = PathCheck::new(graph.node_count());
        for (idx, s) in sets.iter().enumerate() {
            let err = || TdmdError::InvalidPath { flow: s.id };
            if s.id as usize != idx || s.rate == 0 || s.candidates.is_empty() {
                return Err(err());
            }
            for p in &s.candidates {
                if !check.is_valid(&graph, p) {
                    return Err(err());
                }
                if p[0] != s.candidates[0][0] || p.last() != s.candidates[0].last() {
                    return Err(err());
                }
            }
        }
        let flows: Vec<Flow> = sets.iter().map(FlowPaths::primary_flow).collect();
        let paths = PathSets::build(graph.node_count(), &sets);
        Ok(Self {
            graph,
            flows,
            lambda,
            k,
            paths: Some(paths),
        })
    }

    /// The topology.
    #[inline]
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// The flows, each on its currently active path.
    #[inline]
    pub fn flows(&self) -> &[Flow] {
        &self.flows
    }

    /// Traffic-changing ratio `λ`.
    #[inline]
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Middlebox budget `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Returns a copy with a different budget (used by sweeps).
    pub fn with_k(&self, k: usize) -> Self {
        let mut c = self.clone();
        c.k = k;
        c
    }

    /// Returns a copy with a different `λ`.
    ///
    /// # Panics
    /// Panics if `λ ∉ [0, 1]` (sweeps pass vetted values).
    pub fn with_lambda(&self, lambda: f64) -> Self {
        assert!((0.0..=1.0).contains(&lambda), "lambda out of range");
        let mut c = self.clone();
        c.lambda = lambda;
        c
    }

    /// The candidate path sets and their two-level membership index,
    /// on instances built by [`Instance::with_path_sets`]; `None` on
    /// fixed-path instances.
    #[inline]
    pub fn path_sets(&self) -> Option<&PathSets> {
        self.paths.as_ref()
    }

    /// This instance with path sets: itself when it has them, else a
    /// copy whose sets hold each flow's path as its one candidate — the
    /// fixed-path model as a joint routing instance.
    pub(crate) fn with_candidates(&self) -> Cow<'_, Self> {
        if self.paths.is_some() {
            return Cow::Borrowed(self);
        }
        let sets: Vec<FlowPaths> = self.flows.iter().map(FlowPaths::singleton).collect();
        Cow::Owned(Self {
            paths: Some(PathSets::build(self.node_count(), &sets)),
            ..self.clone()
        })
    }

    /// Switches the active paths of a batch of flows. `switches` holds
    /// `(flow index, candidate index)` pairs; entries equal to the
    /// current selection are no-ops. A fixed-path instance has one
    /// candidate per flow, its path. Returns the number of flows whose
    /// route changed.
    ///
    /// # Panics
    /// Panics if a flow or candidate index is out of range (callers
    /// produce switches from [`PathSets`] lookups, so out-of-range
    /// indices are always a logic error).
    pub fn set_active_paths(&mut self, switches: &[(u32, u32)]) -> usize {
        let mut changed = 0usize;
        for &(f, j) in switches {
            let fi = ix(f);
            assert!(fi < self.flows.len(), "flow index {f} out of range");
            let count = self.paths.as_ref().map_or(1, |ps| ps.candidate_count(fi));
            assert!(
                ix(j) < count,
                "candidate index {j} out of range for flow {f}"
            );
            // A fixed-path flow's one candidate is always active.
            let Some(ps) = self.paths.as_mut().filter(|ps| ps.active[fi] != j) else {
                continue;
            };
            ps.active[fi] = j;
            self.flows[fi].path = ps.path(fi, ix(j)).to_vec();
            changed += 1;
        }
        changed
    }

    /// Number of vertices in the topology.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Sum of `r_f · |p_f|` over active paths — the unprocessed total
    /// bandwidth, i.e. `b(∅)` and the `d` offset of Lemma 1.
    pub fn unprocessed_bandwidth(&self) -> f64 {
        self.flows
            .iter()
            .map(|f| f.unprocessed_bandwidth() as f64)
            .sum()
    }

    /// Vertices that lie on at least one active flow path — the only
    /// useful middlebox locations for a fixed routing — ascending.
    pub fn candidate_vertices(&self) -> Vec<NodeId> {
        let mut on_path = vec![false; self.node_count()];
        for &v in self.flows.iter().flat_map(|f| &f.path) {
            on_path[ix(v)] = true;
        }
        (0..id32(self.node_count()))
            .filter(|&v| on_path[ix(v)])
            .collect()
    }
}

/// One vertex-membership record of the candidate index: candidate
/// `path` of flow `flow` crosses the vertex with `l` downstream hops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathMember {
    /// Flow index.
    pub flow: u32,
    /// Candidate index within the flow's set (0 = primary).
    pub path: u32,
    /// Downstream hops `l_v(p)` on that candidate.
    pub l: u32,
}

/// The candidate path sets of an instance, as a two-level CSR.
///
/// Level 1 is the path arena: flow `f`'s candidates are the global
/// path ids `flow_offsets[f] .. flow_offsets[f + 1]`, and global path
/// `p`'s vertices are `path_vertices[path_offsets[p] ..
/// path_offsets[p + 1]]`. Level 2 is the membership index: vertex
/// `v`'s [`PathMember`] records sit at `member_entries[member_offsets
/// [v] .. member_offsets[v + 1]]`, sorted by `(flow, path)`. `active`
/// selects one candidate per flow, whose path is the flow's path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathSets {
    /// Level-1 fence over flows: candidate global ids per flow.
    flow_offsets: Vec<u32>,
    /// Level-1 fence over global paths into `path_vertices`.
    path_offsets: Vec<u32>,
    /// Concatenated candidate paths.
    path_vertices: Vec<NodeId>,
    /// Active candidate index per flow.
    active: Vec<u32>,
    /// Level-2 fence over vertices into `member_entries`.
    member_offsets: Vec<u32>,
    /// Membership records grouped by vertex, sorted by `(flow, path)`.
    member_entries: Vec<PathMember>,
}

impl PathSets {
    /// Builds the two-level CSR from validated candidate sets.
    fn build(n: usize, sets: &[FlowPaths]) -> Self {
        let mut flow_offsets = vec![0u32; sets.len() + 1];
        let total: usize = sets.iter().map(|s| s.candidates.len()).sum();
        let mut path_offsets = Vec::with_capacity(total + 1);
        path_offsets.push(0u32);
        let mut path_vertices = Vec::new();
        let mut member_offsets = vec![0u32; n + 1];
        for (fi, s) in sets.iter().enumerate() {
            flow_offsets[fi + 1] = flow_offsets[fi] + s.candidates.len() as u32;
            for p in &s.candidates {
                path_vertices.extend_from_slice(p);
                path_offsets.push(path_vertices.len() as u32);
                for &v in p {
                    member_offsets[v as usize + 1] += 1;
                }
            }
        }
        for i in 1..=n {
            member_offsets[i] += member_offsets[i - 1];
        }
        let mut cursor: Vec<u32> = member_offsets[..n].to_vec();
        let mut member_entries = vec![
            PathMember {
                flow: 0,
                path: 0,
                l: 0
            };
            member_offsets[n] as usize
        ];
        // Filling in (flow, candidate, position) order keeps every
        // vertex row sorted by (flow, path).
        for (fi, s) in sets.iter().enumerate() {
            for (j, p) in s.candidates.iter().enumerate() {
                let hops = (p.len() - 1) as u32;
                for (pos, &v) in p.iter().enumerate() {
                    let slot = &mut cursor[v as usize];
                    member_entries[*slot as usize] = PathMember {
                        flow: fi as u32,
                        path: j as u32,
                        l: hops - pos as u32,
                    };
                    *slot += 1;
                }
            }
        }
        Self {
            flow_offsets,
            path_offsets,
            path_vertices,
            active: vec![0; sets.len()],
            member_offsets,
            member_entries,
        }
    }

    /// Number of flows.
    #[inline]
    pub fn flow_count(&self) -> usize {
        self.active.len()
    }

    /// Total number of candidate paths across all flows.
    #[inline]
    pub fn total_paths(&self) -> usize {
        self.path_offsets.len() - 1
    }

    /// Number of candidates of flow `f`.
    #[inline]
    pub fn candidate_count(&self, f: usize) -> usize {
        (self.flow_offsets[f + 1] - self.flow_offsets[f]) as usize
    }

    /// Global path id of flow `f`'s candidate `j`.
    #[inline]
    pub fn global_id(&self, f: usize, j: usize) -> usize {
        self.flow_offsets[f] as usize + j
    }

    /// Vertices of flow `f`'s candidate `j`.
    #[inline]
    pub fn path(&self, f: usize, j: usize) -> &[NodeId] {
        self.path_by_id(self.global_id(f, j))
    }

    /// Vertices of the global path `id`.
    #[inline]
    pub fn path_by_id(&self, id: usize) -> &[NodeId] {
        let lo = self.path_offsets[id] as usize;
        let hi = self.path_offsets[id + 1] as usize;
        &self.path_vertices[lo..hi]
    }

    /// Active candidate index of flow `f`.
    #[inline]
    pub fn active(&self, f: usize) -> u32 {
        self.active[f]
    }

    /// Active candidate indices of every flow.
    #[inline]
    pub fn actives(&self) -> &[u32] {
        &self.active
    }

    /// All candidate-path memberships crossing `v`, sorted by
    /// `(flow, path)`.
    #[inline]
    pub fn memberships_through(&self, v: NodeId) -> &[PathMember] {
        let lo = self.member_offsets[v as usize] as usize;
        let hi = self.member_offsets[v as usize + 1] as usize;
        &self.member_entries[lo..hi]
    }

    /// Fewest hops over flow `f`'s candidates — the routing lower
    /// bound the LP certificate prices against.
    pub fn min_hops(&self, f: usize) -> u32 {
        (0..self.candidate_count(f))
            .map(|j| self.path(f, j).len() as u32 - 1)
            .min()
            .expect("every flow has a candidate")
    }
}

/// Corruption hook for the structural auditor's tests.
impl Instance {
    /// Mutable candidate-index access, `None` on fixed-path instances —
    /// the corruption hook for the path-set audit checks. Breaking the
    /// invariants here puts every algorithm off spec; the only
    /// legitimate use is seeding violations that
    /// [`crate::audit::check_instance`] must catch.
    pub fn audit_path_sets_mut(&mut self) -> Option<&mut PathSets> {
        self.paths.as_mut()
    }
}

/// Raw arena access for audit corruption tests.
impl PathSets {
    /// Mutable access to `(active, member_entries, path_vertices)`,
    /// for seeding violations the auditor must catch.
    pub fn audit_parts_mut(&mut self) -> (&mut Vec<u32>, &mut Vec<PathMember>, &mut Vec<NodeId>) {
        (
            &mut self.active,
            &mut self.member_entries,
            &mut self.path_vertices,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdmd_graph::GraphBuilder;

    fn line_instance(lambda: f64, k: usize) -> Result<Instance, TdmdError> {
        let mut b = GraphBuilder::new(4);
        for i in 0..3 {
            b.add_bidirectional(i, i + 1);
        }
        let g = b.build();
        let flows = vec![
            Flow::new(0, 4, vec![3, 2, 1, 0]),
            Flow::new(1, 2, vec![2, 1, 0]),
        ];
        Instance::new(g, flows, lambda, k)
    }

    /// A diamond 0 → {1, 2} → 3 plus a long detour 0 → 4 → 5 → 3.
    fn diamond_instance() -> Instance {
        let mut b = GraphBuilder::new(6);
        b.add_bidirectional(0, 1);
        b.add_bidirectional(1, 3);
        b.add_bidirectional(0, 2);
        b.add_bidirectional(2, 3);
        b.add_bidirectional(0, 4);
        b.add_bidirectional(4, 5);
        b.add_bidirectional(5, 3);
        let g = b.build();
        let sets = vec![FlowPaths::new(
            0,
            4,
            vec![vec![0, 1, 3], vec![0, 2, 3], vec![0, 4, 5, 3]],
        )];
        Instance::with_path_sets(g, sets, 0.5, 1).unwrap()
    }

    #[test]
    fn valid_instance_builds() {
        let inst = line_instance(0.5, 2).unwrap();
        assert_eq!(inst.lambda(), 0.5);
        assert_eq!(inst.k(), 2);
        assert_eq!(inst.flows().len(), 2);
        assert_eq!(inst.unprocessed_bandwidth(), (4 * 3 + 2 * 2) as f64);
    }

    #[test]
    fn fixed_path_instances_carry_no_path_sets() {
        let inst = line_instance(0.5, 2).unwrap();
        assert!(inst.path_sets().is_none());
        // The same flows as singleton sets: one candidate each, active,
        // with the flows' paths and the same flows.
        let sets = inst.flows().iter().map(FlowPaths::singleton).collect();
        let single = Instance::with_path_sets(inst.graph().clone(), sets, 0.5, 2).unwrap();
        assert_eq!(single.flows(), inst.flows());
        let ps = single.path_sets().unwrap();
        assert_eq!(ps.flow_count(), 2);
        assert_eq!(ps.total_paths(), 2);
        for (i, f) in inst.flows().iter().enumerate() {
            assert_eq!(ps.candidate_count(i), 1);
            assert_eq!(ps.active(i), 0);
            assert_eq!(ps.path(i, 0), &f.path[..]);
            assert_eq!(ps.min_hops(i), f.hops() as u32);
        }
        // Vertex 2 carries f0 (l = 2) and f1 (l = 2).
        assert_eq!(
            ps.memberships_through(2),
            &[
                PathMember {
                    flow: 0,
                    path: 0,
                    l: 2
                },
                PathMember {
                    flow: 1,
                    path: 0,
                    l: 2
                }
            ]
        );
    }

    #[test]
    fn with_path_sets_activates_the_primary() {
        let inst = diamond_instance();
        assert_eq!(inst.flows()[0].path, vec![0, 1, 3]);
        let ps = inst.path_sets().unwrap();
        assert_eq!(ps.active(0), 0);
        assert_eq!(ps.candidate_count(0), 3);
        assert_eq!(ps.global_id(0, 2), 2);
        assert_eq!(ps.path(0, 2), &[0, 4, 5, 3]);
        assert_eq!(ps.min_hops(0), 2);
        // Vertex 0 is on all three candidates, with per-candidate l.
        let ls: Vec<u32> = ps.memberships_through(0).iter().map(|m| m.l).collect();
        assert_eq!(ls, vec![2, 2, 3]);
        // Vertex 4 only sits on the detour candidate.
        assert_eq!(
            ps.memberships_through(4),
            &[PathMember {
                flow: 0,
                path: 2,
                l: 2
            }]
        );
    }

    #[test]
    fn set_active_paths_switches_paths() {
        let mut inst = diamond_instance();
        // No-op switch: already active.
        assert_eq!(inst.set_active_paths(&[(0, 0)]), 0);
        // Switch to the detour: flows, candidate vertices and bandwidth
        // all follow.
        assert_eq!(inst.set_active_paths(&[(0, 2)]), 1);
        assert_eq!(inst.path_sets().unwrap().active(0), 2);
        assert_eq!(inst.flows()[0].path, vec![0, 4, 5, 3]);
        assert_eq!(inst.candidate_vertices(), vec![0, 3, 4, 5]);
        assert_eq!(inst.unprocessed_bandwidth(), 12.0);
        // Switch back: equal to a fresh build.
        inst.set_active_paths(&[(0, 0)]);
        let fresh = diamond_instance();
        assert_eq!(inst.path_sets(), fresh.path_sets());
        assert_eq!(inst.flows(), fresh.flows());
    }

    #[test]
    fn fixed_path_switches_keep_the_one_path() {
        let mut inst = line_instance(0.5, 2).unwrap();
        assert_eq!(inst.set_active_paths(&[(0, 0), (1, 0)]), 0);
        assert_eq!(inst.flows()[0].path, vec![3, 2, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "candidate index")]
    fn fixed_path_switch_to_a_second_candidate_panics() {
        let mut inst = line_instance(0.5, 2).unwrap();
        inst.set_active_paths(&[(1, 1)]);
    }

    #[test]
    #[should_panic(expected = "candidate index")]
    fn out_of_range_switch_panics() {
        let mut inst = diamond_instance();
        inst.set_active_paths(&[(0, 9)]);
    }

    #[test]
    fn with_path_sets_rejects_mismatched_endpoints() {
        let mut b = GraphBuilder::new(3);
        b.add_bidirectional(0, 1);
        b.add_bidirectional(1, 2);
        let g = b.build();
        let sets = vec![FlowPaths {
            id: 0,
            rate: 1,
            candidates: vec![vec![0, 1, 2], vec![0, 1]],
        }];
        assert_eq!(
            Instance::with_path_sets(g, sets, 0.5, 1).unwrap_err(),
            TdmdError::InvalidPath { flow: 0 }
        );
    }

    #[test]
    fn bad_lambda_rejected() {
        assert_eq!(
            line_instance(1.5, 2).unwrap_err(),
            TdmdError::BadLambda(1.5)
        );
        assert_eq!(
            line_instance(-0.1, 2).unwrap_err(),
            TdmdError::BadLambda(-0.1)
        );
        assert!(line_instance(f64::NAN, 2).is_err());
    }

    #[test]
    fn boundary_lambdas_accepted() {
        assert!(line_instance(0.0, 2).is_ok(), "spam filter");
        assert!(line_instance(1.0, 2).is_ok(), "traffic-neutral");
    }

    #[test]
    fn invalid_path_rejected() {
        let g = GraphBuilder::new(3).build();
        let flows = vec![Flow::new(0, 1, vec![0, 1])];
        assert_eq!(
            Instance::new(g, flows, 0.5, 1).unwrap_err(),
            TdmdError::InvalidPath { flow: 0 }
        );
    }

    #[test]
    fn candidate_vertices_excludes_off_path_nodes() {
        let mut b = GraphBuilder::new(5);
        for i in 0..3 {
            b.add_bidirectional(i, i + 1);
        }
        b.add_bidirectional(0, 4); // vertex 4 carries no flow
        let g = b.build();
        let flows = vec![Flow::new(0, 1, vec![3, 2, 1, 0])];
        let inst = Instance::new(g, flows, 0.5, 1).unwrap();
        assert_eq!(inst.candidate_vertices(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn with_k_and_with_lambda_copy() {
        let inst = line_instance(0.5, 2).unwrap();
        assert_eq!(inst.with_k(7).k(), 7);
        assert_eq!(inst.with_lambda(0.0).lambda(), 0.0);
        assert_eq!(inst.k(), 2, "original untouched");
    }

    /// The same four conditions as [`PathCheck`], checked by copying
    /// and sorting the path.
    fn sorted_reference(g: &DiGraph, path: &[NodeId]) -> bool {
        if path.len() < 2 || path.iter().any(|&v| ix(v) >= g.node_count()) {
            return false;
        }
        let mut seen = path.to_vec();
        seen.sort_unstable();
        seen.windows(2).all(|w| w[0] != w[1]) && path.windows(2).all(|w| g.has_edge(w[0], w[1]))
    }

    /// Random walks on a random graph, corrupted now and then by an
    /// out-of-range vertex or a jump along no edge, and cut to any
    /// length from 0: `PathCheck` must agree with the sorting
    /// reference on every one. After each rejected path, its longest
    /// valid prefix, whose vertices still hold the stamps of a walk the
    /// checker may have left mid-way, must pass.
    #[test]
    fn path_check_agrees_with_a_sorting_reference() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x9A7C_4EC4);
        let n = 12u32;
        let g = tdmd_graph::generators::erdos_renyi_connected(ix(n), 0.25, &mut rng);
        // Sized for no vertices, so the first path grows the stamps.
        let mut check = PathCheck::new(0);
        // Accepted paths, then rejections by: length < 2, out of
        // range, a repeated vertex, a missing edge.
        let mut seen = [0usize; 5];
        for _ in 0..4_000 {
            let len = rng.gen_range(0..9usize);
            let mut path: Vec<NodeId> = Vec::with_capacity(len);
            for _ in 0..len {
                let v = match (rng.gen_range(0..20), path.last()) {
                    (0, _) => n + rng.gen_range(0..3u32),
                    (r, Some(&u)) if r > 1 && u < n => {
                        let nbrs = g.out_neighbors(u);
                        nbrs[rng.gen_range(0..nbrs.len())]
                    }
                    // The first vertex, a jump, or a step on from a
                    // vertex out of range.
                    _ => rng.gen_range(0..n),
                };
                path.push(v);
            }
            let want = sorted_reference(&g, &path);
            assert_eq!(check.is_valid(&g, &path), want, "{path:?}");
            let mut sorted = path.clone();
            sorted.sort_unstable();
            let cause = if want {
                0
            } else if path.len() < 2 {
                1
            } else if path.iter().any(|&v| v >= n) {
                2
            } else if sorted.windows(2).any(|w| w[0] == w[1]) {
                3
            } else {
                4
            };
            seen[cause] += 1;
            if !want && path.len() >= 2 {
                let prefix = (2..path.len())
                    .rev()
                    .map(|j| &path[..j])
                    .find(|p| sorted_reference(&g, p));
                if let Some(p) = prefix {
                    assert!(check.is_valid(&g, p), "stale stamps after {path:?}");
                }
            }
        }
        assert!(
            seen.iter().all(|&c| c > 0),
            "every case exercised: {seen:?}"
        );
        // The same rejection followed by its own valid prefix, by hand.
        let (a, b) = (0, g.out_neighbors(0)[0]);
        assert!(!check.is_valid(&g, &[a, b, a]));
        assert!(check.is_valid(&g, &[a, b]));
        assert!(!check.is_valid(&g, &[]));
        assert!(!check.is_valid(&g, &[a]));
    }
}
