//! A TDMD problem instance: validated input, nothing precomputed.

use crate::error::TdmdError;
use crate::num::{id32, ix};
use tdmd_graph::{DiGraph, NodeId};
use tdmd_traffic::flow::total_load;
use tdmd_traffic::Flow;

/// A complete TDMD problem: topology, flows, traffic-changing ratio
/// `λ` and the middlebox budget `k` (Eq. 3), each checked once at
/// construction.
///
/// [`Instance::new`] builds the paper's fixed-path model: one path per
/// flow, and nothing else. Nothing changes it after validation.
/// Solvers compile the vertex → flow index they score with,
/// [`FlowIndex`](crate::cost::FlowIndex), from the flows. The joint
/// routing extension keeps its candidate routes beside an instance, in
/// [`JointInstance`](crate::algorithms::joint::JointInstance).
#[derive(Debug, Clone)]
pub struct Instance {
    graph: DiGraph,
    flows: Vec<Flow>,
    lambda: f64,
    k: usize,
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
    /// original model.
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
        })
    }

    /// The topology.
    #[inline]
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// The flows, each on its path.
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

    /// Number of vertices in the topology.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Sum of `r_f · |p_f|` over the flows — the unprocessed total
    /// bandwidth, i.e. `b(∅)` and the `d` offset of Lemma 1.
    pub fn unprocessed_bandwidth(&self) -> f64 {
        total_load(&self.flows)
    }

    /// Vertices that lie on at least one flow path — the only
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

    #[test]
    fn valid_instance_builds() {
        let inst = line_instance(0.5, 2).unwrap();
        assert_eq!(inst.lambda(), 0.5);
        assert_eq!(inst.k(), 2);
        assert_eq!(inst.flows().len(), 2);
        assert_eq!(inst.unprocessed_bandwidth(), (4 * 3 + 2 * 2) as f64);
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
