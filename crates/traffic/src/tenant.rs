//! Multi-tenant gravity-model traffic matrices (the SOL workload
//! shape).
//!
//! Real multi-tenant load is well described by a *gravity model*: each
//! ingress/egress vertex carries a population, and the demand between
//! ingress `i` and egress `j` is proportional to the product of their
//! populations, scaled so the whole matrix sums to a configured total
//! volume. On top of the matrix, every demand is split across a set of
//! [`TenantProfile`]s — traffic classes with a volume share and a rate
//! multiplier — and each `(ingress, egress, tenant)` cell becomes one
//! [`Flow`] tagged with its [`TenantId`], routed along a BFS shortest
//! path like the paper's general workload. Placement prices every
//! tenant's traffic alike; the tag feeds per-tenant telemetry.
//!
//! Generation is seed-deterministic: populations are the only random
//! draw, and the matrix → flow lowering iterates in fixed
//! (ingress, egress, tenant) order.

use crate::flow::{Flow, TenantId};
use rand::Rng;
use serde::{Deserialize, Serialize};
use tdmd_graph::traversal::bfs;
use tdmd_graph::{DiGraph, NodeId};

/// One tenant (traffic class) riding the gravity matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantProfile {
    /// Fraction of every matrix cell's volume this tenant carries.
    /// Shares need not sum to 1 (the remainder is simply not offered).
    pub share: f64,
    /// Rate multiplier applied after the share split (premium tenants
    /// may burst above their share, best-effort ones below).
    pub rate_scale: f64,
}

impl TenantProfile {
    /// Neutral profile: share `s`, no rate scaling.
    pub fn even(s: f64) -> Self {
        Self {
            share: s,
            rate_scale: 1.0,
        }
    }

    /// `count` identical tenants splitting the volume evenly — the
    /// multi-tenant workload that must be placement-equivalent to the
    /// anonymous one.
    ///
    /// # Panics
    /// Panics if `count` is zero.
    pub fn uniform(count: usize) -> Vec<Self> {
        assert!(count > 0, "need at least one tenant");
        vec![Self::even(1.0 / count as f64); count]
    }
}

/// Gravity-matrix generation parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GravityConfig {
    /// Total matrix volume in integral rate units.
    pub total_rate: u64,
    /// Traffic classes splitting every cell (at most `u16::MAX + 1`).
    pub tenants: Vec<TenantProfile>,
    /// Inclusive population range sampled per ingress/egress vertex.
    pub population_range: (u64, u64),
    /// Safety cap on the number of generated flows.
    pub max_flows: usize,
}

impl GravityConfig {
    /// SOL-exemplar defaults: populations in `[2^15, 2^18]`, a single
    /// neutral tenant, and the given total volume.
    pub fn with_total_rate(total_rate: u64) -> Self {
        Self {
            total_rate,
            tenants: TenantProfile::uniform(1),
            population_range: (1 << 15, 1 << 18),
            max_flows: 100_000,
        }
    }

    /// Replaces the tenant set (builder style).
    #[must_use]
    pub fn tenants(mut self, tenants: Vec<TenantProfile>) -> Self {
        self.tenants = tenants;
        self
    }
}

/// Samples one population per vertex from the configured range.
///
/// # Panics
/// Panics if the configured population range is not `1 ≤ lo ≤ hi`.
pub fn gravity_populations<R: Rng + ?Sized>(
    count: usize,
    cfg: &GravityConfig,
    rng: &mut R,
) -> Vec<u64> {
    let (lo, hi) = cfg.population_range;
    assert!(lo >= 1 && lo <= hi, "population range must be 1 ≤ lo ≤ hi");
    (0..count).map(|_| rng.gen_range(lo..=hi)).collect()
}

/// The gravity matrix: `T[i][j] = round(total · pᵢ · qⱼ / (Σp · Σq))`
/// over ingress populations `p` and egress populations `q`, so the
/// row marginals track `total · pᵢ / Σp` and the column marginals
/// `total · qⱼ / Σq` within per-cell rounding.
///
/// # Panics
/// Panics if either population list is empty or contains a zero.
pub fn gravity_matrix(ingress_pops: &[u64], egress_pops: &[u64], total_rate: u64) -> Vec<Vec<u64>> {
    assert!(
        !ingress_pops.is_empty() && !egress_pops.is_empty(),
        "need at least one ingress and one egress population"
    );
    assert!(
        ingress_pops.iter().chain(egress_pops).all(|&p| p > 0),
        "populations must be positive"
    );
    let p_in: f64 = ingress_pops.iter().map(|&p| p as f64).sum();
    let p_eg: f64 = egress_pops.iter().map(|&p| p as f64).sum();
    let scale = total_rate as f64 / (p_in * p_eg);
    ingress_pops
        .iter()
        .map(|&pi| {
            egress_pops
                .iter()
                .map(|&qj| (pi as f64 * qj as f64 * scale).round() as u64)
                .collect()
        })
        .collect()
}

/// Generates a multi-tenant gravity workload: populations are sampled
/// for the `ingress` and `egress` vertex sets, the matrix is built by
/// [`gravity_matrix`], and every non-zero `(ingress, egress)` cell is
/// split across `cfg.tenants` into one tenant-tagged flow each
/// (rate `round(cell · share · rate_scale)`, zero-rate splits
/// dropped), routed along a BFS shortest path. Unreachable or
/// degenerate (`src == dst`) pairs are skipped.
///
/// Deterministic per rng stream: the only random draw is the two
/// population vectors.
///
/// # Panics
/// Panics if `ingress`/`egress`/`cfg.tenants` is empty or the tenant
/// count exceeds the [`TenantId`] range.
pub fn gravity_workload<R: Rng + ?Sized>(
    g: &DiGraph,
    ingress: &[NodeId],
    egress: &[NodeId],
    cfg: &GravityConfig,
    rng: &mut R,
) -> Vec<Flow> {
    assert!(
        !ingress.is_empty() && !egress.is_empty(),
        "need at least one ingress and one egress vertex"
    );
    assert!(!cfg.tenants.is_empty(), "need at least one tenant");
    assert!(
        cfg.tenants.len() <= usize::from(TenantId::MAX) + 1,
        "tenant count exceeds the TenantId range"
    );
    let ing_pops = gravity_populations(ingress.len(), cfg, rng);
    let eg_pops = gravity_populations(egress.len(), cfg, rng);
    let matrix = gravity_matrix(&ing_pops, &eg_pops, cfg.total_rate);
    let mut cache: Vec<Option<tdmd_graph::traversal::BfsResult>> = vec![None; g.node_count()];
    let mut flows = Vec::new();
    let mut next_id = 0u32;
    'cells: for (i, &src) in ingress.iter().enumerate() {
        for (j, &dst) in egress.iter().enumerate() {
            if src == dst || matrix[i][j] == 0 {
                continue;
            }
            let bfs_res = cache[src as usize].get_or_insert_with(|| bfs(g, src));
            let Some(path) = bfs_res.path_to(dst) else {
                continue;
            };
            for (t, prof) in cfg.tenants.iter().enumerate() {
                let rate = (matrix[i][j] as f64 * prof.share * prof.rate_scale).round() as u64;
                if rate == 0 {
                    continue;
                }
                if flows.len() >= cfg.max_flows {
                    break 'cells;
                }
                flows.push(Flow::new(next_id, rate, path.clone()).with_tenant(t as TenantId));
                next_id += 1;
            }
        }
    }
    flows
}

/// Per-tenant offered rate `Σ r_f` of a workload, indexed by tenant
/// id (length = highest tenant id + 1; empty for an empty workload).
pub fn tenant_rate_totals(flows: &[Flow]) -> Vec<u64> {
    let Some(max_t) = flows.iter().map(|f| f.tenant).max() else {
        return Vec::new();
    };
    let mut totals = vec![0u64; usize::from(max_t) + 1];
    for f in flows {
        totals[usize::from(f.tenant)] += f.rate;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tdmd_graph::generators::random::erdos_renyi_connected;

    fn fixture(seed: u64) -> DiGraph {
        erdos_renyi_connected(20, 0.2, &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn matrix_sums_to_total_within_rounding() {
        let m = gravity_matrix(&[100, 200, 300], &[50, 50], 10_000);
        let total: u64 = m.iter().flatten().sum();
        assert!((total as i64 - 10_000).unsigned_abs() <= 3, "total {total}");
    }

    #[test]
    fn workload_tags_every_tenant() {
        let g = fixture(1);
        let cfg = GravityConfig::with_total_rate(50_000).tenants(TenantProfile::uniform(3));
        let flows = gravity_workload(&g, &[1, 2, 3], &[0, 4], &cfg, &mut StdRng::seed_from_u64(2));
        assert!(!flows.is_empty());
        for f in &flows {
            assert!(f.tenant < 3);
            assert!(f.path_is_valid(&g));
            assert!(f.rate > 0);
        }
        let totals = tenant_rate_totals(&flows);
        assert_eq!(totals.len(), 3);
        assert!(totals.iter().all(|&t| t > 0), "every tenant offers load");
        // Even shares → near-even totals (rounding only).
        let spread = totals.iter().max().unwrap() - totals.iter().min().unwrap();
        assert!(spread <= flows.len() as u64, "spread {spread}");
    }

    #[test]
    fn rate_scale_skews_tenants() {
        let g = fixture(3);
        let tenants = vec![
            TenantProfile {
                share: 0.5,
                rate_scale: 2.0,
            },
            TenantProfile::even(0.5),
        ];
        let cfg = GravityConfig::with_total_rate(40_000).tenants(tenants);
        let flows = gravity_workload(&g, &[1, 2], &[0], &cfg, &mut StdRng::seed_from_u64(4));
        let totals = tenant_rate_totals(&flows);
        assert!(
            totals[0] > totals[1],
            "scaled tenant offers more: {totals:?}"
        );
    }

    #[test]
    fn max_flows_caps_generation() {
        let g = fixture(5);
        let mut cfg = GravityConfig::with_total_rate(1_000_000);
        cfg.max_flows = 4;
        let flows = gravity_workload(
            &g,
            &[1, 2, 3, 4, 5],
            &[0, 6, 7],
            &cfg,
            &mut StdRng::seed_from_u64(6),
        );
        assert_eq!(flows.len(), 4);
    }

    #[test]
    fn tenant_totals_of_empty_workload_are_empty() {
        assert!(tenant_rate_totals(&[]).is_empty());
    }

    /// Seed-derived population vector in `[2^10, 2^18)`.
    fn pops(rng: &mut StdRng, len: usize) -> Vec<u64> {
        use rand::Rng;
        (0..len)
            .map(|_| rng.gen_range(1u64 << 10..1 << 18))
            .collect()
    }

    proptest! {
        /// Row/column marginals of the gravity matrix track the
        /// ingress/egress populations within per-cell rounding slack.
        #[test]
        fn marginals_match_populations(
            seed in any::<u64>(),
            rows in 1usize..8,
            cols in 1usize..8,
            total in 1_000u64..1_000_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let ing = pops(&mut rng, rows);
            let eg = pops(&mut rng, cols);
            let m = gravity_matrix(&ing, &eg, total);
            let p_in: f64 = ing.iter().map(|&p| p as f64).sum();
            let p_eg: f64 = eg.iter().map(|&p| p as f64).sum();
            for (i, row) in m.iter().enumerate() {
                let got: u64 = row.iter().sum();
                let want = total as f64 * ing[i] as f64 / p_in;
                let slack = 0.5 * eg.len() as f64 + 1.0;
                prop_assert!(
                    (got as f64 - want).abs() <= slack,
                    "row {i}: {got} vs {want} (slack {slack})"
                );
            }
            for j in 0..eg.len() {
                let got: u64 = m.iter().map(|row| row[j]).sum();
                let want = total as f64 * eg[j] as f64 / p_eg;
                let slack = 0.5 * ing.len() as f64 + 1.0;
                prop_assert!(
                    (got as f64 - want).abs() <= slack,
                    "col {j}: {got} vs {want} (slack {slack})"
                );
            }
        }

        /// Generation is bytewise deterministic per seed: two runs
        /// serialize to identical JSON.
        #[test]
        fn generation_is_bytewise_deterministic(seed in 0u64..1_000) {
            let g = fixture(7);
            let cfg = GravityConfig::with_total_rate(30_000)
                .tenants(TenantProfile::uniform(3));
            let ingress = [1, 2, 3];
            let egress = [0, 4];
            let a = gravity_workload(&g, &ingress, &egress, &cfg,
                &mut StdRng::seed_from_u64(seed));
            let b = gravity_workload(&g, &ingress, &egress, &cfg,
                &mut StdRng::seed_from_u64(seed));
            prop_assert_eq!(
                serde_json::to_string(&a).unwrap(),
                serde_json::to_string(&b).unwrap()
            );
        }
    }
}
