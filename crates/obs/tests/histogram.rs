//! The `Histogram` contract, checked against exact nearest-rank
//! percentiles over the raw samples. The memory checks (the default
//! histogram allocates nothing, one sample holds one bucket) read
//! private fields, so they sit beside the type in `hist.rs`.

use proptest::prelude::*;
use tdmd_obs::{percentile, Histogram};

/// `len` seeded samples in the histogram's stated range: zeros, the
/// smallest normal floats, latency-like values across 60 octaves and
/// values near `f64::MAX`, with repeats.
fn samples(seed: u64, len: usize) -> Vec<f64> {
    let mut rng = TestRng::for_case(seed, 0);
    let mut out: Vec<f64> = Vec::with_capacity(len);
    for _ in 0..len {
        let x = match rng.next_u64() % 16 {
            0 => 0.0,
            1 => f64::MIN_POSITIVE * (1.0 + rng.next_f64()),
            2 => f64::MAX * (0.5 + rng.next_f64() / 2.0),
            3 if !out.is_empty() => out[(rng.next_u64() % out.len() as u64) as usize],
            _ => (rng.next_f64() * 60.0 - 30.0).exp2(),
        };
        out.push(x);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// For p ∈ {0, 50, 99, 100}: exact ≤ reported ≤ min(exact·17/16,
    /// max), and the count is exact.
    #[test]
    fn percentiles_sit_within_a_sixteenth_above_the_exact_sample(
        seed in any::<u64>(),
        len in 1usize..400,
    ) {
        let xs = samples(seed, len);
        let mut h = Histogram::new();
        for &x in &xs {
            h.record(x);
        }
        let mut sorted = xs.clone();
        sorted.sort_by(f64::total_cmp);
        let max = sorted[len - 1];
        prop_assert_eq!(h.count(), len as u64);
        for p in [0.0, 50.0, 99.0, 100.0] {
            let exact = percentile(&sorted, p);
            let reported = h.percentile(p).expect("the histogram holds samples");
            let bound = (exact * 17.0 / 16.0).min(max);
            prop_assert!(
                exact <= reported && reported <= bound,
                "p{p}: exact {exact:e}, reported {reported:e}, bound {bound:e}"
            );
        }
        prop_assert_eq!(h.percentile(100.0), Some(max));
    }
}

#[test]
fn an_empty_histogram_reports_none() {
    let h = Histogram::default();
    assert_eq!(h.count(), 0);
    for p in [0.0, 50.0, 99.0, 100.0] {
        assert_eq!(h.percentile(p), None);
    }
}

#[test]
fn negative_and_nan_samples_clamp_to_zero() {
    let mut h = Histogram::new();
    h.record(-5.0);
    h.record(f64::NAN);
    h.record(f64::NEG_INFINITY);
    assert_eq!(h.count(), 3);
    assert_eq!(h.percentile(0.0), Some(0.0));
    assert_eq!(h.percentile(100.0), Some(0.0));
    h.record(3.0);
    assert_eq!(h.percentile(50.0), Some(0.0));
    assert_eq!(h.percentile(100.0), Some(3.0));
}

#[test]
fn a_one_sample_histogram_reports_that_sample() {
    for x in [0.0, 0.403, 1.0, 1e6, f64::MAX] {
        let mut h = Histogram::new();
        h.record(x);
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), Some(x), "{x} at p{p}");
        }
    }
}
