//! # tdmd-obs — always-compiled solver telemetry
//!
//! Machine-readable counters and timers for the placement engines,
//! cheap enough to leave compiled into every hot path:
//!
//! * [`Counter`] — a relaxed [`AtomicU64`](std::sync::atomic::AtomicU64)
//!   wrapper; one `fetch_add` per increment, safe to bump from any
//!   thread.
//! * [`Histogram`] — a log-linear latency histogram (16 buckets per
//!   power of two) whose memory is the range of buckets it has
//!   touched, never the sample count; its percentiles sit at most
//!   1/16 above the exact nearest-rank sample.
//! * [`Stopwatch`] — a monotonic-clock span timer
//!   ([`Instant`](std::time::Instant)-based, never affected by wall
//!   clock adjustments).
//! * [`percentile`] — exact nearest-rank percentile over a sorted
//!   sample (the one true implementation; callers must not hand-roll
//!   it). [`Histogram::percentile`] ranks the same way.
//! * [`normalize_zero`] — collapses IEEE `-0.0` to `+0.0` at
//!   formatting boundaries so objective sums never print as `-0.00`.
//! * [`round_metric`] — fixed-precision rounding (plus the signed-zero
//!   collapse) for latency/wall-clock/throughput metrics at the
//!   serialization boundary, so committed bench JSON carries `8.55`
//!   rather than `8.549999999999999`.
//!
//! The crate is deliberately dependency-free and holds no sink: each
//! layer keeps its own record (tdmd-core's `ENGINE` counters, the
//! online engine's `RepairStats`, the joint solver's `JointSolution`),
//! and a caller times the call it makes with a [`Stopwatch`].
//! Serialization (e.g. the `tdmd bench` JSON) is the caller's concern.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counter;
mod hist;
mod timer;

pub use counter::Counter;
pub use hist::Histogram;
pub use timer::Stopwatch;

/// Exact nearest-rank percentile of an ascending-sorted sample.
///
/// `p` is in percent (`0.0..=100.0`); `p = 0` returns the minimum,
/// `p = 100` the maximum. Out-of-range `p` is clamped (and rejected by
/// a debug assertion), as are unsorted or NaN-bearing inputs — both
/// would silently return a wrong rank, which is exactly the bug class
/// this function exists to prevent.
///
/// An empty sample yields the sentinel `0.0` — never NaN — which keeps
/// legacy aggregate reports finite but is indistinguishable from a
/// genuine zero-valued sample. [`Histogram::percentile`] reports the
/// empty case as `None` instead.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(
        (0.0..=100.0).contains(&p),
        "percentile {p} outside [0, 100]"
    );
    debug_assert!(
        sorted.iter().all(|x| !x.is_nan()),
        "NaN in percentile sample"
    );
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "percentile sample is not sorted ascending"
    );
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = nearest_rank(p, sorted.len() as u64);
    sorted[rank as usize - 1]
}

/// 1-based nearest rank of the `p`-th percentile among `n ≥ 1`
/// samples: `⌈p/100 · n⌉`, at least 1 and at most `n`, with `p`
/// clamped to `[0, 100]`. Shared by [`percentile`] and
/// [`Histogram::percentile`], so both name the same sample.
fn nearest_rank(p: f64, n: u64) -> u64 {
    let p = p.clamp(0.0, 100.0);
    (((p / 100.0) * n as f64).ceil().max(1.0) as u64).min(n)
}

/// Collapses signed zero: `-0.0` formats as `-0.00`, which reads as a
/// (nonexistent) negative objective. Apply at the formatting boundary
/// of any `f64` produced by summation. Every other value — including
/// NaN — passes through unchanged.
#[inline]
pub fn normalize_zero(x: f64) -> f64 {
    if x == 0.0 {
        0.0
    } else {
        x
    }
}

/// Rounds a measured metric (latency, wall-clock, throughput) to
/// `decimals` fractional digits for serialization, collapsing signed
/// zero like [`normalize_zero`]. Percentile interpolation and µs→s
/// conversions leave float noise (`8.549999999999999`) that would
/// churn committed JSON artifacts meaninglessly; rounding to the
/// nearest representable of the `decimals`-digit value makes the
/// serialized shortest-round-trip representation the human-scale one
/// (`8.55`). Not for objective values — those are exact sums whose
/// full precision is the point. Non-finite values pass through
/// unchanged.
#[inline]
pub fn round_metric(x: f64, decimals: u32) -> f64 {
    if !x.is_finite() {
        return x;
    }
    let scale = 10f64.powi(decimals.min(12).try_into().unwrap_or(12));
    normalize_zero((x * scale).round() / scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank_endpoints() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.0), 1.0, "p=0 is the minimum");
        assert_eq!(percentile(&s, 100.0), 4.0, "p=100 is the maximum");
        assert_eq!(percentile(&s, 50.0), 2.0);
        assert_eq!(percentile(&s, 75.0), 3.0);
        assert_eq!(percentile(&s, 76.0), 4.0);
    }

    #[test]
    fn percentile_single_sample_is_that_sample() {
        for p in [0.0, 37.5, 50.0, 99.0, 100.0] {
            assert_eq!(percentile(&[42.0], p), 42.0, "p={p}");
        }
    }

    #[test]
    fn percentile_empty_sample_is_zero() {
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    // The rejection tests only exist in debug builds, where the
    // debug_asserts fire; release builds clamp / pass through instead.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside [0, 100]")]
    fn percentile_rejects_out_of_range_p() {
        let _ = percentile(&[1.0, 2.0], 150.0);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn percentile_clamps_out_of_range_p_in_release() {
        assert_eq!(percentile(&[1.0, 2.0], 150.0), 2.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "NaN in percentile sample")]
    fn percentile_rejects_nan_samples() {
        let _ = percentile(&[1.0, f64::NAN], 50.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not sorted")]
    fn percentile_rejects_unsorted_samples() {
        let _ = percentile(&[3.0, 1.0], 50.0);
    }

    #[test]
    fn normalize_zero_fixes_negative_zero_only() {
        assert_eq!(normalize_zero(-0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(format!("{:.2}", normalize_zero(-0.0)), "0.00");
        assert_eq!(normalize_zero(1.5), 1.5);
        assert_eq!(normalize_zero(-1.5), -1.5);
        assert!(normalize_zero(f64::NAN).is_nan());
    }
}
