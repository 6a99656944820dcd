//! [`TotalGain`] — the one total-order `f64` wrapper every gain /
//! priority heap in the workspace keys on.
//!
//! Three call sites used to hand-roll the same `partial_cmp`-delegates-
//! to-`total_cmp` dance (the static engine's score ladder, HAT's
//! merge-cost min-heap, and the online CELF queue). Each
//! copy was an opportunity to get NaN handling subtly wrong — a NaN
//! gain inside a `BinaryHeap` silently scrambles the heap property
//! under `PartialOrd`-only comparators. `TotalGain` centralizes the
//! policy:
//!
//! * ordering is [`f64::total_cmp`] — a genuine total order (IEEE 754
//!   `totalOrder`), so `Ord`/`Eq` are honest and `PartialOrd` is the
//!   paired `Some(self.cmp(other))`;
//! * NaN is *rejected at construction* in debug builds
//!   ([`TotalGain::new`] debug-asserts) — gains are sums of products
//!   of finite rates and finite metrics, so a NaN is always an
//!   upstream bug, never data.
//!
//! The `tdmd-audit` lint (`cargo xtask lint`, rule `partial-cmp`)
//! enforces that any other `PartialOrd` impl on a gain wrapper is
//! backed by a paired `Ord` like this one.

use std::cmp::Ordering;

/// A gain/priority value with a total order ([`f64::total_cmp`]).
///
/// Construct through [`TotalGain::new`] so debug builds reject NaN at
/// the boundary; the raw value is reachable via [`TotalGain::get`] or
/// the public field-less accessor pattern used by heap comparators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TotalGain(f64);

impl TotalGain {
    /// Wraps a gain value.
    ///
    /// # Panics
    /// Debug builds panic on NaN — a NaN gain would silently corrupt
    /// every heap keyed on it (see the module docs).
    #[inline]
    pub fn new(gain: f64) -> Self {
        debug_assert!(!gain.is_nan(), "NaN gain entered an ordered context");
        Self(gain)
    }

    /// The wrapped value.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }
}

impl Eq for TotalGain {}

impl PartialOrd for TotalGain {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TotalGain {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_like_total_cmp() {
        let mut v = [
            TotalGain::new(2.0),
            TotalGain::new(-1.0),
            TotalGain::new(0.0),
            TotalGain::new(-0.0),
            TotalGain::new(f64::INFINITY),
        ];
        v.sort();
        let raw: Vec<f64> = v.iter().map(|g| g.get()).collect();
        assert_eq!(raw, vec![-1.0, -0.0, 0.0, 2.0, f64::INFINITY]);
        // total_cmp distinguishes the zeros: -0.0 sorts first.
        assert!(v[1].get().is_sign_negative() && v[2].get().is_sign_positive());
    }

    #[test]
    fn partial_cmp_is_the_paired_ord() {
        let a = TotalGain::new(1.0);
        let b = TotalGain::new(2.0);
        assert_eq!(a.partial_cmp(&b), Some(a.cmp(&b)));
        assert_eq!(a.partial_cmp(&a), Some(Ordering::Equal));
    }

    // Release builds skip the check (it is a debug_assert), so the
    // test only exists where the panic does.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "NaN gain")]
    fn nan_is_rejected_in_debug_builds() {
        let _ = TotalGain::new(f64::NAN);
    }

    #[test]
    fn works_as_a_binary_heap_key() {
        use std::collections::BinaryHeap;
        let mut h: BinaryHeap<TotalGain> = [3.5, -2.0, 7.25, 0.0]
            .into_iter()
            .map(TotalGain::new)
            .collect();
        assert_eq!(h.pop().map(TotalGain::get), Some(7.25));
        assert_eq!(h.pop().map(TotalGain::get), Some(3.5));
    }
}
