//! Explicit numeric conversions for the index-heavy engine paths.
//!
//! The greedy engines juggle three integer domains: dense `u32` ids
//! (flow ids, [`NodeId`](tdmd_graph::NodeId)s, CSR offsets), `usize`
//! slice indices, and `f64` metric space. Bare `as` casts blur the
//! three — a silent truncation in a narrowing cast corrupts an index
//! without a diagnostic. The `tdmd-audit` lint (`cargo xtask lint`,
//! rule `as-cast`) therefore bans `as` numeric casts inside
//! `crates/core/src/algorithms/` and `crates/online/src/`; these
//! helpers are the sanctioned replacements, each encoding its
//! direction and failure mode in its name:
//!
//! * [`ix`] — lossless `u32 → usize` widening (indexing);
//! * [`id32`] / [`id16`] — checked `usize → u32`/`u16` narrowing
//!   (panics on overflow, which no supported instance size reaches);
//! * [`big_ix`] / [`wide`] — checked `u64 → usize` and lossless
//!   `usize → u64` for the pseudo-polynomial DP's rate-indexed tables;
//! * [`approx_f64`] — `u64 → f64` for rate arithmetic (exact below
//!   2⁵³, the IEEE double integer range; rates live far below it);
//! * [`rate_sum_f64`] — `u128 → f64` for a path class's rate sum;
//! * [`usize_f64`] — `usize → f64` for averaging counts.
//!
//! `u32 → f64` needs no helper: `f64::from` is lossless and explicit.

// `ix` relies on usize being at least 32 bits; every tier-1 target
// (x86-64, aarch64) satisfies this, and the assert turns a hypothetical
// 16-bit port into a compile error instead of silent truncation.
const _: () = assert!(std::mem::size_of::<usize>() >= std::mem::size_of::<u32>());

/// Widens a dense `u32` id (flow id, vertex id, CSR offset) to a slice
/// index. Lossless on every supported target (see the module const
/// assert).
#[inline(always)]
#[allow(clippy::cast_possible_truncation)] // guarded by the const assert above
pub fn ix(id: u32) -> usize {
    id as usize
}

/// Narrows a slice index to a dense `u32` id.
///
/// # Panics
/// Panics if `i` exceeds `u32::MAX`. Instances are bounded far below
/// 2³² vertices/flows (the CSR arena itself is `u32`-offset), so a hit
/// means an upstream accounting bug, not big data.
#[inline]
pub fn id32(i: usize) -> u32 {
    match u32::try_from(i) {
        Ok(v) => v,
        Err(_) => panic!("index {i} exceeds the u32 id space"),
    }
}

/// Narrows a slice index to a `u16` (DP knapsack backpointers, where
/// the budget dimension is bounded by the vertex count of practical
/// tree instances).
///
/// # Panics
/// Panics if `i` exceeds `u16::MAX`; the DP tables would not fit in
/// memory long before a 65 536-box budget, so a hit is a logic bug.
#[inline]
pub fn id16(i: usize) -> u16 {
    match u16::try_from(i) {
        Ok(v) => v,
        Err(_) => panic!("index {i} exceeds the u16 backpointer space"),
    }
}

/// Narrows a `u64` rate total to a table index.
///
/// # Panics
/// Panics if `x` exceeds `usize::MAX`. The DP allocates `O(x)` table
/// slots for such totals, so any value that trips this could never
/// have been tabulated anyway.
#[inline]
pub fn big_ix(x: u64) -> usize {
    match usize::try_from(x) {
        Ok(v) => v,
        Err(_) => panic!("rate total {x} exceeds the index space"),
    }
}

/// Widens a slice index to a `u64` rate total. Lossless on every
/// supported target (usize ≤ 64 bits).
///
/// # Panics
/// Never on supported targets; the error arm exists only for a
/// hypothetical >64-bit `usize` platform.
#[inline]
pub fn wide(i: usize) -> u64 {
    match u64::try_from(i) {
        Ok(v) => v,
        Err(_) => unreachable!("usize wider than 64 bits"),
    }
}

/// `u64 → f64` for rate arithmetic. Exact for values below 2⁵³; flow
/// rates are user-scale integers far below that, so the conversion is
/// exact in practice and monotone always.
#[inline(always)]
#[allow(clippy::cast_precision_loss)] // rates ≪ 2^53; documented above
pub fn approx_f64(x: u64) -> f64 {
    x as f64
}

/// `u128 → f64` for the exact rate sum of a path class. Rounds to the
/// nearest double, like [`approx_f64`] on the same value, so a class of
/// one flow weighs exactly what the flow does; exact below 2⁵³.
#[inline(always)]
#[allow(clippy::cast_precision_loss)] // rounds to nearest; documented above
pub fn rate_sum_f64(x: u128) -> f64 {
    x as f64
}

/// `usize → f64` for count/length arithmetic (averages, percentages).
/// Exact below 2⁵³ like [`approx_f64`].
#[inline(always)]
#[allow(clippy::cast_precision_loss)] // counts ≪ 2^53
pub fn usize_f64(x: usize) -> f64 {
    x as f64
}

/// Neumaier-compensated running sum for long-lived float accumulators
/// (the online engine's running objective terms).
///
/// A plain `f64 += / -=` accumulator drifts under long churn streams:
/// every update rounds, and cancellation between large insertions and
/// later removals amplifies the residue. This variant of Kahan
/// summation carries the rounding error of each update in a separate
/// compensation term, keeping the error of [`KahanSum::value`] at
/// O(ε) *per stream* instead of O(ε·n).
///
/// Two properties the online engine relies on:
///
/// * **Exactness preservation** — while every update is exactly
///   representable (integer rates × dyadic gains, the proptest
///   regime), the compensation stays `0.0` and `value()` is bitwise
///   the naive sum.
/// * **Exact re-sync** — [`KahanSum::reset`] adopts an externally
///   recomputed exact total with zero compensation, so a rebuild in
///   canonical order restores bitwise agreement with the from-scratch
///   sum.
#[derive(Debug, Clone, Copy, Default)]
pub struct KahanSum {
    sum: f64,
    compensation: f64,
}

impl KahanSum {
    /// Adopts an exactly-known total, clearing the compensation.
    #[inline]
    pub fn reset(&mut self, exact: f64) {
        self.sum = exact;
        self.compensation = 0.0;
    }

    /// Adds `x` with Neumaier compensation (which, unlike classic
    /// Kahan, also survives `|x|` exceeding `|sum|`).
    #[inline]
    pub fn add(&mut self, x: f64) {
        let t = self.sum + x;
        if self.sum.abs() >= x.abs() {
            self.compensation += (self.sum - t) + x;
        } else {
            self.compensation += (x - t) + self.sum;
        }
        self.sum = t;
    }

    /// Subtracts `x` (adds its negation).
    #[inline]
    pub fn sub(&mut self, x: f64) {
        self.add(-x);
    }

    /// The compensated running total.
    #[inline]
    pub fn value(&self) -> f64 {
        self.sum + self.compensation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ix_round_trips_with_id32() {
        for v in [0u32, 1, 7, u32::MAX] {
            assert_eq!(id32(ix(v)), v);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the u32 id space")]
    #[cfg(target_pointer_width = "64")]
    fn id32_rejects_overflow() {
        let _ = id32(u32::MAX as usize + 1);
    }

    #[test]
    fn float_conversions_are_exact_in_range() {
        assert_eq!(approx_f64(12345), 12345.0);
        assert_eq!(rate_sum_f64(12345), 12345.0);
        let big = u64::MAX - 1;
        assert_eq!(
            rate_sum_f64(u128::from(big)).to_bits(),
            approx_f64(big).to_bits()
        );
        assert_eq!(usize_f64(0), 0.0);
        assert_eq!(usize_f64(1 << 20), 1048576.0);
    }
}
