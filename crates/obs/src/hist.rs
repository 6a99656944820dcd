//! [`Histogram`] — log-linear latency histogram in bounded memory.

use crate::nearest_rank;

/// Linear sub-buckets per power of two, as a power of two: each
/// octave `[2^e, 2^(e+1))` splits into 16 buckets of equal width.
const SUB_BITS: u32 = 4;

/// Right shift that keeps a float's exponent field and the top
/// [`SUB_BITS`] bits of its mantissa — exactly the log-linear bucket.
const SHIFT: u32 = f64::MANTISSA_DIGITS - 1 - SUB_BITS;

/// `f64::MIN_POSITIVE.to_bits() >> SHIFT` minus one: subtracted so the
/// smallest normal float lands in bucket 1, leaving bucket 0 for zero.
const NORMAL_BASE: u64 = (f64::MIN_POSITIVE.to_bits() >> SHIFT) - 1;

/// Log-linear histogram of non-negative samples (typically µs
/// latencies).
///
/// Bucket 0 holds exact zeros. Every other bucket is one sixteenth of
/// a power of two, `[2^e·(16+j)/16, 2^e·(17+j)/16)` for `j` in
/// `0..16`, so a bucket's upper bound is at most 17/16 of any sample
/// in it. The bucket of a sample is read straight off its bit
/// pattern, its exponent and top four mantissa bits.
///
/// [`Histogram::percentile`] reports the upper bound of the bucket
/// that holds the exact nearest-rank sample, clamped to the largest
/// sample seen. For samples that are `0` or normal floats (at least
/// [`f64::MIN_POSITIVE`], which covers every real latency), the report
/// therefore lies in `[exact, min(exact·17/16, max)]`, `p = 100`
/// reports the maximum exactly, and counts are exact. Negative, NaN
/// and subnormal samples record as `0`; `+∞` records as [`f64::MAX`].
///
/// Memory holds only the range of buckets between the smallest and
/// the largest sample seen: an empty histogram allocates nothing, one
/// sample costs one bucket, and latencies spanning 0.05 µs to 10 ms
/// touch about 300 buckets. It never grows with the sample count.
#[derive(Debug, Default)]
pub struct Histogram {
    /// Bucket index of `counts[0]`.
    lo: u32,
    /// Sample counts of buckets `lo..lo + counts.len()`.
    counts: Vec<u64>,
    count: u64,
    max: f64,
}

impl Histogram {
    /// Empty histogram; allocates nothing.
    pub const fn new() -> Self {
        Self {
            lo: 0,
            counts: Vec::new(),
            count: 0,
            max: 0.0,
        }
    }

    /// The sample as recorded: see the clamping rules on [`Histogram`].
    #[inline]
    fn clamp(value: f64) -> f64 {
        if value >= f64::MIN_POSITIVE {
            value.min(f64::MAX)
        } else {
            0.0
        }
    }

    /// Bucket index of a clamped sample: 0 for zero (whose bits are
    /// 0). A normal float's exponent field is 1..=2046, so its index is
    /// in 1..=32736 and the cast is exact.
    #[inline]
    fn bucket_of(v: f64) -> u32 {
        (v.to_bits() >> SHIFT).saturating_sub(NORMAL_BASE) as u32
    }

    /// Upper bound of bucket `i`: 0 for the zero bucket, else the
    /// smallest float of bucket `i + 1` (`+∞` past the last one).
    #[inline]
    fn upper_bound(i: u32) -> f64 {
        if i == 0 {
            0.0
        } else {
            f64::from_bits((u64::from(i) + 1 + NORMAL_BASE) << SHIFT)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        let v = Self::clamp(value);
        let b = Self::bucket_of(v);
        if self.counts.is_empty() {
            self.lo = b;
            self.counts.push(0);
        } else if b < self.lo {
            let grow = (self.lo - b) as usize;
            self.counts.splice(0..0, std::iter::repeat_n(0, grow));
            self.lo = b;
        } else if (b - self.lo) as usize >= self.counts.len() {
            self.counts.resize((b - self.lo) as usize + 1, 0);
        }
        self.counts[(b - self.lo) as usize] += 1;
        self.count += 1;
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `p`-th percentile (`p` in percent, nearest rank, as
    /// [`crate::percentile`] ranks a sorted sample), or `None` when no
    /// sample was recorded. See [`Histogram`] for how far the report
    /// can sit above the exact sample.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        debug_assert!(
            (0.0..=100.0).contains(&p),
            "percentile {p} outside [0, 100]"
        );
        if self.count == 0 {
            return None;
        }
        let rank = nearest_rank(p, self.count);
        let mut seen = 0u64;
        for (i, &c) in (self.lo..).zip(&self.counts) {
            seen += c;
            if seen >= rank {
                return Some(Self::upper_bound(i).min(self.max));
            }
        }
        Some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_split_each_octave_sixteen_ways() {
        assert_eq!(Histogram::bucket_of(0.0), 0);
        assert_eq!(Histogram::bucket_of(f64::MIN_POSITIVE), 1);
        let one = Histogram::bucket_of(1.0);
        assert_eq!(Histogram::bucket_of(1.0624), one, "[1, 17/16)");
        assert_eq!(Histogram::bucket_of(1.0625), one + 1);
        assert_eq!(Histogram::bucket_of(1.999), one + 15);
        assert_eq!(Histogram::bucket_of(2.0), one + 16);
        assert_eq!(Histogram::bucket_of(3.0), one + 24, "[3, 3.125)");
        assert_eq!(Histogram::upper_bound(one), 1.0625);
        assert_eq!(Histogram::upper_bound(one + 15), 2.0);
        assert_eq!(Histogram::upper_bound(one + 24), 3.125);
        assert_eq!(
            Histogram::upper_bound(Histogram::bucket_of(f64::MAX)),
            f64::INFINITY
        );
    }

    #[test]
    fn percentiles_report_bucket_upper_bounds_clamped_to_the_max() {
        let mut h = Histogram::new();
        for v in [0.5, 1.5, 2.5, 100.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.percentile(0.0), Some(0.53125), "0.5 in [0.5, 0.53125)");
        assert_eq!(h.percentile(50.0), Some(1.5625), "1.5 in [1.5, 1.5625)");
        assert_eq!(h.percentile(75.0), Some(2.625), "2.5 in [2.5, 2.625)");
        assert_eq!(h.percentile(100.0), Some(100.0), "clamped to the max");
    }

    #[test]
    fn the_range_grows_downward_as_well_as_upward() {
        let mut h = Histogram::new();
        h.record(8.0);
        h.record(1.0);
        h.record(0.0);
        h.record(4.0);
        assert_eq!(h.counts.len() as u32, Histogram::bucket_of(8.0) + 1);
        assert_eq!(h.percentile(0.0), Some(0.0));
        assert_eq!(h.percentile(50.0), Some(1.0625));
        assert_eq!(h.percentile(75.0), Some(4.25));
        assert_eq!(h.percentile(100.0), Some(8.0));
    }

    #[test]
    fn the_default_histogram_allocates_nothing() {
        assert_eq!(Histogram::default().counts.capacity(), 0);
        assert_eq!(Histogram::new().counts.capacity(), 0);
    }

    #[test]
    fn a_one_sample_histogram_holds_one_bucket() {
        for x in [0.0, 0.403, 1.0, 1e6, f64::MAX, -1.0] {
            let mut h = Histogram::new();
            h.record(x);
            assert_eq!(h.counts, [1], "{x}");
        }
    }
}
