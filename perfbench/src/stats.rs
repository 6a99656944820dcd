//! Order statistics over timing samples.

/// Median of `samples` (mean of the two middle values for an even
/// count); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A latency percentile as reported.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Tail {
    value: f64,
    /// The percentile actually read: the requested one, or lower when
    /// fewer than [`TAIL_SUPPORT`] samples lie beyond it.
    percentile: f64,
}

/// Samples a reported percentile must have beyond it.
const TAIL_SUPPORT: usize = 10;

/// Nearest-rank percentile `p` of ascending `sorted`, capped at the
/// highest rank that still leaves [`TAIL_SUPPORT`] samples beyond it
/// (every sample counts when there are fewer than that many).
fn tail(sorted: &[f64], p: f64) -> Tail {
    let n = sorted.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: p,
        };
    }
    // The epsilon keeps p99.9 of 20,000 samples at rank 19,980
    // despite 99.9 having no exact binary form.
    let wanted = ((p / 100.0) * n as f64 - 1e-9).ceil() as usize;
    let rank = wanted.min(n.saturating_sub(TAIL_SUPPORT)).clamp(1, n);
    Tail {
        value: sorted[rank - 1],
        percentile: if rank == wanted {
            p
        } else {
            100.0 * rank as f64 / n as f64
        },
    }
}

/// Throughput and latency percentiles taken per group of ops — a
/// block of serve lines, or a window of calls — and reported as medians
/// over the groups, so that a burst of host noise, one stretch of
/// expensive repairs or one slow input does not set the figure alone.
#[derive(Debug, Default)]
pub struct Groups {
    /// `[throughput, p50, p99]` of every group.
    rows: Vec<[f64; 3]>,
    /// Percentile the last group's p99 was read at.
    pub read_at: f64,
}

/// The metrics [`Groups`] reports, in its column order.
pub const GROUP_METRICS: [&str; 3] = ["throughput", "latency_p50_us", "latency_p99_us"];

impl Groups {
    /// Closes a group that completed `ops` ops in `busy_s` seconds;
    /// `latencies_us` holds its latency samples and is left empty.
    pub fn close(&mut self, ops: f64, busy_s: f64, latencies_us: &mut Vec<f64>) {
        latencies_us.sort_by(f64::total_cmp);
        let p99 = tail(latencies_us, 99.0);
        self.rows
            .push([ops / busy_s, tail(latencies_us, 50.0).value, p99.value]);
        self.read_at = p99.percentile;
        latencies_us.clear();
    }

    /// Whether no group has been closed.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The median over groups of column `i` (see [`GROUP_METRICS`]).
    pub fn value(&self, i: usize) -> f64 {
        let column: Vec<f64> = self.rows.iter().map(|r| r[i]).collect();
        median(&column)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_the_reported_rank() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&sorted, 50.0).value, 500.0);
        assert_eq!(tail(&sorted, 99.0).value, 990.0);
        // p99.9 would leave one sample beyond it: capped at rank 990.
        let t = tail(&sorted, 99.9);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.percentile, 99.0);
        let big: Vec<f64> = (1..=20_000).map(f64::from).collect();
        assert_eq!(tail(&big, 99.9).value, 19_980.0);
    }

    #[test]
    fn groups_report_the_median_group() {
        let mut groups = Groups::default();
        for v in [1.0, 3.0, 100.0] {
            groups.close(2.0, v, &mut vec![v]);
        }
        assert!(!groups.is_empty());
        assert_eq!(groups.value(0), 2.0 / 3.0);
        assert_eq!(groups.value(1), 3.0);
    }
}
