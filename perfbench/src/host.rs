//! Host-speed probe. The host switches every few seconds between
//! speeds up to half apart, on every workload alike, so a run times a
//! fixed kernel of the benchmark's own every [`INTERVAL_S`] between its
//! measured groups, and reports each timing at a reference speed using
//! the samples taken around it. The program under test never runs in
//! the kernel, so a change to the program cannot move it.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use crate::secs;
use crate::stats::median;

/// Keys the kernel sorts and hashes.
const N: usize = 8192;

/// The kernel's median time on the host the benchmark was tuned on (a
/// 2-vCPU KVM guest on an Intel Xeon, in its slower state), so that
/// timings reported there read close to raw ones.
const REFERENCE_US: f64 = 1600.0;

/// Samples taken in a row before and after a measured phase.
pub const EDGE_SAMPLES: usize = 16;

/// Least time between two samples taken during a run, so that the
/// samples spread evenly over it.
const INTERVAL_S: f64 = 0.05;

/// Samples within this many seconds of a timed stretch rescale it.
const WINDOW_S: f64 = 0.25;

/// The start and end of a timed stretch.
pub type Span = (Instant, Instant);

/// The kernel's buffers and its timings over one run.
#[derive(Debug)]
pub struct HostProbe {
    source: Vec<u64>,
    sorted: Vec<u64>,
    map: HashMap<u64, u64>,
    text: String,
    origin: Instant,
    /// Every timed sample: its midpoint in seconds since `origin`, and
    /// the kernel's time in microseconds. Ascending in time.
    samples: Vec<(f64, f64)>,
    /// When the last sample ended.
    last: Instant,
}

impl HostProbe {
    /// Allocates the kernel's buffers and runs it once, so that samples
    /// allocate nothing (start any memory meter after this).
    pub(crate) fn new() -> Self {
        let origin = Instant::now();
        let mut probe = Self {
            source: (0..N as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
            sorted: Vec::with_capacity(N),
            map: HashMap::with_capacity(N),
            text: String::with_capacity(32 * N),
            origin,
            samples: Vec::with_capacity(4096),
            last: origin,
        };
        black_box(probe.kernel());
        probe
    }

    /// Sorts, hashes and formats numbers: the kind of work the program
    /// does, so that the host slows it as it slows the program.
    fn kernel(&mut self) -> u64 {
        self.sorted.clear();
        self.sorted.extend_from_slice(&self.source);
        self.sorted.sort_unstable();
        self.map.clear();
        for (i, &k) in self.source.iter().enumerate() {
            self.map.insert(k, i as u64);
        }
        let hits: u64 = self.sorted.iter().filter_map(|k| self.map.get(k)).sum();
        self.text.clear();
        for &k in &self.source[..N / 4] {
            let _ = write!(self.text, "{},", (k >> 11) as f64 / 7.0);
        }
        hits ^ self.text.len() as u64
    }

    fn at(&self, t: Instant) -> f64 {
        secs(t.saturating_duration_since(self.origin))
    }

    /// Times the kernel once, after an untimed pass that brings its
    /// buffers back into cache: the workload's own footprint, which a
    /// change to the program may move, does not reach the timing.
    fn sample(&mut self) {
        black_box(self.kernel());
        let t = Instant::now();
        black_box(self.kernel());
        self.last = Instant::now();
        let mid = 0.5 * (self.at(t) + self.at(self.last));
        self.samples.push((mid, secs(self.last - t) * 1e6));
    }

    /// Takes `n` samples in a row, before a stretch that no sample
    /// has closely preceded.
    pub fn sample_n(&mut self, n: usize) {
        for _ in 0..n {
            self.sample();
        }
    }

    /// Samples if [`INTERVAL_S`] has passed since the last sample;
    /// called at the boundaries of a run's measured groups.
    pub fn maybe_sample(&mut self) {
        if secs(self.last.elapsed()) >= INTERVAL_S {
            self.sample();
        }
    }

    /// How much slower than the reference the host ran around `span`:
    /// the median of the samples taken so far within [`WINDOW_S`] of
    /// it, or the nearest sample when there is none.
    pub fn slowness(&self, span: Span) -> f64 {
        let (a, b) = (self.at(span.0) - WINDOW_S, self.at(span.1) + WINDOW_S);
        let near: Vec<f64> = self
            .samples
            .iter()
            .filter(|(t, _)| (a..=b).contains(t))
            .map(|&(_, us)| us)
            .collect();
        let us = if near.is_empty() {
            let mid = 0.5 * (a + b);
            self.samples
                .iter()
                .min_by(|x, y| (x.0 - mid).abs().total_cmp(&(y.0 - mid).abs()))
                .map_or(REFERENCE_US, |&(_, us)| us)
        } else {
            median(&near)
        };
        us / REFERENCE_US
    }

    /// `seconds` measured over `span`, at the reference speed.
    pub fn rescale(&self, span: Span, seconds: f64) -> f64 {
        seconds / self.slowness(span)
    }

    /// Median kernel time over the run, in microseconds.
    pub fn median_us(&self) -> f64 {
        let us: Vec<f64> = self.samples.iter().map(|&(_, us)| us).collect();
        median(&us)
    }

    /// The probe's reading as a note line.
    pub fn note(&self) -> String {
        let mut us: Vec<f64> = self.samples.iter().map(|&(_, us)| us).collect();
        us.sort_by(f64::total_cmp);
        let decile = |q: usize| us.get(q * us.len() / 10).copied().unwrap_or(0.0);
        format!(
            "host probe: {} samples, median {:.1} us (p10 {:.1}, p90 {:.1}); \
             timings are rescaled to the reference {REFERENCE_US} us by the samples \
             within {WINDOW_S} s of each",
            us.len(),
            self.median_us(),
            decile(1),
            decile(9)
        )
    }
}
