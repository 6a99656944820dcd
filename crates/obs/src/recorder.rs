//! The [`Recorder`] sink trait and its two canonical implementations.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Sink for named telemetry emitted by instrumented code.
///
/// Instrumented hot paths are generic over `R: Recorder` and default
/// to [`NoopRecorder`]; its methods are empty `#[inline]` bodies and
/// [`Recorder::ENABLED`] is `false`, so monomorphization erases both
/// the calls *and* any clock reads guarded by `R::ENABLED` — the
/// disabled configuration costs literally nothing.
///
/// Names are `&'static str` by design: they form the stable telemetry
/// schema (the `tdmd bench` JSON keys), not free-form strings.
pub trait Recorder: Sync {
    /// Whether this recorder consumes events. Instrumentation guards
    /// expensive measurements (e.g. `Instant::now()`) behind this
    /// constant so disabled telemetry skips them entirely.
    const ENABLED: bool = true;

    /// Adds `delta` to the named counter.
    fn count(&self, name: &'static str, delta: u64);

    /// Records one sample (e.g. a span latency in µs) under `name`.
    fn sample(&self, name: &'static str, value: f64);
}

/// The default recorder: ignores everything at zero cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    const ENABLED: bool = false;

    #[inline(always)]
    fn count(&self, _name: &'static str, _delta: u64) {}

    #[inline(always)]
    fn sample(&self, _name: &'static str, _value: f64) {}
}

impl<R: Recorder> Recorder for &R {
    const ENABLED: bool = R::ENABLED;

    #[inline]
    fn count(&self, name: &'static str, delta: u64) {
        (**self).count(name, delta);
    }

    #[inline]
    fn sample(&self, name: &'static str, value: f64) {
        (**self).sample(name, value);
    }
}

/// Collecting recorder: named counters plus raw sample vectors, for
/// exact percentile reporting after a run. Mutex-guarded maps — this
/// is the *enabled* path, used by benches and the CLI, where a lock
/// per event is dwarfed by the event itself. A poisoned lock (a
/// panicked writer) is survivable — the maps hold only monotone
/// telemetry, never partially-updated pairs — so every lock recovers
/// the inner value rather than unwrapping.
#[derive(Debug, Default)]
pub struct StatsRecorder {
    counters: Mutex<BTreeMap<&'static str, u64>>,
    samples: Mutex<BTreeMap<&'static str, Vec<f64>>>,
}

impl StatsRecorder {
    /// Empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Value of a named counter (0 if never counted).
    pub fn counter(&self, name: &str) -> u64 {
        *self
            .counters
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(name)
            .unwrap_or(&0)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.counters
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect()
    }

    /// Ascending-sorted copy of the named sample vector (empty if the
    /// name was never sampled). Sorted with `total_cmp`, ready for
    /// [`crate::percentile`].
    pub fn sorted_samples(&self, name: &str) -> Vec<f64> {
        let mut v = self
            .samples
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(name)
            .cloned()
            .unwrap_or_default();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Number of samples recorded under `name`.
    pub fn sample_count(&self, name: &str) -> usize {
        self.samples
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(name)
            .map_or(0, Vec::len)
    }
}

impl Recorder for StatsRecorder {
    fn count(&self, name: &'static str, delta: u64) {
        *self
            .counters
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .entry(name)
            .or_insert(0) += delta;
    }

    fn sample(&self, name: &'static str, value: f64) {
        self.samples
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .entry(name)
            .or_default()
            .push(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_is_statically_disabled() {
        // Checked at compile time: the flag (and its forwarding
        // through &R) is what erases guarded clock reads.
        const {
            assert!(!NoopRecorder::ENABLED);
            assert!(!<&NoopRecorder as Recorder>::ENABLED);
        }
        // Calls are accepted and discard everything.
        NoopRecorder.count("x", 5);
        NoopRecorder.sample("y", 1.0);
    }

    #[test]
    fn stats_recorder_accumulates_counters_and_samples() {
        let r = StatsRecorder::new();
        r.count("evals", 2);
        r.count("evals", 3);
        r.sample("lat", 30.0);
        r.sample("lat", 10.0);
        r.sample("lat", 20.0);
        assert_eq!(r.counter("evals"), 5);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.sorted_samples("lat"), vec![10.0, 20.0, 30.0]);
        assert_eq!(r.counters(), vec![("evals".to_string(), 5)]);
    }

    #[test]
    fn stats_recorder_is_thread_safe() {
        let r = StatsRecorder::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let r = &r;
                s.spawn(move || {
                    for i in 0..2_500 {
                        r.count("n", 1);
                        r.sample("v", i as f64);
                    }
                });
            }
        });
        assert_eq!(r.counter("n"), 10_000);
        assert_eq!(r.sample_count("v"), 10_000);
    }

    #[test]
    fn reference_recorder_forwards() {
        let r = StatsRecorder::new();
        let by_ref: &StatsRecorder = &r;
        by_ref.count("c", 1);
        by_ref.sample("s", 2.0);
        assert_eq!(r.counter("c"), 1);
        assert_eq!(r.sample_count("s"), 1);
    }
}
