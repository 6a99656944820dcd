//! [`Counter`] — a relaxed atomic event counter.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic event counter safe to bump from any thread.
///
/// All operations use `Relaxed` ordering: counts are telemetry, not
/// synchronization, and readers only ever see them at quiescent
/// points (snapshots between solver runs).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Zeroed counter, usable in `static` position.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero, returning the previous value.
    pub fn reset(&self) -> u64 {
        self.0.swap(0, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_resets() {
        let c = Counter::new();
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
        assert_eq!(c.reset(), 42);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn concurrent_increments_never_lose_updates() {
        // Real OS threads, so increments genuinely contend.
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
    }
}
