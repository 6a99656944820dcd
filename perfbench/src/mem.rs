//! Resident-memory high-water mark of this process, attributed to
//! the work after a chosen start.

/// Reads a `kB` field of `/proc/self/status`.
fn status_kb(field: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    /// glibc: hands free heap pages back to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns freed heap memory (of input generation, or of earlier
/// work) to the kernel, so that later allocations show as growth
/// instead of reusing it unseen.
fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: malloc_trim takes no pointers and only walks the
    // allocator's own arenas; no allocation is in progress on this
    // single-threaded benchmark while it runs.
    unsafe {
        malloc_trim(0);
    }
}

/// Peak-RSS meter: growth since [`RssMeter::start`].
#[derive(Debug, Clone, Copy)]
pub struct RssMeter {
    base_kb: u64,
}

impl RssMeter {
    /// Releases free heap pages, then resets the kernel's high-water
    /// mark to the current resident size (writing `5` to
    /// `clear_refs`), so that neither live inputs nor any earlier
    /// transient peak hides the growth that follows. Where the reset
    /// is refused, the high-water mark so far is the base instead.
    pub fn start() -> Self {
        release_free_heap();
        let reset = std::fs::write("/proc/self/clear_refs", "5").is_ok();
        let field = if reset { "VmRSS:" } else { "VmHWM:" };
        Self {
            base_kb: status_kb(field).unwrap_or(0),
        }
    }

    /// Peak resident size since [`RssMeter::start`] above the base, in
    /// MiB.
    pub fn peak_above_base_mb(&self) -> f64 {
        let hwm = status_kb("VmHWM:").unwrap_or(self.base_kb);
        hwm.saturating_sub(self.base_kb) as f64 / 1024.0
    }
}
