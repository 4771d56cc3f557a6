//! What the operating system and the allocator say about a run: CPU
//! time, context switches, peak resident memory, allocation counts.
//!
//! Everything here degrades to "absent" (`None`), never to zero, where
//! the source does not exist: `/proc` off Linux, the allocator counters
//! in any binary that did not install [`CountingAlloc`]. Only the
//! `globe-bench` binary installs it, so no library crate and no other
//! bin changes behaviour by linking this module.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// `USER_HZ`: the unit of the CPU times in `/proc/<pid>/stat`. Fixed at
/// 100 on every Linux ABI Rust targets; without libc there is no
/// `sysconf` to ask.
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// Process-wide counters at one instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcSnapshot {
    /// User-mode CPU seconds, all threads.
    pub cpu_user_s: f64,
    /// Kernel-mode CPU seconds, all threads.
    pub cpu_sys_s: f64,
    /// Voluntary context switches, summed over live threads.
    pub vol_ctx: u64,
    /// Involuntary context switches, summed over live threads.
    pub invol_ctx: u64,
}

/// Reads the counters, or `None` where `/proc` is missing.
pub fn snapshot() -> Option<ProcSnapshot> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Field 2 (comm) may contain spaces; fields resume after its ')'.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3; utime and stime are fields 14 and 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    let mut vol_ctx = 0;
    let mut invol_ctx = 0;
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        let Ok(status) = std::fs::read_to_string(task.ok()?.path().join("status")) else {
            continue; // the thread exited between listing and reading
        };
        vol_ctx += status_field(&status, "voluntary_ctxt_switches:").unwrap_or(0);
        invol_ctx += status_field(&status, "nonvoluntary_ctxt_switches:").unwrap_or(0);
    }
    Some(ProcSnapshot {
        cpu_user_s: utime / CLOCK_TICKS_PER_SEC,
        cpu_sys_s: stime / CLOCK_TICKS_PER_SEC,
        vol_ctx,
        invol_ctx,
    })
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Resident set size of this process in MiB (`VmRSS`), or `None` where
/// `/proc` is missing.
pub fn rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    Some(status_field(&status, "VmRSS:")? as f64 / 1024.0)
}

static INSTALLED: AtomicBool = AtomicBool::new(false);
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus two counters. While counting is off (the
/// default, and every untraced run) an allocation pays one relaxed load
/// of a read-shared flag; the shared counters are only written in
/// traced runs, so end-to-end numbers never include their contention.
pub struct CountingAlloc;

// SAFETY: every call forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the added atomics neither allocate
// nor touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // The counters are statistics and publish no other data: Relaxed.
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        } else if !INSTALLED.load(Ordering::Relaxed) {
            INSTALLED.store(true, Ordering::Relaxed);
        }
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        // SAFETY: `ptr`/`layout` describe a live `System` block and
        // `new_size` is the caller's, all passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns the allocation counters on or off. A no-op (and
/// [`alloc_totals`] stays `None`) in a binary without [`CountingAlloc`].
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` since the process started counting,
/// or `None` when this binary does not route allocations through
/// [`CountingAlloc`].
pub fn alloc_totals() -> Option<(u64, u64)> {
    INSTALLED.load(Ordering::Relaxed).then(|| {
        (
            ALLOC_COUNT.load(Ordering::Relaxed),
            ALLOC_BYTES.load(Ordering::Relaxed),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        let status = "Name:\tx\nVmRSS:\t  20480 kB\nvoluntary_ctxt_switches:\t7\n";
        assert_eq!(status_field(status, "VmRSS:"), Some(20480));
        assert_eq!(status_field(status, "voluntary_ctxt_switches:"), Some(7));
        assert_eq!(status_field(status, "VmHWM:"), None);
    }

    #[test]
    fn absent_sources_are_none_not_zero() {
        // The test binary does not install the counting allocator.
        assert_eq!(alloc_totals(), None);
        if cfg!(target_os = "linux") {
            let snap = snapshot().expect("/proc on Linux");
            assert!(snap.cpu_user_s >= 0.0);
            assert!(rss_mib().expect("VmRSS") > 1.0);
        } else {
            assert_eq!(snapshot(), None);
            assert_eq!(rss_mib(), None);
        }
    }
}
