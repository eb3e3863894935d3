//! A counting global allocator for peak-memory trials (E2).
//!
//! The paper measures "max resident memory" of the whole process (Figures 4c
//! and 4d). The portable equivalent used here is *peak live heap bytes*: a
//! wrapper around the system allocator that tracks current and peak
//! outstanding allocation. Binaries opt in with:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: smr_harness::alloc_track::CountingAlloc = smr_harness::alloc_track::CountingAlloc;
//! ```
//!
//! The counters are process-global statics, so the harness can read them even
//! though the allocator is installed by the binary, and they cost two relaxed
//! atomic RMWs per allocation — negligible next to the allocation itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

static CURRENT_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);
static TOTAL_ALLOCS: AtomicU64 = AtomicU64::new(0);
static ENABLED: AtomicUsize = AtomicUsize::new(0);

/// A `System`-backed allocator that tracks live and peak heap usage.
pub struct CountingAlloc;

// SAFETY: defers to `System` for every allocation; the layout contracts are
// passed through unchanged, counters are side effects only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            ENABLED.store(1, Ordering::Relaxed);
            TOTAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
            grow(&CURRENT_BYTES, &PEAK_BYTES, layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        CURRENT_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(&CURRENT_BYTES, &PEAK_BYTES, new_size - layout.size());
            } else {
                CURRENT_BYTES.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Adds `bytes` to `current` and raises `peak` to the new total, which it
/// returns. Wrapping, like the `fetch_sub` of a free: a free that
/// over-reports its layout wraps `current` below zero, and a checked add
/// here would then panic inside the global allocator and abort the process.
/// Wrapped, the footprint reads absurdly high instead, which the footprint
/// assertions report.
#[inline]
fn grow(current: &AtomicUsize, peak: &AtomicUsize, bytes: usize) -> usize {
    let now = current
        .fetch_add(bytes, Ordering::Relaxed)
        .wrapping_add(bytes);
    peak.fetch_max(now, Ordering::Relaxed);
    now
}

/// True when the counting allocator is installed in this process (at least one
/// allocation has gone through it).
pub fn is_installed() -> bool {
    ENABLED.load(Ordering::Relaxed) != 0
}

/// Bytes currently allocated and not yet freed.
pub fn current_bytes() -> usize {
    CURRENT_BYTES.load(Ordering::Relaxed)
}

/// Highest value `current_bytes` has reached since the last
/// [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Total number of allocations observed.
pub fn total_allocs() -> u64 {
    TOTAL_ALLOCS.load(Ordering::Relaxed)
}

/// Resets the peak to the current live size (called between trials so each
/// trial reports its own peak).
pub fn reset_peak() {
    PEAK_BYTES.store(CURRENT_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary does not install the allocator, so only the arithmetic
    // of the counters can be exercised directly.
    #[test]
    fn counters_start_consistent() {
        let before = peak_bytes();
        reset_peak();
        assert!(peak_bytes() <= before.max(current_bytes()));
    }

    #[test]
    fn manual_accounting_roundtrip() {
        // Simulate what alloc/dealloc do to the counters.
        let sz = 4096usize;
        let now = grow(&CURRENT_BYTES, &PEAK_BYTES, sz);
        assert!(peak_bytes() >= sz);
        CURRENT_BYTES.fetch_sub(sz, Ordering::Relaxed);
        reset_peak();
        assert!(peak_bytes() <= now);
    }

    #[test]
    fn growth_after_an_over_reported_free_wraps_instead_of_panicking() {
        let current = AtomicUsize::new(8);
        let peak = AtomicUsize::new(8);
        // A free that reports 8 bytes more than were allocated.
        current.fetch_sub(16, Ordering::Relaxed);
        assert_eq!(grow(&current, &peak, 4), usize::MAX - 3);
        assert_eq!(
            peak.load(Ordering::Relaxed),
            usize::MAX - 3,
            "the footprint reads absurdly high"
        );
        assert_eq!(grow(&current, &peak, 8), 4, "and wraps back past zero");
    }
}
