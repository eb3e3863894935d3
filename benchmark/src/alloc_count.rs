//! A counting `#[global_allocator]`: live bytes, their high-water mark, and
//! allocation calls / bytes, for `nbrplus.peak_heap_bytes` and the `alloc.*`
//! layer metrics.
//!
//! Two worker threads bumping one shared counter on every allocation would
//! bounce a cache line through the very path being measured, so each thread
//! batches its deltas in a `const`-initialised thread-local (no lazy
//! initialisation and no destructor, hence safe to touch from inside the
//! allocator) and folds them into the shared [`Ledger`] once they exceed
//! [`BATCH_BYTES`] or [`BATCH_CALLS`]. The peak is taken at fold time, so it
//! can lag the truth by at most `BATCH_BYTES` per thread — noise against the
//! megabytes it reports. Threads call [`flush_thread`] before they exit.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

const BATCH_BYTES: i64 = 16 * 1024;
const BATCH_CALLS: u64 = 256;

/// Shared totals. All updates are `Relaxed`: these are statistics that
/// publish no other data.
pub struct Ledger {
    live: AtomicI64,
    peak: AtomicI64,
    calls: AtomicU64,
    bytes: AtomicU64,
}

impl Ledger {
    pub const fn new() -> Self {
        Self {
            live: AtomicI64::new(0),
            peak: AtomicI64::new(0),
            calls: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// Folds in a batch: `delta` live bytes (signed), `calls` allocation
    /// calls that requested `bytes` bytes in total.
    pub fn apply(&self, delta: i64, calls: u64, bytes: u64) {
        let live = self.live.fetch_add(delta, Ordering::Relaxed) + delta;
        self.peak.fetch_max(live, Ordering::Relaxed);
        self.calls.fetch_add(calls, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    pub fn live(&self) -> i64 {
        self.live.load(Ordering::Relaxed)
    }

    /// High-water mark of `live` since the last [`Ledger::reset_peak`].
    pub fn peak(&self) -> i64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Restarts the high-water mark from the current live bytes.
    pub fn reset_peak(&self) {
        self.peak.store(self.live(), Ordering::Relaxed);
    }

    /// Allocation calls so far (frees are not counted).
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Bytes requested by those calls.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

impl Default for Ledger {
    fn default() -> Self {
        Self::new()
    }
}

/// The process-wide ledger behind [`Counting`].
pub static LEDGER: Ledger = Ledger::new();

thread_local! {
    /// This thread's unfolded `(live delta, calls, bytes)`.
    static PENDING: Cell<(i64, u64, u64)> = const { Cell::new((0, 0, 0)) };
}

#[inline]
fn note(delta: i64, calls: u64, bytes: u64) {
    // `try_with`: a thread's last frees can run after its TLS is torn down.
    let folded = PENDING.try_with(|p| {
        let (d, c, b) = p.get();
        let next = (d + delta, c + calls, b + bytes);
        if next.0.abs() >= BATCH_BYTES || next.1 >= BATCH_CALLS {
            p.set((0, 0, 0));
            LEDGER.apply(next.0, next.1, next.2);
        } else {
            p.set(next);
        }
    });
    if folded.is_err() {
        LEDGER.apply(delta, calls, bytes);
    }
}

/// Folds the calling thread's pending batch into [`LEDGER`].
pub fn flush_thread() {
    PENDING.with(|p| {
        let (d, c, b) = p.replace((0, 0, 0));
        LEDGER.apply(d, c, b);
    });
}

/// The system allocator, counted.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches only atomics and a destructor-free
// `const` thread-local, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    #[inline]
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64, 1, layout.size() as u64);
        System.alloc(layout)
    }

    #[inline]
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64, 1, layout.size() as u64);
        System.alloc_zeroed(layout)
    }

    #[inline]
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64), 0, 0);
        System.dealloc(ptr, layout)
    }

    #[inline]
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as i64 - layout.size() as i64, 1, new_size as u64);
        System.realloc(ptr, layout, new_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_peak_on_a_known_sequence() {
        let l = Ledger::new();
        l.apply(100, 1, 100);
        l.apply(50, 1, 50);
        l.apply(-120, 0, 0);
        l.apply(60, 1, 60);
        assert_eq!((l.live(), l.peak()), (90, 150));
        assert_eq!((l.calls(), l.bytes()), (3, 210));
        l.reset_peak();
        assert_eq!(l.peak(), 90);
        l.apply(-90, 0, 0);
        l.apply(20, 1, 20);
        assert_eq!(
            (l.live(), l.peak()),
            (20, 90),
            "peak never drops below its reset point"
        );
        l.apply(100, 1, 100);
        assert_eq!(l.peak(), 120);
    }

    #[test]
    fn global_allocator_sees_a_large_block_come_and_go() {
        // Other tests allocate concurrently, so compare against a block far
        // larger than anything they hold.
        const BIG: usize = 64 << 20;
        flush_thread();
        let before = LEDGER.live();
        let block = vec![1u8; BIG];
        flush_thread();
        assert!(LEDGER.live() - before > BIG as i64 / 2);
        assert!(LEDGER.peak() >= before + BIG as i64 / 2);
        drop(std::hint::black_box(block));
        flush_thread();
        assert!(LEDGER.live() - before < BIG as i64 / 2);
    }
}
