//! Shared reclaimer plumbing: the global era clock used by the epoch- and
//! interval-based schemes and the orphan pool that absorbs records whose
//! retiring thread deregistered before they became provably safe. Lives in
//! `smr-common` so both the baseline reclaimers and the Publish-on-Ping
//! family (`smr-pop`) build on the same primitives.

use crate::retired::Retired;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// A global monotonically increasing era/epoch counter.
#[derive(Debug, Default)]
pub struct EraClock {
    era: AtomicU64,
}

impl EraClock {
    /// Starts the clock at era 1 (era 0 is reserved for "never born", so a
    /// record allocated before any advance still has a valid interval).
    pub fn new() -> Self {
        Self {
            era: AtomicU64::new(1),
        }
    }

    /// The current era.
    #[inline]
    pub fn now(&self) -> u64 {
        self.era.load(Ordering::SeqCst)
    }

    /// Advances the era by one, returning the new value.
    #[inline]
    pub fn advance(&self) -> u64 {
        self.era.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Advances the era only if it still equals `seen` (avoids redundant
    /// advances when many threads race to bump the epoch).
    #[inline]
    pub fn advance_from(&self, seen: u64) -> bool {
        self.era
            .compare_exchange(seen, seen + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }
}

/// Records whose owner deregistered before they were provably safe. They are
/// destroyed when the reclaimer itself is dropped, at which point no thread
/// can hold references to them.
///
/// `parked` mirrors the vector's length and is written only under the lock,
/// so the common case — every scan of every scheme asking an empty pool —
/// reads one shared word instead of taking the mutex.
#[derive(Debug, Default)]
pub struct OrphanPool {
    records: Mutex<Vec<Retired>>,
    parked: AtomicUsize,
}

impl OrphanPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds records to the pool.
    pub fn adopt(&self, records: Vec<Retired>) {
        if records.is_empty() {
            return;
        }
        let mut pool = self.records.lock().unwrap();
        pool.extend(records);
        self.parked.store(pool.len(), Ordering::Release);
    }

    /// Number of records currently parked.
    pub fn len(&self) -> usize {
        self.parked.load(Ordering::Acquire)
    }

    /// True when the pool holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes every parked record out of the pool, transferring ownership to
    /// the caller — the survivor-adoption path: a live thread folds a
    /// departed peer's leftovers into its own limbo bag, where they flow
    /// through the scheme's ordinary protection-checked sweep instead of
    /// waiting for the reclaimer's `Drop`. Moving a [`Retired`] is safe;
    /// only freeing is not.
    ///
    /// Non-blocking on the reclamation path: an empty pool is answered from
    /// the `parked` count without touching the mutex, and a held one
    /// (another thread adopting or taking) yields nothing this round. Either
    /// way, records deposited meanwhile wait for the caller's next scan.
    pub fn take_all(&self) -> Vec<Retired> {
        if self.is_empty() {
            return Vec::new();
        }
        match self.records.try_lock() {
            Ok(mut records) => {
                self.parked.store(0, Ordering::Release);
                std::mem::take(&mut *records)
            }
            Err(_) => Vec::new(),
        }
    }

    /// Destroys every parked record.
    ///
    /// # Safety
    /// Callable only when no thread can reference the records any more
    /// (normally from the reclaimer's `Drop`).
    pub unsafe fn drain_and_free(&self) {
        let mut records = self.records.lock().unwrap();
        self.parked.store(0, Ordering::Release);
        for r in records.drain(..) {
            r.reclaim();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::NodeHeader;

    struct N {
        header: NodeHeader,
    }
    crate::impl_smr_node!(N);

    #[test]
    fn era_clock_monotonic() {
        let c = EraClock::new();
        let a = c.now();
        let b = c.advance();
        assert!(b > a);
        assert_eq!(c.now(), b);
    }

    #[test]
    fn advance_from_only_succeeds_on_match() {
        let c = EraClock::new();
        let seen = c.now();
        assert!(c.advance_from(seen));
        assert!(!c.advance_from(seen), "stale advance must fail");
        assert_eq!(c.now(), seen + 1);
    }

    #[test]
    fn orphan_pool_holds_and_frees() {
        let pool = OrphanPool::new();
        assert!(pool.is_empty());
        let raws: Vec<_> = (0..3)
            .map(|_| {
                crate::recycle::alloc_node_raw(N {
                    header: NodeHeader::new(),
                })
            })
            .collect();
        let retired = raws
            .iter()
            .map(|&r| unsafe { Retired::new(r, 0) })
            .collect();
        pool.adopt(retired);
        assert_eq!(pool.len(), 3);
        unsafe { pool.drain_and_free() };
        assert!(pool.is_empty());
    }

    #[test]
    fn take_all_transfers_ownership_to_survivor() {
        let pool = OrphanPool::new();
        let raws: Vec<_> = (0..4)
            .map(|_| {
                crate::recycle::alloc_node_raw(N {
                    header: NodeHeader::new(),
                })
            })
            .collect();
        let retired: Vec<Retired> = raws
            .iter()
            .map(|&r| unsafe { Retired::new(r, 0) })
            .collect();
        pool.adopt(retired);
        let taken = pool.take_all();
        assert_eq!(taken.len(), 4);
        assert!(pool.is_empty(), "take_all must empty the pool");
        assert!(pool.take_all().is_empty());
        for r in taken {
            // SAFETY: test-local records; nothing else references them.
            unsafe { r.reclaim() };
        }
    }
}
