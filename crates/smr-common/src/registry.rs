//! Thread-slot registry.
//!
//! Every SMR algorithm in the paper's model is parameterised by the number of
//! participating threads `N`: NBR keeps an `N × R` reservation array, DEBRA an
//! `N`-entry epoch announcement array, HP an `N × K` hazard array, and so on.
//! The [`Registry`] hands out stable slot indices (`tid`s) to participating
//! threads and tracks which slots are active so scans and `signalAll` know whom
//! to visit.

use std::sync::atomic::{AtomicU64, Ordering};

/// Fixed-capacity registry assigning slot indices to participating threads.
///
/// Membership is one bit per slot, 64 slots to an `AtomicU64` word, so
/// visiting the active set reads `⌈capacity/64⌉` words however few threads
/// are registered.
#[derive(Debug)]
pub struct Registry {
    words: Box<[AtomicU64]>,
    capacity: usize,
}

/// The word holding `tid`'s bit, and the bit.
#[inline]
fn bit_of(tid: usize) -> (usize, u64) {
    (tid / 64, 1 << (tid % 64))
}

impl Registry {
    /// Creates a registry with room for `max_threads` concurrent participants.
    pub fn new(max_threads: usize) -> Self {
        assert!(max_threads > 0, "registry needs at least one slot");
        Self {
            words: (0..max_threads.div_ceil(64))
                .map(|_| AtomicU64::new(0))
                .collect(),
            capacity: max_threads,
        }
    }

    /// Maximum number of concurrently registered threads.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently registered threads.
    #[inline]
    pub fn registered(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Acquire).count_ones() as usize)
            .sum()
    }

    /// Claims a specific slot index. Panics if the slot is out of range and
    /// returns `false` if it is already owned (callers treat that as a usage
    /// error — the harness assigns distinct tids).
    pub fn register_tid(&self, tid: usize) -> bool {
        assert!(
            tid < self.capacity,
            "tid {tid} out of range (max_threads = {})",
            self.capacity
        );
        let (word, bit) = bit_of(tid);
        self.words[word].fetch_or(bit, Ordering::AcqRel) & bit == 0
    }

    /// Claims the first free slot, returning its index.
    pub fn register_any(&self) -> Option<usize> {
        (0..self.capacity).find(|&tid| self.register_tid(tid))
    }

    /// Releases a slot previously claimed with [`Registry::register_tid`] /
    /// [`Registry::register_any`].
    pub fn deregister(&self, tid: usize) {
        assert!(tid < self.capacity);
        let (word, bit) = bit_of(tid);
        self.words[word].fetch_and(!bit, Ordering::AcqRel);
    }

    /// Whether a slot is currently owned.
    #[inline]
    pub fn is_active(&self, tid: usize) -> bool {
        let (word, bit) = bit_of(tid);
        self.words[word].load(Ordering::Acquire) & bit != 0
    }

    /// Iterates over the indices of all currently active slots, in ascending
    /// order, from one `Acquire` snapshot of each word.
    ///
    /// Note: membership can change concurrently; SMR scans are written so that
    /// seeing a *stale* active slot is safe (it only makes reclamation more
    /// conservative), a slot that deregisters concurrently holds no
    /// references by contract, and one that registers after its word was read
    /// cannot reach a record retired before the scan began.
    pub fn active_tids(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(i, word)| {
            let mut bits = word.load(Ordering::Acquire);
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let tid = i * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    tid
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn register_and_deregister_roundtrip() {
        let r = Registry::new(4);
        assert_eq!(r.capacity(), 4);
        assert!(r.register_tid(2));
        assert!(!r.register_tid(2), "double registration must fail");
        assert!(r.is_active(2));
        assert_eq!(r.registered(), 1);
        r.deregister(2);
        assert!(!r.is_active(2));
        assert_eq!(r.registered(), 0);
    }

    #[test]
    fn register_any_fills_all_slots() {
        let r = Registry::new(3);
        let mut got = Vec::new();
        while let Some(t) = r.register_any() {
            got.push(t);
        }
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2]);
        assert_eq!(r.registered(), 3);
        assert!(r.register_any().is_none());
    }

    #[test]
    fn active_tids_reflects_membership() {
        let r = Registry::new(8);
        r.register_tid(1);
        r.register_tid(5);
        let active: Vec<usize> = r.active_tids().collect();
        assert_eq!(active, vec![1, 5]);
    }

    #[test]
    fn slots_span_words() {
        let r = Registry::new(130);
        assert_eq!(r.capacity(), 130);
        for tid in [0, 63, 64, 129] {
            assert!(r.register_tid(tid));
            assert!(!r.register_tid(tid), "double registration must fail");
        }
        assert_eq!(r.registered(), 4);
        assert_eq!(r.active_tids().collect::<Vec<_>>(), vec![0, 63, 64, 129]);
        r.deregister(63);
        r.deregister(129);
        assert!(r.is_active(0) && r.is_active(64));
        assert!(!r.is_active(63) && !r.is_active(129));
        assert_eq!(r.active_tids().collect::<Vec<_>>(), vec![0, 64]);
        r.deregister(0);
        r.deregister(64);
        assert_eq!(r.registered(), 0);
        assert_eq!(r.active_tids().next(), None);
    }

    #[test]
    fn active_tids_ascend_whatever_the_registration_order() {
        let r = Registry::new(200);
        for tid in [199, 5, 128, 64, 0, 127, 63] {
            assert!(r.register_tid(tid));
        }
        let active: Vec<usize> = r.active_tids().collect();
        assert_eq!(active, vec![0, 5, 63, 64, 127, 128, 199]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn register_out_of_range_panics() {
        let r = Registry::new(2);
        r.register_tid(2);
    }

    #[test]
    fn concurrent_registration_is_unique() {
        let r = Arc::new(Registry::new(16));
        let mut handles = Vec::new();
        for _ in 0..16 {
            let r = Arc::clone(&r);
            handles.push(thread::spawn(move || r.register_any().unwrap()));
        }
        let mut tids: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 16, "every thread must get a distinct tid");
    }
}
