//! Versioned spin locks for optimistic lock-based data structures.
//!
//! The DGT external BST (David, Guerraoui & Trigonakis) and the lazy list use
//! the pattern the paper calls "synchronization-free searches followed by
//! updates": a traversal reads nodes without any synchronization, then the
//! update locks its target nodes and *validates* that they have not changed
//! since they were read. [`SeqLock`] packs a lock bit and a version counter in
//! one word so that "lock only if unchanged since version `v`" is a single CAS
//! — which is exactly the validation step those structures need (and stands in
//! for the ticket-lock-plus-version scheme of the original DGT code).
//!
//! Word layout:
//!
//! * bit 0 — the lock bit;
//! * bits 1..=62 — the version, advanced by every unlock (`+1` on an odd word
//!   clears the lock bit and carries into the version);
//! * bit 63 — the sticky **dead** bit. [`SeqLock::mark_dead`] sets it while
//!   the caller holds the lock, and nothing ever clears it. A node's logical
//!   deletion (the lazy list's mark, the DGT tree's "removed") lives here, so
//!   a node needs no separate flag word, and a reader learns "locked",
//!   "changed" and "deleted" from the one load.
//!
//! `read_version` returns the full word, and [`SeqLock::try_lock_at`] and
//! [`SeqLock::validate`] succeed only if the word is unlocked and unchanged.
//! Marking changes the word, so a version read before the mark fails both.

use crate::backoff::Backoff;
use std::sync::atomic::{AtomicU64, Ordering};

const LOCKED: u64 = 1;
const DEAD: u64 = 1 << 63;

/// A word-sized versioned spin lock.
#[derive(Debug, Default)]
pub struct SeqLock {
    state: AtomicU64,
}

impl SeqLock {
    /// A new, unlocked lock with version 0.
    pub const fn new() -> Self {
        Self {
            state: AtomicU64::new(0),
        }
    }

    /// Reads the current state word (version | lock bit). An odd value means
    /// the lock is currently held.
    #[inline]
    pub fn read_version(&self) -> u64 {
        self.state.load(Ordering::Acquire)
    }

    /// True when the lock is currently held.
    #[inline]
    pub fn is_locked(&self) -> bool {
        self.read_version() & LOCKED == LOCKED
    }

    /// True when `version` denotes a locked state.
    #[inline]
    pub fn version_is_locked(version: u64) -> bool {
        version & LOCKED == LOCKED
    }

    /// Attempts to acquire the lock if its state still equals `version`
    /// (which must be an unlocked version observed earlier). This is the
    /// "validate and lock" step of the optimistic update protocol.
    #[inline]
    pub fn try_lock_at(&self, version: u64) -> bool {
        if Self::version_is_locked(version) {
            return false;
        }
        self.state
            .compare_exchange(
                version,
                version | LOCKED,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// Attempts to acquire the lock regardless of the version.
    #[inline]
    pub fn try_lock(&self) -> bool {
        let v = self.read_version();
        !Self::version_is_locked(v) && self.try_lock_at(v)
    }

    /// Acquires the lock, spinning (with backoff) until it succeeds.
    pub fn lock(&self) {
        let mut backoff = Backoff::new();
        loop {
            if self.try_lock() {
                return;
            }
            // Under the schedule explorer the holder cannot run while this
            // thread spins; the point lets the scheduler switch to it.
            crate::check::preempt("seqlock.spin", self as *const Self as usize);
            backoff.snooze();
        }
    }

    /// Releases the lock, bumping the version so concurrent optimistic readers
    /// observe the change.
    ///
    /// Panics in debug builds if the lock is not currently held.
    #[inline]
    pub fn unlock(&self) {
        let v = self.state.load(Ordering::Relaxed);
        debug_assert!(Self::version_is_locked(v), "unlock of an unlocked SeqLock");
        // +1 clears the lock bit and advances the version in one step
        // (v is odd, so v + 1 is the next even version); the dead bit is
        // above the carry and survives.
        self.state.store(v.wrapping_add(1), Ordering::Release);
    }

    /// Sets the sticky dead bit: the node this lock guards is logically
    /// deleted. Only the lock holder may call it, so a plain store suffices;
    /// its `Release` pairs with the `Acquire` load in [`SeqLock::is_dead`],
    /// so a reader that sees the mark sees the holder's earlier writes.
    ///
    /// Panics in debug builds if the lock is not currently held.
    #[inline]
    pub fn mark_dead(&self) {
        let v = self.state.load(Ordering::Relaxed);
        debug_assert!(Self::version_is_locked(v), "mark_dead without the lock");
        self.state.store(v | DEAD, Ordering::Release);
    }

    /// True once [`SeqLock::mark_dead`] has been called.
    #[inline]
    pub fn is_dead(&self) -> bool {
        self.read_version() & DEAD == DEAD
    }

    /// Checks that the state is still exactly `version` (unlocked and
    /// unchanged) — the pure validation used by lock-free readers.
    #[inline]
    pub fn validate(&self, version: u64) -> bool {
        !Self::version_is_locked(version) && self.read_version() == version
    }
}

/// RAII guard for scoped uses of [`SeqLock`] (tests, simple critical sections).
pub struct SeqLockGuard<'a> {
    lock: &'a SeqLock,
}

impl SeqLock {
    /// Acquires the lock and returns a guard that releases it on drop.
    pub fn guard(&self) -> SeqLockGuard<'_> {
        self.lock();
        SeqLockGuard { lock: self }
    }
}

impl Drop for SeqLockGuard<'_> {
    fn drop(&mut self) {
        self.lock.unlock();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn lock_unlock_bumps_version() {
        let l = SeqLock::new();
        let v0 = l.read_version();
        assert!(!l.is_locked());
        assert!(l.try_lock());
        assert!(l.is_locked());
        l.unlock();
        let v1 = l.read_version();
        assert!(v1 > v0);
        assert!(!l.is_locked());
    }

    #[test]
    fn try_lock_at_fails_on_version_change() {
        let l = SeqLock::new();
        let v = l.read_version();
        l.lock();
        l.unlock();
        assert!(!l.try_lock_at(v), "stale version must fail validation");
        let v2 = l.read_version();
        assert!(l.try_lock_at(v2));
        l.unlock();
    }

    #[test]
    fn validate_detects_intervening_writer() {
        let l = SeqLock::new();
        let v = l.read_version();
        assert!(l.validate(v));
        l.lock();
        assert!(!l.validate(v), "locked state must fail validation");
        l.unlock();
        assert!(!l.validate(v), "changed version must fail validation");
    }

    #[test]
    fn fresh_lock_is_not_dead() {
        let l = SeqLock::new();
        assert!(!l.is_dead());
        l.lock();
        assert!(!l.is_dead(), "locking alone must not mark");
        l.unlock();
        assert!(!l.is_dead());
    }

    #[test]
    fn dead_bit_survives_unlock() {
        let l = SeqLock::new();
        l.lock();
        l.mark_dead();
        assert!(l.is_dead() && l.is_locked());
        l.unlock();
        assert!(l.is_dead(), "unlock must keep the dead bit");
        assert!(!l.is_locked());
        // Later lock/unlock cycles keep it too.
        l.lock();
        l.unlock();
        assert!(l.is_dead());
    }

    #[test]
    fn marking_invalidates_earlier_versions() {
        let l = SeqLock::new();
        let before = l.read_version();
        l.lock();
        l.mark_dead();
        l.unlock();
        assert!(!l.validate(before), "marking must fail validation");
        assert!(
            !l.try_lock_at(before),
            "a pre-mark version must not lock a dead node"
        );
        // The post-mark word is an ordinary unlocked version.
        let after = l.read_version();
        assert!(l.validate(after));
        assert!(l.try_lock_at(after));
        l.unlock();
    }

    #[test]
    fn guard_releases_on_drop() {
        let l = SeqLock::new();
        {
            let _g = l.guard();
            assert!(l.is_locked());
        }
        assert!(!l.is_locked());
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        let lock = Arc::new(SeqLock::new());
        let counter = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut unsynced = Box::new(0u64);
        let unsynced_ptr = &mut *unsynced as *mut u64 as usize;
        let threads = 4;
        let iters = 10_000u64;
        let mut handles = Vec::new();
        for _ in 0..threads {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            handles.push(thread::spawn(move || {
                for _ in 0..iters {
                    lock.lock();
                    // Non-atomic increment protected by the lock.
                    unsafe { *(unsynced_ptr as *mut u64) += 1 };
                    counter.fetch_add(1, Ordering::Relaxed);
                    lock.unlock();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*unsynced, threads as u64 * iters);
        assert_eq!(counter.load(Ordering::Relaxed), threads as u64 * iters);
    }
}
