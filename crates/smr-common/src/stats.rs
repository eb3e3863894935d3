//! SMR bookkeeping counters.
//!
//! The paper's evaluation reasons about *why* one reclaimer beats another —
//! signals sent (NBR's O(n²) vs NBR+'s piggybacked RGPs), neutralizations
//! taken, reclamation bursts after a delayed thread catches up, validation
//! failures under HP, and peak limbo-bag sizes (the bounded-garbage property).
//! These counters are collected per thread with zero synchronization on the
//! fast path and merged by the harness after each trial.

use std::ops::AddAssign;

/// Per-thread counters, owned by the thread's context (no atomics involved).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ThreadStats {
    /// Records allocated through the reclaimer.
    pub allocs: u64,
    /// Records passed to `retire`.
    pub retires: u64,
    /// Records actually freed.
    pub frees: u64,
    /// Neutralization signals sent by this thread (NBR/NBR+ reclaimers) or
    /// reclamation pings sent (Publish-on-Ping reclaimers).
    pub signals_sent: u64,
    /// Neutralizations taken: read phases restarted because of a signal.
    pub neutralizations: u64,
    /// Pings answered by publishing private reservations (Publish-on-Ping
    /// reclaimers): each is one promotion of thread-private state to the
    /// shared slots.
    pub pings_published: u64,
    /// Reclamation scans attempted (HiWatermark events, epoch scans, …).
    pub reclaim_scans: u64,
    /// Reclamation scans that freed nothing (e.g. blocked by a straggler).
    pub reclaim_skips: u64,
    /// Reclamation scans triggered by the operation-exit heartbeat
    /// ([`ScanPolicy`](crate::ScanPolicy)) rather than a watermark crossing.
    pub heartbeat_scans: u64,
    /// NBR+ LoWatermark reclaims piggybacked on an observed RGP.
    pub rgp_reclaims: u64,
    /// Hazard-pointer / protection validation failures (operation restarts).
    pub protect_failures: u64,
    /// Largest limbo-bag size observed (bounded-garbage evidence, Lemma 10).
    pub peak_limbo: u64,
    /// Epoch/era advances performed by this thread.
    pub epoch_advances: u64,
    /// Allocations served from a recycled block (magazine or depot) instead
    /// of the global allocator.
    pub pool_hits: u64,
    /// Pool-eligible allocations that fell through to the global allocator
    /// (cold pool / burst larger than the cached blocks).
    pub pool_misses: u64,
    /// Reclaimed blocks accepted back into the pool for reuse.
    pub pool_recycled: u64,
    /// Ping/neutralization handshake rounds this thread conceded (a peer
    /// stayed silent past its spin window and the scan was skipped).
    pub ping_concessions: u64,
    /// Orphaned records adopted from departed threads' limbo bags.
    pub orphan_adoptions: u64,
    /// Always 0: the scan combiner that counted bag hand-offs is deleted.
    /// Kept only because the standing benchmark's report still reads it.
    pub combine_publishes: u64,
    /// Always 0, for the same reason as `combine_publishes`.
    pub combine_adoptions: u64,
    /// Lookups answered from the epoch-stamped memo (traversal skipped).
    pub memo_hits: u64,
    /// Lookups that consulted the memo but fell back to a full traversal
    /// (stale stamp, key mismatch, or marked node).
    pub memo_misses: u64,
}

impl ThreadStats {
    /// Records a new limbo-bag high-water mark.
    #[inline]
    pub fn observe_limbo(&mut self, len: usize) {
        self.peak_limbo = self.peak_limbo.max(len as u64);
    }

    /// Unreclaimed records implied by the counters (retires minus frees).
    pub fn outstanding(&self) -> u64 {
        self.retires.saturating_sub(self.frees)
    }

    /// Fraction of pool-eligible allocations served from the recycling pool
    /// (`NaN`-free: 0 when no eligible allocation happened).
    pub fn pool_hit_rate(&self) -> f64 {
        let eligible = self.pool_hits + self.pool_misses;
        if eligible == 0 {
            0.0
        } else {
            self.pool_hits as f64 / eligible as f64
        }
    }
}

impl AddAssign for ThreadStats {
    fn add_assign(&mut self, rhs: Self) {
        self.allocs += rhs.allocs;
        self.retires += rhs.retires;
        self.frees += rhs.frees;
        self.signals_sent += rhs.signals_sent;
        self.neutralizations += rhs.neutralizations;
        self.pings_published += rhs.pings_published;
        self.reclaim_scans += rhs.reclaim_scans;
        self.reclaim_skips += rhs.reclaim_skips;
        self.heartbeat_scans += rhs.heartbeat_scans;
        self.rgp_reclaims += rhs.rgp_reclaims;
        self.protect_failures += rhs.protect_failures;
        self.peak_limbo = self.peak_limbo.max(rhs.peak_limbo);
        self.epoch_advances += rhs.epoch_advances;
        self.pool_hits += rhs.pool_hits;
        self.pool_misses += rhs.pool_misses;
        self.pool_recycled += rhs.pool_recycled;
        self.ping_concessions += rhs.ping_concessions;
        self.orphan_adoptions += rhs.orphan_adoptions;
        self.combine_publishes += rhs.combine_publishes;
        self.combine_adoptions += rhs.combine_adoptions;
        self.memo_hits += rhs.memo_hits;
        self.memo_misses += rhs.memo_misses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_sums_and_maxes() {
        let mut a = ThreadStats {
            allocs: 1,
            retires: 10,
            frees: 4,
            peak_limbo: 7,
            ..Default::default()
        };
        let b = ThreadStats {
            allocs: 2,
            retires: 5,
            frees: 5,
            peak_limbo: 3,
            signals_sent: 9,
            ..Default::default()
        };
        a += b;
        assert_eq!(a.allocs, 3);
        assert_eq!(a.retires, 15);
        assert_eq!(a.frees, 9);
        assert_eq!(a.peak_limbo, 7);
        assert_eq!(a.signals_sent, 9);
        assert_eq!(a.outstanding(), 6);
    }

    #[test]
    fn observe_limbo_tracks_maximum() {
        let mut t = ThreadStats::default();
        t.observe_limbo(3);
        t.observe_limbo(11);
        t.observe_limbo(5);
        assert_eq!(t.peak_limbo, 11);
    }

    #[test]
    fn outstanding_saturates() {
        let t = ThreadStats {
            retires: 3,
            frees: 5,
            ..Default::default()
        };
        assert_eq!(t.outstanding(), 0);
    }
}
