//! Interval-based reclamation — the 2GEIBR variant (Wen et al., PPoPP 2018),
//! the IBR configuration the paper benchmarks against ("2geibr").
//!
//! Every record carries its *birth era* (stamped at allocation) and is tagged
//! with its *retire era* when unlinked. Each thread announces an era interval
//! `[lower, upper]`: `lower` is fixed when the operation begins, `upper` is
//! bumped to the current global era on every pointer access (that is the
//! per-access overhead the paper measures). A retired record can be freed once
//! its lifetime interval `[birth, retire]` is disjoint from every announced
//! interval — so garbage is bounded, but unlike hazard pointers no per-record
//! validation is needed.

use smr_common::{
    Atomic, CachePadded, EraClock, Magazine, ReclaimCore, ReclaimLocal, Retired, Shared, Smr,
    SmrConfig, SmrNode, ThreadStats,
};
use std::sync::atomic::{fence, AtomicU64, Ordering};

/// Announcement meaning "not inside an operation".
const IDLE: u64 = u64::MAX;

struct IntervalSlot {
    lower: AtomicU64,
    upper: AtomicU64,
}

/// Per-thread context for [`Ibr`].
pub struct IbrCtx {
    local: ReclaimLocal,
}

/// The 2GEIBR interval-based reclaimer.
pub struct Ibr {
    core: ReclaimCore,
    era: EraClock,
    slots: Vec<CachePadded<IntervalSlot>>,
    /// Test-only resurrection of the pre-fix **stamp-before-pop** allocation:
    /// the birth era is read from the clock *before* the magazine pop instead
    /// of after it. The era read then races the previous incarnation's free —
    /// a stale stamp dates the new incarnation's lifetime to overlap the old
    /// one, breaking the incarnation-disjointness contract `recycle_aba.rs`
    /// pins (the intervals of two occupants of one address must never
    /// overlap). Only settable under the `check` feature.
    #[cfg(feature = "check")]
    resurrect_stamp_before_pop: std::sync::atomic::AtomicBool,
}

impl Ibr {
    fn scan_and_reclaim(&self, ctx: &mut IbrCtx) {
        self.core.scan(&mut ctx.local, |local, _tail| {
            // Single-fence scan (see DESIGN.md): one SeqCst fence, then
            // Acquire loads of every announced interval.
            fence(Ordering::SeqCst);
            local.lowers.clear();
            local.uppers.clear();
            for tid in self.core.registry().active_tids() {
                let lo = self.slots[tid].lower.load(Ordering::Acquire);
                let up = self.slots[tid].upper.load(Ordering::Acquire);
                if lo != IDLE {
                    // The two loads are not a single atomic snapshot: a
                    // concurrent end_op/begin_op can leave us a torn pair
                    // with up < lo. Clamp to [lo, max(lo, up)] —
                    // conservative (pins at least era `lo`) and restores
                    // the lo ≤ up invariant the sorted sweep's counting
                    // argument relies on.
                    local.lowers.push(lo);
                    local.uppers.push(up.max(lo));
                }
            }
            // SAFETY: a record whose [birth, retire] interval is disjoint
            // from every announced [lower, upper] interval cannot be
            // reached by any in-flight operation: an operation can only
            // hold pointers to records that were live at some era inside
            // its announced interval (Wen et al.'s reachability argument;
            // single-fence variant argued in DESIGN.md).
            unsafe { local.sweep_disjoint_intervals() }
        });
    }

    /// The resurrected pre-fix birth stamp, when the test flag is set: the
    /// clock is read *before* the pop. Between the read and the pop another
    /// thread can retire + free the block this pop will return at an era
    /// `r > e`; stamping `e` then backdates the new incarnation into the old
    /// one's lifetime. The preempt point is the window the explorer widens.
    #[cfg(feature = "check")]
    fn stale_stamp(&self) -> Option<u64> {
        self.resurrect_stamp_before_pop
            .load(std::sync::atomic::Ordering::SeqCst)
            .then(|| {
                let e = self.era.now();
                smr_common::check::preempt("ibr.alloc.stale-stamp", 0);
                e
            })
    }

    /// No stale stamp outside the `check` feature: always stamp after the pop.
    #[cfg(not(feature = "check"))]
    #[inline(always)]
    fn stale_stamp(&self) -> Option<u64> {
        None
    }

    /// Restores the pre-fix stamp-before-pop allocation (see the field docs).
    /// Test-only: the smr-check resurrect suite flips this to prove the
    /// checker finds the historical recycled-incarnation bug.
    #[cfg(feature = "check")]
    pub fn resurrect_stamp_before_pop(&self) {
        self.resurrect_stamp_before_pop
            .store(true, std::sync::atomic::Ordering::SeqCst);
    }
}

impl Smr for Ibr {
    type ThreadCtx = IbrCtx;

    const NAME: &'static str = "IBR";
    const USES_PROTECTION: bool = true;
    // The contiguous interval pins a record on a frozen marked chain only
    // if no scan ran before the hop that reached it: a scan that saw `upper`
    // below the record's birth era has already freed it, and the validated
    // re-read of the frozen `next` still returns its address
    // (`marked_chain_race.rs`, the scan-before-hop tests; DESIGN.md,
    // "Traversals through unlinked records under the interval reclaimers").
    const CAN_TRAVERSE_UNLINKED: bool = false;

    fn new(config: SmrConfig) -> Self {
        let slots = (0..config.max_threads)
            .map(|_| {
                CachePadded::new(IntervalSlot {
                    lower: AtomicU64::new(IDLE),
                    upper: AtomicU64::new(IDLE),
                })
            })
            .collect();
        Self {
            core: ReclaimCore::new(config),
            era: EraClock::new(),
            slots,
            #[cfg(feature = "check")]
            resurrect_stamp_before_pop: std::sync::atomic::AtomicBool::new(false),
        }
    }

    fn config(&self) -> &SmrConfig {
        self.core.config()
    }

    fn register(&self, tid: usize) -> IbrCtx {
        let mut local: ReclaimLocal = self.core.register(tid);
        local.lowers.reserve_exact(self.core.config().max_threads);
        local.uppers.reserve_exact(self.core.config().max_threads);
        self.slots[tid].lower.store(IDLE, Ordering::SeqCst);
        self.slots[tid].upper.store(IDLE, Ordering::SeqCst);
        IbrCtx { local }
    }

    fn unregister(&self, ctx: &mut IbrCtx) {
        let tid = ctx.local.tid();
        smr_common::check::clear_claims(tid);
        self.slots[tid].lower.store(IDLE, Ordering::SeqCst);
        self.slots[tid].upper.store(IDLE, Ordering::SeqCst);
        self.scan_and_reclaim(ctx);
        self.core.unregister(&mut ctx.local);
    }

    #[inline]
    fn magazine_mut<'a>(&self, ctx: &'a mut IbrCtx) -> Option<&'a mut Magazine> {
        Some(&mut ctx.local.mag)
    }

    #[inline]
    fn begin_op(&self, ctx: &mut IbrCtx) {
        let tid = ctx.local.tid();
        let e = self.era.now();
        self.slots[tid].lower.store(e, Ordering::SeqCst);
        self.slots[tid].upper.store(e, Ordering::SeqCst);
        smr_common::check::claim_interval(tid, e, e);
    }

    #[inline]
    fn end_op(&self, ctx: &mut IbrCtx) {
        let tid = ctx.local.tid();
        // Claims drop first (they must stay a subset of the announcement).
        smr_common::check::clear_claims(tid);
        // Withdrawing an announcement only *permits* more reclamation, so a
        // delayed-visibility (Release) store is safe: a scan that still sees
        // the old interval merely pins a few records longer. The next
        // operation re-announces with SeqCst before its first shared read.
        self.slots[tid].lower.store(IDLE, Ordering::Release);
        self.slots[tid].upper.store(IDLE, Ordering::Release);
        if self.core.heartbeat_due(&mut ctx.local) {
            self.scan_and_reclaim(ctx);
        }
    }

    #[inline]
    fn global_era(&self) -> u64 {
        self.era.now()
    }

    /// The per-access hook (2GEIBR's guarded read): load the pointer and make
    /// sure the announced upper bound covers the era at which the load
    /// happened, retrying otherwise. Without the re-validation a record that
    /// was born *after* the announced upper (the era advanced between the
    /// previous refresh and this load) and retired immediately could be freed
    /// while this thread still dereferences it.
    #[inline]
    fn protect<T: SmrNode>(&self, ctx: &mut IbrCtx, _slot: usize, src: &Atomic<T>) -> Shared<T> {
        let tid = ctx.local.tid();
        let IntervalSlot { lower, upper } = &*self.slots[tid];
        let mut announced = upper.load(Ordering::Relaxed);
        loop {
            let p = src.load(Ordering::Acquire);
            let e = self.era.now();
            if announced != IDLE && e <= announced {
                return p;
            }
            upper.store(e, Ordering::SeqCst);
            // Mirror the grown interval immediately (scheduler-atomic with
            // the store above): the claimed interval must track the real
            // announcement or later loop iterations under-claim the records
            // this thread is about to dereference.
            smr_common::check::claim_interval(tid, lower.load(Ordering::Relaxed), e);
            announced = e;
            ctx.local.stats.protect_failures += 1;
        }
    }

    fn alloc<T: SmrNode>(&self, ctx: &mut IbrCtx, value: T) -> Shared<T> {
        let stale = self.stale_stamp();
        // Stamp after the pop (which happens-after the block's free), so a
        // recycled block's new birth era is never older than the era at
        // which its previous incarnation was freed (`Smr::alloc` docs).
        let p = ctx
            .local
            .alloc_stamped(value, || stale.unwrap_or_else(|| self.era.now()));
        if self.core.epoch_tick(&mut ctx.local) {
            ctx.local.note_era_advance(self.era.advance());
        }
        p
    }

    unsafe fn retire<T: SmrNode>(&self, ctx: &mut IbrCtx, ptr: Shared<T>) {
        debug_assert!(!ptr.is_null());
        // Era-stamped before staging; the paced HiWatermark is consulted
        // once per batch of retires (bounded overshoot of
        // RETIRE_BATCH_CAP - 1).
        let retired = Retired::new(ptr.as_raw(), self.era.now());
        if self.core.retire(&mut ctx.local, retired) {
            self.scan_and_reclaim(ctx);
        }
    }

    fn flush(&self, ctx: &mut IbrCtx) {
        self.era.advance();
        self.scan_and_reclaim(ctx);
    }

    fn thread_stats(&self, ctx: &IbrCtx) -> ThreadStats {
        ctx.local.stats_snapshot()
    }

    fn thread_stats_mut<'a>(&self, ctx: &'a mut IbrCtx) -> &'a mut ThreadStats {
        &mut ctx.local.stats
    }

    fn limbo_len(&self, ctx: &IbrCtx) -> usize {
        ctx.local.limbo.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smr_common::NodeHeader;

    struct Node {
        header: NodeHeader,
        #[allow(dead_code)]
        key: u64,
    }
    smr_common::impl_smr_node!(Node);

    fn op_with_retire(smr: &Ibr, ctx: &mut IbrCtx, key: u64) {
        smr.begin_op(ctx);
        let p = smr.alloc(
            ctx,
            Node {
                header: NodeHeader::new(),
                key,
            },
        );
        unsafe { smr.retire(ctx, p) };
        smr.end_op(ctx);
    }

    #[test]
    fn reclaims_outside_announced_intervals() {
        let smr = Ibr::new(SmrConfig::for_tests());
        let mut ctx = smr.register(0);
        for i in 0..200 {
            op_with_retire(&smr, &mut ctx, i);
        }
        smr.flush(&mut ctx);
        assert!(smr.thread_stats(&ctx).frees > 0);
        smr.unregister(&mut ctx);
    }

    #[test]
    fn old_interval_pins_only_overlapping_records() {
        let smr = Ibr::new(SmrConfig::for_tests());
        let mut worker = smr.register(0);
        let mut reader = smr.register(1);

        // Reader opens an operation at the current (early) era and stalls
        // there without refreshing its upper bound.
        smr.begin_op(&mut reader);

        // Worker churns: records born later and retired later have intervals
        // entirely above the reader's, so they can still be freed — the key
        // difference from RCU/EBR (bounded garbage under a stalled reader).
        for i in 0..500 {
            op_with_retire(&smr, &mut worker, i);
        }
        smr.flush(&mut worker);
        let s = smr.thread_stats(&worker);
        assert!(
            s.frees > 0,
            "records born after the stalled reader's interval must still be freed"
        );

        smr.end_op(&mut reader);
        smr.unregister(&mut reader);
        smr.unregister(&mut worker);
    }

    #[test]
    fn protect_refreshes_upper_bound() {
        let smr = Ibr::new(SmrConfig::for_tests().with_epoch_freq(1));
        let mut ctx = smr.register(0);
        smr.begin_op(&mut ctx);
        let lower_before = smr.slots[0].lower.load(Ordering::SeqCst);
        // Advance the era by allocating (epoch_freq = 1 → every alloc advances).
        let shared = Atomic::<Node>::null();
        let n = smr.alloc(
            &mut ctx,
            Node {
                header: NodeHeader::new(),
                key: 0,
            },
        );
        shared.store(n, Ordering::Release);
        let _ = smr.protect(&mut ctx, 0, &shared);
        let upper = smr.slots[0].upper.load(Ordering::SeqCst);
        assert!(
            upper > lower_before,
            "upper bound must track the global era"
        );
        assert_eq!(smr.slots[0].lower.load(Ordering::SeqCst), lower_before);
        smr.end_op(&mut ctx);
        let old = shared.swap(Shared::null(), Ordering::AcqRel);
        unsafe { smr.retire(&mut ctx, old) };
        smr.unregister(&mut ctx);
    }

    #[test]
    fn birth_era_is_stamped_on_alloc() {
        let smr = Ibr::new(SmrConfig::for_tests());
        let mut ctx = smr.register(0);
        let before = smr.global_era();
        let p = smr.alloc(
            &mut ctx,
            Node {
                header: NodeHeader::new(),
                key: 1,
            },
        );
        assert!(unsafe { p.deref().header().birth_era() } >= before);
        unsafe { smr.retire(&mut ctx, p) };
        smr.unregister(&mut ctx);
    }
}
