//! RCU-style epoch reclamation (the "rcu" variant of the IBR benchmark, which
//! the paper adapted into setbench for its evaluation).
//!
//! Mechanism:
//!
//! * A global era, advanced every `epoch_freq` retires.
//! * Each thread announces the era it observed when its operation began
//!   (a read-side critical section) and withdraws the announcement when the
//!   operation ends.
//! * Every record is stamped with the era at which it was retired. A record
//!   may be freed once its retire era is strictly smaller than the minimum era
//!   announced by any thread currently inside an operation.
//!
//! A reader that stalls inside an operation keeps its (old) announcement
//! published, so the minimum never rises and garbage grows without bound —
//! the behaviour experiment E2 demonstrates for RCU.

use smr_common::{
    CachePadded, EraClock, Magazine, ReclaimCore, ReclaimLocal, Retired, Shared, Smr, SmrConfig,
    SmrNode, ThreadStats,
};
use std::sync::atomic::{fence, AtomicU64, Ordering};

/// Announcement value meaning "not inside an operation".
const IDLE: u64 = u64::MAX;

struct RcuSlot {
    announced: AtomicU64,
}

/// Per-thread context for [`Rcu`].
pub struct RcuCtx {
    local: ReclaimLocal,
    /// The era announced at `begin_op` (the op's read-side pin). This — not
    /// `era.now()` — is the memo validation stamp: see `validation_stamp`.
    op_epoch: u64,
}

/// The RCU-style reclaimer.
pub struct Rcu {
    core: ReclaimCore,
    era: EraClock,
    slots: Vec<CachePadded<RcuSlot>>,
}

impl Rcu {
    /// Minimum era announced by any thread currently inside an operation.
    /// Single-fence scan (see DESIGN.md): one SeqCst fence, then Acquire
    /// loads of every announcement.
    fn min_announced_era(&self) -> u64 {
        fence(Ordering::SeqCst);
        let mut min = u64::MAX;
        for tid in self.core.registry().active_tids() {
            let a = self.slots[tid].announced.load(Ordering::Acquire);
            if a != IDLE {
                min = min.min(a);
            }
        }
        // Frontier clamp: never report a reclamation frontier past the
        // current era, even when every thread is idle. This makes "a record
        // retired at era `e` was freed" imply "the era advanced past `e`" —
        // the property the epoch-stamped lookup memo validates against
        // (`validation_stamp`): with no active readers and no clamp, a
        // same-era free could slip under an unchanged memo stamp.
        min.min(self.era.now())
    }

    fn scan_and_reclaim(&self, ctx: &mut RcuCtx) {
        self.core.scan(&mut ctx.local, |local, _tail| {
            let min = self.min_announced_era();
            // SAFETY: a record retired in era `e` was unlinked before era
            // `e` ended; any reader announcing an era `> e` began its
            // operation after the unlink and therefore cannot have found
            // the record by traversal.
            unsafe { local.sweep_retired_before(usize::MAX, min) }
        });
    }
}

impl Smr for Rcu {
    type ThreadCtx = RcuCtx;

    const NAME: &'static str = "RCU";

    fn new(config: SmrConfig) -> Self {
        let slots = (0..config.max_threads)
            .map(|_| {
                CachePadded::new(RcuSlot {
                    announced: AtomicU64::new(IDLE),
                })
            })
            .collect();
        Self {
            core: ReclaimCore::new(config),
            era: EraClock::new(),
            slots,
        }
    }

    fn config(&self) -> &SmrConfig {
        self.core.config()
    }

    fn register(&self, tid: usize) -> RcuCtx {
        let local = self.core.register(tid);
        self.slots[tid].announced.store(IDLE, Ordering::SeqCst);
        RcuCtx { local, op_epoch: 0 }
    }

    fn unregister(&self, ctx: &mut RcuCtx) {
        smr_common::check::unpin_epoch(ctx.local.tid());
        self.slots[ctx.local.tid()]
            .announced
            .store(IDLE, Ordering::SeqCst);
        self.core.unregister(&mut ctx.local);
    }

    #[inline]
    fn magazine_mut<'a>(&self, ctx: &'a mut RcuCtx) -> Option<&'a mut Magazine> {
        Some(&mut ctx.local.mag)
    }

    #[inline]
    fn begin_op(&self, ctx: &mut RcuCtx) {
        let e = self.era.now();
        self.slots[ctx.local.tid()]
            .announced
            .store(e, Ordering::SeqCst);
        ctx.op_epoch = e;
        // Oracle mirror (after the real announcement): frees require
        // `retire_era < min announced`, so while `e` is published no record
        // with retire era >= e may be freed.
        smr_common::check::pin_epoch(ctx.local.tid(), e);
    }

    #[inline]
    fn end_op(&self, ctx: &mut RcuCtx) {
        // Oracle mirror: drop the pin before the real withdrawal so the
        // mirrored claim stays a subset of the published announcement.
        smr_common::check::unpin_epoch(ctx.local.tid());
        // Withdrawing the announcement only *permits* more reclamation
        // (Release suffices): prior reads of this operation stay ordered
        // before the store, and the next begin_op re-announces with SeqCst
        // before any shared read.
        self.slots[ctx.local.tid()]
            .announced
            .store(IDLE, Ordering::Release);
        if self.core.heartbeat_due(&mut ctx.local) {
            self.scan_and_reclaim(ctx);
        }
    }

    #[inline]
    fn global_era(&self) -> u64 {
        self.era.now()
    }

    unsafe fn retire<T: SmrNode>(&self, ctx: &mut RcuCtx, ptr: Shared<T>) {
        debug_assert!(!ptr.is_null());
        // Era-stamped before staging. The era-advance cadence stays
        // per-retire so the reclamation frontier advances at the configured
        // rate; the paced HiWatermark is consulted once per batch of
        // retires (bound slack: batch cap − 1).
        let retired = Retired::new(ptr.as_raw(), self.era.now());
        let scan = self.core.retire(&mut ctx.local, retired);
        if self.core.epoch_tick(&mut ctx.local) {
            ctx.local.note_era_advance(self.era.advance());
        }
        if scan {
            self.scan_and_reclaim(ctx);
        }
    }

    fn flush(&self, ctx: &mut RcuCtx) {
        self.era.advance();
        self.scan_and_reclaim(ctx);
    }

    #[inline]
    fn validation_stamp(&self, ctx: &mut RcuCtx) -> Option<u64> {
        // Sound for RCU *because of the frontier clamp* in
        // `min_announced_era`: a record retired at era `e` can only be freed
        // once the global era exceeds `e`. `op_epoch` is the era read at
        // `begin_op`, so stamp equality between two operations means the
        // era never advanced in between and nothing retired in the window
        // can have been freed. (`era.now()` mid-op would be unsound: the
        // stamp must be the op-pinned value.)
        self.core.config().memo.then_some(ctx.op_epoch)
    }

    fn thread_stats(&self, ctx: &RcuCtx) -> ThreadStats {
        ctx.local.stats_snapshot()
    }

    fn thread_stats_mut<'a>(&self, ctx: &'a mut RcuCtx) -> &'a mut ThreadStats {
        &mut ctx.local.stats
    }

    fn limbo_len(&self, ctx: &RcuCtx) -> usize {
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

    fn op_with_retire(smr: &Rcu, ctx: &mut RcuCtx, key: u64) {
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
    fn reclaims_when_no_reader_is_older() {
        let smr = Rcu::new(SmrConfig::for_tests());
        let mut ctx = smr.register(0);
        for i in 0..100 {
            op_with_retire(&smr, &mut ctx, i);
        }
        smr.flush(&mut ctx);
        assert!(smr.thread_stats(&ctx).frees > 0);
        smr.unregister(&mut ctx);
    }

    #[test]
    fn active_old_reader_pins_garbage() {
        let smr = Rcu::new(SmrConfig::for_tests());
        let mut worker = smr.register(0);
        let mut reader = smr.register(1);
        smr.begin_op(&mut reader); // announces the current (old) era and stalls

        for i in 0..300 {
            op_with_retire(&smr, &mut worker, i);
        }
        smr.flush(&mut worker);
        assert_eq!(
            smr.thread_stats(&worker).frees,
            0,
            "records retired at or after the reader's era must not be freed"
        );
        assert_eq!(smr.limbo_len(&worker), 300);

        smr.end_op(&mut reader);
        smr.flush(&mut worker);
        assert!(smr.thread_stats(&worker).frees > 0);

        smr.unregister(&mut reader);
        smr.unregister(&mut worker);
    }

    #[test]
    fn era_advances_with_retires() {
        let smr = Rcu::new(SmrConfig::for_tests());
        let mut ctx = smr.register(0);
        let before = smr.global_era();
        for i in 0..50 {
            op_with_retire(&smr, &mut ctx, i);
        }
        assert!(smr.global_era() > before);
        smr.unregister(&mut ctx);
    }
}
