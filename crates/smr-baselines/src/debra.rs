//! DEBRA-style epoch-based reclamation (Brown, PODC 2015).
//!
//! DEBRA is, per the paper, "to the best of our knowledge the fastest EBR
//! algorithm" and the primary competitor NBR+ is measured against. The scheme:
//!
//! * A global epoch counter.
//! * Each thread announces `(epoch, active)` when it begins an operation and
//!   clears the active bit when it ends one.
//! * A record retired while the thread's local epoch is `e` is stamped `e`;
//!   once the global epoch has advanced to `e + 2` every operation that could
//!   have seen it has finished, so the thread's next epoch scan frees it
//!   (`ReclaimCore::epoch_scan`, shared with QSBR).
//! * The global epoch advances only when every *active* thread has announced
//!   the current epoch — so a single stalled or delayed thread stops all
//!   reclamation (the *delayed thread vulnerability* discussed in Section 7 and
//!   demonstrated in experiment E2).
//!
//! Epoch-advance attempts are amortized over `epoch_freq` operations, mirroring
//! DEBRA's amortized incremental scanning.

use smr_common::{
    CachePadded, EraClock, Magazine, ReclaimCore, ReclaimLocal, Retired, Shared, Smr, SmrConfig,
    SmrNode, ThreadStats,
};
use std::sync::atomic::{fence, AtomicU64, Ordering};

const ACTIVE_BIT: u64 = 1;
const QUIESCENT: u64 = u64::MAX;

struct EpochSlot {
    /// `epoch << 1 | active`, or `QUIESCENT` when the thread is between
    /// operations.
    announced: AtomicU64,
}

/// Per-thread context for [`Debra`].
pub struct DebraCtx {
    local: ReclaimLocal,
    /// The last global epoch this thread observed; its retires are stamped
    /// with it.
    epoch: u64,
}

/// The DEBRA epoch-based reclaimer.
pub struct Debra {
    core: ReclaimCore,
    epoch: EraClock,
    slots: Vec<CachePadded<EpochSlot>>,
}

impl Debra {
    fn announce(&self, tid: usize, epoch: u64, active: bool) {
        if active {
            self.slots[tid]
                .announced
                .store((epoch << 1) | ACTIVE_BIT, Ordering::SeqCst);
        } else {
            // Going quiescent only *permits* more reclamation, so Release
            // suffices: the finished operation's reads stay ordered before
            // the store, and the next begin_op re-announces active with
            // SeqCst before any shared read.
            self.slots[tid]
                .announced
                .store(QUIESCENT, Ordering::Release);
        }
    }

    /// Attempts to advance the global epoch: every active (non-quiescent)
    /// thread must have announced the current epoch. Single-fence scan (see
    /// DESIGN.md): one SeqCst fence, then Acquire loads — a stale read only
    /// under-reports a thread's progress and blocks the advance
    /// (conservative).
    fn try_advance(&self, ctx: &mut DebraCtx) {
        fence(Ordering::SeqCst);
        let current = self.epoch.now();
        for tid in self.core.registry().active_tids() {
            let a = self.slots[tid].announced.load(Ordering::Acquire);
            if a == QUIESCENT {
                continue;
            }
            let announced_epoch = a >> 1;
            if announced_epoch < current {
                return; // someone is still executing in an older epoch
            }
        }
        if self.epoch.advance_from(current) {
            ctx.local.note_era_advance(current + 1);
        }
    }

    /// Called whenever the thread observes a (possibly) new global epoch:
    /// frees every record stamped at least two epochs behind it.
    #[inline]
    fn sync_local_epoch(&self, ctx: &mut DebraCtx, observed: u64) {
        // SAFETY: the global epoch only advances once every active thread
        // has announced the current one, so two advances since a record
        // was retired mean every operation that could have held a
        // reference has completed (classic EBR argument).
        unsafe {
            self.core
                .epoch_scan(&mut ctx.local, &mut ctx.epoch, observed)
        }
    }
}

impl Smr for Debra {
    type ThreadCtx = DebraCtx;

    const NAME: &'static str = "DEBRA";

    fn new(config: SmrConfig) -> Self {
        let slots = (0..config.max_threads)
            .map(|_| {
                CachePadded::new(EpochSlot {
                    announced: AtomicU64::new(QUIESCENT),
                })
            })
            .collect();
        Self {
            core: ReclaimCore::new(config),
            epoch: EraClock::new(),
            slots,
        }
    }

    fn config(&self) -> &SmrConfig {
        self.core.config()
    }

    fn register(&self, tid: usize) -> DebraCtx {
        let local = self.core.register(tid);
        self.slots[tid].announced.store(QUIESCENT, Ordering::SeqCst);
        DebraCtx {
            local,
            epoch: self.epoch.now(),
        }
    }

    fn unregister(&self, ctx: &mut DebraCtx) {
        smr_common::check::unpin_epoch(ctx.local.tid());
        self.announce(ctx.local.tid(), 0, false);
        self.core.unregister(&mut ctx.local);
    }

    #[inline]
    fn magazine_mut<'a>(&self, ctx: &'a mut DebraCtx) -> Option<&'a mut Magazine> {
        Some(&mut ctx.local.mag)
    }

    #[inline]
    fn begin_op(&self, ctx: &mut DebraCtx) {
        let e = self.epoch.now();
        self.announce(ctx.local.tid(), e, true);
        // Oracle: active at epoch `e` — no record retired at epoch ≥ e may
        // be freed while this op runs (the epoch scan frees at retire + 2,
        // and the advance to retire + 2 needs every active announcement to
        // be past the retire epoch).
        smr_common::check::pin_epoch(ctx.local.tid(), e);
        self.sync_local_epoch(ctx, e);
        if self.core.epoch_tick(&mut ctx.local) {
            self.try_advance(ctx);
            // The epoch-paced advance is DEBRA's regular scan: restart the
            // heartbeat window so the op-exit trigger only fires when this
            // path has been starved (`ReclaimCore::heartbeat_due`'s pacing
            // contract).
            ctx.local.note_scan();
        }
    }

    #[inline]
    fn end_op(&self, ctx: &mut DebraCtx) {
        // Unpin before going quiescent — and before the scans below, which
        // may free this thread's own current-epoch retires.
        smr_common::check::unpin_epoch(ctx.local.tid());
        self.announce(ctx.local.tid(), 0, false);
        if self.core.heartbeat_due(&mut ctx.local) {
            ctx.local.note_scan();
            // Heartbeat: nudge the epoch forward and free every record two
            // grace periods old, so a slow-retiring thread still returns
            // memory between watermark-paced advances.
            self.try_advance(ctx);
            self.sync_local_epoch(ctx, self.epoch.now());
        }
    }

    unsafe fn retire<T: SmrNode>(&self, ctx: &mut DebraCtx, ptr: Shared<T>) {
        debug_assert!(!ptr.is_null());
        // Stamp with the epoch read *now*, not the one announced at
        // `begin_op`: the global epoch can advance mid-operation (this
        // thread's announcement of `e` only blocks the advance past `e+1`),
        // and a reader that began in epoch `e+1` before this record was
        // unlinked may hold a pointer to it. Stamping with the stale
        // `begin_op` epoch `e` would free at `e+2` — exactly when that
        // reader can still be active. Re-reading makes the classic argument
        // go through: the `e'+1 → e'+2` advance (with `e'` the retire-time
        // epoch) requires every active thread to have begun after the epoch
        // reached `e'+1`, which is after this retire, which is after the
        // unlink. Found by smr-check (use-after-free/deref on the Harris
        // list; replay: strategy=random/1 within the seeded sweep).
        self.sync_local_epoch(ctx, self.epoch.now());
        // DEBRA has no watermark trigger: the epoch scan is its only sweep.
        let retired = Retired::new(ptr.as_raw(), ctx.epoch);
        self.core.retire(&mut ctx.local, retired);
    }

    #[inline]
    fn validation_stamp(&self, ctx: &mut DebraCtx) -> Option<u64> {
        // Sound for DEBRA: the local epoch re-syncs to the global epoch at
        // every `begin_op`, so stamp equality between two operations means
        // the global epoch never advanced in between — and a record retired
        // at epoch `e` is only freed once the global epoch reaches `e + 2`.
        self.core.config().memo.then_some(ctx.epoch)
    }

    fn flush(&self, ctx: &mut DebraCtx) {
        // Drive the epoch forward (as far as other threads allow) and free
        // whatever becomes safe.
        for _ in 0..3 {
            self.try_advance(ctx);
            let e = self.epoch.now();
            self.sync_local_epoch(ctx, e);
        }
    }

    fn thread_stats(&self, ctx: &DebraCtx) -> ThreadStats {
        ctx.local.stats_snapshot()
    }

    fn thread_stats_mut<'a>(&self, ctx: &'a mut DebraCtx) -> &'a mut ThreadStats {
        &mut ctx.local.stats
    }

    fn limbo_len(&self, ctx: &DebraCtx) -> usize {
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

    fn retire_one(smr: &Debra, ctx: &mut DebraCtx, key: u64) {
        let p = smr.alloc(
            ctx,
            Node {
                header: NodeHeader::new(),
                key,
            },
        );
        unsafe { smr.retire(ctx, p) };
    }

    #[test]
    fn single_thread_reclaims_after_epoch_advances() {
        let smr = Debra::new(SmrConfig::for_tests());
        let mut ctx = smr.register(0);
        for i in 0..100 {
            smr.begin_op(&mut ctx);
            retire_one(&smr, &mut ctx, i);
            smr.end_op(&mut ctx);
        }
        smr.flush(&mut ctx);
        let s = smr.thread_stats(&ctx);
        assert!(s.frees > 0, "epochs must advance and free old bags");
        assert!(s.epoch_advances > 0);
        smr.unregister(&mut ctx);
    }

    #[test]
    fn stalled_thread_blocks_reclamation() {
        // The delayed-thread vulnerability: a thread stuck inside an operation
        // pins the epoch and no bag can ever be freed (contrast with NBR's
        // bounded garbage — experiment E2).
        let smr = Debra::new(SmrConfig::for_tests());
        let mut worker = smr.register(0);
        let mut stalled = smr.register(1);
        smr.begin_op(&mut stalled); // never ends its operation

        for i in 0..200 {
            smr.begin_op(&mut worker);
            retire_one(&smr, &mut worker, i);
            smr.end_op(&mut worker);
        }
        smr.flush(&mut worker);
        assert_eq!(
            smr.thread_stats(&worker).frees,
            0,
            "a stalled thread must pin every epoch bag"
        );
        assert_eq!(smr.limbo_len(&worker), 200);

        // Once the stalled thread finishes, reclamation resumes.
        smr.end_op(&mut stalled);
        for i in 0..50 {
            smr.begin_op(&mut worker);
            retire_one(&smr, &mut worker, i);
            smr.end_op(&mut worker);
        }
        smr.flush(&mut worker);
        assert!(smr.thread_stats(&worker).frees > 0);

        smr.unregister(&mut stalled);
        smr.unregister(&mut worker);
    }

    #[test]
    fn quiescent_threads_do_not_block_advance() {
        let smr = Debra::new(SmrConfig::for_tests());
        let mut worker = smr.register(0);
        let _idle = smr.register(1); // registered but never begins an op
        for i in 0..100 {
            smr.begin_op(&mut worker);
            retire_one(&smr, &mut worker, i);
            smr.end_op(&mut worker);
        }
        smr.flush(&mut worker);
        assert!(smr.thread_stats(&worker).frees > 0);
        smr.unregister(&mut worker);
    }

    #[test]
    fn records_survive_until_two_epochs_pass() {
        let smr = Debra::new(SmrConfig::for_tests().with_epoch_freq(1));
        let mut ctx = smr.register(0);
        smr.begin_op(&mut ctx);
        retire_one(&smr, &mut ctx, 1);
        smr.end_op(&mut ctx);
        // Immediately after retiring, nothing can have been freed.
        assert_eq!(smr.thread_stats(&ctx).frees, 0);
        smr.flush(&mut ctx);
        assert_eq!(smr.thread_stats(&ctx).frees, 1);
        smr.unregister(&mut ctx);
    }
}
