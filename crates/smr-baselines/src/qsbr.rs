//! Quiescent-state-based reclamation (QSBR).
//!
//! QSBR relies on each thread periodically passing through a *quiescent state*
//! in which it holds no references to shared records — in this benchmark (as in
//! the paper's adaptation of the IBR benchmark's QSBR), the boundary between
//! two data-structure operations. The global epoch may advance once every
//! registered thread has been quiescent during the current epoch; a record
//! stamped with retire epoch `e` is freed once the retiring thread observes
//! epoch `e + 2` (`ReclaimCore::epoch_scan`, shared with DEBRA).
//!
//! Like all EBR-family schemes it has no garbage bound: a thread that stalls
//! inside an operation (never reaching a quiescent state) pins the epoch
//! forever (experiment E2).

use smr_common::{
    CachePadded, EraClock, Magazine, ReclaimCore, ReclaimLocal, Retired, Shared, Smr, SmrConfig,
    SmrNode, ThreadStats,
};
use std::sync::atomic::{fence, AtomicU64, Ordering};

/// Sentinel meaning "offline": the thread is not running operations at all and
/// must not block epoch advancement.
const OFFLINE: u64 = u64::MAX;

struct QsbrSlot {
    /// The last global epoch at which this thread was quiescent, or [`OFFLINE`].
    quiescent_epoch: AtomicU64,
}

/// Per-thread context for [`Qsbr`].
pub struct QsbrCtx {
    local: ReclaimLocal,
    /// The last global epoch this thread observed; its retires are stamped
    /// with it.
    epoch: u64,
}

/// The QSBR reclaimer.
pub struct Qsbr {
    core: ReclaimCore,
    epoch: EraClock,
    slots: Vec<CachePadded<QsbrSlot>>,
}

impl Qsbr {
    /// The global epoch can advance once every online thread has been
    /// quiescent in the current epoch. Single-fence scan (see DESIGN.md): one
    /// SeqCst fence, then Acquire loads of every announcement — a stale read
    /// can only under-report a thread's progress, which blocks the advance
    /// (conservative).
    fn try_advance(&self, ctx: &mut QsbrCtx) {
        fence(Ordering::SeqCst);
        let current = self.epoch.now();
        for tid in self.core.registry().active_tids() {
            let q = self.slots[tid].quiescent_epoch.load(Ordering::Acquire);
            if q == OFFLINE {
                continue;
            }
            if q < current {
                return;
            }
        }
        if self.epoch.advance_from(current) {
            ctx.local.note_era_advance(current + 1);
        }
    }

    #[inline]
    fn sync_local_epoch(&self, ctx: &mut QsbrCtx, observed: u64) {
        // SAFETY: two epoch advances require every online thread to have
        // been quiescent twice since a record was retired; any operation
        // that could have referenced it has ended.
        unsafe {
            self.core
                .epoch_scan(&mut ctx.local, &mut ctx.epoch, observed)
        }
    }
}

impl Smr for Qsbr {
    type ThreadCtx = QsbrCtx;

    const NAME: &'static str = "QSBR";

    fn new(config: SmrConfig) -> Self {
        let slots = (0..config.max_threads)
            .map(|_| {
                CachePadded::new(QsbrSlot {
                    quiescent_epoch: AtomicU64::new(OFFLINE),
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

    fn register(&self, tid: usize) -> QsbrCtx {
        let local = self.core.register(tid);
        let now = self.epoch.now();
        // A freshly registered thread is quiescent by definition.
        self.slots[tid].quiescent_epoch.store(now, Ordering::SeqCst);
        QsbrCtx { local, epoch: now }
    }

    fn unregister(&self, ctx: &mut QsbrCtx) {
        smr_common::check::unpin_epoch(ctx.local.tid());
        self.slots[ctx.local.tid()]
            .quiescent_epoch
            .store(OFFLINE, Ordering::SeqCst);
        self.core.unregister(&mut ctx.local);
    }

    #[inline]
    fn magazine_mut<'a>(&self, ctx: &'a mut QsbrCtx) -> Option<&'a mut Magazine> {
        Some(&mut ctx.local.mag)
    }

    #[inline]
    fn begin_op(&self, ctx: &mut QsbrCtx) {
        // Operations run "inside" whatever epoch the thread last observed; the
        // quiescent announcement happens at the end of the operation.
        let e = self.epoch.now();
        // Oracle mirror: while this op runs, the stale quiescent announcement
        // caps the observable epoch at `e + 1`, so no record retired at an
        // epoch >= e can be freed (frees need retire + 2 <= observed). Pinning
        // at `e` therefore never over-claims.
        smr_common::check::pin_epoch(ctx.local.tid(), e);
        self.sync_local_epoch(ctx, e);
    }

    #[inline]
    fn end_op(&self, ctx: &mut QsbrCtx) {
        // Oracle mirror: drop the pin before announcing quiescence — the
        // scans below may free this thread's own retires, which is legal once
        // the op is over (claims must stay a subset of real announcements).
        smr_common::check::unpin_epoch(ctx.local.tid());
        // Quiescent state: announce the current epoch and occasionally try to
        // advance it. Release suffices for the announcement: it orders the
        // finished operation's reads before the store (the direction safety
        // needs), and a scan that sees the old value merely delays the
        // advance (conservative).
        let e = self.epoch.now();
        self.slots[ctx.local.tid()]
            .quiescent_epoch
            .store(e, Ordering::Release);
        if self.core.epoch_tick(&mut ctx.local) {
            self.try_advance(ctx);
            // The epoch-paced advance is QSBR's regular scan: restart the
            // heartbeat window so the op-exit trigger only fires when this
            // path has been starved (`ReclaimCore::heartbeat_due`'s pacing
            // contract).
            ctx.local.note_scan();
        }
        if self.core.heartbeat_due(&mut ctx.local) {
            ctx.local.note_scan();
            // Heartbeat: nudge the epoch forward and free whatever two
            // completed grace periods have made safe, so a thread retiring
            // slowly still returns memory.
            self.try_advance(ctx);
            self.sync_local_epoch(ctx, self.epoch.now());
        }
    }

    unsafe fn retire<T: SmrNode>(&self, ctx: &mut QsbrCtx, ptr: Shared<T>) {
        debug_assert!(!ptr.is_null());
        // Stamp with the epoch read *now*, not the one cached at `begin_op`:
        // this thread's quiescent announcement from its *previous* op does
        // not block mid-op epoch advances, so a reader beginning in epoch
        // `e+1` before this record's unlink can hold a pointer while a
        // stale-`e` stamp frees it at `e+2`. Re-reading restores the grace
        // period argument: the `e'+1 → e'+2` advance requires every thread
        // to go quiescent after the epoch reached `e'+1`, which postdates
        // this retire and hence the unlink (same stale-stamp shape smr-check
        // caught in DEBRA).
        self.sync_local_epoch(ctx, self.epoch.now());
        // No watermark trigger: the epoch scan is QSBR's only sweep.
        let retired = Retired::new(ptr.as_raw(), ctx.epoch);
        self.core.retire(&mut ctx.local, retired);
    }

    #[inline]
    fn validation_stamp(&self, ctx: &mut QsbrCtx) -> Option<u64> {
        // Sound for QSBR for the same reason as DEBRA: the local epoch
        // re-syncs to the global epoch at every `begin_op`, so stamp
        // equality between two operations means the global epoch never
        // advanced in between — and a record retired at epoch `e` is only
        // freed once its owner observes epoch `e + 2`.
        self.core.config().memo.then_some(ctx.epoch)
    }

    fn flush(&self, ctx: &mut QsbrCtx) {
        for _ in 0..3 {
            let e = self.epoch.now();
            self.slots[ctx.local.tid()]
                .quiescent_epoch
                .store(e, Ordering::SeqCst);
            self.try_advance(ctx);
            self.sync_local_epoch(ctx, self.epoch.now());
        }
    }

    fn thread_stats(&self, ctx: &QsbrCtx) -> ThreadStats {
        ctx.local.stats_snapshot()
    }

    fn thread_stats_mut<'a>(&self, ctx: &'a mut QsbrCtx) -> &'a mut ThreadStats {
        &mut ctx.local.stats
    }

    fn limbo_len(&self, ctx: &QsbrCtx) -> usize {
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

    fn op_with_retire(smr: &Qsbr, ctx: &mut QsbrCtx, key: u64) {
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
    fn reclamation_happens_across_quiescent_states() {
        let smr = Qsbr::new(SmrConfig::for_tests());
        let mut ctx = smr.register(0);
        for i in 0..100 {
            op_with_retire(&smr, &mut ctx, i);
        }
        smr.flush(&mut ctx);
        assert!(smr.thread_stats(&ctx).frees > 0);
        smr.unregister(&mut ctx);
    }

    #[test]
    fn thread_that_never_quiesces_blocks_reclamation() {
        let smr = Qsbr::new(SmrConfig::for_tests());
        let mut worker = smr.register(0);
        let mut stalled = smr.register(1);
        smr.begin_op(&mut stalled);
        // Make the stalled thread's announcement stale: it has not been
        // quiescent since the current epoch began.
        // (Its registration-time announcement counts for the current epoch, so
        // force one advance first via the worker.)
        for i in 0..500 {
            op_with_retire(&smr, &mut worker, i);
        }
        smr.flush(&mut worker);
        let frees_so_far = smr.thread_stats(&worker).frees;
        // After the first couple of epochs, the stalled thread pins everything.
        for i in 0..200 {
            op_with_retire(&smr, &mut worker, i);
        }
        smr.flush(&mut worker);
        let frees_after = smr.thread_stats(&worker).frees;
        assert_eq!(
            frees_after - frees_so_far,
            0,
            "no further reclamation may happen while a thread never quiesces"
        );
        smr.end_op(&mut stalled);
        smr.unregister(&mut stalled);
        smr.unregister(&mut worker);
    }

    #[test]
    fn offline_threads_do_not_block() {
        let smr = Qsbr::new(SmrConfig::for_tests());
        let mut worker = smr.register(0);
        let mut other = smr.register(1);
        smr.unregister(&mut other); // goes offline immediately
        for i in 0..100 {
            op_with_retire(&smr, &mut worker, i);
        }
        smr.flush(&mut worker);
        assert!(smr.thread_stats(&worker).frees > 0);
        smr.unregister(&mut worker);
    }
}
