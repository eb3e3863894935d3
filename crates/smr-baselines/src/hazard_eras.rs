//! Hazard eras (Ramalhete & Correia, SPAA 2017).
//!
//! A hybrid of hazard pointers and epochs: instead of announcing the *address*
//! of every record it is about to dereference, a thread announces the global
//! *era* it is reading in, one per hazard-index. A retired record is safe once
//! no announced era falls inside its `[birth, retire]` lifetime. This keeps
//! HP's bounded garbage while replacing the per-record validation re-read with
//! an era re-read (still a per-access store + fence, which is why the paper
//! groups HE with the "instrumentation similar to HPs" family).
//!
//! **Era-hull scan.** The reclamation scan treats each thread's announced
//! eras as the contiguous interval `[min, max]` over its slots rather than as
//! a set of points. The hull closes the gap between two announced eras, but
//! not a hop made *after* a scan: a scan that saw the hull end below a
//! chain record's birth era frees it, and the validated re-read of the
//! frozen `next` still returns its address (`tests/tests/marked_chain_race.rs`,
//! the scan-before-hop tests). So HE keeps `CAN_TRAVERSE_UNLINKED = false`
//! and the Harris list restarts instead of walking marked chains under it
//! (DESIGN.md, "Traversals through unlinked records under the interval
//! reclaimers").
//!
//! The announced eras live in a [`SlotBlock`], one line-aligned row per
//! thread, each slot one era word ([`NONE`] when empty).

use smr_common::{
    Atomic, EraClock, Magazine, ReclaimCore, ReclaimLocal, Registry, Retired, Shared, SlotBlock,
    Smr, SmrConfig, SmrNode, ThreadStats,
};
use std::ops::Deref;
use std::sync::atomic::{fence, Ordering};

/// Slot value meaning "no era announced".
pub(crate) const NONE: u64 = 0;

// An era is stored in a slot word as `era as usize`, which must not truncate.
const _: () = assert!(usize::BITS >= u64::BITS);

/// The era slots HE and WFE both publish into: a [`SlotBlock`] plus the two
/// era-specific operations, the copy and the hull fold.
pub(crate) struct EraTable(pub(crate) SlotBlock);

impl Deref for EraTable {
    type Target = SlotBlock;

    #[inline]
    fn deref(&self) -> &SlotBlock {
        &self.0
    }
}

impl EraTable {
    /// Copies the era announced in `src_slot` (not the current one, which may
    /// postdate the record's retirement) into `dst_slot`: that era covers the
    /// record's lifetime, so it stays protected under `dst_slot`.
    ///
    /// Era slots are single-writer, so reading our own slots Relaxed is
    /// exact; and when `dst_slot` *already* holds the source era — the
    /// common case on list traversals, where every slot converges to the
    /// current era within a few hops and then stays there until the next
    /// era advance — the copy is idempotent: the value was published by an
    /// earlier `SeqCst` store of this thread and every scan already sees
    /// it, so the store (and its full fence on x86) can be skipped. This
    /// removes the per-hop `SeqCst` pair the Harris list's `left`-promotion
    /// paid on every unmarked hop (HE's harris-list outlier; see
    /// DESIGN.md, "Skipping idempotent era republishes").
    #[inline]
    pub(crate) fn copy(&self, tid: usize, dst_slot: usize, src_slot: usize) {
        let slots = self.of(tid);
        let era = slots[src_slot].load(Ordering::Relaxed);
        if slots[dst_slot].load(Ordering::Relaxed) != era {
            slots[dst_slot].store(era, Ordering::SeqCst);
        }
        if era != NONE as usize {
            smr_common::check::claim_era(tid, dst_slot, era as u64);
        }
    }

    /// Snapshots every active thread's announced era *hull* — the contiguous
    /// interval `[min, max]` over its non-empty slots — pushing one bound
    /// pair per announcing thread. A helper's cross-thread announce (WFE)
    /// lands in the owner's slots, which this fold reads.
    pub(crate) fn collect_hulls(
        &self,
        registry: &Registry,
        lowers: &mut Vec<u64>,
        uppers: &mut Vec<u64>,
    ) {
        for tid in registry.active_tids() {
            let (mut lo, mut hi) = (u64::MAX, NONE);
            // Two passes over the thread's slots, folded into one hull,
            // close the `protect_copy` scan race for an era moved between
            // slots mid-scan — the same argument (and the same
            // one-relocation-per-held-record contract) as the
            // hazard-pointer scan (DESIGN.md, "Validate-after-copy for
            // moved hazards"); relocations only ever happen between slots
            // of the same thread, so per-thread double collection suffices.
            for _ in 0..2 {
                for s in self.of(tid) {
                    let e = s.load(Ordering::Acquire) as u64;
                    if e != NONE {
                        lo = lo.min(e);
                        hi = hi.max(e);
                    }
                }
            }
            if hi != NONE {
                lowers.push(lo);
                uppers.push(hi);
            }
        }
    }
}

/// Per-thread context for [`HazardEras`].
pub struct HeCtx {
    local: ReclaimLocal,
}

/// The hazard-eras reclaimer.
pub struct HazardEras {
    core: ReclaimCore,
    era: EraClock,
    slots: EraTable,
}

impl HazardEras {
    fn scan_and_reclaim(&self, ctx: &mut HeCtx) {
        self.core.scan(&mut ctx.local, |local, _tail| {
            // Single-fence scan (see DESIGN.md): one SeqCst fence, then
            // Acquire loads of every announced era.
            fence(Ordering::SeqCst);
            local.lowers.clear();
            local.uppers.clear();
            self.slots
                .collect_hulls(self.core.registry(), &mut local.lowers, &mut local.uppers);
            // SAFETY: a thread only dereferences records it reached through
            // live predecessors (`CAN_TRAVERSE_UNLINKED = false`), each
            // alive at the era it announced for that load, so the record's
            // lifetime overlaps its announced era hull (DESIGN.md,
            // "Traversals through unlinked records under the interval
            // reclaimers"). If no hull overlaps [birth, retire], no thread
            // can still dereference the record.
            unsafe { local.sweep_disjoint_intervals() }
        });
    }
}

impl Smr for HazardEras {
    type ThreadCtx = HeCtx;

    const NAME: &'static str = "HE";
    const USES_PROTECTION: bool = true;
    // The era hull pins a record on a frozen marked chain only if no scan
    // ran before the hop that reached it: a scan that saw the hull end below
    // the record's birth era has already freed it, and the validated re-read
    // of the frozen `next` still returns its address (`marked_chain_race.rs`,
    // the scan-before-hop tests; same rule as IBR).
    const CAN_TRAVERSE_UNLINKED: bool = false;

    fn new(config: SmrConfig) -> Self {
        let core = ReclaimCore::new(config);
        Self {
            slots: EraTable(SlotBlock::new(core.config())),
            core,
            era: EraClock::new(),
        }
    }

    fn config(&self) -> &SmrConfig {
        self.core.config()
    }

    fn register(&self, tid: usize) -> HeCtx {
        let mut local: ReclaimLocal = self.core.register(tid);
        local.lowers.reserve_exact(self.core.config().max_threads);
        local.uppers.reserve_exact(self.core.config().max_threads);
        self.slots.clear(tid);
        HeCtx { local }
    }

    fn unregister(&self, ctx: &mut HeCtx) {
        self.slots.clear(ctx.local.tid());
        self.scan_and_reclaim(ctx);
        self.core.unregister(&mut ctx.local);
    }

    #[inline]
    fn magazine_mut<'a>(&self, ctx: &'a mut HeCtx) -> Option<&'a mut Magazine> {
        Some(&mut ctx.local.mag)
    }

    #[inline]
    fn global_era(&self) -> u64 {
        self.era.now()
    }

    /// Announce the current era in `slot`, re-reading until the era is stable,
    /// then load the pointer (the HE `get_protected` protocol).
    #[inline]
    fn protect<T: SmrNode>(&self, ctx: &mut HeCtx, slot: usize, src: &Atomic<T>) -> Shared<T> {
        let tid = ctx.local.tid();
        let slots = self.slots.of(tid);
        debug_assert!(slot < slots.len(), "era slot index out of range");
        let mut announced = slots[slot].load(Ordering::Relaxed) as u64;
        loop {
            let p = src.load(Ordering::Acquire);
            let era = self.era.now();
            if era == announced {
                // Mirror the stable announcement (the oracle folds a
                // thread's era claims into the same [min, max] hull the
                // reclamation sweep uses).
                smr_common::check::claim_era(tid, slot, era);
                return p;
            }
            slots[slot].store(era as usize, Ordering::SeqCst);
            // Keep the mirrored claim in lockstep with the real slot: the
            // old era stops being announced by the store above, and leaving
            // it claimed would stretch the oracle's hull beyond what the
            // real sweep sees (no preempt point sits between the store and
            // this call, so the pair is scheduler-atomic).
            smr_common::check::claim_era(tid, slot, era);
            announced = era;
            ctx.local.stats.protect_failures += 1;
        }
    }

    #[inline]
    fn protect_copy<T: SmrNode>(
        &self,
        ctx: &mut HeCtx,
        dst_slot: usize,
        src_slot: usize,
        _ptr: Shared<T>,
    ) {
        self.slots.copy(ctx.local.tid(), dst_slot, src_slot);
    }

    #[inline]
    fn clear_protections(&self, ctx: &mut HeCtx) {
        self.slots.clear(ctx.local.tid());
    }

    #[inline]
    fn end_op(&self, ctx: &mut HeCtx) {
        self.slots.clear(ctx.local.tid());
        if self.core.heartbeat_due(&mut ctx.local) {
            self.scan_and_reclaim(ctx);
        }
    }

    fn alloc<T: SmrNode>(&self, ctx: &mut HeCtx, value: T) -> Shared<T> {
        // Stamp after the pop (which happens-after the block's free), so a
        // recycled block's new birth era is never older than the era at
        // which its previous incarnation was freed (`Smr::alloc` docs).
        let p = ctx.local.alloc_stamped(value, || self.era.now());
        if self.core.epoch_tick(&mut ctx.local) {
            ctx.local.note_era_advance(self.era.advance());
        }
        p
    }

    unsafe fn retire<T: SmrNode>(&self, ctx: &mut HeCtx, ptr: Shared<T>) {
        debug_assert!(!ptr.is_null());
        // Era-stamped before staging; the paced HiWatermark is consulted
        // once per batch of retires (bounded overshoot of
        // RETIRE_BATCH_CAP - 1).
        let retired = Retired::new(ptr.as_raw(), self.era.now());
        if self.core.retire(&mut ctx.local, retired) {
            self.scan_and_reclaim(ctx);
        }
    }

    fn flush(&self, ctx: &mut HeCtx) {
        self.era.advance();
        self.scan_and_reclaim(ctx);
    }

    fn thread_stats(&self, ctx: &HeCtx) -> ThreadStats {
        ctx.local.stats_snapshot()
    }

    fn thread_stats_mut<'a>(&self, ctx: &'a mut HeCtx) -> &'a mut ThreadStats {
        &mut ctx.local.stats
    }

    fn limbo_len(&self, ctx: &HeCtx) -> usize {
        ctx.local.limbo.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smr_common::NodeHeader;

    struct Node {
        header: NodeHeader,
        key: u64,
    }
    smr_common::impl_smr_node!(Node);

    #[test]
    fn reclaims_when_no_era_overlaps() {
        let smr = HazardEras::new(SmrConfig::for_tests());
        let mut ctx = smr.register(0);
        for i in 0..200 {
            smr.begin_op(&mut ctx);
            let p = smr.alloc(
                &mut ctx,
                Node {
                    header: NodeHeader::new(),
                    key: i,
                },
            );
            unsafe { smr.retire(&mut ctx, p) };
            smr.end_op(&mut ctx);
        }
        smr.flush(&mut ctx);
        assert!(smr.thread_stats(&ctx).frees > 0);
        smr.unregister(&mut ctx);
    }

    #[test]
    fn announced_era_protects_contemporary_records() {
        let smr = HazardEras::new(SmrConfig::for_tests().with_epoch_freq(1));
        let mut owner = smr.register(0);
        let mut reader = smr.register(1);

        let shared = Atomic::<Node>::null();
        let node = smr.alloc(
            &mut owner,
            Node {
                header: NodeHeader::new(),
                key: 9,
            },
        );
        shared.store(node, Ordering::Release);

        // Reader protects (announces the era covering the record's lifetime).
        let p = smr.protect(&mut reader, 0, &shared);
        assert_eq!(unsafe { p.deref().key }, 9);

        // Owner unlinks + retires it and churns through many more records.
        let old = shared.swap(Shared::null(), Ordering::AcqRel);
        unsafe { smr.retire(&mut owner, old) };
        for i in 0..100 {
            let f = smr.alloc(
                &mut owner,
                Node {
                    header: NodeHeader::new(),
                    key: i,
                },
            );
            unsafe { smr.retire(&mut owner, f) };
        }
        // The protected record must still be dereferenceable.
        assert_eq!(unsafe { p.deref().key }, 9);
        assert!(smr.limbo_len(&owner) >= 1);

        smr.clear_protections(&mut reader);
        smr.flush(&mut owner);
        assert_eq!(smr.limbo_len(&owner), 0);

        smr.unregister(&mut reader);
        smr.unregister(&mut owner);
    }

    #[test]
    fn era_advances_with_allocations() {
        let smr = HazardEras::new(SmrConfig::for_tests().with_epoch_freq(2));
        let mut ctx = smr.register(0);
        let before = smr.global_era();
        for i in 0..10 {
            let p = smr.alloc(
                &mut ctx,
                Node {
                    header: NodeHeader::new(),
                    key: i,
                },
            );
            unsafe { smr.retire(&mut ctx, p) };
        }
        assert!(smr.global_era() > before);
        smr.unregister(&mut ctx);
    }
}
