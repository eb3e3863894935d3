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
//! a set of points. Point-era sweeping has a gap that is unsound the moment a
//! traversal follows a pointer out of an *unlinked* record (the Harris list's
//! marked chains): a record born and retired strictly *between* two of the
//! traverser's announced eras is covered by neither point and gets freed
//! while the traverser holds a validated pointer to it — the root cause of
//! the marked-chain race this port originally side-stepped with
//! `CAN_TRAVERSE_UNLINKED = false` (reproduced deterministically in
//! `tests/tests/marked_chain_race.rs`). The hull closes the gap and is what
//! lets HE run the paper-faithful batch-unlink traversal; the full safety
//! argument is in DESIGN.md, "Traversals through unlinked records under the
//! interval reclaimers".
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
    /// Test-only resurrection of the pre-fix **point-era** sweep: each
    /// announced era is treated as a degenerate `[e, e]` interval instead of
    /// folding a thread's slots into their contiguous hull. This reopens the
    /// exact marked-chain soundness hole PR 5 closed (a record born and
    /// retired strictly between two announced eras is covered by neither
    /// point) so the smr-check explorer can prove it rediscovers the bug.
    /// Only settable under the `check` feature; never read by release builds.
    #[cfg(feature = "check")]
    resurrect_point_sweep: std::sync::atomic::AtomicBool,
}

impl HazardEras {
    /// [`EraTable::collect_hulls`], or — resurrected pre-fix behaviour —
    /// every announced era as its own degenerate interval, so the gap
    /// between two announcements covers nothing.
    fn collect_hulls(&self, lowers: &mut Vec<u64>, uppers: &mut Vec<u64>) {
        #[cfg(feature = "check")]
        if self
            .resurrect_point_sweep
            .load(std::sync::atomic::Ordering::SeqCst)
        {
            for tid in self.core.registry().active_tids() {
                for s in self.slots.of(tid) {
                    let e = s.load(Ordering::Acquire) as u64;
                    if e != NONE {
                        lowers.push(e);
                        uppers.push(e);
                    }
                }
            }
            return;
        }
        self.slots
            .collect_hulls(self.core.registry(), lowers, uppers);
    }

    fn scan_and_reclaim(&self, ctx: &mut HeCtx) {
        self.core.scan(&mut ctx.local, |local, _tail| {
            // Single-fence scan (see DESIGN.md): one SeqCst fence, then
            // Acquire loads of every announced era.
            fence(Ordering::SeqCst);
            local.lowers.clear();
            local.uppers.clear();
            self.collect_hulls(&mut local.lowers, &mut local.uppers);
            // SAFETY: a thread can only dereference a record whose lifetime
            // overlaps its announced era hull — announced point eras cover
            // every record reached through live predecessors, and the hull
            // in between covers records reached through *unlinked*
            // (marked-frozen) predecessors, whose retire eras are
            // sandwiched between the traverser's announcements (DESIGN.md,
            // "Traversals through unlinked records under the interval
            // reclaimers"). If no hull overlaps [birth, retire], no thread
            // can still dereference the record.
            unsafe { local.sweep_disjoint_intervals() }
        });
    }

    /// Restores the pre-fix point-era sweep (see the field docs). Test-only:
    /// the smr-check resurrect suite flips this to prove the checker finds
    /// the historical marked-chain bug.
    #[cfg(feature = "check")]
    pub fn resurrect_point_era_sweep(&self) {
        self.resurrect_point_sweep
            .store(true, std::sync::atomic::Ordering::SeqCst);
    }
}

impl Smr for HazardEras {
    type ThreadCtx = HeCtx;

    const NAME: &'static str = "HE";
    const USES_PROTECTION: bool = true;
    // Safe since the scan sweeps per-thread era *hulls* (see the module
    // docs): a record reached through a marked-frozen pointer out of an
    // unlinked record has its lifetime sandwiched between the eras the
    // traverser announced before and at the hop, so the hull pins it even
    // though no announced point era falls inside the lifetime. The HE
    // *paper*'s point-era scan inherits HP's usage contract and must not set
    // this; the deterministic reproducer in `marked_chain_race.rs` shows
    // exactly how the point sweep frees a chain successor early.
    const CAN_TRAVERSE_UNLINKED: bool = true;

    fn new(config: SmrConfig) -> Self {
        let core = ReclaimCore::new(config);
        Self {
            slots: EraTable(SlotBlock::new(core.config())),
            core,
            era: EraClock::new(),
            #[cfg(feature = "check")]
            resurrect_point_sweep: std::sync::atomic::AtomicBool::new(false),
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
        // Era-stamped before staging. The `empty_freq` scan cadence stays
        // per-retire; the watermark trigger is consulted once per batch of
        // retires (bounded overshoot of RETIRE_BATCH_CAP - 1).
        let retired = Retired::new(ptr.as_raw(), self.era.now());
        let at_hi = self.core.retire(&mut ctx.local, retired);
        if self.core.cadence_due(&mut ctx.local) || at_hi {
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
        let smr = HazardEras::new(SmrConfig::for_tests().with_epoch_freqs(1, 4));
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
        let smr = HazardEras::new(SmrConfig::for_tests().with_epoch_freqs(2, 64));
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
