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
//! **Point sweep.** A scan reads the announced eras the way the
//! hazard-pointer scan reads hazards — one `SeqCst` fence, then two
//! [`SlotBlock::collect_into`] passes — and keeps a retired record iff some
//! announced era `e` has `birth ≤ e ≤ retire`, the published HE rule. That
//! is sound because `protect` returns a pointer only after re-reading the
//! era it announced, and the pointer came from a link whose owner was
//! unmarked at the load, so the record was linked at that era. A hop
//! through a frozen marked chain has no such guarantee, so HE keeps
//! `CAN_TRAVERSE_UNLINKED = false` and the Harris list restarts instead of
//! walking marked chains under it (DESIGN.md, "Point eras cover every
//! record a live path reaches").
//!
//! The announced eras live in a [`SlotBlock`], one line-aligned row per
//! thread, each slot one era word ([`NONE`] when empty).

use smr_common::{
    Atomic, EraClock, Magazine, ReclaimCore, ReclaimLocal, Retired, Shared, SlotBlock, Smr,
    SmrConfig, SmrNode, ThreadStats,
};
use std::sync::atomic::{fence, Ordering};

/// Slot value meaning "no era announced".
pub(crate) const NONE: u64 = 0;

// An era is stored in a slot word as `era as usize`, which must not truncate.
const _: () = assert!(usize::BITS >= u64::BITS);

/// Copies the era `tid` announced in `src_slot` (not the current one, which
/// may postdate the record's retirement) into `dst_slot`: that era lies in
/// the record's lifetime, so it stays protected under `dst_slot`. HE and
/// WFE share this `protect_copy`.
///
/// Era slots are single-writer, so reading our own slots Relaxed is exact;
/// and when `dst_slot` *already* holds the source era — the common case on
/// list traversals, where every slot converges to the current era within a
/// few hops and then stays there until the next era advance — the copy is
/// idempotent: the value was published by an earlier `SeqCst` store of this
/// thread and every scan already sees it, so the store (and its full fence
/// on x86) can be skipped. This removes the per-hop `SeqCst` pair the
/// Harris list's `left`-promotion paid on every unmarked hop (HE's
/// harris-list outlier; see DESIGN.md, "Skipping idempotent era
/// republishes").
#[inline]
pub(crate) fn copy_era(slots: &SlotBlock, tid: usize, dst_slot: usize, src_slot: usize) {
    let row = slots.of(tid);
    let era = row[src_slot].load(Ordering::Relaxed);
    if row[dst_slot].load(Ordering::Relaxed) != era {
        row[dst_slot].store(era, Ordering::SeqCst);
    }
    if era != NONE as usize {
        smr_common::check::claim_era(tid, dst_slot, era as u64);
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
    slots: SlotBlock,
}

impl HazardEras {
    fn scan_and_reclaim(&self, ctx: &mut HeCtx) {
        self.core.scan(&mut ctx.local, |local, _tail| {
            // Single-fence scan (see DESIGN.md): one SeqCst fence, then
            // Acquire loads of every announced era.
            fence(Ordering::SeqCst);
            local.addrs.clear();
            // Two passes close the `protect_copy` race for an era moved
            // between slots mid-scan, by the hazard-pointer scan's argument
            // (DESIGN.md, "Validate-after-copy for moved hazards").
            let registry = self.core.registry();
            self.slots.collect_into(registry, None, &mut local.addrs);
            self.slots.collect_into(registry, None, &mut local.addrs);
            // SAFETY: a thread only dereferences records it reached through
            // live predecessors (`CAN_TRAVERSE_UNLINKED = false`), and
            // `protect` validated that each was linked at the era it
            // announced for that load, so `birth ≤ e ≤ retire` for that era
            // `e` (DESIGN.md, "Point eras cover every record a live path
            // reaches"). If no announced era lies in [birth, retire], no
            // thread can still dereference the record.
            unsafe { local.sweep_outside_eras() }
        });
    }
}

impl Smr for HazardEras {
    type ThreadCtx = HeCtx;

    const NAME: &'static str = "HE";
    const USES_PROTECTION: bool = true;
    // An announced era covers only records linked when it was announced.
    // A record behind a frozen marked `next` may lie wholly between two of
    // this thread's eras, or have been freed by a scan before the hop, and
    // the validated re-read of the frozen `next` still returns its address
    // (`marked_chain_race.rs`; same rule as IBR).
    const CAN_TRAVERSE_UNLINKED: bool = false;

    fn new(config: SmrConfig) -> Self {
        let core = ReclaimCore::new(config);
        Self {
            slots: SlotBlock::new(core.config()),
            core,
            era: EraClock::new(),
        }
    }

    fn config(&self) -> &SmrConfig {
        self.core.config()
    }

    fn register(&self, tid: usize) -> HeCtx {
        let mut local: ReclaimLocal = self.core.register(tid);
        let config = self.core.config();
        // Each of the scan's two passes pushes up to `R·N` eras.
        let eras = 2 * config.max_reservations * config.max_threads;
        local.addrs.reserve_exact(eras);
        local.lowers.reserve_exact(eras);
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
                // Mirror the stable announcement (the oracle checks a
                // thread's era claims as the same points the sweep reads).
                smr_common::check::claim_era(tid, slot, era);
                return p;
            }
            slots[slot].store(era as usize, Ordering::SeqCst);
            // Keep the mirrored claim in lockstep with the real slot: the
            // old era stops being announced by the store above, and leaving
            // it claimed would make the oracle protect records the real
            // sweep frees (no preempt point sits between the store and this
            // call, so the pair is scheduler-atomic).
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
        copy_era(&self.slots, ctx.local.tid(), dst_slot, src_slot);
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
    fn point_sweep_frees_lifetimes_strictly_between_announced_eras() {
        // Every allocation advances the era, and only `flush` scans.
        let config = SmrConfig::for_tests()
            .with_epoch_freq(1)
            .with_watermarks(1 << 20, 8)
            .with_scan_heartbeat_ops(0);
        let smr = HazardEras::new(config);
        let mut owner = smr.register(0);
        let mut reader = smr.register(1);
        let node = |key| Node {
            header: NodeHeader::new(),
            key,
        };
        let cell = Atomic::<Node>::null();

        // The reader announces e1 in slot 0 while `spans_e1` is linked.
        let spans_e1 = smr.alloc(&mut owner, node(1));
        cell.store(spans_e1, Ordering::Release);
        smr.protect(&mut reader, 0, &cell);
        let e1 = smr.global_era();
        unsafe { smr.retire(&mut owner, spans_e1) };

        // Born after e1 and retired before e2.
        let skip = smr.alloc(&mut owner, node(0));
        unsafe { smr.dealloc_unpublished(&mut owner, skip) };
        let gaps = 3;
        for key in 0..gaps {
            let gap = smr.alloc(&mut owner, node(10 + key));
            unsafe { smr.retire(&mut owner, gap) };
        }

        // The reader announces e2 in slot 1 while `spans_e2` is linked.
        let spans_e2 = smr.alloc(&mut owner, node(2));
        cell.store(spans_e2, Ordering::Release);
        smr.protect(&mut reader, 1, &cell);
        let e2 = smr.global_era();
        unsafe { smr.retire(&mut owner, spans_e2) };
        assert!(e1 < e2);

        let contains = |&(b, r): &(u64, u64), e: u64| b <= e && e <= r;
        let lifetimes = |ctx: &HeCtx| -> Vec<(u64, u64)> {
            let bag = ctx.local.limbo.iter();
            bag.map(|r| (r.birth_era(), r.retire_era())).collect()
        };
        let before = lifetimes(&owner);
        assert_eq!(before.len() as u64, gaps + 2);
        let between = |&(b, r): &(u64, u64)| e1 < b && r < e2;
        assert_eq!(before.iter().filter(|l| between(l)).count() as u64, gaps);

        smr.flush(&mut owner);
        let after = lifetimes(&owner);
        assert_eq!(smr.thread_stats(&owner).frees, gaps, "the gap records go");
        assert_eq!(after.len(), 2);
        assert!(
            after.iter().any(|l| contains(l, e1)),
            "kept by e1: {after:?}"
        );
        assert!(
            after.iter().any(|l| contains(l, e2)),
            "kept by e2: {after:?}"
        );

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
