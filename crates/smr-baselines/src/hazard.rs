//! Hazard pointers (Michael, 2004) with asymmetric fences (Folly, HPAsym).
//!
//! The canonical bounded-garbage scheme and the paper's representative of the
//! "per-access overhead" family: before dereferencing a record a thread must
//! announce a hazard pointer to it, fence, and validate that the source still
//! points to it (re-reading until stable). Michael's fence is a full barrier
//! per hop — an XCHG on x86, the overhead the paper's list experiments show
//! (HP up to 2–3.4× slower than NBR+ on the lazy list). Here the reader's
//! fence is [`barrier::light`], a compiler fence once `membarrier(2)` is
//! registered, and the scanner pays [`barrier::heavy`] once per scan instead
//! (DESIGN.md, "Asymmetric fences for hazard pointers"); where the kernel
//! refuses, both are `fence(SeqCst)`.
//!
//! Validation re-reads the source field until it equals the announced value.
//! That is sound only where a record's unlinking shows in the field it was
//! loaded from (a mark, or a restart on one). On the lazy list and the DGT
//! tree it does not: HP on either is a Table 1 "no" pair, which the schedule
//! explorer turns into a use-after-free (the replay calls are in
//! `lazy_list.rs` and `dgt_tree.rs`). Retired records are scanned against
//! every announced hazard and freed only when unprotected, which bounds
//! garbage by `HiWatermark + K·N`. The `K` hazards of each thread are its row
//! of the shared [`SlotBlock`].

use smr_common::{
    barrier, Atomic, Magazine, ReclaimCore, ReclaimLocal, Retired, Shared, SlotBlock, Smr,
    SmrConfig, SmrNode, ThreadStats,
};
use std::sync::atomic::Ordering;

/// Per-thread context for [`HazardPointers`].
pub struct HpCtx {
    local: ReclaimLocal,
}

/// The hazard-pointer reclaimer.
pub struct HazardPointers {
    core: ReclaimCore,
    hazards: SlotBlock,
}

impl HazardPointers {
    fn scan_and_reclaim(&self, ctx: &mut HpCtx) {
        self.core.scan(&mut ctx.local, |local, _tail| {
            // Single-barrier scan: one heavy barrier orders this scan against
            // every announcing thread's protect sequence (hazard store, light
            // barrier, validating load); the per-slot loads themselves only
            // need Acquire. See DESIGN.md, "Asymmetric fences for hazard
            // pointers".
            barrier::heavy();
            local.addrs.clear();
            // Two collection passes close the `protect_copy` scan race
            // (ROADMAP item; argued in DESIGN.md, "Validate-after-copy for
            // moved hazards"): a hazard moved from slot `src` to slot `dst`
            // mid-scan can be missed by one pass (read `dst` before the
            // copy, read `src` after its overwrite), but the copy into `dst`
            // is sequenced before the overwrite of `src`, so a pass that
            // starts after observing the overwrite — pass 2 starts after
            // pass 1 read it — sees `dst` populated. Records protected in a
            // stable slot are trivially seen by both passes. This covers
            // exactly ONE relocation of a continuously-held record per scan,
            // which is what the `Smr::protect_copy` relocation contract
            // licenses callers to do.
            let registry = self.core.registry();
            self.hazards.collect_into(registry, None, &mut local.addrs);
            self.hazards.collect_into(registry, None, &mut local.addrs);
            // SAFETY: a retired record is unlinked; any thread that could
            // still dereference it must have announced (and validated) a
            // hazard pointer to it before our scan's barrier, so records
            // absent from `addrs` are safe (Michael's original argument;
            // asymmetric single-barrier variant argued in DESIGN.md).
            unsafe { local.sweep_unreserved(usize::MAX) }
        });
    }
}

impl Smr for HazardPointers {
    type ThreadCtx = HpCtx;

    const NAME: &'static str = "HP";
    const USES_PROTECTION: bool = true;
    // Protection is validated by re-reading the source field; once the source
    // record is marked its `next` is frozen, so the validation re-read can
    // never detect that the pointee was retired — and possibly freed and
    // recycled *before this thread ever loaded the pointer*, a window no
    // address-based hazard can cover (DESIGN.md, "Why the HP family keeps
    // the Harris-Michael fallback"). Traversing out of unlinked records is
    // therefore inherently unsafe for HP.
    const CAN_TRAVERSE_UNLINKED: bool = false;

    fn new(config: SmrConfig) -> Self {
        barrier::init();
        let core = ReclaimCore::new(config);
        let hazards = SlotBlock::new(core.config());
        Self { core, hazards }
    }

    fn config(&self) -> &SmrConfig {
        self.core.config()
    }

    fn register(&self, tid: usize) -> HpCtx {
        let mut local: ReclaimLocal = self.core.register(tid);
        self.hazards.clear(tid);
        let config = self.core.config();
        local
            .addrs
            .reserve_exact(config.max_reservations * config.max_threads);
        HpCtx { local }
    }

    fn unregister(&self, ctx: &mut HpCtx) {
        self.hazards.clear(ctx.local.tid());
        // Last chance to free what is already safe; the rest is orphaned.
        self.scan_and_reclaim(ctx);
        self.core.unregister(&mut ctx.local);
    }

    #[inline]
    fn magazine_mut<'a>(&self, ctx: &'a mut HpCtx) -> Option<&'a mut Magazine> {
        Some(&mut ctx.local.mag)
    }

    #[inline]
    fn protect<T: SmrNode>(&self, ctx: &mut HpCtx, slot: usize, src: &Atomic<T>) -> Shared<T> {
        let tid = ctx.local.tid();
        let slots = self.hazards.of(tid);
        debug_assert!(slot < slots.len(), "hazard slot index out of range");
        // The slot is being repurposed: whatever it validated before stops
        // being protected at the first announcement store below, so the
        // mirrored claim must drop *now* (a claim outliving its slot would
        // flag legal frees of the abandoned record).
        smr_common::check::claim_addr(tid, slot, 0);
        let mut p = src.load(Ordering::Acquire);
        loop {
            // Announce, light barrier (the scan's heavy one supplies the
            // store→load order), then validate against the source.
            slots[slot].store(p.untagged_usize(), Ordering::Release);
            barrier::light();
            let q = src.load(Ordering::Acquire);
            if q.ptr_eq(p) {
                // The claim is mirrored only for the *validated* value: a
                // failing iteration's transient announcement protects nothing
                // (the record may legitimately be freed while it is up).
                smr_common::check::claim_addr(tid, slot, q.untagged_usize());
                return q;
            }
            ctx.local.stats.protect_failures += 1;
            p = q;
        }
    }

    #[inline]
    fn protect_copy<T: SmrNode>(
        &self,
        ctx: &mut HpCtx,
        dst_slot: usize,
        _src_slot: usize,
        ptr: Shared<T>,
    ) {
        // The record is covered by the caller's existing hazard in
        // `src_slot` (or is otherwise immune, e.g. a sentinel), so announcing
        // it in another slot cannot race with its reclamation — *provided* a
        // concurrent scan cannot read `dst_slot` before this store and
        // `src_slot` after the caller's next overwrite of it, missing both.
        // The slots are single-writer, so re-reading `src_slot` here
        // (writer-side "validate-after-copy") is vacuous — it can only
        // change under the owner's own later stores; the race is closed on
        // the scanner side instead, which collects every slot twice (see
        // `scan_and_reclaim` and DESIGN.md, "Validate-after-copy for moved
        // hazards"). That argument needs only this store ordered before the
        // later overwrite of `src_slot`, which `Release` gives.
        let tid = ctx.local.tid();
        self.hazards.of(tid)[dst_slot].store(ptr.untagged_usize(), Ordering::Release);
        smr_common::check::claim_addr(tid, dst_slot, ptr.untagged_usize());
    }

    #[inline]
    fn clear_protections(&self, ctx: &mut HpCtx) {
        self.hazards.clear(ctx.local.tid());
    }

    #[inline]
    fn end_op(&self, ctx: &mut HpCtx) {
        self.hazards.clear(ctx.local.tid());
        if self.core.heartbeat_due(&mut ctx.local) {
            self.scan_and_reclaim(ctx);
        }
    }

    unsafe fn retire<T: SmrNode>(&self, ctx: &mut HpCtx, ptr: Shared<T>) {
        debug_assert!(!ptr.is_null());
        let retired = Retired::new(ptr.as_raw(), 0);
        if self.core.retire(&mut ctx.local, retired) {
            self.scan_and_reclaim(ctx);
        }
    }

    fn flush(&self, ctx: &mut HpCtx) {
        self.scan_and_reclaim(ctx);
    }

    fn thread_stats(&self, ctx: &HpCtx) -> ThreadStats {
        ctx.local.stats_snapshot()
    }

    fn thread_stats_mut<'a>(&self, ctx: &'a mut HpCtx) -> &'a mut ThreadStats {
        &mut ctx.local.stats
    }

    fn limbo_len(&self, ctx: &HpCtx) -> usize {
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
    fn protected_record_is_not_freed() {
        let smr = HazardPointers::new(SmrConfig::for_tests());
        let mut owner = smr.register(0);
        let mut reader = smr.register(1);

        let shared = Atomic::<Node>::null();
        let node = smr.alloc(
            &mut owner,
            Node {
                header: NodeHeader::new(),
                key: 7,
            },
        );
        shared.store(node, Ordering::Release);

        // Reader protects the record.
        let p = smr.protect(&mut reader, 0, &shared);
        assert_eq!(unsafe { p.deref().key }, 7);

        // Owner unlinks and retires it, plus filler to force scans.
        let old = shared.swap(Shared::null(), Ordering::AcqRel);
        unsafe { smr.retire(&mut owner, old) };
        for i in 0..(smr.config().hi_watermark * 2) {
            let f = smr.alloc(
                &mut owner,
                Node {
                    header: NodeHeader::new(),
                    key: i as u64,
                },
            );
            unsafe { smr.retire(&mut owner, f) };
        }
        assert!(smr.thread_stats(&owner).frees > 0);
        // Protected record still readable (and still in limbo).
        assert_eq!(unsafe { p.deref().key }, 7);
        assert!(smr.limbo_len(&owner) >= 1);

        // Once the reader clears its hazards the record becomes reclaimable.
        smr.clear_protections(&mut reader);
        smr.flush(&mut owner);
        assert_eq!(smr.limbo_len(&owner), 0);

        smr.unregister(&mut reader);
        smr.unregister(&mut owner);
    }

    #[test]
    fn protect_validates_against_concurrent_change() {
        let smr = HazardPointers::new(SmrConfig::for_tests());
        let mut ctx = smr.register(0);
        let shared = Atomic::<Node>::null();
        let a = smr.alloc(
            &mut ctx,
            Node {
                header: NodeHeader::new(),
                key: 1,
            },
        );
        shared.store(a, Ordering::Release);
        let p = smr.protect(&mut ctx, 0, &shared);
        assert!(p.ptr_eq(a));
        // The announced hazard must equal the validated pointer.
        let announced = smr.hazards.of(0)[0].load(Ordering::SeqCst);
        assert_eq!(announced, a.untagged_usize());
        let old = shared.swap(Shared::null(), Ordering::AcqRel);
        unsafe { smr.retire(&mut ctx, old) };
        smr.clear_protections(&mut ctx);
        smr.flush(&mut ctx);
        smr.unregister(&mut ctx);
    }

    #[test]
    fn garbage_is_bounded_by_watermark_plus_hazards() {
        let smr = HazardPointers::new(SmrConfig::for_tests());
        let cfg = smr.config().clone();
        let mut ctx = smr.register(0);
        // Coalescing slack: the watermark trigger is consulted only on batch
        // flush, so the bag may overshoot by one unfilled batch.
        let bound = cfg.hi_watermark
            + cfg.max_reservations * cfg.max_threads
            + (smr_common::RETIRE_BATCH_CAP - 1);
        for i in 0..(cfg.hi_watermark * 8) {
            let p = smr.alloc(
                &mut ctx,
                Node {
                    header: NodeHeader::new(),
                    key: i as u64,
                },
            );
            unsafe { smr.retire(&mut ctx, p) };
            assert!(smr.limbo_len(&ctx) <= bound);
        }
        smr.unregister(&mut ctx);
    }

    /// Regression test for the `protect_copy` scan race (ROADMAP item): one
    /// thread continuously holds a record while *moving* its hazard from
    /// slot 1 to slot 0 and reusing slot 1 — the one relocation per held
    /// record the `Smr::protect_copy` contract licenses, and exactly the
    /// Harris list's `left`-promotion pattern — while another thread retires
    /// the record and scans concurrently. With a single collection pass a
    /// scan can read slot 0 before the copy and slot 1 after its overwrite
    /// and free the record mid-move; the double-collect scan must never free
    /// a record that is continuously covered. The dereferences below turn a
    /// premature free into a checkable wrong value (or an ASAN fault).
    #[test]
    fn moved_hazard_survives_concurrent_scans() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let smr = Arc::new(HazardPointers::new(
            SmrConfig::for_tests().with_max_threads(4),
        ));
        const ROUNDS: usize = 150;

        for round in 0..ROUNDS {
            let shared = Arc::new(Atomic::<Node>::null());
            let mut owner = smr.register(0);
            let node = smr.alloc(
                &mut owner,
                Node {
                    header: NodeHeader::new(),
                    key: round as u64,
                },
            );
            shared.store(node, Ordering::Release);

            let moving = Arc::new(AtomicBool::new(false));
            let done_moving = Arc::new(AtomicBool::new(false));
            let reader = {
                let smr = Arc::clone(&smr);
                let shared = Arc::clone(&shared);
                let moving = Arc::clone(&moving);
                let done_moving = Arc::clone(&done_moving);
                std::thread::spawn(move || {
                    let mut ctx = smr.register(1);
                    // Announce in slot 1 (the *higher* index: a scan reads
                    // slot 0 first, which is the racy direction for a
                    // 1→0 move), validated against the source.
                    let p = smr.protect(&mut ctx, 1, &shared);
                    moving.store(true, Ordering::SeqCst);
                    // The single relocation: copy 1 → 0, then reuse slot 1
                    // for unrelated announcements, exactly once per held
                    // record. The record stays continuously protected.
                    smr.protect_copy(&mut ctx, 0, 1, p);
                    smr.hazards.of(1)[1].store(0x1000, Ordering::SeqCst);
                    for i in 0..32u64 {
                        assert_eq!(
                            unsafe { p.deref().key },
                            round as u64,
                            "record freed while continuously protected (scan race)"
                        );
                        // Churn the reused source slot like a traversal would.
                        smr.hazards.of(1)[1].store(0x1000 + i as usize * 16, Ordering::SeqCst);
                        std::thread::yield_now();
                    }
                    done_moving.store(true, Ordering::SeqCst);
                    smr.clear_protections(&mut ctx);
                    smr.unregister(&mut ctx);
                })
            };

            while !moving.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            // Retire the record and scan repeatedly while the reader holds
            // the moved hazard.
            let old = shared.swap(Shared::null(), Ordering::AcqRel);
            unsafe { smr.retire(&mut owner, old) };
            while !done_moving.load(Ordering::SeqCst) {
                smr.flush(&mut owner);
            }
            reader.join().unwrap();
            smr.flush(&mut owner);
            assert_eq!(smr.limbo_len(&owner), 0, "record reclaimed after release");
            smr.unregister(&mut owner);
        }
    }

    /// Regression test for the asymmetric protocol: a reader's hazard is a
    /// `Release` store behind a compiler fence, so only the scanner's
    /// `barrier::heavy` orders it before the slot loads. The reader spins
    /// protect → deref → check on whatever the shared cell holds while the
    /// owner unlinks, retires and scans; `recycle = false` sends a premature
    /// free straight to the global allocator (an ASan report under
    /// `ci/asan.sh`), and `Drop` poisons the key so a read between the
    /// destructor and the free is a checkable wrong value.
    #[test]
    fn protected_record_survives_asymmetric_scans() {
        use std::sync::atomic::{AtomicBool, AtomicU64};
        use std::sync::Arc;

        const ROUNDS: u64 = 200;
        const POISON: u64 = u64::MAX;
        struct Poisoned {
            header: NodeHeader,
            key: u64,
        }
        smr_common::impl_smr_node!(Poisoned);
        impl Drop for Poisoned {
            fn drop(&mut self) {
                self.key = POISON;
            }
        }

        let smr = Arc::new(HazardPointers::new(
            SmrConfig::for_tests().with_recycle(false),
        ));
        let shared = Arc::new(Atomic::<Poisoned>::null());
        let seen = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let (smr, shared) = (Arc::clone(&smr), Arc::clone(&shared));
            let (seen, stop) = (Arc::clone(&seen), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut ctx = smr.register(1);
                while !stop.load(Ordering::Relaxed) {
                    let p = smr.protect(&mut ctx, 0, &shared);
                    if p.is_null() {
                        continue;
                    }
                    // Hold the record across the owner's unlink and scans:
                    // a scan that missed the hazard frees it mid-hold.
                    for _ in 0..256 {
                        let key = unsafe { p.deref().key };
                        assert!(key < ROUNDS, "protected record freed: key {key:#x}");
                        seen.store(key + 1, Ordering::Release);
                        std::hint::spin_loop();
                    }
                }
                smr.clear_protections(&mut ctx);
                smr.unregister(&mut ctx);
            })
        };

        let mut owner = smr.register(0);
        for round in 0..ROUNDS {
            let node = smr.alloc(
                &mut owner,
                Poisoned {
                    header: NodeHeader::new(),
                    key: round,
                },
            );
            shared.store(node, Ordering::Release);
            while seen.load(Ordering::Acquire) != round + 1 {
                if reader.is_finished() {
                    // The reader's assertion fired; `join` re-raises it.
                    reader.join().unwrap();
                    unreachable!("the reader exits only on `stop` or a panic");
                }
                std::thread::yield_now();
            }
            let old = shared.swap(Shared::null(), Ordering::AcqRel);
            unsafe { smr.retire(&mut owner, old) };
            for _ in 0..4 {
                smr.flush(&mut owner);
            }
        }
        stop.store(true, Ordering::Relaxed);
        reader.join().unwrap();
        smr.flush(&mut owner);
        assert_eq!(smr.limbo_len(&owner), 0, "every record freed after release");
        assert_eq!(smr.thread_stats(&owner).frees, ROUNDS);
        smr.unregister(&mut owner);
    }

    #[test]
    fn end_op_clears_hazards() {
        let smr = HazardPointers::new(SmrConfig::for_tests());
        let mut ctx = smr.register(0);
        let shared = Atomic::<Node>::null();
        let a = smr.alloc(
            &mut ctx,
            Node {
                header: NodeHeader::new(),
                key: 1,
            },
        );
        shared.store(a, Ordering::Release);
        let _ = smr.protect(&mut ctx, 2, &shared);
        assert_ne!(smr.hazards.of(0)[2].load(Ordering::SeqCst), 0);
        smr.end_op(&mut ctx);
        assert_eq!(smr.hazards.of(0)[2].load(Ordering::SeqCst), 0);
        let old = shared.swap(Shared::null(), Ordering::AcqRel);
        unsafe { smr.retire(&mut ctx, old) };
        smr.unregister(&mut ctx);
    }
}
