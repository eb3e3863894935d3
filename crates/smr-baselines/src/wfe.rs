//! WFE — Wait-Free Eras (Nikolaev & Ravindran, PPoPP 2020).
//!
//! The tree's first *robust* reclaimer: era reservations exactly like hazard
//! eras (per-thread era slots, era-hull reclamation sweep), plus a **helping
//! protocol** on the `protect` slow path so a thread whose announce-validate
//! loop keeps losing to era advances is finished by its peers instead of
//! retrying unboundedly. Garbage stays bounded regardless of stalled threads
//! — a stalled reader pins only the records whose lifetime overlaps its
//! announced hull, never the unbounded suffix an epoch-family scheme pins.
//!
//! # Substitution: lock-serialized helping instead of double-wide CAS
//!
//! The paper's slow path publishes the target cell's address and has helpers
//! install `(pointer, era)` results with double-wide CAS, making `protect`
//! wait-free. This port substitutes a cooperative serialization: a thread
//! that exhausts [`MAX_FAST_TRIES`] parks a request (source cell, era slot)
//! on its per-thread **help board**; every era *advance* is serialized
//! through the same mutex and services all pending boards while the era is
//! frozen — announce the frozen era in the requester's slot, load the cell,
//! publish the result — so fulfilment trivially validates (nothing can
//! advance the era mid-help). A parked requester that nobody helps within a
//! bounded spin window takes the lock and fulfils its own request. The
//! requester's `protect` is therefore bounded (≤ `MAX_FAST_TRIES` retries +
//! one lock acquisition); global progress degrades from the paper's
//! wait-freedom to lock-freedom across helpers, which the cooperative
//! checkpoint substitution (DESIGN.md S1) already accepts elsewhere. The
//! *robustness* property — bounded garbage under stalled threads — is
//! unaffected: it comes from the era-hull reservations, not from the helping
//! mechanics.
//!
//! The critical sections under the help lock contain **no instrumentation
//! preempt points** (raw atomics only — the source cell is loaded through
//! [`Atomic::raw_word`]), so under the deterministic explorer the lock is
//! scheduler-atomic, the same discipline as the recycling depot mutex.

use crate::hazard_eras::{EraTable, NONE};
use smr_common::trace::{self, TraceKind};
use smr_common::{
    Atomic, CachePadded, EraClock, Magazine, ReclaimCore, ReclaimLocal, Retired, Shared, SlotBlock,
    Smr, SmrConfig, SmrNode, ThreadStats,
};
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Announce-validate attempts before `protect` parks a help request. Two
/// iterations settle the common case (one announce, one validate); the rest
/// absorb bursts of era advances without touching the board.
const MAX_FAST_TRIES: usize = 8;

/// Spin iterations a parked requester grants its peers before taking the
/// help lock and fulfilling its own request (the liveness fallback).
const HELP_WAIT_SPINS: usize = 64;

/// One thread's help-request board. Single-requester (the owner), single
/// fulfiller at a time (fulfilment only happens under the help lock).
struct HelpBoard {
    /// Parity protocol: even = idle, odd = request pending. The owner
    /// increments to publish; the fulfiller increments to complete.
    seq: AtomicU64,
    /// Address of the source cell's raw atomic word ([`Atomic::raw_word`]).
    src: AtomicUsize,
    /// Era slot index the fulfiller must announce under.
    slot: AtomicUsize,
    /// The loaded tagged-pointer word (`Shared::into_usize` encoding).
    result_ptr: AtomicUsize,
    /// The era the fulfiller announced before loading.
    result_era: AtomicU64,
}

impl HelpBoard {
    fn new() -> Self {
        Self {
            seq: AtomicU64::new(0),
            src: AtomicUsize::new(0),
            slot: AtomicUsize::new(0),
            result_ptr: AtomicUsize::new(0),
            result_era: AtomicU64::new(NONE),
        }
    }
}

/// Per-thread context for [`Wfe`].
pub struct WfeCtx {
    local: ReclaimLocal,
}

/// The Wait-Free Eras reclaimer.
pub struct Wfe {
    core: ReclaimCore,
    era: EraClock,
    slots: EraTable,
    boards: Vec<CachePadded<HelpBoard>>,
    /// Serializes era advances with help fulfilment: any holder sees a
    /// frozen era, so announce-then-load fulfilment cannot be invalidated.
    help_lock: Mutex<()>,
}

impl Wfe {
    /// Advances the global era, first servicing every pending help request
    /// while the era is frozen under the lock — the helping half of the
    /// protocol: era advances are exactly the events that defeat the fast
    /// path, so the advancing thread pays for the slow paths it causes.
    fn advance_era(&self) -> u64 {
        let guard = self.help_lock.lock().unwrap();
        self.fulfil_pending_requests();
        let e = self.era.advance();
        drop(guard);
        e
    }

    /// Services every active thread's pending help request. Caller must hold
    /// `help_lock`; the critical section is preempt-point-free.
    fn fulfil_pending_requests(&self) {
        for tid in self.core.registry().active_tids() {
            self.fulfil_one(tid);
        }
    }

    /// Fulfils `tid`'s help request if one is pending. Caller must hold
    /// `help_lock` (single fulfiller; frozen era).
    fn fulfil_one(&self, tid: usize) {
        let board = &self.boards[tid];
        let seq = board.seq.load(Ordering::Acquire);
        if seq % 2 == 0 {
            return;
        }
        let era = self.era.now();
        let slot = board.slot.load(Ordering::Relaxed);
        // Announce on the requester's behalf *before* loading, the same
        // store→load order as the fast path; with the era frozen under the
        // lock the validation step ("era unchanged after the load") holds by
        // construction.
        self.slots.of(tid)[slot].store(era as usize, Ordering::SeqCst);
        // Oracle mirror on the requester's behalf (claims are keyed by the
        // owning tid, and under the explorer the fulfiller runs alone).
        smr_common::check::claim_era(tid, slot, era);
        let src = board.src.load(Ordering::Relaxed);
        // SAFETY: a pending (odd) board entry means its owner is parked
        // inside `protect` holding the `&Atomic<T>` borrow it published, so
        // the cell outlives the request; the raw word is the cell's own
        // atomic storage (`Atomic::raw_word`).
        let word = unsafe { &*(src as *const AtomicUsize) }.load(Ordering::Acquire);
        board.result_ptr.store(word, Ordering::Relaxed);
        board.result_era.store(era, Ordering::Relaxed);
        // Release-publish the fulfilment; the requester's Acquire load of
        // `seq` synchronizes with it.
        board.seq.store(seq + 1, Ordering::Release);
    }

    /// The `protect` slow path: park a request on the board, give peers a
    /// bounded window to help, then self-help under the lock.
    fn protect_slow<T: SmrNode>(&self, ctx: &WfeCtx, slot: usize, src: &Atomic<T>) -> Shared<T> {
        let tid = ctx.local.tid();
        trace::emit(tid, TraceKind::HelpSlowBegin, slot as u64, 0);
        let board = &self.boards[tid];
        let seq = board.seq.load(Ordering::Relaxed);
        debug_assert_eq!(seq % 2, 0, "own board must be idle");
        board.src.store(
            src.raw_word() as *const AtomicUsize as usize,
            Ordering::Relaxed,
        );
        board.slot.store(slot, Ordering::Relaxed);
        // SeqCst publish: any helper that subsequently reads the board sees
        // the request fields stored above.
        board.seq.store(seq + 1, Ordering::SeqCst);
        let mut waited = 0usize;
        while board.seq.load(Ordering::Acquire) == seq + 1 {
            waited += 1;
            if waited > HELP_WAIT_SPINS {
                let guard = self.help_lock.lock().unwrap();
                self.fulfil_one(tid);
                drop(guard);
                break;
            }
            // Yield the deterministic schedule so a helper can actually run.
            smr_common::check::preempt("wfe.help-wait", tid);
            std::hint::spin_loop();
        }
        debug_assert_eq!(board.seq.load(Ordering::Relaxed), seq + 2);
        debug_assert_ne!(board.result_era.load(Ordering::Relaxed), NONE);
        trace::emit(tid, TraceKind::HelpSlowEnd, waited as u64, 0);
        Shared::from_usize(board.result_ptr.load(Ordering::Relaxed))
    }

    fn scan_and_reclaim(&self, ctx: &mut WfeCtx) {
        self.core.scan(&mut ctx.local, |local, _tail| {
            // Single-fence scan (see DESIGN.md): one SeqCst fence, then
            // Acquire loads of every announced era.
            fence(Ordering::SeqCst);
            local.lowers.clear();
            local.uppers.clear();
            self.slots
                .collect_hulls(self.core.registry(), &mut local.lowers, &mut local.uppers);
            // SAFETY: same era-hull argument as hazard eras (DESIGN.md,
            // "Traversals through unlinked records under the interval
            // reclaimers"): a thread can only dereference records whose
            // lifetime overlaps its announced hull, including records a
            // helper announced on its behalf (the helper's era is stored in
            // the owner's slots before the pointer is ever handed back).
            // No overlapping hull ⇒ no live reference. The sweep is
            // ownership-agnostic (each record carries its own eras), so
            // adopted orphans flow through it unchanged.
            unsafe { local.sweep_disjoint_intervals() }
        });
    }
}

impl Smr for Wfe {
    type ThreadCtx = WfeCtx;

    const NAME: &'static str = "WFE";
    const USES_PROTECTION: bool = true;
    // Same era-hull sweep as HE, and the same scan-before-hop hole.
    const CAN_TRAVERSE_UNLINKED: bool = false;

    fn new(config: SmrConfig) -> Self {
        let boards = (0..config.max_threads)
            .map(|_| CachePadded::new(HelpBoard::new()))
            .collect();
        let core = ReclaimCore::new(config);
        Self {
            slots: EraTable(SlotBlock::new(core.config())),
            core,
            era: EraClock::new(),
            boards,
            help_lock: Mutex::new(()),
        }
    }

    fn config(&self) -> &SmrConfig {
        self.core.config()
    }

    fn register(&self, tid: usize) -> WfeCtx {
        let mut local: ReclaimLocal = self.core.register(tid);
        local.lowers.reserve_exact(self.core.config().max_threads);
        local.uppers.reserve_exact(self.core.config().max_threads);
        self.slots.clear(tid);
        WfeCtx { local }
    }

    fn unregister(&self, ctx: &mut WfeCtx) {
        self.slots.clear(ctx.local.tid());
        self.scan_and_reclaim(ctx);
        self.core.unregister(&mut ctx.local);
    }

    #[inline]
    fn magazine_mut<'a>(&self, ctx: &'a mut WfeCtx) -> Option<&'a mut Magazine> {
        Some(&mut ctx.local.mag)
    }

    #[inline]
    fn global_era(&self) -> u64 {
        self.era.now()
    }

    /// HE's announce-until-stable protocol, bounded: after
    /// [`MAX_FAST_TRIES`] era advances in a row defeat the validation, the
    /// thread parks a help request instead of retrying forever.
    #[inline]
    fn protect<T: SmrNode>(&self, ctx: &mut WfeCtx, slot: usize, src: &Atomic<T>) -> Shared<T> {
        let tid = ctx.local.tid();
        let slots = self.slots.of(tid);
        debug_assert!(slot < slots.len(), "era slot index out of range");
        let mut announced = slots[slot].load(Ordering::Relaxed) as u64;
        for _ in 0..MAX_FAST_TRIES {
            let p = src.load(Ordering::Acquire);
            let era = self.era.now();
            if era == announced {
                smr_common::check::claim_era(tid, slot, era);
                return p;
            }
            slots[slot].store(era as usize, Ordering::SeqCst);
            // Keep the mirrored claim in lockstep with the real slot (no
            // preempt point sits between the store and this call).
            smr_common::check::claim_era(tid, slot, era);
            announced = era;
            ctx.local.stats.protect_failures += 1;
        }
        self.protect_slow(ctx, slot, src)
    }

    #[inline]
    fn protect_copy<T: SmrNode>(
        &self,
        ctx: &mut WfeCtx,
        dst_slot: usize,
        src_slot: usize,
        _ptr: Shared<T>,
    ) {
        // Same as HE: copy the *announced* era (which covers the record's
        // lifetime), skipping the idempotent republish.
        self.slots.copy(ctx.local.tid(), dst_slot, src_slot);
    }

    #[inline]
    fn clear_protections(&self, ctx: &mut WfeCtx) {
        self.slots.clear(ctx.local.tid());
    }

    #[inline]
    fn end_op(&self, ctx: &mut WfeCtx) {
        self.slots.clear(ctx.local.tid());
        if self.core.heartbeat_due(&mut ctx.local) {
            self.scan_and_reclaim(ctx);
        }
    }

    fn alloc<T: SmrNode>(&self, ctx: &mut WfeCtx, value: T) -> Shared<T> {
        // Stamp after the pop, so a recycled block's new birth era is never
        // older than the era at which its previous incarnation was freed
        // (`Smr::alloc` docs; same as IBR/HE).
        let p = ctx.local.alloc_stamped(value, || self.era.now());
        if self.core.epoch_tick(&mut ctx.local) {
            ctx.local.note_era_advance(self.advance_era());
        }
        p
    }

    unsafe fn retire<T: SmrNode>(&self, ctx: &mut WfeCtx, ptr: Shared<T>) {
        debug_assert!(!ptr.is_null());
        // Era-stamped before staging. The `empty_freq` cadence stays
        // per-retire so the reclamation frontier advances at the configured
        // rate; only the watermark check is amortized to once per batch of
        // retires (bound slack: batch cap − 1).
        let retired = Retired::new(ptr.as_raw(), self.era.now());
        let at_hi = self.core.retire(&mut ctx.local, retired);
        if self.core.cadence_due(&mut ctx.local) || at_hi {
            self.scan_and_reclaim(ctx);
        }
    }

    fn flush(&self, ctx: &mut WfeCtx) {
        let era = self.advance_era();
        trace::emit(ctx.local.tid(), TraceKind::EraAdvance, era, 0);
        self.scan_and_reclaim(ctx);
    }

    fn thread_stats(&self, ctx: &WfeCtx) -> ThreadStats {
        ctx.local.stats_snapshot()
    }

    fn thread_stats_mut<'a>(&self, ctx: &'a mut WfeCtx) -> &'a mut ThreadStats {
        &mut ctx.local.stats
    }

    fn limbo_len(&self, ctx: &WfeCtx) -> usize {
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
        let smr = Wfe::new(SmrConfig::for_tests());
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
        let smr = Wfe::new(SmrConfig::for_tests().with_epoch_freqs(1, 4));
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

        let p = smr.protect(&mut reader, 0, &shared);
        assert_eq!(unsafe { p.deref().key }, 9);

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
        assert_eq!(unsafe { p.deref().key }, 9);
        assert!(smr.limbo_len(&owner) >= 1);

        smr.clear_protections(&mut reader);
        smr.flush(&mut owner);
        assert_eq!(smr.limbo_len(&owner), 0);

        smr.unregister(&mut reader);
        smr.unregister(&mut owner);
    }

    #[test]
    fn parked_request_is_fulfilled_by_era_advancer() {
        // Drive the help protocol directly: park a request on thread 1's
        // board (as protect_slow would), then have thread 0 advance the era;
        // the advance must fulfil the request under the lock.
        let smr = Wfe::new(SmrConfig::for_tests().with_epoch_freqs(1, 64));
        let mut owner = smr.register(0);
        let _reader = smr.register(1);

        let shared = Atomic::<Node>::null();
        let node = smr.alloc(
            &mut owner,
            Node {
                header: NodeHeader::new(),
                key: 42,
            },
        );
        shared.store(node, Ordering::Release);

        let board = &smr.boards[1];
        board.src.store(
            shared.raw_word() as *const AtomicUsize as usize,
            Ordering::Relaxed,
        );
        board.slot.store(0, Ordering::Relaxed);
        board.seq.store(1, Ordering::SeqCst); // pending

        // epoch_freq = 1: the very next alloc advances the era and must
        // service the board on the way.
        let filler = smr.alloc(
            &mut owner,
            Node {
                header: NodeHeader::new(),
                key: 0,
            },
        );
        unsafe { smr.retire(&mut owner, filler) };

        assert_eq!(
            board.seq.load(Ordering::Acquire),
            2,
            "era advance must fulfil the pending request"
        );
        let era = board.result_era.load(Ordering::Relaxed);
        assert_ne!(era, NONE);
        assert_eq!(
            smr.slots.of(1)[0].load(Ordering::Acquire) as u64,
            era,
            "the fulfilled era must be announced in the requester's slot"
        );
        let p: Shared<Node> = Shared::from_usize(board.result_ptr.load(Ordering::Relaxed));
        assert_eq!(unsafe { p.deref().key }, 42);

        // The helper-announced era really protects: retiring the record and
        // scanning must not free it while the announcement stands.
        let old = shared.swap(Shared::null(), Ordering::AcqRel);
        unsafe { smr.retire(&mut owner, old) };
        smr.scan_and_reclaim(&mut owner);
        assert!(
            smr.limbo_len(&owner) >= 1,
            "record covered by the helped announcement must survive"
        );

        smr.slots.clear(1);
        smr.flush(&mut owner);
        assert_eq!(smr.limbo_len(&owner), 0);
        let mut reader = _reader;
        smr.unregister(&mut reader);
        smr.unregister(&mut owner);
    }

    #[test]
    fn protect_slow_self_helps_without_peers() {
        // With no era advances in flight, a parked requester must complete
        // via the self-help fallback and return a protected pointer.
        let smr = Wfe::new(SmrConfig::for_tests());
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

        let p = smr.protect_slow(&reader, 0, &shared);
        assert_eq!(unsafe { p.deref().key }, 7);
        assert_eq!(smr.boards[1].seq.load(Ordering::Relaxed) % 2, 0);
        let announced = smr.slots.of(1)[0].load(Ordering::Acquire) as u64;
        assert_eq!(announced, smr.boards[1].result_era.load(Ordering::Relaxed));

        smr.clear_protections(&mut reader);
        let old = shared.swap(Shared::null(), Ordering::AcqRel);
        unsafe { smr.retire(&mut owner, old) };
        smr.flush(&mut owner);
        smr.unregister(&mut reader);
        smr.unregister(&mut owner);
    }

    #[test]
    fn survivor_adopts_orphans_from_departed_thread() {
        let smr = Wfe::new(SmrConfig::for_tests());
        let mut survivor = smr.register(0);
        let mut departing = smr.register(1);

        // The survivor pins an era so the departing thread's final scan
        // cannot free everything; its leftovers must flow to the orphans.
        let shared = Atomic::<Node>::null();
        let node = smr.alloc(
            &mut survivor,
            Node {
                header: NodeHeader::new(),
                key: 1,
            },
        );
        shared.store(node, Ordering::Release);
        let _p = smr.protect(&mut survivor, 0, &shared);

        for i in 0..16 {
            let p = smr.alloc(
                &mut departing,
                Node {
                    header: NodeHeader::new(),
                    key: i,
                },
            );
            unsafe { smr.retire(&mut departing, p) };
        }
        smr.unregister(&mut departing);
        let orphaned = smr.core.orphan_count();
        assert!(orphaned > 0, "stalled-pinned leftovers must be orphaned");

        // The survivor's next flush adopts and frees them.
        smr.clear_protections(&mut survivor);
        let old = shared.swap(Shared::null(), Ordering::AcqRel);
        unsafe { smr.retire(&mut survivor, old) };
        smr.flush(&mut survivor);
        assert_eq!(
            smr.core.orphan_count(),
            0,
            "survivor must adopt the orphans"
        );
        assert_eq!(smr.limbo_len(&survivor), 0, "adopted orphans must be freed");
        smr.unregister(&mut survivor);
    }
}
