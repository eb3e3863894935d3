//! NBR — the basic neutralization-based reclaimer (Algorithm 1 of the paper).
//!
//! Each thread accumulates unlinked records in a private limbo bag. When the
//! bag reaches the HiWatermark the thread broadcasts a neutralization signal to
//! every other thread, waits for the reader/writer handshake to complete
//! (readers acknowledge and restart, writers are covered by their
//! reservations), scans all reservations, and frees every unreserved record it
//! retired before the broadcast.

use crate::neutralize::NeutralizationCore;
use smr_common::trace::{self, TraceKind};
use smr_common::{Magazine, ReclaimLocal, Retired, Shared, Smr, SmrConfig, SmrNode, ThreadStats};

/// Per-thread context for [`Nbr`].
pub struct NbrCtx {
    local: ReclaimLocal,
}

impl NbrCtx {
    /// The thread's slot index.
    pub fn tid(&self) -> usize {
        self.local.tid()
    }
}

/// The NBR reclaimer (Algorithm 1).
pub struct Nbr {
    core: NeutralizationCore,
}

impl Nbr {
    /// Access to the shared neutralization core (used by tests and by the
    /// harness to report signal-sequence diagnostics).
    pub fn neutralization(&self) -> &NeutralizationCore {
        &self.core
    }

    /// Signal every other thread, wait for the handshake, and free every
    /// unreserved record retired before the broadcast. Returns the number of
    /// records freed (0 when the handshake timed out and the round was
    /// conceded — see DESIGN.md substitution S1).
    fn reclaim_with_signals(&self, ctx: &mut NbrCtx) -> usize {
        self.core.reclaim().scan(&mut ctx.local, |local, tail| {
            if !self.core.neutralize_all(local) {
                return 0;
            }
            self.core
                .collect_reservations_into(local.tid(), &mut local.addrs);
            // SAFETY: every record in the prefix `[0, tail)` — this thread's
            // own retires plus the orphans adopted before `tail` was
            // captured — was unlinked before the broadcast; the
            // handshake established that every other thread either
            // restarted its read phase (discarding unreserved pointers) or
            // is confined to its reservations, which we exclude below. This
            // is exactly Lemma 1/8 of the paper.
            unsafe { local.sweep_unreserved(tail) }
        })
    }
}

impl Smr for Nbr {
    type ThreadCtx = NbrCtx;

    const NAME: &'static str = "NBR";
    const USES_PHASES: bool = true;

    fn new(config: SmrConfig) -> Self {
        Self {
            core: NeutralizationCore::new(config),
        }
    }

    fn config(&self) -> &SmrConfig {
        self.core.config()
    }

    fn register(&self, tid: usize) -> NbrCtx {
        NbrCtx {
            local: self.core.register(tid),
        }
    }

    fn unregister(&self, ctx: &mut NbrCtx) {
        // One last reclamation attempt; anything still unsafe is handed to the
        // orphan pool and destroyed when the reclaimer itself drops.
        self.reclaim_with_signals(ctx);
        self.core.unregister(&mut ctx.local);
    }

    #[inline]
    fn magazine_mut<'a>(&self, ctx: &'a mut NbrCtx) -> Option<&'a mut Magazine> {
        Some(&mut ctx.local.mag)
    }

    #[inline]
    fn begin_read_phase(&self, ctx: &mut NbrCtx) {
        self.core.begin_read_phase(ctx.local.tid());
    }

    #[inline]
    fn end_read_phase(&self, ctx: &mut NbrCtx, reservations: &[usize]) {
        self.core.end_read_phase(ctx.local.tid(), reservations);
    }

    #[inline]
    fn checkpoint(&self, ctx: &mut NbrCtx) -> bool {
        if self.core.checkpoint(ctx.local.tid()) {
            ctx.local.stats.neutralizations += 1;
            trace::emit(ctx.local.tid(), TraceKind::Neutralized, 0, 0);
            true
        } else {
            false
        }
    }

    #[inline]
    fn end_op(&self, ctx: &mut NbrCtx) {
        self.core.quiesce(ctx.local.tid());
        // Operation-exit heartbeat: outside any phase a broadcast is always
        // legal, so a thread that never reaches the HiWatermark still empties
        // its bag within a bounded number of its own operations.
        if self.core.reclaim().heartbeat_due(&mut ctx.local) {
            self.reclaim_with_signals(ctx);
        }
    }

    unsafe fn retire<T: SmrNode>(&self, ctx: &mut NbrCtx, ptr: Shared<T>) {
        debug_assert!(!ptr.is_null());
        // The watermark policy is only consulted once per batch of
        // retires, so the bag can overshoot the trigger by at most
        // RETIRE_BATCH_CAP - 1.
        let retired = Retired::new(ptr.as_raw(), 0);
        if self.core.reclaim().retire(&mut ctx.local, retired) {
            self.reclaim_with_signals(ctx);
        }
    }

    fn flush(&self, ctx: &mut NbrCtx) {
        self.reclaim_with_signals(ctx);
    }

    fn thread_stats(&self, ctx: &NbrCtx) -> ThreadStats {
        ctx.local.stats_snapshot()
    }

    fn thread_stats_mut<'a>(&self, ctx: &'a mut NbrCtx) -> &'a mut ThreadStats {
        &mut ctx.local.stats
    }

    fn limbo_len(&self, ctx: &NbrCtx) -> usize {
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

    fn new_nbr() -> Nbr {
        Nbr::new(SmrConfig::for_tests().with_max_threads(4))
    }

    fn alloc_and_retire(nbr: &Nbr, ctx: &mut NbrCtx, n: usize) {
        for i in 0..n {
            let p = nbr.alloc(
                ctx,
                Node {
                    header: NodeHeader::new(),
                    key: i as u64,
                },
            );
            unsafe { nbr.retire(ctx, p) };
        }
    }

    #[test]
    fn single_thread_reclaims_at_hi_watermark() {
        let nbr = new_nbr();
        let hi = nbr.config().hi_watermark;
        let mut ctx = nbr.register(0);
        alloc_and_retire(&nbr, &mut ctx, hi);
        // The watermark crossing must have triggered a full reclamation.
        assert_eq!(nbr.limbo_len(&ctx), 0);
        let s = nbr.thread_stats(&ctx);
        assert_eq!(s.retires, hi as u64);
        assert_eq!(s.frees, hi as u64);
        assert_eq!(s.reclaim_scans, 1);
        nbr.unregister(&mut ctx);
    }

    #[test]
    fn below_watermark_nothing_is_freed() {
        let nbr = new_nbr();
        let hi = nbr.config().hi_watermark;
        let mut ctx = nbr.register(0);
        alloc_and_retire(&nbr, &mut ctx, hi - 1);
        assert_eq!(nbr.limbo_len(&ctx), hi - 1);
        assert_eq!(nbr.thread_stats(&ctx).frees, 0);
        nbr.flush(&mut ctx);
        assert_eq!(nbr.limbo_len(&ctx), 0);
        nbr.unregister(&mut ctx);
    }

    #[test]
    fn reserved_records_survive_reclamation() {
        let nbr = new_nbr();
        let mut reclaimer = nbr.register(0);
        let mut writer = nbr.register(1);

        // The writer reserves one record and sits in its write phase.
        let node = nbr.alloc(
            &mut writer,
            Node {
                header: NodeHeader::new(),
                key: 99,
            },
        );
        nbr.begin_read_phase(&mut writer);
        nbr.end_read_phase(&mut writer, &[node.untagged_usize()]);

        // The reclaimer retires that very record (as if it had unlinked it)
        // plus enough others to cross the watermark.
        unsafe { nbr.retire(&mut reclaimer, node) };
        let hi = nbr.config().hi_watermark;
        alloc_and_retire(&nbr, &mut reclaimer, hi);

        let s = nbr.thread_stats(&reclaimer);
        assert!(s.frees > 0, "unreserved records must be freed");
        assert_eq!(
            nbr.limbo_len(&reclaimer),
            (s.retires - s.frees) as usize,
            "ledger must match the bag"
        );
        assert!(
            nbr.limbo_len(&reclaimer) >= 1,
            "the reserved record must still be in limbo"
        );

        // Once the writer finishes its operation, the record becomes safe.
        nbr.end_op(&mut writer);
        nbr.begin_read_phase(&mut writer);
        nbr.end_read_phase(&mut writer, &[]);
        nbr.flush(&mut reclaimer);
        assert_eq!(nbr.limbo_len(&reclaimer), 0);

        nbr.unregister(&mut writer);
        nbr.unregister(&mut reclaimer);
    }

    #[test]
    fn stalled_reader_blocks_round_but_not_safety() {
        let mut cfg = SmrConfig::for_tests().with_max_threads(4);
        cfg.ack_spin_limit = 32; // concede quickly
        let nbr = Nbr::new(cfg);
        let mut reclaimer = nbr.register(0);
        let mut reader = nbr.register(1);

        // Reader enters a read phase and never checkpoints (simulates a thread
        // stalled between checkpoints).
        nbr.begin_read_phase(&mut reader);

        let hi = nbr.config().hi_watermark;
        alloc_and_retire(&nbr, &mut reclaimer, hi);
        let s = nbr.thread_stats(&reclaimer);
        assert_eq!(
            s.frees, 0,
            "round must be conceded while the reader is silent"
        );
        assert_eq!(s.reclaim_skips, 1);

        // The reader observes the signal at its next checkpoint (restarting its
        // read phase) and eventually finishes its operation; the next
        // reclamation then succeeds.
        assert!(
            nbr.checkpoint(&mut reader),
            "reader must observe the signal"
        );
        nbr.end_read_phase(&mut reader, &[]);
        nbr.end_op(&mut reader);
        nbr.flush(&mut reclaimer);
        assert_eq!(nbr.limbo_len(&reclaimer), 0);

        nbr.unregister(&mut reader);
        nbr.unregister(&mut reclaimer);
    }

    #[test]
    fn neutralization_counter_increments_on_restart() {
        let nbr = new_nbr();
        let mut a = nbr.register(0);
        let mut b = nbr.register(1);
        nbr.begin_read_phase(&mut b);
        nbr.neutralization().signal_all(0);
        assert!(nbr.checkpoint(&mut b));
        assert_eq!(nbr.thread_stats(&b).neutralizations, 1);
        nbr.unregister(&mut b);
        nbr.unregister(&mut a);
    }

    #[test]
    fn unregister_hands_unsafe_records_to_orphan_pool() {
        let mut cfg = SmrConfig::for_tests().with_max_threads(4);
        cfg.ack_spin_limit = 16;
        let nbr = Nbr::new(cfg);
        let mut reader = nbr.register(1);
        let mut victim = nbr.register(0);
        nbr.begin_read_phase(&mut reader); // never acknowledges

        alloc_and_retire(&nbr, &mut victim, 5);
        nbr.unregister(&mut victim);
        assert_eq!(
            nbr.neutralization().reclaim().orphan_count(),
            5,
            "records that could not be proven safe must be orphaned, not leaked or freed"
        );
        nbr.unregister(&mut reader);
        // Dropping the reclaimer drains the orphan pool (asserted implicitly:
        // miri/asan builds would flag a leak or double free).
        drop(nbr);
    }

    #[test]
    fn garbage_is_bounded_by_watermark_plus_reservations() {
        // Lemma 10 analogue: with readers that always acknowledge, a thread's
        // limbo bag never exceeds HiWatermark + R*(N-1) right after retire.
        let nbr = new_nbr();
        let cfg = nbr.config().clone();
        let mut ctx = nbr.register(0);
        // Coalescing slack: the policy is consulted once per batch of
        // retires, so the bag may overshoot the trigger by at most one
        // unfilled batch.
        let bound = cfg.hi_watermark
            + cfg.max_reservations * (cfg.max_threads - 1)
            + (smr_common::RETIRE_BATCH_CAP - 1);
        for i in 0..(cfg.hi_watermark * 8) {
            let p = nbr.alloc(
                &mut ctx,
                Node {
                    header: NodeHeader::new(),
                    key: i as u64,
                },
            );
            unsafe { nbr.retire(&mut ctx, p) };
            assert!(
                nbr.limbo_len(&ctx) <= bound,
                "limbo bag exceeded the Lemma 10 bound: {} > {}",
                nbr.limbo_len(&ctx),
                bound
            );
        }
        nbr.unregister(&mut ctx);
    }
}
