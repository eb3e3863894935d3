//! EpochPOP — epoch-based reclamation with Publish-on-Ping reservations.
//!
//! The RCU/EBR family pays one `SeqCst` announcement store per operation: a
//! reader must publish the era it observed *before* touching any shared
//! record, so a concurrent scan cannot miss it. EpochPOP (after the
//! Publish-on-Ping reclaimers of PPoPP 2025) removes that store from the
//! fast path entirely:
//!
//! * `begin_op` reads the global era and writes it to a **thread-private**
//!   field of the thread context — a plain, unordered store that no other
//!   thread ever reads. `end_op` writes `IDLE` the same way. No fence, no
//!   XCHG, no shared-line invalidation.
//! * A thread about to reclaim **pings** every registered thread over the
//!   shared [`PingChannel`] (the same handshake NBR's cooperative
//!   neutralization uses). Each pinged thread, at its next hook site (the
//!   per-pointer-hop `checkpoint`, or an operation boundary), copies its
//!   private reservation into its shared *published* slot and acknowledges.
//! * Once every thread has acknowledged, the reclaimer computes the minimum
//!   published era and frees exactly the records it retired **before the
//!   ping** whose retire era is below that minimum. If some thread stays
//!   silent past `SmrConfig::ack_spin_limit` iterations, the round is
//!   conceded (`reclaim_skips`), exactly like a timed-out neutralization
//!   handshake.
//!
//! Safety is the conjunction of two arguments (written out in DESIGN.md,
//! "Publish-on-Ping on the cooperative channel"): operations already running
//! at ping time are covered by the classic epoch argument applied to the
//! era they publish on ack; operations that begin after a thread's ack
//! started after the reclaimer's unlinks and therefore cannot reach the
//! records being freed at all, no matter what the (stale) published slot
//! says.
//!
//! Like every epoch scheme, EpochPOP is *not* robust: a reader stalled
//! inside an operation publishes its old era on every ping and pins all
//! garbage retired since (experiment E2's delayed-thread vulnerability —
//! contrast [`HpPop`](crate::HpPop), whose published reservations bound the
//! damage to `K` records per thread).

use smr_common::{
    CachePadded, EraClock, Magazine, PingChannel, ReclaimCore, ReclaimLocal, Retired, Shared, Smr,
    SmrConfig, SmrNode, ThreadStats,
};
use std::sync::atomic::{fence, AtomicU64, Ordering};

/// Published-slot value meaning "not inside an operation".
const IDLE: u64 = u64::MAX;

struct EpochSlot {
    /// The owner's reservation as of its last acknowledged ping: an era, or
    /// [`IDLE`]. Written by the owner (publish-on-ping), read by reclaimers
    /// after a completed handshake.
    published: AtomicU64,
}

/// Per-thread context for [`EpochPop`].
pub struct EpochPopCtx {
    local: ReclaimLocal,
    /// The thread's private epoch reservation: the global era observed at
    /// `begin_op`, or [`IDLE`] between operations. Plain unshared memory —
    /// the fast path writes it with an ordinary store; it reaches other
    /// threads only by being copied into the published slot when a ping
    /// arrives.
    private_epoch: u64,
}

/// The EpochPOP reclaimer.
pub struct EpochPop {
    core: ReclaimCore,
    era: EraClock,
    ping: PingChannel,
    slots: Vec<CachePadded<EpochSlot>>,
}

impl EpochPop {
    /// Copies `value` into `tid`'s published slot. `Release` suffices: the
    /// slot is only trusted by a reclaimer after it observes the `SeqCst`
    /// acknowledgement store sequenced after this publish.
    #[inline]
    fn publish(&self, tid: usize, value: u64) {
        // Oracle mirror: only a *published* non-idle era is binding on
        // reclaimers (a private reservation protects nothing until a ping
        // promotes it), so the pin is tied to the publish itself. Retract
        // before an IDLE store, claim after a non-idle one, keeping the
        // mirrored pin a subset of the real published protection.
        if value == IDLE {
            smr_common::check::unpin_epoch(tid);
            self.slots[tid].published.store(value, Ordering::Release);
        } else {
            self.slots[tid].published.store(value, Ordering::Release);
            smr_common::check::pin_epoch(tid, value);
        }
    }

    /// Services an incoming ping, if any: promote the private reservation to
    /// the published slot, then acknowledge. One `SeqCst` load on the
    /// owner-local pending line when no ping is outstanding.
    #[inline]
    fn poll_ping(&self, ctx: &mut EpochPopCtx) {
        let tid = ctx.local.tid();
        if let Some(seq) = self.ping.poll(tid) {
            self.publish(tid, ctx.private_epoch);
            self.ping.ack(tid, seq);
            ctx.local.stats.pings_published += 1;
        }
    }

    /// Ping every registered thread, wait for the handshake, and free every
    /// record retired before the ping whose era is covered by no published
    /// reservation. A conceded round frees nothing.
    fn reclaim_with_pings(&self, ctx: &mut EpochPopCtx) {
        let own_epoch = ctx.private_epoch;
        self.core.scan(&mut ctx.local, |local, tail| {
            let tid = local.tid();
            // Service our own channel while we wait, so two threads that
            // ping each other concurrently both complete instead of both
            // burning their spin budget. Publishing our own (unchanging, we
            // are blocked right here) reservation is always safe.
            let serve_own = || {
                if let Some(own) = self.ping.poll(tid) {
                    self.publish(tid, own_epoch);
                    self.ping.ack(tid, own);
                }
            };
            if !self
                .core
                .ping_round(local, &self.ping, |_| false, serve_own)
            {
                return 0;
            }
            // Single-fence scan over the published slots (DESIGN.md); the
            // ack edges already order each publishing store before our
            // loads, the fence covers the slots of threads that
            // acknowledged an even newer ping.
            fence(Ordering::SeqCst);
            let mut min = own_epoch; // == IDLE (u64::MAX) when quiescent
            for t in self.core.registry().active_tids() {
                if t == tid {
                    continue;
                }
                let v = self.slots[t].published.load(Ordering::Acquire);
                if v != IDLE {
                    min = min.min(v);
                }
            }
            // SAFETY: only the prefix retired before the ping is swept
            // (`tail` was captured after peer bags were adopted and before
            // the ping). A thread inside an operation at ping time
            // published its begin-op era `e` on ack: records with retire
            // era `< e` were unlinked before its operation began (classic
            // EBR). A thread that acked idle — or whose published value is
            // stale because it began a *new* operation after acking —
            // began that operation after the ping, hence after every
            // unlink of the swept prefix, and cannot reach the records
            // regardless of era (see DESIGN.md).
            unsafe { local.sweep_retired_before(tail, min) }
        });
    }
}

impl Smr for EpochPop {
    type ThreadCtx = EpochPopCtx;

    const NAME: &'static str = "EpochPOP";

    fn new(config: SmrConfig) -> Self {
        let slots = (0..config.max_threads)
            .map(|_| {
                CachePadded::new(EpochSlot {
                    published: AtomicU64::new(IDLE),
                })
            })
            .collect();
        Self {
            era: EraClock::new(),
            ping: PingChannel::new(config.max_threads, config.signal_cost_ns),
            slots,
            core: ReclaimCore::new(config),
        }
    }

    fn config(&self) -> &SmrConfig {
        self.core.config()
    }

    fn register(&self, tid: usize) -> EpochPopCtx {
        let local = self.core.register(tid);
        self.slots[tid].published.store(IDLE, Ordering::SeqCst);
        self.ping.reset_slot(tid);
        EpochPopCtx {
            local,
            private_epoch: IDLE,
        }
    }

    fn unregister(&self, ctx: &mut EpochPopCtx) {
        ctx.private_epoch = IDLE;
        self.publish(ctx.local.tid(), IDLE);
        // Last chance to free what the remaining threads allow; the rest is
        // orphaned and destroyed when the reclaimer drops.
        self.reclaim_with_pings(ctx);
        // Departed-slot exemption: set before leaving the registry so a
        // reclaimer mid-`await_acks` on a stale active-set snapshot stops
        // waiting on this thread immediately.
        self.ping.mark_departed(ctx.local.tid());
        self.core.unregister(&mut ctx.local);
    }

    #[inline]
    fn magazine_mut<'a>(&self, ctx: &'a mut EpochPopCtx) -> Option<&'a mut Magazine> {
        Some(&mut ctx.local.mag)
    }

    #[inline]
    fn begin_op(&self, ctx: &mut EpochPopCtx) {
        // The Publish-on-Ping fast path: one era load, one plain store to
        // private memory. Nothing is written to shared memory.
        ctx.private_epoch = self.era.now();
        self.poll_ping(ctx);
    }

    #[inline]
    fn end_op(&self, ctx: &mut EpochPopCtx) {
        // Oracle mirror: a published era stops protecting once the op ends
        // (the next handshake will re-ack with IDLE), so retract the pin even
        // though the stale published slot still holds the old era.
        smr_common::check::unpin_epoch(ctx.local.tid());
        ctx.private_epoch = IDLE;
        self.poll_ping(ctx);
        if self.core.heartbeat_due(&mut ctx.local) {
            self.reclaim_with_pings(ctx);
        }
    }

    /// EpochPOP repurposes the per-hop NBR checkpoint as its cooperative
    /// ping-delivery point: on a pending ping the thread publishes its
    /// private reservation and acknowledges — no restart is ever required,
    /// so this always returns `false`.
    #[inline]
    fn checkpoint(&self, ctx: &mut EpochPopCtx) -> bool {
        self.poll_ping(ctx);
        false
    }

    #[inline]
    fn global_era(&self) -> u64 {
        self.era.now()
    }

    unsafe fn retire<T: SmrNode>(&self, ctx: &mut EpochPopCtx, ptr: Shared<T>) {
        debug_assert!(!ptr.is_null());
        // Era-stamped before staging; the era-advance cadence stays
        // per-retire, only the paced HiWatermark is consulted once per
        // batch of retires (bound slack: batch cap − 1). Its pacing keeps a
        // bag pinned above the watermark (a stalled reader) from running a
        // full ping handshake per batch.
        let retired = Retired::new(ptr.as_raw(), self.era.now());
        let scan = self.core.retire(&mut ctx.local, retired);
        if self.core.epoch_tick(&mut ctx.local) {
            ctx.local.note_era_advance(self.era.advance());
        }
        if scan {
            self.reclaim_with_pings(ctx);
        }
    }

    fn flush(&self, ctx: &mut EpochPopCtx) {
        self.era.advance();
        self.reclaim_with_pings(ctx);
    }

    fn thread_stats(&self, ctx: &EpochPopCtx) -> ThreadStats {
        ctx.local.stats_snapshot()
    }

    fn thread_stats_mut<'a>(&self, ctx: &'a mut EpochPopCtx) -> &'a mut ThreadStats {
        &mut ctx.local.stats
    }

    fn limbo_len(&self, ctx: &EpochPopCtx) -> usize {
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

    fn op_with_retire(smr: &EpochPop, ctx: &mut EpochPopCtx, key: u64) {
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
    fn single_thread_reclaims_without_other_threads() {
        let smr = EpochPop::new(SmrConfig::for_tests());
        let mut ctx = smr.register(0);
        for i in 0..100 {
            op_with_retire(&smr, &mut ctx, i);
        }
        smr.flush(&mut ctx);
        assert!(smr.thread_stats(&ctx).frees > 0);
        smr.unregister(&mut ctx);
    }

    #[test]
    fn fast_path_writes_nothing_shared() {
        // The published slot must not change across un-pinged operations —
        // the whole point of publish-on-ping.
        let smr = EpochPop::new(SmrConfig::for_tests());
        let mut ctx = smr.register(0);
        let before = smr.slots[0].published.load(Ordering::SeqCst);
        smr.begin_op(&mut ctx);
        let during = smr.slots[0].published.load(Ordering::SeqCst);
        smr.end_op(&mut ctx);
        let after = smr.slots[0].published.load(Ordering::SeqCst);
        assert_eq!(before, during);
        assert_eq!(during, after);
        assert_eq!(smr.thread_stats(&ctx).pings_published, 0);
        smr.unregister(&mut ctx);
    }

    #[test]
    fn ping_promotes_private_reservation() {
        let smr = EpochPop::new(SmrConfig::for_tests());
        let mut worker = smr.register(0);
        let mut reader = smr.register(1);

        smr.begin_op(&mut reader); // private only
        assert_eq!(smr.slots[1].published.load(Ordering::SeqCst), IDLE);

        // The worker's reclamation pings; the reader publishes at its next
        // checkpoint.
        let (seq, sent) = smr.ping.ping_all(0, smr.core.registry());
        assert_eq!(sent, 1);
        assert!(!smr.checkpoint(&mut reader), "POP never restarts");
        assert!(smr.ping.acked_at_least(1, seq));
        let published = smr.slots[1].published.load(Ordering::SeqCst);
        assert_ne!(published, IDLE, "the reader's era must now be shared");
        assert_eq!(smr.thread_stats(&reader).pings_published, 1);

        smr.end_op(&mut reader);
        smr.unregister(&mut reader);
        smr.unregister(&mut worker);
        let _ = worker;
    }

    #[test]
    fn reader_inside_operation_pins_garbage_after_publishing() {
        // A stalled-but-responsive reader (it keeps servicing pings, the
        // cooperative analogue of a signal handler running while blocked)
        // publishes its old era on every ping and pins everything retired
        // since: the delayed-thread vulnerability EpochPOP shares with
        // RCU/DEBRA.
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let smr = Arc::new(EpochPop::new(SmrConfig::for_tests()));
        let stop = Arc::new(AtomicBool::new(false));
        let in_op = Arc::new(AtomicBool::new(false));
        let reader = {
            let smr = Arc::clone(&smr);
            let stop = Arc::clone(&stop);
            let in_op = Arc::clone(&in_op);
            std::thread::spawn(move || {
                let mut ctx = smr.register(1);
                smr.begin_op(&mut ctx);
                in_op.store(true, Ordering::SeqCst);
                while !stop.load(Ordering::SeqCst) {
                    let _ = smr.checkpoint(&mut ctx);
                    std::thread::yield_now();
                }
                smr.end_op(&mut ctx);
                smr.unregister(&mut ctx);
            })
        };
        while !in_op.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }

        let mut worker = smr.register(0);
        for i in 0..300 {
            op_with_retire(&smr, &mut worker, i);
        }
        smr.flush(&mut worker);
        assert!(
            smr.limbo_len(&worker) > 200,
            "a stalled reader must pin garbage ({} in limbo)",
            smr.limbo_len(&worker)
        );

        stop.store(true, Ordering::SeqCst);
        reader.join().unwrap();
        smr.flush(&mut worker);
        assert!(
            smr.thread_stats(&worker).frees > 0,
            "reclamation must resume once the reader finishes"
        );
        smr.unregister(&mut worker);
    }

    #[test]
    fn silent_thread_forces_round_concession() {
        let mut cfg = SmrConfig::for_tests().with_max_threads(4);
        cfg.ack_spin_limit = 32;
        let smr = EpochPop::new(cfg);
        let mut worker = smr.register(0);
        let _silent = smr.register(1); // registered, never runs an operation

        for i in 0..(smr.config().hi_watermark as u64 + 4) {
            op_with_retire(&smr, &mut worker, i);
        }
        let s = smr.thread_stats(&worker);
        assert_eq!(s.frees, 0, "no handshake can complete");
        assert!(s.reclaim_skips > 0, "rounds must be conceded, not unsafe");
        smr.unregister(&mut worker);
    }

    #[test]
    fn retire_prefix_bookmark_excludes_in_flight_records() {
        // Records retired *after* the ping stay in the bag even when the
        // handshake succeeds — only the pre-ping prefix is swept.
        let smr = EpochPop::new(SmrConfig::for_tests());
        let mut ctx = smr.register(0);
        for i in 0..10 {
            op_with_retire(&smr, &mut ctx, i);
        }
        smr.flush(&mut ctx);
        assert_eq!(smr.limbo_len(&ctx), 0);
        smr.unregister(&mut ctx);
    }
}
