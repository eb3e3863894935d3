//! HP-POP — hazard-pointer-style reclamation with Publish-on-Ping
//! reservations.
//!
//! Classic hazard pointers pay, on **every pointer hop**, a shared
//! announcement store, a full barrier and a validating re-load of the
//! source — the per-access overhead the paper's list experiments identify as
//! HP's dominant cost (2–3.4× slower than NBR+ on the lists). This
//! workspace's `HazardPointers` already trades the barrier for a compiler
//! fence plus one `membarrier(2)` per scan (asymmetric fences); the shared
//! store and the re-load stay. HP-POP (after the
//! Publish-on-Ping reclaimers of PPoPP 2025) moves the per-hop reservation
//! into **thread-private** memory:
//!
//! * [`Smr::protect`] is an `Acquire` load of the source plus a plain store
//!   into a private slot array in the thread context. No shared store, no
//!   fence, no validation loop.
//! * A reclaimer **pings** every registered thread over the shared
//!   [`PingChannel`] before it frees anything. Each pinged thread, at its
//!   next hook site (the per-hop `checkpoint`, or an operation boundary),
//!   copies all `K` private slots into its shared *published* slots (its
//!   row of a [`SlotBlock`]) and acknowledges. The reclaimer then scans
//!   the published slots (plus its own private ones) and frees the
//!   unreserved prefix it retired before the ping — the same sorted-address
//!   sweep ([`LimboBag::reclaim_prefix_unreserved`]) HP and NBR use.
//! * A silent thread times out the handshake after
//!   `SmrConfig::ack_spin_limit` iterations and the round is conceded,
//!   exactly like a timed-out neutralization round.
//!
//! Why no validation is needed: a record can only be freed after a ping
//! that every thread acknowledged, each thread's private slot write is
//! sequenced before any acknowledgement it issues later, and a pointer
//! loaded *after* the acknowledgement was read from a record that is
//! reachable — whose outgoing pointer the pre-ping unlink already updated.
//! The full argument, including why this closes the baseline
//! `protect_copy` scan race by construction, is in DESIGN.md
//! ("Publish-on-Ping on the cooperative channel").
//!
//! Garbage stays bounded as with HP: at most `HiWatermark` records per bag
//! plus `K` published (possibly stale — staleness only pins *more*)
//! reservations per thread. A stalled reader pins at most its `K` published
//! slots, not an epoch's worth of garbage.

use smr_common::{
    Atomic, Magazine, PingChannel, ReclaimCore, ReclaimLocal, Retired, Shared, SlotBlock, Smr,
    SmrConfig, SmrNode, ThreadStats,
};
use std::sync::atomic::{fence, Ordering};

/// Per-thread context for [`HpPop`].
pub struct HpPopCtx {
    local: ReclaimLocal,
    /// The private hazard slot array: plain unshared memory written on every
    /// protect; it reaches other threads only by being copied into the
    /// published slots when a ping arrives.
    private: Box<[usize]>,
}

/// The HP-POP reclaimer.
pub struct HpPop {
    core: ReclaimCore,
    ping: PingChannel,
    /// Each thread's hazard reservations as of its last acknowledged ping.
    /// Written by the owner (publish-on-ping), read by reclaimers after a
    /// completed handshake.
    published: SlotBlock,
}

impl HpPop {
    /// Services an incoming ping, if any: promote the private reservations
    /// to the published slots, then acknowledge. The publish skips
    /// unchanged slots (a stable traversal re-publishes the same hazards),
    /// and its `Release` stores suffice: reclaimers only trust the slots
    /// after observing the `SeqCst` acknowledgement sequenced after them.
    #[inline]
    fn poll_ping(&self, ctx: &mut HpPopCtx) {
        let tid = ctx.local.tid();
        if let Some(seq) = self.ping.poll(tid) {
            self.published.publish(tid, &ctx.private);
            self.ping.ack(tid, seq);
            ctx.local.stats.pings_published += 1;
        }
    }

    /// Ping every registered thread, wait for the handshake, and free every
    /// record retired before the ping that no published (or own private)
    /// reservation covers. A conceded round frees nothing.
    fn reclaim_with_pings(&self, ctx: &mut HpPopCtx) {
        let HpPopCtx { local, private } = ctx;
        self.core.scan(local, |local, tail| {
            let tid = local.tid();
            // Service our own channel while we wait, so two threads that
            // ping each other concurrently both complete instead of both
            // burning their spin budget.
            let serve_own = || {
                if let Some(own) = self.ping.poll(tid) {
                    self.published.publish(tid, private);
                    self.ping.ack(tid, own);
                }
            };
            if !self
                .core
                .ping_round(local, &self.ping, |_| false, serve_own)
            {
                return 0;
            }
            // Single-fence scan over the published slots (DESIGN.md).
            fence(Ordering::SeqCst);
            local.addrs.clear();
            self.published
                .collect_into(self.core.registry(), Some(tid), &mut local.addrs);
            // Our own reservations need no publish: the private slots are
            // directly visible to us, and nobody else is scanning our bag.
            local
                .addrs
                .extend(private.iter().copied().filter(|&addr| addr != 0));
            // SAFETY: only the prefix retired (= unlinked) before the ping
            // is swept (`tail` was captured after peer bags were adopted
            // and before the ping). Any thread that could still
            // dereference one of those records loaded its pointer before
            // acknowledging the ping (pointers loaded after the ack come
            // from reachable records, whose outgoing pointers the unlink
            // already updated), so the pointer sat in its private slots at
            // publish time and appears in `addrs`.
            unsafe { local.sweep_unreserved(tail) }
        });
    }
}

impl Smr for HpPop {
    type ThreadCtx = HpPopCtx;

    const NAME: &'static str = "HP-POP";
    const USES_PROTECTION: bool = true;
    // The ping-snapshot scan does NOT make marked-chain traversal safe,
    // because the danger predates the hazard. A record reached through a marked-
    // *frozen* pointer out of an unlinked record may have been retired,
    // swept and recycled under an earlier ping this thread already
    // acknowledged — before this thread ever loaded the pointer, so no
    // private slot existed for that publish to surface, and no address
    // re-validation can notice (the re-read targets the frozen field, which
    // still holds the stale pointer). So HP-POP keeps the Harris-Michael
    // fallback, like HP and the interval schemes (full derivation in
    // DESIGN.md, "Why the HP family keeps the Harris-Michael fallback").
    const CAN_TRAVERSE_UNLINKED: bool = false;

    fn new(config: SmrConfig) -> Self {
        let core = ReclaimCore::new(config);
        let config = core.config();
        Self {
            ping: PingChannel::new(config.max_threads, config.signal_cost_ns),
            published: SlotBlock::new(config),
            core,
        }
    }

    fn config(&self) -> &SmrConfig {
        self.core.config()
    }

    fn register(&self, tid: usize) -> HpPopCtx {
        let mut local: ReclaimLocal = self.core.register(tid);
        // `clear`'s `Release` stores suffice: a reclaimer that still sees a
        // stale published slot only keeps its record longer.
        self.published.clear(tid);
        self.ping.reset_slot(tid);
        let config = self.core.config();
        local
            .addrs
            .reserve_exact(config.max_reservations * config.max_threads);
        HpPopCtx {
            local,
            private: vec![0usize; config.max_reservations].into_boxed_slice(),
        }
    }

    fn unregister(&self, ctx: &mut HpPopCtx) {
        ctx.private.fill(0);
        self.published.clear(ctx.local.tid());
        // Last chance to free what is already safe; the rest is orphaned.
        self.reclaim_with_pings(ctx);
        // Departed-slot exemption: set before leaving the registry so a
        // reclaimer mid-`await_acks` on a stale active-set snapshot stops
        // waiting on this thread immediately.
        self.ping.mark_departed(ctx.local.tid());
        self.core.unregister(&mut ctx.local);
    }

    #[inline]
    fn magazine_mut<'a>(&self, ctx: &'a mut HpPopCtx) -> Option<&'a mut Magazine> {
        Some(&mut ctx.local.mag)
    }

    /// The Publish-on-Ping fast path: an `Acquire` load plus a plain store
    /// to private memory. No announcement store, no fence, no validation —
    /// publication happens only when a reclaimer pings (serviced by the
    /// per-hop [`Smr::checkpoint`] every structure already executes).
    #[inline]
    fn protect<T: SmrNode>(&self, ctx: &mut HpPopCtx, slot: usize, src: &Atomic<T>) -> Shared<T> {
        debug_assert!(slot < ctx.private.len(), "hazard slot index out of range");
        let p = src.load(Ordering::Acquire);
        ctx.private[slot] = p.untagged_usize();
        // Oracle mirror: an *unmarked* load is binding even before any
        // publish — no record can be freed without a handshake, this
        // thread's ack publishes every private slot first, and an unmarked
        // pointer loaded after the ack comes from a reachable record
        // (DESIGN.md), so a free of its claimed address means the protection
        // contract broke. A *marked* load is not covered by that argument:
        // it may read the frozen next field of an already-unlinked record
        // and return pre-ping garbage a concurrent handshake is entitled to
        // free. That is safe — `CAN_TRAVERSE_UNLINKED = false` structures
        // never dereference a marked hop (they restart) — so mirror the slot
        // as empty rather than claiming an address the scheme does not
        // protect.
        let claimed = if p.tag() == 0 { p.untagged_usize() } else { 0 };
        smr_common::check::claim_addr(ctx.local.tid(), slot, claimed);
        p
    }

    /// A plain private copy. Unlike the baseline HP `protect_copy`, there is
    /// no window in which a concurrent scan can observe the destination
    /// empty and the source already overwritten: publication is an atomic
    /// snapshot of all `K` private slots taken at ping time.
    #[inline]
    fn protect_copy<T: SmrNode>(
        &self,
        ctx: &mut HpPopCtx,
        dst_slot: usize,
        _src_slot: usize,
        ptr: Shared<T>,
    ) {
        ctx.private[dst_slot] = ptr.untagged_usize();
        smr_common::check::claim_addr(ctx.local.tid(), dst_slot, ptr.untagged_usize());
    }

    #[inline]
    fn clear_protections(&self, ctx: &mut HpPopCtx) {
        // Oracle mirror: retract before the real clear (claims stay a subset
        // of what the next ack would publish).
        smr_common::check::clear_claims(ctx.local.tid());
        ctx.private.fill(0);
        // The published slots are left stale: they can only pin more
        // (at most K records per thread, the same slack as HP's bound) and
        // are overwritten wholesale at the next publish.
    }

    /// Per-hop cooperative ping-delivery point (no restart is ever needed).
    #[inline]
    fn checkpoint(&self, ctx: &mut HpPopCtx) -> bool {
        self.poll_ping(ctx);
        false
    }

    #[inline]
    fn begin_op(&self, ctx: &mut HpPopCtx) {
        self.poll_ping(ctx);
    }

    #[inline]
    fn end_op(&self, ctx: &mut HpPopCtx) {
        smr_common::check::clear_claims(ctx.local.tid());
        ctx.private.fill(0);
        self.poll_ping(ctx);
        if self.core.heartbeat_due(&mut ctx.local) {
            self.reclaim_with_pings(ctx);
        }
    }

    unsafe fn retire<T: SmrNode>(&self, ctx: &mut HpPopCtx, ptr: Shared<T>) {
        debug_assert!(!ptr.is_null());
        // The watermark check runs once per batch of retires (bound slack:
        // batch cap − 1).
        let retired = Retired::new(ptr.as_raw(), 0);
        let at_hi = self.core.retire(&mut ctx.local, retired);
        // Paces retire-path handshakes when the bag sits above the
        // watermark (e.g. every scan times out against a silent thread):
        // at least `empty_freq` retires must separate two scans.
        let paced = self.core.cadence_due(&mut ctx.local);
        if at_hi && paced {
            self.reclaim_with_pings(ctx);
        }
    }

    fn flush(&self, ctx: &mut HpPopCtx) {
        self.reclaim_with_pings(ctx);
    }

    fn thread_stats(&self, ctx: &HpPopCtx) -> ThreadStats {
        ctx.local.stats_snapshot()
    }

    fn thread_stats_mut<'a>(&self, ctx: &'a mut HpPopCtx) -> &'a mut ThreadStats {
        &mut ctx.local.stats
    }

    fn limbo_len(&self, ctx: &HpPopCtx) -> usize {
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
    fn protect_is_private_until_pinged() {
        let smr = HpPop::new(SmrConfig::for_tests());
        let mut ctx = smr.register(0);
        let shared = Atomic::<Node>::null();
        let node = smr.alloc(
            &mut ctx,
            Node {
                header: NodeHeader::new(),
                key: 7,
            },
        );
        shared.store(node, Ordering::Release);
        let p = smr.protect(&mut ctx, 0, &shared);
        assert!(p.ptr_eq(node));
        assert_eq!(
            smr.published.of(0)[0].load(Ordering::SeqCst),
            0,
            "no ping yet: the reservation must stay private"
        );
        // A ping promotes it.
        let (seq, _) = smr.ping.ping_all(1, smr.core.registry());
        let _ = seq;
        assert!(!smr.checkpoint(&mut ctx), "POP never restarts");
        assert_eq!(
            smr.published.of(0)[0].load(Ordering::SeqCst),
            node.untagged_usize()
        );
        assert_eq!(smr.thread_stats(&ctx).pings_published, 1);

        let old = shared.swap(Shared::null(), Ordering::AcqRel);
        unsafe { smr.retire(&mut ctx, old) };
        smr.clear_protections(&mut ctx);
        smr.flush(&mut ctx);
        smr.unregister(&mut ctx);
    }

    #[test]
    fn privately_protected_record_survives_own_scan() {
        // The scanning thread's own private slots count as reservations even
        // though they were never published.
        let smr = HpPop::new(SmrConfig::for_tests());
        let mut ctx = smr.register(0);
        let shared = Atomic::<Node>::null();
        let node = smr.alloc(
            &mut ctx,
            Node {
                header: NodeHeader::new(),
                key: 42,
            },
        );
        shared.store(node, Ordering::Release);
        let p = smr.protect(&mut ctx, 1, &shared);
        let old = shared.swap(Shared::null(), Ordering::AcqRel);
        unsafe { smr.retire(&mut ctx, old) };
        for i in 0..(smr.config().hi_watermark * 2) {
            let f = smr.alloc(
                &mut ctx,
                Node {
                    header: NodeHeader::new(),
                    key: i as u64,
                },
            );
            unsafe { smr.retire(&mut ctx, f) };
        }
        assert!(smr.thread_stats(&ctx).frees > 0, "filler must be freed");
        assert_eq!(unsafe { p.deref().key }, 42, "still privately protected");
        assert!(smr.limbo_len(&ctx) >= 1);
        smr.clear_protections(&mut ctx);
        smr.flush(&mut ctx);
        assert_eq!(smr.limbo_len(&ctx), 0);
        smr.unregister(&mut ctx);
    }

    #[test]
    fn published_reservation_of_stalled_reader_is_honoured() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let smr = Arc::new(HpPop::new(SmrConfig::for_tests()));
        let shared = Arc::new(Atomic::<Node>::null());
        let mut owner = smr.register(0);
        let node = smr.alloc(
            &mut owner,
            Node {
                header: NodeHeader::new(),
                key: 9,
            },
        );
        shared.store(node, Ordering::Release);

        let stop = Arc::new(AtomicBool::new(false));
        let holding = Arc::new(AtomicBool::new(false));
        let reader = {
            let smr = Arc::clone(&smr);
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            let holding = Arc::clone(&holding);
            std::thread::spawn(move || {
                let mut ctx = smr.register(1);
                smr.begin_op(&mut ctx);
                let p = smr.protect(&mut ctx, 0, &shared);
                assert!(!p.is_null());
                holding.store(true, Ordering::SeqCst);
                while !stop.load(Ordering::SeqCst) {
                    // Keep servicing pings while "stalled" on the record.
                    let _ = smr.checkpoint(&mut ctx);
                    assert_eq!(unsafe { p.deref().key }, 9);
                    std::thread::yield_now();
                }
                smr.end_op(&mut ctx);
                smr.unregister(&mut ctx);
            })
        };
        while !holding.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }

        // Unlink and retire the record, then force scans with filler.
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
        assert!(
            smr.thread_stats(&owner).frees > 0,
            "unprotected filler must be freed across handshakes"
        );
        assert!(
            smr.limbo_len(&owner) >= 1,
            "the published reservation must keep the record in limbo"
        );

        stop.store(true, Ordering::SeqCst);
        reader.join().unwrap();
        smr.flush(&mut owner);
        assert_eq!(smr.limbo_len(&owner), 0);
        smr.unregister(&mut owner);
    }

    #[test]
    fn garbage_is_bounded_by_watermark_plus_published_slots() {
        let smr = HpPop::new(SmrConfig::for_tests());
        let cfg = smr.config().clone();
        let mut ctx = smr.register(0);
        // The watermark check runs once per batch of retires, so the bound
        // gains exactly the fixed batch slack (cap − 1).
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

    #[test]
    fn silent_thread_forces_round_concession() {
        let mut cfg = SmrConfig::for_tests().with_max_threads(4);
        cfg.ack_spin_limit = 32;
        let smr = HpPop::new(cfg);
        let mut worker = smr.register(0);
        let _silent = smr.register(1); // registered, never runs an operation
        for i in 0..(smr.config().hi_watermark + 4) {
            let p = smr.alloc(
                &mut worker,
                Node {
                    header: NodeHeader::new(),
                    key: i as u64,
                },
            );
            unsafe { smr.retire(&mut worker, p) };
        }
        let s = smr.thread_stats(&worker);
        assert_eq!(s.frees, 0, "no handshake can complete");
        assert!(s.reclaim_skips > 0, "rounds must be conceded, not unsafe");
        smr.unregister(&mut worker);
    }
}
