//! NBR+ — the optimized reclaimer (Algorithm 2 of the paper).
//!
//! NBR sends `n-1` signals every time any thread wants to empty its limbo bag,
//! i.e. `O(n²)` signals for all threads to reclaim once. NBR+ lets threads
//! piggyback on *relaxed grace periods* (RGPs) induced by other threads:
//!
//! * When a thread's limbo bag crosses the **LoWatermark** it bookmarks its
//!   current bag tail and snapshots every peer's announcement timestamp.
//! * A thread whose bag reaches the **HiWatermark** announces an RGP (odd
//!   timestamp), broadcasts signals, verifies the handshake, announces the RGP
//!   complete (even timestamp), and reclaims — exactly like NBR plus the
//!   announcements.
//! * A thread waiting at the LoWatermark periodically re-reads the
//!   announcement timestamps; once any *other* thread's timestamp has advanced
//!   through a complete RGP since the snapshot, every thread has been
//!   neutralized since the bookmark, so the waiter reclaims every unreserved
//!   record it retired before the bookmark — **without sending any signals**.
//! * **Late bookmarks** (a deviation from Algorithm 2, which bookmarks once):
//!   while that re-read finds every tracked timestamp where the snapshot left
//!   it, the snapshot still describes the present, so the bookmark moves up
//!   to the bag tail read just before the re-read. The RGP a waiter finally
//!   rides then frees its whole bag as of its last quiet check, not only the
//!   prefix it held when it crossed the LoWatermark (DESIGN.md, "NBR+ on top
//!   of S1").
//!
//! In the best case all `n` threads reclaim after a single RGP (`n-1`
//! signals). `ThreadStats::signals_sent` makes this effect visible
//! (`garbage_bound::nbr_plus_piggybacks_instead_of_signalling` asserts it;
//! the standing benchmark reports `core.signals_per_free`).

use crate::neutralize::{NeutralizationCore, RgpProgress};
use smr_common::trace::{self, TraceKind};
use smr_common::{Magazine, ReclaimLocal, Retired, Shared, Smr, SmrConfig, SmrNode, ThreadStats};

/// How many retire calls at the LoWatermark are amortized over one scan of the
/// announcement timestamps (Section 5.1: "we amortize the overhead of scanning
/// announceTS over many retire operations").
const LO_WM_SCAN_PERIOD: u64 = 4;

/// Per-thread context for [`NbrPlus`].
pub struct NbrPlusCtx {
    local: ReclaimLocal,
    /// True until the thread (re-)enters the LoWatermark region
    /// (`firstLoWmEntryFlag` of Algorithm 2).
    first_lo_wm_entry: bool,
    /// Bag length at the moment the LoWatermark was entered (`bookmarkTail`),
    /// moved up to the bag tail at every quiet announcement check.
    bookmark: usize,
    /// `(tid, announce_ts)` of every peer registered when the LoWatermark was
    /// entered (`scanTS`); reserved at `register`.
    scan_snapshot: Vec<(usize, u64)>,
    /// Retires since the last announcement scan (amortization counter).
    lo_wm_scan_tick: u64,
    /// True once the op-exit heartbeat has deferred its broadcast to an
    /// in-flight peer RGP; bounds the deferral to one heartbeat window
    /// (cleared by `clean_up`, i.e. whenever a reclamation lands).
    heartbeat_deferred: bool,
}

impl NbrPlusCtx {
    /// The thread's slot index.
    pub fn tid(&self) -> usize {
        self.local.tid()
    }
}

/// The NBR+ reclaimer (Algorithm 2).
pub struct NbrPlus {
    core: NeutralizationCore,
}

impl NbrPlus {
    /// Access to the shared neutralization core.
    pub fn neutralization(&self) -> &NeutralizationCore {
        &self.core
    }

    /// Reset the LoWatermark bookkeeping (Algorithm 2, `cleanUp`).
    fn clean_up(ctx: &mut NbrPlusCtx) {
        ctx.first_lo_wm_entry = true;
        ctx.lo_wm_scan_tick = 0;
        ctx.heartbeat_deferred = false;
    }

    /// Free every unreserved record in the prefix `[0, up_to)` of the bag.
    fn reclaim_freeable(&self, local: &mut ReclaimLocal, up_to: usize) -> usize {
        self.core
            .collect_reservations_into(local.tid(), &mut local.addrs);
        // SAFETY: callers establish that every record in the prefix was
        // retired before a verified RGP (HiWatermark path) or before the
        // bookmark of an observed RGP (LoWatermark path); unreserved records
        // are therefore safe (Lemmas 8/9 of the paper).
        unsafe { local.sweep_unreserved(up_to) }
    }

    /// HiWatermark path: induce an RGP (signals + verified handshake) and
    /// reclaim everything retired before the broadcast. Orphans adopted by
    /// the scan prologue append *after* the
    /// LoWatermark bookmark prefix, so the bookmark indices stay valid, and
    /// they join this round's prefix before the broadcast.
    fn reclaim_at_hi_watermark(&self, ctx: &mut NbrPlusCtx) -> usize {
        let mut verified = false;
        let freed = self.core.reclaim().scan(&mut ctx.local, |local, tail| {
            self.core.announce_rgp_begin(local.tid());
            verified = self.core.neutralize_all(local);
            if !verified {
                // The RGP could not be verified: roll the announcement back so
                // LoWatermark observers cannot mistake it for a completed one.
                self.core.announce_rgp_abort(local.tid());
                return 0;
            }
            self.core.announce_rgp_end(local.tid());
            self.reclaim_freeable(local, tail)
        });
        if verified {
            Self::clean_up(ctx);
        }
        freed
    }

    /// What the peers did since this thread's LoWatermark snapshot;
    /// `Quiet` when it holds none.
    fn rgp_progress(&self, ctx: &NbrPlusCtx) -> RgpProgress {
        if ctx.first_lo_wm_entry {
            return RgpProgress::Quiet;
        }
        self.core.rgp_progress_since(&ctx.scan_snapshot)
    }

    /// Rides a peer's RGP that completed since the snapshot: frees the
    /// bookmark prefix — every record in it was retired before the
    /// timestamp loads the RGP is measured against, so the RGP proves it
    /// unreachable (Lemma 9), no signals needed. It is a scan like any other
    /// to the pipeline (counted, timed, restarts the heartbeat window so the
    /// next op exit does not immediately re-fire and broadcast over the bag
    /// remainder); records the prologue adopts land past the bookmark and
    /// wait for the next RGP.
    fn ride(&self, ctx: &mut NbrPlusCtx) -> usize {
        let bookmark = ctx.bookmark;
        let freed = self.core.reclaim().scan(&mut ctx.local, |local, _tail| {
            self.reclaim_freeable(local, bookmark)
        });
        ctx.local.stats.rgp_reclaims += 1;
        Self::clean_up(ctx);
        freed
    }

    /// LoWatermark path: bookmark and snapshot on entry, then every
    /// [`LO_WM_SCAN_PERIOD`] retires one pass over the snapshot. A peer's
    /// completed RGP is ridden; a begun one holds the bookmark; a quiet pass
    /// moves the bookmark to the tail read before it, since the pass's
    /// loads are a snapshot taken after every record up to that tail was
    /// retired.
    fn try_reclaim_at_lo_watermark(&self, ctx: &mut NbrPlusCtx) -> usize {
        if ctx.first_lo_wm_entry {
            ctx.bookmark = ctx.local.limbo.len();
            self.core
                .snapshot_announcements_into(ctx.local.tid(), &mut ctx.scan_snapshot);
            ctx.first_lo_wm_entry = false;
            ctx.lo_wm_scan_tick = 0;
            return 0;
        }
        ctx.lo_wm_scan_tick += 1;
        if ctx.lo_wm_scan_tick % LO_WM_SCAN_PERIOD != 0 {
            return 0;
        }
        let tail = ctx.local.limbo.len();
        match self.core.rgp_progress_since(&ctx.scan_snapshot) {
            RgpProgress::Elapsed => self.ride(ctx),
            RgpProgress::InFlight => 0,
            RgpProgress::Quiet => {
                ctx.bookmark = tail;
                0
            }
        }
    }
}

impl Smr for NbrPlus {
    type ThreadCtx = NbrPlusCtx;

    const NAME: &'static str = "NBR+";
    const USES_PHASES: bool = true;

    fn new(config: SmrConfig) -> Self {
        Self {
            core: NeutralizationCore::new(config),
        }
    }

    fn config(&self) -> &SmrConfig {
        self.core.config()
    }

    fn register(&self, tid: usize) -> NbrPlusCtx {
        NbrPlusCtx {
            local: self.core.register(tid),
            first_lo_wm_entry: true,
            bookmark: 0,
            scan_snapshot: Vec::with_capacity(self.config().max_threads),
            lo_wm_scan_tick: 0,
            heartbeat_deferred: false,
        }
    }

    fn unregister(&self, ctx: &mut NbrPlusCtx) {
        self.reclaim_at_hi_watermark(ctx);
        self.core.unregister(&mut ctx.local);
    }

    #[inline]
    fn magazine_mut<'a>(&self, ctx: &'a mut NbrPlusCtx) -> Option<&'a mut Magazine> {
        Some(&mut ctx.local.mag)
    }

    #[inline]
    fn begin_read_phase(&self, ctx: &mut NbrPlusCtx) {
        self.core.begin_read_phase(ctx.local.tid());
    }

    #[inline]
    fn end_read_phase(&self, ctx: &mut NbrPlusCtx, reservations: &[usize]) {
        self.core.end_read_phase(ctx.local.tid(), reservations);
    }

    #[inline]
    fn checkpoint(&self, ctx: &mut NbrPlusCtx) -> bool {
        if self.core.checkpoint(ctx.local.tid()) {
            ctx.local.stats.neutralizations += 1;
            trace::emit(ctx.local.tid(), TraceKind::Neutralized, 0, 0);
            true
        } else {
            false
        }
    }

    #[inline]
    fn end_op(&self, ctx: &mut NbrPlusCtx) {
        self.core.quiesce(ctx.local.tid());
        // Operation-exit heartbeat. Piggyback-aware: the heartbeat interval
        // (1024 ops ≈ half a HiWatermark of retires on an update-heavy mix)
        // is shorter than the natural Lo→Hi bag cycle, so a heartbeat that
        // always broadcast would keep every bag below the HiWatermark and
        // starve Algorithm 2's piggyback path outright — the group pays one
        // full O(n²) round of signals per heartbeat interval and
        // `rgp_reclaims` flatlines at zero (exactly what the `ablation_nbr`
        // bench showed at CI scale). Riding a peer's completed RGP when one
        // landed since our bookmark serves the heartbeat's purpose (return
        // memory in short trials) without any signals; the broadcast is the
        // fallback, and the retire-path HiWatermark scan remains the
        // bounded-garbage backstop.
        if !self.core.reclaim().heartbeat_due(&mut ctx.local) {
            return;
        }
        let settled = match self.rgp_progress(ctx) {
            // Rode a peer's completed RGP — no signals.
            RgpProgress::Elapsed => self.ride(ctx) > 0,
            // A peer's grace period is mid-handshake (typically: we just
            // acked its ping, its other peers have not yet). Broadcasting
            // now would stack signals onto it *and* throw away our
            // bookmark; ride the RGP when it lands instead (the gated
            // LoWatermark check on the retire path, or the next
            // heartbeat). Deferral is bounded to ONE heartbeat window —
            // `InFlight` can persist indefinitely on a stale odd-snapshot
            // signal (the peer completed the RGP we cannot credit and went
            // quiet), and a thread that stops retiring would otherwise hold
            // its garbage forever. Restarting the window here also keeps
            // the heartbeat from re-firing (and re-scanning the registry)
            // on every subsequent op exit.
            RgpProgress::InFlight
                if !ctx.heartbeat_deferred
                    && self.core.reclaim().can_defer_broadcast(&ctx.local) =>
            {
                ctx.heartbeat_deferred = true;
                ctx.local.note_scan();
                true
            }
            _ => false,
        };
        if !settled {
            self.reclaim_at_hi_watermark(ctx);
        }
    }

    unsafe fn retire<T: SmrNode>(&self, ctx: &mut NbrPlusCtx, ptr: Shared<T>) {
        debug_assert!(!ptr.is_null());
        // The HiWatermark trigger is only consulted once per batch of
        // retires (bounded overshoot of RETIRE_BATCH_CAP - 1), while the cheap amortized
        // LoWatermark/piggyback path keeps running per retire so a
        // completed peer RGP is still ridden promptly.
        let retired = Retired::new(ptr.as_raw(), 0);
        let reclaim = self.core.reclaim();
        if reclaim.retire(&mut ctx.local, retired) {
            // Broadcast-stacking defence. When every thread retires at the
            // same rate (a timed trial starts all bags empty on one
            // barrier), the whole group crosses HiWatermark within a few
            // retires of the leader — and the leader's handshake cannot
            // complete until the followers ack at their next read-phase
            // checkpoint, so each follower arrives here while the leader's
            // RGP is still *in flight* and would stack `n−1` redundant
            // signals onto the same grace period. Instead: ride a completed
            // peer RGP if one landed since our bookmark (free the bookmark
            // prefix, no signals — Algorithm 2's whole point), and if a
            // peer's RGP has *begun* but not yet completed, defer our own
            // broadcast for a bounded bag overshoot (`hi + lo`) — our ack
            // at the next checkpoint is part of what completes it.
            let settled = match self.rgp_progress(ctx) {
                // Rode a peer's completed RGP back below the mark.
                RgpProgress::Elapsed => self.ride(ctx) > 0 && !reclaim.at_hi_watermark(&ctx.local),
                // A peer's grace period is mid-handshake; keep running so it
                // can complete, then ride it.
                RgpProgress::InFlight => reclaim.can_defer_broadcast(&ctx.local),
                RgpProgress::Quiet => false,
            };
            if !settled {
                self.reclaim_at_hi_watermark(ctx);
            }
        } else if reclaim.at_lo_watermark(&ctx.local) {
            self.try_reclaim_at_lo_watermark(ctx);
        }
    }

    fn flush(&self, ctx: &mut NbrPlusCtx) {
        self.reclaim_at_hi_watermark(ctx);
    }

    fn thread_stats(&self, ctx: &NbrPlusCtx) -> ThreadStats {
        ctx.local.stats_snapshot()
    }

    fn thread_stats_mut<'a>(&self, ctx: &'a mut NbrPlusCtx) -> &'a mut ThreadStats {
        &mut ctx.local.stats
    }

    fn limbo_len(&self, ctx: &NbrPlusCtx) -> usize {
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

    fn new_nbr_plus() -> NbrPlus {
        NbrPlus::new(SmrConfig::for_tests().with_max_threads(4))
    }

    fn alloc_and_retire(smr: &NbrPlus, ctx: &mut NbrPlusCtx, n: usize) {
        for i in 0..n {
            let p = smr.alloc(
                ctx,
                Node {
                    header: NodeHeader::new(),
                    key: i as u64,
                },
            );
            unsafe { smr.retire(ctx, p) };
        }
    }

    #[test]
    fn hi_watermark_reclaims_and_announces() {
        let smr = new_nbr_plus();
        let hi = smr.config().hi_watermark;
        let mut ctx = smr.register(0);
        let before = smr.neutralization().slot(0).announce_ts();
        alloc_and_retire(&smr, &mut ctx, hi);
        assert_eq!(smr.limbo_len(&ctx), 0);
        let after = smr.neutralization().slot(0).announce_ts();
        assert_eq!(
            after,
            before + 2,
            "a verified RGP bumps the timestamp twice"
        );
        assert_eq!(after % 2, 0);
        smr.unregister(&mut ctx);
    }

    #[test]
    fn hi_crossing_defers_broadcast_while_peer_rgp_in_flight() {
        let smr = new_nbr_plus();
        let cfg = smr.config().clone();
        let mut waiter = smr.register(0);
        let _peer = smr.register(1);

        // Cross the LoWatermark so the bookmark + snapshot exist, catching
        // the peer's timestamp even (quiet).
        alloc_and_retire(&smr, &mut waiter, cfg.lo_watermark + 1);
        // Peer goes mid-broadcast (odd timestamp) before the waiter reaches
        // the HiWatermark.
        smr.neutralization().announce_rgp_begin(1);
        // The waiter crosses Hi: it must *defer* (ride-don't-stack) instead
        // of broadcasting onto the peer's in-flight grace period.
        alloc_and_retire(&smr, &mut waiter, cfg.hi_watermark - cfg.lo_watermark + 2);
        let s = smr.thread_stats(&waiter);
        assert_eq!(s.signals_sent, 0, "deferral must not broadcast");
        assert_eq!(s.reclaim_scans, 0);
        assert!(smr.limbo_len(&waiter) > cfg.hi_watermark);

        // The peer's RGP completes — fully after the waiter's snapshot — so
        // the next few retires (the gated LoWatermark check is amortized
        // over LO_WM_SCAN_PERIOD retires) piggyback the bookmark prefix,
        // signal-free.
        smr.neutralization().announce_rgp_end(1);
        alloc_and_retire(&smr, &mut waiter, LO_WM_SCAN_PERIOD as usize);
        let s = smr.thread_stats(&waiter);
        assert_eq!(s.rgp_reclaims, 1, "completed peer RGP must be ridden");
        assert_eq!(s.signals_sent, 0);
        assert!(smr.limbo_len(&waiter) < cfg.hi_watermark);

        smr.unregister(&mut waiter);
    }

    #[test]
    fn heartbeat_piggybacks_instead_of_broadcasting() {
        let smr = new_nbr_plus();
        let cfg = smr.config().clone();
        let mut waiter = smr.register(0);
        let _peer = smr.register(1);

        // Garbage past the LoWatermark (bookmark + snapshot taken), far
        // below Hi.
        alloc_and_retire(&smr, &mut waiter, cfg.lo_watermark + 2);
        // A peer completes a full RGP after the snapshot.
        smr.neutralization().announce_rgp_begin(1);
        smr.neutralization().announce_rgp_end(1);
        // Enough op exits to fire the heartbeat: it must ride the peer's
        // RGP rather than induce one of its own.
        for _ in 0..cfg.scan_heartbeat_ops + 1 {
            smr.begin_op(&mut waiter);
            smr.end_op(&mut waiter);
        }
        let s = smr.thread_stats(&waiter);
        assert_eq!(s.rgp_reclaims, 1, "heartbeat must piggyback");
        assert_eq!(s.signals_sent, 0, "no signals when a peer RGP landed");
        assert!(s.frees >= cfg.lo_watermark as u64);

        smr.unregister(&mut waiter);
    }

    #[test]
    fn lo_watermark_piggybacks_on_other_threads_rgp() {
        let smr = new_nbr_plus();
        let cfg = smr.config().clone();
        let mut waiter = smr.register(0);
        let mut reclaimer = smr.register(1);

        // Waiter retires enough to pass the LoWatermark (but not Hi), which
        // bookmarks its bag, plus a few more to tick the amortized scan.
        alloc_and_retire(&smr, &mut waiter, cfg.lo_watermark + 1);
        let waiting = smr.limbo_len(&waiter);
        assert!(waiting > 0);
        assert_eq!(smr.thread_stats(&waiter).signals_sent, 0);

        // Another thread crosses its HiWatermark, inducing a verified RGP.
        alloc_and_retire(&smr, &mut reclaimer, cfg.hi_watermark);
        assert!(smr.thread_stats(&reclaimer).signals_sent > 0);

        // The waiter's next few retires must detect the RGP and reclaim the
        // bookmarked prefix without sending a single signal.
        alloc_and_retire(&smr, &mut waiter, LO_WM_SCAN_PERIOD as usize + 1);
        let s = smr.thread_stats(&waiter);
        assert_eq!(s.signals_sent, 0, "the waiter must not signal");
        assert_eq!(
            s.rgp_reclaims, 1,
            "the waiter must piggyback exactly once here"
        );
        assert!(
            smr.limbo_len(&waiter) < waiting,
            "bookmarked prefix must have been reclaimed"
        );

        smr.unregister(&mut waiter);
        smr.unregister(&mut reclaimer);
    }

    #[test]
    fn quiet_checks_move_the_bookmark_to_the_bag_tail() {
        let smr = new_nbr_plus();
        let cfg = smr.config().clone();
        let period = LO_WM_SCAN_PERIOD as usize;
        let mut waiter = smr.register(0);
        let mut peer = smr.register(1);

        // Cross the LoWatermark (bookmark + snapshot), then two more
        // announcement checks' worth of retires while the peer is quiet:
        // the last check finds the snapshot unchanged at the bag tail.
        alloc_and_retire(&smr, &mut waiter, cfg.lo_watermark);
        alloc_and_retire(&smr, &mut waiter, 2 * period);
        let before_rgp = smr.limbo_len(&waiter);
        assert_eq!(before_rgp, cfg.lo_watermark + 2 * period);

        // The peer completes a real RGP (it signals the quiescent waiter).
        alloc_and_retire(&smr, &mut peer, cfg.hi_watermark);
        assert_eq!(smr.neutralization().slot(1).announce_ts(), 2);

        // The waiter's next check rides it and frees everything retired
        // before its last quiet check, not only the LoWatermark prefix.
        alloc_and_retire(&smr, &mut waiter, period);
        let s = smr.thread_stats(&waiter);
        assert_eq!(s.rgp_reclaims, 1);
        assert_eq!(s.signals_sent, 0);
        assert_eq!(s.frees as usize, before_rgp);
        assert_eq!(smr.limbo_len(&waiter), period);

        smr.unregister(&mut peer);
        smr.unregister(&mut waiter);
    }

    #[test]
    fn a_peer_that_departs_after_its_rgp_is_not_credited_for_later_retires() {
        let smr = new_nbr_plus();
        let cfg = smr.config().clone();
        let period = LO_WM_SCAN_PERIOD as usize;
        let mut waiter = smr.register(0);
        let mut peer = smr.register(1);

        // The waiter snapshots the peer at the LoWatermark.
        alloc_and_retire(&smr, &mut waiter, cfg.lo_watermark);
        let before_rgp = smr.limbo_len(&waiter);

        // The peer completes an RGP and departs before the waiter checks.
        alloc_and_retire(&smr, &mut peer, cfg.hi_watermark);
        smr.unregister(&mut peer);

        // Records retired from here on were retired after that RGP; the
        // check that follows must see the departed peer move, not call the
        // snapshot quiet and bookmark them.
        alloc_and_retire(&smr, &mut waiter, period);
        let mut peer = smr.register(1);
        alloc_and_retire(&smr, &mut waiter, period);
        let s = smr.thread_stats(&waiter);
        assert!(
            s.frees as usize <= before_rgp,
            "freed {} records, only {before_rgp} were retired before the RGP",
            s.frees
        );
        assert_eq!(s.signals_sent, 0);

        smr.unregister(&mut peer);
        smr.unregister(&mut waiter);
    }

    #[test]
    fn an_aborted_rgp_lets_the_bookmark_advance_but_is_never_credited() {
        let mut cfg = SmrConfig::for_tests().with_max_threads(4);
        cfg.ack_spin_limit = 16;
        let smr = NbrPlus::new(cfg);
        let cfg = smr.config().clone();
        let period = LO_WM_SCAN_PERIOD as usize;
        let mut waiter = smr.register(0);
        let mut peer = smr.register(1);
        let mut silent_reader = smr.register(2);

        alloc_and_retire(&smr, &mut waiter, cfg.lo_watermark);
        // The peer's broadcast times out on a reader that never
        // acknowledges, and its announcement rolls back.
        smr.begin_read_phase(&mut silent_reader);
        alloc_and_retire(&smr, &mut peer, cfg.hi_watermark);
        assert_eq!(smr.thread_stats(&peer).ping_concessions, 1);
        assert_eq!(smr.neutralization().slot(1).announce_ts(), 0);

        // The waiter's checks find the snapshot unchanged: nothing is
        // credited, and the bookmark follows the tail.
        alloc_and_retire(&smr, &mut waiter, 2 * period);
        let before_rgp = smr.limbo_len(&waiter);
        let s = smr.thread_stats(&waiter);
        assert_eq!(s.rgp_reclaims, 0, "an aborted RGP must not be credited");
        assert_eq!(s.frees, 0);

        // Once a verified RGP lands, the ride frees the advanced prefix.
        assert!(smr.checkpoint(&mut silent_reader));
        smr.end_op(&mut silent_reader);
        smr.flush(&mut peer);
        alloc_and_retire(&smr, &mut waiter, period);
        let s = smr.thread_stats(&waiter);
        assert_eq!(s.rgp_reclaims, 1);
        assert_eq!(s.frees as usize, before_rgp);
        assert!(before_rgp > cfg.lo_watermark);

        smr.unregister(&mut silent_reader);
        smr.unregister(&mut peer);
        smr.unregister(&mut waiter);
    }

    #[test]
    fn a_peer_registered_after_the_snapshot_is_credited_only_from_the_next() {
        let smr = new_nbr_plus();
        let cfg = smr.config().clone();
        let period = LO_WM_SCAN_PERIOD as usize;
        let mut waiter = smr.register(0);

        // The waiter snapshots an empty peer set.
        alloc_and_retire(&smr, &mut waiter, cfg.lo_watermark);
        let mut peer = smr.register(1);
        alloc_and_retire(&smr, &mut peer, cfg.hi_watermark);
        alloc_and_retire(&smr, &mut waiter, 2 * period);
        let s = smr.thread_stats(&waiter);
        assert_eq!(s.rgp_reclaims, 0, "an untracked peer must not be credited");
        assert_eq!(s.frees, 0);

        // The waiter empties its bag with its own broadcast and crosses
        // the LoWatermark again: this snapshot tracks the peer.
        let to_hi = cfg.hi_watermark - smr.limbo_len(&waiter);
        alloc_and_retire(&smr, &mut waiter, to_hi);
        assert_eq!(smr.limbo_len(&waiter), 0);
        alloc_and_retire(&smr, &mut waiter, cfg.lo_watermark);
        alloc_and_retire(&smr, &mut peer, cfg.hi_watermark);
        alloc_and_retire(&smr, &mut waiter, period);
        assert_eq!(smr.thread_stats(&waiter).rgp_reclaims, 1);

        smr.unregister(&mut peer);
        smr.unregister(&mut waiter);
    }

    #[test]
    fn lo_watermark_does_not_reclaim_without_rgp() {
        let smr = new_nbr_plus();
        let cfg = smr.config().clone();
        let mut waiter = smr.register(0);
        let _other = smr.register(1);
        alloc_and_retire(&smr, &mut waiter, cfg.hi_watermark - 1);
        let s = smr.thread_stats(&waiter);
        assert_eq!(s.frees, 0, "no RGP observed, nothing may be freed");
        assert_eq!(s.rgp_reclaims, 0);
        smr.unregister(&mut waiter);
    }

    #[test]
    fn aborted_rgp_is_invisible_to_waiters() {
        let mut cfg = SmrConfig::for_tests().with_max_threads(4);
        cfg.ack_spin_limit = 16;
        let smr = NbrPlus::new(cfg);
        let cfg = smr.config().clone();
        let mut waiter = smr.register(0);
        let mut reclaimer = smr.register(1);
        let mut silent_reader = smr.register(2);

        // A reader that never acknowledges forces the HiWatermark RGP to abort.
        smr.begin_read_phase(&mut silent_reader);

        alloc_and_retire(&smr, &mut waiter, cfg.lo_watermark + 1);
        alloc_and_retire(&smr, &mut reclaimer, cfg.hi_watermark);
        assert_eq!(
            smr.thread_stats(&reclaimer).frees,
            0,
            "HiWatermark reclaim must have been conceded"
        );

        alloc_and_retire(&smr, &mut waiter, LO_WM_SCAN_PERIOD as usize + 1);
        assert_eq!(
            smr.thread_stats(&waiter).rgp_reclaims,
            0,
            "an aborted RGP must not be detected by waiters"
        );

        // Reader finally acknowledges; everything can drain.
        assert!(smr.checkpoint(&mut silent_reader));
        smr.end_op(&mut silent_reader);
        smr.flush(&mut reclaimer);
        smr.flush(&mut waiter);
        assert_eq!(smr.limbo_len(&reclaimer), 0);
        assert_eq!(smr.limbo_len(&waiter), 0);

        smr.unregister(&mut silent_reader);
        smr.unregister(&mut reclaimer);
        smr.unregister(&mut waiter);
    }

    #[test]
    fn nbr_plus_sends_fewer_signals_than_nbr_for_same_workload() {
        // The headline claim of Section 5: a thread that retires slowly can
        // piggyback on the RGPs of a fast-retiring thread instead of sending
        // its own signals. Thread `a` retires 3 records per round, thread `b`
        // one — under NBR both must broadcast to empty their bags, under NBR+
        // `b` reclaims by observing `a`'s RGPs.
        let rounds = 600usize;

        fn run<S: Smr>(rounds: usize) -> u64 {
            let cfg = SmrConfig::for_tests().with_max_threads(4);
            let smr = S::new(cfg);
            let mut a = smr.register(0);
            let mut b = smr.register(1);
            let retire_n = |ctx: &mut S::ThreadCtx, n: usize| {
                for i in 0..n {
                    let p = smr.alloc(
                        ctx,
                        Node {
                            header: NodeHeader::new(),
                            key: i as u64,
                        },
                    );
                    unsafe { smr.retire(ctx, p) };
                }
            };
            for _ in 0..rounds {
                retire_n(&mut a, 3);
                retire_n(&mut b, 1);
            }
            let sig = smr.thread_stats(&a).signals_sent + smr.thread_stats(&b).signals_sent;
            smr.unregister(&mut a);
            smr.unregister(&mut b);
            sig
        }

        let nbr_signals = run::<crate::Nbr>(rounds);
        let plus_signals = run::<NbrPlus>(rounds);
        assert!(
            plus_signals < nbr_signals,
            "NBR+ must send fewer signals than NBR ({plus_signals} vs {nbr_signals})"
        );
    }

    #[test]
    fn garbage_is_bounded_by_watermark_plus_reservations() {
        let smr = new_nbr_plus();
        let cfg = smr.config().clone();
        let mut ctx = smr.register(0);
        // Coalescing slack: the HiWatermark trigger is consulted once per
        // batch of retires, so the bag may overshoot by one unfilled batch.
        let bound = cfg.hi_watermark
            + cfg.max_reservations * (cfg.max_threads - 1)
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
    fn garbage_stays_bounded_while_riding_a_peers_rgps() {
        let smr = new_nbr_plus();
        let cfg = smr.config().clone();
        // The same bound as above: riding never lets the bag past it.
        let bound = cfg.hi_watermark
            + cfg.max_reservations * (cfg.max_threads - 1)
            + (smr_common::RETIRE_BATCH_CAP - 1);
        for k in [1, 3, 5, 11, 29, 64] {
            let mut ctx = smr.register(0);
            let mut peer = smr.register(1);
            for i in 0..(cfg.hi_watermark * 8) {
                let p = smr.alloc(
                    &mut ctx,
                    Node {
                        header: NodeHeader::new(),
                        key: i as u64,
                    },
                );
                unsafe { smr.retire(&mut ctx, p) };
                assert!(smr.limbo_len(&ctx) <= bound, "k={k}");
                if i % k == k - 1 {
                    // One retire and a flush: the peer's RGP.
                    alloc_and_retire(&smr, &mut peer, 1);
                    smr.flush(&mut peer);
                }
            }
            if k < cfg.hi_watermark {
                assert!(smr.thread_stats(&ctx).rgp_reclaims > 0, "k={k}");
            }
            smr.unregister(&mut peer);
            smr.unregister(&mut ctx);
        }
    }
}
