//! The reclaim pipeline, written once.
//!
//! Every reclaimer in the workspace is the same machine around a different
//! reservation rule: retired records stage into a per-thread limbo bag,
//! triggers (watermark, per-retire cadence, operation-exit heartbeat) start
//! a scan, the scan adopts what departed or busy peers left behind, sweeps
//! the bag against the scheme's frontier, and accounts for what it did.
//! This module owns that machine — setbench's *record manager* role — so a
//! scheme file holds only the four things that make it that scheme:
//!
//! 1. how a reservation is **published and read** (hazard slots, era
//!    intervals, epoch announcements, NBR's restartable flag + reservations,
//!    the Publish-on-Ping private slots);
//! 2. how a retired record is **stamped** (`Retired::new(ptr, era)`);
//! 3. how the **frontier** is collected (the closure passed to
//!    [`ReclaimCore::scan`], optionally after a [`ReclaimCore::ping_round`]);
//! 4. which [`LimboBag`] **sweep** frees against that frontier.
//!
//! [`ReclaimCore`] is the shared half (config, [`ScanPolicy`], [`Registry`],
//! [`BlockPool`], [`OrphanPool`]); [`ReclaimLocal`] is the
//! per-thread half (tid, limbo, pacing, [`Magazine`], [`ThreadStats`], sweep
//! scratch). Entry points are `#[inline]` generics over closures: each
//! scheme monomorphises to straight-line code, no `dyn` anywhere.
//!
//! # The pipeline's rules (one each, tested in `tests/tests/reclaim_core.rs`)
//!
//! * A scan over an **empty** bag is not a scan: nothing is counted or
//!   pinged.
//! * Every scan that enters its sweep counts one `reclaim_scans`, and
//!   restarts the heartbeat window and the per-retire cadence.
//! * A **skip** is a scan that freed nothing from a non-empty bag, whatever
//!   the cause (conceded ping round, fully protected bag, blocked epoch).
//! * Peer garbage is adopted **before** the sweep sees the bag length
//!   (`tail`), so a ping-based scheme's "prefix retired before my ping"
//!   argument covers adopted records unchanged: they were retired — by
//!   their previous owner — before this scan's ping.

use crate::atomic::Shared;
use crate::header::SmrNode;
use crate::limbo::LimboBag;
use crate::ping::{PingChannel, PingOutcome};
use crate::policy::{ScanPolicy, ScanState};
use crate::recycle::{BlockPool, Magazine};
use crate::registry::Registry;
use crate::retired::Retired;
use crate::smr::SmrConfig;
use crate::stats::ThreadStats;
use crate::trace::{self, TraceKind};
use crate::util::OrphanPool;
use std::sync::Arc;

/// The per-thread half of the pipeline; lives in every scheme's thread
/// context. No synchronization involved.
pub struct ReclaimLocal {
    tid: usize,
    /// The thread's retired-but-unfreed records, in retire order.
    pub limbo: LimboBag,
    /// Node-block recycling magazine.
    pub mag: Magazine,
    /// The thread's counters.
    pub stats: ThreadStats,
    /// Sweep scratch: reserved / hazard addresses. A scheme that collects
    /// them reserves room for its whole frontier at `register`, so a scan
    /// never allocates (likewise `lowers` / `uppers`).
    pub addrs: Vec<usize>,
    /// Sweep scratch: announced interval lower bounds.
    pub lowers: Vec<u64>,
    /// Sweep scratch: announced interval upper bounds.
    pub uppers: Vec<u64>,
    pace: ScanState,
    retires_since_scan: usize,
    epoch_ticks: usize,
}

impl ReclaimLocal {
    /// The thread's registry slot.
    #[inline]
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Counters with the magazine's pool statistics folded in
    /// (`Smr::thread_stats`).
    pub fn stats_snapshot(&self) -> ThreadStats {
        self.mag.fold_stats(self.stats)
    }

    /// Restarts the heartbeat window and the per-retire cadence. The
    /// pipeline calls this for every scan; schemes call it for events that
    /// stand in for one (DEBRA's epoch-paced advance, an NBR+ deferral).
    #[inline]
    pub fn note_scan(&mut self) {
        self.pace.note_scan();
        self.retires_since_scan = 0;
    }

    /// Counts and traces one advance of the scheme's era/epoch clock.
    #[inline]
    pub fn note_era_advance(&mut self, era: u64) {
        self.stats.epoch_advances += 1;
        trace::emit(self.tid, TraceKind::EraAdvance, era, 0);
    }

    /// Interval-family allocation: pop a block, **then** stamp its birth
    /// era (`era` is read after the pop, which happens-after the block's
    /// free — `Smr::alloc` docs, "Recycling is downstream of safety").
    #[inline]
    pub fn alloc_stamped<T: SmrNode>(&mut self, value: T, era: impl FnOnce() -> u64) -> Shared<T> {
        let raw = self.mag.alloc_node(value);
        let birth = era();
        // SAFETY: freshly allocated above and not yet published — this
        // thread owns the node exclusively.
        unsafe { (*raw).header_mut().set_birth_era(birth) };
        crate::check::on_node_alloc(raw as usize, birth);
        self.stats.allocs += 1;
        Shared::from_raw(raw)
    }

    /// Sorts and dedups `addrs`, then frees every record of the prefix
    /// `[0, up_to)` whose address is not among them.
    ///
    /// # Safety
    /// [`LimboBag::reclaim_prefix_unreserved`]'s contract: `addrs` holds
    /// every address a registered thread may still dereference.
    #[inline]
    pub unsafe fn sweep_unreserved(&mut self, up_to: usize) -> usize {
        self.addrs.sort_unstable();
        self.addrs.dedup();
        self.limbo
            .reclaim_prefix_unreserved(up_to, &self.addrs, &mut self.stats, &mut self.mag)
    }

    /// Sorts `lowers`/`uppers`, then frees every record whose
    /// `[birth, retire]` lifetime overlaps none of the intervals — two
    /// binary searches per record, O((R + T) log T) per scan.
    ///
    /// # Safety
    /// [`LimboBag::reclaim_disjoint_intervals`]'s contract: the scratch
    /// covers every interval announced at the scan's linearization point.
    #[inline]
    pub unsafe fn sweep_disjoint_intervals(&mut self) -> usize {
        self.lowers.sort_unstable();
        self.uppers.sort_unstable();
        self.limbo.reclaim_disjoint_intervals(
            &self.lowers,
            &self.uppers,
            &mut self.stats,
            &mut self.mag,
        )
    }

    /// Frees every record of the prefix `[0, up_to)` retired strictly
    /// before era `frontier`.
    ///
    /// # Safety
    /// [`LimboBag::reclaim_prefix_if`]'s contract: no registered thread can
    /// still reference a record retired before `frontier`.
    #[inline]
    pub unsafe fn sweep_retired_before(&mut self, up_to: usize, frontier: u64) -> usize {
        self.limbo.reclaim_prefix_if(
            up_to,
            |r| r.retire_era() < frontier,
            &mut self.stats,
            &mut self.mag,
        )
    }
}

/// The shared half of the pipeline; one per reclaimer instance.
pub struct ReclaimCore {
    config: SmrConfig,
    policy: ScanPolicy,
    registry: Registry,
    pool: Arc<BlockPool>,
    orphans: OrphanPool,
}

impl ReclaimCore {
    /// The pipeline for one reclaimer instance.
    pub fn new(config: SmrConfig) -> Self {
        config.validate();
        Self {
            policy: ScanPolicy::from_config(&config),
            registry: Registry::new(config.max_threads),
            pool: BlockPool::from_config(&config),
            orphans: OrphanPool::new(),
            config,
        }
    }

    /// The configuration.
    #[inline]
    pub fn config(&self) -> &SmrConfig {
        &self.config
    }

    /// The scan-trigger thresholds.
    #[inline]
    pub fn policy(&self) -> &ScanPolicy {
        &self.policy
    }

    /// The thread registry (frontier collection iterates its active tids).
    #[inline]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Records currently parked in the orphan pool (diagnostics/tests).
    pub fn orphan_count(&self) -> usize {
        self.orphans.len()
    }

    /// Claims registry slot `tid` and builds the thread's pipeline state.
    /// The scheme resets its own reservation slots afterwards.
    pub fn register(&self, tid: usize) -> ReclaimLocal {
        assert!(self.registry.register_tid(tid), "slot {tid} already taken");
        ReclaimLocal {
            tid,
            limbo: LimboBag::with_capacity(self.config.hi_watermark + 1),
            mag: Magazine::from_config(&self.pool, &self.config),
            stats: ThreadStats::default(),
            addrs: Vec::new(),
            lowers: Vec::new(),
            uppers: Vec::new(),
            pace: ScanState::new(),
            retires_since_scan: 0,
            epoch_ticks: 0,
        }
    }

    /// Leaves the registry: whatever the bag still holds moves to the
    /// orphan pool for a survivor's next scan (or this core's `Drop`), and
    /// the magazine returns its blocks. The scheme withdraws its
    /// reservations, runs its last scan and marks its ping slot departed
    /// *before* calling this.
    pub fn unregister(&self, local: &mut ReclaimLocal) {
        self.orphans.adopt(local.limbo.drain());
        local.mag.flush();
        self.registry.deregister(local.tid);
    }

    /// The retire skeleton: stage, count, and — once every
    /// `RETIRE_BATCH_CAP` retires ([`LimboBag::stage`]) — record the bag's
    /// high-water mark and consult the HiWatermark. `true` when that check
    /// found the bag at or over the HiWatermark: the bounded-garbage
    /// backstop, for the scheme to pick its trigger from (at most
    /// `RETIRE_BATCH_CAP - 1` records are retired past a check).
    #[inline]
    pub fn retire(&self, local: &mut ReclaimLocal, retired: Retired) -> bool {
        let check = local.limbo.stage(retired);
        local.stats.retires += 1;
        if !check {
            return false;
        }
        let len = local.limbo.len();
        local.stats.observe_limbo(len);
        if !self.policy.scan_on_retire(len) {
            return false;
        }
        trace::emit(
            local.tid,
            TraceKind::LimboHigh,
            len as u64,
            self.policy.hi_watermark as u64,
        );
        true
    }

    /// The per-retire scan cadence: counts this retire and reports whether
    /// `empty_freq` retires have passed since the thread's last scan.
    #[inline]
    pub fn cadence_due(&self, local: &mut ReclaimLocal) -> bool {
        local.retires_since_scan += 1;
        local.retires_since_scan >= self.config.empty_freq
    }

    /// The era/epoch cadence: `true` on every `epoch_freq`-th call (the
    /// scheme then advances, or tries to advance, its clock).
    #[inline]
    pub fn epoch_tick(&self, local: &mut ReclaimLocal) -> bool {
        local.epoch_ticks += 1;
        if local.epoch_ticks < self.config.epoch_freq {
            return false;
        }
        local.epoch_ticks = 0;
        true
    }

    /// The operation-exit heartbeat: `true` (and counted) once
    /// `scan_heartbeat_ops` operations completed since the last scan while
    /// garbage is pending.
    #[inline]
    pub fn heartbeat_due(&self, local: &mut ReclaimLocal) -> bool {
        let due = local.pace.tick_op(&self.policy, local.limbo.len());
        if due {
            local.stats.heartbeat_scans += 1;
        }
        due
    }

    /// Folds departed threads' orphans into this thread's bag. Every adopted
    /// record keeps its own retire stamp. Non-blocking: a contended pool
    /// yields nothing this round.
    fn adopt(&self, local: &mut ReclaimLocal) {
        let orphaned = self.orphans.take_all();
        if !orphaned.is_empty() {
            local.stats.orphan_adoptions += orphaned.len() as u64;
            trace::emit(local.tid, TraceKind::OrphanAdopt, orphaned.len() as u64, 0);
            for r in orphaned {
                local.limbo.push(r);
            }
        }
    }

    /// The bookkeeping around one sweep of a non-empty bag of `tail`
    /// records (module docs, "The pipeline's rules").
    #[inline]
    fn swept(
        &self,
        local: &mut ReclaimLocal,
        tail: usize,
        sweep: impl FnOnce(&mut ReclaimLocal, usize) -> usize,
    ) -> usize {
        local.stats.reclaim_scans += 1;
        local.note_scan();
        trace::emit(local.tid, TraceKind::ScanBegin, tail as u64, 0);
        let freed = sweep(local, tail);
        if freed == 0 {
            local.stats.reclaim_skips += 1;
        }
        trace::emit(local.tid, TraceKind::ScanEnd, freed as u64, 0);
        freed
    }

    /// One reclamation scan: adopt peer garbage, then — unless the bag is
    /// empty — run `sweep(local, tail)` inside the scan bookkeeping. `tail`
    /// is the bag length *after* adoption; a scheme that pings sweeps only
    /// the prefix `[0, tail)`, everything retired before its ping. `sweep`
    /// returns the number of records it freed (0 for a conceded round).
    #[inline]
    pub fn scan(
        &self,
        local: &mut ReclaimLocal,
        sweep: impl FnOnce(&mut ReclaimLocal, usize) -> usize,
    ) -> usize {
        self.adopt(local);
        let tail = local.limbo.len();
        if tail == 0 {
            return 0;
        }
        self.swept(local, tail, sweep)
    }

    /// The epoch scan DEBRA and QSBR share: while `observed` equals the
    /// thread's local `epoch` nothing happens; once it moves, `epoch`
    /// follows it and a [`ReclaimCore::scan`] frees every record stamped
    /// `e` with `e + 2 <= observed`. Adopted orphans keep their own stamps,
    /// so a stale `observed` can never free a peer's later retire early.
    ///
    /// # Safety
    /// `observed` must be read from a clock whose every advance requires
    /// all threads inside an operation to have announced the current value
    /// (the grace-period argument the caller states).
    #[inline]
    pub unsafe fn epoch_scan(&self, local: &mut ReclaimLocal, epoch: &mut u64, observed: u64) {
        if observed == *epoch {
            return;
        }
        *epoch = observed;
        let frontier = observed.saturating_sub(1);
        self.scan(local, |local, tail| {
            // SAFETY: forwarded from this function's contract: two advances
            // past a record's stamp end every operation that could reach it.
            unsafe { local.sweep_retired_before(tail, frontier) }
        });
    }

    /// One ping round over `ping`: broadcast from this thread, wait
    /// (bounded by `ack_spin_limit`) until every peer acknowledged or is
    /// `exempt`, running `while_waiting` per spin. Counts the signals and,
    /// when a peer stayed silent, a concession. `true` when the round
    /// completed.
    #[inline]
    pub fn ping_round(
        &self,
        local: &mut ReclaimLocal,
        ping: &PingChannel,
        exempt: impl Fn(usize) -> bool,
        while_waiting: impl FnMut(),
    ) -> bool {
        let (seq, sent) = ping.ping_all(local.tid, &self.registry);
        local.stats.signals_sent += sent;
        let acked = ping.await_acks(
            local.tid,
            seq,
            &self.registry,
            self.config.ack_spin_limit,
            exempt,
            while_waiting,
        ) == PingOutcome::AllAcked;
        if !acked {
            local.stats.ping_concessions += 1;
        }
        acked
    }
}

impl Drop for ReclaimCore {
    fn drop(&mut self) {
        // SAFETY: by the `Smr` contract every thread has deregistered before
        // the reclaimer drops, so no reference to an orphaned record
        // remains.
        unsafe { self.orphans.drain_and_free() };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::NodeHeader;
    use crate::recycle::alloc_node_raw;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    struct Node {
        header: NodeHeader,
        drops: Arc<AtomicUsize>,
    }
    crate::impl_smr_node!(Node);
    impl Drop for Node {
        fn drop(&mut self) {
            self.drops.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// The smallest scheme the pipeline supports: a record may be freed once
    /// the test-controlled `frontier` passes its retire stamp.
    struct Toy {
        core: ReclaimCore,
        frontier: AtomicU64,
        drops: Arc<AtomicUsize>,
    }

    impl Toy {
        fn new(core: ReclaimCore) -> Self {
            Self {
                core,
                frontier: AtomicU64::new(0),
                drops: Arc::default(),
            }
        }

        /// Retires one fresh record; `true` at the HiWatermark cue.
        fn retire(&self, local: &mut ReclaimLocal, stamp: u64) -> bool {
            let raw = alloc_node_raw(Node {
                header: NodeHeader::new(),
                drops: Arc::clone(&self.drops),
            });
            // SAFETY: freshly allocated, never published, retired once.
            self.core.retire(local, unsafe { Retired::new(raw, stamp) })
        }

        /// Scans; returns `(freed, tail the sweep was handed)`.
        fn scan(&self, local: &mut ReclaimLocal) -> (usize, usize) {
            let frontier = self.frontier.load(Ordering::SeqCst);
            let mut seen = 0;
            let freed = self.core.scan(local, |local, tail| {
                seen = tail;
                // SAFETY: test-local records nothing else references.
                unsafe { local.sweep_retired_before(tail, frontier) }
            });
            (freed, seen)
        }

        fn drops(&self) -> usize {
            self.drops.load(Ordering::SeqCst)
        }
    }

    fn config() -> SmrConfig {
        SmrConfig::for_tests().with_scan_heartbeat_ops(4)
    }

    #[test]
    fn orphans_are_adopted_exactly_once() {
        let toy = Toy::new(ReclaimCore::new(config()));
        let mut departing: ReclaimLocal = toy.core.register(0);
        let mut survivor: ReclaimLocal = toy.core.register(1);
        let mut bystander: ReclaimLocal = toy.core.register(2);
        for _ in 0..5 {
            toy.retire(&mut departing, 1);
        }
        toy.core.unregister(&mut departing);
        assert_eq!(toy.core.orphan_count(), 5);

        toy.frontier.store(10, Ordering::SeqCst);
        assert_eq!(toy.scan(&mut survivor), (5, 5));
        assert_eq!(survivor.stats.orphan_adoptions, 5);
        assert_eq!(toy.core.orphan_count(), 0);
        assert_eq!(toy.drops(), 5, "each orphan freed once");

        // Nobody can adopt (or free) them a second time.
        assert_eq!(toy.scan(&mut survivor), (0, 0));
        assert_eq!(toy.scan(&mut bystander), (0, 0));
        assert_eq!(bystander.stats.orphan_adoptions, 0);
        assert_eq!(toy.drops(), 5);
        toy.core.unregister(&mut survivor);
        toy.core.unregister(&mut bystander);
    }

    #[test]
    fn epoch_scan_frees_each_record_two_epochs_past_its_own_stamp() {
        let toy = Toy::new(ReclaimCore::new(config()));
        let mut departing: ReclaimLocal = toy.core.register(0);
        let mut local: ReclaimLocal = toy.core.register(1);
        let mut epoch = 3;
        // A thread's own retire stamped 3 survives epoch 4 and is freed at 5.
        // SAFETY (every `epoch_scan` below): test-local records nothing else
        // references.
        toy.retire(&mut local, 3);
        unsafe { toy.core.epoch_scan(&mut local, &mut epoch, 3) };
        assert_eq!(local.stats.reclaim_scans, 0, "same epoch: fast path");
        unsafe { toy.core.epoch_scan(&mut local, &mut epoch, 4) };
        assert_eq!((toy.drops(), local.limbo.len(), epoch), (0, 1, 4));
        unsafe { toy.core.epoch_scan(&mut local, &mut epoch, 5) };
        assert_eq!((toy.drops(), local.limbo.len()), (1, 0));

        // An orphan stamped 7 reaches a thread that observed a stale 6: it
        // is adopted at once, survives 6, 7 and 8, and is freed at 9.
        toy.retire(&mut departing, 7);
        toy.core.unregister(&mut departing);
        for observed in 6..=8 {
            unsafe { toy.core.epoch_scan(&mut local, &mut epoch, observed) };
            assert_eq!(toy.drops(), 1, "orphan freed early at epoch {observed}");
        }
        assert_eq!((local.stats.orphan_adoptions, local.limbo.len()), (1, 1));
        unsafe { toy.core.epoch_scan(&mut local, &mut epoch, 9) };
        assert_eq!((toy.drops(), local.limbo.len()), (2, 0));
        toy.core.unregister(&mut local);
    }

    #[test]
    fn orphans_are_adopted_before_the_tail_is_captured() {
        let toy = Toy::new(ReclaimCore::new(config()));
        let mut scanner: ReclaimLocal = toy.core.register(0);
        let mut departing: ReclaimLocal = toy.core.register(1);
        toy.retire(&mut scanner, 1);
        toy.retire(&mut scanner, 1);
        for _ in 0..3 {
            toy.retire(&mut departing, 1);
        }
        toy.core.unregister(&mut departing);

        toy.frontier.store(10, Ordering::SeqCst);
        let (freed, tail) = toy.scan(&mut scanner);
        assert_eq!(tail, 5, "the sweep's prefix covers the adopted orphans");
        assert_eq!(freed, 5);
        assert_eq!(scanner.stats.orphan_adoptions, 3);
        assert_eq!(toy.drops(), 5);
        toy.core.unregister(&mut scanner);
    }

    #[test]
    fn staged_retires_survive_unregister_into_the_orphan_pool() {
        let toy = Toy::new(ReclaimCore::new(config()));
        let mut local: ReclaimLocal = toy.core.register(0);
        for _ in 0..3 {
            assert!(!toy.retire(&mut local, 1));
        }
        assert_eq!(local.limbo.len(), 3);
        toy.core.unregister(&mut local);
        assert_eq!(toy.core.orphan_count(), 3);
        assert_eq!(toy.drops(), 0);
        drop(toy.core);
        assert_eq!(
            toy.drops.load(Ordering::SeqCst),
            3,
            "the core's Drop frees them"
        );
    }

    #[test]
    fn limbo_len_counts_staged_and_flushed() {
        let toy = Toy::new(ReclaimCore::new(config()));
        let mut local: ReclaimLocal = toy.core.register(0);
        let cap = crate::RETIRE_BATCH_CAP;
        for i in 1..=cap + 3 {
            assert!(!toy.retire(&mut local, 1), "below the HiWatermark");
            assert_eq!(local.limbo.len(), i);
        }
        assert_eq!(local.stats.retires, (cap + 3) as u64);
        assert_eq!(
            local.stats.peak_limbo, cap as u64,
            "observed per batch only"
        );
        toy.core.unregister(&mut local);
    }

    #[test]
    fn watermark_cue_fires_on_the_flush_that_reaches_it() {
        let toy = Toy::new(ReclaimCore::new(config()));
        let hi = toy.core.config().hi_watermark;
        let mut local: ReclaimLocal = toy.core.register(0);
        for i in 1..=hi {
            assert_eq!(toy.retire(&mut local, 1), i == hi, "retire {i}");
        }
        toy.core.unregister(&mut local);
    }

    #[test]
    fn heartbeat_fires_at_scan_heartbeat_ops() {
        let toy = Toy::new(ReclaimCore::new(config()));
        let mut local: ReclaimLocal = toy.core.register(0);
        for _ in 0..10 {
            assert!(!toy.core.heartbeat_due(&mut local), "empty bag");
        }
        toy.retire(&mut local, 5);
        // The elapsed window applies as soon as garbage appears…
        assert!(toy.core.heartbeat_due(&mut local));
        assert_eq!(local.stats.heartbeat_scans, 1);
        // …and every scan that enters its sweep restarts it.
        assert_eq!(toy.scan(&mut local), (0, 1));
        for _ in 0..3 {
            assert!(!toy.core.heartbeat_due(&mut local));
        }
        assert!(toy.core.heartbeat_due(&mut local), "4th op since the scan");
        assert_eq!(local.stats.heartbeat_scans, 2);
        toy.core.unregister(&mut local);
    }

    #[test]
    fn scan_bookkeeping_follows_the_pipeline_rules() {
        let toy = Toy::new(ReclaimCore::new(config()));
        let mut local: ReclaimLocal = toy.core.register(0);
        // Empty bag: not a scan.
        assert_eq!(toy.scan(&mut local), (0, 0));
        assert_eq!(
            (local.stats.reclaim_scans, local.stats.reclaim_skips),
            (0, 0)
        );
        // Fully protected bag: a scan and a skip.
        toy.retire(&mut local, 5);
        assert_eq!(toy.scan(&mut local), (0, 1));
        assert_eq!(
            (local.stats.reclaim_scans, local.stats.reclaim_skips),
            (1, 1)
        );
        // Frontier passes: a scan, no skip.
        toy.frontier.store(6, Ordering::SeqCst);
        assert_eq!(toy.scan(&mut local), (1, 1));
        assert_eq!(
            (local.stats.reclaim_scans, local.stats.reclaim_skips),
            (2, 1)
        );
        assert_eq!(local.stats.frees, 1);
        // The per-retire cadence restarts with every scan.
        let freq = toy.core.config().empty_freq;
        for i in 1..=freq {
            assert_eq!(toy.core.cadence_due(&mut local), i == freq);
        }
        toy.scan(&mut local);
        assert!(
            toy.core.cadence_due(&mut local),
            "empty bag: no scan, no restart"
        );
        toy.retire(&mut local, 1);
        toy.scan(&mut local);
        assert!(!toy.core.cadence_due(&mut local));
        toy.core.unregister(&mut local);
    }
}
