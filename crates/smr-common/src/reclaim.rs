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
//! [`BlockPool`], [`OrphanPool`], [`ScanCombiner`]); [`ReclaimLocal`] is the
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
//! * A successful combiner hand-off is a scan from the publisher's point of
//!   view: its bag is empty, so its pacing windows restart. (NBR alone still
//!   opts out — see [`ReclaimCore::scan_or_publish`].)

use crate::atomic::Shared;
use crate::combine::ScanCombiner;
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

/// What the pipeline needs from a thread's limbo storage: one [`LimboBag`]
/// for eleven schemes, the three-epoch [`EpochBags`] rotation for DEBRA and
/// QSBR.
pub trait Limbo {
    /// Empty storage sized and batched per `config`.
    fn with_config(config: &SmrConfig) -> Self;
    /// Records held, staged ones included.
    fn len(&self) -> usize;
    /// True when nothing is held.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Stages one retire; `true` when the batch flushed
    /// ([`LimboBag::stage`]).
    fn stage(&mut self, retired: Retired) -> bool;
    /// Appends an adopted record behind everything retired so far.
    fn push(&mut self, retired: Retired);
    /// Removes every record without freeing it.
    fn drain(&mut self) -> Vec<Retired>;
}

impl Limbo for LimboBag {
    fn with_config(config: &SmrConfig) -> Self {
        LimboBag::with_capacity_and_batch(config.hi_watermark + 1, config.retire_batch_cap())
    }
    #[inline]
    fn len(&self) -> usize {
        LimboBag::len(self)
    }
    #[inline]
    fn stage(&mut self, retired: Retired) -> bool {
        LimboBag::stage(self, retired)
    }
    #[inline]
    fn push(&mut self, retired: Retired) {
        LimboBag::push(self, retired)
    }
    fn drain(&mut self) -> Vec<Retired> {
        LimboBag::drain(self)
    }
}

/// Epoch bags per thread: a record retired in epoch `e` is freed once the
/// thread observes epoch `e + 2`, so three bags cover every live epoch.
const EPOCH_BAGS: usize = 3;

/// The three-epoch bag rotation DEBRA and QSBR share: records retired while
/// the thread's local epoch is `e` go into bag `e % 3`; observing a newer
/// epoch frees every bag at least two epochs old and retargets the current
/// bag ([`ReclaimCore::epoch_scan`]).
#[derive(Debug)]
pub struct EpochBags {
    bags: [LimboBag; EPOCH_BAGS],
    bag_epochs: [u64; EPOCH_BAGS],
    epoch: u64,
}

impl EpochBags {
    /// The local epoch: the one the current bag collects for.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Starts the rotation at `epoch` (registration: all bags are empty).
    pub fn start_at(&mut self, epoch: u64) {
        debug_assert_eq!(self.len(), 0);
        self.epoch = epoch;
        self.bag_epochs = [epoch; EPOCH_BAGS];
    }

    /// Records held across all three bags, staged ones included.
    #[inline]
    pub fn len(&self) -> usize {
        self.bags.iter().map(LimboBag::len).sum()
    }

    /// True when all three bags are empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn current(&mut self) -> &mut LimboBag {
        &mut self.bags[(self.epoch as usize) % EPOCH_BAGS]
    }

    /// Moves the local epoch to `observed`, freeing every bag whose epoch is
    /// at least two behind and pointing the current bag at the new epoch.
    ///
    /// # Safety
    /// Two advances of the clock `observed` was read from must imply that no
    /// thread can still reference a record retired before them.
    unsafe fn rotate(
        &mut self,
        observed: u64,
        stats: &mut ThreadStats,
        mag: &mut Magazine,
    ) -> usize {
        self.epoch = observed;
        let mut freed = 0;
        for (bag, &epoch) in self.bags.iter_mut().zip(&self.bag_epochs) {
            if !bag.is_empty() && epoch + 2 <= observed {
                freed += bag.reclaim_all(stats, mag);
            }
        }
        // The slot for the new epoch is either empty or was just reclaimed
        // above (it last held epoch `observed - 3k`).
        let idx = (observed as usize) % EPOCH_BAGS;
        if self.bags[idx].is_empty() {
            self.bag_epochs[idx] = observed;
        }
        freed
    }
}

impl Limbo for EpochBags {
    fn with_config(config: &SmrConfig) -> Self {
        Self {
            bags: std::array::from_fn(|_| LimboBag::with_batch(config.retire_batch_cap())),
            bag_epochs: [0; EPOCH_BAGS],
            epoch: 0,
        }
    }
    #[inline]
    fn len(&self) -> usize {
        EpochBags::len(self)
    }
    #[inline]
    fn stage(&mut self, retired: Retired) -> bool {
        self.current().stage(retired)
    }
    #[inline]
    fn push(&mut self, retired: Retired) {
        self.current().push(retired)
    }
    fn drain(&mut self) -> Vec<Retired> {
        self.bags.iter_mut().flat_map(LimboBag::drain).collect()
    }
}

/// The calling thread's turn as its combining domain's active scanner
/// ([`ReclaimCore::scan_or_publish`]); the turn ends when this drops.
#[must_use = "the scan turn ends when this guard drops"]
pub struct ScanTurn<'a>(Option<&'a ScanCombiner>);

impl Drop for ScanTurn<'_> {
    fn drop(&mut self) {
        if let Some(combiner) = self.0 {
            combiner.finish();
        }
    }
}

/// The per-thread half of the pipeline; lives in every scheme's thread
/// context. No synchronization involved.
pub struct ReclaimLocal<B = LimboBag> {
    tid: usize,
    /// The thread's retired-but-unfreed records.
    pub limbo: B,
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

impl<B: Limbo> ReclaimLocal<B> {
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
}

impl ReclaimLocal<LimboBag> {
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
    /// `Some` for a ping/era domain built with [`ReclaimCore::combining`]
    /// while `SmrConfig::combine` is on.
    combiner: Option<ScanCombiner>,
}

impl ReclaimCore {
    /// The pipeline for a scheme whose watermark scans always run directly.
    pub fn new(config: SmrConfig) -> Self {
        Self::build(config, None)
    }

    /// The pipeline for a scheme whose watermark scans pay a handshake
    /// round (NBR, NBR+, EpochPOP, HP-POP, WFE): with `SmrConfig::combine`
    /// on, a trigger that finds a peer's scan mid-flight hands its bag over
    /// instead of stacking a second round
    /// ([`ReclaimCore::scan_or_publish`]).
    pub fn combining(config: SmrConfig) -> Self {
        let combiner = config
            .combine
            .then(|| ScanCombiner::new(config.max_threads));
        Self::build(config, combiner)
    }

    fn build(config: SmrConfig, combiner: Option<ScanCombiner>) -> Self {
        config.validate();
        Self {
            policy: ScanPolicy::from_config(&config),
            registry: Registry::new(config.max_threads),
            pool: BlockPool::from_config(&config),
            orphans: OrphanPool::new(),
            combiner,
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
    pub fn register<B: Limbo>(&self, tid: usize) -> ReclaimLocal<B> {
        assert!(self.registry.register_tid(tid), "slot {tid} already taken");
        ReclaimLocal {
            tid,
            limbo: B::with_config(&self.config),
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

    /// Leaves the registry: whatever the bag still holds — staged records
    /// included — moves to the orphan pool for a survivor's next scan (or
    /// this core's `Drop`), and the magazine returns its blocks. The scheme
    /// withdraws its reservations, runs its last scan and marks its ping
    /// slot departed *before* calling this.
    pub fn unregister<B: Limbo>(&self, local: &mut ReclaimLocal<B>) {
        self.orphans.adopt(local.limbo.drain());
        local.mag.flush();
        self.registry.deregister(local.tid);
    }

    /// The retire skeleton: stage, count, and — only when the batch flushes
    /// — record the bag's high-water mark and consult the HiWatermark.
    /// `true` when that flush left the bag at or over the HiWatermark: the
    /// bounded-garbage backstop, for the scheme to pick its trigger from (at
    /// most `RETIRE_BATCH_CAP - 1` records can sit staged past this check).
    #[inline]
    pub fn retire<B: Limbo>(&self, local: &mut ReclaimLocal<B>, retired: Retired) -> bool {
        let flushed = local.limbo.stage(retired);
        local.stats.retires += 1;
        if !flushed {
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
    pub fn cadence_due<B>(&self, local: &mut ReclaimLocal<B>) -> bool {
        local.retires_since_scan += 1;
        local.retires_since_scan >= self.config.empty_freq
    }

    /// The era/epoch cadence: `true` on every `epoch_freq`-th call (the
    /// scheme then advances, or tries to advance, its clock).
    #[inline]
    pub fn epoch_tick<B>(&self, local: &mut ReclaimLocal<B>) -> bool {
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
    pub fn heartbeat_due<B: Limbo>(&self, local: &mut ReclaimLocal<B>) -> bool {
        let due = local.pace.tick_op(&self.policy, local.limbo.len());
        if due {
            local.stats.heartbeat_scans += 1;
        }
        due
    }

    /// Folds peer garbage into this thread's bag: bags published to the
    /// combiner, then departed threads' orphans retired at or before
    /// `retired_by` (later ones go back to the pool). Both sources are
    /// non-blocking; a contended pool yields nothing this round.
    fn adopt<B: Limbo>(&self, local: &mut ReclaimLocal<B>, retired_by: u64) {
        if let Some(combiner) = &self.combiner {
            let (published, bags) = combiner.adopt();
            if bags > 0 {
                local.stats.combine_adoptions += bags;
                trace::emit(
                    local.tid,
                    TraceKind::CombineAdopt,
                    published.len() as u64,
                    bags,
                );
            }
            for r in published {
                local.limbo.push(r);
            }
        }
        let (orphaned, later): (Vec<_>, Vec<_>) = self
            .orphans
            .take_all()
            .into_iter()
            .partition(|r| r.retire_era() <= retired_by);
        self.orphans.adopt(later);
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
    fn swept<B: Limbo>(
        &self,
        local: &mut ReclaimLocal<B>,
        tail: usize,
        sweep: impl FnOnce(&mut ReclaimLocal<B>, usize) -> usize,
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
    pub fn scan<B: Limbo>(
        &self,
        local: &mut ReclaimLocal<B>,
        sweep: impl FnOnce(&mut ReclaimLocal<B>, usize) -> usize,
    ) -> usize {
        self.adopt(local, u64::MAX);
        let tail = local.limbo.len();
        if tail == 0 {
            return 0;
        }
        self.swept(local, tail, sweep)
    }

    /// The epoch-bag scan: when `observed` differs from the thread's local
    /// epoch, free every bag two epochs old, retarget the current bag and
    /// adopt peer garbage into it — *after* the rotation, so adopted
    /// records wait two further advances like any fresh retire. Only
    /// orphans stamped at or before `observed` are adopted: `observed` may
    /// have been read before this thread was delayed, and a peer that
    /// departed meanwhile may have retired records at a later epoch, which
    /// a bag labelled `observed` would free too early.
    ///
    /// # Safety
    /// `observed` must be read from a clock whose every advance requires
    /// all threads inside an operation to have announced the current value
    /// (the grace-period argument the caller states).
    #[inline]
    pub unsafe fn epoch_scan(&self, local: &mut ReclaimLocal<EpochBags>, observed: u64) {
        if observed != local.limbo.epoch {
            // SAFETY: forwarded from this function's contract.
            unsafe { self.epoch_scan_slow(local, observed) }
        }
    }

    /// [`ReclaimCore::epoch_scan`] past its same-epoch fast path.
    unsafe fn epoch_scan_slow(&self, local: &mut ReclaimLocal<EpochBags>, observed: u64) {
        let rotate = move |local: &mut ReclaimLocal<EpochBags>, _tail: usize| {
            // SAFETY: forwarded from `epoch_scan`'s contract.
            unsafe {
                local
                    .limbo
                    .rotate(observed, &mut local.stats, &mut local.mag)
            }
        };
        let tail = local.limbo.len();
        if tail == 0 {
            rotate(local, 0);
        } else {
            self.swept(local, tail, rotate);
        }
        self.adopt(local, observed);
    }

    /// One ping round over `ping`: broadcast from this thread, wait
    /// (bounded by `ack_spin_limit`) until every peer acknowledged or is
    /// `exempt`, running `while_waiting` per spin. Counts the signals and,
    /// when a peer stayed silent, a concession. `true` when the round
    /// completed.
    #[inline]
    pub fn ping_round<B>(
        &self,
        local: &mut ReclaimLocal<B>,
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

    /// Watermark-triggered entry for a [`ReclaimCore::combining`] scheme.
    /// `Some(turn)`: no peer's scan is mid-flight (or combining is off) —
    /// run the scan now and drop the turn afterwards. `None`: a peer is
    /// scanning; this thread's bag was published for that scanner (or the
    /// next) to adopt, leaving it empty — or, when the slot still held an
    /// unadopted bag, kept for the next trigger. Heartbeat, `flush` and
    /// `unregister` scans stay direct: local progress must never depend on
    /// a peer.
    ///
    /// `restart_pacing`: whether a successful hand-off restarts the
    /// publisher's pacing windows (module docs, last rule). Every scheme
    /// passes `true`; NBR passes `false` until its half of the rule is
    /// signed off (`nbr.rs`, `Smr::retire`).
    pub fn scan_or_publish<B: Limbo>(
        &self,
        local: &mut ReclaimLocal<B>,
        restart_pacing: bool,
    ) -> Option<ScanTurn<'_>> {
        let Some(combiner) = &self.combiner else {
            return Some(ScanTurn(None));
        };
        if combiner.try_begin() {
            return Some(ScanTurn(Some(combiner)));
        }
        let records = local.limbo.drain();
        let published = records.len() as u64;
        match combiner.publish(local.tid, records) {
            Ok(()) => {
                local.stats.combine_publishes += 1;
                trace::emit(local.tid, TraceKind::CombinePublish, published, 0);
                if restart_pacing {
                    local.note_scan();
                }
            }
            Err(records) => {
                for r in records {
                    local.limbo.push(r);
                }
            }
        }
        None
    }
}

impl Drop for ReclaimCore {
    fn drop(&mut self) {
        // SAFETY: by the `Smr` contract every thread has deregistered before
        // the reclaimer drops, so no reference to an orphaned record
        // remains (the combiner drains its own unadopted bags the same way).
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
    fn epoch_scan_adopts_only_orphans_its_epoch_covers() {
        let toy = Toy::new(ReclaimCore::new(config()));
        let mut departing: ReclaimLocal<EpochBags> = toy.core.register(0);
        let mut survivor: ReclaimLocal<EpochBags> = toy.core.register(1);
        departing.limbo.start_at(7);
        survivor.limbo.start_at(5);
        let raw = alloc_node_raw(Node {
            header: NodeHeader::new(),
            drops: Arc::clone(&toy.drops),
        });
        // SAFETY: freshly allocated, never published, retired once.
        toy.core
            .retire(&mut departing, unsafe { Retired::new(raw, 7) });
        toy.core.unregister(&mut departing);
        assert_eq!(toy.core.orphan_count(), 1);

        // A stale epoch (read before the peer retired at 7) adopts nothing.
        // SAFETY (all three scans): test-local record nothing references.
        unsafe { toy.core.epoch_scan(&mut survivor, 6) };
        assert_eq!((toy.core.orphan_count(), survivor.limbo.len()), (1, 0));
        unsafe { toy.core.epoch_scan(&mut survivor, 7) };
        assert_eq!((toy.core.orphan_count(), survivor.limbo.len()), (0, 1));
        // Freed two advances after its retire epoch, not before.
        unsafe { toy.core.epoch_scan(&mut survivor, 8) };
        assert_eq!(toy.drops(), 0);
        unsafe { toy.core.epoch_scan(&mut survivor, 9) };
        assert_eq!(toy.drops(), 1);
        toy.core.unregister(&mut survivor);
    }

    #[test]
    fn combiner_bags_are_adopted_before_the_tail_is_captured() {
        let toy = Toy::new(ReclaimCore::combining(config()));
        let mut scanner: ReclaimLocal = toy.core.register(0);
        let mut publisher: ReclaimLocal = toy.core.register(1);
        toy.retire(&mut scanner, 1);
        toy.retire(&mut scanner, 1);
        for _ in 0..3 {
            toy.retire(&mut publisher, 1);
        }
        let turn = toy.core.scan_or_publish(&mut scanner, true);
        assert!(turn.is_some(), "an idle domain hands out the turn");
        // The peer's trigger fires mid-scan: its bag is handed over, and the
        // hand-off restarts its pacing like a scan of its own would.
        let elapsed = (0..10).any(|_| toy.core.heartbeat_due(&mut publisher));
        assert!(elapsed, "the publisher's heartbeat window has run out");
        assert!(toy.core.scan_or_publish(&mut publisher, true).is_none());
        assert_eq!(publisher.limbo.len(), 0);
        assert_eq!(publisher.stats.combine_publishes, 1);
        toy.retire(&mut publisher, 1);
        assert!(!toy.core.heartbeat_due(&mut publisher), "window restarted");

        toy.frontier.store(10, Ordering::SeqCst);
        let (freed, tail) = toy.scan(&mut scanner);
        assert_eq!(tail, 5, "the sweep's prefix covers the adopted bag");
        assert_eq!(freed, 5);
        assert_eq!(scanner.stats.combine_adoptions, 1);
        drop(turn);
        assert!(
            toy.core.scan_or_publish(&mut publisher, true).is_some(),
            "dropping the turn frees the domain"
        );
        toy.core.unregister(&mut scanner);
        toy.core.unregister(&mut publisher);
    }

    #[test]
    fn staged_retires_survive_unregister_into_the_orphan_pool() {
        let toy = Toy::new(ReclaimCore::new(config()));
        let mut local: ReclaimLocal = toy.core.register(0);
        for _ in 0..3 {
            assert!(!toy.retire(&mut local, 1));
        }
        assert_eq!(local.limbo.staged_len(), 3);
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
            toy.retire(&mut local, 1);
            assert_eq!(local.limbo.staged_len(), i % cap, "flush at the boundary");
            assert_eq!(local.limbo.len(), i);
        }
        assert_eq!(local.limbo.staged_len(), 3);
        assert_eq!(local.stats.retires, (cap + 3) as u64);
        assert_eq!(local.stats.peak_limbo, cap as u64, "observed on flush only");
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

    #[test]
    fn epoch_bags_free_at_two_advances_and_adopt_after_rotating() {
        let toy = Toy::new(ReclaimCore::new(config()));
        let mut departing: ReclaimLocal<EpochBags> = toy.core.register(0);
        let mut local: ReclaimLocal<EpochBags> = toy.core.register(1);
        departing.limbo.start_at(7);
        local.limbo.start_at(1);
        let retire = |local: &mut ReclaimLocal<EpochBags>| {
            let raw = alloc_node_raw(Node {
                header: NodeHeader::new(),
                drops: Arc::clone(&toy.drops),
            });
            let stamp = local.limbo.epoch();
            // SAFETY: freshly allocated, never published, retired once.
            toy.core.retire(local, unsafe { Retired::new(raw, stamp) });
        };
        retire(&mut local);
        // SAFETY (all `epoch_scan`s below): single-threaded test.
        unsafe { toy.core.epoch_scan(&mut local, 1) };
        assert_eq!(local.stats.reclaim_scans, 0, "same epoch: fast path");
        unsafe { toy.core.epoch_scan(&mut local, 2) };
        assert_eq!((toy.drops(), local.stats.reclaim_skips), (0, 1));
        retire(&mut local);
        unsafe { toy.core.epoch_scan(&mut local, 3) };
        assert_eq!((toy.drops(), local.limbo.len()), (1, 1));
        assert_eq!(local.stats.reclaim_scans, 2);

        // An orphan retired at epoch 7 reaches a thread still at epoch 3:
        // adopted only after the rotation to 8, it waits for epoch 10.
        retire(&mut departing);
        toy.core.unregister(&mut departing);
        unsafe { toy.core.epoch_scan(&mut local, 8) };
        assert_eq!(local.stats.orphan_adoptions, 1);
        assert_eq!((toy.drops(), local.limbo.len()), (2, 1));
        unsafe { toy.core.epoch_scan(&mut local, 9) };
        assert_eq!(toy.drops(), 2);
        unsafe { toy.core.epoch_scan(&mut local, 10) };
        assert_eq!((toy.drops(), local.limbo.len()), (3, 0));
        toy.core.unregister(&mut local);
    }
}
