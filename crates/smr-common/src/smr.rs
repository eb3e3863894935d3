//! The [`Smr`] trait — the single interface every reclaimer implements and
//! every data structure is instrumented against.
//!
//! The hook set is the union of what the reclaimers compared in the paper
//! need (Section 2's taxonomy):
//!
//! | family | hooks used |
//! |---|---|
//! | EBR family (DEBRA, QSBR, RCU) | `begin_op` / `end_op`, `retire` |
//! | interval family (IBR 2GEIBR, HE) | `begin_op`/`end_op`, `protect`, `retire`, birth eras |
//! | hazard pointers | `protect` / `clear_protections`, `retire` |
//! | **NBR / NBR+** | `begin_read_phase` / `checkpoint` / `end_read_phase`, `retire` |
//! | leaky (none) | nothing |
//!
//! Hooks a reclaimer does not need default to inlined no-ops, so the same
//! data-structure source compiles down to per-reclaimer specialized code via
//! monomorphization (no virtual dispatch in the hot loop).

use crate::atomic::{Atomic, Shared};
use crate::header::SmrNode;
use crate::recycle::{self, Magazine};
use crate::stats::ThreadStats;
use std::sync::atomic::Ordering;

/// Tuning knobs shared by all reclaimers.
///
/// Defaults are scaled for the small CI machines this reproduction runs on;
/// the paper's original values are noted per field.
#[derive(Debug, Clone)]
pub struct SmrConfig {
    /// Maximum number of concurrently registered threads (`N` in Algorithm 1).
    pub max_threads: usize,
    /// Per-thread protection slots (NBR reservations, HP/HE/WFE/HP-POP
    /// hazards), `R` in Algorithm 1; at most
    /// [`SLOTS_PER_THREAD`](crate::SLOTS_PER_THREAD). The paper observes at
    /// most 3 reservations for its data structures; the (a,b)-tree
    /// substitute needs up to 4 (parent, leaf, sibling, spare).
    pub max_reservations: usize,
    /// Limbo-bag HiWatermark (`S`): retire triggers a reclamation scan once the
    /// bag reaches this size. Paper: 32 768; scaled default: 1 024.
    pub hi_watermark: usize,
    /// NBR+ LoWatermark: once the bag reaches this size the thread starts
    /// watching for relaxed grace periods. Paper: half/quarter of Hi.
    pub lo_watermark: usize,
    /// EBR/IBR: operations between epoch-advance attempts.
    pub epoch_freq: usize,
    /// EBR/IBR: retires between empty (reclaim) attempts.
    pub empty_freq: usize,
    /// Cooperative neutralization: bounded number of spin iterations a
    /// reclaimer waits for acknowledgements before conceding the round
    /// (substitution S1 in DESIGN.md).
    pub ack_spin_limit: usize,
    /// Simulated cost of delivering one neutralization signal, in nanoseconds.
    /// Models the user↔kernel transition of a real POSIX signal so the
    /// NBR-vs-NBR+ signal-count trade-off remains measurable. 0 disables it.
    pub signal_cost_ns: u64,
    /// Operation-exit heartbeat: a thread holding any unreclaimed garbage
    /// runs one reclamation scan every this many completed operations, so
    /// short-lived threads return memory even when they never reach the
    /// HiWatermark (see [`ScanPolicy`](crate::ScanPolicy)). 0 disables the
    /// heartbeat (restoring the paper's fixed-watermark behaviour).
    pub scan_heartbeat_ops: usize,
    /// Recycle reclaimed node blocks through the thread-local magazines +
    /// shared depot of [`recycle`](crate::recycle) instead of returning them
    /// to the global allocator (`false` restores plain global-allocator
    /// behaviour).
    pub recycle: bool,
    /// Maximum free blocks a thread's magazine holds per size class before
    /// spilling half to the shared depot (which itself holds up to
    /// `magazine_cap × max_threads + 2 × hi_watermark` blocks per class —
    /// steady-state circulation plus one full reclamation burst).
    pub magazine_cap: usize,
    /// Epoch-stamped lookup memo: lets the `ds` crate cache Zipf-hot lookup
    /// results keyed by [`Smr::validation_stamp`]. Schemes whose clock
    /// cannot validate a cached pointer (see that method) ignore this flag
    /// and keep returning `None`.
    pub memo: bool,
}

impl Default for SmrConfig {
    fn default() -> Self {
        Self {
            max_threads: 64,
            max_reservations: 8,
            hi_watermark: 1024,
            lo_watermark: 256,
            epoch_freq: 32,
            empty_freq: 64,
            ack_spin_limit: 4096,
            signal_cost_ns: 0,
            scan_heartbeat_ops: 1024,
            recycle: true,
            magazine_cap: 128,
            memo: true,
        }
    }
}

impl SmrConfig {
    /// Config sized for unit tests: tiny bags so reclamation paths are hit
    /// constantly.
    pub fn for_tests() -> Self {
        Self {
            max_threads: 16,
            max_reservations: 4,
            hi_watermark: 32,
            lo_watermark: 8,
            epoch_freq: 4,
            empty_freq: 8,
            ack_spin_limit: 1 << 14,
            signal_cost_ns: 0,
            scan_heartbeat_ops: 64,
            recycle: true,
            magazine_cap: 8,
            memo: true,
        }
    }

    /// Builder-style setter for [`SmrConfig::max_threads`].
    pub fn with_max_threads(mut self, n: usize) -> Self {
        self.max_threads = n;
        self
    }

    /// Builder-style setter for the Hi/Lo watermarks.
    pub fn with_watermarks(mut self, hi: usize, lo: usize) -> Self {
        assert!(lo <= hi, "LoWatermark must not exceed HiWatermark");
        self.hi_watermark = hi;
        self.lo_watermark = lo;
        self
    }

    /// Builder-style setter for [`SmrConfig::max_reservations`].
    pub fn with_max_reservations(mut self, r: usize) -> Self {
        self.max_reservations = r;
        self
    }

    /// Builder-style setter for [`SmrConfig::signal_cost_ns`].
    pub fn with_signal_cost_ns(mut self, ns: u64) -> Self {
        self.signal_cost_ns = ns;
        self
    }

    /// Builder-style setter for [`SmrConfig::scan_heartbeat_ops`]
    /// (0 disables the operation-exit heartbeat).
    pub fn with_scan_heartbeat_ops(mut self, ops: usize) -> Self {
        self.scan_heartbeat_ops = ops;
        self
    }

    /// Builder-style setter for [`SmrConfig::recycle`] (false bypasses the
    /// block pool entirely, restoring plain global-allocator behaviour).
    pub fn with_recycle(mut self, recycle: bool) -> Self {
        self.recycle = recycle;
        self
    }

    /// Builder-style setter for [`SmrConfig::magazine_cap`].
    pub fn with_magazine_cap(mut self, cap: usize) -> Self {
        assert!(cap > 0, "magazine capacity must be positive");
        self.magazine_cap = cap;
        self
    }

    /// Builder-style setter for the EBR/IBR frequencies.
    pub fn with_epoch_freqs(mut self, epoch_freq: usize, empty_freq: usize) -> Self {
        self.epoch_freq = epoch_freq.max(1);
        self.empty_freq = empty_freq.max(1);
        self
    }

    /// Builder-style setter for [`SmrConfig::memo`].
    pub fn with_memo(mut self, memo: bool) -> Self {
        self.memo = memo;
        self
    }

    /// Retires per watermark check
    /// ([`LimboBag::with_capacity_and_batch`](crate::LimboBag::with_capacity_and_batch)):
    /// always [`RETIRE_BATCH_CAP`](crate::limbo::RETIRE_BATCH_CAP).
    pub fn retire_batch_cap(&self) -> usize {
        crate::limbo::RETIRE_BATCH_CAP
    }

    /// Validates internal consistency (used by constructors).
    pub fn validate(&self) {
        assert!(self.max_threads > 0);
        assert!(self.magazine_cap > 0, "magazine capacity must be positive");
        assert!(self.lo_watermark <= self.hi_watermark);
        assert!(
            self.max_reservations <= crate::SLOTS_PER_THREAD,
            "max_reservations {} exceeds the {} protection slots a thread's SlotBlock row holds",
            self.max_reservations,
            crate::SLOTS_PER_THREAD
        );
        assert!(
            self.max_reservations * self.max_threads
                < self.hi_watermark.max(1) * self.max_threads.max(1) + self.hi_watermark,
            "total reservations must be smaller than limbo capacity (Section 4.4)"
        );
    }
}

/// A safe-memory-reclamation algorithm.
///
/// # Integration contract (mirrors Section 4.1 of the paper)
///
/// A data-structure operation instrumented for this trait has the shape:
///
/// ```text
/// begin_op();
/// 'restart: loop {
///     begin_read_phase();                 // Φ_read begins (NBR checkpoint 0)
///     …traverse, calling protect()/checkpoint() per pointer hop…
///     if checkpoint() { continue 'restart }   // neutralized → restart from root
///     end_read_phase(&[r1, r2, …]);       // reserve records for Φ_write
///     …Φ_write: lock/validate/CAS only the reserved records…
///     retire(unlinked);                   // for every unlinked record
///     break;
/// }
/// clear_protections();
/// end_op();
/// ```
///
/// # Safety
/// Implementations promise that [`Smr::retire`]d records are freed only when no
/// registered thread can still dereference them, *provided* the data structure
/// obeys the phase rules above (the per-method docs state each side's
/// obligations). That is exactly the reader/writer/reclaimer handshake argument
/// of Section 6.
pub trait Smr: Send + Sync + Sized + 'static {
    /// Per-thread mutable context (limbo bag, counters, cached slot pointers).
    type ThreadCtx: Send;

    /// Human-readable algorithm name (used in benchmark output).
    const NAME: &'static str;

    /// True for reclaimers that implement the NBR phase protocol; data
    /// structures may use it to skip work that only matters for NBR (none do
    /// today — the hooks are free for the others — but the harness reports it).
    const USES_PHASES: bool = false;

    /// True for reclaimers that require per-access protection (HP/IBR/HE).
    const USES_PROTECTION: bool = false;

    /// Whether it is safe to follow a pointer read out of an *unlinked*
    /// (but not yet reclaimed) record.
    ///
    /// Epoch/era-based schemes (EBR family, NBR — within a read phase)
    /// allow this: the whole chain is quiesced together. Validating
    /// protection (HP, HP-POP, and the interval schemes IBR, HE and WFE)
    /// cannot: the pointee may have been retired and freed *before the
    /// pointer was ever loaded*, and the validating re-read targets a
    /// frozen field that still holds the stale pointer. An interval
    /// announced after a scan does not reach back to cover it (DESIGN.md,
    /// "Traversals through unlinked records under the interval
    /// reclaimers"). Data structures whose traversals can
    /// pass through unlinked records (e.g. the Harris list's marked chains)
    /// consult this flag and fall back to unlinking one record at a time —
    /// exactly the applicability distinction Table 1 of the paper draws.
    const CAN_TRAVERSE_UNLINKED: bool = true;

    /// Creates the shared state for up to `config.max_threads` threads.
    fn new(config: SmrConfig) -> Self;

    /// The configuration this instance was created with.
    fn config(&self) -> &SmrConfig;

    /// Registers the calling thread under slot `tid` (distinct per thread,
    /// `< config.max_threads`), returning its thread context.
    fn register(&self, tid: usize) -> Self::ThreadCtx;

    /// Deregisters a thread. Remaining limbo records are either handed to the
    /// shared pool or freed if provably safe; the context's counters remain
    /// readable afterwards.
    fn unregister(&self, ctx: &mut Self::ThreadCtx);

    // ------------------------------------------------------------------
    // Operation brackets (EBR / QSBR / RCU / IBR / HE).
    // ------------------------------------------------------------------

    /// Marks the start of a data-structure operation.
    #[inline]
    fn begin_op(&self, _ctx: &mut Self::ThreadCtx) {}

    /// Marks the end of a data-structure operation (quiescent from here on).
    #[inline]
    fn end_op(&self, _ctx: &mut Self::ThreadCtx) {}

    // ------------------------------------------------------------------
    // NBR phase protocol.
    // ------------------------------------------------------------------

    /// Begins a read phase (Φ_read). For NBR this clears the thread's
    /// reservations and makes it *restartable* (Algorithm 1, lines 6–9); it is
    /// also the point the operation restarts from when neutralized.
    #[inline]
    fn begin_read_phase(&self, _ctx: &mut Self::ThreadCtx) {}

    /// Ends the read phase, announcing the records the upcoming write phase
    /// will access (Algorithm 1, lines 10–13). After this call the thread is
    /// non-restartable and may freely access exactly the reserved records.
    #[inline]
    fn end_read_phase(&self, _ctx: &mut Self::ThreadCtx, _reservations: &[usize]) {}

    /// Neutralization checkpoint. Data structures call this after every shared
    /// pointer load inside a read phase, **before** dereferencing the loaded
    /// pointer. Returns `true` when the operation must discard all pointers
    /// obtained in the current read phase and restart it from the root (the
    /// cooperative analogue of the `siglongjmp` in the paper's signal handler).
    #[inline]
    fn checkpoint(&self, _ctx: &mut Self::ThreadCtx) -> bool {
        false
    }

    // ------------------------------------------------------------------
    // Per-access protection (HP / IBR / HE).
    // ------------------------------------------------------------------

    /// Protects and loads a pointer from `src` using hazard slot `slot`.
    ///
    /// For hazard-pointer-style reclaimers this announces the pointer and
    /// validates it against `src` (retrying internally until stable); for
    /// era-based reclaimers it refreshes the announced era; for everything
    /// else it is a plain `Acquire` load.
    #[inline]
    fn protect<T: SmrNode>(
        &self,
        _ctx: &mut Self::ThreadCtx,
        _slot: usize,
        src: &Atomic<T>,
    ) -> Shared<T> {
        src.load(Ordering::Acquire)
    }

    /// Copies an existing protection into another slot.
    ///
    /// `ptr` must currently be protected via `src_slot` (or otherwise be
    /// immune from reclamation); hazard-pointer-style reclaimers re-announce it
    /// under `dst_slot` (no validation needed — a record cannot be freed while
    /// an existing announcement covers it), era-based reclaimers copy the
    /// announced era. Used by traversals that need to pin more than two nodes
    /// (e.g. `left` in the Harris list) without re-validating.
    ///
    /// **Relocation contract:** while a record is continuously held, it may
    /// be moved between slots (copied, then its source slot reused) **at
    /// most once**. The scanner-side defence against the copy/scan race (the
    /// double-collect pass in HP/HE — DESIGN.md, "Validate-after-copy for
    /// moved hazards") is provably sufficient for a single relocation but
    /// not for a record bounced between slots repeatedly while one scan
    /// runs; a structure that needs more relocations must re-validate via
    /// [`Smr::protect`] instead. Every workspace structure satisfies this
    /// (the Harris list promotes each node into the `left` slot once).
    #[inline]
    fn protect_copy<T: SmrNode>(
        &self,
        _ctx: &mut Self::ThreadCtx,
        _dst_slot: usize,
        _src_slot: usize,
        _ptr: Shared<T>,
    ) {
    }

    /// Clears all protection slots owned by the thread.
    #[inline]
    fn clear_protections(&self, _ctx: &mut Self::ThreadCtx) {}

    // ------------------------------------------------------------------
    // Record lifecycle.
    // ------------------------------------------------------------------

    /// Current global era (0 for reclaimers that do not track eras).
    #[inline]
    fn global_era(&self) -> u64 {
        0
    }

    /// The stamp a lookup memo must validate cached pointers against, or
    /// `None` when this reclaimer cannot support stamp-validated caching.
    ///
    /// # Contract
    /// Called only *inside* an operation (after [`Smr::begin_op`]). A
    /// returned stamp must satisfy: if the stamp equals the one recorded
    /// when a node pointer was cached (by the same thread, inside an
    /// earlier operation), then no record retired at or after the recorded
    /// stamp's era has been freed in between — so dereferencing the cached
    /// pointer is as safe as it was when it was cached, *without*
    /// re-traversing or re-protecting. That holds exactly for schemes where
    /// (a) a free of a record retired at era `e` requires the reclamation
    /// clock to have advanced past `e`, and (b) the calling thread's
    /// reservation is already visible to every reclaimer at `begin_op`.
    /// Epoch schemes with announce-at-begin (DEBRA, QSBR, RCU) qualify and
    /// return the epoch their current operation is pinned at. The interval
    /// family (IBR, HE, WFE) frees on interval *disjointness* — records die
    /// with no clock advance — and the address/phase families (HP, HP-POP,
    /// NBR, NBR+) and EpochPOP (reservations invisible until pinged) cannot
    /// give the memo a reachability argument, so all of them return `None`
    /// and the memo stays off.
    #[inline]
    fn validation_stamp(&self, _ctx: &mut Self::ThreadCtx) -> Option<u64> {
        None
    }

    /// The thread's node-block recycling [`Magazine`], if this reclaimer
    /// carries one in its context (all workspace reclaimers do). `None`
    /// routes every allocation and free through the global allocator.
    #[inline]
    fn magazine_mut<'a>(&self, _ctx: &'a mut Self::ThreadCtx) -> Option<&'a mut Magazine> {
        None
    }

    /// Allocates a node, stamping its birth era for interval-based schemes.
    ///
    /// When recycling is enabled the block is popped from the thread's
    /// magazine if possible; a fresh birth-era stamp before publication is
    /// what keeps address reuse ABA-safe for the interval-based schemes
    /// (see `recycle`, "Recycling is downstream of safety"). Those schemes
    /// (IBR, HE) override this method and stamp **after** the pop — the pop
    /// happens-after the block's free, so the clock read there is never
    /// older than any era observed while the previous incarnation was being
    /// swept and the re-stamped lifetime can never be mistaken for the old
    /// one. This default keeps the stamp on the stack value: no scheme that
    /// uses it consults birth eras in its reclamation sweep (only the
    /// interval sweeps do), so the cheaper shape is equivalent — and it
    /// keeps the alloc fast path of the epoch/hazard families byte-for-byte
    /// what it was before the interval overrides were tightened.
    fn alloc<T: SmrNode>(&self, ctx: &mut Self::ThreadCtx, mut value: T) -> Shared<T> {
        value.header_mut().set_birth_era(self.global_era());
        let raw = match self.magazine_mut(ctx) {
            Some(mag) => mag.alloc_node(value),
            None => recycle::alloc_node_raw(value),
        };
        // SAFETY: `raw` was just allocated above and is exclusively owned
        // until returned; reading its freshly-written header is sound.
        crate::check::on_node_alloc(raw as usize, unsafe { (*raw).header().birth_era() });
        self.thread_stats_mut(ctx).allocs += 1;
        Shared::from_raw(raw)
    }

    /// Frees a node that was allocated with [`Smr::alloc`] but never published
    /// (e.g. an insert that lost its CAS). Immediate destruction is safe
    /// because no other thread ever saw the pointer, and the block can be
    /// recycled immediately for the same reason.
    ///
    /// # Safety
    /// `ptr` must come from [`Smr::alloc`] on this reclaimer and must never
    /// have been made reachable from the data structure.
    unsafe fn dealloc_unpublished<T: SmrNode>(&self, ctx: &mut Self::ThreadCtx, ptr: Shared<T>) {
        debug_assert!(!ptr.is_null());
        match self.magazine_mut(ctx) {
            Some(mag) => mag.free_node(ptr.as_raw()),
            None => recycle::free_node_raw(ptr.as_raw()),
        }
        self.thread_stats_mut(ctx).allocs = self.thread_stats_mut(ctx).allocs.saturating_sub(1);
    }

    /// Retires an unlinked record for deferred, safe destruction.
    ///
    /// # Safety
    /// `ptr` must be unlinked (unreachable from every root), must have been
    /// allocated via [`Smr::alloc`] (or
    /// [`recycle::alloc_node_raw`](crate::recycle::alloc_node_raw) — the
    /// node-heap ABI), and must be retired exactly once across all threads.
    unsafe fn retire<T: SmrNode>(&self, ctx: &mut Self::ThreadCtx, ptr: Shared<T>);

    /// Attempts to reclaim whatever is provably safe right now (used at
    /// shutdown, between benchmark trials, and by tests).
    fn flush(&self, _ctx: &mut Self::ThreadCtx) {}

    // ------------------------------------------------------------------
    // Introspection.
    // ------------------------------------------------------------------

    /// The thread's counters.
    fn thread_stats(&self, ctx: &Self::ThreadCtx) -> ThreadStats;

    /// Mutable access to the thread's counters (used by default methods).
    fn thread_stats_mut<'a>(&self, ctx: &'a mut Self::ThreadCtx) -> &'a mut ThreadStats;

    /// Number of records currently sitting in the thread's limbo bag.
    fn limbo_len(&self, ctx: &Self::ThreadCtx) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_consistent() {
        let c = SmrConfig::default();
        c.validate();
        assert!(c.lo_watermark <= c.hi_watermark);
    }

    #[test]
    fn test_config_is_small() {
        let c = SmrConfig::for_tests();
        c.validate();
        assert!(c.hi_watermark <= 64);
    }

    #[test]
    fn builder_setters_apply() {
        let c = SmrConfig::default()
            .with_max_threads(8)
            .with_watermarks(100, 10)
            .with_max_reservations(3)
            .with_signal_cost_ns(1500)
            .with_epoch_freqs(16, 32);
        assert_eq!(c.max_threads, 8);
        assert_eq!(c.hi_watermark, 100);
        assert_eq!(c.lo_watermark, 10);
        assert_eq!(c.max_reservations, 3);
        assert_eq!(c.signal_cost_ns, 1500);
        assert_eq!(c.epoch_freq, 16);
        assert_eq!(c.empty_freq, 32);
    }

    #[test]
    fn batching_flags_default_on_and_toggle() {
        let c = SmrConfig::default();
        assert!(c.memo);
        assert_eq!(c.retire_batch_cap(), crate::limbo::RETIRE_BATCH_CAP);
        let c = c.with_memo(false);
        assert!(!c.memo);
        assert_eq!(c.retire_batch_cap(), crate::limbo::RETIRE_BATCH_CAP);
    }

    #[test]
    #[should_panic(expected = "exceeds the 16 protection slots")]
    fn more_reservations_than_a_slot_row_rejected() {
        SmrConfig::default().with_max_reservations(17).validate();
    }

    #[test]
    #[should_panic(expected = "LoWatermark")]
    fn watermark_order_enforced() {
        let _ = SmrConfig::default().with_watermarks(10, 100);
    }
}
