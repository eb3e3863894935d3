//! The neutralization substrate: per-thread signal slots, the reservations
//! arrays (one [`SlotBlock`] row per thread) and the reader/writer/reclaimer
//! handshakes of Sections 4.2–4.3.
//!
//! # Substitution for POSIX signals (DESIGN.md, S1)
//!
//! The paper delivers neutralization with `pthread_kill` + a handler that
//! `siglongjmp`s back to the start of the read phase. Jumping over Rust frames
//! is undefined behaviour unless every skipped frame is a plain-old-frame, and
//! an async signal handler cannot be expressed safely in Rust, so this
//! reproduction delivers neutralization **cooperatively**:
//!
//! * "Sending a signal" to thread `t` = `pending[t].fetch_max(seq, SeqCst)`.
//! * "Receiving the signal" = thread `t` observing `pending[t] > acked[t]` at a
//!   *checkpoint* — data structures place a checkpoint after every shared
//!   pointer load inside a read phase, before the loaded pointer is
//!   dereferenced. On receipt the thread stores `acked[t] = pending[t]` and
//!   restarts its read phase from the root (structured control flow instead of
//!   `siglongjmp`).
//! * A reclaimer may treat thread `t` as neutralized once it observes either
//!   `restartable[t] == false` (t is in a write phase or quiescent — its
//!   *reservations* are honoured, exactly as in Algorithm 1) or
//!   `acked[t] >= seq` (t has discarded every read-phase pointer it obtained
//!   before the signal).
//!
//! The pending/acked handshake itself is the reusable
//! [`PingChannel`](smr_common::PingChannel) in `smr-common`: neutralization
//! layers the `restartable` exemption and the restart semantics on top of it,
//! and the Publish-on-Ping reclaimers (`smr-pop`) layer
//! publish-private-reservations semantics on the very same channel.
//!
//! This preserves Assumption 4 of the paper ("a signalled thread executes its
//! handler before dereferencing any reference field") *by construction*: a
//! reader never dereferences a pointer loaded in a read phase without first
//! passing a checkpoint, and the reclaimer never frees until the handshake
//! above has been observed for every registered thread. The cost of the
//! substitution is that a reclaimer may have to *skip* a reclamation round if
//! some reader has not reached a checkpoint within a bounded spin window
//! (`SmrConfig::ack_spin_limit`); with real signals the kernel would preempt
//! that reader instead. Safety is unaffected; the garbage bound holds as long
//! as readers keep executing checkpoints, which they do on every pointer hop.
//!
//! # Memory-ordering notes (Algorithm 1, lines 8 and 12)
//!
//! The paper uses CAS-as-fence on x86 to order (a) the `restartable := true`
//! write before any subsequent read of shared records, and (b) the reservation
//! writes before `restartable := false`. Here both transitions are `SeqCst`
//! read-modify-writes (`swap`); the reservation stores themselves are only
//! `Release`, because the reclaimer trusts them solely after observing
//! `restartable[t] == false`, and that observation synchronizes with the
//! `SeqCst` swap sequenced after them — so a reclaimer that reads
//! `restartable[t] == false` also observes every reservation `t` published
//! before flipping the flag. A reader that acknowledges a signal has a
//! happens-before edge from the reclaimer's unlinks to its restarted
//! traversal (it read the reclaimer's `pending` store). The reclaimer's
//! reservation scan itself issues one `SeqCst` fence and then per-slot
//! `Acquire` loads (see DESIGN.md, "Memory-ordering argument for single-fence
//! scans").

use smr_common::{
    CachePadded, PingChannel, ReclaimCore, ReclaimLocal, Registry, SlotBlock, SmrConfig,
};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};

/// Per-thread shared neutralization state (single-writer for `restartable`
/// and `announce_ts`). The reservations array lives in the
/// [`NeutralizationCore`]'s [`SlotBlock`], and the pending/acked signal
/// handshake in its shared [`PingChannel`].
#[derive(Debug, Default)]
pub struct SignalSlot {
    /// True while the owning thread is inside a read phase (Φ_read) and may be
    /// neutralized (Algorithm 1, line 3).
    restartable: AtomicBool,
    /// NBR+ announcement timestamp (Algorithm 2): odd while the owner is
    /// broadcasting signals, even otherwise; two completed increments after a
    /// snapshot ⇒ a relaxed grace period elapsed.
    announce_ts: AtomicU64,
}

impl SignalSlot {
    /// The owner's announcement timestamp (NBR+).
    #[inline]
    pub fn announce_ts(&self) -> u64 {
        self.announce_ts.load(Ordering::SeqCst)
    }
}

/// The shared core used by both `Nbr` and `NbrPlus`: the reclaim pipeline,
/// the signal slots, the reservations and the signal channel.
pub struct NeutralizationCore {
    reclaim: ReclaimCore,
    slots: Vec<CachePadded<SignalSlot>>,
    /// The records each thread will access in its write phase (Algorithm 1,
    /// line 5: the SWMR reservations array), one row per thread.
    reservations: SlotBlock,
    /// The pending/acked handshake, shared with the Publish-on-Ping
    /// reclaimers (`smr-pop`) via `smr-common`.
    ping: PingChannel,
}

impl std::fmt::Debug for NeutralizationCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NeutralizationCore")
            .field("threads", &self.registry().registered())
            .field("signal_seq", &self.ping.current_seq())
            .finish()
    }
}

impl NeutralizationCore {
    /// Creates the shared state for `config.max_threads` threads.
    pub fn new(config: SmrConfig) -> Self {
        let reclaim = ReclaimCore::new(config);
        let config = reclaim.config();
        let slots = (0..config.max_threads)
            .map(|_| CachePadded::default())
            .collect();
        Self {
            slots,
            reservations: SlotBlock::new(config),
            ping: PingChannel::new(config.max_threads, config.signal_cost_ns),
            reclaim,
        }
    }

    /// The reclaim pipeline this neutralization domain runs on.
    #[inline]
    pub fn reclaim(&self) -> &ReclaimCore {
        &self.reclaim
    }

    /// The configuration.
    #[inline]
    pub fn config(&self) -> &SmrConfig {
        self.reclaim.config()
    }

    /// The thread registry.
    #[inline]
    pub fn registry(&self) -> &Registry {
        self.reclaim.registry()
    }

    /// The signal slot of thread `tid`.
    #[inline]
    pub fn slot(&self, tid: usize) -> &SignalSlot {
        &self.slots[tid]
    }

    /// Registers the calling thread under slot `tid`, resetting its slot.
    pub fn register(&self, tid: usize) -> ReclaimLocal {
        let mut local: ReclaimLocal = self.reclaim.register(tid);
        let config = self.config();
        local
            .addrs
            .reserve_exact(config.max_reservations * config.max_threads);
        self.slot(tid).restartable.store(false, Ordering::SeqCst);
        // Catch up with the global sequence: this thread holds no pointers, so
        // it trivially acknowledges everything that has been sent so far.
        self.ping.reset_slot(tid);
        // `clear`'s `Release` stores suffice here and in `unregister`: a
        // reclaimer that still sees a stale reservation only keeps its record
        // longer.
        self.reservations.clear(tid);
        local
    }

    /// Deregisters a thread: withdraws its reservations and hands whatever
    /// its bag still holds to the orphan pool.
    pub fn unregister(&self, local: &mut ReclaimLocal) {
        let tid = local.tid();
        self.slot(tid).restartable.store(false, Ordering::SeqCst);
        self.reservations.clear(tid);
        // Mark the ping slot departed *before* leaving the registry, closing
        // the window where a reclaimer that snapshotted the active set is
        // still spinning on this thread's ack: the departed flag wakes it
        // immediately instead of costing the remaining allowance.
        self.ping.mark_departed(tid);
        self.reclaim.unregister(local);
    }

    // ------------------------------------------------------------------
    // Reader-side protocol.
    // ------------------------------------------------------------------

    /// Begins a read phase for `tid` (Algorithm 1, lines 6–9): clears the
    /// reservations, trivially acknowledges any pending signal (the thread
    /// holds no shared pointers at this boundary), and becomes restartable.
    #[inline]
    pub fn begin_read_phase(&self, tid: usize) {
        // The clear (mirrored claims first) becomes visible to a reclaimer
        // no later than the SeqCst swap below.
        self.reservations.clear(tid);
        if let Some(seq) = self.ping.poll(tid) {
            // Only ack when something is pending: `acked` is single-writer,
            // so the unconditional store the seed performed here was an XCHG
            // on every operation; skipping it when nothing is pending keeps
            // the per-op fast path store-free.
            self.ping.ack(tid, seq);
        }
        // SeqCst RMW: the paper's CAS-as-fence (line 8). Ensures no read of a
        // shared record in the upcoming Φ_read can be ordered before the
        // thread became restartable.
        self.slot(tid).restartable.swap(true, Ordering::SeqCst);
    }

    /// Neutralization checkpoint for `tid`. Returns `true` if a signal arrived
    /// since the last acknowledgement; the caller must then discard all
    /// read-phase pointers and restart from the root. The acknowledgement is
    /// published here, which is what un-blocks the signalling reclaimer.
    #[inline]
    pub fn checkpoint(&self, tid: usize) -> bool {
        if let Some(seq) = self.ping.poll(tid) {
            self.ping.ack(tid, seq);
            true
        } else {
            false
        }
    }

    /// Ends the read phase (Algorithm 1, lines 10–13): publishes the records
    /// the write phase will access and becomes non-restartable. The `SeqCst`
    /// swap guarantees every reservation is visible to any reclaimer that
    /// subsequently observes `restartable == false`.
    #[inline]
    pub fn end_read_phase(&self, tid: usize, reservations: &[usize]) {
        // Release stores suffice for the reservation values: the reclaimer
        // only trusts them after observing `restartable == false`, and that
        // observation synchronizes with the SeqCst swap below, which is
        // sequenced after every store here. Skipping the unchanged slots and
        // storing the rest with Release leaves the per-op cost at the single
        // swap the paper's Algorithm 1 line 12 requires.
        self.reservations.publish(tid, reservations);
        // SeqCst RMW: the paper's CAS-as-fence (line 12).
        self.slot(tid).restartable.swap(false, Ordering::SeqCst);
        // Oracle mirror (after the swap): the reservations only become binding
        // on reclaimers once `restartable == false` is observable, so claiming
        // here never over-claims.
        smr_common::check::claim_reservations(tid, reservations);
    }

    /// Leaves any phase (end of operation): the thread is quiescent.
    #[inline]
    pub fn quiesce(&self, tid: usize) {
        let slot = self.slot(tid);
        if slot.restartable.load(Ordering::Relaxed) {
            slot.restartable.swap(false, Ordering::SeqCst);
        }
    }

    // ------------------------------------------------------------------
    // Reclaimer-side protocol.
    // ------------------------------------------------------------------

    /// Sends a neutralization signal to every registered thread except
    /// `sender` without waiting for the handshake (diagnostics/tests; a
    /// reclaimer uses [`NeutralizationCore::neutralize_all`]). Returns the
    /// sequence number of this broadcast and the number of signals sent.
    pub fn signal_all(&self, sender: usize) -> (u64, u64) {
        self.ping.ping_all(sender, self.registry())
    }

    /// A non-restartable thread (write phase or quiescent) needs no
    /// acknowledgement: its published reservations are honoured, exactly as
    /// in Algorithm 1.
    #[inline]
    fn is_exempt(&self, tid: usize) -> bool {
        !self.slot(tid).restartable.load(Ordering::SeqCst)
    }

    /// Signals every other registered thread (Algorithm 1, line 16) and
    /// waits (bounded) until each is observed neutralized: either
    /// non-restartable or having acknowledged this broadcast. Delivery
    /// (including the simulated per-signal `pthread_kill` cost,
    /// `SmrConfig::signal_cost_ns`) and the wait are the pipeline's ping
    /// round over the shared [`PingChannel`].
    ///
    /// The wait backs off from spinning to yielding so that, on
    /// oversubscribed machines, a descheduled reader gets the CPU it needs
    /// to reach its next checkpoint (with real signals the kernel would
    /// deliver the handler regardless of scheduling; the yield is the
    /// cooperative substitute). The total number of iterations is bounded
    /// by `SmrConfig::ack_spin_limit`; on expiry the round is conceded —
    /// `false` — and the caller skips reclamation.
    pub fn neutralize_all(&self, local: &mut ReclaimLocal) -> bool {
        self.reclaim
            .ping_round(local, &self.ping, |tid| self.is_exempt(tid), || {})
    }

    /// Collects every reservation currently announced by any registered thread
    /// other than `collector` (Algorithm 1, line 22) into `reserved` — at most
    /// `R × N` entries, gathered with one `SeqCst` fence plus per-slot
    /// `Acquire` loads (single-fence scan, DESIGN.md). The sweep sorts and
    /// deduplicates them.
    pub fn collect_reservations_into(&self, collector: usize, reserved: &mut Vec<usize>) {
        reserved.clear();
        fence(Ordering::SeqCst);
        self.reservations
            .collect_into(self.registry(), Some(collector), reserved);
    }

    // ------------------------------------------------------------------
    // NBR+ announcement timestamps.
    // ------------------------------------------------------------------

    /// Marks the beginning of a relaxed grace period by `tid` (odd timestamp,
    /// Algorithm 2 line 7).
    #[inline]
    pub fn announce_rgp_begin(&self, tid: usize) {
        self.slot(tid).announce_ts.fetch_add(1, Ordering::SeqCst);
    }

    /// Marks the end of a *verified* relaxed grace period by `tid` (even
    /// timestamp, Algorithm 2 line 9). In the cooperative substitution the end
    /// is only announced once `await_neutralization` succeeded, so observers
    /// may rely on "advanced to the next even value ⇒ every thread was
    /// neutralized in between".
    #[inline]
    pub fn announce_rgp_end(&self, tid: usize) {
        self.slot(tid).announce_ts.fetch_add(1, Ordering::SeqCst);
    }

    /// Rolls back an announced-but-unverified grace period (the cooperative
    /// handshake timed out). `announce_ts` is single-writer, so the subtraction
    /// cannot race with other increments by the same thread.
    #[inline]
    pub fn announce_rgp_abort(&self, tid: usize) {
        self.slot(tid).announce_ts.fetch_sub(1, Ordering::SeqCst);
    }

    /// Snapshot of every thread's announcement timestamp (Algorithm 2,
    /// line 15) into a reusable buffer (the LoWatermark path re-enters per
    /// retire burst; a fresh vector per snapshot would put malloc back on
    /// the reclamation path). Index = tid; inactive slots report their last
    /// value, which is harmless (they cannot regress).
    pub fn snapshot_announcements_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend(self.slots.iter().map(|s| s.announce_ts()));
    }

    /// True if, relative to `snapshot`, some *other* thread has completed an
    /// entire relaxed grace period (begun **and** verified after the snapshot
    /// was taken) — Algorithm 2, lines 17–23.
    pub fn rgp_elapsed_since(&self, observer: usize, snapshot: &[u64]) -> bool {
        for tid in self.registry().active_tids() {
            if tid == observer || tid >= snapshot.len() {
                continue;
            }
            let snap = snapshot[tid];
            // If the snapshot caught an odd value (mid-broadcast), the RGP that
            // was in flight may have begun before our bookmark, so we need the
            // *next* full RGP: require one more increment than the paper's
            // "+2" (which assumes an even snapshot).
            let required = if snap % 2 == 0 { snap + 2 } else { snap + 3 };
            if self.slot(tid).announce_ts() >= required {
                return true;
            }
        }
        false
    }

    /// True if any *other* thread's announcement timestamp has advanced past
    /// `snapshot` at all — a grace period has at least *begun* since the
    /// snapshot (it may still be mid-handshake, i.e. not yet creditable by
    /// [`NeutralizationCore::rgp_elapsed_since`]). NBR+ uses this at the
    /// HiWatermark to defer its own broadcast instead of stacking `n−1`
    /// redundant signals onto a grace period that is about to complete.
    /// An aborted broadcast rolls its timestamp back, so a timed-out peer
    /// stops registering here and the deferring thread falls through to its
    /// own broadcast.
    pub fn rgp_in_flight_since(&self, observer: usize, snapshot: &[u64]) -> bool {
        for tid in self.registry().active_tids() {
            if tid == observer || tid >= snapshot.len() {
                continue;
            }
            if self.slot(tid).announce_ts() > snapshot[tid] {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smr_common::PingOutcome;

    fn core_with(threads: usize) -> NeutralizationCore {
        let cfg = SmrConfig::for_tests().with_max_threads(threads);
        NeutralizationCore::new(cfg)
    }

    /// The handshake half of `neutralize_all`, for a broadcast the test sent
    /// itself with `signal_all`.
    fn await_neutralization(core: &NeutralizationCore, sender: usize, seq: u64) -> PingOutcome {
        core.ping.await_acks(
            sender,
            seq,
            core.registry(),
            core.config().ack_spin_limit,
            |tid| core.is_exempt(tid),
            || {},
        )
    }

    fn collect_reservations(core: &NeutralizationCore, collector: usize) -> Vec<usize> {
        let mut reserved = Vec::new();
        core.collect_reservations_into(collector, &mut reserved);
        reserved.sort_unstable();
        reserved
    }

    fn snapshot_announcements(core: &NeutralizationCore) -> Vec<u64> {
        let mut out = Vec::new();
        core.snapshot_announcements_into(&mut out);
        out
    }

    #[test]
    fn register_catches_up_with_sequence() {
        let core = core_with(4);
        core.register(0);
        core.signal_all(0);
        core.signal_all(0);
        // A thread registering later must not be considered a straggler for
        // signals sent before it existed.
        core.register(1);
        assert_eq!(
            await_neutralization(&core, 0, core.ping.current_seq()),
            PingOutcome::AllAcked
        );
    }

    #[test]
    fn checkpoint_observes_signal_once() {
        let core = core_with(2);
        core.register(0);
        core.register(1);
        core.begin_read_phase(1);
        assert!(!core.checkpoint(1), "no signal yet");
        let (seq, sent) = core.signal_all(0);
        assert_eq!(sent, 1);
        assert!(core.checkpoint(1), "signal must be observed");
        assert!(!core.checkpoint(1), "signal must be consumed by the ack");
        assert_eq!(await_neutralization(&core, 0, seq), PingOutcome::AllAcked);
    }

    #[test]
    fn write_phase_thread_does_not_block_reclaimer() {
        let core = core_with(2);
        core.register(0);
        core.register(1);
        core.begin_read_phase(1);
        core.end_read_phase(1, &[0xdead0, 0xbeef0]);
        let (seq, _) = core.signal_all(0);
        assert_eq!(
            await_neutralization(&core, 0, seq),
            PingOutcome::AllAcked,
            "a non-restartable (write-phase) thread must not block the handshake"
        );
        let reserved = collect_reservations(&core, 0);
        assert_eq!(reserved, vec![0xbeef0, 0xdead0]);
    }

    #[test]
    fn reader_that_never_acks_times_out() {
        let mut cfg = SmrConfig::for_tests().with_max_threads(2);
        cfg.ack_spin_limit = 64;
        let core = NeutralizationCore::new(cfg);
        core.register(0);
        core.register(1);
        core.begin_read_phase(1);
        let (seq, _) = core.signal_all(0);
        assert_eq!(
            await_neutralization(&core, 0, seq),
            PingOutcome::TimedOut,
            "an unacknowledged reader must force the reclaimer to concede"
        );
    }

    #[test]
    fn begin_read_phase_clears_reservations() {
        let core = core_with(2);
        core.register(0);
        core.register(1);
        core.begin_read_phase(1);
        core.end_read_phase(1, &[0x1000]);
        assert_eq!(collect_reservations(&core, 0), vec![0x1000]);
        core.begin_read_phase(1);
        assert!(collect_reservations(&core, 0).is_empty());
    }

    #[test]
    fn rgp_detection_requires_begin_and_verified_end() {
        let core = core_with(3);
        core.register(0);
        core.register(1);
        core.register(2);
        let snap = snapshot_announcements(&core);
        assert!(!core.rgp_elapsed_since(2, &snap));
        core.announce_rgp_begin(0);
        assert!(
            !core.rgp_elapsed_since(2, &snap),
            "an RGP that has only begun must not be observable"
        );
        core.announce_rgp_end(0);
        assert!(core.rgp_elapsed_since(2, &snap));
        // The sender itself must not count its own RGP.
        assert!(!core.rgp_elapsed_since(0, &snap));
    }

    #[test]
    fn rgp_detection_with_odd_snapshot_needs_next_full_rgp() {
        let core = core_with(2);
        core.register(0);
        core.register(1);
        core.announce_rgp_begin(0); // observer snapshots mid-broadcast
        let snap = snapshot_announcements(&core);
        core.announce_rgp_end(0);
        assert!(
            !core.rgp_elapsed_since(1, &snap),
            "completing the in-flight RGP is not enough for an odd snapshot"
        );
        core.announce_rgp_begin(0);
        assert!(!core.rgp_elapsed_since(1, &snap));
        core.announce_rgp_end(0);
        assert!(core.rgp_elapsed_since(1, &snap));
    }

    #[test]
    fn rgp_abort_is_not_observable() {
        let core = core_with(2);
        core.register(0);
        core.register(1);
        let snap = snapshot_announcements(&core);
        core.announce_rgp_begin(0);
        core.announce_rgp_abort(0);
        assert!(!core.rgp_elapsed_since(1, &snap));
        // A later, successful RGP is still detected.
        core.announce_rgp_begin(0);
        core.announce_rgp_end(0);
        assert!(core.rgp_elapsed_since(1, &snap));
    }

    #[test]
    fn signal_all_skips_sender_and_inactive() {
        let core = core_with(8);
        core.register(0);
        core.register(3);
        core.register(5);
        let (_, sent) = core.signal_all(3);
        assert_eq!(sent, 2);
    }

    #[test]
    fn quiesce_clears_restartable() {
        let core = core_with(2);
        core.register(0);
        core.register(1);
        core.begin_read_phase(1);
        core.quiesce(1);
        let (seq, _) = core.signal_all(0);
        assert_eq!(await_neutralization(&core, 0, seq), PingOutcome::AllAcked);
    }
}
