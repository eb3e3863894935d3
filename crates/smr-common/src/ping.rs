//! The cooperative per-thread ping/ack channel.
//!
//! Two families of reclaimers in this workspace are built on the same
//! handshake: a *pinger* (usually a thread about to reclaim) bumps a global
//! sequence number and delivers it to every registered thread's `pending`
//! slot; each *pingee* observes the ping at its next hook site (an NBR
//! checkpoint, a POP protect/poll point), performs whatever its scheme
//! requires (restart the read phase for NBR, publish private reservations for
//! the Publish-on-Ping schemes) and stores an acknowledgement; the pinger
//! waits — bounded — until every thread is observed acknowledged or exempt.
//!
//! The channel is the cooperative substitute for the `pthread_kill`
//! broadcasts of NBR (PPoPP 2021) and of the Publish-on-Ping reclaimers
//! (PPoPP 2025): "sending a signal" is `pending[t].fetch_max(seq)`,
//! "the handler ran" is `acked[t] >= seq`. See DESIGN.md (substitution S1 and
//! "Publish-on-Ping on the cooperative channel") for the safety arguments the
//! two users build on top.
//!
//! # Memory ordering contract
//!
//! * [`PingChannel::poll`] loads `pending` with `SeqCst`; a pingee that
//!   observes a ping and then [`PingChannel::ack`]s (a `SeqCst` store)
//!   guarantees that every store it performed *before* the ack (published
//!   reservations, acknowledged restarts) is visible to a pinger that
//!   subsequently observes `acked >= seq` — the observation reads from the
//!   `SeqCst` ack store and therefore synchronizes with it.
//! * The pinger's post-handshake scan should still issue one `SeqCst` fence
//!   before reading reservation slots (single-fence scan, DESIGN.md); the
//!   ack edge alone covers only the slots of threads that acknowledged
//!   *this* sequence number, not exempt threads.

use crate::pad::CachePadded;
use crate::registry::Registry;
use crate::trace::{self, TraceKind};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// Per-thread channel endpoints. `pending` is multi-writer (any pinger);
/// `acked` is single-writer (the owning thread); `strikes`/`departed` are
/// the degradation state (multi-writer, monotone until the slot resets).
#[derive(Debug)]
struct PingSlot {
    pending: AtomicU64,
    acked: AtomicU64,
    /// Consecutive conceded rounds charged to this slot. Each strike halves
    /// the spin window the *next* pinger grants it, so a silent peer costs
    /// one full-budget concession and then geometrically less per scan
    /// instead of a full `ack_spin_limit` timeout forever.
    strikes: AtomicU64,
    /// The owning thread left without quiescing (fault injection, crash
    /// detection). Departed slots are permanently exempt from handshakes and
    /// skipped by broadcasts until the slot is reset by a re-registration.
    departed: AtomicBool,
}

/// Outcome of a bounded wait for acknowledgements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PingOutcome {
    /// Every registered thread was observed acknowledged or exempt.
    AllAcked,
    /// Some thread stayed silent past the spin limit; the caller must treat
    /// the round as failed (for the reclaimers: concede and skip).
    TimedOut,
}

/// The shared ping/ack handshake state for up to `max_threads` threads.
pub struct PingChannel {
    seq: AtomicU64,
    /// Simulated per-ping delivery cost in nanoseconds (models the
    /// user↔kernel round trip of a real `pthread_kill`; 0 disables it).
    ping_cost_ns: u64,
    slots: Vec<CachePadded<PingSlot>>,
}

impl std::fmt::Debug for PingChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PingChannel")
            .field("seq", &self.seq.load(Ordering::Relaxed))
            .field("threads", &self.slots.len())
            .finish()
    }
}

impl PingChannel {
    /// Creates a channel for `max_threads` threads with the given simulated
    /// per-ping delivery cost.
    pub fn new(max_threads: usize, ping_cost_ns: u64) -> Self {
        Self {
            seq: AtomicU64::new(0),
            ping_cost_ns,
            slots: (0..max_threads)
                .map(|_| {
                    CachePadded::new(PingSlot {
                        pending: AtomicU64::new(0),
                        acked: AtomicU64::new(0),
                        strikes: AtomicU64::new(0),
                        departed: AtomicBool::new(false),
                    })
                })
                .collect(),
        }
    }

    /// Number of thread slots.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Current value of the global ping sequence (diagnostics/tests).
    #[inline]
    pub fn current_seq(&self) -> u64 {
        self.seq.load(Ordering::SeqCst)
    }

    /// Catches a (re)registering thread's slot up with the global sequence: a
    /// fresh thread holds no pointers, so it trivially acknowledges every
    /// ping sent before it existed.
    ///
    /// `fetch_max`, not plain stores: a pinger whose broadcast raced this
    /// registration may already have delivered a *newer* sequence into
    /// `pending`; overwriting it would leave the pinger spinning its whole
    /// budget for an acknowledgement this thread no longer knows it owes
    /// (never unsafe — the round would be conceded — but a wasted round).
    /// Keeping the newer `pending` makes the fresh thread observe and ack it
    /// at its first poll instead.
    pub fn reset_slot(&self, tid: usize) {
        let seq = self.seq.load(Ordering::SeqCst);
        self.slots[tid].pending.fetch_max(seq, Ordering::SeqCst);
        self.slots[tid].acked.fetch_max(seq, Ordering::SeqCst);
        // A fresh owner starts with a clean record: no strikes, not departed.
        self.slots[tid].strikes.store(0, Ordering::SeqCst);
        self.slots[tid].departed.store(false, Ordering::SeqCst);
    }

    /// Marks `tid`'s slot as departed: its owner left (or was killed) without
    /// quiescing. From now on broadcasts skip the slot and handshakes treat
    /// it as exempt, so one dead peer stops costing a timeout per scan. A
    /// later [`PingChannel::reset_slot`] (re-registration) clears the mark.
    pub fn mark_departed(&self, tid: usize) {
        self.slots[tid].departed.store(true, Ordering::SeqCst);
    }

    /// Whether `tid`'s slot is marked departed.
    #[inline]
    pub fn is_departed(&self, tid: usize) -> bool {
        self.slots[tid].departed.load(Ordering::SeqCst)
    }

    /// Consecutive conceded rounds currently charged to `tid`
    /// (diagnostics/tests).
    #[inline]
    pub fn strikes(&self, tid: usize) -> u64 {
        self.slots[tid].strikes.load(Ordering::SeqCst)
    }

    /// Pings every registered thread except `sender`, returning the sequence
    /// number of this broadcast and the number of pings delivered.
    pub fn ping_all(&self, sender: usize, registry: &Registry) -> (u64, u64) {
        crate::check::preempt("ping.broadcast", 0);
        let seq = self.seq.fetch_add(1, Ordering::SeqCst) + 1;
        let mut sent = 0u64;
        for tid in registry.active_tids() {
            if tid == sender || self.is_departed(tid) {
                // A departed owner will never poll; paying the simulated
                // delivery cost for it would charge every broadcast for a
                // thread that no longer exists.
                continue;
            }
            self.slots[tid].pending.fetch_max(seq, Ordering::SeqCst);
            sent += 1;
            self.simulate_ping_cost();
        }
        trace::emit(sender, TraceKind::PingSent, seq, sent);
        (seq, sent)
    }

    /// Busy-waits for the configured per-ping cost, keeping the
    /// signal-count trade-offs (NBR vs NBR+, ping-paced POP scans)
    /// measurable on machines where an atomic store is nearly free.
    #[inline]
    fn simulate_ping_cost(&self) {
        let ns = self.ping_cost_ns;
        if ns == 0 {
            return;
        }
        let start = std::time::Instant::now();
        let budget = Duration::from_nanos(ns);
        while start.elapsed() < budget {
            std::hint::spin_loop();
        }
    }

    /// Checks `tid`'s endpoint for an unacknowledged ping. Returns the
    /// sequence number to acknowledge, or `None` when nothing new is pending.
    /// One `SeqCst` load on the owner-local `pending` line — the per-hook
    /// cost a pingee pays.
    #[inline]
    pub fn poll(&self, tid: usize) -> Option<u64> {
        crate::check::preempt("ping.poll", tid);
        let slot = &self.slots[tid];
        let pending = slot.pending.load(Ordering::SeqCst);
        if pending > slot.acked.load(Ordering::Relaxed) {
            Some(pending)
        } else {
            None
        }
    }

    /// Acknowledges ping `seq` on behalf of `tid`. Callers must complete
    /// their scheme's ping obligation (restart bookkeeping, publishing
    /// private reservations) **before** acking — the `SeqCst` store is the
    /// release edge the pinger's `acked` observation synchronizes with.
    #[inline]
    pub fn ack(&self, tid: usize, seq: u64) {
        let slot = &self.slots[tid];
        slot.acked.store(seq, Ordering::SeqCst);
        trace::emit(tid, TraceKind::PingAcked, seq, 0);
        // An ack proves the owner is alive and polling: forgive its strikes
        // so the next handshake grants it a full spin window again.
        if slot.strikes.load(Ordering::Relaxed) != 0 {
            slot.strikes.store(0, Ordering::Relaxed);
        }
    }

    /// Whether `tid` has acknowledged sequence `seq` (or newer).
    #[inline]
    pub fn acked_at_least(&self, tid: usize, seq: u64) -> bool {
        self.slots[tid].acked.load(Ordering::SeqCst) >= seq
    }

    /// Waits (bounded) until every registered thread other than `sender` is
    /// observed either acknowledging `seq` or `exempt`. `while_waiting` runs
    /// on every spin iteration so the waiter can service its *own* incoming
    /// pings — without it, two threads pinging each other concurrently would
    /// both burn their whole spin budget (a ping deadlock resolved only by
    /// the timeout).
    ///
    /// The wait backs off from spinning to yielding so that, on
    /// oversubscribed machines, a descheduled pingee gets the CPU it needs to
    /// reach its next hook site. The per-thread iteration count is bounded by
    /// `spin_limit >> strikes(tid)` (floored at one iteration): a peer that
    /// conceded the previous round gets half the window this round, so a
    /// permanently silent peer degrades to O(1) iterations per scan instead
    /// of head-of-line blocking every scan for the full budget. Departed
    /// slots are exempt outright. On any expiry the remaining peers are
    /// still *checked* (their acks observed, no further spinning — the round
    /// is conceded regardless) and only the expired peers are charged a
    /// strike.
    pub fn await_acks(
        &self,
        sender: usize,
        seq: u64,
        registry: &Registry,
        spin_limit: usize,
        exempt: impl Fn(usize) -> bool,
        mut while_waiting: impl FnMut(),
    ) -> PingOutcome {
        let mut conceded = false;
        let mut silent = 0u64;
        for tid in registry.active_tids() {
            if tid == sender {
                continue;
            }
            let slot = &self.slots[tid];
            let allowance = if conceded {
                // The round is already lost; observe this peer's state once
                // but do not grant it a spin window (and below, do not charge
                // it a strike for a window it never got).
                0
            } else {
                let strikes = slot.strikes.load(Ordering::SeqCst).min(63);
                (spin_limit >> strikes).max(1)
            };
            let mut backoff = crate::Backoff::new();
            let mut iterations = 0usize;
            loop {
                if slot.departed.load(Ordering::SeqCst) || exempt(tid) {
                    break;
                }
                if self.acked_at_least(tid, seq) {
                    break;
                }
                iterations += 1;
                if iterations > allowance {
                    if allowance > 0 {
                        let strikes = slot.strikes.fetch_add(1, Ordering::SeqCst) + 1;
                        trace::emit(sender, TraceKind::PingStrike, tid as u64, strikes);
                    }
                    conceded = true;
                    silent += 1;
                    break;
                }
                // Under the deterministic explorer this is the *only* way the
                // awaited pingee ever runs: the wait must yield the schedule.
                crate::check::preempt("ping.await-acks", tid);
                while_waiting();
                backoff.snooze();
            }
        }
        if conceded {
            trace::emit(sender, TraceKind::PingConceded, seq, silent);
            PingOutcome::TimedOut
        } else {
            PingOutcome::AllAcked
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chan(n: usize) -> (PingChannel, Registry) {
        (PingChannel::new(n, 0), Registry::new(n))
    }

    #[test]
    fn poll_sees_ping_once_after_ack() {
        let (ch, reg) = chan(2);
        reg.register_tid(0);
        reg.register_tid(1);
        assert_eq!(ch.poll(1), None, "no ping yet");
        let (seq, sent) = ch.ping_all(0, &reg);
        assert_eq!(sent, 1);
        assert_eq!(ch.poll(1), Some(seq));
        ch.ack(1, seq);
        assert_eq!(ch.poll(1), None, "ping must be consumed by the ack");
        assert_eq!(
            ch.await_acks(0, seq, &reg, 64, |_| false, || {}),
            PingOutcome::AllAcked
        );
    }

    #[test]
    fn silent_thread_times_out() {
        let (ch, reg) = chan(2);
        reg.register_tid(0);
        reg.register_tid(1);
        let (seq, _) = ch.ping_all(0, &reg);
        assert_eq!(
            ch.await_acks(0, seq, &reg, 32, |_| false, || {}),
            PingOutcome::TimedOut
        );
    }

    #[test]
    fn exempt_thread_needs_no_ack() {
        let (ch, reg) = chan(2);
        reg.register_tid(0);
        reg.register_tid(1);
        let (seq, _) = ch.ping_all(0, &reg);
        assert_eq!(
            ch.await_acks(0, seq, &reg, 32, |tid| tid == 1, || {}),
            PingOutcome::AllAcked
        );
    }

    #[test]
    fn reset_slot_catches_up_with_sequence() {
        let (ch, reg) = chan(4);
        reg.register_tid(0);
        ch.ping_all(0, &reg);
        ch.ping_all(0, &reg);
        // A thread registering later is not a straggler for old pings.
        reg.register_tid(1);
        ch.reset_slot(1);
        assert_eq!(ch.poll(1), None);
        assert_eq!(
            ch.await_acks(0, ch.current_seq(), &reg, 32, |_| false, || {}),
            PingOutcome::AllAcked
        );
    }

    #[test]
    fn concurrent_pings_coalesce_to_latest() {
        let (ch, reg) = chan(3);
        for t in 0..3 {
            reg.register_tid(t);
        }
        let (s1, _) = ch.ping_all(0, &reg);
        let (s2, _) = ch.ping_all(1, &reg);
        assert!(s2 > s1);
        // Thread 2 acks once, covering both broadcasts.
        let seen = ch.poll(2).expect("ping pending");
        assert_eq!(seen, s2);
        ch.ack(2, seen);
        assert!(ch.acked_at_least(2, s1));
        assert!(ch.acked_at_least(2, s2));
    }

    #[test]
    fn while_waiting_hook_runs() {
        let (ch, reg) = chan(2);
        reg.register_tid(0);
        reg.register_tid(1);
        let (seq, _) = ch.ping_all(0, &reg);
        let mut calls = 0usize;
        let outcome = ch.await_acks(0, seq, &reg, 16, |_| false, || calls += 1);
        assert_eq!(outcome, PingOutcome::TimedOut);
        assert!(calls > 0, "the waiter must get a chance to self-service");
    }

    #[test]
    fn black_holed_peer_window_decays_geometrically() {
        let (ch, reg) = chan(2);
        reg.register_tid(0);
        reg.register_tid(1);
        // Thread 1 never acks. Each conceded round halves the spin window the
        // next round grants it: full budget once, then geometrically less.
        let spin_limit = 64usize;
        let mut costs = Vec::new();
        for _ in 0..4 {
            let (seq, _) = ch.ping_all(0, &reg);
            let mut spins = 0usize;
            let outcome = ch.await_acks(0, seq, &reg, spin_limit, |_| false, || spins += 1);
            assert_eq!(outcome, PingOutcome::TimedOut);
            costs.push(spins);
        }
        assert_eq!(costs[0], spin_limit, "first round pays the full budget");
        for w in costs.windows(2) {
            assert!(
                w[1] <= w[0] / 2,
                "window must at least halve per conceded round: {costs:?}"
            );
        }
        assert_eq!(ch.strikes(1), 4);
        // An ack forgives the strikes: the peer gets a full window again.
        let (seq, _) = ch.ping_all(0, &reg);
        ch.ack(1, seq);
        assert_eq!(ch.strikes(1), 0);
        assert_eq!(
            ch.await_acks(0, seq, &reg, spin_limit, |_| false, || {}),
            PingOutcome::AllAcked
        );
    }

    #[test]
    fn departed_peer_costs_no_spins_and_no_pings() {
        let (ch, reg) = chan(3);
        reg.register_tid(0);
        reg.register_tid(1);
        reg.register_tid(2);
        ch.mark_departed(1);
        assert!(ch.is_departed(1));
        // Broadcast skips the departed slot entirely.
        let (seq, sent) = ch.ping_all(0, &reg);
        assert_eq!(sent, 1, "only the live peer is pinged");
        ch.ack(2, seq);
        let mut spins = 0usize;
        assert_eq!(
            ch.await_acks(0, seq, &reg, 64, |_| false, || spins += 1),
            PingOutcome::AllAcked,
            "a departed peer must not block the handshake"
        );
        assert_eq!(spins, 0, "no spin window is granted to a departed slot");
        // Re-registration of the slot clears the mark.
        ch.reset_slot(1);
        assert!(!ch.is_departed(1));
    }

    #[test]
    fn concession_still_observes_remaining_acks_without_spinning() {
        let (ch, reg) = chan(3);
        reg.register_tid(0);
        reg.register_tid(1);
        reg.register_tid(2);
        let (seq, _) = ch.ping_all(0, &reg);
        ch.ack(2, seq); // tid 2 acks, tid 1 stays silent
        assert_eq!(
            ch.await_acks(0, seq, &reg, 16, |_| false, || {}),
            PingOutcome::TimedOut
        );
        // Only the silent peer is charged; the peer that acked keeps a clean
        // record (an expired round must not poison live threads downstream).
        assert_eq!(ch.strikes(1), 1);
        assert_eq!(ch.strikes(2), 0);
    }

    #[test]
    fn ping_all_skips_sender_and_inactive() {
        let (ch, reg) = chan(8);
        reg.register_tid(0);
        reg.register_tid(3);
        reg.register_tid(5);
        let (_, sent) = ch.ping_all(3, &reg);
        assert_eq!(sent, 2);
    }
}
