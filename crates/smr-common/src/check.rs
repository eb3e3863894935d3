//! The `smr-check` instrumentation layer: a shadow-heap lifetime oracle and
//! scheduler preemption hooks, compiled in only under the `check` cargo
//! feature.
//!
//! PR 5's marked-chain race survived four PRs of green tests because nothing
//! *watched the contracts*: a reclaimer that frees a record too early
//! corrupts memory silently, and the corruption surfaces (if ever) as an
//! unrelated assertion long after the cause. This module turns every
//! transition through the node-heap ABI into a checked event:
//!
//! * **Shadow heap** — every block handed out by `Smr::alloc` /
//!   [`recycle`](crate::recycle) is mirrored into a table keyed by address,
//!   tracking its incarnation (`Live → Retired → Freed`, then `Live` again
//!   when the block is re-issued), its birth/retire eras, and a per-block
//!   event history. Double retires, double frees, allocator re-issues of
//!   live blocks, and dereferences of freed blocks all panic immediately,
//!   at the instruction that committed them.
//! * **Protection-contract oracle** — each scheme mirrors its announcements
//!   into per-thread *claims*: hazard addresses (HP, HP-POP), per-slot era
//!   points (HE, WFE), an era interval (IBR), a pinned epoch
//!   (DEBRA, QSBR, RCU, EpochPOP), reservation addresses (NBR, NBR+). Every
//!   reclamation free (the single [`Retired`](crate::Retired) destroy
//!   funnel) is checked against *all* claims: freeing a record some thread's
//!   claims still cover is the premature free the scheme's own scan was
//!   supposed to rule out. The rules are conservative restatements of each
//!   family's published safety argument, so a correct scheme can never trip
//!   them (see DESIGN.md, "Checking the protection contracts").
//! * **Preemption hooks** — [`preempt`] is called from every instrumented
//!   shared-memory operation ([`Atomic`](crate::Atomic) loads/stores/CASes,
//!   ping polls and ack waits, claim updates). A registered [`Preemptor`]
//!   (the `smr-check` crate's deterministic scheduler) turns each call into
//!   a context-switch point; with none registered the call is a
//!   thread-local read.
//!
//! With the feature off every function in this module is an empty
//! `#[inline]` no-op, so the default build carries zero overhead (the
//! bench crate asserts [`compiled_in`] is false).
//!
//! # Sessions
//!
//! Checking is scoped to a [`Session`]: only blocks allocated while a
//! session is active are tracked, sessions are serialized process-wide (the
//! guard holds a global lock), and dropping the guard deactivates and clears
//! the shadow state. Tests drop the guard *before* tearing the structure
//! down so shutdown frees (orphan drains, `Drop` walks) are not checked
//! against claims of threads that no longer exist.

/// Whether the `check` feature is compiled into this build. The bench bins
/// assert this is `false` so instrumentation can never leak into a
/// measurement build.
#[inline]
pub const fn compiled_in() -> bool {
    cfg!(feature = "check")
}

/// A scheduler that turns [`preempt`] calls into context-switch points.
/// Implemented by `smr-check`'s deterministic explorer; registered per
/// worker thread via [`set_preemptor`].
pub trait Preemptor: Send + Sync {
    /// Called at every instrumented shared-memory operation. `point` is a
    /// static label ("atomic.load", "ping.poll", …) and `addr` the cell or
    /// record address involved (0 when not applicable). The implementation
    /// may block the calling thread until the scheduler selects it again.
    fn preempt(&self, point: &'static str, addr: usize);
}

#[cfg(feature = "check")]
pub use imp::*;

#[cfg(not(feature = "check"))]
pub use noop::*;

/// No-op stubs compiled when the `check` feature is off. Every hook is an
/// empty `#[inline(always)]` function, so call sites in the schemes and in
/// `Atomic`/`recycle`/`Retired` compile to nothing.
#[cfg(not(feature = "check"))]
mod noop {
    use super::Preemptor;
    use std::sync::Arc;

    /// See the `check`-enabled variant; no-op in this build.
    #[inline(always)]
    pub fn set_preemptor(_p: Option<Arc<dyn Preemptor>>) {}
    /// See the `check`-enabled variant; no-op in this build.
    #[inline(always)]
    pub fn set_current_tid(_tid: Option<usize>) {}
    /// See the `check`-enabled variant; no-op in this build.
    #[inline(always)]
    pub fn preempt(_point: &'static str, _addr: usize) {}
    /// See the `check`-enabled variant; no-op in this build.
    #[inline(always)]
    pub fn on_raw_alloc(_addr: usize) {}
    /// See the `check`-enabled variant; no-op in this build.
    #[inline(always)]
    pub fn on_node_alloc(_addr: usize, _birth_era: u64) {}
    /// See the `check`-enabled variant; no-op in this build.
    #[inline(always)]
    pub fn on_retire(_addr: usize, _birth_era: u64, _retire_era: u64) {}
    /// See the `check`-enabled variant; no-op in this build.
    #[inline(always)]
    pub fn on_reclaim(_addr: usize) {}
    /// See the `check`-enabled variant; no-op in this build.
    #[inline(always)]
    pub fn on_owner_free(_addr: usize) {}
    /// See the `check`-enabled variant; no-op in this build.
    #[inline(always)]
    pub fn assert_live(_addr: usize) {}
    /// See the `check`-enabled variant; no-op in this build.
    #[inline(always)]
    pub fn claim_addr(_tid: usize, _slot: usize, _addr: usize) {}
    /// See the `check`-enabled variant; no-op in this build.
    #[inline(always)]
    pub fn claim_era(_tid: usize, _slot: usize, _era: u64) {}
    /// See the `check`-enabled variant; no-op in this build.
    #[inline(always)]
    pub fn claim_interval(_tid: usize, _lower: u64, _upper: u64) {}
    /// See the `check`-enabled variant; no-op in this build.
    #[inline(always)]
    pub fn claim_reservations(_tid: usize, _addrs: &[usize]) {}
    /// See the `check`-enabled variant; no-op in this build.
    #[inline(always)]
    pub fn clear_claims(_tid: usize) {}
    /// See the `check`-enabled variant; no-op in this build.
    #[inline(always)]
    pub fn pin_epoch(_tid: usize, _epoch: u64) {}
    /// See the `check`-enabled variant; no-op in this build.
    #[inline(always)]
    pub fn unpin_epoch(_tid: usize) {}
}

#[cfg(feature = "check")]
mod imp {
    use super::Preemptor;
    use std::cell::{Cell, RefCell};
    use std::collections::BTreeMap;
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

    /// Fast gate: hooks bail with one load while no session is active.
    static ACTIVE: AtomicBool = AtomicBool::new(false);

    /// Serializes sessions process-wide (`cargo test` runs tests in
    /// parallel; the shadow state is a single global table).
    fn session_mutex() -> &'static Mutex<()> {
        static M: OnceLock<Mutex<()>> = OnceLock::new();
        M.get_or_init(|| Mutex::new(()))
    }

    fn state() -> MutexGuard<'static, ShadowState> {
        static S: OnceLock<Mutex<ShadowState>> = OnceLock::new();
        S.get_or_init(|| Mutex::new(ShadowState::default()))
            .lock()
            // A violation panics while the state lock is held; the poison
            // carries no torn invariants (every mutation completes before
            // the panic), so later sessions just take the state back.
            .unwrap_or_else(PoisonError::into_inner)
    }

    thread_local! {
        static CURRENT_TID: Cell<Option<usize>> = const { Cell::new(None) };
        static PREEMPTOR: RefCell<Option<Arc<dyn Preemptor>>> = const { RefCell::new(None) };
    }

    /// Tid used for events issued by a thread that never identified itself
    /// (e.g. the test harness thread outside any registered context).
    const NO_TID: usize = usize::MAX;

    /// Installs (or clears) the calling OS thread's scheduler hook. Worker
    /// threads of the deterministic explorer install their handle before
    /// running the scenario body and clear it on exit.
    pub fn set_preemptor(p: Option<Arc<dyn Preemptor>>) {
        PREEMPTOR.with(|cell| *cell.borrow_mut() = p);
    }

    /// Declares which *scheme* thread id the calling OS thread is currently
    /// acting as. Scripted tests drive several registered contexts from one
    /// OS thread and switch this around each step; explorer workers set it
    /// once.
    pub fn set_current_tid(tid: Option<usize>) {
        CURRENT_TID.with(|cell| cell.set(tid));
    }

    fn current_tid() -> usize {
        CURRENT_TID.with(|cell| cell.get()).unwrap_or(NO_TID)
    }

    /// A context-switch point. Forwards to the thread's registered
    /// [`Preemptor`] (which may park the thread until the deterministic
    /// scheduler selects it again); a plain thread-local read when none is
    /// registered. Never touches the shadow state, so it is safe to call
    /// with no locks held — and hooks call it *before* locking.
    #[inline]
    pub fn preempt(point: &'static str, addr: usize) {
        PREEMPTOR.with(|cell| {
            if let Some(p) = cell.borrow().as_ref() {
                p.preempt(point, addr);
            }
        });
    }

    // ------------------------------------------------------------------
    // Shadow state.
    // ------------------------------------------------------------------

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Lifecycle {
        Live,
        Retired,
        Freed,
    }

    #[derive(Debug)]
    struct BlockState {
        state: Lifecycle,
        /// Incarnation counter for this address (bumped on each re-issue).
        incarnation: u64,
        birth_era: u64,
        retire_era: u64,
        /// Retire era of the *previous* incarnation, for the
        /// incarnation-disjointness rule.
        prev_retire_era: Option<u64>,
        /// Per-block event history, appended to every transition; printed
        /// with the violation so the trace is replayable by eye.
        history: Vec<String>,
    }

    #[derive(Debug, Default)]
    struct ThreadClaims {
        /// Hazard-style address claims, by slot (HP, HP-POP, and
        /// `protect_copy` destinations).
        addrs: BTreeMap<usize, usize>,
        /// Era claims, by slot (HE, WFE). Each is a point: it covers the
        /// lifetimes that contain it, exactly what the point sweep keeps.
        eras: BTreeMap<usize, u64>,
        /// The announced era interval `[lower, upper]` (IBR).
        interval: Option<(u64, u64)>,
        /// Epoch the thread is pinned at (EBR/POP family), if inside an op.
        pin: Option<u64>,
        /// NBR-style reservation addresses announced by `end_read_phase`.
        reservations: Vec<usize>,
    }

    #[derive(Debug, Default)]
    struct ShadowState {
        session: Option<SessionData>,
    }

    #[derive(Debug, Default)]
    struct SessionData {
        label: String,
        /// Enforce `birth ≥ previous incarnation's retire era` on re-issued
        /// blocks (only meaningful for the interval schemes, whose `alloc`
        /// overrides stamp after the magazine pop; the default `alloc`
        /// stamps before it, which is benign for every scheme that uses it).
        birth_era_monotonic: bool,
        tripped: bool,
        violation: Option<Violation>,
        blocks: BTreeMap<usize, BlockState>,
        threads: BTreeMap<usize, ThreadClaims>,
        /// Global event ring (most recent last), included in violations.
        events: VecDeque<String>,
    }

    /// A detected contract violation: what rule fired, on which address,
    /// with the block's history and the most recent global events.
    #[derive(Debug, Clone)]
    pub struct Violation {
        /// Short machine-matchable rule name (e.g. `premature-free/hazard`).
        pub rule: String,
        /// Full human-readable description.
        pub message: String,
        /// The offending block's per-incarnation event history.
        pub block_history: Vec<String>,
        /// Tail of the global event ring at the time of the violation.
        pub recent_events: Vec<String>,
    }

    impl std::fmt::Display for Violation {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            writeln!(f, "[{}] {}", self.rule, self.message)?;
            writeln!(f, "  block history:")?;
            for e in &self.block_history {
                writeln!(f, "    {e}")?;
            }
            writeln!(f, "  recent events:")?;
            for e in &self.recent_events {
                writeln!(f, "    {e}")?;
            }
            Ok(())
        }
    }

    /// Options for [`begin_session`].
    #[derive(Debug, Clone, Default)]
    pub struct SessionConfig {
        /// Printed in every event/violation (scheme + scenario name).
        pub label: String,
        /// Enable the incarnation-disjointness rule (IBR/HE sessions only;
        /// see [`SessionData::birth_era_monotonic`]).
        pub birth_era_monotonic: bool,
    }

    /// An active checking session. Dropping it deactivates checking and
    /// clears the shadow state; the process-wide session lock is released.
    pub struct Session {
        _serial: MutexGuard<'static, ()>,
    }

    /// Starts a checking session. Blocks until any other session (in another
    /// test) has ended. All node-heap traffic between this call and the
    /// guard's drop is tracked and checked.
    pub fn begin_session(cfg: SessionConfig) -> Session {
        let serial = session_mutex()
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let mut st = state();
        st.session = Some(SessionData {
            label: cfg.label,
            birth_era_monotonic: cfg.birth_era_monotonic,
            ..SessionData::default()
        });
        ACTIVE.store(true, Ordering::SeqCst);
        Session { _serial: serial }
    }

    impl Drop for Session {
        fn drop(&mut self) {
            ACTIVE.store(false, Ordering::SeqCst);
            state().session = None;
        }
    }

    /// Takes the violation recorded by the current session, if any. The
    /// explorer calls this after catching a worker panic to attach the
    /// oracle's structured report to the schedule failure.
    pub fn take_violation() -> Option<Violation> {
        state().session.as_mut().and_then(|s| s.violation.take())
    }

    /// Whether a session is currently active (diagnostics).
    pub fn session_active() -> bool {
        ACTIVE.load(Ordering::SeqCst)
    }

    // ------------------------------------------------------------------
    // Internals.
    // ------------------------------------------------------------------

    const EVENT_RING: usize = 96;

    impl SessionData {
        fn note(&mut self, event: String) {
            if self.events.len() == EVENT_RING {
                self.events.pop_front();
            }
            self.events.push_back(event);
        }

        fn violate(&mut self, rule: &str, message: String, addr: usize) -> ! {
            self.tripped = true;
            let block_history = self
                .blocks
                .get(&addr)
                .map(|b| b.history.clone())
                .unwrap_or_default();
            let v = Violation {
                rule: rule.to_string(),
                message: format!("[{}] {message}", self.label),
                block_history,
                recent_events: self.events.iter().cloned().collect(),
            };
            let text = v.to_string();
            self.violation = Some(v);
            panic!("smr-check violation: {text}");
        }
    }

    /// Runs `f` on the active, untripped session (no-op otherwise). The
    /// tripped check makes a violation panic single-shot: unwinding drops
    /// contexts and structures whose teardown re-enters these hooks, and a
    /// second panic during unwind would abort the process.
    fn with_session(f: impl FnOnce(&mut SessionData)) {
        if !ACTIVE.load(Ordering::Relaxed) {
            return;
        }
        let mut st = state();
        if let Some(s) = st.session.as_mut() {
            if !s.tripped {
                f(s);
            }
        }
    }

    // ------------------------------------------------------------------
    // Node-heap lifecycle hooks.
    // ------------------------------------------------------------------

    /// A block left the node-heap ABI's allocation path (fresh from the
    /// global allocator or re-issued from a magazine/depot bin). Starts a
    /// new `Live` incarnation; re-issuing a block whose previous incarnation
    /// was not `Freed` is an allocator-level double-issue.
    pub fn on_raw_alloc(addr: usize) {
        with_session(|s| {
            let tid = current_tid();
            match s.blocks.get_mut(&addr) {
                Some(b) => {
                    if b.state != Lifecycle::Freed {
                        let st = b.state;
                        s.violate(
                            "allocator/reissued-live-block",
                            format!(
                                "block {addr:#x} re-issued by the allocator while its previous \
                                 incarnation is still {st:?}"
                            ),
                            addr,
                        );
                    }
                    b.incarnation += 1;
                    b.state = Lifecycle::Live;
                    b.prev_retire_era = Some(b.retire_era);
                    b.birth_era = 0;
                    b.retire_era = 0;
                    let inc = b.incarnation;
                    b.history.push(format!("alloc[inc {inc}] by t{tid}"));
                }
                None => {
                    s.blocks.insert(
                        addr,
                        BlockState {
                            state: Lifecycle::Live,
                            incarnation: 0,
                            birth_era: 0,
                            retire_era: 0,
                            prev_retire_era: None,
                            history: vec![format!("alloc[inc 0] by t{tid}")],
                        },
                    );
                }
            }
            s.note(format!("t{tid} alloc {addr:#x}"));
        });
    }

    /// `Smr::alloc` finished stamping the block's birth era (for the
    /// interval schemes: *after* the magazine pop). Also enforces the
    /// incarnation-disjointness rule when the session enables it: a
    /// re-issued block stamped with an era older than its previous
    /// incarnation's retire era gives one address two overlapping lifetime
    /// intervals — the pre-PR-5 stamp-before-pop bug `recycle_aba.rs` pins.
    pub fn on_node_alloc(addr: usize, birth_era: u64) {
        with_session(|s| {
            let tid = current_tid();
            let monotonic = s.birth_era_monotonic;
            if let Some(b) = s.blocks.get_mut(&addr) {
                b.birth_era = birth_era;
                b.history.push(format!("stamp birth={birth_era} by t{tid}"));
                if monotonic {
                    if let Some(prev) = b.prev_retire_era {
                        if birth_era < prev {
                            s.violate(
                                "recycle/overlapping-incarnations",
                                format!(
                                    "block {addr:#x} re-stamped with birth era {birth_era} < \
                                     previous incarnation's retire era {prev}: the two \
                                     lifetime intervals of one address overlap (stale \
                                     stamp-before-pop)"
                                ),
                                addr,
                            );
                        }
                    }
                }
            }
        });
    }

    /// A record entered limbo (the single `Retired::new` funnel).
    pub fn on_retire(addr: usize, birth_era: u64, retire_era: u64) {
        with_session(|s| {
            let tid = current_tid();
            s.note(format!(
                "t{tid} retire {addr:#x} [{birth_era}, {retire_era}]"
            ));
            if let Some(b) = s.blocks.get_mut(&addr) {
                match b.state {
                    Lifecycle::Live => {
                        b.state = Lifecycle::Retired;
                        b.birth_era = birth_era;
                        b.retire_era = retire_era;
                        b.history
                            .push(format!("retire [{birth_era}, {retire_era}] by t{tid}"));
                    }
                    Lifecycle::Retired => s.violate(
                        "lifecycle/double-retire",
                        format!("block {addr:#x} retired twice (single-retire rule)"),
                        addr,
                    ),
                    Lifecycle::Freed => s.violate(
                        "lifecycle/retire-after-free",
                        format!("block {addr:#x} retired after it was already freed"),
                        addr,
                    ),
                }
            }
        });
    }

    /// A reclamation scan is destroying the record (the single
    /// `destroy_erased` funnel). **This is the protection-contract check**:
    /// the scan just claimed no thread can still reach the record, so any
    /// standing claim covering it is a premature free.
    pub fn on_reclaim(addr: usize) {
        with_session(|s| {
            let tid = current_tid();
            s.note(format!("t{tid} reclaim {addr:#x}"));
            let Some(b) = s.blocks.get(&addr) else { return };
            match b.state {
                Lifecycle::Freed => s.violate(
                    "lifecycle/double-free",
                    format!("block {addr:#x} reclaimed twice"),
                    addr,
                ),
                Lifecycle::Live => s.violate(
                    "lifecycle/free-without-retire",
                    format!("block {addr:#x} reclaimed while still live (never retired)"),
                    addr,
                ),
                Lifecycle::Retired => {}
            }
            let (birth, retire) = (b.birth_era, b.retire_era);
            // The claims check proper. Each rule restates one family's
            // safety argument; threads that never issue a claim type are
            // vacuously compatible with its rule.
            let mut failure: Option<(String, String)> = None;
            for (&t, claims) in s.threads.iter() {
                if let Some(slot) = claims
                    .addrs
                    .iter()
                    .find_map(|(&slot, &a)| (a == addr).then_some(slot))
                {
                    failure = Some((
                        "premature-free/hazard".into(),
                        format!(
                            "record {addr:#x} freed while thread {t}'s hazard slot {slot} \
                             still covers its address"
                        ),
                    ));
                    break;
                }
                // The freeing thread's own reservations are exempt: the real
                // reclaimers skip the collector's slot
                // (`collect_reservations_into`), which is sound because the
                // write phase that reserved a record is the one that retired
                // it and will not dereference it again.
                if t != tid && claims.reservations.contains(&addr) {
                    failure = Some((
                        "premature-free/reservation".into(),
                        format!(
                            "record {addr:#x} freed while thread {t}'s NBR reservations \
                             still include its address"
                        ),
                    ));
                    break;
                }
                // Point membership, exactly the HE/WFE sweep's test: the
                // record survives iff some era lies in `[birth, retire]`.
                if let Some(e) = claims.eras.values().find(|&&e| birth <= e && e <= retire) {
                    failure = Some((
                        "premature-free/era-point".into(),
                        format!(
                            "record {addr:#x} (lifetime [{birth}, {retire}]) freed while \
                             thread {t}'s announced era {e} lies inside it"
                        ),
                    ));
                    break;
                }
                // Interval overlap, exactly IBR's sweep test: the record
                // survives iff `upper ≥ birth && lower ≤ retire`.
                if let Some((lo, up)) = claims.interval {
                    if up >= birth && lo <= retire {
                        failure = Some((
                            "premature-free/era-interval".into(),
                            format!(
                                "record {addr:#x} (lifetime [{birth}, {retire}]) freed while \
                                 thread {t}'s announced era interval [{lo}, {up}] overlaps it"
                            ),
                        ));
                        break;
                    }
                }
                if let Some(pin) = claims.pin {
                    if pin <= retire {
                        failure = Some((
                            "premature-free/pinned-epoch".into(),
                            format!(
                                "record {addr:#x} (retire era {retire}) freed while thread \
                                 {t} is pinned at epoch {pin} ≤ {retire}"
                            ),
                        ));
                        break;
                    }
                }
            }
            if let Some((rule, msg)) = failure {
                s.violate(&rule, msg, addr);
            }
            let b = s.blocks.get_mut(&addr).expect("checked above");
            b.state = Lifecycle::Freed;
            b.history.push(format!("reclaim by t{tid}"));
        });
    }

    /// An owner free outside the reclamation funnel: `dealloc_unpublished`
    /// (never-published record) or a data structure's `Drop` walking its
    /// still-linked nodes. No claims check — by contract no other thread
    /// ever saw (or can still reach) the record — but freeing a *retired*
    /// record this way means the limbo bag also owns it (double ownership).
    pub fn on_owner_free(addr: usize) {
        with_session(|s| {
            let tid = current_tid();
            s.note(format!("t{tid} owner-free {addr:#x}"));
            if let Some(b) = s.blocks.get_mut(&addr) {
                match b.state {
                    Lifecycle::Live => {
                        b.state = Lifecycle::Freed;
                        b.history.push(format!("owner-free by t{tid}"));
                    }
                    Lifecycle::Retired => s.violate(
                        "lifecycle/owner-free-of-retired",
                        format!(
                            "block {addr:#x} owner-freed while retired — the limbo bag \
                             still owns it and will free it again"
                        ),
                        addr,
                    ),
                    Lifecycle::Freed => s.violate(
                        "lifecycle/double-free",
                        format!("block {addr:#x} owner-freed twice"),
                        addr,
                    ),
                }
            }
        });
    }

    /// A guarded dereference (`Shared::deref` / `Shared::as_ref`). Freed
    /// blocks are the use-after-free the whole layer exists to catch; with
    /// the recycling pool compiled in, this read would otherwise return
    /// another record's bytes without any allocator-level fault.
    pub fn assert_live(addr: usize) {
        with_session(|s| {
            if let Some(b) = s.blocks.get(&addr) {
                if b.state == Lifecycle::Freed {
                    let tid = current_tid();
                    s.violate(
                        "use-after-free/deref",
                        format!("thread {tid} dereferenced freed block {addr:#x}"),
                        addr,
                    );
                }
            }
        });
    }

    // ------------------------------------------------------------------
    // Protection-claim hooks (one call per scheme announcement).
    // ------------------------------------------------------------------

    fn claims(s: &mut SessionData, tid: usize) -> &mut ThreadClaims {
        s.threads.entry(tid).or_default()
    }

    /// Thread `tid` announced (and, per the HP contract, validated) a
    /// hazard on `addr` in `slot`. `addr == 0` clears the slot.
    pub fn claim_addr(tid: usize, slot: usize, addr: usize) {
        with_session(|s| {
            let c = claims(s, tid);
            if addr == 0 {
                c.addrs.remove(&slot);
            } else {
                c.addrs.insert(slot, addr);
            }
            s.note(format!("t{tid} hazard[{slot}] = {addr:#x}"));
        });
    }

    /// Thread `tid` announced era `era` in `slot`. Each announced era
    /// protects the records whose lifetime contains it.
    pub fn claim_era(tid: usize, slot: usize, era: u64) {
        with_session(|s| {
            claims(s, tid).eras.insert(slot, era);
            s.note(format!("t{tid} era[{slot}] = {era}"));
        });
    }

    /// Thread `tid` announced the era interval `[lower, upper]`, replacing
    /// any previous one. It protects every lifetime it overlaps.
    pub fn claim_interval(tid: usize, lower: u64, upper: u64) {
        with_session(|s| {
            claims(s, tid).interval = Some((lower, upper));
            s.note(format!("t{tid} interval = [{lower}, {upper}]"));
        });
    }

    /// Thread `tid` announced its NBR write-phase reservations (replacing
    /// any previous set).
    pub fn claim_reservations(tid: usize, addrs: &[usize]) {
        with_session(|s| {
            let c = claims(s, tid);
            c.reservations.clear();
            c.reservations
                .extend(addrs.iter().map(|&a| a & !crate::atomic::TAG_MASK));
            s.note(format!("t{tid} reserve {} records", addrs.len()));
        });
    }

    /// Thread `tid` dropped all address/era/interval/reservation claims (op exit,
    /// `clear_protections`, deregistration). The epoch pin is separate —
    /// see [`unpin_epoch`].
    pub fn clear_claims(tid: usize) {
        with_session(|s| {
            let c = claims(s, tid);
            c.addrs.clear();
            c.eras.clear();
            c.interval = None;
            c.reservations.clear();
            s.note(format!("t{tid} clear claims"));
        });
    }

    /// Thread `tid` entered an operation pinned at `epoch` (EBR/POP family:
    /// the epoch it announced, or reads under, at `begin_op`).
    pub fn pin_epoch(tid: usize, epoch: u64) {
        with_session(|s| {
            claims(s, tid).pin = Some(epoch);
            s.note(format!("t{tid} pin epoch {epoch}"));
        });
    }

    /// Thread `tid` left its operation (quiescent).
    pub fn unpin_epoch(tid: usize) {
        with_session(|s| {
            claims(s, tid).pin = None;
            s.note(format!("t{tid} unpin"));
        });
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn session(label: &str) -> Session {
            begin_session(SessionConfig {
                label: label.to_string(),
                birth_era_monotonic: true,
            })
        }

        #[test]
        fn lifecycle_and_claims_catch_premature_free() {
            let guard = session("unit");
            set_current_tid(Some(0));
            on_raw_alloc(0x1000);
            on_node_alloc(0x1000, 5);
            on_retire(0x1000, 5, 9);
            // Reader 1 protects the address.
            claim_addr(1, 0, 0x1000);
            let err = std::panic::catch_unwind(|| on_reclaim(0x1000))
                .expect_err("freeing a hazard-covered record must trip the oracle");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("premature-free/hazard"), "got: {msg}");
            let v = take_violation().expect("violation recorded");
            assert_eq!(v.rule, "premature-free/hazard");
            assert!(!v.block_history.is_empty());
            set_current_tid(None);
            drop(guard);
        }

        /// Reclaims a record with lifetime `[10, 12]` under `claim` and
        /// returns the rule it tripped, if any.
        fn reclaim_rule_under(claim: impl FnOnce()) -> Option<String> {
            let guard = session("unit");
            set_current_tid(Some(0));
            on_raw_alloc(0x2000);
            on_node_alloc(0x2000, 10);
            on_retire(0x2000, 10, 12);
            claim();
            let tripped = std::panic::catch_unwind(|| on_reclaim(0x2000)).is_err();
            let rule = take_violation().map(|v| v.rule);
            assert_eq!(tripped, rule.is_some());
            set_current_tid(None);
            drop(guard);
            rule
        }

        #[test]
        fn era_point_rule_is_point_membership() {
            // Eras 9 and 14 bracket [10, 12] but neither lies inside it.
            let rule = reclaim_rule_under(|| {
                claim_era(1, 0, 9);
                claim_era(1, 1, 14);
            });
            assert_eq!(rule, None);
            let rule = reclaim_rule_under(|| {
                claim_era(1, 0, 9);
                claim_era(1, 1, 12);
            });
            assert_eq!(rule.as_deref(), Some("premature-free/era-point"));
        }

        #[test]
        fn era_interval_rule_is_interval_overlap() {
            // The interval [9, 14] contains [10, 12] although neither bound
            // lies inside it.
            let rule = reclaim_rule_under(|| claim_interval(1, 9, 14));
            assert_eq!(rule.as_deref(), Some("premature-free/era-interval"));
            let rule = reclaim_rule_under(|| claim_interval(1, 13, 15));
            assert_eq!(rule, None);
        }

        #[test]
        fn overlapping_incarnations_are_flagged() {
            let guard = session("unit");
            set_current_tid(Some(0));
            on_raw_alloc(0x3000);
            on_node_alloc(0x3000, 1);
            on_retire(0x3000, 1, 7);
            on_reclaim(0x3000);
            on_raw_alloc(0x3000); // re-issued
                                  // Stale stamp: birth 4 < previous retire 7.
            assert!(std::panic::catch_unwind(|| on_node_alloc(0x3000, 4)).is_err());
            assert_eq!(
                take_violation().expect("recorded").rule,
                "recycle/overlapping-incarnations"
            );
            set_current_tid(None);
            drop(guard);
        }

        #[test]
        fn deref_of_freed_block_is_use_after_free() {
            let guard = session("unit");
            set_current_tid(Some(0));
            on_raw_alloc(0x4000);
            on_node_alloc(0x4000, 0);
            assert_live(0x4000); // live: fine
            on_retire(0x4000, 0, 0);
            assert_live(0x4000); // retired-but-protected reads are legal
            on_reclaim(0x4000);
            assert!(std::panic::catch_unwind(|| assert_live(0x4000)).is_err());
            assert_eq!(
                take_violation().expect("recorded").rule,
                "use-after-free/deref"
            );
            set_current_tid(None);
            drop(guard);
        }

        #[test]
        fn pinned_epoch_blocks_frees_up_to_the_pin() {
            let guard = session("unit");
            set_current_tid(Some(0));
            on_raw_alloc(0x5000);
            on_node_alloc(0x5000, 3);
            on_retire(0x5000, 3, 6);
            pin_epoch(2, 6);
            assert!(std::panic::catch_unwind(|| on_reclaim(0x5000)).is_err());
            assert_eq!(
                take_violation().expect("recorded").rule,
                "premature-free/pinned-epoch"
            );
            drop(guard);

            let guard = session("unit2");
            set_current_tid(Some(0));
            on_raw_alloc(0x5000);
            on_node_alloc(0x5000, 3);
            on_retire(0x5000, 3, 6);
            pin_epoch(2, 7); // pinned *after* the retire: free is legal
            on_reclaim(0x5000);
            assert!(take_violation().is_none());
            set_current_tid(None);
            drop(guard);
        }
    }
}
