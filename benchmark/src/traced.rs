//! `Traced<S>`: an [`Smr`] that forwards every item to an inner scheme,
//! counting every hook call and timing them as spans.
//!
//! The traced pass instantiates the *same* structures over `Traced<NbrPlus>`
//! and friends, so the layer boundary `ds → Smr hooks` is observed from the
//! benchmark's own files without touching the program. Inside a traced slice:
//!
//! * every hook call is counted;
//! * on a sampled op (every 61st) each per-op hook call (the bracket,
//!   `alloc`, `retire`, `validation_stamp`, …) is timed as a child span of
//!   the op span. The three *per-hop* hooks — `protect`, `checkpoint`,
//!   `protect_copy` — are counted into the op span, never timed: they cost
//!   1–8 ns, the clock pair around them 30, and a `list_read` op makes a
//!   thousand of them, so timing them multiplies the op by twenty and leaves
//!   its self time to the last decimal of a calibration constant. Their cost
//!   comes from the micro-loop (`core.per_hop_ns`) instead;
//! * an op's time *outside* its timed hooks is the op span minus its child
//!   spans; `ds` self time is that minus hops × the micro-loop's per-hop cost
//!   (`report`);
//! * the four hooks in which a workspace reclaimer can sweep its limbo bag
//!   (`begin_op` — DEBRA frees on observing a new epoch there — `end_op`,
//!   `retire`, `flush`) are timed on every call; a call across which
//!   `limbo_len` fell is a *scan call*.
//!
//! Transparency (`tests/transparent.rs`): the three associated consts are
//! re-exported and every defaulted method is forwarded explicitly — a missed
//! `alloc` would swap an interval scheme's stamp-after-pop override for the
//! trait default, a missed `validation_stamp` would silently disable the memo.

use crate::gen::OpKind;
use crate::histo::Histo;
use smr_common::{Atomic, Magazine, Shared, Smr, SmrConfig, SmrNode, ThreadStats};
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process (the trace's time base).
#[inline]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The `Smr` calls a data structure makes, as span names and counter indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Hook {
    BeginOp,
    BeginReadPhase,
    EndReadPhase,
    ClearProtections,
    EndOp,
    Checkpoint,
    Protect,
    ProtectCopy,
    ValidationStamp,
    Alloc,
    DeallocUnpublished,
    Retire,
    Flush,
}

pub const HOOKS: usize = Hook::Flush as usize + 1;

/// The fixed per-op bracket (`core.bracket_ns`, `baselines.bracket_ns.*`).
pub const BRACKET: [Hook; 5] = [
    Hook::BeginOp,
    Hook::BeginReadPhase,
    Hook::EndReadPhase,
    Hook::ClearProtections,
    Hook::EndOp,
];

impl Hook {
    pub fn name(self) -> &'static str {
        match self {
            Hook::BeginOp => "begin_op",
            Hook::BeginReadPhase => "begin_read_phase",
            Hook::EndReadPhase => "end_read_phase",
            Hook::ClearProtections => "clear_protections",
            Hook::EndOp => "end_op",
            Hook::Checkpoint => "checkpoint",
            Hook::Protect => "protect",
            Hook::ProtectCopy => "protect_copy",
            Hook::ValidationStamp => "validation_stamp",
            Hook::Alloc => "alloc",
            Hook::DeallocUnpublished => "dealloc_unpublished",
            Hook::Retire => "retire",
            Hook::Flush => "flush",
        }
    }
}

/// What a recorded span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    /// A sampled op, with the pointer hops (`protect` calls) it made.
    Op {
        kind: OpKind,
        hops: u32,
    },
    Hook(Hook),
    /// A `begin_op` / `end_op` / `retire` / `flush` call that swept the bag;
    /// `freed` records left it.
    Scan {
        via: Hook,
        freed: u32,
    },
}

/// One span: a name, start, duration, and the op span that caused it
/// (`op_id`; 0 for a scan call outside any sampled op). An op span and its
/// children share the identifier.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: SpanName,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub op_id: u32,
}

/// Spans kept per thread and slice (an op has a dozen children at most). The
/// buffer holds whole ops until the next one might not fit; the aggregates
/// below keep covering every sampled op after that.
const SPAN_CAP: usize = 8_192;
const SPAN_HEADROOM: usize = 64;

/// Per-thread counters, aggregates and spans of one traced slice.
pub struct Probe {
    /// Calls per hook, every op.
    pub calls: [u64; HOOKS],
    /// Inside a sampled op: time every per-op hook as a child span.
    timing: bool,
    /// `protect` calls so far when the current sampled op began.
    hops_at_begin: u64,
    /// The current sampled op's spans still fit the buffer.
    detail: bool,
    op_id: u32,
    child_ns: [u64; HOOKS],
    child_n: [u64; HOOKS],
    pub spans: Vec<Span>,
    /// Per op kind: the op span minus its timed hook spans (`ds` code plus
    /// the untimed per-hop hooks), and the pointer hops of those ops.
    pub outside_ns: [Histo; 3],
    pub sampled_hops: [u64; 3],
    /// Sum of the bracket hooks' time per sampled op.
    pub bracket_ns: Histo,
    /// `retire` calls that did not sweep.
    pub retire_fast_ns: Histo,
    /// Scan calls.
    pub scan_ns: Histo,
    pub scan_ns_total: u64,
    pub scan_freed: u64,
    /// Clock-pair cost inside a span, and a timed hook's whole cost as its
    /// parent span sees it ([`calibrate`]).
    cal: Calibration,
}

/// The two constants that turn measured spans into hook and self times.
#[derive(Debug, Clone, Copy, Default)]
pub struct Calibration {
    /// What a span around an empty body measures (`driver.clock_ns`).
    pub clock_ns: f64,
    /// What one timed empty hook adds to its parent span.
    pub child_ns: f64,
}

impl Probe {
    pub fn new(cal: Calibration) -> Self {
        Self {
            calls: [0; HOOKS],
            timing: false,
            hops_at_begin: 0,
            detail: false,
            op_id: 0,
            child_ns: [0; HOOKS],
            child_n: [0; HOOKS],
            spans: Vec::with_capacity(SPAN_CAP),
            outside_ns: Default::default(),
            sampled_hops: [0; 3],
            bracket_ns: Histo::default(),
            retire_fast_ns: Histo::default(),
            scan_ns: Histo::default(),
            scan_ns_total: 0,
            scan_freed: 0,
            cal,
        }
    }

    /// Pointer hops so far: one `protect` (and one `checkpoint`) each.
    fn hops(&self) -> u64 {
        self.calls[Hook::Protect as usize]
    }

    /// Opens a sampled op: from here until [`Probe::op_end`] every per-op
    /// hook call is a child span.
    #[inline]
    pub fn op_begin(&mut self) {
        self.timing = true;
        self.hops_at_begin = self.hops();
        self.detail = self.spans.len() + SPAN_HEADROOM <= SPAN_CAP;
        self.op_id += 1;
        self.child_ns = [0; HOOKS];
        self.child_n = [0; HOOKS];
    }

    /// Closes the sampled op whose span is `[start_ns, start_ns + dur_ns)`.
    pub fn op_end(&mut self, kind: OpKind, start_ns: u64, dur_ns: u64) {
        self.timing = false;
        let hops = self.hops() - self.hops_at_begin;
        self.sampled_hops[kind as usize] += hops;
        if self.detail {
            let hops = hops as u32;
            self.push(SpanName::Op { kind, hops }, start_ns, dur_ns);
        }
        let children: u64 = self.child_n.iter().sum();
        let measured: u64 = self.child_ns.iter().sum();
        // op span = self + Σ(hook_i + child_ns) + clock_ns, and a child
        // measures hook_i + clock_ns.
        let hooks = measured as f64 - children as f64 * self.cal.clock_ns;
        let outside =
            dur_ns as f64 - self.cal.clock_ns - hooks - children as f64 * self.cal.child_ns;
        self.outside_ns[kind as usize].record(outside.max(0.0) as u64);
        let bracket: f64 = BRACKET
            .iter()
            .map(|&h| {
                self.child_ns[h as usize] as f64
                    - self.child_n[h as usize] as f64 * self.cal.clock_ns
            })
            .sum();
        self.bracket_ns.record(bracket.max(0.0) as u64);
    }

    #[inline]
    fn push(&mut self, name: SpanName, start_ns: u64, dur_ns: u64) {
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                name,
                start_ns,
                dur_ns,
                op_id: if self.timing || matches!(name, SpanName::Op { .. }) {
                    self.op_id
                } else {
                    0
                },
            });
        }
    }

    #[inline]
    fn child(&mut self, hook: Hook, start_ns: u64, dur_ns: u64) {
        self.child_ns[hook as usize] += dur_ns;
        self.child_n[hook as usize] += 1;
        if self.detail {
            self.push(SpanName::Hook(hook), start_ns, dur_ns);
        }
    }

    /// Counts a per-hop hook call.
    #[inline]
    fn counted(&mut self, hook: Hook) {
        self.calls[hook as usize] += 1;
    }

    /// Counts `hook`, and inside a sampled op times `f` as a child span.
    #[inline]
    fn sampled<R>(&mut self, hook: Hook, f: impl FnOnce() -> R) -> R {
        self.calls[hook as usize] += 1;
        if !self.timing {
            return f();
        }
        let t0 = now_ns();
        let r = f();
        self.child(hook, t0, now_ns() - t0);
        r
    }

    /// Books a call of a hook that may sweep (timed on every call): `before`
    /// is the bag length going in (plus one for `retire`, which adds a
    /// record), `after` the length coming out.
    #[inline]
    fn after_sweeping(
        &mut self,
        hook: Hook,
        before: usize,
        after: usize,
        start_ns: u64,
        dur_ns: u64,
    ) {
        let freed = before.saturating_sub(after);
        let ns = (dur_ns as f64 - self.cal.clock_ns).max(0.0) as u64;
        if freed > 0 {
            self.scan_ns.record(ns);
            self.scan_ns_total += ns;
            self.scan_freed += freed as u64;
            self.push(
                SpanName::Scan {
                    via: hook,
                    freed: freed as u32,
                },
                start_ns,
                dur_ns,
            );
        } else if hook == Hook::Retire {
            self.retire_fast_ns.record(ns);
        }
        if self.timing {
            self.child(hook, start_ns, dur_ns);
        }
    }
}

/// Measures the two [`Calibration`] constants with the very wrapper the
/// hooks use, around an empty body: the mean of 2^20 spans (a mean, not a
/// median: the clock ticks in whole nanoseconds).
pub fn calibrate() -> Calibration {
    const N: u64 = 1 << 20;
    let mut p = Probe::new(Calibration::default());
    // Warm the clock path and the probe's lines.
    for _ in 0..N / 16 {
        p.timing = true;
        p.sampled(Hook::ValidationStamp, || std::hint::black_box(()));
    }
    p.child_ns = [0; HOOKS];
    let t0 = now_ns();
    for _ in 0..N {
        p.sampled(Hook::ValidationStamp, || std::hint::black_box(()));
    }
    let outer = now_ns() - t0;
    Calibration {
        clock_ns: p.child_ns[Hook::ValidationStamp as usize] as f64 / N as f64,
        child_ns: outer as f64 / N as f64,
    }
}

/// What the driver needs from a panel scheme beyond [`Smr`]: the sampled-op
/// span boundaries (no-ops for the plain schemes) and the slice's [`Probe`].
pub trait Instrument: Smr {
    #[inline]
    fn op_begin(_ctx: &mut Self::ThreadCtx) {}
    #[inline]
    fn op_end(_ctx: &mut Self::ThreadCtx, _kind: OpKind, _start_ns: u64, _dur_ns: u64) {}
    fn take_probe(_ctx: &mut Self::ThreadCtx) -> Option<Probe> {
        None
    }
}

impl Instrument for nbr::NbrPlus {}
impl Instrument for smr_baselines::Debra {}
impl Instrument for smr_baselines::HazardPointers {}
impl Instrument for smr_baselines::Leaky {}

/// Calibration handed to every `Traced` context registered afterwards.
static CALIBRATION: OnceLock<Calibration> = OnceLock::new();

/// Runs [`calibrate`] once per process and returns the result.
pub fn calibration() -> Calibration {
    *CALIBRATION.get_or_init(calibrate)
}

/// The forwarding adapter. See the module docs.
pub struct Traced<S: Smr> {
    inner: S,
}

/// `Traced<S>`'s thread context: the inner scheme's, plus the probe.
pub struct TracedCtx<S: Smr> {
    inner: S::ThreadCtx,
    probe: Probe,
}

impl<S: Smr> Traced<S> {
    /// Forwards a hook that may sweep the limbo bag, timing it on every call
    /// and reading the bag length on both sides. `staged` is 1 for `retire`.
    #[inline]
    fn sweeping<R>(
        &self,
        ctx: &mut TracedCtx<S>,
        hook: Hook,
        staged: usize,
        f: impl FnOnce(&S, &mut S::ThreadCtx) -> R,
    ) -> R {
        let before = self.inner.limbo_len(&ctx.inner) + staged;
        ctx.probe.calls[hook as usize] += 1;
        let t0 = now_ns();
        let r = f(&self.inner, &mut ctx.inner);
        let dur = now_ns() - t0;
        let after = self.inner.limbo_len(&ctx.inner);
        ctx.probe.after_sweeping(hook, before, after, t0, dur);
        r
    }
}

impl<S: Smr> Instrument for Traced<S> {
    #[inline]
    fn op_begin(ctx: &mut TracedCtx<S>) {
        ctx.probe.op_begin();
    }

    #[inline]
    fn op_end(ctx: &mut TracedCtx<S>, kind: OpKind, start_ns: u64, dur_ns: u64) {
        ctx.probe.op_end(kind, start_ns, dur_ns);
    }

    fn take_probe(ctx: &mut TracedCtx<S>) -> Option<Probe> {
        Some(std::mem::replace(&mut ctx.probe, Probe::new(calibration())))
    }
}

impl<S: Smr> Smr for Traced<S> {
    type ThreadCtx = TracedCtx<S>;

    const NAME: &'static str = S::NAME;
    const USES_PHASES: bool = S::USES_PHASES;
    const USES_PROTECTION: bool = S::USES_PROTECTION;
    const CAN_TRAVERSE_UNLINKED: bool = S::CAN_TRAVERSE_UNLINKED;

    fn new(config: SmrConfig) -> Self {
        Self {
            inner: S::new(config),
        }
    }

    fn config(&self) -> &SmrConfig {
        self.inner.config()
    }

    fn register(&self, tid: usize) -> TracedCtx<S> {
        TracedCtx {
            inner: self.inner.register(tid),
            probe: Probe::new(calibration()),
        }
    }

    fn unregister(&self, ctx: &mut TracedCtx<S>) {
        self.inner.unregister(&mut ctx.inner);
    }

    #[inline]
    fn begin_op(&self, ctx: &mut TracedCtx<S>) {
        self.sweeping(ctx, Hook::BeginOp, 0, |s, c| s.begin_op(c));
    }

    #[inline]
    fn end_op(&self, ctx: &mut TracedCtx<S>) {
        self.sweeping(ctx, Hook::EndOp, 0, |s, c| s.end_op(c));
    }

    #[inline]
    fn begin_read_phase(&self, ctx: &mut TracedCtx<S>) {
        let inner = &mut ctx.inner;
        ctx.probe
            .sampled(Hook::BeginReadPhase, || self.inner.begin_read_phase(inner));
    }

    #[inline]
    fn end_read_phase(&self, ctx: &mut TracedCtx<S>, reservations: &[usize]) {
        let inner = &mut ctx.inner;
        ctx.probe.sampled(Hook::EndReadPhase, || {
            self.inner.end_read_phase(inner, reservations)
        });
    }

    #[inline]
    fn checkpoint(&self, ctx: &mut TracedCtx<S>) -> bool {
        ctx.probe.counted(Hook::Checkpoint);
        self.inner.checkpoint(&mut ctx.inner)
    }

    #[inline]
    fn protect<T: SmrNode>(
        &self,
        ctx: &mut TracedCtx<S>,
        slot: usize,
        src: &Atomic<T>,
    ) -> Shared<T> {
        ctx.probe.counted(Hook::Protect);
        self.inner.protect(&mut ctx.inner, slot, src)
    }

    #[inline]
    fn protect_copy<T: SmrNode>(
        &self,
        ctx: &mut TracedCtx<S>,
        dst_slot: usize,
        src_slot: usize,
        ptr: Shared<T>,
    ) {
        ctx.probe.counted(Hook::ProtectCopy);
        self.inner
            .protect_copy(&mut ctx.inner, dst_slot, src_slot, ptr);
    }

    #[inline]
    fn clear_protections(&self, ctx: &mut TracedCtx<S>) {
        let inner = &mut ctx.inner;
        ctx.probe.sampled(Hook::ClearProtections, || {
            self.inner.clear_protections(inner)
        });
    }

    #[inline]
    fn global_era(&self) -> u64 {
        self.inner.global_era()
    }

    #[inline]
    fn validation_stamp(&self, ctx: &mut TracedCtx<S>) -> Option<u64> {
        let inner = &mut ctx.inner;
        ctx.probe
            .sampled(Hook::ValidationStamp, || self.inner.validation_stamp(inner))
    }

    #[inline]
    fn magazine_mut<'a>(&self, ctx: &'a mut TracedCtx<S>) -> Option<&'a mut Magazine> {
        self.inner.magazine_mut(&mut ctx.inner)
    }

    fn alloc<T: SmrNode>(&self, ctx: &mut TracedCtx<S>, value: T) -> Shared<T> {
        let inner = &mut ctx.inner;
        ctx.probe
            .sampled(Hook::Alloc, || self.inner.alloc(inner, value))
    }

    unsafe fn dealloc_unpublished<T: SmrNode>(&self, ctx: &mut TracedCtx<S>, ptr: Shared<T>) {
        let inner = &mut ctx.inner;
        // SAFETY: the caller's contract is forwarded unchanged.
        ctx.probe.sampled(Hook::DeallocUnpublished, || unsafe {
            self.inner.dealloc_unpublished(inner, ptr)
        });
    }

    unsafe fn retire<T: SmrNode>(&self, ctx: &mut TracedCtx<S>, ptr: Shared<T>) {
        // SAFETY: the caller's contract is forwarded unchanged.
        self.sweeping(ctx, Hook::Retire, 1, |s, c| unsafe { s.retire(c, ptr) });
    }

    fn flush(&self, ctx: &mut TracedCtx<S>) {
        self.sweeping(ctx, Hook::Flush, 0, |s, c| s.flush(c));
    }

    fn thread_stats(&self, ctx: &TracedCtx<S>) -> ThreadStats {
        self.inner.thread_stats(&ctx.inner)
    }

    fn thread_stats_mut<'a>(&self, ctx: &'a mut TracedCtx<S>) -> &'a mut ThreadStats {
        self.inner.thread_stats_mut(&mut ctx.inner)
    }

    fn limbo_len(&self, ctx: &TracedCtx<S>) -> usize {
        self.inner.limbo_len(&ctx.inner)
    }
}
