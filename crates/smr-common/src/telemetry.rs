//! Two-tier observability for the reclaimer matrix.
//!
//! The paper's whole argument is about *where time goes off the fast path* —
//! neutralization signals, restarts, reclamation pauses — yet throughput
//! means hide all of it. This module adds the missing axis in two tiers with
//! very different cost budgets:
//!
//! * **Tier 1 — always on, measurement-grade.** [`Histo`] is a per-thread
//!   log2-bucketed latency histogram: recording is one `ilog2` plus two
//!   increments on thread-private memory, no locks, no allocation, no
//!   atomics. A [`Telemetry`] bundle of five histograms (operation latency,
//!   scan duration, ping round-trips, conceded-ping stalls, WFE helping
//!   slow-path entries) rides inside [`ThreadStats`](crate::ThreadStats),
//!   so it merges across threads exactly the way every other counter does
//!   and surfaces as p50/p99/p999/max per benchmark cell. The only
//!   `Instant::now()` calls sit on paths that are already slow (scans,
//!   handshakes) or are sampled (1-in-61 operations in the harness).
//! * **Tier 2 — feature-gated `trace`.** Per-thread bounded event rings
//!   capturing the reclamation lifecycle (scan begin/end, ping
//!   sent/acked/conceded/strike, orphan adoption, era advances, injected
//!   faults), drained into a Chrome-trace/Perfetto-loadable JSON timeline.
//!   With the feature off every emit is an inline no-op, mirroring the
//!   [`check`](crate::check) pattern: the bench bins assert
//!   [`trace_compiled_in`] is `false` so tracing can never leak into a
//!   measurement build.

use std::ops::AddAssign;
use std::time::Instant;

/// Number of log2 buckets in a [`Histo`]: one per possible `ilog2` of a
/// `u64`, so any nanosecond value has a bucket.
pub const HISTO_BUCKETS: usize = 64;

/// A fixed-size log2-bucketed histogram of `u64` samples (nanoseconds, by
/// convention).
///
/// Bucket `i` holds samples whose value `v` satisfies `v.max(1).ilog2() == i`,
/// i.e. `v ∈ [2^i, 2^(i+1))` (bucket 0 additionally holds 0). Percentile
/// queries return the bucket's *upper* bound clamped to the exact observed
/// maximum, so for any recorded sample `v` at rank `r`, `percentile(r)` lies
/// in `[v, 2v + 1]` — a guaranteed ≤2× over-estimate, never an
/// under-estimate, which is the right bias for tail-latency reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histo {
    buckets: [u64; HISTO_BUCKETS],
    count: u64,
    max: u64,
}

impl Default for Histo {
    fn default() -> Self {
        Self {
            buckets: [0; HISTO_BUCKETS],
            count: 0,
            max: 0,
        }
    }
}

impl Histo {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index a value lands in.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        value.max(1).ilog2() as usize
    }

    /// Inclusive lower bound of bucket `i`.
    pub fn bucket_lower(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << i
        }
    }

    /// Inclusive upper bound of bucket `i`.
    pub fn bucket_upper(i: usize) -> u64 {
        if i >= HISTO_BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << (i + 1)) - 1
        }
    }

    /// Records one sample. The entire fast path: an `ilog2`, two increments
    /// and a max on thread-private memory.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact maximum recorded sample (0 when empty).
    #[inline]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Whether any sample was recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The raw bucket counts (diagnostics/tests).
    pub fn buckets(&self) -> &[u64; HISTO_BUCKETS] {
        &self.buckets
    }

    /// The quantile-`q` sample value (`q ∈ [0, 1]`), as the covering bucket's
    /// upper bound clamped to the observed maximum. 0 when empty. Monotone in
    /// `q`; `percentile(1.0) == max()`.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Self::bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Shorthand for the three percentiles the reports print.
    pub fn p50_p99_p999(&self) -> (u64, u64, u64) {
        (
            self.percentile(0.50),
            self.percentile(0.99),
            self.percentile(0.999),
        )
    }
}

impl AddAssign for Histo {
    fn add_assign(&mut self, rhs: Self) {
        for (a, b) in self.buckets.iter_mut().zip(rhs.buckets.iter()) {
            *a += *b;
        }
        self.count += rhs.count;
        self.max = self.max.max(rhs.max);
    }
}

/// The tier-1 histogram bundle carried inside every thread's
/// [`ThreadStats`](crate::ThreadStats). All values are nanoseconds.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Telemetry {
    /// Data-structure operation latency (sampled 1-in-61 by the harness).
    pub op: Histo,
    /// Reclamation scan duration (watermark, heartbeat and epoch scans).
    pub scan: Histo,
    /// Successful ping/neutralization round-trips (broadcast → all acked).
    pub ping_rtt: Histo,
    /// Conceded handshake rounds: time burnt waiting before giving up on a
    /// silent peer (the stall an unresponsive thread inflicts on reclaimers).
    pub ping_stall: Histo,
    /// WFE helping slow-path entries (`protect_slow` duration).
    pub help_slow: Histo,
}

impl AddAssign for Telemetry {
    fn add_assign(&mut self, rhs: Self) {
        self.op += rhs.op;
        self.scan += rhs.scan;
        self.ping_rtt += rhs.ping_rtt;
        self.ping_stall += rhs.ping_stall;
        self.help_slow += rhs.help_slow;
    }
}

/// A started wall-clock timer (thin wrapper so call sites never touch
/// `std::time` directly).
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts the timer.
    #[inline]
    pub fn start() -> Self {
        Self(Instant::now())
    }

    /// Nanoseconds elapsed since [`Stopwatch::start`], saturated to `u64`.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        let d = self.0.elapsed();
        d.as_secs()
            .saturating_mul(1_000_000_000)
            .saturating_add(u64::from(d.subsec_nanos()))
    }
}

/// `Some(started timer)` when `enabled`, `None` otherwise — for sampled
/// timing: an unsampled call site skips both `Instant::now()` calls and the
/// histogram store.
#[inline]
pub fn stopwatch_if(enabled: bool) -> Option<Stopwatch> {
    if enabled {
        Some(Stopwatch::start())
    } else {
        None
    }
}

/// Whether the tier-2 `trace` feature is compiled into this build. The
/// measurement bins assert this is `false` (mirroring
/// [`check::compiled_in`](crate::check::compiled_in)); the `trace` bin
/// asserts it is `true`.
#[inline]
pub const fn trace_compiled_in() -> bool {
    cfg!(feature = "trace")
}

pub use trace::{Event, TraceKind};

/// Tier 2: the reclamation-lifecycle event trace.
///
/// Call sites emit unconditionally; with the `trace` feature off every emit
/// is an inline empty function so the default build carries zero overhead.
/// With it on, events go to per-thread bounded rings (oldest-overwritten)
/// and are drained, timestamp-sorted, by [`trace::end`]; render with
/// [`trace::to_chrome_json`] and load the result in Perfetto or
/// `chrome://tracing`.
pub mod trace {
    /// What happened. The `a`/`b` payload words of an [`Event`] are
    /// documented per variant.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TraceKind {
        /// A reclamation scan started. `a` = limbo-bag length.
        ScanBegin,
        /// The scan finished. `a` = records freed.
        ScanEnd,
        /// Ping broadcast sent. `a` = sequence number, `b` = pings delivered.
        PingSent,
        /// Ping acknowledged by its receiver. `a` = sequence number.
        PingAcked,
        /// The sender conceded the round. `a` = sequence number, `b` =
        /// peers still silent at concession.
        PingConceded,
        /// A silent peer was charged a strike. `a` = victim tid, `b` = its
        /// strike count after the charge.
        PingStrike,
        /// A read phase was neutralized (restart taken). `a` = sequence
        /// number acknowledged.
        Neutralized,
        /// A retire pushed the limbo bag across the HiWatermark. `a` = bag
        /// length, `b` = watermark.
        LimboHigh,
        /// Orphaned records were adopted from a departed thread. `a` =
        /// records adopted.
        OrphanAdopt,
        /// The global era/epoch advanced. `a` = new value.
        EraAdvance,
        /// WFE helping slow path entered. `a` = hazard slot.
        HelpSlowBegin,
        /// WFE helping slow path left.
        HelpSlowEnd,
        /// Injected stall fault fired (victim parks in a read phase). `a` =
        /// park budget in global ops.
        FaultStall,
        /// Injected black-hole fault fired (parks *and* ignores pings).
        /// `a` = park budget in global ops.
        FaultBlackhole,
        /// The parked victim resumed. `a` = 0 for stall, 1 for black hole.
        FaultParkEnd,
        /// Injected departure fired (unregister without quiescing). `a` =
        /// the victim's local op count.
        FaultDepart,
        /// A scan trigger found a peer's scan mid-flight and published its
        /// limbo bag to the combiner instead. `a` = records published.
        CombinePublish,
        /// The active scanner adopted published peer bags at its prologue.
        /// `a` = records adopted, `b` = bags.
        CombineAdopt,
    }

    /// One traced event.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Event {
        /// Nanoseconds since the trace epoch ([`begin`]).
        pub ts_ns: u64,
        /// Scheme thread id the event is attributed to.
        pub tid: u32,
        /// What happened.
        pub kind: TraceKind,
        /// First payload word (see [`TraceKind`]).
        pub a: u64,
        /// Second payload word (see [`TraceKind`]).
        pub b: u64,
    }

    #[cfg(feature = "trace")]
    pub use imp::{armed, begin, dropped, emit, end};

    #[cfg(not(feature = "trace"))]
    pub use noop::{armed, begin, dropped, emit, end};

    /// No-op stubs compiled when the `trace` feature is off: every emit in
    /// the schemes and the harness compiles to nothing.
    #[cfg(not(feature = "trace"))]
    mod noop {
        use super::{Event, TraceKind};

        /// See the `trace`-enabled variant; no-op in this build.
        #[inline(always)]
        pub fn begin(_capacity_per_thread: usize) {}
        /// See the `trace`-enabled variant; no-op in this build.
        #[inline(always)]
        pub fn emit(_tid: usize, _kind: TraceKind, _a: u64, _b: u64) {}
        /// See the `trace`-enabled variant; always empty in this build.
        #[inline(always)]
        pub fn end() -> Vec<Event> {
            Vec::new()
        }
        /// See the `trace`-enabled variant; always false in this build.
        #[inline(always)]
        pub fn armed() -> bool {
            false
        }
        /// See the `trace`-enabled variant; always 0 in this build.
        #[inline(always)]
        pub fn dropped() -> u64 {
            0
        }
    }

    #[cfg(feature = "trace")]
    mod imp {
        use super::{Event, TraceKind};
        use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
        use std::sync::{Mutex, OnceLock, PoisonError};
        use std::time::Instant;

        /// Ring slots are fixed: scheme tids are registry slots, bounded by
        /// `SmrConfig::max_threads` (≤ 64 everywhere in the workspace).
        const MAX_TIDS: usize = 256;

        struct Ring {
            buf: Vec<Event>,
            next: usize,
        }

        static ARMED: AtomicBool = AtomicBool::new(false);
        static CAP: AtomicUsize = AtomicUsize::new(0);
        static DROPPED: AtomicU64 = AtomicU64::new(0);

        fn epoch() -> Instant {
            static E: OnceLock<Instant> = OnceLock::new();
            *E.get_or_init(Instant::now)
        }

        fn rings() -> &'static [Mutex<Ring>] {
            static R: OnceLock<Vec<Mutex<Ring>>> = OnceLock::new();
            R.get_or_init(|| {
                (0..MAX_TIDS)
                    .map(|_| {
                        Mutex::new(Ring {
                            buf: Vec::new(),
                            next: 0,
                        })
                    })
                    .collect()
            })
        }

        /// Arms tracing: clears all rings and starts accepting up to
        /// `capacity_per_thread` buffered events per thread (oldest
        /// overwritten beyond that).
        pub fn begin(capacity_per_thread: usize) {
            let _ = epoch();
            for r in rings() {
                let mut r = r.lock().unwrap_or_else(PoisonError::into_inner);
                r.buf.clear();
                r.next = 0;
            }
            DROPPED.store(0, Ordering::SeqCst);
            CAP.store(capacity_per_thread.max(1), Ordering::SeqCst);
            ARMED.store(true, Ordering::SeqCst);
        }

        /// Whether tracing is currently armed.
        pub fn armed() -> bool {
            ARMED.load(Ordering::SeqCst)
        }

        /// Events overwritten since [`begin`] because a ring was full.
        pub fn dropped() -> u64 {
            DROPPED.load(Ordering::SeqCst)
        }

        /// Records one event into the calling scheme-thread's ring. Cheap
        /// but not free (a clock read and an uncontended per-tid lock) —
        /// tier 2 is for *seeing* executions, never for measuring them.
        pub fn emit(tid: usize, kind: TraceKind, a: u64, b: u64) {
            if !ARMED.load(Ordering::Relaxed) {
                return;
            }
            let d = epoch().elapsed();
            let ts_ns = d
                .as_secs()
                .saturating_mul(1_000_000_000)
                .saturating_add(u64::from(d.subsec_nanos()));
            let e = Event {
                ts_ns,
                tid: (tid % MAX_TIDS) as u32,
                kind,
                a,
                b,
            };
            let mut ring = rings()[tid % MAX_TIDS]
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let cap = CAP.load(Ordering::Relaxed);
            if ring.buf.len() < cap {
                ring.buf.push(e);
            } else {
                let at = ring.next;
                ring.buf[at] = e;
                ring.next = (at + 1) % cap;
                DROPPED.fetch_add(1, Ordering::Relaxed);
            }
        }

        /// Disarms tracing and drains every ring, returning all buffered
        /// events sorted by timestamp.
        pub fn end() -> Vec<Event> {
            ARMED.store(false, Ordering::SeqCst);
            let mut all = Vec::new();
            for r in rings() {
                let mut r = r.lock().unwrap_or_else(PoisonError::into_inner);
                all.append(&mut r.buf);
                r.next = 0;
            }
            all.sort_by_key(|e| e.ts_ns);
            all
        }
    }

    impl TraceKind {
        /// Chrome Trace Event Format phase: `B`/`E` bracket pairs for
        /// durations, `i` for instants.
        fn phase(self) -> char {
            match self {
                TraceKind::ScanBegin
                | TraceKind::HelpSlowBegin
                | TraceKind::FaultStall
                | TraceKind::FaultBlackhole => 'B',
                TraceKind::ScanEnd | TraceKind::HelpSlowEnd | TraceKind::FaultParkEnd => 'E',
                _ => 'i',
            }
        }

        /// Display name. `B`/`E` pairs must agree, so `FaultParkEnd` names
        /// itself from its payload (`a` = 0 stall, 1 black hole).
        fn name(self, a: u64) -> &'static str {
            match self {
                TraceKind::ScanBegin | TraceKind::ScanEnd => "scan",
                TraceKind::PingSent => "ping-sent",
                TraceKind::PingAcked => "ping-acked",
                TraceKind::PingConceded => "ping-conceded",
                TraceKind::PingStrike => "ping-strike",
                TraceKind::Neutralized => "neutralized",
                TraceKind::LimboHigh => "limbo-high",
                TraceKind::OrphanAdopt => "orphan-adopt",
                TraceKind::EraAdvance => "era-advance",
                TraceKind::HelpSlowBegin | TraceKind::HelpSlowEnd => "help-slow",
                TraceKind::FaultStall => "fault:stall",
                TraceKind::FaultBlackhole => "fault:blackhole",
                TraceKind::FaultParkEnd => {
                    if a == 0 {
                        "fault:stall"
                    } else {
                        "fault:blackhole"
                    }
                }
                TraceKind::FaultDepart => "fault:depart",
                TraceKind::CombinePublish => "combine-publish",
                TraceKind::CombineAdopt => "combine-adopt",
            }
        }

        /// Names for the two payload words in the JSON `args` object.
        fn arg_names(self) -> (&'static str, &'static str) {
            match self {
                TraceKind::ScanBegin => ("limbo", "_"),
                TraceKind::ScanEnd => ("freed", "_"),
                TraceKind::PingSent => ("seq", "sent"),
                TraceKind::PingAcked => ("seq", "_"),
                TraceKind::PingConceded => ("seq", "silent"),
                TraceKind::PingStrike => ("victim", "strikes"),
                TraceKind::Neutralized => ("seq", "_"),
                TraceKind::LimboHigh => ("len", "watermark"),
                TraceKind::OrphanAdopt => ("records", "_"),
                TraceKind::EraAdvance => ("era", "_"),
                TraceKind::HelpSlowBegin | TraceKind::HelpSlowEnd => ("slot", "_"),
                TraceKind::FaultStall | TraceKind::FaultBlackhole => ("for_ops", "_"),
                TraceKind::FaultParkEnd => ("blackhole", "_"),
                TraceKind::FaultDepart => ("at_op", "_"),
                TraceKind::CombinePublish => ("records", "_"),
                TraceKind::CombineAdopt => ("records", "bags"),
            }
        }
    }

    /// Renders events as a Chrome Trace Event Format JSON object
    /// (`{"traceEvents": [...]}`), loadable by Perfetto and
    /// `chrome://tracing`. Timestamps are microseconds; each scheme tid is
    /// one timeline row.
    pub fn to_chrome_json(events: &[Event]) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(events.len() * 96 + 64);
        out.push_str("{\"traceEvents\":[\n");
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let ph = e.kind.phase();
            let ts_us = e.ts_ns as f64 / 1_000.0;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"{}\",\"ts\":{:.3},\"pid\":1,\"tid\":{}",
                e.kind.name(e.a),
                ph,
                ts_us,
                e.tid
            );
            if ph == 'i' {
                out.push_str(",\"s\":\"t\"");
            }
            let (an, bn) = e.kind.arg_names();
            let _ = write!(out, ",\"args\":{{\"{}\":{}", an, e.a);
            if bn != "_" {
                let _ = write!(out, ",\"{}\":{}", bn, e.b);
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(Histo::bucket_index(0), 0);
        assert_eq!(Histo::bucket_index(1), 0);
        assert_eq!(Histo::bucket_index(2), 1);
        assert_eq!(Histo::bucket_index(3), 1);
        assert_eq!(Histo::bucket_index(4), 2);
        assert_eq!(Histo::bucket_index(1023), 9);
        assert_eq!(Histo::bucket_index(1024), 10);
        assert_eq!(Histo::bucket_index(u64::MAX), 63);
        for i in 0..HISTO_BUCKETS {
            assert_eq!(Histo::bucket_index(Histo::bucket_lower(i).max(1)), i);
            assert_eq!(Histo::bucket_index(Histo::bucket_upper(i)), i);
        }
        assert_eq!(Histo::bucket_lower(0), 0);
        assert_eq!(Histo::bucket_upper(0), 1);
        assert_eq!(Histo::bucket_lower(10), 1024);
        assert_eq!(Histo::bucket_upper(10), 2047);
        assert_eq!(Histo::bucket_upper(63), u64::MAX);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histo::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.percentile(1.0), 0);
    }

    #[test]
    fn percentiles_bracket_the_samples() {
        let mut h = Histo::new();
        // 100 samples: 1..=100.
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.max(), 100);
        // percentile(q) must be >= the true q-th sample and <= 2x it + 1.
        for (q, truth) in [(0.5, 50u64), (0.99, 99), (0.999, 100), (1.0, 100)] {
            let p = h.percentile(q);
            assert!(p >= truth, "p{q} = {p} < true {truth}");
            assert!(p <= 2 * truth + 1, "p{q} = {p} > 2x true {truth}");
        }
        assert_eq!(h.percentile(1.0), 100);
    }

    #[test]
    fn percentiles_are_monotone_in_q() {
        let mut h = Histo::new();
        for v in [3u64, 17, 17, 180, 950, 12_000, 12_000, 500_000, 1 << 33] {
            h.record(v);
        }
        let qs = [0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0];
        let mut prev = 0u64;
        for q in qs {
            let p = h.percentile(q);
            assert!(p >= prev, "percentile({q}) = {p} < previous {prev}");
            prev = p;
        }
        assert_eq!(h.percentile(1.0), h.max());
    }

    #[test]
    fn merge_is_commutative_and_counts_add() {
        let mut a = Histo::new();
        let mut b = Histo::new();
        for v in [1u64, 5, 900, 64_000] {
            a.record(v);
        }
        for v in [2u64, 2, 1 << 40] {
            b.record(v);
        }
        let mut ab = a;
        ab += b;
        let mut ba = b;
        ba += a;
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), 7);
        assert_eq!(ab.max(), 1 << 40);
    }

    #[test]
    fn telemetry_bundle_merges_fieldwise() {
        let mut t1 = Telemetry::default();
        t1.op.record(100);
        t1.scan.record(9_000);
        let mut t2 = Telemetry::default();
        t2.op.record(200);
        t2.ping_stall.record(77);
        t1 += t2;
        assert_eq!(t1.op.count(), 2);
        assert_eq!(t1.scan.count(), 1);
        assert_eq!(t1.ping_stall.count(), 1);
        assert_eq!(t1.help_slow.count(), 0);
    }

    #[test]
    fn stopwatch_if_respects_the_bypass() {
        assert!(stopwatch_if(false).is_none());
        let sw = stopwatch_if(true).expect("enabled");
        assert!(sw.elapsed_ns() < 1_000_000_000);
    }

    #[test]
    fn trace_noops_unless_feature_enabled() {
        // In the default build these are all inline no-ops; under
        // `--features trace` they must round-trip events instead. Both
        // behaviours are covered so the test is meaningful either way.
        trace::begin(16);
        trace::emit(3, TraceKind::ScanBegin, 42, 0);
        trace::emit(3, TraceKind::ScanEnd, 40, 0);
        let events = trace::end();
        if trace_compiled_in() {
            assert_eq!(events.len(), 2);
            assert_eq!(events[0].kind, TraceKind::ScanBegin);
            assert_eq!(events[0].tid, 3);
            assert_eq!(events[0].a, 42);
            assert!(events[0].ts_ns <= events[1].ts_ns);
        } else {
            assert!(events.is_empty());
            assert!(!trace::armed());
        }
    }

    #[test]
    fn trace_rings_are_bounded() {
        if !trace_compiled_in() {
            return;
        }
        trace::begin(4);
        for i in 0..10 {
            trace::emit(0, TraceKind::PingAcked, i, 0);
        }
        let events = trace::end();
        assert_eq!(events.len(), 4, "ring must cap at its capacity");
        assert!(trace::dropped() >= 6);
    }

    #[test]
    fn chrome_json_shape_is_loadable() {
        let events = vec![
            Event {
                ts_ns: 1_500,
                tid: 0,
                kind: TraceKind::ScanBegin,
                a: 128,
                b: 0,
            },
            Event {
                ts_ns: 2_000,
                tid: 1,
                kind: TraceKind::PingSent,
                a: 7,
                b: 3,
            },
            Event {
                ts_ns: 9_500,
                tid: 0,
                kind: TraceKind::ScanEnd,
                a: 100,
                b: 0,
            },
        ];
        let json = trace::to_chrome_json(&events);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        assert!(json.contains("\"name\":\"scan\",\"ph\":\"B\",\"ts\":1.500"));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"name\":\"ping-sent\",\"ph\":\"i\""));
        assert!(json.contains("\"s\":\"t\""));
        assert!(json.contains("\"args\":{\"seq\":7,\"sent\":3}"));
        // Balanced braces/brackets (cheap well-formedness proxy; the
        // Perfetto load is exercised by the CI trace-smoke step).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn fault_park_end_names_match_their_begin() {
        let events = vec![
            Event {
                ts_ns: 10,
                tid: 2,
                kind: TraceKind::FaultBlackhole,
                a: 2048,
                b: 0,
            },
            Event {
                ts_ns: 90,
                tid: 2,
                kind: TraceKind::FaultParkEnd,
                a: 1,
                b: 0,
            },
        ];
        let json = trace::to_chrome_json(&events);
        assert_eq!(json.matches("\"name\":\"fault:blackhole\"").count(), 2);
    }
}
