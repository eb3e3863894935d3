//! The reclamation-lifecycle event trace, feature-gated behind `trace`.
//!
//! The paper's argument is about *where time goes off the fast path* —
//! neutralization signals, restarts, reclamation pauses — and "who stalled
//! whom" is a question about one execution, not an average. This module
//! answers it: per-thread bounded event rings capture the reclamation
//! lifecycle (scan begin/end, ping sent/acked/conceded/strike, orphan
//! adoption, era advances, injected faults), drained by [`end`] into a
//! timestamp-sorted list that [`to_chrome_json`] renders for Perfetto or
//! `chrome://tracing`. Latency and throughput numbers come from the standing
//! benchmark, never from here.
//!
//! Call sites emit unconditionally. With the feature off every emit is an
//! inline empty function, mirroring the [`check`](crate::check) pattern: the
//! `stress` and `applicability` bins assert [`compiled_in`] is `false` so
//! tracing can never leak into their builds; the `trace` bin asserts it is
//! `true`.

/// Whether the `trace` feature is compiled into this build (mirroring
/// [`check::compiled_in`](crate::check::compiled_in)).
#[inline]
pub const fn compiled_in() -> bool {
    cfg!(feature = "trace")
}

/// What happened. The `a`/`b` payload words of an [`Event`] are documented
/// per variant.
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
    /// The sender conceded the round. `a` = sequence number, `b` = peers
    /// still silent at concession.
    PingConceded,
    /// A silent peer was charged a strike. `a` = victim tid, `b` = its
    /// strike count after the charge.
    PingStrike,
    /// A read phase was neutralized (restart taken). `a` = sequence number
    /// acknowledged.
    Neutralized,
    /// A retire pushed the limbo bag across the HiWatermark. `a` = bag
    /// length, `b` = watermark.
    LimboHigh,
    /// Orphaned records were adopted from a departed thread. `a` = records
    /// adopted.
    OrphanAdopt,
    /// The global era/epoch advanced. `a` = new value.
    EraAdvance,
    /// WFE helping slow path entered. `a` = hazard slot.
    HelpSlowBegin,
    /// WFE helping slow path left.
    HelpSlowEnd,
    /// Injected stall fault fired (victim parks in a read phase). `a` = park
    /// budget in global ops.
    FaultStall,
    /// Injected black-hole fault fired (parks *and* ignores pings). `a` =
    /// park budget in global ops.
    FaultBlackhole,
    /// The parked victim resumed. `a` = 0 for stall, 1 for black hole.
    FaultParkEnd,
    /// Injected departure fired (unregister without quiescing). `a` = the
    /// victim's local op count.
    FaultDepart,
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

/// No-op stubs compiled when the `trace` feature is off: every emit in the
/// schemes and the harness compiles to nothing.
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
    /// `capacity_per_thread` buffered events per thread (oldest overwritten
    /// beyond that).
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

    /// Records one event into the calling scheme-thread's ring. Cheap but
    /// not free (a clock read and an uncontended per-tid lock) — the trace
    /// is for *seeing* executions, never for measuring them.
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

    /// Disarms tracing and drains every ring, returning all buffered events
    /// sorted by timestamp.
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
    /// Chrome Trace Event Format phase: `B`/`E` bracket pairs for durations,
    /// `i` for instants.
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

    /// Display name. `B`/`E` pairs must agree, so `FaultParkEnd` names itself
    /// from its payload (`a` = 0 stall, 1 black hole).
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
        }
    }
}

/// Renders events as a Chrome Trace Event Format JSON object
/// (`{"traceEvents": [...]}`), loadable by Perfetto and `chrome://tracing`.
/// Timestamps are microseconds; each scheme tid is one timeline row.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_noops_unless_feature_enabled() {
        // In the default build these are all inline no-ops; under
        // `--features trace` they must round-trip events instead. Both
        // behaviours are covered so the test is meaningful either way.
        begin(16);
        emit(3, TraceKind::ScanBegin, 42, 0);
        emit(3, TraceKind::ScanEnd, 40, 0);
        let events = end();
        if compiled_in() {
            assert_eq!(events.len(), 2);
            assert_eq!(events[0].kind, TraceKind::ScanBegin);
            assert_eq!(events[0].tid, 3);
            assert_eq!(events[0].a, 42);
            assert!(events[0].ts_ns <= events[1].ts_ns);
        } else {
            assert!(events.is_empty());
            assert!(!armed());
        }
    }

    #[test]
    fn trace_rings_are_bounded() {
        if !compiled_in() {
            return;
        }
        begin(4);
        for i in 0..10 {
            emit(0, TraceKind::PingAcked, i, 0);
        }
        let events = end();
        assert_eq!(events.len(), 4, "ring must cap at its capacity");
        assert!(dropped() >= 6);
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
        let json = to_chrome_json(&events);
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
        let json = to_chrome_json(&events);
        assert_eq!(json.matches("\"name\":\"fault:blackhole\"").count(), 2);
    }
}
