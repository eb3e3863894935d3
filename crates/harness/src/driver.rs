//! The trial driver: prefill, spawn workers, measure, collect.
//!
//! One [`run_trial`] call runs a (data structure, reclaimer, operation mix,
//! key range, thread count) tuple for a fixed duration or operation budget,
//! reporting throughput, the reclaimer's counters and the process's peak heap
//! usage.

use crate::alloc_track;
use crate::fault::{FaultKind, FaultSpec};
use crate::workload::{Op, OpGenerator, StopCondition, WorkloadSpec};
use conc_ds::ConcurrentSet;
use smr_common::trace::{self, TraceKind};
use smr_common::{Smr, SmrConfig, ThreadStats};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// A data structure that the harness can construct from an [`SmrConfig`].
pub trait Buildable<S: Smr>: ConcurrentSet<S> + Sized + 'static {
    /// Builds an empty instance (the structure owns its reclaimer).
    fn build(config: SmrConfig) -> Self;
}

impl<S: Smr> Buildable<S> for conc_ds::LazyList<S> {
    fn build(config: SmrConfig) -> Self {
        Self::new(config)
    }
}
impl<S: Smr> Buildable<S> for conc_ds::HarrisList<S> {
    fn build(config: SmrConfig) -> Self {
        Self::new(config)
    }
}
impl<S: Smr> Buildable<S> for conc_ds::DgtTree<S> {
    fn build(config: SmrConfig) -> Self {
        Self::new(config)
    }
}

/// The outcome of one trial.
#[derive(Debug, Clone)]
pub struct TrialResult {
    /// Data-structure label.
    pub ds: &'static str,
    /// Reclaimer label.
    pub smr: &'static str,
    /// Operation mix label (e.g. `50i-50d`).
    pub mix: String,
    /// Key range size.
    pub key_range: u64,
    /// Number of worker threads (excluding a stalled thread, if any).
    pub threads: usize,
    /// Total completed operations across all workers.
    pub total_ops: u64,
    /// Wall-clock duration of the measured portion.
    pub duration: Duration,
    /// Throughput in million operations per second.
    pub mops: f64,
    /// Sum of all workers' reclaimer counters.
    pub smr_totals: ThreadStats,
    /// Peak live heap bytes during the measured portion (0 when the counting
    /// allocator is not installed in this process).
    pub peak_mem_bytes: usize,
    /// Whether a stalled thread was present.
    pub stalled_thread: bool,
    /// Faults injected by the trial's [`FaultPlan`](crate::fault::FaultPlan)
    /// (0 for fault-free trials).
    pub injected_faults: usize,
    /// Workers that departed mid-trial (subset of `injected_faults`).
    pub departed_workers: usize,
}

impl TrialResult {
    /// Retired-but-unreclaimed records at the end of the trial.
    pub fn outstanding_garbage(&self) -> u64 {
        self.smr_totals.outstanding()
    }
}

struct SharedState {
    start: Barrier,
    stop: AtomicBool,
    ops_done: AtomicU64,
    ops_budget: u64,
    /// Workers publish their batch counts into `ops_done` even without an
    /// ops budget — needed when a fault plan measures stalls in global ops.
    track_ops: bool,
    /// Workers that will reach a normal loop exit (threads minus planned
    /// departures). Used to close the counted stats window in lockstep.
    expected_finishers: usize,
    /// Workers that have snapshotted their [`ThreadStats`] after the stop
    /// flag. No thread may `unregister` (and no stalled thread may lift its
    /// reservation) before this reaches `expected_finishers`: otherwise the
    /// last worker still draining its op batch runs a trivially-completing
    /// scan against an emptied registry and frees its whole limbo bag
    /// *inside* the counted window, collapsing the outstanding-garbage
    /// signal the E2 assertions measure (scheduling-dependent, so the
    /// garbage-bound tests flip between "pinned" and "all freed" runs).
    finished: AtomicUsize,
}

impl SharedState {
    /// Closes this worker's counted window and waits for the peers to close
    /// theirs, running `service` (ping/neutralization acknowledgement) in
    /// the wait loop so still-draining workers' handshakes keep completing.
    fn finish_counting(&self, mut service: impl FnMut()) {
        self.finished.fetch_add(1, Ordering::AcqRel);
        while self.finished.load(Ordering::Acquire) < self.expected_finishers {
            service();
            std::thread::yield_now();
        }
    }
}

/// Runs one trial of `spec` with data structure `DS` under reclaimer `S`:
/// build, prefill, measure.
pub fn run_trial<S, DS>(spec: &WorkloadSpec, config: SmrConfig) -> TrialResult
where
    S: Smr,
    DS: Buildable<S> + Send + Sync,
{
    assert!(
        spec.threads + usize::from(spec.stalled_thread) < config.max_threads,
        "not enough SMR thread slots for this trial"
    );
    let ds = Arc::new(DS::build(config));
    prefill(&ds, spec);
    alloc_track::reset_peak();

    let ops_budget = match spec.stop {
        StopCondition::TotalOps(n) => n,
        StopCondition::Duration(_) => u64::MAX,
    };
    // A worker that departs mid-trial never reaches the lockstep window
    // close (its stats are snapshotted at the fault site), so it must not be
    // waited for. `fault_for` assigns at most one fault per tid.
    let planned_departures = (0..spec.threads)
        .filter(|&t| {
            spec.fault_plan
                .as_ref()
                .and_then(|p| p.fault_for(t))
                .is_some_and(|f| matches!(f.kind, FaultKind::Depart))
        })
        .count();
    let shared = Arc::new(SharedState {
        start: Barrier::new(spec.threads + usize::from(spec.stalled_thread) + 1),
        stop: AtomicBool::new(false),
        ops_done: AtomicU64::new(0),
        ops_budget,
        track_ops: ops_budget != u64::MAX || spec.fault_plan.is_some(),
        expected_finishers: spec.threads - planned_departures,
        finished: AtomicUsize::new(0),
    });

    let mut handles = Vec::new();
    for t in 0..spec.threads {
        let ds = Arc::clone(&ds);
        let shared = Arc::clone(&shared);
        let spec = spec.clone();
        handles.push(std::thread::spawn(move || worker(&*ds, &shared, &spec, t)));
    }
    if spec.stalled_thread {
        let ds = Arc::clone(&ds);
        let shared = Arc::clone(&shared);
        let stall_tid = spec.threads;
        handles.push(std::thread::spawn(move || {
            stalled_worker(&*ds, &shared, stall_tid)
        }));
    }

    // Release the workers and time the measured portion.
    shared.start.wait();
    let started = Instant::now();
    match spec.stop {
        StopCondition::Duration(d) => {
            std::thread::sleep(d);
            shared.stop.store(true, Ordering::SeqCst);
        }
        StopCondition::TotalOps(_) => {
            // Workers flip the stop flag themselves once the budget is hit.
            while !shared.stop.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    }

    let mut total_ops = 0u64;
    let mut totals = ThreadStats::default();
    for h in handles {
        let (ops, stats) = h.join().expect("worker panicked");
        total_ops += ops;
        totals += stats;
    }
    let duration = started.elapsed();

    let mops = total_ops as f64 / duration.as_secs_f64() / 1.0e6;
    let (injected_faults, departed_workers) = match &spec.fault_plan {
        Some(plan) => (
            plan.faults()
                .iter()
                .filter(|f| f.victim < spec.threads)
                .count(),
            plan.faults()
                .iter()
                .filter(|f| f.victim < spec.threads && matches!(f.kind, FaultKind::Depart))
                .count(),
        ),
        None => (0, 0),
    };
    TrialResult {
        ds: DS::name(),
        smr: S::NAME,
        mix: spec.mix.label(),
        key_range: spec.key_range,
        threads: spec.threads,
        total_ops,
        duration,
        mops,
        smr_totals: totals,
        peak_mem_bytes: alloc_track::peak_bytes(),
        stalled_thread: spec.stalled_thread,
        injected_faults,
        departed_workers,
    }
}

/// Prefills the structure to `spec.prefill` keys using the highest thread slots
/// (so they do not collide with the worker tids used afterwards).
fn prefill<S, DS>(ds: &Arc<DS>, spec: &WorkloadSpec)
where
    S: Smr,
    DS: Buildable<S> + Send + Sync,
{
    if spec.prefill == 0 {
        return;
    }
    let target = spec.prefill;
    let fillers = 2usize.min(spec.threads.max(1));
    let inserted = Arc::new(AtomicU64::new(0));
    let max_threads = ds.smr().config().max_threads;
    let mut handles = Vec::new();
    for f in 0..fillers {
        let ds = Arc::clone(ds);
        let inserted = Arc::clone(&inserted);
        let spec = spec.clone();
        let tid = max_threads - 1 - f;
        handles.push(std::thread::spawn(move || {
            let mut ctx = ds.smr().register(tid);
            let mut gen = OpGenerator::new(&spec, 1000 + f);
            while inserted.load(Ordering::Relaxed) < target {
                let key = gen.next_key();
                if ds.insert(&mut ctx, key) {
                    inserted.fetch_add(1, Ordering::Relaxed);
                }
            }
            ds.smr().flush(&mut ctx);
            ds.smr().unregister(&mut ctx);
        }));
    }
    for h in handles {
        h.join().expect("prefill thread panicked");
    }
}

/// Operations between two checks of the stop condition and fault plan.
const BATCH: u64 = 64;

/// One worker thread: run operations until the stop condition fires,
/// executing the thread's assigned fault (if any) at a batch boundary.
fn worker<S, DS>(
    ds: &DS,
    shared: &SharedState,
    spec: &WorkloadSpec,
    tid: usize,
) -> (u64, ThreadStats)
where
    S: Smr,
    DS: Buildable<S>,
{
    let mut ctx = ds.smr().register(tid);
    let mut gen = OpGenerator::new(spec, tid);
    let mut fault: Option<FaultSpec> = spec.fault_plan.as_ref().and_then(|p| p.fault_for(tid));
    // A stall or black hole at op 0 pins its read phase *before* the start
    // barrier and parks right after it, as `stalled_worker` does: parking
    // after the barrier instead races the peers for the first quantum, and
    // a late victim leaves an unpinned prefix that reclamation frees.
    if let Some(f) = fault.filter(|f| f.at_op == 0 && !matches!(f.kind, FaultKind::Depart)) {
        fault = None;
        ds.smr().begin_op(&mut ctx);
        ds.smr().begin_read_phase(&mut ctx);
        shared.start.wait();
        park(ds.smr(), &mut ctx, shared, tid, f.kind);
    } else {
        shared.start.wait();
    }
    let mut ops = 0u64;
    // Check the stop condition every batch to keep overhead low.
    while !shared.stop.load(Ordering::Acquire) {
        for _ in 0..BATCH {
            match gen.next_op() {
                Op::Insert(k) => {
                    ds.insert(&mut ctx, k);
                }
                Op::Remove(k) => {
                    ds.remove(&mut ctx, k);
                }
                Op::Contains(k) => {
                    ds.contains(&mut ctx, k);
                }
            }
        }
        ops += BATCH;
        if let Some(f) = fault {
            if ops >= f.at_op {
                fault = None;
                match f.kind {
                    FaultKind::Depart => {
                        // Departure without quiescing: no flush, the current
                        // limbo bag is handed to the orphan pool by
                        // `unregister` and survivors adopt it at their next
                        // scan. The worker's ops still count.
                        trace::emit(tid, TraceKind::FaultDepart, ops, 0);
                        let stats = ds.smr().thread_stats(&ctx);
                        ds.smr().unregister(&mut ctx);
                        return (ops, stats);
                    }
                    kind => {
                        ds.smr().begin_op(&mut ctx);
                        ds.smr().begin_read_phase(&mut ctx);
                        park(ds.smr(), &mut ctx, shared, tid, kind);
                    }
                }
            }
        }
        if shared.track_ops {
            let done = shared.ops_done.fetch_add(BATCH, Ordering::AcqRel) + BATCH;
            if done >= shared.ops_budget {
                shared.stop.store(true, Ordering::SeqCst);
                break;
            }
        }
    }
    let stats = ds.smr().thread_stats(&ctx);
    // Counted window closed — hold the registry steady (keep acknowledging
    // pings, don't unregister) until every surviving worker has snapshotted
    // its stats too. See `SharedState::finished`.
    shared.finish_counting(|| {
        let _ = ds.smr().checkpoint(&mut ctx);
    });
    ds.smr().unregister(&mut ctx);
    (ops, stats)
}

/// The stall/black-hole fault body, entered inside an open operation and
/// read phase (pinning the epoch for EBR-family reclaimers, announcing
/// restartability for NBR): park until `for_ops` further operations complete
/// globally or the trial stops, then close both. A stall keeps servicing
/// neutralization checkpoints while parked (a descheduled-but-signalable
/// thread); a black hole acknowledges nothing and the peers' `await_acks`
/// degradation path is on trial.
fn park<S: Smr>(
    smr: &S,
    ctx: &mut S::ThreadCtx,
    shared: &SharedState,
    tid: usize,
    kind: FaultKind,
) {
    let (for_ops, ack_pings) = match kind {
        FaultKind::Stall { for_ops } => {
            trace::emit(tid, TraceKind::FaultStall, for_ops, 0);
            (for_ops, true)
        }
        FaultKind::BlackholePings { for_ops } => {
            trace::emit(tid, TraceKind::FaultBlackhole, for_ops, 0);
            (for_ops, false)
        }
        FaultKind::Depart => unreachable!("a departure does not park"),
    };
    let resume_at = shared
        .ops_done
        .load(Ordering::Acquire)
        .saturating_add(for_ops);
    while shared.ops_done.load(Ordering::Acquire) < resume_at
        && !shared.stop.load(Ordering::Acquire)
    {
        if ack_pings {
            let _ = smr.checkpoint(ctx);
        }
        std::thread::yield_now();
    }
    smr.end_read_phase(ctx, &[]);
    smr.end_op(ctx);
    trace::emit(tid, TraceKind::FaultParkEnd, u64::from(!ack_pings), 0);
}

/// The E2 stalled thread: begins an operation (pinning the epoch for
/// EBR-family reclaimers) and sleeps for the whole trial. It keeps executing
/// neutralization checkpoints while asleep, which models what a real POSIX
/// signal does to a sleeping thread (interrupts the sleep and longjmps out of
/// the read phase) — see DESIGN.md, substitution S1.
fn stalled_worker<S, DS>(ds: &DS, shared: &SharedState, tid: usize) -> (u64, ThreadStats)
where
    S: Smr,
    DS: Buildable<S>,
{
    let smr = ds.smr();
    let mut ctx = smr.register(tid);
    // Pin *before* the start barrier: the E2 scenario is "a reader stalled
    // for the whole trial", so the reservation must cover every record the
    // workers retire. Entering the op after the barrier instead would race
    // the workers for the first quantum — on a single-core host the stalled
    // thread can be starved deep into the run, leaving a long unpinned
    // prefix that reclamation legitimately frees and turning the
    // does-not-bound assertions for the epoch family into a coin flip.
    smr.begin_op(&mut ctx);
    smr.begin_read_phase(&mut ctx);
    shared.start.wait();
    // The reservation is held not just until the stop flag but until every
    // worker has closed its counted stats window: lifting the pin while the
    // last worker is still draining its op batch would let that worker's
    // final scans free the pinned backlog inside the counted window.
    while !shared.stop.load(Ordering::Acquire)
        || shared.finished.load(Ordering::Acquire) < shared.expected_finishers
    {
        // The cooperative analogue of the signal arriving during sleep(): the
        // stalled thread holds no pointers, so acknowledging is always safe and
        // happens promptly (a real POSIX signal would interrupt the sleep and
        // run the handler immediately).
        let _ = smr.checkpoint(&mut ctx);
        std::thread::yield_now();
    }
    smr.end_read_phase(&mut ctx, &[]);
    smr.end_op(&mut ctx);
    let stats = smr.thread_stats(&ctx);
    smr.unregister(&mut ctx);
    (0, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadMix;
    use conc_ds::{DgtTree, LazyList};
    use nbr::NbrPlus;
    use smr_baselines::Debra;

    fn small_config() -> SmrConfig {
        SmrConfig::default()
            .with_max_threads(16)
            .with_watermarks(256, 64)
    }

    #[test]
    fn ops_budget_trial_completes() {
        let spec = WorkloadSpec::new(
            WorkloadMix::UPDATE_HEAVY,
            256,
            2,
            StopCondition::TotalOps(20_000),
        )
        .with_prefill(128);
        let r = run_trial::<NbrPlus, LazyList<NbrPlus>>(&spec, small_config());
        assert!(r.total_ops >= 20_000);
        assert!(r.mops > 0.0);
        assert_eq!(r.threads, 2);
        assert_eq!(r.ds, "lazy-list");
        assert_eq!(r.smr, "NBR+");
    }

    #[test]
    fn duration_trial_completes() {
        let spec = WorkloadSpec::new(
            WorkloadMix::BALANCED,
            4096,
            2,
            StopCondition::Duration(Duration::from_millis(50)),
        );
        let r = run_trial::<Debra, DgtTree<Debra>>(&spec, small_config());
        assert!(r.total_ops > 0);
        assert!(r.duration >= Duration::from_millis(45));
        assert_eq!(r.mix, "25i-25d");
    }

    #[test]
    fn stalled_thread_trial_reports_garbage_difference() {
        // With a stalled thread, DEBRA must accumulate garbage; NBR+ must not
        // (beyond its watermark bound). This is the core of experiment E2.
        let mk_spec = || {
            WorkloadSpec::new(
                WorkloadMix::UPDATE_HEAVY,
                4096,
                2,
                StopCondition::TotalOps(60_000),
            )
            .with_stalled_thread(true)
        };
        let debra = run_trial::<Debra, DgtTree<Debra>>(&mk_spec(), small_config());
        let nbrp = run_trial::<NbrPlus, DgtTree<NbrPlus>>(&mk_spec(), small_config());
        assert!(debra.stalled_thread && nbrp.stalled_thread);
        let cfg = small_config();
        let bound = (cfg.hi_watermark + cfg.max_reservations * cfg.max_threads) as u64
            * (nbrp.threads as u64 + 1);
        assert!(
            nbrp.outstanding_garbage() <= bound,
            "NBR+ garbage {} must stay within the bound {}",
            nbrp.outstanding_garbage(),
            bound
        );
        assert!(
            debra.outstanding_garbage() > nbrp.outstanding_garbage(),
            "DEBRA ({}) must hold more garbage than NBR+ ({}) when a thread stalls",
            debra.outstanding_garbage(),
            nbrp.outstanding_garbage()
        );
    }
}
