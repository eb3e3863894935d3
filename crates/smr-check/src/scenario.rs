//! Scenario driver: builds a small data structure under one SMR scheme,
//! runs a deterministic worker mix under one seeded schedule, and reports
//! whether the shadow-heap oracle observed a protection-contract violation.
//!
//! Scenarios are deliberately tiny — a handful of workers hammering a
//! handful of keys with reclamation thresholds cranked to the floor — so
//! interesting reclamation windows (retire → sweep → free/recycle) open
//! within a few hundred scheduled steps instead of a few million.

use crate::sched::{run_schedule, Outcome, SplitMix64, Strategy};
use conc_ds::{ConcurrentSet, DgtTree, HarrisList, HmHashMap, LazyList};
use smr_common::check::{self, SessionConfig, Violation};
use smr_common::{Smr, SmrConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The full reclaimer matrix under test: the harness's scheme registry
/// ([`smr_harness::for_each_scheme!`]), one variant per row.
pub use smr_harness::SmrKind as Scheme;

/// Data structures covered by the exploration matrix.
///
/// The two lock-based structures, [`Structure::LazyList`] and
/// [`Structure::DgtTree`], are swept under NBR, NBR+, DEBRA, QSBR, RCU,
/// EpochPOP and the leaky baseline: the paper marks HP, IBR and HE (and so
/// WFE and HP-POP) inapplicable to both (Table 1, as printed by the
/// `applicability` bin).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Structure {
    List,
    HashMap,
    LazyList,
    DgtTree,
}

impl Structure {
    pub fn all() -> [Structure; 4] {
        [
            Structure::List,
            Structure::HashMap,
            Structure::LazyList,
            Structure::DgtTree,
        ]
    }

    pub fn label(self) -> &'static str {
        match self {
            Structure::List => "harris-list",
            Structure::HashMap => "hm-hashmap",
            Structure::LazyList => "lazy-list",
            Structure::DgtTree => "dgt-tree",
        }
    }
}

/// Scenario shape knobs. The defaults are the exploration-matrix settings;
/// the resurrect tests and [`Params::lo_band`] override individual fields
/// to aim at a specific reclamation window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Params {
    /// Scheduled worker tasks (the prefill runs on the unscheduled main
    /// thread under tid `workers`).
    pub workers: usize,
    /// Operations per worker per schedule.
    pub ops_per_worker: usize,
    /// Keys are drawn from `1..=key_range`.
    pub key_range: u64,
    /// Preemption-point budget before the run degrades to free-running.
    pub budget: u64,
    /// Magazine capacity for the recycling allocator (small values force
    /// node flow through the shared depot, where cross-thread recycling —
    /// and therefore ABA-style incarnation reuse — happens).
    pub magazine_cap: usize,
    /// `(hi, lo)` limbo watermarks.
    pub watermarks: (usize, usize),
    /// Operations between op-exit heartbeat scans (0 = off).
    pub scan_heartbeat_ops: usize,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            workers: 3,
            ops_per_worker: 8,
            key_range: 6,
            budget: 300_000,
            magazine_cap: 4,
            watermarks: (4, 2),
            scan_heartbeat_ops: 1,
        }
    }
}

impl Params {
    /// NBR+'s LoWatermark band: no heartbeat, and a HiWatermark far enough
    /// above the LoWatermark that a worker takes quiet announcement checks
    /// (moving its bookmark) and rides a peer's grace period — a peer's
    /// HiWatermark broadcast or its final flush — before its own bag
    /// reaches Hi.
    pub fn lo_band() -> Self {
        Self {
            ops_per_worker: 24,
            watermarks: (16, 2),
            scan_heartbeat_ops: 0,
            ..Self::default()
        }
    }
}

/// Reclamation-hostile config: by default every threshold at its floor so
/// retire → sweep → free windows open after single-digit operation counts,
/// and all backoff/heartbeat batching disabled so scheduled steps map 1:1
/// onto protocol steps.
pub fn quiet_config(params: &Params) -> SmrConfig {
    let (hi, lo) = params.watermarks;
    let mut cfg = SmrConfig::for_tests()
        .with_max_threads(params.workers + 1)
        .with_epoch_freq(1)
        .with_watermarks(hi, lo)
        .with_scan_heartbeat_ops(params.scan_heartbeat_ops)
        .with_signal_cost_ns(0)
        .with_magazine_cap(params.magazine_cap);
    // Short ack spins: under the one-runnable scheduler the awaited thread
    // cannot make progress while the pinger holds the token, so every spin
    // iteration is a wasted scheduled step. The spin loop preempts at
    // "ping.await-acks", which is how the pingee actually gets to run.
    cfg.ack_spin_limit = 128;
    cfg
}

/// Result of one `(scheme, structure, strategy, seed)` run.
#[derive(Debug)]
pub struct RunReport {
    pub steps: u64,
    pub budget_exhausted: bool,
    /// First worker panic message, if any (includes oracle panics).
    pub failure: Option<String>,
    /// The structured oracle violation, if one was recorded.
    pub violation: Option<Violation>,
    /// Signal-free reclamations by riding a peer's grace period (NBR+'s
    /// `ThreadStats::rgp_reclaims`), summed over the workers.
    pub rgp_reclaims: u64,
}

impl RunReport {
    /// True when the run completed with no oracle violation and no panic.
    pub fn clean(&self) -> bool {
        self.failure.is_none() && self.violation.is_none()
    }
}

/// Runs one scenario: constructs the structure inside a fresh oracle
/// session, prefils it deterministically from the (unscheduled) main
/// thread, then drives `params.workers` scheduled workers through a mixed
/// insert/remove/contains workload under the `(strategy, seed)` schedule.
///
/// `construct` may flip test-only resurrection flags on `ds.smr()` before
/// returning. The session is torn down *before* the structure so teardown
/// frees (sentinels, surviving nodes) are not judged by the oracle.
pub fn explore_one<S, DS, C>(
    label: &str,
    birth_era_monotonic: bool,
    params: &Params,
    strategy: Strategy,
    seed: u64,
    construct: C,
) -> RunReport
where
    S: Smr,
    DS: ConcurrentSet<S> + 'static,
    C: FnOnce(SmrConfig) -> DS,
{
    let session = check::begin_session(SessionConfig {
        label: format!("{label} seed={seed} strat={}", strategy.label()),
        birth_era_monotonic,
    });
    let ds = Arc::new(construct(quiet_config(params)));

    // Deterministic prefill from the main thread: no preemptor installed, so
    // instrumentation preempt points are no-ops and the oracle still sees
    // every alloc/publish under the prefill tid.
    let prefill_tid = params.workers;
    check::set_current_tid(Some(prefill_tid));
    {
        let mut ctx = ds.smr().register(prefill_tid);
        for key in [2u64, 4] {
            if key <= params.key_range {
                ds.insert(&mut ctx, key);
            }
        }
        ds.smr().unregister(&mut ctx);
    }
    check::set_current_tid(None);

    let rgp_reclaims = Arc::new(AtomicU64::new(0));
    let mut tasks: Vec<Box<dyn FnOnce() + Send>> = Vec::with_capacity(params.workers);
    for tid in 0..params.workers {
        let ds = Arc::clone(&ds);
        let rgp_reclaims = Arc::clone(&rgp_reclaims);
        let ops = params.ops_per_worker;
        let key_range = params.key_range;
        tasks.push(Box::new(move || {
            let rides = worker_body(&*ds, tid, ops, key_range, seed);
            rgp_reclaims.fetch_add(rides, Ordering::Relaxed);
        }));
    }

    let Outcome {
        steps,
        failure,
        budget_exhausted,
    } = run_schedule(strategy, seed, params.budget, tasks);

    let violation = check::take_violation();
    drop(session);
    drop(ds);
    RunReport {
        steps,
        budget_exhausted,
        failure,
        violation,
        rgp_reclaims: rgp_reclaims.load(Ordering::Relaxed),
    }
}

fn worker_body<S: Smr, DS: ConcurrentSet<S>>(
    ds: &DS,
    tid: usize,
    ops: usize,
    key_range: u64,
    seed: u64,
) -> u64 {
    check::set_current_tid(Some(tid));
    let mut rng = SplitMix64(seed ^ (0xD1B5_4A32_D192_ED03u64.wrapping_mul(tid as u64 + 1)));
    let mut ctx = ds.smr().register(tid);
    for op in 0..ops {
        let key = 1 + rng.below(key_range);
        match op % 3 {
            0 => {
                ds.insert(&mut ctx, key);
            }
            1 => {
                ds.remove(&mut ctx, key);
            }
            _ => {
                ds.contains(&mut ctx, key);
            }
        }
    }
    ds.smr().flush(&mut ctx);
    let rides = ds.smr().thread_stats(&ctx).rgp_reclaims;
    ds.smr().unregister(&mut ctx);
    check::set_current_tid(None);
    rides
}

/// Dispatches one matrix cell to the concrete scheme/structure pair.
pub fn run_matrix_one(
    scheme: Scheme,
    structure: Structure,
    strategy: Strategy,
    seed: u64,
    params: &Params,
) -> RunReport {
    let label = format!("{}/{}", scheme.label(), structure.label());
    macro_rules! go {
        ($S:ty) => {
            match structure {
                Structure::List => explore_one::<$S, HarrisList<$S>, _>(
                    &label,
                    scheme.interval(),
                    params,
                    strategy,
                    seed,
                    HarrisList::new,
                ),
                Structure::HashMap => explore_one::<$S, HmHashMap<$S>, _>(
                    &label,
                    scheme.interval(),
                    params,
                    strategy,
                    seed,
                    |cfg| HmHashMap::with_buckets(cfg, 2),
                ),
                Structure::LazyList => explore_one::<$S, LazyList<$S>, _>(
                    &label,
                    scheme.interval(),
                    params,
                    strategy,
                    seed,
                    LazyList::new,
                ),
                Structure::DgtTree => explore_one::<$S, DgtTree<$S>, _>(
                    &label,
                    scheme.interval(),
                    params,
                    strategy,
                    seed,
                    DgtTree::new,
                ),
            }
        };
    }
    macro_rules! dispatch {
        ($({ $variant:ident, $snake:ident, $ty:ty, $($flags:tt)* })*) => {
            match scheme {
                $(Scheme::$variant => go!($ty),)*
            }
        };
    }
    smr_harness::for_each_scheme!(dispatch)
}

/// Formats a failing matrix run for the test log: the exact
/// [`run_matrix_one`] call that replays it, then what went wrong. Each
/// schedule's seed is derived from the sweep's base seed, so this call —
/// not `SMR_CHECK_SEED` — is the replay.
pub fn replay_banner(
    scheme: Scheme,
    structure: Structure,
    strategy: Strategy,
    seed: u64,
    params: &Params,
    report: &RunReport,
) -> String {
    let params = if *params == Params::default() {
        "Params::default()".to_string()
    } else {
        format!("{params:?}")
    };
    let mut s = format!(
        "--- smr-check failure: {}/{} ---\n\
         replay: run_matrix_one(Scheme::{scheme:?}, Structure::{structure:?}, \
         Strategy::{strategy:?}, {seed:#x}, &{params})\n\
         steps={} budget_exhausted={}\n",
        scheme.label(),
        structure.label(),
        report.steps,
        report.budget_exhausted,
    );
    if let Some(f) = &report.failure {
        s.push_str(&format!("panic: {f}\n"));
    }
    if let Some(v) = &report.violation {
        s.push_str(&format!("{v}\n"));
    }
    s
}
