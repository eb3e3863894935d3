//! # smr-check: schedule exploration + lifetime oracle for the reclaimer matrix
//!
//! This crate is the checking half of the workspace: it drives the
//! `check`-feature instrumentation baked into `smr-common` (the shadow-heap
//! lifetime oracle and the per-scheme protection-contract mirrors) with a
//! deterministic, seeded cooperative scheduler, so that protection-contract
//! violations — premature frees, use-after-free derefs, overlapping recycled
//! incarnations — become immediate panics with a replayable
//! `(strategy, seed)` pair instead of one-in-a-billion memory corruption.
//!
//! Layout:
//!
//! * [`sched`] — the scheduler: real OS threads, exactly one runnable at a
//!   time, context switches only at instrumented preemption points, driven
//!   by seeded Random or PCT strategies.
//! * [`scenario`] — small Harris-list and hash-map scenarios over the full
//!   scheme registry, lazy-list and DGT-tree scenarios under NBR, NBR+ and
//!   the epoch family (and NBR+ in its LoWatermark band,
//!   [`Params::lo_band`]), plus the replay-banner plumbing the integration
//!   tests use.
//!
//! The crate is **not** a workspace default-member: enabling it turns on the
//! `check` feature across every scheme crate, and feature unification would
//! otherwise leak instrumentation into release artifacts. Run it explicitly:
//!
//! ```text
//! cargo test -p smr-check                # full seeded sweep + resurrect suite
//! SMR_CHECK_SCHEDULES=500 cargo test -p smr-check   # deeper sweep
//! SMR_CHECK_SEED=0xdeadbeef cargo test -p smr-check # another base seed
//! ```
//!
//! A failing cell's banner prints the exact
//! `run_matrix_one(Scheme::…, Structure::…, Strategy::…, seed, &Params::default())`
//! call that replays the run (a cell with its own `Params` prints them as a
//! struct literal); paste it into a test.

pub mod scenario;
pub mod sched;

pub use scenario::{
    explore_one, quiet_config, replay_banner, run_matrix_one, Params, RunReport, Scheme, Structure,
};
pub use sched::{run_schedule, Outcome, SplitMix64, Strategy};

/// Compile-time proof that this crate really links against the instrumented
/// build: a stale feature graph (e.g. a dependency edge missing the `check`
/// forward) would turn every oracle into a no-op and the sweep into a
/// vacuous pass.
const _: () = assert!(
    smr_common::check::compiled_in(),
    "smr-check requires smr-common's `check` feature"
);
