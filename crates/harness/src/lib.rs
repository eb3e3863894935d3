//! # smr-harness — the scheme registry and the trial driver
//!
//! What the integration tests, the smr-check explorer, the `stress`/`trace`
//! bins and the examples share: one list of reclaimers and one way to run a
//! (data structure, reclaimer, workload) trial. Performance numbers come
//! from the standing benchmark in `benchmark/`, which does not use this
//! crate.
//!
//! * [`workload`] — operation mixes (50i-50d, 25i-25d, 5i-5d), key ranges,
//!   prefill and stop conditions.
//! * [`driver`] — [`run_trial`](driver::run_trial): prefill, spawn workers,
//!   run the workload, collect the reclaimer's counters, optionally inject a
//!   stalled thread or a fault plan.
//! * [`alloc_track`] — a counting global allocator so peak live heap bytes can
//!   stand in for the paper's "max resident memory".
//! * [`families`] — the scheme registry ([`for_each_scheme!`]) and runtime
//!   dispatch over the (reclaimer × data structure) matrix.
//! * [`fault`] — the fault-injection adversary: seeded plans of worker
//!   stalls, mid-operation departures and black-holed pings, replayable
//!   from their seed.
//! * [`report`] — the greppable `@note[kind]` channel for harness advisories.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alloc_track;
pub mod driver;
pub mod families;
pub mod fault;
pub mod report;
pub mod workload;

pub use driver::{run_trial, Buildable, TrialResult};
pub use families::{run_with, DsFamily, SmrKind};
pub use fault::{FaultKind, FaultPlan, FaultSpec};
pub use workload::{Op, OpGenerator, StopCondition, WorkloadMix, WorkloadSpec};
