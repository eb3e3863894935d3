//! # nbr-bench — benchmark targets regenerating the paper's figures
//!
//! Two kinds of targets:
//!
//! * **Criterion benches** (`benches/fig*.rs`, `benches/ablation_nbr.rs`) —
//!   one per figure of the evaluation, run with `cargo bench`. They use
//!   CI-scale parameters (small key ranges, few threads) so a full
//!   `cargo bench --workspace` finishes in minutes; they demonstrate the
//!   *shape* of each comparison, not the paper's absolute numbers.
//! * **Binaries**:
//!   * `experiments` — runs any subset of E1–E4 / Fig 5–8 at `--quick` or
//!     `--full` scale and prints the tables recorded in `EXPERIMENTS.md`.
//!   * `applicability` — prints Table 1 (the SMR × data-structure
//!     applicability matrix) together with the usability (extra lines of code)
//!     comparison of Section 5.3.
//!
//! The mapping from figures to targets is indexed in `DESIGN.md`.

pub mod helpers {
    //! Shared plumbing for the Criterion benches.

    use smr_common::SmrConfig;
    use smr_harness::{
        build_prefilled, DsFamily, PrefilledTrial, SmrKind, StopCondition, WorkloadMix,
        WorkloadSpec,
    };
    use std::time::Duration;

    /// Operations per Criterion "iteration".
    pub const OPS_PER_ITER: u64 = 1_000;

    /// Number of worker threads used by the criterion benches (kept at the
    /// host's core count).
    pub fn bench_threads() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .clamp(2, 8)
    }

    /// SMR configuration for the benches.
    pub fn bench_config() -> SmrConfig {
        SmrConfig::default()
            .with_max_threads(bench_threads() + 6)
            .with_watermarks(1024, 256)
            .with_signal_cost_ns(2_000)
    }

    /// A workload spec that runs `iters * OPS_PER_ITER` operations.
    pub fn spec_for_iters(
        mix: WorkloadMix,
        key_range: u64,
        threads: usize,
        iters: u64,
    ) -> WorkloadSpec {
        WorkloadSpec::new(
            mix,
            key_range,
            threads,
            StopCondition::TotalOps(iters.max(1) * OPS_PER_ITER),
        )
    }

    /// Criterion settings shared by all throughput benches.
    pub fn criterion_times() -> (usize, Duration, Duration) {
        (10, Duration::from_millis(300), Duration::from_millis(900))
    }

    /// Builds one prefilled structure of family `F` per reclaimer in `kinds`,
    /// each reusable across operation mixes and Criterion samples — so a
    /// bench group prefills once instead of once per measurement (ROADMAP
    /// open item on `cargo bench` wall-clock).
    pub fn prefilled_runners_for<F: DsFamily>(
        kinds: &[SmrKind],
        key_range: u64,
        threads: usize,
    ) -> Vec<(SmrKind, Box<dyn PrefilledTrial>)> {
        kinds
            .iter()
            .map(|&kind| {
                let spec = spec_for_iters(WorkloadMix::UPDATE_HEAVY, key_range, threads, 1);
                (kind, build_prefilled::<F>(kind, &spec, bench_config()))
            })
            .collect()
    }

    /// [`prefilled_runners_for`] over the registry's `bench` column
    /// ([`SmrKind::bench_set`]).
    pub fn prefilled_runners<F: DsFamily>(
        key_range: u64,
        threads: usize,
    ) -> Vec<(SmrKind, Box<dyn PrefilledTrial>)> {
        prefilled_runners_for::<F>(SmrKind::bench_set(), key_range, threads)
    }
}
