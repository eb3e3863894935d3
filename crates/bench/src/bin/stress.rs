//! `stress` — long-running randomized stress driver used for shaking out
//! concurrency bugs (each configuration is announced on stderr before it runs,
//! so a crash identifies the offending combination).
//!
//! ```text
//! cargo run -p nbr-bench --release --bin stress -- [rounds] [--faults [seed]]
//! ```
//!
//! With `--faults`, each round also runs the standing fault cells: every
//! scheme under round `r`'s [`FaultPlan`] of the sweep seeded with the
//! given base (stalls, departures and black-holed pings). Each cell prints
//! the base seed, the round and the command line that replays it.

use smr_common::SmrConfig;
use smr_harness::families::{run_with, HarrisListFamily, SmrKind};
use smr_harness::fault::{parse_sweep_args, replay_args};
use smr_harness::{report, FaultPlan, StopCondition, WorkloadMix, WorkloadSpec};
use std::time::Duration;

/// One standing fault cell per scheme: round `round`'s plan of the sweep
/// seeded with `base`, over 4 workers.
fn fault_cells(round: usize, base: u64) {
    let threads = 4usize;
    for &kind in SmrKind::all() {
        let plan = FaultPlan::for_round(base, round, threads);
        eprintln!(
            "[round {round}] fault-cell harris-list smr={} plan={plan}",
            kind.label()
        );
        report::note(
            "fault-plan",
            &format!(
                "smr={} plan={plan} base={base:#x} round={round} — replay with: stress {}",
                kind.label(),
                replay_args(base, round)
            ),
        );
        let spec = WorkloadSpec::new(
            WorkloadMix::UPDATE_HEAVY,
            2_048,
            threads,
            StopCondition::TotalOps(200_000),
        )
        .with_fault_plan(plan);
        let config = SmrConfig::default()
            .with_max_threads(threads + 4)
            .with_watermarks(1024, 256)
            .with_signal_cost_ns(2_000);
        let r = run_with::<HarrisListFamily>(kind, &spec, config);
        eprintln!(
            "    ok: {:.3} Mops/s, {} retired, {} freed, {} faults, {} departed",
            r.mops, r.smr_totals.retires, r.smr_totals.frees, r.injected_faults, r.departed_workers
        );
    }
}

fn main() {
    // Instrumentation must never leak into a measurement build: the
    // `check` feature is test-only (enabled by `smr-check` dev-deps).
    assert!(
        !smr_common::check::compiled_in(),
        "bench binary built with the smr-common `check` feature on; measurements would be invalid"
    );
    assert!(
        !smr_common::trace::compiled_in(),
        "bench binary built with the smr-common `trace` feature on; measurements would be invalid \
         (use the dedicated `trace` bin for event capture)"
    );
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (rounds, fault_base) = parse_sweep_args(&args).unwrap_or_else(|usage| {
        eprintln!("{usage}");
        std::process::exit(2)
    });
    let sizes = [200u64, 2_048];
    let mixes = [
        WorkloadMix::UPDATE_HEAVY,
        WorkloadMix::BALANCED,
        WorkloadMix::READ_HEAVY,
    ];
    let threads_sweep = [1usize, 2, 4];
    for round in 0..rounds {
        for &size in &sizes {
            for &mix in &mixes {
                for &threads in &threads_sweep {
                    for &kind in SmrKind::all() {
                        eprintln!(
                            "[round {round}] harris-list size={size} mix={} threads={threads} smr={}",
                            mix.label(),
                            kind.label()
                        );
                        let spec = WorkloadSpec::new(
                            mix,
                            size,
                            threads,
                            StopCondition::Duration(Duration::from_millis(120)),
                        );
                        let config = SmrConfig::default()
                            .with_max_threads(threads + 4)
                            .with_watermarks(1024, 256)
                            .with_signal_cost_ns(2_000);
                        let r = run_with::<HarrisListFamily>(kind, &spec, config.clone());
                        eprintln!(
                            "    ok: {:.3} Mops/s, {} retired, {} freed",
                            r.mops, r.smr_totals.retires, r.smr_totals.frees
                        );
                        // The combiner only trips under genuine scan
                        // concurrency and the memo only under a stamp-capable
                        // scheme, so the counters go through the greppable
                        // note channel rather than silently reading 0.
                        if r.smr_totals.combine_publishes > 0 || r.smr_totals.combine_adoptions > 0
                        {
                            report::note(
                                "scan-combining",
                                &format!(
                                    "smr={} {} bags published to the combiner, {} adopted by peer scans",
                                    kind.label(),
                                    r.smr_totals.combine_publishes,
                                    r.smr_totals.combine_adoptions,
                                ),
                            );
                        }
                        if r.smr_totals.memo_hits > 0 || r.smr_totals.memo_misses > 0 {
                            report::note(
                                "lookup-memo",
                                &format!(
                                    "smr={} memo {} hits / {} misses ({:.1}% of validated lookups)",
                                    kind.label(),
                                    r.smr_totals.memo_hits,
                                    r.smr_totals.memo_misses,
                                    100.0 * r.smr_totals.memo_hits as f64
                                        / (r.smr_totals.memo_hits + r.smr_totals.memo_misses)
                                            as f64,
                                ),
                            );
                        }
                        if r.smr_totals.frees == 0 && r.smr_totals.retires > 0 {
                            // A run that frees nothing must say why rather
                            // than silently reporting 0: either the scheme
                            // never reclaims (leaky) or the trial stayed
                            // below every scan trigger.
                            if kind == SmrKind::Leaky {
                                report::note(
                                    "leaky-baseline",
                                    "leaky baseline never reclaims by design",
                                );
                            } else {
                                report::note(
                                    "below-scan-trigger",
                                    &format!(
                                        "0 reclaimed — {} retires stayed below the scan \
                                         trigger (hi_watermark={}, heartbeat={} ops; {} scans ran)",
                                        r.smr_totals.retires,
                                        config.hi_watermark,
                                        config.scan_heartbeat_ops,
                                        r.smr_totals.reclaim_scans,
                                    ),
                                );
                            }
                        }
                    }
                }
            }
        }
        if let Some(base) = fault_base {
            fault_cells(round, base);
        }
    }
    println!("stress completed");
}
