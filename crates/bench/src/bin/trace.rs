//! `trace` — reclamation-event capture.
//!
//! Runs one seeded fault trial (the same standing fault cell as
//! `stress --faults`) with the per-thread event rings armed, and writes the
//! drained events as Chrome Trace Event Format JSON — loadable in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`. Each scheme tid is one
//! timeline row; reclamation scans and fault parks render as duration spans,
//! pings/strikes/concessions as instants on the row of the thread that
//! observed them.
//!
//! This binary only runs in a `--features trace` build — tracing is
//! deliberately excluded from the other binaries (they assert it is
//! compiled *out*), so capturing a trace is always an explicit, separate
//! build:
//!
//! ```text
//! cargo run -p nbr-bench --release --features trace --bin trace -- \
//!     [--smr NBR+] [--seed 0x5EED] [--threads 4] [--ops 200000] \
//!     [--capacity 65536] [--out trace.json]
//! ```
//!
//! The fault plan is round 0 of the sweep `stress --faults <seed>` runs
//! ([`FaultPlan::for_round`]), so a crash or anomaly seen in that round can
//! be re-captured here with the same seed.

use smr_common::trace::{self, TraceKind};
use smr_common::SmrConfig;
use smr_harness::families::{run_with, HarrisListFamily, SmrKind};
use smr_harness::fault::{parse_seed, DEFAULT_SWEEP_SEED};
use smr_harness::{report, FaultPlan, StopCondition, WorkloadMix, WorkloadSpec};

struct Args {
    smr: SmrKind,
    seed: u64,
    threads: usize,
    ops: u64,
    capacity: usize,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        smr: SmrKind::NbrPlus,
        seed: DEFAULT_SWEEP_SEED,
        threads: 4,
        ops: 200_000,
        capacity: 65_536,
        out: "trace.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match a.as_str() {
            "--smr" => {
                let s = val("--smr");
                args.smr = SmrKind::parse(&s)
                    .unwrap_or_else(|| panic!("unknown scheme {s} (labels match the bench output)"))
            }
            "--seed" => {
                let s = val("--seed");
                args.seed = parse_seed(&s).unwrap_or_else(|| panic!("--seed {s}: not a number"));
            }
            "--threads" => args.threads = val("--threads").parse().expect("--threads"),
            "--ops" => args.ops = val("--ops").parse().expect("--ops"),
            "--capacity" => args.capacity = val("--capacity").parse().expect("--capacity"),
            "--out" => args.out = val("--out"),
            other => panic!("unknown argument {other}"),
        }
    }
    args
}

fn main() {
    assert!(
        trace::compiled_in(),
        "the trace binary requires the `trace` feature: \
         cargo run -p nbr-bench --release --features trace --bin trace"
    );
    let args = parse_args();

    let plan = FaultPlan::for_round(args.seed, 0, args.threads);
    report::note(
        "fault-plan",
        &format!(
            "smr={} plan={plan} — re-capture with: trace --seed {:#x}",
            args.smr.label(),
            args.seed
        ),
    );

    let spec = WorkloadSpec::new(
        WorkloadMix::UPDATE_HEAVY,
        2_048,
        args.threads,
        StopCondition::TotalOps(args.ops),
    )
    .with_fault_plan(plan);
    let config = SmrConfig::default()
        .with_max_threads(args.threads + 4)
        .with_watermarks(1024, 256)
        .with_signal_cost_ns(2_000);

    trace::begin(args.capacity);
    let r = run_with::<HarrisListFamily>(args.smr, &spec, config);
    let events = trace::end();

    eprintln!(
        "trial: {:.3} Mops/s, {} retired, {} freed, {} faults injected, {} departed",
        r.mops, r.smr_totals.retires, r.smr_totals.frees, r.injected_faults, r.departed_workers
    );
    if trace::dropped() > 0 {
        report::note(
            "trace-dropped",
            &format!(
                "{} events overwritten in the bounded rings — raise --capacity \
                 (currently {}) for a complete timeline",
                trace::dropped(),
                args.capacity
            ),
        );
    }

    // Per-kind tally so the interesting rows are findable without opening
    // the UI; concessions and strikes name the victim thread.
    let mut scans = 0u64;
    let mut concessions = 0u64;
    for e in &events {
        match e.kind {
            TraceKind::ScanBegin => scans += 1,
            TraceKind::PingConceded => {
                concessions += 1;
                eprintln!(
                    "  t{} conceded ping seq={} with {} peer(s) still silent",
                    e.tid, e.a, e.b
                );
            }
            TraceKind::PingStrike => {
                eprintln!("  t{} charged a strike on t{} (count {})", e.tid, e.a, e.b);
            }
            TraceKind::FaultStall | TraceKind::FaultBlackhole => {
                eprintln!(
                    "  t{} fault {} for {} global ops",
                    e.tid,
                    if e.kind == TraceKind::FaultStall {
                        "stall"
                    } else {
                        "blackhole"
                    },
                    e.a
                );
            }
            TraceKind::FaultDepart => {
                eprintln!("  t{} departed at local op {}", e.tid, e.a);
            }
            _ => {}
        }
    }
    eprintln!(
        "{} events ({} scans, {} concessions); writing {}",
        events.len(),
        scans,
        concessions,
        args.out
    );

    let json = trace::to_chrome_json(&events);
    std::fs::write(&args.out, &json).unwrap_or_else(|e| panic!("write {}: {e}", args.out));
    println!(
        "wrote {} ({} events) — load in https://ui.perfetto.dev or chrome://tracing",
        args.out,
        events.len()
    );
}
