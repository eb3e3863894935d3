//! A run gives every round of its end-to-end pass a process of its own: this
//! binary again, with `--round r`, whose last line is the round's summary.

use nbr_benchmark::report::RoundSummary;
use std::process::Command;

fn round(args: &[&str]) -> RoundSummary {
    let out = Command::new(env!("CARGO_BIN_EXE_nbr-benchmark"))
        .args(args)
        .output()
        .expect("spawn nbr-benchmark");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    RoundSummary::from_json(stdout.lines().last().expect("a summary line")).unwrap()
}

#[test]
fn a_round_process_reports_one_checked_round() {
    let r = round(&["--workload", "tree_stall", "--smoke", "--round", "3"]);
    let (ops, failed) = r.tally();
    assert!(ops > 0 && failed == 0 && r.setup_s > 0.0);
    for s in r.panel.iter().chain([&r.none]) {
        assert!(s.size_ok && s.ops_per_s > 0.0 && s.p99_ns >= s.p50_ns && s.p50_ns > 0.0);
        assert!(s.samples > 0 && s.peak_heap_bytes > 0.0);
    }
    // One worker beside the parked reader: DEBRA (panel[1]) cannot free and
    // holds everything it retired; NBR+ (panel[0]) stays at its watermark.
    assert!(r.panel[1].peak_garbage > 4.0 * r.panel[0].peak_garbage);
}

#[test]
fn a_round_flag_is_refused_outside_an_end_to_end_run() {
    let out = Command::new(env!("CARGO_BIN_EXE_nbr-benchmark"))
        .args(["--workload", "list_read", "--trace", "1", "--round", "0"])
        .output()
        .expect("spawn nbr-benchmark");
    assert!(!out.status.success());
}
