//! The scan triggers (`smr_common::reclaim`, "Scan triggers"): short trials
//! must return memory under every reclaiming scheme, the extra
//! heartbeat-triggered scans must never weaken the per-scheme garbage bounds
//! asserted in `garbage_bound.rs`, and the retire path must not scan more
//! often than the paced HiWatermark allows.

use smr_common::SmrConfig;
use smr_harness::families::HarrisListFamily;
use smr_harness::{run_with, SmrKind, StopCondition, WorkloadMix, WorkloadSpec};

/// Every reclaiming scheme — including the Publish-on-Ping family, whose
/// heartbeat scans run a full ping/publish/ack handshake (the workers keep
/// answering pings at their per-hop checkpoints, so short trials still free
/// memory). Leaky is excluded by construction (it never frees).
fn reclaiming_schemes() -> Vec<SmrKind> {
    SmrKind::all()
        .iter()
        .copied()
        .filter(|&k| k != SmrKind::Leaky)
        .collect()
}

/// The ROADMAP failure mode ("HP reclaims nothing below the watermark"): a
/// short trial whose per-thread retire count stays far below `hi_watermark`
/// must still free memory under every scheme, because the operation-exit
/// heartbeat scans once per `scan_heartbeat_ops` completed operations.
#[test]
fn every_scheme_frees_memory_below_the_hi_watermark() {
    let config = SmrConfig::default()
        .with_max_threads(16)
        .with_watermarks(100_000, 25_000) // unreachably high watermarks
        .with_scan_heartbeat_ops(256);
    // Update-heavy on a small list: ~25% of ops retire a record, so 30 K ops
    // across 2 threads retire a few thousand records — far below the
    // watermark, but dozens of heartbeat windows.
    let spec = WorkloadSpec::new(
        WorkloadMix::UPDATE_HEAVY,
        512,
        2,
        StopCondition::TotalOps(30_000),
    );
    for kind in reclaiming_schemes() {
        let r = run_with::<HarrisListFamily>(kind, &spec, config.clone());
        assert!(
            r.smr_totals.retires < config.hi_watermark as u64,
            "{}: trial must stay below the hi watermark to be meaningful",
            kind.label()
        );
        assert!(
            r.smr_totals.frees > 0,
            "{} freed nothing out of {} retires below the watermark \
             (heartbeat_scans={}, reclaim_scans={})",
            kind.label(),
            r.smr_totals.retires,
            r.smr_totals.heartbeat_scans,
            r.smr_totals.reclaim_scans,
        );
    }
}

/// With the heartbeat disabled the seed behaviour returns: hazard pointers
/// free nothing below the watermark (the control for the test above; the
/// epoch/era families still reclaim through their `epoch_freq`-paced scans).
#[test]
fn disabled_heartbeat_restores_fixed_watermark_behaviour() {
    let config = SmrConfig::default()
        .with_max_threads(16)
        .with_watermarks(100_000, 25_000)
        .with_scan_heartbeat_ops(0);
    let spec = WorkloadSpec::new(
        WorkloadMix::UPDATE_HEAVY,
        512,
        2,
        StopCondition::TotalOps(30_000),
    );
    let r = run_with::<HarrisListFamily>(SmrKind::Hp, &spec, config.clone());
    assert_eq!(
        r.smr_totals.frees, 0,
        "HP with no heartbeat and an unreachable watermark must free nothing"
    );
    assert_eq!(r.smr_totals.heartbeat_scans, 0);
}

/// Heartbeat scans are bounded work: at most one scan per
/// `scan_heartbeat_ops` completed operations per thread.
#[test]
fn heartbeat_scan_count_is_bounded_by_ops() {
    let heartbeat = 256u64;
    let total_ops = 40_000u64;
    let config = SmrConfig::default()
        .with_max_threads(16)
        .with_watermarks(100_000, 25_000)
        .with_scan_heartbeat_ops(heartbeat as usize);
    let spec = WorkloadSpec::new(
        WorkloadMix::UPDATE_HEAVY,
        512,
        2,
        StopCondition::TotalOps(total_ops),
    );
    for kind in reclaiming_schemes() {
        let r = run_with::<HarrisListFamily>(kind, &spec, config.clone());
        // Workers overshoot the ops budget by at most one 64-op batch each;
        // allow generous slack on top of total/heartbeat.
        let bound = r.total_ops / heartbeat + 2 * spec.threads as u64;
        assert!(
            r.smr_totals.heartbeat_scans <= bound,
            "{}: {} heartbeat scans exceeds the pacing bound {}",
            kind.label(),
            r.smr_totals.heartbeat_scans,
            bound
        );
    }
}

/// The retire path is paced: every scan re-arms the next retire-path cue at
/// least `lo_watermark` retires past the bag it left, so over a trial a
/// thread runs at most one retire-path scan per `lo_watermark` retires, on
/// top of its heartbeat scans and its last scan at deregistration. A
/// per-retire cadence that scans a bag far below the HiWatermark breaks
/// this bound by the ratio of the two periods.
#[test]
fn retire_path_scans_are_paced_by_the_lo_watermark() {
    let config = SmrConfig::default().with_max_threads(16);
    let spec = WorkloadSpec::new(
        WorkloadMix::UPDATE_HEAVY,
        512,
        2,
        StopCondition::TotalOps(40_000),
    );
    let paced = [
        SmrKind::Hp,
        SmrKind::Nbr,
        SmrKind::Ibr,
        SmrKind::He,
        SmrKind::Wfe,
        SmrKind::Rcu,
        SmrKind::EpochPop,
        SmrKind::HpPop,
    ];
    let mut over = Vec::new();
    for kind in paced {
        let r = run_with::<HarrisListFamily>(kind, &spec, config.clone());
        let t = &r.smr_totals;
        assert!(
            t.retires > 2 * config.hi_watermark as u64,
            "{}: {} retires are too few to cross the HiWatermark",
            kind.label(),
            t.retires
        );
        let bound =
            t.heartbeat_scans + t.retires / config.lo_watermark as u64 + 2 * spec.threads as u64;
        if t.reclaim_scans > bound {
            over.push(format!(
                "{}: {} scans > {bound} ({} heartbeat, {} retires)",
                kind.label(),
                t.reclaim_scans,
                t.heartbeat_scans,
                t.retires
            ));
        }
    }
    assert!(over.is_empty(), "retire-path scans not paced: {over:?}");
}
