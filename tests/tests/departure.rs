//! Departure and fault-adversary smoke across all 12 schemes: a worker that
//! leaves mid-trial (no flush, no quiescing) must not strand its garbage —
//! its limbo bag is handed to the `OrphanPool` by `unregister`, survivors
//! adopt it at their next scan, and its magazines return to the depot — and
//! a worker that black-holes pings must degrade reclamation gracefully
//! instead of stopping it.

use smr_common::SmrConfig;
use smr_harness::families::LazyListFamily;
use smr_harness::{
    run_with, FaultKind, FaultPlan, SmrKind, StopCondition, WorkloadMix, WorkloadSpec,
};

fn cfg() -> SmrConfig {
    SmrConfig::default()
        .with_max_threads(16)
        .with_watermarks(256, 64)
}

/// Lemma-10-style slack per participating thread, plus the whole live set
/// (interval schemes pin lifetime-overlapping records; the list holds one
/// node per key) and one orphaned limbo bag that may still be parked in the
/// pool when the last survivor unregisters. The `R·N` protection slots are
/// counted twice, as headroom.
fn departure_bound(config: &SmrConfig, threads: u64, key_range: u64) -> u64 {
    (config.hi_watermark + 2 * config.max_reservations * config.max_threads) as u64 * (threads + 1)
        + key_range
}

#[test]
fn departing_workers_garbage_is_freed_by_survivors() {
    let config = cfg();
    let key_range = 512u64;
    for &kind in SmrKind::all() {
        let spec = WorkloadSpec::new(
            WorkloadMix::UPDATE_HEAVY,
            key_range,
            3,
            StopCondition::TotalOps(30_000),
        )
        .with_fault_plan(FaultPlan::single(1, 512, FaultKind::Depart));
        let r = run_with::<LazyListFamily>(kind, &spec, config.clone());
        assert_eq!(r.departed_workers, 1, "{}", kind.label());
        assert!(r.total_ops >= 30_000, "{}", kind.label());
        if kind == SmrKind::Leaky {
            continue; // never frees by design; departure-safe via Drop only
        }
        assert!(
            r.smr_totals.frees > 0,
            "{} must keep reclaiming after a departure",
            kind.label()
        );
        assert!(
            r.outstanding_garbage() <= departure_bound(&config, 4, key_range),
            "{}: departing worker's garbage leaked — {} outstanding exceeds {}",
            kind.label(),
            r.outstanding_garbage(),
            departure_bound(&config, 4, key_range)
        );
    }
}

#[test]
fn multiple_departures_leave_survivors_reclaiming() {
    // Two of four workers leave; the remaining two must adopt both orphan
    // bags and keep the garbage level bounded.
    let config = cfg();
    let key_range = 512u64;
    for kind in [SmrKind::NbrPlus, SmrKind::Wfe, SmrKind::Debra, SmrKind::Hp] {
        let plan = FaultPlan::single(0, 512, FaultKind::Depart).with(2, 1024, FaultKind::Depart);
        let spec = WorkloadSpec::new(
            WorkloadMix::UPDATE_HEAVY,
            key_range,
            4,
            StopCondition::TotalOps(40_000),
        )
        .with_fault_plan(plan);
        let r = run_with::<LazyListFamily>(kind, &spec, config.clone());
        assert_eq!(r.departed_workers, 2, "{}", kind.label());
        assert!(
            r.smr_totals.frees > 0,
            "{} must keep reclaiming after two departures",
            kind.label()
        );
        assert!(
            r.outstanding_garbage() <= departure_bound(&config, 5, key_range),
            "{}: outstanding {} exceeds {}",
            kind.label(),
            r.outstanding_garbage(),
            departure_bound(&config, 5, key_range)
        );
    }
}

#[test]
fn black_holed_pings_degrade_without_stopping_reclamation() {
    // A worker that never acks pings for a window must cost the ping-based
    // reclaimers conceded rounds, not a standstill: reclamation resumes when
    // the window ends and the trial's overall frees stay healthy.
    let config = cfg();
    for kind in [
        SmrKind::Nbr,
        SmrKind::NbrPlus,
        SmrKind::EpochPop,
        SmrKind::HpPop,
    ] {
        let spec = WorkloadSpec::new(
            WorkloadMix::UPDATE_HEAVY,
            512,
            3,
            StopCondition::TotalOps(40_000),
        )
        .with_fault_plan(FaultPlan::single(
            0,
            512,
            FaultKind::BlackholePings { for_ops: 4_096 },
        ));
        let r = run_with::<LazyListFamily>(kind, &spec, config.clone());
        assert_eq!(r.injected_faults, 1, "{}", kind.label());
        assert!(r.total_ops >= 40_000, "{}", kind.label());
        assert!(
            r.smr_totals.frees > 0,
            "{} must reclaim despite a black-holed peer",
            kind.label()
        );
    }
}

mod staged_probe {
    //! Drop-counting node for the mid-batch departure regression: every
    //! reclaim runs the destructor exactly once, so the counter separates
    //! "leaked" (< n) from "double-adopted" (> n, if it doesn't crash first).

    use smr_common::NodeHeader;
    use std::sync::atomic::{AtomicUsize, Ordering};

    pub static DROPS: AtomicUsize = AtomicUsize::new(0);

    pub struct Probe {
        pub header: NodeHeader,
        #[allow(dead_code)]
        pub key: u64,
    }

    impl Drop for Probe {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Ordering::SeqCst);
        }
    }

    smr_common::impl_smr_node!(Probe);
}

#[test]
fn staged_retires_survive_departure_and_are_freed_exactly_once() {
    // A worker that departs mid-batch (fewer than `RETIRE_BATCH_CAP`
    // retires, so no watermark check has run yet) must not strand those
    // records: every one is freed exactly once — by the departing thread's
    // last scan, a survivor's adoption, or the domain owner's drop — and
    // never twice.
    use smr_baselines::{Debra, HazardEras, HazardPointers, Ibr, Leaky, Qsbr, Rcu, Wfe};
    use smr_common::{NodeHeader, Smr, RETIRE_BATCH_CAP};
    use smr_pop::{EpochPop, HpPop};
    use staged_probe::{Probe, DROPS};
    use std::sync::atomic::Ordering;

    fn run_one<S: Smr>(smr: S, label: &str) {
        // Strictly inside one batch: no watermark check, nothing swept yet.
        let n = RETIRE_BATCH_CAP - 3;
        assert!(n >= 1);
        let before = DROPS.load(Ordering::SeqCst);
        let mut survivor = smr.register(0);
        let mut departing = smr.register(1);
        for i in 0..n {
            let p = smr.alloc(
                &mut departing,
                Probe {
                    header: NodeHeader::new(),
                    key: i as u64,
                },
            );
            // SAFETY: `p` was just allocated and never linked into any
            // structure, so no other thread can hold a reference to it.
            unsafe { smr.retire(&mut departing, p) };
        }
        assert_eq!(
            smr.limbo_len(&departing),
            n,
            "{label}: staged retires must count toward the limbo length"
        );
        assert_eq!(
            smr.thread_stats(&departing).frees,
            0,
            "{label}: a part-filled staging batch must not have been swept"
        );
        assert_eq!(
            DROPS.load(Ordering::SeqCst) - before,
            0,
            "{label}: no destructor may run while the records are staged"
        );

        // Departure without quiescing: the stage must flow into the final
        // scan / orphan hand-off, never be dropped on the floor.
        smr.unregister(&mut departing);
        smr.flush(&mut survivor);
        smr.unregister(&mut survivor);
        // Whatever neither the departing thread's last scan nor the
        // survivor could free sits in the orphan pool and is reclaimed when the domain owner drops.
        drop(smr);
        assert_eq!(
            DROPS.load(Ordering::SeqCst) - before,
            n,
            "{label}: every staged node must be freed exactly once"
        );
    }

    let cfg = || SmrConfig::for_tests().with_max_threads(4);
    run_one(nbr::Nbr::new(cfg()), "NBR");
    run_one(nbr::NbrPlus::new(cfg()), "NBR+");
    run_one(Debra::new(cfg()), "DEBRA");
    run_one(Qsbr::new(cfg()), "QSBR");
    run_one(Rcu::new(cfg()), "RCU");
    run_one(HazardPointers::new(cfg()), "HP");
    run_one(Ibr::new(cfg()), "IBR");
    run_one(HazardEras::new(cfg()), "HE");
    run_one(Wfe::new(cfg()), "WFE");
    run_one(EpochPop::new(cfg()), "EpochPOP");
    run_one(HpPop::new(cfg()), "HP-POP");
    run_one(Leaky::new(cfg()), "Leaky");
}

#[test]
fn seeded_fault_plans_replay_identically() {
    // The CI fault cells print their seed as the replay handle; the same
    // seed must reproduce the same trial outcome bit-for-bit in ops.
    let config = cfg();
    let mk = || {
        WorkloadSpec::new(
            WorkloadMix::UPDATE_HEAVY,
            256,
            3,
            StopCondition::TotalOps(20_000),
        )
        .with_fault_plan(FaultPlan::seeded(0xFA17_5EED, 3))
    };
    let a = run_with::<LazyListFamily>(SmrKind::Wfe, &mk(), config.clone());
    let b = run_with::<LazyListFamily>(SmrKind::Wfe, &mk(), config.clone());
    assert_eq!(a.injected_faults, b.injected_faults);
    assert_eq!(a.departed_workers, b.departed_workers);
}
