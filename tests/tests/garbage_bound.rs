//! The bounded-garbage property (Lemma 10 / experiment E2) across crates:
//! NBR, NBR+, HP and IBR must keep unreclaimed records bounded even with a
//! thread stalled inside an operation, while DEBRA/RCU must not.

use smr_common::SmrConfig;
use smr_harness::families::{DgtTreeFamily, LazyListFamily};
use smr_harness::{run_with, SmrKind, StopCondition, WorkloadMix, WorkloadSpec};

fn cfg() -> SmrConfig {
    SmrConfig::default()
        .with_max_threads(16)
        .with_watermarks(256, 64)
}

fn stalled_spec(key_range: u64, ops: u64) -> WorkloadSpec {
    WorkloadSpec::new(
        WorkloadMix::UPDATE_HEAVY,
        key_range,
        2,
        StopCondition::TotalOps(ops),
    )
    .with_stalled_thread(true)
}

/// Per-thread bound from Lemma 10, times the number of participating threads,
/// with headroom for records retired after the last reclamation scan. Every
/// thread's `R·N` protection slots are counted twice, as headroom.
fn bound(config: &SmrConfig, threads: u64) -> u64 {
    (config.hi_watermark + 2 * config.max_reservations * config.max_threads) as u64 * (threads + 1)
}

#[test]
fn nbr_plus_bounds_garbage_with_stalled_thread() {
    let config = cfg();
    let r = run_with::<DgtTreeFamily>(
        SmrKind::NbrPlus,
        &stalled_spec(4_096, 60_000),
        config.clone(),
    );
    assert!(
        r.outstanding_garbage() <= bound(&config, 3),
        "NBR+ outstanding garbage {} exceeds the bound {}",
        r.outstanding_garbage(),
        bound(&config, 3)
    );
    assert!(
        r.smr_totals.frees > 0,
        "NBR+ must have reclaimed during the run"
    );
}

#[test]
fn nbr_bounds_garbage_with_stalled_thread() {
    let config = cfg();
    let r = run_with::<DgtTreeFamily>(SmrKind::Nbr, &stalled_spec(4_096, 60_000), config.clone());
    assert!(r.outstanding_garbage() <= bound(&config, 3));
}

#[test]
fn hazard_pointers_bound_garbage_with_stalled_thread() {
    let config = cfg();
    let r = run_with::<DgtTreeFamily>(SmrKind::Hp, &stalled_spec(4_096, 60_000), config.clone());
    assert!(r.outstanding_garbage() <= bound(&config, 3));
}

#[test]
fn ibr_bounds_garbage_with_stalled_thread() {
    // An interval-based reclaimer's stalled-reader bound differs from HP/NBR:
    // the stalled thread announces the era interval [e, e] and pins every
    // record whose lifetime overlaps it — i.e. up to the whole live set at the
    // stall point (the DGT external tree holds ~2 nodes per key: leaf plus
    // internal router), on top of the per-thread Lemma-10 slack. The bound is
    // therefore larger than HP/NBR's, but still *fixed*: it must not grow with
    // trial length, which is what separates IBR from DEBRA/RCU.
    let config = cfg();
    let key_range = 4_096u64;
    let live_at_stall = 2 * (key_range / 2); // prefill = key_range / 2
    let ibr_bound = bound(&config, 3) + live_at_stall;
    let short = run_with::<DgtTreeFamily>(
        SmrKind::Ibr,
        &stalled_spec(key_range, 60_000),
        config.clone(),
    );
    let long = run_with::<DgtTreeFamily>(
        SmrKind::Ibr,
        &stalled_spec(key_range, 180_000),
        config.clone(),
    );
    assert!(
        short.outstanding_garbage() <= ibr_bound,
        "IBR outstanding garbage {} exceeds the interval bound {}",
        short.outstanding_garbage(),
        ibr_bound
    );
    assert!(
        long.outstanding_garbage() <= ibr_bound,
        "IBR garbage must not grow with trial length: {} after 3x the ops, bound {}",
        long.outstanding_garbage(),
        ibr_bound
    );
}

#[test]
fn wfe_bounds_garbage_with_stalled_thread() {
    // WFE is the tree's first *robust* reclaimer: like IBR/HE its stalled
    // reader pins at most the records whose lifetime overlaps its announced
    // era hull — bounded by the live set at the stall point — and unlike the
    // epoch family the bound is constant in trial length. Two trial lengths
    // prove the constancy.
    let config = cfg();
    let key_range = 4_096u64;
    let live_at_stall = 2 * (key_range / 2); // prefill = key_range / 2
    let wfe_bound = bound(&config, 3) + live_at_stall;
    let short = run_with::<DgtTreeFamily>(
        SmrKind::Wfe,
        &stalled_spec(key_range, 60_000),
        config.clone(),
    );
    let long = run_with::<DgtTreeFamily>(
        SmrKind::Wfe,
        &stalled_spec(key_range, 180_000),
        config.clone(),
    );
    assert!(
        short.outstanding_garbage() <= wfe_bound,
        "WFE outstanding garbage {} exceeds the robust bound {}",
        short.outstanding_garbage(),
        wfe_bound
    );
    assert!(
        long.outstanding_garbage() <= wfe_bound,
        "WFE garbage must not grow with trial length: {} after 3x the ops, bound {}",
        long.outstanding_garbage(),
        wfe_bound
    );
    assert!(
        short.smr_totals.frees > 0,
        "WFE must have reclaimed during the run"
    );
}

#[test]
fn wfe_bounded_while_epoch_family_grows_under_injected_permanent_stall() {
    // The ISSUE-7 robustness assertion, via the fault adversary instead of
    // the E2 stalled extra thread: one worker stalls *permanently* inside an
    // open operation (still acking pings). WFE's garbage stays under the
    // fixed robust bound; DEBRA's and QSBR's provably grows past it, because
    // the victim pins the epoch from the stall point onward. The stall is at
    // op 0, so the victim pins before the start barrier and every retire of
    // the trial lands behind its pin.
    use smr_harness::{FaultKind, FaultPlan};
    let config = cfg();
    let key_range = 4_096u64;
    let mk_spec = || {
        WorkloadSpec::new(
            WorkloadMix::UPDATE_HEAVY,
            key_range,
            3,
            StopCondition::TotalOps(60_000),
        )
        .with_fault_plan(FaultPlan::single(
            0,
            0,
            FaultKind::Stall { for_ops: u64::MAX },
        ))
    };
    let live_at_stall = 2 * (key_range / 2);
    let robust_bound = bound(&config, 4) + live_at_stall;

    let wfe = run_with::<DgtTreeFamily>(SmrKind::Wfe, &mk_spec(), config.clone());
    assert_eq!(wfe.injected_faults, 1);
    assert!(
        wfe.outstanding_garbage() <= robust_bound,
        "WFE outstanding garbage {} exceeds the robust bound {} under a permanent stall",
        wfe.outstanding_garbage(),
        robust_bound
    );
    assert!(wfe.smr_totals.frees > 0);

    for kind in [SmrKind::Debra, SmrKind::Qsbr] {
        let r = run_with::<DgtTreeFamily>(kind, &mk_spec(), config.clone());
        assert_eq!(r.injected_faults, 1, "{}", kind.label());
        assert!(
            r.outstanding_garbage() > robust_bound,
            "{} should accumulate garbage ({}) past the robust bound ({}) under the same stall",
            kind.label(),
            r.outstanding_garbage(),
            robust_bound
        );
        assert!(
            r.outstanding_garbage() > wfe.outstanding_garbage(),
            "{} ({}) must hold more garbage than WFE ({})",
            kind.label(),
            r.outstanding_garbage(),
            wfe.outstanding_garbage()
        );
    }
}

#[test]
fn hp_pop_bounds_garbage_with_stalled_thread() {
    // HP-POP's private-until-pinged reservations still yield HP's bound: the
    // stalled reader publishes at most `max_reservations` addresses on each
    // ping (its read phase holds no protections in the E2 scenario), so the
    // handshake completes and the sweep frees everything unreserved. The
    // bound() slack already covers K published slots per thread.
    let config = cfg();
    let r = run_with::<DgtTreeFamily>(SmrKind::HpPop, &stalled_spec(4_096, 60_000), config.clone());
    assert!(
        r.outstanding_garbage() <= bound(&config, 3),
        "HP-POP outstanding garbage {} exceeds the bound {}",
        r.outstanding_garbage(),
        bound(&config, 3)
    );
    assert!(
        r.smr_totals.frees > 0,
        "HP-POP must have reclaimed during the run"
    );
    assert!(
        r.smr_totals.pings_published > 0,
        "reclamation must have gone through publish-on-ping handshakes"
    );
}

#[test]
fn epoch_pop_does_not_bound_garbage_with_stalled_thread() {
    // EpochPOP keeps the epoch family's delayed-thread vulnerability: the
    // stalled reader answers every ping by publishing its (old) begin-op era,
    // which pins everything retired since — private-until-pinged reservations
    // change where the announcement lives, not what it pins.
    let config = cfg();
    let r = run_with::<DgtTreeFamily>(
        SmrKind::EpochPop,
        &stalled_spec(4_096, 60_000),
        config.clone(),
    );
    assert!(
        r.outstanding_garbage() > bound(&config, 3),
        "EpochPOP should accumulate garbage ({}) beyond the bounded-scheme bound ({}) when a thread stalls",
        r.outstanding_garbage(),
        bound(&config, 3)
    );
}

#[test]
fn debra_does_not_bound_garbage_with_stalled_thread() {
    let config = cfg();
    let r = run_with::<DgtTreeFamily>(SmrKind::Debra, &stalled_spec(4_096, 60_000), config.clone());
    assert!(
        r.outstanding_garbage() > bound(&config, 3),
        "DEBRA should accumulate garbage ({}) beyond the bounded-scheme bound ({}) when a thread stalls",
        r.outstanding_garbage(),
        bound(&config, 3)
    );
}

#[test]
fn rcu_does_not_bound_garbage_with_stalled_thread() {
    let config = cfg();
    let r = run_with::<DgtTreeFamily>(SmrKind::Rcu, &stalled_spec(4_096, 60_000), config.clone());
    assert!(r.outstanding_garbage() > bound(&config, 3));
}

#[test]
fn without_stalled_thread_everyone_reclaims() {
    let config = cfg();
    for kind in [
        SmrKind::NbrPlus,
        SmrKind::Debra,
        SmrKind::Hp,
        SmrKind::Ibr,
        SmrKind::Rcu,
        SmrKind::EpochPop,
        SmrKind::HpPop,
    ] {
        let spec = WorkloadSpec::new(
            WorkloadMix::UPDATE_HEAVY,
            4_096,
            2,
            StopCondition::TotalOps(60_000),
        );
        let r = run_with::<LazyListFamily>(kind, &spec, config.clone());
        assert!(
            r.smr_totals.frees > 0,
            "{} must reclaim — freed nothing out of {} retires",
            kind.label(),
            r.smr_totals.retires
        );
    }
}

#[test]
fn adaptive_trigger_preserves_bounds_for_bounded_schemes() {
    // The operation-exit heartbeat only *adds* scans — it must never weaken
    // the Lemma 10-style bounds. Run the bounded schemes with an aggressive
    // heartbeat (a scan every 64 ops) under the stalled-thread workload and
    // assert the same bounds as the fixed-watermark tests above.
    let config = cfg().with_scan_heartbeat_ops(64);
    for kind in [SmrKind::NbrPlus, SmrKind::Nbr, SmrKind::Hp, SmrKind::HpPop] {
        let r = run_with::<DgtTreeFamily>(kind, &stalled_spec(4_096, 60_000), config.clone());
        assert!(
            r.outstanding_garbage() <= bound(&config, 3),
            "{} with heartbeat: outstanding garbage {} exceeds the bound {}",
            kind.label(),
            r.outstanding_garbage(),
            bound(&config, 3)
        );
        assert!(
            r.smr_totals.frees > 0,
            "{} with heartbeat must still reclaim",
            kind.label()
        );
    }
    // IBR's stalled-reader bound includes the live set pinned at the stall
    // point (see ibr_bounds_garbage_with_stalled_thread).
    let live_at_stall = 2 * (4_096 / 2);
    let r = run_with::<DgtTreeFamily>(SmrKind::Ibr, &stalled_spec(4_096, 60_000), config.clone());
    assert!(
        r.outstanding_garbage() <= bound(&config, 3) + live_at_stall,
        "IBR with heartbeat: outstanding garbage {} exceeds the interval bound {}",
        r.outstanding_garbage(),
        bound(&config, 3) + live_at_stall
    );
}

#[test]
fn coalescing_adds_exactly_the_batch_slack_to_robust_bounds() {
    // Each thread's watermark trigger is only evaluated once every
    // RETIRE_BATCH_CAP retires, so a bag can overshoot the HiWatermark by at
    // most the records retired since the last check — a *fixed* slack of
    // RETIRE_BATCH_CAP − 1 per participating thread. The robust schemes (HP,
    // WFE) must hold their stalled-reader bounds at exactly that widened
    // figure.
    use smr_common::RETIRE_BATCH_CAP;
    let config = cfg();
    let slack = (RETIRE_BATCH_CAP as u64 - 1) * 4; // threads + 1 participants
    let hp = run_with::<DgtTreeFamily>(SmrKind::Hp, &stalled_spec(4_096, 60_000), config.clone());
    assert!(
        hp.outstanding_garbage() <= bound(&config, 3) + slack,
        "HP: outstanding {} exceeds bound {} + batch slack {}",
        hp.outstanding_garbage(),
        bound(&config, 3),
        slack
    );
    assert!(hp.smr_totals.frees > 0);

    let live_at_stall = 2 * (4_096 / 2);
    let wfe = run_with::<DgtTreeFamily>(SmrKind::Wfe, &stalled_spec(4_096, 60_000), config.clone());
    assert!(
        wfe.outstanding_garbage() <= bound(&config, 3) + live_at_stall + slack,
        "WFE: outstanding {} exceeds robust bound {} + batch slack {}",
        wfe.outstanding_garbage(),
        bound(&config, 3) + live_at_stall,
        slack
    );
    assert!(wfe.smr_totals.frees > 0);
}

#[test]
fn wfe_robust_bound_holds_with_coalescing_under_permanent_stall() {
    // One worker permanently stalled inside an open operation, and WFE's
    // garbage still under the fixed robust bound widened by the batch slack
    // only.
    use smr_common::RETIRE_BATCH_CAP;
    use smr_harness::{FaultKind, FaultPlan};
    let config = cfg();
    let key_range = 4_096u64;
    let spec = WorkloadSpec::new(
        WorkloadMix::UPDATE_HEAVY,
        key_range,
        3,
        StopCondition::TotalOps(60_000),
    )
    .with_fault_plan(FaultPlan::single(
        0,
        256,
        FaultKind::Stall { for_ops: u64::MAX },
    ));
    let live_at_stall = 2 * (key_range / 2);
    let slack = (RETIRE_BATCH_CAP as u64 - 1) * 5; // threads + 1 participants
    let robust_bound = bound(&config, 4) + live_at_stall + slack;
    let r = run_with::<DgtTreeFamily>(SmrKind::Wfe, &spec, config);
    assert_eq!(r.injected_faults, 1);
    assert!(
        r.outstanding_garbage() <= robust_bound,
        "WFE with coalescing: outstanding {} exceeds the robust bound {} under a permanent stall",
        r.outstanding_garbage(),
        robust_bound
    );
    assert!(r.smr_totals.frees > 0);
}

#[test]
fn nbr_plus_piggybacks_instead_of_signalling() {
    // System-level version of the Section 5 claim: for the same workload NBR+
    // must send fewer signals than NBR while reclaiming a comparable amount.
    // NBR pays one broadcast per HiWatermark of retires (3 signals per 256
    // frees, 0.0117) and NBR+ frees part of every bag on its peers' rounds
    // (0.0094).
    let config = cfg();
    let spec = WorkloadSpec::new(
        WorkloadMix::UPDATE_HEAVY,
        4_096,
        4,
        StopCondition::TotalOps(120_000),
    );
    // Median of five trials per scheme: on an oversubscribed
    // box a trial now and then loses a stretch to conceded handshakes
    // (signals sent, nothing freed), under either scheme.
    let median_rate = |kind: SmrKind| {
        let mut rates: Vec<f64> = (0..5)
            .map(|_| {
                let r = run_with::<DgtTreeFamily>(kind, &spec, config.clone());
                assert!(r.smr_totals.frees > 0, "{} freed nothing", kind.label());
                r.smr_totals.signals_sent as f64 / r.smr_totals.frees as f64
            })
            .collect();
        rates.sort_by(f64::total_cmp);
        rates[2]
    };
    let (nbr_rate, plus_rate) = (median_rate(SmrKind::Nbr), median_rate(SmrKind::NbrPlus));
    assert!(
        plus_rate < nbr_rate,
        "NBR+ signals-per-free ({plus_rate:.4}) must be below NBR's ({nbr_rate:.4})"
    );
}
