//! Resurrect-the-bug validation: flip the test-only flags that restore two
//! historical soundness bugs and assert the explorer + oracle rediscover
//! both within a bounded schedule budget, printing the replayable seed.
//!
//! * **HE point-era sweep** (pre-PR-5): each announced era treated as a
//!   degenerate `[e, e]` interval instead of the per-thread hull. A record
//!   born and retired strictly *between* two eras a traverser announced is
//!   covered by neither point and gets freed while the traverser can still
//!   reach it through a marked-frozen pointer (the marked-chain race).
//!   Expected oracle verdict: `premature-free/era-hull` (the claim hull
//!   overlaps the lifetime the point sweep ignored) or, if the schedule
//!   lets the traverser touch the block first, `use-after-free/deref`.
//!
//! * **IBR stamp-before-pop** (recycle ABA): the allocation reads the era
//!   clock *before* popping a block, so a block retired and recycled in the
//!   window gets a birth era that backdates the new incarnation into the
//!   old one's lifetime. Expected oracle verdict:
//!   `recycle/overlapping-incarnations` (checked because IBR sessions run
//!   with `birth_era_monotonic`).
//!
//! Budget knob: `SMR_CHECK_RESURRECT_SCHEDULES` (default 400 per bug).

use conc_ds::{ConcurrentSet, HarrisList};
use smr_baselines::{HazardEras, Ibr};
use smr_check::{explore_one, Params, RunReport, SplitMix64, Strategy};

fn schedules_budget() -> u64 {
    std::env::var("SMR_CHECK_RESURRECT_SCHEDULES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(400)
}

fn strategy_for(i: u64) -> Strategy {
    match i % 4 {
        0 => Strategy::Random { switch_one_in: 1 },
        1 => Strategy::Random { switch_one_in: 4 },
        2 => Strategy::Pct { depth: 3 },
        _ => Strategy::Pct { depth: 10 },
    }
}

/// What a hunt prints for one run: its schedule and what went wrong.
fn banner(what: &str, strategy: Strategy, seed: u64, report: &RunReport) -> String {
    format!(
        "{what}/harris-list: Strategy::{strategy:?}, seed {seed:#x}, steps={}\n{}\n{}",
        report.steps,
        report.failure.as_deref().unwrap_or(""),
        report
            .violation
            .as_ref()
            .map(|v| v.to_string())
            .unwrap_or_default()
    )
}

/// Runs schedules until `run` reports a violation matching `accept`, then
/// prints the replay banner for it. Panics (with the closest miss, if any)
/// when the budget is exhausted without a rediscovery.
fn hunt(what: &str, accept: &dyn Fn(&RunReport) -> bool, run: &dyn Fn(Strategy, u64) -> RunReport) {
    let budget = schedules_budget();
    let mut seeds = SplitMix64(0xB0_6005);
    let mut near_miss: Option<String> = None;
    for i in 0..budget {
        let strategy = strategy_for(i);
        let seed = seeds.next_u64();
        let report = run(strategy, seed);
        if accept(&report) {
            println!(
                "rediscovered {what} after {} schedule(s):\n{}",
                i + 1,
                banner(what, strategy, seed, &report)
            );
            return;
        }
        if !report.clean() && near_miss.is_none() {
            near_miss = Some(banner(what, strategy, seed, &report));
        }
    }
    panic!(
        "explorer failed to rediscover {what} within {budget} schedules{}",
        near_miss
            .map(|m| format!("; closest other failure:\n{m}"))
            .unwrap_or_default()
    );
}

#[test]
fn rediscovers_he_point_era_sweep_bug() {
    // Heavy remove/insert churn on few keys: marked chains form and the
    // era clock (epoch_freq=1) ticks on every retire, opening gaps between
    // a traverser's two announced eras.
    let params = Params {
        workers: 3,
        ops_per_worker: 12,
        key_range: 4,
        ..Params::default()
    };
    hunt(
        "he-point-era-sweep",
        &|report| {
            report.violation.as_ref().is_some_and(|v| {
                v.rule.starts_with("premature-free") || v.rule.starts_with("use-after-free")
            })
        },
        &|strategy, seed| {
            explore_one::<HazardEras, HarrisList<HazardEras>, _>(
                "he-resurrect",
                true,
                &params,
                strategy,
                seed,
                |cfg| {
                    let ds = HarrisList::<HazardEras>::new(cfg);
                    ds.smr().resurrect_point_era_sweep();
                    ds
                },
            )
        },
    );
}

#[test]
fn rediscovers_ibr_stamp_before_pop_bug() {
    // Tiny magazines force freed blocks through the shared depot, so a
    // block retired by one worker is handed to another worker's stalled
    // allocation (paused at the `ibr.alloc.stale-stamp` preempt point).
    let params = Params {
        workers: 3,
        ops_per_worker: 12,
        key_range: 4,
        magazine_cap: 2,
        ..Params::default()
    };
    hunt(
        "ibr-stamp-before-pop",
        &|report| {
            report
                .violation
                .as_ref()
                .is_some_and(|v| v.rule == "recycle/overlapping-incarnations")
        },
        &|strategy, seed| {
            explore_one::<Ibr, HarrisList<Ibr>, _>(
                "ibr-resurrect",
                true,
                &params,
                strategy,
                seed,
                |cfg| {
                    let ds = HarrisList::<Ibr>::new(cfg);
                    ds.smr().resurrect_stamp_before_pop();
                    ds
                },
            )
        },
    );
}
