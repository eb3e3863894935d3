//! The seeded exploration sweep: every scheme on the Harris list and the
//! hash map, and NBR, NBR+, DEBRA, QSBR, RCU, EpochPOP and the leaky
//! baseline on the lazy list and the DGT tree, plus NBR+ on those two in
//! its LoWatermark band ([`Params::lo_band`]). Each
//! cell runs a batch of deterministic schedules (a mix of random-switch and
//! PCT strategies) and must come out oracle-clean.
//!
//! Knobs (environment):
//!
//! * `SMR_CHECK_SCHEDULES` — schedules per cell (default 100; the 40-cell
//!   matrix then runs 4000 schedules).
//! * `SMR_CHECK_SEED` — base seed (default `0x5EED_CAFE`; accepts `0x...`).
//!   Each schedule's seed is derived from it per cell, so a reported
//!   failure is not replayed through this knob: its banner prints the exact
//!   `run_matrix_one(…)` call that reproduces the run.
//! * `SMR_CHECK_CELL_SECS` — wall-clock budget per cell (default 30s);
//!   a cell that runs out of time stops early and reports how far it got
//!   rather than blowing the CI budget.

use smr_check::{replay_banner, run_matrix_one, Params, Scheme, SplitMix64, Strategy, Structure};
use std::time::{Duration, Instant};

fn env_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Ok(v) => {
            let v = v.trim();
            let parsed = if let Some(hex) = v.strip_prefix("0x") {
                u64::from_str_radix(hex, 16)
            } else {
                v.parse()
            };
            parsed.unwrap_or_else(|_| panic!("{name}={v} is not a u64"))
        }
        Err(_) => default,
    }
}

/// The strategy rotation: frequent and rare random switching plus shallow
/// and deep PCT. Different strategies expose different bug shapes — dense
/// switching finds short races, PCT finds low-preemption-count windows that
/// uniform switching almost never hits.
fn strategy_for(i: u64) -> Strategy {
    match i % 5 {
        0 => Strategy::Random { switch_one_in: 1 },
        1 => Strategy::Random { switch_one_in: 3 },
        2 => Strategy::Random { switch_one_in: 8 },
        3 => Strategy::Pct { depth: 3 },
        _ => Strategy::Pct { depth: 10 },
    }
}

fn sweep_cell(scheme: Scheme, structure: Structure) {
    sweep(scheme, structure, &Params::default());
}

/// Runs one cell's schedules under `params`; returns the summed
/// `rgp_reclaims` of its runs.
fn sweep(scheme: Scheme, structure: Structure, params: &Params) -> u64 {
    let schedules = env_u64("SMR_CHECK_SCHEDULES", 100);
    let base_seed = env_u64("SMR_CHECK_SEED", 0x5EED_CAFE);
    let cell_budget = Duration::from_secs(env_u64("SMR_CHECK_CELL_SECS", 30));

    let start = Instant::now();
    let mut seeds = SplitMix64(base_seed ^ ((scheme as u64) << 8) ^ structure as u64);
    let mut ran = 0u64;
    let mut exhausted = 0u64;
    let mut rgp_reclaims = 0u64;
    for i in 0..schedules {
        if start.elapsed() > cell_budget {
            break;
        }
        let seed = seeds.next_u64();
        let strategy = strategy_for(i);
        let report = run_matrix_one(scheme, structure, strategy, seed, params);
        assert!(
            report.clean(),
            "{}",
            replay_banner(scheme, structure, strategy, seed, params, &report)
        );
        ran += 1;
        exhausted += report.budget_exhausted as u64;
        rgp_reclaims += report.rgp_reclaims;
    }
    println!(
        "{}/{}: {ran}/{schedules} schedules clean in {:?} ({exhausted} budget-exhausted, \
         {rgp_reclaims} rgp reclaims)",
        scheme.label(),
        structure.label(),
        start.elapsed()
    );
    assert!(ran > 0, "cell ran no schedules at all");
    // A sweep that mostly times out explores almost nothing deterministically.
    assert!(
        exhausted * 2 <= ran,
        "{}/{}: {exhausted}/{ran} schedules exhausted the step budget",
        scheme.label(),
        structure.label()
    );
    rgp_reclaims
}

/// NBR+ in its LoWatermark band: the cell must also show that the ride
/// path ran, or its clean sweep says nothing about it.
fn lo_band_cell(structure: Structure) {
    let rides = sweep(Scheme::NbrPlus, structure, &Params::lo_band());
    assert!(
        rides > 0,
        "NBR+/{}: no worker rode a peer's grace period in the LoWatermark band",
        structure.label()
    );
}

#[test]
fn nbr_plus_lo_band_lazy_list() {
    lo_band_cell(Structure::LazyList);
}

#[test]
fn nbr_plus_lo_band_dgt_tree() {
    lo_band_cell(Structure::DgtTree);
}

// One `<scheme>_list` and one `<scheme>_hash` cell per registry row.
macro_rules! sweep {
    ($({ $variant:ident, $snake:ident, $($rest:tt)* })*) => {
        paste::paste! {
            $(
                #[test]
                fn [<$snake _list>]() {
                    sweep_cell(Scheme::$variant, Structure::List);
                }

                #[test]
                fn [<$snake _hash>]() {
                    sweep_cell(Scheme::$variant, Structure::HashMap);
                }
            )*
        }
    };
}
smr_harness::for_each_scheme!(sweep);

// The lock-based structures, under every scheme Table 1 allows on them: NBR,
// NBR+ and the epoch/quiescence family (the paper's Table 1 rules the
// hazard-pointer and interval schemes out for both).
macro_rules! sweep_lock_based {
    ($($snake:ident: $variant:ident),*) => {
        paste::paste! {
            $(
                #[test]
                fn [<$snake _lazy_list>]() {
                    sweep_cell(Scheme::$variant, Structure::LazyList);
                }

                #[test]
                fn [<$snake _dgt_tree>]() {
                    sweep_cell(Scheme::$variant, Structure::DgtTree);
                }
            )*
        }
    };
}
sweep_lock_based!(
    nbr_plus: NbrPlus,
    nbr: Nbr,
    debra: Debra,
    qsbr: Qsbr,
    rcu: Rcu,
    epoch_pop: EpochPop,
    leaky: Leaky
);
