//! Minimal integration smoke: one schedule per scheme on the Harris list,
//! fixed seed. The full seeded sweep lives in `explore_matrix.rs`; this test
//! exists so a broken mirror/hook fails in seconds with a tight repro.

use smr_check::{replay_banner, run_matrix_one, Params, Scheme, Strategy, Structure};

#[test]
fn one_schedule_per_scheme_list() {
    let params = Params::default();
    for &scheme in Scheme::all() {
        let strategy = Strategy::Random { switch_one_in: 3 };
        let seed = 0xC0FFEE;
        let report = run_matrix_one(scheme, Structure::List, strategy, seed, &params);
        assert!(
            report.clean(),
            "{}",
            replay_banner(scheme, Structure::List, strategy, seed, &params, &report)
        );
    }
}

/// A banner's call is the replay: run twice, it takes the same steps to
/// the same outcome.
#[test]
fn banner_call_replays_the_same_run() {
    let (scheme, structure) = (Scheme::Debra, Structure::HashMap);
    let (strategy, seed) = (Strategy::Pct { depth: 3 }, 0x5EED_CAFE);
    let first = run_matrix_one(scheme, structure, strategy, seed, &Params::default());
    let banner = replay_banner(
        scheme,
        structure,
        strategy,
        seed,
        &Params::default(),
        &first,
    );
    assert!(
        banner.contains(
            "run_matrix_one(Scheme::Debra, Structure::HashMap, \
             Strategy::Pct { depth: 3 }, 0x5eedcafe, &Params::default())"
        ),
        "{banner}"
    );
    assert!(
        !first.budget_exhausted,
        "a free-running tail is not replayable"
    );
    let again = run_matrix_one(
        Scheme::Debra,
        Structure::HashMap,
        Strategy::Pct { depth: 3 },
        0x5eedcafe,
        &Params::default(),
    );
    assert_eq!(again.steps, first.steps);
    assert_eq!(again.failure, first.failure);
    assert_eq!(again.clean(), first.clean());
}
