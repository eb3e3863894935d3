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
            replay_banner(scheme.label(), "harris-list", strategy, seed, &report)
        );
    }
}
