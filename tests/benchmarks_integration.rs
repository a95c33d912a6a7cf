//! Cross-crate integration checks on the Table-2 benchmarks: detector vs.
//! oracle on the real workloads (tiny sizes), planted races, and the
//! structural formulas.

use futrace::baselines::{ClosureDetector, EspBags};
use futrace::benchsuite::{crypt, jacobi, series, smithwaterman, strassen};
use futrace::runtime::engine::run_analysis_live;
use futrace::Analyze;

#[test]
fn jacobi_detector_matches_oracle_clean_and_planted() {
    let p = jacobi::JacobiParams::tiny();
    for planted in [false, true] {
        let outcome = Analyze::program(|ctx| {
            jacobi::jacobi_run(ctx, &p, planted);
        })
        .run()
        .unwrap();
        let report = outcome.races;
        let oracle = run_analysis_live(
            |ctx| {
                jacobi::jacobi_run(ctx, &p, planted);
            },
            ClosureDetector::new(),
        )
        .report;
        assert_eq!(report.has_races(), planted);
        assert_eq!(oracle.has_races(), planted);
    }
}

#[test]
fn smithwaterman_detector_matches_oracle_clean_and_planted() {
    let p = smithwaterman::SwParams::tiny();
    for planted in [false, true] {
        let outcome = Analyze::program(|ctx| {
            smithwaterman::sw_run(ctx, &p, planted);
        })
        .run()
        .unwrap();
        let report = outcome.races;
        let oracle = run_analysis_live(
            |ctx| {
                smithwaterman::sw_run(ctx, &p, planted);
            },
            ClosureDetector::new(),
        )
        .report;
        assert_eq!(report.has_races(), planted);
        assert_eq!(oracle.has_races(), planted);
    }
}

#[test]
fn strassen_oracle_confirms_race_freedom() {
    let p = strassen::StrassenParams::tiny();
    let oracle = run_analysis_live(
        |ctx| {
            strassen::strassen_run(ctx, &p);
        },
        ClosureDetector::new(),
    )
    .report;
    assert!(!oracle.has_races());
}

#[test]
fn series_and_crypt_match_esp_bags_on_af_variants() {
    // The af variants are pure async-finish: ESP-bags is exact there and
    // must agree with the DTRG detector (both: race-free).
    let sp = series::SeriesParams::tiny();
    let outcome = Analyze::program(|ctx| {
        series::series_af(ctx, &sp);
    })
    .run()
    .unwrap();
    let rep = outcome.races;
    let esp = run_analysis_live(
        |ctx| {
            series::series_af(ctx, &sp);
        },
        EspBags::new(),
    )
    .report;
    assert!(!rep.has_races());
    assert!(!esp.has_races());
    assert_eq!(esp.ignored_gets, 0);

    let cp = crypt::CryptParams::tiny();
    let outcome = Analyze::program(|ctx| {
        crypt::crypt_run(ctx, &cp, crypt::CryptVariant::AsyncFinish);
    })
    .run()
    .unwrap();
    let rep = outcome.races;
    let esp = run_analysis_live(
        |ctx| {
            crypt::crypt_run(ctx, &cp, crypt::CryptVariant::AsyncFinish);
        },
        EspBags::new(),
    )
    .report;
    assert!(!rep.has_races());
    assert!(!esp.has_races());
}

#[test]
fn structural_formulas_hold_at_scaled_sizes() {
    // Beyond the tiny sizes used elsewhere, verify #Tasks / #NTJoins at
    // the laptop-scale parameters (cheap structural runs: Jacobi + SW).
    let p = jacobi::JacobiParams::scaled();
    let outcome = Analyze::program(|ctx| {
        jacobi::jacobi_run(ctx, &p, false);
    })
    .run()
    .unwrap();
    let (rep, stats) = (outcome.races, outcome.stats);
    assert!(!rep.has_races());
    assert_eq!(stats.tasks, jacobi::expected_tasks(&p));
    assert_eq!(stats.nt_joins(), jacobi::expected_nt_joins(&p));

    let p = smithwaterman::SwParams {
        n: 200,
        tiles: 10,
        seed: 0xac97,
    };
    let outcome = Analyze::program(|ctx| {
        smithwaterman::sw_run(ctx, &p, false);
    })
    .run()
    .unwrap();
    let (rep, stats) = (outcome.races, outcome.stats);
    assert!(!rep.has_races());
    assert_eq!(stats.tasks, smithwaterman::expected_tasks(&p));
    assert_eq!(stats.nt_joins(), smithwaterman::expected_nt_joins(&p));
}

#[test]
fn planted_race_reports_point_at_the_grid() {
    let p = jacobi::JacobiParams::tiny();
    let outcome = Analyze::program(|ctx| {
        jacobi::jacobi_run(ctx, &p, true);
    })
    .run()
    .unwrap();
    let report = outcome.races;
    let first = report.first().expect("planted race");
    assert!(
        first.loc_name.starts_with("jacobi."),
        "race should name the grid array, got {}",
        first.loc_name
    );
}
