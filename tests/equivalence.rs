//! Theorem 2 as a property test: the DTRG detector reports a determinacy
//! race **iff** one exists, where ground truth is the transitive-closure
//! oracle over the full step-level computation graph.
//!
//! Additionally the *first* report is checked to be exact: the paper's
//! correctness argument (proof of Theorem 2) picks the race whose second
//! access executes earliest in the depth-first order, and the detector's
//! first report must fire at precisely that access.

use futrace::baselines::ClosureDetector;
use futrace::benchsuite::randomprog::{execute, generate, GenParams};
use futrace::compgraph::oracle::Reachability;
use futrace::compgraph::CompGraph;
use futrace::runtime::engine::run_analysis_live;
use futrace::util::propcheck::{self, strategies, Config};
use futrace::Analyze;

/// Index (in the global access stream) of the earliest access that
/// completes a racing pair, or None if the program is race-free.
fn oracle_first_race_index(g: &CompGraph) -> Option<u64> {
    let reach = Reachability::build(g);
    for (j, b) in g.accesses.iter().enumerate() {
        for a in &g.accesses[..j] {
            if a.loc == b.loc
                && (a.is_write || b.is_write)
                && a.step != b.step
                && reach.parallel(a.step, b.step)
            {
                return Some(j as u64);
            }
        }
    }
    None
}

fn check_seed(seed: u64, params: &GenParams) {
    let prog = generate(seed, params);
    let report = Analyze::program(|ctx| {
        execute(ctx, &prog);
    })
    .run()
    .unwrap()
    .races;
    let oracle = run_analysis_live(
        |ctx| {
            execute(ctx, &prog);
        },
        ClosureDetector::new(),
    )
    .report;
    assert_eq!(
        report.has_races(),
        oracle.has_races(),
        "existence mismatch on seed {seed}: detector={} oracle={} prog={prog:?}",
        report.has_races(),
        oracle.has_races()
    );
    // First-race exactness.
    let truth = oracle_first_race_index(&oracle.graph);
    let got = report.first().map(|r| r.access_index);
    assert_eq!(
        got, truth,
        "first-race index mismatch on seed {seed}: prog={prog:?}"
    );
}

/// 256 cases per family (the old harness ran 200); each case is a fresh
/// program seed drawn from the full `u64` space, shrunk toward 0 on
/// failure, and replayable via the printed `FUTRACE_PROPCHECK_SEED`.
const CASES: u32 = 256;

#[test]
fn detector_matches_oracle_default_mix() {
    propcheck::check(&Config::with_cases(CASES), &strategies::any_u64(), |seed| {
        check_seed(seed, &GenParams::default());
    });
}

#[test]
fn detector_matches_oracle_future_heavy() {
    propcheck::check(&Config::with_cases(CASES), &strategies::any_u64(), |seed| {
        check_seed(seed, &GenParams::future_heavy());
    });
}

#[test]
fn detector_matches_oracle_async_finish() {
    propcheck::check(&Config::with_cases(CASES), &strategies::any_u64(), |seed| {
        check_seed(seed, &GenParams::async_finish_only());
    });
}

#[test]
fn fixed_seed_regression_sweep() {
    // A deterministic sweep that always runs, independent of the property
    // harness's RNG: the first 500 seeds of each parameter family.
    for seed in 0..500u64 {
        check_seed(seed, &GenParams::default());
        check_seed(seed, &GenParams::future_heavy());
        check_seed(seed, &GenParams::async_finish_only());
    }
}
