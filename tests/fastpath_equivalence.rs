//! Fast-path equivalence: the hot-path caches never change a verdict.
//!
//! The detector has two caches on the check path — the per-cell
//! clean-verdict fast path in the shadow memory and the epoch-versioned
//! `precede()` memo in the DTRG. Both are *pure* accelerations: within a
//! graph epoch a clean verdict is monotone, so replaying it can never
//! hide a race, and racy checks are never cached at all. This suite
//! pins that contract over ≥256 random programs: with caching on vs.
//! off, the race *report* (the deduplicated race list and the total
//! detection count) must be byte-identical, serially and under every
//! shard width. Cost counters (memo hits, shadow hits) are *expected*
//! to differ — that is the point of the caches — so they are excluded
//! from the comparison by design.

use std::convert::Infallible;

use futrace::benchsuite::randomprog::{execute, generate, GenParams};
use futrace::detector::{DetectorConfig, RaceDetector, RaceReport};
use futrace::offline::{event_chunks, run_supervised, SupervisedOutcome, SupervisorPlan};
use futrace::runtime::engine::{run_analysis, source};
use futrace::runtime::{run_serial, Event, EventLog};
use futrace::util::propcheck::{self, strategies, Config};

fn with_caching(on: bool) -> RaceDetector {
    RaceDetector::with_config(DetectorConfig {
        caching: on,
        ..DetectorConfig::default()
    })
}

fn record(seed: u64, params: &GenParams) -> Vec<Event> {
    let prog = generate(seed, params);
    let mut log = EventLog::new();
    run_serial(&mut log, |ctx| {
        execute(ctx, &prog);
    });
    log.events
}

fn serial_report(events: &[Event], caching: bool) -> RaceReport {
    match run_analysis(source::recorded(events), with_caching(caching)) {
        Ok(out) => out.report.report,
        Err(never) => match never {},
    }
}

fn sharded_report(events: &[Event], shards: usize, caching: bool) -> RaceReport {
    let plan = SupervisorPlan::for_shards(Some(shards));
    let chunks = || event_chunks::<Infallible>(events);
    match run_supervised(chunks, || with_caching(caching), &plan, None) {
        Ok(SupervisedOutcome::Completed { report, .. }) => report.report,
        _ => unreachable!("an in-memory stream without a resume always completes"),
    }
}

fn assert_reports_identical(label: &str, seed: u64, cached: &RaceReport, uncached: &RaceReport) {
    assert_eq!(
        cached.races, uncached.races,
        "{label}, seed {seed}: race lists diverge with caching on"
    );
    assert_eq!(
        cached.total_detected, uncached.total_detected,
        "{label}, seed {seed}: total_detected diverges with caching on"
    );
}

#[test]
fn caching_never_changes_the_report() {
    // ≥256 random programs from the default mix (async + finish +
    // futures + gets), each checked serially and at shard widths 1, 2,
    // and 4 — cached and uncached runs must produce identical reports.
    propcheck::check(&Config::with_cases(256), &strategies::any_u64(), |seed| {
        let events = record(seed, &GenParams::default());

        let cached = serial_report(&events, true);
        let uncached = serial_report(&events, false);
        assert_reports_identical("serial", seed, &cached, &uncached);

        for shards in [1usize, 2, 4] {
            let cached = sharded_report(&events, shards, true);
            let uncached = sharded_report(&events, shards, false);
            assert_reports_identical(&format!("sharded x{shards}"), seed, &cached, &uncached);
        }
    });
}

#[test]
fn caching_pays_off_on_cache_friendly_streams() {
    // Not an equivalence property, but the reason the caches exist: on a
    // representative random program the fast paths must actually fire.
    let events = record(42, &GenParams::default());
    let out = match run_analysis(source::recorded(&events), with_caching(true)) {
        Ok(out) => out,
        Err(never) => match never {},
    };
    let dtrg = &out.report.stats.dtrg;
    assert!(
        dtrg.shadow_hits + dtrg.memo_hits > 0,
        "expected at least one fast-path or memo hit, got stats {dtrg:?}"
    );
}
