//! The sharded offline detector must be *indistinguishable* from the
//! serial online detector: same verdict, same `total_detected`, same race
//! list (first race included) in the same order — for every program and
//! every shard count. This is the correctness contract that makes
//! `analyze --shards N` a drop-in replacement.
//!
//! Checked over ≥256 random task-parallel programs (async/finish/future/
//! get over shared arrays, from `benchsuite::randomprog`) across three
//! generation profiles, for shard counts {1, 2, 4, 7} — including a prime
//! count so `loc % N` routing gets no accidental alignment help.
//!
//! Replays: `FUTRACE_PROPCHECK_SEED=<seed>` (printed on failure).

use futrace_baselines::VectorClockDetector;
use futrace_benchsuite::randomprog::{self, GenParams};
use futrace_detector::{RaceDetector, RaceReport};
use futrace_offline::{
    run_supervised, trace_events, ChunkedEvents, ShardPlan, StreamWriter, SupervisedOutcome,
    SupervisorPlan, SyntheticChunks, SYNTHETIC_CHUNK_EVENTS,
};
use futrace_runtime::engine::{run_analysis_recorded, Checkpointable};
use futrace_runtime::{replay, run_serial, EventLog};
use futrace_util::propcheck::{self, strategies, Config};
use std::convert::Infallible;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

fn record(seed: u64, params: &GenParams) -> EventLog {
    let prog = randomprog::generate(seed, params);
    let mut log = EventLog::new();
    run_serial(&mut log, |ctx| {
        randomprog::execute(ctx, &prog);
    });
    log
}

fn serial_report(log: &EventLog) -> RaceReport {
    let mut det = RaceDetector::new();
    replay(&log.events, &mut det);
    det.into_report()
}

/// Plain sharding with small batches and tight channels, which stress the
/// pipeline's ordering and backpressure; correctness must not depend on
/// batching.
fn plain_plan(shards: usize) -> SupervisorPlan {
    SupervisorPlan::plain(ShardPlan {
        shards,
        batch_events: 32,
        channel_capacity: 2,
    })
}

/// Runs the shard stage to completion and returns the merged report. A
/// clean run must not have needed any recovery.
fn run_sharded<A, I, E>(
    events: impl Fn() -> I,
    plan: &SupervisorPlan,
    factory: impl Fn() -> A,
) -> A::Report
where
    A: Checkpointable + Send + 'static,
    A::Report: Send + 'static,
    I: ChunkedEvents + Iterator<Item = Result<futrace_runtime::Event, E>>,
    E: std::fmt::Display,
{
    match run_supervised(events, factory, plan, None) {
        Ok(SupervisedOutcome::Completed {
            report,
            supervision,
            ..
        }) => {
            assert!(!supervision.any(), "clean run needed recovery: {supervision:?}");
            report
        }
        Ok(SupervisedOutcome::Suspended { .. }) => unreachable!("no stop_after_chunks requested"),
        Err(e) => panic!("sharded run failed: {e}"),
    }
}

/// [`run_sharded`] over an in-memory recording.
fn run_sharded_log<A>(
    log: &EventLog,
    plan: &SupervisorPlan,
    factory: impl Fn() -> A,
) -> A::Report
where
    A: Checkpointable + Send + 'static,
    A::Report: Send + 'static,
{
    let events = || {
        SyntheticChunks::new(
            log.events.iter().cloned().map(Ok::<_, Infallible>),
            SYNTHETIC_CHUNK_EVENTS,
        )
    };
    run_sharded(events, plan, factory)
}

fn assert_equivalent(serial: &RaceReport, log: &EventLog, shards: usize, ctx: &str) {
    let out = run_sharded_log(log, &plain_plan(shards), RaceDetector::new).report;
    assert_eq!(
        out.total_detected, serial.total_detected,
        "{ctx}: verdict diverged at {shards} shards"
    );
    assert_eq!(
        out.races, serial.races,
        "{ctx}: race report diverged at {shards} shards"
    );
    assert_eq!(
        out.races.first(),
        serial.races.first(),
        "{ctx}: first race diverged at {shards} shards"
    );
}

#[test]
fn sharded_equals_serial_on_random_programs() {
    let profiles = [
        ("default", GenParams::default()),
        ("future_heavy", GenParams::future_heavy()),
        ("async_finish_only", GenParams::async_finish_only()),
    ];
    let strat = strategies::tuple2(strategies::any_u64(), strategies::u8_range(0..3));
    let racy = std::cell::Cell::new(0u32);
    let clean = std::cell::Cell::new(0u32);
    propcheck::check(&Config::with_cases(256), &strat, |(seed, which)| {
        let (name, params) = &profiles[which as usize];
        let log = record(seed, params);
        let serial = serial_report(&log);
        if serial.has_races() {
            racy.set(racy.get() + 1);
        } else {
            clean.set(clean.get() + 1);
        }
        for shards in SHARD_COUNTS {
            assert_equivalent(&serial, &log, shards, name);
        }
    });
    // The generator must exercise both verdicts, otherwise "equivalence"
    // is vacuous on one side.
    assert!(racy.get() > 10, "too few racy programs generated ({})", racy.get());
    assert!(clean.get() > 10, "too few clean programs generated ({})", clean.get());
}

#[test]
fn sharded_equals_serial_through_the_framed_format() {
    // End-to-end: program → StreamWriter (v2 framed) → sharded decode
    // pipeline, compared against the in-memory serial replay.
    for seed in [3u64, 99, 0xABCDEF] {
        let log = record(seed, &GenParams::default());
        let serial = serial_report(&log);
        let mut w = StreamWriter::with_chunk_bytes(Vec::new(), 256).unwrap();
        for e in &log.events {
            w.record(e);
        }
        let (blob, _) = w.finish().unwrap();
        for shards in SHARD_COUNTS {
            let plan = SupervisorPlan::plain(ShardPlan::with_shards(shards));
            let out = run_sharded(|| trace_events(&blob, false), &plan, RaceDetector::new).report;
            assert_eq!(out.races, serial.races, "seed {seed}, {shards} shards");
            assert_eq!(out.total_detected, serial.total_detected);
        }
    }
}

#[test]
fn vector_clock_shards_like_the_dtrg_detector() {
    // The generic pipeline is not DTRG-specific: any `LocRoutable`
    // analysis shards with a serial-identical verdict. The vector-clock
    // baseline's clocks are mutated only by control events (broadcast to
    // every replica) and its shadow state is per-location (routed), so it
    // qualifies — exercised here over random programs at every shard
    // count, including the prime one.
    let profiles = [GenParams::default(), GenParams::future_heavy()];
    propcheck::check(&Config::with_cases(128), &strategies::any_u64(), |seed| {
        for params in &profiles {
            let log = record(seed, params);
            let serial = run_analysis_recorded(&log.events, VectorClockDetector::new()).report;
            for shards in SHARD_COUNTS {
                let out =
                    run_sharded_log(&log, &plain_plan(shards), VectorClockDetector::new);
                assert_eq!(
                    out.races, serial.races,
                    "seed {seed}, {shards} shards: vc race count diverged"
                );
                assert_eq!(
                    out.notes, serial.notes,
                    "seed {seed}, {shards} shards: control-derived notes must be replica-identical"
                );
            }
        }
    });
}
