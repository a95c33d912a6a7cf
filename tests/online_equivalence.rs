//! The online-parallel pipeline as a property: `Analyze::program_parallel`
//! must produce the *same verdict* as the serial `Analyze::program` on the
//! same program — same races, same access indices, same statistics —
//! regardless of thread count or which victim the work-stealing scheduler
//! happens to rob (DESIGN S43).
//!
//! Ground truth here is the serial run, which `tests/equivalence.rs`
//! separately pins to the transitive-closure oracle; chaining the two
//! gives end-to-end soundness for the online path.

use futrace::benchsuite::randomprog::{execute, generate, GenParams, Program};
use futrace::benchsuite::registry::{self, Scale};
use futrace::prelude::*;
use futrace::runtime::EventLog;
use futrace::util::propcheck::{self, strategies, Config};

/// 256 cases per family, matching the serial oracle propcheck.
const CASES: u32 = 256;

/// Cases per family of the event-for-event stream property.
const STREAM_CASES: u32 = 64;

/// Serial verdict for a generated program.
fn serial_verdict(prog: &Program) -> AnalysisOutcome {
    Analyze::program(|ctx| {
        execute(ctx, prog);
    })
    .run()
    .unwrap()
}

/// Asserts that the serial and online backends agree on everything one
/// detector derives from the stream: the race report, every statistic
/// (DTRG cost counters and #AvgReaders included), the footprint, and
/// the engine's event counts. One detector sees the canonical stream in
/// serial order, so none of these may differ.
fn assert_same_verdict(context: &str, online: &AnalysisOutcome, serial: &AnalysisOutcome) {
    assert_eq!(
        online.races.races, serial.races.races,
        "race list mismatch: {context}"
    );
    assert_eq!(
        online.races.total_detected, serial.races.total_detected,
        "total_detected mismatch: {context}"
    );
    assert_eq!(
        online.stats.tasks, serial.stats.tasks,
        "task count mismatch: {context}"
    );
    assert_eq!(
        online.stats.future_tasks, serial.stats.future_tasks,
        "future task count mismatch: {context}"
    );
    assert_eq!(
        online.stats.reads, serial.stats.reads,
        "read count mismatch: {context}"
    );
    assert_eq!(
        online.stats.writes, serial.stats.writes,
        "write count mismatch: {context}"
    );
    assert_eq!(
        online.stats.dtrg, serial.stats.dtrg,
        "DTRG counter mismatch: {context}"
    );
    assert_eq!(
        online.stats.to_string(),
        serial.stats.to_string(),
        "statistics mismatch: {context}"
    );
    assert_eq!(
        online.footprint, serial.footprint,
        "footprint mismatch: {context}"
    );
    let counts = |e: &EngineCounters| (e.events, e.control_events, e.reads, e.writes);
    assert_eq!(
        counts(&online.engine),
        counts(&serial.engine),
        "engine counter mismatch: {context}"
    );
    assert!(
        online.online.is_some(),
        "online telemetry missing: {context}"
    );
}

fn check_seed(seed: u64, params: &GenParams) {
    let prog = generate(seed, params);
    let serial = serial_verdict(&prog);
    for threads in [1, 2, 4] {
        let online = Analyze::program_parallel(threads, |ctx| {
            execute(ctx, &prog);
        })
        .run()
        .unwrap();
        assert_same_verdict(
            &format!("seed {seed} threads {threads} prog={prog:?}"),
            &online,
            &serial,
        );
    }
}

#[test]
fn online_matches_serial_default_mix() {
    propcheck::check(&Config::with_cases(CASES), &strategies::any_u64(), |seed| {
        check_seed(seed, &GenParams::default());
    });
}

#[test]
fn online_matches_serial_nontree_heavy() {
    // The nontree-heavy mix maximises the cross-task joins the canonical
    // walker has to sequence correctly.
    propcheck::check(&Config::with_cases(CASES), &strategies::any_u64(), |seed| {
        check_seed(seed, &GenParams::nontree_heavy());
    });
}

#[test]
fn online_matches_serial_future_heavy() {
    propcheck::check(&Config::with_cases(CASES), &strategies::any_u64(), |seed| {
        check_seed(seed, &GenParams::future_heavy());
    });
}

/// The walker's canonical stream equals the serial elision's event for
/// event, at 1, 2 and 4 threads and under a seeded steal order: every
/// task, finish, join, allocation and access, in the same order.
fn check_stream(seed: u64, params: &GenParams) {
    let prog = generate(seed, params);
    let mut want = EventLog::new();
    run_serial(&mut want, |ctx| {
        execute(ctx, &prog);
    });
    for (threads, steal_seed) in [(1, None), (2, None), (4, None), (4, Some(seed))] {
        let mut log = EventLog::new();
        let opts = OnlineOptions { threads, steal_seed };
        let run = run_online(opts, &mut log, |ctx| {
            execute(ctx, &prog);
        });
        let context = format!("seed {seed} threads {threads} steal_seed {steal_seed:?}");
        assert!(run.result.is_ok(), "online run failed: {context}");
        assert_eq!(log.events, want.events, "stream diverged: {context}");
    }
}

#[test]
fn online_stream_equals_serial_stream_event_for_event() {
    for params in [
        GenParams::default(),
        GenParams::nontree_heavy(),
        GenParams::future_heavy(),
    ] {
        propcheck::check(
            &Config::with_cases(STREAM_CASES),
            &strategies::any_u64(),
            |seed| check_stream(seed, &params),
        );
    }
}

/// Every registry workload, clean and (where available) with a planted
/// race: the online verdict at 4 threads must equal the serial engine's,
/// and the planted variants must actually race.
#[test]
fn registry_workloads_agree_clean_and_planted() {
    for w in registry::workloads() {
        let variants: &[bool] = if w.plantable { &[false, true] } else { &[false] };
        for &planted in variants {
            let mut engine = Engine::new(RaceDetector::new());
            w.run_into(&mut engine, Scale::Tiny, planted);
            let (analysis, _) = engine.into_parts();
            let serial = analysis.finish();

            let online = Analyze::program_parallel(4, |ctx| {
                w.run_parallel_into(ctx, Scale::Tiny, planted);
            })
            .run()
            .unwrap();

            assert_eq!(
                online.races.races, serial.report.races,
                "race list mismatch on {} (planted={planted})",
                w.name
            );
            assert_eq!(
                online.races.total_detected, serial.report.total_detected,
                "total_detected mismatch on {} (planted={planted})",
                w.name
            );
            if planted {
                assert!(
                    online.has_races(),
                    "planted race not detected online on {}",
                    w.name
                );
            }
        }
    }
}

/// Seeded-scheduler harness: pinning `steal_seed` makes the victim
/// sequence reproducible, and *varying* it perturbs the interleaving —
/// either way the verdict must not move, because determinacy-race
/// verdicts depend only on the program, not the schedule.
#[test]
fn steal_seed_perturbation_leaves_verdict_fixed() {
    // A nontree-heavy program that actually races, so schedule changes
    // would have something to corrupt if the walker mis-sequenced.
    let prog = (0..)
        .map(|seed| generate(seed, &GenParams::nontree_heavy()))
        .find(|p| serial_verdict(p).has_races())
        .unwrap();
    let serial = serial_verdict(&prog);

    for steal_seed in 0..16u64 {
        let online = Analyze::program_parallel(4, |ctx| {
            execute(ctx, &prog);
        })
        .steal_seed(steal_seed)
        .run()
        .unwrap();
        assert_same_verdict(&format!("steal_seed {steal_seed}"), &online, &serial);
    }

    // Same seed twice: the seeded scheduler is a reproduction harness,
    // so a repeat run must agree with itself bit-for-bit on the verdict.
    let run = |seed: u64| {
        Analyze::program_parallel(4, |ctx| {
            execute(ctx, &prog);
        })
        .steal_seed(seed)
        .run()
        .unwrap()
    };
    let (a, b) = (run(7), run(7));
    assert_eq!(a.races.races, b.races.races);
    assert_eq!(a.races.total_detected, b.races.total_detected);
}
