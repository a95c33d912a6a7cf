//! The determinism property (Appendix A): a race-free async/finish/future
//! program is functionally and structurally deterministic — every parallel
//! schedule computes the serial elision's answer — and deadlock-free.
//!
//! Also checks the detector itself is deterministic: the paper guarantees
//! "if a race is reported for a given input in one run of our algorithm,
//! it will always be reported in all runs".

use futrace::benchsuite::randomprog::{execute, generate, GenParams};
use futrace::detector::RaceDetector;
use futrace::runtime::{run_parallel, run_serial, EventLog, NullMonitor, TaskCtx};
use futrace::Analyze;

#[test]
fn detector_verdict_is_run_independent() {
    for seed in 0..200u64 {
        let prog = generate(seed, &GenParams::default());
        let r1 = Analyze::program(|ctx| {
            execute(ctx, &prog);
        })
        .run()
        .unwrap()
        .races;
        let r2 = Analyze::program(|ctx| {
            execute(ctx, &prog);
        })
        .run()
        .unwrap()
        .races;
        assert_eq!(r1.has_races(), r2.has_races(), "seed {seed}");
        assert_eq!(r1.total_detected, r2.total_detected, "seed {seed}");
        assert_eq!(r1.races, r2.races, "seed {seed}");
    }
}

#[test]
fn serial_event_stream_is_deterministic() {
    for seed in [3u64, 17, 99] {
        let prog = generate(seed, &GenParams::future_heavy());
        let run = || {
            let mut log = EventLog::new();
            run_serial(&mut log, |ctx| {
                execute(ctx, &prog);
            });
            log.events
        };
        assert_eq!(run(), run(), "seed {seed}");
    }
}

#[test]
fn race_free_programs_are_schedule_deterministic() {
    // For every race-free random program, the parallel executor (multiple
    // times, multiple widths) must produce exactly the serial elision's
    // final memory.
    let mut race_free_found = 0;
    for seed in 0..300u64 {
        let prog = generate(seed, &GenParams::default());
        let report = Analyze::program(|ctx| {
            execute(ctx, &prog);
        })
        .run()
        .unwrap()
        .races;
        if report.has_races() {
            continue;
        }
        race_free_found += 1;
        let mut mon = NullMonitor;
        let want = run_serial(&mut mon, |ctx| execute(ctx, &prog).snapshot());
        for threads in [2usize, 4] {
            let got = run_parallel(threads, |ctx| {
                // Snapshot only after every spawned task completed: wrap
                // the program in an explicit finish (the serial executor
                // gets this for free from depth-first run-to-completion).
                let mut mem = None;
                ctx.finish(|ctx| mem = Some(execute(ctx, &prog)));
                mem.unwrap().snapshot()
            })
            .expect("race-free => deadlock-free");
            assert_eq!(got, want, "seed {seed} threads {threads}");
        }
        if race_free_found >= 60 {
            break;
        }
    }
    assert!(
        race_free_found >= 20,
        "need a healthy sample of race-free programs, got {race_free_found}"
    );
}

#[test]
fn detector_stats_are_deterministic() {
    let prog = generate(12345, &GenParams::future_heavy());
    let run = || {
        let mut det = RaceDetector::new();
        run_serial(&mut det, |ctx| {
            execute(ctx, &prog);
        });
        let s = det.stats();
        (
            s.tasks,
            s.reads,
            s.writes,
            s.dtrg.gets,
            s.dtrg.nt_edges,
            s.dtrg.merges,
        )
    };
    assert_eq!(run(), run());
}
