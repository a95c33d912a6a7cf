//! The fault-tolerant pipeline must be *invisible* in the verdict: killing
//! an analysis at any chunk boundary and resuming from the checkpoint,
//! restarting a panicked worker, or degrading to a serial pass must all
//! produce exactly the serial detector's race report. Checked over ≥256
//! random task-parallel programs (from `benchsuite::randomprog`) with
//! random kill points, plus seeded writer-fault robustness.
//!
//! Replays: `FUTRACE_PROPCHECK_SEED=<seed>` (printed on failure).

use futrace_benchsuite::randomprog::{self, GenParams};
use futrace_detector::{DetectorConfig, RaceDetector, RaceReport};
use futrace_offline::{
    run_supervised, trace_chunks, Checkpoint, ShardPlan, StreamWriter, SupervisedOutcome,
    SupervisorPlan,
};
use futrace_runtime::{replay, run_serial, Event, EventLog};
use futrace_util::faultinject::{FaultPlan, FaultyWriter, WorkerFault};
use futrace_util::propcheck::{self, strategies, Config};
use std::sync::Once;
use std::time::Duration;

/// Injected worker panics are *expected*; keep their default panic-hook
/// spew out of the test output while letting real assertion failures
/// through untouched.
fn quiet_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if let Some(s) = info.payload().downcast_ref::<String>() {
                if s.contains("injected worker fault") {
                    return;
                }
            }
            prev(info);
        }));
    });
}

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

fn frame(log: &EventLog, chunk_bytes: usize) -> (Vec<u8>, u64) {
    let mut w = StreamWriter::with_chunk_bytes(Vec::new(), chunk_bytes).unwrap();
    for e in &log.events {
        w.record(e);
    }
    let (blob, stats) = w.finish().unwrap();
    (blob, stats.chunks)
}

fn plan(shards: usize) -> SupervisorPlan {
    SupervisorPlan {
        shard: ShardPlan {
            shards,
            // Tight batches and channels stress ordering; recovery must
            // not depend on batching either.
            batch_events: 16,
            channel_capacity: 2,
        },
        watchdog: Duration::from_secs(5),
        ..SupervisorPlan::default()
    }
}

fn assert_verdict(got: &RaceReport, want: &RaceReport, ctx: &str) {
    assert_eq!(
        got.total_detected, want.total_detected,
        "{ctx}: verdict diverged"
    );
    assert_eq!(got.races, want.races, "{ctx}: race report diverged");
}

/// The log's (reads, writes).
fn accesses(log: &EventLog) -> (u64, u64) {
    log.events.iter().fold((0, 0), |(r, w), e| match e {
        Event::Read(..) => (r + 1, w),
        Event::Write(..) => (r, w + 1),
        _ => (r, w),
    })
}

/// Ops the router sends `shard` of `n` within the trace's first `chunks`
/// chunks: every control event, plus the accesses `loc % n` routes there.
/// A worker fault at a later op lands after the barrier at that boundary.
fn ops_in_first_chunks(blob: &[u8], shard: usize, n: usize, chunks: u64) -> u64 {
    let first = trace_chunks(blob, false).take(chunks.try_into().unwrap_or(usize::MAX));
    let mut ops = 0;
    for chunk in first {
        for e in chunk.expect("recorded trace decodes").unwrap_or_default() {
            ops += match e {
                Event::Read(_, loc) | Event::Write(_, loc) => (loc.index() % n == shard) as u64,
                _ => 1,
            };
        }
    }
    ops
}

#[test]
fn kill_and_resume_equals_fresh_run() {
    // Suspend at a random chunk boundary, round-trip the checkpoint
    // through its byte codec (as the CLI does via a file), resume, and
    // compare against the straight serial run. Half the runs also snapshot
    // at every boundary, so the suspend comes after delta snapshots and
    // must still write full ones.
    let racy = std::cell::Cell::new(0u32);
    let clean = std::cell::Cell::new(0u32);
    propcheck::check(&Config::with_cases(256), &strategies::any_u64(), |seed| {
        let log = record(seed, &GenParams::default());
        let serial = serial_report(&log);
        if serial.has_races() {
            racy.set(racy.get() + 1);
        } else {
            clean.set(clean.get() + 1);
        }
        let (blob, chunks) = frame(&log, 64);
        if chunks < 2 {
            return; // no interior boundary to kill at
        }
        let shards = 2 + (seed % 2) as usize;
        let kill_at = 1 + seed % (chunks - 1); // interior boundary
        let mut stop_plan = plan(shards);
        stop_plan.stop_after_chunks = Some(kill_at);
        if (seed >> 1) % 2 == 1 {
            stop_plan.checkpoint_every_chunks = Some(1);
        }
        let out = run_supervised(
            || trace_chunks(&blob, false),
            RaceDetector::new,
            &stop_plan,
            None,
        )
        .unwrap();
        let SupervisedOutcome::Suspended { checkpoint, .. } = out else {
            panic!("seed {seed}: stop at chunk {kill_at}/{chunks} must suspend");
        };
        let restored = Checkpoint::decode(&checkpoint.encode())
            .unwrap_or_else(|e| panic!("seed {seed}: checkpoint codec round-trip: {e}"));
        let out = run_supervised(
            || trace_chunks(&blob, false),
            RaceDetector::new,
            &plan(shards),
            Some(&restored),
        )
        .unwrap();
        let SupervisedOutcome::Completed {
            report,
            supervision,
            ..
        } = out
        else {
            panic!("seed {seed}: resume must complete");
        };
        assert_eq!(supervision.resumed_from_checkpoint, 1);
        assert_verdict(
            &report.report,
            &serial,
            &format!("seed {seed}, kill at {kill_at}/{chunks}, {shards} shards"),
        );
        assert_eq!(
            (report.stats.reads, report.stats.writes),
            accesses(&log),
            "seed {seed}: access accounting must survive the suspend"
        );
    });
    assert!(racy.get() > 10, "too few racy programs ({})", racy.get());
    assert!(clean.get() > 10, "too few clean programs ({})", clean.get());
}

#[test]
fn every_kill_point_of_a_fixed_trace_resumes_identically() {
    // Exhaustive over boundaries for a few seeds: no kill point may be
    // special.
    for seed in [7u64, 1234, 0xC0FFEE] {
        let log = record(seed, &GenParams::future_heavy());
        let serial = serial_report(&log);
        let (blob, chunks) = frame(&log, 96);
        for kill_at in 1..chunks {
            let mut stop_plan = plan(3);
            stop_plan.stop_after_chunks = Some(kill_at);
            let out = run_supervised(
                || trace_chunks(&blob, false),
                RaceDetector::new,
                &stop_plan,
                None,
            )
            .unwrap();
            let SupervisedOutcome::Suspended { checkpoint, .. } = out else {
                panic!("seed {seed}: kill {kill_at}/{chunks} must suspend");
            };
            let out = run_supervised(
                || trace_chunks(&blob, false),
                RaceDetector::new,
                &plan(3),
                Some(&checkpoint),
            )
            .unwrap();
            let SupervisedOutcome::Completed { report, .. } = out else {
                panic!("seed {seed}: resume must complete");
            };
            assert_verdict(
                &report.report,
                &serial,
                &format!("seed {seed}, kill {kill_at}/{chunks}"),
            );
        }
    }
}

#[test]
fn worker_panics_recover_with_the_serial_verdict() {
    // A panicking worker either restarts (budget available) or degrades
    // to the serial pass (budget exhausted); both must keep the verdict.
    // Mode 2 snapshots at every boundary and panics after the fourth: a
    // shard never cuts two full snapshots in a row, so by then it has cut
    // at least two deltas, and the restart must restore the whole chain.
    // Mode 3 takes no snapshots, as plain sharding does: the replacement
    // reads the trace again from chunk 0.
    quiet_injected_panics();
    let strat = strategies::tuple2(strategies::any_u64(), strategies::u8_range(0..4));
    let restarts = std::cell::Cell::new(0u32);
    let chain_restarts = std::cell::Cell::new(0u32);
    let plain_restarts = std::cell::Cell::new(0u32);
    let degrades = std::cell::Cell::new(0u32);
    propcheck::check(&Config::with_cases(128), &strat, |(seed, mode)| {
        // Mode 2 needs programs long enough to pass four boundaries.
        let params = match mode {
            2 => GenParams {
                max_stmts: 10,
                locs: 8,
                ..GenParams::default()
            },
            _ => GenParams::default(),
        };
        let log = record(seed, &params);
        let serial = serial_report(&log);
        let (blob, chunks) = frame(&log, 64);
        let shard = (seed % 2) as usize;
        let mut p = plan(2);
        p.worker_panic = Some(WorkerFault {
            shard,
            at_op: 1 + seed % 16,
        });
        match mode {
            0 => p.max_restarts = 0,
            1 => {
                p.max_restarts = 2;
                p.checkpoint_every_chunks = Some(1.max(chunks / 3));
            }
            2 => {
                let before = ops_in_first_chunks(&blob, shard, 2, 4);
                let after = ops_in_first_chunks(&blob, shard, 2, u64::MAX) - before;
                if chunks < 5 || after == 0 {
                    return; // no op after the fourth barrier to panic at
                }
                p.max_restarts = 2;
                p.checkpoint_every_chunks = Some(1);
                p.worker_panic = Some(WorkerFault {
                    shard,
                    at_op: before + 1 + seed % after,
                });
            }
            _ => p.max_restarts = 2,
        }
        let out =
            run_supervised(|| trace_chunks(&blob, false), RaceDetector::new, &p, None).unwrap();
        let SupervisedOutcome::Completed {
            report,
            supervision,
            ..
        } = out
        else {
            panic!("seed {seed}: no stop requested, must complete");
        };
        // A tiny program may never reach the trigger op — then the run is
        // simply clean. The aggregate counters below prove both recovery
        // paths fired often.
        restarts.set(restarts.get() + supervision.shard_restarts as u32);
        match mode {
            2 => chain_restarts.set(chain_restarts.get() + supervision.shard_restarts as u32),
            3 => plain_restarts.set(plain_restarts.get() + supervision.shard_restarts as u32),
            _ => {}
        }
        degrades.set(degrades.get() + supervision.degradations as u32);
        let ctx = format!("seed {seed}, mode {mode} (panic)");
        assert_verdict(&report.report, &serial, &ctx);
        assert_eq!(
            (report.stats.reads, report.stats.writes),
            accesses(&log),
            "{ctx}: access accounting must survive the recovery"
        );
    });
    assert!(
        restarts.get() > 10,
        "restart path under-exercised ({})",
        restarts.get()
    );
    assert!(
        chain_restarts.get() > 10,
        "restart from a delta chain under-exercised ({})",
        chain_restarts.get()
    );
    assert!(
        plain_restarts.get() > 10,
        "restart without snapshots under-exercised ({})",
        plain_restarts.get()
    );
    assert!(
        degrades.get() > 10,
        "degrade path under-exercised ({})",
        degrades.get()
    );
}

#[test]
fn restarts_cut_the_snapshots_an_uninterrupted_run_cuts() {
    // A replacement worker restores the shard's chain and reads the trace
    // again from the last barrier, so every later snapshot it cuts,
    // delta or full, must hold the bytes the worker it replaced would
    // have cut. With the hot-path caches off the DTRG counters in those
    // bytes do not depend on a memo the restart left cold. A restored
    // worker that cut its fulls over only the cells it checked itself
    // would lose the restored ones, and the byte totals would differ.
    quiet_injected_panics();
    let config = DetectorConfig {
        caching: false,
        ..DetectorConfig::default()
    };
    let factory = || RaceDetector::with_config(config.clone());
    let params = GenParams {
        max_stmts: 10,
        locs: 8,
        ..GenParams::default()
    };
    let restarts = std::cell::Cell::new(0u32);
    propcheck::check(&Config::with_cases(64), &strategies::any_u64(), |seed| {
        let log = record(seed, &params);
        let (blob, chunks) = frame(&log, 64);
        let shard = (seed % 2) as usize;
        let before = ops_in_first_chunks(&blob, shard, 2, 2);
        let after = ops_in_first_chunks(&blob, shard, 2, u64::MAX) - before;
        if chunks < 4 || after == 0 {
            return; // no op after the second barrier to panic at
        }
        let mut p = plan(2);
        p.checkpoint_every_chunks = Some(1);
        let clean = run_supervised(|| trace_chunks(&blob, false), factory, &p, None).unwrap();
        p.worker_panic = Some(WorkerFault {
            shard,
            at_op: before + 1 + seed % after,
        });
        let faulty = run_supervised(|| trace_chunks(&blob, false), factory, &p, None).unwrap();
        let (
            SupervisedOutcome::Completed {
                supervision: want, ..
            },
            SupervisedOutcome::Completed {
                report,
                supervision: got,
                ..
            },
        ) = (clean, faulty)
        else {
            panic!("seed {seed}: no stop requested, must complete");
        };
        restarts.set(restarts.get() + got.shard_restarts as u32);
        let ctx = format!("seed {seed}");
        assert_verdict(&report.report, &serial_report(&log), &ctx);
        assert_eq!(got.shard_restarts, 1, "{ctx}");
        assert_eq!(
            (got.snapshots_taken, got.full_snapshots, got.snapshot_bytes),
            (
                want.snapshots_taken,
                want.full_snapshots,
                want.snapshot_bytes
            ),
            "{ctx}: a restart changed the snapshots"
        );
    });
    assert!(
        restarts.get() > 10,
        "restart path under-exercised ({})",
        restarts.get()
    );
}

#[test]
fn seeded_writer_faults_never_panic_and_salvage_a_prefix() {
    // Recording through a misbehaving sink must never panic; whatever
    // bytes land on "disk" must read back (leniently) as a prefix-or-all
    // of the original events followed by at most one terminal error.
    propcheck::check(&Config::with_cases(128), &strategies::any_u64(), |seed| {
        let log = record(seed, &GenParams::default());
        let faults = FaultPlan::from_seed(seed);
        let sink = FaultyWriter::new(Vec::new(), faults.write.clone());
        let mut w = match StreamWriter::with_chunk_bytes(sink, 128) {
            Ok(w) => w,
            Err(_) => return, // header write hit a hard fault: fine, no file
        };
        for e in &log.events {
            w.record(e);
        }
        let blob = match w.finish() {
            Ok((sink, _)) => sink.into_inner(),
            Err(e) => {
                // Checked close: the error must carry context, not panic.
                assert!(!e.to_string().is_empty(), "seed {seed}");
                return;
            }
        };
        let mut got = Vec::new();
        for chunk in trace_chunks(&blob, true) {
            match chunk {
                Ok(events) => got.extend(events.unwrap_or_default()),
                Err(_) => break, // terminal damage; prefix property below
            }
        }
        assert!(
            got.len() <= log.events.len(),
            "seed {seed}: salvage invented events"
        );
        // Lenient reads may skip whole damaged chunks, so `got` is a
        // subsequence; every event must at least decode to a real one
        // from the original stream order when nothing was dropped.
        if got.len() == log.events.len() {
            assert_eq!(got, log.events, "seed {seed}: clean round-trip diverged");
        }
    });
}
