//! Scaling of the sharded offline detector's detect stage.
//!
//! Records one trace per workload up front, then measures for shard
//! counts {1, 2, 4}, against a plain serial replay baseline:
//!
//! * `detect-stage/N` — workers only: ops are pre-routed into per-shard
//!   lists, so the measurement is purely the partitioned shadow-check
//!   work plus the N-fold replicated DTRG maintenance. This is the part
//!   that parallelizes; on a single-core host its wall time stays ~flat
//!   (the work is conserved) and the speedup shows up only on multicore.
//! * `pipeline/N` — end-to-end plain sharding through `run_supervised`
//!   (route + channels + merge); `pipeline/1` vs `serial-replay` isolates
//!   the pipeline tax (per-event routing, batching, and control-event
//!   cloning).
//!
//! The events are pre-decoded so varint decoding is excluded throughout;
//! results are emitted as JSON lines by the in-tree runner
//! (`BENCH_JSON=1`).

use futrace_bench::runner::{BenchmarkId, Runner};
use futrace_benchsuite::{jacobi, smithwaterman};
use futrace_detector::RaceDetector;
use futrace_offline::{
    run_supervised, ShardPlan, SupervisedOutcome, SupervisorPlan, SyntheticChunks,
    SYNTHETIC_CHUNK_EVENTS,
};
use futrace_runtime::{replay, run_serial, Event, EventLog};
use std::convert::Infallible;

// Access-dominated configurations: few, large tasks. Control events are
// broadcast to every shard (their cost scales with N), so the detect
// stage only parallelizes when shadow checks dominate — exactly the
// regime of the paper's workloads (10⁴–10⁷ tasks vs 10⁸–10⁹ accesses).

fn record_jacobi() -> Vec<Event> {
    let mut log = EventLog::new();
    let p = jacobi::JacobiParams {
        n: 128,
        tile: 32,
        sweeps: 8,
        ..jacobi::JacobiParams::tiny()
    };
    run_serial(&mut log, |ctx| {
        jacobi::jacobi_run(ctx, &p, false);
    });
    log.events
}

fn record_sw() -> Vec<Event> {
    let mut log = EventLog::new();
    let p = smithwaterman::SwParams {
        n: 240,
        tiles: 4,
        ..smithwaterman::SwParams::tiny()
    };
    run_serial(&mut log, |ctx| {
        smithwaterman::sw_run(ctx, &p, false);
    });
    log.events
}

/// A pre-routed op, as a shard worker would receive it.
enum PreOp {
    Control(Event),
    Read(futrace_util::ids::TaskId, futrace_util::ids::LocId, u64),
    Write(futrace_util::ids::TaskId, futrace_util::ids::LocId, u64),
}

/// Routes `events` into per-shard op lists (control broadcast, accesses
/// by `loc % n` with global indices) — the router's job, done up front.
fn route(events: &[Event], n: usize) -> Vec<Vec<PreOp>> {
    let mut shards: Vec<Vec<PreOp>> = (0..n).map(|_| Vec::new()).collect();
    let mut index = 0u64;
    for e in events {
        match e {
            Event::Read(t, l) => {
                shards[l.index() % n].push(PreOp::Read(*t, *l, index));
                index += 1;
            }
            Event::Write(t, l) => {
                shards[l.index() % n].push(PreOp::Write(*t, *l, index));
                index += 1;
            }
            control => {
                for shard in shards.iter_mut() {
                    shard.push(PreOp::Control(control.clone()));
                }
            }
        }
    }
    shards
}

fn detect_one_shard(ops: &[PreOp]) -> u64 {
    let mut det = RaceDetector::new();
    for op in ops {
        match op {
            PreOp::Control(e) => {
                det.apply_control(e);
            }
            PreOp::Read(t, l, i) => det.check_read_at(*t, *l, *i),
            PreOp::Write(t, l, i) => det.check_write_at(*t, *l, *i),
        }
    }
    det.into_report().total_detected
}

fn shard_scaling(c: &mut Runner, name: &str, events: &[Event]) {
    let mut g = c.benchmark_group(format!("offline-shards/{name}"));
    g.sample_size(10);
    g.bench_function("serial-replay", |b| {
        b.iter(|| {
            let mut det = RaceDetector::new();
            replay(events, &mut det);
            det.into_report().total_detected
        })
    });
    for shards in [1usize, 2, 4] {
        let routed = route(events, shards);
        g.bench_with_input(BenchmarkId::new("detect-stage", shards), &routed, |b, routed| {
            b.iter(|| {
                std::thread::scope(|s| {
                    let handles: Vec<_> = routed
                        .iter()
                        .map(|ops| s.spawn(move || detect_one_shard(ops)))
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).sum::<u64>()
                })
            })
        });
        let plan = SupervisorPlan::plain(ShardPlan::with_shards(shards));
        g.bench_with_input(BenchmarkId::new("pipeline", shards), &plan, |b, plan| {
            b.iter(|| {
                let stream = || {
                    let events = events.iter().cloned().map(Ok::<_, Infallible>);
                    SyntheticChunks::new(events, SYNTHETIC_CHUNK_EVENTS)
                };
                match run_supervised(stream, RaceDetector::new, plan, None) {
                    Ok(SupervisedOutcome::Completed { report, .. }) => report.report.total_detected,
                    _ => unreachable!("an in-memory stream without a resume always completes"),
                }
            })
        });
    }
    g.finish();
}

fn offline_shards(c: &mut Runner) {
    let jac = record_jacobi();
    let sw = record_sw();
    shard_scaling(c, "jacobi", &jac);
    shard_scaling(c, "smithwaterman", &sw);
}

futrace_bench::bench_main!(offline_shards);
