//! Accumulators and the detector: reductions through
//! [`futrace::runtime::accumulator`] are race-free by construction and
//! invisible to the shadow memory, so a program whose cross-task
//! communication is accumulator-only is certified race-free — while the
//! same reduction hand-rolled over a shared cell is (correctly) racy.

use futrace::runtime::accumulator::{Accumulator, MaxOp, SumOp};
use futrace::runtime::{run_parallel, TaskCtx};
use futrace::Analyze;

#[test]
fn accumulator_reduction_is_race_free() {
    let report = Analyze::program(|ctx| {
        let acc = Accumulator::<u64, SumOp>::new();
        ctx.finish(|ctx| {
            for i in 1..=64u64 {
                let acc = acc.clone();
                ctx.async_task(move |_| acc.put(i));
            }
        });
        assert_eq!(acc.get(), 64 * 65 / 2);
    })
    .run()
    .unwrap();
    assert!(!report.has_races());
}

#[test]
fn hand_rolled_reduction_is_racy() {
    // The same sum through a shared cell: read-modify-write per task —
    // the detector flags it, which is exactly why HJ offers accumulators.
    let report = Analyze::program(|ctx| {
        let cell = ctx.shared_var(0u64, "sum");
        ctx.finish(|ctx| {
            for i in 1..=8u64 {
                let cell = cell.clone();
                ctx.async_task(move |ctx| {
                    let old = cell.read(ctx);
                    cell.write(ctx, old + i);
                });
            }
        });
    })
    .run()
    .unwrap();
    assert!(report.has_races());
}

#[test]
fn mixed_accumulator_and_shared_memory_program() {
    // Shared-memory traffic stays fully checked around accumulator use.
    let report = Analyze::program(|ctx| {
        let data = ctx.shared_array(32, 0u64, "data");
        let best = Accumulator::<u64, MaxOp>::new();
        // Phase 1: fill the array (disjoint writes, race-free).
        ctx.finish(|ctx| {
            let d = data.clone();
            ctx.forasync(0..32, move |ctx, i| d.write(ctx, i, (i * 7 % 13) as u64));
        });
        // Phase 2: parallel max over it.
        ctx.finish(|ctx| {
            let d = data.clone();
            let b = best.clone();
            ctx.forasync(0..32, move |ctx, i| b.put(d.read(ctx, i)));
        });
        assert_eq!(best.get(), 12);
    })
    .run()
    .unwrap();
    assert!(!report.has_races());
}

#[test]
fn parallel_accumulator_agrees_with_serial() {
    let run = |threads: usize| {
        run_parallel(threads, |ctx| {
            let acc = Accumulator::<i64, SumOp>::new();
            ctx.finish(|ctx| {
                for i in -50..=50i64 {
                    let acc = acc.clone();
                    ctx.async_task(move |_| acc.put(i * i));
                }
            });
            acc.get()
        })
        .unwrap()
    };
    let expected: i64 = (-50..=50i64).map(|i| i * i).sum();
    for threads in [1, 2, 4] {
        assert_eq!(run(threads), expected);
    }
}
