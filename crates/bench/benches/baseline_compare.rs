//! Baseline comparison benches.
//!
//! Two claims from the paper are checked here:
//!
//! 1. **"No additional overhead for async/finish constructs relative to
//!    state of the art"** (§5): on pure async-finish programs the DTRG
//!    detector should track ESP-bags and SP-bags closely — all three do a
//!    constant number of disjoint-set operations per access.
//! 2. **Vector clocks are the wrong tool for task parallelism** (§1):
//!    the paper's argument is about *memory* — per-task clocks sized by
//!    the number of tasks (see `examples/memory_footprint.rs`: clock
//!    entries grow quadratically where DTRG state is linear). On wall
//!    clock the vector-clock detector's per-check constant is actually
//!    small; what `future-scaling` shows is all detectors paying the
//!    inherent Θ(readers²) reader-set maintenance on a single-location
//!    fan-out, plus the closure detector's Θ(steps²) blow-up.

use futrace_baselines::{ClosureDetector, EspBags, SpBags, VectorClockDetector};
use futrace_bench::runner::{BenchmarkId, Runner};
use futrace_benchsuite::crypt::{crypt_run, CryptParams, CryptVariant};
use futrace_benchsuite::series::{series_af, SeriesParams};
use futrace_detector::RaceDetector;
use futrace_runtime::engine::{run_analysis_live, Analysis, Engine};
use futrace_runtime::{SerialCtx, TaskCtx};

/// Runs `f` live under `det` through the engine, as every detector here
/// is run, and returns the detector's report.
fn run<A: Analysis>(det: A, f: impl FnOnce(&mut SerialCtx<Engine<A>>)) -> A::Report {
    run_analysis_live(f, det).report
}

fn async_finish_overhead(c: &mut Runner) {
    let sp = SeriesParams {
        n: 200,
        intervals: 50,
    };
    let cp = CryptParams {
        bytes: 16_384,
        seed: 0x1dea,
    };
    let mut g = c.benchmark_group("af-overhead");
    g.sample_size(10);
    g.bench_function("series-af/dtrg", |b| {
        b.iter(|| {
            let r = run(RaceDetector::new(), |ctx| {
                series_af(ctx, &sp);
            });
            assert!(!r.report.has_races());
        })
    });
    g.bench_function("series-af/esp-bags", |b| {
        b.iter(|| {
            let r = run(EspBags::new(), |ctx| {
                series_af(ctx, &sp);
            });
            assert!(!r.has_races());
        })
    });
    g.bench_function("series-af/sp-bags", |b| {
        b.iter(|| {
            let r = run(SpBags::new(), |ctx| {
                series_af(ctx, &sp);
            });
            assert!(!r.has_races());
        })
    });
    g.bench_function("crypt-af/dtrg", |b| {
        b.iter(|| {
            let r = run(RaceDetector::new(), |ctx| {
                crypt_run(ctx, &cp, CryptVariant::AsyncFinish);
            });
            assert!(!r.report.has_races());
        })
    });
    g.bench_function("crypt-af/esp-bags", |b| {
        b.iter(|| {
            let r = run(EspBags::new(), |ctx| {
                crypt_run(ctx, &cp, CryptVariant::AsyncFinish);
            });
            assert!(!r.has_races());
        })
    });
    g.finish();
}

/// Fan-out-join microprogram: n futures all read one location, then the
/// parent joins all and writes — stresses reader sets and join handling.
fn fan<C: TaskCtx>(ctx: &mut C, n: usize) {
    let x = ctx.shared_var(1u64, "x");
    let mut hs = Vec::with_capacity(n);
    for _ in 0..n {
        let xr = x.clone();
        hs.push(ctx.future(move |ctx| xr.read(ctx)));
    }
    for h in &hs {
        ctx.get(h);
    }
    x.write(ctx, 2);
}

fn future_scaling(c: &mut Runner) {
    let mut g = c.benchmark_group("future-scaling");
    g.sample_size(10);
    for n in [256usize, 1024, 4096] {
        g.bench_with_input(BenchmarkId::new("dtrg", n), &n, |b, &n| {
            b.iter(|| {
                let r = run(RaceDetector::new(), |ctx| fan(ctx, n));
                assert!(!r.report.has_races());
            })
        });
        g.bench_with_input(BenchmarkId::new("vector-clock", n), &n, |b, &n| {
            b.iter(|| {
                let r = run(VectorClockDetector::new(), |ctx| fan(ctx, n));
                assert!(!r.has_races());
            })
        });
        if n <= 1024 {
            g.bench_with_input(BenchmarkId::new("closure", n), &n, |b, &n| {
                b.iter(|| {
                    let r = run(ClosureDetector::new(), |ctx| fan(ctx, n));
                    assert!(!r.has_races());
                })
            });
        }
    }
    g.finish();
}

futrace_bench::bench_main!(async_finish_overhead, future_scaling);
