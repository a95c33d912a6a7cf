//! Layer-by-layer timing of the online pipeline on one workload —
//! `cargo run --release -p futrace-bench --example online_prof [bench]`.
//!
//! Separates the executor, the buffer/walker plumbing, and detection on
//! the walker thread so a pipeline regression names its layer.

use futrace_benchsuite::registry::{self, Scale};
use futrace_detector::RaceDetector;
use futrace_runtime::engine::{Analysis, Engine};
use futrace_runtime::online::{run_online, OnlineOptions};
use futrace_runtime::{run_parallel, NullMonitor};
use std::time::Instant;

fn median_ms(mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "jacobi".into());
    let w = registry::find(&name).expect("known bench");
    let scale = Scale::Perf;

    let serial_uninstr = median_ms(|| {
        let mut nm = NullMonitor;
        w.run_into(&mut nm, scale, false);
    });
    let serial_live = median_ms(|| {
        let mut engine = Engine::new(RaceDetector::new());
        w.run_into(&mut engine, scale, false);
        let (analysis, _) = engine.into_parts();
        let _ = analysis.finish();
    });
    let par_uninstr = |t: usize| {
        median_ms(|| {
            run_parallel(t, |ctx| w.run_parallel_into(ctx, scale, false)).expect("no deadlock");
        })
    };
    let online_null = |t: usize| {
        median_ms(|| {
            let run = run_online(OnlineOptions::threads(t), &mut NullMonitor, |ctx| {
                w.run_parallel_into(ctx, scale, false)
            });
            run.result.expect("no deadlock");
        })
    };
    let online_dtrg = |t: usize| {
        median_ms(|| {
            let mut engine = Engine::new(RaceDetector::new());
            let run = run_online(OnlineOptions::threads(t), &mut engine, |ctx| {
                w.run_parallel_into(ctx, scale, false)
            });
            run.result.expect("no deadlock");
            let _ = engine.into_parts().0.finish();
        })
    };

    println!("{name} (Scale::Perf), median of 5, ms:");
    println!("  serial uninstrumented        {serial_uninstr:8.1}");
    println!("  serial live (engine+dtrg)    {serial_live:8.1}");
    for t in [1, 2, 4] {
        println!("  parallel uninstrumented @{t}t  {:8.1}", par_uninstr(t));
    }
    for t in [1, 2, 4] {
        println!("  online null monitor     @{t}t  {:8.1}", online_null(t));
    }
    for t in [1, 2, 4] {
        println!("  online dtrg             @{t}t  {:8.1}", online_dtrg(t));
    }
}
