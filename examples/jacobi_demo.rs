//! Jacobi stencil demo: the `depends`-style future workload from Table 2,
//! run three ways — serial reference, instrumented (race detection +
//! statistics), and parallel — with results cross-checked.
//!
//! ```text
//! cargo run --release --example jacobi_demo
//! ```

use futrace::benchsuite::jacobi::{
    expected_nt_joins, expected_tasks, jacobi_run, jacobi_seq, JacobiParams,
};
use futrace::prelude::*;
use futrace_util::stats::Timer;

fn main() {
    let p = JacobiParams {
        n: 128,
        tile: 16,
        sweeps: 4,
        seed: 0xacab,
    };
    println!(
        "Jacobi {}×{} grid, {}×{} tiles, {} sweeps — {} tile tasks, {} non-tree joins expected",
        p.n,
        p.n,
        p.tile,
        p.tile,
        p.sweeps,
        expected_tasks(&p),
        expected_nt_joins(&p),
    );

    // Serial elision (the Seq column).
    let t = Timer::start();
    let reference = jacobi_seq(&p);
    println!("serial elision:      {:8.2} ms", t.elapsed_ms());

    // Instrumented serial run (the Racedet column) + verification.
    let t = Timer::start();
    let outcome = Analyze::program(|ctx| {
        let out = jacobi_run(ctx, &p, false);
        let got = out.snapshot();
        assert!(got
            .iter()
            .zip(&reference)
            .all(|(a, b)| (a - b).abs() < 1e-12));
    })
    .run()
    .unwrap();
    let (report, stats) = (outcome.races, outcome.stats);
    println!("instrumented serial: {:8.2} ms", t.elapsed_ms());
    assert!(!report.has_races());
    println!("\n-- detector statistics --\n{stats}\n");
    assert_eq!(stats.tasks, expected_tasks(&p));
    assert_eq!(stats.nt_joins(), expected_nt_joins(&p));

    // Parallel run: race-free, so it must equal the serial elision.
    let t = Timer::start();
    let got = run_parallel(
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
        |ctx| jacobi_run(ctx, &p, false).snapshot(),
    )
    .expect("race-free => deadlock-free");
    println!("parallel run:        {:8.2} ms", t.elapsed_ms());
    assert!(got
        .iter()
        .zip(&reference)
        .all(|(a, b)| (a - b).abs() < 1e-12));
    println!("\nAll three executions agree (determinism property).");
}
