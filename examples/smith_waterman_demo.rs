//! Smith-Waterman demo: the wavefront alignment workload with the paper's
//! worst race-detection slowdown, plus what happens when a dependence is
//! forgotten (the detector pinpoints the race).
//!
//! ```text
//! cargo run --release --example smith_waterman_demo
//! ```

use futrace::benchsuite::smithwaterman::{
    expected_nt_joins, expected_tasks, max_score, sw_run, sw_seq_score, SwParams,
};
use futrace::prelude::*;
use futrace_util::stats::Timer;

fn main() {
    let p = SwParams {
        n: 400,
        tiles: 10,
        seed: 0xac97,
    };
    println!(
        "Smith-Waterman: {}×{} alignment matrix, {}×{} tile wavefront",
        p.n, p.n, p.tiles, p.tiles
    );
    println!(
        "expected structure: {} future tasks, {} non-tree joins\n",
        expected_tasks(&p),
        expected_nt_joins(&p)
    );

    let reference_score = sw_seq_score(&p);

    // Correct wavefront under the detector.
    let t = Timer::start();
    let outcome = Analyze::program(|ctx| {
        let h = sw_run(ctx, &p, false);
        assert_eq!(max_score(&h), reference_score);
    })
    .run()
    .unwrap();
    let (report, stats) = (outcome.races, outcome.stats);
    println!(
        "instrumented run:   {:8.2} ms — best local alignment score {reference_score}",
        t.elapsed_ms()
    );
    assert!(!report.has_races());
    println!(
        "race-free ✓   #AvgReaders = {:.3} (tile boundaries are watched by 2 parallel readers)\n",
        stats.avg_readers()
    );

    // Broken wavefront: drop the `get()` on the top tile.
    let outcome = Analyze::program(|ctx| {
        let _ = sw_run(ctx, &p, true);
    })
    .run()
    .unwrap();
    let report = outcome.races;
    println!("with the top-tile get() removed:");
    println!("{report}");
    assert!(report.has_races());

    // Parallel execution of the correct version.
    let score = run_parallel(4, |ctx| {
        let h = sw_run(ctx, &p, false);
        max_score(&h)
    })
    .expect("race-free => deadlock-free");
    assert_eq!(score, reference_score);
    println!("parallel wavefront computed the same score: {score} ✓");
}
