//! Quickstart: find a determinacy race in a future-parallel program, fix
//! it, and certify the fixed program determinate.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use futrace::prelude::*;

fn main() {
    // --- A racy program ----------------------------------------------------
    // A future task writes `total`; the main task reads it without joining
    // the future first. Depending on scheduling, the read could see either
    // value: a determinacy race.
    println!("== racy version ==");
    let report = Analyze::program(|ctx| {
        let total = ctx.shared_var(0i64, "total");
        let t = total.clone();
        let _sum = ctx.future(move |ctx| {
            let s: i64 = (1..=100).sum();
            t.write(ctx, s);
        });
        // BUG: no ctx.get(&_sum) here.
        let v = total.read(ctx);
        println!("main observed total = {v}");
    })
    .run()
    .unwrap()
    .races;
    println!("{report}");
    assert!(report.has_races());

    // --- The fixed program -------------------------------------------------
    // One `get()` establishes the happens-before edge; the detector proves
    // the program race-free, which (per the paper's determinism property)
    // certifies it functionally AND structurally deterministic for this
    // input, and deadlock-free.
    println!("== fixed version ==");
    let outcome = Analyze::program(|ctx| {
        let total = ctx.shared_var(0i64, "total");
        let t = total.clone();
        let sum = ctx.future(move |ctx| {
            let s: i64 = (1..=100).sum();
            t.write(ctx, s);
        });
        ctx.get(&sum); // the fix
        let v = total.read(ctx);
        assert_eq!(v, 5050);
        println!("main observed total = {v}");
    })
    .run()
    .unwrap();
    let (report, stats) = (outcome.races, outcome.stats);
    println!("{report}");
    println!("-- run statistics --\n{stats}");
    assert!(!report.has_races());

    // Race-free means the parallel executor must compute the same answer
    // under every schedule — demonstrate on 8 threads.
    let v = run_parallel(8, |ctx| {
        let total = ctx.shared_var(0i64, "total");
        let t = total.clone();
        let sum = ctx.future(move |ctx| {
            let s: i64 = (1..=100).sum();
            t.write(ctx, s);
        });
        ctx.get(&sum);
        total.read(ctx)
    })
    .expect("race-free programs cannot deadlock");
    println!("parallel run computed total = {v}");
    assert_eq!(v, 5050);
}
