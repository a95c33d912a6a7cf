//! Appendix A's deadlock scenario.
//!
//! ```text
//! future<T> a = null, b = null;
//! async { a = async<T> { b.get(); ...}; /*F1*/ }
//! async { b = async<T> { a.get(); ...}; /*F2*/ }
//! ```
//!
//! The two futures may wait on each other forever — but only because the
//! handle variables `a` and `b` are **racy**: each future task reads a
//! handle written by the *other* async task without synchronization.
//! Appendix A proves a program with async/finish/future constructs can
//! deadlock *only if* it has a data race on future handles, so race
//! freedom certifies deadlock freedom.
//!
//! This example shows both halves:
//!
//! 1. the serial depth-first detector flags the handle race (no parallel
//!    execution, no deadlock, no luck involved — one run decides);
//! 2. the parallel executor actually deadlocks on the cyclic waits and
//!    reports `DeadlockError` via stall detection.
//!
//! ```text
//! cargo run --example deadlock
//! ```

use futrace::prelude::*;
use futrace::runtime::DeadlockError;

fn main() {
    // --- Half 1: the detector catches the handle race, serially. --------
    //
    // The serial depth-first execution cannot itself deadlock (a future
    // always completes at its spawn point), but the detector analyzes ALL
    // schedules: the unsynchronized handle cell is reported racy. We model
    // `future<T> b` as a shared cell holding a task id; the second async
    // reads it while the first wrote it in parallel.
    println!("== serial race detection on the handle exchange ==");
    let report = Analyze::program(|ctx| {
        // Shared handle slots (0 = null).
        let slot_a = ctx.shared_var(0u32, "handle.a");
        let slot_b = ctx.shared_var(0u32, "handle.b");
        let (sa, sb) = (slot_a.clone(), slot_b.clone());
        ctx.async_task(move |ctx| {
            // a = async { b.get(); } — reads slot_b to obtain the handle.
            let sb2 = sb.clone();
            let sa2 = sa.clone();
            let fa = ctx.future(move |ctx| {
                let _b_handle = sb2.read(ctx); // RACY read of b's slot
            });
            let _ = fa;
            sa2.write(ctx, 1); // publish a's handle — RACY write
        });
        let (sa, sb) = (slot_a.clone(), slot_b.clone());
        ctx.async_task(move |ctx| {
            let sa2 = sa.clone();
            let sb2 = sb.clone();
            let fb = ctx.future(move |ctx| {
                let _a_handle = sa2.read(ctx); // RACY read of a's slot
            });
            let _ = fb;
            sb2.write(ctx, 2); // publish b's handle — RACY write
        });
    })
    .run()
    .unwrap()
    .races;
    println!("{report}");
    assert!(
        report.has_races(),
        "the handle exchange must be reported racy"
    );
    println!("=> deadlock risk detected statically-in-one-run: the handle cells race.\n");

    // --- Half 2: the parallel runtime actually deadlocks. ---------------
    println!("== parallel execution of the cyclic wait ==");
    use std::sync::mpsc;
    let (txa, rxa) = mpsc::channel();
    let (txb, rxb) = mpsc::channel();
    let result: Result<u64, DeadlockError> = run_parallel(3, move |ctx| {
        let fa = ctx.future(move |ctx| {
            let hb = rxb.recv().unwrap(); // receive b's handle
            ctx.get(&hb) // ... and wait on it: half of the cycle
        });
        txa.send(fa.clone()).unwrap();
        let fb = ctx.future(move |ctx| {
            let ha = rxa.recv().unwrap();
            ctx.get(&ha) // the other half of the cycle
        });
        txb.send(fb.clone()).unwrap();
        ctx.get(&fa)
    });
    match result {
        Err(e) => println!("runtime detected: {e}"),
        Ok(v) => unreachable!("the cyclic wait cannot produce a value, got {v}"),
    }
    println!("\nRace-free programs never reach this state (Appendix A, Lemma 2).");
}
