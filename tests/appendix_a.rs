//! Appendix A as tests: data-race freedom ⇒ deadlock freedom, and the
//! converse diagnosis — a program that *can* deadlock necessarily has a race on its
//! future handles, which the serial detector finds in one run.

use futrace::prelude::*;
use futrace::runtime::DeadlockError;

/// The Appendix-A program's handle exchange, modeled with shared cells:
/// each async publishes its future's handle to a cell the *other* side
/// reads without synchronization. Generic over the monitor so it runs
/// under the engine-wrapped detector that `Analyze::program` drives.
fn racy_handle_exchange<M: futrace::runtime::Monitor>(ctx: &mut SerialCtx<M>) {
    let slot_a = ctx.shared_var(0u32, "handle.a");
    let slot_b = ctx.shared_var(0u32, "handle.b");
    let (sa, sb) = (slot_a.clone(), slot_b.clone());
    ctx.async_task(move |ctx| {
        let sb2 = sb.clone();
        let _fa = ctx.future(move |ctx| {
            let _ = sb2.read(ctx); // obtain b's handle — racy
        });
        sa.write(ctx, 1); // publish a's handle — racy
    });
    let (sa, sb) = (slot_a.clone(), slot_b.clone());
    ctx.async_task(move |ctx| {
        let sa2 = sa.clone();
        let _fb = ctx.future(move |ctx| {
            let _ = sa2.read(ctx);
        });
        sb.write(ctx, 2);
    });
}

#[test]
fn handle_race_is_detected_serially() {
    let report = Analyze::program(racy_handle_exchange).run().unwrap().races;
    assert!(report.has_races());
    let first = report.first().unwrap();
    assert!(
        first.loc_name.starts_with("handle."),
        "the race is on the handle cells, got {}",
        first.loc_name
    );
}

#[test]
fn synchronized_handle_exchange_is_race_free_and_cannot_deadlock() {
    // The fixed protocol: handles flow through finish boundaries (the
    // consumers start only after the producers' finish completed), so no
    // cycle can form and the detector certifies it.
    let report = Analyze::program(|ctx| {
        let slot_a = ctx.shared_var(0u32, "handle.a");
        let sa = slot_a.clone();
        ctx.finish(|ctx| {
            ctx.async_task(move |ctx| sa.write(ctx, 1));
        });
        // After the finish: reading the handle is ordered.
        ctx.async_task(move |ctx| {
            let _ = slot_a.read(ctx);
        });
    })
    .run()
    .unwrap()
    .races;
    assert!(!report.has_races());
}

#[test]
fn parallel_cycle_is_reported_as_deadlock() {
    use std::sync::mpsc;
    let (txa, rxa) = mpsc::channel();
    let (txb, rxb) = mpsc::channel();
    let res: Result<u64, DeadlockError> = run_parallel(3, move |ctx| {
        let fa = ctx.future(move |ctx| {
            let hb = rxb.recv().unwrap();
            ctx.get(&hb)
        });
        txa.send(fa.clone()).unwrap();
        let fb = ctx.future(move |ctx| {
            let ha = rxa.recv().unwrap();
            ctx.get(&ha)
        });
        txb.send(fb.clone()).unwrap();
        ctx.get(&fa)
    });
    let err = res.unwrap_err();
    assert!(err.blocked_waits >= 2, "got {err}");
}

#[test]
fn race_free_random_programs_never_deadlock_in_parallel() {
    // Lemma 2 in bulk: every race-free random program completes under the
    // parallel executor (already exercised at 2/4 threads in
    // determinism.rs; here with a single thread, the adversarial case for
    // compensated blocking).
    use futrace::benchsuite::randomprog::{execute, generate, GenParams};
    use futrace::runtime::TaskCtx;
    let mut checked = 0;
    for seed in 0..120u64 {
        let prog = generate(seed, &GenParams::future_heavy());
        let report = Analyze::program(|ctx| {
            execute(ctx, &prog);
        })
        .run()
        .unwrap()
        .races;
        if report.has_races() {
            continue;
        }
        checked += 1;
        let res = run_parallel(1, |ctx| {
            let mut out = None;
            ctx.finish(|ctx| out = Some(execute(ctx, &prog)));
            out.unwrap().snapshot()
        });
        assert!(res.is_ok(), "seed {seed}: {res:?}");
        if checked >= 30 {
            break;
        }
    }
    assert!(checked >= 10);
}
