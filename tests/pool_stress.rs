//! Stress test for the work-stealing pool's stall detector: a program that
//! cannot deadlock must never be reported as deadlocked, on any schedule.
//!
//! randomprog programs are deadlock-free by construction (a task can `get`
//! only futures spawned before it, see `benchsuite::randomprog`), so every
//! `Deadlock` here is a false positive of the detector. Each program runs
//! under several steal orders and pool widths, both on the bare pool
//! (`run_parallel_seeded`) and under online detection
//! (`Analyze::program_parallel`), which adds the recorder's publishes to
//! every spawn, `get` and task end.
//!
//! The sizing makes one run of this test a few thousand pool runs: enough
//! that a stall check which can see a thread in transit as idle fails it
//! nearly every time.

use futrace::benchsuite::randomprog::{execute, generate, GenParams};
use futrace::runtime::{run_parallel_seeded, TaskCtx};
use futrace::Analyze;

/// Programs per parameter family.
const PROGRAMS: u64 = 200;
const THREADS: [usize; 4] = [1, 2, 4, 8];
const STEAL_SEEDS: [u64; 3] = [1, 2, 3];

#[test]
fn deadlock_free_programs_never_report_deadlock() {
    let families = [
        ("future_heavy", GenParams::future_heavy()),
        ("nontree_heavy", GenParams::nontree_heavy()),
    ];
    for (family, params) in families {
        for seed in 0..PROGRAMS {
            let prog = generate(seed, &params);
            for threads in THREADS {
                for steal_seed in STEAL_SEEDS {
                    let context =
                        format!("{family} seed {seed} threads {threads} steal_seed {steal_seed}");
                    let pool = run_parallel_seeded(threads, steal_seed, |ctx| {
                        ctx.finish(|ctx| {
                            execute(ctx, &prog);
                        });
                    });
                    if let Err(e) = pool {
                        panic!("run_parallel_seeded: {context}: {e}");
                    }
                    let online = Analyze::program_parallel(threads, |ctx| {
                        execute(ctx, &prog);
                    })
                    .steal_seed(steal_seed)
                    .run();
                    if let Err(e) = online {
                        panic!("program_parallel: {context}: {e}");
                    }
                }
            }
        }
    }
}
