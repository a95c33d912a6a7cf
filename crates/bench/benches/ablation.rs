//! Ablation benches for the DTRG design choices (§4.1).
//!
//! * `nt-join-sweep` — overhead vs. number of non-tree joins: Jacobi with
//!   a growing sweep count (non-tree joins grow linearly while per-sweep
//!   work is constant). The paper observes slowdowns are *not*
//!   significantly impacted by #NTJoins because producers and consumers
//!   are 1–2 non-tree hops apart; this sweep verifies the per-query hop
//!   count stays flat.
//! * `precede-chain` — raw `Precede` query cost as a function of the
//!   non-tree chain length between the two tasks, isolating the
//!   lowest-significant-ancestor walk (Theorem 1's `O(n+1)` factor).
//! * `reader-fanout` — write-check cost as a function of the number of
//!   stored parallel future readers (Theorem 1's `O(f+1)` factor; one
//!   `Precede` per stored reader).

use futrace_bench::runner::{BenchmarkId, Runner};
use futrace_benchsuite::jacobi::{jacobi_run, JacobiParams};
use futrace_detector::{Dtrg, RaceDetector};
use futrace_runtime::monitor::TaskKind;
use futrace_runtime::{run_serial, TaskCtx};
use futrace_util::ids::TaskId;

fn nt_join_sweep(c: &mut Runner) {
    let mut g = c.benchmark_group("nt-join-sweep");
    g.sample_size(10);
    for sweeps in [1usize, 2, 4, 8] {
        let p = JacobiParams {
            n: 96,
            tile: 16,
            sweeps,
            seed: 0xacab,
        };
        g.bench_with_input(BenchmarkId::new("racedet", sweeps), &p, |b, p| {
            b.iter(|| {
                let mut det = RaceDetector::new();
                run_serial(&mut det, |ctx| {
                    jacobi_run(ctx, p, false);
                });
                assert!(!det.has_races());
            })
        });
    }
    g.finish();
}

/// Builds a chain of `k` future tasks linked purely by non-tree joins
/// (each future gets the previous one) and returns the DTRG plus the chain
/// endpoints.
fn nt_chain(k: usize) -> (Dtrg, TaskId, TaskId) {
    let mut g = Dtrg::new();
    let main = TaskId::MAIN;
    let mut next = 1u32;
    let mut spawn = |g: &mut Dtrg| {
        let t = TaskId(next);
        next += 1;
        g.on_task_create(main, t, TaskKind::Future);
        t
    };
    let first = spawn(&mut g);
    g.on_task_end(first);
    let mut prev = first;
    let mut last = first;
    for _ in 1..k {
        let t = spawn(&mut g);
        g.on_get(t, prev); // non-tree edge to the previous future
        g.on_task_end(t);
        prev = t;
        last = t;
    }
    (g, first, last)
}

fn precede_chain(c: &mut Runner) {
    let mut g = c.benchmark_group("precede-chain");
    g.sample_size(10);
    for k in [2usize, 8, 64, 512] {
        g.bench_with_input(BenchmarkId::new("hops", k), &k, |b, &k| {
            let (mut dtrg, first, last) = nt_chain(k);
            b.iter(|| {
                assert!(dtrg.precede(first, last));
                assert!(!dtrg.precede(last, first));
            })
        });
    }
    g.finish();
}

fn reader_fanout(c: &mut Runner) {
    let mut g = c.benchmark_group("reader-fanout");
    g.sample_size(10);
    for readers in [1usize, 8, 64, 256] {
        g.bench_with_input(
            BenchmarkId::new("write-check", readers),
            &readers,
            |b, &n| {
                b.iter(|| {
                    let mut det = RaceDetector::new();
                    run_serial(&mut det, |ctx| {
                        let x = ctx.shared_var(1u64, "x");
                        let mut hs = Vec::with_capacity(n);
                        for _ in 0..n {
                            let xr = x.clone();
                            hs.push(ctx.future(move |ctx| xr.read(ctx)));
                        }
                        for h in &hs {
                            ctx.get(h);
                        }
                        // This write checks against all n stored readers.
                        x.write(ctx, 2);
                    });
                    assert!(!det.has_races());
                })
            },
        );
    }
    g.finish();
}

/// Interval-label subsumption vs. walking parent pointers for ancestor
/// queries (the DESIGN.md ablation (a)): build a deep spawn chain and
/// time both answers for near/far pairs.
fn ancestor_query(c: &mut Runner) {
    let mut g = c.benchmark_group("ancestor-query");
    g.sample_size(10);
    for depth in [16usize, 256, 4096] {
        // Build a chain main -> T1 -> T2 -> ... -> T_depth (all live).
        let mut dtrg = Dtrg::new();
        let mut cur = TaskId::MAIN;
        for i in 1..=depth {
            let t = TaskId(i as u32);
            dtrg.on_task_create(cur, t, TaskKind::Future);
            cur = t;
        }
        let deepest = cur;
        let dtrg_walk = dtrg.clone();
        g.bench_with_input(BenchmarkId::new("interval-label", depth), &depth, |b, _| {
            b.iter(|| {
                assert!(dtrg.is_ancestor(TaskId::MAIN, deepest));
                assert!(!dtrg.is_ancestor(deepest, TaskId::MAIN));
            })
        });
        g.bench_with_input(BenchmarkId::new("parent-walk", depth), &depth, |b, _| {
            b.iter(|| {
                assert!(dtrg_walk.is_ancestor_walk(TaskId::MAIN, deepest));
                assert!(!dtrg_walk.is_ancestor_walk(deepest, TaskId::MAIN));
            })
        });
    }
    g.finish();
}

futrace_bench::bench_main!(nt_join_sweep, precede_chain, reader_fanout, ancestor_query);
