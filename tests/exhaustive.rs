//! Exhaustive Theorem-2 check over *all* small programs of a bounded
//! grammar — no sampling gaps: every async/finish/future/get/read/write
//! shape up to the size bound is compared against the oracle.
//!
//! Grammar (one shared location, binary trees of constructs):
//!
//! ```text
//! P ::= ε | S P
//! S ::= read | write | async { P } | finish { P } | future { P } | get(k)
//! ```
//!
//! With the bounds below this enumerates tens of thousands of distinct
//! programs, including every example the paper draws (unsynchronized
//! future vs. parent, transitive get chains, finish-scoped asyncs, …).

use futrace::baselines::ClosureDetector;
use futrace::benchsuite::randomprog::{execute, Program, Stmt};
use futrace::runtime::engine::run_analysis_live;
use futrace::Analyze;

/// Enumerates all statement sequences of exactly `size` statements, where
/// nested bodies count toward the size. `futures_in_scope` tracks how many
/// handles a `Get` may reference.
fn enumerate(size: usize, futures_in_scope: usize, depth: usize, out: &mut Vec<Vec<Stmt>>) {
    if size == 0 {
        out.push(Vec::new());
        return;
    }
    // First statement takes `k` units (1 for leaf, 1 + body for blocks),
    // the rest of the sequence takes the remainder.
    let mut firsts: Vec<(Vec<Stmt>, usize, usize)> = Vec::new(); // (stmts, units, new_futures)
    firsts.push((vec![Stmt::Read(0)], 1, 0));
    firsts.push((vec![Stmt::Write(0, 1)], 1, 0));
    for k in 0..futures_in_scope {
        firsts.push((vec![Stmt::Get(k)], 1, 0));
    }
    if depth > 0 {
        for body_size in 0..size {
            let mut bodies = Vec::new();
            enumerate(body_size, futures_in_scope, depth - 1, &mut bodies);
            for b in bodies {
                firsts.push((vec![Stmt::Async(b.clone())], body_size + 1, 0));
                firsts.push((vec![Stmt::Future(b.clone())], body_size + 1, 1));
                firsts.push((vec![Stmt::Finish(b)], body_size + 1, 0));
            }
        }
    }
    for (first, units, new_futures) in firsts {
        if units > size {
            continue;
        }
        let mut rests = Vec::new();
        enumerate(
            size - units,
            futures_in_scope + new_futures,
            depth,
            &mut rests,
        );
        for rest in rests {
            let mut prog = first.clone();
            prog.extend(rest);
            out.push(prog);
        }
    }
}

#[test]
fn all_small_programs_match_the_oracle() {
    let mut bodies = Vec::new();
    for size in 0..=5 {
        enumerate(size, 0, 2, &mut bodies);
    }
    // Deduplicate (the enumeration can produce the same body via different
    // splits).
    bodies.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    bodies.dedup();
    let total = bodies.len();
    assert!(total > 10_000, "expected a large space, got {total}");

    let mut racy = 0usize;
    for body in bodies {
        let prog = Program { body, locs: 1 };
        let det = Analyze::program(|ctx| {
            execute(ctx, &prog);
        })
        .run()
        .unwrap()
        .has_races();
        let oracle = run_analysis_live(
            |ctx| {
                execute(ctx, &prog);
            },
            ClosureDetector::new(),
        )
        .report;
        assert_eq!(det, oracle.has_races(), "disagreement on {prog:?}");
        if det {
            racy += 1;
        }
    }
    // Sanity: the space contains both racy and race-free programs in bulk.
    assert!(racy > 100, "racy programs found: {racy} of {total}");
    assert!(racy < total, "not everything is racy");
    println!("exhaustive: {total} programs, {racy} racy — all verdicts agree");
}
