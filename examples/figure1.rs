//! The paper's Figure 1: three future tasks with multiple joins on T_A and
//! a transitive join dependence from T_B to the main task.
//!
//! ```text
//! // Main task
//! Stmt1;
//! future<T> A = async<T> { ... };                          // T_A
//! Stmt2;
//! future<T> B = async<T>{ Stmt3; A.get(); Stmt4; };        // T_B
//! Stmt5;
//! future<T> C = async<T>{ Stmt6; A.get(); Stmt7; B.get(); }; // T_C
//! Stmt8;
//! A.get();
//! Stmt9;
//! C.get();
//! Stmt10;
//! ```
//!
//! The example verifies, against the exact computation-graph oracle, the
//! claims made in §2: Stmt3/Stmt6/Stmt8 may execute in parallel with T_A;
//! Stmt4/Stmt7/Stmt9 can only execute after T_A completes; and although
//! the main task never performs B.get(), Stmt10 is ordered after T_B
//! (transitively through T_C).
//!
//! ```text
//! cargo run --example figure1
//! ```

use futrace::compgraph::oracle::Reachability;
use futrace::compgraph::GraphBuilder;
use futrace::prelude::*;
use futrace::runtime::TaskCtx;
use futrace_util::ids::StepId;

/// Markers: each `Stmt` reads its own location so we can find its step.
fn stmt<C: TaskCtx>(ctx: &mut C, markers: &SharedArray<u64>, k: usize) {
    let _ = markers.read(ctx, k);
}

fn main() {
    let mut builder = GraphBuilder::new();
    run_serial(&mut builder, |ctx| {
        let markers = ctx.shared_array(16, 0u64, "stmt");
        stmt(ctx, &markers, 1); // Stmt1
        let m = markers.clone();
        let a = ctx.future(move |ctx| {
            stmt(ctx, &m, 11); // T_A's body
        });
        stmt(ctx, &markers, 2); // Stmt2
        let (m, a2) = (markers.clone(), a.clone());
        let b = ctx.future(move |ctx| {
            stmt(ctx, &m, 3); // Stmt3
            ctx.get(&a2);
            stmt(ctx, &m, 4); // Stmt4
        });
        stmt(ctx, &markers, 5); // Stmt5
        let (m, a3, b2) = (markers.clone(), a.clone(), b.clone());
        let _c = ctx.future(move |ctx| {
            stmt(ctx, &m, 6); // Stmt6
            ctx.get(&a3);
            stmt(ctx, &m, 7); // Stmt7
            ctx.get(&b2);
        });
        stmt(ctx, &markers, 8); // Stmt8
        ctx.get(&a);
        stmt(ctx, &markers, 9); // Stmt9
        ctx.get(&_c);
        stmt(ctx, &markers, 10); // Stmt10
    });
    let graph = builder.into_graph();
    let reach = Reachability::build(&graph);

    // Locate each Stmt's step by its marker read (location id k within the
    // "stmt" allocation, which is the first allocation: base 0).
    let step_of = |k: u32| -> StepId {
        graph
            .accesses
            .iter()
            .find(|acc| acc.loc.0 == k)
            .expect("marker read")
            .step
    };
    let ta_last = graph.tasks[1].last_step;
    let tb_last = graph.tasks[2].last_step;

    println!("Figure 1 claims, checked against the transitive-closure oracle:");
    for k in [3u32, 6, 8] {
        let s = step_of(k);
        assert!(
            reach.parallel(s, ta_last),
            "Stmt{k} must be parallel with T_A"
        );
        println!("  Stmt{k} ∥ T_A            ✓");
    }
    for k in [4u32, 7, 9] {
        let s = step_of(k);
        assert!(reach.reaches(ta_last, s), "Stmt{k} must follow T_A");
        println!("  T_A ≺ Stmt{k}            ✓");
    }
    // The transitive dependence: main never called B.get(), yet T_B ≺ Stmt10.
    let s10 = step_of(10);
    assert!(reach.reaches(tb_last, s10), "T_B must precede Stmt10");
    println!("  T_B ≺ Stmt10 (transitive through T_C)  ✓");

    // And one non-claim for contrast: Stmt8 does not follow T_B.
    assert!(!reach.reaches(tb_last, step_of(8)));
    println!("  T_B ⊀ Stmt8              ✓");

    println!("\nAll Figure 1 properties hold.");
}
