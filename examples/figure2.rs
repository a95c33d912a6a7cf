//! The paper's Figure 2/Figure 3 setting: a main task and four future
//! tasks whose computation graph mixes tree joins and non-tree joins, with
//! the dynamic task reachability graph (Table 1) inspected **mid-run** —
//! the on-the-fly state, before the implicit finish collapses everything
//! into the main task's set.
//!
//! The figure's source listing is not reproduced in the paper text, so
//! this example builds a program exhibiting every property the paper
//! states about it:
//!
//! * a `get()` by an **ancestor** produces a *tree join* (the awaited
//!   task's disjoint set merges into the ancestor's — Algorithm 4's
//!   then-branch);
//! * a `get()` by a **non-ancestor** produces a *non-tree join* (recorded
//!   in the getter's `nt` set — Algorithm 4's else-branch), and descendant
//!   tasks spawned afterwards point to the getter as their *lowest
//!   significant ancestor*;
//! * some step pairs are ordered only transitively, others not at all
//!   (the paper's `S2 ≺ S12` / `S2 ⊀ S10` style claims), verified here
//!   against the exact transitive-closure oracle.
//!
//! The full computation graph is also printed in Graphviz DOT, styled like
//! the paper's figures (boxes = tasks, circles = steps, dashed = joins,
//! red = non-tree joins).
//!
//! ```text
//! cargo run --example figure2 [--dot]
//! ```

use futrace::compgraph::oracle::Reachability;
use futrace::compgraph::{dot, GraphBuilder, JoinKind};
use futrace::detector::RaceDetector;
use futrace::prelude::*;
use futrace::runtime::monitor::Pair;
use futrace::runtime::TaskCtx;
use futrace_util::ids::TaskId;

fn main() {
    let print_dot = std::env::args().any(|a| a == "--dot");
    let (ta, tb, tc, td) = (TaskId(1), TaskId(2), TaskId(3), TaskId(4));

    // Drive the detector and the graph builder over the same execution.
    let mut mon = Pair(RaceDetector::new(), GraphBuilder::new());
    run_serial(&mut mon, |ctx| {
        let markers = ctx.shared_array(16, 0u64, "s");
        let m = markers.clone();
        // T_A (T1) spawns T_B (T2) and joins it: a tree join.
        let a = ctx.future(move |ctx| {
            let m2 = m.clone();
            let b = ctx.future(move |ctx| {
                let _ = m2.read(ctx, 2); // "S2" inside T_B
            });
            ctx.get(&b); // ancestor get => tree join, sets merge
                         // Mid-run DTRG check: T_B merged into T_A's set.
            assert!(ctx.monitor_mut().0.dtrg_mut().same_set(ta, tb));
            let _ = m.read(ctx, 3);
        });
        // T_C (T3) joins T_A from the side: a non-tree join.
        let a2 = a.clone();
        let m = markers.clone();
        let c = ctx.future(move |ctx| {
            ctx.get(&a2); // sibling get => non-tree join
            {
                let dtrg = ctx.monitor_mut().0.dtrg_mut();
                assert!(!dtrg.same_set(tc, ta), "non-tree join: no merge");
                assert!(dtrg.set_data(tc).nt.contains(ta), "T_A ∈ P(T_C)");
            }
            let _ = m.read(ctx, 8);
            // T_D (T4) spawned under T_C after the non-tree join:
            // its lowest significant ancestor is T_C (Table 1's LSA rows).
            let m2 = m.clone();
            let d = ctx.future(move |ctx| {
                let _ = m2.read(ctx, 12); // "S12"
            });
            {
                let dtrg = ctx.monitor_mut().0.dtrg_mut();
                assert_eq!(dtrg.set_data(td).lsa, Some(tc), "LSA(T_D) = T_C");
                // And the DTRG answers reachability: T_B precedes T_D
                // through tree join + non-tree join + spawn.
                assert!(dtrg.precede(tb, td));
                // ...but T_D (still running) precedes nobody.
                assert!(!dtrg.precede(td, tc));
            }
            ctx.get(&d);
        });
        // An access parallel to everything above ("S10"):
        let _ = markers.read(ctx, 10);
        ctx.get(&c);
    });
    let Pair(det, builder) = mon;
    assert!(!det.has_races());
    println!("Mid-run DTRG checks passed (Table 1's sets, P(·), and LSA(·)).");

    // --- Step-level reachability (Figure 2 style) ---------------------
    let graph = builder.into_graph();
    let reach = Reachability::build(&graph);
    let step_of = |k: u32| {
        graph
            .accesses
            .iter()
            .find(|acc| acc.loc.0 == k)
            .expect("marker")
            .step
    };
    let (s2, s8, s10, s12) = (step_of(2), step_of(8), step_of(10), step_of(12));
    assert!(
        reach.reaches(s2, s12),
        "S2 ≺ S12 (via tree + non-tree joins)"
    );
    assert!(reach.parallel(s2, s10), "S2 ⊀ S10 and S10 ⊀ S2");
    assert!(reach.reaches(s2, s8), "S2 ≺ S8");
    println!("\nReachability (cf. Figure 2):");
    println!("  S2 ≺ S12   ✓ (tree join into T_A, non-tree join into T_C, spawn of T_D)");
    println!("  S2 ∥ S10   ✓ (no path either way)");

    // Join-kind census: B→A and C's get of D and main's get of C and the
    // implicit finish joins are tree; only C's get of A is non-tree.
    let tree = graph
        .join_edges()
        .filter(|(_, k)| *k == JoinKind::Tree)
        .count();
    let non_tree = graph.non_tree_join_count();
    println!("\nJoin edges: {tree} tree, {non_tree} non-tree");
    assert_eq!(non_tree, 1);

    if print_dot {
        println!("\n// --- computation graph (Figure 2 style) ---");
        println!("{}", dot::to_dot(&graph, "figure2"));
        println!("\n// --- DTRG (Figure 3 / Table 1 style) ---");
        let mut det = det;
        println!(
            "{}",
            futrace::detector::dot::to_dot(det.dtrg_mut(), "figure3_dtrg")
        );
    } else {
        println!("(re-run with --dot to print the Graphviz renderings of the");
        println!(" computation graph and the final DTRG)");
    }
}
