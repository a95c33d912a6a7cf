//! The paper's Figure 3 / Table 1 walk-through, reproduced as a white-box
//! test: a program whose DTRG passes through exactly the states Table 1
//! shows —
//!
//! * **after "step 11"** (mid-run): `P(T3) = {T1, T2}` (T3 performed
//!   non-tree joins on both earlier futures) and `LSA(T4) = LSA(T5) =
//!   LSA(T6) = T3` (their lowest ancestor with a non-tree join);
//! * **after "step 17"** (the finish ends): `T0, T3, T4, T5, T6` share
//!   one disjoint set (connected by tree joins), while `T1` and `T2`
//!   remain outside it (they were only ever joined by non-tree edges).

use futrace_detector::RaceDetector;
use futrace_runtime::{run_serial, TaskCtx};
use futrace_util::ids::TaskId;

const T0: TaskId = TaskId(0);
const T1: TaskId = TaskId(1);
const T2: TaskId = TaskId(2);
const T3: TaskId = TaskId(3);
const T4: TaskId = TaskId(4);
const T5: TaskId = TaskId(5);
const T6: TaskId = TaskId(6);

#[test]
fn table1_states() {
    let mut det = RaceDetector::new();
    run_serial(&mut det, |ctx| {
        // T1, T2: futures created before the finish (they will join T0
        // only via the implicit finish at program end).
        let f1 = ctx.future(|_| ());
        let f2 = ctx.future(|_| ());
        // The finish whose end produces Table 1(b)'s merged set.
        ctx.finish(|ctx| {
            let (f1, f2) = (f1.clone(), f2.clone());
            // T3: performs the two non-tree joins, then spawns T4–T6.
            ctx.async_task(move |ctx| {
                ctx.get(&f1); // non-tree join T1 -> T3
                ctx.get(&f2); // non-tree join T2 -> T3
                ctx.async_task(|_| {}); // T4
                ctx.async_task(|_| {}); // T5
                ctx.async_task(|_| {}); // T6

                // --- Table 1(a): the state "after step 11" -----------
                let dtrg = ctx.monitor_mut().dtrg_mut();
                let p_t3 = dtrg.set_data(T3).nt.to_vec();
                assert_eq!(p_t3, vec![T1, T2], "P(T3) = {{T1, T2}}");
                for t in [T4, T5, T6] {
                    assert_eq!(dtrg.set_data(t).lsa, Some(T3), "LSA({t}) = T3");
                }
                // T3 not merged with anyone yet.
                assert!(!dtrg.same_set(T3, T0));
                assert!(!dtrg.same_set(T3, T1));
                // The non-tree edges make T1, T2 precede T3's current step
                // (and transitively T4–T6's steps — checked for T6, whose
                // LSA chain supplies the path).
                assert!(dtrg.precede(T1, T3));
                assert!(dtrg.precede(T2, T3));
                assert!(dtrg.precede(T1, T6));
            });
        });

        // --- Table 1(b): the state "after step 17" -------------------
        let dtrg = ctx.monitor_mut().dtrg_mut();
        for t in [T3, T4, T5, T6] {
            assert!(
                dtrg.same_set(T0, t),
                "{t} merged into T0's set at the finish"
            );
        }
        assert!(!dtrg.same_set(T0, T1), "T1 joined only via a non-tree edge");
        assert!(!dtrg.same_set(T0, T2), "T2 joined only via a non-tree edge");
        // The merged set keeps the ancestor-most label (T0's) and inherits
        // T3's non-tree predecessors.
        assert_eq!(dtrg.set_data(T0).interval.pre, 0);
        assert!(dtrg.set_data(T0).nt.contains(T1));
        assert!(dtrg.set_data(T0).nt.contains(T2));
        // Everything merged precedes T0's current step; T1/T2 do too, but
        // through the non-tree edges rather than set membership.
        for t in [T1, T2, T3, T4, T5, T6] {
            assert!(dtrg.precede(t, T0), "{t} ≺ T0 after the finish");
        }
    });
    assert!(!det.has_races());
}
