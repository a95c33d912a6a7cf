//! May-happen-in-parallel analytics over the computation graph.
//!
//! Beyond the race oracle, the exact `u ∥ v` relation supports useful
//! whole-program metrics: how much of the computation is actually
//! parallel, per task pair — the quantities race detectors implicitly
//! reason about. Used by the `tracetool` CLI and the analytics tests.

use crate::graph::CompGraph;
use crate::oracle::Reachability;

/// Exact may-happen-in-parallel summary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MhpSummary {
    /// Unordered step pairs that may run in parallel.
    pub parallel_step_pairs: u64,
    /// All unordered step pairs.
    pub total_step_pairs: u64,
    /// Unordered task pairs with at least one parallel step pair between
    /// them.
    pub parallel_task_pairs: u64,
    /// All unordered task pairs (excluding self-pairs).
    pub total_task_pairs: u64,
}

impl MhpSummary {
    /// Fraction of step pairs that are parallel (0 when no pairs exist).
    pub fn step_parallel_fraction(&self) -> f64 {
        if self.total_step_pairs == 0 {
            0.0
        } else {
            self.parallel_step_pairs as f64 / self.total_step_pairs as f64
        }
    }
}

/// Computes the exact MHP summary (Θ(steps²) — small graphs only, like
/// everything oracle-grade in this crate).
pub fn summarize(g: &CompGraph) -> MhpSummary {
    let reach = Reachability::build(g);
    let n = g.step_count();
    let mut parallel_steps = 0u64;
    let mut task_pairs = futrace_util::FxHashSet::default();
    for u in 0..n {
        for v in (u + 1)..n {
            let (su, sv) = (
                futrace_util::ids::StepId::from_index(u),
                futrace_util::ids::StepId::from_index(v),
            );
            if reach.parallel(su, sv) {
                parallel_steps += 1;
                let (a, b) = (g.task_of(su), g.task_of(sv));
                if a != b {
                    task_pairs.insert((a.min(b), a.max(b)));
                }
            }
        }
    }
    let t = g.task_count() as u64;
    MhpSummary {
        parallel_step_pairs: parallel_steps,
        total_step_pairs: (n as u64) * (n as u64 - 1) / 2,
        parallel_task_pairs: task_pairs.len() as u64,
        total_task_pairs: t * (t - 1) / 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use futrace_runtime::{run_serial, TaskCtx};
    use futrace_util::ids::TaskId;

    /// True iff any step of `a` may run in parallel with any step of `b`
    /// (task-level MHP, the relation ESP-bags/SPD3 answer per access).
    fn tasks_may_parallel(g: &CompGraph, reach: &Reachability, a: TaskId, b: TaskId) -> bool {
        if a == b {
            return false;
        }
        (0..g.step_count()).any(|u| {
            let su = futrace_util::ids::StepId::from_index(u);
            g.task_of(su) == a
                && (0..g.step_count()).any(|v| {
                    let sv = futrace_util::ids::StepId::from_index(v);
                    g.task_of(sv) == b && reach.parallel(su, sv)
                })
        })
    }

    fn graph_of(f: impl FnOnce(&mut futrace_runtime::SerialCtx<GraphBuilder>)) -> CompGraph {
        let mut b = GraphBuilder::new();
        run_serial(&mut b, f);
        b.into_graph()
    }

    #[test]
    fn sequential_program_has_zero_parallelism() {
        let g = graph_of(|ctx| {
            let x = ctx.shared_var(0u64, "x");
            x.write(ctx, 1);
            let _ = x.read(ctx);
        });
        let s = summarize(&g);
        assert_eq!(s.parallel_step_pairs, 0);
        assert_eq!(s.parallel_task_pairs, 0);
        assert_eq!(s.step_parallel_fraction(), 0.0);
        assert!(s.total_step_pairs > 0);
    }

    #[test]
    fn unjoined_siblings_are_parallel() {
        let g = graph_of(|ctx| {
            let _a = ctx.future(|_| 1u8);
            let _b = ctx.future(|_| 2u8);
        });
        let s = summarize(&g);
        assert!(s.parallel_step_pairs > 0);
        // T1 ∥ T2, and each future is parallel with part of main.
        assert!(s.parallel_task_pairs >= 1);
        let reach = Reachability::build(&g);
        assert!(tasks_may_parallel(&g, &reach, TaskId(1), TaskId(2)));
        assert!(!tasks_may_parallel(&g, &reach, TaskId(1), TaskId(1)));
    }

    #[test]
    fn gets_eliminate_task_parallelism() {
        // Fully chained futures: no two tasks overlap.
        let g = graph_of(|ctx| {
            let a = ctx.future(|_| ());
            ctx.get(&a);
            let b = ctx.future(|_| ());
            ctx.get(&b);
        });
        let reach = Reachability::build(&g);
        assert!(!tasks_may_parallel(&g, &reach, TaskId(1), TaskId(2)));
        // Main still overlaps each future between its spawn and its get
        // (the step holding the spawn's continuation), so (T0,T1) and
        // (T0,T2) remain parallel task pairs — but not (T1,T2).
        assert_eq!(summarize(&g).parallel_task_pairs, 2);
    }

    #[test]
    fn finish_bounds_parallelism() {
        let g = graph_of(|ctx| {
            ctx.finish(|ctx| {
                ctx.async_task(|_| {});
                ctx.async_task(|_| {});
            });
            ctx.async_task(|_| {});
        });
        let reach = Reachability::build(&g);
        // Siblings inside the finish are parallel.
        assert!(tasks_may_parallel(&g, &reach, TaskId(1), TaskId(2)));
        // The post-finish async is ordered after both.
        assert!(!tasks_may_parallel(&g, &reach, TaskId(1), TaskId(3)));
        assert!(!tasks_may_parallel(&g, &reach, TaskId(2), TaskId(3)));
    }
}
