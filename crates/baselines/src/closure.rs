//! Transitive-closure (brute force) detector.
//!
//! Builds the entire step-level computation graph during the run, then
//! computes the transitive closure of the happens-before relation and
//! checks every access pair against Definition 3 — exactly the approach
//! the paper's introduction rules out for production use ("instead of
//! using brute force approaches such as building the transitive closure
//! of the happens-before relation…"). It is exact on every program the
//! programming model can express, so it doubles as the ground-truth
//! oracle in the test suites, and its Θ(steps²) closure cost is the
//! contrast point in the ablation benches.

use futrace_compgraph::oracle::{find_races, OracleRace};
use futrace_compgraph::{CompGraph, GraphBuilder};
use futrace_runtime::engine::Analysis;
use futrace_runtime::monitor::{Monitor, TaskKind};
use futrace_util::ids::{FinishId, LocId, TaskId};

/// Brute-force race detector: full graph + transitive closure at the end.
#[derive(Default)]
pub struct ClosureDetector(GraphBuilder);

impl ClosureDetector {
    /// Fresh detector.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Monitor for ClosureDetector {
    fn task_create(&mut self, parent: TaskId, child: TaskId, kind: TaskKind, ief: FinishId) {
        self.0.task_create(parent, child, kind, ief);
    }
    fn task_end(&mut self, task: TaskId) {
        self.0.task_end(task);
    }
    fn finish_start(&mut self, task: TaskId, finish: FinishId) {
        self.0.finish_start(task, finish);
    }
    fn finish_end(&mut self, task: TaskId, finish: FinishId, joined: &[TaskId]) {
        self.0.finish_end(task, finish, joined);
    }
    fn get(&mut self, waiter: TaskId, awaited: TaskId) {
        self.0.get(waiter, awaited);
    }
    fn read(&mut self, task: TaskId, loc: LocId) {
        self.0.read(task, loc);
    }
    fn write(&mut self, task: TaskId, loc: LocId) {
        self.0.write(task, loc);
    }
}

/// What a closure-detector run produces under the engine layer: the exact
/// race list *and* the full computation graph, so callers (the equivalence
/// suites) can keep running reachability queries against the ground truth.
#[derive(Clone, Debug)]
pub struct ClosureReport {
    /// The completed step-level computation graph.
    pub graph: CompGraph,
    /// Every racing access pair, in access order (exact, not first-race).
    pub races: Vec<OracleRace>,
}

impl ClosureReport {
    /// True iff any access pair races.
    pub fn has_races(&self) -> bool {
        !self.races.is_empty()
    }
}

impl Analysis for ClosureDetector {
    type Report = ClosureReport;

    /// The whole analysis: closes the recorded graph and checks every
    /// access pair.
    fn finish(self) -> ClosureReport {
        let graph = self.0.into_graph();
        let races = find_races(&graph);
        ClosureReport { graph, races }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::run;
    use futrace_runtime::TaskCtx;

    #[test]
    fn exact_on_future_sync() {
        let r = run(ClosureDetector::new(), |ctx| {
            let x = ctx.shared_var(0u64, "x");
            let x2 = x.clone();
            let f = ctx.future(move |ctx| x2.write(ctx, 1));
            ctx.get(&f);
            let _ = x.read(ctx);
        });
        assert!(!r.has_races());
        assert!(r.graph.step_count() > 0);
    }

    #[test]
    fn exact_on_future_race() {
        let r = run(ClosureDetector::new(), |ctx| {
            let x = ctx.shared_var(0u64, "x");
            let x2 = x.clone();
            let _f = ctx.future(move |ctx| x2.write(ctx, 1));
            let _ = x.read(ctx);
        });
        assert!(r.has_races());
        assert_eq!(r.races.len(), 1);
    }
}
