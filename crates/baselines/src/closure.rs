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

use crate::BaselineDetector;
use futrace_compgraph::oracle::{find_races, OracleRace};
use futrace_compgraph::{CompGraph, GraphBuilder};
use futrace_runtime::engine::{control_to_monitor, Analysis};
use futrace_runtime::monitor::{Event, Monitor, TaskKind};
use futrace_util::ids::{FinishId, LocId, TaskId};

enum State {
    Building(GraphBuilder),
    Done {
        graph: CompGraph,
        races: Vec<OracleRace>,
    },
}

/// Brute-force race detector: full graph + transitive closure at the end.
pub struct ClosureDetector {
    state: State,
}

impl Default for ClosureDetector {
    fn default() -> Self {
        Self::new()
    }
}

impl ClosureDetector {
    /// Fresh detector.
    pub fn new() -> Self {
        ClosureDetector {
            state: State::Building(GraphBuilder::new()),
        }
    }

    fn builder(&mut self) -> &mut GraphBuilder {
        match &mut self.state {
            State::Building(b) => b,
            State::Done { .. } => panic!("ClosureDetector used after finalize"),
        }
    }

    /// The races found (after [`BaselineDetector::finalize`]).
    pub(crate) fn races(&self) -> &[OracleRace] {
        match &self.state {
            State::Done { races, .. } => races,
            State::Building(_) => panic!("call finalize first"),
        }
    }
}

impl Monitor for ClosureDetector {
    fn task_create(&mut self, parent: TaskId, child: TaskId, kind: TaskKind, ief: FinishId) {
        self.builder().task_create(parent, child, kind, ief);
    }
    fn task_end(&mut self, task: TaskId) {
        self.builder().task_end(task);
    }
    fn finish_start(&mut self, task: TaskId, finish: FinishId) {
        self.builder().finish_start(task, finish);
    }
    fn finish_end(&mut self, task: TaskId, finish: FinishId, joined: &[TaskId]) {
        self.builder().finish_end(task, finish, joined);
    }
    fn get(&mut self, waiter: TaskId, awaited: TaskId) {
        self.builder().get(waiter, awaited);
    }
    fn read(&mut self, task: TaskId, loc: LocId) {
        self.builder().read(task, loc);
    }
    fn write(&mut self, task: TaskId, loc: LocId) {
        self.builder().write(task, loc);
    }
}

impl BaselineDetector for ClosureDetector {
    fn name(&self) -> &'static str {
        "closure"
    }

    fn finalize(&mut self) {
        if let State::Building(b) = std::mem::replace(
            &mut self.state,
            State::Done {
                graph: CompGraph::default(),
                races: Vec::new(),
            },
        ) {
            let graph = b.into_graph();
            let races = find_races(&graph);
            self.state = State::Done { graph, races };
        }
    }

    fn race_count(&self) -> u64 {
        self.races().len() as u64
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

    fn apply_control(&mut self, e: &Event) {
        control_to_monitor(self, e);
    }

    fn check_read_at(&mut self, task: TaskId, loc: LocId, _index: u64) {
        Monitor::read(self, task, loc);
    }

    fn check_write_at(&mut self, task: TaskId, loc: LocId, _index: u64) {
        Monitor::write(self, task, loc);
    }

    fn finish(mut self) -> ClosureReport {
        self.finalize();
        match self.state {
            State::Done { graph, races } => ClosureReport { graph, races },
            State::Building(_) => unreachable!("finalize left the detector building"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_baseline;
    use futrace_runtime::TaskCtx;

    impl ClosureDetector {
        /// The computation graph (after finalize).
        fn graph(&self) -> &CompGraph {
            match &self.state {
                State::Done { graph, .. } => graph,
                State::Building(_) => panic!("call finalize first"),
            }
        }
    }

    #[test]
    fn exact_on_future_sync() {
        let mut d = ClosureDetector::new();
        run_baseline(&mut d, |ctx| {
            let x = ctx.shared_var(0u64, "x");
            let x2 = x.clone();
            let f = ctx.future(move |ctx| x2.write(ctx, 1));
            ctx.get(&f);
            let _ = x.read(ctx);
        });
        assert!(!d.has_races());
        assert_eq!(d.name(), "closure");
        assert!(d.graph().step_count() > 0);
    }

    #[test]
    fn exact_on_future_race() {
        let mut d = ClosureDetector::new();
        run_baseline(&mut d, |ctx| {
            let x = ctx.shared_var(0u64, "x");
            let x2 = x.clone();
            let _f = ctx.future(move |ctx| x2.write(ctx, 1));
            let _ = x.read(ctx);
        });
        assert!(d.has_races());
        assert_eq!(d.race_count(), 1);
        assert_eq!(d.races().len(), 1);
    }

    #[test]
    #[should_panic(expected = "call finalize first")]
    fn races_before_finalize_panics() {
        let d = ClosureDetector::new();
        let _ = d.races();
    }
}
