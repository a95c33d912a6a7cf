//! Builds the computation graph from the instrumentation event stream.
//!
//! [`GraphBuilder`] implements [`Monitor`] and applies Definition 1
//! mechanically: a task's current step ends whenever the task spawns,
//! starts/ends a finish, or performs a `get`; the events then insert the
//! continue/spawn/join edges of §3. Because the serial executor runs
//! depth-first, every join source (the joined task's last step) already
//! exists when the join edge is inserted, so all edges point forward in
//! step-id order and step ids form a topological order of the DAG.

use crate::graph::{Access, CompGraph, Edge, EdgeKind, JoinKind, TaskInfo};
use futrace_runtime::monitor::{Monitor, TaskKind};
use futrace_util::ids::{FinishId, LocId, StepId, TaskId};

/// Monitor that records the full step-level computation graph.
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    graph: CompGraph,
    /// Current (open) step of each task, indexed by task id.
    cur_step: Vec<StepId>,
}

impl Default for GraphBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl GraphBuilder {
    /// Fresh builder, pre-seeded with the main task and its first step.
    pub fn new() -> Self {
        let mut graph = CompGraph::default();
        graph.step_task.push(TaskId::MAIN);
        graph.tasks.push(TaskInfo {
            parent: None,
            is_future: false,
            first_step: StepId(0),
            last_step: StepId(0),
        });
        GraphBuilder {
            graph,
            cur_step: vec![StepId(0)],
        }
    }

    /// Finalizes and returns the graph (call after `run_serial` returns).
    pub fn into_graph(self) -> CompGraph {
        self.graph
    }

    fn new_step(&mut self, task: TaskId) -> StepId {
        let id = StepId::from_index(self.graph.step_task.len());
        self.graph.step_task.push(task);
        id
    }

    /// Ends `task`'s current step and opens the next one, linked by a
    /// continue edge. Returns (ended, opened).
    fn advance(&mut self, task: TaskId) -> (StepId, StepId) {
        let ended = self.cur_step[task.index()];
        let opened = self.new_step(task);
        self.graph.edges.push(Edge {
            from: ended,
            to: opened,
            kind: EdgeKind::Continue,
        });
        self.cur_step[task.index()] = opened;
        (ended, opened)
    }
}

impl Monitor for GraphBuilder {
    fn task_create(&mut self, parent: TaskId, child: TaskId, kind: TaskKind, _ief: FinishId) {
        debug_assert_eq!(child.index(), self.graph.tasks.len(), "dense task ids");
        // Parent's step ends with the async; spawn edge to the child's first
        // step, continue edge to the parent's next step.
        let (ended, _opened) = self.advance(parent);
        let child_first = self.new_step(child);
        self.graph.edges.push(Edge {
            from: ended,
            to: child_first,
            kind: EdgeKind::Spawn,
        });
        self.graph.tasks.push(TaskInfo {
            parent: Some(parent),
            is_future: kind.is_future(),
            first_step: child_first,
            last_step: child_first,
        });
        self.cur_step.push(child_first);
    }

    fn task_end(&mut self, task: TaskId) {
        let last = self.cur_step[task.index()];
        self.graph.tasks[task.index()].last_step = last;
    }

    fn finish_start(&mut self, task: TaskId, _finish: FinishId) {
        self.advance(task);
    }

    fn finish_end(&mut self, task: TaskId, _finish: FinishId, joined: &[TaskId]) {
        let (_, opened) = self.advance(task);
        for &j in joined {
            // End-of-finish joins always target an ancestor of the joined
            // task (the IEF's owner), so they are tree joins by definition.
            let from = self.graph.tasks[j.index()].last_step;
            self.graph.edges.push(Edge {
                from,
                to: opened,
                kind: EdgeKind::Join(JoinKind::Tree),
            });
        }
    }

    fn get(&mut self, waiter: TaskId, awaited: TaskId) {
        let (_, opened) = self.advance(waiter);
        let kind = if self.graph.is_ancestor(waiter, awaited) {
            JoinKind::Tree
        } else {
            JoinKind::NonTree
        };
        let from = self.graph.tasks[awaited.index()].last_step;
        self.graph.edges.push(Edge {
            from,
            to: opened,
            kind: EdgeKind::Join(kind),
        });
    }

    fn read(&mut self, task: TaskId, loc: LocId) {
        self.graph.accesses.push(Access {
            step: self.cur_step[task.index()],
            task,
            loc,
            is_write: false,
        });
    }

    fn write(&mut self, task: TaskId, loc: LocId) {
        self.graph.accesses.push(Access {
            step: self.cur_step[task.index()],
            task,
            loc,
            is_write: true,
        });
    }
}

impl futrace_runtime::engine::Analysis for GraphBuilder {
    type Report = CompGraph;

    fn finish(self) -> CompGraph {
        self.into_graph()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use futrace_runtime::{run_serial, TaskCtx};

    #[test]
    fn edges_point_forward_in_step_order() {
        let mut b = GraphBuilder::new();
        run_serial(&mut b, |ctx| {
            let x = ctx.shared_var(0u64, "x");
            let f = ctx.future(move |ctx| x.write(ctx, 1));
            ctx.finish(|ctx| {
                ctx.async_task(|_| {});
            });
            ctx.get(&f);
        });
        let g = b.into_graph();
        for e in &g.edges {
            assert!(e.from < e.to, "edge {e:?} must point forward");
        }
    }

    #[test]
    fn spawn_creates_three_steps() {
        // One async spawn: parent step ends, child first step + parent next
        // step are created.
        let mut b = GraphBuilder::new();
        run_serial(&mut b, |ctx| {
            ctx.async_task(|_| {});
        });
        let g = b.into_graph();
        // S0 (main before), S1 (main after spawn), S2 (child)? Order: the
        // advance() creates main's next step before the child's first step.
        assert_eq!(g.step_count(), 4); // + one step after implicit finish end
        assert_eq!(
            g.edges.iter().filter(|e| e.kind == EdgeKind::Spawn).count(),
            1
        );
        let spawn = g.edges.iter().find(|e| e.kind == EdgeKind::Spawn).unwrap();
        assert_eq!(g.task_of(spawn.from), TaskId(0));
        assert_eq!(g.task_of(spawn.to), TaskId(1));
    }

    #[test]
    fn get_by_sibling_is_non_tree() {
        let mut b = GraphBuilder::new();
        run_serial(&mut b, |ctx| {
            let f = ctx.future(|_| 1u8);
            let f2 = f.clone();
            let _g = ctx.future(move |ctx| ctx.get(&f2));
        });
        let g = b.into_graph();
        assert_eq!(g.non_tree_join_count(), 1);
    }

    #[test]
    fn get_by_parent_is_tree() {
        let mut b = GraphBuilder::new();
        run_serial(&mut b, |ctx| {
            let f = ctx.future(|_| 1u8);
            ctx.get(&f);
        });
        let g = b.into_graph();
        assert_eq!(g.non_tree_join_count(), 0);
        // One tree join from the get + one from the implicit finish.
        assert_eq!(
            g.join_edges().filter(|(_, k)| *k == JoinKind::Tree).count(),
            2
        );
    }

    #[test]
    fn finish_emits_tree_joins_for_all_ief_tasks() {
        let mut b = GraphBuilder::new();
        run_serial(&mut b, |ctx| {
            ctx.finish(|ctx| {
                ctx.async_task(|ctx| {
                    ctx.async_task(|_| {}); // same IEF
                });
            });
        });
        let g = b.into_graph();
        // Both tasks join at the explicit finish; main joins none at F0.
        assert_eq!(g.join_edges().count(), 2);
        assert!(g.join_edges().all(|(_, k)| k == JoinKind::Tree));
    }

    #[test]
    fn accesses_recorded_with_correct_steps() {
        let mut b = GraphBuilder::new();
        run_serial(&mut b, |ctx| {
            let x = ctx.shared_var(7u64, "x");
            let _ = x.read(ctx); // main, step 0
            let x2 = x.clone();
            ctx.async_task(move |ctx| {
                x2.write(ctx, 8); // child
            });
            let _ = x.read(ctx); // main, after spawn -> new step
        });
        let g = b.into_graph();
        assert_eq!(g.accesses.len(), 3);
        assert_eq!(g.accesses[0].task, TaskId(0));
        assert_eq!(g.accesses[1].task, TaskId(1));
        assert!(g.accesses[1].is_write);
        assert_eq!(g.accesses[2].task, TaskId(0));
        assert_ne!(
            g.accesses[0].step, g.accesses[2].step,
            "spawn ends the main task's step"
        );
    }

    #[test]
    fn future_task_flag_recorded() {
        let mut b = GraphBuilder::new();
        run_serial(&mut b, |ctx| {
            ctx.async_task(|_| {});
            let _f = ctx.future(|_| 0u8);
        });
        let g = b.into_graph();
        assert!(!g.tasks[1].is_future);
        assert!(g.tasks[2].is_future);
        assert!(!g.tasks[0].is_future);
    }
}
