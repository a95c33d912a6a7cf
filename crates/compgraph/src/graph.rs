//! The computation-graph data structure (§3 of the paper).

use futrace_util::ids::{LocId, StepId, TaskId};
use futrace_util::FxHashMap;

/// Which kind of join edge (paper §3): a join from task `B` to task `A` is
/// a *tree join* if `A` is an ancestor of `B`, otherwise a *non-tree join*.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum JoinKind {
    /// Join into an ancestor task (all finish joins; gets by ancestors).
    Tree,
    /// Join into a non-ancestor task (only possible via future `get()`).
    NonTree,
}

/// Edge kinds of the computation graph (§3).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum EdgeKind {
    /// Sequencing of steps within one task.
    Continue,
    /// From the step ending with an `async`/`future` in the parent to the
    /// first step of the child.
    Spawn,
    /// From the last step of the joined task to the step following the
    /// `get()` / end-finish in the joining task.
    Join(JoinKind),
}

/// A directed edge between steps.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Edge {
    /// Source step.
    pub from: StepId,
    /// Destination step.
    pub to: StepId,
    /// Edge kind.
    pub kind: EdgeKind,
}

/// A recorded shared-memory access, attributed to the step (and task) that
/// performed it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Access {
    /// The step performing the access.
    pub step: StepId,
    /// The task the step belongs to.
    pub task: TaskId,
    /// The location accessed.
    pub loc: LocId,
    /// Write vs read.
    pub is_write: bool,
}

/// Per-task metadata recorded while building the graph.
#[derive(Clone, Debug)]
pub struct TaskInfo {
    /// Parent in the spawn tree (`None` for the main task).
    pub parent: Option<TaskId>,
    /// Whether the task is a future task (vs async/main).
    pub is_future: bool,
    /// First step of the task.
    pub first_step: StepId,
    /// Last step of the task (set at task end).
    pub last_step: StepId,
}

/// The complete step-level computation graph of one serial depth-first
/// execution, plus the access trace.
#[derive(Clone, Debug, Default)]
pub struct CompGraph {
    /// Owning task of each step, indexed by `StepId`.
    pub step_task: Vec<TaskId>,
    /// All edges. Edges always point from earlier to later step ids, so
    /// step-id order is a topological order of the DAG.
    pub edges: Vec<Edge>,
    /// Per-task metadata, indexed by `TaskId`.
    pub tasks: Vec<TaskInfo>,
    /// The shared-memory access trace in execution order.
    pub accesses: Vec<Access>,
}

impl CompGraph {
    /// Number of steps.
    pub fn step_count(&self) -> usize {
        self.step_task.len()
    }

    /// Number of tasks (including main).
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// The task a step belongs to.
    pub(crate) fn task_of(&self, s: StepId) -> TaskId {
        self.step_task[s.index()]
    }

    /// True if `a` is a (weak) ancestor of `d` in the spawn tree.
    pub fn is_ancestor(&self, a: TaskId, d: TaskId) -> bool {
        let mut cur = d;
        loop {
            if cur == a {
                return true;
            }
            match self.tasks[cur.index()].parent {
                Some(p) => cur = p,
                None => return false,
            }
        }
    }

    /// Successor adjacency lists, indexed by step.
    pub(crate) fn successors(&self) -> Vec<Vec<StepId>> {
        let mut adj = vec![Vec::new(); self.step_count()];
        for e in &self.edges {
            adj[e.from.index()].push(e.to);
        }
        adj
    }

    /// Join edges only, with their kinds.
    pub fn join_edges(&self) -> impl Iterator<Item = (&Edge, JoinKind)> {
        self.edges.iter().filter_map(|e| match e.kind {
            EdgeKind::Join(k) => Some((e, k)),
            _ => None,
        })
    }

    /// Number of non-tree join edges (Table 2's #NTJoins).
    pub fn non_tree_join_count(&self) -> usize {
        self.join_edges()
            .filter(|(_, k)| *k == JoinKind::NonTree)
            .count()
    }

    /// Number of shared-memory accesses (Table 2's #SharedMem).
    pub(crate) fn shared_mem_count(&self) -> usize {
        self.accesses.len()
    }

    /// Groups accesses by location (used by the race oracle).
    pub(crate) fn accesses_by_loc(&self) -> FxHashMap<LocId, Vec<Access>> {
        let mut map: FxHashMap<LocId, Vec<Access>> = FxHashMap::default();
        for &a in &self.accesses {
            map.entry(a.loc).or_default().push(a);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_graph() -> CompGraph {
        // main: S0 -spawn-> child S1; S0 -continue-> S2; S1 -join-> S2.
        CompGraph {
            step_task: vec![TaskId(0), TaskId(1), TaskId(0)],
            edges: vec![
                Edge {
                    from: StepId(0),
                    to: StepId(1),
                    kind: EdgeKind::Spawn,
                },
                Edge {
                    from: StepId(0),
                    to: StepId(2),
                    kind: EdgeKind::Continue,
                },
                Edge {
                    from: StepId(1),
                    to: StepId(2),
                    kind: EdgeKind::Join(JoinKind::Tree),
                },
            ],
            tasks: vec![
                TaskInfo {
                    parent: None,
                    is_future: false,
                    first_step: StepId(0),
                    last_step: StepId(2),
                },
                TaskInfo {
                    parent: Some(TaskId(0)),
                    is_future: true,
                    first_step: StepId(1),
                    last_step: StepId(1),
                },
            ],
            accesses: vec![
                Access {
                    step: StepId(1),
                    task: TaskId(1),
                    loc: LocId(0),
                    is_write: true,
                },
                Access {
                    step: StepId(2),
                    task: TaskId(0),
                    loc: LocId(0),
                    is_write: false,
                },
            ],
        }
    }

    #[test]
    fn counts() {
        let g = tiny_graph();
        assert_eq!(g.step_count(), 3);
        assert_eq!(g.task_count(), 2);
        assert_eq!(g.shared_mem_count(), 2);
        assert_eq!(g.non_tree_join_count(), 0);
        assert_eq!(g.join_edges().count(), 1);
    }

    #[test]
    fn ancestry() {
        let g = tiny_graph();
        assert!(g.is_ancestor(TaskId(0), TaskId(1)));
        assert!(g.is_ancestor(TaskId(0), TaskId(0)));
        assert!(!g.is_ancestor(TaskId(1), TaskId(0)));
    }

    #[test]
    fn adjacency() {
        let g = tiny_graph();
        let adj = g.successors();
        assert_eq!(adj[0], vec![StepId(1), StepId(2)]);
        assert_eq!(adj[1], vec![StepId(2)]);
        assert!(adj[2].is_empty());
    }

    #[test]
    fn accesses_by_loc_groups() {
        let g = tiny_graph();
        let by = g.accesses_by_loc();
        assert_eq!(by[&LocId(0)].len(), 2);
    }
}
