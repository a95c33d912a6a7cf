//! SPD3-style detection on the Dynamic Program Structure Tree (Raman,
//! Zhao, Sarkar, Vechev, Yahav — PLDI 2012), for async-finish programs.
//!
//! The paper cites SPD3 as the state of the art for async-finish (§6):
//! "the algorithm determines series-parallel relationships between steps
//! by a lookup of the lowest common ancestor in the dynamic program
//! structure tree". The DPST has three node kinds — **finish**, **async**,
//! and **step** (leaves) — with children in left-to-right execution order.
//! For two steps `S1` (executed earlier) and `S2`, let `L` be their LCA
//! and `C` the child of `L` on `S1`'s path:
//!
//! > `S1 ∥ S2` **iff** `C` is an *async* node
//!
//! (if `C` is a step or finish node, everything to its right in `L` is
//! sequenced after it). The LCA lookup is O(tree depth) via parent
//! pointers with depths — no labels, no bags.
//!
//! Like every async-finish-only detector, SPD3 cannot see future `get()`
//! edges; this port counts and ignores them (`ignored_gets`), which makes
//! it over-approximate on future programs — again the gap the DTRG fills.
//! (The original SPD3 runs *in parallel with the program*; this port runs
//! sequentially like the rest of the suite, preserving its data structure
//! and MHP query exactly.)

use crate::BaselineReport;
use futrace_runtime::engine::Analysis;
use futrace_runtime::monitor::{Monitor, TaskKind};
use futrace_util::ids::{FinishId, LocId, TaskId};

/// DPST node kinds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Finish,
    Async,
    Step,
}

#[derive(Clone, Copy, Debug)]
struct Node {
    parent: u32,
    depth: u32,
    kind: Kind,
}

#[derive(Clone, Copy, Default)]
struct Cell {
    writer: Option<u32>,
    reader: Option<u32>,
}

/// The SPD3/DPST determinacy race detector for async-finish programs.
pub struct Spd3 {
    nodes: Vec<Node>,
    /// Stack of open finish/async nodes (global under serial depth-first
    /// execution, since tasks run to completion at their spawn point).
    open: Vec<u32>,
    /// Current step node of each task.
    cur_step: Vec<u32>,
    /// Spawn-tree parent of each task.
    task_parent: Vec<Option<TaskId>>,
    shadow: Vec<Cell>,
    races: u64,
    /// `get()` events observed and ignored (nonzero ⇒ possible false
    /// positives).
    ignored_gets: u64,
}

impl Default for Spd3 {
    fn default() -> Self {
        Self::new()
    }
}

impl Spd3 {
    /// Fresh detector: a root finish node with the main task's first step.
    pub fn new() -> Self {
        let root = Node {
            parent: u32::MAX,
            depth: 0,
            kind: Kind::Finish,
        };
        let step0 = Node {
            parent: 0,
            depth: 1,
            kind: Kind::Step,
        };
        Spd3 {
            nodes: vec![root, step0],
            open: vec![0],
            cur_step: vec![1],
            task_parent: vec![None],
            shadow: Vec::new(),
            races: 0,
            ignored_gets: 0,
        }
    }

    fn add_node(&mut self, parent: u32, kind: Kind) -> u32 {
        let id = u32::try_from(self.nodes.len()).expect("DPST too large");
        self.nodes.push(Node {
            parent,
            depth: self.nodes[parent as usize].depth + 1,
            kind,
        });
        id
    }

    fn top(&self) -> u32 {
        *self.open.last().expect("open stack")
    }

    /// The SPD3 MHP query: may step `u` (executed earlier) run in parallel
    /// with step `v` (the current step)?
    fn parallel(&self, u: u32, v: u32) -> bool {
        if u == v {
            return false;
        }
        // Walk both paths to the common depth, then up in lockstep,
        // remembering the child of the LCA on u's side.
        let (mut a, mut b) = (u, v);
        let mut a_child = a;
        while self.nodes[a as usize].depth > self.nodes[b as usize].depth {
            a_child = a;
            a = self.nodes[a as usize].parent;
        }
        while self.nodes[b as usize].depth > self.nodes[a as usize].depth {
            b = self.nodes[b as usize].parent;
        }
        while a != b {
            a_child = a;
            a = self.nodes[a as usize].parent;
            b = self.nodes[b as usize].parent;
        }
        if a == u {
            // u is an ancestor node of v's step — cannot happen for step
            // leaves, defensive.
            return false;
        }
        self.nodes[a_child as usize].kind == Kind::Async
    }

    fn cell_mut(&mut self, loc: LocId) -> &mut Cell {
        let i = loc.index();
        if i >= self.shadow.len() {
            self.shadow.resize_with(i + 1, Cell::default);
        }
        &mut self.shadow[i]
    }
}

impl Monitor for Spd3 {
    fn task_create(&mut self, parent: TaskId, child: TaskId, _kind: TaskKind, _ief: FinishId) {
        debug_assert_eq!(child.index(), self.task_parent.len());
        self.task_parent.push(Some(parent));
        let a = self.add_node(self.top(), Kind::Async);
        self.open.push(a);
        let s = self.add_node(a, Kind::Step);
        self.cur_step.push(s);
        let _ = parent;
    }

    fn task_end(&mut self, task: TaskId) {
        if task == TaskId::MAIN {
            return;
        }
        let a = self.open.pop().expect("open stack");
        debug_assert_eq!(self.nodes[a as usize].kind, Kind::Async);
        // The parent task resumes in a fresh step after the async.
        let parent = self.task_parent[task.index()].expect("non-main task");
        let s = self.add_node(self.top(), Kind::Step);
        self.cur_step[parent.index()] = s;
    }

    fn finish_start(&mut self, task: TaskId, _finish: FinishId) {
        let f = self.add_node(self.top(), Kind::Finish);
        self.open.push(f);
        let s = self.add_node(f, Kind::Step);
        self.cur_step[task.index()] = s;
    }

    fn finish_end(&mut self, task: TaskId, _finish: FinishId, _joined: &[TaskId]) {
        // The implicit final finish has no matching start; nothing runs
        // after it.
        if self.open.len() <= 1 {
            return;
        }
        let f = self.open.pop().expect("open stack");
        debug_assert_eq!(self.nodes[f as usize].kind, Kind::Finish);
        let s = self.add_node(self.top(), Kind::Step);
        self.cur_step[task.index()] = s;
    }

    fn get(&mut self, _waiter: TaskId, _awaited: TaskId) {
        self.ignored_gets += 1;
    }

    fn write(&mut self, task: TaskId, loc: LocId) {
        let step = self.cur_step[task.index()];
        let cell = *self.cell_mut(loc);
        if let Some(r) = cell.reader {
            if self.parallel(r, step) {
                self.races += 1;
            }
        }
        if let Some(w) = cell.writer {
            if self.parallel(w, step) {
                self.races += 1;
            }
        }
        self.cell_mut(loc).writer = Some(step);
    }

    fn read(&mut self, task: TaskId, loc: LocId) {
        let step = self.cur_step[task.index()];
        let cell = *self.cell_mut(loc);
        if let Some(w) = cell.writer {
            if self.parallel(w, step) {
                self.races += 1;
            }
        }
        let replace = match cell.reader {
            None => true,
            Some(r) => !self.parallel(r, step),
        };
        if replace {
            self.cell_mut(loc).reader = Some(step);
        }
    }
}

impl Analysis for Spd3 {
    type Report = BaselineReport;

    fn finish(self) -> BaselineReport {
        BaselineReport::new("spd3-dpst", self.races, self.ignored_gets, Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::run;
    use futrace_runtime::{run_serial, TaskCtx};

    #[test]
    fn race_free_fork_join() {
        let mut d = Spd3::new();
        run_serial(&mut d, |ctx| {
            let x = ctx.shared_var(0u64, "x");
            ctx.finish(|ctx| {
                let xa = x.clone();
                ctx.async_task(move |ctx| xa.write(ctx, 1));
            });
            x.write(ctx, 2);
        });
        assert_eq!(d.races, 0);
        assert!(d.nodes.len() > 3);
    }

    #[test]
    fn detects_sibling_race() {
        let r = run(Spd3::new(), |ctx| {
            let x = ctx.shared_var(0u64, "x");
            ctx.finish(|ctx| {
                let xa = x.clone();
                ctx.async_task(move |ctx| xa.write(ctx, 1));
                let xb = x.clone();
                ctx.async_task(move |ctx| xb.write(ctx, 2));
            });
        });
        assert!(r.has_races());
        assert_eq!(r.name, "spd3-dpst");
    }

    #[test]
    fn parent_continuation_races_within_finish() {
        let r = run(Spd3::new(), |ctx| {
            let x = ctx.shared_var(0u64, "x");
            ctx.finish(|ctx| {
                let xa = x.clone();
                ctx.async_task(move |ctx| xa.write(ctx, 1));
                x.write(ctx, 2); // continuation: LCA child is the async
            });
        });
        assert!(r.has_races());
    }

    #[test]
    fn pre_spawn_access_ordered() {
        let r = run(Spd3::new(), |ctx| {
            let x = ctx.shared_var(0u64, "x");
            x.write(ctx, 1); // step left of the async, not under it
            let xa = x.clone();
            ctx.async_task(move |ctx| {
                let _ = xa.read(ctx);
            });
        });
        // The pre-spawn step's LCA child is a *step* node: ordered.
        assert!(!r.has_races(), "{} races", r.races);
    }

    #[test]
    fn deep_ief_handled() {
        let r = run(Spd3::new(), |ctx| {
            let x = ctx.shared_var(0u64, "x");
            ctx.finish(|ctx| {
                let x1 = x.clone();
                ctx.async_task(move |ctx| {
                    let x2 = x1.clone();
                    ctx.async_task(move |ctx| x2.write(ctx, 1));
                });
            });
            x.write(ctx, 2);
        });
        assert!(!r.has_races(), "{} races", r.races);
    }

    #[test]
    fn ignores_gets_with_counter() {
        let r = run(Spd3::new(), |ctx| {
            let x = ctx.shared_var(0u64, "x");
            let x2 = x.clone();
            let f = ctx.future(move |ctx| x2.write(ctx, 1));
            ctx.get(&f);
            let _ = x.read(ctx);
        });
        assert_eq!(r.ignored_gets, 1);
        assert!(r.has_races(), "false positive expected without get edges");
    }
}
