//! SP-bags (Feng & Leiserson, SPAA 1997) for spawn-sync programs.
//!
//! The classical Cilk "Nondeterminator" algorithm. Every procedure (task)
//! `F` owns two bags of task ids:
//!
//! * **S-bag** — descendants of `F` that logically precede `F`'s current
//!   step (completed and synced, plus `F` itself);
//! * **P-bag** — descendants that may run in parallel with `F`'s current
//!   step (spawned children that returned but have not been synced).
//!
//! Protocol, driven by the serial depth-first execution:
//!
//! * spawn child `C`:  `S(C) = {C}`, `P(C) = ∅`;
//! * `C` returns to `F`:  `P(F) ∪= S(C) ∪ P(C)`;
//! * `sync` in `F`:  `S(F) ∪= P(F)`, `P(F) = ∅`;
//! * access check: a recorded accessor `T` may run in parallel with the
//!   current step iff `Find(T)` is currently a P-bag.
//!
//! ## Mapping onto the async-finish event stream
//!
//! Our runtime speaks async/finish, the terminally strict superset of
//! spawn-sync. SP-bags is applicable exactly when every task is joined by
//! a finish *owned by its own parent* (so "return to parent" and "IEF
//! registration" coincide) — which is the shape of Series-af/Crypt-af. The
//! adapter treats `task_create` as spawn, `task_end` as the return, and
//! `finish_end` as the sync. Outside that model it counts and ignores
//! what it cannot represent: joins by a finish the joined task's parent
//! does not own (use [`crate::espbags::EspBags`] there), and `get` edges
//! (SP-bags predates futures — running it on a future program
//! demonstrates the false positives the paper fixes). The report notes
//! both counts when nonzero.

use crate::BaselineReport;
use futrace_runtime::engine::Analysis;
use futrace_runtime::monitor::{Monitor, TaskKind};
use futrace_util::ids::{FinishId, LocId, TaskId};
use futrace_util::UnionFind;

/// Which bag a disjoint set currently is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Bag {
    /// S-bag of the given owner task.
    S(TaskId),
    /// P-bag of the given owner task.
    P(TaskId),
}

#[derive(Clone, Copy, Default)]
struct Cell {
    writer: Option<TaskId>,
    reader: Option<TaskId>,
}

/// The SP-bags determinacy race detector.
pub struct SpBags {
    bags: UnionFind<Bag>,
    /// Representative of each task's P-bag contents (None while empty —
    /// empty bags have no set).
    pbag: Vec<Option<usize>>,
    parent: Vec<Option<TaskId>>,
    shadow: Vec<Cell>,
    races: u64,
    /// `get()` edges observed and ignored.
    ignored_gets: u64,
    /// Joins by a finish the joined task's parent does not own, ignored.
    ignored_joins: u64,
}

impl Default for SpBags {
    fn default() -> Self {
        Self::new()
    }
}

impl SpBags {
    /// Fresh detector.
    pub fn new() -> Self {
        let mut bags = UnionFind::new();
        let key = bags.make_set(Bag::S(TaskId::MAIN));
        debug_assert_eq!(key, 0);
        SpBags {
            bags,
            pbag: vec![None],
            parent: vec![None],
            shadow: Vec::new(),
            races: 0,
            ignored_gets: 0,
            ignored_joins: 0,
        }
    }

    #[inline]
    fn is_parallel(&mut self, t: TaskId) -> bool {
        matches!(*self.bags.payload(t.index()), Bag::P(_))
    }

    fn cell_mut(&mut self, loc: LocId) -> &mut Cell {
        let i = loc.index();
        if i >= self.shadow.len() {
            self.shadow.resize_with(i + 1, Cell::default);
        }
        &mut self.shadow[i]
    }
}

impl Monitor for SpBags {
    fn task_create(&mut self, parent: TaskId, child: TaskId, _kind: TaskKind, ief: FinishId) {
        debug_assert_eq!(child.index(), self.parent.len());
        let key = self.bags.make_set(Bag::S(child));
        debug_assert_eq!(key, child.index());
        self.pbag.push(None);
        self.parent.push(Some(parent));
        let _ = ief;
    }

    fn task_end(&mut self, task: TaskId) {
        // Child returns: S(C) ∪ P(C) move into P(parent).
        let Some(parent) = self.parent[task.index()] else {
            return; // main task
        };
        // Merge the child's P-bag (if any) into its S-bag set first.
        let mut child_rep = self.bags.find(task.index());
        if let Some(p) = self.pbag[task.index()].take() {
            child_rep = self.bags.union_with(child_rep, p, |a, _| a);
        }
        // The merged set becomes (part of) the parent's P-bag.
        let rep = match self.pbag[parent.index()] {
            Some(prep) => self.bags.union_with(prep, child_rep, |a, _| a),
            None => {
                *self.bags.payload_mut(child_rep) = Bag::P(parent);
                child_rep
            }
        };
        self.pbag[parent.index()] = Some(rep);
    }

    fn finish_end(&mut self, task: TaskId, _finish: FinishId, joined: &[TaskId]) {
        // sync in `task`: S(task) ∪= P(task). Spawn-sync joins only a
        // finish owner's own children; any other join is out of model.
        let parent = &self.parent;
        self.ignored_joins += joined
            .iter()
            .filter(|j| parent[j.index()] != Some(task))
            .count() as u64;
        if let Some(p) = self.pbag[task.index()].take() {
            let s = self.bags.find(task.index());
            let rep = self.bags.union_with(s, p, |a, _| a);
            *self.bags.payload_mut(rep) = Bag::S(task);
        }
    }

    fn get(&mut self, _waiter: TaskId, _awaited: TaskId) {
        // SP-bags has no notion of point-to-point joins: the edge is
        // dropped, which yields false positives on future-synchronized
        // programs.
        self.ignored_gets += 1;
    }

    fn write(&mut self, task: TaskId, loc: LocId) {
        let cell = *self.cell_mut(loc);
        if let Some(r) = cell.reader {
            if self.is_parallel(r) {
                self.races += 1;
            }
        }
        if let Some(w) = cell.writer {
            if self.is_parallel(w) {
                self.races += 1;
            }
        }
        self.cell_mut(loc).writer = Some(task);
    }

    fn read(&mut self, task: TaskId, loc: LocId) {
        let cell = *self.cell_mut(loc);
        if let Some(w) = cell.writer {
            if self.is_parallel(w) {
                self.races += 1;
            }
        }
        // Keep a parallel reader; replace a serial (or absent) one.
        let replace = match cell.reader {
            None => true,
            Some(r) => !self.is_parallel(r),
        };
        if replace {
            self.cell_mut(loc).reader = Some(task);
        }
    }
}

impl Analysis for SpBags {
    type Report = BaselineReport;

    fn finish(self) -> BaselineReport {
        let mut notes = Vec::new();
        if self.ignored_joins > 0 {
            notes.push(format!(
                "ignored {} join(s) by a finish the task's parent does not own: outside spawn-sync",
                self.ignored_joins
            ));
        }
        BaselineReport::new("sp-bags", self.races, self.ignored_gets, notes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::run;
    use futrace_runtime::TaskCtx;

    #[test]
    fn race_free_spawn_sync() {
        let r = run(SpBags::new(), |ctx| {
            let x = ctx.shared_var(0u64, "x");
            ctx.finish(|ctx| {
                let xa = x.clone();
                ctx.async_task(move |ctx| xa.write(ctx, 1));
            });
            x.write(ctx, 2);
        });
        assert!(!r.has_races());
        assert!(r.notes.is_empty(), "nothing dropped: {:?}", r.notes);
    }

    #[test]
    fn detects_spawn_race() {
        let r = run(SpBags::new(), |ctx| {
            let x = ctx.shared_var(0u64, "x");
            ctx.finish(|ctx| {
                let xa = x.clone();
                ctx.async_task(move |ctx| xa.write(ctx, 1));
                x.write(ctx, 2); // parallel with the child
            });
        });
        assert!(r.has_races());
        assert_eq!(r.name, "sp-bags");
    }

    #[test]
    fn detects_read_write_race() {
        let r = run(SpBags::new(), |ctx| {
            let x = ctx.shared_var(0u64, "x");
            ctx.finish(|ctx| {
                let xa = x.clone();
                ctx.async_task(move |ctx| {
                    let _ = xa.read(ctx);
                });
                x.write(ctx, 2);
            });
        });
        assert!(r.has_races());
    }

    #[test]
    fn sibling_tasks_in_same_finish_race() {
        let r = run(SpBags::new(), |ctx| {
            let x = ctx.shared_var(0u64, "x");
            ctx.finish(|ctx| {
                let xa = x.clone();
                ctx.async_task(move |ctx| xa.write(ctx, 1));
                let xb = x.clone();
                ctx.async_task(move |ctx| xb.write(ctx, 2));
            });
        });
        assert!(r.has_races());
    }

    #[test]
    fn nested_finishes_synchronize() {
        let r = run(SpBags::new(), |ctx| {
            let x = ctx.shared_var(0u64, "x");
            ctx.finish(|ctx| {
                let x1 = x.clone();
                ctx.async_task(move |ctx| {
                    ctx.finish(|ctx| {
                        let x2 = x1.clone();
                        ctx.async_task(move |ctx| x2.write(ctx, 1));
                    });
                    x1.write(ctx, 2); // ordered after inner finish
                });
            });
            x.write(ctx, 3);
        });
        assert!(!r.has_races());
        assert!(r.notes.is_empty(), "nothing dropped: {:?}", r.notes);
    }

    #[test]
    fn futures_are_counted_and_ignored() {
        let r = run(SpBags::new(), |ctx| {
            let f = ctx.future(|_| 1u8);
            ctx.get(&f);
            ctx.get(&f);
        });
        assert_eq!(r.ignored_gets, 2);
        assert_eq!(
            r.notes,
            ["ignored 2 get() edge(s): verdict may over-approximate on futures"]
        );
    }

    #[test]
    fn non_parental_joins_are_counted_and_ignored() {
        // The grandchild's IEF is the outer finish, owned by main, not by
        // its parent: outside spawn-sync.
        let r = run(SpBags::new(), |ctx| {
            ctx.finish(|ctx| {
                ctx.async_task(|ctx| ctx.async_task(|_| {}));
            });
        });
        assert_eq!(r.ignored_gets, 0);
        assert_eq!(
            r.notes,
            ["ignored 1 join(s) by a finish the task's parent does not own: outside spawn-sync"]
        );
    }

    #[test]
    fn false_positive_on_future_sync() {
        // The program is race-free (the get orders the write before the
        // read) but SP-bags cannot see the get edge: false positive. This
        // is the gap the paper's detector closes.
        let r = run(SpBags::new(), |ctx| {
            let x = ctx.shared_var(0u64, "x");
            let x2 = x.clone();
            let f = ctx.future(move |ctx| x2.write(ctx, 1));
            ctx.get(&f);
            let _ = x.read(ctx);
        });
        assert!(r.has_races(), "SP-bags misses future synchronization");
        assert_eq!(r.ignored_gets, 1);
    }
}
