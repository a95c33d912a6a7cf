//! ESP-bags (Raman, Zhao, Sarkar, Vechev, Yahav — "Efficient Data Race
//! Detection for Async-Finish Parallelism") for async-finish programs.
//!
//! The direct predecessor of the paper's algorithm and its experimental
//! yardstick ("the slowdowns … are comparable to the slowdowns reported
//! for the ESP-Bags algorithm", §5). ESP-bags generalizes SP-bags from
//! spawn-sync to terminally strict async-finish graphs by attaching the
//! P-bag to the **finish scope** instead of the parent procedure:
//!
//! * task `T` spawned: `S(T) = {T}`;
//! * task `T` completes: `S(T)` moves into `P(F)` where `F` = IEF(`T`);
//! * finish `F` (executed by task `A`) completes: `S(A) ∪= P(F)`;
//! * a recorded accessor is parallel with the current step iff its bag is
//!   a P-bag.
//!
//! Futures are *not* modeled: `get()` events are ignored (with a counter),
//! so ESP-bags produces **false positives** on future-synchronized
//! programs — the motivating gap for the DTRG detector. Running it on
//! async-finish programs, it is exact, and our bench harness uses it to
//! verify the "no additional overhead for async/finish" claim.

use crate::BaselineReport;
use futrace_runtime::engine::Analysis;
use futrace_runtime::monitor::{Monitor, TaskKind};
use futrace_util::ids::{FinishId, LocId, TaskId};
use futrace_util::UnionFind;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Bag {
    /// S-bag of a task.
    S(TaskId),
    /// P-bag of a finish scope.
    P(FinishId),
}

#[derive(Clone, Copy, Default)]
struct Cell {
    writer: Option<TaskId>,
    reader: Option<TaskId>,
}

/// The ESP-bags determinacy race detector for async-finish programs.
pub struct EspBags {
    bags: UnionFind<Bag>,
    /// Task id -> IEF finish id.
    ief: Vec<FinishId>,
    /// Finish id -> current P-bag representative (None while empty).
    pbag: Vec<Option<usize>>,
    shadow: Vec<Cell>,
    races: u64,
    /// `get()` events observed and ignored (nonzero means the verdict may
    /// contain false positives).
    ignored_gets: u64,
}

impl Default for EspBags {
    fn default() -> Self {
        Self::new()
    }
}

impl EspBags {
    /// Fresh detector.
    pub fn new() -> Self {
        let mut bags = UnionFind::new();
        let key = bags.make_set(Bag::S(TaskId::MAIN));
        debug_assert_eq!(key, 0);
        EspBags {
            bags,
            ief: vec![FinishId(0)],
            pbag: vec![None], // implicit finish F0
            shadow: Vec::new(),
            races: 0,
            ignored_gets: 0,
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

    fn ensure_finish(&mut self, f: FinishId) {
        if f.index() >= self.pbag.len() {
            self.pbag.resize(f.index() + 1, None);
        }
    }
}

impl Monitor for EspBags {
    fn task_create(&mut self, _parent: TaskId, child: TaskId, _kind: TaskKind, ief: FinishId) {
        debug_assert_eq!(child.index(), self.ief.len());
        let key = self.bags.make_set(Bag::S(child));
        debug_assert_eq!(key, child.index());
        self.ief.push(ief);
        self.ensure_finish(ief);
    }

    fn task_end(&mut self, task: TaskId) {
        if task == TaskId::MAIN {
            return;
        }
        // S(T) moves into P(IEF(T)).
        let f = self.ief[task.index()];
        let rep = self.bags.find(task.index());
        let rep = match self.pbag[f.index()] {
            Some(prep) => self.bags.union_with(prep, rep, |a, _| a),
            None => {
                *self.bags.payload_mut(rep) = Bag::P(f);
                rep
            }
        };
        self.pbag[f.index()] = Some(rep);
    }

    fn finish_start(&mut self, _task: TaskId, finish: FinishId) {
        self.ensure_finish(finish);
    }

    fn finish_end(&mut self, task: TaskId, finish: FinishId, _joined: &[TaskId]) {
        // S(A) ∪= P(F).
        if let Some(p) = self.pbag[finish.index()].take() {
            let s = self.bags.find(task.index());
            let rep = self.bags.union_with(s, p, |a, _| a);
            *self.bags.payload_mut(rep) = Bag::S(task);
        }
    }

    fn get(&mut self, _waiter: TaskId, _awaited: TaskId) {
        // ESP-bags cannot represent point-to-point joins; the edge is
        // dropped, which can only add false positives (never missed
        // races), since dropping edges enlarges the may-happen-in-parallel
        // relation.
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
        let replace = match cell.reader {
            None => true,
            Some(r) => !self.is_parallel(r),
        };
        if replace {
            self.cell_mut(loc).reader = Some(task);
        }
    }
}

impl Analysis for EspBags {
    type Report = BaselineReport;

    fn finish(self) -> BaselineReport {
        BaselineReport::new("esp-bags", self.races, self.ignored_gets, Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::run;
    use futrace_runtime::TaskCtx;

    #[test]
    fn race_free_async_finish() {
        let r = run(EspBags::new(), |ctx| {
            let x = ctx.shared_var(0u64, "x");
            ctx.finish(|ctx| {
                let xa = x.clone();
                ctx.async_task(move |ctx| xa.write(ctx, 1));
            });
            x.write(ctx, 2);
        });
        assert!(!r.has_races());
        assert_eq!(r.ignored_gets, 0);
    }

    #[test]
    fn detects_async_race() {
        let r = run(EspBags::new(), |ctx| {
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
    fn deep_ief_joins_at_right_finish() {
        // Task nested two asyncs deep with the same IEF: ESP-bags handles
        // this (SP-bags' spawn-sync adapter would panic).
        let r = run(EspBags::new(), |ctx| {
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
        assert!(!r.has_races());
    }

    #[test]
    fn race_between_nested_and_parent_before_finish_end() {
        let r = run(EspBags::new(), |ctx| {
            let x = ctx.shared_var(0u64, "x");
            ctx.finish(|ctx| {
                let x1 = x.clone();
                ctx.async_task(move |ctx| {
                    let x2 = x1.clone();
                    ctx.async_task(move |ctx| x2.write(ctx, 1));
                });
                x.write(ctx, 2); // inside the finish: parallel
            });
        });
        assert!(r.has_races());
    }

    #[test]
    fn false_positive_on_future_synchronization() {
        // Race-free under futures, but ESP-bags drops the get edge.
        let r = run(EspBags::new(), |ctx| {
            let x = ctx.shared_var(0u64, "x");
            let x2 = x.clone();
            let f = ctx.future(move |ctx| x2.write(ctx, 1));
            ctx.get(&f);
            let _ = x.read(ctx);
        });
        assert!(r.has_races(), "expected the documented false positive");
        assert_eq!(r.ignored_gets, 1);
        assert_eq!(r.name, "esp-bags");
    }

    #[test]
    fn futures_joined_only_by_finish_are_exact() {
        // If a future is synchronized by its IEF (not by get), ESP-bags
        // still gets the right answer: futures degrade to asyncs.
        let r = run(EspBags::new(), |ctx| {
            let x = ctx.shared_var(0u64, "x");
            ctx.finish(|ctx| {
                let x2 = x.clone();
                let _f = ctx.future(move |ctx| x2.write(ctx, 1));
            });
            let _ = x.read(ctx);
        });
        assert!(!r.has_races());
    }
}
