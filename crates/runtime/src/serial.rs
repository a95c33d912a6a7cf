//! Serial depth-first executor.
//!
//! Executes an async/finish/future program in **serial depth-first order**
//! — the order of its serial elision (Appendix A.1) — while emitting the
//! instrumentation event stream to a [`Monitor`]. This is the execution the
//! paper's detector is defined over: "the representation assumes that the
//! input program is executed serially in depth-first order" (§4.1).
//!
//! Depth-first means every spawned body (async or future) runs to
//! completion at its spawn point before the parent continues. Consequently
//! `get()` never blocks here: the awaited future always completed when its
//! handle was created. The monitor still observes the `get` as a join event
//! (Algorithm 4), which is all the detector needs to reason about *all*
//! possible parallel interleavings of the program for this input.
//!
//! ## Conventions
//!
//! * The main task is [`TaskId::MAIN`] (`T0`) and runs inside the implicit
//!   finish scope `F0` ("there is an implicit finish scope surrounding the
//!   body of main()", §2). Monitors are expected to pre-initialize state for
//!   these two ids (the detector's Algorithm 1 does exactly this).
//! * Task ids are assigned in spawn order, so `TaskId` order equals spawn
//!   preorder.
//! * At the end of the run the executor emits `finish_end(T0, F0, joins)`
//!   followed by `task_end(T0)`.

use crate::api::TaskCtx;
use crate::memory::MemCtx;
use crate::monitor::{Monitor, TaskKind};
use crate::sync::Mutex;
use futrace_util::ids::{FinishId, LocId, TaskId};
use std::sync::Arc;

/// Handle to a future task under the serial executor. The value is always
/// present by the time user code can hold the handle (run-to-completion),
/// so [`TaskCtx::get`] never blocks.
pub struct FutureHandle<T> {
    task: TaskId,
    value: Arc<Mutex<Option<T>>>,
}

impl<T> Clone for FutureHandle<T> {
    fn clone(&self) -> Self {
        FutureHandle {
            task: self.task,
            value: Arc::clone(&self.value),
        }
    }
}

struct FinishFrame {
    id: FinishId,
    /// Tasks whose Immediately Enclosing Finish is this scope — the paper's
    /// `F.joins`, reported to the monitor at `finish_end`.
    joins: Vec<TaskId>,
}

/// Execution context of the serial depth-first executor, parameterized by
/// the instrumentation monitor (static dispatch keeps the per-access cost
/// of hot `read`/`write` events down to an inlined call).
pub struct SerialCtx<'m, M: Monitor> {
    mon: &'m mut M,
    cur: TaskId,
    next_task: u32,
    next_finish: u32,
    next_loc: u32,
    finish_stack: Vec<FinishFrame>,
}

impl<'m, M: Monitor> SerialCtx<'m, M> {
    fn new(mon: &'m mut M) -> Self {
        SerialCtx {
            mon,
            cur: TaskId::MAIN,
            next_task: 1,
            next_finish: 1,
            next_loc: 0,
            finish_stack: vec![FinishFrame {
                id: FinishId(0),
                joins: Vec::new(),
            }],
        }
    }

    /// Mutable access to the monitor.
    pub fn monitor_mut(&mut self) -> &mut M {
        self.mon
    }

    fn spawn_common(&mut self, kind: TaskKind) -> (TaskId, TaskId) {
        let child = TaskId(self.next_task);
        self.next_task += 1;
        let frame = self.finish_stack.last_mut().expect("finish stack");
        frame.joins.push(child);
        let ief = frame.id;
        self.mon.task_create(self.cur, child, kind, ief);
        let parent = self.cur;
        self.cur = child;
        (parent, child)
    }
}

impl<M: Monitor> MemCtx for SerialCtx<'_, M> {
    fn alloc(&mut self, n: u32, name: &str) -> LocId {
        let base = LocId(self.next_loc);
        self.next_loc = self
            .next_loc
            .checked_add(n)
            .expect("shared location space exhausted");
        self.mon.alloc(base, n, name);
        base
    }

    #[inline]
    fn on_read(&mut self, loc: LocId) {
        self.mon.read(self.cur, loc);
    }

    #[inline]
    fn on_write(&mut self, loc: LocId) {
        self.mon.write(self.cur, loc);
    }
}

impl<M: Monitor> TaskCtx for SerialCtx<'_, M> {
    type Handle<T: Send + 'static> = FutureHandle<T>;

    fn current_task(&self) -> TaskId {
        self.cur
    }

    fn async_task<F>(&mut self, f: F)
    where
        F: FnOnce(&mut Self) + Send + 'static,
    {
        let (parent, child) = self.spawn_common(TaskKind::Async);
        f(self);
        self.mon.task_end(child);
        self.cur = parent;
    }

    fn finish<F>(&mut self, f: F)
    where
        F: FnOnce(&mut Self),
    {
        let fid = FinishId(self.next_finish);
        self.next_finish += 1;
        self.mon.finish_start(self.cur, fid);
        self.finish_stack.push(FinishFrame {
            id: fid,
            joins: Vec::new(),
        });
        f(self);
        let frame = self.finish_stack.pop().expect("finish stack");
        debug_assert_eq!(frame.id, fid, "finish scopes are strictly nested");
        self.mon.finish_end(self.cur, fid, &frame.joins);
    }

    fn future<T, F>(&mut self, f: F) -> FutureHandle<T>
    where
        T: Send + 'static,
        F: FnOnce(&mut Self) -> T + Send + 'static,
    {
        let (parent, child) = self.spawn_common(TaskKind::Future);
        let value = f(self);
        self.mon.task_end(child);
        self.cur = parent;
        FutureHandle {
            task: child,
            value: Arc::new(Mutex::new(Some(value))),
        }
    }

    fn get<T>(&mut self, h: &FutureHandle<T>) -> T
    where
        T: Clone + Send + 'static,
    {
        self.mon.get(self.cur, h.task);
        h.value
            .lock()
            .as_ref()
            .expect("future value present under serial depth-first execution")
            .clone()
    }
}

/// Runs `f` as the body of the main task under serial depth-first
/// execution, reporting every instrumentation event to `mon`. Returns `f`'s
/// result.
///
/// ```
/// use futrace_runtime::{run_serial, Event, EventLog, TaskCtx};
///
/// let mut log = EventLog::new();
/// let total = run_serial(&mut log, |ctx| {
///     let f = ctx.future(|_| 21i64);
///     ctx.get(&f) * 2
/// });
/// assert_eq!(total, 42);
/// assert!(log.events.iter().any(|e| matches!(e, Event::Get { .. })));
/// ```
pub fn run_serial<M: Monitor, R>(mon: &mut M, f: impl FnOnce(&mut SerialCtx<M>) -> R) -> R {
    let mut ctx = SerialCtx::new(mon);
    let r = f(&mut ctx);
    let frame = ctx.finish_stack.pop().expect("implicit finish frame");
    debug_assert!(ctx.finish_stack.is_empty(), "unbalanced finish scopes");
    ctx.mon.finish_end(TaskId::MAIN, frame.id, &frame.joins);
    ctx.mon.task_end(TaskId::MAIN);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::{Event, EventLog};

    #[test]
    fn main_runs_and_returns() {
        let mut log = EventLog::new();
        let out = run_serial(&mut log, |_ctx| 7);
        assert_eq!(out, 7);
        // Implicit finish end + main task end.
        assert_eq!(
            log.events,
            vec![
                Event::FinishEnd(TaskId::MAIN, FinishId(0), vec![]),
                Event::TaskEnd(TaskId::MAIN),
            ]
        );
    }

    #[test]
    fn async_runs_depth_first() {
        let mut log = EventLog::new();
        run_serial(&mut log, |ctx| {
            let v = ctx.shared_var(0u64, "v");
            ctx.finish(|ctx| {
                let vc = v.clone();
                ctx.async_task(move |ctx| vc.write(ctx, 5));
                // Depth-first: the child already ran.
                assert_eq!(v.peek(), 5);
            });
        });
        let kinds: Vec<&Event> = log.events.iter().collect();
        // alloc, finish_start, task_create, write, task_end, finish_end, ...
        assert!(matches!(kinds[0], Event::Alloc(..)));
        assert!(matches!(kinds[1], Event::FinishStart(..)));
        assert!(
            matches!(kinds[2], Event::TaskCreate { child, kind: TaskKind::Async, .. } if *child == TaskId(1))
        );
        assert!(matches!(kinds[3], Event::Write(TaskId(1), _)));
        assert!(matches!(kinds[4], Event::TaskEnd(TaskId(1))));
        assert!(
            matches!(&kinds[5], Event::FinishEnd(t, FinishId(1), joins) if *t == TaskId::MAIN && joins == &vec![TaskId(1)])
        );
    }

    #[test]
    fn future_get_returns_value() {
        let mut log = EventLog::new();
        let out = run_serial(&mut log, |ctx| {
            let f = ctx.future(|_| "hello".to_string());
            let g = ctx.future(|_| 10i32);
            format!("{} {}", ctx.get(&f), ctx.get(&g) + 1)
        });
        assert_eq!(out, "hello 11");
        assert!(log
            .events
            .iter()
            .any(|e| matches!(e, Event::Get { waiter, awaited } if *waiter == TaskId::MAIN && *awaited == TaskId(1))));
    }

    #[test]
    fn ief_attribution_follows_dynamic_nesting() {
        // A task spawned inside a child task (with no intervening finish)
        // has the *same* IEF as the child — the innermost dynamic finish.
        let mut log = EventLog::new();
        run_serial(&mut log, |ctx| {
            ctx.finish(|ctx| {
                ctx.async_task(|ctx| {
                    ctx.async_task(|_| {});
                });
            });
        });
        let iefs: Vec<(TaskId, FinishId)> = log
            .events
            .iter()
            .filter_map(|e| match e {
                Event::TaskCreate { child, ief, .. } => Some((*child, *ief)),
                _ => None,
            })
            .collect();
        assert_eq!(
            iefs,
            vec![(TaskId(1), FinishId(1)), (TaskId(2), FinishId(1))]
        );
        // And the finish joins both.
        assert!(log.events.iter().any(|e| matches!(
            e,
            Event::FinishEnd(_, FinishId(1), joins) if joins == &vec![TaskId(1), TaskId(2)]
        )));
    }

    #[test]
    fn nested_finish_partitions_joins() {
        let mut log = EventLog::new();
        run_serial(&mut log, |ctx| {
            ctx.finish(|ctx| {
                ctx.async_task(|_| {}); // T1, IEF = F1
                ctx.finish(|ctx| {
                    ctx.async_task(|_| {}); // T2, IEF = F2
                });
                ctx.async_task(|_| {}); // T3, IEF = F1
            });
        });
        let ends: Vec<(FinishId, Vec<TaskId>)> = log
            .events
            .iter()
            .filter_map(|e| match e {
                Event::FinishEnd(_, f, joins) => Some((*f, joins.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(
            ends,
            vec![
                (FinishId(2), vec![TaskId(2)]),
                (FinishId(1), vec![TaskId(1), TaskId(3)]),
                (FinishId(0), vec![]),
            ]
        );
    }

    #[test]
    fn task_ids_are_spawn_preorder() {
        let mut log = EventLog::new();
        run_serial(&mut log, |ctx| {
            let _a = ctx.future(|ctx| {
                let _b = ctx.future(|_| 0u8); // T2 inside T1
                1u8
            });
            let _c = ctx.future(|_| 2u8); // T3
        });
        let created: Vec<(TaskId, TaskId)> = log
            .events
            .iter()
            .filter_map(|e| match e {
                Event::TaskCreate { parent, child, .. } => Some((*parent, *child)),
                _ => None,
            })
            .collect();
        assert_eq!(
            created,
            vec![
                (TaskId(0), TaskId(1)),
                (TaskId(1), TaskId(2)),
                (TaskId(0), TaskId(3)),
            ]
        );
    }

    #[test]
    fn current_task_tracks_execution() {
        let mut log = EventLog::new();
        run_serial(&mut log, |ctx| {
            assert_eq!(ctx.current_task(), TaskId::MAIN);
            ctx.async_task(|ctx| {
                assert_eq!(ctx.current_task(), TaskId(1));
            });
            assert_eq!(ctx.current_task(), TaskId::MAIN);
        });
    }

    #[test]
    fn handle_is_clonable_and_shareable() {
        let mut log = EventLog::new();
        run_serial(&mut log, |ctx| {
            let f = ctx.future(|_| 3u64);
            let f2 = f.clone();
            ctx.async_task(move |ctx| {
                assert_eq!(ctx.get(&f2), 3);
            });
            assert_eq!(ctx.get(&f), 3);
            assert_eq!(f.task, TaskId(1));
        });
        // Two get events on the same future task by different waiters.
        let gets: Vec<(TaskId, TaskId)> = log
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Get { waiter, awaited } => Some((*waiter, *awaited)),
                _ => None,
            })
            .collect();
        assert_eq!(gets, vec![(TaskId(2), TaskId(1)), (TaskId(0), TaskId(1))]);
    }

    #[test]
    fn determinism_same_program_same_event_stream() {
        let run = || {
            let mut log = EventLog::new();
            run_serial(&mut log, |ctx| {
                let a = ctx.shared_array(4, 0u64, "a");
                ctx.finish(|ctx| {
                    for i in 0..4 {
                        let a = a.clone();
                        ctx.async_task(move |ctx| a.write(ctx, i, i as u64));
                    }
                });
                let mut s = 0;
                for i in 0..4 {
                    s += a.read(ctx, i);
                }
                s
            })
        };
        assert_eq!(run(), 6);
        let mut l1 = EventLog::new();
        let mut l2 = EventLog::new();
        run_serial(&mut l1, |ctx| {
            let v = ctx.shared_var(0u8, "v");
            v.write(ctx, 1);
        });
        run_serial(&mut l2, |ctx| {
            let v = ctx.shared_var(0u8, "v");
            v.write(ctx, 1);
        });
        assert_eq!(l1.events, l2.events);
    }
}
