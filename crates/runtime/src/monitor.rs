//! Instrumentation interface between the serial executor and analyses.
//!
//! The paper instruments HJ bytecode "at async, finish and future
//! boundaries, future get operations, and also on reads and writes to shared
//! memory locations" (§5). Here the serial depth-first executor emits exactly
//! that event stream to a [`Monitor`]. The DTRG race detector, the baseline
//! detectors, the computation-graph builder, and the statistics collectors
//! are all `Monitor` implementations, which guarantees they observe
//! *identical* executions — the property the slowdown comparison relies on.
//!
//! Events arrive in serial depth-first order. In particular:
//!
//! * `task_create(p, c, kind)` is immediately followed by the entire event
//!   stream of task `c` (run-to-completion), then `task_end(c)`, then the
//!   continuation of `p`.
//! * `get(w, t)` is only emitted for *explicit* `get()` calls; the implicit
//!   joins at the end of a finish are reported via `finish_end`'s `joined`
//!   list (the paper's `F.joins`).

use futrace_util::ids::{FinishId, LocId, TaskId};

/// What kind of task a dynamic task instance is. The detector's read rule
/// (Algorithm 9) distinguishes async readers (at most one is stored per
/// location) from future readers (many may be stored).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum TaskKind {
    /// The root task wrapping `main` (inside the implicit finish scope).
    Main,
    /// A task created by `async` — joinable only via its Immediately
    /// Enclosing Finish.
    Async,
    /// A task created by `future<T> = async<T>` — joinable via `get()` by
    /// any task holding its handle, and by its IEF.
    Future,
}

impl TaskKind {
    /// True for future tasks (the paper's `IsFuture`).
    #[inline]
    pub fn is_future(self) -> bool {
        matches!(self, TaskKind::Future)
    }
}

/// Receiver for the serial executor's instrumentation events.
///
/// All methods default to no-ops so analyses implement only what they need.
/// `read`/`write` are the hot path: at paper scale they fire over 10^9
/// times, so implementations should avoid allocation there.
pub trait Monitor {
    /// Task `child` of kind `kind` was created by `parent`. The child's
    /// entire execution follows immediately (depth-first order). `ief` is
    /// the child's Immediately Enclosing Finish.
    fn task_create(&mut self, parent: TaskId, child: TaskId, kind: TaskKind, ief: FinishId) {
        let _ = (parent, child, kind, ief);
    }

    /// Task `task` ran to completion.
    fn task_end(&mut self, task: TaskId) {
        let _ = task;
    }

    /// Task `task` opened finish scope `finish`.
    fn finish_start(&mut self, task: TaskId, finish: FinishId) {
        let _ = (task, finish);
    }

    /// Finish scope `finish` (opened by `task`) closed; `joined` lists every
    /// task whose Immediately Enclosing Finish is `finish`, i.e. the paper's
    /// `F.joins` consumed by Algorithm 6.
    fn finish_end(&mut self, task: TaskId, finish: FinishId, joined: &[TaskId]) {
        let _ = (task, finish, joined);
    }

    /// Task `waiter` performed `get()` on future task `awaited`
    /// (Algorithm 4's join event).
    fn get(&mut self, waiter: TaskId, awaited: TaskId) {
        let _ = (waiter, awaited);
    }

    /// Task `task` read shared location `loc` (Algorithm 9's trigger).
    fn read(&mut self, task: TaskId, loc: LocId) {
        let _ = (task, loc);
    }

    /// Task `task` wrote shared location `loc` (Algorithm 8's trigger).
    fn write(&mut self, task: TaskId, loc: LocId) {
        let _ = (task, loc);
    }

    /// A block of `n` shared locations starting at `base` was allocated
    /// under debug `name`. Lets analyses pre-size shadow memory and report
    /// races with human-readable location names.
    fn alloc(&mut self, base: LocId, n: u32, name: &str) {
        let _ = (base, n, name);
    }
}

/// Forwarding impl so a `&mut dyn Monitor` (or `&mut M`) is itself a
/// monitor. This is what lets the benchsuite registry store non-generic
/// `fn(&mut dyn Monitor, …)` workload runners while the executor stays
/// monomorphized: the runner calls `run_serial(&mut mon, …)` with
/// `M = &mut dyn Monitor`.
impl<M: Monitor + ?Sized> Monitor for &mut M {
    fn task_create(&mut self, parent: TaskId, child: TaskId, kind: TaskKind, ief: FinishId) {
        (**self).task_create(parent, child, kind, ief);
    }
    fn task_end(&mut self, task: TaskId) {
        (**self).task_end(task);
    }
    fn finish_start(&mut self, task: TaskId, finish: FinishId) {
        (**self).finish_start(task, finish);
    }
    fn finish_end(&mut self, task: TaskId, finish: FinishId, joined: &[TaskId]) {
        (**self).finish_end(task, finish, joined);
    }
    fn get(&mut self, waiter: TaskId, awaited: TaskId) {
        (**self).get(waiter, awaited);
    }
    fn read(&mut self, task: TaskId, loc: LocId) {
        (**self).read(task, loc);
    }
    fn write(&mut self, task: TaskId, loc: LocId) {
        (**self).write(task, loc);
    }
    fn alloc(&mut self, base: LocId, n: u32, name: &str) {
        (**self).alloc(base, n, name);
    }
}

/// Monitor that ignores everything. Running the DSL under `NullMonitor`
/// measures pure DSL overhead (used by the bench harness's sanity checks).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullMonitor;

impl Monitor for NullMonitor {}

/// Fan-out monitor driving two analyses over one execution (compose
/// recursively for more). Used by tests to run the detector and the
/// computation-graph oracle side by side.
#[derive(Debug, Default)]
pub struct Pair<A, B>(pub A, pub B);

impl<A: Monitor, B: Monitor> Monitor for Pair<A, B> {
    fn task_create(&mut self, parent: TaskId, child: TaskId, kind: TaskKind, ief: FinishId) {
        self.0.task_create(parent, child, kind, ief);
        self.1.task_create(parent, child, kind, ief);
    }
    fn task_end(&mut self, task: TaskId) {
        self.0.task_end(task);
        self.1.task_end(task);
    }
    fn finish_start(&mut self, task: TaskId, finish: FinishId) {
        self.0.finish_start(task, finish);
        self.1.finish_start(task, finish);
    }
    fn finish_end(&mut self, task: TaskId, finish: FinishId, joined: &[TaskId]) {
        self.0.finish_end(task, finish, joined);
        self.1.finish_end(task, finish, joined);
    }
    fn get(&mut self, waiter: TaskId, awaited: TaskId) {
        self.0.get(waiter, awaited);
        self.1.get(waiter, awaited);
    }
    fn read(&mut self, task: TaskId, loc: LocId) {
        self.0.read(task, loc);
        self.1.read(task, loc);
    }
    fn write(&mut self, task: TaskId, loc: LocId) {
        self.0.write(task, loc);
        self.1.write(task, loc);
    }
    fn alloc(&mut self, base: LocId, n: u32, name: &str) {
        self.0.alloc(base, n, name);
        self.1.alloc(base, n, name);
    }
}

/// A recorded instrumentation event (see [`EventLog`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Event {
    /// Task creation.
    TaskCreate {
        /// Spawning task.
        parent: TaskId,
        /// New task.
        child: TaskId,
        /// Async vs future vs main.
        kind: TaskKind,
        /// The child's Immediately Enclosing Finish.
        ief: FinishId,
    },
    /// Task termination.
    TaskEnd(TaskId),
    /// Finish scope opened.
    FinishStart(TaskId, FinishId),
    /// Finish scope closed with its join list.
    FinishEnd(TaskId, FinishId, Vec<TaskId>),
    /// Explicit `get()`.
    Get {
        /// Task performing the get.
        waiter: TaskId,
        /// Future task being joined.
        awaited: TaskId,
    },
    /// Shared-memory read.
    Read(TaskId, LocId),
    /// Shared-memory write.
    Write(TaskId, LocId),
    /// Shared-memory allocation.
    Alloc(LocId, u32, String),
}

/// Monitor that records the whole event stream. Tests use it to assert
/// executor behaviour (ordering, IEF attribution, determinism).
#[derive(Clone, Debug, Default)]
pub struct EventLog {
    /// Recorded events in serial depth-first order.
    pub events: Vec<Event>,
}

impl EventLog {
    /// Fresh empty log.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Monitor for EventLog {
    fn task_create(&mut self, parent: TaskId, child: TaskId, kind: TaskKind, ief: FinishId) {
        self.events.push(Event::TaskCreate {
            parent,
            child,
            kind,
            ief,
        });
    }
    fn task_end(&mut self, task: TaskId) {
        self.events.push(Event::TaskEnd(task));
    }
    fn finish_start(&mut self, task: TaskId, finish: FinishId) {
        self.events.push(Event::FinishStart(task, finish));
    }
    fn finish_end(&mut self, task: TaskId, finish: FinishId, joined: &[TaskId]) {
        self.events
            .push(Event::FinishEnd(task, finish, joined.to_vec()));
    }
    fn get(&mut self, waiter: TaskId, awaited: TaskId) {
        self.events.push(Event::Get { waiter, awaited });
    }
    fn read(&mut self, task: TaskId, loc: LocId) {
        self.events.push(Event::Read(task, loc));
    }
    fn write(&mut self, task: TaskId, loc: LocId) {
        self.events.push(Event::Write(task, loc));
    }
    fn alloc(&mut self, base: LocId, n: u32, name: &str) {
        self.events.push(Event::Alloc(base, n, name.to_string()));
    }
}

/// Dispatches one recorded event to the corresponding monitor callback.
pub(crate) fn apply<M: Monitor + ?Sized>(mon: &mut M, e: &Event) {
    match e {
        Event::TaskCreate {
            parent,
            child,
            kind,
            ief,
        } => mon.task_create(*parent, *child, *kind, *ief),
        Event::TaskEnd(t) => mon.task_end(*t),
        Event::FinishStart(t, f) => mon.finish_start(*t, *f),
        Event::FinishEnd(t, f, joined) => mon.finish_end(*t, *f, joined),
        Event::Get { waiter, awaited } => mon.get(*waiter, *awaited),
        Event::Read(t, l) => mon.read(*t, *l),
        Event::Write(t, l) => mon.write(*t, *l),
        Event::Alloc(base, n, name) => mon.alloc(*base, *n, name),
    }
}

/// Replays a recorded event stream into another monitor — trace-based
/// analysis: record once with [`EventLog`], then drive any detector or
/// graph builder offline (the paper's detector is a pure function of this
/// stream, so replaying reproduces its verdict exactly).
pub fn replay<M: Monitor>(events: &[Event], mon: &mut M) {
    for e in events {
        apply(mon, e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_kind_is_future() {
        assert!(TaskKind::Future.is_future());
        assert!(!TaskKind::Async.is_future());
        assert!(!TaskKind::Main.is_future());
    }

    #[test]
    fn pair_fans_out() {
        let mut pair = Pair(EventLog::new(), EventLog::new());
        pair.read(TaskId(1), LocId(2));
        pair.write(TaskId(1), LocId(2));
        pair.get(TaskId(3), TaskId(1));
        assert_eq!(pair.0.events, pair.1.events);
        assert_eq!(pair.0.events.len(), 3);
    }

    #[test]
    fn replay_reproduces_the_stream() {
        let mut original = EventLog::new();
        original.task_create(TaskId(0), TaskId(1), TaskKind::Future, FinishId(0));
        original.alloc(LocId(0), 4, "arr");
        original.write(TaskId(1), LocId(2));
        original.task_end(TaskId(1));
        original.get(TaskId(0), TaskId(1));
        original.finish_end(TaskId(0), FinishId(0), &[TaskId(1)]);

        let mut copy = EventLog::new();
        replay(&original.events, &mut copy);
        assert_eq!(copy.events, original.events);
    }

    #[test]
    fn mut_ref_monitor_forwards() {
        // Drive a generic consumer with `M = &mut dyn Monitor` — the
        // shape the benchsuite registry relies on.
        fn drive<M: Monitor>(mon: &mut M) {
            mon.write(TaskId(1), LocId(0));
            mon.get(TaskId(2), TaskId(1));
        }
        let mut log = EventLog::new();
        {
            let mut dyn_ref: &mut dyn Monitor = &mut log;
            drive(&mut dyn_ref);
        }
        assert_eq!(
            log.events,
            vec![
                Event::Write(TaskId(1), LocId(0)),
                Event::Get {
                    waiter: TaskId(2),
                    awaited: TaskId(1)
                }
            ]
        );
    }
}
