//! Parallel executor with compensated blocking.
//!
//! Runs the same [`TaskCtx`] programs as the serial executor on a pool of
//! worker threads, with Habanero-Java semantics:
//!
//! * `async`/`future` bodies are submitted to a shared queue and executed
//!   by worker threads;
//! * `finish` blocks until every task transitively spawned inside it (its
//!   IEF registrations) has completed;
//! * `get` blocks until the future's value is available.
//!
//! Blocking uses **compensation, not helping**: a thread that blocks in
//! `get`/`finish` parks, and if it was the last thread able to execute
//! queued tasks, the pool spawns a replacement worker (exactly how HJ's
//! runtime compensates blocked workers). Help-first execution — running
//! arbitrary queued tasks while waiting — is *unsound* for futures: a
//! helped task may `get()` a future whose producer is suspended beneath it
//! on the same stack, deadlocking a perfectly race-free program. The
//! paper's programming model allows arbitrary point-to-point joins, so the
//! runtime must not introduce such artificial cycles.
//!
//! Plain [`run_parallel`] runs are *not* instrumented — the paper's
//! detector requires the serial depth-first order. Under
//! [`crate::online`]'s driver, however, the same executor records each
//! task's accesses and sync actions into per-task buffers (a [`ParCtx`]
//! carries an optional recorder) from which a canonical walker
//! reconstructs the serial-elision stream *during* the run; see
//! [`crate::online`] for that pipeline. The executor also demonstrates
//! the determinism property (Appendix A: a race-free program computes the
//! serial elision's answer under every schedule) and the Appendix-A
//! deadlock scenario, surfaced as [`DeadlockError`] by global stall
//! detection: if no thread is running task code, no task is queued, and at
//! least one wait is blocked, no future step can ever execute — precisely
//! a deadlocked computation graph.

use crate::api::TaskCtx;
use crate::labels::TaskLabel;
use crate::memory::MemCtx;
use crate::monitor::TaskKind;
use crate::online::{OnlineState, TaskRec};
use crate::sync::{Condvar, Mutex};
use futrace_util::ids::{LocId, TaskId};
use futrace_util::rng::Rng;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A shared job queue (the std-only replacement for a work-stealing
/// deque). All submissions and steals go through one mutex; contention is
/// acceptable because jobs in this runtime are coarse (task bodies), and
/// FIFO order preserves the help-first submission semantics the pool
/// relies on. With a steal seed the queue dequeues a uniformly random
/// entry instead — deterministic *schedule exploration* for tests (the
/// steal-index stream is a pure function of the seed), perturbing task
/// interleavings the FIFO order would never produce.
struct Injector<T> {
    q: Mutex<InjectorState<T>>,
}

struct InjectorState<T> {
    items: VecDeque<T>,
    rng: Option<Rng>,
}

impl<T> Injector<T> {
    fn new(steal_seed: Option<u64>) -> Self {
        Injector {
            q: Mutex::new(InjectorState {
                items: VecDeque::new(),
                rng: steal_seed.map(Rng::seeded),
            }),
        }
    }

    fn push(&self, item: T) {
        self.q.lock().items.push_back(item);
    }

    fn steal(&self) -> Option<T> {
        let mut g = self.q.lock();
        let InjectorState { items, rng } = &mut *g;
        match rng {
            None => items.pop_front(),
            Some(rng) => {
                if items.is_empty() {
                    None
                } else {
                    let i = rng.gen_range(0..items.len() as u64) as usize;
                    items.remove(i)
                }
            }
        }
    }

    fn is_empty(&self) -> bool {
        self.q.lock().items.is_empty()
    }
}

/// The computation deadlocked: no task was runnable or running and at
/// least one `get()`/`finish` was still waiting. Corresponds to a cycle
/// (or an unsatisfiable wait) in the computation graph, which Appendix A
/// shows can only arise from a data race on future handles.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeadlockError {
    /// Number of waits (gets + finishes) blocked at detection time.
    pub blocked_waits: usize,
}

impl std::fmt::Display for DeadlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "deadlock: {} blocked wait(s), no runnable or running task",
            self.blocked_waits
        )
    }
}

impl std::error::Error for DeadlockError {}

/// Sentinel panic payload used to unwind blocked waiters on deadlock (or
/// on a sibling task's panic).
struct PoisonUnwind;

type Job = Box<dyn FnOnce(&mut ParCtx) + Send>;

/// State guarded by the pool's lock: the completion generation (bumped on
/// every submit and completion) and, per blocked waiter, the generation at
/// which it last re-checked its condition and found it unsatisfied.
struct WaitState {
    generation: u64,
    blocked: std::collections::HashMap<u64, u64>,
}

struct PoolShared {
    queue: Injector<Job>,
    /// Threads currently executing task code and not blocked in a wait.
    /// Main counts while running; a blocked wait decrements.
    active: AtomicI64,
    /// Waits currently blocked (mirror of `WaitState::blocked.len()`).
    waiters: AtomicUsize,
    /// Unique ids for blocked-wait registrations.
    next_waiter: AtomicU64,
    /// Blocked-wait count captured at the moment a deadlock was declared.
    deadlock_waiters: AtomicUsize,
    /// Worker threads ever spawned (compensation cap accounting).
    workers_spawned: AtomicUsize,
    max_workers: usize,
    next_task: AtomicU32,
    next_loc: AtomicU32,
    shutdown: AtomicBool,
    poisoned: AtomicBool,
    deadlock: AtomicBool,
    /// First panic payload from a task body, to re-throw from the caller.
    panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Join handles of all workers (drained at shutdown).
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    lock: Mutex<WaitState>,
    cv: Condvar,
}

impl PoolShared {
    fn notify(&self) {
        let mut g = self.lock.lock();
        g.generation += 1;
        drop(g);
        self.cv.notify_all();
    }

    fn poison(&self, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = self.panic_payload.lock();
        if slot.is_none() {
            *slot = Some(payload);
        }
        drop(slot);
        self.poisoned.store(true, Ordering::SeqCst);
        self.notify();
    }

    fn check_poison(&self) {
        if self.poisoned.load(Ordering::SeqCst) || self.deadlock.load(Ordering::SeqCst) {
            // resume_unwind (not panic_any) so the process panic hook does
            // not print a backtrace for this internal control transfer.
            std::panic::resume_unwind(Box::new(PoisonUnwind));
        }
    }

    /// Spawns a compensation/initial worker if under the cap.
    fn spawn_worker(self: &Arc<Self>) {
        if self.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let prev = self.workers_spawned.fetch_add(1, Ordering::SeqCst);
        if prev >= self.max_workers {
            self.workers_spawned.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        let shared = Arc::clone(self);
        let handle = std::thread::spawn(move || worker_loop(shared));
        self.handles.lock().push(handle);
    }
}

fn worker_loop(shared: Arc<PoolShared>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst)
            || shared.poisoned.load(Ordering::SeqCst)
            || shared.deadlock.load(Ordering::SeqCst)
        {
            return;
        }
        // Claim activity *before* stealing so a dequeued-but-unstarted job
        // can never be invisible to the stall detector (queue empty +
        // active still zero would be a spurious freeze).
        shared.active.fetch_add(1, Ordering::SeqCst);
        match shared.queue.steal() {
            Some(job) => {
                let mut ctx = ParCtx {
                    shared: Arc::clone(&shared),
                    cur: TaskId::MAIN, // each job installs its own id
                    finish: Arc::new(FinishScope {
                        pending: AtomicUsize::new(0),
                    }),
                    rec: None,
                };
                let result = catch_unwind(AssertUnwindSafe(|| job(&mut ctx)));
                shared.active.fetch_sub(1, Ordering::SeqCst);
                if let Err(payload) = result {
                    if payload.downcast_ref::<PoisonUnwind>().is_none() {
                        shared.poison(payload);
                    }
                    return;
                }
                shared.notify();
            }
            None => {
                shared.active.fetch_sub(1, Ordering::SeqCst);
                let g = shared.lock.lock();
                if shared.queue.is_empty() && !shared.shutdown.load(Ordering::SeqCst) {
                    drop(shared.cv.wait_timeout(g, Duration::from_micros(500)));
                }
            }
        }
    }
}

struct FinishScope {
    pending: AtomicUsize,
}

struct FutCell<T> {
    task: TaskId,
    done: AtomicBool,
    value: Mutex<Option<T>>,
}

/// Handle to a future task under the parallel executor.
pub struct ParHandle<T> {
    cell: Arc<FutCell<T>>,
}

impl<T> Clone for ParHandle<T> {
    fn clone(&self) -> Self {
        ParHandle {
            cell: Arc::clone(&self.cell),
        }
    }
}

impl<T> ParHandle<T> {
    /// The future task this handle refers to.
    pub fn task(&self) -> TaskId {
        self.cell.task
    }
}

/// Per-running-task execution context for the parallel executor.
pub struct ParCtx {
    shared: Arc<PoolShared>,
    cur: TaskId,
    /// The finish scope a task spawned right now would register with (its
    /// prospective IEF).
    finish: Arc<FinishScope>,
    /// Online recorder (access buffer + sync-point publisher); present iff
    /// the pool runs under [`crate::online::run_online`].
    rec: Option<TaskRec>,
}

impl ParCtx {
    fn submit(&self, job: Job) {
        self.shared.queue.push(job);
        self.shared.notify();
    }

    /// This task's fork-path label, when the run is online-instrumented.
    /// Labels are maintained O(1) at spawn (see [`crate::labels`]).
    pub fn task_label(&self) -> Option<&TaskLabel> {
        self.rec.as_ref().map(|r| r.label())
    }

    /// Final publish + end mark for this task's recorder (no-op when
    /// uninstrumented). Called by the pool after a task body returns.
    fn end_recording(&mut self) {
        if let Some(rec) = self.rec.as_mut() {
            rec.end();
        }
    }

    /// Blocks until `done()` holds, with compensation and stall detection.
    ///
    /// Deadlock is declared by a deterministic generation protocol, not by
    /// timing: every job submission and completion bumps a generation
    /// counter; a blocked waiter records, under the pool lock, the
    /// generation at which it last re-checked its condition and found it
    /// unsatisfied. If no thread is running task code, no task is queued,
    /// and *every* blocked waiter has re-checked at the *current*
    /// generation, the system state can never change again — a deadlock.
    /// (Completions set their flags *before* bumping the generation, so a
    /// waiter that records the current generation really did observe the
    /// effects of every completed task.)
    ///
    /// Why the check never sees a thread in transit as idle: every move
    /// into `active` happens before the move out of `queue` or `blocked`
    /// that it replaces (a worker increments `active` before it steals a
    /// job; a resuming waiter increments it before it leaves `blocked`
    /// and `waiters`), and the check reads in the opposite order: it
    /// holds the lock, so `blocked` cannot change under it, reads the
    /// queue, and only then `active`. A job gone from the queue, or a
    /// waiter gone from `blocked`, is therefore seen counted in `active`.
    /// A worker leaves `active` only after its job has bumped the
    /// generation, which makes every other waiter's stamp stale.
    fn wait_until(&mut self, done: impl Fn() -> bool) {
        if done() {
            return;
        }
        let shared = Arc::clone(&self.shared);
        let my_id = shared.next_waiter.fetch_add(1, Ordering::Relaxed);
        shared.waiters.fetch_add(1, Ordering::SeqCst);
        // This thread can no longer execute queued tasks.
        let was_active = shared.active.fetch_sub(1, Ordering::SeqCst) - 1;
        // Compensation: if nothing can run queued work anymore, add a
        // worker (HJ-style compensated blocking).
        if was_active <= 0 && !shared.queue.is_empty() {
            shared.spawn_worker();
        }
        struct Guard<'a> {
            shared: &'a PoolShared,
            id: u64,
        }
        impl Drop for Guard<'_> {
            fn drop(&mut self) {
                // Active before leaving `blocked` (see the method docs).
                self.shared.active.fetch_add(1, Ordering::SeqCst);
                self.shared.lock.lock().blocked.remove(&self.id);
                self.shared.waiters.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let _g = Guard {
            shared: &shared,
            id: my_id,
        };
        loop {
            shared.check_poison();
            if done() {
                return;
            }
            let mut g = shared.lock.lock();
            if shared.poisoned.load(Ordering::SeqCst) || shared.deadlock.load(Ordering::SeqCst) {
                continue; // re-enters check_poison
            }
            // Re-check under the lock: completions publish their effects
            // before bumping the generation, so recording `g.generation`
            // below certifies this waiter saw everything completed so far.
            if done() {
                return;
            }
            let cur = g.generation;
            g.blocked.insert(my_id, cur);
            // Frozen only if EVERY registered wait has stamped the current
            // generation: `waiters` is incremented before a blocking thread
            // reaches this lock, so requiring `blocked.len() == waiters`
            // keeps a wait that is still in transition (it may be about to
            // observe its condition satisfied and resume running task
            // code) from being silently presumed stuck.
            // The queue is read before `active` (see the method docs).
            let frozen = shared.queue.is_empty()
                && shared.active.load(Ordering::SeqCst) <= 0
                && !g.blocked.is_empty()
                && g.blocked.len() == shared.waiters.load(Ordering::SeqCst)
                && g.blocked.values().all(|&v| v == cur);
            if frozen {
                if std::env::var_os("FUTRACE_DEADLOCK_DEBUG").is_some() {
                    eprintln!(
                        "[deadlock-debug] active={} queue_empty={} blocked={:?} gen={} waiters={} spawned={}",
                        shared.active.load(Ordering::SeqCst),
                        shared.queue.is_empty(),
                        g.blocked,
                        g.generation,
                        shared.waiters.load(Ordering::SeqCst),
                        shared.workers_spawned.load(Ordering::SeqCst),
                    );
                }
                shared
                    .deadlock_waiters
                    .store(g.blocked.len(), Ordering::SeqCst);
                shared.deadlock.store(true, Ordering::SeqCst);
                drop(g);
                shared.cv.notify_all();
                std::panic::resume_unwind(Box::new(PoisonUnwind));
            }
            drop(shared.cv.wait_timeout(g, Duration::from_micros(500)));
        }
    }
}

impl MemCtx for ParCtx {
    fn alloc(&mut self, n: u32, name: &str) -> LocId {
        let base = self.shared.next_loc.fetch_add(n, Ordering::Relaxed);
        if let Some(rec) = self.rec.as_mut() {
            rec.record_alloc(base, n, name);
        }
        LocId(base)
    }

    #[inline]
    fn on_read(&mut self, loc: LocId) {
        if let Some(rec) = self.rec.as_mut() {
            rec.record_access(loc, false);
        }
    }

    #[inline]
    fn on_write(&mut self, loc: LocId) {
        if let Some(rec) = self.rec.as_mut() {
            rec.record_access(loc, true);
        }
    }
}

impl TaskCtx for ParCtx {
    type Handle<T: Send + 'static> = ParHandle<T>;

    fn current_task(&self) -> TaskId {
        self.cur
    }

    fn async_task<F>(&mut self, f: F)
    where
        F: FnOnce(&mut Self) + Send + 'static,
    {
        let child = TaskId(self.shared.next_task.fetch_add(1, Ordering::Relaxed));
        // The child's slot must exist (and the spawn be published) before
        // the job can run, so the canonical walker always finds it.
        let pre = self
            .rec
            .as_mut()
            .map(|rec| rec.record_spawn(child.0, TaskKind::Async));
        let scope = Arc::clone(&self.finish);
        scope.pending.fetch_add(1, Ordering::SeqCst);
        self.submit(Box::new(move |host: &mut ParCtx| {
            let shared = Arc::clone(&host.shared);
            let mut ctx = ParCtx {
                shared: Arc::clone(&host.shared),
                cur: child,
                finish: Arc::clone(&scope),
                rec: pre.map(TaskRec::spawned),
            };
            f(&mut ctx);
            ctx.end_recording();
            scope.pending.fetch_sub(1, Ordering::SeqCst);
            shared.notify();
        }));
    }

    fn finish<F>(&mut self, f: F)
    where
        F: FnOnce(&mut Self),
    {
        if let Some(rec) = self.rec.as_mut() {
            rec.record_finish_start();
        }
        let scope = Arc::new(FinishScope {
            pending: AtomicUsize::new(0),
        });
        let saved = std::mem::replace(&mut self.finish, Arc::clone(&scope));
        f(self);
        self.finish = saved;
        self.wait_until(|| scope.pending.load(Ordering::SeqCst) == 0);
        if let Some(rec) = self.rec.as_mut() {
            rec.record_finish_end();
        }
    }

    fn future<T, F>(&mut self, f: F) -> ParHandle<T>
    where
        T: Send + 'static,
        F: FnOnce(&mut Self) -> T + Send + 'static,
    {
        let child = TaskId(self.shared.next_task.fetch_add(1, Ordering::Relaxed));
        let pre = self
            .rec
            .as_mut()
            .map(|rec| rec.record_spawn(child.0, TaskKind::Future));
        let cell = Arc::new(FutCell {
            task: child,
            done: AtomicBool::new(false),
            value: Mutex::new(None),
        });
        let scope = Arc::clone(&self.finish);
        scope.pending.fetch_add(1, Ordering::SeqCst);
        let job_cell = Arc::clone(&cell);
        self.submit(Box::new(move |host: &mut ParCtx| {
            let shared = Arc::clone(&host.shared);
            let mut ctx = ParCtx {
                shared: Arc::clone(&host.shared),
                cur: child,
                finish: Arc::clone(&scope),
                rec: pre.map(TaskRec::spawned),
            };
            let v = f(&mut ctx);
            ctx.end_recording();
            *job_cell.value.lock() = Some(v);
            job_cell.done.store(true, Ordering::SeqCst);
            scope.pending.fetch_sub(1, Ordering::SeqCst);
            shared.notify();
        }));
        ParHandle { cell }
    }

    fn get<T>(&mut self, h: &ParHandle<T>) -> T
    where
        T: Clone + Send + 'static,
    {
        let cell = Arc::clone(&h.cell);
        self.wait_until(|| cell.done.load(Ordering::SeqCst));
        if let Some(rec) = self.rec.as_mut() {
            rec.record_get(h.cell.task.0);
        }
        h.cell
            .value
            .lock()
            .as_ref()
            .expect("future marked done")
            .clone()
    }
}

/// Runs `f` as the main task with `threads` initial worker threads (the
/// pool adds compensation workers while waits are blocked, up to an
/// internal cap). Returns `f`'s result, or [`DeadlockError`] if the
/// computation stalled with blocked waits.
///
/// Panics from task bodies are propagated to the caller.
///
/// ```
/// use futrace_runtime::{run_parallel, TaskCtx};
///
/// let out = run_parallel(4, |ctx| {
///     let f = ctx.future(|_| 20u64);
///     let g = ctx.future(|_| 22u64);
///     ctx.get(&f) + ctx.get(&g)
/// })
/// .unwrap();
/// assert_eq!(out, 42);
/// ```
pub fn run_parallel<R, F>(threads: usize, f: F) -> Result<R, DeadlockError>
where
    R: Send,
    F: FnOnce(&mut ParCtx) -> R + Send,
{
    finish_pool(run_pool(threads, None, None, f))
}

/// [`run_parallel`] with a seeded random steal order: the pool dequeues a
/// uniformly random queued task (index stream derived from `steal_seed`)
/// instead of FIFO. Used by tests to explore schedules reproducibly —
/// online detection verdicts must be identical across all of them.
pub fn run_parallel_seeded<R, F>(threads: usize, steal_seed: u64, f: F) -> Result<R, DeadlockError>
where
    R: Send,
    F: FnOnce(&mut ParCtx) -> R + Send,
{
    finish_pool(run_pool(threads, Some(steal_seed), None, f))
}

fn finish_pool<R>(out: PoolOutcome<R>) -> Result<R, DeadlockError> {
    match out {
        PoolOutcome::Done(r) => Ok(r),
        PoolOutcome::Deadlock(e) => Err(e),
        PoolOutcome::Panicked(payload) => std::panic::resume_unwind(payload),
    }
}

/// How a pool run ended. [`crate::online`] needs the panic payload as a
/// value (not an unwind) so it can shut the analysis pipeline down before
/// re-raising.
pub(crate) enum PoolOutcome<R> {
    /// The program completed; all tasks joined.
    Done(R),
    /// Deterministic global-stall detection fired.
    Deadlock(DeadlockError),
    /// A task body (or the main closure) panicked.
    Panicked(Box<dyn std::any::Any + Send>),
}

/// Pool driver shared by [`run_parallel`], [`run_parallel_seeded`], and
/// [`crate::online::run_online`]: runs `f` as the main task, waits for the
/// root scope, shuts the pool down, and classifies the outcome. When
/// `online` is set, every task (main included) records its actions for the
/// canonical walker.
pub(crate) fn run_pool<R, F>(
    threads: usize,
    steal_seed: Option<u64>,
    online: Option<Arc<OnlineState>>,
    f: F,
) -> PoolOutcome<R>
where
    R: Send,
    F: FnOnce(&mut ParCtx) -> R + Send,
{
    assert!(threads >= 1, "need at least one thread");
    let shared = Arc::new(PoolShared {
        queue: Injector::new(steal_seed),
        active: AtomicI64::new(1), // the main task
        waiters: AtomicUsize::new(0),
        next_waiter: AtomicU64::new(0),
        deadlock_waiters: AtomicUsize::new(0),
        workers_spawned: AtomicUsize::new(0),
        max_workers: (threads + 64).max(256),
        next_task: AtomicU32::new(1),
        next_loc: AtomicU32::new(0),
        shutdown: AtomicBool::new(false),
        poisoned: AtomicBool::new(false),
        deadlock: AtomicBool::new(false),
        panic_payload: Mutex::new(None),
        handles: Mutex::new(Vec::new()),
        lock: Mutex::new(WaitState {
            generation: 0,
            blocked: std::collections::HashMap::new(),
        }),
        cv: Condvar::new(),
    });
    for _ in 0..threads {
        shared.spawn_worker();
    }

    let root_scope = Arc::new(FinishScope {
        pending: AtomicUsize::new(0),
    });
    let mut main_ctx = ParCtx {
        shared: Arc::clone(&shared),
        cur: TaskId::MAIN,
        finish: Arc::clone(&root_scope),
        rec: online.clone().map(TaskRec::main),
    };
    let out = catch_unwind(AssertUnwindSafe(|| {
        let r = f(&mut main_ctx);
        // Implicit finish around main: wait for all outstanding tasks.
        main_ctx.wait_until(|| root_scope.pending.load(Ordering::SeqCst) == 0);
        main_ctx.end_recording();
        r
    }));

    shared.shutdown.store(true, Ordering::SeqCst);
    shared.notify();
    loop {
        let mut handles = shared.handles.lock();
        let Some(h) = handles.pop() else { break };
        drop(handles);
        let _ = h.join();
        shared.notify();
    }
    if let Some(state) = &online {
        let spawned = shared.workers_spawned.load(Ordering::SeqCst);
        state.workers_spawned.store(spawned, Ordering::Relaxed);
    }

    match out {
        Ok(r) => PoolOutcome::Done(r),
        Err(payload) => {
            if payload.downcast_ref::<PoisonUnwind>().is_some() {
                if let Some(original) = shared.panic_payload.lock().take() {
                    PoolOutcome::Panicked(original)
                } else {
                    PoolOutcome::Deadlock(DeadlockError {
                        blocked_waits: shared.deadlock_waiters.load(Ordering::SeqCst),
                    })
                }
            } else {
                PoolOutcome::Panicked(payload)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_future_values() {
        let out = run_parallel(4, |ctx| {
            let f = ctx.future(|_| 1u64);
            let g = ctx.future(|_| 2u64);
            ctx.get(&f) + ctx.get(&g)
        })
        .unwrap();
        assert_eq!(out, 3);
    }

    #[test]
    fn finish_waits_for_all_asyncs() {
        let out = run_parallel(4, |ctx| {
            let a = ctx.shared_array(64, 0u64, "a");
            ctx.finish(|ctx| {
                for i in 0..64 {
                    let a = a.clone();
                    ctx.async_task(move |ctx| a.write(ctx, i, (i * i) as u64));
                }
            });
            (0..64).map(|i| a.peek(i)).sum::<u64>()
        })
        .unwrap();
        assert_eq!(out, (0..64u64).map(|i| i * i).sum());
    }

    #[test]
    fn nested_spawns_and_finishes() {
        let out = run_parallel(3, |ctx| {
            let v = ctx.shared_var(0u64, "v");
            ctx.finish(|ctx| {
                let v2 = v.clone();
                ctx.async_task(move |ctx| {
                    ctx.finish(|ctx| {
                        let v3 = v2.clone();
                        ctx.async_task(move |ctx| {
                            let old = v3.read(ctx);
                            v3.write(ctx, old + 7);
                        });
                    });
                    let old = v2.read(ctx);
                    v2.write(ctx, old + 1);
                });
            });
            v.peek()
        })
        .unwrap();
        assert_eq!(out, 8);
    }

    #[test]
    fn dependent_future_chain() {
        let out = run_parallel(4, |ctx| {
            let a = ctx.future(|_| 1u64);
            let a2 = a.clone();
            let b = ctx.future(move |ctx| ctx.get(&a2) + 1);
            let b2 = b.clone();
            let c = ctx.future(move |ctx| ctx.get(&b2) + 1);
            ctx.get(&c)
        })
        .unwrap();
        assert_eq!(out, 3);
    }

    #[test]
    fn deep_get_chain_needs_compensation() {
        // A chain of 40 futures, each blocking on the previous one, run on
        // 2 threads: only compensated blocking can complete this.
        let out = run_parallel(2, |ctx| {
            let mut prev = ctx.future(|_| 0u64);
            for _ in 0..40 {
                let p = prev.clone();
                prev = ctx.future(move |ctx| ctx.get(&p) + 1);
            }
            ctx.get(&prev)
        })
        .unwrap();
        assert_eq!(out, 40);
    }

    #[test]
    fn wide_fanout_and_reduce() {
        let out = run_parallel(8, |ctx| {
            let handles: Vec<_> = (0..200u64).map(|i| ctx.future(move |_| i)).collect();
            handles.iter().map(|h| ctx.get(h)).sum::<u64>()
        })
        .unwrap();
        assert_eq!(out, (0..200u64).sum());
    }

    #[test]
    fn race_free_program_matches_serial_elision() {
        let serial: u64 = {
            let mut acc = vec![0u64; 32];
            acc[0] = 1;
            for i in 1..32 {
                acc[i] = acc[i - 1] * 3 % 1001;
            }
            acc[31]
        };
        for _ in 0..5 {
            let out = run_parallel(4, |ctx| {
                let mut prev = ctx.future(|_| 1u64);
                for _ in 1..32 {
                    let p = prev.clone();
                    prev = ctx.future(move |ctx| ctx.get(&p) * 3 % 1001);
                }
                ctx.get(&prev)
            })
            .unwrap();
            assert_eq!(out, serial);
        }
    }

    #[test]
    fn deadlock_is_detected() {
        // Appendix A's cyclic wait, made deterministic: two futures that
        // wait for each other, exchanging handles through std channels (the
        // runtime-level effect of the racy handle exchange).
        use std::sync::mpsc;
        let (txa, rxa) = mpsc::channel::<ParHandle<u64>>();
        let (txb, rxb) = mpsc::channel::<ParHandle<u64>>();
        let res = run_parallel(3, move |ctx| {
            let fa = ctx.future(move |ctx| {
                let hb = rxb.recv().unwrap();
                ctx.get(&hb)
            });
            txa.send(fa.clone()).unwrap();
            let fb = ctx.future(move |ctx| {
                let ha = rxa.recv().unwrap();
                ctx.get(&ha)
            });
            txb.send(fb.clone()).unwrap();
            ctx.get(&fa)
        });
        assert!(matches!(res, Err(DeadlockError { .. })), "got {res:?}");
    }

    #[test]
    fn self_get_deadlocks() {
        // A future that gets itself (handle passed through a channel).
        use std::sync::mpsc;
        let (tx, rx) = mpsc::channel::<ParHandle<u64>>();
        let res = run_parallel(2, move |ctx| {
            let f = ctx.future(move |ctx| {
                let me = rx.recv().unwrap();
                ctx.get(&me)
            });
            tx.send(f.clone()).unwrap();
            ctx.get(&f)
        });
        assert!(matches!(res, Err(DeadlockError { .. })), "got {res:?}");
    }

    #[test]
    fn user_panic_propagates() {
        let res = std::panic::catch_unwind(|| {
            let _ = run_parallel(2, |ctx| {
                ctx.finish(|ctx| {
                    ctx.async_task(|_| panic!("boom"));
                });
            });
        });
        assert!(res.is_err());
    }

    #[test]
    fn panic_in_future_unblocks_getter() {
        let res = std::panic::catch_unwind(|| {
            let _ = run_parallel(2, |ctx| {
                let f = ctx.future::<u64, _>(|_| panic!("producer failed"));
                ctx.get(&f)
            });
        });
        assert!(res.is_err(), "the get must not hang on a dead producer");
    }

    #[test]
    fn single_thread_pool_works() {
        let out = run_parallel(1, |ctx| {
            let f = ctx.future(|_| 5u64);
            let mut s = ctx.get(&f);
            ctx.finish(|ctx| {
                let v = ctx.shared_var(0u64, "v");
                let v2 = v.clone();
                ctx.async_task(move |ctx| v2.write(ctx, 37));
                s += 0;
            });
            s
        })
        .unwrap();
        assert_eq!(out, 5);
    }
}
