//! Online parallel race detection: instrumented work-stealing execution.
//!
//! Every other analysis mode in this repository pays for detection with
//! serial execution: the program runs in the serial-elision order and the
//! detector consumes its event stream in-line. This module removes that
//! floor. The program executes on [`crate::parallel`]'s work-stealing pool
//! while detection happens *concurrently* on one walker thread, so
//! execution and analysis overlap.
//!
//! The pipeline has three moving parts:
//!
//! 1. **Per-task access buffers** ([`TaskRec`], package-private). Each
//!    running task appends its shared-memory accesses to a thread-local
//!    buffer (one packed `u64` per access) and publishes the buffer into
//!    its [`TaskSlot`] at the synchronization points the scheduler already
//!    exposes — spawn, future `get`, `finish` entry/exit, task end — plus a
//!    size threshold, so no lock is touched on the access hot path.
//! 2. **The canonical walker** (one thread). Detection order must be the
//!    serial-elision order — the paper's detector (§4.1) is only sound and
//!    precise for it. The walker reconstructs exactly that order from the
//!    published buffers: it performs a depth-first traversal of the fork
//!    tree (spawned child first, then the parent's remaining actions) and
//!    renumbers raw task/finish/location ids into the serial numbering.
//!    When a task's next action has not been published yet the walker
//!    blocks on that *frontier* — execution is always ahead of (or equal
//!    to) the walk, never behind it, so no access can be dropped: a
//!    buffered access is either already published or will be published at
//!    the task's next sync point, and every task ends with a final publish.
//!    [`crate::labels`] fork-path labels, maintained O(1) at spawn,
//!    certify the walk order: serial ids must be monotone in label
//!    depth-first order (debug-asserted per spawn).
//! 3. **One [`Monitor`]**, driven by the walker the way
//!    [`crate::serial::SerialCtx`] drives it: each control event and each
//!    access of the canonical stream becomes one `Monitor` callback on the
//!    walker thread. DTRG detection passes an
//!    [`Engine`](crate::engine::Engine) around the detector, so online
//!    runs number and count accesses in the same code serial and replayed
//!    runs use.
//!
//! Because the canonical stream is, for programs whose control flow does
//! not depend on racy values (all benchsuite and random-program families —
//! their task structure is data-independent), *byte-identical* to the
//! stream a serial run would produce, the monitor observes exactly what it
//! would have observed under [`crate::serial::run_serial`], and a
//! detector's verdict and statistics equal the serial run's.

use crate::labels::TaskLabel;
use crate::monitor::{Monitor, TaskKind};
use crate::parallel::{run_pool, DeadlockError, ParCtx, PoolOutcome};
use crate::sync::{Condvar, Mutex};
use futrace_util::ids::{FinishId, LocId, TaskId};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Accesses buffered per task before a forced publish.
const FLUSH_ACCESSES: usize = 4096;

// ---------------------------------------------------------------------------
// Recording side: per-task buffers published into slots
// ---------------------------------------------------------------------------

/// A control action recorded in a task's buffer. Offsets into the task's
/// access stream (see [`Published`]) fix its interleaving position.
pub(crate) enum Control {
    /// Spawned a child task (`async` or `future`).
    Spawn { child: u32, kind: TaskKind },
    /// Entered a `finish` scope.
    FinishStart,
    /// Left a `finish` scope (after its join completed).
    FinishEnd,
    /// Performed `get()` on the future computed by raw task `awaited`.
    Get { awaited: u32 },
    /// Allocated `n` cells at raw base `base`.
    Alloc { base: u32, n: u32, name: Box<str> },
}

/// Buffered actions published by a task, drained by the walker. Each
/// control carries the count of the task's accesses preceding it, so the
/// walker can interleave the two streams exactly as they happened.
#[derive(Default)]
struct Published {
    /// Packed accesses: `loc << 1 | is_write`.
    accesses: Vec<u64>,
    /// `(access_offset, control)` pairs in program order.
    controls: Vec<(u64, Control)>,
}

/// Shared mailbox between one running task and the walker.
pub(crate) struct TaskSlot {
    data: Mutex<Published>,
    /// Set (after the final publish) when the task body has returned.
    ended: AtomicBool,
    /// The task's fork-path label, fixed at spawn.
    label: TaskLabel,
}

/// Shared state of one online run: the slot table plus publish/wake
/// plumbing. Owned by [`run_online`], referenced by every [`TaskRec`].
pub(crate) struct OnlineState {
    /// Raw task id → slot. Raw ids are dense (allocated by `fetch_add`).
    slots: Mutex<Vec<Option<Arc<TaskSlot>>>>,
    /// Bumped on every publish; the walker waits on it at the frontier.
    wake: Mutex<u64>,
    wake_cv: Condvar,
    aborted: AtomicBool,
    publishes: AtomicU64,
    published_events: AtomicU64,
    /// The pool's worker threads ever spawned, compensation included;
    /// copied in by the pool at shutdown.
    pub(crate) workers_spawned: AtomicUsize,
}

impl OnlineState {
    fn new() -> OnlineState {
        OnlineState {
            slots: Mutex::new(Vec::new()),
            wake: Mutex::new(0),
            wake_cv: Condvar::new(),
            aborted: AtomicBool::new(false),
            publishes: AtomicU64::new(0),
            published_events: AtomicU64::new(0),
            workers_spawned: AtomicUsize::new(0),
        }
    }

    pub(crate) fn register(&self, raw: u32, label: TaskLabel) -> Arc<TaskSlot> {
        let slot = Arc::new(TaskSlot {
            data: Mutex::new(Published::default()),
            ended: AtomicBool::new(false),
            label,
        });
        let mut slots = self.slots.lock();
        let idx = raw as usize;
        if slots.len() <= idx {
            slots.resize(idx + 1, None);
        }
        slots[idx] = Some(Arc::clone(&slot));
        slot
    }

    fn slot(&self, raw: u32) -> Option<Arc<TaskSlot>> {
        self.slots.lock().get(raw as usize).cloned().flatten()
    }

    fn notify(&self) {
        *self.wake.lock() += 1;
        self.wake_cv.notify_all();
    }

    fn abort(&self) {
        self.aborted.store(true, Ordering::SeqCst);
        self.notify();
    }

    fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::SeqCst)
    }
}

/// Everything a spawned child needs to start recording: created by the
/// parent *before* the spawn control is published, so the walker always
/// finds the child's slot when it reaches the spawn.
pub(crate) struct SpawnRec {
    state: Arc<OnlineState>,
    slot: Arc<TaskSlot>,
    label: TaskLabel,
}

/// Per-running-task recorder: local buffers plus the publish protocol.
/// Lives inside [`ParCtx`] when (and only when) the run is online.
pub(crate) struct TaskRec {
    state: Arc<OnlineState>,
    slot: Arc<TaskSlot>,
    label: TaskLabel,
    /// Spawn ordinal of this task's next child (fork-path label `seq`).
    next_child_seq: u32,
    accesses: Vec<u64>,
    controls: Vec<(u64, Control)>,
    /// Total accesses recorded by this task (absolute offset counter).
    acc_count: u64,
}

impl TaskRec {
    /// Recorder for the main task (registers raw id 0, root label).
    pub(crate) fn main(state: Arc<OnlineState>) -> TaskRec {
        let label = TaskLabel::root();
        let slot = state.register(0, label.clone());
        TaskRec {
            state,
            slot,
            label,
            next_child_seq: 0,
            accesses: Vec::new(),
            controls: Vec::new(),
            acc_count: 0,
        }
    }

    /// Recorder for a spawned child (slot already registered by the
    /// parent's [`TaskRec::record_spawn`]).
    pub(crate) fn spawned(pre: SpawnRec) -> TaskRec {
        TaskRec {
            state: pre.state,
            slot: pre.slot,
            label: pre.label,
            next_child_seq: 0,
            accesses: Vec::new(),
            controls: Vec::new(),
            acc_count: 0,
        }
    }

    /// The task's fork-path label.
    pub(crate) fn label(&self) -> &TaskLabel {
        &self.label
    }

    /// Records one shared-memory access. Hot path: two `Vec` pushes worst
    /// case, no locks until the flush threshold.
    #[inline]
    pub(crate) fn record_access(&mut self, loc: LocId, write: bool) {
        self.accesses.push(((loc.0 as u64) << 1) | write as u64);
        self.acc_count += 1;
        if self.accesses.len() >= FLUSH_ACCESSES {
            self.publish();
        }
    }

    /// Registers the child's slot (with its O(1)-derived label) and
    /// records + publishes the spawn control. Returns the bundle the child
    /// task starts from.
    pub(crate) fn record_spawn(&mut self, child: u32, kind: TaskKind) -> SpawnRec {
        let label = self.label.child(self.next_child_seq);
        self.next_child_seq += 1;
        let slot = self.state.register(child, label.clone());
        self.record_control(Control::Spawn { child, kind });
        SpawnRec {
            state: Arc::clone(&self.state),
            slot,
            label,
        }
    }

    /// Records + publishes a `get()` of raw task `awaited`.
    pub(crate) fn record_get(&mut self, awaited: u32) {
        self.record_control(Control::Get { awaited });
    }

    /// Records + publishes entry into a `finish` scope.
    pub(crate) fn record_finish_start(&mut self) {
        self.record_control(Control::FinishStart);
    }

    /// Records + publishes exit from a `finish` scope.
    pub(crate) fn record_finish_end(&mut self) {
        self.record_control(Control::FinishEnd);
    }

    /// Records + publishes an allocation of `n` cells at raw `base`.
    pub(crate) fn record_alloc(&mut self, base: u32, n: u32, name: &str) {
        self.record_control(Control::Alloc {
            base,
            n,
            name: name.into(),
        });
    }

    fn record_control(&mut self, c: Control) {
        self.controls.push((self.acc_count, c));
        // Publishing at every sync point keeps the walker's frontier as
        // close to execution as the semantics allow (a spawn must be
        // visible before the child's actions can matter).
        self.publish();
    }

    fn publish(&mut self) {
        if self.accesses.is_empty() && self.controls.is_empty() {
            return;
        }
        let n = (self.accesses.len() + self.controls.len()) as u64;
        {
            let mut d = self.slot.data.lock();
            d.accesses.append(&mut self.accesses);
            d.controls.append(&mut self.controls);
        }
        self.state.publishes.fetch_add(1, Ordering::Relaxed);
        self.state.published_events.fetch_add(n, Ordering::Relaxed);
        self.state.notify();
    }

    /// Final publish + end mark. Must be the task's last recording action.
    pub(crate) fn end(&mut self) {
        self.publish();
        self.slot.ended.store(true, Ordering::SeqCst);
        self.state.notify();
    }
}

// ---------------------------------------------------------------------------
// The canonical walker
// ---------------------------------------------------------------------------

/// A task being walked: its drained buffers plus the walk cursor.
struct Frame {
    serial: TaskId,
    slot: Arc<TaskSlot>,
    /// Drained accesses; `acc[i]` is the task's `acc_base + i`-th access.
    acc: Vec<u64>,
    acc_base: u64,
    /// Absolute count of accesses already emitted.
    acc_pos: u64,
    /// Drained, not-yet-consumed controls.
    ctls: VecDeque<(u64, Control)>,
    /// The task body has returned (everything is published).
    saw_end: bool,
}

impl Frame {
    fn acc_avail(&self) -> u64 {
        self.acc_base + self.acc.len() as u64
    }
}

struct FinishFrame {
    id: FinishId,
    joins: Vec<TaskId>,
}

/// The walker's telemetry (the monitor counts the stream itself).
#[derive(Default)]
struct WalkResult {
    tasks_walked: u64,
    frontier_waits: u64,
    unresolved_gets: u64,
    truncated: bool,
}

enum Step {
    Emitted,
    NeedData,
    TaskDone,
}

struct Walker<'a, M: Monitor> {
    state: &'a OnlineState,
    mon: &'a mut M,
    stack: Vec<Frame>,
    finish_stack: Vec<FinishFrame>,
    next_task: u32,
    next_finish: u32,
    next_loc: u32,
    /// Raw task id → serial id, filled as spawns are walked.
    task_map: Vec<Option<TaskId>>,
    /// Raw loc → serial loc, filled as allocs are walked.
    loc_map: Vec<u32>,
    /// Label of the most recently walked spawn (order verification).
    last_spawn_label: Option<TaskLabel>,
    out: WalkResult,
}

impl<'a, M: Monitor> Walker<'a, M> {
    fn new(state: &'a OnlineState, mon: &'a mut M) -> Self {
        Walker {
            state,
            mon,
            stack: Vec::new(),
            finish_stack: vec![FinishFrame {
                id: FinishId(0),
                joins: Vec::new(),
            }],
            next_task: 1,
            next_finish: 1,
            next_loc: 0,
            task_map: vec![Some(TaskId::MAIN)],
            loc_map: Vec::new(),
            last_spawn_label: None,
            out: WalkResult::default(),
        }
    }

    /// Walks to completion (or until the run aborts).
    fn run(mut self) -> WalkResult {
        // The main slot is registered before user code runs; wait for it.
        let root = loop {
            if let Some(s) = self.state.slot(0) {
                break s;
            }
            if self.state.is_aborted() {
                self.out.truncated = true;
                return self.out;
            }
            let g = self.state.wake.lock();
            drop(self.state.wake_cv.wait_timeout(g, Duration::from_micros(200)));
        };
        self.stack.push(Frame {
            serial: TaskId::MAIN,
            slot: root,
            acc: Vec::new(),
            acc_base: 0,
            acc_pos: 0,
            ctls: VecDeque::new(),
            saw_end: false,
        });

        'walk: while !self.stack.is_empty() {
            if self.state.is_aborted() {
                self.out.truncated = true;
                break 'walk;
            }
            let wake_seen = *self.state.wake.lock();
            Self::drain(self.stack.last_mut().expect("non-empty stack"));
            loop {
                match self.step() {
                    Step::Emitted => continue,
                    Step::TaskDone => {
                        if self.stack.is_empty() {
                            break 'walk;
                        }
                        // Parent resumes: drain it before deciding to wait.
                        Self::drain(self.stack.last_mut().expect("parent frame"));
                    }
                    Step::NeedData => {
                        // The top frame is often a freshly pushed child
                        // whose published actions have not been drained
                        // yet; sleeping here would turn every spawn into
                        // a condvar timeout once execution has finished.
                        // Only wait when a drain finds nothing new.
                        if !Self::drain(self.stack.last_mut().expect("non-empty stack")) {
                            break;
                        }
                    }
                }
            }
            if self.stack.is_empty() {
                break;
            }
            // Frontier: nothing consumable. Sleep until a publish (or
            // timeout — publishes can land between our wake snapshot and
            // the drain above, which the snapshot comparison catches).
            let g = self.state.wake.lock();
            if *g == wake_seen && !self.state.is_aborted() {
                self.out.frontier_waits += 1;
                drop(self.state.wake_cv.wait_timeout(g, Duration::from_micros(200)));
            }
        }
        self.out
    }

    /// Moves newly published data from the slot into the frame. Returns
    /// whether anything new arrived (data or the end mark) — `false`
    /// means the frame is genuinely ahead of execution and the walker
    /// must wait for a publish.
    fn drain(frame: &mut Frame) -> bool {
        let ended = frame.slot.ended.load(Ordering::SeqCst);
        let mut changed = false;
        let mut d = frame.slot.data.lock();
        if !d.accesses.is_empty() {
            // Drop the consumed prefix when fully caught up, keeping frame
            // memory proportional to the walk lag rather than task length.
            if frame.acc_pos == frame.acc_avail() {
                frame.acc.clear();
                frame.acc_base = frame.acc_pos;
            }
            frame.acc.append(&mut d.accesses);
            changed = true;
        }
        if !d.controls.is_empty() {
            frame.ctls.extend(d.controls.drain(..));
            changed = true;
        }
        drop(d);
        if ended && !frame.saw_end {
            // Ordering: `ended` is stored after the final publish, so
            // sampling it *before* the drain above means the drain saw
            // everything when `ended` reads true.
            frame.saw_end = true;
            changed = true;
        }
        changed
    }

    /// Consumes the next walkable unit of the top frame.
    fn step(&mut self) -> Step {
        let mut frame = self.stack.pop().expect("step on empty stack");
        if let Some((off, _)) = frame.ctls.front() {
            let off = *off;
            debug_assert!(off >= frame.acc_pos, "control offset behind walk cursor");
            if frame.acc_avail() < off {
                // Accesses preceding the control not yet drained (cannot
                // happen with atomic publishes, but stay defensive).
                self.stack.push(frame);
                return Step::NeedData;
            }
            self.emit_accesses(&mut frame, off);
            let (_, ctl) = frame.ctls.pop_front().expect("front checked");
            self.handle_control(frame, ctl)
        } else {
            let avail = frame.acc_avail();
            if frame.acc_pos < avail {
                self.emit_accesses(&mut frame, avail);
                self.stack.push(frame);
                Step::Emitted
            } else if frame.saw_end {
                self.finish_task(frame);
                Step::TaskDone
            } else {
                self.stack.push(frame);
                Step::NeedData
            }
        }
    }

    /// Handles one control action of `frame`; pushes frames back as needed.
    fn handle_control(&mut self, frame: Frame, ctl: Control) -> Step {
        match ctl {
            Control::Spawn { child, kind } => {
                let serial_child = TaskId(self.next_task);
                self.next_task += 1;
                let idx = child as usize;
                if self.task_map.len() <= idx {
                    self.task_map.resize(idx + 1, None);
                }
                self.task_map[idx] = Some(serial_child);
                let fin = self.finish_stack.last_mut().expect("finish stack");
                fin.joins.push(serial_child);
                let ief = fin.id;
                let slot = self
                    .state
                    .slot(child)
                    .expect("child slot registered before its spawn was published");
                // Labels certify the canonical order: serial ids must be
                // assigned in label depth-first order.
                debug_assert!(
                    self.last_spawn_label
                        .as_ref()
                        .is_none_or(|prev| prev.df_cmp(&slot.label).is_lt()),
                    "walk order diverged from label depth-first order"
                );
                self.last_spawn_label = Some(slot.label.clone());
                self.mon.task_create(frame.serial, serial_child, kind, ief);
                // Depth-first: the child's whole subtree walks before the
                // parent's remaining actions (serial elision).
                self.stack.push(frame);
                self.stack.push(Frame {
                    serial: serial_child,
                    slot,
                    acc: Vec::new(),
                    acc_base: 0,
                    acc_pos: 0,
                    ctls: VecDeque::new(),
                    saw_end: false,
                });
                Step::Emitted
            }
            Control::FinishStart => {
                let fid = FinishId(self.next_finish);
                self.next_finish += 1;
                self.mon.finish_start(frame.serial, fid);
                self.finish_stack.push(FinishFrame {
                    id: fid,
                    joins: Vec::new(),
                });
                self.stack.push(frame);
                Step::Emitted
            }
            Control::FinishEnd => {
                let fin = self.finish_stack.pop().expect("unbalanced finish_end");
                self.mon.finish_end(frame.serial, fin.id, &fin.joins);
                self.stack.push(frame);
                Step::Emitted
            }
            Control::Get { awaited } => {
                match self.task_map.get(awaited as usize).copied().flatten() {
                    Some(serial_awaited) => self.mon.get(frame.serial, serial_awaited),
                    // A handle that reached this task outside the monitored
                    // structure (e.g. through a raw channel): no serial id
                    // exists at this canonical position. Counted, skipped —
                    // such programs are outside the serial-elision model.
                    None => self.out.unresolved_gets += 1,
                }
                self.stack.push(frame);
                Step::Emitted
            }
            Control::Alloc { base, n, name } => {
                let serial_base = self.next_loc;
                self.next_loc += n;
                let end = base as usize + n as usize;
                if self.loc_map.len() < end {
                    self.loc_map.resize(end, u32::MAX);
                }
                for i in 0..n {
                    self.loc_map[base as usize + i as usize] = serial_base + i;
                }
                self.mon.alloc(LocId(serial_base), n, &name);
                self.stack.push(frame);
                Step::Emitted
            }
        }
    }

    fn finish_task(&mut self, frame: Frame) {
        debug_assert!(
            frame.ctls.is_empty() && frame.acc_pos == frame.acc_avail(),
            "finishing a task with unconsumed actions"
        );
        if frame.serial == TaskId::MAIN {
            // The implicit finish around main, exactly as run_serial ends.
            let fin = self.finish_stack.pop().expect("implicit finish frame");
            self.mon.finish_end(TaskId::MAIN, fin.id, &fin.joins);
        }
        self.mon.task_end(frame.serial);
        self.out.tasks_walked += 1;
    }

    fn emit_accesses(&mut self, frame: &mut Frame, upto: u64) {
        for i in frame.acc_pos..upto {
            let word = frame.acc[(i - frame.acc_base) as usize];
            let loc = LocId(self.translate_loc((word >> 1) as u32));
            if word & 1 == 1 {
                self.mon.write(frame.serial, loc);
            } else {
                self.mon.read(frame.serial, loc);
            }
        }
        frame.acc_pos = upto;
    }

    fn translate_loc(&self, raw: u32) -> u32 {
        match self.loc_map.get(raw as usize) {
            Some(&serial) if serial != u32::MAX => serial,
            // Accesses outside any monitored allocation cannot occur
            // through the DSL; identity-map defensively in release.
            _ => {
                debug_assert!(false, "access to unallocated raw loc {raw}");
                raw
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The online driver
// ---------------------------------------------------------------------------

/// Options for [`run_online`].
#[derive(Clone, Debug)]
pub struct OnlineOptions {
    /// Worker threads for the parallel executor (≥ 1).
    pub threads: usize,
    /// Seed for randomized steal order (schedule exploration); `None`
    /// keeps FIFO stealing.
    pub steal_seed: Option<u64>,
}

impl OnlineOptions {
    /// `threads` executor threads with FIFO stealing.
    pub fn threads(threads: usize) -> OnlineOptions {
        OnlineOptions {
            threads,
            steal_seed: None,
        }
    }
}

/// Telemetry from one online run: buffer/merge behaviour of the pipeline.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OnlineStats {
    /// Executor worker threads requested.
    pub threads: usize,
    /// Pool worker threads actually spawned: the `threads` initial ones
    /// plus every compensation worker added while waits were blocked.
    pub workers_spawned: usize,
    /// Buffer publishes (merges into task slots) across all tasks.
    pub publishes: u64,
    /// Actions moved by those publishes (accesses + controls).
    pub published_events: u64,
    /// Tasks fully walked in canonical order.
    pub tasks_walked: u64,
    /// Times the walker blocked waiting for execution to publish more.
    pub frontier_waits: u64,
    /// `get()`s whose awaited handle had no serial id at its canonical
    /// position (handle smuggled outside the monitored structure).
    pub unresolved_gets: u64,
    /// Batches handed from the walker to another thread. Always 0: the
    /// walker drives its monitor itself. Kept because existing telemetry
    /// consumers read it.
    pub batches: u64,
    /// The canonical stream was cut short (deadlock or panic).
    pub truncated: bool,
}

impl std::fmt::Display for OnlineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "online: threads={} workers_spawned={} publishes={} published={} \
             frontier_waits={}",
            self.threads,
            self.workers_spawned,
            self.publishes,
            self.published_events,
            self.frontier_waits
        )?;
        if self.unresolved_gets > 0 {
            write!(f, " unresolved_gets={}", self.unresolved_gets)?;
        }
        if self.truncated {
            write!(f, " (truncated)")?;
        }
        Ok(())
    }
}

/// Why an online execution failed (analysis of the prefix still ran).
#[derive(Debug)]
pub enum OnlineError {
    /// The parallel execution deadlocked (Appendix-A scenario).
    Deadlock(DeadlockError),
}

impl std::fmt::Display for OnlineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OnlineError::Deadlock(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for OnlineError {}

/// Result of [`run_online`]: the program's value and run telemetry. The
/// monitor was fed even when `result` is an error — it holds the
/// analysis of the executed prefix.
pub struct OnlineRun<R> {
    /// The program's return value, or why execution failed.
    pub result: Result<R, OnlineError>,
    /// Online-pipeline telemetry.
    pub stats: OnlineStats,
}

/// Runs `f` on the instrumented parallel executor while the canonical
/// walker feeds the serial-elision stream to `monitor`. See the module
/// docs for the pipeline.
///
/// Thread budget: `opts.threads` executor workers + 1 canonical walker,
/// which runs `monitor` (plus any compensation workers the pool adds
/// while waits are blocked).
///
/// Panics from task bodies and from the monitor are propagated to the
/// caller after every thread has been joined.
pub fn run_online<M, R, F>(opts: OnlineOptions, monitor: &mut M, f: F) -> OnlineRun<R>
where
    M: Monitor + Send,
    R: Send,
    F: FnOnce(&mut ParCtx) -> R + Send,
{
    assert!(opts.threads >= 1, "need at least one executor thread");
    let state = Arc::new(OnlineState::new());

    let (pool_out, walk) = std::thread::scope(|s| {
        let walker_state = &*state;
        let walker = s.spawn(move || Walker::new(walker_state, monitor).run());
        let out = run_pool(opts.threads, opts.steal_seed, Some(Arc::clone(&state)), f);
        if !matches!(out, PoolOutcome::Done(_)) {
            state.abort();
        }
        (out, walker.join())
    });

    // Both threads are joined; re-raise a walker (monitor) panic first.
    let walk = match walk {
        Ok(walk) => walk,
        Err(payload) => std::panic::resume_unwind(payload),
    };
    let result = match pool_out {
        PoolOutcome::Done(r) => Ok(r),
        PoolOutcome::Deadlock(e) => Err(OnlineError::Deadlock(e)),
        PoolOutcome::Panicked(payload) => std::panic::resume_unwind(payload),
    };
    let stats = OnlineStats {
        threads: opts.threads,
        workers_spawned: state.workers_spawned.load(Ordering::Relaxed),
        publishes: state.publishes.load(Ordering::Relaxed),
        published_events: state.published_events.load(Ordering::Relaxed),
        tasks_walked: walk.tasks_walked,
        frontier_waits: walk.frontier_waits,
        unresolved_gets: walk.unresolved_gets,
        batches: 0,
        truncated: walk.truncated,
    };
    OnlineRun { result, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::TaskCtx;
    use crate::monitor::EventLog;
    use crate::serial::run_serial;

    /// A nested async/finish/future program exercising every control kind,
    /// written generically so it runs on both executors.
    fn mixed_program<C: TaskCtx>(ctx: &mut C) {
        let a = ctx.shared_array(16, 0u64, "a");
        let v = ctx.shared_var(0u64, "v");
        ctx.finish(|ctx| {
            for i in 0..4 {
                let a = a.clone();
                ctx.async_task(move |ctx| {
                    a.write(ctx, i, i as u64 + 1);
                    let x = a.read(ctx, i);
                    a.write(ctx, i + 4, x * 2);
                });
            }
        });
        let f = {
            let a = a.clone();
            ctx.future(move |ctx| a.read(ctx, 0) + 100)
        };
        let g = {
            let f = f.clone();
            ctx.future(move |ctx| ctx.get(&f) + 1)
        };
        let got = ctx.get(&g);
        v.write(ctx, got);
        ctx.finish(|ctx| {
            let v = v.clone();
            ctx.async_task(move |ctx| {
                ctx.finish(|ctx| {
                    let v = v.clone();
                    ctx.async_task(move |ctx| {
                        let x = v.read(ctx);
                        v.write(ctx, x + 1);
                    });
                });
                let x = v.read(ctx);
                v.write(ctx, x + 1);
            });
        });
    }

    fn serial_log<F: Fn(&mut crate::serial::SerialCtx<EventLog>)>(f: F) -> EventLog {
        let mut log = EventLog::default();
        run_serial(&mut log, |ctx| f(ctx));
        log
    }

    #[test]
    fn canonical_stream_equals_serial_elision() {
        let want = serial_log(|ctx| mixed_program(ctx));
        for threads in [1, 2, 4] {
            let mut log = EventLog::default();
            let run = run_online(OnlineOptions::threads(threads), &mut log, |ctx| {
                mixed_program(ctx)
            });
            assert!(run.result.is_ok());
            assert_eq!(
                log.events, want.events,
                "threads={threads}: canonical stream diverged from serial elision"
            );
            assert!(run.stats.publishes > 0);
            assert_eq!(run.stats.tasks_walked, 9); // 6 asyncs + 2 futures + main
            assert!(run.stats.workers_spawned >= threads);
            assert!(!run.stats.truncated);
        }
    }

    #[test]
    fn seeded_schedules_preserve_the_canonical_stream() {
        let want = serial_log(|ctx| mixed_program(ctx));
        for seed in [1u64, 7, 42, 1337] {
            let mut log = EventLog::default();
            let opts = OnlineOptions {
                threads: 4,
                steal_seed: Some(seed),
            };
            let run = run_online(opts, &mut log, mixed_program);
            assert!(run.result.is_ok());
            assert_eq!(
                log.events, want.events,
                "seed={seed}: canonical stream diverged"
            );
        }
    }

    #[test]
    fn blocked_gets_report_compensation_workers() {
        // Each future spawns the next level and waits for it. The waiter
        // cannot run the queued child itself, so once both initial
        // workers and main are blocked in gets the pool must add a worker.
        fn level(ctx: &mut ParCtx, depth: u32) -> u32 {
            if depth == 0 {
                return 0;
            }
            let child = ctx.future(move |ctx| level(ctx, depth - 1));
            ctx.get(&child) + 1
        }
        let run = run_online(OnlineOptions::threads(2), &mut EventLog::default(), |ctx| {
            level(ctx, 8)
        });
        assert_eq!(run.result.ok(), Some(8));
        assert!(
            run.stats.workers_spawned > 2,
            "workers_spawned={}",
            run.stats.workers_spawned
        );
        assert!(run.stats.to_string().contains("workers_spawned="));
    }

    #[test]
    fn deadlock_yields_error_and_truncated_stats() {
        use std::sync::mpsc;
        let (tx, rx) = mpsc::channel::<crate::parallel::ParHandle<u64>>();
        let run = run_online(
            OnlineOptions::threads(2),
            &mut EventLog::default(),
            move |ctx| {
                let f = ctx.future(move |ctx| {
                    let me = rx.recv().unwrap();
                    ctx.get(&me)
                });
                tx.send(f.clone()).unwrap();
                ctx.get(&f)
            },
        );
        assert!(matches!(run.result, Err(OnlineError::Deadlock(_))));
        assert!(run.stats.truncated);
    }

    #[test]
    fn task_panic_propagates_after_pipeline_join() {
        let res = std::panic::catch_unwind(|| {
            run_online(OnlineOptions::threads(2), &mut EventLog::default(), |ctx| {
                ctx.finish(|ctx| {
                    ctx.async_task(|_| panic!("task body panic"));
                });
            })
        });
        assert!(res.is_err());
    }
}
