//! Generic job DAG and its std-only worker-pool executor.
//!
//! The corpus driver models a batch run as a dependency DAG: per-trace
//! analyze jobs feed a per-trace compare job, and everything feeds one
//! final aggregate job. This module is the schedule layer underneath —
//! it knows nothing about traces, only job ids, dependency edges, and a
//! user-supplied runner closure.
//!
//! Scheduling rules (DESIGN §S41):
//!
//! * at most `max_parallel` jobs run concurrently; among ready jobs the
//!   lowest id dispatches first, so a `--max-parallel 1` run executes in
//!   one canonical order;
//! * a failed job **poisons** its transitive dependents (they settle
//!   without running); under [`FailurePolicy::Continue`] nothing else is
//!   affected, under [`FailurePolicy::Abort`] all not-yet-running jobs
//!   are cancelled;
//! * a **barrier** job (the aggregate) waits until every dependency has
//!   settled — succeeded, failed, poisoned, or cancelled — and then runs
//!   regardless, so the final report exists even for a damaged corpus;
//! * `stop_after_jobs: Some(n)` suspends dispatch after `n` runner
//!   completions (the kill-midway hook for resume tests); jobs never
//!   dispatched settle as [`JobStatus::NotReached`];
//! * `job_timeout: Some(t)` arms a watchdog: a job running past its
//!   deadline settles [`JobStatus::Failed`] and poisons its dependents
//!   immediately, while the wedged runner drains in the background (its
//!   late result is discarded);
//! * a runner that panics fails its job like one that returns `Err`,
//!   with the panic's message: one detector panic costs its job, not
//!   the run;
//! * `job_retries: n` re-queues a failed or timed-out job up to `n`
//!   times before it settles [`JobStatus::Failed`] — transient failures
//!   (a flaky filesystem, a timeout on a loaded machine) no longer
//!   poison a whole subtree on the first strike. Each dispatch carries a
//!   generation number so a timed-out runner's late result can never be
//!   confused with its replacement's.
//!
//! Acyclicity is by construction: [`Dag::add`] only accepts already-added
//! jobs as dependencies, so edges always point backwards in id order.

#![warn(missing_docs)]

use futrace_util::propcheck::panic_message;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Index of a job within its [`Dag`] (dense, in insertion order).
pub type JobId = usize;

/// What to do with the rest of the corpus when a job fails.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailurePolicy {
    /// Poison the failed job's dependents; keep running everything else.
    Continue,
    /// Stop dispatching: running jobs drain, every other unsettled
    /// non-barrier job settles [`JobStatus::Cancelled`]. Barriers still
    /// run so the report can record the abort.
    Abort,
}

/// Terminal state of one job after [`execute`] returns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// The runner returned `Ok`, or the job was pre-settled as complete
    /// (resume skip).
    Ok,
    /// The runner returned `Err(message)` or panicked (the message is then
    /// `panicked: ` and the panic's text), or the job was pre-settled as
    /// failed by a resume manifest.
    Failed(String),
    /// Never ran: a (transitive) dependency failed.
    Poisoned {
        /// The dependency whose failure propagated here.
        failed_dep: JobId,
    },
    /// Never ran: the run aborted under [`FailurePolicy::Abort`].
    Cancelled,
    /// Never ran: dispatch suspended first (`stop_after_jobs`).
    NotReached,
}

impl JobStatus {
    /// True for [`JobStatus::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, JobStatus::Ok)
    }
}

struct Node {
    label: String,
    deps: Vec<JobId>,
    dependents: Vec<JobId>,
    barrier: bool,
}

/// A dependency DAG of labelled jobs. Build with [`Dag::add`] /
/// [`Dag::add_barrier`], run with [`execute`].
#[derive(Default)]
pub struct Dag {
    nodes: Vec<Node>,
}

impl Dag {
    /// Empty DAG.
    pub fn new() -> Self {
        Dag::default()
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no jobs have been added.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The label given at add time.
    pub fn label(&self, id: JobId) -> &str {
        &self.nodes[id].label
    }

    fn push(&mut self, label: impl Into<String>, deps: &[JobId], barrier: bool) -> JobId {
        let id = self.nodes.len();
        for &d in deps {
            assert!(d < id, "dependency {d} of job {id} must be added first");
            self.nodes[d].dependents.push(id);
        }
        self.nodes.push(Node {
            label: label.into(),
            deps: deps.to_vec(),
            dependents: Vec::new(),
            barrier,
        });
        id
    }

    /// Adds a normal job. All `deps` must already be in the DAG (this is
    /// what makes cycles unrepresentable).
    pub fn add(&mut self, label: impl Into<String>, deps: &[JobId]) -> JobId {
        self.push(label, deps, false)
    }

    /// Adds a barrier job: it becomes ready only once **all** its deps
    /// have settled, and then runs whatever their outcomes were.
    pub fn add_barrier(&mut self, label: impl Into<String>, deps: &[JobId]) -> JobId {
        self.push(label, deps, true)
    }
}

/// Execution parameters for [`execute`].
#[derive(Clone, Debug)]
pub struct ExecPlan {
    /// Worker-pool width (≥ 1).
    pub max_parallel: usize,
    /// Failure policy (continue vs abort).
    pub policy: FailurePolicy,
    /// Suspend dispatch after this many runner completions (resume-test
    /// hook). `None` runs to completion.
    pub stop_after_jobs: Option<u64>,
    /// Per-job wall-clock deadline. A job still running past it settles
    /// [`JobStatus::Failed`] (poisoning its dependents) so one wedged
    /// trace cannot stall the whole corpus; the overdue runner's result
    /// is discarded when (if) it eventually returns. The runner itself
    /// is not killed — a never-returning job keeps occupying its pool
    /// slot. `None` disables the watchdog.
    pub job_timeout: Option<Duration>,
    /// Re-queue a failed or timed-out job up to this many times before
    /// it settles [`JobStatus::Failed`]. A timed-out job's replacement
    /// may run concurrently with the wedged original (whose late result
    /// is discarded), so runners must tolerate re-execution. 0 = settle
    /// on the first failure (the historical behavior).
    pub job_retries: u64,
}

impl Default for ExecPlan {
    fn default() -> Self {
        ExecPlan {
            max_parallel: 1,
            policy: FailurePolicy::Continue,
            stop_after_jobs: None,
            job_timeout: None,
            job_retries: 0,
        }
    }
}

/// Outcome of one [`execute`] call.
#[derive(Clone, Debug)]
pub struct DagRun {
    /// Terminal status per job, indexed by [`JobId`].
    pub status: Vec<JobStatus>,
    /// Jobs whose runner actually ran this call.
    pub ran: u64,
    /// Jobs settled from `preset` without running (resume skips).
    pub skipped: u64,
    /// True iff a fresh failure triggered [`FailurePolicy::Abort`].
    pub aborted: bool,
    /// True iff `stop_after_jobs` suspended dispatch.
    pub suspended: bool,
    /// Retry dispatches: runner attempts beyond each job's first
    /// (bounded by `job_retries` per job).
    pub retried: u64,
}

impl DagRun {
    /// True iff any job settled [`JobStatus::Failed`] or
    /// [`JobStatus::Poisoned`] (preset failures included).
    pub fn any_failed(&self) -> bool {
        self.status
            .iter()
            .any(|s| matches!(s, JobStatus::Failed(_) | JobStatus::Poisoned { .. }))
    }
}

enum Slot {
    Waiting {
        deps_left: usize,
    },
    Ready,
    Running {
        deadline: Option<Instant>,
        /// Dispatch generation (= the job's attempt count at dispatch).
        /// A worker's result only settles the job if the slot still
        /// holds the generation it dispatched under; a timed-out-and-
        /// requeued job's stale runner fails this check.
        gen: u64,
    },
    Settled(JobStatus),
}

struct ExecState {
    slots: Vec<Slot>,
    ready: BinaryHeap<std::cmp::Reverse<JobId>>,
    settled: usize,
    ran: u64,
    skipped: u64,
    aborting: bool,
    suspended: bool,
    fresh_preset: Vec<Option<JobStatus>>,
    /// Failures absorbed so far, per job (caps at `plan.job_retries`).
    attempts: Vec<u64>,
    retried: u64,
}

/// Runs the DAG on a pool of `plan.max_parallel` scoped threads.
///
/// `preset[id] = Some(status)` settles job `id` up front without running
/// it — the resume path: jobs recorded complete (or failed) by a prior
/// run's manifest are injected here, and their poison still propagates.
/// Preset failures do **not** trigger the abort policy (the previous run
/// already reacted to them); only fresh runner failures do.
///
/// `runner` is called concurrently from pool threads and must be `Sync`.
///
/// # Panics
///
/// Panics if `plan.max_parallel == 0` or `preset.len() != dag.len()`.
pub fn execute<F>(dag: &Dag, plan: &ExecPlan, preset: Vec<Option<JobStatus>>, runner: F) -> DagRun
where
    F: Fn(JobId) -> Result<(), String> + Sync,
{
    assert!(plan.max_parallel >= 1, "max_parallel must be >= 1");
    assert_eq!(preset.len(), dag.len(), "one preset slot per job");

    let shared = Shared {
        state: Mutex::new(ExecState {
            slots: dag
                .nodes
                .iter()
                .map(|n| Slot::Waiting {
                    deps_left: n.deps.len(),
                })
                .collect(),
            ready: BinaryHeap::new(),
            settled: 0,
            ran: 0,
            skipped: 0,
            aborting: false,
            suspended: false,
            fresh_preset: preset,
            attempts: vec![0; dag.len()],
            retried: 0,
        }),
        cv: Condvar::new(),
    };

    {
        let mut st = shared.state.lock().unwrap();
        // Settle presets first (in id order), then promote remaining
        // zero-dep jobs to ready.
        for id in 0..dag.len() {
            if let Some(status) = st.fresh_preset[id].take() {
                st.skipped += 1;
                settle(dag, &mut st, id, status);
            }
        }
        for id in 0..dag.len() {
            if matches!(st.slots[id], Slot::Waiting { deps_left: 0 }) {
                st.slots[id] = Slot::Ready;
                st.ready.push(std::cmp::Reverse(id));
            }
        }
    }

    std::thread::scope(|scope| {
        for _ in 0..plan.max_parallel {
            scope.spawn(|| worker(dag, plan, &shared, &runner));
        }
        if let Some(timeout) = plan.job_timeout {
            let shared = &shared;
            scope.spawn(move || timekeeper(dag, plan, shared, timeout));
        }
    });

    let st = shared.state.lock().unwrap();
    let status = st
        .slots
        .iter()
        .map(|s| match s {
            Slot::Settled(js) => js.clone(),
            _ => unreachable!("all jobs settle before the pool drains"),
        })
        .collect();
    DagRun {
        status,
        ran: st.ran,
        skipped: st.skipped,
        aborted: st.aborting,
        suspended: st.suspended,
        retried: st.retried,
    }
}

struct Shared {
    state: Mutex<ExecState>,
    cv: Condvar,
}

fn worker<F>(dag: &Dag, plan: &ExecPlan, shared: &Shared, runner: &F)
where
    F: Fn(JobId) -> Result<(), String> + Sync,
{
    let mut st = shared.state.lock().unwrap();
    loop {
        if st.settled == dag.len() {
            shared.cv.notify_all();
            return;
        }
        if let Some(std::cmp::Reverse(id)) = st.ready.pop() {
            // A heap entry can go stale: a job promoted to Ready by one
            // dependency cascade may since have been settled by a preset
            // or a cancellation. Skip it rather than re-running it.
            if !matches!(st.slots[id], Slot::Ready) {
                continue;
            }
            let my_gen = st.attempts[id];
            st.slots[id] = Slot::Running {
                deadline: plan.job_timeout.map(|t| Instant::now() + t),
                gen: my_gen,
            };
            drop(st);
            // A panicking runner fails its own job, like an `Err`: the
            // pool keeps its worker and the run its report.
            let result = catch_panic(|| runner(id));
            st = shared.state.lock().unwrap();
            // The timekeeper may have settled this job as timed-out (or
            // timed it out and re-queued it) while the runner was still
            // going; a stale result is discarded — the live generation's
            // verdict is the one that counts.
            match st.slots[id] {
                Slot::Running { gen, .. } if gen == my_gen => {}
                _ => continue,
            }
            st.ran += 1;
            match result {
                Ok(()) => {
                    settle(dag, &mut st, id, JobStatus::Ok);
                    after_fresh_settle(dag, plan, &mut st, false);
                }
                Err(msg) => {
                    if retryable(plan, &st, id) {
                        requeue(&mut st, id);
                        maybe_suspend(dag, plan, &mut st);
                    } else {
                        settle(dag, &mut st, id, JobStatus::Failed(msg));
                        after_fresh_settle(dag, plan, &mut st, true);
                    }
                }
            }
            shared.cv.notify_all();
            continue;
        }
        // Nothing ready: either every remaining job is running in another
        // worker, or we're waiting on dependency settlement.
        st = shared.cv.wait(st).unwrap();
    }
}

/// Runs `f`, turning a panic into `Err("panicked: <its message>")`.
pub(crate) fn catch_panic<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f))
        .unwrap_or_else(|payload| Err(format!("panicked: {}", panic_message(payload))))
}

/// True when a fresh failure of `id` should be re-queued instead of
/// settled: budget left, and the run is not already winding down (an
/// aborting or suspended run must not keep dispatching).
fn retryable(plan: &ExecPlan, st: &ExecState, id: JobId) -> bool {
    st.attempts[id] < plan.job_retries && !st.aborting && !st.suspended
}

/// Puts a failed/timed-out job back on the ready heap for another
/// attempt, bumping its generation so any still-draining runner from
/// the previous attempt is recognizably stale.
fn requeue(st: &mut ExecState, id: JobId) {
    st.attempts[id] += 1;
    st.retried += 1;
    st.slots[id] = Slot::Ready;
    st.ready.push(std::cmp::Reverse(id));
}

/// Policy reactions shared by the worker and timekeeper settle paths:
/// a fresh failure may trigger the abort policy, and any fresh
/// completion counts toward the `stop_after_jobs` suspension threshold.
fn after_fresh_settle(dag: &Dag, plan: &ExecPlan, st: &mut ExecState, failed: bool) {
    if failed && plan.policy == FailurePolicy::Abort && !st.aborting {
        st.aborting = true;
        cancel_unstarted(dag, st);
    }
    maybe_suspend(dag, plan, st);
}

/// `stop_after_jobs` check alone — also applies to re-queued attempts,
/// which count as runner completions without settling anything.
fn maybe_suspend(dag: &Dag, plan: &ExecPlan, st: &mut ExecState) {
    if let Some(n) = plan.stop_after_jobs {
        if st.ran >= n && !st.suspended && st.settled < dag.len() {
            st.suspended = true;
            suspend_unstarted(st);
        }
    }
}

/// Watchdog loop (one thread, spawned only when `job_timeout` is set):
/// settles any job running past its deadline as failed, so the rest of
/// the DAG keeps moving while the wedged runner drains in its worker.
fn timekeeper(dag: &Dag, plan: &ExecPlan, shared: &Shared, timeout: Duration) {
    let mut st = shared.state.lock().unwrap();
    loop {
        if st.settled == dag.len() {
            return;
        }
        let now = Instant::now();
        let mut next_deadline: Option<Instant> = None;
        let mut expired = Vec::new();
        for (id, slot) in st.slots.iter().enumerate() {
            if let Slot::Running {
                deadline: Some(dl), ..
            } = slot
            {
                if *dl <= now {
                    expired.push(id);
                } else {
                    next_deadline = Some(next_deadline.map_or(*dl, |n| n.min(*dl)));
                }
            }
        }
        let fired = !expired.is_empty();
        for id in expired {
            st.ran += 1;
            if retryable(plan, &st, id) {
                // Re-queue the timed-out job; the wedged original keeps
                // draining in its worker and its late result is stale by
                // generation.
                requeue(&mut st, id);
                maybe_suspend(dag, plan, &mut st);
            } else {
                settle(
                    dag,
                    &mut st,
                    id,
                    JobStatus::Failed(format!("timed out after {}ms", timeout.as_millis())),
                );
                after_fresh_settle(dag, plan, &mut st, true);
            }
        }
        if fired {
            shared.cv.notify_all();
        }
        if st.settled == dag.len() {
            return;
        }
        // Sleep until the earliest live deadline (or one timeout period
        // when nothing is running); settles wake us early via the condvar.
        let wait = next_deadline
            .map_or(timeout, |n| n.saturating_duration_since(Instant::now()))
            .max(Duration::from_millis(1));
        st = shared.cv.wait_timeout(st, wait).unwrap().0;
    }
}

/// Marks `id` settled and propagates readiness/poison to dependents.
fn settle(dag: &Dag, st: &mut ExecState, id: JobId, status: JobStatus) {
    debug_assert!(!matches!(st.slots[id], Slot::Settled(_)));
    st.slots[id] = Slot::Settled(status);
    st.settled += 1;
    // Iterative DFS over dependents: settling one job may cascade
    // (poison chains through an entire per-trace subtree).
    let mut stack = vec![id];
    while let Some(done) = stack.pop() {
        // Status of the job that just settled (what propagates to its
        // dependents).
        let done_status = match &st.slots[done] {
            Slot::Settled(s) => s.clone(),
            _ => unreachable!(),
        };
        for &dep_id in &dag.nodes[done].dependents {
            let deps_left = match &mut st.slots[dep_id] {
                Slot::Waiting { deps_left } => {
                    *deps_left -= 1;
                    *deps_left
                }
                _ => continue,
            };
            if dag.nodes[dep_id].barrier {
                // Barriers only care that everything settled, not how.
                if deps_left == 0 {
                    st.slots[dep_id] = Slot::Ready;
                    st.ready.push(std::cmp::Reverse(dep_id));
                }
                continue;
            }
            // A normal job inspects the dep that just settled: failure or
            // poison propagates immediately; cancellation propagates as
            // cancellation.
            match &done_status {
                JobStatus::Ok => {
                    if deps_left == 0 {
                        st.slots[dep_id] = Slot::Ready;
                        st.ready.push(std::cmp::Reverse(dep_id));
                    }
                }
                JobStatus::Failed(_) => {
                    st.slots[dep_id] = Slot::Settled(JobStatus::Poisoned { failed_dep: done });
                    st.settled += 1;
                    stack.push(dep_id);
                }
                JobStatus::Poisoned { failed_dep } => {
                    let origin = *failed_dep;
                    st.slots[dep_id] = Slot::Settled(JobStatus::Poisoned { failed_dep: origin });
                    st.settled += 1;
                    stack.push(dep_id);
                }
                JobStatus::Cancelled | JobStatus::NotReached => {
                    st.slots[dep_id] = Slot::Settled(done_status.clone());
                    st.settled += 1;
                    stack.push(dep_id);
                }
            }
        }
    }
}

/// Abort path: every waiting/ready non-barrier job settles `Cancelled`.
/// Running jobs drain; barriers stay live so the aggregate still fires.
fn cancel_unstarted(dag: &Dag, st: &mut ExecState) {
    for id in 0..dag.nodes.len() {
        if dag.nodes[id].barrier {
            continue;
        }
        if matches!(st.slots[id], Slot::Waiting { .. } | Slot::Ready) {
            settle(dag, st, id, JobStatus::Cancelled);
        }
    }
    // The cancelled ids may still sit in the ready heap; rebuild it with
    // only live (still-Ready) entries so workers never pop a settled job.
    let mut heap = std::mem::take(&mut st.ready);
    let live: Vec<_> = heap
        .drain()
        .filter(|std::cmp::Reverse(id)| matches!(st.slots[*id], Slot::Ready))
        .collect();
    st.ready.extend(live);
}

/// Suspend path: everything not yet running settles `NotReached`,
/// barriers included — a partial run writes no aggregate report.
fn suspend_unstarted(st: &mut ExecState) {
    for slot in &mut st.slots {
        if matches!(*slot, Slot::Waiting { .. } | Slot::Ready) {
            *slot = Slot::Settled(JobStatus::NotReached);
            st.settled += 1;
        }
    }
    st.ready.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex as StdMutex;

    fn diamond() -> (Dag, JobId, JobId, JobId, JobId) {
        let mut dag = Dag::new();
        let a = dag.add("a", &[]);
        let b = dag.add("b", &[a]);
        let c = dag.add("c", &[a]);
        let d = dag.add("d", &[b, c]);
        (dag, a, b, c, d)
    }

    #[test]
    fn serial_execution_runs_in_id_order() {
        let (dag, ..) = diamond();
        let order = StdMutex::new(Vec::new());
        let run = execute(&dag, &ExecPlan::default(), vec![None; 4], |id| {
            order.lock().unwrap().push(id);
            Ok(())
        });
        assert_eq!(order.into_inner().unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(run.ran, 4);
        assert!(run.status.iter().all(JobStatus::is_ok));
        assert!(!run.aborted && !run.suspended);
    }

    #[test]
    fn parallelism_never_exceeds_cap_and_all_jobs_run() {
        let mut dag = Dag::new();
        let roots: Vec<_> = (0..20).map(|i| dag.add(format!("r{i}"), &[])).collect();
        let ids: Vec<_> = roots.iter().map(|&r| dag.add("child", &[r])).collect();
        let _tail = dag.add("tail", &ids);
        let live = AtomicU64::new(0);
        let peak = AtomicU64::new(0);
        let plan = ExecPlan {
            max_parallel: 3,
            ..ExecPlan::default()
        };
        let run = execute(&dag, &plan, vec![None; dag.len()], |_| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(1));
            live.fetch_sub(1, Ordering::SeqCst);
            Ok(())
        });
        assert_eq!(run.ran, 41);
        assert!(peak.load(Ordering::SeqCst) <= 3);
    }

    #[test]
    fn failure_poisons_transitive_dependents_only() {
        let (dag, a, b, c, d) = diamond();
        let run = execute(&dag, &ExecPlan::default(), vec![None; 4], |id| {
            if id == b {
                Err("boom".into())
            } else {
                Ok(())
            }
        });
        assert_eq!(run.status[a], JobStatus::Ok);
        assert_eq!(run.status[b], JobStatus::Failed("boom".into()));
        assert_eq!(run.status[c], JobStatus::Ok, "sibling unaffected");
        assert_eq!(run.status[d], JobStatus::Poisoned { failed_dep: b });
        assert_eq!(run.ran, 3, "d never ran");
        assert!(run.any_failed());
        assert!(!run.aborted);
    }

    #[test]
    fn a_panicking_runner_fails_only_its_job() {
        for policy in [FailurePolicy::Continue, FailurePolicy::Abort] {
            let (dag, a, b, c, d) = diamond();
            let plan = ExecPlan {
                policy,
                ..ExecPlan::default()
            };
            let run = execute(&dag, &plan, vec![None; 4], |id| {
                assert!(id != b, "detector bug in job {id}");
                Ok(())
            });
            assert_eq!(run.status[a], JobStatus::Ok);
            assert_eq!(
                run.status[b],
                JobStatus::Failed("panicked: detector bug in job 1".into())
            );
            assert_eq!(run.status[d], JobStatus::Poisoned { failed_dep: b });
            match policy {
                FailurePolicy::Continue => assert_eq!(run.status[c], JobStatus::Ok),
                FailurePolicy::Abort => assert!(run.aborted && !run.status[c].is_ok()),
            }
        }
    }

    #[test]
    fn barrier_runs_even_when_deps_fail() {
        let mut dag = Dag::new();
        let a = dag.add("a", &[]);
        let b = dag.add("b", &[]);
        let bar = dag.add_barrier("bar", &[a, b]);
        let run = execute(&dag, &ExecPlan::default(), vec![None; 3], |id| {
            if id == a {
                Err("x".into())
            } else {
                Ok(())
            }
        });
        assert_eq!(run.status[bar], JobStatus::Ok, "barrier tolerant of failed deps");
        assert_eq!(run.ran, 3);
    }

    #[test]
    fn abort_cancels_unstarted_but_barrier_still_fires() {
        // Serial + abort: job 0 fails, 1..=3 cancel, barrier still runs.
        let mut dag = Dag::new();
        let a = dag.add("a", &[]);
        let others: Vec<_> = (0..3).map(|i| dag.add(format!("o{i}"), &[])).collect();
        let mut all = vec![a];
        all.extend(&others);
        let bar = dag.add_barrier("bar", &all);
        let plan = ExecPlan {
            policy: FailurePolicy::Abort,
            ..ExecPlan::default()
        };
        let run = execute(&dag, &plan, vec![None; dag.len()], |id| {
            if id == a {
                Err("fatal".into())
            } else {
                Ok(())
            }
        });
        assert!(run.aborted);
        for &o in &others {
            assert_eq!(run.status[o], JobStatus::Cancelled);
        }
        assert_eq!(run.status[bar], JobStatus::Ok);
        assert_eq!(run.ran, 2, "failing job + barrier");
    }

    #[test]
    fn preset_failures_propagate_poison_without_running_or_aborting() {
        let (dag, a, b, c, d) = diamond();
        let mut preset = vec![None; 4];
        preset[a] = Some(JobStatus::Ok);
        preset[b] = Some(JobStatus::Failed("from manifest".into()));
        let plan = ExecPlan {
            policy: FailurePolicy::Abort,
            ..ExecPlan::default()
        };
        let run = execute(&dag, &plan, preset, |id| {
            assert_eq!(id, c, "only c actually runs");
            Ok(())
        });
        assert_eq!(run.ran, 1);
        assert_eq!(run.skipped, 2);
        assert_eq!(run.status[d], JobStatus::Poisoned { failed_dep: b });
        assert!(!run.aborted, "preset failures never trigger abort");
    }

    #[test]
    fn stop_after_jobs_suspends_and_marks_not_reached() {
        let mut dag = Dag::new();
        let ids: Vec<_> = (0..6).map(|i| dag.add(format!("j{i}"), &[])).collect();
        let bar = dag.add_barrier("bar", &ids);
        let plan = ExecPlan {
            stop_after_jobs: Some(2),
            ..ExecPlan::default()
        };
        let run = execute(&dag, &plan, vec![None; dag.len()], |_| Ok(()));
        assert!(run.suspended);
        assert_eq!(run.ran, 2);
        assert_eq!(run.status[ids[0]], JobStatus::Ok);
        assert_eq!(run.status[ids[1]], JobStatus::Ok);
        for &id in &ids[2..] {
            assert_eq!(run.status[id], JobStatus::NotReached);
        }
        assert_eq!(run.status[bar], JobStatus::NotReached, "no report on suspend");
    }

    #[test]
    #[should_panic(expected = "must be added first")]
    fn forward_dependency_is_rejected() {
        let mut dag = Dag::new();
        dag.add("bad", &[5]);
    }

    #[test]
    fn wedged_job_times_out_and_poisons_dependents() {
        let mut dag = Dag::new();
        let slow = dag.add("slow", &[]);
        let child = dag.add("child", &[slow]);
        let other = dag.add("other", &[]);
        let bar = dag.add_barrier("bar", &[slow, child, other]);
        let plan = ExecPlan {
            max_parallel: 2,
            job_timeout: Some(Duration::from_millis(30)),
            ..ExecPlan::default()
        };
        let run = execute(&dag, &plan, vec![None; dag.len()], |id| {
            if id == slow {
                // Finite wedge: long past the deadline, short enough
                // that the pool still drains once the DAG has settled.
                std::thread::sleep(Duration::from_millis(300));
            }
            Ok(())
        });
        assert_eq!(
            run.status[slow],
            JobStatus::Failed("timed out after 30ms".into())
        );
        assert_eq!(run.status[child], JobStatus::Poisoned { failed_dep: slow });
        assert_eq!(run.status[other], JobStatus::Ok, "sibling unaffected");
        assert_eq!(run.status[bar], JobStatus::Ok, "barrier still fires");
        assert!(run.any_failed());
        assert!(!run.aborted && !run.suspended);
    }

    #[test]
    fn flaky_job_retries_within_budget_and_succeeds() {
        let (dag, a, b, _c, d) = diamond();
        let b_failures = AtomicU64::new(0);
        let plan = ExecPlan {
            job_retries: 2,
            ..ExecPlan::default()
        };
        let run = execute(&dag, &plan, vec![None; 4], |id| {
            if id == b && b_failures.fetch_add(1, Ordering::SeqCst) < 2 {
                Err("flaky".into())
            } else {
                Ok(())
            }
        });
        assert!(run.status.iter().all(JobStatus::is_ok), "{:?}", run.status);
        assert_eq!(run.retried, 2);
        assert_eq!(run.ran, 6, "4 jobs + 2 extra attempts of b");
        assert_eq!(run.status[a], JobStatus::Ok);
        assert_eq!(run.status[d], JobStatus::Ok, "dependents unharmed");
    }

    #[test]
    fn exhausted_retry_budget_settles_failed_and_poisons() {
        let (dag, _a, b, _c, d) = diamond();
        let plan = ExecPlan {
            job_retries: 2,
            ..ExecPlan::default()
        };
        let run = execute(&dag, &plan, vec![None; 4], |id| {
            if id == b {
                Err("hard".into())
            } else {
                Ok(())
            }
        });
        assert_eq!(run.status[b], JobStatus::Failed("hard".into()));
        assert_eq!(run.status[d], JobStatus::Poisoned { failed_dep: b });
        assert_eq!(run.retried, 2, "budget fully spent before settling");
        assert!(run.any_failed());
    }

    #[test]
    fn timed_out_job_retries_and_the_stale_result_is_discarded() {
        let mut dag = Dag::new();
        let slow = dag.add("slow", &[]);
        let child = dag.add("child", &[slow]);
        let plan = ExecPlan {
            max_parallel: 2,
            job_timeout: Some(Duration::from_millis(40)),
            job_retries: 1,
            ..ExecPlan::default()
        };
        let tries = AtomicU64::new(0);
        let run = execute(&dag, &plan, vec![None; dag.len()], |id| {
            if id == slow && tries.fetch_add(1, Ordering::SeqCst) == 0 {
                // First attempt wedges long past the deadline; its late
                // Ok must not settle the job (the retry's verdict wins).
                std::thread::sleep(Duration::from_millis(250));
            }
            Ok(())
        });
        assert_eq!(run.status[slow], JobStatus::Ok, "retry succeeded");
        assert_eq!(run.status[child], JobStatus::Ok, "no poison leaked");
        assert_eq!(run.retried, 1);
        assert!(tries.load(Ordering::SeqCst) >= 2, "job actually re-ran");
    }

    #[test]
    fn fast_jobs_never_trip_the_watchdog() {
        let (dag, ..) = diamond();
        let plan = ExecPlan {
            job_timeout: Some(Duration::from_secs(30)),
            ..ExecPlan::default()
        };
        let run = execute(&dag, &plan, vec![None; 4], |_| Ok(()));
        assert!(run.status.iter().all(JobStatus::is_ok));
        assert_eq!(run.ran, 4);
    }
}
