//! The corpus worker pool: runs a list of independent jobs on a std-only
//! pool of scoped threads and journals each job's outcome.
//!
//! The pool knows nothing about traces, only job ids, a runner closure
//! that does a job's work, and a record closure that journals the
//! outcome. Scheduling rules (DESIGN §S41):
//!
//! * at most `max_parallel` jobs run at once, and the lowest ready id
//!   dispatches first, so a `--max-parallel 1` run executes in one
//!   canonical order;
//! * under [`FailurePolicy::Abort`] a fresh failure settles every job not
//!   yet started [`JobStatus::Cancelled`]; running jobs drain;
//! * `stop_after_jobs: Some(n)` suspends dispatch after `n` runner
//!   completions (the kill-midway hook for resume tests); jobs never
//!   dispatched settle as [`JobStatus::NotReached`];
//! * `job_timeout: Some(t)` arms a watchdog: a job running past its
//!   deadline fails with `timed out after Nms`, and a fresh worker takes
//!   its slot while the wedged runner drains in its old worker, which
//!   leaves the pool once the runner returns;
//! * a runner that panics fails its job like one that returns `Err`,
//!   with the panic's message: one detector panic costs its job, not
//!   the run;
//! * `job_retries: n` re-queues a failed or timed-out job up to `n`
//!   times before it settles [`JobStatus::Failed`], so a transient
//!   failure (a flaky filesystem, a timeout on a loaded machine) does
//!   not fail the job on its first strike.
//!
//! Each dispatch carries a generation number, and only the live
//! generation's outcome settles its job: a timed-out runner's late
//! result is discarded, never recorded.

#![warn(missing_docs)]

use futrace_util::propcheck::panic_message;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::thread::Scope;
use std::time::{Duration, Instant};

/// Index of a job (dense, in the order the caller numbers them).
pub(crate) type JobId = usize;

/// What to do with the rest of the corpus when a job fails.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailurePolicy {
    /// Keep running every other job.
    Continue,
    /// Stop dispatching: running jobs drain, and every job not yet
    /// started settles cancelled. The report still records the abort.
    Abort,
}

/// Terminal state of one job after `execute` returns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum JobStatus {
    /// The runner returned `Ok`, or the job was preset as complete
    /// (resume skip).
    Ok,
    /// The runner returned `Err(message)`, panicked (the message is then
    /// `panicked: ` and the panic's text) or timed out, recording the
    /// outcome failed, or the job was preset as failed by a resume
    /// manifest.
    Failed(String),
    /// Never ran: the run aborted under [`FailurePolicy::Abort`].
    Cancelled,
    /// Never ran: dispatch suspended first (`stop_after_jobs`).
    NotReached,
}

impl JobStatus {
    /// True for [`JobStatus::Ok`].
    pub(crate) fn is_ok(&self) -> bool {
        matches!(self, JobStatus::Ok)
    }
}

/// Execution parameters for `execute`.
#[derive(Debug)]
pub(crate) struct ExecPlan {
    /// Worker-pool width (≥ 1).
    pub max_parallel: usize,
    /// Failure policy (continue vs abort).
    pub policy: FailurePolicy,
    /// Suspend dispatch after this many runner completions (resume-test
    /// hook). `None` runs to completion.
    pub stop_after_jobs: Option<u64>,
    /// Per-job wall-clock deadline. A job still running past it fails,
    /// and a fresh worker takes its slot, so at most `max_parallel` live
    /// jobs run and the rest of the corpus goes on past a wedged job. The
    /// runner itself is not killed: its worker leaves the pool once it
    /// returns, its late result is discarded, and the run ends only then.
    /// `None` disables the watchdog.
    pub job_timeout: Option<Duration>,
    /// Re-queue a failed or timed-out job up to this many times before
    /// it settles [`JobStatus::Failed`]. A timed-out job's replacement
    /// may run concurrently with the wedged original, so runners must
    /// tolerate re-execution. 0 = settle on the first failure.
    pub job_retries: u64,
}

/// Outcome of one `execute` call.
#[derive(Debug)]
pub(crate) struct PoolRun {
    /// Terminal status per job, indexed by [`JobId`].
    pub status: Vec<JobStatus>,
    /// Runner completions (timeouts and retried attempts included).
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

impl PoolRun {
    /// True iff any job settled [`JobStatus::Failed`] (preset failures
    /// included).
    pub(crate) fn any_failed(&self) -> bool {
        self.status
            .iter()
            .any(|s| matches!(s, JobStatus::Failed(_)))
    }
}

enum Slot {
    /// Waiting in the ready heap.
    Ready,
    Running {
        started: Instant,
        /// Dispatch generation (= the job's attempt count at dispatch).
        /// A worker's result only settles the job if the slot still
        /// holds the generation it dispatched under; a timed-out job's
        /// stale runner fails this check.
        gen: u64,
    },
    Settled(JobStatus),
}

struct ExecState {
    slots: Vec<Slot>,
    /// Exactly the [`Slot::Ready`] jobs, lowest id on top.
    ready: BinaryHeap<Reverse<JobId>>,
    settled: usize,
    ran: u64,
    aborting: bool,
    suspended: bool,
    /// Failures absorbed so far, per job (caps at `plan.job_retries`).
    attempts: Vec<u64>,
}

struct Pool<'a, R> {
    plan: &'a ExecPlan,
    state: Mutex<ExecState>,
    cv: Condvar,
    record: R,
}

impl<R> Pool<'_, R> {
    fn lock(&self) -> MutexGuard<'_, ExecState> {
        self.state
            .lock()
            .expect("no pool thread panics holding the lock")
    }
}

/// Runs one job per `preset` slot on a pool of `plan.max_parallel`
/// scoped threads.
///
/// `preset[id] = Some(status)` settles job `id` up front without running
/// or recording it: the resume path, for jobs a prior run's manifest
/// recorded. Preset failures do **not** trigger the abort policy (the
/// previous run already reacted to them); only fresh failures do.
///
/// `runner` is called concurrently from pool threads. `record` is called
/// under the pool's lock, once for each job that settles fresh, with the
/// live attempt's result or the timeout error; an `Err` from `record`
/// fails the job with that message.
///
/// # Panics
///
/// Panics if `plan.max_parallel == 0`.
pub(crate) fn execute<T, F, R>(
    plan: &ExecPlan,
    preset: Vec<Option<JobStatus>>,
    runner: F,
    record: R,
) -> PoolRun
where
    F: Fn(JobId) -> Result<T, String> + Sync,
    R: Fn(JobId, &Result<T, String>) -> Result<(), String> + Sync,
{
    assert!(plan.max_parallel >= 1, "max_parallel must be >= 1");
    let skipped = preset.iter().flatten().count();
    let slots: Vec<Slot> = preset
        .into_iter()
        .map(|p| p.map_or(Slot::Ready, Slot::Settled))
        .collect();
    let ready = (0..slots.len())
        .filter(|&id| matches!(slots[id], Slot::Ready))
        .map(Reverse)
        .collect();
    let jobs = slots.len();
    let pool = Pool {
        plan,
        state: Mutex::new(ExecState {
            slots,
            ready,
            settled: skipped,
            ran: 0,
            aborting: false,
            suspended: false,
            attempts: vec![0; jobs],
        }),
        cv: Condvar::new(),
        record,
    };

    std::thread::scope(|scope| {
        for _ in 0..plan.max_parallel {
            scope.spawn(|| worker(&pool, &runner));
        }
        if let Some(timeout) = plan.job_timeout {
            let (pool, runner) = (&pool, &runner);
            scope.spawn(move || timekeeper(scope, pool, runner, timeout));
        }
    });

    let st = pool
        .state
        .into_inner()
        .expect("no pool thread panics holding the lock");
    let status = st
        .slots
        .into_iter()
        .map(|s| match s {
            Slot::Settled(js) => js,
            _ => unreachable!("all jobs settle before the pool drains"),
        })
        .collect();
    PoolRun {
        status,
        ran: st.ran,
        skipped: skipped as u64,
        aborted: st.aborting,
        suspended: st.suspended,
        retried: st.attempts.iter().sum(),
    }
}

fn worker<T, F, R>(pool: &Pool<'_, R>, runner: &F)
where
    F: Fn(JobId) -> Result<T, String>,
    R: Fn(JobId, &Result<T, String>) -> Result<(), String>,
{
    let mut st = pool.lock();
    loop {
        if st.settled == st.slots.len() {
            pool.cv.notify_all();
            return;
        }
        let Some(Reverse(id)) = st.ready.pop() else {
            // Every unsettled job is running in another worker; wait for
            // one to settle or be re-queued.
            st = pool
                .cv
                .wait(st)
                .expect("no pool thread panics holding the lock");
            continue;
        };
        let gen = st.attempts[id];
        st.slots[id] = Slot::Running {
            started: Instant::now(),
            gen,
        };
        drop(st);
        // A panicking runner fails its own job, like an `Err`: the pool
        // keeps its worker and the run its report.
        let outcome = catch_unwind(AssertUnwindSafe(|| runner(id)))
            .unwrap_or_else(|payload| Err(format!("panicked: {}", panic_message(payload))));
        st = pool.lock();
        // The timekeeper may have failed this job (or failed and
        // re-queued it) while the runner was still going, and started a
        // fresh worker in this one's place: the stale result is
        // discarded, and this worker leaves the pool.
        if !matches!(st.slots[id], Slot::Running { gen: live, .. } if live == gen) {
            return;
        }
        st.ran += 1;
        conclude(pool, &mut st, id, outcome);
        pool.cv.notify_all();
    }
}

/// Settles `id` with its live attempt's outcome and records it, or
/// re-queues a failure while the job's retry budget lasts and the run is
/// not winding down. Then applies the abort and suspend policies.
fn conclude<T, R>(pool: &Pool<'_, R>, st: &mut ExecState, id: JobId, outcome: Result<T, String>)
where
    R: Fn(JobId, &Result<T, String>) -> Result<(), String>,
{
    let plan = pool.plan;
    if outcome.is_err() && st.attempts[id] < plan.job_retries && !st.aborting && !st.suspended {
        // Bumping the attempt count makes any still-draining runner of
        // the previous attempt recognizably stale.
        st.attempts[id] += 1;
        st.slots[id] = Slot::Ready;
        st.ready.push(Reverse(id));
    } else {
        let status = match (pool.record)(id, &outcome).and(outcome.map(|_| ())) {
            Ok(()) => JobStatus::Ok,
            Err(msg) => JobStatus::Failed(msg),
        };
        let failed = !status.is_ok();
        st.slots[id] = Slot::Settled(status);
        st.settled += 1;
        if failed && plan.policy == FailurePolicy::Abort && !st.aborting {
            st.aborting = true;
            settle_unstarted(st, JobStatus::Cancelled);
        }
    }
    if plan
        .stop_after_jobs
        .is_some_and(|n| st.ran >= n && !st.suspended && st.settled < st.slots.len())
    {
        st.suspended = true;
        settle_unstarted(st, JobStatus::NotReached);
    }
}

/// Settles every job not yet dispatched as `status`.
fn settle_unstarted(st: &mut ExecState, status: JobStatus) {
    for Reverse(id) in st.ready.drain() {
        st.slots[id] = Slot::Settled(status.clone());
        st.settled += 1;
    }
}

/// Watchdog loop (one thread, spawned only when `job_timeout` is set):
/// fails any job running past its deadline and starts a fresh worker in
/// `scope` to take its slot, while the wedged runner drains in its old
/// worker, which then leaves.
fn timekeeper<'scope, T, F, R>(
    scope: &'scope Scope<'scope, '_>,
    pool: &'scope Pool<'_, R>,
    runner: &'scope F,
    timeout: Duration,
) where
    F: Fn(JobId) -> Result<T, String> + Sync,
    R: Fn(JobId, &Result<T, String>) -> Result<(), String> + Sync,
{
    let mut st = pool.lock();
    while st.settled < st.slots.len() {
        let now = Instant::now();
        let mut next_deadline: Option<Instant> = None;
        let mut expired = Vec::new();
        for (id, slot) in st.slots.iter().enumerate() {
            if let Slot::Running { started, .. } = *slot {
                let deadline = started + timeout;
                if deadline <= now {
                    expired.push(id);
                } else {
                    next_deadline = Some(next_deadline.map_or(deadline, |n| n.min(deadline)));
                }
            }
        }
        if !expired.is_empty() {
            for id in expired {
                st.ran += 1;
                let timed_out = Err(format!("timed out after {}ms", timeout.as_millis()));
                conclude::<T, R>(pool, &mut st, id, timed_out);
                scope.spawn(move || worker(pool, runner));
            }
            pool.cv.notify_all();
            continue;
        }
        // Sleep until the earliest live deadline (or one timeout period
        // when nothing is running); settles wake us early via the condvar.
        let wait = next_deadline
            .map_or(timeout, |n| n.saturating_duration_since(now))
            .max(Duration::from_millis(1));
        st = pool
            .cv
            .wait_timeout(st, wait)
            .expect("no pool thread panics holding the lock")
            .0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Every `record` call, in call order.
    type Recorded = Vec<(JobId, Result<(), String>)>;

    /// Runs one job per `preset` slot and returns the run plus its
    /// `record` calls.
    fn run(
        plan: &ExecPlan,
        preset: Vec<Option<JobStatus>>,
        runner: impl Fn(JobId) -> Result<(), String> + Sync,
    ) -> (PoolRun, Recorded) {
        let recorded = Mutex::new(Vec::new());
        let run = execute(plan, preset, runner, |id, outcome: &Result<(), String>| {
            recorded.lock().unwrap().push((id, outcome.clone()));
            Ok(())
        });
        (run, recorded.into_inner().unwrap())
    }

    fn plan() -> ExecPlan {
        ExecPlan {
            max_parallel: 1,
            policy: FailurePolicy::Continue,
            stop_after_jobs: None,
            job_timeout: None,
            job_retries: 0,
        }
    }

    #[test]
    fn serial_execution_runs_and_records_in_id_order() {
        let order = Mutex::new(Vec::new());
        let (run, recorded) = run(&plan(), vec![None; 4], |id| {
            order.lock().unwrap().push(id);
            Ok(())
        });
        assert_eq!(order.into_inner().unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(recorded, (0..4).map(|id| (id, Ok(()))).collect::<Vec<_>>());
        assert_eq!(run.ran, 4);
        assert!(run.status.iter().all(JobStatus::is_ok));
        assert!(!run.aborted && !run.suspended);
    }

    #[test]
    fn parallelism_never_exceeds_cap_and_all_jobs_run() {
        let live = AtomicU64::new(0);
        let peak = AtomicU64::new(0);
        let plan = ExecPlan {
            max_parallel: 3,
            ..plan()
        };
        let (run, recorded) = run(&plan, vec![None; 40], |_| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(1));
            live.fetch_sub(1, Ordering::SeqCst);
            Ok(())
        });
        assert_eq!(run.ran, 40);
        assert_eq!(recorded.len(), 40);
        assert!(peak.load(Ordering::SeqCst) <= 3);
    }

    #[test]
    fn a_panicking_runner_fails_only_its_job() {
        for policy in [FailurePolicy::Continue, FailurePolicy::Abort] {
            let plan = ExecPlan { policy, ..plan() };
            let (run, recorded) = run(&plan, vec![None; 4], |id| {
                assert!(id != 1, "detector bug in job {id}");
                Ok(())
            });
            let msg = "panicked: detector bug in job 1".to_string();
            assert_eq!(run.status[0], JobStatus::Ok);
            assert_eq!(run.status[1], JobStatus::Failed(msg.clone()));
            assert!(recorded.contains(&(1, Err(msg))));
            match policy {
                FailurePolicy::Continue => assert!(run.status[2..].iter().all(JobStatus::is_ok)),
                FailurePolicy::Abort => {
                    assert!(run.aborted);
                    assert_eq!(
                        run.status[2..],
                        [JobStatus::Cancelled, JobStatus::Cancelled]
                    );
                }
            }
        }
    }

    #[test]
    fn abort_cancels_unstarted_jobs() {
        let plan = ExecPlan {
            policy: FailurePolicy::Abort,
            ..plan()
        };
        let (run, recorded) = run(&plan, vec![None; 4], |id| {
            if id == 0 {
                Err("fatal".into())
            } else {
                Ok(())
            }
        });
        assert!(run.aborted);
        assert_eq!(run.status[0], JobStatus::Failed("fatal".into()));
        assert!(run.status[1..].iter().all(|s| *s == JobStatus::Cancelled));
        assert_eq!(run.ran, 1, "only the failing job ran");
        assert_eq!(recorded, vec![(0, Err("fatal".into()))]);
    }

    #[test]
    fn presets_settle_without_running_recording_or_aborting() {
        let mut preset = vec![None; 4];
        preset[0] = Some(JobStatus::Ok);
        preset[1] = Some(JobStatus::Failed("from manifest".into()));
        let plan = ExecPlan {
            policy: FailurePolicy::Abort,
            ..plan()
        };
        let (run, recorded) = run(&plan, preset, |id| {
            assert!(id >= 2, "preset job {id} must not run");
            Ok(())
        });
        assert_eq!(run.ran, 2);
        assert_eq!(run.skipped, 2);
        assert_eq!(run.status[1], JobStatus::Failed("from manifest".into()));
        assert_eq!(recorded, vec![(2, Ok(())), (3, Ok(()))]);
        assert!(run.any_failed());
        assert!(!run.aborted, "preset failures never trigger abort");
    }

    #[test]
    fn stop_after_jobs_suspends_and_marks_not_reached() {
        let plan = ExecPlan {
            stop_after_jobs: Some(2),
            ..plan()
        };
        let (run, recorded) = run(&plan, vec![None; 6], |_| Ok(()));
        assert!(run.suspended);
        assert_eq!(run.ran, 2);
        assert_eq!(run.status[..2], [JobStatus::Ok, JobStatus::Ok]);
        assert!(run.status[2..].iter().all(|s| *s == JobStatus::NotReached));
        assert_eq!(recorded.len(), 2);
    }

    #[test]
    fn a_failing_record_fails_its_job() {
        let run = execute(
            &plan(),
            vec![None; 2],
            |_| Ok(()),
            |id, _: &Result<(), String>| {
                if id == 0 {
                    Err("manifest append failed: disk full".into())
                } else {
                    Ok(())
                }
            },
        );
        assert_eq!(
            run.status,
            [
                JobStatus::Failed("manifest append failed: disk full".into()),
                JobStatus::Ok
            ]
        );
    }

    #[test]
    fn wedged_job_times_out_and_its_late_ok_is_never_recorded() {
        let plan = ExecPlan {
            max_parallel: 2,
            job_timeout: Some(Duration::from_millis(30)),
            ..plan()
        };
        let (run, recorded) = run(&plan, vec![None; 2], |id| {
            if id == 0 {
                // Finite wedge: long past the deadline, short enough
                // that the pool still drains once every job has settled.
                std::thread::sleep(Duration::from_millis(300));
            }
            Ok(())
        });
        let timed_out = "timed out after 30ms".to_string();
        assert_eq!(run.status[0], JobStatus::Failed(timed_out.clone()));
        assert_eq!(run.status[1], JobStatus::Ok, "sibling unaffected");
        let mut recorded = recorded;
        recorded.sort();
        assert_eq!(recorded, vec![(0, Err(timed_out)), (1, Ok(()))]);
        assert!(run.any_failed());
        assert!(!run.aborted && !run.suspended);
    }

    #[test]
    fn a_timed_out_job_hands_its_slot_to_the_rest_of_the_corpus() {
        // One slot, and job 0 wedges past its deadline. When it times
        // out a fresh worker takes the slot, so job 1 starts before job
        // 0's runner returns; the wedged worker leaves once it does, so
        // the live jobs never overlap.
        let plan = ExecPlan {
            job_timeout: Some(Duration::from_millis(100)),
            ..plan()
        };
        let start = Instant::now();
        let wedged_returned = Mutex::new(None);
        let next_started = Mutex::new(None);
        let live = AtomicU64::new(0);
        let peak = AtomicU64::new(0);
        let (run, _) = run(&plan, vec![None; 21], |id| {
            if id == 0 {
                std::thread::sleep(Duration::from_millis(250));
                *wedged_returned.lock().unwrap() = Some(start.elapsed());
                return Ok(());
            }
            next_started.lock().unwrap().get_or_insert(start.elapsed());
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(15));
            live.fetch_sub(1, Ordering::SeqCst);
            Ok(())
        });
        assert_eq!(
            run.status[0],
            JobStatus::Failed("timed out after 100ms".into())
        );
        assert!(
            run.status[1..].iter().all(JobStatus::is_ok),
            "{:?}",
            run.status
        );
        let returned = wedged_returned.into_inner().unwrap().unwrap();
        let started = next_started.into_inner().unwrap().unwrap();
        assert!(
            started < returned,
            "job 1 started at {started:?}, after job 0's runner returned at {returned:?}"
        );
        assert_eq!(peak.load(Ordering::SeqCst), 1, "live jobs overlapped");
    }

    #[test]
    fn flaky_job_retries_within_budget_and_succeeds() {
        let failures = AtomicU64::new(0);
        let plan = ExecPlan {
            job_retries: 2,
            ..plan()
        };
        let (run, recorded) = run(&plan, vec![None; 4], |id| {
            if id == 1 && failures.fetch_add(1, Ordering::SeqCst) < 2 {
                Err("flaky".into())
            } else {
                Ok(())
            }
        });
        assert!(run.status.iter().all(JobStatus::is_ok), "{:?}", run.status);
        assert_eq!(run.retried, 2);
        assert_eq!(run.ran, 6, "4 jobs + 2 extra attempts of job 1");
        assert_eq!(recorded, (0..4).map(|id| (id, Ok(()))).collect::<Vec<_>>());
    }

    #[test]
    fn exhausted_retry_budget_settles_failed() {
        let plan = ExecPlan {
            job_retries: 2,
            ..plan()
        };
        let (run, recorded) = run(&plan, vec![None; 4], |id| {
            if id == 1 {
                Err("hard".into())
            } else {
                Ok(())
            }
        });
        assert_eq!(run.status[1], JobStatus::Failed("hard".into()));
        assert_eq!(run.retried, 2, "budget fully spent before settling");
        assert!(run.any_failed());
        assert!(recorded.contains(&(1, Err("hard".into()))));
        assert_eq!(recorded.len(), 4, "a retried failure is recorded once");
    }

    #[test]
    fn timed_out_job_retries_and_the_stale_result_is_discarded() {
        let plan = ExecPlan {
            max_parallel: 2,
            job_timeout: Some(Duration::from_millis(40)),
            job_retries: 1,
            ..plan()
        };
        let tries = AtomicU64::new(0);
        let (run, recorded) = run(&plan, vec![None; 2], |id| {
            if id == 0 && tries.fetch_add(1, Ordering::SeqCst) == 0 {
                // First attempt wedges long past the deadline; its late
                // Ok must not settle the job (the retry's verdict wins).
                std::thread::sleep(Duration::from_millis(250));
            }
            Ok(())
        });
        assert_eq!(run.status, [JobStatus::Ok, JobStatus::Ok]);
        assert_eq!(run.retried, 1);
        assert!(tries.load(Ordering::SeqCst) >= 2, "job actually re-ran");
        assert_eq!(recorded.iter().filter(|(id, _)| *id == 0).count(), 1);
    }

    #[test]
    fn fast_jobs_never_trip_the_watchdog() {
        let plan = ExecPlan {
            job_timeout: Some(Duration::from_secs(30)),
            ..plan()
        };
        let (run, _) = run(&plan, vec![None; 4], |_| Ok(()));
        assert!(run.status.iter().all(JobStatus::is_ok));
        assert_eq!(run.ran, 4);
    }
}
