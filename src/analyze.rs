//! `Analyze` — the one front door for DTRG race detection.
//!
//! One builder runs the detector over any source, through any backend:
//!
//! ```
//! use futrace::Analyze;
//! use futrace::runtime::TaskCtx;
//!
//! let outcome = Analyze::program(|ctx| {
//!     let x = ctx.shared_var(0u64, "x");
//!     let x2 = x.clone();
//!     let f = ctx.future(move |ctx| x2.write(ctx, 1));
//!     ctx.get(&f);
//!     let _ = x.read(ctx);
//! })
//! .run()
//! .unwrap();
//! assert!(!outcome.has_races());
//! assert_eq!(outcome.stats.shared_mem(), 2);
//! ```
//!
//! Every run — program, trace file, trace blob, or event slice; serial,
//! sharded, or supervised — produces the same [`AnalysisOutcome`]: races,
//! detector statistics, measured footprint, engine counters (with the
//! hot-path cache hit/miss totals filled in), and the optional
//! sharding/supervision accounting. Sources and options compose:
//! `Analyze::trace(path).shards(4).checkpoint_every(8).run()` replays a
//! recorded trace through the supervised sharded pipeline.
//!
//! The builder resolves the source (running and recording a program,
//! reading a trace file) and replays it through the backend the options
//! ask for: the serial engine, or the offline shard stage
//! (`futrace_offline::run_supervised`), plain or supervised, whose merged
//! reports are identical to serial by the stage's own equivalence tests.
//! A trace blob or event slice is borrowed, never copied. `tracetool
//! serve` checks streamed chunks with a live engine instead
//! ([`crate::service::Session`]), whose verdict is byte-identical.
//!
//! A program source is recorded to an [`EventLog`] and replayed through
//! the engine's batched dispatch path. The serial executor is
//! deterministic, so the replayed verdict is identical to a live run's
//! (the equivalence the replay test suite pins down) — and it lets the
//! same program feed the serial, sharded, and supervised backends
//! unchanged.

use crate::detector::{DetectorConfig, RaceDetector};
use crate::offline::{
    event_chunks, run_supervised, trace_chunks, SuperviseError, SupervisedOutcome, SupervisorPlan,
    TraceError,
};
use crate::runtime::engine::{run_analysis, run_analysis_recorded, source, Analysis, Engine};
use crate::runtime::online::{run_online, OnlineOptions};
use crate::runtime::{run_serial, Event, EventLog, ParCtx, SerialCtx};
use crate::util::faultinject::FaultPlan;
use crate::util::stats::Timer;

pub use crate::service::AnalysisOutcome;

/// Why an [`Analyze::run`] failed. Program and event-slice sources are
/// infallible; the variants cover trace I/O, trace decoding, and
/// supervised-pipeline failures.
#[derive(Debug)]
pub enum AnalyzeError {
    /// Reading the trace file failed.
    Io(String, std::io::Error),
    /// The trace blob failed to decode (strict mode, or unrecoverable
    /// structural damage in lenient mode).
    Trace(TraceError),
    /// The supervised pipeline could not complete the run.
    Supervise(String),
    /// The builder options are inconsistent (e.g. zero shards or a zero
    /// checkpoint interval) — reported before any work runs, never a
    /// panic deep in a backend.
    Config(String),
    /// The instrumented parallel execution deadlocked (a `get()` cycle,
    /// Appendix A). The detector saw only the prefix executed before the
    /// stall, so no verdict is returned.
    Deadlock(String),
}

impl std::fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalyzeError::Io(path, e) => write!(f, "cannot read trace {path}: {e}"),
            AnalyzeError::Trace(e) => write!(f, "invalid trace: {e}"),
            AnalyzeError::Supervise(e) => write!(f, "supervised run failed: {e}"),
            AnalyzeError::Config(e) => write!(f, "invalid analysis options: {e}"),
            AnalyzeError::Deadlock(e) => write!(f, "parallel execution deadlocked: {e}"),
        }
    }
}

impl std::error::Error for AnalyzeError {}

impl From<TraceError> for AnalyzeError {
    fn from(e: TraceError) -> Self {
        AnalyzeError::Trace(e)
    }
}

type Program<'a> = Box<dyn FnOnce(&mut SerialCtx<EventLog>) + 'a>;
type ParProgram<'a> = Box<dyn FnOnce(&mut ParCtx) + Send + 'a>;

enum Source<'a> {
    Program(Program<'a>),
    ParallelProgram { threads: usize, f: ParProgram<'a> },
    TracePath(String),
    TraceBytes(&'a [u8]),
    Events(&'a [Event]),
}

/// The options an [`Analyze`] run was configured with.
#[derive(Default)]
struct Options {
    config: DetectorConfig,
    shards: Option<usize>,
    checkpoint_every: Option<u64>,
    fault_seed: Option<u64>,
    lenient: bool,
    steal_seed: Option<u64>,
}

/// Builder for one DTRG analysis run. Construct with
/// [`Analyze::program`], [`Analyze::trace`], [`Analyze::trace_bytes`], or
/// [`Analyze::events`]; configure; then [`Analyze::run`].
pub struct Analyze<'a> {
    source: Source<'a>,
    opts: Options,
}

impl<'a> Analyze<'a> {
    fn new(source: Source<'a>) -> Self {
        Analyze {
            source,
            opts: Options::default(),
        }
    }
    /// Analyzes a serial depth-first execution of `f`, a program written
    /// against the task DSL ([`crate::runtime::TaskCtx`]). The execution
    /// is recorded and replayed through the configured backend; the
    /// serial executor is deterministic, so the verdict is identical to a
    /// live run's.
    pub fn program<F>(f: F) -> Self
    where
        F: FnOnce(&mut SerialCtx<EventLog>) + 'a,
    {
        Analyze::new(Source::Program(Box::new(f)))
    }

    /// Analyzes an *instrumented parallel* execution of `f` on `threads`
    /// worker threads — detection happens online, while the program runs.
    /// Per-task access buffers are merged at scheduler sync points, and
    /// a canonical walker reconstructs the serial-elision stream and
    /// feeds it to one detector engine on its own thread, concurrently
    /// with execution. The verdict is byte-identical to
    /// [`Analyze::program`] on the same program: same races, same
    /// indices, same statistics — held by the online equivalence
    /// propcheck. The outcome's `online` field carries the pipeline
    /// telemetry.
    ///
    /// Trace-replay options ([`Analyze::shards`],
    /// [`Analyze::checkpoint_every`], [`Analyze::fault_plan`],
    /// [`Analyze::lenient`]) do not apply to a live parallel execution
    /// and are [`AnalyzeError::Config`] errors.
    pub fn program_parallel<F>(threads: usize, f: F) -> Self
    where
        F: FnOnce(&mut ParCtx) + Send + 'a,
    {
        Analyze::new(Source::ParallelProgram {
            threads,
            f: Box::new(f),
        })
    }

    /// Analyzes a recorded trace file (flat v1 or framed v2, sniffed by
    /// magic).
    pub fn trace(path: impl Into<String>) -> Self {
        Analyze::new(Source::TracePath(path.into()))
    }

    /// Analyzes an in-memory trace blob (flat v1 or framed v2).
    pub fn trace_bytes(blob: &'a [u8]) -> Self {
        Analyze::new(Source::TraceBytes(blob))
    }

    /// Analyzes an already-decoded event slice (an [`EventLog`]'s
    /// events).
    pub fn events(events: &'a [Event]) -> Self {
        Analyze::new(Source::Events(events))
    }

    /// Uses an explicit detector configuration (report caps, first-race
    /// mode, hot-path caching).
    pub fn detector(mut self, config: DetectorConfig) -> Self {
        self.opts.config = config;
        self
    }

    /// Runs the sharded offline backend with `n` detect workers
    /// (verdict identical to the serial run's).
    pub fn shards(mut self, n: usize) -> Self {
        self.opts.shards = Some(n);
        self
    }

    /// Runs under the fault-tolerant supervisor, barrier-snapshotting
    /// every `chunks` chunk boundaries so dead or stalled workers restart
    /// from the last snapshot. After each shard's first full snapshot, a
    /// barrier saves only the cells the shard checked since its last one,
    /// until those deltas add up to the full one's size.
    pub fn checkpoint_every(mut self, chunks: u64) -> Self {
        self.opts.checkpoint_every = Some(chunks);
        self
    }

    /// Injects the deterministic fault plan expanded from `seed` (worker
    /// panics/stalls; see `FaultPlan::from_seed`) and runs under the
    /// supervisor, which must recover without changing the verdict.
    pub fn fault_plan(mut self, seed: u64) -> Self {
        self.opts.fault_seed = Some(seed);
        self
    }

    /// Reads a framed trace leniently: a damaged chunk (CRC mismatch,
    /// undecodable payload, or an event count other than its header's) is
    /// dropped whole and counted instead of failing the run, on the
    /// serial, sharded and supervised backends alike. A truncation or a
    /// bad header still fails it, as does any damage in a flat v1 trace,
    /// which has no chunks to drop.
    pub fn lenient(mut self, lenient: bool) -> Self {
        self.opts.lenient = lenient;
        self
    }

    /// Seeds randomized steal order for [`Analyze::program_parallel`]
    /// (schedule exploration: different seeds exercise different
    /// interleavings; the verdict is canonical regardless). Only
    /// meaningful for the parallel-program source.
    pub fn steal_seed(mut self, seed: u64) -> Self {
        self.opts.steal_seed = Some(seed);
        self
    }

    /// Runs the configured analysis: resolve the source, then replay it
    /// through the backend the options ask for.
    pub fn run(self) -> Result<AnalysisOutcome, AnalyzeError> {
        let Analyze { source, opts } = self;
        if let Source::ParallelProgram { threads, f } = source {
            return opts.online(threads, f);
        }
        if opts.steal_seed.is_some() {
            return Err(AnalyzeError::Config(
                "steal_seed() applies only to program_parallel sources".into(),
            ));
        }
        if opts.shards == Some(0) {
            return Err(AnalyzeError::Config(
                "shards(0): the sharded backend needs at least one detect worker".into(),
            ));
        }
        if opts.checkpoint_every == Some(0) {
            return Err(AnalyzeError::Config(
                "checkpoint_every(0): the checkpoint interval must be at least one chunk".into(),
            ));
        }
        match source {
            Source::Program(f) => {
                let mut log = EventLog::new();
                run_serial(&mut log, f);
                opts.events(&log.events)
            }
            Source::TracePath(path) => {
                let data = std::fs::read(&path).map_err(|e| AnalyzeError::Io(path, e))?;
                opts.trace(&data)
            }
            Source::TraceBytes(b) => opts.trace(b),
            Source::Events(e) => opts.events(e),
            Source::ParallelProgram { .. } => unreachable!("dispatched above"),
        }
    }
}

impl Options {
    fn detector(&self) -> RaceDetector {
        RaceDetector::with_config(self.config.clone())
    }

    /// Builds the shard stage's detectors. A non-generic method, so both
    /// replay inputs hand the stage one closure type and its supervisor
    /// is compiled once; a copy per input measured about 10% slower on
    /// the loop kernels' sharded runs.
    fn factory(&self) -> impl Fn() -> RaceDetector + '_ {
        move || self.detector()
    }

    /// Snapshots and faults ask for the full supervisor; plain `shards`
    /// runs the same stage with nothing retained for recovery.
    fn supervised(&self) -> bool {
        self.checkpoint_every.is_some() || self.fault_seed.is_some()
    }

    /// The shard stage's plan, or `None` for a serial replay.
    fn plan(&self) -> Option<SupervisorPlan> {
        if self.shards.is_none() && !self.supervised() {
            return None;
        }
        let mut plan = SupervisorPlan::for_shards(self.shards, self.supervised());
        plan.checkpoint_every_chunks = self.checkpoint_every;
        if let Some(seed) = self.fault_seed {
            plan = plan.with_faults(&FaultPlan::from_seed(seed));
        }
        Some(plan)
    }

    /// Replays a trace blob (flat v1 or framed v2) chunk by chunk, through
    /// the serial engine or the shard stage; both read [`trace_chunks`].
    fn trace(&self, data: &[u8]) -> Result<AnalysisOutcome, AnalyzeError> {
        match self.plan() {
            Some(plan) => self.sharded(&plan, || trace_chunks(data, self.lenient)),
            None => {
                let chunks = trace_chunks(data, self.lenient).filter_map(Result::transpose);
                let out = run_analysis(source::chunks(chunks), self.detector())?;
                Ok(AnalysisOutcome::from_dtrg(out.report, out.counters))
            }
        }
    }

    /// Replays a decoded event slice: the batched in-memory path for the
    /// serial engine, slices of it for the shard stage.
    fn events(&self, events: &[Event]) -> Result<AnalysisOutcome, AnalyzeError> {
        match self.plan() {
            Some(plan) => self.sharded(&plan, || event_chunks(events)),
            None => {
                let out = run_analysis_recorded(events, self.detector());
                Ok(AnalysisOutcome::from_dtrg(out.report, out.counters))
            }
        }
    }

    /// Runs the shard stage under `plan` over the chunk streams
    /// `make_chunks` opens (one more for a degraded run).
    fn sharded<C, I>(
        &self,
        plan: &SupervisorPlan,
        make_chunks: impl Fn() -> I,
    ) -> Result<AnalysisOutcome, AnalyzeError>
    where
        C: AsRef<[Event]>,
        I: Iterator<Item = Result<Option<C>, TraceError>>,
    {
        let timer = Timer::start();
        let out = run_supervised(make_chunks, self.factory(), plan, None).map_err(|e| match e {
            SuperviseError::Stream(e) => AnalyzeError::Trace(e),
            other => AnalyzeError::Supervise(other.to_string()),
        })?;
        let SupervisedOutcome::Completed {
            report,
            stats,
            supervision,
        } = out
        else {
            unreachable!("no stop_after requested, the run must complete");
        };
        let engine = stats.engine_counters(&supervision, timer.elapsed_ms());
        let mut outcome = AnalysisOutcome::from_dtrg(report, engine);
        outcome.sharding = Some(stats);
        // A clean plain run has nothing to report; a degraded one says so.
        outcome.supervision = (self.supervised() || supervision.any()).then_some(supervision);
        Ok(outcome)
    }

    /// Detects online while `f` runs on `threads` pool workers.
    fn online(self, threads: usize, f: ParProgram<'_>) -> Result<AnalysisOutcome, AnalyzeError> {
        if threads == 0 {
            return Err(AnalyzeError::Config(
                "program_parallel(0, ..): need at least one worker thread".into(),
            ));
        }
        if self.shards.is_some() || self.supervised() {
            return Err(AnalyzeError::Config(
                "shards()/checkpoint_every()/fault_plan() apply to replayed traces, \
                 not to a live parallel execution"
                    .into(),
            ));
        }
        if self.lenient {
            return Err(AnalyzeError::Config(
                "lenient() applies to framed trace sources".into(),
            ));
        }
        let timer = Timer::start();
        let mut engine = Engine::new(self.detector());
        let opts = OnlineOptions {
            threads,
            steal_seed: self.steal_seed,
        };
        let run = run_online(opts, &mut engine, f);
        if let Err(e) = run.result {
            return Err(AnalyzeError::Deadlock(e.to_string()));
        }
        let (detector, mut counters) = engine.into_parts();
        let report = detector.finish();
        counters.wall_ms = timer.elapsed_ms();
        let mut outcome = AnalysisOutcome::from_dtrg(report, counters);
        outcome.online = Some(run.stats);
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::TaskCtx;

    fn racy(ctx: &mut SerialCtx<EventLog>) {
        let x = ctx.shared_var(0u64, "x");
        let x2 = x.clone();
        let _f = ctx.future(move |ctx| x2.write(ctx, 1));
        let _ = x.read(ctx); // no get(): a race
    }

    #[test]
    fn program_parallel_matches_serial_program() {
        fn prog<C: TaskCtx>(ctx: &mut C) {
            let x = ctx.shared_var(0u64, "x");
            let x2 = x.clone();
            let f = ctx.future(move |ctx| x2.write(ctx, 1));
            ctx.get(&f);
            let y = ctx.shared_var(0u64, "y");
            let y2 = y.clone();
            let _unjoined = ctx.future(move |ctx| y2.write(ctx, 2));
            let _ = y.read(ctx); // races with the unjoined writer
        }

        let serial = Analyze::program(|ctx| prog(ctx)).run().unwrap();
        assert!(serial.has_races());
        for threads in [1usize, 2, 4] {
            let par = Analyze::program_parallel(threads, |ctx| prog(ctx))
                .run()
                .unwrap();
            assert_eq!(par.races.races, serial.races.races);
            assert_eq!(par.races.total_detected, serial.races.total_detected);
            assert_eq!(par.stats.shared_mem(), serial.stats.shared_mem());
            assert_eq!(par.engine.checks(), serial.engine.checks());
            let online = par.online.expect("parallel runs carry telemetry");
            assert_eq!(online.threads, threads);
            assert!(online.workers_spawned >= threads);
            assert!(online.publishes > 0);
            assert!(!online.truncated);
        }
    }

    #[test]
    fn program_parallel_rejects_trace_only_options() {
        let noop = |_: &mut crate::runtime::ParCtx| {};
        let err = Analyze::program_parallel(2, noop)
            .checkpoint_every(4)
            .run()
            .unwrap_err();
        assert!(matches!(err, AnalyzeError::Config(_)), "{err}");

        let err = Analyze::program_parallel(2, noop)
            .fault_plan(7)
            .run()
            .unwrap_err();
        assert!(matches!(err, AnalyzeError::Config(_)), "{err}");

        let err = Analyze::program_parallel(2, noop)
            .lenient(true)
            .run()
            .unwrap_err();
        assert!(matches!(err, AnalyzeError::Config(_)), "{err}");

        let err = Analyze::program_parallel(2, noop)
            .shards(2)
            .run()
            .unwrap_err();
        assert!(matches!(err, AnalyzeError::Config(_)), "{err}");

        let err = Analyze::program_parallel(0, noop).run().unwrap_err();
        assert!(matches!(err, AnalyzeError::Config(_)), "{err}");

        let err = Analyze::program(racy).steal_seed(3).run().unwrap_err();
        assert!(matches!(err, AnalyzeError::Config(_)), "{err}");
    }

    #[test]
    fn program_parallel_deadlock_is_an_error() {
        let err = Analyze::program_parallel(2, |ctx| {
            let (tx, rx) = std::sync::mpsc::channel::<crate::runtime::ParHandle<u64>>();
            let a = ctx.future(move |ctx| {
                let h = rx.recv().unwrap();
                ctx.get(&h) // waits on itself: Appendix A's cycle
            });
            tx.send(a.clone()).unwrap();
            ctx.get(&a);
        })
        .run()
        .unwrap_err();
        assert!(matches!(err, AnalyzeError::Deadlock(_)), "{err}");
    }

    #[test]
    fn zero_shards_and_zero_checkpoint_are_config_errors() {
        let err = Analyze::program(racy).shards(0).run().unwrap_err();
        assert!(matches!(err, AnalyzeError::Config(_)), "{err}");
        assert!(err.to_string().contains("shards(0)"));

        let err = Analyze::program(racy).checkpoint_every(0).run().unwrap_err();
        assert!(matches!(err, AnalyzeError::Config(_)), "{err}");
        assert!(err.to_string().contains("checkpoint_every(0)"));
    }

    #[test]
    fn program_run_reports_race_and_counters() {
        let out = Analyze::program(racy).run().unwrap();
        assert!(out.has_races());
        assert_eq!(out.stats.shared_mem(), 2);
        assert_eq!(out.engine.checks(), 2);
        assert!(out.sharding.is_none());
        assert!(out.supervision.is_none());
    }

    #[test]
    fn builder_options_compose() {
        let out = Analyze::program(|ctx| {
            let x = ctx.shared_var(0u64, "x");
            let x2 = x.clone();
            let f = ctx.future(move |ctx| x2.write(ctx, 1));
            ctx.get(&f);
            let _ = x.read(ctx);
        })
        .detector(DetectorConfig {
            first_race_only: true,
            ..DetectorConfig::default()
        })
        .shards(2)
        .run()
        .unwrap();
        assert!(!out.has_races());
        let sharding = out.sharding.expect("sharded backend ran");
        assert_eq!(sharding.shards, 2);
        // Plain sharding that needed no recovery reports no supervision.
        assert!(out.supervision.is_none());
        assert!(!out.engine.had_supervision_events());
    }

    #[test]
    fn trace_bytes_and_events_agree_with_program() {
        let mut log = EventLog::new();
        run_serial(&mut log, racy);
        let blob = crate::runtime::trace::encode(&log.events);

        let from_program = Analyze::program(racy).run().unwrap();
        let from_events = Analyze::events(&log.events).run().unwrap();
        let from_blob = Analyze::trace_bytes(&blob).run().unwrap();
        for out in [&from_events, &from_blob] {
            assert_eq!(out.races.races, from_program.races.races);
            assert_eq!(out.races.total_detected, from_program.races.total_detected);
            assert_eq!(out.stats.shared_mem(), from_program.stats.shared_mem());
        }
    }

    #[test]
    fn supervised_run_completes_with_accounting() {
        let out = Analyze::program(racy)
            .shards(2)
            .checkpoint_every(2)
            .run()
            .unwrap();
        assert!(out.has_races());
        let supervision = out.supervision.expect("supervised backend ran");
        assert_eq!(supervision.resumed_from_checkpoint, 0);
        assert!(out.sharding.is_some());
    }

    #[test]
    fn missing_trace_file_is_an_io_error() {
        let err = Analyze::trace("/nonexistent/definitely-missing.ftrc")
            .run()
            .unwrap_err();
        assert!(matches!(err, AnalyzeError::Io(..)), "{err}");
        assert!(err.to_string().contains("definitely-missing"));
    }

    #[test]
    fn garbage_bytes_are_a_trace_error() {
        let err = Analyze::trace_bytes(&[0xFF, 0xFE, 0xFD]).run().unwrap_err();
        assert!(matches!(err, AnalyzeError::Trace(_)), "{err}");
    }

    #[test]
    fn cache_counters_reach_the_engine_display() {
        let out = Analyze::program(|ctx| {
            let x = ctx.shared_var(0u64, "x");
            for _ in 0..32 {
                let _ = x.read(ctx); // repeated clean reads: fast-path hits
            }
        })
        .run()
        .unwrap();
        assert!(!out.has_races());
        assert!(out.stats.dtrg.shadow_hits > 0);
        assert_eq!(
            out.engine.cache_hits,
            out.stats.dtrg.memo_hits + out.stats.dtrg.shadow_hits
        );
        assert!(out.engine.to_string().contains("cache:"), "{}", out.engine);
    }
}
