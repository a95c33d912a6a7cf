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
//! Since the session layer landed, the builder is a thin shell: it
//! resolves the source (running and recording a program, reading a trace
//! file) and then opens a [`crate::service::Session`], feeds it
//! everything, and finishes it — the exact machinery `tracetool serve`
//! drives chunk by chunk over the wire. One-shot and streamed analysis
//! therefore share every backend decision and produce identical
//! verdicts.
//!
//! A program source is recorded to an [`EventLog`] and replayed through
//! the engine's batched dispatch path. The serial executor is
//! deterministic, so the replayed verdict is identical to a live run's
//! (the equivalence the replay test suite pins down) — and it lets the
//! same program feed the serial, sharded, and supervised backends
//! unchanged.

use crate::detector::{DetectorConfig, OnlineDtrg};
use crate::offline::TraceError;
use crate::runtime::online::{run_online, OnlineOptions};
use crate::runtime::{run_serial, Event, EventLog, ParCtx, SerialCtx};
use crate::service::{Session, SessionConfig, SessionError};

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

impl From<SessionError> for AnalyzeError {
    fn from(e: SessionError) -> Self {
        match e {
            SessionError::Trace(e) => AnalyzeError::Trace(e),
            SessionError::Supervise(e) => AnalyzeError::Supervise(e),
            SessionError::Config(e) => AnalyzeError::Config(e),
            // One-shot runs never resume, so checkpoint failures here are
            // supervised-pipeline failures.
            SessionError::Checkpoint(e) => AnalyzeError::Supervise(e),
        }
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

/// Builder for one DTRG analysis run. Construct with
/// [`Analyze::program`], [`Analyze::trace`], [`Analyze::trace_bytes`], or
/// [`Analyze::events`]; configure; then [`Analyze::run`].
pub struct Analyze<'a> {
    source: Source<'a>,
    config: DetectorConfig,
    shards: Option<usize>,
    checkpoint_every: Option<u64>,
    fault_seed: Option<u64>,
    lenient: bool,
    steal_seed: Option<u64>,
}

impl<'a> Analyze<'a> {
    fn new(source: Source<'a>) -> Self {
        Analyze {
            source,
            config: DetectorConfig::default(),
            shards: None,
            checkpoint_every: None,
            fault_seed: None,
            lenient: false,
            steal_seed: None,
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
    /// Per-task access buffers are merged at scheduler sync points, a
    /// canonical walker reconstructs the serial-elision stream, and
    /// detector shards (fitted to the machine's spare cores unless
    /// [`Analyze::shards`] says otherwise) consume it concurrently with
    /// execution. The verdict is
    /// byte-identical to [`Analyze::program`] on the same program: same
    /// races, same indices, same statistics — held by the online
    /// equivalence propcheck. The outcome's `online` field carries the
    /// pipeline telemetry.
    ///
    /// Trace-replay options ([`Analyze::checkpoint_every`],
    /// [`Analyze::fault_plan`], [`Analyze::lenient`]) do not apply to a
    /// live parallel execution and are [`AnalyzeError::Config`] errors.
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
        self.config = config;
        self
    }

    /// Runs the sharded offline backend with `n` detect workers
    /// (verdict identical to the serial run's).
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = Some(n);
        self
    }

    /// Runs under the fault-tolerant supervisor, barrier-snapshotting
    /// every `chunks` chunk boundaries so dead or stalled workers restart
    /// from the last snapshot.
    pub fn checkpoint_every(mut self, chunks: u64) -> Self {
        self.checkpoint_every = Some(chunks);
        self
    }

    /// Injects the deterministic fault plan expanded from `seed` (worker
    /// panics/stalls; see `FaultPlan::from_seed`) and runs under the
    /// supervisor, which must recover without changing the verdict.
    pub fn fault_plan(mut self, seed: u64) -> Self {
        self.fault_seed = Some(seed);
        self
    }

    /// Skips damaged chunks of a framed trace (counting them) instead of
    /// failing the run.
    pub fn lenient(mut self, lenient: bool) -> Self {
        self.lenient = lenient;
        self
    }

    /// Seeds randomized steal order for [`Analyze::program_parallel`]
    /// (schedule exploration: different seeds exercise different
    /// interleavings; the verdict is canonical regardless). Only
    /// meaningful for the parallel-program source.
    pub fn steal_seed(mut self, seed: u64) -> Self {
        self.steal_seed = Some(seed);
        self
    }

    /// Runs the configured analysis: open a session, feed it the whole
    /// source, finish it. (`tracetool serve` drives the same session
    /// chunk by chunk; the backend logic lives in one place.)
    pub fn run(self) -> Result<AnalysisOutcome, AnalyzeError> {
        let Analyze {
            source,
            config,
            shards,
            checkpoint_every,
            fault_seed,
            lenient,
            steal_seed,
        } = self;
        if let Source::ParallelProgram { threads, f } = source {
            return Self::run_parallel_source(
                threads,
                f,
                config,
                shards,
                checkpoint_every,
                fault_seed,
                lenient,
                steal_seed,
            );
        }
        if steal_seed.is_some() {
            return Err(AnalyzeError::Config(
                "steal_seed() applies only to program_parallel sources".into(),
            ));
        }
        let mut session = Session::open(SessionConfig {
            detector: config,
            shards,
            checkpoint_every,
            fault_seed,
            lenient,
        })?;
        match source {
            Source::Program(f) => {
                let mut log = EventLog::new();
                run_serial(&mut log, f);
                session.feed_events(log.events)?;
            }
            Source::TracePath(path) => {
                let data = std::fs::read(&path).map_err(|e| AnalyzeError::Io(path.clone(), e))?;
                session.feed_trace(data)?;
            }
            Source::TraceBytes(b) => session.feed_trace(b.to_vec())?,
            Source::Events(e) => session.feed_events(e.to_vec())?,
            Source::ParallelProgram { .. } => unreachable!("dispatched above"),
        }
        Ok(session.finish()?)
    }

    #[allow(clippy::too_many_arguments)]
    fn run_parallel_source(
        threads: usize,
        f: ParProgram<'a>,
        config: DetectorConfig,
        shards: Option<usize>,
        checkpoint_every: Option<u64>,
        fault_seed: Option<u64>,
        lenient: bool,
        steal_seed: Option<u64>,
    ) -> Result<AnalysisOutcome, AnalyzeError> {
        if threads == 0 {
            return Err(AnalyzeError::Config(
                "program_parallel(0, ..): need at least one worker thread".into(),
            ));
        }
        if shards == Some(0) {
            return Err(AnalyzeError::Config(
                "shards(0): need at least one detect worker".into(),
            ));
        }
        if checkpoint_every.is_some() || fault_seed.is_some() {
            return Err(AnalyzeError::Config(
                "checkpoint_every()/fault_plan() apply to replayed traces, \
                 not to a live parallel execution"
                    .into(),
            ));
        }
        if lenient {
            return Err(AnalyzeError::Config(
                "lenient() applies to framed trace sources".into(),
            ));
        }
        let opts = OnlineOptions {
            threads,
            shards: shards.unwrap_or_else(|| OnlineOptions::auto(threads).shards),
            steal_seed,
        };
        let run = run_online(opts, OnlineDtrg::with_config(config), f);
        if let Err(e) = run.result {
            return Err(AnalyzeError::Deadlock(e.to_string()));
        }
        let mut engine = run.engine;
        // Same cache-counter enrichment the session layer applies: hits
        // from both cache layers, misses from the memo.
        engine.cache_hits = run.report.stats.dtrg.memo_hits + run.report.stats.dtrg.shadow_hits;
        engine.cache_misses = run.report.stats.dtrg.memo_misses;
        let mut outcome = AnalysisOutcome {
            races: run.report.report,
            stats: run.report.stats,
            footprint: run.report.footprint,
            engine,
            sharding: None,
            supervision: None,
            online: None,
        };
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
            assert_eq!(online.shards, OnlineOptions::auto(threads).shards);
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
