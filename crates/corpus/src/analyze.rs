//! `Analyze` — the one front door for race detection.
//!
//! One builder runs a detector over any source, through any backend:
//!
//! ```
//! use futrace_corpus::analyze::{Analyze, DetectorRun};
//! use futrace_runtime::TaskCtx;
//!
//! let racy = |ctx: &mut futrace_runtime::SerialCtx<_>| {
//!     let x = ctx.shared_var(0u64, "x");
//!     let x2 = x.clone();
//!     let _f = ctx.future(move |ctx| x2.write(ctx, 1));
//!     let _ = x.read(ctx); // no get(): a race
//! };
//! assert!(Analyze::program(racy).run().unwrap().has_races());
//! let Ok(DetectorRun::Completed(vc)) = Analyze::program(racy).shards(2).run_named("vc") else {
//!     panic!("no stop point, the run completes");
//! };
//! assert!(vc.report.has_races());
//! ```
//!
//! Every source — program, trace file, trace blob, or event slice — is
//! replayed through the backend the options ask for: the serial engine,
//! or the offline shard stage (`futrace_offline::run_supervised`), plain
//! or supervised, whose merged reports are identical to serial by the
//! stage's own equivalence tests. [`Analyze::run`] runs the DTRG detector
//! and returns an [`AnalysisOutcome`]: races, detector statistics,
//! measured footprint, engine counters (with the hot-path cache hit/miss
//! totals filled in), and the optional sharding/supervision accounting.
//! [`Analyze::run_named`] runs any registry detector
//! ([`crate::detectors::DETECTOR_NAMES`]) and returns its
//! [`AnyReport`] with the same accounting,
//! or the [`Checkpoint`] a run stopped by [`Analyze::stop_after`] cut.
//! Sources and options compose:
//! `Analyze::trace(path).shards(4).checkpoint_every(8).run()` replays a
//! recorded trace through the supervised sharded pipeline.
//!
//! A trace is read chunk by chunk, never decoded whole, and a trace blob
//! or event slice is borrowed, never copied, so a run holds the detector's
//! state and one chunk at a time. A program source is recorded to an
//! [`EventLog`] and replayed: the serial executor is deterministic, so the
//! replayed verdict is identical to a live run's, and the same program
//! can feed every backend. [`Analyze::program_parallel`] instead detects
//! online while the program runs on the work-stealing pool.
//!
//! `tracetool analyze` and `compare`, corpus jobs and the differential
//! fuzzer all run through this builder; `tracetool serve` checks streamed
//! chunks with a live engine instead (`futrace_service::Session`), whose
//! verdict is byte-identical.

use crate::detectors::{is_detector, is_shardable, AnyReport};
use futrace_baselines::{ClosureDetector, EspBags, OffsetSpan, SpBags, Spd3, VectorClockDetector};
use futrace_detector::{DetectorConfig, RaceDetector};
use futrace_offline::{
    run_supervised, salvage, trace_chunks, AnalysisOutcome, Checkpoint, FrameError, ShardStats,
    SuperviseError, SupervisedOutcome, SupervisionReport, SupervisorPlan, TraceFingerprint,
    SYNTHETIC_CHUNK_EVENTS,
};
use futrace_runtime::engine::{run_analysis, Analysis, Checkpointable, Engine, EngineCounters};
use futrace_runtime::online::{run_online, OnlineOptions};
use futrace_runtime::{run_serial, Event, EventLog, ParCtx, SerialCtx};
use futrace_util::faultinject::FaultPlan;
use futrace_util::stats::Timer;
use std::borrow::Cow;

/// Why an [`Analyze`] run failed. Program and event-slice sources are
/// infallible; the variants cover trace I/O, trace decoding, and
/// supervised-pipeline failures.
#[derive(Debug)]
pub enum AnalyzeError {
    /// Reading the trace file failed.
    Io(String, std::io::Error),
    /// The trace blob failed to decode (strict mode, or unrecoverable
    /// structural damage in lenient mode), or is not a framed trace.
    Trace(FrameError),
    /// The supervised pipeline could not complete the run, or could not
    /// restore the checkpoint it resumed from.
    Supervise(String),
    /// The builder options are inconsistent (e.g. zero shards, a zero
    /// checkpoint interval, or a resume checkpoint cut from another
    /// trace) — reported before any work runs, never a panic deep in a
    /// backend.
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

impl From<FrameError> for AnalyzeError {
    fn from(e: FrameError) -> Self {
        AnalyzeError::Trace(e)
    }
}

/// A completed run of a detector chosen by name ([`Analyze::run_named`]):
/// its report with the run's accounting.
#[derive(Clone, Debug)]
pub struct DetectorOutcome {
    /// The detector's report.
    pub report: AnyReport,
    /// Engine counters: events consumed, checks performed, wall time,
    /// cache hit/miss totals (DTRG only), and damaged chunks a lenient
    /// read dropped.
    pub engine: EngineCounters,
    /// Sharded-pipeline accounting, when the shard stage ran.
    pub sharding: Option<ShardStats>,
    /// What the supervisor did, as in [`AnalysisOutcome::supervision`].
    pub supervision: Option<SupervisionReport>,
    /// The truncation a lenient read cut the trace at
    /// ([`futrace_offline::salvage`]).
    pub truncated: Option<FrameError>,
}

/// How a run of a detector chosen by name ended.
#[derive(Debug)]
pub enum DetectorRun {
    /// The whole input was checked.
    Completed(DetectorOutcome),
    /// The run stopped at [`Analyze::stop_after`] and cut a checkpoint
    /// that [`Analyze::resume`] continues from.
    Suspended {
        /// The resumable snapshot.
        checkpoint: Checkpoint,
        /// What the supervisor did.
        supervision: SupervisionReport,
    },
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
    resume: Option<Checkpoint>,
    stop_after: Option<u64>,
}

/// Builder for one analysis run. Construct with [`Analyze::program`],
/// [`Analyze::program_parallel`], [`Analyze::trace`],
/// [`Analyze::trace_bytes`], or [`Analyze::events`]; configure; then
/// [`Analyze::run`] (the DTRG detector) or [`Analyze::run_named`] (any
/// registry detector).
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
    /// against the task DSL ([`futrace_runtime::TaskCtx`]). The execution
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
    /// Only [`Analyze::run`] runs it (online detection is DTRG's), and
    /// trace-replay options ([`Analyze::shards`],
    /// [`Analyze::checkpoint_every`], [`Analyze::fault_plan`],
    /// [`Analyze::lenient`], [`Analyze::resume`], [`Analyze::stop_after`])
    /// do not apply to a live parallel execution: they are
    /// [`AnalyzeError::Config`] errors.
    pub fn program_parallel<F>(threads: usize, f: F) -> Self
    where
        F: FnOnce(&mut ParCtx) + Send + 'a,
    {
        Analyze::new(Source::ParallelProgram {
            threads,
            f: Box::new(f),
        })
    }

    /// Analyzes a recorded trace file, in the framed format that
    /// `tracetool record` and `futrace_offline::StreamWriter` write.
    pub fn trace(path: impl Into<String>) -> Self {
        Analyze::new(Source::TracePath(path.into()))
    }

    /// Analyzes an in-memory framed trace blob, as [`Analyze::trace`]
    /// reads a file. A blob without the framed header, such as the bare
    /// event codec's output, fails with [`FrameError::NotFramed`]; an
    /// event list goes through [`Analyze::events`].
    pub fn trace_bytes(blob: &'a [u8]) -> Self {
        Analyze::new(Source::TraceBytes(blob))
    }

    /// Analyzes an already-decoded event slice (an [`EventLog`]'s
    /// events).
    pub fn events(events: &'a [Event]) -> Self {
        Analyze::new(Source::Events(events))
    }

    /// Uses an explicit DTRG detector configuration (report caps,
    /// first-race mode, hot-path caching). Other detectors ignore it.
    pub fn detector(mut self, config: DetectorConfig) -> Self {
        self.opts.config = config;
        self
    }

    /// Runs the sharded offline backend with `n` detect workers
    /// (verdict identical to the serial run's). With `None`, the default,
    /// a run shards only when a supervision option asks for the stage,
    /// on `ShardPlan`'s default worker count. Only the loc-routable
    /// detectors shard ([`crate::detectors::is_shardable`]).
    pub fn shards(mut self, n: impl Into<Option<usize>>) -> Self {
        self.opts.shards = n.into();
        self
    }

    /// Runs the shard stage with a barrier snapshot every `chunks` chunk
    /// boundaries, so a dead or stalled worker restarts from the last
    /// snapshot and reads the source again only from there. After each
    /// shard's first full snapshot, a barrier saves only the cells the
    /// shard checked since its last one, until those deltas add up to the
    /// full one's size.
    pub fn checkpoint_every(mut self, chunks: impl Into<Option<u64>>) -> Self {
        self.opts.checkpoint_every = chunks.into();
        self
    }

    /// Injects the deterministic fault plan expanded from `seed` (worker
    /// panics/stalls; see `FaultPlan::from_seed`) into the shard stage,
    /// which must recover without changing the verdict: a dead or stalled
    /// worker restarts and reads the source again from its last snapshot,
    /// or from the start without [`Analyze::checkpoint_every`].
    pub fn fault_plan(mut self, seed: impl Into<Option<u64>>) -> Self {
        self.opts.fault_seed = seed.into();
        self
    }

    /// Reads a trace leniently, on the serial, sharded and supervised
    /// backends alike: a damaged chunk (CRC mismatch, undecodable
    /// payload, or an event count other than its header's) is dropped
    /// whole and counted in [`EngineCounters::skipped_chunks`], and a
    /// trace truncated inside a chunk is cut before that chunk
    /// ([`futrace_offline::salvage`]), reported in the outcome's
    /// `truncated`. A bad header still fails the run.
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

    /// Continues the supervised sharded run that cut `checkpoint`: its
    /// shards are rebuilt from the checkpoint and the chunks it covers
    /// are skipped. A checkpoint fixes the shard count, and one cut from
    /// a trace carries that trace's fingerprint: a [`Analyze::shards`]
    /// count or a trace source that does not match it is an
    /// [`AnalyzeError::Config`] error.
    pub fn resume(mut self, checkpoint: impl Into<Option<Checkpoint>>) -> Self {
        self.opts.resume = checkpoint.into();
        self
    }

    /// Stops the supervised sharded run once `chunks` chunks (counted
    /// from the start of the trace, a resumed prefix included) are
    /// checked, and returns the checkpoint it cuts there as
    /// [`DetectorRun::Suspended`]. Only [`Analyze::run_named`] can return
    /// one.
    pub fn stop_after(mut self, chunks: impl Into<Option<u64>>) -> Self {
        self.opts.stop_after = chunks.into();
        self
    }

    /// Runs the DTRG detector over the source, through the backend the
    /// options ask for.
    pub fn run(self) -> Result<AnalysisOutcome, AnalyzeError> {
        if let Source::ParallelProgram { threads, f } = self.source {
            return self.opts.online(threads, f);
        }
        if self.opts.stop_after.is_some() {
            return Err(AnalyzeError::Config(
                "stop_after(): run() cannot return a checkpoint; use run_named(\"dtrg\")".into(),
            ));
        }
        let DetectorRun::Completed(out) = self.run_named("dtrg")? else {
            unreachable!("no stop point, the run completes");
        };
        let AnyReport::Dtrg(report) = out.report else {
            unreachable!("the dtrg detector reports a DtrgReport");
        };
        Ok(AnalysisOutcome {
            sharding: out.sharding,
            supervision: out.supervision,
            truncated: out.truncated,
            ..AnalysisOutcome::from_dtrg(*report, out.engine)
        })
    }

    /// Runs the registry detector `name` (one of
    /// [`crate::detectors::DETECTOR_NAMES`]) over the source. Every
    /// detector runs serially; `dtrg` and `vc` also run sharded and
    /// supervised, and a shard request for any other is an
    /// [`AnalyzeError::Config`] error. The DTRG detector's report carries
    /// its hot-path cache totals into the engine counters.
    pub fn run_named(self, name: &str) -> Result<DetectorRun, AnalyzeError> {
        let Analyze { source, opts } = self;
        opts.check()?;
        if !is_detector(name) {
            return Err(AnalyzeError::Config(format!("unknown detector {name:?}")));
        }
        if opts.sharded() && !is_shardable(name) {
            return Err(AnalyzeError::Config(format!(
                "detector {name:?} needs the global access order and cannot run sharded"
            )));
        }
        // Resolve the source: run and record a program, read a trace file.
        let mut log = EventLog::new();
        let data;
        let input = match source {
            Source::Program(f) => {
                run_serial(&mut log, f);
                Input::events(&log.events)
            }
            Source::TracePath(path) => {
                data = std::fs::read(&path).map_err(|e| AnalyzeError::Io(path, e))?;
                Input::trace(&data, &opts)?
            }
            Source::TraceBytes(blob) => Input::trace(blob, &opts)?,
            Source::Events(events) => Input::events(events),
            Source::ParallelProgram { .. } => {
                return Err(AnalyzeError::Config(
                    "program_parallel() runs the dtrg detector online, through run()".into(),
                ))
            }
        };
        let mut run = opts.named(name, &input)?;
        if let DetectorRun::Completed(out) = &mut run {
            if let Some(totals) = out.report.cache_counters() {
                (out.engine.cache_hits, out.engine.cache_misses) = totals;
            }
            out.truncated = input.truncated;
        }
        Ok(run)
    }
}

/// What a run replays, read as chunks by the serial engine and the shard
/// stage alike: the part of a trace blob a lenient read keeps
/// ([`salvage`]), or an event list in [`SYNTHETIC_CHUNK_EVENTS`]-event
/// slices.
#[derive(Default)]
struct Input<'a> {
    /// The whole trace blob, which a checkpoint cut from it fingerprints.
    blob: Option<&'a [u8]>,
    /// What is read of the blob, or the event list.
    trace: &'a [u8],
    events: &'a [Event],
    lenient: bool,
    truncated: Option<FrameError>,
}

/// One read of an [`Input`]: its chunks, borrowed where they can be.
type Chunks<'a> = Box<dyn Iterator<Item = Result<Option<Cow<'a, [Event]>>, FrameError>> + 'a>;

impl<'a> Input<'a> {
    fn trace(blob: &'a [u8], opts: &Options) -> Result<Self, AnalyzeError> {
        if let Some(cp) = &opts.resume {
            cp.matches_trace(blob)
                .map_err(|e| AnalyzeError::Config(format!("resume(): {e}")))?;
        }
        let (trace, truncated) = salvage(blob, opts.lenient);
        Ok(Input {
            blob: Some(blob),
            trace,
            lenient: opts.lenient,
            truncated,
            ..Input::default()
        })
    }

    fn events(events: &'a [Event]) -> Self {
        Input {
            events,
            ..Input::default()
        }
    }

    /// A fresh read of the input's chunks. One iterator type for both
    /// inputs, so each detector type instantiates the shard stage once.
    fn read(&self) -> Chunks<'_> {
        if self.blob.is_none() {
            let chunks = self.events.chunks(SYNTHETIC_CHUNK_EVENTS);
            return Box::new(chunks.map(|c| Ok(Some(Cow::Borrowed(c)))));
        }
        Box::new(trace_chunks(self.trace, self.lenient).map(|chunk| Ok(chunk?.map(Cow::Owned))))
    }
}

impl Options {
    /// Rejects inconsistent options before any work runs.
    fn check(&self) -> Result<(), AnalyzeError> {
        let config = |e: String| Err(AnalyzeError::Config(e));
        if self.steal_seed.is_some() {
            return config("steal_seed() applies only to program_parallel sources".into());
        }
        if self.shards == Some(0) {
            return config(
                "shards(0): the sharded backend needs at least one detect worker".into(),
            );
        }
        if self.checkpoint_every == Some(0) {
            return config(
                "checkpoint_every(0): the checkpoint interval must be at least one chunk".into(),
            );
        }
        if let (Some(cp), Some(n)) = (&self.resume, self.shards) {
            if n != cp.shards {
                return config(format!(
                    "shards({n}) conflicts with the resumed checkpoint, cut across {} shard(s)",
                    cp.shards
                ));
            }
        }
        Ok(())
    }

    fn detector(&self) -> RaceDetector {
        RaceDetector::with_config(self.config.clone())
    }

    /// Builds the shard stage's detectors. A non-generic method, so every
    /// DTRG run hands the stage one closure type and its supervisor is
    /// compiled once; a copy per input measured about 10% slower on the
    /// loop kernels' sharded runs.
    fn factory(&self) -> impl Fn() -> RaceDetector + '_ {
        move || self.detector()
    }

    /// Snapshots, faults, a stop point and a resume ask for the shard
    /// stage and its supervision report; a plain `shards` run reports
    /// recovery only when it needed some.
    fn supervised(&self) -> bool {
        self.checkpoint_every.is_some()
            || self.fault_seed.is_some()
            || self.stop_after.is_some()
            || self.resume.is_some()
    }

    /// True iff the run goes through the shard stage.
    fn sharded(&self) -> bool {
        self.shards.is_some() || self.supervised()
    }

    /// The shard stage's plan for `input`.
    fn plan(&self, input: &Input<'_>) -> SupervisorPlan {
        let mut plan = SupervisorPlan::for_shards(self.shards);
        plan.checkpoint_every_chunks = self.checkpoint_every;
        plan.stop_after_chunks = self.stop_after;
        plan.fingerprint = input.blob.map(TraceFingerprint::of);
        if let Some(seed) = self.fault_seed {
            plan = plan.with_faults(&FaultPlan::from_seed(seed));
        }
        plan
    }

    /// Runs the registry detector `name` (checked by the caller).
    fn named(&self, name: &str, input: &Input<'_>) -> Result<DetectorRun, AnalyzeError> {
        use AnyReport::Baseline;
        match name {
            "dtrg" => self.checked(input, self.factory(), |r| AnyReport::Dtrg(Box::new(r))),
            "vc" => self.checked(input, VectorClockDetector::new, Baseline),
            "espbags" => self.serial(input, EspBags::new(), Baseline),
            "spbags" => self.serial(input, SpBags::new(), Baseline),
            "offsetspan" => self.serial(input, OffsetSpan::new(), Baseline),
            "spd3" => self.serial(input, Spd3::new(), Baseline),
            "closure" => self.serial(input, ClosureDetector::new(), |r| {
                AnyReport::Closure(Box::new(r))
            }),
            other => unreachable!("unknown detector {other:?} passed the name check"),
        }
    }

    /// Replays `input` chunk by chunk through the serial engine.
    fn serial<A: Analysis>(
        &self,
        input: &Input<'_>,
        analysis: A,
        erase: impl FnOnce(A::Report) -> AnyReport,
    ) -> Result<DetectorRun, AnalyzeError> {
        let mut dropped = 0;
        let chunks = input.read().filter_map(|chunk| {
            dropped += u64::from(matches!(chunk, Ok(None)));
            chunk.transpose()
        });
        let out = run_analysis(chunks, analysis)?;
        Ok(DetectorRun::Completed(DetectorOutcome {
            report: erase(out.report),
            engine: EngineCounters {
                skipped_chunks: dropped,
                ..out.counters
            },
            sharding: None,
            supervision: None,
            truncated: None,
        }))
    }

    /// Replays `input` through the serial engine, or through the shard
    /// stage when the options ask for it, over the analyses `factory`
    /// builds.
    fn checked<A, F>(
        &self,
        input: &Input<'_>,
        factory: F,
        erase: impl FnOnce(A::Report) -> AnyReport,
    ) -> Result<DetectorRun, AnalyzeError>
    where
        A: Checkpointable + Send + 'static,
        A::Report: Send + 'static,
        F: Fn() -> A,
    {
        if !self.sharded() {
            return self.serial(input, factory(), erase);
        }
        let timer = Timer::start();
        let plan = self.plan(input);
        let out = run_supervised(|| input.read(), factory, &plan, self.resume.as_ref());
        let out = out.map_err(|e| match e {
            SuperviseError::Stream(e) => AnalyzeError::Trace(e),
            other => AnalyzeError::Supervise(other.to_string()),
        })?;
        Ok(match out {
            SupervisedOutcome::Completed {
                report,
                stats,
                supervision,
            } => DetectorRun::Completed(DetectorOutcome {
                report: erase(report),
                engine: stats.engine_counters(timer.elapsed_ms()),
                sharding: Some(stats),
                // A clean plain run has nothing to report; a degraded one
                // says so.
                supervision: (self.supervised() || supervision.any()).then_some(supervision),
                truncated: None,
            }),
            SupervisedOutcome::Suspended {
                checkpoint,
                supervision,
            } => DetectorRun::Suspended {
                checkpoint,
                supervision,
            },
        })
    }

    /// Detects online while `f` runs on `threads` pool workers.
    fn online(self, threads: usize, f: ParProgram<'_>) -> Result<AnalysisOutcome, AnalyzeError> {
        if threads == 0 {
            return Err(AnalyzeError::Config(
                "program_parallel(0, ..): need at least one worker thread".into(),
            ));
        }
        if self.sharded() || self.lenient {
            return Err(AnalyzeError::Config(
                "shards()/checkpoint_every()/fault_plan()/resume()/stop_after()/lenient() \
                 apply to replayed traces, not to a live parallel execution"
                    .into(),
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
