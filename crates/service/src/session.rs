//! One incremental analysis, lifted out of the one-shot CLI.
//!
//! A [`Session`] owns exactly one DTRG analysis run. It can be fed three
//! ways — a whole trace blob, a whole decoded event list, or chunk by
//! chunk as frames arrive over the wire — and finished serially or
//! through the offline shard stage, plain or supervised. The
//! `futrace::Analyze` builder and `tracetool serve` both ride this type,
//! so batch and streaming analysis share one code path and one
//! [`AnalysisOutcome`] shape.
//!
//! Chunk feeding drives the engine's batched dispatch path
//! incrementally: the session keeps a live serial engine, consumes each
//! chunk's events the moment they arrive, and reports a [`VerdictDelta`]
//! (chunks / events / races so far) after every chunk. Unless the session
//! was opened with explicit `shards`, the final verdict *is* that
//! engine's verdict — exact by Theorem 2, checkpointed or resumed or not
//! — and nothing is replayed at [`Session::finish`]. Sessions with
//! explicit `shards`, and whole-trace feeds, replay through the serial
//! engine or the shard stage (`futrace_offline::run_supervised`), whose
//! merged reports are identical to serial by the stage's own equivalence
//! tests.
//!
//! Checkpoints are snapshots of that live engine, in the FCKP format of
//! DESIGN S38: [`Session::checkpoint`] stores the control-event prefix
//! collected as chunks arrived, the detector's access-derived state and
//! the engine's counters. Those are Theorem 1's space terms, so a
//! checkpoint costs O(detector state), not a replay of the chunks
//! received. [`Session::open_resumed`] restores the engine from one, and
//! [`Session::feed_chunk`] re-frames the chunks it covers without
//! checking them again while the client re-streams the full trace. A
//! daemon cutting periodic checkpoints loses at most the chunks received
//! since the last interval when it is killed.

use futrace_detector::{
    DetectorConfig, DetectorStats, DtrgReport, MemoryFootprint, RaceDetector, RaceReport,
};
use futrace_offline::checkpoint::FINGERPRINT_HEAD;
use futrace_offline::framed;
use futrace_offline::{
    run_supervised, trace_chunks, trace_events, Checkpoint, RouterProgress, ShardPlan, ShardStats,
    SuperviseError, SupervisedOutcome, SupervisionReport, SupervisorPlan, SyntheticChunks,
    TraceError, TraceFingerprint, SYNTHETIC_CHUNK_EVENTS,
};
use futrace_runtime::engine::{
    run_analysis, source, Analysis, Checkpointable, Engine, EngineCounters,
};
use futrace_runtime::online::OnlineStats;
use futrace_runtime::{trace, Event};
use futrace_util::crc32::crc32;
use futrace_util::faultinject::FaultPlan;
use futrace_util::stats::Timer;
use std::fmt;

/// What can go wrong inside a session, independent of any I/O the caller
/// layered on top.
#[derive(Debug)]
pub enum SessionError {
    /// The fed trace (blob or chunk) is invalid.
    Trace(TraceError),
    /// The supervised backend failed unrecoverably.
    Supervise(String),
    /// The session configuration or feeding sequence is invalid.
    Config(String),
    /// A resumed checkpoint could not be restored, or does not match the
    /// re-streamed trace.
    Checkpoint(String),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Trace(e) => write!(f, "invalid trace: {e}"),
            SessionError::Supervise(e) => write!(f, "supervised run failed: {e}"),
            SessionError::Config(e) => write!(f, "invalid analysis options: {e}"),
            SessionError::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// Everything one analysis run produces, whatever the source and backend.
#[derive(Clone, Debug)]
pub struct AnalysisOutcome {
    /// Deduplicated, capped race report (the verdict).
    pub races: RaceReport,
    /// Structural statistics and DTRG cost counters (Table 2's columns,
    /// plus the memo and fast-path cache counters).
    pub stats: DetectorStats,
    /// Theorem 1's space bound, measured at the end of the run.
    pub footprint: MemoryFootprint,
    /// Engine counters: events consumed, checks performed, wall time,
    /// cache hit/miss totals, and any supervision suffix.
    pub engine: EngineCounters,
    /// Sharded-pipeline accounting, when the shard stage ran.
    pub sharding: Option<ShardStats>,
    /// What the supervisor did, when the run asked for supervision
    /// (snapshots, injected faults or a resume) or a plain sharded run
    /// had to recover (a dead worker degrades it to serial).
    pub supervision: Option<SupervisionReport>,
    /// Online-pipeline telemetry (buffer publishes, canonical-walk
    /// frontier waits, per-shard routing), when the source was an
    /// instrumented parallel execution (`Analyze::program_parallel`).
    pub online: Option<OnlineStats>,
}

impl AnalysisOutcome {
    /// True iff any race was detected.
    pub fn has_races(&self) -> bool {
        self.races.has_races()
    }

    pub(crate) fn from_dtrg(report: DtrgReport, mut engine: EngineCounters) -> Self {
        // Surface the analysis's hot-path cache counters next to the
        // driver's own counts: hits from both cache layers, misses from
        // the memo (the shadow fast path has no distinct miss event —
        // every slow-path check is one).
        engine.cache_hits = report.stats.dtrg.memo_hits + report.stats.dtrg.shadow_hits;
        engine.cache_misses = report.stats.dtrg.memo_misses;
        AnalysisOutcome {
            races: report.report,
            stats: report.stats,
            footprint: report.footprint,
            engine,
            sharding: None,
            supervision: None,
            online: None,
        }
    }
}

/// Incremental verdict after one fed chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VerdictDelta {
    /// Chunks consumed so far.
    pub chunks: u64,
    /// Events consumed so far.
    pub events: u64,
    /// Races detected so far (uncapped).
    pub races: u64,
}

/// Configuration for one session — the same knobs the `Analyze` builder
/// exposes, in resolved form.
#[derive(Clone, Debug, Default)]
pub struct SessionConfig {
    /// Detector configuration (report caps, first-race mode, caching).
    pub detector: DetectorConfig,
    /// Sharded backend with this many detect workers; `None` = serial.
    pub shards: Option<usize>,
    /// Supervised backend, barrier-snapshotting every N chunks. A
    /// wire-fed session without `shards` keeps its live engine instead;
    /// the daemon cuts its checkpoints every N chunks.
    pub checkpoint_every: Option<u64>,
    /// Supervised backend with the deterministic fault plan from a seed.
    pub fault_seed: Option<u64>,
    /// Skip damaged trace chunks (counting them) instead of failing.
    pub lenient: bool,
}

enum Feed {
    /// Nothing fed yet (finishing analyzes an empty stream).
    Empty,
    /// A whole trace blob (flat v1 or framed v2), fed in one call.
    Trace(Vec<u8>),
    /// A whole decoded event list, fed in one call.
    Events(Vec<Event>),
    /// Chunk-at-a-time feeding: the re-framed accumulated trace, the
    /// live incremental engine, and the control events it has applied
    /// (a checkpoint's control prefix).
    Wire {
        blob: Vec<u8>,
        engine: Box<Engine<RaceDetector>>,
        control: Vec<Event>,
    },
}

impl Feed {
    /// A wire feed around `engine`, with an empty framed trace.
    fn wire(engine: Engine<RaceDetector>, control: Vec<Event>) -> Feed {
        let mut blob = Vec::with_capacity(framed::HEADER_LEN);
        blob.extend_from_slice(&framed::MAGIC);
        blob.push(framed::VERSION);
        Feed::Wire {
            blob,
            engine: Box::new(engine),
            control,
        }
    }
}

/// One incremental analysis. See the module docs.
pub struct Session {
    cfg: SessionConfig,
    feed: Feed,
    chunks: u64,
    events: u64,
    resume: Option<Checkpoint>,
    timer: Timer,
}

impl Session {
    /// Opens a session, validating the configuration up front (the same
    /// checks — and the same messages — the `Analyze` builder reports
    /// before any work runs).
    pub fn open(cfg: SessionConfig) -> Result<Session, SessionError> {
        if cfg.shards == Some(0) {
            return Err(SessionError::Config(
                "shards(0): the sharded backend needs at least one detect worker".to_string(),
            ));
        }
        if cfg.checkpoint_every == Some(0) {
            return Err(SessionError::Config(
                "checkpoint_every(0): the checkpoint interval must be at least one chunk"
                    .to_string(),
            ));
        }
        Ok(Session {
            cfg,
            feed: Feed::Empty,
            chunks: 0,
            events: 0,
            resume: None,
            timer: Timer::start(),
        })
    }

    /// Opens a chunk-fed session resuming from a suspended session's
    /// checkpoint, by restoring its live engine: the control prefix goes
    /// back through `apply_control`, the detector's access-derived state
    /// through `restore_state`, and counting and access numbering
    /// continue from the checkpoint's.
    ///
    /// The feeder streams the *full* trace again (wire clients re-send
    /// every chunk and keep no local state); [`Session::feed_chunk`]
    /// re-frames the chunks the checkpoint covers without checking them
    /// again, so the final report is identical to an uninterrupted run.
    /// A checkpoint across several shards (cut by a replay before
    /// checkpoints came from the live engine) cannot restore one engine:
    /// it is ignored, and the session starts from chunk 0.
    pub fn open_resumed(
        cfg: SessionConfig,
        checkpoint: Checkpoint,
    ) -> Result<Session, SessionError> {
        let mut session = Session::open(cfg)?;
        let ([state], 1) = (checkpoint.shard_states.as_slice(), checkpoint.shards) else {
            return Ok(session);
        };
        let mut detector = RaceDetector::with_config(session.cfg.detector.clone());
        for e in &checkpoint.control_events {
            detector.apply_control(e);
        }
        detector
            .restore_state(state)
            .map_err(|e| SessionError::Checkpoint(e.to_string()))?;
        let r = checkpoint.router;
        let counters = EngineCounters {
            events: r.events,
            control_events: r.control_events,
            reads: r.reads,
            writes: r.writes,
            ..EngineCounters::default()
        };
        let engine = Engine::resumed(detector, counters, checkpoint.next_access_index);
        session.feed = Feed::wire(engine, checkpoint.control_events.clone());
        session.resume = Some(checkpoint);
        Ok(session)
    }

    /// Chunks a resumed checkpoint already completed (0 for a fresh
    /// session).
    pub fn resumed_chunks(&self) -> u64 {
        self.resume.as_ref().map_or(0, |c| c.chunks_completed)
    }

    /// Chunks fed so far (wire feeding only).
    pub fn chunks(&self) -> u64 {
        self.chunks
    }

    /// Events fed so far (wire feeding only).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Feeds a whole trace blob (flat v1 or framed v2). The one-shot
    /// batch path: decoding, lenient skipping, and error semantics are
    /// identical to the historical `Analyze` behavior.
    pub fn feed_trace(&mut self, blob: Vec<u8>) -> Result<(), SessionError> {
        match self.feed {
            Feed::Empty => {
                self.feed = Feed::Trace(blob);
                Ok(())
            }
            _ => Err(SessionError::Config(
                "feed_trace: the session was already fed".to_string(),
            )),
        }
    }

    /// Feeds a whole decoded event list.
    pub fn feed_events(&mut self, events: Vec<Event>) -> Result<(), SessionError> {
        match self.feed {
            Feed::Empty => {
                self.feed = Feed::Events(events);
                Ok(())
            }
            _ => Err(SessionError::Config(
                "feed_events: the session was already fed".to_string(),
            )),
        }
    }

    /// Feeds one trace chunk (v1-encoded events — the payload bytes of a
    /// framed `.ftrc` chunk), consuming it through the engine's batched
    /// dispatch path immediately and returning the incremental verdict.
    ///
    /// The chunk is also appended (re-framed, CRC'd) to the session's
    /// accumulated trace, which the fingerprint and the sharded /
    /// supervised backends read. A resumed session re-frames the chunks
    /// its checkpoint covers without checking them again; meanwhile the
    /// delta's `races` is the checkpoint's count.
    pub fn feed_chunk(&mut self, payload: &[u8]) -> Result<VerdictDelta, SessionError> {
        let events =
            trace::decode(payload).map_err(|e| SessionError::Trace(TraceError::Decode(e)))?;
        let covered = self.chunks < self.resumed_chunks();
        if let Feed::Empty = self.feed {
            let detector = RaceDetector::with_config(self.cfg.detector.clone());
            self.feed = Feed::wire(Engine::new(detector), Vec::new());
        }
        let Feed::Wire {
            blob,
            engine,
            control,
        } = &mut self.feed
        else {
            return Err(SessionError::Config(
                "feed_chunk: the session was already fed a whole trace".to_string(),
            ));
        };
        // Re-frame the chunk exactly as the streaming recorder would.
        let mut header = [0u8; framed::CHUNK_HEADER_LEN];
        header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[4..8].copy_from_slice(&(events.len() as u32).to_le_bytes());
        header[8..].copy_from_slice(&crc32(payload).to_le_bytes());
        blob.extend_from_slice(&header);
        blob.extend_from_slice(payload);

        if !covered {
            let is_control = |e: &&Event| !matches!(e, Event::Read(..) | Event::Write(..));
            control.extend(events.iter().filter(is_control).cloned());
            engine.consume_slice(&events);
        }
        self.chunks += 1;
        self.events += events.len() as u64;
        Ok(VerdictDelta {
            chunks: self.chunks,
            events: self.events,
            races: engine.analysis().total_detected(),
        })
    }

    /// Verifies a resumed checkpoint against the re-streamed trace. The
    /// fingerprint was taken over the *prefix* received before
    /// suspension, so the head CRC must match the same head span of the
    /// new blob and the new blob must be at least as long — a plain
    /// `matches_trace` would reject the (longer) full trace. The session
    /// must also have re-received every chunk the checkpoint covers.
    fn verify_resume_fingerprint(&self, blob: &[u8]) -> Result<(), SessionError> {
        let Some(cp) = &self.resume else {
            return Ok(());
        };
        let differs = cp.fingerprint.is_some_and(|fp| {
            let head = blob.len().min(FINGERPRINT_HEAD).min(fp.len as usize);
            (blob.len() as u64) < fp.len || crc32(&blob[..head]) != fp.head_crc
        });
        if differs || self.chunks < cp.chunks_completed {
            return Err(SessionError::Checkpoint(
                "resumed session received a different trace than the checkpoint covers"
                    .to_string(),
            ));
        }
        Ok(())
    }

    /// Cuts an FCKP checkpoint covering every chunk received so far, as a
    /// snapshot of the live engine: the control events it applied, the
    /// detector's access-derived state, and its counters. The cost is
    /// O(detector state), however many chunks were received. Returns
    /// `None` before the first chunk, and for whole-trace feeds. Never
    /// fails; the `Result` is part of the signature callers match on.
    ///
    /// A resumed session that has not yet re-received the chunks its
    /// checkpoint covers returns that checkpoint unchanged. A snapshot
    /// claiming fewer chunks than its state covers would make the next
    /// resume apply those chunks' control events twice.
    pub fn checkpoint(&self) -> Result<Option<Checkpoint>, SessionError> {
        if let Some(cp) = &self.resume {
            if self.chunks < cp.chunks_completed {
                return Ok(Some(cp.clone()));
            }
        }
        let Feed::Wire {
            blob,
            engine,
            control,
        } = &self.feed
        else {
            return Ok(None);
        };
        let c = engine.counters();
        let mut state = Vec::new();
        engine.analysis().save_state(&mut state);
        Ok(Some(Checkpoint {
            shards: 1,
            events_consumed: c.events,
            next_access_index: engine.next_index(),
            chunks_completed: self.chunks,
            router: RouterProgress {
                events: c.events,
                control_events: c.control_events,
                reads: c.reads,
                writes: c.writes,
            },
            control_events: control.clone(),
            per_shard_accesses: vec![c.checks()],
            shard_states: vec![state],
            fingerprint: Some(TraceFingerprint::of(blob)),
        }))
    }

    /// Suspends the session: cuts a checkpoint (see
    /// [`Session::checkpoint`]) and consumes the session. Returns `None`
    /// when nothing worth checkpointing was received; the caller then
    /// simply starts over on resume.
    pub fn suspend(self) -> Result<Option<Checkpoint>, SessionError> {
        self.checkpoint()
    }

    /// Runs the configured backend over everything fed and produces the
    /// final outcome.
    pub fn finish(self) -> Result<AnalysisOutcome, SessionError> {
        if let Feed::Wire { blob, .. } = &self.feed {
            self.verify_resume_fingerprint(blob)?;
        }

        // A wire-fed session without explicit shards was analyzed as it
        // arrived, so its live engine's verdict is final. A fault seed
        // asks for the supervised pipeline's recovery paths and keeps
        // the replay.
        if self.cfg.shards.is_none() && self.cfg.fault_seed.is_none() {
            if let Feed::Wire { engine, .. } = self.feed {
                let (analysis, mut counters) = engine.into_parts();
                counters.wall_ms = self.timer.elapsed_ms();
                let mut outcome = AnalysisOutcome::from_dtrg(Analysis::finish(analysis), counters);
                if self.resume.is_some() {
                    outcome.engine.resumed_from_checkpoint = 1;
                    outcome.supervision = Some(SupervisionReport {
                        resumed_from_checkpoint: 1,
                        ..SupervisionReport::default()
                    });
                }
                return Ok(outcome);
            }
        }

        let supervised = self.cfg.checkpoint_every.is_some()
            || self.cfg.fault_seed.is_some()
            || self.resume.is_some();
        let lenient = self.cfg.lenient;
        let config = self.cfg.detector.clone();
        let timer = self.timer;

        // Every other combination replays through the one-shot backends.
        let (blob, events): (Option<Vec<u8>>, Option<Vec<Event>>) = match self.feed {
            Feed::Empty => (None, Some(Vec::new())),
            Feed::Trace(data) => (Some(data), None),
            Feed::Events(ev) => (None, Some(ev)),
            Feed::Wire { blob, .. } => (Some(blob), None),
        };

        if supervised || self.cfg.shards.is_some() {
            // Plain `shards` runs the same stage with nothing retained for
            // recovery; snapshots, faults and resumes keep the full plan.
            let shards = self.cfg.shards.unwrap_or(ShardPlan::default().shards);
            let shard = ShardPlan::with_shards(shards);
            let mut plan = if supervised {
                SupervisorPlan {
                    shard,
                    ..SupervisorPlan::default()
                }
            } else {
                SupervisorPlan::plain(shard)
            };
            plan.checkpoint_every_chunks = self.cfg.checkpoint_every;
            if let Some(seed) = self.cfg.fault_seed {
                plan = plan.with_faults(&FaultPlan::from_seed(seed));
            }
            let factory = || RaceDetector::with_config(config.clone());
            let resume = self.resume.as_ref();
            let out = match (&blob, &events) {
                (Some(data), _) => {
                    run_supervised(|| trace_events(data, lenient), factory, &plan, resume)
                        .map_err(erase_supervise_error)?
                }
                (None, Some(events)) => run_supervised(
                    || {
                        SyntheticChunks::new(
                            events
                                .iter()
                                .cloned()
                                .map(Ok as fn(_) -> Result<_, TraceError>),
                            SYNTHETIC_CHUNK_EVENTS,
                        )
                    },
                    factory,
                    &plan,
                    resume,
                )
                .map_err(erase_supervise_error)?,
                (None, None) => unreachable!("feed resolution always yields one"),
            };
            let SupervisedOutcome::Completed {
                report,
                stats,
                supervision,
            } = out
            else {
                unreachable!("no stop_after requested, the run must complete");
            };
            let engine = EngineCounters {
                events: stats.events,
                control_events: stats.control_events,
                reads: stats.reads,
                writes: stats.writes,
                wall_ms: timer.elapsed_ms(),
                shard_restarts: supervision.shard_restarts,
                degradations: supervision.degradations,
                resumed_from_checkpoint: supervision.resumed_from_checkpoint,
                ..EngineCounters::default()
            };
            let mut outcome = AnalysisOutcome::from_dtrg(report, engine);
            outcome.sharding = Some(stats);
            // A clean plain run has nothing to report; a degraded one says
            // so.
            outcome.supervision = (supervised || supervision.any()).then_some(supervision);
            return Ok(outcome);
        }

        // Plain serial replay: chunk-batched decode for trace blobs, the
        // batched in-memory path for event slices.
        let detector = RaceDetector::with_config(config);
        let out = match (&blob, &events) {
            (Some(data), _) => run_analysis(source::chunks(trace_chunks(data, lenient)), detector)
                .map_err(SessionError::Trace)?,
            (None, Some(events)) => match run_analysis(source::recorded(events), detector) {
                Ok(out) => out,
                Err(never) => match never {},
            },
            (None, None) => unreachable!("feed resolution always yields one"),
        };
        Ok(AnalysisOutcome::from_dtrg(out.report, out.counters))
    }
}

pub(crate) fn erase_supervise_error(e: SuperviseError<TraceError>) -> SessionError {
    match e {
        SuperviseError::Stream(e) => SessionError::Trace(e),
        other => SessionError::Supervise(other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use futrace_runtime::{run_serial, EventLog, TaskCtx};

    fn racy_events() -> Vec<Event> {
        let mut log = EventLog::new();
        run_serial(&mut log, |ctx| {
            let a = ctx.shared_array(8, 0u64, "a");
            ctx.finish(|ctx| {
                for i in 0..8usize {
                    let aw = a.clone();
                    ctx.async_task(move |ctx| aw.write(ctx, i, 1));
                }
            });
            for i in 0..8usize {
                a.write(ctx, i, 2);
            }
            let aw = a.clone();
            let _f = ctx.future(move |ctx| aw.write(ctx, 3, 9));
            let _ = a.read(ctx, 3); // racy: read without get()
        });
        log.events
    }

    fn clean_events() -> Vec<Event> {
        let mut log = EventLog::new();
        run_serial(&mut log, |ctx| {
            let a = ctx.shared_array(4, 0u64, "a");
            for i in 0..4usize {
                a.write(ctx, i, 1);
            }
        });
        log.events
    }

    /// Frames `parts` as the consecutive chunks of a v2 trace.
    fn framed_blob(parts: &[&[Event]]) -> Vec<u8> {
        let mut blob = Vec::new();
        blob.extend_from_slice(&framed::MAGIC);
        blob.push(framed::VERSION);
        for events in parts {
            let payload = trace::encode(events);
            let mut header = [0u8; framed::CHUNK_HEADER_LEN];
            header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
            header[4..8].copy_from_slice(&(events.len() as u32).to_le_bytes());
            header[8..].copy_from_slice(&crc32(&payload).to_le_bytes());
            blob.extend_from_slice(&header);
            blob.extend_from_slice(&payload);
        }
        blob
    }

    #[test]
    fn rejects_zero_shards_and_zero_interval() {
        let err = Session::open(SessionConfig {
            shards: Some(0),
            ..SessionConfig::default()
        })
        .map(|_| ())
        .unwrap_err();
        assert!(matches!(err, SessionError::Config(_)));
        let err = Session::open(SessionConfig {
            checkpoint_every: Some(0),
            ..SessionConfig::default()
        })
        .map(|_| ())
        .unwrap_err();
        assert!(matches!(err, SessionError::Config(_)));
    }

    #[test]
    fn empty_session_finishes_clean() {
        let session = Session::open(SessionConfig::default()).unwrap();
        let out = session.finish().unwrap();
        assert!(!out.has_races());
        assert_eq!(out.engine.events, 0);
    }

    #[test]
    fn chunked_feed_matches_batch_feed() {
        let events = racy_events();
        let payload = trace::encode(&events);

        let mut batch = Session::open(SessionConfig::default()).unwrap();
        batch.feed_events(events.clone()).unwrap();
        let batch_out = batch.finish().unwrap();

        let mut wire = Session::open(SessionConfig::default()).unwrap();
        // Split at an event boundary: re-encode halves as two chunks.
        let mid = events.len() / 2;
        let first = trace::encode(&events[..mid]);
        let second = trace::encode(&events[mid..]);
        let d1 = wire.feed_chunk(&first).unwrap();
        let d2 = wire.feed_chunk(&second).unwrap();
        assert_eq!(d1.chunks, 1);
        assert_eq!(d2.chunks, 2);
        assert_eq!(d2.events, events.len() as u64);
        let wire_out = wire.finish().unwrap();

        assert_eq!(
            format!("{}", batch_out.races),
            format!("{}", wire_out.races)
        );
        assert_eq!(
            batch_out.races.total_detected,
            wire_out.races.total_detected
        );
        assert_eq!(batch_out.engine.events, wire_out.engine.events);
        // Sanity: the single-chunk wire path agrees too.
        let mut single = Session::open(SessionConfig::default()).unwrap();
        single.feed_chunk(&payload).unwrap();
        let single_out = single.finish().unwrap();
        assert_eq!(
            single_out.races.total_detected,
            batch_out.races.total_detected
        );
    }

    #[test]
    fn sharded_wire_feed_matches_serial() {
        let events = racy_events();
        let payload = trace::encode(&events);

        let mut serial = Session::open(SessionConfig::default()).unwrap();
        serial.feed_chunk(&payload).unwrap();
        let serial_out = serial.finish().unwrap();

        let mut sharded = Session::open(SessionConfig {
            shards: Some(4),
            ..SessionConfig::default()
        })
        .unwrap();
        sharded.feed_chunk(&payload).unwrap();
        let sharded_out = sharded.finish().unwrap();

        assert_eq!(
            format!("{}", serial_out.races),
            format!("{}", sharded_out.races)
        );
        assert!(sharded_out.sharding.is_some());
    }

    #[test]
    fn suspend_resume_reproduces_uninterrupted_report() {
        let events = racy_events();
        // Four chunks so the suspension point is interior.
        let quarter = events.len() / 4;
        let chunks: Vec<Vec<u8>> = (0..4)
            .map(|i| {
                let lo = i * quarter;
                let hi = if i == 3 { events.len() } else { (i + 1) * quarter };
                trace::encode(&events[lo..hi])
            })
            .collect();

        let mut uninterrupted = Session::open(SessionConfig::default()).unwrap();
        for c in &chunks {
            uninterrupted.feed_chunk(c).unwrap();
        }
        let want = uninterrupted.finish().unwrap();

        let mut first = Session::open(SessionConfig::default()).unwrap();
        for c in &chunks[..3] {
            first.feed_chunk(c).unwrap();
        }
        let checkpoint = first
            .suspend()
            .unwrap()
            .expect("three chunks are checkpointable");
        assert!(checkpoint.chunks_completed >= 1);

        let mut resumed = Session::open_resumed(SessionConfig::default(), checkpoint).unwrap();
        assert!(resumed.resumed_chunks() >= 1);
        for c in &chunks {
            resumed.feed_chunk(c).unwrap();
        }
        let got = resumed.finish().unwrap();

        assert_eq!(format!("{}", want.races), format!("{}", got.races));
        assert_eq!(want.races.total_detected, got.races.total_detected);
        assert!(got.supervision.is_some());
    }

    #[test]
    fn resume_with_wrong_trace_is_rejected() {
        let racy = racy_events();
        let clean = clean_events();
        let racy_chunks: Vec<Vec<u8>> = racy.chunks(2).map(trace::encode).collect();

        let mut first = Session::open(SessionConfig::default()).unwrap();
        for c in &racy_chunks {
            first.feed_chunk(c).unwrap();
        }
        let checkpoint = first.suspend().unwrap().expect("checkpointable");

        let mut resumed = Session::open_resumed(SessionConfig::default(), checkpoint).unwrap();
        // Stream a *different* trace than the checkpoint covers.
        resumed.feed_chunk(&trace::encode(&clean)).unwrap();
        let err = resumed.finish().unwrap_err();
        assert!(matches!(err, SessionError::Checkpoint(_)), "got {err}");
    }

    /// Splits `events` into `n` runs of near-equal length.
    fn split(events: &[Event], n: usize) -> Vec<&[Event]> {
        (0..n)
            .map(|i| &events[i * events.len() / n..(i + 1) * events.len() / n])
            .collect()
    }

    /// Wire chunk payloads, one per run of [`split`].
    fn split_chunks(events: &[Event], n: usize) -> Vec<Vec<u8>> {
        split(events, n).into_iter().map(trace::encode).collect()
    }

    fn fed(mut session: Session, chunks: &[Vec<u8>]) -> Session {
        for c in chunks {
            session.feed_chunk(c).unwrap();
        }
        session
    }

    #[test]
    fn resume_sweep_restores_the_live_engine_at_every_chunk() {
        let chunks = split_chunks(&racy_events(), 7);
        let cfg = SessionConfig {
            checkpoint_every: Some(2),
            ..SessionConfig::default()
        };
        let want = fed(Session::open(cfg.clone()).unwrap(), &chunks)
            .finish()
            .unwrap();
        assert!(want.has_races());

        for k in 1..=chunks.len() {
            let cp = fed(Session::open(cfg.clone()).unwrap(), &chunks[..k])
                .suspend()
                .unwrap()
                .expect("a fed session is checkpointable");
            assert_eq!(cp.chunks_completed, k as u64, "k={k}");
            assert_eq!(cp.shards, 1);

            // Re-fed exactly the covered chunks, a resumed session cuts
            // the same checkpoint byte for byte.
            let resume = || Session::open_resumed(cfg.clone(), cp.clone()).unwrap();
            let again = fed(resume(), &chunks[..k]).checkpoint().unwrap().unwrap();
            assert_eq!(again.encode(), cp.encode(), "k={k}");

            // Suspended before re-receiving them, it hands back the
            // checkpoint it resumed from.
            let early = fed(resume(), &chunks[..1]).suspend().unwrap().unwrap();
            assert_eq!(early, cp, "k={k}");

            let resumed = resume();
            assert_eq!(resumed.resumed_chunks(), k as u64);
            let got = fed(resumed, &chunks).finish().unwrap();
            assert_eq!(format!("{}", want.races), format!("{}", got.races), "k={k}");
            assert_eq!(want.races.total_detected, got.races.total_detected);
            assert_eq!(want.engine.events, got.engine.events);
            assert_eq!(want.engine.reads, got.engine.reads);
            assert_eq!(want.engine.writes, got.engine.writes);
            assert_eq!(want.stats.reads, got.stats.reads);
            assert_eq!(want.stats.writes, got.stats.writes);
            assert_eq!(want.footprint, got.footprint);
            assert_eq!(got.engine.resumed_from_checkpoint, 1);
            assert_eq!(got.supervision.map(|s| s.resumed_from_checkpoint), Some(1));
            assert!(got.sharding.is_none(), "the live engine finished it");
        }
    }

    #[test]
    fn sharded_wire_session_resumes_from_a_live_engine_checkpoint() {
        let chunks = split_chunks(&racy_events(), 6);
        let want = fed(Session::open(SessionConfig::default()).unwrap(), &chunks)
            .finish()
            .unwrap();
        let cfg = SessionConfig {
            shards: Some(4),
            checkpoint_every: Some(2),
            ..SessionConfig::default()
        };
        let cp = fed(Session::open(cfg.clone()).unwrap(), &chunks[..3])
            .suspend()
            .unwrap()
            .unwrap();
        let resumed = Session::open_resumed(cfg, cp).unwrap();
        assert_eq!(resumed.resumed_chunks(), 3);
        let got = fed(resumed, &chunks).finish().unwrap();
        assert_eq!(format!("{}", want.races), format!("{}", got.races));
        assert!(got.sharding.is_some());
        assert_eq!(got.engine.resumed_from_checkpoint, 1);
    }

    /// A serial session's checkpoint from before live-engine snapshots:
    /// cut by replaying the received prefix under the supervised pipeline
    /// with one shard, at the last completed chunk. It restores the live
    /// engine like a snapshot does.
    #[test]
    fn replayed_single_shard_checkpoint_still_resumes() {
        let events = racy_events();
        let parts = split(&events, 6);
        let chunks = split_chunks(&events, 6);
        let received = framed_blob(&parts[..4]);
        let plan = SupervisorPlan {
            shard: ShardPlan::with_shards(1),
            checkpoint_every_chunks: Some(8),
            stop_after_chunks: Some(3),
            fingerprint: Some(TraceFingerprint::of(&received)),
            ..SupervisorPlan::default()
        };
        let out = run_supervised(
            || trace_events(&received, false),
            RaceDetector::new,
            &plan,
            None,
        );
        let Ok(SupervisedOutcome::Suspended { checkpoint, .. }) = out else {
            panic!("the replay must suspend after 3 chunks");
        };

        let resumed = Session::open_resumed(SessionConfig::default(), checkpoint).unwrap();
        assert_eq!(resumed.resumed_chunks(), 3);
        let got = fed(resumed, &chunks).finish().unwrap();
        let want = fed(Session::open(SessionConfig::default()).unwrap(), &chunks)
            .finish()
            .unwrap();
        assert_eq!(format!("{}", want.races), format!("{}", got.races));
        assert_eq!(want.engine.events, got.engine.events);
        assert_eq!(want.stats.reads, got.stats.reads);
        assert_eq!(want.stats.writes, got.stats.writes);
        assert_eq!(want.footprint, got.footprint);
    }

    #[test]
    fn multi_shard_checkpoint_is_ignored_on_resume() {
        let chunks = split_chunks(&racy_events(), 4);
        let open = || Session::open(SessionConfig::default()).unwrap();
        let want = fed(open(), &chunks).finish().unwrap();
        let mut cp = fed(open(), &chunks[..2]).checkpoint().unwrap().unwrap();
        cp.shards = 2;
        cp.shard_states.push(Vec::new());
        cp.per_shard_accesses.push(0);
        let resumed = Session::open_resumed(SessionConfig::default(), cp).unwrap();
        assert_eq!(resumed.resumed_chunks(), 0);
        let got = fed(resumed, &chunks).finish().unwrap();
        assert_eq!(format!("{}", want.races), format!("{}", got.races));
        assert_eq!(got.engine.resumed_from_checkpoint, 0);
    }

    #[test]
    fn whole_blob_feed_matches_event_feed() {
        let events = racy_events();
        let blob = framed_blob(&[&events]);

        let mut by_blob = Session::open(SessionConfig::default()).unwrap();
        by_blob.feed_trace(blob).unwrap();
        let blob_out = by_blob.finish().unwrap();

        let mut by_events = Session::open(SessionConfig::default()).unwrap();
        by_events.feed_events(events).unwrap();
        let events_out = by_events.finish().unwrap();

        assert_eq!(
            format!("{}", blob_out.races),
            format!("{}", events_out.races)
        );
        assert_eq!(blob_out.engine.events, events_out.engine.events);
    }

    #[test]
    fn double_feed_is_rejected() {
        let mut s = Session::open(SessionConfig::default()).unwrap();
        s.feed_events(Vec::new()).unwrap();
        assert!(matches!(
            s.feed_trace(Vec::new()),
            Err(SessionError::Config(_))
        ));
        assert!(matches!(s.feed_chunk(&[]), Err(SessionError::Config(_))));
    }
}
