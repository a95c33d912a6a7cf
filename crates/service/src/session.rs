//! One live analysis session of the analysis daemon.
//!
//! A [`Session`] owns one DTRG engine, fed chunk by chunk as frames
//! arrive over the wire: each chunk is decoded into the compact form the
//! trace reader yields ([`DecodedChunk`]), the engine checks its events
//! the moment they arrive, one event at a time as a serial run would, and
//! the session reports a [`VerdictDelta`] (chunks / events / races so
//! far) after every chunk.
//! The final verdict *is* that engine's verdict — exact by Theorem 2 once
//! the last chunk of the serial depth-first stream is checked,
//! checkpointed or resumed or not — so nothing is replayed at
//! [`Session::finish`].
//!
//! Checkpoints are snapshots of that live engine, in the FCKP format of
//! DESIGN S38: [`Session::checkpoint`] stores the control-event prefix
//! collected as chunks arrived, the detector's access-derived state and
//! the engine's counters. Those are Theorem 1's space terms, so a
//! checkpoint costs O(detector state), not a replay of the chunks
//! received. [`Session::open_resumed`] restores the engine from one, and
//! [`Session::feed_chunk`] re-frames the chunks it covers without
//! checking them again while the client re-streams the full trace. A
//! daemon cutting a checkpoint whenever [`Session::checkpoint_due`] loses
//! at most the chunks received since the last interval when it is killed.

use futrace_detector::RaceDetector;
use futrace_offline::checkpoint::FINGERPRINT_HEAD;
use futrace_offline::framed;
use futrace_offline::{
    rebuild_replica, AnalysisOutcome, Checkpoint, FrameError, RouterProgress, SupervisionReport,
    TraceFingerprint,
};
use futrace_runtime::engine::{Analysis, Checkpointable, Engine, EngineCounters};
use futrace_runtime::trace::DecodedChunk;
use futrace_runtime::Event;
use futrace_util::crc32::crc32;
use futrace_util::stats::Timer;
use std::fmt;

/// What can go wrong inside a session, independent of any I/O the caller
/// layered on top.
#[derive(Debug)]
pub enum SessionError {
    /// A fed chunk is invalid.
    Trace(FrameError),
    /// The session configuration is invalid.
    Config(String),
    /// A resumed checkpoint could not be restored, or does not match the
    /// re-streamed trace.
    Checkpoint(String),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Trace(e) => write!(f, "invalid trace: {e}"),
            SessionError::Config(e) => write!(f, "invalid analysis options: {e}"),
            SessionError::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

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

/// Configuration for one session.
#[derive(Clone, Debug, Default)]
pub struct SessionConfig {
    /// The daemon's checkpoint cadence: `Session::checkpoint_due` holds
    /// after every N-th chunk (`None` = checkpoints only on suspension).
    pub checkpoint_every: Option<u64>,
}

/// The chunks a session received, framed exactly as `StreamWriter` would
/// have written them, kept only for the session's [`TraceFingerprint`]:
/// the first [`FINGERPRINT_HEAD`] bytes and the running length, so its
/// memory does not grow with the trace.
struct Reframed {
    /// The first `FINGERPRINT_HEAD` bytes of the framed trace.
    bytes: Vec<u8>,
    /// Length of the whole framed trace.
    len: u64,
}

impl Reframed {
    fn new() -> Reframed {
        let mut bytes = Vec::with_capacity(framed::HEADER_LEN);
        bytes.extend_from_slice(&framed::MAGIC);
        bytes.push(framed::VERSION);
        Reframed {
            bytes,
            len: framed::HEADER_LEN as u64,
        }
    }

    /// Appends one chunk of `events` events. Once the head is full, only
    /// the length grows: no copy and no chunk CRC.
    fn push(&mut self, payload: &[u8], events: u32) {
        self.len += (framed::CHUNK_HEADER_LEN + payload.len()) as u64;
        if self.bytes.len() == FINGERPRINT_HEAD {
            return;
        }
        self.bytes
            .extend_from_slice(&framed::chunk_header(payload, events));
        self.bytes.extend_from_slice(payload);
        self.bytes.truncate(FINGERPRINT_HEAD);
    }

    /// The fingerprint of the whole framed trace.
    fn fingerprint(&self) -> TraceFingerprint {
        TraceFingerprint {
            len: self.len,
            head_crc: crc32(self.head(FINGERPRINT_HEAD)),
        }
    }

    /// The first `n` bytes, or all of a shorter trace (`n` is at most
    /// `FINGERPRINT_HEAD`).
    fn head(&self, n: usize) -> &[u8] {
        &self.bytes[..self.bytes.len().min(n)]
    }
}

/// One live analysis. See the module docs.
pub struct Session {
    cfg: SessionConfig,
    engine: Engine<RaceDetector>,
    /// The control events the engine has applied (a checkpoint's control
    /// prefix).
    control: Vec<Event>,
    trace: Reframed,
    chunks: u64,
    events: u64,
    resume: Option<Checkpoint>,
    timer: Timer,
}

impl Session {
    /// Opens a session, validating the configuration up front.
    pub fn open(cfg: SessionConfig) -> Result<Self, SessionError> {
        if cfg.checkpoint_every == Some(0) {
            return Err(SessionError::Config(
                "checkpoint_every(0): the checkpoint interval must be at least one chunk"
                    .to_string(),
            ));
        }
        Ok(Session {
            cfg,
            engine: Engine::new(RaceDetector::new()),
            control: Vec::new(),
            trace: Reframed::new(),
            chunks: 0,
            events: 0,
            resume: None,
            timer: Timer::start(),
        })
    }

    /// Opens a session resuming from a suspended session's checkpoint, by
    /// restoring its live engine: the control prefix goes back through
    /// `apply_control`, the detector's access-derived state through
    /// `restore_state`, and counting and access numbering continue from
    /// the checkpoint's.
    ///
    /// The feeder streams the *full* trace again (wire clients re-send
    /// every chunk and keep no local state); [`Session::feed_chunk`]
    /// re-frames the chunks the checkpoint covers without checking them
    /// again, so the final report is identical to an uninterrupted run.
    /// A checkpoint across several shards (cut by a replay before
    /// checkpoints came from the live engine) cannot restore one engine:
    /// it is ignored, and the session starts from chunk 0.
    pub(crate) fn open_resumed(
        cfg: SessionConfig,
        checkpoint: Checkpoint,
    ) -> Result<Self, SessionError> {
        let mut session = Session::open(cfg)?;
        let (states @ [_], 1) = (checkpoint.shard_states.as_slice(), checkpoint.shards) else {
            return Ok(session);
        };
        let detector = rebuild_replica(RaceDetector::new, 0, 1, &checkpoint.control_events, states)
            .map_err(|e| SessionError::Checkpoint(e.to_string()))?;
        let r = checkpoint.router;
        let counters = EngineCounters {
            events: r.events,
            control_events: r.control_events,
            reads: r.reads,
            writes: r.writes,
            ..EngineCounters::default()
        };
        session.engine = Engine::resumed(detector, counters, checkpoint.next_access_index);
        session.control = checkpoint.control_events.clone();
        session.resume = Some(checkpoint);
        Ok(session)
    }

    /// Chunks a resumed checkpoint already completed (0 for a fresh
    /// session).
    pub(crate) fn resumed_chunks(&self) -> u64 {
        self.resume.as_ref().map_or(0, |c| c.chunks_completed)
    }

    /// Chunks fed so far.
    pub(crate) fn chunks(&self) -> u64 {
        self.chunks
    }

    /// Whether the configured cadence asks for a checkpoint now, after
    /// the chunk just fed.
    pub(crate) fn checkpoint_due(&self) -> bool {
        self.cfg
            .checkpoint_every
            .is_some_and(|every| self.chunks.is_multiple_of(every))
    }

    /// Feeds one trace chunk (codec-encoded events — the payload bytes of
    /// a framed `.ftrc` chunk), checking its events with the live engine
    /// immediately and returning the incremental verdict.
    ///
    /// The chunk is also re-framed into the session's fingerprint. A
    /// resumed session re-frames the chunks its checkpoint covers without
    /// checking them again; meanwhile the delta's `races` is the
    /// checkpoint's count.
    pub fn feed_chunk(&mut self, payload: &[u8]) -> Result<VerdictDelta, SessionError> {
        let chunk = self.chunks as usize;
        let decoded = DecodedChunk::decode(payload)
            .map_err(|error| SessionError::Trace(FrameError::Decode { chunk, error }))?;
        Ok(self.feed_decoded(payload, &decoded))
    }

    /// [`Session::feed_chunk`] for a chunk that declares its event count,
    /// as every wire chunk does. The chunk must pass
    /// [`framed::decode_counted`], the test a trace read applies to every
    /// chunk: a payload that decodes to a different number of events
    /// fails with `Malformed("event count mismatch")`, and nothing from
    /// it is applied.
    pub(crate) fn feed_chunk_with_count(
        &mut self,
        payload: &[u8],
        event_count: u32,
    ) -> Result<VerdictDelta, SessionError> {
        let mut decoded = DecodedChunk::default();
        framed::decode_counted(self.chunks as usize, event_count, payload, &mut decoded)
            .map_err(SessionError::Trace)?;
        Ok(self.feed_decoded(payload, &decoded))
    }

    /// Applies one decoded chunk: re-frames it, and, unless a resumed
    /// checkpoint already covers it, appends its control events to the
    /// checkpoint prefix and checks its events.
    fn feed_decoded(&mut self, payload: &[u8], chunk: &DecodedChunk) -> VerdictDelta {
        self.trace.push(payload, chunk.len() as u32);
        if self.chunks >= self.resumed_chunks() {
            self.control.extend_from_slice(chunk.controls());
            self.engine.consume_chunk(chunk);
        }
        self.chunks += 1;
        self.events += chunk.len() as u64;
        VerdictDelta {
            chunks: self.chunks,
            events: self.events,
            races: self.engine.analysis().total_detected(),
        }
    }

    /// Verifies a resumed checkpoint against the re-streamed trace. The
    /// fingerprint was taken over the *prefix* received before
    /// suspension, so the head CRC must match the same head span of the
    /// new blob and the new blob must be at least as long — a plain
    /// `matches_trace` would reject the (longer) full trace. The session
    /// must also have re-received every chunk the checkpoint covers.
    fn verify_resume_fingerprint(&self) -> Result<(), SessionError> {
        let Some(cp) = &self.resume else {
            return Ok(());
        };
        let differs = cp.fingerprint.is_some_and(|fp| {
            let head = FINGERPRINT_HEAD.min(fp.len as usize);
            self.trace.len < fp.len || crc32(self.trace.head(head)) != fp.head_crc
        });
        if differs || self.chunks < cp.chunks_completed {
            return Err(SessionError::Checkpoint(
                "resumed session received a different trace than the checkpoint covers".to_string(),
            ));
        }
        Ok(())
    }

    /// Cuts an FCKP checkpoint covering every chunk received so far, as a
    /// snapshot of the live engine: the control events it applied, the
    /// detector's access-derived state, and its counters. The cost is
    /// O(detector state), however many chunks were received. Returns
    /// `None` before the first chunk. Never fails; the `Result` is part
    /// of the signature callers match on.
    ///
    /// A resumed session that has not yet re-received the chunks its
    /// checkpoint covers returns that checkpoint unchanged. A snapshot
    /// claiming fewer chunks than its state covers would make the next
    /// resume apply those chunks' control events twice.
    pub fn checkpoint(&self) -> Result<Option<Checkpoint>, SessionError> {
        match &self.resume {
            Some(cp) if self.chunks < cp.chunks_completed => return Ok(Some(cp.clone())),
            None if self.chunks == 0 => return Ok(None),
            _ => {}
        }
        let c = self.engine.counters();
        let mut state = Vec::new();
        self.engine.analysis().save_state(&mut state);
        Ok(Some(Checkpoint {
            shards: 1,
            events_consumed: c.events,
            next_access_index: self.engine.next_index(),
            chunks_completed: self.chunks,
            router: RouterProgress {
                events: c.events,
                control_events: c.control_events,
                reads: c.reads,
                writes: c.writes,
            },
            control_events: self.control.clone(),
            per_shard_accesses: vec![c.checks()],
            shard_states: vec![state],
            fingerprint: Some(self.trace.fingerprint()),
        }))
    }

    /// Suspends the session: cuts a checkpoint (see
    /// [`Session::checkpoint`]) and consumes the session. Returns `None`
    /// when nothing worth checkpointing was received; the caller then
    /// simply starts over on resume.
    pub(crate) fn suspend(self) -> Result<Option<Checkpoint>, SessionError> {
        self.checkpoint()
    }

    /// Finishes the session with its live engine's verdict, after
    /// checking that a resumed session re-received the trace its
    /// checkpoint covers.
    pub fn finish(self) -> Result<AnalysisOutcome, SessionError> {
        self.verify_resume_fingerprint()?;
        let (analysis, mut counters) = self.engine.into_parts();
        counters.wall_ms = self.timer.elapsed_ms();
        let mut outcome = AnalysisOutcome::from_dtrg(Analysis::finish(analysis), counters);
        if self.resume.is_some() {
            outcome.supervision = Some(SupervisionReport {
                resumed_from_checkpoint: 1,
                ..SupervisionReport::default()
            });
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use futrace_offline::{
        run_supervised, trace_chunks, ShardPlan, SupervisedOutcome, SupervisorPlan,
    };
    use futrace_runtime::engine::run_analysis_recorded;
    use futrace_runtime::monitor::TaskKind;
    use futrace_runtime::{run_serial, trace, EventLog, TaskCtx};
    use futrace_util::ids::{FinishId, LocId, TaskId};
    use futrace_util::rng::Rng;

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
            blob.extend_from_slice(&framed::chunk_header(&payload, events.len() as u32));
            blob.extend_from_slice(&payload);
        }
        blob
    }

    #[test]
    fn rejects_a_zero_checkpoint_interval() {
        let err = Session::open(SessionConfig {
            checkpoint_every: Some(0),
        })
        .map(|_| ())
        .unwrap_err();
        assert!(matches!(err, SessionError::Config(_)));
        assert!(err.to_string().contains("checkpoint_every(0)"), "{err}");
    }

    #[test]
    fn empty_session_finishes_clean() {
        let session = Session::open(SessionConfig::default()).unwrap();
        let out = session.finish().unwrap();
        assert!(!out.has_races());
        assert_eq!(out.engine.events, 0);
    }

    #[test]
    fn a_miscounted_chunk_fails_and_applies_nothing() {
        let events = racy_events();
        let payload = trace::encode(&events);
        let n = events.len() as u32;
        let mut session = Session::open(SessionConfig::default()).unwrap();
        for wrong in [n - 1, n + 1] {
            let err = session.feed_chunk_with_count(&payload, wrong).unwrap_err();
            assert!(err.to_string().contains("event count mismatch"), "{err}");
            assert_eq!((session.chunks(), session.events), (0, 0));
            assert_eq!(session.engine.counters().events, 0, "nothing applied");
        }
        let delta = session.feed_chunk_with_count(&payload, n).unwrap();
        assert_eq!((delta.chunks, delta.events), (1, u64::from(n)));
        let want = run_analysis_recorded(&events, RaceDetector::new())
            .report
            .report;
        assert_eq!(
            session.finish().unwrap().races.total_detected,
            want.total_detected
        );
    }

    #[test]
    fn chunked_feed_matches_batch_feed() {
        let events = racy_events();
        let payload = trace::encode(&events);
        let batch = run_analysis_recorded(&events, RaceDetector::new());

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

        let want = &batch.report.report;
        assert_eq!(format!("{want}"), format!("{}", wire_out.races));
        assert_eq!(want.total_detected, wire_out.races.total_detected);
        assert_eq!(batch.counters.events, wire_out.engine.events);
        // Sanity: the single-chunk wire path agrees too.
        let mut single = Session::open(SessionConfig::default()).unwrap();
        single.feed_chunk(&payload).unwrap();
        let single_out = single.finish().unwrap();
        assert_eq!(single_out.races.total_detected, want.total_detected);
    }

    #[test]
    fn suspend_resume_reproduces_uninterrupted_report() {
        let events = racy_events();
        // Four chunks so the suspension point is interior.
        let quarter = events.len() / 4;
        let chunks: Vec<Vec<u8>> = (0..4)
            .map(|i| {
                let lo = i * quarter;
                let hi = if i == 3 {
                    events.len()
                } else {
                    (i + 1) * quarter
                };
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
            assert_eq!(got.supervision.map(|s| s.resumed_from_checkpoint), Some(1));
            assert!(got.sharding.is_none(), "the live engine finished it");
        }
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
            || trace_chunks(&received, false),
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
        assert!(got.supervision.is_none(), "not a resumed session");
    }

    #[test]
    fn crafted_shadow_length_fails_the_open_instead_of_aborting() {
        // A valid 1-shard checkpoint whose state blob claims 2^40 shadow
        // cells (the byte after the version; a fresh detector's is 0) and
        // lists none. Restoring it must fail this session's open, not ask
        // the allocator for tens of terabytes.
        let mut fresh = Vec::new();
        RaceDetector::new().save_state(&mut fresh);
        assert_eq!(fresh[1], 0, "a fresh detector has no shadow memory");
        let mut state = fresh[..1].to_vec();
        futrace_util::wire::put_varint(&mut state, 1 << 40);
        state.extend_from_slice(&fresh[2..]);
        let cp = Checkpoint {
            shards: 1,
            events_consumed: 0,
            next_access_index: 0,
            chunks_completed: 1,
            router: RouterProgress::default(),
            control_events: Vec::new(),
            per_shard_accesses: vec![0],
            shard_states: vec![state],
            fingerprint: None,
        };
        let cp = Checkpoint::decode(&cp.encode()).expect("a well-formed file");
        match Session::open_resumed(SessionConfig::default(), cp) {
            Err(SessionError::Checkpoint(e)) => assert!(e.contains("shadow length"), "{e}"),
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("a crafted shadow length must not restore"),
        }
    }

    /// A fresh detector's state blob.
    fn fresh_state() -> Vec<u8> {
        let mut state = Vec::new();
        RaceDetector::new().save_state(&mut state);
        state
    }

    /// Opens `cp` the way the daemon opens a checkpoint file: encode,
    /// decode (CRC and structure), then resume.
    fn open_file(cp: &Checkpoint) -> Result<Session, String> {
        let cp = Checkpoint::decode(&cp.encode()).map_err(|e| e.to_string())?;
        Session::open_resumed(SessionConfig::default(), cp).map_err(|e| e.to_string())
    }

    /// A one-shard checkpoint holding `control` and `state`.
    fn crafted(control: Vec<Event>, state: Vec<u8>) -> Checkpoint {
        Checkpoint {
            shards: 1,
            events_consumed: control.len() as u64,
            next_access_index: 0,
            chunks_completed: 1,
            router: RouterProgress::default(),
            control_events: control,
            per_shard_accesses: vec![0],
            shard_states: vec![state],
            fingerprint: None,
        }
    }

    /// A CRC-valid checkpoint whose control prefix is `control` must fail
    /// the open with a structured error naming `why`, not panic.
    fn assert_prefix_fails_the_open(control: Vec<Event>, why: &str) {
        match open_file(&crafted(control, fresh_state())) {
            Err(e) => assert!(
                e.contains("checkpoint inconsistent") && e.contains(why),
                "{e}"
            ),
            Ok(_) => panic!("a crafted control prefix must not open"),
        }
    }

    #[test]
    fn crafted_prefix_ending_an_uncreated_task_fails_the_open() {
        assert_prefix_fails_the_open(vec![Event::TaskEnd(TaskId(50))], "T50 acts");
    }

    #[test]
    fn crafted_prefix_awaiting_an_uncreated_task_fails_the_open() {
        let get = Event::Get {
            waiter: TaskId(0),
            awaited: TaskId(77),
        };
        assert_prefix_fails_the_open(vec![get], "T77 is awaited");
    }

    #[test]
    fn crafted_prefix_joining_an_uncreated_task_fails_the_open() {
        let end = Event::FinishEnd(TaskId(0), FinishId(9), vec![TaskId(40)]);
        assert_prefix_fails_the_open(vec![end], "joins T40");
    }

    #[test]
    fn crafted_prefix_awaiting_the_main_task_fails_the_open() {
        let create = Event::TaskCreate {
            parent: TaskId(0),
            child: TaskId(1),
            kind: TaskKind::Future,
            ief: FinishId(0),
        };
        let get = Event::Get {
            waiter: TaskId(1),
            awaited: TaskId(0),
        };
        assert_prefix_fails_the_open(vec![create, get], "T0 is awaited");
    }

    #[test]
    fn crafted_prefix_with_a_sparse_child_id_fails_the_open() {
        let create = Event::TaskCreate {
            parent: TaskId(0),
            child: TaskId(5),
            kind: TaskKind::Async,
            ief: FinishId(0),
        };
        assert_prefix_fails_the_open(vec![create], "child T5 is not the next task id T1");
    }

    #[test]
    fn crafted_cell_writer_fails_the_open() {
        // One cell, at location 0, written by T1000000: version, shadow
        // length, cell count, then index, writer flag and task, no
        // readers, no last clean verdict, no probe misses, and a fresh
        // detector's fields after the cells.
        let fresh = fresh_state();
        assert_eq!(
            fresh[..3],
            [4, 0, 0],
            "version 4, no shadow memory, no cells"
        );
        let mut state = vec![4, 1, 1, 0, 1];
        futrace_util::wire::put_varint(&mut state, 1_000_000);
        state.extend_from_slice(&[0, 0, 0]);
        state.extend_from_slice(&fresh[3..]);
        let cp = crafted(vec![Event::Alloc(LocId(0), 1, "x".into())], state);
        match open_file(&cp) {
            Err(e) => assert!(e.contains("writer task T1000000 was never created"), "{e}"),
            Ok(_) => panic!("a cell naming an uncreated task must not restore"),
        }
    }

    /// The task ids a control event names.
    fn task_ids(e: &mut Event) -> Vec<&mut TaskId> {
        match e {
            Event::TaskCreate { parent, child, .. } => vec![parent, child],
            Event::TaskEnd(t) | Event::FinishStart(t, _) => vec![t],
            Event::FinishEnd(t, _, joined) => std::iter::once(t).chain(joined).collect(),
            Event::Get { waiter, awaited } => vec![waiter, awaited],
            _ => Vec::new(),
        }
    }

    /// Re-encodes a DTRG state blob (version 4) with `map` applied to each
    /// task id its cells name — writers, readers and last-clean tasks, in
    /// order — and every other byte kept.
    fn map_cell_tasks(state: &[u8], mut map: impl FnMut(u64) -> u64) -> Vec<u8> {
        use futrace_util::wire::{put_varint, Cursor};
        let mut c = Cursor::new(state);
        let mut out = Vec::new();
        let mut next = |c: &mut Cursor, out: &mut Vec<u8>, task: bool| {
            let v = c.varint("state field").unwrap();
            put_varint(out, if task { map(v) } else { v });
            v
        };
        next(&mut c, &mut out, false); // version
        next(&mut c, &mut out, false); // shadow length
        for _ in 0..next(&mut c, &mut out, false) {
            next(&mut c, &mut out, false); // index
            if next(&mut c, &mut out, false) == 1 {
                next(&mut c, &mut out, true); // writer
            }
            for _ in 0..next(&mut c, &mut out, false) {
                next(&mut c, &mut out, true); // reader
            }
            if next(&mut c, &mut out, false) == 1 {
                next(&mut c, &mut out, true); // last-clean task
                next(&mut c, &mut out, false); // its write flag
                next(&mut c, &mut out, false); // its epoch
            }
            next(&mut c, &mut out, false); // probe misses
        }
        out.extend_from_slice(&state[c.position()..]);
        out
    }

    #[test]
    fn perturbed_checkpoint_ids_open_or_fail_but_never_panic() {
        // A live-engine checkpoint of a random program, with task ids in
        // its control prefix and cells replaced by nearby, fresh or far
        // ones, then re-encoded with a valid CRC. Every case must open or
        // return an error; a panic fails the property.
        use futrace_benchsuite::randomprog::{self, GenParams};
        use futrace_util::propcheck::{self, strategies, Config};
        let (opened, refused) = (std::cell::Cell::new(0), std::cell::Cell::new(0));
        propcheck::check(&Config::with_cases(256), &strategies::any_u64(), |seed| {
            let prog = randomprog::generate(seed, &GenParams::default());
            let mut log = EventLog::new();
            run_serial(&mut log, |ctx| randomprog::execute(ctx, &prog));
            let chunks = split_chunks(&log.events, 4);
            let mut rng = futrace_util::rng::seeded(seed);
            let upto = rng.gen_range(1..chunks.len() + 1);
            let mut cp = fed(
                Session::open(SessionConfig::default()).unwrap(),
                &chunks[..upto],
            )
            .checkpoint()
            .unwrap()
            .unwrap();
            let tasks = 1 + cp
                .control_events
                .iter()
                .filter(|e| matches!(e, Event::TaskCreate { .. }))
                .count() as u64;
            let perturb = |rng: &mut Rng, old: u64| match rng.gen_range(0..4u32) {
                0 => old + 1,
                1 => old.saturating_sub(1),
                2 => rng.gen_range(0..tasks + 2),
                _ => [tasks, 1 << 20, u32::MAX as u64][rng.gen_range(0..3usize)],
            };
            let mut ids: Vec<&mut TaskId> =
                cp.control_events.iter_mut().flat_map(task_ids).collect();
            for _ in 0..rng.gen_range(0..3usize) {
                if !ids.is_empty() {
                    let i = rng.gen_range(0..ids.len());
                    ids[i].0 = perturb(&mut rng, ids[i].0 as u64).min(u32::MAX as u64) as u32;
                }
            }
            let mut named = 0usize;
            map_cell_tasks(&cp.shard_states[0], |t| {
                named += 1;
                t
            });
            if named > 0 && rng.gen_bool(0.5) {
                let pick = rng.gen_range(0..named);
                let mut k = 0;
                let state = map_cell_tasks(&cp.shard_states[0], |t| {
                    k += 1;
                    if k - 1 == pick {
                        perturb(&mut rng, t).min(u32::MAX as u64)
                    } else {
                        t
                    }
                });
                cp.shard_states[0] = state;
            }
            match open_file(&cp) {
                Ok(_) => opened.set(opened.get() + 1),
                Err(_) => refused.set(refused.get() + 1),
            }
        });
        assert!(
            opened.get() > 0 && refused.get() > 0,
            "{opened:?} opened, {refused:?} refused"
        );
    }

    /// A framed trace recorded by `StreamWriter` whose first chunk holds
    /// exactly `first` payload bytes: reads by the main task, 4-byte ones
    /// (two-byte loc id) to fix the residue mod 3, then 3-byte ones.
    fn streamed(first: usize) -> Vec<u8> {
        let mut writer = framed::StreamWriter::with_chunk_bytes(Vec::new(), first).unwrap();
        for _ in 0..first % 3 {
            writer.record(&Event::Read(TaskId(0), LocId(200)));
        }
        for _ in 0..3000 {
            writer.record(&Event::Read(TaskId(0), LocId(5)));
        }
        writer.finish().unwrap().0
    }

    #[test]
    fn chunk_fed_fingerprint_equals_the_streamed_trace_fingerprint() {
        // The first chunk's framed end (5 + 12 + payload bytes) lands
        // before the 4096-byte head (1001; with 4074 a later chunk header
        // straddles it), exactly on it (4079), and past it (5000).
        for first in [1001, 4074, 4079, 5000] {
            let blob = streamed(first);
            let chunks: Vec<&[u8]> = framed::chunks(&blob).map(|c| c.unwrap().payload).collect();
            assert_eq!(chunks[0].len(), first);
            let mut session = Session::open(SessionConfig::default()).unwrap();
            let mut end = framed::HEADER_LEN;
            for payload in &chunks {
                session.feed_chunk(payload).unwrap();
                end += framed::CHUNK_HEADER_LEN + payload.len();
                let cp = session.checkpoint().unwrap().unwrap();
                let want = TraceFingerprint::of(&blob[..end]);
                assert_eq!(cp.fingerprint, Some(want), "first {first}");
            }
            assert_eq!(end, blob.len());
            assert!(!session.finish().unwrap().has_races());
        }
    }
}
