//! Framed trace format **v2**, the one trace file format: a streaming,
//! corruption-tolerant container for the event codec.
//!
//! The codec ([`futrace_runtime::trace`]) packs events into a bare
//! concatenation of varints: compact, but with no boundaries a reader
//! could resync on, so one flipped byte poisons the decode of everything
//! after it. The framed format wraps the same per-event encoding in
//! checksummed chunks:
//!
//! ```text
//! "FTRC" 0x02                                  file header (5 bytes)
//! repeated chunks:
//!   payload_len: u32 LE                        bytes of payload
//!   event_count: u32 LE                        events encoded in payload
//!   crc32:       u32 LE                        CRC-32 of payload
//!   payload:     payload_len bytes             codec-encoded events
//! ```
//!
//! * [`StreamWriter`] is a [`Monitor`]: it encodes events into a bounded
//!   buffer and emits a chunk whenever the buffer fills, so recording a
//!   10⁹-access run needs O(chunk) memory, not O(trace).
//! * [`chunks`] walks the chunks, checking structure and each CRC; the
//!   length prefix makes resynchronization past a corrupt chunk trivial,
//!   which is the point of framing. [`Chunk::decode`] is the one test of
//!   whether a CRC-checked chunk is intact (it decodes, and holds the
//!   events its header declares), and decodes it into the compact
//!   [`DecodedChunk`] form. [`crate::trace_chunks`] builds the only trace
//!   reader on the two: strict reads stop at the first damaged chunk with
//!   a structured [`FrameError`], lenient reads drop a damaged chunk whole
//!   and count it, and structural damage (a bad header, a truncation) ends
//!   both.
//!
//! A blob that does not start with the magic is [`FrameError::NotFramed`]
//! on every reader, whatever it holds (a bare codec stream, an empty file).

use futrace_runtime::monitor::{Event, Monitor, TaskKind};
use futrace_runtime::trace::{self, DecodeError, DecodedChunk};
use futrace_util::crc32::crc32;
use futrace_util::faultinject::{write_all_with_retry, Backoff};
use futrace_util::ids::{FinishId, LocId, TaskId};
use std::io;
use std::time::Duration;

/// File magic ("FTRC").
pub const MAGIC: [u8; 4] = *b"FTRC";
/// Format version carried after the magic.
pub const VERSION: u8 = 2;
/// File header length (magic + version).
pub const HEADER_LEN: usize = 5;
/// Per-chunk header length (payload_len + event_count + crc32).
pub const CHUNK_HEADER_LEN: usize = 12;
/// Default chunk payload target (bytes). Chunks close at the first event
/// boundary past this size.
pub const DEFAULT_CHUNK_BYTES: usize = 64 * 1024;
/// Largest chunk payload target (1 GiB), so a chunk's payload length
/// always fits its `u32` header field.
pub const MAX_CHUNK_BYTES: usize = 1 << 30;

/// Framing-level failure. Event-codec failures inside an intact chunk are
/// wrapped as [`FrameError::Decode`] so callers always know which chunk
/// was bad.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The blob does not start with the v2 magic.
    NotFramed,
    /// Magic matched but the version byte is unknown.
    BadVersion(u8),
    /// The blob ends mid-chunk (short header or short payload).
    TruncatedChunk {
        /// Index of the incomplete chunk.
        chunk: usize,
        /// Byte offset of the chunk's header within the file.
        offset: usize,
        /// Bytes actually present from `offset` to end of file.
        available: usize,
        /// Bytes the chunk header promised (`None` when even the 12-byte
        /// header is incomplete).
        expected: Option<usize>,
    },
    /// A chunk's payload does not match its stored CRC.
    CorruptChunk {
        /// Index of the damaged chunk.
        chunk: usize,
        /// Byte offset of the chunk's header within the file.
        offset: usize,
        /// CRC stored in the chunk header.
        stored: u32,
        /// CRC computed over the payload.
        computed: u32,
    },
    /// A CRC-intact chunk whose payload fails to decode, or whose decoded
    /// event count disagrees with the header.
    Decode {
        /// Index of the offending chunk.
        chunk: usize,
        /// The codec-level error (`Malformed("event count mismatch")` for
        /// count disagreements).
        error: DecodeError,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::NotFramed => write!(f, "not a framed (v2) trace"),
            FrameError::BadVersion(v) => write!(f, "unsupported trace format version {v}"),
            FrameError::TruncatedChunk {
                chunk,
                offset,
                available,
                expected,
            } => match expected {
                Some(want) => write!(
                    f,
                    "trace truncated inside chunk {chunk} at byte offset {offset}: \
                     expected {want} byte(s), only {available} present"
                ),
                None => write!(
                    f,
                    "trace truncated inside chunk {chunk} at byte offset {offset}: \
                     chunk header incomplete ({available} of {CHUNK_HEADER_LEN} byte(s))"
                ),
            },
            FrameError::CorruptChunk {
                chunk,
                offset,
                stored,
                computed,
            } => write!(
                f,
                "chunk {chunk} at byte offset {offset} corrupt: \
                 expected crc {stored:#010x}, actual {computed:#010x}"
            ),
            FrameError::Decode { chunk, error } => {
                write!(f, "chunk {chunk} payload undecodable: {error}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// True iff `data` begins with the v2 magic (the version is checked
/// after it, so a bad version is [`FrameError::BadVersion`], not
/// [`FrameError::NotFramed`]).
fn is_framed(data: &[u8]) -> bool {
    data.len() >= 4 && data[..4] == MAGIC
}

/// The header of a chunk whose `payload` encodes `event_count` events.
pub fn chunk_header(payload: &[u8], event_count: u32) -> [u8; CHUNK_HEADER_LEN] {
    let mut header = [0u8; CHUNK_HEADER_LEN];
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..8].copy_from_slice(&event_count.to_le_bytes());
    header[8..].copy_from_slice(&crc32(payload).to_le_bytes());
    header
}

fn read_u32(data: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([data[at], data[at + 1], data[at + 2], data[at + 3]])
}

/// One chunk whose payload matches its CRC.
#[derive(Clone, Copy, Debug)]
pub struct Chunk<'a> {
    /// 0-based chunk index within the file.
    pub index: usize,
    /// Events the writer declared for this payload.
    pub event_count: u32,
    /// The codec-encoded payload (CRC already validated).
    pub payload: &'a [u8],
}

impl Chunk<'_> {
    /// Decodes the payload into the compact form. This decides whether a
    /// CRC-checked chunk is intact, for every reader: its payload must
    /// decode, and it must hold exactly the events its header declares. A
    /// chunk that is not is [`FrameError::Decode`], the count case as
    /// `Malformed("event count mismatch")`; no buffer is sized from the
    /// declared count. Iterating the chunk expands its events.
    pub fn decode(&self) -> Result<DecodedChunk, FrameError> {
        let damaged = |error| FrameError::Decode {
            chunk: self.index,
            error,
        };
        let chunk = DecodedChunk::decode(self.payload).map_err(damaged)?;
        if chunk.len() as u64 != u64::from(self.event_count) {
            return Err(damaged(DecodeError::Malformed("event count mismatch")));
        }
        Ok(chunk)
    }
}

/// Iterates the chunks of a framed blob, validating structure and CRCs.
///
/// Yields `Err(CorruptChunk)` for a CRC mismatch and *continues* with the
/// next chunk (the length prefix is trusted for resync); yields
/// `Err(TruncatedChunk)` / header errors and fuses, since no further
/// boundary is known.
pub struct ChunkIter<'a> {
    data: &'a [u8],
    pos: usize,
    index: usize,
    state: IterState,
}

enum IterState {
    Header,
    Chunks,
    Done,
}

/// Chunk iterator over `data` (header validated on first `next`).
pub fn chunks(data: &[u8]) -> ChunkIter<'_> {
    ChunkIter {
        data,
        pos: 0,
        index: 0,
        state: IterState::Header,
    }
}

impl<'a> Iterator for ChunkIter<'a> {
    type Item = Result<Chunk<'a>, FrameError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            match self.state {
                IterState::Done => return None,
                IterState::Header => {
                    if !is_framed(self.data) || self.data.len() < HEADER_LEN {
                        self.state = IterState::Done;
                        return Some(Err(FrameError::NotFramed));
                    }
                    if self.data[4] != VERSION {
                        self.state = IterState::Done;
                        return Some(Err(FrameError::BadVersion(self.data[4])));
                    }
                    self.pos = HEADER_LEN;
                    self.state = IterState::Chunks;
                }
                IterState::Chunks => {
                    if self.pos == self.data.len() {
                        self.state = IterState::Done;
                        return None;
                    }
                    let chunk = self.index;
                    let offset = self.pos;
                    if self.data.len() - self.pos < CHUNK_HEADER_LEN {
                        self.state = IterState::Done;
                        return Some(Err(FrameError::TruncatedChunk {
                            chunk,
                            offset,
                            available: self.data.len() - offset,
                            expected: None,
                        }));
                    }
                    let payload_len = read_u32(self.data, self.pos) as usize;
                    let event_count = read_u32(self.data, self.pos + 4);
                    let stored = read_u32(self.data, self.pos + 8);
                    let body = self.pos + CHUNK_HEADER_LEN;
                    if self.data.len() - body < payload_len {
                        self.state = IterState::Done;
                        return Some(Err(FrameError::TruncatedChunk {
                            chunk,
                            offset,
                            available: self.data.len() - offset,
                            expected: Some(CHUNK_HEADER_LEN + payload_len),
                        }));
                    }
                    let payload = &self.data[body..body + payload_len];
                    self.pos = body + payload_len;
                    self.index += 1;
                    let computed = crc32(payload);
                    if computed != stored {
                        return Some(Err(FrameError::CorruptChunk {
                            chunk,
                            offset,
                            stored,
                            computed,
                        }));
                    }
                    return Some(Ok(Chunk {
                        index: chunk,
                        event_count,
                        payload,
                    }));
                }
            }
        }
    }
}

/// Totals accumulated by a [`StreamWriter`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WriterStats {
    /// Chunks emitted.
    pub chunks: u64,
    /// Events recorded.
    pub events: u64,
    /// Payload bytes (excluding file and chunk headers).
    pub payload_bytes: u64,
    /// Total bytes written to the sink, headers included.
    pub bytes_written: u64,
    /// Transient sink errors smoothed over by the bounded retry loop.
    pub io_retries: u64,
    /// Events discarded after the sink failed hard (the swallow-with-flag
    /// path; [`StreamWriter::finish`] surfaces the stashed error).
    pub dropped_events: u64,
}

/// Incremental v2 writer with bounded buffering; also a [`Monitor`], so a
/// program can be recorded straight to disk without an in-memory
/// [`futrace_runtime::EventLog`].
///
/// `Monitor` callbacks cannot return errors, so the first sink failure is
/// stashed, further events are dropped (and counted), and the error
/// surfaces from [`StreamWriter::finish`] — the checked close every
/// production caller must use. Dropping an unfinished writer flushes
/// best-effort and swallows sink failures: a failing disk during unwind
/// must not turn into a double panic.
///
/// Transient sink errors (`WouldBlock`/`TimedOut`; `Interrupted` is
/// absorbed like std's `write_all`) are retried with bounded,
/// deterministically jittered backoff before being treated as hard.
pub struct StreamWriter<W: io::Write> {
    /// `None` only after `finish` has moved the sink out (so `Drop` can
    /// tell a closed writer from an abandoned one without unsafe).
    sink: Option<W>,
    buf: Vec<u8>,
    pending_events: u32,
    chunk_bytes: usize,
    stats: WriterStats,
    error: Option<io::Error>,
}

/// Retry budget for one chunk write: up to 8 consecutive transient
/// failures, starting at 50µs and doubling (jittered, capped at 100ms).
const RETRY_ATTEMPTS: u32 = 8;
const RETRY_BASE: Duration = Duration::from_micros(50);

impl<W: io::Write> StreamWriter<W> {
    /// Writer with the default chunk size ([`DEFAULT_CHUNK_BYTES`]). The
    /// file header is written immediately.
    pub fn new(sink: W) -> io::Result<Self> {
        Self::with_chunk_bytes(sink, DEFAULT_CHUNK_BYTES)
    }

    /// Writer closing chunks at the first event boundary past
    /// `chunk_bytes` payload bytes (clamped to 64..=[`MAX_CHUNK_BYTES`]).
    pub fn with_chunk_bytes(mut sink: W, chunk_bytes: usize) -> io::Result<Self> {
        let chunk_bytes = chunk_bytes.clamp(64, MAX_CHUNK_BYTES);
        let mut backoff = Backoff::new(u64::MAX, RETRY_ATTEMPTS, RETRY_BASE);
        write_all_with_retry(&mut sink, &MAGIC, &mut backoff)?;
        write_all_with_retry(&mut sink, &[VERSION], &mut backoff)?;
        Ok(StreamWriter {
            sink: Some(sink),
            buf: Vec::with_capacity(chunk_bytes + 64),
            pending_events: 0,
            chunk_bytes,
            stats: WriterStats {
                bytes_written: HEADER_LEN as u64,
                ..WriterStats::default()
            },
            error: None,
        })
    }

    /// Appends one event, flushing a chunk if the buffer is full.
    pub fn record(&mut self, e: &Event) {
        if self.error.is_some() {
            self.stats.dropped_events += 1;
            return;
        }
        trace::encode_event(&mut self.buf, e);
        self.pending_events += 1;
        self.stats.events += 1;
        if self.buf.len() >= self.chunk_bytes || self.pending_events == u32::MAX {
            self.flush_chunk();
        }
    }

    fn flush_chunk(&mut self) {
        if self.pending_events == 0 || self.error.is_some() {
            return;
        }
        let Some(sink) = self.sink.as_mut() else {
            return;
        };
        let header = chunk_header(&self.buf, self.pending_events);
        // Deterministic jitter: the chunk ordinal seeds the backoff, so a
        // given recording retries with identical timing on every run.
        let mut backoff = Backoff::new(self.stats.chunks, RETRY_ATTEMPTS, RETRY_BASE);
        let res = write_all_with_retry(sink, &header, &mut backoff)
            .and_then(|()| write_all_with_retry(sink, &self.buf, &mut backoff));
        self.stats.io_retries += backoff.total_retries();
        match res {
            Ok(()) => {
                self.stats.chunks += 1;
                self.stats.payload_bytes += self.buf.len() as u64;
                self.stats.bytes_written += (CHUNK_HEADER_LEN + self.buf.len()) as u64;
            }
            Err(e) => self.error = Some(e),
        }
        self.buf.clear();
        self.pending_events = 0;
    }

    /// Flushes the trailing partial chunk and the sink, returning the sink
    /// and totals — or the first error encountered anywhere in the run.
    /// This is the checked close: a recording not finished with `Ok` must
    /// not be trusted.
    pub fn finish(mut self) -> io::Result<(W, WriterStats)> {
        self.flush_chunk();
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let mut sink = self.sink.take().expect("finish called once");
        sink.flush()?;
        Ok((sink, self.stats))
    }

    /// Totals so far (the trailing partial chunk is not yet counted in
    /// `chunks`/`payload_bytes`).
    pub fn stats(&self) -> WriterStats {
        self.stats
    }
}

impl<W: io::Write> Drop for StreamWriter<W> {
    fn drop(&mut self) {
        // Unfinished writer (early return, panic unwind, test shortcut):
        // flush what we have, but swallow failures — `flush_chunk` already
        // converts sink errors into the stashed flag instead of panicking,
        // and a best-effort `flush` must not unwind either.
        if self.sink.is_some() {
            self.flush_chunk();
            if let Some(sink) = self.sink.as_mut() {
                let _ = sink.flush();
            }
        }
    }
}

impl<W: io::Write> Monitor for StreamWriter<W> {
    fn task_create(&mut self, parent: TaskId, child: TaskId, kind: TaskKind, ief: FinishId) {
        self.record(&Event::TaskCreate {
            parent,
            child,
            kind,
            ief,
        });
    }
    fn task_end(&mut self, task: TaskId) {
        self.record(&Event::TaskEnd(task));
    }
    fn finish_start(&mut self, task: TaskId, finish: FinishId) {
        self.record(&Event::FinishStart(task, finish));
    }
    fn finish_end(&mut self, task: TaskId, finish: FinishId, joined: &[TaskId]) {
        self.record(&Event::FinishEnd(task, finish, joined.to_vec()));
    }
    fn get(&mut self, waiter: TaskId, awaited: TaskId) {
        self.record(&Event::Get { waiter, awaited });
    }
    fn read(&mut self, task: TaskId, loc: LocId) {
        self.record(&Event::Read(task, loc));
    }
    fn write(&mut self, task: TaskId, loc: LocId) {
        self.record(&Event::Write(task, loc));
    }
    fn alloc(&mut self, base: LocId, n: u32, name: &str) {
        self.record(&Event::Alloc(base, n, name.to_string()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{trace_chunks, trace_events};
    use futrace_runtime::{run_serial, TaskCtx};

    fn record_program() -> (Vec<u8>, WriterStats, Vec<Event>) {
        // Small chunk size so the trace spans several chunks.
        let mut log = futrace_runtime::EventLog::new();
        let mut writer = StreamWriter::with_chunk_bytes(Vec::new(), 64).unwrap();
        let program = |ctx: &mut futrace_runtime::SerialCtx<futrace_runtime::EventLog>| {
            let a = ctx.shared_array(16, 0u64, "grid");
            ctx.finish(|ctx| {
                for i in 0..8usize {
                    let aw = a.clone();
                    ctx.async_task(move |ctx| aw.write(ctx, i, i as u64));
                }
            });
            for i in 0..16usize {
                let _ = a.read(ctx, i);
            }
        };
        run_serial(&mut log, program);
        for e in &log.events {
            writer.record(e);
        }
        let (bytes, stats) = writer.finish().unwrap();
        (bytes, stats, log.events)
    }

    #[test]
    fn roundtrip_across_chunks() {
        let (bytes, stats, events) = record_program();
        assert!(stats.chunks >= 2, "want multiple chunks, got {stats:?}");
        assert_eq!(stats.events, events.len() as u64);
        assert_eq!(stats.bytes_written, bytes.len() as u64);
        let decoded: Vec<Event> = trace_events(&bytes, false).map(|e| e.unwrap()).collect();
        assert_eq!(decoded, events);
    }

    #[test]
    fn monitor_recording_equals_log_recording() {
        fn program<M: Monitor>(ctx: &mut futrace_runtime::SerialCtx<'_, M>) {
            let v = ctx.shared_var(0u64, "v");
            let v2 = v.clone();
            let f = ctx.future(move |ctx| v2.write(ctx, 1));
            ctx.get(&f);
            let _ = v.read(ctx);
        }
        // Record through the Monitor impl directly...
        let mut writer = StreamWriter::new(Vec::new()).unwrap();
        run_serial(&mut writer, program);
        let (direct, _) = writer.finish().unwrap();
        // ...and via an EventLog replayed into a writer.
        let mut log = futrace_runtime::EventLog::new();
        run_serial(&mut log, program);
        let mut writer = StreamWriter::new(Vec::new()).unwrap();
        for e in &log.events {
            writer.record(e);
        }
        let (via_log, _) = writer.finish().unwrap();
        assert_eq!(direct, via_log);
    }

    #[test]
    fn corrupt_chunk_is_detected_and_skippable() {
        let (mut bytes, stats, events) = record_program();
        // Flip one byte in the middle of the first chunk's payload.
        let victim = HEADER_LEN + CHUNK_HEADER_LEN + 3;
        bytes[victim] ^= 0x40;

        // Strict: structured error, then fused.
        let mut it = trace_chunks(&bytes, false);
        let first_err = it.by_ref().find_map(|r| r.err()).expect("must error");
        assert!(
            matches!(first_err, FrameError::CorruptChunk { chunk: 0, .. }),
            "{first_err:?}"
        );
        assert!(it.next().is_none());

        // Lenient: later chunks still decode; exactly one chunk lost.
        let read: Vec<Option<DecodedChunk>> =
            trace_chunks(&bytes, true).map(|c| c.unwrap()).collect();
        assert_eq!(read.len() as u64, stats.chunks, "one item per chunk");
        assert_eq!(read.iter().filter(|c| c.is_none()).count(), 1);
        let salvaged: Vec<Event> = read.into_iter().flatten().flatten().collect();
        assert!(salvaged.len() < events.len());
        assert!(
            stats.chunks >= 2 && !salvaged.is_empty(),
            "later chunks survive"
        );
        // Everything salvaged is a suffix-aligned subset of the original
        // stream: the undamaged chunks decode to their exact original runs.
        let tail = &events[events.len() - salvaged.len()..];
        assert_eq!(salvaged, tail);
    }

    #[test]
    fn truncation_is_fatal_even_lenient() {
        let (bytes, _, _) = record_program();
        let cut = &bytes[..bytes.len() - 3];
        let mut it = trace_chunks(cut, true);
        let err = it.by_ref().find_map(|r| r.err()).expect("must error");
        assert!(matches!(err, FrameError::TruncatedChunk { .. }), "{err:?}");
        assert!(it.next().is_none());
    }

    #[test]
    fn header_validation() {
        assert!(!is_framed(b"FT"));
        assert!(!is_framed(&[]));
        assert!(matches!(
            chunks(b"XXXXX").next(),
            Some(Err(FrameError::NotFramed))
        ));
        let mut bad_version = Vec::from(MAGIC);
        bad_version.push(9);
        let mut it = trace_chunks(&bad_version, true);
        assert!(matches!(it.next(), Some(Err(FrameError::BadVersion(9)))));
        assert!(it.next().is_none());
        // An empty v2 trace (header only) is valid and empty.
        let (bytes, stats) = StreamWriter::new(Vec::new()).unwrap().finish().unwrap();
        assert_eq!(stats.chunks, 0);
        assert_eq!(trace_chunks(&bytes, false).count(), 0);
    }

    #[test]
    fn event_count_mismatch_is_reported() {
        let mut writer = StreamWriter::new(Vec::new()).unwrap();
        writer.record(&Event::TaskEnd(TaskId(1)));
        let (mut bytes, _) = writer.finish().unwrap();
        // Tamper with the declared event count and refresh the CRC so only
        // the count check can catch it.
        let count_at = HEADER_LEN + 4;
        bytes[count_at..count_at + 4].copy_from_slice(&5u32.to_le_bytes());
        let chunk = chunks(&bytes)
            .next()
            .unwrap()
            .expect("the CRC still matches");
        let err = chunk.decode().expect_err("must error");
        assert!(
            matches!(
                err,
                FrameError::Decode {
                    chunk: 0,
                    error: DecodeError::Malformed("event count mismatch")
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn full_sink_surfaces_at_finish() {
        struct Full;
        impl io::Write for Full {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::Other, "disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        assert!(StreamWriter::new(Full).is_err(), "header write fails");
    }

    /// Sink that accepts the 5-byte file header, then fails hard on every
    /// write *and* panics-free on flush — the Drop-path regression shape.
    #[derive(Debug)]
    struct FailAfterHeader {
        accepted: usize,
    }
    impl io::Write for FailAfterHeader {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.accepted < HEADER_LEN {
                self.accepted += buf.len();
                return Ok(buf.len());
            }
            Err(io::Error::new(io::ErrorKind::Other, "dead disk"))
        }
        fn flush(&mut self) -> io::Result<()> {
            Err(io::Error::new(io::ErrorKind::Other, "dead disk"))
        }
    }

    #[test]
    fn drop_with_partial_chunk_on_failing_sink_does_not_panic() {
        let mut writer = StreamWriter::new(FailAfterHeader { accepted: 0 }).unwrap();
        writer.record(&Event::TaskEnd(TaskId(1)));
        assert_eq!(writer.stats().events, 1);
        // Buffer holds a partial chunk; the sink will reject the flush.
        drop(writer); // must not panic
    }

    #[test]
    fn events_after_hard_error_are_counted_as_dropped() {
        let mut writer =
            StreamWriter::with_chunk_bytes(FailAfterHeader { accepted: 0 }, 64).unwrap();
        for _ in 0..200 {
            writer.record(&Event::TaskEnd(TaskId(1)));
        }
        let stats = writer.stats();
        assert!(stats.dropped_events > 0, "{stats:?}");
        let err = writer.finish().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Other);
    }

    #[test]
    fn transient_sink_errors_are_retried_into_a_valid_trace() {
        use futrace_util::faultinject::{FaultyWriter, IoFaults, TransientKind};
        let faults = IoFaults {
            transient_every: Some(2),
            transient_kind: Some(TransientKind::WouldBlock),
            short_op_every: Some(3),
            ..IoFaults::default()
        };
        let mut writer =
            StreamWriter::with_chunk_bytes(FaultyWriter::new(Vec::new(), faults), 64).unwrap();
        let mut log = futrace_runtime::EventLog::new();
        run_serial(&mut log, |ctx: &mut futrace_runtime::SerialCtx<_>| {
            let a = ctx.shared_array(32, 0u64, "grid");
            for i in 0..32usize {
                a.write(ctx, i, i as u64);
            }
        });
        for e in &log.events {
            writer.record(e);
        }
        let (faulty, stats) = writer.finish().unwrap();
        assert!(stats.io_retries > 0, "retry path exercised: {stats:?}");
        assert_eq!(stats.dropped_events, 0);
        let bytes = faulty.into_inner();
        let decoded: Vec<Event> = trace_events(&bytes, false).map(|e| e.unwrap()).collect();
        assert_eq!(decoded, log.events, "trace identical despite faults");
    }

    #[test]
    fn truncation_error_reports_offset_and_sizes() {
        let (bytes, _, _) = record_program();
        let cut = &bytes[..bytes.len() - 3];
        let err = trace_chunks(cut, true)
            .find_map(|r| r.err())
            .expect("must error");
        let FrameError::TruncatedChunk {
            offset,
            available,
            expected,
            ..
        } = err
        else {
            panic!("{err:?}");
        };
        assert!(offset >= HEADER_LEN);
        match expected {
            Some(want) => assert!(available < want),
            None => assert!(available < CHUNK_HEADER_LEN),
        }
        let shown = err.to_string();
        assert!(shown.contains("byte offset"), "{shown}");
    }

    #[test]
    fn corrupt_error_reports_offset_and_both_crcs() {
        let (mut bytes, _, _) = record_program();
        let victim = HEADER_LEN + CHUNK_HEADER_LEN + 3;
        bytes[victim] ^= 0x40;
        let err = chunks(&bytes).find_map(|r| r.err()).expect("must error");
        let FrameError::CorruptChunk {
            chunk,
            offset,
            stored,
            computed,
        } = err
        else {
            panic!("{err:?}");
        };
        assert_eq!(chunk, 0);
        assert_eq!(offset, HEADER_LEN);
        assert_ne!(stored, computed);
        let shown = err.to_string();
        assert!(
            shown.contains("expected crc") && shown.contains("actual"),
            "{shown}"
        );
    }
}
