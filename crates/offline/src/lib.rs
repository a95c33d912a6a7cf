//! # futrace-offline — streaming traces and sharded offline detection
//!
//! The paper's detector is strictly serial: it consumes the depth-first
//! event stream in order (§4). Offline, that stream is *data*, and two of
//! its properties make a production-scale pipeline possible:
//!
//! 1. **DTRG maintenance is cheap and access-free.** Only task
//!    create/end, finish start/end, and `get` events mutate the
//!    reachability graph, and there are few of them relative to
//!    shared-memory accesses (Table 2: 10⁴–10⁷ tasks vs 10⁸–10⁹
//!    accesses).
//! 2. **Shadow-memory checks are independent per location.** Algorithm
//!    8/9 touch exactly one shadow cell, and `Precede` queries only read
//!    DTRG state.
//!
//! So offline detection shards cleanly: broadcast the control events to
//! `N` workers (each maintains an identical DTRG replica) and partition
//! the accesses by `loc % N`. The merged verdict and race report are
//! identical to the serial detector's (asserted by
//! `tests/shard_equivalence.rs` over random programs). One stage does
//! this, [`run_supervised`] in [`supervise`]: its supervisor restarts,
//! degrades, or suspends workers as the [`SupervisorPlan`] asks, and plain
//! sharding ([`SupervisorPlan::plain`]) is the plan that retains nothing
//! for recovery.
//!
//! Feeding that pipeline from disk needs a trace format that can be
//! written incrementally and read without trusting every byte: [`framed`]
//! layers length-prefixed, CRC-checked chunks (format v2) over the v1
//! event codec in [`futrace_runtime::trace`], with a [`framed::StreamWriter`]
//! monitor for bounded-memory recording and a lenient reading mode that
//! skips damaged chunks instead of aborting.
//!
//! The `tracetool` binary (in `futrace-bench`) wires both into a CLI:
//! `record --stream`, `analyze --shards N`, `info`, and `verify`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod checkpoint;
pub mod crc32;
pub mod framed;
pub mod supervise;

pub use checkpoint::{is_checkpoint, Checkpoint, CheckpointError, RouterProgress, TraceFingerprint};
pub use framed::{FrameError, FramedEvents, StreamWriter, WriterStats};
pub use supervise::{
    run_supervised, ChunkedEvents, ShardPlan, ShardStats, SupervisedOutcome, SupervisionReport,
    SuperviseError, SupervisorPlan, SyntheticChunks, SYNTHETIC_CHUNK_EVENTS,
};

use futrace_runtime::trace::DecodeError;

/// Any failure while reading a trace blob (either format version).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// v2 framing-level failure (bad header, truncated or corrupt chunk).
    Frame(FrameError),
    /// v1 event-codec failure.
    Decode(DecodeError),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Frame(e) => write!(f, "{e}"),
            TraceError::Decode(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<FrameError> for TraceError {
    fn from(e: FrameError) -> Self {
        TraceError::Frame(e)
    }
}

impl From<DecodeError> for TraceError {
    fn from(e: DecodeError) -> Self {
        TraceError::Decode(e)
    }
}

/// Iterator over the events of a trace blob in either format: v2 framed
/// streams are chunk-validated as they go; anything else is treated as a
/// v1 flat stream. Construct via [`trace_events`].
pub enum TraceEvents<'a> {
    /// v2 framed stream.
    Framed(FramedEvents<'a>),
    /// v1 flat stream.
    Flat(futrace_runtime::trace::DecodeIter<'a>),
}

impl Iterator for TraceEvents<'_> {
    type Item = Result<futrace_runtime::Event, TraceError>;

    // Forced inline, with `FramedEvents::next`: the shard stage's router
    // pulls every event through here, and out of line the call cost the
    // router about a third of its CPU time on access-dominated traces.
    #[inline(always)]
    fn next(&mut self) -> Option<Self::Item> {
        match self {
            TraceEvents::Framed(it) => it.next().map(|r| r.map_err(TraceError::from)),
            TraceEvents::Flat(it) => it.next().map(|r| r.map_err(TraceError::from)),
        }
    }
}

impl TraceEvents<'_> {
    /// Chunks skipped so far (always 0 for v1 / strict mode).
    pub fn skipped_chunks(&self) -> u64 {
        match self {
            TraceEvents::Framed(it) => it.skipped_chunks(),
            TraceEvents::Flat(_) => 0,
        }
    }

    /// Chunks fully consumed so far. A v1 flat trace has no chunk
    /// structure, so it exposes no boundaries (checkpointing requires a
    /// framed trace).
    pub fn chunks_consumed(&self) -> u64 {
        match self {
            TraceEvents::Framed(it) => it.chunks_consumed(),
            TraceEvents::Flat(_) => 0,
        }
    }
}

/// Streams the events of a trace blob, auto-detecting the format by the
/// v2 magic. `lenient` only affects framed traces: damaged chunks are
/// skipped (and counted) instead of ending the stream with an error.
pub fn trace_events(data: &[u8], lenient: bool) -> TraceEvents<'_> {
    if framed::is_framed(data) {
        TraceEvents::Framed(framed::FramedEvents::new(data, lenient))
    } else {
        TraceEvents::Flat(futrace_runtime::trace::decode_iter(data))
    }
}

/// Batched counterpart of [`trace_events`]: yields whole decoded chunks
/// (`Vec<Event>`) instead of one event at a time, for the engine's batched
/// dispatch path ([`futrace_runtime::engine::source::chunks`]). A framed
/// trace yields one batch per intact chunk; a flat v1 trace decodes as a
/// single batch. The event sequence is identical to [`trace_events`] with
/// the same `lenient` flag (including which chunks a lenient read skips).
/// Construct via [`trace_chunks`].
pub struct TraceChunks<'a> {
    inner: ChunksInner<'a>,
    lenient: bool,
    skipped: u64,
    done: bool,
}

enum ChunksInner<'a> {
    Framed(framed::ChunkIter<'a>),
    Flat(Option<&'a [u8]>),
}

impl Iterator for TraceChunks<'_> {
    type Item = Result<Vec<futrace_runtime::Event>, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.done {
                return None;
            }
            match &mut self.inner {
                ChunksInner::Flat(blob) => {
                    let blob = blob.take()?;
                    self.done = true;
                    return Some(
                        futrace_runtime::trace::decode(blob).map_err(TraceError::from),
                    );
                }
                ChunksInner::Framed(chunks) => {
                    let item = match chunks.next() {
                        Some(item) => item,
                        None => return None,
                    };
                    let chunk = match item {
                        Ok(c) => c,
                        // CRC damage is chunk-local (the iterator resyncs);
                        // structural damage fuses either way, matching the
                        // per-event reader.
                        Err(e @ FrameError::CorruptChunk { .. }) => {
                            if self.lenient {
                                self.skipped += 1;
                                continue;
                            }
                            self.done = true;
                            return Some(Err(e.into()));
                        }
                        Err(e) => {
                            self.done = true;
                            return Some(Err(e.into()));
                        }
                    };
                    let index = chunk.index;
                    match futrace_runtime::trace::decode(chunk.payload) {
                        Ok(events) if events.len() as u64 == chunk.event_count as u64 => {
                            return Some(Ok(events));
                        }
                        Ok(_) => {
                            if self.lenient {
                                self.skipped += 1;
                                continue;
                            }
                            self.done = true;
                            return Some(Err(FrameError::Decode {
                                chunk: index,
                                error: DecodeError::Malformed("event count mismatch"),
                            }
                            .into()));
                        }
                        Err(error) => {
                            if self.lenient {
                                self.skipped += 1;
                                continue;
                            }
                            self.done = true;
                            return Some(Err(FrameError::Decode {
                                chunk: index,
                                error,
                            }
                            .into()));
                        }
                    }
                }
            }
        }
    }
}

impl TraceChunks<'_> {
    /// Damaged chunks skipped so far (lenient framed reads only).
    pub fn skipped_chunks(&self) -> u64 {
        self.skipped
    }
}

/// Chunk-batched reader over a trace blob in either format. See
/// [`TraceChunks`].
pub fn trace_chunks(data: &[u8], lenient: bool) -> TraceChunks<'_> {
    let inner = if framed::is_framed(data) {
        ChunksInner::Framed(framed::chunks(data))
    } else {
        ChunksInner::Flat(Some(data))
    };
    TraceChunks {
        inner,
        lenient,
        skipped: 0,
        done: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use futrace_runtime::{trace, Event};
    use futrace_util::ids::{LocId, TaskId};

    fn sample_events() -> Vec<Event> {
        vec![
            Event::Alloc(LocId(0), 2, "m".into()),
            Event::Write(TaskId(0), LocId(0)),
            Event::Read(TaskId(0), LocId(1)),
        ]
    }

    #[test]
    fn trace_events_sniffs_both_formats() {
        let events = sample_events();
        let v1 = trace::encode(&events);
        let got: Vec<Event> = trace_events(&v1, false).map(|e| e.unwrap()).collect();
        assert_eq!(got, events);

        let mut w = StreamWriter::new(Vec::new()).unwrap();
        for e in &events {
            w.record(e);
        }
        let (v2, _) = w.finish().unwrap();
        assert!(framed::is_framed(&v2));
        let got: Vec<Event> = trace_events(&v2, false).map(|e| e.unwrap()).collect();
        assert_eq!(got, events);
    }

    #[test]
    fn trace_chunks_matches_trace_events() {
        let events = sample_events();
        // Flat v1: one batch holding the whole trace.
        let v1 = trace::encode(&events);
        let batches: Vec<Vec<Event>> =
            trace_chunks(&v1, false).map(|b| b.unwrap()).collect();
        assert_eq!(batches, vec![events.clone()]);

        // Framed v2, multiple small chunks: concatenated batches equal the
        // per-event stream.
        let mut w = StreamWriter::with_chunk_bytes(Vec::new(), 8).unwrap();
        for e in &events {
            w.record(e);
        }
        let (v2, _) = w.finish().unwrap();
        let flat: Vec<Event> = trace_chunks(&v2, false)
            .flat_map(|b| b.unwrap())
            .collect();
        let per_event: Vec<Event> = trace_events(&v2, false).map(|e| e.unwrap()).collect();
        assert_eq!(flat, per_event);
        assert_eq!(flat, events);

        // Damage one chunk: strict errors, lenient skips and counts it —
        // the same salvage the per-event reader performs.
        let mut damaged = v2.clone();
        let n = damaged.len();
        damaged[n - 1] ^= 0xFF;
        assert!(trace_chunks(&damaged, false).any(|b| b.is_err()));
        let mut lenient = trace_chunks(&damaged, true);
        let salvaged: Vec<Event> = lenient.by_ref().filter_map(|b| b.ok()).flatten().collect();
        let mut lenient_events = trace_events(&damaged, true);
        let salvaged_per_event: Vec<Event> =
            lenient_events.by_ref().filter_map(|e| e.ok()).collect();
        assert_eq!(salvaged, salvaged_per_event);
        assert_eq!(lenient.skipped_chunks(), lenient_events.skipped_chunks());
        assert!(lenient.skipped_chunks() > 0);
    }

    #[test]
    fn trace_error_display_covers_both_sides() {
        let e = TraceError::from(trace::DecodeError::Truncated);
        assert!(e.to_string().contains("truncated"));
        let e = TraceError::from(FrameError::BadVersion(9));
        assert!(e.to_string().contains("version"));
    }
}
