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
//! the accesses by `loc % N`, each replica holding only its own
//! locations' shadow cells. The merged verdict and race report are
//! identical to the serial detector's (asserted by
//! `tests/shard_equivalence.rs` over random programs). One stage does
//! this, [`run_supervised`] in `supervise`: its supervisor restarts,
//! degrades, or suspends workers as the [`SupervisorPlan`] asks, and plain
//! sharding ([`SupervisorPlan::plain`]) is the plan that retains nothing
//! for recovery.
//!
//! Feeding that pipeline from disk needs a trace format that can be
//! written incrementally and read without trusting every byte: [`framed`]
//! layers length-prefixed, CRC-checked chunks (format v2) over the v1
//! event codec in [`futrace_runtime::trace`], with a [`framed::StreamWriter`]
//! monitor for bounded-memory recording. [`trace_chunks`] is the one
//! reader of trace blobs, with one lenient rule (a damaged chunk is
//! dropped whole and counted). The shard stage routes its decoded chunks
//! directly and snapshots or suspends only at their boundaries.
//!
//! The `tracetool` binary (in `futrace-bench`) wires both into a CLI:
//! `record --stream`, `analyze --shards N`, `info`, and `verify`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod checkpoint;
pub mod framed;
mod outcome;
pub(crate) mod supervise;

pub use checkpoint::{
    is_checkpoint, rebuild_replica, Checkpoint, CheckpointError, RouterProgress, TraceFingerprint,
};
pub use framed::{FrameError, StreamWriter, WriterStats};
pub use outcome::AnalysisOutcome;
pub use supervise::{
    event_chunks, run_supervised, ShardPlan, ShardStats, SuperviseError, SupervisedOutcome,
    SupervisionReport, SupervisorPlan, SYNTHETIC_CHUNK_EVENTS,
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

/// The only reader of trace blobs, in either format. Yields one item per
/// chunk: `Ok(Some(events))` for an intact chunk, `Ok(None)` for a
/// damaged chunk a lenient read dropped, and `Err` for the damage that
/// ends the read, after which it fuses. Construct via [`trace_chunks`].
///
/// A framed chunk is intact when its CRC matches and [`framed::Chunk::decode`]
/// accepts it (it decodes, and holds the events its header declares).
/// Strict reads end at the first damaged chunk; lenient reads drop it
/// whole and read on. Structural damage, a bad header or a truncation,
/// ends both, since no later chunk boundary is known. A flat v1 trace has
/// no chunk structure: it is one chunk, and any damage in it ends the read.
pub struct TraceChunks<'a> {
    inner: ChunksInner<'a>,
    lenient: bool,
}

enum ChunksInner<'a> {
    Framed(framed::ChunkIter<'a>),
    Flat(&'a [u8]),
    Done,
}

impl Iterator for TraceChunks<'_> {
    type Item = Result<Option<Vec<futrace_runtime::Event>>, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        let chunk = match &mut self.inner {
            ChunksInner::Done => return None,
            ChunksInner::Flat(blob) => {
                let events = futrace_runtime::trace::decode(blob);
                self.inner = ChunksInner::Done;
                return Some(events.map(Some).map_err(TraceError::from));
            }
            ChunksInner::Framed(chunks) => chunks.next()?,
        };
        match chunk.and_then(|c| c.decode()) {
            Ok(events) => Some(Ok(Some(events))),
            // CRC and payload damage are chunk-local (the chunk walker
            // resyncs on the length prefix); structural damage is not.
            Err(FrameError::CorruptChunk { .. } | FrameError::Decode { .. }) if self.lenient => {
                Some(Ok(None))
            }
            Err(e) => {
                self.inner = ChunksInner::Done;
                Some(Err(e.into()))
            }
        }
    }
}

/// Chunk reader over a trace blob in either format, auto-detected by the
/// v2 magic. `lenient` only affects framed traces. See [`TraceChunks`].
pub fn trace_chunks(data: &[u8], lenient: bool) -> TraceChunks<'_> {
    let inner = if framed::is_framed(data) {
        ChunksInner::Framed(framed::chunks(data))
    } else {
        ChunksInner::Flat(data)
    };
    TraceChunks { inner, lenient }
}

/// The part of a trace blob a lenient read can check. Even a lenient
/// read cannot resync past a truncated framed chunk (there are no sync
/// markers), so under `lenient` a framed trace truncated inside a chunk
/// is cut at that chunk's header, and the truncation is returned with
/// the complete chunks before it. Anything else is returned whole.
pub fn salvage(data: &[u8], lenient: bool) -> (&[u8], Option<FrameError>) {
    if lenient && framed::is_framed(data) {
        for chunk in framed::chunks(data) {
            if let Err(e @ FrameError::TruncatedChunk { offset, .. }) = chunk {
                return (&data[..offset], Some(e));
            }
        }
    }
    (data, None)
}

/// Per-event view of [`trace_chunks`]: the events of every chunk it
/// keeps, then its error, if any.
pub fn trace_events(
    data: &[u8],
    lenient: bool,
) -> impl Iterator<Item = Result<futrace_runtime::Event, TraceError>> + '_ {
    trace_chunks(data, lenient).flat_map(|chunk| {
        let (events, error) = match chunk {
            Ok(events) => (events.unwrap_or_default(), None),
            Err(e) => (Vec::new(), Some(e)),
        };
        events.into_iter().map(Ok).chain(error.map(Err))
    })
}

/// Reads a whole trace blob through [`trace_chunks`]: the events of the
/// chunks it keeps, in order, and how many damaged chunks a lenient read
/// dropped.
pub fn read_events(
    data: &[u8],
    lenient: bool,
) -> Result<(Vec<futrace_runtime::Event>, u64), TraceError> {
    let mut events = Vec::new();
    let mut dropped = 0;
    for chunk in trace_chunks(data, lenient) {
        match chunk? {
            Some(chunk) => events.extend(chunk),
            None => dropped += 1,
        }
    }
    Ok((events, dropped))
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
    fn trace_chunks_reads_whole_chunks() {
        let events = sample_events();
        // Flat v1: one batch holding the whole trace.
        let v1 = trace::encode(&events);
        let batches: Vec<_> = trace_chunks(&v1, false).map(|b| b.unwrap()).collect();
        assert_eq!(batches, vec![Some(events.clone())]);

        // Framed v2, one chunk per event: the batches concatenate to the
        // recorded stream, and the per-event view agrees.
        let v2 = blob_of(
            &events
                .iter()
                .map(|e| (trace::encode(std::slice::from_ref(e)), 1))
                .collect::<Vec<_>>(),
        );
        let batches: Vec<_> = trace_chunks(&v2, false).map(|b| b.unwrap()).collect();
        assert_eq!(batches.len(), events.len());
        let (flat, dropped) = read_events(&v2, false).unwrap();
        assert_eq!((flat.clone(), dropped), (events.clone(), 0));
        let per_event: Vec<Event> = trace_events(&v2, false).map(|e| e.unwrap()).collect();
        assert_eq!(per_event, flat);

        // Damage the last chunk: strict errors, lenient drops and counts it.
        let mut damaged = v2.clone();
        let n = damaged.len();
        damaged[n - 1] ^= 0xFF;
        assert!(read_events(&damaged, false).is_err());
        let (salvaged, dropped) = read_events(&damaged, true).unwrap();
        assert_eq!(dropped, 1);
        assert_eq!(salvaged, events[..events.len() - 1]);
        let per_event: Vec<Event> = trace_events(&damaged, true).map(|e| e.unwrap()).collect();
        assert_eq!(per_event, salvaged);
    }

    /// A framed blob of one CRC-valid chunk per `(payload, declared)`.
    fn blob_of(chunks: &[(Vec<u8>, u32)]) -> Vec<u8> {
        let mut blob = Vec::from(framed::MAGIC);
        blob.push(framed::VERSION);
        for (payload, declared) in chunks {
            blob.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            blob.extend_from_slice(&declared.to_le_bytes());
            blob.extend_from_slice(&futrace_util::crc32::crc32(payload).to_le_bytes());
            blob.extend_from_slice(payload);
        }
        blob
    }

    #[test]
    fn chunk_claiming_u32_max_events_is_an_error_not_an_allocation() {
        // A CRC-intact chunk of three events whose header declares
        // u32::MAX of them. No reader may size a buffer from the header:
        // the chunk is damaged, so none of its events is read.
        let blob = blob_of(&[(trace::encode(&sample_events()), u32::MAX)]);
        let mismatch = TraceError::from(FrameError::Decode {
            chunk: 0,
            error: trace::DecodeError::Malformed("event count mismatch"),
        });
        let batches: Vec<_> = trace_chunks(&blob, false).collect();
        assert_eq!(batches, vec![Err(mismatch.clone())]);
        let events: Vec<_> = trace_events(&blob, false).collect();
        assert_eq!(events, vec![Err(mismatch)], "no event of a damaged chunk");
        let lenient: Vec<_> = trace_chunks(&blob, true).collect();
        assert_eq!(lenient, vec![Ok(None)], "lenient drops it");
    }

    #[test]
    fn a_damaged_chunk_contributes_none_of_its_events() {
        // CRC-valid chunks: one that miscounts (declares 2, holds 3) and
        // one whose payload stops decoding after its first event. Lenient
        // reads drop each whole, between two intact chunks.
        let intact = trace::encode(&sample_events());
        let mut undecodable = trace::encode(&sample_events()[..1]);
        undecodable.push(0xFF);
        for damaged in [(intact.clone(), 2), (undecodable, 2)] {
            let blob = blob_of(&[(intact.clone(), 3), damaged, (intact.clone(), 3)]);
            let mut strict = trace_chunks(&blob, false);
            assert_eq!(strict.next(), Some(Ok(Some(sample_events()))));
            assert!(matches!(
                strict.next(),
                Some(Err(TraceError::Frame(FrameError::Decode { chunk: 1, .. })))
            ));
            assert_eq!(strict.next(), None, "strict reads stop at the damage");
            let (events, dropped) = read_events(&blob, true).unwrap();
            assert_eq!(dropped, 1);
            assert_eq!(events, [sample_events(), sample_events()].concat());
        }
    }

    #[test]
    fn trace_error_display_covers_both_sides() {
        let e = TraceError::from(trace::DecodeError::Truncated);
        assert!(e.to_string().contains("truncated"));
        let e = TraceError::from(FrameError::BadVersion(9));
        assert!(e.to_string().contains("version"));
    }
}
