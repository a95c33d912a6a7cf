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
//! degrades, or suspends workers as the [`SupervisorPlan`] asks. A
//! restarted worker reads the source again from its last snapshot, and
//! plain sharding ([`SupervisorPlan::for_shards`]) is the plan that takes
//! none, so a restart reads from the start.
//!
//! Feeding that pipeline from disk needs a trace format that can be
//! written incrementally and read without trusting every byte. There is
//! one, the framed format v2 of [`framed`]: length-prefixed, CRC-checked
//! chunks whose payloads use the event codec of
//! [`futrace_runtime::trace`], written by the [`framed::StreamWriter`]
//! monitor in bounded memory. [`trace_chunks`] is the one reader of trace
//! blobs, with one lenient rule (a damaged chunk is dropped whole and
//! counted); a blob without the framed header is
//! [`FrameError::NotFramed`] on every path. The shard stage routes its
//! decoded chunks directly and snapshots or suspends only at their
//! boundaries.
//!
//! The `tracetool` binary (in `futrace-bench`) wires both into a CLI:
//! `record`, `analyze --shards N`, `info`, and `verify`.

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

/// Any failure while reading a trace blob. There is one trace format,
/// framed v2, so this is [`FrameError`]; the name stays for callers that
/// read traces without caring how they are framed.
pub type TraceError = FrameError;

/// The only reader of trace blobs. Yields one item per chunk:
/// `Ok(Some(events))` for an intact chunk, `Ok(None)` for a damaged chunk
/// a lenient read dropped, and `Err` for the damage that ends the read,
/// after which it fuses. Construct via [`trace_chunks`].
///
/// A chunk is intact when its CRC matches and [`framed::Chunk::decode`]
/// accepts it (it decodes, and holds the events its header declares).
/// Strict reads end at the first damaged chunk; lenient reads drop it
/// whole and read on. Structural damage, a bad header (a blob that is not
/// framed at all is [`FrameError::NotFramed`]) or a truncation, ends
/// both, since no later chunk boundary is known.
pub struct TraceChunks<'a> {
    chunks: framed::ChunkIter<'a>,
    lenient: bool,
    done: bool,
}

impl Iterator for TraceChunks<'_> {
    type Item = Result<Option<Vec<futrace_runtime::Event>>, FrameError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.chunks.next()?.and_then(|c| c.decode()) {
            Ok(events) => Some(Ok(Some(events))),
            // CRC and payload damage are chunk-local (the chunk walker
            // resyncs on the length prefix); structural damage is not.
            Err(FrameError::CorruptChunk { .. } | FrameError::Decode { .. }) if self.lenient => {
                Some(Ok(None))
            }
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

/// Chunk reader over a framed trace blob. See [`TraceChunks`].
pub fn trace_chunks(data: &[u8], lenient: bool) -> TraceChunks<'_> {
    TraceChunks {
        chunks: framed::chunks(data),
        lenient,
        done: false,
    }
}

/// The part of a trace blob a lenient read can check. Even a lenient
/// read cannot resync past a truncated chunk (there are no sync markers),
/// so under `lenient` a trace truncated inside a chunk is cut at that
/// chunk's header, and the truncation is returned with the complete
/// chunks before it. Anything else is returned whole.
pub fn salvage(data: &[u8], lenient: bool) -> (&[u8], Option<FrameError>) {
    if lenient {
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
) -> impl Iterator<Item = Result<futrace_runtime::Event, FrameError>> + '_ {
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
) -> Result<(Vec<futrace_runtime::Event>, u64), FrameError> {
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
    fn trace_events_reads_a_recorded_trace() {
        let events = sample_events();
        let mut w = StreamWriter::new(Vec::new()).unwrap();
        for e in &events {
            w.record(e);
        }
        let (blob, _) = w.finish().unwrap();
        let got: Vec<Event> = trace_events(&blob, false).map(|e| e.unwrap()).collect();
        assert_eq!(got, events);
    }

    #[test]
    fn a_blob_without_the_framed_header_is_not_framed() {
        // The bare event codec, an empty file and byte soup: strict and
        // lenient reads fail alike, on the first item, and nothing is cut.
        let flat = trace::encode(&sample_events());
        for blob in [&flat[..], &[], &[0xFF, 0xFE, 0xFD]] {
            for lenient in [false, true] {
                let read: Vec<_> = trace_chunks(blob, lenient).collect();
                assert_eq!(read, vec![Err(FrameError::NotFramed)]);
                assert_eq!(read_events(blob, lenient), Err(FrameError::NotFramed));
                assert_eq!(salvage(blob, lenient), (blob, None));
            }
        }
    }

    #[test]
    fn trace_chunks_reads_whole_chunks() {
        let events = sample_events();
        // One chunk per event: the batches concatenate to the recorded
        // stream, and the per-event view agrees.
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
            blob.extend_from_slice(&framed::chunk_header(payload, *declared));
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
        let mismatch = FrameError::Decode {
            chunk: 0,
            error: trace::DecodeError::Malformed("event count mismatch"),
        };
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
                Some(Err(FrameError::Decode { chunk: 1, .. }))
            ));
            assert_eq!(strict.next(), None, "strict reads stop at the damage");
            let (events, dropped) = read_events(&blob, true).unwrap();
            assert_eq!(dropped, 1);
            assert_eq!(events, [sample_events(), sample_events()].concat());
        }
    }

    #[test]
    fn frame_error_display_names_the_damage() {
        let e = FrameError::BadVersion(9);
        assert!(e.to_string().contains("version"));
        let e = FrameError::Decode {
            chunk: 0,
            error: trace::DecodeError::Truncated,
        };
        assert!(e.to_string().contains("truncated"));
    }
}
