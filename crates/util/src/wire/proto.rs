//! The framed session wire protocol spoken by `tracetool serve`.
//!
//! One analysis session is a lock-step request/response conversation:
//! the client opens a session, streams trace chunks one frame at a time,
//! and finishes (or suspends). The server answers every request with
//! exactly one response, which gives backpressure for free — a client
//! cannot have more than one frame in flight, so server-side memory per
//! connection is one frame plus the session's own state.
//!
//! ```text
//! client                          server
//! ------                          ------
//! Open{config, trace_name}   →
//!                            ←    Hello{session, resumed_chunks}
//! Chunk{seq, count, payload} →
//!                            ←    VerdictDelta{chunks, events, races}
//! ...                             ...
//! Finish                     →
//!                            ←    Final{races, verdict}
//! ```
//!
//! `Suspend` asks the server to checkpoint the session to FCKP and
//! answers `Suspended`; `Shutdown` asks the daemon to drain (suspending
//! every open session) and exit. Any failure is answered with a
//! structured [`Message::Error`] frame — a damaged or torn client stream
//! degrades into an error, never a panic and never a misparse of later
//! frames.
//!
//! # Framing
//!
//! Every message travels as `[len u32 LE][crc32 u32 LE][payload]` where
//! `len` is the payload length, the CRC covers the payload, and the
//! payload is `[kind u8][body…]` encoded with the [`super`] primitives
//! (varints, length-prefixed strings). The CRC is the same slicing-by-16
//! IEEE CRC-32 ([`crate::crc32`]) the framed trace format uses, so a
//! flipped bit anywhere in a frame is detected before the body is
//! decoded. `len` is bounded by `MAX_FRAME_LEN` so a hostile or
//! garbage length prefix cannot make the reader allocate unbounded
//! memory.

use super::{put_str, put_u32_le, put_varint, Cursor, WireError};
use crate::crc32::crc32;
use std::fmt;
use std::io::{self, Read, Write};

/// Hard cap on a frame's payload length (16 MiB). Trace chunks default to
/// 64 KiB, so this is generous headroom; anything larger is treated as a
/// corrupt length prefix, not an allocation request.
pub(crate) const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Frame header length: payload length + CRC-32, both fixed-width LE.
pub(crate) const FRAME_HEADER_LEN: usize = 8;

/// Structured error category carried by [`Message::Error`] frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request violated the protocol (bad frame, wrong sequence,
    /// unknown message in this state).
    Protocol,
    /// A chunk payload failed to decode as trace events.
    Trace,
    /// The analysis backend failed.
    Analysis,
    /// The server is draining and accepts no new work.
    Draining,
    /// Unexpected server-side failure (I/O on a checkpoint file, …).
    Internal,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::Protocol => 1,
            ErrorCode::Trace => 2,
            ErrorCode::Analysis => 3,
            ErrorCode::Draining => 4,
            ErrorCode::Internal => 5,
        }
    }

    fn from_u8(v: u8) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::Protocol,
            2 => ErrorCode::Trace,
            3 => ErrorCode::Analysis,
            4 => ErrorCode::Draining,
            5 => ErrorCode::Internal,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrorCode::Protocol => "protocol",
            ErrorCode::Trace => "trace",
            ErrorCode::Analysis => "analysis",
            ErrorCode::Draining => "draining",
            ErrorCode::Internal => "internal",
        };
        write!(f, "{name}")
    }
}

/// One protocol message (request or response; see the module docs for
/// which side sends which).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// Client → server: open a session.
    Open {
        /// The daemon's checkpoint cadence: it cuts the session's FCKP
        /// checkpoint after every N-th chunk; 0 = only on suspension.
        checkpoint_every: u64,
        /// Client-chosen session name; keys the server-side FCKP
        /// checkpoint a suspended session resumes from.
        trace_name: String,
    },
    /// Client → server: one trace chunk (v1-encoded event payload, the
    /// same bytes a framed `.ftrc` chunk carries).
    Chunk {
        /// 0-based chunk ordinal, for torn-stream diagnostics.
        seq: u64,
        /// The events the chunk declares, as a framed chunk header's
        /// `event_count` does, checked against the decoded payload by the
        /// server.
        event_count: u32,
        /// The encoded events.
        payload: Vec<u8>,
    },
    /// Client → server: all chunks sent; answer with the session's
    /// [`Message::Final`] verdict.
    Finish,
    /// Client → server: checkpoint the session to FCKP and close.
    Suspend,
    /// Client → server: drain the whole daemon (suspend every open
    /// session) and exit.
    Shutdown,
    /// Server → client: the session is open.
    Hello {
        /// Server-assigned session ordinal.
        session: u64,
        /// Chunks already completed by a resumed checkpoint (0 for a
        /// fresh session). The client still streams the full trace; the
        /// backend skips the completed prefix.
        resumed_chunks: u64,
    },
    /// Server → client: incremental verdict after one chunk.
    VerdictDelta {
        /// Chunks consumed so far.
        chunks: u64,
        /// Events consumed so far.
        events: u64,
        /// Races detected so far.
        races: u64,
    },
    /// Server → client: the session's final verdict.
    Final {
        /// Total races detected.
        races: u64,
        /// The rendered verdict block, byte-identical to what one-shot
        /// `tracetool analyze` prints for the same trace.
        verdict: String,
    },
    /// Server → client: the session was checkpointed.
    Suspended {
        /// Chunks the checkpoint covers; resume replays the rest.
        chunks: u64,
    },
    /// Server → client: the request failed.
    Error {
        /// Failure category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Server → client: the daemon is at its session or connection quota
    /// and sheds this `Open` instead of queueing it. The client should
    /// back off and retry; the hint is advisory, not a promise of a slot.
    Busy {
        /// Suggested minimum wait before retrying, in milliseconds.
        retry_after_ms: u64,
    },
}

const KIND_OPEN: u8 = 1;
const KIND_CHUNK: u8 = 2;
const KIND_FINISH: u8 = 3;
const KIND_SUSPEND: u8 = 4;
const KIND_SHUTDOWN: u8 = 5;
const KIND_HELLO: u8 = 16;
const KIND_VERDICT_DELTA: u8 = 17;
const KIND_FINAL: u8 = 18;
const KIND_SUSPENDED: u8 = 19;
const KIND_ERROR: u8 = 20;
const KIND_BUSY: u8 = 21;

impl Message {
    /// Encodes the message payload (kind byte + body, no frame header).
    pub(crate) fn encode_payload(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Message::Open {
                checkpoint_every,
                trace_name,
            } => {
                buf.push(KIND_OPEN);
                put_varint(&mut buf, *checkpoint_every);
                put_str(&mut buf, trace_name);
            }
            Message::Chunk {
                seq,
                event_count,
                payload,
            } => {
                buf.push(KIND_CHUNK);
                put_varint(&mut buf, *seq);
                // n events travel as n + 1, the bytes peers have always
                // sent for a counted chunk; an encoded 0 is malformed.
                put_varint(&mut buf, u64::from(*event_count) + 1);
                put_varint(&mut buf, payload.len() as u64);
                buf.extend_from_slice(payload);
            }
            Message::Finish => buf.push(KIND_FINISH),
            Message::Suspend => buf.push(KIND_SUSPEND),
            Message::Shutdown => buf.push(KIND_SHUTDOWN),
            Message::Hello {
                session,
                resumed_chunks,
            } => {
                buf.push(KIND_HELLO);
                put_varint(&mut buf, *session);
                put_varint(&mut buf, *resumed_chunks);
            }
            Message::VerdictDelta {
                chunks,
                events,
                races,
            } => {
                buf.push(KIND_VERDICT_DELTA);
                put_varint(&mut buf, *chunks);
                put_varint(&mut buf, *events);
                put_varint(&mut buf, *races);
            }
            Message::Final { races, verdict } => {
                buf.push(KIND_FINAL);
                put_varint(&mut buf, *races);
                put_str(&mut buf, verdict);
            }
            Message::Suspended { chunks } => {
                buf.push(KIND_SUSPENDED);
                put_varint(&mut buf, *chunks);
            }
            Message::Error { code, message } => {
                buf.push(KIND_ERROR);
                buf.push(code.to_u8());
                put_str(&mut buf, message);
            }
            Message::Busy { retry_after_ms } => {
                buf.push(KIND_BUSY);
                put_varint(&mut buf, *retry_after_ms);
            }
        }
        buf
    }

    /// Decodes a message payload. Strict: unknown kinds, malformed
    /// fields, and trailing garbage are all [`WireError`]s, never panics.
    pub(crate) fn decode_payload(payload: &[u8]) -> Result<Message, WireError> {
        let (&kind, body) = payload
            .split_first()
            .ok_or(WireError::Truncated("message kind"))?;
        let mut c = Cursor::new(body);
        let msg = match kind {
            KIND_OPEN => Message::Open {
                checkpoint_every: c.varint("checkpoint_every")?,
                trace_name: c.str("trace_name")?.to_string(),
            },
            KIND_CHUNK => {
                let seq = c.varint("seq")?;
                let event_count = c
                    .varint("event count")?
                    .checked_sub(1)
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or(WireError::Malformed("event count"))?;
                let payload = c.bytes("chunk payload")?.to_vec();
                Message::Chunk {
                    seq,
                    event_count,
                    payload,
                }
            }
            KIND_FINISH => Message::Finish,
            KIND_SUSPEND => Message::Suspend,
            KIND_SHUTDOWN => Message::Shutdown,
            KIND_HELLO => Message::Hello {
                session: c.varint("session")?,
                resumed_chunks: c.varint("resumed_chunks")?,
            },
            KIND_VERDICT_DELTA => Message::VerdictDelta {
                chunks: c.varint("chunks")?,
                events: c.varint("events")?,
                races: c.varint("races")?,
            },
            KIND_FINAL => Message::Final {
                races: c.varint("races")?,
                verdict: c.str("verdict")?.to_string(),
            },
            KIND_SUSPENDED => Message::Suspended {
                chunks: c.varint("chunks")?,
            },
            KIND_ERROR => {
                let code = u8::try_from(c.varint("error code")?)
                    .ok()
                    .and_then(ErrorCode::from_u8)
                    .ok_or(WireError::Malformed("error code"))?;
                Message::Error {
                    code,
                    message: c.str("error message")?.to_string(),
                }
            }
            KIND_BUSY => Message::Busy {
                retry_after_ms: c.varint("retry_after_ms")?,
            },
            _ => return Err(WireError::Malformed("unknown message kind")),
        };
        if !c.is_empty() {
            return Err(WireError::Malformed("trailing bytes after message"));
        }
        Ok(msg)
    }
}

/// Any way reading a frame can fail. Every variant is a structured error
/// the session layer turns into a [`Message::Error`] response (or a
/// clean disconnect); the decode path never panics.
#[derive(Debug)]
pub enum ProtoError {
    /// The stream ended mid-frame (torn write / killed peer).
    Truncated(&'static str),
    /// The frame was structurally invalid.
    Malformed(&'static str),
    /// The length prefix exceeds `MAX_FRAME_LEN`.
    TooLarge(u32),
    /// The payload failed its CRC.
    Crc {
        /// CRC stored in the frame header.
        stored: u32,
        /// CRC computed over the received payload.
        computed: u32,
    },
    /// The underlying transport failed.
    Io(io::Error),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated(what) => write!(f, "stream truncated while reading {what}"),
            ProtoError::Malformed(what) => write!(f, "malformed frame: {what}"),
            ProtoError::TooLarge(len) => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            ProtoError::Crc { stored, computed } => write!(
                f,
                "frame crc mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            ProtoError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

impl From<WireError> for ProtoError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Truncated(w) => ProtoError::Truncated(w),
            WireError::Malformed(w) => ProtoError::Malformed(w),
        }
    }
}

/// Encodes one message as a complete frame (header + payload).
pub fn encode_frame(msg: &Message) -> Vec<u8> {
    let payload = msg.encode_payload();
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    put_u32_le(&mut out, payload.len() as u32);
    put_u32_le(&mut out, crc32(&payload));
    out.extend_from_slice(&payload);
    out
}

/// Decodes one frame from the front of `data`, returning the message and
/// how many bytes it consumed.
pub fn decode_frame(data: &[u8]) -> Result<(Message, usize), ProtoError> {
    if data.len() < FRAME_HEADER_LEN {
        return Err(ProtoError::Truncated("frame header"));
    }
    let len = u32::from_le_bytes(data[0..4].try_into().unwrap());
    let stored = u32::from_le_bytes(data[4..8].try_into().unwrap());
    if len as usize > MAX_FRAME_LEN {
        return Err(ProtoError::TooLarge(len));
    }
    let total = FRAME_HEADER_LEN + len as usize;
    if data.len() < total {
        return Err(ProtoError::Truncated("frame payload"));
    }
    let payload = &data[FRAME_HEADER_LEN..total];
    let computed = crc32(payload);
    if computed != stored {
        return Err(ProtoError::Crc { stored, computed });
    }
    let msg = Message::decode_payload(payload)?;
    Ok((msg, total))
}

/// Writes one framed message to `w` (a single `write_all` + flush).
pub fn write_frame(w: &mut impl Write, msg: &Message) -> io::Result<()> {
    w.write_all(&encode_frame(msg))?;
    w.flush()
}

/// Reads one framed message from `r`.
///
/// Returns `Ok(None)` on a clean EOF at a frame boundary (the peer closed
/// between messages); EOF anywhere *inside* a frame is
/// [`ProtoError::Truncated`]. The payload allocation is bounded by
/// `MAX_FRAME_LEN`, checked before allocating.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Message>, ProtoError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(ProtoError::Truncated("frame header")),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap());
    let stored = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if len as usize > MAX_FRAME_LEN {
        return Err(ProtoError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            ProtoError::Truncated("frame payload")
        } else {
            ProtoError::Io(e)
        }
    })?;
    let computed = crc32(&payload);
    if computed != stored {
        return Err(ProtoError::Crc { stored, computed });
    }
    Ok(Some(Message::decode_payload(&payload)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propcheck::{self, strategies, Config};

    /// One representative of every message kind, exercising both empty
    /// and non-trivial field values.
    fn specimens() -> Vec<Message> {
        vec![
            Message::Open {
                checkpoint_every: 0,
                trace_name: String::new(),
            },
            Message::Open {
                checkpoint_every: 8,
                trace_name: "fixtures/actor_racy.ftrc".into(),
            },
            Message::Chunk {
                seq: 7,
                event_count: 0,
                payload: vec![],
            },
            Message::Chunk {
                seq: u64::MAX,
                event_count: u32::MAX,
                payload: (0..=255u8).collect(),
            },
            Message::Finish,
            Message::Suspend,
            Message::Shutdown,
            Message::Hello {
                session: 7,
                resumed_chunks: 3,
            },
            Message::VerdictDelta {
                chunks: 12,
                events: 4096,
                races: 2,
            },
            Message::Final {
                races: 5,
                verdict: "\n5 determinacy race(s); first 5:\n  …".into(),
            },
            Message::Suspended { chunks: 9 },
            Message::Error {
                code: ErrorCode::Trace,
                message: "invalid trace: unknown tag".into(),
            },
            Message::Busy { retry_after_ms: 0 },
            Message::Busy {
                retry_after_ms: 250,
            },
        ]
    }

    #[test]
    fn every_kind_roundtrips_byte_identically() {
        for msg in specimens() {
            let frame = encode_frame(&msg);
            let (decoded, used) = decode_frame(&frame).unwrap();
            assert_eq!(used, frame.len());
            assert_eq!(decoded, msg);
            // Re-encoding the decoded message reproduces the exact bytes.
            assert_eq!(encode_frame(&decoded), frame);

            // The io path agrees with the slice path.
            let mut cursor = io::Cursor::new(frame.clone());
            assert_eq!(read_frame(&mut cursor).unwrap(), Some(msg));
            assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF");
        }
    }

    #[test]
    fn every_truncation_is_a_structured_error() {
        for msg in specimens() {
            let frame = encode_frame(&msg);
            for cut in 0..frame.len() {
                let err = decode_frame(&frame[..cut]).unwrap_err();
                assert!(
                    matches!(
                        err,
                        ProtoError::Truncated(_)
                            | ProtoError::Crc { .. }
                            | ProtoError::Malformed(_)
                    ),
                    "cut {cut}: {err}"
                );
                let mut cursor = io::Cursor::new(frame[..cut].to_vec());
                if cut == 0 {
                    assert!(read_frame(&mut cursor).unwrap().is_none());
                } else {
                    assert!(read_frame(&mut cursor).is_err());
                }
            }
        }
    }

    #[test]
    fn every_single_byte_mutation_is_rejected_or_reencodes_cleanly() {
        for msg in specimens() {
            let frame = encode_frame(&msg);
            for i in 0..frame.len() {
                let mut bad = frame.clone();
                bad[i] ^= 0x01;
                match decode_frame(&bad) {
                    // Flips in the length prefix usually truncate or
                    // overrun; flips in CRC or payload must be caught by
                    // the checksum; all are structured errors.
                    Err(_) => {}
                    Ok((decoded, used)) => {
                        // A flip that still decodes (e.g. grew the frame
                        // into trailing bytes that happen to validate)
                        // must at least be self-consistent.
                        assert_eq!(encode_frame(&decoded)[..], bad[..used]);
                    }
                }
            }
        }
    }

    #[test]
    fn unknown_kind_and_trailing_bytes_are_malformed() {
        assert_eq!(
            Message::decode_payload(&[99]),
            Err(WireError::Malformed("unknown message kind"))
        );
        assert_eq!(
            Message::decode_payload(&[]),
            Err(WireError::Truncated("message kind"))
        );
        let mut payload = Message::Finish.encode_payload();
        payload.push(0);
        assert_eq!(
            Message::decode_payload(&payload),
            Err(WireError::Malformed("trailing bytes after message"))
        );
    }

    #[test]
    fn a_chunk_count_past_u32_or_absent_is_malformed() {
        for encoded in [u64::from(u32::MAX) + 2, 0] {
            let mut payload = vec![KIND_CHUNK];
            put_varint(&mut payload, 0); // seq
            put_varint(&mut payload, encoded);
            put_varint(&mut payload, 0); // empty payload
            assert_eq!(
                Message::decode_payload(&payload),
                Err(WireError::Malformed("event count"))
            );
        }
    }

    #[test]
    fn oversized_length_prefix_does_not_allocate() {
        let mut frame = Vec::new();
        put_u32_le(&mut frame, u32::MAX);
        put_u32_le(&mut frame, 0);
        assert!(matches!(
            decode_frame(&frame),
            Err(ProtoError::TooLarge(u32::MAX))
        ));
        let mut cursor = io::Cursor::new(frame);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(ProtoError::TooLarge(u32::MAX))
        ));
    }

    #[test]
    fn crc_flip_is_reported_with_both_values() {
        let mut frame = encode_frame(&Message::Finish);
        frame[4] ^= 0xFF;
        match decode_frame(&frame) {
            Err(ProtoError::Crc { stored, computed }) => assert_ne!(stored, computed),
            other => panic!("expected crc error, got {other:?}"),
        }
    }

    /// Propcheck: arbitrary mutations of arbitrary valid frames never
    /// panic, and whatever still decodes re-encodes byte-identically
    /// (mirrors the PR 2 trace-decoder robustness suite).
    #[test]
    fn prop_mutated_frames_never_panic() {
        let strat = strategies::tuple4(
            strategies::u8_range(0..14),    // which specimen
            strategies::u32_range(0..4096), // mutation offset seed
            strategies::u8_range(0..255),   // xor mask (0 ⇒ truncate instead)
            strategies::u32_range(0..4096), // truncation point seed
        );
        propcheck::check(
            &Config::named("util::wire::proto").cases(512),
            &strat,
            |(which, off, mask, cut)| {
                let specimens = specimens();
                let msg = &specimens[which as usize % specimens.len()];
                let mut frame = encode_frame(msg);
                if mask == 0 {
                    frame.truncate(cut as usize % (frame.len() + 1));
                } else {
                    let off = off as usize % frame.len();
                    frame[off] ^= mask;
                }
                match decode_frame(&frame) {
                    Err(_) => {}
                    Ok((decoded, used)) => {
                        assert_eq!(encode_frame(&decoded)[..], frame[..used]);
                    }
                }
                // The io reader agrees: structured error or success, no panic.
                let _ = read_frame(&mut io::Cursor::new(frame));
            },
        );
    }

    /// Propcheck: pure byte soup never panics the frame or payload
    /// decoders.
    #[test]
    fn prop_random_bytes_never_panic() {
        let strat = strategies::vec_of(strategies::u8_range(0..255), 0, 128);
        propcheck::check(
            &Config::named("util::wire::proto").cases(512),
            &strat,
            |bytes| {
                let _ = decode_frame(&bytes);
                let _ = Message::decode_payload(&bytes);
                let _ = read_frame(&mut io::Cursor::new(bytes));
            },
        );
    }
}
