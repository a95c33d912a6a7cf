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
//! decoded. `len` is bounded by [`MAX_FRAME_LEN`] so a hostile or
//! garbage length prefix cannot make the reader allocate unbounded
//! memory.
//!
//! # Chunks without copies
//!
//! A [`Message::Chunk`]'s payload, nearly every byte a session moves, is
//! a `Cow`: the client borrows it from the trace file and
//! [`encode_frame_into`] copies it once, into a frame buffer the client
//! reuses; [`decode_frame`] decodes a frame in place, the payload
//! borrowing the receive buffer, which the server hands to its session
//! as it is. A client forwarding a framed trace chunk passes the CRC the
//! chunk header stores, which it has just verified, and the frame's CRC
//! is derived from it (`crc32_combine`) instead of read off the payload
//! again. The server's check still covers the file's own bytes end to
//! end: a payload that changed after its CRC was verified fails the
//! frame CRC as any flipped bit does.

use super::{put_str, put_varint, Cursor, WireError};
use crate::crc32::{crc32, crc32_combine};
use std::borrow::Cow;
use std::fmt;
use std::io::{self, Read, Write};

/// Hard cap on a frame's payload length (16 MiB). Trace chunks default to
/// 64 KiB, so this is generous headroom; anything larger is treated as a
/// corrupt length prefix, not an allocation request. A trace recorded
/// with larger chunks is re-chunked to stream it (see
/// [`chunk_frame_len`]).
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

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
/// which side sends which). Only a chunk's payload borrows: `'a` is the
/// trace or receive buffer it lies in.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message<'a> {
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
        /// The encoded events, borrowed from the sender's trace or the
        /// receiver's buffer, or owned.
        payload: Cow<'a, [u8]>,
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

impl Message<'_> {
    /// Appends the message payload (kind byte + body, no frame header) to
    /// `buf`. A chunk's payload bytes come last.
    fn encode_payload_into(&self, buf: &mut Vec<u8>) {
        match self {
            Message::Open {
                checkpoint_every,
                trace_name,
            } => {
                buf.push(KIND_OPEN);
                put_varint(buf, *checkpoint_every);
                put_str(buf, trace_name);
            }
            Message::Chunk {
                seq,
                event_count,
                payload,
            } => {
                buf.push(KIND_CHUNK);
                put_varint(buf, *seq);
                // n events travel as n + 1, the bytes peers have always
                // sent for a counted chunk; an encoded 0 is malformed.
                put_varint(buf, u64::from(*event_count) + 1);
                put_varint(buf, payload.len() as u64);
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
                put_varint(buf, *session);
                put_varint(buf, *resumed_chunks);
            }
            Message::VerdictDelta {
                chunks,
                events,
                races,
            } => {
                buf.push(KIND_VERDICT_DELTA);
                put_varint(buf, *chunks);
                put_varint(buf, *events);
                put_varint(buf, *races);
            }
            Message::Final { races, verdict } => {
                buf.push(KIND_FINAL);
                put_varint(buf, *races);
                put_str(buf, verdict);
            }
            Message::Suspended { chunks } => {
                buf.push(KIND_SUSPENDED);
                put_varint(buf, *chunks);
            }
            Message::Error { code, message } => {
                buf.push(KIND_ERROR);
                buf.push(code.to_u8());
                put_str(buf, message);
            }
            Message::Busy { retry_after_ms } => {
                buf.push(KIND_BUSY);
                put_varint(buf, *retry_after_ms);
            }
        }
    }

    /// This message with a chunk's payload copied out of the buffer it
    /// borrows from.
    fn into_owned(self) -> Message<'static> {
        match self {
            Message::Open {
                checkpoint_every,
                trace_name,
            } => Message::Open {
                checkpoint_every,
                trace_name,
            },
            Message::Chunk {
                seq,
                event_count,
                payload,
            } => Message::Chunk {
                seq,
                event_count,
                payload: Cow::Owned(payload.into_owned()),
            },
            Message::Finish => Message::Finish,
            Message::Suspend => Message::Suspend,
            Message::Shutdown => Message::Shutdown,
            Message::Hello {
                session,
                resumed_chunks,
            } => Message::Hello {
                session,
                resumed_chunks,
            },
            Message::VerdictDelta {
                chunks,
                events,
                races,
            } => Message::VerdictDelta {
                chunks,
                events,
                races,
            },
            Message::Final { races, verdict } => Message::Final { races, verdict },
            Message::Suspended { chunks } => Message::Suspended { chunks },
            Message::Error { code, message } => Message::Error { code, message },
            Message::Busy { retry_after_ms } => Message::Busy { retry_after_ms },
        }
    }
}

impl<'a> Message<'a> {
    /// Decodes a message payload; a chunk's payload borrows `payload`.
    /// Strict: unknown kinds, malformed fields, and trailing garbage are
    /// all [`WireError`]s, never panics.
    pub(crate) fn decode_payload(payload: &'a [u8]) -> Result<Message<'a>, WireError> {
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
                let payload = Cow::Borrowed(c.bytes("chunk payload")?);
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

/// Bytes of the frame payload (the `len` a frame header carries) of a
/// [`Message::Chunk`] with these fields and a payload of `payload_len`
/// bytes, to hold against [`MAX_FRAME_LEN`] before anything is encoded.
pub fn chunk_frame_len(seq: u64, event_count: u32, payload_len: usize) -> usize {
    let varint_len = |v: u64| (v.max(1).ilog2() / 7 + 1) as usize;
    1 + varint_len(seq)
        + varint_len(u64::from(event_count) + 1)
        + varint_len(payload_len as u64)
        + payload_len
}

/// Encodes one message as a complete frame (header + payload).
pub fn encode_frame(msg: &Message<'_>) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame_into(&mut out, msg, None);
    out
}

/// Encodes one message as a complete frame into `out`, replacing what it
/// held, so a sender can reuse one buffer for every frame.
///
/// `chunk_crc` is the CRC-32 of a [`Message::Chunk`]'s payload when the
/// caller holds it verified (the CRC a framed trace chunk's header
/// stores, once the payload matched it): the frame's CRC is then derived
/// from it and the CRC of the bytes before the payload, and the payload
/// is copied but not read again. With `None`, and for every other kind,
/// the frame's CRC is one pass over its payload.
pub fn encode_frame_into(out: &mut Vec<u8>, msg: &Message<'_>, chunk_crc: Option<u32>) {
    out.clear();
    out.resize(FRAME_HEADER_LEN, 0);
    msg.encode_payload_into(out);
    let body = &out[FRAME_HEADER_LEN..];
    let crc = match (msg, chunk_crc) {
        (Message::Chunk { payload, .. }, Some(payload_crc)) => {
            let head = &body[..body.len() - payload.len()];
            crc32_combine(crc32(head), payload_crc, payload.len() as u64)
        }
        _ => crc32(body),
    };
    let len = body.len() as u32;
    out[..4].copy_from_slice(&len.to_le_bytes());
    out[4..FRAME_HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
}

/// The whole length (header included) of the frame at the front of
/// `data`, once its header is in: [`ProtoError::Truncated`] before,
/// [`ProtoError::TooLarge`] over the cap. A reader sizes its buffer for
/// the frame by it, so a garbage length prefix allocates nothing.
fn frame_len(data: &[u8]) -> Result<usize, ProtoError> {
    if data.len() < FRAME_HEADER_LEN {
        return Err(ProtoError::Truncated("frame header"));
    }
    let len = u32::from_le_bytes(data[0..4].try_into().unwrap());
    if len as usize > MAX_FRAME_LEN {
        return Err(ProtoError::TooLarge(len));
    }
    Ok(FRAME_HEADER_LEN + len as usize)
}

/// Decodes one frame from the front of `data`, in place, returning the
/// message and how many bytes it consumed. A chunk's payload borrows
/// `data`.
pub fn decode_frame(data: &[u8]) -> Result<(Message<'_>, usize), ProtoError> {
    let total = frame_len(data)?;
    if data.len() < total {
        return Err(ProtoError::Truncated("frame payload"));
    }
    let stored = u32::from_le_bytes(data[4..8].try_into().unwrap());
    let payload = &data[FRAME_HEADER_LEN..total];
    let computed = crc32(payload);
    if computed != stored {
        return Err(ProtoError::Crc { stored, computed });
    }
    let msg = Message::decode_payload(payload)?;
    Ok((msg, total))
}

/// Bytes a [`RecvBuf`] starts with.
const RECV_BUF_LEN: usize = 64 * 1024;

/// A connection's receive buffer: bytes are read straight into it and
/// each frame is decoded in place ([`decode_frame`]), so a chunk's
/// payload reaches the receiver borrowing the buffer, without a copy.
/// The buffer grows to the largest frame received, and only after the
/// frame's length prefix has passed the [`MAX_FRAME_LEN`] check.
#[derive(Debug)]
pub struct RecvBuf {
    buf: Vec<u8>,
    /// `buf[start..end]` is received and not yet decoded.
    start: usize,
    end: usize,
}

impl Default for RecvBuf {
    fn default() -> Self {
        RecvBuf {
            buf: vec![0; RECV_BUF_LEN],
            start: 0,
            end: 0,
        }
    }
}

impl RecvBuf {
    /// Decodes and consumes the next frame, in place: `Ok(None)` until
    /// all of its bytes are in. Damage (a bad CRC, an oversized length,
    /// a malformed body) is an error, after which the stream cannot be
    /// resynced.
    pub fn next_frame(&mut self) -> Result<Option<Message<'_>>, ProtoError> {
        match decode_frame(&self.buf[self.start..self.end]) {
            Ok((msg, used)) => {
                self.start += used;
                if self.start == self.end {
                    (self.start, self.end) = (0, 0);
                }
                Ok(Some(msg))
            }
            Err(ProtoError::Truncated(_)) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Reads once from `r` into the free tail of the buffer, first making
    /// room for the whole of the frame at the front, or for its header.
    /// Returns the bytes read; 0 is the end of the stream.
    pub fn fill(&mut self, r: &mut impl Read) -> io::Result<usize> {
        let pending = self.end - self.start;
        // An unchecked length (the caller skipped `next_frame`) sizes
        // nothing: only the header's bytes are asked for.
        let frame = frame_len(&self.buf[self.start..self.end]).unwrap_or(FRAME_HEADER_LEN);
        // At least one byte of room, even behind a whole frame not yet
        // decoded, so a read of 0 always means the end of the stream.
        let want = frame.max(pending + 1);
        if self.buf.len() - self.start < want {
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, pending);
            if self.buf.len() < want {
                self.buf.resize(want, 0);
            }
        }
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }
}

/// Writes one framed message to `w` (a single `write_all` + flush).
pub fn write_frame(w: &mut impl Write, msg: &Message<'_>) -> io::Result<()> {
    w.write_all(&encode_frame(msg))?;
    w.flush()
}

/// Reads one framed message from `r` into a buffer of its own, and
/// decodes it with [`decode_frame`].
///
/// Returns `Ok(None)` on a clean EOF at a frame boundary (the peer closed
/// between messages); EOF anywhere *inside* a frame is
/// [`ProtoError::Truncated`]. The payload allocation is bounded by
/// `MAX_FRAME_LEN`, checked before allocating.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Message<'static>>, ProtoError> {
    let mut frame = vec![0u8; FRAME_HEADER_LEN];
    let mut got = 0;
    while got < FRAME_HEADER_LEN {
        match r.read(&mut frame[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(ProtoError::Truncated("frame header")),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    frame.resize(frame_len(&frame)?, 0);
    r.read_exact(&mut frame[FRAME_HEADER_LEN..]).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            ProtoError::Truncated("frame payload")
        } else {
            ProtoError::Io(e)
        }
    })?;
    let (msg, _) = decode_frame(&frame)?;
    Ok(Some(msg.into_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propcheck::{self, strategies, Config};
    use crate::wire::put_u32_le;

    impl Message<'_> {
        /// The message payload alone (kind byte + body).
        fn encode_payload(&self) -> Vec<u8> {
            let mut buf = Vec::new();
            self.encode_payload_into(&mut buf);
            buf
        }
    }

    /// A reader handing out `data` at most `piece` bytes per read, as a
    /// socket hands out a frame in segments.
    struct Pieces<'a> {
        data: &'a [u8],
        piece: usize,
    }

    impl Read for Pieces<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.piece.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// Every message the in-place receive path decodes from `data`, read
    /// `piece` bytes at a time, and the error that ended it, if a frame
    /// failed. Bytes left at the end, a frame cut short, decode to nothing.
    fn received(data: &[u8], piece: usize) -> (Vec<Message<'static>>, Option<ProtoError>) {
        let mut r = Pieces { data, piece };
        let mut recv = RecvBuf::default();
        let mut out = Vec::new();
        loop {
            loop {
                match recv.next_frame() {
                    Ok(Some(msg)) => out.push(msg.into_owned()),
                    Ok(None) => break,
                    Err(e) => return (out, Some(e)),
                }
            }
            if recv.fill(&mut r).unwrap() == 0 {
                return (out, None);
            }
        }
    }

    /// The in-place receive path, reading `frame` in pieces of several
    /// sizes, agrees with `decode_frame` on it: the same first message,
    /// nothing from a frame cut short, the same error for damage.
    fn assert_received_agrees(frame: &[u8]) {
        for piece in [1, 7, frame.len().max(1)] {
            let (got, err) = received(frame, piece);
            match decode_frame(frame) {
                Ok((msg, _)) => assert_eq!(got.first(), Some(&msg), "piece {piece}"),
                Err(ProtoError::Truncated(_)) => {
                    assert!(got.is_empty() && err.is_none(), "piece {piece}: {err:?}")
                }
                Err(want) => {
                    let err = err.map(|e| e.to_string());
                    assert!(got.is_empty(), "piece {piece}");
                    assert_eq!(err, Some(want.to_string()), "piece {piece}");
                }
            }
        }
    }

    /// One representative of every message kind, exercising both empty
    /// and non-trivial field values.
    fn specimens() -> Vec<Message<'static>> {
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
                payload: vec![].into(),
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
                assert_received_agrees(&frame[..cut]);
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
                assert_received_agrees(&bad);
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
                assert_received_agrees(&frame);
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

    #[test]
    fn frames_read_in_any_pieces_decode_in_place_in_order() {
        let all = specimens();
        let stream: Vec<u8> = all.iter().flat_map(|m| encode_frame(m)).collect();
        for piece in [1, 2, 3, 7, 8, 9, 64, 1000, stream.len()] {
            let (got, err) = received(&stream, piece);
            assert!(err.is_none(), "piece {piece}: {err:?}");
            assert_eq!(got, all, "piece {piece}");
        }
    }

    #[test]
    fn a_chunk_frame_decodes_borrowing_the_receive_buffer() {
        // Larger than the buffer's first size, so it grows for it.
        let payload: Vec<u8> = (0..=255u8).cycle().take(3 * RECV_BUF_LEN).collect();
        let msg = Message::Chunk {
            seq: 1,
            event_count: 2,
            payload: Cow::Borrowed(&payload),
        };
        let frame = encode_frame(&msg);
        let mut recv = RecvBuf::default();
        let mut r = Pieces {
            data: &frame,
            piece: 5000,
        };
        while recv.end < frame.len() {
            assert!(recv.next_frame().unwrap().is_none());
            assert!(recv.fill(&mut r).unwrap() > 0);
        }
        let got = recv.next_frame().unwrap().expect("the whole frame is in");
        assert_eq!(got, msg);
        let Message::Chunk {
            payload: Cow::Borrowed(bytes),
            ..
        } = got
        else {
            panic!("the payload is not borrowed: {got:?}");
        };
        assert!(std::ptr::eq(
            bytes,
            &recv.buf[frame.len() - payload.len()..frame.len()]
        ));
    }

    #[test]
    fn a_fill_behind_a_whole_frame_still_reads() {
        // A frame of exactly the buffer's first size fills it to the end.
        let len = (0..RECV_BUF_LEN)
            .rev()
            .find(|&l| FRAME_HEADER_LEN + chunk_frame_len(1, 1, l) == RECV_BUF_LEN)
            .expect("a payload length that fills the buffer");
        let msg = Message::Chunk {
            seq: 1,
            event_count: 1,
            payload: vec![7; len].into(),
        };
        let frame = encode_frame(&msg);
        let stream = [&frame[..], &frame[..]].concat();
        let mut r = Pieces {
            data: &stream,
            piece: 4096,
        };
        let mut recv = RecvBuf::default();
        while recv.end < frame.len() {
            assert!(recv.fill(&mut r).unwrap() > 0);
        }
        assert_eq!(recv.end, recv.buf.len());
        // Filling again before decoding is not the end of the stream.
        assert!(recv.fill(&mut r).unwrap() > 0);
        assert_eq!(recv.next_frame().unwrap(), Some(msg.clone()));
        while recv.end - recv.start < frame.len() {
            assert!(recv.fill(&mut r).unwrap() > 0);
        }
        assert_eq!(recv.next_frame().unwrap(), Some(msg));
        assert_eq!(recv.fill(&mut r).unwrap(), 0);
    }

    #[test]
    fn an_oversized_length_prefix_grows_no_receive_buffer() {
        let mut frame = Vec::new();
        put_u32_le(&mut frame, MAX_FRAME_LEN as u32 + 1);
        put_u32_le(&mut frame, 0);
        let mut recv = RecvBuf::default();
        recv.fill(&mut Pieces {
            data: &frame,
            piece: 8,
        })
        .unwrap();
        assert!(matches!(recv.next_frame(), Err(ProtoError::TooLarge(_))));
        // Even read on past the check, the garbage length sizes nothing.
        recv.fill(&mut io::repeat(0)).unwrap();
        assert_eq!(recv.buf.len(), RECV_BUF_LEN);
    }

    #[test]
    fn chunk_frame_len_is_the_encoded_length() {
        for seq in [0, 127, 128, 16_383, 16_384, u64::MAX] {
            for event_count in [0, 126, 127, u32::MAX] {
                for len in [0, 1, 127, 128, 16_384, 70_000] {
                    let payload = vec![0u8; len];
                    let msg = Message::Chunk {
                        seq,
                        event_count,
                        payload: Cow::Borrowed(&payload),
                    };
                    assert_eq!(
                        chunk_frame_len(seq, event_count, len),
                        encode_frame(&msg).len() - FRAME_HEADER_LEN,
                        "seq {seq} count {event_count} len {len}"
                    );
                }
            }
        }
    }

    /// Propcheck: a chunk frame encoded from a borrowed payload into a
    /// reused buffer, its CRC derived from the payload's CRC, is byte
    /// for byte the frame `encode_frame` makes of the owned message, and
    /// decodes in place back to the same fields, from a slice and through
    /// the receive buffer.
    #[test]
    fn prop_borrowed_chunk_frames_match_owned_ones() {
        let strat = strategies::tuple3(
            strategies::any_u64(),
            strategies::u32_range(0..u32::MAX),
            strategies::vec_of(strategies::u8_range(0..255), 0, 600),
        );
        propcheck::check(
            &Config::named("util::wire::proto").cases(256),
            &strat,
            |(seq, event_count, payload)| {
                let mut frame = vec![0xA5; 4096]; // stale bytes, replaced
                let owned = encode_frame(&Message::Chunk {
                    seq,
                    event_count,
                    payload: payload.clone().into(),
                });
                let borrowed = Message::Chunk {
                    seq,
                    event_count,
                    payload: Cow::Borrowed(&payload),
                };
                encode_frame_into(&mut frame, &borrowed, Some(crc32(&payload)));
                assert_eq!(frame, owned);
                let (decoded, used) = decode_frame(&frame).unwrap();
                assert_eq!(used, frame.len());
                assert_eq!(decoded, borrowed);
                let Message::Chunk {
                    payload: Cow::Borrowed(bytes),
                    ..
                } = decoded
                else {
                    panic!("decode_frame copied the payload");
                };
                assert!(std::ptr::eq(bytes, &frame[frame.len() - payload.len()..]));
                assert_received_agrees(&frame);
            },
        );
    }

    #[test]
    fn a_payload_changed_after_its_crc_fails_the_frame_crc() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(70_000).collect();
        let stored = crc32(&payload);
        for at in [0, 1, 4095, 65_536, payload.len() - 1] {
            let mut changed = payload.clone();
            changed[at] ^= 0x10;
            let msg = Message::Chunk {
                seq: 3,
                event_count: 9,
                payload: Cow::Borrowed(&changed),
            };
            let mut frame = Vec::new();
            encode_frame_into(&mut frame, &msg, Some(stored));
            match decode_frame(&frame) {
                Err(ProtoError::Crc { stored, computed }) => {
                    assert_ne!(stored, computed, "byte {at}");
                    assert_eq!(computed, crc32(&frame[FRAME_HEADER_LEN..]), "byte {at}");
                }
                other => panic!("byte {at}: expected a crc error, got {other:?}"),
            }
            assert!(matches!(
                read_frame(&mut io::Cursor::new(&frame)),
                Err(ProtoError::Crc { .. })
            ));
        }
    }
}
