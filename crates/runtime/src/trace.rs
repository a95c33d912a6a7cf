//! Compact binary serialization of instrumentation event streams.
//!
//! [`encode`] turns an [`Event`] stream into a varint-packed byte buffer,
//! and [`DecodedChunk::decode`] turns it back into the compact decoded
//! form every offline consumer reads: the serial engine, the offline
//! shard stage and the analysis daemon's sessions. That enables *offline*
//! race detection: record a production run cheaply (an
//! [`crate::monitor::EventLog`] or a streaming writer), ship the trace,
//! and replay it into the detector elsewhere. The detector is a pure
//! function of the serial depth-first event stream, so the offline
//! verdict is identical to the online one (asserted by `tests/replay.rs`).
//! [`decode`] is the per-event view of the same decoder.
//!
//! Format: one tag byte per event followed by LEB128-varint fields; `Alloc`
//! carries a length-prefixed UTF-8 name. At paper scale (10⁹ accesses) a
//! read/write event costs 2–6 bytes.

use crate::monitor::{Event, TaskKind};
use futrace_util::ids::{FinishId, LocId, TaskId};
use futrace_util::wire::put_varint;

const TAG_TASK_CREATE: u8 = 1;
const TAG_TASK_END: u8 = 2;
const TAG_FINISH_START: u8 = 3;
const TAG_FINISH_END: u8 = 4;
const TAG_GET: u8 = 5;
const TAG_READ: u8 = 6;
const TAG_WRITE: u8 = 7;
const TAG_ALLOC: u8 = 8;

/// A read-only position over the input slice (std-only replacement for
/// `bytes::Bytes`): all reads bounds-check and surface
/// [`DecodeError::Truncated`] instead of panicking.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn get_u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self.data.get(self.pos).ok_or(DecodeError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
}

/// Reads one varint. Most trace fields (tags aside, task ids, finish ids,
/// small counts) fit in one byte, so that case is inlined at every field;
/// longer encodings, and every error, go through [`get_varint_tail`].
#[inline(always)]
fn get_varint(buf: &mut Cursor<'_>) -> Result<u64, DecodeError> {
    match buf.data.get(buf.pos) {
        Some(&byte) if byte < 0x80 => {
            buf.pos += 1;
            Ok(u64::from(byte))
        }
        _ => get_varint_tail(buf),
    }
}

/// [`get_varint`] for a varint of any length, kept out of line so the
/// one-byte path stays small where it is inlined.
#[inline(never)]
fn get_varint_tail(buf: &mut Cursor<'_>) -> Result<u64, DecodeError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = buf.get_u8()?;
        if shift >= 64 {
            return Err(DecodeError::Malformed("varint too long"));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Decoding failure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// Buffer ended mid-event.
    Truncated,
    /// Structurally invalid data.
    Malformed(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "trace truncated"),
            DecodeError::Malformed(what) => write!(f, "malformed trace: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn kind_code(k: TaskKind) -> u64 {
    match k {
        TaskKind::Main => 0,
        TaskKind::Async => 1,
        TaskKind::Future => 2,
    }
}

fn kind_from(code: u64) -> Result<TaskKind, DecodeError> {
    Ok(match code {
        0 => TaskKind::Main,
        1 => TaskKind::Async,
        2 => TaskKind::Future,
        _ => return Err(DecodeError::Malformed("task kind")),
    })
}

/// Serializes an event stream.
pub fn encode(events: &[Event]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(events.len() * 4);
    for e in events {
        encode_event(&mut buf, e);
    }
    buf
}

/// Appends one event's encoding to `buf` — the incremental form of
/// [`encode`], used by streaming writers (framed trace chunks are built by
/// calling this per event instead of materializing the whole stream).
pub fn encode_event(buf: &mut Vec<u8>, e: &Event) {
    {
        match e {
            Event::TaskCreate {
                parent,
                child,
                kind,
                ief,
            } => {
                buf.push(TAG_TASK_CREATE);
                put_varint(buf, u64::from(parent.0));
                put_varint(buf, u64::from(child.0));
                put_varint(buf, kind_code(*kind));
                put_varint(buf, u64::from(ief.0));
            }
            Event::TaskEnd(t) => {
                buf.push(TAG_TASK_END);
                put_varint(buf, u64::from(t.0));
            }
            Event::FinishStart(t, f) => {
                buf.push(TAG_FINISH_START);
                put_varint(buf, u64::from(t.0));
                put_varint(buf, u64::from(f.0));
            }
            Event::FinishEnd(t, f, joined) => {
                buf.push(TAG_FINISH_END);
                put_varint(buf, u64::from(t.0));
                put_varint(buf, u64::from(f.0));
                put_varint(buf, joined.len() as u64);
                for j in joined {
                    put_varint(buf, u64::from(j.0));
                }
            }
            Event::Get { waiter, awaited } => {
                buf.push(TAG_GET);
                put_varint(buf, u64::from(waiter.0));
                put_varint(buf, u64::from(awaited.0));
            }
            Event::Read(t, l) => {
                buf.push(TAG_READ);
                put_varint(buf, u64::from(t.0));
                put_varint(buf, u64::from(l.0));
            }
            Event::Write(t, l) => {
                buf.push(TAG_WRITE);
                put_varint(buf, u64::from(t.0));
                put_varint(buf, u64::from(l.0));
            }
            Event::Alloc(base, n, name) => {
                buf.push(TAG_ALLOC);
                put_varint(buf, u64::from(base.0));
                put_varint(buf, u64::from(*n));
                put_varint(buf, name.len() as u64);
                buf.extend_from_slice(name.as_bytes());
            }
        }
    }
}

fn id32(v: u64, what: &'static str) -> Result<u32, DecodeError> {
    u32::try_from(v).map_err(|_| DecodeError::Malformed(what))
}

/// Reads an access's task or location id at `*pos`. Location ids mostly
/// take two or three varint bytes, so those cases are inlined along with
/// the one-byte case: a value below 2^21 always fits the `u32`. Longer
/// encodings, a varint cut short by the end of the data, and every error
/// go through [`get_varint_tail`] and [`id32`], as for any other field.
#[inline(always)]
fn get_id(data: &[u8], pos: &mut usize, what: &'static str) -> Result<u32, DecodeError> {
    let (len, id) = match data[*pos..] {
        [b0, ..] if b0 < 0x80 => (1, u32::from(b0)),
        [b0, b1, ..] if b1 < 0x80 => (2, u32::from(b0 & 0x7f) | u32::from(b1) << 7),
        [b0, b1, b2, ..] if b2 < 0x80 => (
            3,
            u32::from(b0 & 0x7f) | u32::from(b1 & 0x7f) << 7 | u32::from(b2) << 14,
        ),
        _ => {
            let mut buf = Cursor { data, pos: *pos };
            let id = id32(get_varint_tail(&mut buf)?, what)?;
            *pos = buf.pos;
            return Ok(id);
        }
    };
    *pos += len;
    Ok(id)
}

/// Deserializes an event stream produced by [`encode`]: a view of
/// [`DecodedChunk::decode`] that expands the chunk back into events.
pub fn decode(data: &[u8]) -> Result<Vec<Event>, DecodeError> {
    Ok(DecodedChunk::decode(data)?.into_iter().collect())
}

/// Events per chunk when an in-memory event list enters the compact form
/// ([`DecodedChunk::from_events`]). An event list has no framed chunk
/// boundaries of its own, so this is also the granularity at which the
/// offline shard stage can snapshot one.
pub const SYNTHETIC_CHUNK_EVENTS: usize = 4096;

/// One event of a [`DecodedChunk`] in 16 bytes: an access of `task` to
/// `loc`, or a marker that stands for the chunk's next control event.
///
/// An access keeps its write bit in bit 0 of a third, 64-bit field; the
/// offline shard stage, which routes ops to workers, puts the access's
/// global index in the bits above it ([`Op::numbered`]). A marker holds
/// `u64::MAX` there, which no access index reaches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    /// The accessing task (0 in a marker).
    pub task: TaskId,
    /// The accessed location (0 in a marker).
    pub loc: LocId,
    word: u64,
}

impl Op {
    /// The `word` of a control marker.
    const CONTROL: u64 = u64::MAX;

    /// The marker of a control event.
    fn control() -> Op {
        Op {
            task: TaskId(0),
            loc: LocId(0),
            word: Op::CONTROL,
        }
    }

    fn access(task: TaskId, loc: LocId, write: bool) -> Op {
        Op {
            task,
            loc,
            word: u64::from(write),
        }
    }

    /// True for a control marker.
    #[inline]
    pub fn is_control(self) -> bool {
        self.word == Op::CONTROL
    }

    /// True for a write access.
    #[inline]
    pub fn is_write(self) -> bool {
        self.word & 1 == 1
    }

    /// This access carrying global access index `index`.
    #[inline]
    pub fn numbered(self, index: u64) -> Op {
        Op {
            word: index << 1 | self.word & 1,
            ..self
        }
    }

    /// The global access index [`Op::numbered`] gave this access.
    #[inline]
    pub fn index(self) -> u64 {
        self.word >> 1
    }
}

/// A run of the event stream in compact decoded form: every event, in
/// order, as an [`Op`], with the run's control events held once, in
/// order, beside them (the `i`-th control marker stands for the `i`-th
/// control event). Accesses, nearly every event of a trace, take 16 bytes
/// each and no allocation.
///
/// [`DecodedChunk::decode`] fills it from codec bytes in one loop, the
/// only decoder of the codec; [`DecodedChunk::from_events`] is the way an
/// in-memory event list enters it. Iterating a chunk expands it back into
/// [`Event`]s.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DecodedChunk {
    ops: Vec<Op>,
    controls: Vec<Event>,
}

impl DecodedChunk {
    /// Decodes a codec-encoded event run (a framed chunk's payload, a wire
    /// chunk) and fails on the first undecodable event.
    pub fn decode(data: &[u8]) -> Result<DecodedChunk, DecodeError> {
        let mut chunk = DecodedChunk::default();
        chunk.decode_from(data)?;
        Ok(chunk)
    }

    /// The decode loop: appends the events of `data` and stops at the
    /// first undecodable one, whose error it returns, keeping the events
    /// before it. `Read`/`Write` are decoded inline; every other tag goes
    /// through [`decode_control`].
    ///
    /// The op buffer is presized for 4-byte events from the data's length,
    /// never from a declared count. No event is shorter than 2 bytes (a
    /// tag and a one-byte varint), so it grows at most once, and recorded
    /// traces (about 5 B/event) do not fill it.
    fn decode_from(&mut self, data: &[u8]) -> Result<(), DecodeError> {
        // The position and the op buffer stay local to the loop, so they
        // live in registers: only the out-of-line calls see a cursor.
        let mut ops = std::mem::take(&mut self.ops);
        ops.reserve(data.len() / 4);
        let mut pos = 0;
        let end = loop {
            let Some(&tag) = data.get(pos) else {
                break Ok(());
            };
            pos += 1;
            if tag == TAG_READ || tag == TAG_WRITE {
                let task = match get_id(data, &mut pos, "task") {
                    Ok(task) => TaskId(task),
                    Err(e) => break Err(e),
                };
                let loc = match get_id(data, &mut pos, "loc") {
                    Ok(loc) => LocId(loc),
                    Err(e) => break Err(e),
                };
                ops.push(Op::access(task, loc, tag == TAG_WRITE));
            } else {
                let mut buf = Cursor { data, pos };
                match decode_control(tag, &mut buf) {
                    Ok(e) => self.controls.push(e),
                    Err(e) => break Err(e),
                }
                pos = buf.pos;
                ops.push(Op::control());
            }
        };
        self.ops = ops;
        end
    }

    /// The compact form of an in-memory event list.
    pub fn from_events(events: &[Event]) -> DecodedChunk {
        let mut chunk = DecodedChunk {
            ops: Vec::with_capacity(events.len()),
            controls: Vec::new(),
        };
        for e in events {
            let op = match *e {
                Event::Read(task, loc) => Op::access(task, loc, false),
                Event::Write(task, loc) => Op::access(task, loc, true),
                ref control => {
                    chunk.controls.push(control.clone());
                    Op::control()
                }
            };
            chunk.ops.push(op);
        }
        chunk
    }

    /// Events in the chunk.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True for a chunk of no events.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Every event, in order, as an op.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// The control events, in order: one per control marker in
    /// [`DecodedChunk::ops`].
    pub fn controls(&self) -> &[Event] {
        &self.controls
    }
}

impl IntoIterator for DecodedChunk {
    type Item = Event;
    type IntoIter = IntoEvents;

    fn into_iter(self) -> IntoEvents {
        IntoEvents {
            ops: self.ops.into_iter(),
            controls: self.controls.into_iter(),
        }
    }
}

/// The events of a [`DecodedChunk`], expanded back in order.
pub struct IntoEvents {
    ops: std::vec::IntoIter<Op>,
    controls: std::vec::IntoIter<Event>,
}

impl Iterator for IntoEvents {
    type Item = Event;

    fn next(&mut self) -> Option<Event> {
        let op = self.ops.next()?;
        Some(if op.is_control() {
            self.controls.next().expect("one control event per marker")
        } else if op.is_write() {
            Event::Write(op.task, op.loc)
        } else {
            Event::Read(op.task, op.loc)
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ops.size_hint()
    }
}

/// Decodes the fields of the control event whose `tag` was just read:
/// every tag but `Read`/`Write`, which the decode loop handles itself.
/// Kept out of line, so the loop stays small around the access path.
#[inline(never)]
fn decode_control(tag: u8, buf: &mut Cursor<'_>) -> Result<Event, DecodeError> {
    Ok(match tag {
        TAG_TASK_CREATE => Event::TaskCreate {
            parent: TaskId(id32(get_varint(buf)?, "parent")?),
            child: TaskId(id32(get_varint(buf)?, "child")?),
            kind: kind_from(get_varint(buf)?)?,
            ief: FinishId(id32(get_varint(buf)?, "ief")?),
        },
        TAG_TASK_END => Event::TaskEnd(TaskId(id32(get_varint(buf)?, "task")?)),
        TAG_FINISH_START => Event::FinishStart(
            TaskId(id32(get_varint(buf)?, "task")?),
            FinishId(id32(get_varint(buf)?, "finish")?),
        ),
        TAG_FINISH_END => {
            let t = TaskId(id32(get_varint(buf)?, "task")?);
            let f = FinishId(id32(get_varint(buf)?, "finish")?);
            let n = get_varint(buf)?;
            let mut joined = Vec::with_capacity(n.min(1 << 20) as usize);
            for _ in 0..n {
                joined.push(TaskId(id32(get_varint(buf)?, "joined")?));
            }
            Event::FinishEnd(t, f, joined)
        }
        TAG_GET => Event::Get {
            waiter: TaskId(id32(get_varint(buf)?, "waiter")?),
            awaited: TaskId(id32(get_varint(buf)?, "awaited")?),
        },
        TAG_ALLOC => {
            let base = LocId(id32(get_varint(buf)?, "base")?);
            let n = id32(get_varint(buf)?, "len")?;
            let name_len = get_varint(buf)? as usize;
            let name_bytes = buf.take(name_len)?;
            let name = std::str::from_utf8(name_bytes)
                .map_err(|_| DecodeError::Malformed("alloc name utf8"))?
                .to_string();
            Event::Alloc(base, n, name)
        }
        _ => return Err(DecodeError::Malformed("unknown tag")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::EventLog;
    use crate::{run_serial, TaskCtx};
    use futrace_util::propcheck::{self, strategies, Config};

    #[test]
    fn roundtrip_real_program() {
        let mut log = EventLog::new();
        run_serial(&mut log, |ctx| {
            let a = ctx.shared_array(4, 0u64, "grid");
            ctx.finish(|ctx| {
                let a2 = a.clone();
                ctx.async_task(move |ctx| a2.write(ctx, 0, 1));
            });
            let f = ctx.future(|_| 7u8);
            ctx.get(&f);
            let _ = a.read(ctx, 0);
        });
        let bytes = encode(&log.events);
        let decoded = decode(&bytes).unwrap();
        assert_eq!(decoded, log.events);
        // The format is compact: a handful of bytes per event.
        assert!(bytes.len() <= log.events.len() * 12 + 16);
    }

    #[test]
    fn truncated_input_errors() {
        let mut log = EventLog::new();
        run_serial(&mut log, |ctx| {
            let v = ctx.shared_var(0u64, "v");
            v.write(ctx, 1);
        });
        let bytes = encode(&log.events);
        for cut in 1..bytes.len() {
            // Every strict prefix either decodes fewer events or errors —
            // never panics.
            let _ = decode(&bytes[..cut]);
        }
        assert_eq!(decode(&[99]), Err(DecodeError::Malformed("unknown tag")));
        assert!(decode(&[TAG_READ]).is_err());
    }

    #[test]
    fn varint_boundaries() {
        let ids = [0u64, 1, 127, 128, 16383, 16384, (1 << 21) - 1, 1 << 21];
        for v in ids.into_iter().chain([u32::MAX as u64, u64::MAX]) {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut cursor = Cursor { data: &buf, pos: 0 };
            assert_eq!(get_varint(&mut cursor).unwrap(), v);
            assert_eq!(cursor.pos, buf.len());
            // The access id reader agrees, inlined cases and tail alike.
            let mut pos = 0;
            assert_eq!(get_id(&buf, &mut pos, "id"), id32(v, "id"));
            if v <= u64::from(u32::MAX) {
                assert_eq!(pos, buf.len());
            }
        }
        // An unterminated continuation chain longer than 10 bytes is
        // malformed, not an infinite loop.
        assert_eq!(
            get_varint(&mut Cursor {
                data: &[0x80; 11],
                pos: 0
            }),
            Err(DecodeError::Malformed("varint too long"))
        );
    }

    #[test]
    fn decode_loop_keeps_the_events_before_the_first_error() {
        let events = vec![
            Event::Write(TaskId(1), LocId(0)),
            Event::Read(TaskId(2), LocId(1)),
            Event::TaskEnd(TaskId(2)),
        ];
        let mut bytes = encode(&events);
        let chunk = DecodedChunk::decode(&bytes).unwrap();
        assert_eq!((chunk.len(), chunk.controls().len()), (3, 1));
        assert_eq!(chunk.clone().into_iter().collect::<Vec<_>>(), events);
        assert_eq!(chunk, DecodedChunk::from_events(&events));

        // A bad tag mid-stream: the loop stops there with one error, and
        // keeps the events before it; a whole decode fails.
        bytes.push(99);
        bytes.push(0);
        let mut chunk = DecodedChunk::default();
        assert_eq!(
            chunk.decode_from(&bytes),
            Err(DecodeError::Malformed("unknown tag"))
        );
        assert_eq!(chunk.into_iter().collect::<Vec<_>>(), events);
        assert_eq!(
            DecodedChunk::decode(&bytes),
            Err(DecodeError::Malformed("unknown tag"))
        );
    }

    /// The decoder before the inlined varint cases and the decode loop,
    /// kept as the reference the equivalence tests below compare against.
    mod reference {
        use super::super::*;

        fn get_varint(buf: &mut Cursor<'_>) -> Result<u64, DecodeError> {
            let mut v = 0u64;
            let mut shift = 0u32;
            loop {
                let byte = buf.get_u8()?;
                if shift >= 64 {
                    return Err(DecodeError::Malformed("varint too long"));
                }
                v |= u64::from(byte & 0x7f) << shift;
                if byte & 0x80 == 0 {
                    return Ok(v);
                }
                shift += 7;
            }
        }

        fn decode_event(buf: &mut Cursor<'_>) -> Result<Event, DecodeError> {
            let tag = buf.get_u8()?;
            let e = match tag {
                TAG_TASK_CREATE => Event::TaskCreate {
                    parent: TaskId(id32(get_varint(buf)?, "parent")?),
                    child: TaskId(id32(get_varint(buf)?, "child")?),
                    kind: kind_from(get_varint(buf)?)?,
                    ief: FinishId(id32(get_varint(buf)?, "ief")?),
                },
                TAG_TASK_END => Event::TaskEnd(TaskId(id32(get_varint(buf)?, "task")?)),
                TAG_FINISH_START => Event::FinishStart(
                    TaskId(id32(get_varint(buf)?, "task")?),
                    FinishId(id32(get_varint(buf)?, "finish")?),
                ),
                TAG_FINISH_END => {
                    let t = TaskId(id32(get_varint(buf)?, "task")?);
                    let f = FinishId(id32(get_varint(buf)?, "finish")?);
                    let n = get_varint(buf)?;
                    let mut joined = Vec::with_capacity(n.min(1 << 20) as usize);
                    for _ in 0..n {
                        joined.push(TaskId(id32(get_varint(buf)?, "joined")?));
                    }
                    Event::FinishEnd(t, f, joined)
                }
                TAG_GET => Event::Get {
                    waiter: TaskId(id32(get_varint(buf)?, "waiter")?),
                    awaited: TaskId(id32(get_varint(buf)?, "awaited")?),
                },
                TAG_READ => Event::Read(
                    TaskId(id32(get_varint(buf)?, "task")?),
                    LocId(id32(get_varint(buf)?, "loc")?),
                ),
                TAG_WRITE => Event::Write(
                    TaskId(id32(get_varint(buf)?, "task")?),
                    LocId(id32(get_varint(buf)?, "loc")?),
                ),
                TAG_ALLOC => {
                    let base = LocId(id32(get_varint(buf)?, "base")?);
                    let n = id32(get_varint(buf)?, "len")?;
                    let name_len = get_varint(buf)? as usize;
                    let name_bytes = buf.take(name_len)?;
                    let name = std::str::from_utf8(name_bytes)
                        .map_err(|_| DecodeError::Malformed("alloc name utf8"))?
                        .to_string();
                    Event::Alloc(base, n, name)
                }
                _ => return Err(DecodeError::Malformed("unknown tag")),
            };
            Ok(e)
        }

        /// The reference's event stream: every event up to and including
        /// the first error.
        pub fn events(data: &[u8]) -> Vec<Result<Event, DecodeError>> {
            let mut buf = Cursor { data, pos: 0 };
            let mut out = Vec::new();
            while buf.pos < data.len() {
                let item = decode_event(&mut buf);
                let failed = item.is_err();
                out.push(item);
                if failed {
                    break;
                }
            }
            out
        }
    }

    /// The decode loop agrees with the reference on `data`: expanded, it
    /// gives the reference's events up to its first error, and then that
    /// error. The whole-run decoders give those events or that error.
    fn assert_matches_reference(data: &[u8]) {
        let want = reference::events(data);
        let mut chunk = DecodedChunk::default();
        let end = chunk.decode_from(data);
        let mut got: Vec<_> = chunk.into_iter().map(Ok).collect();
        got.extend(end.err().map(Err));
        assert_eq!(got, want, "decode loop on {data:02x?}");
        let want_vec: Result<Vec<Event>, DecodeError> = want.into_iter().collect();
        assert_eq!(decode(data), want_vec, "decode on {data:02x?}");
        let whole = DecodedChunk::decode(data).map(|c| c.into_iter().collect());
        assert_eq!(whole, want_vec, "DecodedChunk::decode on {data:02x?}");
    }

    /// Byte soup shaped like a trace: tag bytes (valid and not), one-byte
    /// varints, continuation bytes and raw bytes.
    #[test]
    fn decoder_matches_reference_on_byte_soup() {
        let strat = strategies::vec_of(
            strategies::tuple2(strategies::u8_range(0..4), strategies::u8_range(0..255)),
            0,
            48,
        );
        propcheck::check(&Config::with_cases(2048), &strat, |soup| {
            let data: Vec<u8> = soup
                .into_iter()
                .map(|(kind, b)| match kind {
                    0 => b % 10,
                    1 => b & 0x7f,
                    2 => b | 0x80,
                    _ => b,
                })
                .collect();
            assert_matches_reference(&data);
        });
    }

    #[test]
    fn decoder_matches_reference_on_every_prefix_of_a_recorded_trace() {
        let mut log = EventLog::new();
        run_serial(&mut log, |ctx| {
            // 300 cells: loc ids past 127 take two varint bytes, and the
            // last cell of the second array (past 16383) three.
            let a = ctx.shared_array(300, 0u64, "grid");
            let wide = ctx.shared_array(16400, 0u8, "wide");
            wide.write(ctx, 16399, 1);
            let _ = wide.read(ctx, 100);
            ctx.finish(|ctx| {
                for i in (0..300usize).step_by(60) {
                    let aw = a.clone();
                    ctx.async_task(move |ctx| aw.write(ctx, i, 1));
                }
            });
            let a2 = a.clone();
            let f = ctx.future(move |ctx| a2.read(ctx, 299));
            ctx.get(&f);
            let _ = a.read(ctx, 150);
        });
        let bytes = encode(&log.events);
        assert_eq!(decode(&bytes).unwrap(), log.events);
        for cut in 0..=bytes.len() {
            assert_matches_reference(&bytes[..cut]);
        }
    }

    #[test]
    fn over_long_varint_in_every_field_matches_reference() {
        // Each tag with one-byte values for its varint fields (FinishEnd
        // joins one task; Alloc's name is one byte, after its fields).
        let events: [(u8, &[u8], &[u8]); 8] = [
            (TAG_TASK_CREATE, &[1, 2, 1, 0], &[]),
            (TAG_TASK_END, &[1], &[]),
            (TAG_FINISH_START, &[1, 0], &[]),
            (TAG_FINISH_END, &[1, 0, 1, 2], &[]),
            (TAG_GET, &[1, 2], &[]),
            (TAG_READ, &[1, 5], &[]),
            (TAG_WRITE, &[1, 5], &[]),
            (TAG_ALLOC, &[0, 3, 1], b"a"),
        ];
        let over_long = [&[0x80u8; 10][..], &[0x01]].concat();
        // Ten bytes is the longest accepted varint; this one overflows
        // every u32 field.
        let max_len = [&[0xffu8; 9][..], &[0x01]].concat();
        // The access ids' inlined cases, whole and cut one byte short; in
        // an access's last field they end exactly on the data's last byte.
        let two_byte = [0x85u8, 0x01];
        let three_byte = [0x85u8, 0x81, 0x01];
        let inlined = [&two_byte[..], &three_byte, &two_byte[..1], &three_byte[..2]];
        for (tag, fields, tail) in events {
            for i in 0..fields.len() {
                for field in [&over_long[..], &max_len[..]].into_iter().chain(inlined) {
                    let mut data = vec![tag];
                    for (j, &v) in fields.iter().enumerate() {
                        if i == j {
                            data.extend_from_slice(field);
                        } else {
                            data.push(v);
                        }
                    }
                    data.extend_from_slice(tail);
                    assert_matches_reference(&data);
                }
                let mut data = vec![tag];
                data.extend_from_slice(&fields[..i]);
                data.extend_from_slice(&over_long);
                assert_eq!(
                    decode(&data),
                    Err(DecodeError::Malformed("varint too long")),
                    "tag {tag} field {i}"
                );
            }
        }
    }

    /// Arbitrary event streams round-trip losslessly. The generated streams
    /// are syntactically arbitrary (not necessarily well-formed programs);
    /// the codec must not care about well-formedness.
    #[test]
    fn roundtrip_arbitrary() {
        let strat = strategies::vec_of(
            strategies::tuple4(
                strategies::u8_range(0..8),
                strategies::u32_range(0..1000),
                strategies::u32_range(0..1000),
                strategies::u32_range(0..100),
            ),
            0,
            200,
        );
        propcheck::check(&Config::default(), &strat, |seed_events| {
            let events: Vec<Event> = seed_events
                .into_iter()
                .map(|(k, a, b, c)| match k {
                    0 => Event::TaskCreate {
                        parent: TaskId(a),
                        child: TaskId(b),
                        kind: TaskKind::Future,
                        ief: FinishId(c),
                    },
                    1 => Event::TaskEnd(TaskId(a)),
                    2 => Event::FinishStart(TaskId(a), FinishId(c)),
                    3 => Event::FinishEnd(TaskId(a), FinishId(c), vec![TaskId(b), TaskId(b + 1)]),
                    4 => Event::Get {
                        waiter: TaskId(a),
                        awaited: TaskId(b),
                    },
                    5 => Event::Read(TaskId(a), LocId(b)),
                    6 => Event::Write(TaskId(a), LocId(b)),
                    _ => Event::Alloc(LocId(a), c, format!("alloc{b}")),
                })
                .collect();
            let bytes = encode(&events);
            assert_eq!(decode(&bytes).unwrap(), events);
        });
    }
}
