//! Compact binary serialization of instrumentation event streams.
//!
//! [`encode`]/[`decode`] turn an [`Event`] stream into a varint-packed
//! byte buffer and back, enabling *offline* race detection: record a
//! production run cheaply (an [`crate::monitor::EventLog`] or a streaming writer), ship
//! the trace, and replay it into the detector elsewhere
//! ([`crate::monitor::replay`]). The detector is a pure function of the
//! serial depth-first event stream, so the offline verdict is identical
//! to the online one (asserted by `tests/replay.rs`).
//!
//! Format: one tag byte per event followed by LEB128-varint fields; `Alloc`
//! carries a length-prefixed UTF-8 name. At paper scale (10⁹ accesses) a
//! read/write event costs 2–6 bytes.

use crate::monitor::{Event, TaskKind};
use futrace_util::ids::{FinishId, LocId, StepId, TaskId};
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
    fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    fn has_remaining(&self) -> bool {
        self.pos < self.data.len()
    }

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

/// Deserializes an event stream produced by [`encode`].
///
/// The `Vec` is presized for 4-byte events. No event is shorter than 2
/// bytes (a tag and a one-byte varint), so it reallocates at most once,
/// and recorded traces (about 5 B/event) do not fill it.
pub fn decode(data: &[u8]) -> Result<Vec<Event>, DecodeError> {
    let mut events = Vec::with_capacity(data.len() / 4);
    for e in decode_iter(data) {
        events.push(e?);
    }
    Ok(events)
}

/// Lazily decodes an event stream: yields one event at a time without
/// materializing a `Vec`, so offline analysis can stream arbitrarily large
/// traces. After the first `Err` the iterator fuses (yields `None`), since
/// the cursor position is no longer trustworthy.
fn decode_iter(data: &[u8]) -> DecodeIter<'_> {
    DecodeIter {
        buf: Cursor::new(data),
        failed: false,
    }
}

/// Iterator state for [`decode_iter`].
struct DecodeIter<'a> {
    buf: Cursor<'a>,
    failed: bool,
}

impl Iterator for DecodeIter<'_> {
    type Item = Result<Event, DecodeError>;

    // Inlined into `decode`, which every trace reader calls, with the
    // event decoder inlined into it.
    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || !self.buf.has_remaining() {
            return None;
        }
        let item = decode_event(&mut self.buf);
        self.failed = item.is_err();
        Some(item)
    }
}

/// Decodes the single event at the cursor position.
#[inline(always)]
fn decode_event(buf: &mut Cursor<'_>) -> Result<Event, DecodeError> {
    {
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
        let _ = StepId(0); // (steps are derived, never serialized)
        Ok(e)
    }
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
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut cursor = Cursor::new(&buf);
            assert_eq!(get_varint(&mut cursor).unwrap(), v);
            assert!(!cursor.has_remaining());
        }
        // An unterminated continuation chain longer than 10 bytes is
        // malformed, not an infinite loop.
        assert_eq!(
            get_varint(&mut Cursor::new(&[0x80; 11])),
            Err(DecodeError::Malformed("varint too long"))
        );
    }

    #[test]
    fn decode_iter_is_lazy_and_fuses_on_error() {
        let events = vec![
            Event::Write(TaskId(1), LocId(0)),
            Event::Read(TaskId(2), LocId(1)),
            Event::TaskEnd(TaskId(2)),
        ];
        let mut bytes = encode(&events);
        // Streaming decode yields the same events one at a time.
        let streamed: Vec<Event> = decode_iter(&bytes).map(|e| e.unwrap()).collect();
        assert_eq!(streamed, events);

        // A bad tag mid-stream: events before it are still yielded, then one
        // error, then the iterator fuses.
        bytes.push(99);
        bytes.push(0);
        let mut it = decode_iter(&bytes);
        for want in &events {
            assert_eq!(it.next().unwrap().unwrap(), *want);
        }
        assert_eq!(
            it.next(),
            Some(Err(DecodeError::Malformed("unknown tag")))
        );
        assert_eq!(it.next(), None, "iterator fuses after an error");
    }

    #[test]
    fn decode_matches_decode_iter() {
        let events = vec![
            Event::Alloc(LocId(0), 3, "m".into()),
            Event::Write(TaskId(0), LocId(2)),
        ];
        let bytes = encode(&events);
        assert_eq!(
            decode(&bytes).unwrap(),
            decode_iter(&bytes).collect::<Result<Vec<_>, _>>().unwrap()
        );
    }

    /// The decoder before the one-byte varint fast path, kept as the
    /// reference the equivalence tests below compare against.
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
            let mut buf = Cursor::new(data);
            let mut out = Vec::new();
            while buf.has_remaining() {
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

    /// Both decoding entry points agree with the reference on `data`.
    fn assert_matches_reference(data: &[u8]) {
        let want = reference::events(data);
        let got: Vec<_> = decode_iter(data).collect();
        assert_eq!(got, want, "decode_iter on {data:02x?}");
        let want_vec: Result<Vec<Event>, DecodeError> = want.into_iter().collect();
        assert_eq!(decode(data), want_vec, "decode on {data:02x?}");
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
            // 300 cells: loc ids past 127 take two varint bytes.
            let a = ctx.shared_array(300, 0u64, "grid");
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
        let two_byte = [0x85u8, 0x01];
        for (tag, fields, tail) in events {
            for i in 0..fields.len() {
                for field in [&over_long[..], &max_len[..], &two_byte[..]] {
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
