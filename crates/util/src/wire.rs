//! Tiny length-delimited wire codec for checkpoint state blobs.
//!
//! The fault-tolerant pipeline snapshots analysis state at chunk
//! boundaries (DESIGN S38). Those snapshots must round-trip exactly,
//! reject corruption with a structured error instead of a panic, and use
//! no external crates — the same zero-dependency discipline as the v1
//! trace codec. This module is the shared primitive layer: LEB128-style
//! varints, fixed-width floats (bit-exact, so resumed statistics match a
//! fresh run byte-for-byte), a bounds-checked [`Cursor`] reader, and the
//! [`SliceWriter`] the state encoders write their many small fields with.
//!
//! The trace codec in `futrace-runtime` keeps its own private varint
//! helpers; this module exists so *state* serializers in `core`,
//! `baselines`, and `offline` don't each reinvent them.

use std::fmt;

pub mod proto;

/// Decoding error: the blob ended early or a field was malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the field completed. Payload is a label for
    /// the field being read.
    Truncated(&'static str),
    /// A field decoded to a structurally impossible value. Payload is a
    /// label describing the violated expectation.
    Malformed(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated(what) => write!(f, "truncated while reading {what}"),
            WireError::Malformed(what) => write!(f, "malformed field: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Appends `v` as an LEB128 varint (7 bits per byte, MSB = continuation).
/// Inlined across crates: the workspace builds without LTO, and the trace
/// recorder's encoder calls it once per event field.
#[inline]
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Appends a `u32` as little-endian fixed width (used for CRCs, where a
/// fixed layout keeps corruption checks simple).
pub fn put_u32_le(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` by its IEEE-754 bit pattern (exact round-trip).
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Appends a length-prefixed byte string.
pub fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(buf, bytes.len() as u64);
    buf.extend_from_slice(bytes);
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// Longest varint [`put_varint`] writes (a `u64` needs ten 7-bit groups).
pub const MAX_VARINT_LEN: usize = 10;

/// Bytes [`SliceWriter`] grows its buffer by, at least, at a time.
const GROW_STEP: usize = 64 * 1024;

/// Appends varints to a `Vec<u8>` by index, for encoders that write many
/// small fields: [`SliceWriter::reserve`] makes room for a worst-case
/// record with one capacity check, and the writes after it store bytes
/// into that room without `Vec::push`'s per-byte capacity check. The
/// bytes are exactly those of [`put_varint`] and [`put_bytes`].
///
/// The buffer is grown with zeroes at least `GROW_STEP` bytes at a
/// time and truncated to the bytes written when the writer is dropped.
/// A write past the reserved room panics on the slice bound; it never
/// writes out of bounds.
pub struct SliceWriter<'a> {
    out: &'a mut Vec<u8>,
    pos: usize,
}

impl<'a> SliceWriter<'a> {
    /// Writer appending at the end of `out`.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        let pos = out.len();
        SliceWriter { out, pos }
    }

    /// Makes room for at least `n` more bytes.
    #[inline]
    pub fn reserve(&mut self, n: usize) {
        if self.out.len() - self.pos < n {
            self.grow(n);
        }
    }

    #[cold]
    fn grow(&mut self, n: usize) {
        self.out.resize(self.pos + n.max(GROW_STEP), 0);
    }

    /// Writes `v` as a varint into reserved room. Most state fields are
    /// flags, counts and small ids, so one byte is tried first.
    #[inline]
    pub fn varint(&mut self, mut v: u64) {
        let buf = &mut self.out[self.pos..];
        if v < 0x80 {
            buf[0] = v as u8;
            self.pos += 1;
            return;
        }
        let mut i = 0;
        while v >= 0x80 {
            buf[i] = v as u8 | 0x80;
            v >>= 7;
            i += 1;
        }
        buf[i] = v as u8;
        self.pos += i + 1;
    }

    /// Writes a `u64` varint that reserves its own room.
    #[inline]
    pub fn put_varint(&mut self, v: u64) {
        self.reserve(MAX_VARINT_LEN);
        self.varint(v);
    }

    /// Writes a length-prefixed byte string that reserves its own room.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.reserve(MAX_VARINT_LEN + bytes.len());
        self.varint(bytes.len() as u64);
        self.out[self.pos..self.pos + bytes.len()].copy_from_slice(bytes);
        self.pos += bytes.len();
    }
}

impl Drop for SliceWriter<'_> {
    fn drop(&mut self) {
        self.out.truncate(self.pos);
    }
}

/// Bounds-checked reader over a byte slice; every accessor returns a
/// [`WireError`] instead of panicking on truncated or malformed input.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Reader positioned at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Current byte offset from the start of the blob.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Reads one varint; `what` labels the field in errors.
    pub fn varint(&mut self, what: &'static str) -> Result<u64, WireError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = *self
                .data
                .get(self.pos)
                .ok_or(WireError::Truncated(what))?;
            self.pos += 1;
            if shift == 63 && byte > 1 {
                return Err(WireError::Malformed(what));
            }
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(WireError::Malformed(what));
            }
        }
    }

    /// Reads a fixed-width little-endian `u32`.
    pub fn u32_le(&mut self, what: &'static str) -> Result<u32, WireError> {
        let bytes = self.take(4, what)?;
        Ok(u32::from_le_bytes(bytes.try_into().unwrap()))
    }

    /// Reads an `f64` stored as its bit pattern.
    pub fn f64(&mut self, what: &'static str) -> Result<f64, WireError> {
        let bytes = self.take(8, what)?;
        Ok(f64::from_bits(u64::from_le_bytes(bytes.try_into().unwrap())))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self, what: &'static str) -> Result<&'a [u8], WireError> {
        let len = self.varint(what)?;
        if len > self.remaining() as u64 {
            return Err(WireError::Truncated(what));
        }
        self.take(len as usize, what)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &'static str) -> Result<&'a str, WireError> {
        let bytes = self.bytes(what)?;
        std::str::from_utf8(bytes).map_err(|_| WireError::Malformed(what))
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated(what));
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SliceWriter<'_> {
        /// Writes an `f64` by its bit pattern, reserving its own room.
        fn put_f64(&mut self, v: f64) {
            self.reserve(8);
            self.out[self.pos..self.pos + 8].copy_from_slice(&v.to_bits().to_le_bytes());
            self.pos += 8;
        }
    }

    #[test]
    fn varint_roundtrip_edges() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut c = Cursor::new(&buf);
            assert_eq!(c.varint("v").unwrap(), v);
            assert!(c.is_empty());
        }
    }

    #[test]
    fn truncated_varint_is_error_not_panic() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 1 << 40);
        for cut in 0..buf.len() {
            let mut c = Cursor::new(&buf[..cut]);
            assert_eq!(c.varint("v"), Err(WireError::Truncated("v")));
        }
    }

    #[test]
    fn overlong_varint_is_malformed() {
        // Eleven continuation bytes encode more than 64 bits.
        let buf = [0xFFu8; 11];
        let mut c = Cursor::new(&buf);
        assert_eq!(c.varint("v"), Err(WireError::Malformed("v")));
    }

    #[test]
    fn mixed_fields_roundtrip() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 42);
        put_u32_le(&mut buf, 0xDEAD_BEEF);
        put_f64(&mut buf, -0.0);
        put_f64(&mut buf, f64::INFINITY);
        put_str(&mut buf, "loc[3]");
        put_bytes(&mut buf, &[1, 2, 3]);

        let mut c = Cursor::new(&buf);
        assert_eq!(c.varint("a").unwrap(), 42);
        assert_eq!(c.u32_le("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(c.f64("c").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(c.f64("d").unwrap(), f64::INFINITY);
        assert_eq!(c.str("e").unwrap(), "loc[3]");
        assert_eq!(c.bytes("f").unwrap(), &[1, 2, 3]);
        assert!(c.is_empty());
    }

    #[test]
    fn bytes_length_beyond_input_is_truncated() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 1000);
        buf.extend_from_slice(&[0; 8]);
        let mut c = Cursor::new(&buf);
        assert_eq!(c.bytes("blob"), Err(WireError::Truncated("blob")));
    }

    const EDGES: [u64; 11] = [
        0,
        1,
        127,
        128,
        (1 << 14) - 1,
        1 << 14,
        300,
        u32::MAX as u64,
        1 << 63,
        u64::MAX - 1,
        u64::MAX,
    ];

    #[test]
    fn slice_writer_bytes_equal_the_push_encoders() {
        let mut want = vec![0xAB];
        let mut got = vec![0xAB];
        {
            let mut w = SliceWriter::new(&mut got);
            for v in EDGES {
                put_varint(&mut want, v);
                w.reserve(MAX_VARINT_LEN);
                w.varint(v);
                put_varint(&mut want, v);
                w.put_varint(v);
            }
            put_bytes(&mut want, b"loc[3]");
            w.put_bytes(b"loc[3]");
            put_f64(&mut want, -0.0);
            w.put_f64(-0.0);
        }
        assert_eq!(
            got, want,
            "the writer truncates its spare room when dropped"
        );
        for v in EDGES {
            let mut one = Vec::new();
            put_varint(&mut one, v);
            assert!(one.len() <= MAX_VARINT_LEN, "{v}");
        }
    }

    #[test]
    fn slice_writer_grows_across_steps_and_keeps_earlier_bytes() {
        // Three and a half grow steps of two-byte varints, each reserving
        // only its own worst case.
        let mut want = Vec::new();
        let mut got = Vec::new();
        {
            let mut w = SliceWriter::new(&mut got);
            for i in 0..(7 * GROW_STEP / 4) as u64 {
                put_varint(&mut want, 128 + i % 1000);
                w.reserve(MAX_VARINT_LEN);
                w.varint(128 + i % 1000);
            }
        }
        assert_eq!(got.len(), want.len());
        assert!(got == want);
        let mut c = Cursor::new(&got);
        assert_eq!(c.varint("first").unwrap(), 128);
    }

    #[test]
    fn invalid_utf8_is_malformed() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, &[0xFF, 0xFE]);
        let mut c = Cursor::new(&buf);
        assert_eq!(c.str("name"), Err(WireError::Malformed("name")));
    }
}
