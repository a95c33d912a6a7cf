//! The corpus resume manifest (`FMAN`): a CRC-framed append-only journal
//! of finished jobs, one file per corpus run directory.
//!
//! Shape (all multi-byte integers via `futrace_util::wire`):
//!
//! ```text
//! "FMAN"                                   magic
//! [len u32 LE][crc32 u32 LE][payload]      block 0: run config
//! [len u32 LE][crc32 u32 LE][payload]      block 1..: one JobRecord each
//! ```
//!
//! Every block is self-checking (CRC-32 over its payload), and each
//! [`ManifestWriter::append`] is one `write_all` + flush, so a corpus run
//! killed mid-write leaves at worst one torn trailing block. The loader
//! stops at the first damaged block and reports how many bytes it
//! ignored, and a resumed run cuts those bytes before its first append,
//! so the records it writes follow the last intact block — peal-style
//! resume semantics: whatever was durably recorded is skipped on the next
//! run, everything else re-executes.
//!
//! The config block pins the option set the records were produced under
//! (detector list, shards, lenient). Resuming with different
//! options would silently mix incomparable results, so a mismatch is a
//! hard [`ManifestError::ConfigMismatch`] — the CLI tells the user to
//! pass `--fresh`.

#![warn(missing_docs)]

use futrace_util::crc32::crc32;
use futrace_util::wire::{self, Cursor, WireError};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"FMAN";
// v2 added `trace_crc` to every record (content-hash invalidation).
// v4 holds analyze records only and drops the fields no reader used
// (the record kind, `races`, `skipped_chunks`, `cache_misses`,
// `disagreeing`, `retries`). v5 drops the config block's `supervised`
// byte: plain and supervised sharding restart a dead shard alike, so
// the flag changed no work. Old manifests fail with
// `ManifestError::Version` — v1 records carry no hash to validate
// against, and an older block decoded as v5 would misread its fields;
// `--fresh` is the upgrade path.
const VERSION: u64 = 5;

/// Name of the manifest file inside the corpus output directory.
pub(crate) const MANIFEST_FILE: &str = "corpus.fman";

/// The option set a manifest's records were produced under. Two runs
/// are resume-compatible iff these compare equal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunConfig {
    /// Detector names in run order.
    pub detectors: Vec<String>,
    /// Shard count for shardable detectors (0 = serial).
    pub shards: u64,
    /// Whether trace reads were lenient (skip damaged chunks).
    pub lenient: bool,
}

/// Terminal result of a recorded job.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum RecStatus {
    /// The job completed and its result fields are meaningful.
    Ok,
    /// The job failed (decode error, detector panic, unreadable file,
    /// or `timed out after Nms`). Resume reuses the failure without
    /// re-running the job; `--fresh` runs it again.
    Failed(String),
}

/// One durably-recorded analyze-job outcome — the unit of resume.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct JobRecord {
    /// Trace path relative to the corpus root, `/`-separated.
    pub trace: String,
    /// Detector name.
    pub detector: String,
    /// Byte length of the trace file when the job ran. A changed length
    /// invalidates the record (the trace was replaced or repaired).
    pub trace_len: u64,
    /// CRC-32 of the trace file contents when the job ran. Invalidates
    /// the record on any content change, including same-length edits
    /// that the `trace_len` guard alone would miss.
    pub trace_crc: u32,
    /// Ok or the failure message.
    pub status: RecStatus,
    /// Verdict: did this job report races?
    pub racy: bool,
    /// Events analyzed (0 for a valid-but-empty trace).
    pub events: u64,
    /// Detector hot-path cache hits (0 for uncached detectors).
    pub cache_hits: u64,
    /// Wall-clock milliseconds the job took. Nondeterministic — kept out
    /// of the deterministic JSON report, surfaced in markdown only.
    pub wall_ms: f64,
}

/// Any way loading a manifest can fail.
#[derive(Debug)]
pub enum ManifestError {
    /// Filesystem error.
    Io(io::Error),
    /// The file exists but does not start with the `FMAN` magic.
    NotManifest,
    /// Unknown format version.
    Version(u64),
    /// The config block is intact but differs from the current run's
    /// options; resuming would mix incomparable results.
    ConfigMismatch {
        /// Options recorded in the manifest.
        found: RunConfig,
    },
    /// The config block itself is damaged.
    Corrupt(&'static str),
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::Io(e) => write!(f, "manifest io error: {e}"),
            ManifestError::NotManifest => write!(f, "not a corpus manifest (bad magic)"),
            ManifestError::Version(v) => write!(
                f,
                "unsupported manifest version {v}; rerun with --fresh to discard it"
            ),
            ManifestError::ConfigMismatch { found } => write!(
                f,
                "manifest was written with different options \
                 (detectors={:?}, shards={}, lenient={}); \
                 rerun with --fresh to discard it",
                found.detectors, found.shards, found.lenient
            ),
            ManifestError::Corrupt(what) => write!(f, "corrupt manifest: {what}"),
        }
    }
}

impl std::error::Error for ManifestError {}

impl From<io::Error> for ManifestError {
    fn from(e: io::Error) -> Self {
        ManifestError::Io(e)
    }
}

/// A loaded manifest: the durable records plus how much torn tail (if
/// any) the loader skipped.
#[derive(Debug)]
pub(crate) struct Manifest {
    /// Every intact record, in append order.
    pub records: Vec<JobRecord>,
    /// Bytes of damaged/torn trailing data ignored (0 on a clean file).
    pub ignored_tail: u64,
}

fn encode_config(cfg: &RunConfig) -> Vec<u8> {
    let mut buf = Vec::new();
    wire::put_varint(&mut buf, VERSION);
    wire::put_varint(&mut buf, cfg.detectors.len() as u64);
    for d in &cfg.detectors {
        wire::put_str(&mut buf, d);
    }
    wire::put_varint(&mut buf, cfg.shards);
    buf.push(cfg.lenient as u8);
    buf
}

fn decode_config(payload: &[u8]) -> Result<RunConfig, ManifestError> {
    let mut c = Cursor::new(payload);
    let version = c.varint("version").map_err(wire_corrupt)?;
    if version != VERSION {
        return Err(ManifestError::Version(version));
    }
    let n = c.varint("detector count").map_err(wire_corrupt)?;
    let mut detectors = Vec::new();
    for _ in 0..n {
        detectors.push(c.str("detector").map_err(wire_corrupt)?.to_string());
    }
    let shards = c.varint("shards").map_err(wire_corrupt)?;
    let lenient = c.bytes_u8("lenient")? != 0;
    Ok(RunConfig {
        detectors,
        shards,
        lenient,
    })
}

fn wire_corrupt(e: WireError) -> ManifestError {
    match e {
        WireError::Truncated(w) | WireError::Malformed(w) => ManifestError::Corrupt(w),
    }
}

trait CursorExt {
    fn bytes_u8(&mut self, what: &'static str) -> Result<u8, ManifestError>;
}

impl CursorExt for Cursor<'_> {
    fn bytes_u8(&mut self, what: &'static str) -> Result<u8, ManifestError> {
        let v = self.varint(what).map_err(wire_corrupt)?;
        u8::try_from(v).map_err(|_| ManifestError::Corrupt(what))
    }
}

fn encode_record(rec: &JobRecord) -> Vec<u8> {
    let mut buf = Vec::new();
    wire::put_str(&mut buf, &rec.trace);
    wire::put_str(&mut buf, &rec.detector);
    wire::put_varint(&mut buf, rec.trace_len);
    wire::put_u32_le(&mut buf, rec.trace_crc);
    match &rec.status {
        RecStatus::Ok => {
            buf.push(0);
            wire::put_str(&mut buf, "");
        }
        RecStatus::Failed(msg) => {
            buf.push(1);
            wire::put_str(&mut buf, msg);
        }
    }
    buf.push(rec.racy as u8);
    wire::put_varint(&mut buf, rec.events);
    wire::put_varint(&mut buf, rec.cache_hits);
    wire::put_f64(&mut buf, rec.wall_ms);
    buf
}

fn decode_record(payload: &[u8]) -> Result<JobRecord, WireError> {
    let mut c = Cursor::new(payload);
    let trace = c.str("trace")?.to_string();
    let detector = c.str("detector")?.to_string();
    let trace_len = c.varint("trace_len")?;
    let trace_crc = c.u32_le("trace_crc")?;
    let status = match c.varint("status")? {
        0 => {
            let _ = c.str("error")?;
            RecStatus::Ok
        }
        1 => RecStatus::Failed(c.str("error")?.to_string()),
        _ => return Err(WireError::Malformed("status")),
    };
    let racy = c.varint("racy")? != 0;
    let events = c.varint("events")?;
    let cache_hits = c.varint("cache_hits")?;
    let wall_ms = c.f64("wall_ms")?;
    Ok(JobRecord {
        trace,
        detector,
        trace_len,
        trace_crc,
        status,
        racy,
        events,
        cache_hits,
        wall_ms,
    })
}

fn frame_block(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    wire::put_u32_le(&mut out, payload.len() as u32);
    wire::put_u32_le(&mut out, crc32(payload));
    out.extend_from_slice(payload);
    out
}

/// Reads the next block; `None` means clean EOF or torn/damaged tail
/// (the distinction only matters for `ignored_tail` accounting).
fn next_block<'a>(data: &'a [u8], pos: &mut usize) -> Option<&'a [u8]> {
    let rest = &data[*pos..];
    if rest.len() < 8 {
        return None;
    }
    let len = u32::from_le_bytes(rest[0..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
    if rest.len() < 8 + len {
        return None;
    }
    let payload = &rest[8..8 + len];
    if crc32(payload) != crc {
        return None;
    }
    *pos += 8 + len;
    Some(payload)
}

/// Loads the manifest at `path`, validating it against `cfg`. Returns
/// `Ok(None)` when the file does not exist (nothing to resume).
pub(crate) fn load(path: &Path, cfg: &RunConfig) -> Result<Option<Manifest>, ManifestError> {
    let mut data = Vec::new();
    match File::open(path) {
        Ok(mut f) => f.read_to_end(&mut data)?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    if data.len() < MAGIC.len() || &data[..MAGIC.len()] != MAGIC {
        return Err(ManifestError::NotManifest);
    }
    let mut pos = MAGIC.len();
    let config_block = next_block(&data, &mut pos).ok_or(ManifestError::Corrupt("config block"))?;
    let found = decode_config(config_block)?;
    if found != *cfg {
        return Err(ManifestError::ConfigMismatch { found });
    }
    let mut records = Vec::new();
    while let Some(payload) = next_block(&data, &mut pos) {
        match decode_record(payload) {
            Ok(rec) => records.push(rec),
            // A CRC-valid but undecodable record means a writer bug, not
            // a torn write; stop here and ignore the rest.
            Err(_) => break,
        }
    }
    let ignored_tail = (data.len() - pos) as u64;
    Ok(Some(Manifest {
        records,
        ignored_tail,
    }))
}

/// Append handle for the manifest journal.
pub(crate) struct ManifestWriter {
    file: File,
}

impl ManifestWriter {
    /// Creates (truncating) a manifest with the given config block.
    pub(crate) fn create(path: &Path, cfg: &RunConfig) -> io::Result<ManifestWriter> {
        let mut file = File::create(path)?;
        file.write_all(MAGIC)?;
        file.write_all(&frame_block(&encode_config(cfg)))?;
        file.flush()?;
        Ok(ManifestWriter { file })
    }

    /// Opens an existing (already [`load`]-validated) manifest for
    /// append, first cutting the `ignored_tail` bytes [`load`] skipped:
    /// appended after a torn block, a record would be invisible to every
    /// later load.
    pub(crate) fn open_append(path: &Path, ignored_tail: u64) -> io::Result<ManifestWriter> {
        let file = OpenOptions::new().append(true).open(path)?;
        if ignored_tail > 0 {
            let len = file.metadata()?.len();
            file.set_len(len.saturating_sub(ignored_tail))?;
        }
        Ok(ManifestWriter { file })
    }

    /// Durably appends one record: a single `write_all` plus flush, so a
    /// kill leaves at worst one torn trailing block.
    pub(crate) fn append(&mut self, rec: &JobRecord) -> io::Result<()> {
        self.file.write_all(&frame_block(&encode_record(rec)))?;
        self.file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RunConfig {
        RunConfig {
            detectors: vec!["dtrg".into(), "vc".into()],
            shards: 0,
            lenient: true,
        }
    }

    fn sample(trace: &str, detector: &str) -> JobRecord {
        JobRecord {
            trace: trace.into(),
            detector: detector.into(),
            trace_len: 1234,
            trace_crc: 0xDEAD_BEEF,
            status: RecStatus::Ok,
            racy: true,
            events: 500,
            cache_hits: 42,
            wall_ms: 1.25,
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("futrace_fman_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn roundtrip_create_append_load() {
        let path = tmp("roundtrip.fman");
        let mut w = ManifestWriter::create(&path, &cfg()).unwrap();
        let a = sample("x/clean.ftrc", "dtrg");
        let b = sample("x/clean.ftrc", "vc");
        let mut c = sample("y/racy.ftrc", "vc");
        c.status = RecStatus::Failed("decode error".into());
        for r in [&a, &b, &c] {
            w.append(r).unwrap();
        }
        drop(w);
        let m = load(&path, &cfg()).unwrap().unwrap();
        assert_eq!(m.records, vec![a.clone(), b, c]);
        assert_eq!(m.ignored_tail, 0);

        // Append mode extends rather than truncates.
        let mut w = ManifestWriter::open_append(&path, m.ignored_tail).unwrap();
        let d = sample("z/more.ftrc", "dtrg");
        w.append(&d).unwrap();
        drop(w);
        let m = load(&path, &cfg()).unwrap().unwrap();
        assert_eq!(m.records.len(), 4);
        assert_eq!(m.records[3], d);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_none() {
        assert!(load(&tmp("never_written.fman"), &cfg()).unwrap().is_none());
    }

    #[test]
    fn torn_tail_is_ignored_not_fatal() {
        let path = tmp("torn.fman");
        let mut w = ManifestWriter::create(&path, &cfg()).unwrap();
        w.append(&sample("a.ftrc", "dtrg")).unwrap();
        drop(w);
        // Simulate a kill mid-append: write half a block.
        let mut raw = std::fs::read(&path).unwrap();
        raw.extend_from_slice(&[9, 0, 0, 0, 1, 2]);
        std::fs::write(&path, &raw).unwrap();
        let m = load(&path, &cfg()).unwrap().unwrap();
        assert_eq!(m.records.len(), 1);
        assert_eq!(m.ignored_tail, 6);

        // The next append cuts the torn bytes first, so it stays visible.
        let mut w = ManifestWriter::open_append(&path, m.ignored_tail).unwrap();
        w.append(&sample("b.ftrc", "dtrg")).unwrap();
        drop(w);
        let m = load(&path, &cfg()).unwrap().unwrap();
        assert_eq!(m.records.len(), 2);
        assert_eq!(m.ignored_tail, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_record_crc_stops_cleanly() {
        let path = tmp("crc.fman");
        let mut w = ManifestWriter::create(&path, &cfg()).unwrap();
        w.append(&sample("a.ftrc", "dtrg")).unwrap();
        w.append(&sample("b.ftrc", "dtrg")).unwrap();
        drop(w);
        let mut raw = std::fs::read(&path).unwrap();
        let n = raw.len();
        raw[n - 1] ^= 0xFF; // flip a byte inside the last record payload
        std::fs::write(&path, &raw).unwrap();
        let m = load(&path, &cfg()).unwrap().unwrap();
        assert_eq!(m.records.len(), 1, "damaged record dropped");
        assert!(m.ignored_tail > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn config_mismatch_is_a_hard_error() {
        let path = tmp("mismatch.fman");
        ManifestWriter::create(&path, &cfg()).unwrap();
        let other = RunConfig { shards: 4, ..cfg() };
        match load(&path, &other) {
            Err(ManifestError::ConfigMismatch { found }) => assert_eq!(found, cfg()),
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    /// Loads a manifest whose config block is `config` and returns the
    /// error it must fail with.
    fn load_config_block(name: &str, config: &[u8]) -> ManifestError {
        let path = tmp(name);
        let mut raw = MAGIC.to_vec();
        raw.extend_from_slice(&frame_block(config));
        std::fs::write(&path, raw).unwrap();
        let err = load(&path, &cfg()).unwrap_err();
        std::fs::remove_file(&path).ok();
        err
    }

    #[test]
    fn v3_manifest_is_rejected_with_the_fresh_hint() {
        let mut config = encode_config(&cfg());
        assert_eq!(config[0], VERSION as u8, "a one-byte version varint");
        config[0] = 3;
        let err = load_config_block("v3.fman", &config);
        assert!(matches!(err, ManifestError::Version(3)), "{err:?}");
        assert!(err.to_string().contains("rerun with --fresh"), "{err}");
    }

    #[test]
    fn v4_manifest_is_rejected_with_the_fresh_hint() {
        // A v4 config block: version, detectors, shards, then the
        // `supervised` byte v5 dropped before the `lenient` byte.
        let mut config = encode_config(&cfg());
        config[0] = 4;
        config.insert(config.len() - 1, 1);
        let err = load_config_block("v4.fman", &config);
        assert!(matches!(err, ManifestError::Version(4)), "{err:?}");
        assert!(err.to_string().contains("rerun with --fresh"), "{err}");
    }

    #[test]
    fn non_manifest_file_is_rejected() {
        let path = tmp("bogus.fman");
        std::fs::write(&path, b"definitely not a manifest").unwrap();
        assert!(matches!(
            load(&path, &cfg()),
            Err(ManifestError::NotManifest)
        ));
        std::fs::remove_file(&path).ok();
    }
}
