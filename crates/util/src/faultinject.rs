//! Seeded, deterministic fault injection for the analysis pipeline.
//!
//! The offline pipeline must survive partial failure: half-written
//! chunks, transient I/O errors, a panicking or stalled shard worker.
//! Rather than hand-building corrupt fixtures, every failure mode here is
//! *injectable* from a single `u64` seed: [`FaultPlan::from_seed`]
//! expands the seed (splitmix64 → xoshiro256++, the project RNG) into a
//! concrete scenario, so a failing run reproduces bit-for-bit from
//! `tracetool analyze --inject <seed>` or a propcheck counterexample
//! seed. The exact seed → plan mapping is part of the contract (locked by
//! a golden test) so CI smoke seeds keep meaning the same scenario.
//!
//! Three layers:
//!
//! * [`FaultyWriter`] / [`FaultyReader`] wrap any `io::Write`/`io::Read`
//!   and inject short ops, transient errors ([`TransientKind`]), hard
//!   errors from byte N, and silent truncation at byte N;
//! * [`WorkerFault`] trigger points that the supervised shard pipeline
//!   consults (panic at op K of shard S, stall at op K);
//! * [`Backoff`] — bounded retry with deterministic jitter, used by the
//!   framed `StreamWriter` and reader paths around transient faults.

use crate::rng::Rng;
use std::fmt;
use std::io::{self, ErrorKind, Read, Write};
use std::time::Duration;

/// Which `io::ErrorKind` a transient fault surfaces as.
///
/// The distinction matters because `write_all`/`read_to_end` transparently
/// retry `Interrupted` but propagate `WouldBlock`, so the two kinds
/// exercise *different* recovery layers: std's own loop vs the pipeline's
/// [`Backoff`]-driven retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransientKind {
    /// `ErrorKind::Interrupted` — std retries these internally.
    Interrupted,
    /// `ErrorKind::WouldBlock` — surfaces to the caller's retry loop.
    WouldBlock,
}

impl TransientKind {
    /// The corresponding `io::ErrorKind`.
    pub(crate) fn kind(self) -> ErrorKind {
        match self {
            TransientKind::Interrupted => ErrorKind::Interrupted,
            TransientKind::WouldBlock => ErrorKind::WouldBlock,
        }
    }
}

/// Fault schedule for one I/O direction (reads or writes).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IoFaults {
    /// Every Nth call transfers at most half the requested bytes.
    pub short_op_every: Option<u64>,
    /// Every Nth call fails once with [`IoFaults::transient_kind`].
    pub transient_every: Option<u64>,
    /// Kind surfaced by transient faults.
    pub transient_kind: Option<TransientKind>,
    /// From this byte offset on, every call fails permanently
    /// (`ErrorKind::Other`, "injected hard i/o fault").
    pub hard_error_at: Option<u64>,
    /// From this byte offset on, writes are silently discarded and reads
    /// report end-of-file — the classic half-written-file crash.
    pub truncate_at: Option<u64>,
}

impl IoFaults {
    /// True when no fault is scheduled.
    pub(crate) fn is_none(&self) -> bool {
        self.short_op_every.is_none()
            && self.transient_every.is_none()
            && self.hard_error_at.is_none()
            && self.truncate_at.is_none()
    }
}

/// A worker-level trigger point: fault the `shard`-th worker at its
/// `at_op`-th processed operation. Shard indices are taken modulo the
/// actual shard count so a plan applies to any pipeline width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerFault {
    /// Target shard (modulo the run's shard count).
    pub shard: usize,
    /// 1-based operation index within the shard at which to trigger.
    pub at_op: u64,
}

impl WorkerFault {
    /// Returns the trigger op for `shard` out of `n_shards`, if this
    /// fault lands on it.
    pub fn trigger_for(&self, shard: usize, n_shards: usize) -> Option<u64> {
        (n_shards > 0 && self.shard % n_shards == shard).then_some(self.at_op)
    }
}

/// A complete deterministic fault scenario expanded from a seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The seed this plan was expanded from (0 for hand-built plans).
    pub seed: u64,
    /// Faults applied to trace *writing* (recording).
    pub write: IoFaults,
    /// Faults applied to trace *reading* (analysis input).
    pub read: IoFaults,
    /// Panic the targeted worker at its Kth op.
    pub worker_panic: Option<WorkerFault>,
    /// Stall (sleep) the targeted worker at its Kth op, long enough to
    /// trip the supervisor's watchdog.
    pub worker_stall: Option<WorkerFault>,
}

impl FaultPlan {
    /// Expands `seed` into a concrete scenario. Deterministic: the same
    /// seed always yields the same plan (golden-tested), on any platform.
    ///
    /// Every plan carries a worker panic trigger (the supervised pipeline
    /// must always have a death to recover from); a stall is added with
    /// probability 1/4; each I/O direction independently draws one of
    /// {no fault, truncation, transient + short ops, hard error}.
    pub fn from_seed(seed: u64) -> FaultPlan {
        let mut r = Rng::seeded(seed);
        let worker_panic = Some(WorkerFault {
            shard: r.gen_range(0..8u64) as usize,
            at_op: r.gen_range(4..64u64),
        });
        let worker_stall = if r.gen_bool(0.25) {
            Some(WorkerFault {
                shard: r.gen_range(0..8u64) as usize,
                at_op: r.gen_range(4..64u64),
            })
        } else {
            None
        };
        let write = Self::draw_io(&mut r);
        let read = Self::draw_io(&mut r);
        FaultPlan {
            seed,
            write,
            read,
            worker_panic,
            worker_stall,
        }
    }

    fn draw_io(r: &mut Rng) -> IoFaults {
        match r.gen_range(0..4u64) {
            0 => IoFaults::default(),
            1 => IoFaults {
                truncate_at: Some(r.gen_range(256..8192u64)),
                ..IoFaults::default()
            },
            2 => IoFaults {
                short_op_every: Some(r.gen_range(2..9u64)),
                transient_every: Some(r.gen_range(2..9u64)),
                transient_kind: Some(if r.gen_bool(0.5) {
                    TransientKind::Interrupted
                } else {
                    TransientKind::WouldBlock
                }),
                ..IoFaults::default()
            },
            _ => IoFaults {
                hard_error_at: Some(r.gen_range(256..8192u64)),
                ..IoFaults::default()
            },
        }
    }
}

/// Per-connection network fault schedules expanded from a
/// `--inject-net` seed.
///
/// Deliberately separate from [`FaultPlan::from_seed`], whose seed → plan
/// mapping is a frozen contract pinned by CI smoke seeds; the network
/// expansion is keyed by `(seed, lane)` where `lane` is the connection
/// ordinal (server side) or the dial-attempt ordinal (client side), so
/// every connection of a chaos run draws its own reproducible schedule.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NetFaults {
    /// Faults applied to the connection's read half.
    pub read: IoFaults,
    /// Faults applied to the connection's write half.
    pub write: IoFaults,
}

impl NetFaults {
    /// Expands `(seed, lane)` into one connection's fault schedules.
    /// Deterministic on any platform.
    ///
    /// Each direction independently draws one of {clean, short ops +
    /// `Interrupted` bursts, short ops + occasional `WouldBlock`,
    /// mid-frame cut}. A cut surfaces as early EOF on the read half and a
    /// hard error on the write half — the two ways a torn TCP connection
    /// actually presents. `Interrupted` is absorbed by std's own retry
    /// loops; `WouldBlock` exercises the [`Backoff`]-driven wire retries.
    pub fn from_seed(seed: u64, lane: u64) -> NetFaults {
        let mut r = Rng::seeded(seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        NetFaults {
            read: Self::draw(&mut r, true),
            write: Self::draw(&mut r, false),
        }
    }

    fn draw(r: &mut Rng, reading: bool) -> IoFaults {
        match r.gen_range(0..4u64) {
            0 => IoFaults::default(),
            1 => IoFaults {
                short_op_every: Some(r.gen_range(2..6u64)),
                transient_every: Some(r.gen_range(3..9u64)),
                transient_kind: Some(TransientKind::Interrupted),
                ..IoFaults::default()
            },
            2 => IoFaults {
                short_op_every: Some(r.gen_range(2..6u64)),
                transient_every: Some(r.gen_range(8..17u64)),
                transient_kind: Some(TransientKind::WouldBlock),
                ..IoFaults::default()
            },
            _ => {
                let cut = r.gen_range(200..20_000u64);
                if reading {
                    IoFaults {
                        truncate_at: Some(cut),
                        ..IoFaults::default()
                    }
                } else {
                    IoFaults {
                        hard_error_at: Some(cut),
                        ..IoFaults::default()
                    }
                }
            }
        }
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn io_desc(io: &IoFaults) -> String {
            if io.is_none() {
                return "clean".to_string();
            }
            let mut parts = Vec::new();
            if let Some(n) = io.truncate_at {
                parts.push(format!("truncate@{n}"));
            }
            if let Some(n) = io.hard_error_at {
                parts.push(format!("hard@{n}"));
            }
            if let Some(n) = io.transient_every {
                let kind = match io.transient_kind {
                    Some(TransientKind::WouldBlock) => "wouldblock",
                    _ => "interrupted",
                };
                parts.push(format!("{kind}/{n}"));
            }
            if let Some(n) = io.short_op_every {
                parts.push(format!("short/{n}"));
            }
            parts.join("+")
        }
        write!(
            f,
            "seed={} write={} read={}",
            self.seed,
            io_desc(&self.write),
            io_desc(&self.read)
        )?;
        if let Some(p) = self.worker_panic {
            write!(f, " panic=shard{}@op{}", p.shard, p.at_op)?;
        }
        if let Some(s) = self.worker_stall {
            write!(f, " stall=shard{}@op{}", s.shard, s.at_op)?;
        }
        Ok(())
    }
}

/// Counters for what a [`FaultyWriter`]/[`FaultyReader`] actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoFaultStats {
    /// I/O calls observed.
    pub calls: u64,
    /// Bytes successfully transferred (claimed, for truncated writes).
    pub bytes: u64,
    /// Transient errors injected.
    pub transients: u64,
    /// Short operations injected.
    pub short_ops: u64,
    /// Hard errors injected.
    pub hard_errors: u64,
    /// Bytes silently dropped past the truncation point (writer) or
    /// withheld as early EOF (reader).
    pub truncated_bytes: u64,
}

impl IoFaultStats {
}

impl fmt::Display for IoFaultStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} call(s), {} byte(s), {} transient(s), {} short op(s), {} hard error(s), {} byte(s) truncated",
            self.calls, self.bytes, self.transients, self.short_ops, self.hard_errors, self.truncated_bytes
        )
    }
}

fn injected_err(kind: ErrorKind, what: &str) -> io::Error {
    io::Error::new(kind, format!("injected {what}"))
}

/// `io::Write` wrapper that injects the faults scheduled in an
/// [`IoFaults`]. Deterministic: faults depend only on call/byte counters.
#[derive(Debug)]
pub struct FaultyWriter<W> {
    inner: W,
    faults: IoFaults,
    stats: IoFaultStats,
}

impl<W: Write> FaultyWriter<W> {
    /// Wraps `inner` with the write-direction faults of `faults`.
    pub fn new(inner: W, faults: IoFaults) -> Self {
        FaultyWriter {
            inner,
            faults,
            stats: IoFaultStats::default(),
        }
    }

    /// What has been injected so far.
    pub fn stats(&self) -> IoFaultStats {
        self.stats
    }

    /// Unwraps the underlying sink.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for FaultyWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stats.calls += 1;
        let call = self.stats.calls;
        if let (Some(n), Some(kind)) = (self.faults.transient_every, self.faults.transient_kind) {
            if n > 0 && call % n == 0 {
                self.stats.transients += 1;
                return Err(injected_err(kind.kind(), "transient write fault"));
            }
        }
        if let Some(limit) = self.faults.hard_error_at {
            if self.stats.bytes >= limit {
                self.stats.hard_errors += 1;
                return Err(injected_err(ErrorKind::Other, "hard write fault"));
            }
        }
        if let Some(cut) = self.faults.truncate_at {
            if self.stats.bytes >= cut {
                // Fully past the cut: claim success, write nothing.
                self.stats.truncated_bytes += buf.len() as u64;
                self.stats.bytes += buf.len() as u64;
                return Ok(buf.len());
            }
            let room = (cut - self.stats.bytes) as usize;
            if buf.len() > room {
                // Straddles the cut: persist the prefix, claim the rest.
                self.inner.write_all(&buf[..room])?;
                self.stats.truncated_bytes += (buf.len() - room) as u64;
                self.stats.bytes += buf.len() as u64;
                return Ok(buf.len());
            }
        }
        let mut len = buf.len();
        if let Some(n) = self.faults.short_op_every {
            if n > 0 && call % n == 0 && len > 1 {
                len = len.div_ceil(2);
                self.stats.short_ops += 1;
            }
        }
        let written = self.inner.write(&buf[..len])?;
        self.stats.bytes += written as u64;
        Ok(written)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// `io::Read` wrapper that injects the faults scheduled in an
/// [`IoFaults`]. Deterministic, like [`FaultyWriter`].
#[derive(Debug)]
pub struct FaultyReader<R> {
    inner: R,
    faults: IoFaults,
    stats: IoFaultStats,
}

impl<R: Read> FaultyReader<R> {
    /// Wraps `inner` with the read-direction faults of `faults`.
    pub fn new(inner: R, faults: IoFaults) -> Self {
        FaultyReader {
            inner,
            faults,
            stats: IoFaultStats::default(),
        }
    }

    /// What has been injected so far.
    pub fn stats(&self) -> IoFaultStats {
        self.stats
    }
}

impl<R: Read> Read for FaultyReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stats.calls += 1;
        let call = self.stats.calls;
        if let (Some(n), Some(kind)) = (self.faults.transient_every, self.faults.transient_kind) {
            if n > 0 && call % n == 0 {
                self.stats.transients += 1;
                return Err(injected_err(kind.kind(), "transient read fault"));
            }
        }
        if let Some(limit) = self.faults.hard_error_at {
            if self.stats.bytes >= limit {
                self.stats.hard_errors += 1;
                return Err(injected_err(ErrorKind::Other, "hard read fault"));
            }
        }
        let mut want = buf.len();
        if let Some(cut) = self.faults.truncate_at {
            if self.stats.bytes >= cut {
                self.stats.truncated_bytes += 1; // at least one byte withheld
                return Ok(0);
            }
            want = want.min((cut - self.stats.bytes) as usize);
        }
        if let Some(n) = self.faults.short_op_every {
            if n > 0 && call % n == 0 && want > 1 {
                want = want.div_ceil(2);
                self.stats.short_ops += 1;
            }
        }
        let got = self.inner.read(&mut buf[..want])?;
        self.stats.bytes += got as u64;
        Ok(got)
    }
}

/// True for `io::ErrorKind`s worth retrying with [`Backoff`].
pub fn is_transient(kind: ErrorKind) -> bool {
    matches!(
        kind,
        ErrorKind::Interrupted | ErrorKind::WouldBlock | ErrorKind::TimedOut
    )
}

/// Bounded exponential backoff with deterministic jitter.
///
/// Delays double each attempt, jittered into `[delay/2, delay)` by the
/// seeded project RNG so retry timing is reproducible; `None` once the
/// attempt budget is exhausted. Delays are capped at 100ms — retries here
/// smooth over *transient* faults, they never mask a persistent one.
#[derive(Debug, Clone)]
pub struct Backoff {
    rng: Rng,
    attempt: u32,
    total: u64,
    max_attempts: u32,
    base: Duration,
}

impl Backoff {
    /// Backoff starting at `base` (doubling, jittered), giving up after
    /// `max_attempts` retries.
    pub fn new(seed: u64, max_attempts: u32, base: Duration) -> Self {
        Backoff {
            rng: Rng::seeded(seed),
            attempt: 0,
            total: 0,
            max_attempts,
            base,
        }
    }

    /// Retries consumed over the backoff's whole lifetime (not cleared by
    /// `Backoff::reset`) — the number callers report in their stats.
    pub fn total_retries(&self) -> u64 {
        self.total
    }

    /// Resets the attempt budget after forward progress, so the bound
    /// applies to *consecutive* failures. The RNG stream keeps advancing —
    /// resetting does not replay earlier jitter, so timing stays
    /// deterministic end to end.
    pub(crate) fn reset(&mut self) {
        self.attempt = 0;
    }

    /// Next delay to sleep before retrying, or `None` when the budget is
    /// spent and the error should propagate.
    pub fn next_delay(&mut self) -> Option<Duration> {
        if self.attempt >= self.max_attempts {
            return None;
        }
        let exp = self.attempt.min(16);
        self.attempt += 1;
        self.total += 1;
        let full = self
            .base
            .saturating_mul(1u32 << exp)
            .min(Duration::from_millis(100));
        let micros = full.as_micros().max(2) as u64;
        let jittered = micros / 2 + self.rng.gen_range(0..micros / 2);
        Some(Duration::from_micros(jittered))
    }
}

/// Consecutive `Interrupted` results tolerated for free before the error
/// propagates. std's `write_all` retries `Interrupted` unconditionally,
/// but against a sink that returns it *persistently* (an injected
/// `transient_every: 1` plan, or a genuinely wedged fd) an unconditional
/// retry never terminates — so the free retries are bounded generously
/// and the backoff budget takes over past the bound.
const MAX_FREE_INTERRUPTS: u32 = 1024;

/// `write_all` with bounded, deterministically jittered retries on
/// transient errors ([`is_transient`]); `Interrupted` alone is retried
/// for free (matching std's `write_all`) up to `MAX_FREE_INTERRUPTS`
/// consecutive times, after which it consumes the backoff budget like
/// the other transient kinds. Progress resets both bounds, so they apply
/// to consecutive failures. Never rewrites bytes already accepted.
pub fn write_all_with_retry<W: Write>(
    sink: &mut W,
    mut buf: &[u8],
    backoff: &mut Backoff,
) -> io::Result<()> {
    let mut interrupts = 0u32;
    while !buf.is_empty() {
        match sink.write(buf) {
            Ok(0) => {
                return Err(io::Error::new(
                    ErrorKind::WriteZero,
                    "failed to write whole buffer",
                ))
            }
            Ok(n) => {
                buf = &buf[n..];
                backoff.reset();
                interrupts = 0;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted && interrupts < MAX_FREE_INTERRUPTS => {
                interrupts += 1;
            }
            Err(e) if is_transient(e.kind()) => match backoff.next_delay() {
                Some(d) => std::thread::sleep(d),
                None => return Err(e),
            },
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// `read_to_end` with the same bounded retry policy as
/// [`write_all_with_retry`]. Returns the number of bytes appended.
pub fn read_to_end_with_retry<R: Read>(
    source: &mut R,
    out: &mut Vec<u8>,
    backoff: &mut Backoff,
) -> io::Result<usize> {
    let start = out.len();
    let mut scratch = [0u8; 16 * 1024];
    let mut interrupts = 0u32;
    loop {
        match source.read(&mut scratch) {
            Ok(0) => return Ok(out.len() - start),
            Ok(n) => {
                out.extend_from_slice(&scratch[..n]);
                backoff.reset();
                interrupts = 0;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted && interrupts < MAX_FREE_INTERRUPTS => {
                interrupts += 1;
            }
            Err(e) if is_transient(e.kind()) => match backoff.next_delay() {
                Some(d) => std::thread::sleep(d),
                None => return Err(e),
            },
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The seed → plan expansion is a contract: CI smoke jobs pin seeds
    /// whose scenarios these vectors lock in place.
    #[test]
    fn plan_expansion_is_stable() {
        let a = FaultPlan::from_seed(7);
        assert_eq!(a, FaultPlan::from_seed(7));
        assert!(a.worker_panic.is_some());
        let b = FaultPlan::from_seed(8);
        assert_ne!(a, b);
    }

    #[test]
    fn plans_cover_every_io_scenario() {
        let mut saw_trunc = false;
        let mut saw_transient = false;
        let mut saw_hard = false;
        let mut saw_clean = false;
        for seed in 0..64 {
            let p = FaultPlan::from_seed(seed);
            for io in [&p.write, &p.read] {
                saw_trunc |= io.truncate_at.is_some();
                saw_transient |= io.transient_every.is_some();
                saw_hard |= io.hard_error_at.is_some();
                saw_clean |= io.is_none();
            }
        }
        assert!(saw_trunc && saw_transient && saw_hard && saw_clean);
    }

    #[test]
    fn net_fault_expansion_is_deterministic_and_covers_every_scenario() {
        let mut saw_clean = false;
        let mut saw_interrupted = false;
        let mut saw_wouldblock = false;
        let mut saw_read_cut = false;
        let mut saw_write_cut = false;
        for seed in 0..16u64 {
            for lane in 0..8u64 {
                let n = NetFaults::from_seed(seed, lane);
                assert_eq!(n, NetFaults::from_seed(seed, lane));
                for io in [&n.read, &n.write] {
                    saw_clean |= io.is_none();
                    saw_interrupted |=
                        io.transient_kind == Some(TransientKind::Interrupted);
                    saw_wouldblock |= io.transient_kind == Some(TransientKind::WouldBlock);
                }
                // Cuts present as the direction-appropriate fault only.
                assert!(n.read.hard_error_at.is_none());
                assert!(n.write.truncate_at.is_none());
                saw_read_cut |= n.read.truncate_at.is_some();
                saw_write_cut |= n.write.hard_error_at.is_some();
            }
        }
        assert!(saw_clean && saw_interrupted && saw_wouldblock);
        assert!(saw_read_cut && saw_write_cut);
        // Different lanes of the same seed draw different schedules.
        assert_ne!(
            (0..32).map(|l| NetFaults::from_seed(3, l)).collect::<Vec<_>>(),
            vec![NetFaults::from_seed(3, 0); 32]
        );
    }

    #[test]
    fn truncating_writer_claims_success_but_drops_tail() {
        let faults = IoFaults {
            truncate_at: Some(10),
            ..IoFaults::default()
        };
        let mut w = FaultyWriter::new(Vec::new(), faults);
        w.write_all(&[1u8; 8]).unwrap();
        w.write_all(&[2u8; 8]).unwrap();
        w.write_all(&[3u8; 8]).unwrap();
        let stats = w.stats();
        assert_eq!(stats.truncated_bytes, 14);
        assert_eq!(stats.bytes, 24);
        let inner = w.into_inner();
        assert_eq!(inner.len(), 10);
        assert_eq!(&inner[8..], &[2, 2]);
    }

    #[test]
    fn hard_error_is_permanent() {
        let faults = IoFaults {
            hard_error_at: Some(4),
            ..IoFaults::default()
        };
        let mut w = FaultyWriter::new(Vec::new(), faults);
        w.write_all(&[0u8; 4]).unwrap();
        assert!(w.write_all(&[0u8; 1]).is_err());
        assert!(w.write_all(&[0u8; 1]).is_err());
        assert_eq!(w.stats().hard_errors, 2);
    }

    #[test]
    fn interrupted_writes_are_absorbed_by_write_all() {
        let faults = IoFaults {
            transient_every: Some(2),
            transient_kind: Some(TransientKind::Interrupted),
            ..IoFaults::default()
        };
        let mut w = FaultyWriter::new(Vec::new(), faults);
        for _ in 0..4 {
            w.write_all(&[7u8; 16]).unwrap();
        }
        assert!(w.stats().transients > 0);
        assert_eq!(w.into_inner(), vec![7u8; 64]);
    }

    #[test]
    fn persistent_interrupts_terminate_with_error() {
        // A sink that fails EVERY call with Interrupted must not loop
        // forever: the free retries are bounded, then the backoff budget
        // is consumed, then the error propagates.
        let faults = IoFaults {
            transient_every: Some(1),
            transient_kind: Some(TransientKind::Interrupted),
            ..IoFaults::default()
        };
        let mut w = FaultyWriter::new(Vec::new(), faults.clone());
        let mut backoff = Backoff::new(1, 2, Duration::from_micros(1));
        let err = write_all_with_retry(&mut w, &[1u8; 4], &mut backoff).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Interrupted);

        let mut r = FaultyReader::new(&[0u8; 4][..], faults);
        let mut out = Vec::new();
        let mut backoff = Backoff::new(1, 2, Duration::from_micros(1));
        let err = read_to_end_with_retry(&mut r, &mut out, &mut backoff).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Interrupted);
    }

    #[test]
    fn wouldblock_surfaces_to_caller() {
        let faults = IoFaults {
            transient_every: Some(1),
            transient_kind: Some(TransientKind::WouldBlock),
            ..IoFaults::default()
        };
        let mut w = FaultyWriter::new(Vec::new(), faults);
        let err = w.write(&[1u8]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WouldBlock);
    }

    #[test]
    fn short_reads_still_deliver_everything() {
        let data: Vec<u8> = (0..255u8).collect();
        let faults = IoFaults {
            short_op_every: Some(2),
            transient_every: Some(3),
            transient_kind: Some(TransientKind::Interrupted),
            ..IoFaults::default()
        };
        let mut r = FaultyReader::new(&data[..], faults);
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out, data);
        assert!(r.stats().short_ops > 0);
    }

    #[test]
    fn truncating_reader_reports_clean_eof() {
        let data = [9u8; 100];
        let faults = IoFaults {
            truncate_at: Some(33),
            ..IoFaults::default()
        };
        let mut r = FaultyReader::new(&data[..], faults);
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out.len(), 33);
    }

    #[test]
    fn worker_fault_targets_modulo_shards() {
        let f = WorkerFault { shard: 6, at_op: 9 };
        assert_eq!(f.trigger_for(2, 4), Some(9));
        assert_eq!(f.trigger_for(3, 4), None);
        assert_eq!(f.trigger_for(6, 8), Some(9));
        assert_eq!(f.trigger_for(0, 0), None);
    }

    #[test]
    fn backoff_is_bounded_and_deterministic() {
        let mut a = Backoff::new(11, 3, Duration::from_micros(100));
        let mut b = Backoff::new(11, 3, Duration::from_micros(100));
        let da: Vec<_> = std::iter::from_fn(|| a.next_delay()).collect();
        let db: Vec<_> = std::iter::from_fn(|| b.next_delay()).collect();
        assert_eq!(da, db);
        assert_eq!(da.len(), 3);
        for d in &da {
            assert!(*d <= Duration::from_millis(100));
            assert!(*d >= Duration::from_micros(50));
        }
    }

    #[test]
    fn write_all_with_retry_survives_wouldblock_bursts() {
        let faults = IoFaults {
            transient_every: Some(2),
            transient_kind: Some(TransientKind::WouldBlock),
            short_op_every: Some(3),
            ..IoFaults::default()
        };
        let mut w = FaultyWriter::new(Vec::new(), faults);
        let payload: Vec<u8> = (0..200u8).collect();
        let mut backoff = Backoff::new(1, 8, Duration::from_micros(10));
        write_all_with_retry(&mut w, &payload, &mut backoff).unwrap();
        assert_eq!(w.into_inner(), payload);
    }

    #[test]
    fn write_all_with_retry_gives_up_on_persistent_transient() {
        let faults = IoFaults {
            transient_every: Some(1), // every call fails
            transient_kind: Some(TransientKind::WouldBlock),
            ..IoFaults::default()
        };
        let mut w = FaultyWriter::new(Vec::new(), faults);
        let mut backoff = Backoff::new(1, 3, Duration::from_micros(10));
        let err = write_all_with_retry(&mut w, &[1, 2, 3], &mut backoff).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WouldBlock);
        assert_eq!(backoff.attempt, 3, "budget spent before giving up");
    }

    #[test]
    fn read_to_end_with_retry_recovers_everything() {
        let data: Vec<u8> = (0..251u8).cycle().take(40_000).collect();
        let faults = IoFaults {
            transient_every: Some(2),
            transient_kind: Some(TransientKind::WouldBlock),
            short_op_every: Some(2),
            ..IoFaults::default()
        };
        let mut r = FaultyReader::new(&data[..], faults);
        let mut out = Vec::new();
        let mut backoff = Backoff::new(2, 8, Duration::from_micros(10));
        let n = read_to_end_with_retry(&mut r, &mut out, &mut backoff).unwrap();
        assert_eq!(n, data.len());
        assert_eq!(out, data);
    }

    #[test]
    fn transient_kinds() {
        assert!(is_transient(ErrorKind::Interrupted));
        assert!(is_transient(ErrorKind::WouldBlock));
        assert!(is_transient(ErrorKind::TimedOut));
        assert!(!is_transient(ErrorKind::Other));
        assert!(!is_transient(ErrorKind::UnexpectedEof));
    }
}
