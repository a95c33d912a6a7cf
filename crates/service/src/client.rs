//! `tracetool client`: streams a trace to a `tracetool serve` daemon.
//!
//! The client is deliberately dumb: it slices the trace into chunk
//! payloads (reusing the `.ftrc` file's own chunking by default), then
//! speaks the lock-step protocol — `Open`/`Hello`, one
//! `Chunk`/`VerdictDelta` pair per chunk, `Finish`/`Final` — and hands
//! back the daemon's verdict text verbatim. Leniency acts here, before
//! anything is sent: with [`ClientOptions::lenient`] the client drops the
//! damaged chunks of the trace and cuts a truncated one at its
//! truncated chunk, by the rules of a lenient `analyze`, so the daemon
//! only ever sees intact chunks. On resume it re-streams the full trace;
//! the daemon restores its session's engine from the checkpoint, a
//! snapshot of the detector's state rather than of the trace, and does
//! not check the chunks it covers again.
//!
//! That no-local-state resume design is what makes reconnection simple:
//! when a connection tears mid-stream (or the daemon sheds the session
//! with `Busy`), the client re-dials under [`Backoff`], re-`Open`s the
//! same session name, and re-streams from chunk 0 — a `--resume` daemon
//! answers `Hello { resumed_chunks > 0 }` and skips the prefix its
//! checkpoint already covers. [`ClientOptions::retries`] bounds the
//! reconnects and [`ClientOptions::retry_budget_ms`] the total elapsed
//! time; exhausting either yields the structured
//! [`ClientError::RetriesExhausted`].

use futrace_offline::{framed, read_events, salvage, FrameError};
use futrace_runtime::trace;
use futrace_util::faultinject::{
    is_transient, write_all_with_retry, Backoff, FaultyReader, FaultyWriter, NetFaults,
};
use futrace_util::wire::proto::{
    encode_frame, read_frame, write_frame, ErrorCode, Message, ProtoError,
};
use std::fmt;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Retry budget for absorbing transient faults *within* one connection
/// (injected `WouldBlock` bursts); reconnection has its own budget.
const IN_CONN_RETRIES: u32 = 8;

/// Configuration for one streamed analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClientOptions {
    /// Daemon address (`host:port`).
    pub addr: String,
    /// Ask the daemon to checkpoint every N chunks.
    pub checkpoint_every: Option<u64>,
    /// Drop the damaged chunks a lenient `analyze` drops instead of
    /// failing: a chunk that fails its CRC, decode or event count,
    /// dropped whole with or without [`ClientOptions::chunk_events`], and
    /// a truncated tail, cut at its truncated chunk.
    pub lenient: bool,
    /// Session name — keys the daemon's checkpoint file, so resuming a
    /// suspended session means reconnecting with the same name.
    pub trace_name: String,
    /// Re-chunk the trace to this many events per chunk before sending
    /// (default: ship the file's own chunking).
    pub chunk_events: Option<usize>,
    /// Send `Suspend` after this many chunks instead of finishing
    /// (exercises suspend/resume; used by tests and `--suspend-after`).
    pub suspend_after: Option<u64>,
    /// Reconnect attempts after a torn connection or `Busy` shed
    /// (0 = fail on the first fault, the historical behavior).
    pub retries: u32,
    /// Wall-clock cap across all attempts; once it would be exceeded the
    /// client gives up even with retries left.
    pub retry_budget_ms: Option<u64>,
    /// Seed for per-attempt network fault injection (chaos testing). The
    /// final allowed attempt always runs fault-free, so a bounded retry
    /// budget terminates deterministically under injection.
    pub inject_net: Option<u64>,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            addr: String::new(),
            checkpoint_every: None,
            lenient: false,
            trace_name: "session".to_string(),
            chunk_events: None,
            suspend_after: None,
            retries: 0,
            retry_budget_ms: None,
            inject_net: None,
        }
    }
}

/// How a streamed session ended.
#[derive(Clone, Debug)]
pub enum ClientOutcome {
    /// The daemon analyzed everything and produced a verdict.
    Finished {
        /// Total races detected.
        races: u64,
        /// The verdict text, byte-identical to one-shot `analyze`.
        verdict: String,
        /// Chunks the daemon's checkpoint had already completed when the
        /// session opened (0 for a fresh session).
        resumed_chunks: u64,
        /// Chunks this client sent.
        chunks_sent: u64,
        /// Events the daemon's session consumed, as its last verdict
        /// delta counted them.
        events: u64,
        /// The truncation a lenient read cut the trace at: only the
        /// complete chunks before it were sent.
        truncated: Option<FrameError>,
        /// Damaged chunks a lenient read dropped before sending.
        skipped_chunks: u64,
        /// Connection attempts consumed (1 = no reconnects).
        attempts: u32,
    },
    /// The session was suspended to a daemon-side checkpoint.
    Suspended {
        /// Chunks fed before suspension.
        chunks: u64,
    },
}

/// Client-side failure: local I/O, wire damage, a structured error from
/// the daemon, or a protocol-shape violation.
#[derive(Debug)]
pub enum ClientError {
    /// Local socket or file I/O failed.
    Io(std::io::Error),
    /// The reply stream was damaged.
    Proto(ProtoError),
    /// The daemon reported a structured error.
    Remote {
        /// Error category from the daemon.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The daemon replied with an unexpected message kind.
    Protocol(&'static str),
    /// The local trace is damaged, or not a framed trace at all.
    Trace(FrameError),
    /// The daemon shed this session for load and the retry budget could
    /// not absorb it.
    Busy {
        /// The daemon's advisory back-off hint.
        retry_after_ms: u64,
    },
    /// The reconnect budget ran out; `last` describes the final failure.
    RetriesExhausted {
        /// Connection attempts made before giving up.
        attempts: u32,
        /// Rendered form of the last attempt's error.
        last: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection failed: {e}"),
            ClientError::Proto(e) => write!(f, "damaged reply stream: {e}"),
            ClientError::Remote { code, message } => {
                write!(f, "daemon error ({code}): {message}")
            }
            ClientError::Protocol(what) => write!(f, "protocol violation: {what}"),
            ClientError::Trace(e) => write!(f, "invalid trace: {e}"),
            ClientError::Busy { retry_after_ms } => {
                write!(f, "daemon busy: retry after {retry_after_ms}ms")
            }
            ClientError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempt(s): {last}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

/// One wire chunk: the events it declares and its codec-encoded payload.
type WireChunk = (u32, Vec<u8>);

/// Slices a trace blob into wire chunks (codec-encoded event runs, each
/// with the event count its header declares), and counts the damaged
/// chunks it dropped. Under [`ClientOptions::lenient`] both chunkings
/// keep exactly the chunks the trace reader keeps.
fn chunk_payloads(opts: &ClientOptions, blob: &[u8]) -> Result<(Vec<WireChunk>, u64), ClientError> {
    if let Some(per_chunk) = opts.chunk_events {
        let per_chunk = per_chunk.max(1);
        let (events, dropped) = read_events(blob, opts.lenient).map_err(ClientError::Trace)?;
        if events.is_empty() {
            return Ok((vec![(0, Vec::new())], dropped));
        }
        let chunk = |c: &[_]| (c.len() as u32, trace::encode(c));
        return Ok((events.chunks(per_chunk).map(chunk).collect(), dropped));
    }
    // Strict streaming forwards the payload bytes undecoded, with the
    // count their header declares; the daemon decodes each chunk anyway
    // and checks the count.
    let mut payloads = Vec::new();
    let mut dropped = 0;
    for chunk in framed::chunks(blob) {
        match chunk {
            Ok(c) if opts.lenient && c.decode().is_err() => dropped += 1,
            Ok(c) => payloads.push((c.event_count, c.payload.to_vec())),
            Err(FrameError::CorruptChunk { .. }) if opts.lenient => dropped += 1,
            // Framing damage cannot be resynced locally; report it rather
            // than shipping a torn stream.
            Err(e) => return Err(ClientError::Trace(e)),
        }
    }
    if payloads.is_empty() {
        payloads.push((0, Vec::new()));
    }
    Ok((payloads, dropped))
}

/// Absorbs transient read errors (`WouldBlock`/`TimedOut` bursts from
/// fault injection) with a bounded backoff so a flaky read becomes a
/// short stall instead of a torn connection. `Interrupted` is already
/// retried for free by `read_frame`'s header loop.
struct PatientReader<R> {
    inner: R,
}

impl<R: Read> Read for PatientReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let mut backoff = Backoff::new(0xC11E_47, IN_CONN_RETRIES, Duration::from_millis(1));
        loop {
            match self.inner.read(buf) {
                Err(e) if is_transient(e.kind()) && e.kind() != std::io::ErrorKind::Interrupted => {
                    match backoff.next_delay() {
                        Some(d) => std::thread::sleep(d),
                        None => return Err(e),
                    }
                }
                other => return other,
            }
        }
    }
}

/// One dialed connection: a fault-wrapped read half and write half of
/// the same socket. With no injection the wrappers pass straight through.
struct Wire {
    reader: PatientReader<FaultyReader<TcpStream>>,
    writer: FaultyWriter<TcpStream>,
}

impl Wire {
    fn send(&mut self, msg: &Message) -> Result<(), ClientError> {
        let frame = encode_frame(msg);
        let mut backoff = Backoff::new(0x5E_D1A1, IN_CONN_RETRIES, Duration::from_millis(1));
        write_all_with_retry(&mut self.writer, &frame, &mut backoff)?;
        self.writer.flush()?;
        Ok(())
    }

    fn expect_reply(&mut self) -> Result<Message, ClientError> {
        match read_frame(&mut self.reader)? {
            Some(Message::Error { code, message }) => Err(ClientError::Remote { code, message }),
            Some(Message::Busy { retry_after_ms }) => Err(ClientError::Busy { retry_after_ms }),
            Some(msg) => Ok(msg),
            // Mid-session EOF is a torn connection (daemon killed or
            // connection dropped), not a protocol-shape violation: surface
            // it as I/O so the reconnect loop treats it as retryable.
            None => Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ))),
        }
    }
}

fn connect(opts: &ClientOptions, attempt: u32) -> Result<Wire, ClientError> {
    let stream = TcpStream::connect(&opts.addr)?;
    let _ = stream.set_nodelay(true);
    let faults = match opts.inject_net {
        // The final allowed attempt runs fault-free so a bounded retry
        // budget terminates deterministically under injection.
        Some(seed) if opts.retries == 0 || attempt < opts.retries => {
            NetFaults::from_seed(seed, attempt as u64)
        }
        _ => NetFaults::default(),
    };
    let read_half = stream.try_clone()?;
    Ok(Wire {
        reader: PatientReader {
            inner: FaultyReader::new(read_half, faults.read),
        },
        writer: FaultyWriter::new(stream, faults.write),
    })
}

/// Is this failure worth re-dialing for? Torn connections and damaged
/// reply streams are; structured daemon errors and local trace problems
/// are permanent. `Busy` is retryable but carries its own delay floor.
fn retry_floor(err: &ClientError) -> Option<Duration> {
    match err {
        ClientError::Io(_) | ClientError::Proto(_) => Some(Duration::ZERO),
        ClientError::Busy { retry_after_ms } => Some(Duration::from_millis(*retry_after_ms)),
        _ => None,
    }
}

/// Streams `blob` to the daemon at `opts.addr` and returns its verdict
/// (or the suspension acknowledgement). A torn connection or `Busy` shed
/// is retried up to `opts.retries` times under bounded backoff; each
/// retry re-dials, re-`Open`s the same session name, and re-streams from
/// chunk 0, relying on the daemon's checkpoint to skip the completed
/// prefix (or recompute it — the verdict is identical either way).
pub fn stream_trace(opts: &ClientOptions, blob: &[u8]) -> Result<ClientOutcome, ClientError> {
    // Both chunkings read what a lenient `analyze` reads of the trace.
    let (blob, truncated) = salvage(blob, opts.lenient);
    let (payloads, skipped_chunks) = chunk_payloads(opts, blob)?;
    let deadline = opts
        .retry_budget_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let mut backoff = Backoff::new(
        opts.inject_net.unwrap_or(0x7E7).wrapping_add(1),
        opts.retries,
        Duration::from_millis(5),
    );
    let mut attempt: u32 = 0;
    loop {
        match stream_once(opts, &payloads, &truncated, skipped_chunks, attempt) {
            Ok(outcome) => return Ok(outcome),
            Err(e) => {
                let floor = match retry_floor(&e) {
                    Some(floor) if opts.retries > 0 => floor,
                    // Permanent failure, or retries disabled: report the
                    // raw error (the historical single-shot behavior).
                    _ => return Err(e),
                };
                let give_up = |attempt: u32, e: ClientError| {
                    if let ClientError::Busy { .. } = e {
                        // Keep the structured Busy so callers can map it
                        // to its own exit code.
                        e
                    } else {
                        ClientError::RetriesExhausted {
                            attempts: attempt + 1,
                            last: e.to_string(),
                        }
                    }
                };
                let delay = match backoff.next_delay() {
                    Some(d) => d.max(floor),
                    None => return Err(give_up(attempt, e)),
                };
                if let Some(deadline) = deadline {
                    if Instant::now() + delay > deadline {
                        return Err(give_up(attempt, e));
                    }
                }
                std::thread::sleep(delay);
                attempt += 1;
            }
        }
    }
}

/// One full connect → Open → stream → Finish pass.
fn stream_once(
    opts: &ClientOptions,
    payloads: &[WireChunk],
    truncated: &Option<FrameError>,
    skipped_chunks: u64,
    attempt: u32,
) -> Result<ClientOutcome, ClientError> {
    let mut wire = connect(opts, attempt)?;

    wire.send(&Message::Open {
        checkpoint_every: opts.checkpoint_every.unwrap_or(0),
        trace_name: opts.trace_name.clone(),
    })?;
    let resumed_chunks = match wire.expect_reply()? {
        Message::Hello { resumed_chunks, .. } => resumed_chunks,
        _ => return Err(ClientError::Protocol("expected Hello")),
    };

    let mut sent = 0u64;
    let mut events = 0u64;
    for (event_count, payload) in payloads {
        if opts.suspend_after == Some(sent) {
            return suspend(&mut wire, sent);
        }
        wire.send(&Message::Chunk {
            seq: sent,
            event_count: *event_count,
            payload: payload.clone(),
        })?;
        match wire.expect_reply()? {
            Message::VerdictDelta {
                chunks, events: n, ..
            } => {
                if chunks != sent + 1 {
                    return Err(ClientError::Protocol("delta out of step"));
                }
                events = n;
            }
            // The daemon drained or idle-evicted us mid-stream: the
            // session is parked in a checkpoint, not lost.
            Message::Suspended { chunks } => return Ok(ClientOutcome::Suspended { chunks }),
            _ => return Err(ClientError::Protocol("expected VerdictDelta")),
        }
        sent += 1;
    }
    if opts.suspend_after == Some(sent) {
        return suspend(&mut wire, sent);
    }

    wire.send(&Message::Finish)?;
    match wire.expect_reply()? {
        Message::Final { races, verdict } => Ok(ClientOutcome::Finished {
            races,
            verdict,
            resumed_chunks,
            chunks_sent: sent,
            events,
            truncated: truncated.clone(),
            skipped_chunks,
            attempts: attempt + 1,
        }),
        Message::Suspended { chunks } => Ok(ClientOutcome::Suspended { chunks }),
        _ => Err(ClientError::Protocol("expected Final")),
    }
}

fn suspend(wire: &mut Wire, sent: u64) -> Result<ClientOutcome, ClientError> {
    wire.send(&Message::Suspend)?;
    match wire.expect_reply()? {
        Message::Suspended { chunks } => {
            let _ = sent;
            Ok(ClientOutcome::Suspended { chunks })
        }
        _ => Err(ClientError::Protocol("expected Suspended")),
    }
}

/// Asks the daemon at `addr` to drain and exit. The daemon sends no
/// reply; clean EOF is success.
pub fn shutdown(addr: &str) -> Result<(), ClientError> {
    let mut stream = TcpStream::connect(addr)?;
    write_frame(&mut stream, &Message::Shutdown)?;
    let _ = stream.flush();
    match read_frame(&mut stream) {
        Ok(None) => Ok(()),
        Ok(Some(Message::Error { code, message })) => Err(ClientError::Remote { code, message }),
        Ok(Some(_)) => Err(ClientError::Protocol("unexpected reply to Shutdown")),
        // The daemon may tear the socket down instead of a clean FIN.
        Err(ProtoError::Io(_)) => Ok(()),
        Err(e) => Err(e.into()),
    }
}
