//! `tracetool serve`: a std-only TCP daemon multiplexing analysis
//! sessions over a fixed worker pool.
//!
//! One accepted connection carries one session, spoken in the framed
//! wire protocol of `futrace_util::wire::proto`, strictly lock-step:
//! the client sends one request frame and waits for its reply before
//! sending the next, so a slow analysis naturally backpressures the
//! sender without any windowing. Connections queue into a bounded
//! channel between the accept loop and the workers; when all workers
//! are busy and the queue is full, `accept` itself stops — backpressure
//! reaches all the way to the kernel listen queue.
//!
//! Failure is never silent: damaged frames and protocol violations are
//! answered with structured `Error` frames, a request that panics the
//! analysis drops that one session and is answered with an `Analysis`
//! error while the worker keeps serving, a client that vanishes
//! mid-session has its partial work suspended to an FCKP checkpoint
//! file, and a `Shutdown` frame drains the daemon — every in-flight
//! session is suspended the same way, so `serve --resume` can pick all
//! of them back up.
//!
//! Self-protection (chaos hardening):
//!
//! * **Idle eviction** — a session that stops sending for longer than
//!   [`ServeOptions::idle_timeout`] is *suspended to its checkpoint*,
//!   not dropped, so a wedged client costs a worker nothing and loses no
//!   work (the client reconnects and resumes).
//! * **Per-frame write deadline** — [`ServeOptions::io_deadline`] caps
//!   how long a reply write may stall, so a client that stops draining
//!   its socket cannot pin a worker; the session is suspended.
//! * **Load shedding** — past [`ServeOptions::max_sessions`] open
//!   sessions (or a full accept queue) an `Open` is answered with a
//!   structured [`Message::Busy`] frame instead of queueing silently;
//!   the client backs off and retries.
//! * **Fault injection** — [`ServeOptions::inject_net`] wraps every
//!   accepted connection's read/write halves in seeded
//!   `FaultyReader`/`FaultyWriter` schedules for chaos testing.

use crate::render_verdict;
use crate::session::{Session, SessionConfig, SessionError};
use futrace_offline::{channel, Checkpoint};
use futrace_util::faultinject::{
    write_all_with_retry, Backoff, FaultyReader, FaultyWriter, NetFaults,
};
use futrace_util::wire::proto::{decode_frame, encode_frame, ErrorCode, Message, ProtoError};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How often an idle connection read wakes up to check the drain flag
/// (and the idle deadline).
const DRAIN_POLL: Duration = Duration::from_millis(200);

/// Retry hint carried by load-shedding [`Message::Busy`] replies.
const BUSY_RETRY_AFTER_MS: u64 = 200;

/// Retry budget for reply writes: absorbs injected/transient
/// `WouldBlock` bursts without masking a genuinely stalled client (a
/// real write-deadline expiry persists through every retry).
const WRITE_RETRIES: u32 = 6;

/// Configuration for one daemon instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeOptions {
    /// Address to listen on (e.g. `127.0.0.1:7333`; port 0 picks one).
    pub addr: String,
    /// Worker threads — the number of sessions analyzed concurrently.
    pub workers: usize,
    /// Accepted-but-unclaimed connections held between the accept loop
    /// and the workers; beyond this, accepting stops (backpressure).
    pub queue_depth: usize,
    /// Directory for per-session FCKP checkpoint files.
    pub checkpoint_dir: PathBuf,
    /// Reopen matching FCKP files when sessions reconnect.
    pub resume: bool,
    /// Suspend a session to its checkpoint when the client sends nothing
    /// for this long (`None` = never evict).
    pub idle_timeout: Option<Duration>,
    /// Per-frame socket write deadline: a reply write stalled past this
    /// fails and the session is suspended (`None` = block forever).
    pub io_deadline: Option<Duration>,
    /// Open-session quota; an `Open` past it is answered with
    /// [`Message::Busy`] (0 = unlimited).
    pub max_sessions: usize,
    /// Seed for per-connection network fault injection (chaos testing).
    pub inject_net: Option<u64>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 16,
            checkpoint_dir: PathBuf::from("."),
            resume: false,
            idle_timeout: None,
            io_deadline: Some(Duration::from_secs(30)),
            max_sessions: 0,
            inject_net: None,
        }
    }
}

/// What the daemon did over its lifetime, reported after drain.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Sessions that reached `Finish` and got a `Final` verdict.
    pub finished: u64,
    /// Sessions suspended to a checkpoint (explicitly, by client
    /// disappearance, by idle eviction, or by drain).
    pub suspended: u64,
    /// Structured error frames sent.
    pub errors: u64,
    /// `Open`s (or whole connections) shed with a `Busy` reply because a
    /// quota was reached.
    pub busy_rejected: u64,
    /// Of `suspended`, the sessions evicted by the idle timeout.
    pub idle_suspended: u64,
    /// Checkpoints (periodic or on suspension) that could not be cut or
    /// persisted; the session's last durable checkpoint, if any, stays.
    pub checkpoint_failures: u64,
}

struct ServeState {
    drain: AtomicBool,
    finished: AtomicU64,
    suspended: AtomicU64,
    errors: AtomicU64,
    busy_rejected: AtomicU64,
    idle_suspended: AtomicU64,
    checkpoint_failures: AtomicU64,
    active_sessions: AtomicU64,
    next_session: AtomicU64,
    next_conn: AtomicU64,
    opts: ServeOptions,
}

/// A bound daemon, ready to [`Server::run`].
pub struct Server {
    listener: TcpListener,
    state: Arc<ServeState>,
}

impl Server {
    /// Binds the listen socket (so callers can learn the picked port
    /// before the daemon starts serving).
    pub fn bind(opts: ServeOptions) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        std::fs::create_dir_all(&opts.checkpoint_dir)?;
        Ok(Server {
            listener,
            state: Arc::new(ServeState {
                drain: AtomicBool::new(false),
                finished: AtomicU64::new(0),
                suspended: AtomicU64::new(0),
                errors: AtomicU64::new(0),
                busy_rejected: AtomicU64::new(0),
                idle_suspended: AtomicU64::new(0),
                checkpoint_failures: AtomicU64::new(0),
                active_sessions: AtomicU64::new(0),
                next_session: AtomicU64::new(1),
                next_conn: AtomicU64::new(0),
                opts,
            }),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until a client sends `Shutdown`, then drains: the accept
    /// loop stops, queued and in-flight sessions are suspended to their
    /// checkpoint files, workers exit, and the lifetime summary is
    /// returned.
    pub fn run(self) -> std::io::Result<ServeSummary> {
        let local = self.local_addr()?;
        let workers = self.state.opts.workers.max(1);
        let (tx, rx) = channel::bounded::<TcpStream>(self.state.opts.queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));

        let mut pool = Vec::with_capacity(workers);
        for _ in 0..workers {
            let rx = Arc::clone(&rx);
            let state = Arc::clone(&self.state);
            pool.push(std::thread::spawn(move || loop {
                // Hold the lock only for the dequeue: the receiver is
                // single-consumer, the pool shares it via the mutex.
                let conn = { rx.lock().unwrap().recv() };
                match conn {
                    Some(stream) => handle_connection(stream, &state, local),
                    None => break,
                }
            }));
        }

        for stream in self.listener.incoming() {
            if self.state.drain.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            if self.state.drain.load(Ordering::SeqCst) {
                // The wake-up connection itself lands here; drop it.
                break;
            }
            // A full queue sheds the connection with a structured Busy
            // instead of parking it (and its client) invisibly.
            match tx.send_timeout(stream, Duration::ZERO) {
                channel::SendTimeout::Sent => {}
                channel::SendTimeout::Full(mut stream) => {
                    self.state.busy_rejected.fetch_add(1, Ordering::SeqCst);
                    let _ = stream.set_write_timeout(Some(DRAIN_POLL));
                    let _ = stream.write_all(&encode_frame(&Message::Busy {
                        retry_after_ms: BUSY_RETRY_AFTER_MS,
                    }));
                }
                channel::SendTimeout::Disconnected(_) => break,
            }
        }
        drop(tx);
        for worker in pool {
            let _ = worker.join();
        }

        Ok(ServeSummary {
            finished: self.state.finished.load(Ordering::SeqCst),
            suspended: self.state.suspended.load(Ordering::SeqCst),
            errors: self.state.errors.load(Ordering::SeqCst),
            busy_rejected: self.state.busy_rejected.load(Ordering::SeqCst),
            idle_suspended: self.state.idle_suspended.load(Ordering::SeqCst),
            checkpoint_failures: self.state.checkpoint_failures.load(Ordering::SeqCst),
        })
    }
}

/// Maps a client-supplied trace name to its checkpoint file, defanging
/// path separators and dotfiles so a hostile name cannot escape the
/// checkpoint directory.
///
/// The sanitized stem carries a CRC-32 of the *raw* name: sanitization
/// is lossy (`a/b` and `a_b` both sanitize to `a_b`), and without the
/// disambiguator two concurrently open sessions with distinct names
/// would silently clobber each other's checkpoints.
pub fn checkpoint_path(dir: &Path, trace_name: &str) -> PathBuf {
    let mut safe: String = trace_name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '.' || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    while safe.starts_with('.') {
        safe.remove(0);
    }
    if safe.is_empty() {
        safe.push_str("session");
    }
    let disambiguator = futrace_util::crc32::crc32(trace_name.as_bytes());
    dir.join(format!("{safe}-{disambiguator:08x}.fckp"))
}

/// Per-connection protocol driver state.
struct Conn {
    session: Option<Session>,
    checkpoint: Option<PathBuf>,
    /// True while this connection holds a slot against the
    /// `max_sessions` quota.
    counted: bool,
}

fn handle_connection(stream: TcpStream, state: &ServeState, local: SocketAddr) {
    let mut conn = Conn {
        session: None,
        checkpoint: None,
        counted: false,
    };
    drive_connection(stream, &mut conn, state, local);
    if conn.counted {
        state.active_sessions.fetch_sub(1, Ordering::SeqCst);
    }
}

fn drive_connection(stream: TcpStream, conn: &mut Conn, state: &ServeState, local: SocketAddr) {
    let _ = stream.set_read_timeout(Some(DRAIN_POLL));
    let _ = stream.set_write_timeout(state.opts.io_deadline);
    let _ = stream.set_nodelay(true);
    // Both halves always go through the fault wrappers; without
    // --inject-net the schedules are empty and the wrappers are
    // pass-through. Socket timeouts live on the fd, shared by the clone.
    let lane = state.next_conn.fetch_add(1, Ordering::SeqCst);
    let faults = state
        .opts
        .inject_net
        .map(|seed| NetFaults::from_seed(seed, lane))
        .unwrap_or_default();
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = FaultyReader::new(read_half, faults.read);
    let mut writer = FaultyWriter::new(stream, faults.write);
    let mut buf: Vec<u8> = Vec::new();
    let mut scratch = [0u8; 64 * 1024];
    let mut last_activity = Instant::now();

    loop {
        // Drain every complete frame already buffered.
        loop {
            match decode_frame(&buf) {
                Ok((msg, consumed)) => {
                    buf.drain(..consumed);
                    let request = || dispatch(msg, conn, &mut writer, state, local);
                    let flow = catch_unwind(AssertUnwindSafe(request)).unwrap_or_else(|_| {
                        // The panic may have left the engine half-updated:
                        // drop the session, so no path suspends it to disk.
                        conn.session = None;
                        let why = "the analysis panicked; the session was dropped";
                        send_error(&mut writer, state, ErrorCode::Analysis, why);
                        Flow::Close
                    });
                    match flow {
                        Flow::Continue => {}
                        Flow::Close => {
                            // Whatever closed the conversation (normal
                            // completion leaves no session; a torn or
                            // deadline-expired reply write does), any
                            // still-open session's work is preserved.
                            suspend_to_disk(conn, state);
                            return;
                        }
                    }
                }
                Err(ProtoError::Truncated(_)) => break, // need more bytes
                Err(e) => {
                    // Structural damage (bad CRC, oversized, malformed):
                    // the stream cannot be resynced. Report, preserve the
                    // session, close.
                    send_error(&mut writer, state, ErrorCode::Protocol, &e.to_string());
                    suspend_to_disk(conn, state);
                    return;
                }
            }
        }

        match reader.read(&mut scratch) {
            Ok(0) => {
                // Client went away mid-session: preserve its work.
                suspend_to_disk(conn, state);
                return;
            }
            Ok(n) => {
                buf.extend_from_slice(&scratch[..n]);
                last_activity = Instant::now();
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if state.drain.load(Ordering::SeqCst) {
                    // Drain: suspend in-flight work, tell the client.
                    let chunks = conn.session.as_ref().map_or(0, |s| s.chunks());
                    if suspend_to_disk(conn, state) {
                        let _ = write_reply(&mut writer, &Message::Suspended { chunks });
                    }
                    return;
                }
                if let Some(limit) = state.opts.idle_timeout {
                    if last_activity.elapsed() >= limit {
                        // Idle eviction: suspend, don't drop — the wedged
                        // client's work survives in the checkpoint and a
                        // reconnect resumes it.
                        let chunks = conn.session.as_ref().map_or(0, |s| s.chunks());
                        if suspend_to_disk(conn, state) {
                            state.idle_suspended.fetch_add(1, Ordering::SeqCst);
                            let _ = write_reply(&mut writer, &Message::Suspended { chunks });
                        }
                        return;
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                suspend_to_disk(conn, state);
                return;
            }
        }
    }
}

enum Flow {
    Continue,
    Close,
}

fn dispatch<W: Write>(
    msg: Message,
    conn: &mut Conn,
    stream: &mut W,
    state: &ServeState,
    local: SocketAddr,
) -> Flow {
    match msg {
        Message::Open {
            checkpoint_every,
            trace_name,
        } => {
            if conn.session.is_some() {
                send_error(stream, state, ErrorCode::Protocol, "session already open");
                return Flow::Close;
            }
            if state.drain.load(Ordering::SeqCst) {
                send_error(stream, state, ErrorCode::Draining, "daemon is draining");
                return Flow::Close;
            }
            // Session quota: shed with a structured Busy instead of
            // queueing. The slot is claimed atomically so concurrent
            // Opens cannot oversubscribe, and released when the
            // connection ends.
            if state.opts.max_sessions > 0 {
                let quota = state.opts.max_sessions as u64;
                let claimed =
                    state
                        .active_sessions
                        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                            (n < quota).then_some(n + 1)
                        });
                if claimed.is_err() {
                    state.busy_rejected.fetch_add(1, Ordering::SeqCst);
                    let _ = write_reply(
                        stream,
                        &Message::Busy {
                            retry_after_ms: BUSY_RETRY_AFTER_MS,
                        },
                    );
                    return Flow::Close;
                }
                conn.counted = true;
            }
            let cfg = SessionConfig {
                checkpoint_every: (checkpoint_every > 0).then_some(checkpoint_every),
            };
            let path = checkpoint_path(&state.opts.checkpoint_dir, &trace_name);
            let session = if state.opts.resume && path.exists() {
                match std::fs::read(&path)
                    .map_err(|e| e.to_string())
                    .and_then(|d| Checkpoint::decode(&d).map_err(|e| e.to_string()))
                {
                    Ok(cp) => Session::open_resumed(cfg, cp),
                    Err(e) => {
                        send_error(
                            stream,
                            state,
                            ErrorCode::Internal,
                            &format!("cannot reopen checkpoint: {e}"),
                        );
                        return Flow::Close;
                    }
                }
            } else {
                Session::open(cfg)
            };
            match session {
                Ok(session) => {
                    let id = state.next_session.fetch_add(1, Ordering::SeqCst);
                    let resumed = session.resumed_chunks();
                    conn.session = Some(session);
                    conn.checkpoint = Some(path);
                    write_reply(
                        stream,
                        &Message::Hello {
                            session: id,
                            resumed_chunks: resumed,
                        },
                    )
                }
                Err(e) => {
                    send_error(stream, state, ErrorCode::Analysis, &e.to_string());
                    Flow::Close
                }
            }
        }
        Message::Chunk {
            seq,
            event_count,
            payload,
        } => {
            let Some(session) = conn.session.as_mut() else {
                send_error(stream, state, ErrorCode::Protocol, "chunk before open");
                return Flow::Close;
            };
            if seq != session.chunks() {
                let msg = format!(
                    "out-of-order chunk: got seq {seq}, expected {}",
                    session.chunks()
                );
                send_error(stream, state, ErrorCode::Protocol, &msg);
                suspend_to_disk(conn, state);
                return Flow::Close;
            }
            match session.feed_chunk_with_count(&payload, event_count) {
                Ok(delta) => {
                    // Periodic durability: cut a checkpoint at the
                    // configured interval so a daemon kill loses at most
                    // one interval of chunks.
                    if session.checkpoint_due() {
                        write_checkpoint_file(conn, state);
                    }
                    write_reply(
                        stream,
                        &Message::VerdictDelta {
                            chunks: delta.chunks,
                            events: delta.events,
                            races: delta.races,
                        },
                    )
                }
                Err(e @ SessionError::Trace(_)) => {
                    send_error(stream, state, ErrorCode::Trace, &e.to_string());
                    Flow::Close
                }
                Err(e) => {
                    send_error(stream, state, ErrorCode::Analysis, &e.to_string());
                    Flow::Close
                }
            }
        }
        Message::Finish => {
            let Some(session) = conn.session.take() else {
                send_error(stream, state, ErrorCode::Protocol, "finish before open");
                return Flow::Close;
            };
            match session.finish() {
                Ok(outcome) => {
                    state.finished.fetch_add(1, Ordering::SeqCst);
                    if let Some(path) = conn.checkpoint.take() {
                        let _ = std::fs::remove_file(path);
                    }
                    let _ = write_reply(
                        stream,
                        &Message::Final {
                            races: outcome.races.total_detected,
                            verdict: render_verdict(&outcome.races),
                        },
                    );
                    Flow::Close
                }
                Err(e) => {
                    send_error(stream, state, ErrorCode::Analysis, &e.to_string());
                    Flow::Close
                }
            }
        }
        Message::Suspend => {
            if conn.session.is_none() {
                send_error(stream, state, ErrorCode::Protocol, "suspend before open");
                return Flow::Close;
            }
            let chunks = conn.session.as_ref().map_or(0, |s| s.chunks());
            if suspend_to_disk(conn, state) {
                let _ = write_reply(stream, &Message::Suspended { chunks });
            } else {
                // Nothing checkpointable yet; the client starts over.
                let _ = write_reply(stream, &Message::Suspended { chunks: 0 });
            }
            Flow::Close
        }
        Message::Shutdown => {
            // No reply: the client treats EOF after Shutdown as success.
            state.drain.store(true, Ordering::SeqCst);
            // Wake the accept loop so it observes the flag.
            let _ = TcpStream::connect(local);
            suspend_to_disk(conn, state);
            Flow::Close
        }
        // Server-to-client kinds arriving here are protocol violations.
        Message::Hello { .. }
        | Message::VerdictDelta { .. }
        | Message::Final { .. }
        | Message::Suspended { .. }
        | Message::Error { .. }
        | Message::Busy { .. } => {
            send_error(stream, state, ErrorCode::Protocol, "unexpected reply kind");
            Flow::Close
        }
    }
}

/// Suspends the connection's session (if any) to its checkpoint file.
/// Returns true when a checkpoint file was written.
fn suspend_to_disk(conn: &mut Conn, state: &ServeState) -> bool {
    let Some(session) = conn.session.take() else {
        return false;
    };
    let Some(path) = conn.checkpoint.take() else {
        return false;
    };
    let written = save_checkpoint(session.suspend(), &path, state);
    if written {
        state.suspended.fetch_add(1, Ordering::SeqCst);
    }
    written
}

/// Persists a cut checkpoint, counting a failed cut or write in
/// `checkpoint_failures`. Returns true when a checkpoint file was written
/// (a session with nothing to checkpoint writes none, and is no failure).
fn save_checkpoint(
    cut: Result<Option<Checkpoint>, SessionError>,
    path: &Path,
    state: &ServeState,
) -> bool {
    let written = match cut {
        Ok(None) => return false,
        Ok(Some(cp)) => persist_checkpoint(path, &cp.encode()).is_ok(),
        Err(_) => false,
    };
    if !written {
        state.checkpoint_failures.fetch_add(1, Ordering::SeqCst);
    }
    written
}

/// Persists checkpoint bytes atomically: a write-then-rename through a
/// per-thread temp file, so a daemon killed mid-write (or a resume read
/// racing a concurrent suspend of the same session name) can only ever
/// observe a complete old or complete new checkpoint — never a torn one
/// that would poison `--resume`.
fn persist_checkpoint(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp{:?}", std::thread::current().id()));
    let tmp = PathBuf::from(tmp);
    let result = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Cuts and persists a periodic checkpoint without consuming the session.
fn write_checkpoint_file(conn: &mut Conn, state: &ServeState) {
    if let (Some(session), Some(path)) = (conn.session.as_ref(), conn.checkpoint.as_ref()) {
        save_checkpoint(session.checkpoint(), path, state);
    }
}

fn write_reply<W: Write>(stream: &mut W, msg: &Message) -> Flow {
    let frame = encode_frame(msg);
    // A bounded retry absorbs transient WouldBlock bursts (injected or
    // genuine); a stalled client exhausts the budget because the write
    // deadline keeps expiring, and the session is suspended by the
    // caller's Close path.
    let mut backoff = Backoff::new(0x5E12_17, WRITE_RETRIES, Duration::from_millis(1));
    match write_all_with_retry(stream, &frame, &mut backoff).and_then(|_| stream.flush()) {
        Ok(()) => Flow::Continue,
        Err(_) => Flow::Close,
    }
}

fn send_error<W: Write>(stream: &mut W, state: &ServeState, code: ErrorCode, message: &str) {
    state.errors.fetch_add(1, Ordering::SeqCst);
    let _ = write_reply(
        stream,
        &Message::Error {
            code,
            message: message.to_string(),
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_paths_stay_inside_the_directory() {
        let dir = Path::new("/ckpt");
        for name in ["../../etc/passwd", ".hidden", "a/b/c", "", "名前"] {
            let p = checkpoint_path(dir, name);
            assert_eq!(p.parent(), Some(dir), "{name:?} escaped: {p:?}");
            let file = p.file_name().unwrap().to_str().unwrap();
            assert!(file.ends_with(".fckp"), "{file}");
            assert!(!file.starts_with('.'), "{file}");
        }
    }

    /// Regression: distinct names whose sanitized stems coincide must
    /// map to distinct checkpoint files, or concurrent sessions clobber
    /// each other's checkpoints.
    #[test]
    fn distinct_names_never_share_a_checkpoint_file() {
        let dir = Path::new("/ckpt");
        let colliding = [
            ("a/b", "a_b"),
            ("a b", "a_b"),
            ("x:y", "x_y"),
            ("..weird", "__weird"),
            ("", "session"),
        ];
        for (left, right) in colliding {
            assert_ne!(
                checkpoint_path(dir, left),
                checkpoint_path(dir, right),
                "{left:?} vs {right:?}"
            );
        }
        // Same name still maps to the same file (resume depends on it).
        assert_eq!(checkpoint_path(dir, "a/b"), checkpoint_path(dir, "a/b"));
    }

    #[test]
    fn checkpoint_path_carries_the_raw_name_crc() {
        let p = checkpoint_path(Path::new("."), "trace");
        let crc = futrace_util::crc32::crc32(b"trace");
        assert_eq!(
            p.file_name().unwrap().to_str().unwrap(),
            format!("trace-{crc:08x}.fckp")
        );
    }
}
