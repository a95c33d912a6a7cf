//! Chaos harness for the analysis daemon (DESIGN §S42).
//!
//! The contract under test: with seeded network fault injection, ≥ 4
//! concurrent reconnecting clients, a daemon SIGKILL mid-stream, and a
//! `serve --resume` restart on the same port, every surviving session's
//! final verdict is byte-identical to one-shot `tracetool analyze`.
//! Also covered: idle eviction suspends a stalled session to a
//! reopenable checkpoint, an over-quota `Open` is shed with a
//! structured `Busy` (an exit-code-5 client failure, never a hang), and
//! a chunk that panics the analysis fails only its own session.

use std::io::{BufRead, BufReader, Read as _};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use futrace_benchsuite::randomprog::{self, GenParams};
use futrace_offline::{trace_events, StreamWriter};
use futrace_runtime::{replay, run_serial, trace, Event, EventLog};
use futrace_util::ids::TaskId;
use futrace_util::rng::splitmix64;
use futrace_util::wire::proto::{read_frame, write_frame, ErrorCode, Message};

fn tracetool() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tracetool"))
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("futrace_chaos_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Everything from the first verdict line onward.
fn verdict_section(stdout: &str) -> &str {
    let at = stdout
        .find("determinacy")
        .unwrap_or_else(|| panic!("no verdict in:\n{stdout}"));
    let line_start = stdout[..at].rfind('\n').map_or(0, |i| i + 1);
    &stdout[line_start..]
}

/// One-shot `tracetool analyze FILE` → (verdict section, exit code).
fn one_shot(file: &PathBuf) -> (String, Option<i32>) {
    let out = tracetool()
        .arg("analyze")
        .arg(file)
        .output()
        .expect("run analyze");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (verdict_section(&stdout).to_string(), out.status.code())
}

/// Writes a generated trace big enough that streaming it takes long
/// enough for mid-stream chaos (daemon kill, connection cuts) to land.
fn gen_trace(path: &PathBuf, seed: u64, min_bytes: usize) {
    let mut programs = 128;
    loop {
        let mut state = seed;
        let progs: Vec<_> = (0..programs)
            .map(|_| randomprog::generate(splitmix64(&mut state), &GenParams::future_heavy()))
            .collect();
        let mut log = EventLog::new();
        run_serial(&mut log, |ctx| {
            for prog in &progs {
                randomprog::execute(ctx, prog);
            }
        });
        let mut w = StreamWriter::with_chunk_bytes(Vec::new(), 4096).expect("writing to a Vec");
        replay(&log.events, &mut w);
        let (blob, _) = w.finish().expect("writing to a Vec");
        if blob.len() >= min_bytes || programs >= 8192 {
            std::fs::write(path, &blob).expect("write trace");
            return;
        }
        programs *= 2;
    }
}

/// Re-chunked payloads, with their event counts, for hand-rolled wire
/// conversations.
fn chunk_payloads(file: &PathBuf) -> Vec<(u32, Vec<u8>)> {
    let blob = std::fs::read(file).expect("read fixture");
    let events: Vec<_> = trace_events(&blob, false)
        .collect::<Result<_, _>>()
        .expect("decode fixture");
    events
        .chunks(8)
        .map(|c| (c.len() as u32, trace::encode(c)))
        .collect()
}

/// Grabs a port the OS considers free right now. The tiny window between
/// drop and reuse is acceptable for a test; the daemon must sit on a
/// *fixed* port so clients can reconnect across its restart.
fn free_addr() -> String {
    let l = TcpListener::bind("127.0.0.1:0").expect("probe port");
    let addr = l.local_addr().expect("probe addr").to_string();
    drop(l);
    addr
}

/// A running `tracetool serve`, killed when dropped, so a failing test
/// leaves no daemon behind.
struct Daemon {
    child: Child,
    stdout: BufReader<std::process::ChildStdout>,
    /// The bound address the banner reported (resolving a `:0` port).
    addr: String,
}

impl Daemon {
    /// Spawns `tracetool serve --listen ADDR <extra>` and waits for the
    /// listening banner, so the daemon is known to be accepting.
    fn start(addr: &str, extra: &[&str]) -> Daemon {
        let mut child = tracetool()
            .args(["serve", "--listen", addr])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn daemon");
        let mut stdout = BufReader::new(child.stdout.take().expect("daemon stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("read listen line");
        let addr = line
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected daemon banner: {line:?}"))
            .trim()
            .to_string();
        Daemon {
            child,
            stdout,
            addr,
        }
    }

    /// SIGKILLs the daemon and reaps it.
    fn kill(&mut self) {
        self.child.kill().expect("SIGKILL daemon");
        let _ = self.child.wait();
    }

    /// Sends `Shutdown`, waits for the drain, and returns the rest of the
    /// daemon's stdout (the drain summary).
    fn shutdown(mut self) -> String {
        let out = tracetool()
            .args(["client", &self.addr, "--shutdown"])
            .output()
            .expect("run client --shutdown");
        assert_eq!(
            out.status.code(),
            Some(0),
            "shutdown failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        wait_deadline(&mut self.child, "daemon drain", Duration::from_secs(60));
        let mut rest = String::new();
        self.stdout
            .read_to_string(&mut rest)
            .expect("daemon summary");
        rest
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Waits for a child with a hard deadline — a hung client is itself a
/// test failure, never a wedged CI job.
fn wait_deadline(child: &mut Child, what: &str, limit: Duration) -> std::process::ExitStatus {
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        if start.elapsed() > limit {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{what} hung past {limit:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn read_piped(child: &mut Child) -> (String, String) {
    let mut stdout = String::new();
    let mut stderr = String::new();
    if let Some(mut s) = child.stdout.take() {
        s.read_to_string(&mut stdout).expect("client stdout");
    }
    if let Some(mut s) = child.stderr.take() {
        s.read_to_string(&mut stderr).expect("client stderr");
    }
    (stdout, stderr)
}

/// The headline chaos scenario: four clients stream big traces with
/// seeded socket faults and a reconnect budget; the daemon comes up
/// *after* the clients start dialing (forcing a reconnect on every one),
/// is SIGKILLed once periodic checkpoints prove sessions are mid-stream,
/// and restarts with `--resume` on the same port. Every client must land
/// the byte-identical one-shot verdict.
#[test]
fn chaos_clients_survive_faults_and_a_daemon_sigkill() {
    const CLIENTS: usize = 4;
    let dir = scratch_dir("kill");
    let ckpt = dir.join("ckpt");
    std::fs::create_dir_all(&ckpt).expect("ckpt dir");

    // Sizing: each periodic checkpoint cut snapshots the session's
    // detector, so its cost grows with the detector's state, not with
    // the chunks fed. ~48 KiB at --checkpoint-every 100 keeps a session
    // under a second while still spanning hundreds of chunk round-trips
    // for chaos to land in.
    let mut traces = Vec::new();
    for i in 0..CLIENTS {
        let path = dir.join(format!("chaos_{i}.ftrc"));
        gen_trace(&path, 0xC4A05 + i as u64, 48 * 1024);
        let want = one_shot(&path);
        traces.push((path, want));
    }

    let addr = free_addr();
    let ckpt_flag = ckpt.to_str().unwrap().to_string();
    let serve_args = ["--checkpoint-dir", ckpt_flag.as_str(), "--resume"];

    // Clients first: every one dials a daemon that is not up yet, so
    // every one must exercise the reconnect path to succeed at all.
    let mut clients: Vec<Child> = traces
        .iter()
        .enumerate()
        .map(|(i, (path, _))| {
            tracetool()
                .args(["client", &addr])
                .arg(path)
                .args(["--name", &format!("chaos_{i}")])
                .args(["--chunk-events", "8", "--checkpoint-every", "100"])
                .args([
                    "--retries",
                    "16",
                    "--inject-net",
                    &(1000 + i as u64).to_string(),
                ])
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn client")
        })
        .collect();
    std::thread::sleep(Duration::from_millis(300));

    let mut daemon = Daemon::start(&addr, &serve_args);

    // Wait until periodic checkpoints appear — positive evidence that
    // sessions are mid-stream — then SIGKILL the daemon under them.
    let start = Instant::now();
    loop {
        let ckpts = std::fs::read_dir(&ckpt)
            .expect("ckpt dir")
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .is_some_and(|x| x == "fckp")
            })
            .count();
        if ckpts >= 2 {
            break;
        }
        // All clients already done: the machine outran the kill window;
        // the reconnect-at-startup half of the scenario still holds.
        if clients
            .iter_mut()
            .all(|c| c.try_wait().expect("try_wait").is_some())
        {
            break;
        }
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "no periodic checkpoints appeared"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    daemon.kill();

    // Restart on the same port with --resume: clients redial, reopen
    // their session names, and the daemon picks up from the periodic
    // checkpoints (or recomputes — the verdict is identical either way).
    let daemon2 = Daemon::start(&addr, &serve_args);

    for (i, mut client) in clients.drain(..).enumerate() {
        let status = wait_deadline(
            &mut client,
            &format!("client {i}"),
            Duration::from_secs(120),
        );
        let (stdout, stderr) = read_piped(&mut client);
        let (want_verdict, want_code) = &traces[i].1;
        assert_eq!(
            status.code(),
            *want_code,
            "client {i} exit code; stderr:\n{stderr}\nstdout:\n{stdout}"
        );
        assert_eq!(
            verdict_section(&stdout),
            want_verdict,
            "client {i} verdict diverged from one-shot analyze"
        );
        assert!(
            stdout.contains("reconnected: verdict reached on attempt"),
            "client {i} never reconnected — chaos was inert:\n{stdout}"
        );
        assert!(stderr.is_empty(), "client {i} stderr:\n{stderr}");
    }

    let summary = daemon2.shutdown();
    assert!(
        summary.contains("session(s) finished"),
        "missing drain summary:\n{summary}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Idle eviction: a client that opens a session, streams a chunk, and
/// then goes silent is *suspended to its checkpoint* (told so with a
/// `Suspended` frame), and a later client under the same name resumes it
/// to the one-shot verdict.
#[test]
fn idle_stalled_session_is_suspended_to_a_reopenable_checkpoint() {
    let dir = scratch_dir("idle");
    let file = dir.join("idle.ftrc");
    gen_trace(&file, 0x1D7E, 4 * 1024);
    let (want_verdict, want_code) = one_shot(&file);

    let ckpt_flag = dir.to_str().unwrap().to_string();
    let daemon = Daemon::start(
        "127.0.0.1:0",
        &[
            "--checkpoint-dir",
            &ckpt_flag,
            "--resume",
            "--idle-timeout-ms",
            "150",
        ],
    );
    let addr = daemon.addr.clone();

    let payloads = chunk_payloads(&file);
    assert!(payloads.len() >= 2, "fixture must span several chunks");
    {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        write_frame(
            &mut stream,
            &Message::Open {
                checkpoint_every: 0,
                trace_name: "parked_idle".to_string(),
            },
        )
        .expect("send open");
        assert!(matches!(
            read_frame(&mut stream).expect("hello").expect("hello"),
            Message::Hello { .. }
        ));
        // Feed two chunks: a session needs ≥ 2 before it has anything
        // checkpointable to suspend to.
        for (seq, (event_count, payload)) in payloads.iter().take(2).enumerate() {
            write_frame(
                &mut stream,
                &Message::Chunk {
                    seq: seq as u64,
                    event_count: *event_count,
                    payload: payload.clone(),
                },
            )
            .expect("send chunk");
            assert!(matches!(
                read_frame(&mut stream).expect("delta").expect("delta"),
                Message::VerdictDelta { .. }
            ));
        }

        // Stall. The daemon must evict us to a checkpoint and say so —
        // a Suspended frame, not a dropped connection.
        match read_frame(&mut stream)
            .expect("eviction notice")
            .expect("eviction notice")
        {
            Message::Suspended { chunks } => assert_eq!(chunks, 2, "two chunks were fed"),
            other => panic!("expected idle eviction Suspended, got {other:?}"),
        }
    }
    let checkpoint = futrace_service::checkpoint_path(&dir, "parked_idle");
    assert!(checkpoint.exists(), "idle eviction must leave a checkpoint");

    // Reopening under the same name resumes the parked work.
    let out = tracetool()
        .args(["client", &addr])
        .arg(&file)
        .args(["--chunk-events", "8", "--name", "parked_idle"])
        .output()
        .expect("run resuming client");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), want_code, "resumed exit code");
    assert!(
        stdout.contains("resumed: daemon skipped"),
        "expected a resume notice:\n{stdout}"
    );
    assert_eq!(verdict_section(&stdout), want_verdict, "resumed verdict");
    assert!(!checkpoint.exists(), "finish must delete the checkpoint");

    let summary = daemon.shutdown();
    assert!(
        summary.contains("(1 idle-evicted)"),
        "idle eviction missing from drain summary:\n{summary}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Load shedding: past `--max-sessions`, an `Open` is answered with a
/// structured `Busy` — the client fails fast with exit code 5 (or rides
/// its retry budget), and never hangs.
#[test]
fn over_quota_open_is_shed_with_a_structured_busy() {
    let dir = scratch_dir("busy");
    let file = dir.join("busy.ftrc");
    gen_trace(&file, 0xB054, 4 * 1024);
    let (want_verdict, want_code) = one_shot(&file);

    let ckpt_flag = dir.to_str().unwrap().to_string();
    let daemon = Daemon::start(
        "127.0.0.1:0",
        &["--checkpoint-dir", &ckpt_flag, "--max-sessions", "1"],
    );
    let addr = daemon.addr.clone();

    // Occupy the only session slot with a hand-rolled client.
    let mut hog = TcpStream::connect(&addr).expect("connect hog");
    hog.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    write_frame(
        &mut hog,
        &Message::Open {
            checkpoint_every: 0,
            trace_name: "hog".to_string(),
        },
    )
    .expect("open hog");
    assert!(matches!(
        read_frame(&mut hog).expect("hello").expect("hello"),
        Message::Hello { .. }
    ));

    // Single-shot second client: structured Busy, exit code 5, fast.
    let mut shed = tracetool()
        .args(["client", &addr])
        .arg(&file)
        .args(["--name", "shed", "--retries", "0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn shed client");
    let status = wait_deadline(&mut shed, "shed client", Duration::from_secs(30));
    let (_, stderr) = read_piped(&mut shed);
    assert_eq!(status.code(), Some(5), "busy must map to exit 5:\n{stderr}");
    assert!(
        stderr.contains("daemon busy: retry after"),
        "expected the structured busy error:\n{stderr}"
    );

    // A bounded retry budget that cannot outlast the hog also exits 5.
    let mut patient = tracetool()
        .args(["client", &addr])
        .arg(&file)
        .args([
            "--name",
            "patient",
            "--retries",
            "2",
            "--retry-budget-ms",
            "400",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn patient client");
    let status = wait_deadline(&mut patient, "patient client", Duration::from_secs(30));
    let (_, stderr) = read_piped(&mut patient);
    assert_eq!(
        status.code(),
        Some(5),
        "budget exhaustion must map to exit 5:\n{stderr}"
    );
    assert!(
        stderr.contains("daemon busy: retry after"),
        "busy must stay structured through the retry loop:\n{stderr}"
    );

    // Release the slot; a retrying client now gets through.
    write_frame(&mut hog, &Message::Finish).expect("finish hog");
    assert!(matches!(
        read_frame(&mut hog).expect("final").expect("final"),
        Message::Final { .. }
    ));
    drop(hog);

    let mut winner = tracetool()
        .args(["client", &addr])
        .arg(&file)
        .args(["--name", "winner", "--retries", "8"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn winner client");
    let status = wait_deadline(&mut winner, "winner client", Duration::from_secs(60));
    let (stdout, stderr) = read_piped(&mut winner);
    assert_eq!(status.code(), want_code, "winner exit; stderr:\n{stderr}");
    assert_eq!(verdict_section(&stdout), want_verdict, "winner verdict");

    let summary = daemon.shutdown();
    assert!(
        summary.contains("shed busy") && !summary.contains(" 0 shed busy"),
        "busy rejections missing from drain summary:\n{summary}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A CRC-valid chunk that ends a task no event created panics the
/// detector. The panic must fail only that session, with a structured
/// `Analysis` error, and a one-worker daemon must go on to serve the next
/// session to the one-shot verdict.
#[test]
fn a_panicking_chunk_fails_only_its_own_session() {
    let dir = scratch_dir("panic");
    let file = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/futtree_racy.ftrc");
    let (want_verdict, want_code) = one_shot(&file);
    let ckpt_flag = dir.to_str().unwrap().to_string();
    let daemon = Daemon::start(
        "127.0.0.1:0",
        &["--checkpoint-dir", &ckpt_flag, "--workers", "1"],
    );
    let addr = daemon.addr.clone();

    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let open = Message::Open {
        checkpoint_every: 1,
        trace_name: "crafted".to_string(),
    };
    write_frame(&mut stream, &open).expect("send open");
    assert!(matches!(
        read_frame(&mut stream).expect("hello"),
        Some(Message::Hello { .. })
    ));
    let payload = trace::encode(&[Event::TaskEnd(TaskId(50))]);
    let chunk = Message::Chunk {
        seq: 0,
        event_count: 1,
        payload,
    };
    write_frame(&mut stream, &chunk).expect("send chunk");
    match read_frame(&mut stream).expect("reply") {
        Some(Message::Error {
            code: ErrorCode::Analysis,
            ..
        }) => {}
        other => panic!("expected an Analysis error, got {other:?}"),
    }
    drop(stream);

    let mut next = tracetool()
        .args(["client", &addr])
        .arg(&file)
        .args(["--name", "next"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn client");
    let status = wait_deadline(&mut next, "client after the panic", Duration::from_secs(30));
    let (stdout, stderr) = read_piped(&mut next);
    assert_eq!(status.code(), want_code, "stderr:\n{stderr}");
    assert_eq!(verdict_section(&stdout), want_verdict);

    let summary = daemon.shutdown();
    assert!(
        summary.contains("1 session(s) finished, 0 suspended") && summary.contains("1 error(s)"),
        "summary:\n{summary}"
    );
    assert!(
        !futrace_service::checkpoint_path(&dir, "crafted").exists(),
        "the panicked session must not be suspended to disk"
    );
    std::fs::remove_dir_all(&dir).ok();
}
