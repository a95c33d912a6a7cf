//! Session-daemon lifecycle tests driving the `tracetool` binary.
//!
//! The contract under test (DESIGN §S42): for every golden fixture the
//! race verdict a streamed session reports is byte-identical to one-shot
//! `tracetool analyze` — with the fixture's own chunks and re-chunked,
//! across ≥ 4 concurrent client sessions, after a client is killed
//! mid-stream, after the daemon itself dies mid-session and is restarted
//! with `serve --resume`, and under `--lenient` on a damaged copy.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

use futrace_detector::RaceDetector;
use futrace_offline::{framed, trace_events};
use futrace_runtime::engine::run_analysis_recorded;
use futrace_runtime::{trace, Event};
use futrace_util::wire::proto::{read_frame, write_frame, Message};

fn tracetool() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tracetool"))
}

/// Every golden fixture under tests/data, sorted.
fn fixtures() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/data");
    let mut out: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("fixture dir")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "ftrc"))
        .collect();
    out.sort();
    assert!(out.len() >= 4, "expected the golden fixture set in {dir:?}");
    out
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("futrace_serve_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A running daemon plus the buffered reader over its stdout.
struct Daemon {
    child: Child,
    stdout: BufReader<std::process::ChildStdout>,
    addr: String,
}

impl Daemon {
    /// Spawns `tracetool serve --listen 127.0.0.1:0 <extra>` and waits
    /// for the "listening on ADDR" line to learn the picked port.
    fn start(extra: &[&str]) -> Daemon {
        let mut child = tracetool()
            .args(["serve", "--listen", "127.0.0.1:0"])
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

    /// Sends `Shutdown`, waits for exit, and returns (exit code, the
    /// rest of the daemon's stdout — the drain summary).
    fn shutdown(mut self) -> (Option<i32>, String) {
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
        let status = self.child.wait().expect("daemon exit");
        let mut rest = String::new();
        std::io::Read::read_to_string(&mut self.stdout, &mut rest).expect("daemon summary");
        (status.code(), rest)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Everything from the first verdict line onward — the section required
/// to be byte-identical between the one-shot and streamed paths.
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

/// `tracetool client ADDR FILE <extra>` → (stdout, exit code).
fn client(addr: &str, file: &PathBuf, extra: &[&str]) -> (String, Option<i32>) {
    let out = tracetool()
        .arg("client")
        .arg(addr)
        .arg(file)
        .args(extra)
        .output()
        .expect("run client");
    assert!(
        out.stderr.is_empty(),
        "client stderr for {file:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        out.status.code(),
    )
}

#[test]
fn streamed_verdicts_match_one_shot_for_every_fixture() {
    let dir = scratch_dir("oneshot");
    let daemon = Daemon::start(&["--checkpoint-dir", dir.to_str().unwrap()]);

    let mut finished = 0u64;
    for file in fixtures() {
        let (want, want_code) = one_shot(&file);

        // Default chunking (the fixture's own framed chunks) and forced
        // re-chunking both must agree with one-shot.
        for extra in [&[][..], &["--chunk-events", "8"][..]] {
            let (stdout, code) = client(&daemon.addr, &file, extra);
            assert_eq!(
                verdict_section(&stdout),
                want,
                "streamed vs one-shot verdict for {file:?} with {extra:?}"
            );
            assert_eq!(code, want_code, "exit code for {file:?} with {extra:?}");
            finished += 1;
        }
    }

    let (code, summary) = daemon.shutdown();
    assert_eq!(code, Some(0), "daemon drain: {summary}");
    assert!(
        summary.contains(&format!("{finished} session(s) finished")),
        "summary: {summary}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn four_concurrent_clients_share_one_daemon() {
    let dir = scratch_dir("concurrent");
    let daemon = Daemon::start(&["--workers", "4", "--checkpoint-dir", dir.to_str().unwrap()]);

    let files: Vec<PathBuf> = fixtures().into_iter().take(4).collect();
    let expected: Vec<(String, Option<i32>)> = files.iter().map(one_shot).collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = files
            .iter()
            .map(|file| {
                let addr = daemon.addr.clone();
                scope.spawn(move || client(&addr, file, &["--chunk-events", "8"]))
            })
            .collect();
        for ((handle, file), (want, want_code)) in handles.into_iter().zip(&files).zip(&expected) {
            let (stdout, code) = handle.join().expect("client thread");
            assert_eq!(
                verdict_section(&stdout),
                want,
                "concurrent streamed verdict for {file:?}"
            );
            assert_eq!(code, *want_code, "exit code for {file:?}");
        }
    });

    let (code, summary) = daemon.shutdown();
    assert_eq!(code, Some(0), "daemon drain: {summary}");
    assert!(
        summary.contains("4 session(s) finished"),
        "summary: {summary}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Splits a fixture into per-8-event chunk payloads with their event
/// counts, exactly as `client --chunk-events 8` does.
fn chunk_payloads(file: &PathBuf) -> Vec<(u32, Vec<u8>)> {
    let blob = std::fs::read(file).expect("fixture");
    let events: Vec<_> = trace_events(&blob, false)
        .collect::<Result<_, _>>()
        .expect("decode fixture");
    events
        .chunks(8)
        .map(|c| (c.len() as u32, trace::encode(c)))
        .collect()
}

#[test]
fn killed_client_leaves_a_resumable_checkpoint() {
    let dir = scratch_dir("clientkill");
    let daemon = Daemon::start(&["--resume", "--checkpoint-dir", dir.to_str().unwrap()]);
    let file =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/prodcons_racy.ftrc");
    let (want, want_code) = one_shot(&file);

    // Speak the wire protocol by hand: open a session, feed three
    // chunks, then vanish without Finish or Suspend — the "kill -9 the
    // client" case. The daemon must suspend the session to disk on EOF.
    let payloads = chunk_payloads(&file);
    assert!(payloads.len() > 4, "need an interior kill point");
    {
        let mut stream = TcpStream::connect(&daemon.addr).expect("connect");
        write_frame(
            &mut stream,
            &Message::Open {
                checkpoint_every: 0,
                trace_name: "prodcons_racy".to_string(),
            },
        )
        .expect("open");
        assert!(matches!(
            read_frame(&mut stream).expect("hello").expect("hello"),
            Message::Hello {
                resumed_chunks: 0,
                ..
            }
        ));
        for (seq, (event_count, payload)) in payloads.iter().take(3).enumerate() {
            write_frame(
                &mut stream,
                &Message::Chunk {
                    seq: seq as u64,
                    event_count: *event_count,
                    payload: payload.clone(),
                },
            )
            .expect("chunk");
            assert!(matches!(
                read_frame(&mut stream).expect("delta").expect("delta"),
                Message::VerdictDelta { .. }
            ));
        }
        // Drop: abrupt disconnect mid-stream.
    }

    // The daemon suspends on EOF asynchronously; wait for the file.
    let checkpoint = futrace_service::checkpoint_path(&dir, "prodcons_racy");
    for _ in 0..100 {
        if checkpoint.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    assert!(checkpoint.exists(), "daemon never wrote {checkpoint:?}");

    // A fresh client re-streams the full trace under the same session
    // name; the daemon resumes from the checkpoint and the final
    // verdict is byte-identical to an uninterrupted one-shot run.
    let (stdout, code) = client(
        &daemon.addr,
        &file,
        &["--chunk-events", "8", "--name", "prodcons_racy"],
    );
    assert!(
        stdout.contains("resumed: daemon skipped"),
        "expected a resume notice:\n{stdout}"
    );
    assert_eq!(verdict_section(&stdout), want, "resumed verdict");
    assert_eq!(code, want_code);
    assert!(
        !checkpoint.exists(),
        "finish must delete the consumed checkpoint"
    );

    let (dcode, _) = daemon.shutdown();
    assert_eq!(dcode, Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn killed_daemon_resumes_with_byte_identical_report() {
    let dir = scratch_dir("daemonkill");
    let file = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/futtree_racy.ftrc");
    let (want, want_code) = one_shot(&file);

    // First daemon: the client streams three chunks and suspends, so a
    // checkpoint is durably on disk; then the daemon is killed outright
    // (no drain) — the mid-session death case.
    let daemon_a = Daemon::start(&["--checkpoint-dir", dir.to_str().unwrap()]);
    let (stdout, code) = client(
        &daemon_a.addr,
        &file,
        &[
            "--chunk-events",
            "8",
            "--name",
            "futtree",
            "--suspend-after",
            "3",
        ],
    );
    assert_eq!(code, Some(0), "suspended client exits clean:\n{stdout}");
    assert!(
        stdout.contains("suspended after 3 chunk(s)"),
        "suspension notice:\n{stdout}"
    );
    assert!(
        futrace_service::checkpoint_path(&dir, "futtree").exists(),
        "checkpoint on disk"
    );
    drop(daemon_a); // SIGKILL, no drain

    // Second daemon, same checkpoint dir, --resume: the re-streamed
    // session must skip the completed prefix and report the same bytes.
    let daemon_b = Daemon::start(&["--resume", "--checkpoint-dir", dir.to_str().unwrap()]);
    let (stdout, code) = client(
        &daemon_b.addr,
        &file,
        &["--chunk-events", "8", "--name", "futtree"],
    );
    assert!(
        stdout.contains("resumed: daemon skipped"),
        "expected a resume notice:\n{stdout}"
    );
    assert_eq!(verdict_section(&stdout), want, "resumed verdict");
    assert_eq!(code, want_code);

    let (dcode, summary) = daemon_b.shutdown();
    assert_eq!(dcode, Some(0), "daemon drain: {summary}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn draining_daemon_suspends_inflight_sessions() {
    let dir = scratch_dir("drain");
    let daemon = Daemon::start(&["--checkpoint-dir", dir.to_str().unwrap()]);
    let file = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/actor_racy.ftrc");

    // Park a half-fed session on the daemon (no Finish yet), then drain.
    let mut stream = TcpStream::connect(&daemon.addr).expect("connect");
    write_frame(
        &mut stream,
        &Message::Open {
            checkpoint_every: 0,
            trace_name: "parked".to_string(),
        },
    )
    .expect("open");
    read_frame(&mut stream).expect("hello");
    for (seq, (event_count, payload)) in chunk_payloads(&file).iter().take(3).enumerate() {
        write_frame(
            &mut stream,
            &Message::Chunk {
                seq: seq as u64,
                event_count: *event_count,
                payload: payload.clone(),
            },
        )
        .expect("chunk");
        read_frame(&mut stream).expect("delta");
    }

    let (code, summary) = daemon.shutdown();
    assert_eq!(code, Some(0), "drain exit: {summary}");
    // The parked session was suspended, not dropped: the drain summary
    // counts it and its checkpoint file exists for `serve --resume`.
    assert!(summary.contains("1 suspended"), "summary: {summary}");
    assert!(
        futrace_service::checkpoint_path(&dir, "parked").exists(),
        "parked checkpoint"
    );
    // The parked client sees the Suspended notice.
    match read_frame(&mut stream) {
        Ok(Some(Message::Suspended { chunks })) => assert_eq!(chunks, 3),
        other => panic!("expected Suspended, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_checkpoint_writes_are_counted_in_the_drain_summary() {
    let dir = scratch_dir("ckptfail");
    // A directory where the session's checkpoint file belongs makes the
    // atomic rename fail, whoever runs the daemon.
    std::fs::create_dir_all(futrace_service::checkpoint_path(&dir, "blocked"))
        .expect("block the checkpoint path");
    let daemon = Daemon::start(&["--checkpoint-dir", dir.to_str().unwrap()]);
    let file =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/prodcons_racy.ftrc");

    // Three periodic checkpoints and the suspension all fail to persist.
    let (stdout, code) = client(
        &daemon.addr,
        &file,
        &[
            "--chunk-events",
            "8",
            "--name",
            "blocked",
            "--checkpoint-every",
            "1",
            "--suspend-after",
            "3",
        ],
    );
    assert_eq!(code, Some(0), "client:\n{stdout}");
    assert!(
        stdout.contains("suspended after 0 chunk(s)"),
        "nothing was checkpointed:\n{stdout}"
    );

    let (code, summary) = daemon.shutdown();
    assert_eq!(code, Some(0), "drain exit: {summary}");
    assert!(summary.contains("0 suspended"), "summary: {summary}");
    assert!(
        summary.contains("shed busy, 4 checkpoint failure(s)"),
        "summary: {summary}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A copy of `file` framed as three chunks, the middle one the longest
/// run of accesses in the trace, with that chunk's payload damaged after
/// its CRC was taken.
fn copy_with_a_damaged_access_chunk(file: &PathBuf) -> Vec<u8> {
    let blob = std::fs::read(file).expect("fixture");
    let events: Vec<Event> = trace_events(&blob, false)
        .collect::<Result<_, _>>()
        .expect("decode fixture");
    let (mut run, mut start) = (0..0, 0);
    for (i, e) in events.iter().enumerate() {
        if !matches!(e, Event::Read(..) | Event::Write(..)) {
            start = i + 1;
        } else if i + 1 - start > run.len() {
            run = start..i + 1;
        }
    }
    assert!(run.len() >= 2, "{file:?} needs a run of accesses");
    let mut copy = framed::MAGIC.to_vec();
    copy.push(framed::VERSION);
    let parts = [
        &events[..run.start],
        &events[run.clone()],
        &events[run.end..],
    ];
    for (k, part) in parts.into_iter().enumerate() {
        let mut payload = trace::encode(part);
        let header = framed::chunk_header(&payload, part.len() as u32);
        if k == 1 {
            payload[1] ^= 0x40;
        }
        copy.extend_from_slice(&header);
        copy.extend_from_slice(&payload);
    }
    copy
}

#[test]
fn lenient_client_skips_the_chunks_lenient_analyze_skips() {
    let dir = scratch_dir("lenient");
    let fixture =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/prodcons_racy.ftrc");
    let file = dir.join("damaged.ftrc");
    std::fs::write(&file, copy_with_a_damaged_access_chunk(&fixture)).expect("write copy");

    let skipped = "skipped 1 damaged chunk(s)";
    let lenient = analyze_warned(&file, &["--lenient"], skipped);

    let daemon = Daemon::start(&["--checkpoint-dir", dir.to_str().unwrap()]);
    let mut command = tracetool();
    command
        .arg("client")
        .arg(&daemon.addr)
        .arg(&file)
        .arg("--lenient");
    assert_eq!(
        warned(command, skipped),
        lenient,
        "lenient streamed vs one-shot"
    );

    // Without --lenient the client refuses the damaged chunk.
    let strict = tracetool()
        .arg("client")
        .arg(&daemon.addr)
        .arg(&file)
        .output()
        .expect("run client");
    let stderr = String::from_utf8_lossy(&strict.stderr);
    assert_eq!(strict.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("corrupt"), "{stderr}");

    let (dcode, summary) = daemon.shutdown();
    assert_eq!(dcode, Some(0), "daemon drain: {summary}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_miscounted_chunk_fails_the_stream_as_it_fails_analyze() {
    // Chunk 0 of prodcons_racy declares one event fewer than it holds.
    // The count is outside the CRC, so the chunk is CRC-valid; analyze
    // and every client mode must refuse it with the same error.
    let dir = scratch_dir("miscount");
    let fixture =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/prodcons_racy.ftrc");
    let mut blob = std::fs::read(fixture).expect("fixture");
    let at = framed::HEADER_LEN + 4;
    let declared = u32::from_le_bytes(blob[at..at + 4].try_into().unwrap());
    blob[at..at + 4].copy_from_slice(&(declared - 1).to_le_bytes());
    let file = dir.join("miscounted.ftrc");
    std::fs::write(&file, &blob).expect("write copy");

    let analyze = tracetool()
        .arg("analyze")
        .arg(&file)
        .output()
        .expect("run analyze");
    let stderr = String::from_utf8_lossy(&analyze.stderr);
    assert_eq!(analyze.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("event count mismatch"), "{stderr}");

    let daemon = Daemon::start(&["--checkpoint-dir", dir.to_str().unwrap()]);
    for extra in [&[][..], &["--chunk-events", "8"][..]] {
        let out = tracetool()
            .arg("client")
            .arg(&daemon.addr)
            .arg(&file)
            .args(extra)
            .output()
            .expect("run client");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{extra:?}: {stderr}");
        assert!(
            stderr.contains("event count mismatch"),
            "{extra:?}: {stderr}"
        );
    }
    // The session that received the chunk failed on the daemon; the
    // re-chunking client refused it before opening one.
    let (dcode, summary) = daemon.shutdown();
    assert_eq!(dcode, Some(1), "daemon drain: {summary}");
    assert!(summary.contains("0 session(s) finished"), "{summary}");
    assert!(summary.contains(" 1 error(s)"), "{summary}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A framed blob of one CRC-valid chunk per `(payload, declared events)`.
fn framed_blob(chunks: &[(Vec<u8>, usize)]) -> Vec<u8> {
    let mut blob = framed::MAGIC.to_vec();
    blob.push(framed::VERSION);
    for (payload, declared) in chunks {
        blob.extend_from_slice(&framed::chunk_header(payload, *declared as u32));
        blob.extend_from_slice(payload);
    }
    blob
}

/// Runs `command` → (verdict section, the stderr line naming `warning`,
/// which must be there, exit code).
fn warned(mut command: Command, warning: &str) -> (String, String, Option<i32>) {
    let out = command.output().expect("run tracetool");
    let err = String::from_utf8_lossy(&out.stderr);
    let line = err.lines().find(|l| l.contains(warning));
    let line = line.unwrap_or_default().to_string();
    assert!(!line.is_empty(), "{command:?}: no {warning:?}:\n{err}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let verdict = verdict_section(&stdout).to_string();
    (verdict, line, out.status.code())
}

/// `tracetool analyze FILE <extra>`, through [`warned`].
fn analyze_warned(file: &PathBuf, extra: &[&str], warning: &str) -> (String, String, Option<i32>) {
    let mut command = tracetool();
    command.arg("analyze").arg(file).args(extra);
    warned(command, warning)
}

#[test]
fn every_lenient_path_reads_the_chunks_the_trace_reader_keeps() {
    let dir = scratch_dir("one_rule");
    let fixture =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/prodcons_racy.ftrc");
    let events: Vec<Event> = trace_events(&std::fs::read(&fixture).expect("fixture"), false)
        .collect::<Result<_, _>>()
        .expect("decode fixture");

    // A trace cut inside its last chunk: lenient analysis salvages the
    // complete chunks before the cut, serially and sharded alike.
    let mut cut = framed_blob(
        &events
            .chunks(16)
            .map(|c| (trace::encode(c), c.len()))
            .collect::<Vec<_>>(),
    );
    cut.truncate(cut.len() - 5);
    let file = dir.join("truncated.ftrc");
    std::fs::write(&file, &cut).expect("write truncated copy");
    let salvage = "intact event(s) before the damage";
    let serial = analyze_warned(&file, &["--lenient"], salvage);
    let kept = (events.len() - 1) / 16 * 16;
    assert!(
        serial.1.contains(&format!("the {kept} intact event(s)")),
        "{}",
        serial.1
    );
    for extra in [
        &["--lenient", "--shards", "2"][..],
        &["--lenient", "--shards", "2", "--checkpoint-every", "1"],
    ] {
        assert_eq!(analyze_warned(&file, extra, salvage), serial, "{extra:?}");
    }
    // The lenient client cuts the trace at the same chunk, re-chunked or
    // not, and says so with the same event count.
    let daemon = Daemon::start(&["--checkpoint-dir", dir.to_str().unwrap()]);
    for extra in [&["--lenient"][..], &["--lenient", "--chunk-events", "8"]] {
        let mut command = tracetool();
        command.arg("client").arg(&daemon.addr);
        command.arg(&file).args(extra);
        assert_eq!(warned(command, salvage), serial, "client {extra:?}");
    }
    let (dcode, summary) = daemon.shutdown();
    assert_eq!(dcode, Some(0), "daemon drain: {summary}");
    // So does a lenient corpus run: its one trace is checked, not damaged,
    // with the same verdict and event count.
    let corpus = dir.join("truncated-corpus");
    std::fs::create_dir_all(&corpus).expect("corpus dir");
    std::fs::copy(&file, corpus.join("truncated.ftrc")).expect("copy into corpus");
    let out = tracetool()
        .arg("corpus")
        .arg(&corpus)
        .arg("--out")
        .arg(dir.join("truncated-corpus-out"))
        .args(["--detectors", "dtrg", "--lenient"])
        .output()
        .expect("run corpus");
    assert_eq!(out.status.code(), serial.2, "corpus exit");
    let report = std::fs::read_to_string(dir.join("truncated-corpus-out/report.json"));
    let report = report.expect("report");
    assert!(
        report.contains(&format!("\"events\": {{\"p50\": {kept}, ")),
        "corpus events, want {kept}:\n{report}"
    );

    // A CRC-valid chunk, an access run whose payload stops decoding after
    // its first half, chosen so that keeping that half would change the
    // verdict: every lenient path drops the whole chunk.
    let race_count = |events: &[Event]| {
        run_analysis_recorded(events, RaceDetector::new())
            .report
            .report
            .total_detected
    };
    let is_access = |e: &Event| matches!(e, Event::Read(..) | Event::Write(..));
    let runs = events.chunk_by(|a, b| is_access(a) && is_access(b));
    let mut at = 0;
    let mut victim = None;
    for run in runs {
        let half = run.len() / 2;
        let dropped = [&events[..at], &events[at + run.len()..]].concat();
        let leading = [&events[..at + half], &events[at + run.len()..]].concat();
        if half > 0 && is_access(&run[0]) && race_count(&dropped) != race_count(&leading) {
            victim = Some(at..at + run.len());
            break;
        }
        at += run.len();
    }
    let run = victim.expect("an access run whose first half holds a race");
    let mut damaged = trace::encode(&events[run.start..run.start + run.len() / 2]);
    damaged.push(99); // no event has tag 99
    let blob = framed_blob(&[
        (trace::encode(&events[..run.start]), run.start),
        (damaged, run.len()),
        (trace::encode(&events[run.end..]), events.len() - run.end),
    ]);
    let file = dir.join("undecodable.ftrc");
    std::fs::write(&file, &blob).expect("write damaged copy");
    let skipped = "skipped 1 damaged chunk(s)";
    let lenient = analyze_warned(&file, &["--lenient"], skipped);
    let want_code = lenient.2;
    let sharded = analyze_warned(&file, &["--lenient", "--shards", "2"], skipped);
    assert_eq!(sharded, lenient, "sharded");

    // The lenient client drops the same chunk, re-chunked or not, and
    // says so.
    let daemon = Daemon::start(&["--checkpoint-dir", dir.to_str().unwrap()]);
    for extra in [&["--lenient"][..], &["--lenient", "--chunk-events", "8"]] {
        let mut command = tracetool();
        command.arg("client").arg(&daemon.addr);
        command.arg(&file).args(extra);
        assert_eq!(warned(command, skipped), lenient, "client {extra:?}");
    }
    // Strict, every path fails on that chunk's damage. The daemon, which
    // the payload-forwarding client leaves to decode the chunk, counts
    // its session as an error.
    for (command, extra) in [
        ("analyze", &[][..]),
        ("analyze", &["--shards", "2"]),
        ("client", &[]),
        ("client", &["--chunk-events", "8"]),
    ] {
        let mut run = tracetool();
        run.arg(command);
        if command == "client" {
            run.arg(&daemon.addr);
        }
        let out = run.arg(&file).args(extra).output().expect("run strict");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let ctx = format!("strict {command} {extra:?}: {stderr}");
        assert_eq!(out.status.code(), Some(1), "{ctx}");
        assert!(stderr.contains("unknown tag"), "{ctx}");
    }
    let (dcode, summary) = daemon.shutdown();
    assert_eq!(dcode, Some(1), "daemon drain: {summary}");
    assert!(summary.contains("2 session(s) finished"), "{summary}");
    assert!(summary.contains("1 error(s)"), "{summary}");

    // A lenient corpus run checks the same events: every percentile of
    // its one trace's event count is the intact events'.
    let corpus = dir.join("corpus");
    std::fs::create_dir_all(&corpus).expect("corpus dir");
    std::fs::copy(&file, corpus.join("undecodable.ftrc")).expect("copy into corpus");
    let out = tracetool()
        .arg("corpus")
        .arg(&corpus)
        .arg("--out")
        .arg(dir.join("corpus-out"))
        .args(["--detectors", "dtrg", "--lenient"])
        .output()
        .expect("run corpus");
    assert_eq!(out.status.code(), want_code, "corpus exit");
    let report = std::fs::read_to_string(dir.join("corpus-out/report.json")).expect("report");
    let intact = events.len() - run.len();
    assert!(
        report.contains(&format!("\"events\": {{\"p50\": {intact}, ")),
        "corpus events, want {intact}:\n{report}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
