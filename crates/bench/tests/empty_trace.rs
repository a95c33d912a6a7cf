//! An empty trace — a valid FTRC header with zero chunks — is not damage:
//! `analyze`, `info`, and `verify` must all exit 0, say explicitly that
//! the trace holds no events, and report a clean verdict. The note is
//! printed *before* the verdict section and byte-identically across the
//! serial, sharded, and supervised analyze paths (CI diffs that section
//! between paths). A zero-byte file has no header, so it is not a trace
//! at all: every command fails on it.

use std::path::PathBuf;
use std::process::Command;

const NOTE: &str = "note: trace holds no events; verdict is trivially clean";
const CLEAN_VERDICT: &str = "no determinacy races: the traced program is determinate";

fn tracetool() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tracetool"))
}

fn scratch_trace(tag: &str, bytes: &[u8]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("futrace_empty_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("empty.ftrc");
    std::fs::write(&path, bytes).expect("write trace");
    path
}

/// Runs tracetool, asserting exit 0, and returns stdout.
fn run_ok(args: &[&str], path: &PathBuf) -> String {
    let mut cmd = tracetool();
    cmd.arg(args[0]).arg(path).args(&args[1..]);
    let out = cmd.output().expect("run tracetool");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(
        out.status.code(),
        Some(0),
        "args {args:?}\nstdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// Everything from the first line of the verdict section onward — the
/// part CI requires to be byte-identical between analyze paths.
fn verdict_section(stdout: &str) -> &str {
    let at = stdout.find("determinacy").expect("verdict section present");
    let line_start = stdout[..at].rfind('\n').map_or(0, |i| i + 1);
    &stdout[line_start..]
}

#[test]
fn analyze_empty_v2_is_clean_across_all_paths() {
    let path = scratch_trace("analyze", b"FTRC\x02");
    let serial = run_ok(&["analyze"], &path);
    let sharded = run_ok(&["analyze", "--shards", "2"], &path);
    let supervised = run_ok(
        &["analyze", "--shards", "2", "--checkpoint-every", "2"],
        &path,
    );
    for (label, stdout) in [
        ("serial", &serial),
        ("sharded", &sharded),
        ("supervised", &supervised),
    ] {
        assert!(stdout.contains(NOTE), "{label} lacks note:\n{stdout}");
        assert!(
            stdout.contains(CLEAN_VERDICT),
            "{label} lacks clean verdict:\n{stdout}"
        );
        // The note must sit above the verdict section, not inside it.
        assert!(
            !verdict_section(stdout).contains(NOTE),
            "{label} note leaked into the verdict section:\n{stdout}"
        );
    }
    assert_eq!(
        verdict_section(&serial),
        verdict_section(&sharded),
        "serial vs sharded verdict section"
    );
    assert_eq!(
        verdict_section(&serial),
        verdict_section(&supervised),
        "serial vs supervised verdict section"
    );
}

#[test]
fn info_empty_v2_is_clean() {
    let path = scratch_trace("info", b"FTRC\x02");
    let stdout = run_ok(&["info"], &path);
    assert!(stdout.contains("0 intact, 0 damaged"), "{stdout}");
    assert!(stdout.contains(NOTE), "{stdout}");
}

#[test]
fn verify_empty_v2_is_clean() {
    let path = scratch_trace("verify", b"FTRC\x02");
    let stdout = run_ok(&["verify"], &path);
    assert!(stdout.contains("OK (v2, 0 events"), "{stdout}");
    assert!(stdout.contains(NOTE), "{stdout}");
}

#[test]
fn zero_byte_file_is_not_a_trace() {
    let path = scratch_trace("zero", b"");
    for args in [
        &["verify"][..],
        &["info"],
        &["analyze"],
        &["analyze", "--shards", "2"],
    ] {
        let out = tracetool()
            .arg(args[0])
            .arg(&path)
            .args(&args[1..])
            .output()
            .expect("run tracetool");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}\nstderr: {stderr}");
        assert!(
            stderr.contains("not a framed (v2) trace"),
            "{args:?}: {stderr}"
        );
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains(NOTE),
            "{args:?}"
        );
    }
}

#[test]
fn corpus_of_one_empty_trace_is_clean() {
    let path = scratch_trace("corpus", b"FTRC\x02");
    let dir = path.parent().unwrap();
    let out = tracetool()
        .arg("corpus")
        .arg(dir)
        .args(["--detectors", "dtrg", "--fresh"])
        .output()
        .expect("run tracetool corpus");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("1 clean (1 empty)"), "{stdout}");
    let json =
        std::fs::read_to_string(dir.join("corpus-out").join("report.json")).expect("report.json");
    assert!(json.contains("\"empty_traces\": 1"), "{json}");
    std::fs::remove_dir_all(dir.join("corpus-out")).ok();
}
