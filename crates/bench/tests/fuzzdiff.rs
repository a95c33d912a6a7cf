//! End-to-end tests of `tracetool fuzz`: a clean sweep exits 0, and a
//! deliberately broken detector produces a minimized `.ftrc`
//! counterexample plus a copy-pasteable replay command.

use std::path::PathBuf;
use std::process::Command;

fn tracetool() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tracetool"))
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("futrace_fuzz_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn clean_sweep_exits_zero_and_reports_zero_unexpected() {
    let dir = scratch_dir("clean");
    let out = tracetool()
        .args(["fuzz", "--programs", "64", "--seed", "7"])
        .arg("--out-dir")
        .arg(&dir)
        .output()
        .expect("run tracetool fuzz");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "expected exit 0, got {:?}\nstdout: {stdout}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("0 unexpected disagreements"),
        "stdout: {stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn broken_detector_writes_minimized_counterexample_and_replay_command() {
    let dir = scratch_dir("broken");
    let out = tracetool()
        .args([
            "fuzz",
            "--programs",
            "8",
            "--seed",
            "7",
            "--break-detector",
            "vc",
        ])
        .arg("--out-dir")
        .arg(&dir)
        .output()
        .expect("run tracetool fuzz");
    let stderr = String::from_utf8_lossy(&out.stderr);

    // Exit code 4 is the fuzz-disagreement code (0 clean, 3 races found
    // by analyze/compare).
    assert_eq!(out.status.code(), Some(4), "stderr: {stderr}");
    assert!(
        stderr.contains("UNEXPECTED DISAGREEMENT"),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("vc"), "stderr: {stderr}");
    // The replay command names the env var, the seed, and the fault.
    assert!(
        stderr.contains("FUTRACE_PROPCHECK_SEED=0x"),
        "stderr: {stderr}"
    );
    assert!(
        stderr.contains("tracetool fuzz --programs 1 --seed 7 --gen nontree --break-detector vc"),
        "stderr: {stderr}"
    );

    // Exactly one .ftrc reproducer was written, and it is a valid trace.
    let traces: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("read scratch dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "ftrc"))
        .collect();
    assert_eq!(traces.len(), 1, "traces: {traces:?}\nstderr: {stderr}");
    let verify = tracetool()
        .arg("verify")
        .arg(&traces[0])
        .output()
        .expect("run tracetool verify");
    assert!(
        verify.status.success(),
        "verify failed: {}",
        String::from_utf8_lossy(&verify.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replay_env_var_reruns_exactly_the_failing_case() {
    // The printed replay line sets FUTRACE_PROPCHECK_SEED; with it, a
    // one-program run must reproduce the same disagreement.
    let dir = scratch_dir("replay");
    let out = tracetool()
        .args([
            "fuzz",
            "--programs",
            "4",
            "--seed",
            "9",
            "--break-detector",
            "closure",
        ])
        .arg("--out-dir")
        .arg(&dir)
        .output()
        .expect("run tracetool fuzz");
    assert_eq!(out.status.code(), Some(4));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let seed_hex = stderr
        .lines()
        .find_map(|l| {
            let l = l.trim();
            l.strip_prefix("FUTRACE_PROPCHECK_SEED=")
                .and_then(|rest| rest.split_whitespace().next())
        })
        .expect("replay line present")
        .to_string();

    let replay = tracetool()
        .args([
            "fuzz",
            "--programs",
            "1",
            "--seed",
            "9",
            "--break-detector",
            "closure",
        ])
        .arg("--out-dir")
        .arg(&dir)
        .env("FUTRACE_PROPCHECK_SEED", &seed_hex)
        .output()
        .expect("replay tracetool fuzz");
    assert_eq!(replay.status.code(), Some(4));
    assert!(
        String::from_utf8_lossy(&replay.stderr).contains("UNEXPECTED DISAGREEMENT"),
        "replay stderr: {}",
        String::from_utf8_lossy(&replay.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_missing_out_dir_still_reports_the_counterexample() {
    // The .ftrc cannot be written, but the minimized program and the
    // replay line are printed first; the failed write still fails the run.
    let missing = scratch_dir("missing").join("not-there");
    let out = tracetool()
        .args(["fuzz", "--programs", "4", "--seed", "7"])
        .args(["--break-detector", "vc", "--out-dir"])
        .arg(&missing)
        .output()
        .expect("run tracetool fuzz");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    for reported in [
        "UNEXPECTED DISAGREEMENT",
        "minimized program: Program",
        "tracetool fuzz --programs 1 --seed 7 --gen nontree --break-detector vc",
        "cannot write counterexample trace",
    ] {
        assert!(stderr.contains(reported), "{reported:?}: {stderr}");
    }
    assert!(!missing.exists());
    std::fs::remove_dir_all(missing.parent().unwrap()).ok();
}
