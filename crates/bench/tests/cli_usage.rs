//! The usage paths of the `tracetool` binary: `help` is a command (exit 0,
//! usage on stdout, nothing on stderr), while a usage error exits 2 with
//! `error:` and the same usage text on stderr and does nothing else. And
//! `record` needs no format flag: there is one trace format.

use std::path::PathBuf;
use std::process::{Command, Output};

fn tracetool(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tracetool"))
        .args(args)
        .output()
        .expect("run tracetool")
}

/// The usage block: from `usage:` through the `tracetool help` line.
fn usage_block(text: &str) -> &str {
    let start = text.find("usage:\n").expect("usage block present");
    let end = start
        + text[start..]
            .find("  tracetool help")
            .expect("usage block ends");
    &text[start..end]
}

fn trace() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/data/checkpoints/jacobi_tiny.ftrc");
    path.to_str().expect("utf-8 path").to_string()
}

#[test]
fn record_without_a_format_flag_writes_a_trace_verify_accepts() {
    let dir = std::env::temp_dir().join(format!("futrace_record_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("jacobi.ftrc");
    let file = path.to_str().expect("utf-8 path");
    let out = tracetool(&[
        "record",
        "--bench",
        "jacobi",
        "--tiny",
        "--chunk-bytes",
        "1024",
        "--out",
        file,
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("framed chunks"), "{stderr}");

    let out = tracetool(&["verify", file]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("OK (v2, "), "{stdout}");
    // The committed fixture was recorded with the same program and flags.
    let fixture = std::fs::read(trace()).expect("read fixture");
    assert!(std::fs::read(&path).expect("read recording") == fixture);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn help_prints_the_usage_on_stdout_and_exits_0() {
    let out = tracetool(&["help"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(
        out.stderr.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let usage = usage_block(&stdout);
    for sub in [
        "record", "exec", "analyze", "compare", "info", "verify", "corpus", "fuzz", "serve",
        "client",
    ] {
        assert!(
            usage.contains(&format!("  tracetool {sub} ")),
            "{sub}: {usage}"
        );
    }
    assert!(stdout.contains("exit codes:"), "{stdout}");
}

#[test]
fn an_unknown_flag_exits_2_with_the_usage_on_stderr() {
    let out = tracetool(&["analyze", &trace(), "--frobnicate"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        stderr.starts_with("error: analyze: unknown argument `--frobnicate`\n"),
        "{stderr}"
    );
    let help = tracetool(&["help"]);
    assert_eq!(
        usage_block(&stderr),
        usage_block(&String::from_utf8_lossy(&help.stdout)),
        "a usage error prints the usage `help` prints"
    );
}

#[test]
fn checkpoint_without_stop_after_exits_2_and_writes_no_file() {
    // Only a suspend writes `--checkpoint FILE`; a run that cannot suspend
    // must not accept the flag and then finish without writing it.
    let dir = std::env::temp_dir().join(format!("futrace_cli_usage_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let checkpoint = dir.join("c.ckpt");
    let checkpoint = checkpoint.to_str().expect("utf-8 path");
    let trace = trace();
    for extra in [
        &[][..],
        &["--shards", "2"],
        &["--shards", "2", "--checkpoint-every", "1"],
    ] {
        let mut args = vec!["analyze", trace.as_str(), "--checkpoint", checkpoint];
        args.extend(extra);
        let out = tracetool(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("--stop-after"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing ran");
        assert!(!std::path::Path::new(checkpoint).exists(), "{args:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
