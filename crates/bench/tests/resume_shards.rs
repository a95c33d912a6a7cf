//! `tracetool analyze --resume` against the committed 2-shard checkpoint
//! of `tests/data/checkpoints/`: each state blob holds one shard's cells,
//! so the checkpoint fixes the shard count. A `--shards` that differs is a
//! usage error naming both counts (exit 2), the same count resumes to the
//! uninterrupted verdict, and a CRC-valid file whose shard-1 blob lists a
//! shard-0 cell fails the resume (exit 1).

use futrace_offline::Checkpoint;
use std::path::PathBuf;
use std::process::{Command, Output};

fn data(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/data/checkpoints")
        .join(name)
}

fn analyze(extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tracetool"))
        .arg("analyze")
        .arg(data("jacobi_tiny.ftrc"))
        .args(extra)
        .output()
        .expect("run tracetool")
}

/// Everything from the first line of the verdict section onward.
fn verdict_section(out: &Output) -> String {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let at = stdout.find("determinacy").expect("verdict section present");
    let line_start = stdout[..at].rfind('\n').map_or(0, |i| i + 1);
    stdout[line_start..].to_string()
}

#[test]
fn a_conflicting_shard_count_is_a_usage_error() {
    let checkpoint = data("jacobi_tiny_dtrg.fckp");
    let checkpoint = checkpoint.to_str().unwrap();
    let out = analyze(&["--shards", "4", "--resume", checkpoint]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("--shards 4") && stderr.contains("across 2 shard(s)"),
        "{stderr}"
    );

    let straight = analyze(&[]);
    assert_eq!(straight.status.code(), Some(0));
    for extra in [&["--shards", "2"][..], &[]] {
        let mut args = extra.to_vec();
        args.extend(["--resume", checkpoint]);
        let out = analyze(&args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("1 resume(s)"));
        assert_eq!(
            verdict_section(&out),
            verdict_section(&straight),
            "{args:?}"
        );
    }
}

#[test]
fn a_foreign_cell_fails_the_resume() {
    let dir = std::env::temp_dir().join(format!("futrace_resume_shards_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    for detector in ["dtrg", "vc"] {
        let pinned = std::fs::read(data(&format!("jacobi_tiny_{detector}.fckp"))).unwrap();
        let mut checkpoint = Checkpoint::decode(&pinned).unwrap();
        checkpoint.shard_states[1] = checkpoint.shard_states[0].clone();
        let path = dir.join(format!("foreign_{detector}.fckp"));
        std::fs::write(&path, checkpoint.encode()).unwrap();
        let out = analyze(&["--detector", detector, "--resume", path.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{detector}: {stderr}");
        assert!(stderr.contains("cannot resume"), "{detector}: {stderr}");
        assert!(
            stderr.contains("belongs to shard 0 of 2"),
            "{detector}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
