//! Corpus determinism: the aggregated JSON report must be byte-identical
//! whatever the worker-pool width, and a run killed midway must resume
//! from its manifest to the exact same bytes an uninterrupted run
//! produces. Over the committed fixtures those bytes are pinned in
//! `tests/data/corpus/report.json`. The markdown report is allowed to
//! vary (it carries run telemetry); the JSON is the contract.

use futrace_benchsuite::registry::{self, Scale};
use futrace_corpus::{run_corpus, CorpusOptions, ExitVerdict, FailurePolicy};
use futrace_offline::framed::DEFAULT_CHUNK_BYTES;
use futrace_offline::StreamWriter;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("futrace_corpus_det_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn record(dir: &Path, name: &str, bench: &str, scale: Scale, planted: bool) {
    let file = std::fs::File::create(dir.join(name)).expect("create trace");
    let mut w = StreamWriter::with_chunk_bytes(BufWriter::new(file), DEFAULT_CHUNK_BYTES)
        .expect("trace header");
    registry::find(bench)
        .expect("known bench")
        .run_into(&mut w, scale, planted);
    w.finish().expect("finish trace");
}

/// A small mixed corpus: two clean traces, one planted-racy, one
/// header-only empty, one truncated (damaged).
fn build_corpus(root: &Path) {
    std::fs::create_dir_all(root.join("sub")).unwrap();
    record(root, "futlist_clean.ftrc", "futlist", Scale::Tiny, false);
    record(
        &root.join("sub"),
        "graphwalk_clean.ftrc",
        "graphwalk",
        Scale::Tiny,
        false,
    );
    record(root, "prodcons_racy.ftrc", "prodcons", Scale::Tiny, true);
    std::fs::write(root.join("empty.ftrc"), b"FTRC\x02").unwrap();
    let full = std::fs::read(root.join("futlist_clean.ftrc")).unwrap();
    std::fs::write(root.join("truncated.ftrc"), &full[..40.min(full.len())]).unwrap();
}

fn opts(out_dir: PathBuf) -> CorpusOptions {
    let mut o = CorpusOptions::new(out_dir);
    // A subset spanning the interesting cases: the reference, a second
    // shardable detector, and a bags-family baseline.
    o.detectors = vec!["dtrg".into(), "vc".into(), "spbags".into()];
    o.policy = FailurePolicy::Continue;
    o
}

#[test]
fn report_json_is_byte_identical_across_parallelism() {
    let root = scratch("parallel");
    build_corpus(&root);
    let mut jsons = Vec::new();
    for mp in [1usize, 2, 4] {
        let mut o = opts(root.join(format!("out{mp}")));
        o.max_parallel = mp;
        let out = run_corpus(&root, &o).expect("corpus run");
        // The planted trace is racy and the truncated one damaged, but
        // races dominate the exit verdict.
        assert_eq!(out.exit, ExitVerdict::Races, "max_parallel {mp}");
        let rep = out.report.as_ref().expect("finished run has a report");
        assert_eq!(rep.summary.racy_traces, 1);
        assert_eq!(rep.summary.empty_traces, 1);
        assert_eq!(rep.summary.damaged_traces, 1);
        jsons.push(std::fs::read(out.report_json.expect("json path")).unwrap());
    }
    assert_eq!(jsons[0], jsons[1], "max_parallel 1 vs 2");
    assert_eq!(jsons[0], jsons[2], "max_parallel 1 vs 4");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn killed_run_resumes_to_identical_report() {
    let root = scratch("resume");
    build_corpus(&root);

    // Uninterrupted reference run.
    let reference = run_corpus(&root, &opts(root.join("ref"))).expect("reference run");
    let want = std::fs::read(reference.report_json.expect("json path")).unwrap();

    // Kill midway: suspend dispatch after 3 completed jobs. A suspended
    // run is operator-requested, so it exits clean with no report.
    let mut o = opts(root.join("out"));
    o.stop_after_jobs = Some(3);
    let first = run_corpus(&root, &o).expect("suspended run");
    assert!(first.suspended);
    assert_eq!(first.exit, ExitVerdict::Clean);
    assert!(first.report.is_none(), "no report from a partial run");
    assert_eq!(first.jobs_ran, 3);

    // Resume: the manifest skips exactly the jobs that completed, and
    // the final report is byte-identical to the uninterrupted one —
    // even at a different pool width.
    o.stop_after_jobs = None;
    o.max_parallel = 4;
    let second = run_corpus(&root, &o).expect("resumed run");
    assert!(!second.suspended);
    assert_eq!(second.jobs_skipped, 3);
    assert_eq!(second.exit, ExitVerdict::Races);
    let got = std::fs::read(second.report_json.expect("json path")).unwrap();
    assert_eq!(got, want, "resumed report differs from uninterrupted run");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn resume_after_a_torn_manifest_tail_keeps_the_records_it_appends() {
    let root = scratch("torn");
    build_corpus(&root);
    let reference = run_corpus(&root, &opts(root.join("ref"))).expect("reference run");
    let want = std::fs::read(reference.report_json.expect("json path")).unwrap();

    let mut o = opts(root.join("out"));
    o.stop_after_jobs = Some(3);
    let first = run_corpus(&root, &o).expect("suspended run");
    assert_eq!(first.jobs_ran, 3);

    // A kill mid-append leaves a torn block: here, a block header cut
    // short after six of its eight bytes.
    let manifest = root.join("out").join("corpus.fman");
    let mut bytes = std::fs::read(&manifest).unwrap();
    bytes.extend_from_slice(&[0x20, 0, 0, 0, 0xAB, 0xCD]);
    std::fs::write(&manifest, bytes).unwrap();

    // Every resume skips every job an earlier run completed, including
    // those a resume appended after the torn bytes.
    let mut done = first.jobs_ran;
    for _ in 0..2 {
        let run = run_corpus(&root, &o).expect("suspended resume");
        assert!(run.suspended);
        assert_eq!(run.jobs_skipped, done);
        done += run.jobs_ran;
    }
    o.stop_after_jobs = None;
    let last = run_corpus(&root, &o).expect("final resume");
    assert!(!last.suspended);
    assert_eq!(last.jobs_skipped, done);
    let got = std::fs::read(last.report_json.expect("json path")).unwrap();
    assert_eq!(got, want, "resumed report differs from uninterrupted run");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn fresh_discards_the_manifest_and_reruns_everything() {
    let root = scratch("fresh");
    build_corpus(&root);
    let o = opts(root.join("out"));
    let first = run_corpus(&root, &o).expect("first run");
    assert_eq!(first.jobs_skipped, 0);
    let total = first.jobs_ran;

    let mut o2 = o.clone();
    o2.fresh = true;
    let second = run_corpus(&root, &o2).expect("fresh rerun");
    assert_eq!(second.jobs_skipped, 0, "--fresh must ignore the manifest");
    assert_eq!(second.jobs_ran, total);
    std::fs::remove_dir_all(&root).ok();
}

/// The corpus CI runs: every committed fixture, the first 60 bytes of
/// `prodcons_clean.ftrc` as `truncated.ftrc`, and a header-only
/// `empty.ftrc`.
fn build_fixture_corpus(root: &Path) {
    let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/data");
    for entry in std::fs::read_dir(&data).expect("fixture dir") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "ftrc") {
            std::fs::copy(&path, root.join(path.file_name().unwrap())).unwrap();
        }
    }
    let clean = std::fs::read(data.join("prodcons_clean.ftrc")).unwrap();
    std::fs::write(root.join("truncated.ftrc"), &clean[..60]).unwrap();
    std::fs::write(root.join("empty.ftrc"), b"FTRC\x02").unwrap();
}

#[test]
fn fixture_corpus_report_matches_the_committed_golden() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/corpus/report.json");
    let golden = std::fs::read_to_string(golden).expect("read the golden report");
    let root = scratch("golden");
    build_fixture_corpus(&root);
    // All seven detectors, as `CorpusOptions::new` defaults.
    for mp in [1usize, 4] {
        let mut o = CorpusOptions::new(root.join(format!("out{mp}")));
        o.max_parallel = mp;
        let out = run_corpus(&root, &o).expect("corpus run");
        assert_eq!(out.exit, ExitVerdict::Races, "max_parallel {mp}");
        let got = std::fs::read_to_string(out.report_json.expect("json path")).unwrap();
        assert_eq!(got, golden, "max_parallel {mp}");
    }

    let mut o = CorpusOptions::new(root.join("resumed"));
    o.stop_after_jobs = Some(5);
    let first = run_corpus(&root, &o).expect("suspended run");
    assert!(first.suspended);
    o.stop_after_jobs = None;
    let second = run_corpus(&root, &o).expect("resumed run");
    assert_eq!(second.jobs_skipped, 5);
    let got = std::fs::read_to_string(second.report_json.expect("json path")).unwrap();
    assert_eq!(got, golden, "after suspend and resume");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn a_timed_out_job_is_recorded_failed_at_every_width_and_across_resume() {
    let root = scratch("timeout");
    // Scaled jacobi: over a million events, whose analysis far outlasts
    // the 1 ms deadline.
    record(&root, "jacobi.ftrc", "jacobi", Scale::Scaled, false);
    let mut jsons = Vec::new();
    for mp in [1usize, 2] {
        let mut o = CorpusOptions::new(root.join(format!("out{mp}")));
        o.detectors = vec!["dtrg".into()];
        o.max_parallel = mp;
        o.job_timeout = Some(Duration::from_millis(1));
        let out = run_corpus(&root, &o).expect("corpus run");
        assert_eq!(out.exit, ExitVerdict::Damage, "max_parallel {mp}");
        let rep = out.report.as_ref().expect("a finished run has a report");
        assert_eq!(rep.summary.analyze_failed, 1, "max_parallel {mp}");
        let [damaged] = rep.damaged.as_slice() else {
            panic!(
                "max_parallel {mp}: one damaged trace, got {:?}",
                rep.damaged
            );
        };
        assert_eq!(
            damaged.failures,
            [("dtrg".to_string(), "timed out after 1ms".to_string())],
            "max_parallel {mp}"
        );
        jsons.push(std::fs::read_to_string(out.report_json.expect("json path")).unwrap());

        // The manifest holds the timeout, not the late result: a rerun
        // resumes the failure without running the job again.
        let again = run_corpus(&root, &o).expect("resumed run");
        assert_eq!(
            (again.jobs_ran, again.jobs_skipped),
            (0, 1),
            "max_parallel {mp}"
        );
        assert_eq!(again.exit, ExitVerdict::Damage, "max_parallel {mp}");
        jsons.push(std::fs::read_to_string(again.report_json.expect("json path")).unwrap());
    }
    assert!(jsons.iter().all(|j| *j == jsons[0]), "{jsons:#?}");
    std::fs::remove_dir_all(&root).ok();
}
