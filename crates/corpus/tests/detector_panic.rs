//! A detector panic costs its own analyze job, not the corpus run.
//!
//! The crafted corpus holds `prodcons_racy.ftrc` with the first payload
//! byte of chunk 0 flipped, so its CRC fails. A lenient read drops that
//! chunk with the `TaskCreate`s it carried, and the DTRG detector then
//! panics on the next chunk's accesses by tasks it never saw created
//! (no stream validator checks them yet). Next to it sits an intact
//! clean trace, whose analysis must go on.

use futrace_benchsuite::registry::{self, Scale};
use futrace_corpus::{run_corpus, CorpusOptions, ExitVerdict, FailurePolicy};
use futrace_offline::framed::{CHUNK_HEADER_LEN, DEFAULT_CHUNK_BYTES, HEADER_LEN};
use futrace_offline::StreamWriter;
use std::io::BufWriter;
use std::path::{Path, PathBuf};

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("futrace_corpus_panic_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn build_corpus(root: &Path) {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/prodcons_racy.ftrc");
    let mut blob = std::fs::read(fixture).expect("read the prodcons_racy fixture");
    blob[HEADER_LEN + CHUNK_HEADER_LEN] ^= 0xFF;
    std::fs::write(root.join("prodcons_flipped.ftrc"), blob).unwrap();

    let file = std::fs::File::create(root.join("futlist_clean.ftrc")).unwrap();
    let mut w = StreamWriter::with_chunk_bytes(BufWriter::new(file), DEFAULT_CHUNK_BYTES).unwrap();
    registry::find("futlist")
        .unwrap()
        .run_into(&mut w, Scale::Tiny, false);
    w.finish().unwrap();
}

#[test]
fn a_panicking_detector_fails_only_its_job() {
    let root = scratch("policy");
    build_corpus(&root);
    for policy in [FailurePolicy::Continue, FailurePolicy::Abort] {
        let mut opts = CorpusOptions::new(root.join(format!("out-{policy:?}")));
        opts.detectors = vec!["dtrg".into()];
        opts.lenient = true;
        opts.policy = policy;
        let out = run_corpus(&root, &opts).expect("the run finishes");
        assert_eq!(out.exit, ExitVerdict::Damage, "{policy:?}");
        assert_eq!(out.aborted, policy == FailurePolicy::Abort);
        let report = out.report.as_ref().expect("a finished run has a report");
        assert!(out.report_json.as_ref().is_some_and(|p| p.exists()));
        assert_eq!(report.summary.analyze_failed, 1, "{policy:?}");
        let [damaged] = report.damaged.as_slice() else {
            panic!("{policy:?}: one damaged trace, got {:?}", report.damaged);
        };
        assert_eq!(damaged.trace, "prodcons_flipped.ftrc");
        let [(detector, error)] = damaged.failures.as_slice() else {
            panic!("{policy:?}: one failure, got {:?}", damaged.failures);
        };
        assert_eq!(detector, "dtrg");
        assert!(error.starts_with("panicked: "), "{policy:?}: {error}");
        if policy == FailurePolicy::Continue {
            assert_eq!(
                report.summary.analyze_ok, 1,
                "the clean trace is still analyzed"
            );
            assert_eq!(report.summary.clean_traces, 1);
        }
    }
    std::fs::remove_dir_all(&root).ok();
}
