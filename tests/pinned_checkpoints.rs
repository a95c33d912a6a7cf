//! Checkpoint bytes pinned by committed fixtures, under
//! `tests/data/checkpoints/`:
//!
//! * `jacobi_tiny.ftrc`, recorded by `tracetool record --bench jacobi
//!   --tiny --stream --chunk-bytes 1024`;
//! * `jacobi_tiny_dtrg.fckp` and `jacobi_tiny_vc.fckp`, cut from it by
//!   `tracetool analyze jacobi_tiny.ftrc --detector D --shards 2
//!   --checkpoint-every 1 --stop-after 3 --checkpoint C` with the shard
//!   replicas still holding every location's shadow cell.
//!
//! The state codecs write global cell indices and the global shadow
//! length, so a shard stage whose replicas hold only their own cells must
//! cut the same bytes, and resume them to the uninterrupted verdict. A
//! checkpoint whose shard-1 blob lists a shard-0 cell must fail the
//! resume, never alias an odd cell.

use futrace::corpus::detectors::AnyReport;
use futrace::offline::{trace_events, Checkpoint};
use futrace::{Analyze, AnalyzeError, DetectorRun};

const DETECTORS: [&str; 2] = ["dtrg", "vc"];

fn fixture(name: &str) -> Vec<u8> {
    let path = format!(
        "{}/tests/data/checkpoints/{name}",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read fixture {path}: {e}"))
}

/// Resumes `checkpoint` over `trace` as `tracetool analyze --shards 2
/// --resume` does, and returns the completed report.
fn resume(
    detector: &str,
    trace: &[u8],
    checkpoint: &Checkpoint,
) -> Result<AnyReport, AnalyzeError> {
    let analysis = Analyze::trace_bytes(trace)
        .shards(2)
        .resume(checkpoint.clone());
    match analysis.run_named(detector)? {
        DetectorRun::Completed(out) => Ok(out.report),
        DetectorRun::Suspended { .. } => {
            panic!("{detector}: a resume without a stop point suspended")
        }
    }
}

#[test]
fn the_shard_stage_cuts_the_pinned_checkpoint_bytes() {
    let trace = fixture("jacobi_tiny.ftrc");
    for detector in DETECTORS {
        let analysis = Analyze::trace_bytes(&trace)
            .shards(2)
            .checkpoint_every(1)
            .stop_after(3);
        let out = analysis
            .run_named(detector)
            .unwrap_or_else(|e| panic!("{detector}: {e}"));
        let DetectorRun::Suspended { checkpoint, .. } = out else {
            panic!("{detector}: the run must suspend after 3 chunks");
        };
        let pinned = fixture(&format!("jacobi_tiny_{detector}.fckp"));
        assert!(
            checkpoint.encode() == pinned,
            "{detector}: the checkpoint drifted from the pinned bytes"
        );
    }
}

#[test]
fn the_pinned_checkpoints_resume_to_the_uninterrupted_verdict() {
    let trace = fixture("jacobi_tiny.ftrc");
    let events: Vec<_> = trace_events(&trace, false)
        .collect::<Result<_, _>>()
        .expect("the fixture trace decodes");
    for detector in DETECTORS {
        let Ok(DetectorRun::Completed(straight)) = Analyze::events(&events).run_named(detector)
        else {
            panic!("{detector}: an uninterrupted run completes");
        };
        let straight = straight.report;
        let checkpoint = Checkpoint::decode(&fixture(&format!("jacobi_tiny_{detector}.fckp")))
            .expect("the pinned checkpoint decodes");
        let resumed =
            resume(detector, &trace, &checkpoint).unwrap_or_else(|e| panic!("{detector}: {e}"));
        assert_eq!(resumed.race_count(), straight.race_count(), "{detector}");
        assert_eq!(resumed.race_lines(), straight.race_lines(), "{detector}");
        assert_eq!(resumed.notes(), straight.notes(), "{detector}");
        if let (AnyReport::Dtrg(resumed), AnyReport::Dtrg(straight)) = (&resumed, &straight) {
            assert_eq!(
                resumed.footprint, straight.footprint,
                "the serial footprint"
            );
        }
    }
}

#[test]
fn a_checkpoint_listing_another_shards_cells_fails_the_resume() {
    // Shard 0's blob, which lists even locations, stands in for shard 1's
    // in an otherwise intact file with a valid CRC.
    let trace = fixture("jacobi_tiny.ftrc");
    for detector in DETECTORS {
        let mut checkpoint =
            Checkpoint::decode(&fixture(&format!("jacobi_tiny_{detector}.fckp"))).unwrap();
        checkpoint.shard_states[1] = checkpoint.shard_states[0].clone();
        let crafted = Checkpoint::decode(&checkpoint.encode()).expect("a CRC-valid file");
        match resume(detector, &trace, &crafted) {
            Err(AnalyzeError::Supervise(e)) => assert!(
                e.to_string()
                    .contains("belongs to shard 0 of 2, not to shard 1"),
                "{detector}: {e}"
            ),
            Err(e) => panic!("{detector}: wrong error: {e}"),
            Ok(_) => panic!("{detector}: a foreign cell must fail the resume"),
        }
    }
}
