//! Golden-trace regression suite for the future-structured workload
//! families: one racy and one race-free `.ftrc` fixture per family,
//! pinned byte-for-byte under `tests/data/`.
//!
//! The fixtures freeze two things at once: the recorded event stream of
//! each family's tiny configuration (any change to a generator, the
//! serial executor's scheduling, or the framed encoder shows up as a
//! byte diff here) and the detector's verdict on it. On top of that,
//! every fixture must produce a byte-identical race report whether it is
//! replayed serially, sharded, or supervised.

use futrace::benchsuite::registry::{self, Scale};
use futrace::offline::StreamWriter;
use futrace::runtime::replay;
use futrace::{AnalysisOutcome, Analyze};

const FAMILIES: [&str; 5] = ["prodcons", "futlist", "futtree", "graphwalk", "actor"];

/// Chunk size the fixtures were recorded with (`tracetool record --tiny
/// --stream --chunk-bytes 256`).
const FIXTURE_CHUNK_BYTES: usize = 256;

fn fixture_path(family: &str, variant: &str) -> String {
    format!(
        "{}/tests/data/{family}_{variant}.ftrc",
        env!("CARGO_MANIFEST_DIR")
    )
}

fn fixture(family: &str, variant: &str) -> Vec<u8> {
    let path = fixture_path(family, variant);
    std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read fixture {path}: {e}"))
}

#[test]
fn fixtures_match_a_fresh_recording_byte_for_byte() {
    for family in FAMILIES {
        let w = registry::find(family).expect("family registered");
        for (variant, planted) in [("clean", false), ("racy", true)] {
            let log = w.record(Scale::Tiny, planted);
            let mut writer = StreamWriter::with_chunk_bytes(Vec::new(), FIXTURE_CHUNK_BYTES)
                .expect("writing to a Vec cannot fail");
            replay(&log.events, &mut writer);
            let (encoded, _stats) = writer.finish().expect("writing to a Vec cannot fail");
            assert_eq!(
                encoded,
                fixture(family, variant),
                "{family} {variant}: recording drifted from the pinned fixture — \
                 if the change is intentional, re-record tests/data/ (see its provenance \
                 in tests/golden_traces.rs)"
            );
        }
    }
}

/// Serial, sharded, and supervised replays of the same fixture must
/// produce byte-identical race reports.
fn backends(blob: &[u8]) -> [AnalysisOutcome; 3] {
    let serial = Analyze::trace_bytes(blob).run().expect("serial replay");
    let sharded = Analyze::trace_bytes(blob)
        .shards(2)
        .run()
        .expect("sharded replay");
    let supervised = Analyze::trace_bytes(blob)
        .shards(2)
        .checkpoint_every(2)
        .run()
        .expect("supervised replay");
    [serial, sharded, supervised]
}

#[test]
fn clean_fixtures_are_race_free_on_every_backend() {
    for family in FAMILIES {
        let blob = fixture(family, "clean");
        for (i, out) in backends(&blob).iter().enumerate() {
            assert!(
                !out.has_races(),
                "{family} clean, backend {i}: {:?}",
                out.races
            );
        }
    }
}

#[test]
fn racy_fixtures_report_identical_races_on_every_backend() {
    for family in FAMILIES {
        let blob = fixture(family, "racy");
        let [serial, sharded, supervised] = backends(&blob);
        assert!(
            serial.has_races(),
            "{family} racy: planted race not detected"
        );
        let golden = format!("{:?}", serial.races);
        for (name, out) in [("sharded", &sharded), ("supervised", &supervised)] {
            assert_eq!(
                format!("{:?}", out.races),
                golden,
                "{family} racy: {name} report differs from serial"
            );
        }
    }
}

#[test]
fn every_backend_reports_the_serial_footprint() {
    // Each shard replica holds only its own shadow cells; the merge sums
    // them, and the stored readers, back to the serial footprint.
    for family in FAMILIES {
        for variant in ["clean", "racy"] {
            let [serial, sharded, supervised] = backends(&fixture(family, variant));
            for (name, out) in [("sharded", &sharded), ("supervised", &supervised)] {
                assert_eq!(
                    out.footprint, serial.footprint,
                    "{family} {variant}: {name} footprint differs from serial"
                );
            }
        }
    }
}
