//! Pinned detector behaviour on six registry kernels.
//!
//! Each kernel runs at tiny size, clean and (where it has one) with its
//! planted race, through the serial detector. The race report and the
//! cost counters must equal the constants below, which were recorded
//! from the detector with the 48-byte shadow cell, the five per-access
//! cell lookups and the Welford reader mean. The packed 32-byte cell,
//! the single-borrow check and the integer reader moments must change
//! none of them: the same `Precede` queries in the same order, the same
//! memo and fast-path traffic, the same reader samples.
//!
//! The mean is compared to within 1e-9: the recorded value came from a
//! Welford running mean, the current one is the exact ratio sum/count.

use futrace::benchsuite::registry::{self, Scale};
use futrace::detector::{DtrgReport, RaceDetector};
use futrace::runtime::engine::{run_analysis, source};
use futrace::util::crc32::crc32;

/// One pinned run: kernel, planted, total races detected, races stored,
/// CRC-32 of the stored races' `Debug` text, then
/// `[precede_calls, visit_expansions, memo_hits, memo_misses,
/// shadow_hits, reads, writes]`, `[reader samples, max, sum]` and the
/// reader mean.
type Pin = (&'static str, bool, u64, usize, u32, [u64; 7], [u64; 3], f64);

const PINS: [Pin; 11] = [
    (
        "jacobi",
        false,
        0,
        0,
        0x0d4c_bb29,
        [1148, 300, 1013, 135, 540, 1200, 300],
        [1500, 3, 1396],
        0.930666666666668,
    ),
    (
        "jacobi",
        true,
        80,
        80,
        0x18de_3901,
        [1172, 358, 1033, 139, 540, 1200, 300],
        [1500, 3, 1420],
        0.9466666666666665,
    ),
    (
        "sor",
        false,
        0,
        0,
        0x0d4c_bb29,
        [3388, 36, 468, 36, 1092, 2940, 588],
        [3528, 1, 2786],
        0.7896825396825385,
    ),
    (
        "sor",
        true,
        1386,
        100,
        0x45e0_8e2a,
        [4676, 93, 2325, 93, 546, 2940, 588],
        [3528, 1, 2982],
        0.8452380952380952,
    ),
    (
        "smithwaterman",
        false,
        0,
        0,
        0x0d4c_bb29,
        [1010, 69, 408, 42, 1440, 2400, 576],
        [2976, 2, 1737],
        0.5836693548387089,
    ),
    (
        "smithwaterman",
        true,
        132,
        72,
        0x2ee1_bcfc,
        [1262, 154, 588, 54, 1380, 2400, 576],
        [2976, 4, 2589],
        0.8699596774193554,
    ),
    (
        "crypt",
        false,
        0,
        0,
        0x0d4c_bb29,
        [384, 0, 0, 0, 3224, 3904, 576],
        [4480, 1, 3256],
        0.7267857142857166,
    ),
    (
        "prodcons",
        false,
        0,
        0,
        0x0d4c_bb29,
        [28, 36, 0, 28, 0, 18, 18],
        [36, 1, 8],
        0.2222222222222222,
    ),
    (
        "prodcons",
        true,
        20,
        20,
        0x02fe_dac7,
        [44, 64, 4, 40, 0, 18, 18],
        [36, 2, 24],
        0.6666666666666665,
    ),
    (
        "futtree",
        false,
        0,
        0,
        0x0d4c_bb29,
        [15, 14, 0, 14, 0, 15, 15],
        [30, 0, 0],
        0.0,
    ),
    (
        "futtree",
        true,
        7,
        7,
        0xa19e_3db3,
        [15, 21, 0, 14, 0, 15, 15],
        [30, 0, 0],
        0.0,
    ),
];

fn run(name: &str, planted: bool) -> DtrgReport {
    let log = registry::find(name)
        .expect("registry kernel")
        .record(Scale::Tiny, planted);
    match run_analysis(source::recorded(&log.events), RaceDetector::new()) {
        Ok(out) => out.report,
        Err(never) => match never {},
    }
}

#[test]
fn detector_counters_match_the_recorded_constants() {
    for (name, planted, total, stored, races_crc, counters, readers, mean) in PINS {
        let label = format!("{name} planted={planted}");
        let out = run(name, planted);
        let (s, d, r) = (&out.stats, &out.stats.dtrg, &out.stats.readers_at_access);
        assert_eq!(out.report.total_detected, total, "{label}: races detected");
        assert_eq!(out.report.races.len(), stored, "{label}: races stored");
        let text = format!("{:?}", out.report.races);
        assert_eq!(crc32(text.as_bytes()), races_crc, "{label}: race report");
        let got = [
            d.precede_calls,
            d.visit_expansions,
            d.memo_hits,
            d.memo_misses,
            d.shadow_hits,
            s.reads,
            s.writes,
        ];
        assert_eq!(
            got, counters,
            "{label}: [precede, visits, memo hits, memo misses, shadow hits, reads, writes]"
        );
        let got = [r.count, u64::from(r.max().unwrap_or(0)), r.sum as u64];
        assert_eq!(got, readers, "{label}: [reader samples, max, sum]");
        assert!(
            (s.avg_readers() - mean).abs() < 1e-9,
            "{label}: reader mean {} against {mean}",
            s.avg_readers()
        );
    }
}
