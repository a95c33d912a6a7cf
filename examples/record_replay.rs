//! Offline (trace-based) race detection: record an execution's event
//! stream once, then run the detector over the serialized trace — the
//! verdict is identical to the online run, because the detector is a pure
//! function of the serial depth-first event stream.
//!
//! Both passes go through the analysis engine: `run_analysis_live` wraps
//! the detector in an [`Engine`] monitor for the online run, and
//! `run_analysis_recorded` drives the same detector from the decoded
//! event stream offline — no hand-written event loop on either side.
//!
//! ```text
//! cargo run --release --example record_replay
//! ```

use futrace::benchsuite::smithwaterman::{sw_run, SwParams};
use futrace::detector::RaceDetector;
use futrace::runtime::engine::{run_analysis_live, run_analysis_recorded};
use futrace::runtime::{run_serial, trace, EventLog};
use futrace_util::stats::Timer;

fn main() {
    let p = SwParams {
        n: 200,
        tiles: 10,
        seed: 0xac97,
    };

    // --- Record: run the program once with only the cheap event logger.
    let t = Timer::start();
    let mut log = EventLog::new();
    run_serial(&mut log, |ctx| {
        // Record the *buggy* variant so the offline pass has something
        // to find.
        let _ = sw_run(ctx, &p, true);
    });
    println!(
        "recorded {} events in {:.1} ms",
        log.events.len(),
        t.elapsed_ms()
    );

    // --- Serialize: compact varint encoding (plain Vec<u8>).
    let t = Timer::start();
    let blob = trace::encode(&log.events);
    println!(
        "encoded to {} bytes ({:.2} bytes/event) in {:.1} ms",
        blob.len(),
        blob.len() as f64 / log.events.len() as f64,
        t.elapsed_ms()
    );

    // --- Offline detection: decode the trace and replay it through the
    // engine.
    let events = trace::decode(&blob).expect("valid trace");
    let offline = run_analysis_recorded(&events, RaceDetector::new());
    println!("offline detection: {}", offline.counters);

    let report = &offline.report.report;
    assert!(
        report.has_races(),
        "the planted wavefront race must be found"
    );
    println!("\noffline verdict: {} race(s); first:", report.races.len());
    println!("  {}", report.races[0]);

    // --- Cross-check against the live run: same driver, live source.
    let live = run_analysis_live(
        |ctx| {
            let _ = sw_run(ctx, &p, true);
        },
        RaceDetector::new(),
    );
    assert_eq!(
        live.report.report.races, report.races,
        "offline == online, exactly"
    );
    println!("\nonline run agrees exactly (same reports, same order).");
}
