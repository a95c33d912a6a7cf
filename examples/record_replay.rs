//! Offline (trace-based) race detection: record an execution's event
//! stream once as a framed trace, then run the detector over the trace —
//! the verdict is identical to the online run, because the detector is a
//! pure function of the serial depth-first event stream.
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
use futrace::offline::{read_events, StreamWriter};
use futrace::runtime::engine::{run_analysis_live, run_analysis_recorded};
use futrace::runtime::run_serial;
use futrace_util::stats::Timer;

fn main() {
    let p = SwParams {
        n: 200,
        tiles: 10,
        seed: 0xac97,
    };

    // --- Record: run the program once, writing the framed trace (the
    // compact varint event codec in CRC-checked chunks) as it goes.
    let t = Timer::start();
    let mut writer = StreamWriter::new(Vec::new()).expect("writing to a Vec cannot fail");
    run_serial(&mut writer, |ctx| {
        // Record the *buggy* variant so the offline pass has something
        // to find.
        let _ = sw_run(ctx, &p, true);
    });
    let (blob, stats) = writer.finish().expect("writing to a Vec cannot fail");
    println!(
        "recorded {} events into {} bytes ({:.2} bytes/event, {} chunks) in {:.1} ms",
        stats.events,
        blob.len(),
        blob.len() as f64 / stats.events as f64,
        stats.chunks,
        t.elapsed_ms()
    );

    // --- Offline detection: read the trace back and replay it through
    // the engine.
    let (events, dropped) = read_events(&blob, false).expect("valid trace");
    assert_eq!(dropped, 0);
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
