//! Cross-detector agreement.
//!
//! * On **async-finish** programs every async-finish detector is exact,
//!   so all six verdicts must coincide (DTRG, ESP-bags, Offset-Span, SPD3,
//!   vector-clock, transitive closure), and none of them drops a `get`
//!   edge. SP-bags is exact only on spawn-sync-shaped programs, so it is
//!   not compared here.
//! * On **future** programs ESP-bags is expected to over-approximate
//!   (dropped `get` edges can only add parallelism, never hide it): if the
//!   truth is racy, ESP-bags must also say racy.

use futrace::baselines::{ClosureDetector, EspBags, OffsetSpan, SpBags, Spd3, VectorClockDetector};
use futrace::benchsuite::randomprog::{execute, generate, GenParams, Program};
use futrace::detector::RaceDetector;
use futrace::offline::{
    run_supervised, trace_chunks, StreamWriter, SupervisedOutcome, SupervisorPlan, TraceError,
};
use futrace::runtime::engine::{run_analysis, run_analysis_live, Analysis};
use futrace::runtime::run_serial;
use futrace::runtime::trace::DecodedChunk;
use futrace::util::propcheck::{self, strategies, Config};
use futrace::Analyze;

/// Runs `prog` live under `det` and returns its report.
fn run<A: Analysis>(prog: &Program, det: A) -> A::Report {
    run_analysis_live(
        |ctx| {
            execute(ctx, prog);
        },
        det,
    )
    .report
}

#[test]
fn async_finish_programs_all_detectors_agree() {
    for seed in 0..300u64 {
        let prog = generate(seed, &GenParams::async_finish_only());
        let dtrg = Analyze::program(|ctx| {
            execute(ctx, &prog);
        })
        .run()
        .unwrap()
        .has_races();

        let esp = run(&prog, EspBags::new());
        assert_eq!(esp.has_races(), dtrg, "esp-bags vs dtrg, seed {seed}");
        assert_eq!(esp.ignored_gets, 0);

        let vc = run(&prog, VectorClockDetector::new());
        assert_eq!(vc.has_races(), dtrg, "vector-clock vs dtrg, seed {seed}");

        let cl = run(&prog, ClosureDetector::new());
        assert_eq!(cl.has_races(), dtrg, "closure vs dtrg, seed {seed}");

        let os = run(&prog, OffsetSpan::new());
        assert_eq!(os.has_races(), dtrg, "offset-span vs dtrg, seed {seed}");
        assert_eq!(os.ignored_gets, 0);

        let dp = run(&prog, Spd3::new());
        assert_eq!(dp.has_races(), dtrg, "spd3 vs dtrg, seed {seed}");
        assert_eq!(dp.ignored_gets, 0);
    }
}

#[test]
fn future_programs_dtrg_vclock_closure_agree() {
    for seed in 0..300u64 {
        let prog = generate(seed, &GenParams::future_heavy());
        let dtrg = Analyze::program(|ctx| {
            execute(ctx, &prog);
        })
        .run()
        .unwrap()
        .has_races();

        let vc = run(&prog, VectorClockDetector::new());
        assert_eq!(vc.has_races(), dtrg, "vector-clock vs dtrg, seed {seed}");

        let cl = run(&prog, ClosureDetector::new());
        assert_eq!(cl.has_races(), dtrg, "closure vs dtrg, seed {seed}");
    }
}

#[test]
fn esp_bags_over_approximates_on_futures() {
    let mut over_approximations = 0u32;
    for seed in 0..300u64 {
        let prog = generate(seed, &GenParams::future_heavy());
        let truth = Analyze::program(|ctx| {
            execute(ctx, &prog);
        })
        .run()
        .unwrap()
        .has_races();

        let esp = run(&prog, EspBags::new());
        if truth {
            assert!(
                esp.has_races(),
                "dropping get edges can only widen parallelism; seed {seed}"
            );
        } else if esp.has_races() {
            over_approximations += 1; // documented false positive
        }
    }
    assert!(
        over_approximations > 0,
        "the sweep should exhibit ESP-bags' false positives on future-synchronized programs"
    );
}

/// Records `prog`'s event stream as a framed v2 blob with a tiny chunk
/// size, so even small programs span several chunks and exercise the
/// framing on every case.
fn record_framed(prog: &Program) -> Vec<u8> {
    let mut w = StreamWriter::with_chunk_bytes(Vec::new(), 256).expect("header");
    run_serial(&mut w, |ctx| {
        execute(ctx, prog);
    });
    let (blob, _) = w.finish().expect("finish");
    blob
}

/// The decoded chunks of a strict read of `blob`, for the serial engine.
fn intact_chunks(blob: &[u8]) -> impl Iterator<Item = Result<DecodedChunk, TraceError>> + '_ {
    trace_chunks(blob, false).filter_map(Result::transpose)
}

/// Runs one detector live and replayed-from-frames, asserting that the
/// verdicts and the engine's stream accounting agree.
fn assert_live_matches_replay<A, F, R>(
    name: &str,
    seed: u64,
    prog: &Program,
    blob: &[u8],
    make: F,
    racy: R,
) where
    A: Analysis,
    F: Fn() -> A,
    R: Fn(&A::Report) -> bool,
{
    let live = run_analysis_live(
        |ctx| {
            execute(ctx, prog);
        },
        make(),
    );
    let replayed = run_analysis(intact_chunks(blob), make())
        .unwrap_or_else(|e| panic!("{name}, seed {seed}: replay failed: {e}"));
    assert_eq!(
        racy(&live.report),
        racy(&replayed.report),
        "{name}, seed {seed}: live and replayed verdicts differ"
    );
    assert_eq!(
        live.counters.events, replayed.counters.events,
        "{name}, seed {seed}: event counts differ"
    );
    assert_eq!(
        live.counters.checks(),
        replayed.counters.checks(),
        "{name}, seed {seed}: check counts differ"
    );
}

#[test]
fn every_baseline_replays_framed_traces_to_its_live_verdict() {
    // ≥256 random programs: each is recorded once to a framed v2 trace,
    // then every detector in the workspace runs both live and from the
    // replayed frames through the same engine driver. SP-bags and
    // offset-span drop the default mix's futures, which are out of their
    // model.
    propcheck::check(&Config::with_cases(256), &strategies::any_u64(), |seed| {
        let prog = generate(seed, &GenParams::default());
        let blob = record_framed(&prog);
        let b = blob.as_slice();
        assert_live_matches_replay("dtrg", seed, &prog, b, RaceDetector::new, |r| {
            r.report.has_races()
        });
        assert_live_matches_replay("espbags", seed, &prog, b, EspBags::new, |r| r.has_races());
        assert_live_matches_replay("spbags", seed, &prog, b, SpBags::new, |r| r.has_races());
        assert_live_matches_replay("offsetspan", seed, &prog, b, OffsetSpan::new, |r| {
            r.has_races()
        });
        assert_live_matches_replay("spd3", seed, &prog, b, Spd3::new, |r| r.has_races());
        assert_live_matches_replay("vc", seed, &prog, b, VectorClockDetector::new, |r| {
            r.has_races()
        });
        assert_live_matches_replay("closure", seed, &prog, b, ClosureDetector::new, |r| {
            r.has_races()
        });

        // The loc-routable detectors must also agree when the same frames
        // are sharded across 3 workers.
        let plan = SupervisorPlan::for_shards(Some(3));
        let serial = run_analysis(intact_chunks(b), RaceDetector::new()).expect("serial dtrg");
        let Ok(SupervisedOutcome::Completed {
            report: sharded, ..
        }) = run_supervised(|| trace_chunks(b, false), RaceDetector::new, &plan, None)
        else {
            panic!("sharded dtrg, seed {seed}");
        };
        assert_eq!(
            serial.report.report.races, sharded.report.races,
            "dtrg sharded, seed {seed}"
        );
        let serial_vc =
            run_analysis(intact_chunks(b), VectorClockDetector::new()).expect("serial vc");
        let Ok(SupervisedOutcome::Completed {
            report: sharded_vc, ..
        }) = run_supervised(
            || trace_chunks(b, false),
            VectorClockDetector::new,
            &plan,
            None,
        )
        else {
            panic!("sharded vc, seed {seed}");
        };
        assert_eq!(
            serial_vc.report.races, sharded_vc.races,
            "vc sharded, seed {seed}"
        );
    });
}
