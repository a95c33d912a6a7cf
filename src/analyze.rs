//! `Analyze` — the one front door for race detection.
//!
//! One builder runs a detector over any source, through any backend:
//!
//! ```
//! use futrace::Analyze;
//! use futrace::runtime::TaskCtx;
//!
//! let outcome = Analyze::program(|ctx| {
//!     let x = ctx.shared_var(0u64, "x");
//!     let x2 = x.clone();
//!     let f = ctx.future(move |ctx| x2.write(ctx, 1));
//!     ctx.get(&f);
//!     let _ = x.read(ctx);
//! })
//! .run()
//! .unwrap();
//! assert!(!outcome.has_races());
//! assert_eq!(outcome.stats.shared_mem(), 2);
//! ```
//!
//! Every run — program, trace file, trace blob, or event slice; serial,
//! sharded, or supervised — produces the same [`AnalysisOutcome`]: races,
//! detector statistics, measured footprint, engine counters (with the
//! hot-path cache hit/miss totals filled in), and the optional
//! sharding/supervision accounting. Sources and options compose:
//! `Analyze::trace(path).shards(4).checkpoint_every(8).run()` replays a
//! recorded trace through the supervised sharded pipeline, and
//! [`Analyze::run_named`] runs any registry detector the same way.
//!
//! The builder lives in `futrace-corpus`, next to the detector registry
//! it runs by name, so `tracetool`, corpus jobs and the differential
//! fuzzer reach every detector through it; this module re-exports it,
//! and [`AnalysisOutcome`] from `futrace-offline`, at their long-standing
//! paths. See [`futrace_corpus::analyze`] for the backends.

pub use futrace_corpus::analyze::{Analyze, AnalyzeError, DetectorOutcome, DetectorRun};
pub use futrace_offline::AnalysisOutcome;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::DetectorConfig;
    use crate::runtime::{run_serial, EventLog, SerialCtx, TaskCtx};

    fn racy(ctx: &mut SerialCtx<EventLog>) {
        let x = ctx.shared_var(0u64, "x");
        let x2 = x.clone();
        let _f = ctx.future(move |ctx| x2.write(ctx, 1));
        let _ = x.read(ctx); // no get(): a race
    }

    #[test]
    fn program_parallel_matches_serial_program() {
        fn prog<C: TaskCtx>(ctx: &mut C) {
            let x = ctx.shared_var(0u64, "x");
            let x2 = x.clone();
            let f = ctx.future(move |ctx| x2.write(ctx, 1));
            ctx.get(&f);
            let y = ctx.shared_var(0u64, "y");
            let y2 = y.clone();
            let _unjoined = ctx.future(move |ctx| y2.write(ctx, 2));
            let _ = y.read(ctx); // races with the unjoined writer
        }

        let serial = Analyze::program(|ctx| prog(ctx)).run().unwrap();
        assert!(serial.has_races());
        for threads in [1usize, 2, 4] {
            let par = Analyze::program_parallel(threads, |ctx| prog(ctx))
                .run()
                .unwrap();
            assert_eq!(par.races.races, serial.races.races);
            assert_eq!(par.races.total_detected, serial.races.total_detected);
            assert_eq!(par.stats.shared_mem(), serial.stats.shared_mem());
            assert_eq!(par.engine.checks(), serial.engine.checks());
            let online = par.online.expect("parallel runs carry telemetry");
            assert_eq!(online.threads, threads);
            assert!(online.workers_spawned >= threads);
            assert!(online.publishes > 0);
            assert!(!online.truncated);
        }
    }

    #[test]
    fn program_parallel_rejects_trace_only_options() {
        let noop = |_: &mut crate::runtime::ParCtx| {};
        let err = Analyze::program_parallel(2, noop)
            .checkpoint_every(4)
            .run()
            .unwrap_err();
        assert!(matches!(err, AnalyzeError::Config(_)), "{err}");

        let err = Analyze::program_parallel(2, noop)
            .fault_plan(7)
            .run()
            .unwrap_err();
        assert!(matches!(err, AnalyzeError::Config(_)), "{err}");

        let err = Analyze::program_parallel(2, noop)
            .lenient(true)
            .run()
            .unwrap_err();
        assert!(matches!(err, AnalyzeError::Config(_)), "{err}");

        let err = Analyze::program_parallel(2, noop)
            .shards(2)
            .run()
            .unwrap_err();
        assert!(matches!(err, AnalyzeError::Config(_)), "{err}");

        let err = Analyze::program_parallel(0, noop).run().unwrap_err();
        assert!(matches!(err, AnalyzeError::Config(_)), "{err}");

        let err = Analyze::program(racy).steal_seed(3).run().unwrap_err();
        assert!(matches!(err, AnalyzeError::Config(_)), "{err}");
    }

    #[test]
    fn program_parallel_deadlock_is_an_error() {
        let err = Analyze::program_parallel(2, |ctx| {
            let (tx, rx) = std::sync::mpsc::channel::<crate::runtime::ParHandle<u64>>();
            let a = ctx.future(move |ctx| {
                let h = rx.recv().unwrap();
                ctx.get(&h) // waits on itself: Appendix A's cycle
            });
            tx.send(a.clone()).unwrap();
            ctx.get(&a);
        })
        .run()
        .unwrap_err();
        assert!(matches!(err, AnalyzeError::Deadlock(_)), "{err}");
    }

    #[test]
    fn zero_shards_and_zero_checkpoint_are_config_errors() {
        let err = Analyze::program(racy).shards(0).run().unwrap_err();
        assert!(matches!(err, AnalyzeError::Config(_)), "{err}");
        assert!(err.to_string().contains("shards(0)"));

        let err = Analyze::program(racy)
            .checkpoint_every(0)
            .run()
            .unwrap_err();
        assert!(matches!(err, AnalyzeError::Config(_)), "{err}");
        assert!(err.to_string().contains("checkpoint_every(0)"));
    }

    #[test]
    fn program_run_reports_race_and_counters() {
        let out = Analyze::program(racy).run().unwrap();
        assert!(out.has_races());
        assert_eq!(out.stats.shared_mem(), 2);
        assert_eq!(out.engine.checks(), 2);
        assert!(out.sharding.is_none());
        assert!(out.supervision.is_none());
    }

    #[test]
    fn builder_options_compose() {
        let out = Analyze::program(|ctx| {
            let x = ctx.shared_var(0u64, "x");
            let x2 = x.clone();
            let f = ctx.future(move |ctx| x2.write(ctx, 1));
            ctx.get(&f);
            let _ = x.read(ctx);
        })
        .detector(DetectorConfig {
            first_race_only: true,
            ..DetectorConfig::default()
        })
        .shards(2)
        .run()
        .unwrap();
        assert!(!out.has_races());
        let sharding = out.sharding.expect("sharded backend ran");
        assert_eq!(sharding.shards, 2);
        // Plain sharding that needed no recovery reports no supervision.
        assert!(out.supervision.is_none());
    }

    #[test]
    fn trace_bytes_and_events_agree_with_program() {
        let mut log = EventLog::new();
        run_serial(&mut log, racy);
        let mut writer = crate::offline::StreamWriter::new(Vec::new()).unwrap();
        crate::runtime::replay(&log.events, &mut writer);
        let (blob, _) = writer.finish().unwrap();

        let from_program = Analyze::program(racy).run().unwrap();
        let from_events = Analyze::events(&log.events).run().unwrap();
        let from_blob = Analyze::trace_bytes(&blob).run().unwrap();
        for out in [&from_events, &from_blob] {
            assert_eq!(out.races.races, from_program.races.races);
            assert_eq!(out.races.total_detected, from_program.races.total_detected);
            assert_eq!(out.stats.shared_mem(), from_program.stats.shared_mem());
        }
    }

    #[test]
    fn supervised_run_completes_with_accounting() {
        let out = Analyze::program(racy)
            .shards(2)
            .checkpoint_every(2)
            .run()
            .unwrap();
        assert!(out.has_races());
        let supervision = out.supervision.expect("supervised backend ran");
        assert_eq!(supervision.resumed_from_checkpoint, 0);
        assert!(out.sharding.is_some());
    }

    #[test]
    fn missing_trace_file_is_an_io_error() {
        let err = Analyze::trace("/nonexistent/definitely-missing.ftrc")
            .run()
            .unwrap_err();
        assert!(matches!(err, AnalyzeError::Io(..)), "{err}");
        assert!(err.to_string().contains("definitely-missing"));
    }

    #[test]
    fn garbage_bytes_are_a_trace_error() {
        let err = Analyze::trace_bytes(&[0xFF, 0xFE, 0xFD]).run().unwrap_err();
        assert!(
            matches!(
                err,
                AnalyzeError::Trace(crate::offline::FrameError::NotFramed)
            ),
            "{err}"
        );
    }

    #[test]
    fn cache_counters_reach_the_engine_display() {
        let out = Analyze::program(|ctx| {
            let x = ctx.shared_var(0u64, "x");
            for _ in 0..32 {
                let _ = x.read(ctx); // repeated clean reads: fast-path hits
            }
        })
        .run()
        .unwrap();
        assert!(!out.has_races());
        assert!(out.stats.dtrg.shadow_hits > 0);
        assert_eq!(
            out.engine.cache_hits,
            out.stats.dtrg.memo_hits + out.stats.dtrg.shadow_hits
        );
        assert!(out.engine.to_string().contains("cache:"), "{}", out.engine);
    }
}
