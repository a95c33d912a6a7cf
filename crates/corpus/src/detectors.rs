//! Named-detector registry: one place that maps the CLI's `--detector`
//! names onto engine [`Analysis`] runs.
//!
//! Every detector in the workspace implements
//! [`futrace_runtime::engine::Analysis`], so "run detector X over trace Y"
//! is a single [`run_analysis`] call; this module adds the name table, the
//! report-type erasure ([`AnyReport`]), and the shardable-capability
//! lookup that `tracetool analyze --detector` and `tracetool compare`
//! need.

#![warn(missing_docs)]

use futrace_baselines::{
    BaselineReport, ClosureDetector, ClosureReport, EspBags, OffsetSpan, SpBags, Spd3,
    VectorClockDetector,
};
use futrace_detector::{DtrgReport, RaceDetector};
use futrace_offline::{
    run_supervised, Checkpoint, SuperviseError, SupervisedOutcome, SupervisorPlan,
};
use futrace_runtime::engine::{run_analysis, source, AnalysisOutcome};
use futrace_runtime::Event;

/// Every detector name `tracetool analyze --detector` accepts, in the
/// order `compare` runs them by default.
pub const DETECTOR_NAMES: &[&str] = &[
    "dtrg",
    "espbags",
    "spbags",
    "offsetspan",
    "spd3",
    "vc",
    "closure",
];

/// True iff `name` is a known detector name.
pub fn is_detector(name: &str) -> bool {
    DETECTOR_NAMES.contains(&name)
}

/// True iff the named detector's checks are loc-routable, i.e. it
/// implements [`futrace_runtime::engine::LocRoutable`] and may run under
/// `--shards N`. The DTRG detector and the vector-clock baseline qualify;
/// the bags/label baselines need the global access order and the closure
/// oracle finalizes over the whole graph, so they opt out.
pub fn is_shardable(name: &str) -> bool {
    matches!(name, "dtrg" | "vc")
}

/// The report of any registry detector, erased to one enum so CLI code
/// can handle all of them uniformly.
#[derive(Clone, Debug)]
pub enum AnyReport {
    /// The DTRG detector's full report (races + stats + footprint).
    Dtrg(Box<DtrgReport>),
    /// A baseline's summary report.
    Baseline(BaselineReport),
    /// The closure oracle's report (exact race list + graph).
    Closure(Box<ClosureReport>),
}

impl AnyReport {
    /// Total races detected (the DTRG's `total_detected`, a baseline's
    /// failed checks, the oracle's racing pairs).
    pub fn race_count(&self) -> u64 {
        match self {
            AnyReport::Dtrg(r) => r.report.total_detected,
            AnyReport::Baseline(r) => r.races,
            AnyReport::Closure(r) => r.races.len() as u64,
        }
    }

    /// True iff the detector reported any race.
    pub fn has_races(&self) -> bool {
        self.race_count() > 0
    }

    /// Algorithm-specific observations worth printing alongside the
    /// verdict (approximation warnings, cost metrics).
    pub fn notes(&self) -> Vec<String> {
        match self {
            AnyReport::Dtrg(r) => vec![format!(
                "#Tasks: {}, #SharedMem: {}, #AvgReaders: {:.3}",
                r.stats.tasks,
                r.stats.shared_mem(),
                r.stats.avg_readers()
            )],
            AnyReport::Baseline(r) => r.notes.clone(),
            AnyReport::Closure(r) => vec![format!(
                "exact oracle: {} steps, {} racing pair(s)",
                r.graph.step_count(),
                r.races.len()
            )],
        }
    }

    /// One rendered line per reported race (capped upstream), for display.
    pub fn race_lines(&self) -> Vec<String> {
        match self {
            AnyReport::Dtrg(r) => r.report.races.iter().map(|x| x.to_string()).collect(),
            AnyReport::Baseline(_) => Vec::new(), // baselines keep counts only
            AnyReport::Closure(r) => r.races.iter().map(|x| format!("{x:?}")).collect(),
        }
    }

    /// Hot-path cache totals as `(hits, misses)`: the DTRG's memo and
    /// shadow fast-path counters (only the memo records misses — every
    /// slow-path check is one). `None` for the uncached detectors.
    pub fn cache_counters(&self) -> Option<(u64, u64)> {
        match self {
            AnyReport::Dtrg(r) => Some((
                r.stats.dtrg.memo_hits + r.stats.dtrg.shadow_hits,
                r.stats.dtrg.memo_misses,
            )),
            _ => None,
        }
    }
}

/// Copies the report's cache totals into the driver counters (a no-op for
/// detectors without a hot-path cache).
fn fill_cache_counters(mut o: AnalysisOutcome<AnyReport>) -> AnalysisOutcome<AnyReport> {
    if let Some((hits, misses)) = o.report.cache_counters() {
        o.counters.cache_hits = hits;
        o.counters.cache_misses = misses;
    }
    o
}

/// Runs the named detector over an already-decoded event list through the
/// engine's batched dispatch path (consecutive accesses are handed to the
/// analysis as flat slices instead of one virtual call per event).
///
/// # Panics
///
/// Panics on an unknown name — validate with [`is_detector`] first.
pub fn run_on_recorded(name: &str, events: &[Event]) -> AnalysisOutcome<AnyReport> {
    fn go<A>(events: &[Event], analysis: A) -> AnalysisOutcome<A::Report>
    where
        A: futrace_runtime::engine::Analysis,
    {
        match run_analysis(source::recorded(events), analysis) {
            Ok(o) => o,
            Err(never) => match never {},
        }
    }
    match name {
        "dtrg" => fill_cache_counters(
            go(events, RaceDetector::new()).map(|r| AnyReport::Dtrg(Box::new(r))),
        ),
        "espbags" => go(events, EspBags::new()).map(AnyReport::Baseline),
        "spbags" => go(events, SpBags::new_lenient()).map(AnyReport::Baseline),
        "offsetspan" => go(events, OffsetSpan::new_lenient()).map(AnyReport::Baseline),
        "spd3" => go(events, Spd3::new()).map(AnyReport::Baseline),
        "vc" => go(events, VectorClockDetector::new()).map(AnyReport::Baseline),
        "closure" => go(events, ClosureDetector::new()).map(|r| AnyReport::Closure(Box::new(r))),
        other => panic!("unknown detector {other:?} (validate with is_detector)"),
    }
}

/// Runs the named detector sharded over `plan.shard.shards` workers, in
/// the offline shard stage ([`futrace_offline::run_supervised`]). The plan
/// sets the recovery policy: under [`SupervisorPlan::plain`] a dead worker
/// degrades the run to a serial pass with the same verdict; with
/// snapshots, workers restart from them, and the run can suspend into a
/// [`Checkpoint`] and later resume from one.
///
/// `make_chunks` yields the trace's decoded chunks as
/// [`run_supervised`] reads them, a fresh stream over the same trace on
/// each call (a degraded run reads it again from the start).
///
/// # Panics
///
/// Panics if the detector is not loc-routable — check [`is_shardable`]
/// first (the CLI parser does).
pub fn run_supervised_on_events<C, E, I, MF>(
    name: &str,
    make_chunks: MF,
    plan: &SupervisorPlan,
    resume: Option<&Checkpoint>,
) -> Result<SupervisedOutcome<AnyReport>, SuperviseError<E>>
where
    C: AsRef<[Event]>,
    I: Iterator<Item = Result<Option<C>, E>>,
    MF: Fn() -> I,
{
    fn erase<R>(
        out: SupervisedOutcome<R>,
        f: impl FnOnce(R) -> AnyReport,
    ) -> SupervisedOutcome<AnyReport> {
        match out {
            SupervisedOutcome::Completed {
                report,
                stats,
                supervision,
            } => SupervisedOutcome::Completed {
                report: f(report),
                stats,
                supervision,
            },
            SupervisedOutcome::Suspended {
                checkpoint,
                supervision,
            } => SupervisedOutcome::Suspended {
                checkpoint,
                supervision,
            },
        }
    }
    match name {
        "dtrg" => run_supervised(make_chunks, RaceDetector::new, plan, resume)
            .map(|o| erase(o, |r| AnyReport::Dtrg(Box::new(r)))),
        "vc" => run_supervised(make_chunks, VectorClockDetector::new, plan, resume)
            .map(|o| erase(o, AnyReport::Baseline)),
        other => panic!("detector {other:?} is not shardable (check is_shardable)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use futrace_offline::event_chunks;
    use futrace_runtime::{run_serial, EventLog, TaskCtx};
    use std::convert::Infallible;

    fn future_sync_trace() -> EventLog {
        // Race-free only because of the get() edge: DTRG/vc/closure say
        // clean, the bags baselines over-report.
        let mut log = EventLog::new();
        run_serial(&mut log, |ctx| {
            let x = ctx.shared_var(0u64, "x");
            let x2 = x.clone();
            let f = ctx.future(move |ctx| x2.write(ctx, 1));
            ctx.get(&f);
            let _ = x.read(ctx);
        });
        log
    }

    fn run(name: &str, log: &EventLog) -> AnalysisOutcome<AnyReport> {
        run_on_recorded(name, &log.events)
    }

    #[test]
    fn every_name_resolves_and_runs() {
        let log = future_sync_trace();
        for &name in DETECTOR_NAMES {
            assert!(is_detector(name));
            let out = run(name, &log);
            assert_eq!(out.counters.checks(), 2, "{name}");
            assert!(out.counters.events > 2, "{name}");
        }
        assert!(!is_detector("banana"));
    }

    #[test]
    fn future_synchronization_splits_exact_from_approximate() {
        let log = future_sync_trace();
        for name in ["dtrg", "vc", "closure"] {
            assert!(!run(name, &log).report.has_races(), "{name} is exact");
        }
        for name in ["espbags", "spd3"] {
            let rep = run(name, &log).report;
            assert!(
                rep.has_races(),
                "{name} ignores get() and must over-report here"
            );
            assert!(
                rep.notes().iter().any(|n| n.contains("get()")),
                "{name} must flag its ignored gets: {:?}",
                rep.notes()
            );
        }
    }

    #[test]
    fn supervised_detectors_match_their_serial_runs() {
        let log = future_sync_trace();
        let plan = SupervisorPlan::for_shards(Some(2), true);
        for name in ["dtrg", "vc"] {
            let serial = run(name, &log).report;
            let out = run_supervised_on_events(
                name,
                || log.events.chunks(4).map(|c| Ok::<_, Infallible>(Some(c))),
                &plan,
                None,
            )
            .unwrap();
            let SupervisedOutcome::Completed {
                report,
                stats,
                supervision,
            } = out
            else {
                panic!("no stop requested, must complete");
            };
            assert_eq!(serial.race_count(), report.race_count(), "{name}");
            assert_eq!(stats.shards, 2, "{name}");
            assert!(!supervision.any(), "{name}: clean run, nothing to report");
        }
    }

    #[test]
    fn shardable_detectors_match_their_serial_runs() {
        let log = future_sync_trace();
        let plan = SupervisorPlan::for_shards(Some(3), false);
        for name in DETECTOR_NAMES {
            assert_eq!(is_shardable(name), matches!(*name, "dtrg" | "vc"));
        }
        for name in ["dtrg", "vc"] {
            let serial = run(name, &log).report;
            let Ok(SupervisedOutcome::Completed { report, stats, .. }) = run_supervised_on_events(
                name,
                || event_chunks::<Infallible>(&log.events),
                &plan,
                None,
            ) else {
                panic!("{name}: no stop requested, must complete");
            };
            assert_eq!(serial.race_count(), report.race_count(), "{name}");
            assert_eq!(stats.shards, 3);
        }
    }
}
