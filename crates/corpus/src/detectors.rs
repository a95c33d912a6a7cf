//! Named-detector registry: the CLI's `--detector` names, the report-type
//! erasure ([`AnyReport`]), and the shardable-capability lookup.
//!
//! Every detector in the workspace implements
//! [`futrace_runtime::engine::Analysis`]; the `Analyze` builder
//! ([`crate::analyze::Analyze::run_named`]) maps each name onto its
//! detector and runs it, serially or, for the shardable ones, in the
//! shard stage.

#![warn(missing_docs)]

use futrace_baselines::{BaselineReport, ClosureReport};
use futrace_detector::DtrgReport;

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

    /// Hot-path cache totals as `(hits, misses)`, as
    /// `DtrgCounters::cache_totals` derives them. `None` for the uncached
    /// detectors.
    pub(crate) fn cache_counters(&self) -> Option<(u64, u64)> {
        match self {
            AnyReport::Dtrg(r) => Some(r.stats.dtrg.cache_totals()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{Analyze, DetectorOutcome, DetectorRun};
    use futrace_runtime::{run_serial, EventLog, TaskCtx};

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

    /// Runs detector `name` as `analyze` asks, to completion.
    fn completed(analyze: Analyze<'_>, name: &str) -> DetectorOutcome {
        match analyze.run_named(name) {
            Ok(DetectorRun::Completed(out)) => out,
            other => panic!("{name}: no stop requested, must complete: {other:?}"),
        }
    }

    fn run(name: &str, log: &EventLog) -> DetectorOutcome {
        completed(Analyze::events(&log.events), name)
    }

    #[test]
    fn every_name_resolves_and_runs() {
        let log = future_sync_trace();
        for &name in DETECTOR_NAMES {
            assert!(is_detector(name));
            let out = run(name, &log);
            assert_eq!(out.engine.checks(), 2, "{name}");
            assert!(out.engine.events > 2, "{name}");
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
    fn bags_and_labels_note_only_what_they_dropped() {
        // Spawn-sync: nothing falls outside SP-bags' or Offset-Span's
        // model, so neither notes a drop; the future trace's get() is
        // counted.
        let mut spawn_sync = EventLog::new();
        run_serial(&mut spawn_sync, |ctx| {
            let x = ctx.shared_var(0u64, "x");
            ctx.finish(|ctx| {
                let xa = x.clone();
                ctx.async_task(move |ctx| xa.write(ctx, 1));
            });
            x.write(ctx, 2);
        });
        let gets = "ignored 1 get() edge(s): verdict may over-approximate on futures";
        for name in ["spbags", "offsetspan"] {
            let clean = run(name, &spawn_sync).report.notes();
            assert!(
                !clean
                    .iter()
                    .any(|n| n.contains("ignored") || n.contains("dropped")),
                "{name}: {clean:?}"
            );
            let futures = run(name, &future_sync_trace()).report.notes();
            assert!(futures.iter().any(|n| n == gets), "{name}: {futures:?}");
        }
    }

    #[test]
    fn supervised_detectors_match_their_serial_runs() {
        let log = future_sync_trace();
        for name in ["dtrg", "vc"] {
            let serial = run(name, &log).report;
            let supervised = Analyze::events(&log.events).shards(2).checkpoint_every(1);
            let out = completed(supervised, name);
            let (report, stats) = (out.report, out.sharding.expect("sharded"));
            let supervision = out.supervision.expect("supervised");
            assert_eq!(serial.race_count(), report.race_count(), "{name}");
            assert_eq!(stats.shards, 2, "{name}");
            assert!(!supervision.any(), "{name}: clean run, nothing to report");
        }
    }

    #[test]
    fn shardable_detectors_match_their_serial_runs() {
        let log = future_sync_trace();
        for name in DETECTOR_NAMES {
            assert_eq!(is_shardable(name), matches!(*name, "dtrg" | "vc"));
        }
        for name in ["dtrg", "vc"] {
            let serial = run(name, &log).report;
            let out = completed(Analyze::events(&log.events).shards(3), name);
            let (report, stats) = (out.report, out.sharding.expect("sharded"));
            assert_eq!(serial.race_count(), report.race_count(), "{name}");
            assert_eq!(stats.shards, 3);
        }
    }
}
