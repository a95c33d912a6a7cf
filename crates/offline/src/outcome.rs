//! The shape every DTRG analysis run returns, whatever its source and
//! backend: the one-shot `Analyze` builder's runs and a daemon session's
//! finish alike.

use crate::{FrameError, ShardStats, SupervisionReport};
use futrace_detector::{DetectorStats, DtrgReport, MemoryFootprint, RaceReport};
use futrace_runtime::engine::EngineCounters;
use futrace_runtime::online::OnlineStats;

/// Everything one analysis run produces, whatever the source and backend.
#[derive(Clone, Debug)]
pub struct AnalysisOutcome {
    /// Deduplicated, capped race report (the verdict).
    pub races: RaceReport,
    /// Structural statistics and DTRG cost counters (Table 2's columns,
    /// plus the memo and fast-path cache counters).
    pub stats: DetectorStats,
    /// Theorem 1's space bound, measured at the end of the run.
    pub footprint: MemoryFootprint,
    /// Engine counters: events consumed, checks performed, wall time,
    /// cache hit/miss totals, and damaged chunks a lenient read dropped.
    pub engine: EngineCounters,
    /// Sharded-pipeline accounting, when the shard stage ran.
    pub sharding: Option<ShardStats>,
    /// What the supervisor did, when the run asked for supervision
    /// (snapshots, injected faults, a stop point or a resume) or a plain
    /// sharded run had to recover (a dead worker degrades it to serial).
    pub supervision: Option<SupervisionReport>,
    /// Online-pipeline telemetry (buffer publishes, canonical-walk
    /// frontier waits, pool workers spawned), when the source was an
    /// instrumented parallel execution (`Analyze::program_parallel`).
    pub online: Option<OnlineStats>,
    /// The truncation a lenient read cut the trace at ([`crate::salvage`]):
    /// the run checked only the complete chunks before it.
    pub truncated: Option<FrameError>,
}

impl AnalysisOutcome {
    /// True iff any race was detected.
    pub fn has_races(&self) -> bool {
        self.races.has_races()
    }

    /// The outcome of one DTRG run, from its finished report and the
    /// engine counters that drove it. Fills the counters' cache totals
    /// from the detector's statistics (`DtrgCounters::cache_totals`). No
    /// sharding, supervision, online or truncation accounting is
    /// attached.
    pub fn from_dtrg(report: DtrgReport, mut engine: EngineCounters) -> Self {
        (engine.cache_hits, engine.cache_misses) = report.stats.dtrg.cache_totals();
        AnalysisOutcome {
            races: report.report,
            stats: report.stats,
            footprint: report.footprint,
            engine,
            sharding: None,
            supervision: None,
            online: None,
            truncated: None,
        }
    }
}
