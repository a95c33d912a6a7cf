//! The on-the-fly determinacy race detector (Algorithms 1–10 assembled).
//!
//! [`RaceDetector`] implements [`Monitor`] and drives the
//! [`crate::dtrg::Dtrg`] and [`crate::shadow::ShadowMemory`] from the
//! serial depth-first event stream:
//!
//! * task creation/termination → Algorithms 2–3 (labels, sets, `lsa`),
//! * `get` → Algorithm 4 (merge or non-tree edge),
//! * finish end → Algorithm 6 (merge all IEF joiners),
//! * write → Algorithm 8 (check readers + writer, become the writer),
//! * read → Algorithm 9 (check writer, update the reader set).
//!
//! ## The reader-set update rule (Algorithm 9, reconstructed)
//!
//! As printed in the paper, Algorithm 9 never adds the first reader of a
//! location (the `update` flag stays false when the loop body never runs).
//! We implement the evidently intended rule, which Lemmas 3–4 justify:
//!
//! * every stored reader `X` with `X ≺ current` is removed — any future
//!   access racing with `X` also races with the current reader (Lemma 3);
//! * the current reader is added **unless** it is an async task and a
//!   *parallel* async reader is already stored — for async triples,
//!   parallelism is transitive (Lemma 4), so the stored one suffices.
//!
//! This preserves the invariant that the reader set holds at most one
//! async task but arbitrarily many pairwise-parallel future tasks, and is
//! validated against the transitive-closure oracle by the property tests
//! in `tests/`.
//!
//! ## First-race semantics
//!
//! Like SP-bags and ESP-bags, the detector is sound and precise up to the
//! first race (Theorem 2): on a racy input, the access at which the first
//! race is reported is exact; subsequent reports are best-effort because
//! the DTRG's encoding assumes race-free handle flow (Lemma 1).

use crate::dtrg::Dtrg;
use crate::report::{AccessKind, Race, RaceReport};
use crate::shadow::{LastClean, Readers, ShadowCell, ShadowMemory};
use crate::stats::DetectorStats;
use futrace_runtime::engine::{Analysis, Checkpointable, LocRoutable, StateError};
use futrace_runtime::monitor::{Event, Monitor, TaskKind};
use futrace_runtime::online::ParMonitor;
#[cfg(test)]
use futrace_runtime::run_serial;
use futrace_util::ids::{FinishId, LocId, TaskId};
use futrace_util::{wire, FxHashSet};

/// Detector configuration.
#[derive(Clone, Debug)]
pub struct DetectorConfig {
    /// Maximum number of distinct races kept in the report (checking
    /// continues past the cap; only storage is bounded).
    pub max_reports: usize,
    /// Sample the stored-reader count on every access to produce Table 2's
    /// #AvgReaders column. Costs a few flops per access.
    pub track_avg_readers: bool,
    /// Stop race *checking* after the first detected race. The detector is
    /// exact only up to the first race anyway (Theorem 2's first-race
    /// semantics); this mode skips all further `Precede` queries and
    /// shadow updates, turning the remainder of the run into pure DTRG
    /// maintenance — useful when the verdict, not the full report, is
    /// wanted.
    pub first_race_only: bool,
    /// Enable the hot-path caches: the per-cell clean-verdict fast path
    /// (skip both `Precede` and shadow updates on a repeated clean access
    /// under an unchanged graph epoch) and the DTRG's `precede` memo
    /// table. Verdicts and race reports are byte-identical either way
    /// (held by the `fastpath_equivalence` propcheck); only the cost
    /// counters (`precede` calls, visit expansions) differ. Disable to
    /// measure the uncached pre-memo detector, as the perf harness does.
    pub caching: bool,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            max_reports: 100,
            track_avg_readers: true,
            first_race_only: false,
            caching: true,
        }
    }
}

/// Space accounting for a detector (the concrete instance of Theorem 1's
/// `O(a + f + n + v·(f+1))` bound).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// Tasks tracked by the DTRG (the `a + f` term).
    pub dtrg_tasks: usize,
    /// Non-tree predecessor entries stored (the `n` term).
    pub stored_nt_edges: usize,
    /// Shadow cells allocated (the `v` term).
    pub shadow_cells: usize,
    /// Reader entries stored across all cells (the `v·(f+1)` worst case).
    pub stored_readers: usize,
}

impl std::fmt::Display for MemoryFootprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dtrg tasks: {}, nt edges: {}, shadow cells: {}, stored readers: {}",
            self.dtrg_tasks, self.stored_nt_edges, self.shadow_cells, self.stored_readers
        )
    }
}

/// The dynamic task reachability graph determinacy race detector.
pub struct RaceDetector {
    dtrg: Dtrg,
    shadow: ShadowMemory,
    stats: DetectorStats,
    races: Vec<Race>,
    dedup: FxHashSet<(LocId, TaskId, TaskId, u8)>,
    total_detected: u64,
    access_index: u64,
    config: DetectorConfig,
}

impl Default for RaceDetector {
    fn default() -> Self {
        Self::new()
    }
}

impl RaceDetector {
    /// Fresh detector with default configuration (Algorithm 1 runs here:
    /// the main task gets label `[0, MAXINT]` and an empty set).
    pub fn new() -> Self {
        Self::with_config(DetectorConfig::default())
    }

    /// Fresh detector with explicit configuration.
    pub fn with_config(config: DetectorConfig) -> Self {
        let mut dtrg = Dtrg::new();
        dtrg.set_memo_enabled(config.caching);
        RaceDetector {
            dtrg,
            shadow: ShadowMemory::new(),
            stats: DetectorStats::default(),
            races: Vec::new(),
            dedup: FxHashSet::default(),
            total_detected: 0,
            access_index: 0,
            config,
        }
    }

    /// True iff any race has been detected so far.
    pub fn has_races(&self) -> bool {
        self.total_detected > 0
    }

    /// Races detected so far, uncapped (the live counter incremental
    /// sessions surface in verdict deltas between chunks).
    pub fn total_detected(&self) -> u64 {
        self.total_detected
    }

    /// Consumes the detector and produces the final report.
    pub fn into_report(self) -> RaceReport {
        RaceReport {
            races: self.races,
            total_detected: self.total_detected,
        }
    }

    /// Statistics accumulated so far (DTRG counters included).
    pub fn stats(&self) -> DetectorStats {
        let mut s = self.stats.clone();
        s.dtrg = self.dtrg.counters;
        s
    }

    /// The DTRG, for white-box tests and the Figure-3/Table-1 example.
    pub fn dtrg(&self) -> &Dtrg {
        &self.dtrg
    }

    /// Mutable DTRG access (reachability queries compress paths).
    pub fn dtrg_mut(&mut self) -> &mut Dtrg {
        &mut self.dtrg
    }

    /// Races reported so far (deduplicated, capped).
    pub fn races(&self) -> &[Race] {
        &self.races
    }

    /// Current space accounting (Theorem 1's bound, measured).
    pub fn memory_footprint(&self) -> MemoryFootprint {
        MemoryFootprint {
            dtrg_tasks: self.dtrg.task_count(),
            stored_nt_edges: self.dtrg.stored_nt_edges(),
            shadow_cells: self.shadow.len(),
            stored_readers: self.shadow.stored_readers(),
        }
    }

    #[inline]
    fn checking(&self) -> bool {
        !(self.config.first_race_only && self.total_detected > 0)
    }

    fn report(
        &mut self,
        loc: LocId,
        prev_task: TaskId,
        prev_kind: AccessKind,
        cur_task: TaskId,
        cur_kind: AccessKind,
    ) {
        self.total_detected += 1;
        let kinds = match (prev_kind, cur_kind) {
            (AccessKind::Read, AccessKind::Write) => 0u8,
            (AccessKind::Write, AccessKind::Read) => 1,
            (AccessKind::Write, AccessKind::Write) => 2,
            (AccessKind::Read, AccessKind::Read) => 3, // unreachable by construction
        };
        if self.races.len() < self.config.max_reports
            && self.dedup.insert((loc, prev_task, cur_task, kinds))
        {
            let render = |path: Vec<TaskId>| {
                path.iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("\u{2192}")
            };
            self.races.push(Race {
                loc,
                loc_name: self.shadow.describe(loc),
                prev_task,
                prev_kind,
                cur_task,
                cur_kind,
                access_index: self.access_index,
                prev_path: render(self.dtrg.spawn_path(prev_task)),
                cur_path: render(self.dtrg.spawn_path(cur_task)),
            });
        }
    }

    /// Applies the DTRG-maintenance half of the detector: control events
    /// (task create/end, finish start/end, get, alloc) update the
    /// reachability graph and shadow-memory registry but perform no
    /// shadow-memory *checks*. Returns `false` for `Read`/`Write` events,
    /// which callers must route through [`RaceDetector::check_read_at`] /
    /// [`RaceDetector::check_write_at`] instead.
    ///
    /// This split is what makes offline sharding possible: control events
    /// are cheap and can be broadcast to every shard (each maintains an
    /// identical DTRG replica), while the hot access checks are independent
    /// per location and can be partitioned.
    pub fn apply_control(&mut self, e: &Event) -> bool {
        match e {
            Event::TaskCreate {
                parent,
                child,
                kind,
                ief,
            } => self.task_create(*parent, *child, *kind, *ief),
            Event::TaskEnd(t) => self.task_end(*t),
            Event::FinishStart(t, f) => self.finish_start(*t, *f),
            Event::FinishEnd(t, f, joined) => self.finish_end(*t, *f, joined),
            Event::Get { waiter, awaited } => self.get(*waiter, *awaited),
            Event::Alloc(base, n, name) => self.alloc(*base, *n, name),
            Event::Read(..) | Event::Write(..) => return false,
        }
        true
    }

    /// Algorithm 8's write check at an explicit global access index.
    ///
    /// The online [`Monitor`] path numbers accesses itself; sharded offline
    /// replay numbers them in the router (one global stream) so every
    /// shard's race reports carry indices from the *same* sequence and the
    /// merged report is identical to the serial one.
    pub fn check_write_at(&mut self, task: TaskId, loc: LocId, index: u64) {
        self.access_index = index;
        self.stats.writes += 1;
        if !self.checking() {
            return;
        }
        self.sample_readers(loc);

        // Fast path: the cell's last check was this exact (task, write)
        // pair under an unchanged graph epoch, and it came back clean. The
        // slow path below would be a provable no-op (DESIGN S39): the cell
        // already holds this check's post-state, and `precede` verdicts
        // cannot change without an epoch bump.
        //
        // The probe is adaptive: cells whose access pattern the cache can
        // never serve (a different task or epoch on every touch) rack up a
        // miss streak and stop being probed (DESIGN S43) — the probe is
        // pure overhead there. A hit resets the streak, so cells that do
        // serve hits keep their fast path.
        if self.config.caching {
            let epoch = self.dtrg.epoch();
            let cell = self.shadow.cell_mut(loc);
            if cell.probe_enabled() {
                let want = Some(LastClean {
                    task,
                    write: true,
                    epoch,
                });
                if cell.last_clean == want {
                    cell.probe_misses = 0;
                    self.dtrg.counters.shadow_hits += 1;
                    return;
                }
                cell.probe_misses += 1;
            }
        }
        let detected_before = self.total_detected;

        // Readers: every stored reader must precede the writer; preceding
        // readers are removed (subsumed by the new writer), racy readers
        // are kept, as in the paper, so later accesses also check them.
        let readers = std::mem::take(&mut self.shadow.cell_mut(loc).readers);
        let mut kept = Readers::Empty;
        for x in readers.iter() {
            if self.dtrg.precede(x, task) {
                // removed
            } else {
                self.report(loc, x, AccessKind::Read, task, AccessKind::Write);
                kept.push(x);
            }
        }

        // Previous writer must precede.
        let prev_w = self.shadow.cell(loc).and_then(|c| c.writer);
        if let Some(w) = prev_w {
            if !self.dtrg.precede(w, task) {
                self.report(loc, w, AccessKind::Write, task, AccessKind::Write);
            }
        }

        // A racy check must clear the cache: repeating it has to re-count
        // the race, exactly as the uncached detector does.
        let clean = self.config.caching && self.total_detected == detected_before;
        let epoch = self.dtrg.epoch();
        let cell = self.shadow.cell_mut(loc);
        cell.readers = kept;
        cell.writer = Some(task);
        cell.last_clean = clean.then_some(LastClean {
            task,
            write: true,
            epoch,
        });
    }

    /// Algorithm 9's read check at an explicit global access index (see
    /// [`RaceDetector::check_write_at`] for why the index is external).
    pub fn check_read_at(&mut self, task: TaskId, loc: LocId, index: u64) {
        self.access_index = index;
        self.stats.reads += 1;
        if !self.checking() {
            return;
        }
        self.sample_readers(loc);

        // Fast path: see `check_write_at` — a repeated clean read by the
        // same task under the same epoch leaves the cell byte-identical
        // (the take/re-push loop preserves reader order). Same adaptive
        // miss-streak bypass as the write probe.
        if self.config.caching {
            let epoch = self.dtrg.epoch();
            let cell = self.shadow.cell_mut(loc);
            if cell.probe_enabled() {
                let want = Some(LastClean {
                    task,
                    write: false,
                    epoch,
                });
                if cell.last_clean == want {
                    cell.probe_misses = 0;
                    self.dtrg.counters.shadow_hits += 1;
                    return;
                }
                cell.probe_misses += 1;
            }
        }
        let detected_before = self.total_detected;

        // Previous writer must precede the reader.
        let prev_w = self.shadow.cell(loc).and_then(|c| c.writer);
        if let Some(w) = prev_w {
            if !self.dtrg.precede(w, task) {
                self.report(loc, w, AccessKind::Write, task, AccessKind::Read);
            }
        }

        let cur_is_future = self.dtrg.is_future(task);
        let readers = std::mem::take(&mut self.shadow.cell_mut(loc).readers);
        let mut kept = Readers::Empty;
        let mut add = true;
        for x in readers.iter() {
            if self.dtrg.precede(x, task) {
                // Superseded: any future conflict with x is also a conflict
                // with the current reader (Lemma 3).
            } else {
                kept.push(x);
                if !cur_is_future && !self.dtrg.is_future(x) {
                    // Parallel async pair: Lemma 4 makes the stored async
                    // reader a sufficient representative.
                    add = false;
                }
            }
        }
        if add {
            kept.push(task);
        }
        let clean = self.config.caching && self.total_detected == detected_before;
        let epoch = self.dtrg.epoch();
        let cell = self.shadow.cell_mut(loc);
        cell.readers = kept;
        cell.last_clean = clean.then_some(LastClean {
            task,
            write: false,
            epoch,
        });
    }

    #[inline]
    fn sample_readers(&mut self, loc: LocId) {
        if self.config.track_avg_readers {
            let n = self
                .shadow
                .cell(loc)
                .map(|c| c.readers.len())
                .unwrap_or(0);
            self.stats.readers_at_access.push(n as f64);
        }
    }
}

impl Monitor for RaceDetector {
    fn task_create(&mut self, parent: TaskId, child: TaskId, kind: TaskKind, _ief: FinishId) {
        self.stats.tasks += 1;
        match kind {
            TaskKind::Future => self.stats.future_tasks += 1,
            TaskKind::Async => self.stats.async_tasks += 1,
            TaskKind::Main => {}
        }
        self.dtrg.on_task_create(parent, child, kind);
    }

    fn task_end(&mut self, task: TaskId) {
        self.dtrg.on_task_end(task);
    }

    fn get(&mut self, waiter: TaskId, awaited: TaskId) {
        self.dtrg.on_get(waiter, awaited);
    }

    fn finish_end(&mut self, task: TaskId, _finish: FinishId, joined: &[TaskId]) {
        self.dtrg.on_finish_end(task, joined);
    }

    fn alloc(&mut self, base: LocId, n: u32, name: &str) {
        self.shadow.register(base, n, name);
    }

    /// Algorithm 8: write check.
    fn write(&mut self, task: TaskId, loc: LocId) {
        let index = self.access_index;
        self.check_write_at(task, loc, index);
        self.access_index = index + 1;
    }

    /// Algorithm 9: read check (reader-set rule as reconstructed in the
    /// module docs).
    fn read(&mut self, task: TaskId, loc: LocId) {
        let index = self.access_index;
        self.check_read_at(task, loc, index);
        self.access_index = index + 1;
    }
}

/// Everything a DTRG run produces: the race report, the run's structural
/// statistics (Table 2's columns), and the measured space bound.
///
/// This is the [`Analysis::Report`] of [`RaceDetector`] under the engine
/// layer; callers project out the pieces they need.
#[derive(Clone, Debug)]
pub struct DtrgReport {
    /// Deduplicated, capped race report (the verdict).
    pub report: RaceReport,
    /// Structural statistics and DTRG cost counters.
    pub stats: DetectorStats,
    /// Theorem 1's space bound, measured at the end of the run.
    pub footprint: MemoryFootprint,
}

impl Analysis for RaceDetector {
    type Report = DtrgReport;

    fn apply_control(&mut self, e: &Event) {
        // Delegates to the inherent split half (inherent methods win name
        // resolution, so this is not a recursive call).
        let applied = RaceDetector::apply_control(self, e);
        debug_assert!(applied, "engine must route accesses to check_*_at");
    }

    fn check_read_at(&mut self, task: TaskId, loc: LocId, index: u64) {
        RaceDetector::check_read_at(self, task, loc, index);
    }

    fn check_write_at(&mut self, task: TaskId, loc: LocId, index: u64) {
        RaceDetector::check_write_at(self, task, loc, index);
    }

    fn finish(self) -> DtrgReport {
        let stats = self.stats();
        let footprint = self.memory_footprint();
        DtrgReport {
            report: self.into_report(),
            stats,
            footprint,
        }
    }
}

impl LocRoutable for RaceDetector {
    /// Merges per-shard [`DtrgReport`]s back into the serial result.
    ///
    /// The race report merge is byte-identical to the serial run (see the
    /// soundness argument in `futrace-offline`'s shard module): concatenate
    /// in shard order, stable-sort by global access index, re-apply the
    /// global cap taken from `self`'s configuration. Statistics merge
    /// field-wise: control-derived counters (task counts, gets, merges,
    /// non-tree edges) are identical in every replica so shard 0's values
    /// are taken verbatim; access-derived counters (reads, writes,
    /// `precede` calls, stored readers, the reader-count distribution) are
    /// summed across shards. The one backend-dependent counter is
    /// `visit_expansions`: path compression interleaves differently across
    /// replicas, so its merged value is the sum of per-shard costs, not the
    /// serial run's cost.
    fn merge_sharded(self, shards: Vec<DtrgReport>) -> DtrgReport {
        let mut stats = shards
            .first()
            .map(|s| s.stats.clone())
            .unwrap_or_default();
        stats.reads = 0;
        stats.writes = 0;
        stats.readers_at_access = Default::default();
        stats.dtrg.precede_calls = 0;
        stats.dtrg.visit_expansions = 0;
        stats.dtrg.memo_hits = 0;
        stats.dtrg.memo_misses = 0;
        stats.dtrg.shadow_hits = 0;

        let mut footprint = shards.first().map(|s| s.footprint).unwrap_or(MemoryFootprint {
            dtrg_tasks: 0,
            stored_nt_edges: 0,
            shadow_cells: 0,
            stored_readers: 0,
        });
        footprint.stored_readers = 0;

        let mut races: Vec<Race> = Vec::new();
        let mut total_detected = 0u64;
        for shard in shards {
            total_detected += shard.report.total_detected;
            races.extend(shard.report.races);
            stats.reads += shard.stats.reads;
            stats.writes += shard.stats.writes;
            stats
                .readers_at_access
                .merge(&shard.stats.readers_at_access);
            stats.dtrg.precede_calls += shard.stats.dtrg.precede_calls;
            stats.dtrg.visit_expansions += shard.stats.dtrg.visit_expansions;
            stats.dtrg.memo_hits += shard.stats.dtrg.memo_hits;
            stats.dtrg.memo_misses += shard.stats.dtrg.memo_misses;
            stats.dtrg.shadow_hits += shard.stats.dtrg.shadow_hits;
            footprint.stored_readers += shard.footprint.stored_readers;
        }
        races.sort_by(|a, b| a.access_index.cmp(&b.access_index));
        races.truncate(self.config.max_reports);

        DtrgReport {
            report: RaceReport {
                races,
                total_detected,
            },
            stats,
            footprint,
        }
    }
}

/// DTRG detection behind the online-parallel [`ParMonitor`] surface.
///
/// `fork` creates one [`RaceDetector`] replica per worker; the online
/// pipeline broadcasts every control event to all replicas (control is
/// cheap — each maintains an identical DTRG) and routes each access to the
/// replica that owns its location (the default [`ParMonitor::route`]:
/// `loc % workers`). `merge` finishes every replica and folds the
/// per-shard [`DtrgReport`]s through [`LocRoutable::merge_sharded`], so
/// the online race report is byte-identical to the serial run's — the
/// same contract the offline sharded replayer relies on, reached through
/// the canonical access stream the online walker reconstructs.
pub struct OnlineDtrg {
    config: DetectorConfig,
}

impl OnlineDtrg {
    /// Online-parallel DTRG detection with default configuration.
    pub fn new() -> Self {
        Self::with_config(DetectorConfig::default())
    }

    /// Online-parallel DTRG detection with explicit configuration. Every
    /// forked shard and the merge step share this configuration.
    pub fn with_config(config: DetectorConfig) -> Self {
        OnlineDtrg { config }
    }
}

impl Default for OnlineDtrg {
    fn default() -> Self {
        Self::new()
    }
}

impl ParMonitor for OnlineDtrg {
    type Worker = RaceDetector;
    type Report = DtrgReport;

    fn fork(&mut self, workers: usize) -> Vec<RaceDetector> {
        (0..workers.max(1))
            .map(|_| RaceDetector::with_config(self.config.clone()))
            .collect()
    }

    fn control(worker: &mut RaceDetector, e: &Event) {
        let applied = RaceDetector::apply_control(worker, e);
        debug_assert!(applied, "online walker must route accesses to check");
    }

    fn check(worker: &mut RaceDetector, task: TaskId, loc: LocId, write: bool, index: u64) {
        if write {
            worker.check_write_at(task, loc, index);
        } else {
            worker.check_read_at(task, loc, index);
        }
    }

    fn merge(self, workers: Vec<RaceDetector>) -> DtrgReport {
        let reports: Vec<DtrgReport> = workers.into_iter().map(Analysis::finish).collect();
        RaceDetector::with_config(self.config).merge_sharded(reports)
    }
}

/// Checkpoint state-blob version for [`RaceDetector`]. Version 2 added the
/// per-cell `last_clean` fast-path cache and the three cache counters
/// (memo hits/misses, shadow fast-path hits): the fast-path cache must
/// survive a suspend/resume so a resumed run's `precede_calls` matches the
/// straight run's, which the checkpoint-roundtrip tests assert. Version 3
/// added the per-cell probe miss streak for the same reason: a cell whose
/// probe was adaptively disabled must stay disabled across a resume, or
/// the resumed run's hit/miss counters diverge from the straight run's.
const DTRG_STATE_VERSION: u64 = 3;

impl Checkpointable for RaceDetector {
    /// Serializes the access-derived half of the detector: shadow-cell
    /// contents, discovered races, the dedup set, access counters, and the
    /// DTRG query-cost counters. Control-derived state (the DTRG itself,
    /// task counts, shadow-memory allocation names) is *not* serialized —
    /// the restore contract rebuilds it by replaying the checkpoint's
    /// control-event prefix, which is exact by construction.
    fn save_state(&self, out: &mut Vec<u8>) {
        wire::put_varint(out, DTRG_STATE_VERSION);

        // Shadow memory: total length (growth from unregistered accesses
        // must survive, for footprint parity) + the non-default cells.
        wire::put_varint(out, self.shadow.len() as u64);
        let dirty: Vec<(usize, &ShadowCell)> = self.shadow.dirty_cells().collect();
        wire::put_varint(out, dirty.len() as u64);
        for (idx, cell) in dirty {
            wire::put_varint(out, idx as u64);
            match cell.writer {
                Some(w) => {
                    wire::put_varint(out, 1);
                    wire::put_varint(out, w.0 as u64);
                }
                None => wire::put_varint(out, 0),
            }
            wire::put_varint(out, cell.readers.len() as u64);
            for r in cell.readers.iter() {
                wire::put_varint(out, r.0 as u64);
            }
            match cell.last_clean {
                Some(lc) => {
                    wire::put_varint(out, 1);
                    wire::put_varint(out, lc.task.0 as u64);
                    wire::put_varint(out, lc.write as u64);
                    wire::put_varint(out, lc.epoch);
                }
                None => wire::put_varint(out, 0),
            }
            wire::put_varint(out, cell.probe_misses as u64);
        }

        wire::put_varint(out, self.access_index);
        wire::put_varint(out, self.total_detected);

        wire::put_varint(out, self.races.len() as u64);
        for race in &self.races {
            wire::put_varint(out, race.loc.0 as u64);
            wire::put_str(out, &race.loc_name);
            wire::put_varint(out, race.prev_task.0 as u64);
            wire::put_varint(out, kind_code(race.prev_kind));
            wire::put_varint(out, race.cur_task.0 as u64);
            wire::put_varint(out, kind_code(race.cur_kind));
            wire::put_varint(out, race.access_index);
            wire::put_str(out, &race.prev_path);
            wire::put_str(out, &race.cur_path);
        }

        // Dedup entries in sorted order so identical detector states always
        // produce identical blobs (the hash set iterates nondeterministically).
        let mut dedup: Vec<(LocId, TaskId, TaskId, u8)> =
            self.dedup.iter().copied().collect();
        dedup.sort_unstable();
        wire::put_varint(out, dedup.len() as u64);
        for (loc, prev, cur, kinds) in dedup {
            wire::put_varint(out, loc.0 as u64);
            wire::put_varint(out, prev.0 as u64);
            wire::put_varint(out, cur.0 as u64);
            wire::put_varint(out, kinds as u64);
        }

        // Access-derived statistics. Control-derived counts (tasks, gets,
        // merges, nt edges) come back from the control replay; the two
        // query-cost counters live in the DTRG and are carried explicitly.
        wire::put_varint(out, self.stats.reads);
        wire::put_varint(out, self.stats.writes);
        let (count, mean, m2, min, max) = self.stats.readers_at_access.to_raw();
        wire::put_varint(out, count);
        wire::put_f64(out, mean);
        wire::put_f64(out, m2);
        wire::put_f64(out, min);
        wire::put_f64(out, max);
        wire::put_varint(out, self.dtrg.counters.precede_calls);
        wire::put_varint(out, self.dtrg.counters.visit_expansions);
        wire::put_varint(out, self.dtrg.counters.memo_hits);
        wire::put_varint(out, self.dtrg.counters.memo_misses);
        wire::put_varint(out, self.dtrg.counters.shadow_hits);
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), StateError> {
        let mut c = wire::Cursor::new(state);
        let version = c.varint("dtrg state version")?;
        if version != DTRG_STATE_VERSION {
            return Err(StateError(format!(
                "unsupported dtrg state version {version} (expected {DTRG_STATE_VERSION})"
            )));
        }

        let shadow_len = c.varint("shadow length")? as usize;
        self.shadow.grow_to(shadow_len);
        let dirty = c.varint("dirty cell count")?;
        for _ in 0..dirty {
            let idx = c.varint("cell index")? as usize;
            if idx >= shadow_len {
                return Err(StateError(format!(
                    "cell index {idx} out of range (shadow length {shadow_len})"
                )));
            }
            let has_writer = c.varint("writer flag")?;
            let writer = match has_writer {
                0 => None,
                1 => Some(TaskId(c.varint("writer task")? as u32)),
                other => {
                    return Err(StateError(format!("invalid writer flag {other}")));
                }
            };
            let n_readers = c.varint("reader count")?;
            let mut readers = Readers::Empty;
            for _ in 0..n_readers {
                readers.push(TaskId(c.varint("reader task")? as u32));
            }
            let last_clean = match c.varint("last-clean flag")? {
                0 => None,
                1 => {
                    let task = TaskId(c.varint("last-clean task")? as u32);
                    let write = match c.varint("last-clean write flag")? {
                        0 => false,
                        1 => true,
                        other => {
                            return Err(StateError(format!(
                                "invalid last-clean write flag {other}"
                            )));
                        }
                    };
                    let epoch = c.varint("last-clean epoch")?;
                    Some(LastClean { task, write, epoch })
                }
                other => {
                    return Err(StateError(format!("invalid last-clean flag {other}")));
                }
            };
            let probe_misses = c.varint("probe miss streak")?;
            if probe_misses > u8::MAX as u64 {
                return Err(StateError(format!(
                    "probe miss streak {probe_misses} out of range"
                )));
            }
            let cell = self.shadow.cell_mut(LocId::from_index(idx));
            cell.writer = writer;
            cell.readers = readers;
            cell.last_clean = last_clean;
            cell.probe_misses = probe_misses as u8;
        }

        self.access_index = c.varint("access index")?;
        self.total_detected = c.varint("total detected")?;

        let n_races = c.varint("race count")?;
        self.races.clear();
        for _ in 0..n_races {
            let loc = LocId(c.varint("race loc")? as u32);
            let loc_name = c.str("race loc name")?.to_string();
            let prev_task = TaskId(c.varint("race prev task")? as u32);
            let prev_kind = kind_from_code(c.varint("race prev kind")?)?;
            let cur_task = TaskId(c.varint("race cur task")? as u32);
            let cur_kind = kind_from_code(c.varint("race cur kind")?)?;
            let access_index = c.varint("race access index")?;
            let prev_path = c.str("race prev path")?.to_string();
            let cur_path = c.str("race cur path")?.to_string();
            self.races.push(Race {
                loc,
                loc_name,
                prev_task,
                prev_kind,
                cur_task,
                cur_kind,
                access_index,
                prev_path,
                cur_path,
            });
        }

        let n_dedup = c.varint("dedup count")?;
        self.dedup.clear();
        for _ in 0..n_dedup {
            let loc = LocId(c.varint("dedup loc")? as u32);
            let prev = TaskId(c.varint("dedup prev")? as u32);
            let cur = TaskId(c.varint("dedup cur")? as u32);
            let kinds = c.varint("dedup kinds")? as u8;
            self.dedup.insert((loc, prev, cur, kinds));
        }

        self.stats.reads = c.varint("stats reads")?;
        self.stats.writes = c.varint("stats writes")?;
        let count = c.varint("readers count")?;
        let mean = c.f64("readers mean")?;
        let m2 = c.f64("readers m2")?;
        let min = c.f64("readers min")?;
        let max = c.f64("readers max")?;
        self.stats.readers_at_access =
            futrace_util::stats::Running::from_raw((count, mean, m2, min, max));
        self.dtrg.counters.precede_calls = c.varint("precede calls")?;
        self.dtrg.counters.visit_expansions = c.varint("visit expansions")?;
        self.dtrg.counters.memo_hits = c.varint("memo hits")?;
        self.dtrg.counters.memo_misses = c.varint("memo misses")?;
        self.dtrg.counters.shadow_hits = c.varint("shadow fast-path hits")?;

        if !c.is_empty() {
            return Err(StateError(format!(
                "{} trailing byte(s) after dtrg state",
                c.remaining()
            )));
        }
        Ok(())
    }
}

fn kind_code(k: AccessKind) -> u64 {
    match k {
        AccessKind::Read => 0,
        AccessKind::Write => 1,
    }
}

fn kind_from_code(code: u64) -> Result<AccessKind, StateError> {
    match code {
        0 => Ok(AccessKind::Read),
        1 => Ok(AccessKind::Write),
        other => Err(StateError(format!("invalid access kind code {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use futrace_runtime::engine::{run_analysis_live, Engine};
    use futrace_runtime::{SerialCtx, TaskCtx};

    /// Runs `f` under serial depth-first execution with a fresh
    /// default-configured detector and returns the report.
    fn detect_races<F>(f: F) -> RaceReport
    where
        F: FnOnce(&mut SerialCtx<Engine<RaceDetector>>),
    {
        run_analysis_live(f, RaceDetector::new()).report.report
    }

    /// As [`detect_races`] but also returns the run's statistics.
    fn detect_races_with_stats<F>(f: F) -> (RaceReport, DetectorStats)
    where
        F: FnOnce(&mut SerialCtx<Engine<RaceDetector>>),
    {
        let out = run_analysis_live(f, RaceDetector::new()).report;
        (out.report, out.stats)
    }

    #[test]
    fn future_get_orders_the_write_before_the_read() {
        // Unsynchronized future write vs parent read: a race.
        let report = detect_races(|ctx| {
            let x = ctx.shared_var(0u64, "x");
            let x2 = x.clone();
            let _f = ctx.future(move |ctx| x2.write(ctx, 1));
            let _ = x.read(ctx); // no get() before the read
        });
        assert!(report.has_races());

        // With the get() the program is race-free.
        let report = detect_races(|ctx| {
            let x = ctx.shared_var(0u64, "x");
            let x2 = x.clone();
            let f = ctx.future(move |ctx| x2.write(ctx, 1));
            ctx.get(&f);
            let _ = x.read(ctx);
        });
        assert!(!report.has_races());
    }

    #[test]
    fn race_free_empty_program() {
        let report = detect_races(|_| {});
        assert!(!report.has_races());
    }

    #[test]
    fn online_dtrg_matches_serial_reports() {
        use futrace_runtime::online::{run_online, OnlineOptions};

        // Mixed structure with one planted race (the unjoined writer on
        // `y`): future join edges, a finish, and clean accesses on `x`.
        fn prog<C: TaskCtx>(ctx: &mut C) {
            let x = ctx.shared_var(0i64, "x");
            let y = ctx.shared_var(0i64, "y");
            x.write(ctx, 7);
            let xa = x.clone();
            let ra = ctx.future(move |ctx| xa.read(ctx));
            let yb = y.clone();
            let _rb = ctx.future(move |ctx| yb.write(ctx, 1)); // never joined
            ctx.get(&ra);
            ctx.finish(|ctx| {
                let xc = x.clone();
                ctx.async_task(move |ctx| {
                    let _ = xc.read(ctx);
                });
            });
            x.write(ctx, 8);
            let _ = y.read(ctx); // races with _rb's write
        }

        let serial = run_analysis_live(|ctx| prog(ctx), RaceDetector::new()).report;
        for threads in [1usize, 2, 4] {
            let run = run_online(OnlineOptions::threads(threads), OnlineDtrg::new(), |ctx| {
                prog(ctx)
            });
            assert!(run.result.is_ok());
            assert_eq!(run.report.report.races, serial.report.races);
            assert_eq!(
                run.report.report.total_detected,
                serial.report.total_detected
            );
            assert_eq!(
                run.report.footprint.shadow_cells,
                serial.footprint.shadow_cells
            );
            assert_eq!(run.report.stats.reads, serial.stats.reads);
            assert_eq!(run.report.stats.writes, serial.stats.writes);
        }
    }

    #[test]
    fn async_write_write_race() {
        let report = detect_races(|ctx| {
            let x = ctx.shared_var(0i64, "x");
            ctx.finish(|ctx| {
                let xa = x.clone();
                ctx.async_task(move |ctx| xa.write(ctx, 1));
                let xb = x.clone();
                ctx.async_task(move |ctx| xb.write(ctx, 2));
            });
        });
        assert!(report.has_races());
        let r = report.first().unwrap();
        assert_eq!(r.prev_task, TaskId(1));
        assert_eq!(r.cur_task, TaskId(2));
        assert_eq!(r.prev_kind, AccessKind::Write);
        assert_eq!(r.cur_kind, AccessKind::Write);
        assert_eq!(r.loc_name, "x");
    }

    #[test]
    fn sequential_accesses_no_race() {
        let report = detect_races(|ctx| {
            let x = ctx.shared_var(0i64, "x");
            x.write(ctx, 1);
            let _ = x.read(ctx);
            x.write(ctx, 2);
        });
        assert!(!report.has_races());
    }

    #[test]
    fn finish_synchronizes() {
        let report = detect_races(|ctx| {
            let x = ctx.shared_var(0i64, "x");
            ctx.finish(|ctx| {
                let xa = x.clone();
                ctx.async_task(move |ctx| xa.write(ctx, 1));
            });
            x.write(ctx, 2);
        });
        assert!(!report.has_races());
    }

    #[test]
    fn future_get_synchronizes_sibling() {
        let report = detect_races(|ctx| {
            let x = ctx.shared_var(0i64, "x");
            let xa = x.clone();
            let a = ctx.future(move |ctx| xa.write(ctx, 1));
            let xb = x.clone();
            let _b = ctx.future(move |ctx| {
                ctx.get(&a);
                let _ = xb.read(ctx);
            });
        });
        assert!(!report.has_races());
    }

    #[test]
    fn sibling_without_get_races() {
        let report = detect_races(|ctx| {
            let x = ctx.shared_var(0i64, "x");
            let xa = x.clone();
            let _a = ctx.future(move |ctx| xa.write(ctx, 1));
            let xb = x.clone();
            let _b = ctx.future(move |ctx| {
                let _ = xb.read(ctx);
            });
        });
        assert!(report.has_races());
        let r = report.first().unwrap();
        assert_eq!(r.prev_kind, AccessKind::Write);
        assert_eq!(r.cur_kind, AccessKind::Read);
    }

    #[test]
    fn parallel_reads_then_joined_write_no_race() {
        // Two future readers in parallel (both get the producer), then the
        // parent gets both and writes: no race anywhere.
        let report = detect_races(|ctx| {
            let x = ctx.shared_var(0i64, "x");
            x.write(ctx, 7);
            let xa = x.clone();
            let ra = ctx.future(move |ctx| xa.read(ctx));
            let xb = x.clone();
            let rb = ctx.future(move |ctx| xb.read(ctx));
            ctx.get(&ra);
            ctx.get(&rb);
            x.write(ctx, 8);
        });
        assert!(!report.has_races());
    }

    #[test]
    fn unjoined_parallel_reader_races_with_write() {
        let report = detect_races(|ctx| {
            let x = ctx.shared_var(0i64, "x");
            x.write(ctx, 7);
            let xa = x.clone();
            let ra = ctx.future(move |ctx| xa.read(ctx));
            let xb = x.clone();
            let _rb = ctx.future(move |ctx| xb.read(ctx)); // never joined
            ctx.get(&ra);
            x.write(ctx, 8); // races with rb's read
        });
        assert!(report.has_races());
        let r = report.first().unwrap();
        assert_eq!(r.prev_kind, AccessKind::Read);
        assert_eq!(r.cur_kind, AccessKind::Write);
        assert_eq!(r.prev_task, TaskId(2));
    }

    #[test]
    fn transitive_get_chain_no_race() {
        // Figure 1's shape: main only joins C, but B is ordered before main
        // transitively (C got B).
        let report = detect_races(|ctx| {
            let x = ctx.shared_var(0i64, "x");
            let xb = x.clone();
            let b = ctx.future(move |ctx| xb.write(ctx, 3));
            let c = ctx.future(move |ctx| {
                ctx.get(&b);
            });
            ctx.get(&c);
            let _ = x.read(ctx);
        });
        assert!(!report.has_races());
    }

    #[test]
    fn async_read_replacement_keeps_detection() {
        // Async A reads, async B reads in parallel (only one is stored);
        // a later parallel write must still race.
        let report = detect_races(|ctx| {
            let x = ctx.shared_var(0i64, "x");
            ctx.finish(|ctx| {
                let xa = x.clone();
                ctx.async_task(move |ctx| {
                    let _ = xa.read(ctx);
                });
                let xb = x.clone();
                ctx.async_task(move |ctx| {
                    let _ = xb.read(ctx);
                });
                let xc = x.clone();
                ctx.async_task(move |ctx| xc.write(ctx, 1));
            });
        });
        assert!(report.has_races());
    }

    #[test]
    fn stats_count_structure() {
        let (report, stats) = detect_races_with_stats(|ctx| {
            let x = ctx.shared_var(0i64, "x");
            let xa = x.clone();
            let a = ctx.future(move |ctx| xa.write(ctx, 1));
            let xb = x.clone();
            let ab = a.clone();
            let _b = ctx.future(move |ctx| {
                ctx.get(&ab);
                let _ = xb.read(ctx);
            });
            ctx.async_task(|_| {});
            ctx.get(&a);
        });
        assert!(!report.has_races());
        assert_eq!(stats.tasks, 3);
        assert_eq!(stats.future_tasks, 2);
        assert_eq!(stats.async_tasks, 1);
        assert_eq!(stats.shared_mem(), 2);
        assert_eq!(stats.nt_joins(), 1, "only B's get is a non-tree join");
        assert_eq!(stats.dtrg.gets, 2);
    }

    #[test]
    fn dedup_and_cap() {
        let mut det = RaceDetector::with_config(DetectorConfig {
            max_reports: 2,
            ..Default::default()
        });
        run_serial(&mut det, |ctx| {
            let a = ctx.shared_array(8, 0i64, "a");
            for i in 0..8 {
                let aw = a.clone();
                ctx.async_task(move |ctx| aw.write(ctx, i, 1));
            }
            for i in 0..8 {
                // Main writes everything again: 8 distinct racy locations,
                // but only 2 reports stored.
                a.write(ctx, i, 2);
            }
        });
        let report = det.into_report();
        assert_eq!(report.races.len(), 2);
        assert!(report.total_detected >= 8);
    }

    #[test]
    fn first_race_only_reports_exactly_one() {
        let mut det = RaceDetector::with_config(DetectorConfig {
            first_race_only: true,
            ..Default::default()
        });
        run_serial(&mut det, |ctx| {
            let a = ctx.shared_array(4, 0i64, "a");
            for i in 0..4 {
                let aw = a.clone();
                ctx.async_task(move |ctx| aw.write(ctx, i, 1));
            }
            for i in 0..4 {
                a.write(ctx, i, 2); // 4 distinct racy locations
            }
        });
        let report = det.into_report();
        assert!(report.has_races());
        assert_eq!(report.total_detected, 1, "checking stops at the first race");
        assert_eq!(report.races.len(), 1);
    }

    #[test]
    fn first_race_only_verdict_matches_default() {
        // Same verdict for racy and race-free programs.
        for racy in [false, true] {
            let run = |cfg: DetectorConfig| {
                let mut det = RaceDetector::with_config(cfg);
                run_serial(&mut det, |ctx| {
                    let x = ctx.shared_var(0i64, "x");
                    let xw = x.clone();
                    let f = ctx.future(move |ctx| xw.write(ctx, 1));
                    if !racy {
                        ctx.get(&f);
                    }
                    let _ = x.read(ctx);
                });
                det.has_races()
            };
            assert_eq!(
                run(DetectorConfig::default()),
                run(DetectorConfig {
                    first_race_only: true,
                    ..Default::default()
                }),
                "racy={racy}"
            );
        }
    }

    #[test]
    fn split_control_and_check_match_monitor_path() {
        use futrace_runtime::EventLog;
        // Record a racy program, then drive one detector through the
        // Monitor interface and another through the split
        // apply_control/check_*_at halves: identical reports.
        let mut log = EventLog::new();
        run_serial(&mut log, |ctx| {
            let a = ctx.shared_array(4, 0i64, "a");
            let aw = a.clone();
            let _f = ctx.future(move |ctx| aw.write(ctx, 1, 5));
            let _ = a.read(ctx, 1); // racy: no get
            a.write(ctx, 2, 9);
        });

        let mut online = RaceDetector::new();
        futrace_runtime::replay(&log.events, &mut online);

        let mut split = RaceDetector::new();
        let mut index = 0u64;
        for e in &log.events {
            if !split.apply_control(e) {
                match e {
                    Event::Read(t, l) => split.check_read_at(*t, *l, index),
                    Event::Write(t, l) => split.check_write_at(*t, *l, index),
                    _ => unreachable!(),
                }
                index += 1;
            }
        }

        assert_eq!(online.stats().reads, split.stats().reads);
        assert_eq!(online.stats().writes, split.stats().writes);
        let (ra, rb) = (online.into_report(), split.into_report());
        assert_eq!(ra.total_detected, rb.total_detected);
        assert_eq!(ra.races, rb.races);
        assert!(ra.has_races());
    }

    #[test]
    fn checkpoint_roundtrip_matches_straight_run() {
        use futrace_runtime::EventLog;
        // A program with races both early and late, so every cut point
        // splits interesting state (stored readers, dedup entries, races)
        // across the checkpoint boundary.
        let mut log = EventLog::new();
        run_serial(&mut log, |ctx| {
            let a = ctx.shared_array(4, 0i64, "a");
            for i in 0..4 {
                let aw = a.clone();
                ctx.async_task(move |ctx| aw.write(ctx, i, 1));
            }
            let ar = a.clone();
            let f = ctx.future(move |ctx| ar.read(ctx, 0));
            for i in 0..4 {
                a.write(ctx, i, 2); // races with the async writers
            }
            ctx.get(&f);
            let _ = a.read(ctx, 1);
            let aw = a.clone();
            let _g = ctx.future(move |ctx| aw.write(ctx, 1, 7)); // never joined
            a.write(ctx, 1, 8); // late race
        });

        let route = |det: &mut RaceDetector, e: &Event, idx: &mut u64| {
            if !det.apply_control(e) {
                match e {
                    Event::Read(t, l) => det.check_read_at(*t, *l, *idx),
                    Event::Write(t, l) => det.check_write_at(*t, *l, *idx),
                    _ => unreachable!(),
                }
                *idx += 1;
            }
        };

        let mut straight = RaceDetector::new();
        let mut idx = 0u64;
        for e in &log.events {
            route(&mut straight, e, &mut idx);
        }
        let want_stats = straight.stats();
        let want = straight.into_report();
        assert!(want.has_races(), "test program must be racy");

        for cut in [0, 1, log.events.len() / 3, log.events.len() / 2, log.events.len()] {
            // Run the prefix, snapshot the access-derived state.
            let mut prefix_det = RaceDetector::new();
            let mut prefix_idx = 0u64;
            for e in &log.events[..cut] {
                route(&mut prefix_det, e, &mut prefix_idx);
            }
            let mut blob = Vec::new();
            prefix_det.save_state(&mut blob);

            // Fresh instance: replay only the control prefix, then restore.
            let mut resumed = RaceDetector::new();
            for e in &log.events[..cut] {
                let _ = resumed.apply_control(e);
            }
            resumed.restore_state(&blob).unwrap();

            // Run the suffix on the resumed instance.
            let mut resumed_idx = prefix_idx;
            for e in &log.events[cut..] {
                route(&mut resumed, e, &mut resumed_idx);
            }

            let got_stats = resumed.stats();
            assert_eq!(got_stats.reads, want_stats.reads, "cut={cut}");
            assert_eq!(got_stats.writes, want_stats.writes, "cut={cut}");
            assert_eq!(got_stats.tasks, want_stats.tasks, "cut={cut}");
            assert_eq!(
                got_stats.dtrg.precede_calls, want_stats.dtrg.precede_calls,
                "cut={cut}"
            );
            assert_eq!(
                got_stats.readers_at_access.to_raw(),
                want_stats.readers_at_access.to_raw(),
                "cut={cut}"
            );
            let got = resumed.into_report();
            assert_eq!(got.total_detected, want.total_detected, "cut={cut}");
            assert_eq!(got.races, want.races, "cut={cut}");
        }
    }

    #[test]
    fn checkpoint_restore_rejects_garbage() {
        let mut det = RaceDetector::new();
        assert!(det.restore_state(&[0xFF]).is_err(), "truncated varint");
        assert!(
            det.restore_state(&[9]).is_err(),
            "unsupported state version"
        );
        let mut blob = Vec::new();
        RaceDetector::new().save_state(&mut blob);
        blob.push(0);
        let err = det.restore_state(&blob).unwrap_err();
        assert!(
            err.to_string().contains("trailing"),
            "trailing bytes detected: {err}"
        );
    }

    #[test]
    fn memory_footprint_accounts_structures() {
        let mut det = RaceDetector::new();
        run_serial(&mut det, |ctx| {
            let x = ctx.shared_array(8, 0u64, "x");
            let xa = x.clone();
            let a = ctx.future(move |ctx| xa.read(ctx, 0));
            let xb = x.clone();
            let _b = ctx.future(move |ctx| {
                ctx.get(&a); // one stored non-tree edge
                let _ = xb.read(ctx, 0);
            });
        });
        let fp = det.memory_footprint();
        assert_eq!(fp.dtrg_tasks, 3, "main + 2 futures");
        assert_eq!(fp.shadow_cells, 8);
        assert!(fp.stored_readers >= 1);
        assert!(fp.stored_nt_edges >= 1);
        assert!(fp.to_string().contains("shadow cells: 8"));
    }

    #[test]
    fn avg_readers_zero_for_write_only() {
        let (_, stats) = detect_races_with_stats(|ctx| {
            let x = ctx.shared_var(0i64, "x");
            x.write(ctx, 1);
            x.write(ctx, 2);
        });
        assert_eq!(stats.avg_readers(), 0.0);
    }

    #[test]
    fn avg_readers_counts_future_readers() {
        let (_, stats) = detect_races_with_stats(|ctx| {
            let x = ctx.shared_var(1i64, "x");
            let mut handles = Vec::new();
            for _ in 0..4 {
                let xr = x.clone();
                handles.push(ctx.future(move |ctx| xr.read(ctx)));
            }
            for h in &handles {
                ctx.get(h);
            }
            // At this final read, 4 parallel future readers are stored.
            let _ = x.read(ctx);
        });
        assert!(stats.avg_readers() > 0.5, "got {}", stats.avg_readers());
        assert!(stats.readers_at_access.max().unwrap() >= 4.0);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use futrace_runtime::engine::{run_analysis, source};
    use futrace_runtime::{trace, EventLog, SerialCtx, TaskCtx};

    /// Offline detection: decodes a v1 trace and replays it into a fresh
    /// detector, returning the report and statistics.
    fn detect_races_in_trace(
        blob: &[u8],
    ) -> Result<(RaceReport, DetectorStats), trace::DecodeError> {
        let out = run_analysis(source::stream(trace::decode_iter(blob)), RaceDetector::new())?;
        Ok((out.report.report, out.report.stats))
    }

    #[test]
    fn offline_detection_matches_online() {
        let program = |ctx: &mut SerialCtx<EventLog>| {
            let x = ctx.shared_var(0u64, "x");
            let xw = x.clone();
            let _f = ctx.future(move |ctx| xw.write(ctx, 1));
            let _ = x.read(ctx); // racy: no get
        };
        let mut log = EventLog::new();
        run_serial(&mut log, program);
        let blob = trace::encode(&log.events);
        let (report, stats) = detect_races_in_trace(&blob).unwrap();
        assert!(report.has_races());
        assert_eq!(stats.shared_mem(), 2);
        assert!(detect_races_in_trace(&[0xFF]).is_err());
    }
}
