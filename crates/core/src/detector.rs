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
use crate::shadow::{
    LastClean, Readers, ShadowCell, ShadowMemory, MAX_CACHED_EPOCH, PROBE_MISS_LIMIT,
};
use crate::stats::DetectorStats;
use futrace_runtime::engine::{Analysis, Checkpointable, LocRoutable, StateError};
use futrace_runtime::monitor::{Monitor, TaskKind};
#[cfg(test)]
use futrace_runtime::run_serial;
use futrace_util::ids::{FinishId, LocId, TaskId};
use futrace_util::stats::{Moments, Tally};
use futrace_util::{wire, FxHashSet};

/// Detector configuration.
#[derive(Clone, Debug)]
pub struct DetectorConfig {
    /// Maximum number of distinct races kept in the report (checking
    /// continues past the cap; only storage is bounded).
    pub max_reports: usize,
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
    /// Scratch for a write check: the stored readers it found racy, to
    /// report once its cell borrow ends. Empty between checks.
    racy_readers: Vec<TaskId>,
    /// Stored readers at each checked access; [`RaceDetector::stats`]
    /// reports them as `DetectorStats::readers_at_access`.
    reader_samples: Tally,
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
            racy_readers: Vec::new(),
            reader_samples: Tally::default(),
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
        s.readers_at_access = self.reader_samples.moments();
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

    /// Algorithm 8's write check at an explicit global access index.
    ///
    /// The online [`Monitor`] path numbers accesses itself; sharded offline
    /// replay numbers them in the router (one global stream) so every
    /// shard's race reports carry indices from the *same* sequence and the
    /// merged report is identical to the serial one.
    ///
    /// The check looks its cell up once: the reader sample, the probe, the
    /// reader filter, the writer check and the write-back all go through
    /// that one borrow (`shadow`, `dtrg` and the scratch list are disjoint
    /// fields), and the races found are reported once it ends, readers
    /// first and then the writer, as Algorithm 8 meets them.
    pub fn check_write_at(&mut self, task: TaskId, loc: LocId, index: u64) {
        self.access_index = index;
        self.stats.writes += 1;
        if !self.checking() {
            return;
        }
        let cell = self.shadow.cell_mut(loc);
        self.reader_samples.push(cell.readers.len() as u32);
        let epoch = self.dtrg.epoch();

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
        if self.config.caching && cell.probe(task, true, epoch) {
            self.dtrg.counters.shadow_hits += 1;
            return;
        }

        // Readers: every stored reader must precede the writer; preceding
        // readers are removed (subsumed by the new writer), racy readers
        // are kept, as in the paper, so later accesses also check them.
        let (dtrg, racy) = (&mut self.dtrg, &mut self.racy_readers);
        cell.readers.retain(|x| {
            let ordered = dtrg.precede(x, task);
            if !ordered {
                racy.push(x);
            }
            !ordered
        });

        // Previous writer must precede.
        let racy_writer = cell.writer().filter(|&w| !dtrg.precede(w, task));
        cell.set_writer(Some(task));

        // A racy check must clear the cache: repeating it has to re-count
        // the race, exactly as the uncached detector does.
        let clean = racy.is_empty() && racy_writer.is_none();
        cell.set_last_clean((self.config.caching && clean).then_some(LastClean {
            task,
            write: true,
            epoch,
        }));
        if clean {
            return;
        }
        for i in 0..self.racy_readers.len() {
            let x = self.racy_readers[i];
            self.report(loc, x, AccessKind::Read, task, AccessKind::Write);
        }
        self.racy_readers.clear();
        if let Some(w) = racy_writer {
            self.report(loc, w, AccessKind::Write, task, AccessKind::Write);
        }
    }

    /// Algorithm 9's read check at an explicit global access index (see
    /// [`RaceDetector::check_write_at`] for why the index is external and
    /// how the one cell lookup is shared).
    pub fn check_read_at(&mut self, task: TaskId, loc: LocId, index: u64) {
        self.access_index = index;
        self.stats.reads += 1;
        if !self.checking() {
            return;
        }
        let cell = self.shadow.cell_mut(loc);
        self.reader_samples.push(cell.readers.len() as u32);
        let epoch = self.dtrg.epoch();

        // Fast path: see `check_write_at` — a repeated clean read by the
        // same task under the same epoch leaves the cell byte-identical
        // (the in-place filter keeps reader order). Same adaptive
        // miss-streak bypass as the write probe.
        if self.config.caching && cell.probe(task, false, epoch) {
            self.dtrg.counters.shadow_hits += 1;
            return;
        }

        // Previous writer must precede the reader.
        let dtrg = &mut self.dtrg;
        let racy_writer = cell.writer().filter(|&w| !dtrg.precede(w, task));

        let cur_is_future = dtrg.is_future(task);
        let mut add = true;
        cell.readers.retain(|x| {
            if dtrg.precede(x, task) {
                // Superseded: any future conflict with x is also a conflict
                // with the current reader (Lemma 3).
                return false;
            }
            if !cur_is_future && !dtrg.is_future(x) {
                // Parallel async pair: Lemma 4 makes the stored async
                // reader a sufficient representative.
                add = false;
            }
            true
        });
        if add {
            cell.readers.push(task);
        }
        let clean = racy_writer.is_none();
        cell.set_last_clean((self.config.caching && clean).then_some(LastClean {
            task,
            write: false,
            epoch,
        }));
        if let Some(w) = racy_writer {
            self.report(loc, w, AccessKind::Write, task, AccessKind::Read);
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

/// The two checks are overridden: a race report carries the global index
/// of the access that found it, and the sharded router assigns it.
impl Analysis for RaceDetector {
    type Report = DtrgReport;

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
    /// Each replica's shadow memory holds only its shard's cells.
    fn assign_shard(&mut self, shard: usize, shards: usize) {
        self.shadow.assign_shard(shard, shards);
    }

    /// Merges per-shard [`DtrgReport`]s back into the serial result.
    ///
    /// The race report merge is byte-identical to the serial run (see the
    /// soundness argument in `futrace-offline`'s shard module): concatenate
    /// in shard order, stable-sort by global access index, re-apply the
    /// global cap taken from `self`'s configuration. Statistics merge
    /// field-wise: control-derived counters (task counts, gets, merges,
    /// non-tree edges, `nt` upkeep) are identical in every replica so
    /// shard 0's values are taken verbatim; access-derived counters (reads,
    /// writes, `precede` calls, stored readers, the reader-count
    /// distribution) are summed across shards, and so are the shadow cells,
    /// which the replicas partition. The one backend-dependent
    /// counter is `visit_expansions`: path compression interleaves
    /// differently across replicas, so its merged value is the sum of
    /// per-shard costs, not the serial run's cost.
    fn merge_sharded(self, shards: Vec<DtrgReport>) -> DtrgReport {
        let mut stats = shards.first().map(|s| s.stats.clone()).unwrap_or_default();
        stats.reads = 0;
        stats.writes = 0;
        stats.readers_at_access = Default::default();
        stats.dtrg.precede_calls = 0;
        stats.dtrg.visit_expansions = 0;
        stats.dtrg.memo_hits = 0;
        stats.dtrg.memo_misses = 0;
        stats.dtrg.shadow_hits = 0;

        let mut footprint = shards
            .first()
            .map(|s| s.footprint)
            .unwrap_or(MemoryFootprint {
                dtrg_tasks: 0,
                stored_nt_edges: 0,
                shadow_cells: 0,
                stored_readers: 0,
            });
        footprint.shadow_cells = 0;
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
            footprint.shadow_cells += shard.footprint.shadow_cells;
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

/// Checkpoint state-blob version for [`RaceDetector`]. Version 2 added the
/// per-cell `last_clean` fast-path cache and the three cache counters
/// (memo hits/misses, shadow fast-path hits): the fast-path cache must
/// survive a suspend/resume so a resumed run's `precede_calls` matches the
/// straight run's, which the checkpoint-roundtrip tests assert. Version 3
/// added the per-cell probe miss streak for the same reason: a cell whose
/// probe was adaptively disabled must stay disabled across a resume, or
/// the resumed run's hit/miss counters diverge from the straight run's.
/// Version 4 carries the reader-count distribution as exact integer
/// moments (count, sum, sum of squares, min, max) instead of a Welford
/// mean and variance, and bounds a cell's last-clean epoch by
/// [`MAX_CACHED_EPOCH`], the largest a packed cell can hold.
const DTRG_STATE_VERSION: u64 = 4;

/// Varints a shadow cell takes besides its readers: index, writer flag
/// and task, reader count, last-clean flag, task, write flag and epoch,
/// probe miss streak.
const CELL_VARINTS: usize = 9;

impl RaceDetector {
    /// The one state-blob encoder behind [`Checkpointable::save_state`]
    /// (every dirty cell) and [`Checkpointable::save_cells`] (a delta's
    /// cells): the shadow length, the `count` cells `cells` yields, then
    /// the races, dedup set and counters in full.
    ///
    /// Every cell reserves room for its worst case once and then writes
    /// its varints by index ([`wire::SliceWriter`]), so the per-cell cost
    /// is one capacity check, not one `Vec::push` per byte. The bytes are
    /// those of a `wire::put_varint` per field (held by
    /// `encoder_matches_the_reference_*`).
    fn encode_state<'c>(
        &self,
        count: usize,
        cells: impl Iterator<Item = (usize, &'c ShadowCell)>,
        out: &mut Vec<u8>,
    ) {
        let mut w = wire::SliceWriter::new(out);
        w.put_varint(DTRG_STATE_VERSION);

        // Shadow memory: the extent, a serial detector's length (growth
        // from unregistered accesses must survive, for footprint parity),
        // then the listed cells by global location.
        w.put_varint(self.shadow.extent() as u64);
        w.put_varint(count as u64);
        let mut listed = 0usize;
        for (idx, cell) in cells {
            listed += 1;
            w.reserve((CELL_VARINTS + cell.readers.len()) * wire::MAX_VARINT_LEN);
            w.varint(idx as u64);
            match cell.writer() {
                Some(t) => {
                    w.varint(1);
                    w.varint(t.0 as u64);
                }
                None => w.varint(0),
            }
            w.varint(cell.readers.len() as u64);
            for r in cell.readers.iter() {
                w.varint(r.0 as u64);
            }
            match cell.last_clean() {
                Some(lc) => {
                    w.varint(1);
                    w.varint(lc.task.0 as u64);
                    w.varint(lc.write as u64);
                    w.varint(lc.epoch);
                }
                None => w.varint(0),
            }
            w.varint(cell.probe_misses() as u64);
        }
        assert_eq!(listed, count, "the cell count must match the cells listed");

        w.put_varint(self.access_index);
        w.put_varint(self.total_detected);

        w.put_varint(self.races.len() as u64);
        for race in &self.races {
            w.put_varint(race.loc.0 as u64);
            w.put_bytes(race.loc_name.as_bytes());
            w.put_varint(race.prev_task.0 as u64);
            w.put_varint(kind_code(race.prev_kind));
            w.put_varint(race.cur_task.0 as u64);
            w.put_varint(kind_code(race.cur_kind));
            w.put_varint(race.access_index);
            w.put_bytes(race.prev_path.as_bytes());
            w.put_bytes(race.cur_path.as_bytes());
        }

        // Dedup entries in sorted order so identical detector states always
        // produce identical blobs (the hash set iterates nondeterministically).
        let mut dedup: Vec<(LocId, TaskId, TaskId, u8)> = self.dedup.iter().copied().collect();
        dedup.sort_unstable();
        w.put_varint(dedup.len() as u64);
        for (loc, prev, cur, kinds) in dedup {
            w.put_varint(loc.0 as u64);
            w.put_varint(prev.0 as u64);
            w.put_varint(cur.0 as u64);
            w.put_varint(kinds as u64);
        }

        // Access-derived statistics. Control-derived counts (tasks, gets,
        // merges, nt edges, nt upkeep) come back from the control replay;
        // the query-cost counters live in the DTRG and are carried
        // explicitly.
        w.put_varint(self.stats.reads);
        w.put_varint(self.stats.writes);
        for v in moment_words(&self.reader_samples.moments()) {
            w.put_varint(v);
        }
        w.put_varint(self.dtrg.counters.precede_calls);
        w.put_varint(self.dtrg.counters.visit_expansions);
        w.put_varint(self.dtrg.counters.memo_hits);
        w.put_varint(self.dtrg.counters.memo_misses);
        w.put_varint(self.dtrg.counters.shadow_hits);
    }
}

#[cfg(test)]
impl RaceDetector {
    /// The field-at-a-time encoder [`RaceDetector::encode_state`]
    /// replaced, one `wire::put_varint` per field: the reference its
    /// bytes are compared with.
    fn encode_state_reference(&self, cells: &[(usize, &ShadowCell)], out: &mut Vec<u8>) {
        wire::put_varint(out, DTRG_STATE_VERSION);

        // Shadow memory: the extent, a serial detector's length (growth
        // from unregistered accesses must survive, for footprint parity),
        // then the listed cells by global location.
        wire::put_varint(out, self.shadow.extent() as u64);
        wire::put_varint(out, cells.len() as u64);
        for &(idx, cell) in cells {
            wire::put_varint(out, idx as u64);
            match cell.writer() {
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
            match cell.last_clean() {
                Some(lc) => {
                    wire::put_varint(out, 1);
                    wire::put_varint(out, lc.task.0 as u64);
                    wire::put_varint(out, lc.write as u64);
                    wire::put_varint(out, lc.epoch);
                }
                None => wire::put_varint(out, 0),
            }
            wire::put_varint(out, cell.probe_misses() as u64);
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
        let mut dedup: Vec<(LocId, TaskId, TaskId, u8)> = self.dedup.iter().copied().collect();
        dedup.sort_unstable();
        wire::put_varint(out, dedup.len() as u64);
        for (loc, prev, cur, kinds) in dedup {
            wire::put_varint(out, loc.0 as u64);
            wire::put_varint(out, prev.0 as u64);
            wire::put_varint(out, cur.0 as u64);
            wire::put_varint(out, kinds as u64);
        }

        // Access-derived statistics. Control-derived counts (tasks, gets,
        // merges, nt edges, nt upkeep) come back from the control replay;
        // the query-cost counters live in the DTRG and are carried
        // explicitly.
        wire::put_varint(out, self.stats.reads);
        wire::put_varint(out, self.stats.writes);
        let m = self.reader_samples.moments();
        wire::put_varint(out, m.count);
        wire::put_varint(out, m.sum as u64);
        wire::put_varint(out, (m.sum >> 64) as u64);
        wire::put_varint(out, m.sum_sq as u64);
        wire::put_varint(out, (m.sum_sq >> 64) as u64);
        wire::put_varint(out, m.min as u64);
        wire::put_varint(out, m.max as u64);
        wire::put_varint(out, self.dtrg.counters.precede_calls);
        wire::put_varint(out, self.dtrg.counters.visit_expansions);
        wire::put_varint(out, self.dtrg.counters.memo_hits);
        wire::put_varint(out, self.dtrg.counters.memo_misses);
        wire::put_varint(out, self.dtrg.counters.shadow_hits);
    }
}

impl Checkpointable for RaceDetector {
    /// Serializes the access-derived half of the detector: shadow-cell
    /// contents, discovered races, the dedup set, access counters, and the
    /// DTRG query-cost counters. Control-derived state (the DTRG itself,
    /// task counts, shadow-memory allocation names) is *not* serialized —
    /// the restore contract rebuilds it by replaying the checkpoint's
    /// control-event prefix, which is exact by construction.
    ///
    /// A shard replica scans only the cells it holds, its own shard's.
    fn save_state(&self, out: &mut Vec<u8>) {
        let dirty: Vec<(usize, &ShadowCell)> = self.shadow.dirty_cells().collect();
        self.encode_state(dirty.len(), dirty.into_iter(), out);
    }

    /// A location past the end of shadow memory was never checked (a
    /// `first_race_only` run stops checking, so it never grew the cell)
    /// and is left out, as is one another shard owns.
    fn save_cells(&self, locs: &[LocId], out: &mut Vec<u8>) {
        let cells = || {
            locs.iter()
                .filter_map(|&loc| self.shadow.cell(loc).map(|cell| (loc.index(), cell)))
        };
        self.encode_state(cells().count(), cells(), out);
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), StateError> {
        let mut c = wire::Cursor::new(state);
        let version = c.varint("dtrg state version")?;
        if version != DTRG_STATE_VERSION {
            return Err(StateError(format!(
                "unsupported dtrg state version {version} (expected {DTRG_STATE_VERSION})"
            )));
        }

        // Parse the listed cells before touching shadow memory: a blob may
        // grow it past its current extent (the control replay's
        // allocations, plus a chain's earlier blobs) only up to its highest
        // listed cell, because an access that grows shadow memory leaves
        // that cell dirty, and may list only cells this shard owns. A
        // crafted length is rejected, not allocated, and a foreign cell
        // rejected, not aliased.
        let shadow_len = c.varint("shadow length")?;
        let listed = c.varint("cell count")?;
        // A cell may name only tasks the control replay created: the first
        // check of a cell is a `Precede` query over its writer and readers.
        let tasks = self.dtrg.task_count() as u64;
        let task = |c: &mut wire::Cursor<'_>, what: &'static str| {
            let id = c.varint(what)?;
            if id >= tasks {
                return Err(StateError(format!(
                    "{what} T{id} was never created (the control prefix creates {tasks} task(s))"
                )));
            }
            Ok(TaskId(id as u32))
        };
        let mut cells = Vec::new();
        for _ in 0..listed {
            let idx = c.varint("cell index")?;
            let has_writer = c.varint("writer flag")?;
            let writer = match has_writer {
                0 => None,
                1 => Some(task(&mut c, "writer task")?),
                other => {
                    return Err(StateError(format!("invalid writer flag {other}")));
                }
            };
            let n_readers = c.varint("reader count")?;
            let mut readers = Readers::Empty;
            for _ in 0..n_readers {
                readers.push(task(&mut c, "reader task")?);
            }
            let last_clean = match c.varint("last-clean flag")? {
                0 => None,
                1 => {
                    let task = task(&mut c, "last-clean task")?;
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
                    if epoch > MAX_CACHED_EPOCH {
                        return Err(StateError(format!(
                            "last-clean epoch {epoch} exceeds the cacheable bound \
                             {MAX_CACHED_EPOCH}"
                        )));
                    }
                    Some(LastClean { task, write, epoch })
                }
                other => {
                    return Err(StateError(format!("invalid last-clean flag {other}")));
                }
            };
            let probe_misses = c.varint("probe miss streak")?;
            if probe_misses > PROBE_MISS_LIMIT as u64 {
                return Err(StateError(format!(
                    "probe miss streak {probe_misses} out of range"
                )));
            }
            let cell = ShadowCell::new(writer, readers, last_clean, probe_misses as u8);
            cells.push((idx, cell));
        }
        self.shadow.restore(shadow_len, cells).map_err(StateError)?;

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
        let count = c.varint("reader samples")?;
        let wide = |c: &mut wire::Cursor<'_>, what| -> Result<u128, StateError> {
            let lo = c.varint(what)?;
            Ok(u128::from(lo) | u128::from(c.varint(what)?) << 64)
        };
        let sum = wide(&mut c, "reader sum")?;
        let sum_sq = wide(&mut c, "reader square sum")?;
        let narrow = |v: u64, what: &str| {
            u32::try_from(v).map_err(|_| StateError(format!("{what} {v} out of range")))
        };
        let min = narrow(c.varint("reader min")?, "reader min")?;
        let max = narrow(c.varint("reader max")?, "reader max")?;
        self.reader_samples = Tally::from(Moments {
            count,
            sum,
            sum_sq,
            min,
            max,
        });
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

/// The reader-count moments as the state blob carries them: the count,
/// each 128-bit sum as its low and high words, the min and the max.
fn moment_words(m: &Moments) -> [u64; 7] {
    [
        m.count,
        m.sum as u64,
        (m.sum >> 64) as u64,
        m.sum_sq as u64,
        (m.sum_sq >> 64) as u64,
        m.min as u64,
        m.max as u64,
    ]
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
    use futrace_runtime::{Event, SerialCtx, TaskCtx};

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

        let serial = run_analysis_live(|ctx| prog(ctx), RaceDetector::new());
        assert!(serial.report.report.has_races());
        for threads in [1usize, 2, 4] {
            let mut engine = Engine::new(RaceDetector::new());
            let run = run_online(OnlineOptions::threads(threads), &mut engine, |ctx| {
                prog(ctx)
            });
            assert!(run.result.is_ok());
            let (detector, counters) = engine.into_parts();
            let online = detector.finish();
            assert_eq!(online.report.races, serial.report.report.races);
            assert_eq!(
                online.report.total_detected,
                serial.report.report.total_detected
            );
            assert_eq!(online.footprint, serial.report.footprint);
            assert_eq!(online.stats.dtrg, serial.report.stats.dtrg);
            assert_eq!(online.stats.to_string(), serial.report.stats.to_string());
            assert_eq!(
                (
                    counters.events,
                    counters.control_events,
                    counters.reads,
                    counters.writes
                ),
                (
                    serial.counters.events,
                    serial.counters.control_events,
                    serial.counters.reads,
                    serial.counters.writes
                )
            );
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
            route(&mut split, e, &mut index);
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

        let mut straight = RaceDetector::new();
        let mut idx = 0u64;
        for e in &log.events {
            route(&mut straight, e, &mut idx);
        }
        let want_stats = straight.stats();
        let want = straight.into_report();
        assert!(want.has_races(), "test program must be racy");

        for cut in [
            0,
            1,
            log.events.len() / 3,
            log.events.len() / 2,
            log.events.len(),
        ] {
            // Run the prefix, snapshot the access-derived state.
            let mut prefix_det = RaceDetector::new();
            let mut prefix_idx = 0u64;
            for e in &log.events[..cut] {
                route(&mut prefix_det, e, &mut prefix_idx);
            }
            let mut blob = Vec::new();
            prefix_det.save_state(&mut blob);

            // Fresh instance: replay only the control prefix, then restore.
            let mut resumed = control_replica(&log.events[..cut]);
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
                got_stats.readers_at_access, want_stats.readers_at_access,
                "cut={cut}"
            );
            let got = resumed.into_report();
            assert_eq!(got.total_detected, want.total_detected, "cut={cut}");
            assert_eq!(got.races, want.races, "cut={cut}");
        }
    }

    /// A random mix of futures, asyncs, gets and main-task accesses over
    /// a small array, so cells collect writers, parallel readers and races.
    fn random_log(seed: u64) -> futrace_runtime::EventLog {
        let mut rng = futrace_util::rng::seeded(seed);
        let mut log = futrace_runtime::EventLog::new();
        run_serial(&mut log, |ctx| {
            let a = ctx.shared_array(24, 0i64, "a");
            let mut handles = Vec::new();
            for _ in 0..80 {
                let (i, j) = (rng.gen_range(0..24usize), rng.gen_range(0..24usize));
                let a2 = a.clone();
                match rng.gen_range(0..6u32) {
                    0 => handles.push(ctx.future(move |ctx| {
                        let _ = a2.read(ctx, i);
                        a2.write(ctx, j, 1);
                    })),
                    1 => handles.push(ctx.future(move |ctx| {
                        let _ = a2.read(ctx, i);
                    })),
                    2 => ctx.async_task(move |ctx| a2.write(ctx, i, 2)),
                    3 if !handles.is_empty() => {
                        ctx.get(&handles[rng.gen_range(0..handles.len())]);
                    }
                    4 => a.write(ctx, i, 3),
                    _ => {
                        let _ = a.read(ctx, i);
                    }
                }
            }
        });
        log
    }

    #[test]
    fn delta_chain_restores_the_state_of_the_last_cut() {
        // Cut a full blob, then deltas of the cells checked since each
        // previous cut. A fresh instance that replays the control prefix
        // and restores the chain in order must save the very same bytes
        // as the original at the last cut; the deltas alone must not (or
        // must fail to restore).
        let mut partial_deltas = 0;
        for seed in 0..16u64 {
            let log = random_log(seed);
            let n = log.events.len();
            let mut det = RaceDetector::new();
            let (mut index, mut done) = (0u64, 0usize);
            let mut touched: Vec<LocId> = Vec::new();
            let mut chain: Vec<Vec<u8>> = Vec::new();
            for cut in [n / 5, 2 * n / 5, 3 * n / 5, 4 * n / 5, n] {
                for e in &log.events[done..cut] {
                    if let Some(l) = route(&mut det, e, &mut index) {
                        if !touched.contains(&l) {
                            touched.push(l);
                        }
                    }
                }
                done = cut;
                let mut blob = Vec::new();
                if chain.is_empty() {
                    det.save_state(&mut blob);
                } else {
                    det.save_cells(&touched, &mut blob);
                }
                touched.clear();
                chain.push(blob);
            }
            let mut want = Vec::new();
            det.save_state(&mut want);

            let restored = |blobs: &[Vec<u8>]| {
                let mut fresh = control_replica(&log.events);
                for blob in blobs {
                    fresh.restore_state(blob).ok()?;
                }
                let mut out = Vec::new();
                fresh.save_state(&mut out);
                Some(out)
            };
            assert_eq!(restored(&chain).as_ref(), Some(&want), "seed {seed}");
            if restored(&chain[1..]).as_ref() != Some(&want) {
                partial_deltas += 1;
            }
        }
        assert!(
            partial_deltas > 8,
            "deltas must list only the touched cells"
        );
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

    /// Routes `e` into `det` (accesses get the next global index) and
    /// returns the checked location, if `e` was an access.
    fn route(det: &mut RaceDetector, e: &Event, index: &mut u64) -> Option<LocId> {
        let loc = match *e {
            Event::Read(t, l) => {
                det.check_read_at(t, l, *index);
                l
            }
            Event::Write(t, l) => {
                det.check_write_at(t, l, *index);
                l
            }
            _ => {
                det.apply_control(e);
                return None;
            }
        };
        *index += 1;
        Some(loc)
    }

    /// Asserts that the encoder writes the reference's bytes for `det`,
    /// whole (`save_state`) and as a delta of `locs` (`save_cells`), each
    /// appended to a non-empty buffer.
    fn assert_encoders_agree(det: &RaceDetector, locs: &[LocId], context: &str) {
        let dirty: Vec<(usize, &ShadowCell)> = det.shadow.dirty_cells().collect();
        let mut got = vec![0xA5];
        det.save_state(&mut got);
        let mut want = vec![0xA5];
        det.encode_state_reference(&dirty, &mut want);
        assert!(
            got == want,
            "{context}: save_state diverged from the reference"
        );

        let listed: Vec<(usize, &ShadowCell)> = locs
            .iter()
            .filter_map(|&loc| det.shadow.cell(loc).map(|cell| (loc.index(), cell)))
            .collect();
        let mut got = vec![0x5A];
        det.save_cells(locs, &mut got);
        let mut want = vec![0x5A];
        det.encode_state_reference(&listed, &mut want);
        assert!(
            got == want,
            "{context}: save_cells diverged from the reference"
        );
    }

    /// Replays `events` into a detector with `config`, comparing the
    /// encoders at `cuts` evenly spaced points, each delta listing the
    /// locations checked since the previous point.
    fn encoders_agree_over(events: &[Event], config: DetectorConfig, cuts: usize, context: &str) {
        let mut det = RaceDetector::with_config(config);
        let every = (events.len() / cuts.max(1)).max(1);
        let (mut index, mut touched) = (0u64, Vec::new());
        for (i, e) in events.iter().enumerate() {
            touched.extend(route(&mut det, e, &mut index));
            if (i + 1) % every == 0 {
                assert_encoders_agree(&det, &touched, &format!("{context} at event {i}"));
                touched.clear();
            }
        }
        assert_encoders_agree(&det, &touched, &format!("{context} at the end"));
    }

    #[test]
    fn encoder_matches_the_reference_on_random_programs() {
        use futrace_util::propcheck::{self, strategies, Config};
        propcheck::check(&Config::with_cases(64), &strategies::any_u64(), |seed| {
            let log = random_log(seed);
            for first_race_only in [false, true] {
                let config = DetectorConfig {
                    first_race_only,
                    ..DetectorConfig::default()
                };
                let context = format!("seed {seed}, first_race_only {first_race_only}");
                encoders_agree_over(&log.events, config, 5, &context);
            }
        });
    }

    #[test]
    fn encoder_matches_the_reference_on_benchsuite_programs() {
        use futrace_benchsuite::registry::{workloads, Scale};
        for w in workloads() {
            for planted in [false, true].into_iter().filter(|&p| !p || w.plantable) {
                let log = w.record(Scale::Tiny, planted);
                let context = format!("{} planted {planted}", w.name);
                encoders_agree_over(&log.events, DetectorConfig::default(), 8, &context);
            }
        }
    }

    #[test]
    fn encoder_matches_the_reference_on_races_dedup_and_many_readers() {
        let mut log = futrace_runtime::EventLog::new();
        run_serial(&mut log, |ctx| {
            let a = ctx.shared_array(4, 0u64, "a");
            let mut readers = Vec::new();
            for _ in 0..5 {
                let ar = a.clone();
                readers.push(ctx.future(move |ctx| ar.read(ctx, 0)));
            }
            ctx.finish(|ctx| {
                for i in 1..4usize {
                    let aw = a.clone();
                    ctx.async_task(move |ctx| aw.write(ctx, i, 1));
                }
            });
            let aw = a.clone();
            let _racer = ctx.future(move |ctx| aw.write(ctx, 2, 5));
            // Both reads race with the unjoined future; the second is
            // counted but deduplicated.
            let _ = a.read(ctx, 2);
            let _ = a.read(ctx, 2);
        });
        let mut det = RaceDetector::new();
        let (mut index, mut touched) = (0u64, Vec::new());
        for e in &log.events {
            touched.extend(route(&mut det, e, &mut index));
        }
        assert!(!det.races.is_empty() && det.total_detected > det.races.len() as u64);
        assert!(!det.dedup.is_empty());
        let many = det.shadow.cell(LocId(0)).map(|c| c.readers.len());
        assert_eq!(many, Some(5), "five parallel future readers spill to Many");
        assert_encoders_agree(&det, &touched, "racy program");
    }

    #[test]
    fn encoder_matches_the_reference_at_varint_boundaries() {
        // Every field at each boundary, clamped to the field's width. The
        // cell indices need no shadow memory behind them: the encoder
        // writes whatever index it is handed. The values take every
        // varint length; a cell's last-clean epoch is clamped to
        // `MAX_CACHED_EPOCH` (2^58 - 1, a 9-byte varint, the longest a
        // cell can hold), and the 128-bit moment sums take every
        // boundary in both words.
        let boundaries = [
            0u64,
            127,
            128,
            1 << 14,
            1 << 21,
            1 << 28,
            u32::MAX as u64,
            1 << 35,
        ];
        let long = [1 << 42, 1 << 49, 1 << 56, MAX_CACHED_EPOCH, u64::MAX];
        for v in boundaries.into_iter().chain(long) {
            let v32 = v.min(u32::MAX as u64) as u32;
            let mut det = RaceDetector::new();
            det.shadow.grow_to(v.min(1 << 14) as usize);
            det.access_index = v;
            det.total_detected = v;
            let name = "n".repeat(v.min(1 << 14) as usize);
            det.races.push(Race {
                loc: LocId(v32),
                loc_name: name.clone(),
                prev_task: TaskId(v32),
                prev_kind: AccessKind::Write,
                cur_task: TaskId(v32),
                cur_kind: AccessKind::Read,
                access_index: v,
                prev_path: name.clone(),
                cur_path: String::new(),
            });
            det.dedup
                .insert((LocId(v32), TaskId(v32), TaskId(0), v.min(255) as u8));
            det.stats.reads = v;
            det.stats.writes = v;
            det.reader_samples = Tally::from(Moments {
                count: v,
                sum: u128::from(v) << 64 | u128::from(v),
                sum_sq: u128::from(v) << 64,
                min: v32,
                max: v32,
            });
            let c = &mut det.dtrg.counters;
            c.precede_calls = v;
            c.visit_expansions = v;
            c.memo_hits = v;
            c.memo_misses = v;
            c.shadow_hits = v;
            let readers = |n: usize| {
                let mut r = Readers::Empty;
                for _ in 0..n {
                    r.push(TaskId(v32));
                }
                r
            };
            let cells: Vec<(usize, ShadowCell)> = (0..3)
                .map(|n| {
                    let last_clean = (n > 1).then_some(LastClean {
                        task: TaskId(v32),
                        write: n == 2,
                        epoch: v.min(MAX_CACHED_EPOCH),
                    });
                    let cell = ShadowCell::new(
                        (n > 0).then_some(TaskId(v32)),
                        readers(n),
                        last_clean,
                        v.min(PROBE_MISS_LIMIT as u64) as u8,
                    );
                    assert_eq!(
                        cell.last_clean(),
                        last_clean,
                        "boundary {v}: epoch not cached"
                    );
                    (v as usize, cell)
                })
                .collect();
            let refs: Vec<(usize, &ShadowCell)> = cells.iter().map(|(i, c)| (*i, c)).collect();
            let mut got = Vec::new();
            det.encode_state(refs.len(), refs.iter().copied(), &mut got);
            let mut want = Vec::new();
            det.encode_state_reference(&refs, &mut want);
            assert!(got == want, "boundary {v}: encoders diverged");
        }
    }

    /// Replays the control events of `events` into `det`, skipping the
    /// accesses (what a checkpoint restore replays before the state blob).
    fn replay_control(det: &mut RaceDetector, events: &[Event]) {
        for e in events {
            if !matches!(e, Event::Read(..) | Event::Write(..)) {
                det.apply_control(e);
            }
        }
    }

    /// A fresh detector that replayed the control events of `events`.
    fn control_replica(events: &[Event]) -> RaceDetector {
        let mut det = RaceDetector::new();
        replay_control(&mut det, events);
        det
    }

    /// A small clean program whose cell 0 ends with a writer and a cached
    /// clean verdict, and the detector that checked it.
    fn checked_program() -> (futrace_runtime::EventLog, RaceDetector) {
        let mut log = futrace_runtime::EventLog::new();
        run_serial(&mut log, |ctx| {
            let x = ctx.shared_var(0u64, "x");
            let xr = x.clone();
            let f = ctx.future(move |ctx| xr.read(ctx));
            ctx.get(&f);
            x.write(ctx, 1);
            let _ = x.read(ctx);
        });
        let mut det = RaceDetector::new();
        let mut index = 0u64;
        for e in &log.events {
            route(&mut det, e, &mut index);
        }
        (log, det)
    }

    #[test]
    fn restore_refuses_a_version_3_blob() {
        let (log, det) = checked_program();
        let mut blob = Vec::new();
        det.save_state(&mut blob);
        assert_eq!(blob[0], 4, "the blob leads with its version");
        blob[0] = 3;
        let err = control_replica(&log.events)
            .restore_state(&blob)
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("unsupported dtrg state version 3 (expected 4)"),
            "{err}"
        );
    }

    #[test]
    fn restore_refuses_a_last_clean_epoch_past_the_bound() {
        // Cell 0 re-encoded with its cached verdict's epoch at the bound
        // and one past it: the first restores, the second is an error.
        let (log, det) = checked_program();
        let cell = det.shadow.cell(LocId(0)).unwrap();
        let lc = cell
            .last_clean()
            .expect("the last read's clean verdict is cached");
        for (epoch, ok) in [(MAX_CACHED_EPOCH, true), (MAX_CACHED_EPOCH + 1, false)] {
            let mut blob = Vec::new();
            wire::put_varint(&mut blob, DTRG_STATE_VERSION);
            wire::put_varint(&mut blob, det.shadow.len() as u64);
            wire::put_varint(&mut blob, 1);
            wire::put_varint(&mut blob, 0); // cell index
            wire::put_varint(&mut blob, 1);
            wire::put_varint(&mut blob, cell.writer().unwrap().0 as u64);
            wire::put_varint(&mut blob, cell.readers.len() as u64);
            for r in cell.readers.iter() {
                wire::put_varint(&mut blob, r.0 as u64);
            }
            wire::put_varint(&mut blob, 1);
            wire::put_varint(&mut blob, lc.task.0 as u64);
            wire::put_varint(&mut blob, lc.write as u64);
            wire::put_varint(&mut blob, epoch);
            wire::put_varint(&mut blob, 0); // probe misses
                                            // Everything after the cells, from a blob that lists none.
            let mut tail = Vec::new();
            det.encode_state(0, std::iter::empty(), &mut tail);
            let skip = 3; // version, shadow length, cell count: one byte each
            blob.extend_from_slice(&tail[skip..]);
            let got = control_replica(&log.events).restore_state(&blob);
            match (ok, got) {
                (true, Ok(())) => {}
                (false, Err(e)) => {
                    assert!(e.to_string().contains("exceeds the cacheable bound"), "{e}")
                }
                (_, other) => panic!("epoch {epoch}: {other:?}"),
            }
        }
    }

    #[test]
    fn cells_of_every_checked_location_restore_like_the_whole_state() {
        // A fresh detector's dirty cells are exactly the cells it checked,
        // so `save_cells` over every checked location, ascending, restores
        // what `save_state` does. Under `first_race_only` a location
        // checked after the first race stays clean; listing it restores a
        // default cell, which is what the replica already holds.
        let mut listed_clean = 0;
        for first_race_only in [false, true] {
            let config = DetectorConfig {
                first_race_only,
                ..DetectorConfig::default()
            };
            for seed in 0..24u64 {
                let log = random_log(seed);
                let mut det = RaceDetector::with_config(config.clone());
                let mut checked = std::collections::BTreeSet::new();
                let mut index = 0u64;
                for e in &log.events {
                    checked.extend(route(&mut det, e, &mut index));
                }
                let checked: Vec<LocId> = checked.into_iter().collect();
                let mut whole = Vec::new();
                det.save_state(&mut whole);
                let mut listed = Vec::new();
                det.save_cells(&checked, &mut listed);

                let restored = |blob: &[u8]| {
                    let mut fresh = RaceDetector::with_config(config.clone());
                    replay_control(&mut fresh, &log.events);
                    fresh.restore_state(blob).unwrap();
                    let mut out = Vec::new();
                    fresh.save_state(&mut out);
                    out
                };
                let context = format!("seed {seed}, first_race_only {first_race_only}");
                assert!(restored(&listed) == restored(&whole), "{context}");
                assert!(restored(&whole) == whole, "{context}");
                if first_race_only {
                    listed_clean += (listed != whole) as u32;
                } else {
                    assert!(listed == whole, "{context}: every checked cell is dirty");
                }
            }
        }
        assert!(
            listed_clean > 0,
            "some first-race-only run lists a clean cell"
        );
    }

    #[test]
    fn restore_rejects_a_task_the_control_prefix_never_created() {
        // Each task field of a cell in turn names T1000000 in a program
        // that creates two tasks. Restoring it is an error, not a cell
        // whose first check indexes the task tables out of bounds.
        let mut log = futrace_runtime::EventLog::new();
        run_serial(&mut log, |ctx| {
            let x = ctx.shared_var(0u64, "x");
            let xr = x.clone();
            let f = ctx.future(move |ctx| xr.read(ctx));
            ctx.get(&f);
            x.write(ctx, 1);
            let _ = x.read(ctx);
        });
        let mut det = RaceDetector::new();
        let mut index = 0u64;
        for e in &log.events {
            route(&mut det, e, &mut index);
        }
        let far = TaskId(1_000_000);
        type Craft = fn(&mut ShadowCell, TaskId);
        let crafts: [(&str, Craft); 3] = [
            ("writer", |c, t| c.set_writer(Some(t))),
            ("reader", |c, t| c.readers.push(t)),
            ("last-clean", |c, t| {
                c.set_last_clean(Some(LastClean {
                    task: t,
                    write: false,
                    epoch: 0,
                }))
            }),
        ];
        for (field, craft) in crafts {
            let mut cell = det.shadow.cell(LocId(0)).unwrap().clone();
            craft(&mut cell, far);
            let mut blob = Vec::new();
            det.encode_state(1, std::iter::once((0, &cell)), &mut blob);
            let err = control_replica(&log.events)
                .restore_state(&blob)
                .unwrap_err();
            assert!(
                err.to_string().contains("T1000000 was never created"),
                "{field}: {err}"
            );
        }
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
        assert!(stats.readers_at_access.max().unwrap() >= 4);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use futrace_runtime::engine::run_analysis_recorded;
    use futrace_runtime::{trace, EventLog, SerialCtx, TaskCtx};

    /// Offline detection: decodes a v1 trace and replays it into a fresh
    /// detector, returning the report and statistics.
    fn detect_races_in_trace(
        blob: &[u8],
    ) -> Result<(RaceReport, DetectorStats), trace::DecodeError> {
        let out = run_analysis_recorded(&trace::decode(blob)?, RaceDetector::new());
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
