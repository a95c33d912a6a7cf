//! Vector-clock happens-before detector.
//!
//! The general-purpose alternative the paper argues against for task
//! parallelism (§1, §6): precise on arbitrary computation graphs, but the
//! clock attached to each task has one component per task that ever
//! communicated with it, and in a task-parallel program *every* task is
//! eventually joined, so clocks grow toward Θ(#tasks) entries — memory and
//! copy cost the DTRG avoids. The bench harness's ablation shows exactly
//! this blow-up.
//!
//! Clock discipline (serial depth-first, but valid for any schedule):
//!
//! * spawn: the child starts with a copy of the parent's clock plus its own
//!   fresh component; the parent then ticks its own component (so accesses
//!   before/after the spawn are distinguishable to the child's subtree);
//! * task end: the final clock is snapshotted for joiners;
//! * `get` / finish end: the waiter's clock joins (component-wise max)
//!   each joined task's final clock;
//! * an access recorded as `(task, epoch)` happens-before the current task
//!   `u` iff `clock(u)[task] >= epoch`.
//!
//! Shadow memory keeps the last write epoch and a pruned list of read
//! epochs per location (all pairwise-parallel), as in DJIT⁺-style
//! detectors. Like the DTRG detector's, it holds only the cells of its
//! shard's locations ([`StridedCells`]); unlike it, only accesses grow it.

use crate::BaselineReport;
use futrace_runtime::engine::{Analysis, Checkpointable, LocRoutable, StateError};
use futrace_runtime::monitor::{Monitor, TaskKind};
use futrace_util::ids::{FinishId, LocId, TaskId};
use futrace_util::strided::StridedCells;
use futrace_util::wire;

/// Sparse-ish vector clock: dense `Vec<u32>` indexed by task id, truncated
/// to the highest nonzero component. Component `t` = how much of task `t`'s
/// history is known.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct VClock(Vec<u32>);

impl VClock {
    fn get(&self, t: TaskId) -> u32 {
        self.0.get(t.index()).copied().unwrap_or(0)
    }

    fn set(&mut self, t: TaskId, v: u32) {
        if self.0.len() <= t.index() {
            self.0.resize(t.index() + 1, 0);
        }
        self.0[t.index()] = v;
    }

    fn join(&mut self, other: &VClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (a, &b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(b);
        }
    }

    /// Number of allocated components — the memory-growth metric the
    /// ablation bench reports.
    pub(crate) fn width(&self) -> usize {
        self.0.len()
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Epoch {
    task: TaskId,
    clock: u32,
}

#[derive(Clone, Debug, Default)]
struct Cell {
    write: Option<Epoch>,
    reads: Vec<Epoch>,
}

/// The vector-clock determinacy race detector.
pub struct VectorClockDetector {
    clocks: Vec<VClock>,
    shadow: StridedCells<Cell>,
    races: u64,
    /// Peak clock width observed (the impracticality metric).
    pub peak_clock_width: usize,
    /// Sum of clock components allocated across all tasks (memory proxy).
    pub total_clock_entries: u64,
}

impl Default for VectorClockDetector {
    fn default() -> Self {
        Self::new()
    }
}

impl VectorClockDetector {
    /// Fresh detector with the main task's clock at `[1]`.
    pub fn new() -> Self {
        let mut main = VClock::default();
        main.set(TaskId::MAIN, 1);
        VectorClockDetector {
            clocks: vec![main],
            shadow: StridedCells::new(),
            races: 0,
            peak_clock_width: 1,
            total_clock_entries: 1,
        }
    }

    #[inline]
    fn hb(&self, e: Epoch, cur: TaskId) -> bool {
        self.clocks[cur.index()].get(e.task) >= e.clock
    }

    fn epoch_of(&self, t: TaskId) -> Epoch {
        Epoch {
            task: t,
            clock: self.clocks[t.index()].get(t),
        }
    }

    fn cell_mut(&mut self, loc: LocId) -> &mut Cell {
        self.shadow.cell_mut(loc)
    }

    /// Shadow cells this detector (or shard replica) holds.
    pub fn shadow_cells(&self) -> usize {
        self.shadow.len()
    }
}

impl Monitor for VectorClockDetector {
    fn task_create(&mut self, parent: TaskId, child: TaskId, _kind: TaskKind, _ief: FinishId) {
        debug_assert_eq!(child.index(), self.clocks.len());
        let mut c = self.clocks[parent.index()].clone();
        c.set(child, 1);
        self.peak_clock_width = self.peak_clock_width.max(c.width());
        self.total_clock_entries += c.width() as u64;
        self.clocks.push(c);
        // Tick the parent so its post-spawn accesses are not covered by the
        // child's inherited snapshot.
        let p = &mut self.clocks[parent.index()];
        let cur = p.get(parent);
        p.set(parent, cur + 1);
    }

    fn get(&mut self, waiter: TaskId, awaited: TaskId) {
        let other = self.clocks[awaited.index()].clone();
        self.clocks[waiter.index()].join(&other);
        self.peak_clock_width = self
            .peak_clock_width
            .max(self.clocks[waiter.index()].width());
    }

    fn finish_end(&mut self, task: TaskId, _finish: FinishId, joined: &[TaskId]) {
        for &j in joined {
            let other = self.clocks[j.index()].clone();
            self.clocks[task.index()].join(&other);
        }
        self.peak_clock_width = self.peak_clock_width.max(self.clocks[task.index()].width());
    }

    fn write(&mut self, task: TaskId, loc: LocId) {
        let epoch = self.epoch_of(task);
        let cell = std::mem::take(self.cell_mut(loc));
        for r in &cell.reads {
            if !self.hb(*r, task) {
                self.races += 1;
            }
        }
        if let Some(w) = cell.write {
            if !self.hb(w, task) {
                self.races += 1;
            }
        }
        // Keep racy (still-parallel) readers, matching the DTRG detector's
        // Algorithm 8; ordered readers are subsumed by the new writer.
        let task_clock = &self.clocks[task.index()];
        let kept: Vec<Epoch> = cell
            .reads
            .into_iter()
            .filter(|r| task_clock.get(r.task) < r.clock)
            .collect();
        let new_cell = self.cell_mut(loc);
        new_cell.reads = kept;
        new_cell.write = Some(epoch);
    }

    fn read(&mut self, task: TaskId, loc: LocId) {
        let epoch = self.epoch_of(task);
        let cell = std::mem::take(self.cell_mut(loc));
        if let Some(w) = cell.write {
            if !self.hb(w, task) {
                self.races += 1;
            }
        }
        let task_clock = &self.clocks[task.index()];
        let mut reads: Vec<Epoch> = cell
            .reads
            .into_iter()
            .filter(|r| task_clock.get(r.task) < r.clock) // keep parallel reads
            .collect();
        reads.push(epoch);
        let new_cell = self.cell_mut(loc);
        new_cell.reads = reads;
        new_cell.write = cell.write;
    }
}

impl Analysis for VectorClockDetector {
    type Report = BaselineReport;

    fn finish(self) -> BaselineReport {
        let clocks = format!(
            "peak clock width: {}, clock entries allocated: {}",
            self.peak_clock_width, self.total_clock_entries
        );
        BaselineReport::new("vector-clock", self.races, 0, vec![clocks])
    }
}

impl LocRoutable for VectorClockDetector {
    /// Each replica's shadow memory holds only its shard's cells.
    fn assign_shard(&mut self, shard: usize, shards: usize) {
        self.shadow.assign_shard(shard, shards);
    }

    /// Vector clocks qualify for loc-routed sharding: clocks are mutated
    /// only by control events (spawn, `get`, finish end), which every
    /// replica applies identically, and each access check touches exactly
    /// one shadow cell. Race counts sum across shards; the clock-growth
    /// notes are control-derived and identical in every replica, so shard
    /// 0's are taken verbatim.
    fn merge_sharded(self, shards: Vec<BaselineReport>) -> BaselineReport {
        let races = shards.iter().map(|s| s.races).sum();
        let notes = shards
            .into_iter()
            .next()
            .map(|s| s.notes)
            .unwrap_or_default();
        BaselineReport::new("vector-clock", races, 0, notes)
    }
}

/// Checkpoint state-blob version for [`VectorClockDetector`].
const VC_STATE_VERSION: u64 = 1;

impl VectorClockDetector {
    /// The one state-blob encoder behind [`Checkpointable::save_state`]
    /// (every dirty cell) and [`Checkpointable::save_cells`] (a delta's
    /// cells): the shadow extent, the listed cells by global location,
    /// then the race count.
    /// Like the DTRG's, it reserves each cell's worst case once and
    /// writes its varints by index ([`wire::SliceWriter`]).
    fn encode_state(&self, cells: &[(usize, &Cell)], out: &mut Vec<u8>) {
        let mut w = wire::SliceWriter::new(out);
        w.put_varint(VC_STATE_VERSION);
        w.put_varint(self.shadow.extent() as u64);
        w.put_varint(cells.len() as u64);
        for &(idx, cell) in cells {
            // Index, write flag, task and clock, read count, then two per
            // read.
            w.reserve((5 + 2 * cell.reads.len()) * wire::MAX_VARINT_LEN);
            w.varint(idx as u64);
            match cell.write {
                Some(e) => {
                    w.varint(1);
                    w.varint(e.task.0 as u64);
                    w.varint(e.clock as u64);
                }
                None => w.varint(0),
            }
            w.varint(cell.reads.len() as u64);
            for e in &cell.reads {
                w.varint(e.task.0 as u64);
                w.varint(e.clock as u64);
            }
        }
        w.put_varint(self.races);
    }
}

impl Checkpointable for VectorClockDetector {
    /// Access-derived state is the epoch shadow memory and the race count.
    /// The clocks themselves — and the growth metrics derived from them —
    /// mutate only on control events, so the restore contract's control
    /// replay rebuilds them exactly.
    fn save_state(&self, out: &mut Vec<u8>) {
        let dirty: Vec<(usize, &Cell)> = self
            .shadow
            .iter()
            .filter(|(_, c)| c.write.is_some() || !c.reads.is_empty())
            .collect();
        self.encode_state(&dirty, out);
    }

    fn save_cells(&self, locs: &[LocId], out: &mut Vec<u8>) {
        let cells: Vec<(usize, &Cell)> = locs
            .iter()
            .filter_map(|&loc| self.shadow.cell(loc).map(|cell| (loc.index(), cell)))
            .collect();
        self.encode_state(&cells, out);
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), StateError> {
        let mut c = wire::Cursor::new(state);
        let version = c.varint("vc state version")?;
        if version != VC_STATE_VERSION {
            return Err(StateError(format!(
                "unsupported vector-clock state version {version} (expected {VC_STATE_VERSION})"
            )));
        }
        // As in the DTRG restore: parse the listed cells first, grow
        // shadow memory only as far as its current extent or the highest
        // listed cell (only accesses grow it, and they leave the cell
        // dirty), and accept only cells this shard owns.
        let shadow_len = c.varint("vc shadow length")?;
        let listed = c.varint("vc cell count")?;
        let mut cells = Vec::new();
        for _ in 0..listed {
            let idx = c.varint("vc cell index")?;
            let write = match c.varint("vc write flag")? {
                0 => None,
                1 => Some(Epoch {
                    task: TaskId(c.varint("vc write task")? as u32),
                    clock: c.varint("vc write clock")? as u32,
                }),
                other => return Err(StateError(format!("invalid vc write flag {other}"))),
            };
            // Every read takes at least two bytes.
            let n_reads = c.varint("vc read count")?;
            let mut reads = Vec::with_capacity((n_reads as usize).min(c.remaining() / 2));
            for _ in 0..n_reads {
                reads.push(Epoch {
                    task: TaskId(c.varint("vc read task")? as u32),
                    clock: c.varint("vc read clock")? as u32,
                });
            }
            cells.push((idx, Cell { write, reads }));
        }
        self.shadow
            .restore(shadow_len, cells)
            .map_err(|e| StateError(format!("vc {e}")))?;
        self.races = c.varint("vc races")?;
        if !c.is_empty() {
            return Err(StateError(format!(
                "{} trailing byte(s) after vector-clock state",
                c.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::run;
    use futrace_runtime::{run_serial, Event, EventLog, TaskCtx};

    #[test]
    fn race_free_future_chain() {
        let r = run(VectorClockDetector::new(), |ctx| {
            let x = ctx.shared_var(0u64, "x");
            let x2 = x.clone();
            let f = ctx.future(move |ctx| x2.write(ctx, 1));
            ctx.get(&f);
            let _ = x.read(ctx);
        });
        assert!(!r.has_races(), "vector clocks model get() precisely");
    }

    #[test]
    fn detects_future_race() {
        let r = run(VectorClockDetector::new(), |ctx| {
            let x = ctx.shared_var(0u64, "x");
            let x2 = x.clone();
            let _f = ctx.future(move |ctx| x2.write(ctx, 1));
            let _ = x.read(ctx); // no get
        });
        assert!(r.has_races());
    }

    #[test]
    fn finish_synchronizes() {
        let r = run(VectorClockDetector::new(), |ctx| {
            let x = ctx.shared_var(0u64, "x");
            ctx.finish(|ctx| {
                let xa = x.clone();
                ctx.async_task(move |ctx| xa.write(ctx, 1));
            });
            x.write(ctx, 2);
        });
        assert!(!r.has_races());
    }

    #[test]
    fn post_spawn_parent_access_races_with_child_read() {
        // The parent-tick matters: parent writes after spawning a child
        // that reads — parallel.
        let r = run(VectorClockDetector::new(), |ctx| {
            let x = ctx.shared_var(0u64, "x");
            let x2 = x.clone();
            ctx.async_task(move |ctx| {
                let _ = x2.read(ctx);
            });
            x.write(ctx, 1);
        });
        assert!(r.has_races());
    }

    #[test]
    fn pre_spawn_parent_write_is_ordered() {
        let r = run(VectorClockDetector::new(), |ctx| {
            let x = ctx.shared_var(0u64, "x");
            x.write(ctx, 1);
            let x2 = x.clone();
            ctx.async_task(move |ctx| {
                let _ = x2.read(ctx);
            });
        });
        assert!(!r.has_races());
    }

    #[test]
    fn clock_width_grows_with_tasks() {
        let mut d = VectorClockDetector::new();
        run_serial(&mut d, |ctx| {
            let mut hs = Vec::new();
            for _ in 0..50 {
                hs.push(ctx.future(|_| 0u8));
            }
            for h in &hs {
                ctx.get(h);
            }
        });
        assert_eq!(d.races, 0);
        assert!(
            d.peak_clock_width >= 50,
            "width {} should approach task count",
            d.peak_clock_width
        );
        assert_eq!(d.finish().name, "vector-clock");
    }

    #[test]
    fn checkpoint_roundtrip_matches_straight_run() {
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
        });

        let route = |det: &mut VectorClockDetector, e: &Event| match e {
            Event::Read(t, l) => Monitor::read(det, *t, *l),
            Event::Write(t, l) => Monitor::write(det, *t, *l),
            control => Analysis::apply_control(det, control),
        };

        let mut straight = VectorClockDetector::new();
        for e in &log.events {
            route(&mut straight, e);
        }
        assert!(straight.races > 0, "test program must be racy");

        for cut in [0, log.events.len() / 2, log.events.len()] {
            let mut prefix = VectorClockDetector::new();
            for e in &log.events[..cut] {
                route(&mut prefix, e);
            }
            let mut blob = Vec::new();
            prefix.save_state(&mut blob);

            let mut resumed = VectorClockDetector::new();
            for e in &log.events[..cut] {
                if !matches!(e, Event::Read(..) | Event::Write(..)) {
                    Analysis::apply_control(&mut resumed, e);
                }
            }
            resumed.restore_state(&blob).unwrap();
            for e in &log.events[cut..] {
                route(&mut resumed, e);
            }

            assert_eq!(resumed.races, straight.races, "cut={cut}");
            assert_eq!(resumed.shadow.len(), straight.shadow.len(), "cut={cut}");
            assert_eq!(
                resumed.peak_clock_width, straight.peak_clock_width,
                "cut={cut}"
            );
            assert_eq!(
                resumed.total_clock_entries, straight.total_clock_entries,
                "cut={cut}"
            );
        }

        let mut det = VectorClockDetector::new();
        assert!(det.restore_state(&[0xFF]).is_err(), "truncated varint");
        assert!(det.restore_state(&[7]).is_err(), "bad version");
        // One cell claiming 2^60 reads, and a shadow length no listed cell
        // accounts for: both errors, neither an allocation.
        let mut blob = vec![VC_STATE_VERSION as u8, 1, 1, 0, 0];
        wire::put_varint(&mut blob, 1 << 60);
        assert!(
            det.restore_state(&blob).is_err(),
            "read count past the blob"
        );
        let mut blob = vec![VC_STATE_VERSION as u8];
        wire::put_varint(&mut blob, 1 << 40);
        blob.extend_from_slice(&[0, 0]);
        let err = det.restore_state(&blob).unwrap_err();
        assert!(err.to_string().contains("shadow length"), "{err}");
    }

    #[test]
    fn delta_chain_restores_the_state_of_the_last_cut() {
        // As the DTRG detector's test: a full blob, then deltas of the
        // cells touched since each previous cut; restoring the chain into
        // a fresh instance must reproduce the last cut byte for byte.
        let mut partial_deltas = 0;
        for seed in 0..16u64 {
            let mut rng = futrace_util::rng::seeded(seed);
            let mut log = EventLog::new();
            run_serial(&mut log, |ctx| {
                let a = ctx.shared_array(24, 0i64, "a");
                let mut handles = Vec::new();
                for _ in 0..80 {
                    let (i, j) = (rng.gen_range(0..24usize), rng.gen_range(0..24usize));
                    let a2 = a.clone();
                    match rng.gen_range(0..5u32) {
                        0 => handles.push(ctx.future(move |ctx| {
                            let _ = a2.read(ctx, i);
                            a2.write(ctx, j, 1);
                        })),
                        1 => ctx.async_task(move |ctx| a2.write(ctx, i, 2)),
                        2 if !handles.is_empty() => {
                            ctx.get(&handles[rng.gen_range(0..handles.len())]);
                        }
                        3 => a.write(ctx, i, 3),
                        _ => {
                            let _ = a.read(ctx, i);
                        }
                    }
                }
            });
            let n = log.events.len();
            let mut det = VectorClockDetector::new();
            let (mut done, mut touched) = (0usize, Vec::<LocId>::new());
            let mut chain: Vec<Vec<u8>> = Vec::new();
            for cut in [n / 5, 2 * n / 5, 3 * n / 5, 4 * n / 5, n] {
                for e in &log.events[done..cut] {
                    match e {
                        Event::Read(t, l) | Event::Write(t, l) => {
                            if matches!(e, Event::Read(..)) {
                                Monitor::read(&mut det, *t, *l);
                            } else {
                                Monitor::write(&mut det, *t, *l);
                            }
                            if !touched.contains(l) {
                                touched.push(*l);
                            }
                        }
                        control => Analysis::apply_control(&mut det, control),
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
                let mut fresh = VectorClockDetector::new();
                for e in &log.events {
                    if !matches!(e, Event::Read(..) | Event::Write(..)) {
                        Analysis::apply_control(&mut fresh, e);
                    }
                }
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
    fn transitive_get_order() {
        let r = run(VectorClockDetector::new(), |ctx| {
            let x = ctx.shared_var(0u64, "x");
            let xb = x.clone();
            let b = ctx.future(move |ctx| xb.write(ctx, 3));
            let c = ctx.future(move |ctx| {
                ctx.get(&b);
            });
            ctx.get(&c);
            let _ = x.read(ctx);
        });
        assert!(!r.has_races());
    }
}
