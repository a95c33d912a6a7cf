//! Shadow memory (§4.2 of the paper).
//!
//! For every shared location `M` the detector keeps a shadow cell `M_s`
//! with:
//!
//! * `w` — the task that last wrote `M` (`None` before the first write);
//! * `r` — a set of reader tasks: *all* future tasks that read `M` in
//!   parallel since the last write, plus **at most one** async task
//!   (Lemma 4 shows one async representative suffices).
//!
//! Location ids are dense (the executor allocates them sequentially), so
//! shadow memory is a flat vector rather than a hash map — the lookup is on
//! the per-access hot path. The vector holds only the cells of the
//! locations its detector checks: a shard replica of the sharded stage
//! (shard `s` of `N`, routed the locations `l % N == s`) stores location
//! `l` at index `l / N`, and a serial detector is shard 0 of 1
//! ([`StridedCells`]). So `N` replicas hold Theorem 1's `v` cells between
//! them, not `N·v`. Allocation names are kept whole in every replica, so
//! race reports can name any location.
//!
//! The reader set is an inline-small enum: async-finish programs never
//! store more than one reader (the paper's #AvgReaders is ≤ 1 there), so
//! the common cases avoid heap allocation entirely.

use futrace_util::ids::{LocId, TaskId};
use futrace_util::strided::StridedCells;

/// Compact reader set: zero or one readers inline, spilling to a boxed
/// vector only when multiple parallel future readers accumulate.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub(crate) enum Readers {
    /// No readers since the last write.
    #[default]
    Empty,
    /// Exactly one reader.
    One(TaskId),
    /// Two or more readers (all parallel; at most one async among them).
    /// Boxed so the set stays 16 bytes and a `ShadowCell` 32.
    #[allow(clippy::box_collection)]
    Many(Box<Vec<TaskId>>),
}

impl Readers {
    /// Number of stored readers.
    pub(crate) fn len(&self) -> usize {
        match self {
            Readers::Empty => 0,
            Readers::One(_) => 1,
            Readers::Many(v) => v.len(),
        }
    }

    /// True if no reader is stored.
    pub(crate) fn is_empty(&self) -> bool {
        matches!(self, Readers::Empty)
    }

    /// Iterates over the stored readers.
    pub(crate) fn iter(&self) -> ReadersIter<'_> {
        match self {
            Readers::Empty => ReadersIter::Slice([].iter()),
            Readers::One(t) => ReadersIter::Once(Some(*t)),
            Readers::Many(v) => ReadersIter::Slice(v.iter()),
        }
    }

    /// Adds a reader (does not deduplicate; callers remove superseded
    /// readers first, as Algorithms 8–9 do).
    pub(crate) fn push(&mut self, t: TaskId) {
        match self {
            Readers::Empty => *self = Readers::One(t),
            Readers::One(prev) => *self = Readers::Many(Box::new(vec![*prev, t])),
            Readers::Many(v) => v.push(t),
        }
    }

    /// Keeps only readers for which `keep` returns true.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(TaskId) -> bool) {
        match self {
            Readers::Empty => {}
            Readers::One(t) => {
                if !keep(*t) {
                    *self = Readers::Empty;
                }
            }
            Readers::Many(v) => {
                v.retain(|&t| keep(t));
                match v.len() {
                    0 => *self = Readers::Empty,
                    1 => *self = Readers::One(v[0]),
                    _ => {}
                }
            }
        }
    }
}

/// Iterator over a [`Readers`] set.
pub(crate) enum ReadersIter<'a> {
    /// One inline element.
    Once(Option<TaskId>),
    /// Spilled storage.
    Slice(std::slice::Iter<'a, TaskId>),
}

impl Iterator for ReadersIter<'_> {
    type Item = TaskId;
    fn next(&mut self) -> Option<TaskId> {
        match self {
            ReadersIter::Once(t) => t.take(),
            ReadersIter::Slice(it) => it.next().copied(),
        }
    }
}

/// The detector's most recent *clean* verdict on a cell: which task
/// accessed it, with which kind, under which DTRG mutation epoch. While
/// the epoch is unchanged, an identical access is a provable no-op
/// (DESIGN S39), so the detector can skip the reader/writer `Precede`
/// checks entirely. Racy checks are never cached — repeating them must
/// re-count the race, exactly as the uncached detector does.
///
/// This is the unpacked view of the verdict a [`ShadowCell`] stores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct LastClean {
    /// The task whose check came back clean.
    pub task: TaskId,
    /// True for a write check, false for a read check.
    pub write: bool,
    /// `Dtrg::epoch()` at the moment of the check.
    pub epoch: u64,
}

/// Consecutive clean-verdict probe misses after which a cell's probe is
/// disabled (see [`ShadowCell::probe_misses`]). Small: a cell that misses
/// this many times in a row (actor-style migrating mailboxes, where the
/// epoch advances or the accessor changes between touches) will keep
/// missing, and each miss costs an extra lookup-and-compare on the hot
/// path.
pub(crate) const PROBE_MISS_LIMIT: u8 = 8;

/// Largest epoch a cached clean verdict can carry: the epoch shares its
/// word with the verdict's kind, its validity and the probe streak. A
/// verdict reached past it is simply not cached, which only costs the
/// next identical access its fast path (DESIGN S39).
pub(crate) const MAX_CACHED_EPOCH: u64 = u64::MAX >> EPOCH_SHIFT;

/// The writer and last-clean task fields' "none" value. Task ids are
/// dense from 0, so no run reaches it.
const NO_TASK: u32 = u32::MAX;

/// `ShadowCell::meta` layout: bits 0–3 the probe miss streak, bit 4 set
/// while a clean verdict is cached, bit 5 that verdict's kind (write),
/// bits 6–63 its epoch.
const STREAK_MASK: u64 = 0xF;
const CLEAN: u64 = 1 << 4;
const CLEAN_WRITE: u64 = 1 << 5;
const EPOCH_SHIFT: u32 = 6;
/// A probe key no cell ever holds (the kind bit without the validity
/// bit): what a probe past [`MAX_CACHED_EPOCH`] compares against.
const NEVER_CACHED: u64 = CLEAN_WRITE;

/// One shadow cell `M_s` (§4.2), in 32 bytes: the reader set, the writer
/// and the last clean verdict's task as sentinel `u32`s, and one word
/// packing that verdict's validity, kind and epoch with the probe miss
/// streak. One access reads and writes all of it through a single
/// lookup.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct ShadowCell {
    /// The stored readers (`M_s.r`).
    pub readers: Readers,
    /// The last writer (`M_s.w`), [`NO_TASK`] before the first write.
    writer: u32,
    /// The task of the cached clean verdict; [`NO_TASK`] when none is.
    clean_task: u32,
    /// The cached verdict's validity, kind and epoch, and the probe
    /// miss streak (layout at [`STREAK_MASK`]).
    meta: u64,
}

impl Default for ShadowCell {
    fn default() -> Self {
        ShadowCell {
            readers: Readers::Empty,
            writer: NO_TASK,
            clean_task: NO_TASK,
            meta: 0,
        }
    }
}

/// The `meta` bits (streak excluded) of a clean verdict with this kind
/// and epoch, or [`NEVER_CACHED`] past [`MAX_CACHED_EPOCH`].
#[inline]
fn clean_key(write: bool, epoch: u64) -> u64 {
    if epoch > MAX_CACHED_EPOCH {
        return NEVER_CACHED;
    }
    let kind = if write { CLEAN_WRITE } else { 0 };
    (epoch << EPOCH_SHIFT) | kind | CLEAN
}

impl ShadowCell {
    /// A cell with these contents. A verdict past [`MAX_CACHED_EPOCH`] is
    /// not cached, and the streak saturates at [`PROBE_MISS_LIMIT`].
    pub(crate) fn new(
        writer: Option<TaskId>,
        readers: Readers,
        last_clean: Option<LastClean>,
        probe_misses: u8,
    ) -> Self {
        let mut cell = ShadowCell {
            readers,
            ..ShadowCell::default()
        };
        cell.set_writer(writer);
        cell.set_last_clean(last_clean);
        cell.meta |= u64::from(probe_misses.min(PROBE_MISS_LIMIT));
        cell
    }

    /// The last writer (`M_s.w`), `None` before the first write.
    #[inline]
    pub(crate) fn writer(&self) -> Option<TaskId> {
        (self.writer != NO_TASK).then_some(TaskId(self.writer))
    }

    /// Replaces the last writer.
    #[inline]
    pub(crate) fn set_writer(&mut self, writer: Option<TaskId>) {
        self.writer = writer.map_or(NO_TASK, |t| t.0);
    }

    /// The cached clean verdict, if any.
    pub(crate) fn last_clean(&self) -> Option<LastClean> {
        (self.meta & CLEAN != 0).then_some(LastClean {
            task: TaskId(self.clean_task),
            write: self.meta & CLEAN_WRITE != 0,
            epoch: self.meta >> EPOCH_SHIFT,
        })
    }

    /// Caches a clean verdict, or drops the cached one (`None`). A
    /// verdict past [`MAX_CACHED_EPOCH`] is dropped too. The probe miss
    /// streak is kept.
    #[inline]
    pub(crate) fn set_last_clean(&mut self, verdict: Option<LastClean>) {
        let streak = self.meta & STREAK_MASK;
        match verdict {
            Some(lc) if lc.epoch <= MAX_CACHED_EPOCH => {
                self.clean_task = lc.task.0;
                self.meta = clean_key(lc.write, lc.epoch) | streak;
            }
            _ => {
                self.clean_task = NO_TASK;
                self.meta = streak;
            }
        }
    }

    /// Consecutive clean-verdict probe misses (saturating at
    /// [`PROBE_MISS_LIMIT`]). A hit resets it to zero; at the limit the
    /// detector stops probing this cell — adaptive bypass for access
    /// patterns the cache can never serve, whose probes are pure overhead.
    #[inline]
    pub(crate) fn probe_misses(&self) -> u8 {
        (self.meta & STREAK_MASK) as u8
    }

    /// True while the clean-verdict probe is still worth attempting.
    #[inline]
    pub(crate) fn probe_enabled(&self) -> bool {
        self.probe_misses() < PROBE_MISS_LIMIT
    }

    /// The adaptive clean-verdict probe: true iff the probe is enabled
    /// and the cached verdict is exactly (`task`, `write`, `epoch`). A hit
    /// resets the miss streak; a miss extends it.
    #[inline]
    pub(crate) fn probe(&mut self, task: TaskId, write: bool, epoch: u64) -> bool {
        if !self.probe_enabled() {
            return false;
        }
        if self.clean_task == task.0 && self.meta & !STREAK_MASK == clean_key(write, epoch) {
            self.meta &= !STREAK_MASK;
            return true;
        }
        // Below the limit, so the streak never carries into `CLEAN`.
        self.meta += 1;
        false
    }

    /// True unless the cell is in its default (never-checked) state.
    #[inline]
    pub(crate) fn is_dirty(&self) -> bool {
        self.writer != NO_TASK || !self.readers.is_empty() || self.meta != 0
    }
}

/// Shadow memory: the cells of the locations this detector checks, strided
/// by its shard (see the module docs), and every allocation's name.
#[derive(Clone, Debug, Default)]
pub(crate) struct ShadowMemory {
    cells: StridedCells<ShadowCell>,
    names: Vec<(LocId, u32, String)>,
}

impl ShadowMemory {
    /// Empty shadow memory of shard 0 of 1 (a serial detector's).
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Makes this the shadow memory of shard `shard` of `shards`, which
    /// holds only the cells of the locations `l % shards == shard`. Must
    /// be called before any allocation or access.
    pub(crate) fn assign_shard(&mut self, shard: usize, shards: usize) {
        self.cells.assign_shard(shard, shards);
    }

    /// Registers an allocation of `n` locations starting at `base` (from
    /// the executor's `alloc` event) so the shard's cells among them exist
    /// and race reports can name every location.
    pub(crate) fn register(&mut self, base: LocId, n: u32, name: &str) {
        self.cells.grow_to(base.index() + n as usize);
        self.names.push((base, n, name.to_string()));
    }

    /// Mutable access to the cell for `loc`, which this shard must own,
    /// growing the vector if an access arrives for an unregistered
    /// location.
    #[inline]
    pub(crate) fn cell_mut(&mut self, loc: LocId) -> &mut ShadowCell {
        self.cells.cell_mut(loc)
    }

    /// Read-only access (None if another shard owns `loc`, or it was never
    /// touched or registered).
    pub(crate) fn cell(&self, loc: LocId) -> Option<&ShadowCell> {
        self.cells.cell(loc)
    }

    /// Number of shadow cells this shard holds (Theorem 1's `v`, for a
    /// serial detector).
    pub(crate) fn len(&self) -> usize {
        self.cells.len()
    }

    /// One past the highest location covered, over all shards: the number
    /// of cells a serial detector holds after the same control events and
    /// accesses to this shard's locations.
    pub(crate) fn extent(&self) -> usize {
        self.cells.extent()
    }

    /// Total readers stored across all cells right now — the `O(v·(f+1))`
    /// term of Theorem 1's space bound.
    pub(crate) fn stored_readers(&self) -> usize {
        self.cells.iter().map(|(_, c)| c.readers.len()).sum()
    }

    /// Iterates over the non-default cells with their global location
    /// indices, ascending, for checkpoint serialization. Default
    /// (never-touched) cells are omitted and recreated implicitly on
    /// restore via [`ShadowMemory::restore`].
    pub(crate) fn dirty_cells(&self) -> impl Iterator<Item = (usize, &ShadowCell)> {
        self.cells.iter().filter(|(_, c)| c.is_dirty())
    }

    /// Restores the cells a state blob lists by global location, and its
    /// extent, which reproduces growth caused by accesses to unregistered
    /// locations, so a resumed run reports the same shadow-cell footprint
    /// a fresh run would. A listed location this shard does not own, or
    /// an extent no listed cell accounts for, is an error (see
    /// [`StridedCells::restore`]).
    pub(crate) fn restore(
        &mut self,
        extent: u64,
        listed: Vec<(u64, ShadowCell)>,
    ) -> Result<(), String> {
        self.cells.restore(extent, listed)
    }

    /// Human-readable name for a location: `"name[offset]"` if it falls in
    /// a registered allocation, else `"L<id>"`.
    pub(crate) fn describe(&self, loc: LocId) -> String {
        for (base, n, name) in &self.names {
            if loc.0 >= base.0 && loc.0 < base.0 + n {
                return if *n == 1 {
                    name.clone()
                } else {
                    format!("{name}[{}]", loc.0 - base.0)
                };
            }
        }
        format!("{loc}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Readers {
        /// Drops all readers.
        pub(crate) fn clear(&mut self) {
            *self = Readers::Empty;
        }
    }

    impl ShadowMemory {
        /// Covers every location below `extent`, as allocations do.
        pub(crate) fn grow_to(&mut self, extent: usize) {
            self.cells.grow_to(extent);
        }
    }

    #[test]
    fn readers_grow_and_shrink() {
        let mut r = Readers::default();
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        r.push(TaskId(1));
        assert_eq!(r.len(), 1);
        r.push(TaskId(2));
        r.push(TaskId(3));
        assert_eq!(r.len(), 3);
        let all: Vec<TaskId> = r.iter().collect();
        assert_eq!(all, vec![TaskId(1), TaskId(2), TaskId(3)]);
        r.retain(|t| t != TaskId(2));
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![TaskId(1), TaskId(3)]);
        r.retain(|t| t == TaskId(3));
        assert_eq!(r, Readers::One(TaskId(3)));
    }

    #[test]
    fn retain_on_one() {
        let mut r = Readers::One(TaskId(9));
        r.retain(|_| true);
        assert_eq!(r, Readers::One(TaskId(9)));
        r.retain(|_| false);
        assert!(r.is_empty());
    }

    #[test]
    fn register_and_describe() {
        let mut m = ShadowMemory::new();
        m.register(LocId(0), 4, "grid");
        m.register(LocId(4), 1, "sum");
        assert_eq!(m.len(), 5);
        assert_eq!(m.describe(LocId(2)), "grid[2]");
        assert_eq!(m.describe(LocId(4)), "sum");
        assert_eq!(m.describe(LocId(99)), "L99");
    }

    #[test]
    fn a_shard_holds_its_own_cells_and_every_name() {
        let mut m = ShadowMemory::new();
        m.assign_shard(1, 2);
        m.register(LocId(0), 4, "grid");
        m.register(LocId(4), 1, "sum");
        assert_eq!((m.len(), m.extent()), (2, 5), "grid[1] and grid[3]");
        m.cell_mut(LocId(3)).set_writer(Some(TaskId(2)));
        assert!(m.cell(LocId(2)).is_none(), "shard 0 holds grid[2]");
        let dirty: Vec<usize> = m.dirty_cells().map(|(l, _)| l).collect();
        assert_eq!(dirty, [3]);
        assert_eq!(m.describe(LocId(4)), "sum");
        m.cell_mut(LocId(9)).set_writer(Some(TaskId(1)));
        assert_eq!((m.len(), m.extent()), (5, 10));
    }

    #[test]
    fn cell_mut_grows_on_demand() {
        let mut m = ShadowMemory::new();
        m.cell_mut(LocId(10)).set_writer(Some(TaskId(3)));
        assert_eq!(m.len(), 11);
        assert_eq!(m.cell(LocId(10)).unwrap().writer(), Some(TaskId(3)));
        assert_eq!(m.cell(LocId(3)).unwrap().writer(), None);
        assert!(m.cell(LocId(11)).is_none());
    }

    #[test]
    fn a_cell_is_32_bytes() {
        assert_eq!(std::mem::size_of::<ShadowCell>(), 32);
    }

    #[test]
    fn packed_fields_read_back() {
        let lc = LastClean {
            task: TaskId(7),
            write: true,
            epoch: MAX_CACHED_EPOCH,
        };
        let cell = ShadowCell::new(Some(TaskId(0)), Readers::One(TaskId(2)), Some(lc), 3);
        assert_eq!(cell.writer(), Some(TaskId(0)));
        assert_eq!(cell.last_clean(), Some(lc));
        assert_eq!(cell.probe_misses(), 3);
        assert!(cell.is_dirty());
        assert!(!ShadowCell::default().is_dirty());
        assert_eq!(ShadowCell::default().writer(), None);
        assert_eq!(ShadowCell::default().last_clean(), None);
        let saturated = ShadowCell::new(None, Readers::Empty, None, u8::MAX);
        assert_eq!(saturated.probe_misses(), PROBE_MISS_LIMIT);
    }

    #[test]
    fn an_epoch_past_the_bound_is_never_cached() {
        for epoch in [MAX_CACHED_EPOCH + 1, MAX_CACHED_EPOCH + 6, u64::MAX] {
            for write in [false, true] {
                let mut cell = ShadowCell::default();
                cell.set_last_clean(Some(LastClean {
                    task: TaskId(1),
                    write,
                    epoch,
                }));
                assert_eq!(cell.last_clean(), None, "epoch {epoch} cached");
                assert!(!cell.is_dirty());
                // Neither the epoch itself nor what its bits would wrap to
                // once shifted into the packed word may match.
                let wrapped = (epoch << EPOCH_SHIFT) >> EPOCH_SHIFT;
                for probe in [epoch, wrapped, 0, 5] {
                    assert!(
                        !cell.probe(TaskId(1), write, probe),
                        "epoch {epoch}, probe {probe}"
                    );
                }
            }
        }
        // A cached verdict never matches a probe past the bound that
        // shares its low bits.
        let mut cell = ShadowCell::default();
        cell.set_last_clean(Some(LastClean {
            task: TaskId(1),
            write: true,
            epoch: 5,
        }));
        assert!(!cell.probe(TaskId(1), true, (1 << (64 - EPOCH_SHIFT)) + 5));
        assert!(cell.probe(TaskId(1), true, 5));
    }

    #[test]
    fn probe_hits_reset_and_misses_disable() {
        let mut cell = ShadowCell::default();
        let lc = LastClean {
            task: TaskId(4),
            write: false,
            epoch: 9,
        };
        cell.set_last_clean(Some(lc));
        assert!(!cell.probe(TaskId(4), true, 9), "kind differs");
        assert!(!cell.probe(TaskId(5), false, 9), "task differs");
        assert!(!cell.probe(TaskId(4), false, 10), "epoch differs");
        assert_eq!(cell.probe_misses(), 3);
        assert!(cell.probe(TaskId(4), false, 9));
        assert_eq!(cell.probe_misses(), 0);
        for _ in 0..PROBE_MISS_LIMIT {
            assert!(!cell.probe(TaskId(4), false, 10));
        }
        assert!(!cell.probe_enabled());
        assert!(
            !cell.probe(TaskId(4), false, 9),
            "a disabled probe never hits"
        );
        assert_eq!(cell.probe_misses(), PROBE_MISS_LIMIT);
        assert_eq!(cell.last_clean(), Some(lc), "misses keep the verdict");
        cell.set_last_clean(None);
        assert_eq!(
            cell.probe_misses(),
            PROBE_MISS_LIMIT,
            "clearing keeps the streak"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use futrace_util::propcheck::{self, strategies, Config, Strategy};

    /// Operations on a reader set, mirrored against a plain Vec model.
    #[derive(Clone, Debug)]
    enum Op {
        Push(u32),
        RetainEven,
        RetainOdd,
        Clear,
    }

    /// Ops are generated (and shrunk) as `(discriminant, payload)` pairs;
    /// shrinking drives both toward Push(0), the simplest operation.
    fn ops_strategy() -> impl Strategy<Repr = Vec<(u8, u32)>, Value = Vec<Op>> {
        strategies::map(
            strategies::vec_of(
                strategies::tuple2(strategies::u8_range(0..4), strategies::u32_range(0..64)),
                0,
                60,
            ),
            |pairs| {
                pairs
                    .into_iter()
                    .map(|(k, t)| match k {
                        0 => Op::Push(t),
                        1 => Op::RetainEven,
                        2 => Op::RetainOdd,
                        _ => Op::Clear,
                    })
                    .collect()
            },
        )
    }

    /// The inline-small Readers container behaves exactly like a Vec model
    /// under pushes, retains, and clears (order preserved).
    #[test]
    fn readers_matches_vec_model() {
        propcheck::check(&Config::default(), &ops_strategy(), |ops| {
            let mut readers = Readers::default();
            let mut model: Vec<TaskId> = Vec::new();
            for op in ops {
                match op {
                    Op::Push(t) => {
                        readers.push(TaskId(t));
                        model.push(TaskId(t));
                    }
                    Op::RetainEven => {
                        readers.retain(|t| t.0 % 2 == 0);
                        model.retain(|t| t.0 % 2 == 0);
                    }
                    Op::RetainOdd => {
                        readers.retain(|t| t.0 % 2 == 1);
                        model.retain(|t| t.0 % 2 == 1);
                    }
                    Op::Clear => {
                        readers.clear();
                        model.clear();
                    }
                }
                assert_eq!(readers.len(), model.len());
                assert_eq!(readers.is_empty(), model.is_empty());
                assert_eq!(readers.iter().collect::<Vec<_>>(), model.clone());
            }
        });
    }
}
