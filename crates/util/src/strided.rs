//! Dense per-location state for one shard of a location-routed analysis.
//!
//! The sharded analysis stage routes every access to location `l` to shard
//! `l % N`, so the replica of shard `s` of `N` checks only the locations
//! `s, s + N, s + 2N, …`. [`StridedCells`] stores exactly those, location
//! `l` at index `l / N`: the `N` replicas hold `v` cells between them
//! instead of `N·v`. A serial analysis is shard 0 of 1, whose index is the
//! location itself, with no division on the lookup.
//!
//! The vector also tracks its *extent*, one past the highest location it
//! covers over all shards, so a state codec can keep writing global
//! locations and the global length whatever the shard count.

use crate::ids::LocId;

/// The cells of the locations one shard owns, densely indexed (see the
/// module docs).
#[derive(Clone, Debug)]
pub struct StridedCells<T> {
    cells: Vec<T>,
    /// One past the highest location covered, over all shards.
    extent: usize,
    shard: u32,
    shards: u32,
}

impl<T> Default for StridedCells<T> {
    fn default() -> Self {
        StridedCells {
            cells: Vec::new(),
            extent: 0,
            shard: 0,
            shards: 1,
        }
    }
}

impl<T: Default> StridedCells<T> {
    /// Empty cells of shard 0 of 1: every location is owned.
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes these the cells of shard `shard` of `shards`. Must be called
    /// before any location is covered.
    ///
    /// # Panics
    ///
    /// If `shard >= shards`, if `shards` exceeds `u32::MAX`, or if a
    /// location is already covered.
    pub fn assign_shard(&mut self, shard: usize, shards: usize) {
        assert!(shard < shards, "shard {shard} of {shards} does not exist");
        assert_eq!(
            self.extent, 0,
            "a shard is assigned before any location is covered"
        );
        self.shards = u32::try_from(shards).expect("at most u32::MAX shards");
        self.shard = shard as u32;
    }

    /// True iff `loc` belongs to this shard.
    #[inline]
    pub fn owns(&self, loc: LocId) -> bool {
        loc.0 % self.shards == self.shard
    }

    /// The index of an owned location.
    #[inline]
    fn slot(&self, loc: LocId) -> usize {
        if self.shards == 1 {
            loc.index()
        } else {
            (loc.0 / self.shards) as usize
        }
    }

    /// Covers every location below `extent` (a no-op below the current
    /// extent), adding default cells for the owned ones.
    pub fn grow_to(&mut self, extent: usize) {
        if extent > self.extent {
            self.extent = extent;
            let (shard, shards) = (self.shard as usize, self.shards as usize);
            let owned = (extent + shards - 1 - shard) / shards;
            self.cells.resize_with(owned, T::default);
        }
    }

    /// The cell of owned location `loc`, covering it first if it lies past
    /// the extent (the access hot path).
    #[inline]
    pub fn cell_mut(&mut self, loc: LocId) -> &mut T {
        debug_assert!(self.owns(loc), "{loc} is routed to another shard");
        let i = self.slot(loc);
        if i >= self.cells.len() {
            self.cover(loc);
        }
        &mut self.cells[i]
    }

    #[cold]
    #[inline(never)]
    fn cover(&mut self, loc: LocId) {
        self.grow_to(loc.index() + 1);
    }

    /// The cell of `loc`, or `None` when another shard owns it or it lies
    /// past the extent.
    pub fn cell(&self, loc: LocId) -> Option<&T> {
        if !self.owns(loc) {
            return None;
        }
        self.cells.get(self.slot(loc))
    }

    /// Cells held: the owned locations below the extent.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if no cell is held.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// One past the highest location covered, over all shards: the
    /// length a shard-0-of-1 vector would have.
    pub fn extent(&self) -> usize {
        self.extent
    }

    /// The held cells with their global location indices, ascending.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        let (shard, shards) = (self.shard as usize, self.shards as usize);
        self.cells
            .iter()
            .enumerate()
            .map(move |(i, cell)| (i * shards + shard, cell))
    }

    /// Restores the cells a state blob lists by global location, with the
    /// blob's `extent`. The extent may pass the current one only up to the
    /// highest listed location + 1: an access that grows the cells leaves
    /// its cell dirty, so a real blob lists it. Every listed location must
    /// lie below `extent` and belong to this shard, whose index for a
    /// foreign location is another location's cell. A crafted blob is an
    /// error, never an allocation or an aliased cell, and changes nothing.
    pub fn restore(&mut self, extent: u64, listed: Vec<(u64, T)>) -> Result<(), String> {
        let mut bound = self.extent as u64;
        for &(loc, _) in &listed {
            if loc >= extent || loc > u64::from(u32::MAX) {
                return Err(format!(
                    "cell index {loc} out of range (shadow length {extent})"
                ));
            }
            if !self.owns(LocId(loc as u32)) {
                return Err(format!(
                    "cell index {loc} belongs to shard {} of {}, not to shard {}",
                    loc % u64::from(self.shards),
                    self.shards,
                    self.shard
                ));
            }
            bound = bound.max(loc + 1);
        }
        if extent > bound {
            return Err(format!(
                "shadow length {extent} exceeds {bound}, the larger of the current length \
                 and the highest listed cell + 1"
            ));
        }
        self.grow_to(extent as usize);
        for (loc, cell) in listed {
            *self.cell_mut(LocId(loc as u32)) = cell;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(s: usize, n: usize) -> StridedCells<u32> {
        let mut cells = StridedCells::new();
        cells.assign_shard(s, n);
        cells
    }

    #[test]
    fn shard_zero_of_one_is_the_dense_vector() {
        let mut cells = StridedCells::<u32>::new();
        *cells.cell_mut(LocId(4)) = 9;
        assert_eq!((cells.len(), cells.extent()), (5, 5));
        assert_eq!(cells.cell(LocId(4)), Some(&9));
        assert_eq!(cells.cell(LocId(3)), Some(&0));
        assert_eq!(cells.cell(LocId(5)), None);
        let listed: Vec<(usize, u32)> = cells.iter().map(|(l, &c)| (l, c)).collect();
        assert_eq!(listed, [(0, 0), (1, 0), (2, 0), (3, 0), (4, 9)]);
    }

    #[test]
    fn shards_split_the_cells_of_every_extent() {
        for n in 1..=5usize {
            for extent in 0..40usize {
                let mut held = 0;
                let mut covered = Vec::new();
                for s in 0..n {
                    let mut cells = shard(s, n);
                    cells.grow_to(extent);
                    assert_eq!(cells.extent(), extent);
                    assert!(
                        cells.len() <= extent.div_ceil(n),
                        "{s} of {n}, extent {extent}"
                    );
                    held += cells.len();
                    covered.extend(cells.iter().map(|(l, _)| l));
                }
                assert_eq!(held, extent, "{n} shards, extent {extent}");
                covered.sort_unstable();
                assert_eq!(covered, (0..extent).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn an_owned_access_past_the_extent_grows_it() {
        let mut cells = shard(1, 3);
        cells.grow_to(4); // locations 0..4: shard 1 owns 1
        assert_eq!(cells.len(), 1);
        *cells.cell_mut(LocId(7)) = 5;
        assert_eq!((cells.len(), cells.extent()), (3, 8));
        assert_eq!(cells.cell(LocId(7)), Some(&5));
        assert_eq!(cells.cell(LocId(4)), Some(&0));
        assert_eq!(cells.cell(LocId(6)), None, "shard 0 owns location 6");
        assert!(cells.owns(LocId(10)) && !cells.owns(LocId(9)));
        let listed: Vec<usize> = cells.iter().map(|(l, _)| l).collect();
        assert_eq!(listed, [1, 4, 7]);
        // Growing to a smaller extent changes nothing.
        cells.grow_to(2);
        assert_eq!((cells.len(), cells.extent()), (3, 8));
    }

    #[test]
    fn the_last_location_maps_to_the_last_cell() {
        for n in [2usize, 3, 7] {
            let s = u32::MAX as usize % n;
            let cells = shard(s, n);
            assert_eq!(cells.slot(LocId(u32::MAX)), u32::MAX as usize / n);
        }
    }

    #[test]
    fn restore_checks_every_listed_location_before_changing_anything() {
        let mut cells = shard(1, 2);
        cells.grow_to(4);
        let err = cells.restore(8, vec![(3, 1), (6, 2)]).unwrap_err();
        assert!(
            err.contains("cell index 6 belongs to shard 0 of 2, not to shard 1"),
            "{err}"
        );
        let err = cells.restore(8, vec![(9, 1)]).unwrap_err();
        assert!(err.contains("out of range (shadow length 8)"), "{err}");
        let err = cells.restore(1 << 40, vec![(3, 1)]).unwrap_err();
        assert!(
            err.contains("shadow length 1099511627776 exceeds 4"),
            "{err}"
        );
        assert_eq!(
            (cells.len(), cells.extent()),
            (2, 4),
            "a failed restore changes nothing"
        );
        cells.restore(8, vec![(3, 1), (7, 2)]).unwrap();
        let listed: Vec<(usize, u32)> = cells.iter().map(|(l, &c)| (l, c)).collect();
        assert_eq!(listed, [(1, 0), (3, 1), (5, 0), (7, 2)]);
    }

    #[test]
    #[should_panic(expected = "before any location is covered")]
    fn a_shard_is_assigned_before_any_cell_exists() {
        let mut cells = StridedCells::<u32>::new();
        cells.grow_to(1);
        cells.assign_shard(0, 2);
    }
}
