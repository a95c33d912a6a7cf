//! Future-linked binary tree — a bottom-up combine tree whose internal
//! edges are future handles.
//!
//! `leaves` leaf futures each write one cell; internal node futures
//! `get()` both children, read their cells, and write the combined value
//! to their own cell (heap layout, root at index 0). Every internal edge
//! is a sibling `get()` — a **non-tree join** — because all `2·leaves−1`
//! futures are spawned by main, so the reduction tree exists only in the
//! future-edge structure, never in the spawn tree. This is the shape
//! where SP-based detectors must serialize or mis-order the two child
//! subtrees, while DTRG's `nt`/`lsa` machinery keeps them concurrent.
//!
//! `plant_race` drops the *left* child `get()` at every internal node
//! while keeping the left-cell read: parent and left child then race.

use futrace_runtime::memory::SharedArray;
use futrace_runtime::TaskCtx;

/// Problem size for the future-tree benchmark.
#[derive(Clone, Copy, Debug)]
pub struct FutTreeParams {
    /// Number of leaves (a power of two, ≥ 2).
    pub leaves: usize,
    /// Per-node compute rounds (work knob).
    pub rounds: u32,
    /// Input seed.
    pub seed: u64,
}

impl FutTreeParams {
    /// Laptop-scale configuration.
    pub fn scaled() -> Self {
        FutTreeParams {
            leaves: 8192,
            rounds: 8,
            seed: 0x7EEE,
        }
    }

    /// Minimal configuration for unit tests.
    pub fn tiny() -> Self {
        FutTreeParams {
            leaves: 8,
            rounds: 4,
            seed: 0x7EEE,
        }
    }

    fn validate(&self) {
        assert!(
            self.leaves >= 2 && self.leaves.is_power_of_two(),
            "leaves must be a power of two ≥ 2"
        );
    }
}

/// Leaf payload for leaf index `k`.
fn leaf_value(seed: u64, k: usize) -> u64 {
    (k as u64 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
}

/// The combine kernel: mix the two child values for a few rounds.
fn combine(a: u64, b: u64, rounds: u32) -> u64 {
    let mut x = a ^ b.rotate_left(17);
    for _ in 0..rounds {
        x = x
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .rotate_left(29)
            .wrapping_add(a ^ b);
    }
    x
}

/// DSL run; returns the heap cell array.
pub fn futtree_run<C: TaskCtx>(
    ctx: &mut C,
    p: &FutTreeParams,
    plant_race: bool,
) -> SharedArray<u64> {
    p.validate();
    let n = 2 * p.leaves - 1;
    let first_leaf = p.leaves - 1;
    let cells = ctx.shared_array(n, 0u64, "ftree.cells");
    let rounds = p.rounds;
    let seed = p.seed;

    // handles[j] = future computing heap cell j; built bottom-up so child
    // handles exist before the parent spawns.
    let mut handles: Vec<Option<C::Handle<()>>> = vec![None; n];
    for k in 0..p.leaves {
        let j = first_leaf + k;
        let cells = cells.clone();
        handles[j] = Some(ctx.future(move |ctx| {
            cells.write(ctx, j, leaf_value(seed, k));
        }));
    }
    for j in (0..first_leaf).rev() {
        let (lc, rc) = (2 * j + 1, 2 * j + 2);
        let left = (!plant_race).then(|| handles[lc].clone().expect("bottom-up order"));
        let right = handles[rc].clone().expect("bottom-up order");
        let cells = cells.clone();
        handles[j] = Some(ctx.future(move |ctx| {
            if let Some(h) = &left {
                ctx.get(h); // non-tree join: sibling future edge
            }
            ctx.get(&right); // non-tree join: sibling future edge
            let a = cells.read(ctx, lc);
            let b = cells.read(ctx, rc);
            cells.write(ctx, j, combine(a, b, rounds));
        }));
    }

    ctx.get(handles[0].as_ref().expect("root exists")); // tree join
    let _ = cells.read(ctx, 0);
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::detect_races_with_stats;
    use futrace_runtime::run_parallel;

    /// Reference (serial-elision) implementation: every heap cell
    /// (`2·leaves−1` entries, root at index 0, leaves at the tail).
    fn futtree_seq(p: &FutTreeParams) -> Vec<u64> {
        p.validate();
        let n = 2 * p.leaves - 1;
        let first_leaf = p.leaves - 1;
        let mut cells = vec![0u64; n];
        for k in 0..p.leaves {
            cells[first_leaf + k] = leaf_value(p.seed, k);
        }
        for j in (0..first_leaf).rev() {
            cells[j] = combine(cells[2 * j + 1], cells[2 * j + 2], p.rounds);
        }
        cells
    }

    /// Expected dynamic task count: one future per heap cell.
    fn expected_tasks(p: &FutTreeParams) -> u64 {
        (2 * p.leaves - 1) as u64
    }

    /// Expected non-tree joins: two child edges per internal node.
    fn expected_nt_joins(p: &FutTreeParams) -> u64 {
        2 * (p.leaves as u64 - 1)
    }

    #[test]
    fn dsl_matches_reference_and_is_race_free() {
        let p = FutTreeParams::tiny();
        let want = futtree_seq(&p);
        let (rep, stats) = detect_races_with_stats(|ctx| {
            let out = futtree_run(ctx, &p, false);
            assert_eq!(out.snapshot(), want);
        });
        assert!(!rep.has_races());
        assert_eq!(stats.tasks, expected_tasks(&p));
        assert_eq!(stats.nt_joins(), expected_nt_joins(&p));
    }

    #[test]
    fn planted_race_is_detected() {
        let p = FutTreeParams::tiny();
        let (rep, _) = detect_races_with_stats(|ctx| {
            let _ = futtree_run(ctx, &p, true);
        });
        assert!(
            rep.has_races(),
            "dropping the left-child edge must race parent against child"
        );
    }

    #[test]
    fn parallel_execution_matches_reference() {
        let p = FutTreeParams::tiny();
        let want = futtree_seq(&p);
        let got = run_parallel(4, |ctx| futtree_run(ctx, &p, false).snapshot()).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn two_leaf_edge_case() {
        let p = FutTreeParams {
            leaves: 2,
            rounds: 2,
            seed: 5,
        };
        let want = futtree_seq(&p);
        let (rep, stats) = detect_races_with_stats(|ctx| {
            let out = futtree_run(ctx, &p, false);
            assert_eq!(out.snapshot(), want);
        });
        assert!(!rep.has_races());
        assert_eq!(stats.nt_joins(), 2);
    }
}
