//! Future-linked list — a chain of futures each joining its predecessor,
//! plus detached readers joining interior nodes.
//!
//! Node `i` is a future that `get()`s node `i−1`, reads its cell, and
//! writes its own: a linked list whose links are future handles (the
//! ADT-style future pattern of the pipelining literature). Every link is
//! a sibling `get()` — a **non-tree join** — and the chain has length
//! `n`, so the detector's `Precede` traversal and the `lsa` maintenance
//! see the deepest non-tree structure in the suite. A handful of async
//! *reader* tasks join interior nodes directly, which keeps multiple
//! entries alive in the per-location reader lists (the paper's
//! `#AvgReaders` pressure).
//!
//! `plant_race` drops every link `get()` while keeping the predecessor
//! reads: adjacent nodes then race on each cell.

use futrace_runtime::memory::SharedArray;
use futrace_runtime::TaskCtx;

/// Problem size for the future-linked-list benchmark.
#[derive(Clone, Copy, Debug)]
pub struct FutListParams {
    /// Chain length (≥ 2).
    pub n: usize,
    /// Number of detached reader tasks joining interior nodes.
    pub readers: usize,
    /// Per-node compute rounds (work knob).
    pub rounds: u32,
    /// Input seed.
    pub seed: u64,
}

impl FutListParams {
    /// Laptop-scale configuration.
    pub fn scaled() -> Self {
        FutListParams {
            n: 16_384,
            readers: 8,
            rounds: 8,
            seed: 0x1157,
        }
    }

    /// Minimal configuration for unit tests.
    pub fn tiny() -> Self {
        FutListParams {
            n: 6,
            readers: 2,
            rounds: 4,
            seed: 0x1157,
        }
    }

    fn validate(&self) {
        assert!(self.n >= 2, "a list needs at least one link");
    }
}

/// The per-node kernel: a few rounds of integer mixing.
fn work(mut x: u64, rounds: u32) -> u64 {
    for _ in 0..rounds {
        x = x
            .wrapping_mul(0xD6E8_FEB8_6659_FD93)
            .rotate_left(31)
            .wrapping_add(0x1657_667B);
    }
    x
}

/// Index of reader `k`'s target node (spread over the interior).
fn reader_target(p: &FutListParams, k: usize) -> usize {
    ((k + 1) * p.n / (p.readers + 1)).min(p.n - 1)
}

/// DSL run; returns the node cell array.
pub fn futlist_run<C: TaskCtx>(
    ctx: &mut C,
    p: &FutListParams,
    plant_race: bool,
) -> SharedArray<u64> {
    p.validate();
    let cells = ctx.shared_array(p.n, 0u64, "flist.cells");
    let rounds = p.rounds;
    let seed = p.seed;

    let mut handles: Vec<C::Handle<()>> = Vec::with_capacity(p.n);
    for i in 0..p.n {
        let cells = cells.clone();
        let prev = (i > 0 && !plant_race).then(|| handles[i - 1].clone());
        let h = ctx.future(move |ctx| {
            if let Some(h) = &prev {
                ctx.get(h); // the list link: a sibling (non-tree) join
            }
            let v = if i == 0 {
                work(seed, rounds)
            } else {
                let in_v = cells.read(ctx, i - 1);
                work(in_v ^ i as u64, rounds)
            };
            cells.write(ctx, i, v);
        });
        handles.push(h);
    }

    // Detached readers: async tasks joining interior nodes by handle.
    for k in 0..p.readers {
        let t = reader_target(p, k);
        let h = handles[t].clone();
        let cells = cells.clone();
        ctx.async_task(move |ctx| {
            ctx.get(&h); // async-on-future join: also non-tree
            let _ = cells.read(ctx, t);
        });
    }

    ctx.get(&handles[p.n - 1]); // tree join: main awaits its own child
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::detect_races_with_stats;
    use futrace_runtime::run_parallel;

    /// Reference (serial-elision) implementation: all node values.
    fn futlist_seq(p: &FutListParams) -> Vec<u64> {
        p.validate();
        let mut cells = vec![0u64; p.n];
        cells[0] = work(p.seed, p.rounds);
        for i in 1..p.n {
            cells[i] = work(cells[i - 1] ^ i as u64, p.rounds);
        }
        cells
    }

    /// Expected dynamic task count: `n` nodes plus the readers.
    fn expected_tasks(p: &FutListParams) -> u64 {
        (p.n + p.readers) as u64
    }

    /// Expected non-tree joins: one link per node after the head plus one
    /// join per detached reader.
    fn expected_nt_joins(p: &FutListParams) -> u64 {
        (p.n - 1 + p.readers) as u64
    }

    #[test]
    fn dsl_matches_reference_and_is_race_free() {
        let p = FutListParams::tiny();
        let want = futlist_seq(&p);
        let (rep, stats) = detect_races_with_stats(|ctx| {
            let out = futlist_run(ctx, &p, false);
            assert_eq!(out.snapshot(), want);
        });
        assert!(!rep.has_races());
        assert_eq!(stats.tasks, expected_tasks(&p));
        assert_eq!(stats.nt_joins(), expected_nt_joins(&p));
    }

    #[test]
    fn planted_race_is_detected() {
        let p = FutListParams::tiny();
        let (rep, _) = detect_races_with_stats(|ctx| {
            let _ = futlist_run(ctx, &p, true);
        });
        assert!(rep.has_races(), "unlinked nodes must race on the cells");
    }

    #[test]
    fn parallel_execution_matches_reference() {
        let p = FutListParams::tiny();
        let want = futlist_seq(&p);
        let got = run_parallel(4, |ctx| futlist_run(ctx, &p, false).snapshot()).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn zero_readers_edge_case() {
        let p = FutListParams {
            n: 3,
            readers: 0,
            rounds: 2,
            seed: 9,
        };
        let (rep, stats) = detect_races_with_stats(|ctx| {
            let _ = futlist_run(ctx, &p, false);
        });
        assert!(!rep.has_races());
        assert_eq!(stats.nt_joins(), 2);
    }
}
