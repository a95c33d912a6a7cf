//! Smith-Waterman — local sequence alignment with a tiled wavefront of
//! future tasks (based on the COMP322 programming project the paper cites).
//!
//! The H-matrix of the affine-free Smith-Waterman recurrence
//!
//! ```text
//! H[i][j] = max(0,
//!               H[i-1][j-1] + sub(a[i], b[j]),
//!               H[i-1][j]   - gap,
//!               H[i][j-1]   - gap)
//! ```
//!
//! is computed by a `t × t` grid of tiles; the tile task `(ti, tj)`
//! performs `get()` on the tiles to its **left**, **top** and **top-left**
//! before reading their boundary cells. All three are sibling joins, hence
//! non-tree:
//!
//! > #NTJoins = 3(t−1)² + 2(t−1); paper size `t = 40` gives
//! > `3·39² + 78 = 4,641`, matching Table 2 ([`expected_nt_joins`]).
//!
//! This benchmark has the paper's largest #SharedMem and #AvgReaders
//! (boundary rows are read by two later tiles in parallel), which is why
//! it shows the worst slowdown (9.92×).

use futrace_runtime::memory::SharedArray;
use futrace_runtime::TaskCtx;

/// Problem size for the Smith-Waterman benchmark.
#[derive(Clone, Copy, Debug)]
pub struct SwParams {
    /// Sequence length (both sequences), a multiple of `tiles`.
    pub n: usize,
    /// Tiles per side (the paper uses a 40×40 task grid over n = 10,000).
    pub tiles: usize,
    /// Seed for the random ACGT sequences.
    pub seed: u64,
}

impl SwParams {
    /// The paper's configuration.
    pub fn paper() -> Self {
        SwParams {
            n: 10_000,
            tiles: 40,
            seed: 0xac97,
        }
    }

    /// Laptop-scale configuration.
    pub fn scaled() -> Self {
        SwParams {
            n: 800,
            tiles: 20,
            seed: 0xac97,
        }
    }

    /// Minimal configuration for unit tests.
    pub fn tiny() -> Self {
        SwParams {
            n: 24,
            tiles: 4,
            seed: 0xac97,
        }
    }

    /// Cells per tile side.
    pub fn tile_size(&self) -> usize {
        assert_eq!(self.n % self.tiles, 0, "n must be a multiple of tiles");
        self.n / self.tiles
    }
}

/// Scoring scheme (match/mismatch/gap), as in the COMP322 project.
pub const MATCH: i32 = 2;
/// Mismatch penalty.
pub const MISMATCH: i32 = -1;
/// Linear gap penalty.
pub const GAP: i32 = 1;

#[inline]
fn sub(a: u8, b: u8) -> i32 {
    if a == b {
        MATCH
    } else {
        MISMATCH
    }
}

/// Deterministic random ACGT sequences for a parameter set.
pub fn sequences(p: &SwParams) -> (Vec<u8>, Vec<u8>) {
    let mut rng = futrace_util::rng::seeded(p.seed);
    let mk = |rng: &mut futrace_util::rng::Rng, n: usize| {
        (0..n).map(|_| b"ACGT"[rng.gen_range(0usize..4)]).collect()
    };
    let a = mk(&mut rng, p.n);
    let b = mk(&mut rng, p.n);
    (a, b)
}

/// Reference (serial-elision) implementation: returns the full
/// `(n+1)×(n+1)` H matrix (row-major).
pub fn sw_seq(p: &SwParams) -> Vec<i32> {
    let n = p.n;
    let (a, b) = sequences(p);
    let w = n + 1;
    let mut h = vec![0i32; w * w];
    for i in 1..=n {
        for j in 1..=n {
            let diag = h[(i - 1) * w + j - 1] + sub(a[i - 1], b[j - 1]);
            let up = h[(i - 1) * w + j] - GAP;
            let left = h[i * w + j - 1] - GAP;
            h[i * w + j] = diag.max(up).max(left).max(0);
        }
    }
    h
}

/// Maximum alignment score of the reference matrix.
pub fn sw_seq_score(p: &SwParams) -> i32 {
    sw_seq(p).into_iter().max().unwrap_or(0)
}

/// DSL run. Returns the shared H matrix (`(n+1)²`, row-major).
///
/// `plant_race` (tests only) drops the `get()` on the top tile, so reads
/// of the boundary row above race with that tile's writes.
pub fn sw_run<C: TaskCtx>(ctx: &mut C, p: &SwParams, plant_race: bool) -> SharedArray<i32> {
    let n = p.n;
    let t = p.tiles;
    let ts = p.tile_size();
    let w = n + 1;
    let (a, b) = sequences(p);

    let h = ctx.shared_array(w * w, 0i32, "sw.h");
    let seq_a = ctx.shared_array(n, 0u8, "sw.a");
    let seq_b = ctx.shared_array(n, 0u8, "sw.b");
    for i in 0..n {
        seq_a.poke(i, a[i]); // input seeding
        seq_b.poke(i, b[i]);
    }

    let mut handles: Vec<Option<C::Handle<()>>> = vec![None; t * t];
    for ti in 0..t {
        for tj in 0..t {
            let mut deps: Vec<C::Handle<()>> = Vec::with_capacity(3);
            if tj > 0 {
                deps.push(handles[ti * t + tj - 1].clone().unwrap()); // left
            }
            if !plant_race && ti > 0 {
                // The top dependence is NOT implied transitively (the left
                // tile only orders the top-left corner), so dropping it
                // plants a genuine race on the boundary row above.
                deps.push(handles[(ti - 1) * t + tj].clone().unwrap()); // top
            }
            if ti > 0 && tj > 0 {
                deps.push(handles[(ti - 1) * t + tj - 1].clone().unwrap()); // diag
            }
            let (h, seq_a, seq_b) = (h.clone(), seq_a.clone(), seq_b.clone());
            let fut = ctx.future(move |ctx| {
                for d in &deps {
                    ctx.get(d);
                }
                // Matrix rows/cols covered by this tile (1-based).
                let (r0, c0) = (ti * ts + 1, tj * ts + 1);
                for i in r0..r0 + ts {
                    let ai = seq_a.read(ctx, i - 1);
                    for j in c0..c0 + ts {
                        let bj = seq_b.read(ctx, j - 1);
                        let diag = h.read(ctx, (i - 1) * w + j - 1) + sub(ai, bj);
                        let up = h.read(ctx, (i - 1) * w + j) - GAP;
                        let left = h.read(ctx, i * w + j - 1) - GAP;
                        h.write(ctx, i * w + j, diag.max(up).max(left).max(0));
                    }
                }
            });
            handles[ti * t + tj] = Some(fut);
        }
    }
    // The driver joins the bottom-right tile (which transitively dominates
    // the whole wavefront) before scanning for the maximum score.
    let last = handles[t * t - 1].clone().unwrap();
    ctx.get(&last);
    h
}

/// Maximum score from a DSL run's matrix (uninstrumented post-run scan).
pub fn max_score(h: &SharedArray<i32>) -> i32 {
    h.snapshot().into_iter().max().unwrap_or(0)
}

/// Expected dynamic task count: `tiles²` (paper: 1,600 of the 1,608 tasks
/// Table 2 reports; the remainder are driver tasks in the original
/// harness).
pub fn expected_tasks(p: &SwParams) -> u64 {
    (p.tiles * p.tiles) as u64
}

/// Expected non-tree joins: left + top + diagonal gets over the tile grid:
/// `3(t−1)² + 2(t−1)` (paper: 4,641, Table 2).
pub fn expected_nt_joins(p: &SwParams) -> u64 {
    let t = p.tiles as u64;
    3 * (t - 1) * (t - 1) + 2 * (t - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::detect_races_with_stats;
    use futrace_runtime::run_parallel;

    #[test]
    fn paper_size_structural_counts() {
        let p = SwParams::paper();
        assert_eq!(expected_tasks(&p), 1600);
        assert_eq!(expected_nt_joins(&p), 4641, "Table 2 #NTJoins");
    }

    #[test]
    fn identical_sequences_score_perfect() {
        // Hand-check the recurrence on identical sequences: the best local
        // alignment is the full match, scoring n × MATCH.
        let p = SwParams {
            n: 6,
            tiles: 2,
            seed: 1,
        };
        let (a, _) = sequences(&p);
        let w = p.n + 1;
        let mut h = vec![0i32; w * w];
        for i in 1..=p.n {
            for j in 1..=p.n {
                let diag = h[(i - 1) * w + j - 1] + sub(a[i - 1], a[j - 1]);
                let up = h[(i - 1) * w + j] - GAP;
                let left = h[i * w + j - 1] - GAP;
                h[i * w + j] = diag.max(up).max(left).max(0);
            }
        }
        assert_eq!(h[p.n * w + p.n], (p.n as i32) * MATCH);
    }

    #[test]
    fn dsl_matches_reference() {
        let p = SwParams::tiny();
        let expect = sw_seq(&p);
        let (rep, stats) = detect_races_with_stats(|ctx| {
            let h = sw_run(ctx, &p, false);
            assert_eq!(h.snapshot(), expect);
        });
        assert!(!rep.has_races());
        assert_eq!(stats.tasks, expected_tasks(&p));
        assert_eq!(stats.nt_joins(), expected_nt_joins(&p));
    }

    #[test]
    fn boundary_rows_have_multiple_parallel_readers() {
        // The right and bottom neighbours of a tile read its boundary in
        // parallel: #AvgReaders must exceed the async-finish ceiling of 1
        // somewhere (Table 2's explanation for the 9.92× slowdown).
        let p = SwParams::tiny();
        let (_, stats) = detect_races_with_stats(|ctx| {
            let _ = sw_run(ctx, &p, false);
        });
        assert!(
            stats.readers_at_access.max().unwrap() >= 2,
            "some cell must be watched by two parallel future readers"
        );
    }

    #[test]
    fn planted_race_is_detected() {
        let p = SwParams::tiny();
        let (rep, _) = detect_races_with_stats(|ctx| {
            let _ = sw_run(ctx, &p, true);
        });
        assert!(rep.has_races(), "dropping the top get must race");
    }

    #[test]
    fn parallel_execution_matches_reference() {
        let p = SwParams::tiny();
        let expect_score = sw_seq_score(&p);
        let got = run_parallel(4, |ctx| {
            let h = sw_run(ctx, &p, false);
            max_score(&h)
        })
        .unwrap();
        assert_eq!(got, expect_score);
    }
}
