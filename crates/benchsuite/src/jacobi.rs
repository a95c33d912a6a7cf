//! Jacobi — 2D 5-point stencil with future-based tile dependences
//! (translated from the Kastors OpenMP-4.0 `depends` version, as in the
//! paper).
//!
//! The grid is split into square tiles. Every sweep creates one future
//! task per tile; a tile task of sweep `s` performs `get()` on the
//! previous sweep's futures of itself and its 4 neighbours before reading
//! the halo — point-to-point synchronization that async-finish cannot
//! express without losing parallelism. All those gets are sibling joins,
//! i.e. **non-tree joins**:
//!
//! > #NTJoins = (sweeps − 1) × (5·t² − boundary) where `t` = tiles/side;
//!
//! for the paper's 2048²/64² grid and 8 sweeps that is
//! `7 × 4992 = 34,944`, matching Table 2 exactly
//! ([`expected_nt_joins`]).

use futrace_runtime::memory::SharedArray;
use futrace_runtime::TaskCtx;

/// Problem size for the Jacobi benchmark.
#[derive(Clone, Copy, Debug)]
pub struct JacobiParams {
    /// Grid side length (points), a multiple of `tile`.
    pub n: usize,
    /// Tile side length.
    pub tile: usize,
    /// Number of sweeps.
    pub sweeps: usize,
    /// Seed for the initial grid contents.
    pub seed: u64,
}

impl JacobiParams {
    /// The paper's configuration: 2048×2048, 64×64 tiles, 8 sweeps
    /// (8 × 32² = 8192 tasks).
    pub fn paper() -> Self {
        JacobiParams {
            n: 2048,
            tile: 64,
            sweeps: 8,
            seed: 0xacab,
        }
    }

    /// Laptop-scale configuration with the same tile topology flavour.
    pub fn scaled() -> Self {
        JacobiParams {
            n: 256,
            tile: 32,
            sweeps: 4,
            seed: 0xacab,
        }
    }

    /// Minimal configuration for unit tests.
    pub fn tiny() -> Self {
        JacobiParams {
            n: 12,
            tile: 4,
            sweeps: 3,
            seed: 0xacab,
        }
    }

    /// Tiles per side.
    pub(crate) fn tiles(&self) -> usize {
        assert_eq!(self.n % self.tile, 0, "n must be a multiple of tile");
        self.n / self.tile
    }
}

/// Deterministic initial grid.
pub(crate) fn initial_grid(p: &JacobiParams) -> Vec<f64> {
    let mut rng = futrace_util::rng::seeded(p.seed);
    (0..p.n * p.n).map(|_| rng.gen_range(0.0..1.0)).collect()
}

/// One 5-point Jacobi update of interior point `(i, j)` reading `src`.
#[inline]
fn relax(src: &[f64], n: usize, i: usize, j: usize) -> f64 {
    0.25 * (src[(i - 1) * n + j] + src[(i + 1) * n + j] + src[i * n + j - 1] + src[i * n + j + 1])
}

/// Reference (serial-elision) implementation; returns the final grid.
pub fn jacobi_seq(p: &JacobiParams) -> Vec<f64> {
    let n = p.n;
    let mut a = initial_grid(p);
    let mut b = a.clone();
    for _ in 0..p.sweeps {
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                b[i * n + j] = relax(&a, n, i, j);
            }
        }
        std::mem::swap(&mut a, &mut b);
    }
    a
}

/// DSL run; returns the array holding the final grid.
///
/// `plant_race` (tests only) drops the `get()` on the *west* neighbour, so
/// a halo read races with that neighbour's previous-sweep write.
pub fn jacobi_run<C: TaskCtx>(ctx: &mut C, p: &JacobiParams, plant_race: bool) -> SharedArray<f64> {
    let n = p.n;
    let t = p.tiles();
    let init = initial_grid(p);
    let grids = [
        ctx.shared_array(n * n, 0.0f64, "jacobi.a"),
        ctx.shared_array(n * n, 0.0f64, "jacobi.b"),
    ];
    for (i, &v) in init.iter().enumerate() {
        grids[0].poke(i, v); // input seeding
        grids[1].poke(i, v); // boundary values never rewritten
    }

    // futures[tile] from the previous sweep (type-erased to unit values).
    let mut prev: Vec<Option<C::Handle<()>>> = vec![None; t * t];
    for sweep in 0..p.sweeps {
        let src = grids[sweep % 2].clone();
        let dst = grids[(sweep + 1) % 2].clone();
        let mut cur: Vec<Option<C::Handle<()>>> = vec![None; t * t];
        for ti in 0..t {
            for tj in 0..t {
                // Handles of the previous sweep this tile must wait for:
                // itself and the 4 neighbours (those that exist).
                let mut deps: Vec<C::Handle<()>> = Vec::with_capacity(5);
                let mut dep = |h: &Option<C::Handle<()>>| {
                    if let Some(h) = h {
                        deps.push(h.clone());
                    }
                };
                dep(&prev[ti * t + tj]);
                if ti > 0 {
                    dep(&prev[(ti - 1) * t + tj]);
                }
                if ti + 1 < t {
                    dep(&prev[(ti + 1) * t + tj]);
                }
                if !plant_race && tj > 0 {
                    dep(&prev[ti * t + tj - 1]); // west neighbour
                }
                if tj + 1 < t {
                    dep(&prev[ti * t + tj + 1]);
                }
                let (src, dst) = (src.clone(), dst.clone());
                let tile = p.tile;
                let h = ctx.future(move |ctx| {
                    for d in &deps {
                        ctx.get(d);
                    }
                    let (r0, c0) = (ti * tile, tj * tile);
                    for i in r0.max(1)..(r0 + tile).min(n - 1) {
                        for j in c0.max(1)..(c0 + tile).min(n - 1) {
                            let v = 0.25
                                * (src.read(ctx, (i - 1) * n + j)
                                    + src.read(ctx, (i + 1) * n + j)
                                    + src.read(ctx, i * n + j - 1)
                                    + src.read(ctx, i * n + j + 1));
                            dst.write(ctx, i * n + j, v);
                        }
                    }
                });
                cur[ti * t + tj] = Some(h);
            }
        }
        prev = cur;
    }
    // Implicit program end joins the last sweep's futures via the root
    // finish; we also get them explicitly so the main task may read the
    // result (as the Kastors driver does for the residual check).
    for h in prev.iter().flatten() {
        ctx.get(h);
    }
    grids[p.sweeps % 2].clone()
}

/// Expected dynamic task count: `sweeps × tiles²` (Table 2: 8192).
pub fn expected_tasks(p: &JacobiParams) -> u64 {
    (p.sweeps * p.tiles() * p.tiles()) as u64
}

/// Expected non-tree joins: every get performed by a tile task of sweeps
/// 1.. on a sibling future. Sweep-0 tiles perform no gets; the main task's
/// final gets are tree joins. Per sweep: `5t² − 4t` (self + neighbour
/// pairs). Paper size: 7 × 4992 = 34,944 (Table 2).
pub fn expected_nt_joins(p: &JacobiParams) -> u64 {
    let t = p.tiles() as u64;
    let per_sweep = 5 * t * t - 4 * t;
    (p.sweeps as u64 - 1) * per_sweep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::detect_races_with_stats;
    use futrace_runtime::run_parallel;

    fn grids_close(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-12)
    }

    #[test]
    fn paper_size_structural_counts() {
        let p = JacobiParams::paper();
        assert_eq!(expected_tasks(&p), 8192, "Table 2 #Tasks");
        assert_eq!(expected_nt_joins(&p), 34_944, "Table 2 #NTJoins");
    }

    #[test]
    fn dsl_matches_reference() {
        let p = JacobiParams::tiny();
        let expect = jacobi_seq(&p);
        let (rep, stats) = detect_races_with_stats(|ctx| {
            let out = jacobi_run(ctx, &p, false);
            assert!(grids_close(&out.snapshot(), &expect));
        });
        assert!(!rep.has_races());
        assert_eq!(stats.tasks, expected_tasks(&p));
        assert_eq!(stats.nt_joins(), expected_nt_joins(&p));
    }

    #[test]
    fn planted_race_is_detected() {
        let p = JacobiParams::tiny();
        let (rep, _) = detect_races_with_stats(|ctx| {
            let _ = jacobi_run(ctx, &p, true);
        });
        assert!(rep.has_races(), "dropping the west get must race");
    }

    #[test]
    fn single_sweep_has_no_nt_joins() {
        let p = JacobiParams {
            sweeps: 1,
            ..JacobiParams::tiny()
        };
        let (rep, stats) = detect_races_with_stats(|ctx| {
            let _ = jacobi_run(ctx, &p, false);
        });
        assert!(!rep.has_races());
        assert_eq!(stats.nt_joins(), 0);
    }

    #[test]
    fn parallel_execution_matches_reference() {
        let p = JacobiParams::tiny();
        let expect = jacobi_seq(&p);
        let got = run_parallel(4, |ctx| jacobi_run(ctx, &p, false).snapshot()).unwrap();
        assert!(grids_close(&got, &expect));
    }

    #[test]
    fn boundary_rows_are_preserved() {
        let p = JacobiParams::tiny();
        let init = initial_grid(&p);
        let out = jacobi_seq(&p);
        for j in 0..p.n {
            assert_eq!(out[j], init[j], "top row untouched");
            assert_eq!(out[(p.n - 1) * p.n + j], init[(p.n - 1) * p.n + j]);
        }
    }
}
