//! SOR — red-black successive over-relaxation (JGF benchmark suite), an
//! extension workload on the async-finish side of the suite.
//!
//! Each sweep updates the red cells (`(i+j)` even) and then the black
//! cells of a 2D grid with the over-relaxed 4-point stencil
//!
//! ```text
//! G[i][j] ← ω/4 · (G[i−1][j] + G[i+1][j] + G[i][j−1] + G[i][j+1])
//!           + (1−ω) · G[i][j]
//! ```
//!
//! Within one color phase no cell reads another cell of the same color,
//! so a `finish { async per row-band }` per phase is race-free; the two
//! phases are ordered by their finishes. Pure async-finish: zero non-tree
//! joins — SOR extends the `af-overhead` comparison (DTRG vs. ESP-bags)
//! with a stencil-shaped access pattern.

use futrace_runtime::memory::SharedArray;
use futrace_runtime::TaskCtx;

/// Problem size for the SOR benchmark.
#[derive(Clone, Copy, Debug)]
pub struct SorParams {
    /// Grid side length.
    pub n: usize,
    /// Number of red+black sweeps.
    pub sweeps: usize,
    /// Rows per task.
    pub band: usize,
    /// Input seed.
    pub seed: u64,
}

/// The JGF over-relaxation factor.
pub(crate) const OMEGA: f64 = 1.25;

impl SorParams {
    /// Laptop-scale configuration.
    pub fn scaled() -> Self {
        SorParams {
            n: 256,
            sweeps: 10,
            band: 8,
            seed: 0x50f,
        }
    }

    /// Minimal configuration for unit tests.
    pub fn tiny() -> Self {
        SorParams {
            n: 16,
            sweeps: 3,
            band: 2,
            seed: 0x50f,
        }
    }
}

/// Deterministic initial grid.
pub(crate) fn initial_grid(p: &SorParams) -> Vec<f64> {
    let mut rng = futrace_util::rng::seeded(p.seed);
    (0..p.n * p.n).map(|_| rng.gen_range(0.0..1.0)).collect()
}

#[inline]
fn relax(g: &[f64], n: usize, i: usize, j: usize) -> f64 {
    OMEGA / 4.0 * (g[(i - 1) * n + j] + g[(i + 1) * n + j] + g[i * n + j - 1] + g[i * n + j + 1])
        + (1.0 - OMEGA) * g[i * n + j]
}

/// Reference (serial-elision) implementation.
pub fn sor_seq(p: &SorParams) -> Vec<f64> {
    let n = p.n;
    let mut g = initial_grid(p);
    for _ in 0..p.sweeps {
        for color in 0..2usize {
            for i in 1..n - 1 {
                let start = 1 + (i + color) % 2;
                let mut j = start;
                while j < n - 1 {
                    g[i * n + j] = relax(&g, n, i, j);
                    j += 2;
                }
            }
        }
    }
    g
}

/// DSL run (async-finish): one finish per color phase, one async per
/// row band.
///
/// `plant_race` (tests only) fuses the two phases into one finish, so
/// black updates race with the red updates they read.
pub fn sor_run<C: TaskCtx>(ctx: &mut C, p: &SorParams, plant_race: bool) -> SharedArray<f64> {
    let n = p.n;
    let grid = ctx.shared_array(n * n, 0.0f64, "sor.grid");
    for (i, v) in initial_grid(p).into_iter().enumerate() {
        grid.poke(i, v); // input seeding
    }
    let bands = (n - 2).div_ceil(p.band);
    let phase = |ctx: &mut C, color: usize| {
        let g = grid.clone();
        let band = p.band;
        ctx.forasync(0..bands, move |ctx, b| {
            let row0 = 1 + b * band;
            for i in row0..(row0 + band).min(n - 1) {
                let start = 1 + (i + color) % 2;
                let mut j = start;
                while j < n - 1 {
                    let v = OMEGA / 4.0
                        * (g.read(ctx, (i - 1) * n + j)
                            + g.read(ctx, (i + 1) * n + j)
                            + g.read(ctx, i * n + j - 1)
                            + g.read(ctx, i * n + j + 1))
                        + (1.0 - OMEGA) * g.read(ctx, i * n + j);
                    g.write(ctx, i * n + j, v);
                    j += 2;
                }
            }
        });
    };
    for _ in 0..p.sweeps {
        if plant_race {
            // Both colors inside one finish: the black stencil reads red
            // cells updated by parallel sibling tasks.
            ctx.finish(|ctx| {
                phase(ctx, 0);
                phase(ctx, 1);
            });
        } else {
            ctx.finish(|ctx| phase(ctx, 0));
            ctx.finish(|ctx| phase(ctx, 1));
        }
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::detect_races_with_stats;
    use futrace_runtime::run_parallel;

    /// Expected dynamic task count: `2 × sweeps × ⌈(n−2)/band⌉`.
    fn expected_tasks(p: &SorParams) -> u64 {
        (2 * p.sweeps * (p.n - 2).div_ceil(p.band)) as u64
    }

    fn close(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-12)
    }

    #[test]
    fn dsl_matches_reference_and_is_race_free() {
        let p = SorParams::tiny();
        let want = sor_seq(&p);
        let (rep, stats) = detect_races_with_stats(|ctx| {
            let g = sor_run(ctx, &p, false);
            assert!(close(&g.snapshot(), &want));
        });
        assert!(!rep.has_races());
        assert_eq!(stats.tasks, expected_tasks(&p));
        assert_eq!(stats.nt_joins(), 0, "pure async-finish");
        assert_eq!(stats.future_tasks, 0);
    }

    #[test]
    fn fused_phases_race() {
        let p = SorParams::tiny();
        let (rep, _) = detect_races_with_stats(|ctx| {
            let _ = sor_run(ctx, &p, true);
        });
        assert!(rep.has_races(), "fused red/black phases must race");
    }

    #[test]
    fn parallel_execution_matches_reference() {
        let p = SorParams::tiny();
        let want = sor_seq(&p);
        let got = run_parallel(4, |ctx| sor_run(ctx, &p, false).snapshot()).unwrap();
        assert!(close(&got, &want));
    }

    #[test]
    fn red_black_decomposition_is_gauss_seidel() {
        // One sweep by hand on a small grid equals the reference.
        let p = SorParams {
            n: 6,
            sweeps: 1,
            band: 1,
            seed: 9,
        };
        let mut g = initial_grid(&p);
        let n = p.n;
        for color in 0..2usize {
            let snapshot = g.clone();
            for i in 1..n - 1 {
                let start = 1 + (i + color) % 2;
                let mut j = start;
                while j < n - 1 {
                    // Within one color, neighbours are the other color, so
                    // reading from the live grid or the snapshot of the
                    // phase start is identical:
                    assert_eq!(relax(&g, n, i, j), relax_from(&snapshot, &g, n, i, j));
                    g[i * n + j] = relax(&g, n, i, j);
                    j += 2;
                }
            }
        }
        assert!(close(&g, &sor_seq(&p)));

        fn relax_from(snap: &[f64], live: &[f64], n: usize, i: usize, j: usize) -> f64 {
            OMEGA / 4.0
                * (snap[(i - 1) * n + j]
                    + snap[(i + 1) * n + j]
                    + snap[i * n + j - 1]
                    + snap[i * n + j + 1])
                + (1.0 - OMEGA) * live[i * n + j]
        }
    }
}
