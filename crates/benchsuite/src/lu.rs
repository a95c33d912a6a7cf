//! Blocked LU decomposition with future-based block dependences
//! (modeled on Kastors' SparseLU, the same OpenMP-`depends` family the
//! paper's Jacobi and Strassen ports come from — an *extension* benchmark
//! beyond Table 2, exercising a denser dependence pattern: each trailing
//! update waits on three producers).
//!
//! Right-looking blocked LU without pivoting over an `nb × nb` grid of
//! `bs × bs` blocks; per elimination step `k`:
//!
//! ```text
//! diag:  A[k][k] ← lu(A[k][k])               (dep: A[k][k])
//! row:   A[k][j] ← trsm_L(A[k][k], A[k][j])  (deps: diag k, A[k][j])
//! col:   A[i][k] ← trsm_U(A[k][k], A[i][k])  (deps: diag k, A[i][k])
//! trail: A[i][j] ← A[i][j] − A[i][k]·A[k][j] (deps: col ik, row kj, A[i][j])
//! ```
//!
//! Every dependence is a `get()` on a sibling future — a non-tree join —
//! so #NTJoins grows as Θ(nb³) while #Tasks is Θ(nb³)/3: the highest
//! joins-per-task ratio in the suite (the unit tests' `expected_nt_joins`).

use futrace_runtime::memory::SharedArray;
use futrace_runtime::TaskCtx;

/// Problem size for the blocked LU benchmark.
#[derive(Clone, Copy, Debug)]
pub struct LuParams {
    /// Blocks per side.
    pub nb: usize,
    /// Block side length.
    pub bs: usize,
    /// Input seed.
    pub seed: u64,
}

impl LuParams {
    /// Laptop-scale configuration.
    pub fn scaled() -> Self {
        LuParams {
            nb: 8,
            bs: 16,
            seed: 0x1f,
        }
    }

    /// Minimal configuration for unit tests.
    pub fn tiny() -> Self {
        LuParams {
            nb: 3,
            bs: 4,
            seed: 0x1f,
        }
    }

    /// Matrix side length.
    pub(crate) fn n(&self) -> usize {
        self.nb * self.bs
    }
}

/// Deterministic diagonally-dominant input (so unpivoted LU is stable).
pub(crate) fn input(p: &LuParams) -> Vec<f64> {
    let n = p.n();
    let mut rng = futrace_util::rng::seeded(p.seed);
    let mut a: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    for i in 0..n {
        a[i * n + i] += n as f64; // dominance
    }
    a
}

// Block kernels on row-major `bs × bs` blocks.

fn lu0(a: &mut [f64], bs: usize) {
    for k in 0..bs {
        let pivot = a[k * bs + k];
        for i in k + 1..bs {
            a[i * bs + k] /= pivot;
            let lik = a[i * bs + k];
            for j in k + 1..bs {
                a[i * bs + j] -= lik * a[k * bs + j];
            }
        }
    }
}

/// Row update: solve `L(diag) · X = A[k][j]` (unit-lower forward subst).
fn fwd(diag: &[f64], a: &mut [f64], bs: usize) {
    for k in 0..bs {
        for i in k + 1..bs {
            let lik = diag[i * bs + k];
            for j in 0..bs {
                a[i * bs + j] -= lik * a[k * bs + j];
            }
        }
    }
}

/// Column update: solve `X · U(diag) = A[i][k]` (upper back-subst).
fn bdiv(diag: &[f64], a: &mut [f64], bs: usize) {
    for i in 0..bs {
        for k in 0..bs {
            a[i * bs + k] /= diag[k * bs + k];
            let aik = a[i * bs + k];
            for j in k + 1..bs {
                a[i * bs + j] -= aik * diag[k * bs + j];
            }
        }
    }
}

/// Trailing update: `A[i][j] −= A[i][k] · A[k][j]`.
fn bmod(l: &[f64], u: &[f64], a: &mut [f64], bs: usize) {
    for i in 0..bs {
        for kk in 0..bs {
            let lik = l[i * bs + kk];
            for j in 0..bs {
                a[i * bs + j] -= lik * u[kk * bs + j];
            }
        }
    }
}

/// Reference blocked LU in plain Rust (same kernel order as the DSL run).
pub fn lu_seq_blocked(p: &LuParams) -> Vec<Vec<f64>> {
    let (nb, bs) = (p.nb, p.bs);
    let a = input(p);
    let n = p.n();
    // Split into blocks.
    let mut blocks: Vec<Vec<f64>> = (0..nb * nb)
        .map(|b| {
            let (bi, bj) = (b / nb, b % nb);
            let mut out = vec![0.0; bs * bs];
            for i in 0..bs {
                for j in 0..bs {
                    out[i * bs + j] = a[(bi * bs + i) * n + bj * bs + j];
                }
            }
            out
        })
        .collect();
    for k in 0..nb {
        let diag = {
            let d = &mut blocks[k * nb + k];
            lu0(d, bs);
            d.clone()
        };
        for j in k + 1..nb {
            fwd(&diag, &mut blocks[k * nb + j], bs);
        }
        for i in k + 1..nb {
            bdiv(&diag, &mut blocks[i * nb + k], bs);
        }
        for i in k + 1..nb {
            let l = blocks[i * nb + k].clone();
            for j in k + 1..nb {
                let u = blocks[k * nb + j].clone();
                bmod(&l, &u, &mut blocks[i * nb + j], bs);
            }
        }
    }
    blocks
}

/// Instrumented block read/write helpers.
fn read_block<C: TaskCtx>(ctx: &mut C, m: &SharedArray<f64>, nb: usize, bs: usize, bi: usize, bj: usize) -> Vec<f64> {
    let mut out = vec![0.0; bs * bs];
    let base = (bi * nb + bj) * bs * bs;
    for (t, v) in out.iter_mut().enumerate() {
        *v = m.read(ctx, base + t);
    }
    out
}

fn write_block<C: TaskCtx>(ctx: &mut C, m: &SharedArray<f64>, nb: usize, bs: usize, bi: usize, bj: usize, data: &[f64]) {
    let base = (bi * nb + bj) * bs * bs;
    for (t, v) in data.iter().enumerate() {
        m.write(ctx, base + t, *v);
    }
}

/// DSL run: the matrix is stored block-contiguously in one shared array;
/// `handles[i][j]` tracks the future that last produced block `(i,j)`.
///
/// `plant_race` (tests only) drops the trailing update's dependence on the
/// *row* producer, racing on `A[k][j]`.
pub fn lu_run<C: TaskCtx>(ctx: &mut C, p: &LuParams, plant_race: bool) -> SharedArray<f64> {
    let (nb, bs) = (p.nb, p.bs);
    let a = input(p);
    let n = p.n();
    let m = ctx.shared_array(nb * nb * bs * bs, 0.0f64, "lu.blocks");
    for bi in 0..nb {
        for bj in 0..nb {
            let base = (bi * nb + bj) * bs * bs;
            for i in 0..bs {
                for j in 0..bs {
                    m.poke(base + i * bs + j, a[(bi * bs + i) * n + bj * bs + j]);
                }
            }
        }
    }

    let mut handles: Vec<Option<C::Handle<()>>> = vec![None; nb * nb];
    for k in 0..nb {
        // diag task
        let dep = handles[k * nb + k].clone();
        let mh = m.clone();
        let diag = ctx.future(move |ctx| {
            if let Some(d) = &dep {
                ctx.get(d);
            }
            let mut blk = read_block(ctx, &mh, nb, bs, k, k);
            lu0(&mut blk, bs);
            write_block(ctx, &mh, nb, bs, k, k, &blk);
        });
        handles[k * nb + k] = Some(diag.clone());

        // row tasks
        for j in k + 1..nb {
            let (d, prev, mh) = (diag.clone(), handles[k * nb + j].clone(), m.clone());
            let h = ctx.future(move |ctx| {
                ctx.get(&d);
                if let Some(pv) = &prev {
                    ctx.get(pv);
                }
                let dblk = read_block(ctx, &mh, nb, bs, k, k);
                let mut blk = read_block(ctx, &mh, nb, bs, k, j);
                fwd(&dblk, &mut blk, bs);
                write_block(ctx, &mh, nb, bs, k, j, &blk);
            });
            handles[k * nb + j] = Some(h);
        }
        // col tasks
        for i in k + 1..nb {
            let (d, prev, mh) = (diag.clone(), handles[i * nb + k].clone(), m.clone());
            let h = ctx.future(move |ctx| {
                ctx.get(&d);
                if let Some(pv) = &prev {
                    ctx.get(pv);
                }
                let dblk = read_block(ctx, &mh, nb, bs, k, k);
                let mut blk = read_block(ctx, &mh, nb, bs, i, k);
                bdiv(&dblk, &mut blk, bs);
                write_block(ctx, &mh, nb, bs, i, k, &blk);
            });
            handles[i * nb + k] = Some(h);
        }
        // trailing updates
        for i in k + 1..nb {
            for j in k + 1..nb {
                let col = handles[i * nb + k].clone().unwrap();
                let row = handles[k * nb + j].clone().unwrap();
                let prev = handles[i * nb + j].clone();
                let mh = m.clone();
                let h = ctx.future(move |ctx| {
                    ctx.get(&col);
                    if !plant_race {
                        ctx.get(&row);
                    }
                    if let Some(pv) = &prev {
                        ctx.get(pv);
                    }
                    let l = read_block(ctx, &mh, nb, bs, i, k);
                    let u = read_block(ctx, &mh, nb, bs, k, j);
                    let mut blk = read_block(ctx, &mh, nb, bs, i, j);
                    bmod(&l, &u, &mut blk, bs);
                    write_block(ctx, &mh, nb, bs, i, j, &blk);
                });
                handles[i * nb + j] = Some(h);
            }
        }
    }
    for h in handles.iter().flatten() {
        ctx.get(h);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::detect_races_with_stats;
    use futrace_runtime::run_parallel;

    /// Reference (serial-elision) unblocked LU, in-place Doolittle without
    /// pivoting. Returns the combined LU factors.
    fn lu_seq_unblocked(mut a: Vec<f64>, n: usize) -> Vec<f64> {
        for k in 0..n {
            let pivot = a[k * n + k];
            for i in k + 1..n {
                a[i * n + k] /= pivot;
                let lik = a[i * n + k];
                for j in k + 1..n {
                    a[i * n + j] -= lik * a[k * n + j];
                }
            }
        }
        a
    }

    /// Expected dynamic task count: `Σ_k 1 + 2(nb−k−1) + (nb−k−1)²`.
    fn expected_tasks(p: &LuParams) -> u64 {
        (0..p.nb)
            .map(|k| {
                let r = (p.nb - k - 1) as u64;
                1 + 2 * r + r * r
            })
            .sum()
    }

    /// Expected non-tree joins: every `get()` performed by a *task* (the main
    /// task's final gets merge). diag: 1 if k>0; row/col: 1 (diag) + 1 if a
    /// previous producer exists; trail: 2 (or 3 with a previous producer).
    fn expected_nt_joins(p: &LuParams) -> u64 {
        let nb = p.nb as u64;
        let mut total = 0u64;
        for k in 0..nb {
            let r = nb - k - 1;
            if k > 0 {
                total += 1; // diag's dep on the previous trail of (k,k)
            }
            // rows/cols: diag dep + prev dep (prev exists iff k > 0).
            total += 2 * r * (1 + u64::from(k > 0));
            // trails: col + row + prev (prev exists iff k > 0).
            total += r * r * (2 + u64::from(k > 0));
        }
        total
    }

    /// Extracts block `(bi, bj)` from a DSL run's output (uninstrumented).
    fn peek_block(m: &SharedArray<f64>, p: &LuParams, bi: usize, bj: usize) -> Vec<f64> {
        let bs = p.bs;
        let base = (bi * p.nb + bj) * bs * bs;
        (0..bs * bs).map(|t| m.peek(base + t)).collect()
    }

    fn close(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-9)
    }

    #[test]
    fn blocked_matches_unblocked() {
        let p = LuParams::tiny();
        let n = p.n();
        let want = lu_seq_unblocked(input(&p), n);
        let blocks = lu_seq_blocked(&p);
        for bi in 0..p.nb {
            for bj in 0..p.nb {
                let blk = &blocks[bi * p.nb + bj];
                for i in 0..p.bs {
                    for j in 0..p.bs {
                        let w = want[(bi * p.bs + i) * n + bj * p.bs + j];
                        assert!(
                            (blk[i * p.bs + j] - w).abs() < 1e-9,
                            "block ({bi},{bj}) cell ({i},{j}): {} vs {w}",
                            blk[i * p.bs + j]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn dsl_matches_blocked_reference_and_is_race_free() {
        let p = LuParams::tiny();
        let want = lu_seq_blocked(&p);
        let (rep, stats) = detect_races_with_stats(|ctx| {
            let m = lu_run(ctx, &p, false);
            for bi in 0..p.nb {
                for bj in 0..p.nb {
                    assert!(close(&peek_block(&m, &p, bi, bj), &want[bi * p.nb + bj]));
                }
            }
        });
        assert!(!rep.has_races());
        assert_eq!(stats.tasks, expected_tasks(&p));
        assert_eq!(stats.nt_joins(), expected_nt_joins(&p));
    }

    #[test]
    fn planted_race_is_detected() {
        let p = LuParams::tiny();
        let (rep, _) = detect_races_with_stats(|ctx| {
            let _ = lu_run(ctx, &p, true);
        });
        assert!(rep.has_races(), "dropping the row dependence must race");
    }

    #[test]
    fn parallel_execution_matches_reference() {
        let p = LuParams::tiny();
        let want = lu_seq_blocked(&p);
        let ok = run_parallel(4, |ctx| {
            let m = lu_run(ctx, &p, false);
            (0..p.nb * p.nb).all(|b| close(&peek_block(&m, &p, b / p.nb, b % p.nb), &want[b]))
        })
        .unwrap();
        assert!(ok);
    }

    #[test]
    fn task_count_formula() {
        // nb=3: k=0: 1+4+4=9; k=1: 1+2+1=4; k=2: 1 → 14.
        let p = LuParams::tiny();
        assert_eq!(expected_tasks(&p), 14);
    }
}
