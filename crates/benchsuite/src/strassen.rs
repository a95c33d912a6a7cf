//! Strassen — recursive matrix multiplication with future-based dependence
//! (translated from the Kastors OpenMP `depends` version, as in the
//! paper).
//!
//! Each recursion node of size `n > cutoff` creates **11 future tasks**:
//! the 7 Strassen products `M1..M7` (each recursing) and the 4 quadrant
//! combinations `C11, C12, C21, C22`. The combinations `get()` the
//! products they consume — 12 sibling joins per node, all non-tree:
//!
//! ```text
//! M1 = (A11+A22)(B11+B22)   C11 = M1+M4−M5+M7   (4 gets)
//! M2 = (A21+A22)B11         C12 = M3+M5         (2 gets)
//! M3 = A11(B12−B22)         C21 = M2+M4         (2 gets)
//! M4 = A22(B21−B11)         C22 = M1−M2+M3+M6   (4 gets)
//! M5 = (A11+A12)B22
//! M6 = (A21−A11)(B11+B12)
//! M7 = (A12−A22)(B21+B22)
//! ```
//!
//! With the paper's 1024×1024 / cutoff 32 there are
//! `1+7+49+343+2401 = 2801` internal nodes, hence `11 × 2801 = 30,811`
//! tasks and `12 × 2801 = 33,612` non-tree joins — Table 2's #Tasks and
//! #NTJoins **exactly** (the unit tests' `expected_tasks` and
//! `expected_nt_joins`).
//!
//! `M5` is consumed by both `C11` and `C12` (and `M1`, `M2`, `M3`, `M4` by
//! two combiners each): a future value read by two parallel readers, the
//! situation that pushes #AvgReaders above the async-finish ceiling.

use futrace_runtime::memory::SharedArray;
use futrace_runtime::TaskCtx;

/// Problem size for the Strassen benchmark.
#[derive(Clone, Copy, Debug)]
pub struct StrassenParams {
    /// Matrix side; must be `cutoff × 2^k`.
    pub n: usize,
    /// Side length below which classical multiplication is used.
    pub cutoff: usize,
    /// Seed for the input matrices.
    pub seed: u64,
}

impl StrassenParams {
    /// The paper's configuration (1024×1024, cutoff 32).
    pub fn paper() -> Self {
        StrassenParams {
            n: 1024,
            cutoff: 32,
            seed: 0x57a5,
        }
    }

    /// Laptop-scale configuration.
    pub fn scaled() -> Self {
        StrassenParams {
            n: 128,
            cutoff: 16,
            seed: 0x57a5,
        }
    }

    /// Minimal configuration for unit tests.
    pub fn tiny() -> Self {
        StrassenParams {
            n: 16,
            cutoff: 4,
            seed: 0x57a5,
        }
    }
}

/// Deterministic input matrices.
pub fn inputs(p: &StrassenParams) -> (Vec<f64>, Vec<f64>) {
    let mut rng = futrace_util::rng::seeded(p.seed);
    let mk = |rng: &mut futrace_util::rng::Rng| {
        (0..p.n * p.n).map(|_| rng.gen_range(-1.0..1.0)).collect()
    };
    let a = mk(&mut rng);
    let b = mk(&mut rng);
    (a, b)
}

/// Classical O(n³) multiply (correctness oracle for tests).
pub fn classical_seq(a: &[f64], b: &[f64], n: usize) -> Vec<f64> {
    let mut c = vec![0.0; n * n];
    for i in 0..n {
        for k in 0..n {
            let aik = a[i * n + k];
            for j in 0..n {
                c[i * n + j] += aik * b[k * n + j];
            }
        }
    }
    c
}

/// Reference (serial-elision) Strassen — the same algorithm and cutoff as
/// the DSL program, in plain Rust. This is Table 2's Seq measurement.
pub fn strassen_seq(a: &[f64], b: &[f64], n: usize, cutoff: usize) -> Vec<f64> {
    if n <= cutoff {
        return classical_seq(a, b, n);
    }
    let h = n / 2;
    let quad = |m: &[f64], qi: usize, qj: usize| -> Vec<f64> {
        let mut out = vec![0.0; h * h];
        for i in 0..h {
            for j in 0..h {
                out[i * h + j] = m[(qi * h + i) * n + qj * h + j];
            }
        }
        out
    };
    let add = |x: &[f64], y: &[f64]| -> Vec<f64> { x.iter().zip(y).map(|(a, b)| a + b).collect() };
    let sub = |x: &[f64], y: &[f64]| -> Vec<f64> { x.iter().zip(y).map(|(a, b)| a - b).collect() };
    let (a11, a12, a21, a22) = (quad(a, 0, 0), quad(a, 0, 1), quad(a, 1, 0), quad(a, 1, 1));
    let (b11, b12, b21, b22) = (quad(b, 0, 0), quad(b, 0, 1), quad(b, 1, 0), quad(b, 1, 1));
    let m1 = strassen_seq(&add(&a11, &a22), &add(&b11, &b22), h, cutoff);
    let m2 = strassen_seq(&add(&a21, &a22), &b11, h, cutoff);
    let m3 = strassen_seq(&a11, &sub(&b12, &b22), h, cutoff);
    let m4 = strassen_seq(&a22, &sub(&b21, &b11), h, cutoff);
    let m5 = strassen_seq(&add(&a11, &a12), &b22, h, cutoff);
    let m6 = strassen_seq(&sub(&a21, &a11), &add(&b11, &b12), h, cutoff);
    let m7 = strassen_seq(&sub(&a12, &a22), &add(&b21, &b22), h, cutoff);
    let mut c = vec![0.0; n * n];
    for i in 0..h {
        for j in 0..h {
            let k = i * h + j;
            c[i * n + j] = m1[k] + m4[k] - m5[k] + m7[k];
            c[i * n + j + h] = m3[k] + m5[k];
            c[(i + h) * n + j] = m2[k] + m4[k];
            c[(i + h) * n + j + h] = m1[k] - m2[k] + m3[k] + m6[k];
        }
    }
    c
}

/// A read-only square view into a shared matrix.
struct View {
    arr: SharedArray<f64>,
    r0: usize,
    c0: usize,
    stride: usize,
}

impl Clone for View {
    fn clone(&self) -> Self {
        View {
            arr: self.arr.clone(),
            r0: self.r0,
            c0: self.c0,
            stride: self.stride,
        }
    }
}

impl View {
    fn whole(arr: SharedArray<f64>, n: usize) -> Self {
        View {
            arr,
            r0: 0,
            c0: 0,
            stride: n,
        }
    }

    fn quad(&self, h: usize, qi: usize, qj: usize) -> View {
        View {
            arr: self.arr.clone(),
            r0: self.r0 + qi * h,
            c0: self.c0 + qj * h,
            stride: self.stride,
        }
    }

    #[inline]
    fn read(&self, ctx: &mut impl futrace_runtime::memory::MemCtx, i: usize, j: usize) -> f64 {
        self.arr
            .read(ctx, (self.r0 + i) * self.stride + self.c0 + j)
    }
}

/// Element-wise `x op y` of two `h×h` views into a fresh shared temp.
fn combine_views<C: TaskCtx>(ctx: &mut C, x: &View, y: &View, h: usize, minus: bool) -> View {
    let t = ctx.shared_array(h * h, 0.0f64, "strassen.tmp");
    for i in 0..h {
        for j in 0..h {
            let v = if minus {
                x.read(ctx, i, j) - y.read(ctx, i, j)
            } else {
                x.read(ctx, i, j) + y.read(ctx, i, j)
            };
            t.write(ctx, i * h + j, v);
        }
    }
    View::whole(t, h)
}

/// Recursive Strassen multiply of two `n×n` views, returning a dense
/// shared result (the future-task structure described in the module docs).
fn mult<C: TaskCtx>(ctx: &mut C, a: View, b: View, n: usize, cutoff: usize) -> SharedArray<f64> {
    if n <= cutoff {
        let out = ctx.shared_array(n * n, 0.0f64, "strassen.leaf");
        for i in 0..n {
            for j in 0..n {
                let mut sum = 0.0;
                for k in 0..n {
                    sum += a.read(ctx, i, k) * b.read(ctx, k, j);
                }
                out.write(ctx, i * n + j, sum);
            }
        }
        return out;
    }
    let h = n / 2;
    let (a11, a12, a21, a22) = (a.quad(h, 0, 0), a.quad(h, 0, 1), a.quad(h, 1, 0), a.quad(h, 1, 1));
    let (b11, b12, b21, b22) = (b.quad(h, 0, 0), b.quad(h, 0, 1), b.quad(h, 1, 0), b.quad(h, 1, 1));

    // The 7 product futures. Operand sums/differences are computed inside
    // each product task (reads of A/B are ordered before the spawn-free
    // recursive work by program order within the task).
    let m1 = {
        let (x1, x2, y1, y2) = (a11.clone(), a22.clone(), b11.clone(), b22.clone());
        ctx.future(move |ctx| {
            let s = combine_views(ctx, &x1, &x2, h, false);
            let t = combine_views(ctx, &y1, &y2, h, false);
            mult(ctx, s, t, h, cutoff)
        })
    };
    let m2 = {
        let (x1, x2, y) = (a21.clone(), a22.clone(), b11.clone());
        ctx.future(move |ctx| {
            let s = combine_views(ctx, &x1, &x2, h, false);
            mult(ctx, s, y, h, cutoff)
        })
    };
    let m3 = {
        let (x, y1, y2) = (a11.clone(), b12.clone(), b22.clone());
        ctx.future(move |ctx| {
            let t = combine_views(ctx, &y1, &y2, h, true);
            mult(ctx, x, t, h, cutoff)
        })
    };
    let m4 = {
        let (x, y1, y2) = (a22.clone(), b21.clone(), b11.clone());
        ctx.future(move |ctx| {
            let t = combine_views(ctx, &y1, &y2, h, true);
            mult(ctx, x, t, h, cutoff)
        })
    };
    let m5 = {
        let (x1, x2, y) = (a11.clone(), a12.clone(), b22.clone());
        ctx.future(move |ctx| {
            let s = combine_views(ctx, &x1, &x2, h, false);
            mult(ctx, s, y, h, cutoff)
        })
    };
    let m6 = {
        let (x1, x2, y1, y2) = (a21.clone(), a11.clone(), b11.clone(), b12.clone());
        ctx.future(move |ctx| {
            let s = combine_views(ctx, &x1, &x2, h, true);
            let t = combine_views(ctx, &y1, &y2, h, false);
            mult(ctx, s, t, h, cutoff)
        })
    };
    let m7 = {
        let (x1, x2, y1, y2) = (a12.clone(), a22.clone(), b21.clone(), b22.clone());
        ctx.future(move |ctx| {
            let s = combine_views(ctx, &x1, &x2, h, true);
            let t = combine_views(ctx, &y1, &y2, h, false);
            mult(ctx, s, t, h, cutoff)
        })
    };

    let out = ctx.shared_array(n * n, 0.0f64, "strassen.out");
    // The 4 combination futures; their gets on sibling products are the
    // node's 12 non-tree joins.
    let combine = |ms: Vec<(C::Handle<SharedArray<f64>>, f64)>, qi: usize, qj: usize| {
        let out = out.clone();
        move |ctx: &mut C| {
            let parts: Vec<(SharedArray<f64>, f64)> =
                ms.iter().map(|(hdl, sign)| (ctx.get(hdl), *sign)).collect();
            for i in 0..h {
                for j in 0..h {
                    let mut v = 0.0;
                    for (m, sign) in &parts {
                        v += sign * m.read(ctx, i * h + j);
                    }
                    out.write(ctx, (qi * h + i) * n + qj * h + j, v);
                }
            }
        }
    };
    let c11 = ctx.future(combine(
        vec![(m1.clone(), 1.0), (m4.clone(), 1.0), (m5.clone(), -1.0), (m7, 1.0)],
        0,
        0,
    ));
    let c12 = ctx.future(combine(vec![(m3.clone(), 1.0), (m5, 1.0)], 0, 1));
    let c21 = ctx.future(combine(vec![(m2.clone(), 1.0), (m4, 1.0)], 1, 0));
    let c22 = ctx.future(combine(
        vec![(m1, 1.0), (m2, -1.0), (m3, 1.0), (m6, 1.0)],
        1,
        1,
    ));
    ctx.get(&c11);
    ctx.get(&c12);
    ctx.get(&c21);
    ctx.get(&c22);
    out
}

/// DSL run: multiplies the two seeded input matrices; returns the result.
pub fn strassen_run<C: TaskCtx>(ctx: &mut C, p: &StrassenParams) -> SharedArray<f64> {
    let (a, b) = inputs(p);
    let sa = ctx.shared_array(p.n * p.n, 0.0f64, "strassen.a");
    let sb = ctx.shared_array(p.n * p.n, 0.0f64, "strassen.b");
    for i in 0..p.n * p.n {
        sa.poke(i, a[i]); // input seeding
        sb.poke(i, b[i]);
    }
    mult(
        ctx,
        View::whole(sa, p.n),
        View::whole(sb, p.n),
        p.n,
        p.cutoff,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::detect_races_with_stats;
    use futrace_runtime::run_parallel;

    impl StrassenParams {
        /// Number of internal (recursing) nodes: `Σ 7^k` for the levels above
        /// the cutoff.
        fn internal_nodes(&self) -> u64 {
            let mut n = self.n;
            let mut level = 1u64;
            let mut total = 0u64;
            while n > self.cutoff {
                total += level;
                level *= 7;
                n /= 2;
            }
            total
        }
    }

    /// Expected dynamic task count: `11 × internal_nodes` (paper: 30,811).
    fn expected_tasks(p: &StrassenParams) -> u64 {
        11 * p.internal_nodes()
    }

    /// Expected non-tree joins: `12 × internal_nodes` (paper: 33,612).
    fn expected_nt_joins(p: &StrassenParams) -> u64 {
        12 * p.internal_nodes()
    }

    fn close(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-8)
    }

    #[test]
    fn paper_size_structural_counts() {
        let p = StrassenParams::paper();
        assert_eq!(p.internal_nodes(), 2801);
        assert_eq!(expected_tasks(&p), 30_811, "Table 2 #Tasks");
        assert_eq!(expected_nt_joins(&p), 33_612, "Table 2 #NTJoins");
    }

    #[test]
    fn strassen_seq_matches_classical() {
        let p = StrassenParams::tiny();
        let (a, b) = inputs(&p);
        let want = classical_seq(&a, &b, p.n);
        let got = strassen_seq(&a, &b, p.n, p.cutoff);
        assert!(close(&want, &got));
    }

    #[test]
    fn dsl_matches_classical_and_is_race_free() {
        let p = StrassenParams::tiny();
        let (a, b) = inputs(&p);
        let want = classical_seq(&a, &b, p.n);
        let (rep, stats) = detect_races_with_stats(|ctx| {
            let out = strassen_run(ctx, &p);
            assert!(close(&out.snapshot(), &want));
        });
        assert!(!rep.has_races());
        assert_eq!(stats.tasks, expected_tasks(&p));
        assert_eq!(stats.nt_joins(), expected_nt_joins(&p));
    }

    #[test]
    fn shared_products_have_parallel_readers() {
        // M1/M5 etc. are read by two parallel combiners: #AvgReaders > 0
        // and the max stored-reader count reaches 2.
        let p = StrassenParams::tiny();
        let (_, stats) = detect_races_with_stats(|ctx| {
            let _ = strassen_run(ctx, &p);
        });
        assert!(stats.readers_at_access.max().unwrap() >= 2);
    }

    #[test]
    fn cutoff_equal_n_is_pure_classical() {
        let p = StrassenParams {
            n: 8,
            cutoff: 8,
            seed: 3,
        };
        assert_eq!(p.internal_nodes(), 0);
        let (a, b) = inputs(&p);
        let want = classical_seq(&a, &b, p.n);
        let (rep, stats) = detect_races_with_stats(|ctx| {
            let out = strassen_run(ctx, &p);
            assert!(close(&out.snapshot(), &want));
        });
        assert!(!rep.has_races());
        assert_eq!(stats.tasks, 0);
    }

    #[test]
    fn parallel_execution_matches_classical() {
        let p = StrassenParams::tiny();
        let (a, b) = inputs(&p);
        let want = classical_seq(&a, &b, p.n);
        let got = run_parallel(4, |ctx| strassen_run(ctx, &p).snapshot()).unwrap();
        assert!(close(&got, &want));
    }
}
