//! Series — Fourier coefficient analysis (JGF benchmark suite).
//!
//! Computes the first `n` pairs of Fourier coefficients of
//! `f(x) = (x+1)^x` on `[0, 2]` by composite trapezoid integration. The
//! JGF kernel's parallel structure: coefficient pair 0 is computed by the
//! main task; every other pair is an independent task — `n − 1` dynamic
//! tasks, zero non-tree joins (Table 2: Series-af / Series-future rows).
//!
//! Per-task shared-memory traffic mirrors the HJ version: each task reads
//! the two shared problem parameters and writes its two coefficients
//! (4 accesses/task for the af variant). The future variant additionally
//! stores each future reference in a shared handle table (one write at
//! creation, one read before `get`), reproducing the paper's observation
//! that Series-future performs ≈ `2 × (n−1)` more shared accesses than
//! Series-af.

use futrace_runtime::memory::SharedArray;
use futrace_runtime::TaskCtx;

/// Problem size for the Series benchmark.
#[derive(Clone, Copy, Debug)]
pub struct SeriesParams {
    /// Number of coefficient pairs (JGF Size C = 1,000,000).
    pub n: usize,
    /// Trapezoid intervals per integration (JGF uses 1000).
    pub intervals: usize,
}

impl SeriesParams {
    /// The paper's configuration (JGF Size C).
    pub fn paper() -> Self {
        SeriesParams {
            n: 1_000_000,
            intervals: 1000,
        }
    }

    /// Laptop-scale configuration preserving the work-per-task ratio that
    /// makes Series' detection overhead negligible (slowdown ≈ 1.00×).
    pub fn scaled() -> Self {
        SeriesParams {
            n: 2_000,
            intervals: 1000,
        }
    }

    /// Bench-profiling configuration. [`SeriesParams::scaled`] keeps the
    /// JGF work-per-task ratio (1000 intervals ≈ 6000 `powf` calls per
    /// event), which is right for the Table-2 slowdown columns but makes
    /// per-event timing meaningless: the uninstrumented run is ~10⁴×
    /// slower than the detector per event. This profile inverts the
    /// ratio — many cheap tasks — so `dtrgperf`'s per-event medians
    /// measure the detector, not the kernel.
    pub(crate) fn perf() -> Self {
        SeriesParams {
            n: 20_000,
            intervals: 4,
        }
    }

    /// Minimal configuration for unit tests.
    pub fn tiny() -> Self {
        SeriesParams {
            n: 8,
            intervals: 40,
        }
    }
}

/// The function being analyzed, `(x+1)^x`, optionally multiplied by the
/// basis function `cos(ωnx)` (`select == 1`) or `sin(ωnx)` (`select == 2`).
fn the_function(x: f64, omega_n: f64, select: u32) -> f64 {
    match select {
        0 => (x + 1.0).powf(x),
        1 => (x + 1.0).powf(x) * (omega_n * x).cos(),
        _ => (x + 1.0).powf(x) * (omega_n * x).sin(),
    }
}

/// Composite trapezoid integration over `[lower, upper]`, as in JGF.
fn trapezoid_integrate(lower: f64, upper: f64, intervals: usize, omega_n: f64, select: u32) -> f64 {
    let dx = (upper - lower) / intervals as f64;
    let mut x = lower;
    let mut value = the_function(x, omega_n, select) / 2.0;
    for _ in 1..intervals {
        x += dx;
        value += the_function(x, omega_n, select);
    }
    value += the_function(upper, omega_n, select) / 2.0;
    value * dx
}

/// Computes coefficient pair `i` (the per-task kernel).
fn coefficient_pair(i: usize, intervals: usize) -> (f64, f64) {
    let omega = std::f64::consts::PI; // 2π / period, period = 2
    if i == 0 {
        (trapezoid_integrate(0.0, 2.0, intervals, 0.0, 0) / 2.0, 0.0)
    } else {
        let omega_n = omega * i as f64;
        (
            trapezoid_integrate(0.0, 2.0, intervals, omega_n, 1),
            trapezoid_integrate(0.0, 2.0, intervals, omega_n, 2),
        )
    }
}

/// Reference (serial-elision) implementation: returns `(a, b)` coefficient
/// vectors.
pub fn series_seq(p: &SeriesParams) -> (Vec<f64>, Vec<f64>) {
    let mut a = vec![0.0; p.n];
    let mut b = vec![0.0; p.n];
    for i in 0..p.n {
        let (ai, bi) = coefficient_pair(i, p.intervals);
        a[i] = ai;
        b[i] = bi;
    }
    (a, b)
}

/// Output arrays of a DSL run, for post-run verification.
pub struct SeriesOut {
    /// Cosine coefficients.
    pub a: SharedArray<f64>,
    /// Sine coefficients.
    pub b: SharedArray<f64>,
}

/// Async-finish variant (Series-af): `finish { for i in 1..n async … }`.
pub fn series_af<C: TaskCtx>(ctx: &mut C, p: &SeriesParams) -> SeriesOut {
    let a = ctx.shared_array(p.n, 0.0f64, "series.a");
    let b = ctx.shared_array(p.n, 0.0f64, "series.b");
    // Shared problem parameters, read by every task (2 reads/task).
    let param_n = ctx.shared_var(p.n as u64, "series.n");
    let param_iv = ctx.shared_var(p.intervals as u64, "series.intervals");

    let (a0, b0) = coefficient_pair(0, p.intervals);
    ctx.finish(|ctx| {
        for i in 1..p.n {
            let (a, b) = (a.clone(), b.clone());
            // The spawning task reads the shared parameters while
            // constructing the child (the HJ translation captures them in
            // the task object): 2 reads per task, but the reader set of
            // the parameter cells stays at one entry — the main task.
            let _n = param_n.read(ctx);
            let iv = param_iv.read(ctx) as usize;
            ctx.async_task(move |ctx| {
                let (ai, bi) = coefficient_pair(i, iv);
                a.write(ctx, i, ai);
                b.write(ctx, i, bi);
            });
        }
    });
    a.write(ctx, 0, a0);
    b.write(ctx, 0, b0);
    SeriesOut { a, b }
}

/// Future variant (Series-future): one future per coefficient pair, with
/// each handle stored to / loaded from a shared handle table (the extra
/// `2 × (n−1)` accesses the paper measures), then joined by the main task.
pub fn series_future<C: TaskCtx>(ctx: &mut C, p: &SeriesParams) -> SeriesOut {
    let a = ctx.shared_array(p.n, 0.0f64, "series.a");
    let b = ctx.shared_array(p.n, 0.0f64, "series.b");
    let param_n = ctx.shared_var(p.n as u64, "series.n");
    let param_iv = ctx.shared_var(p.intervals as u64, "series.intervals");
    // The shared heap slots the HJ version keeps future references in.
    let handle_table = ctx.shared_array(p.n.max(1), 0u32, "series.handles");

    let (a0, b0) = coefficient_pair(0, p.intervals);
    let mut handles = Vec::with_capacity(p.n.saturating_sub(1));
    for i in 1..p.n {
        let (a, b) = (a.clone(), b.clone());
        // Parameters are read by the spawning task (see series_af).
        let _n = param_n.read(ctx);
        let iv = param_iv.read(ctx) as usize;
        let h = ctx.future(move |ctx| {
            let (ai, bi) = coefficient_pair(i, iv);
            a.write(ctx, i, ai);
            b.write(ctx, i, bi);
        });
        handle_table.write(ctx, i, i as u32); // store the reference
        handles.push(h);
    }
    for (i, h) in handles.iter().enumerate() {
        let _ = handle_table.read(ctx, i + 1); // load the reference
        ctx.get(h);
    }
    a.write(ctx, 0, a0);
    b.write(ctx, 0, b0);
    SeriesOut { a, b }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::detect_races_with_stats;
    use futrace_runtime::{run_parallel, run_serial, NullMonitor};

    /// Expected dynamic task count for a given size (Table 2 column #Tasks):
    /// `n − 1`.
    fn expected_tasks(p: &SeriesParams) -> u64 {
        (p.n - 1) as u64
    }

    fn close(x: f64, y: f64) -> bool {
        (x - y).abs() < 1e-9
    }

    #[test]
    fn reference_first_coefficients() {
        // Validation values computed independently with Simpson quadrature
        // at 2M intervals: a0 = 2.8819181, a1 = 1.1340356, b1 = -1.8820903.
        let p = SeriesParams {
            n: 4,
            intervals: 1000,
        };
        let (a, b) = series_seq(&p);
        assert!((a[0] - 2.8819181).abs() < 1e-4, "a0 = {}", a[0]);
        assert!((a[1] - 1.1340356).abs() < 1e-4, "a1 = {}", a[1]);
        assert!((b[1] + 1.8820903).abs() < 1e-4, "b1 = {}", b[1]);
        assert_eq!(b[0], 0.0);
    }

    #[test]
    fn af_matches_reference() {
        let p = SeriesParams::tiny();
        let (ra, rb) = series_seq(&p);
        let mut mon = NullMonitor;
        let out = run_serial(&mut mon, |ctx| series_af(ctx, &p));
        for i in 0..p.n {
            assert!(close(out.a.peek(i), ra[i]), "a[{i}]");
            assert!(close(out.b.peek(i), rb[i]), "b[{i}]");
        }
    }

    #[test]
    fn future_matches_reference() {
        let p = SeriesParams::tiny();
        let (ra, rb) = series_seq(&p);
        let mut mon = NullMonitor;
        let out = run_serial(&mut mon, |ctx| series_future(ctx, &p));
        for i in 0..p.n {
            assert!(close(out.a.peek(i), ra[i]), "a[{i}]");
            assert!(close(out.b.peek(i), rb[i]), "b[{i}]");
        }
    }

    #[test]
    fn both_variants_race_free_with_expected_structure() {
        let p = SeriesParams::tiny();
        let (rep, stats) = detect_races_with_stats(|ctx| {
            series_af(ctx, &p);
        });
        assert!(!rep.has_races());
        assert_eq!(stats.tasks, expected_tasks(&p));
        assert_eq!(stats.nt_joins(), 0, "Series-af has zero non-tree joins");
        // 4 accesses per task (+ main's 2 writes for pair 0).
        assert_eq!(stats.shared_mem(), 4 * expected_tasks(&p) + 2);

        let (rep, stats) = detect_races_with_stats(|ctx| {
            series_future(ctx, &p);
        });
        assert!(!rep.has_races());
        assert_eq!(stats.tasks, expected_tasks(&p));
        assert_eq!(stats.nt_joins(), 0, "parent gets are tree joins");
        // +2 handle-table accesses per task relative to af.
        assert_eq!(stats.shared_mem(), 6 * expected_tasks(&p) + 2);
    }

    #[test]
    fn parallel_execution_matches_reference() {
        let p = SeriesParams::tiny();
        let (ra, _) = series_seq(&p);
        let out = run_parallel(4, |ctx| {
            let out = series_future(ctx, &p);
            out.a.snapshot()
        })
        .unwrap();
        for i in 0..p.n {
            assert!(close(out[i], ra[i]), "a[{i}]");
        }
    }
}
