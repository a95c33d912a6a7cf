//! Shared harness for the Table-2 reproduction and the microbenchmarks.
//!
//! `run_row` measures one benchmark exactly the way the paper does
//! (§5): `Seq` is the mean wall-clock time of the serial elision (the
//! plain-Rust reference implementation), `Racedet` is the mean wall-clock
//! time of a 1-processor (serial depth-first) execution under the DTRG
//! detector, and `Slowdown = Racedet / Seq`. The structural columns
//! (#Tasks, #NTJoins, #SharedMem, #AvgReaders) come from the detector's
//! counters of one instrumented run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// The named-detector registry lives in `futrace-corpus`, next to the
// `Analyze` builder that runs its detectors by name for `tracetool` and
// the fuzzer; this re-export keeps the long-standing
// `futrace_bench::detectors` path working.
pub use futrace_corpus::detectors;

pub mod fuzzdiff;
pub mod runner;
pub mod tracetool_cli;

use futrace_benchsuite::{crypt, jacobi, lu, pipeline, series, smithwaterman, sor, strassen};
use futrace_detector::RaceDetector;
use futrace_runtime::engine::{run_analysis_live, Engine};
use futrace_runtime::SerialCtx;
use futrace_util::stats::mean_time_ms;

/// Which parameter scale to run at.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Size {
    /// Unit-test scale (seconds for the whole table).
    Tiny,
    /// Laptop scale — the default; preserves each benchmark's
    /// work-per-task and topology character.
    Scaled,
    /// The paper's sizes (JGF Size C etc.). Hours of runtime and many GB
    /// of shadow memory; opt-in via `--paper`.
    Paper,
}

/// One row of the reproduced Table 2.
#[derive(Clone, Debug)]
pub struct Row {
    /// Benchmark name as in the paper.
    pub name: &'static str,
    /// Dynamic tasks created (#Tasks).
    pub tasks: u64,
    /// Non-tree joins (#NTJoins).
    pub nt_joins: u64,
    /// Shared-memory accesses (#SharedMem).
    pub shared_mem: u64,
    /// Mean stored readers per access (#AvgReaders).
    pub avg_readers: f64,
    /// Serial-elision mean time (ms).
    pub seq_ms: f64,
    /// Instrumented serial mean time (ms).
    pub racedet_ms: f64,
    /// Races detected (must be 0 — all Table-2 benchmarks are race-free).
    pub races: u64,
}

impl Row {
    /// The paper's Slowdown column.
    pub(crate) fn slowdown(&self) -> f64 {
        if self.seq_ms > 0.0 {
            self.racedet_ms / self.seq_ms
        } else {
            f64::NAN
        }
    }
}

/// Measures one row: `seq` runs the serial elision, `prog` runs the DSL
/// program (invoked under the detector through the engine driver).
pub(crate) fn run_row<F, G>(name: &'static str, reps: usize, mut seq: F, prog: G) -> Row
where
    F: FnMut(),
    G: Fn(&mut SerialCtx<Engine<RaceDetector>>) + Copy,
{
    let seq_ms = mean_time_ms(reps, &mut seq);
    // One instrumented run for the structural columns...
    let out = run_analysis_live(prog, RaceDetector::new());
    let stats = out.report.stats;
    let races = out.report.report.total_detected;
    // ...and timed instrumented runs for the Racedet column.
    let racedet_ms = mean_time_ms(reps, || {
        let out = run_analysis_live(prog, RaceDetector::new());
        std::hint::black_box(out.counters.checks());
    });
    Row {
        name,
        tasks: stats.tasks,
        nt_joins: stats.nt_joins(),
        shared_mem: stats.shared_mem(),
        avg_readers: stats.avg_readers(),
        seq_ms,
        racedet_ms,
        races,
    }
}

/// Parameter sets for a size.
pub(crate) fn series_params(size: Size) -> series::SeriesParams {
    match size {
        Size::Tiny => series::SeriesParams::tiny(),
        Size::Scaled => series::SeriesParams::scaled(),
        Size::Paper => series::SeriesParams::paper(),
    }
}

/// Crypt parameters for a size.
pub(crate) fn crypt_params(size: Size) -> crypt::CryptParams {
    match size {
        Size::Tiny => crypt::CryptParams::tiny(),
        Size::Scaled => crypt::CryptParams::scaled(),
        Size::Paper => crypt::CryptParams::paper(),
    }
}

/// Jacobi parameters for a size.
pub(crate) fn jacobi_params(size: Size) -> jacobi::JacobiParams {
    match size {
        Size::Tiny => jacobi::JacobiParams::tiny(),
        Size::Scaled => jacobi::JacobiParams::scaled(),
        Size::Paper => jacobi::JacobiParams::paper(),
    }
}

/// Smith-Waterman parameters for a size.
pub(crate) fn sw_params(size: Size) -> smithwaterman::SwParams {
    match size {
        Size::Tiny => smithwaterman::SwParams::tiny(),
        Size::Scaled => smithwaterman::SwParams::scaled(),
        Size::Paper => smithwaterman::SwParams::paper(),
    }
}

/// Strassen parameters for a size.
pub(crate) fn strassen_params(size: Size) -> strassen::StrassenParams {
    match size {
        Size::Tiny => strassen::StrassenParams::tiny(),
        Size::Scaled => strassen::StrassenParams::scaled(),
        Size::Paper => strassen::StrassenParams::paper(),
    }
}

/// Runs every Table-2 row at the given size. `filter` (substring) selects
/// a subset.
pub fn table2_rows(size: Size, reps: usize, filter: Option<&str>) -> Vec<Row> {
    let want = |name: &str| filter.map(|f| name.contains(f)).unwrap_or(true);
    let mut rows = Vec::new();

    if want("Series-af") {
        let p = series_params(size);
        rows.push(run_row(
            "Series-af",
            reps,
            || {
                std::hint::black_box(series::series_seq(&p));
            },
            move |ctx| {
                series::series_af(ctx, &p);
            },
        ));
    }
    if want("Series-future") {
        let p = series_params(size);
        rows.push(run_row(
            "Series-future",
            reps,
            || {
                std::hint::black_box(series::series_seq(&p));
            },
            move |ctx| {
                series::series_future(ctx, &p);
            },
        ));
    }
    if want("Crypt-af") {
        let p = crypt_params(size);
        rows.push(run_row(
            "Crypt-af",
            reps,
            || {
                std::hint::black_box(crypt::crypt_seq(&p));
            },
            move |ctx| {
                crypt::crypt_run(ctx, &p, crypt::CryptVariant::AsyncFinish);
            },
        ));
    }
    if want("Crypt-future") {
        let p = crypt_params(size);
        rows.push(run_row(
            "Crypt-future",
            reps,
            || {
                std::hint::black_box(crypt::crypt_seq(&p));
            },
            move |ctx| {
                crypt::crypt_run(ctx, &p, crypt::CryptVariant::Future);
            },
        ));
    }
    if want("Jacobi") {
        let p = jacobi_params(size);
        rows.push(run_row(
            "Jacobi",
            reps,
            || {
                std::hint::black_box(jacobi::jacobi_seq(&p));
            },
            move |ctx| {
                jacobi::jacobi_run(ctx, &p, false);
            },
        ));
    }
    if want("Smith-Waterman") {
        let p = sw_params(size);
        rows.push(run_row(
            "Smith-Waterman",
            reps,
            || {
                std::hint::black_box(smithwaterman::sw_seq(&p));
            },
            move |ctx| {
                smithwaterman::sw_run(ctx, &p, false);
            },
        ));
    }
    if want("Strassen") {
        let p = strassen_params(size);
        let (a, b) = strassen::inputs(&p);
        rows.push(run_row(
            "Strassen",
            reps,
            move || {
                std::hint::black_box(strassen::strassen_seq(&a, &b, p.n, p.cutoff));
            },
            move |ctx| {
                strassen::strassen_run(ctx, &p);
            },
        ));
    }
    rows
}

/// Extension rows beyond Table 2 (blocked LU, dataflow pipeline) — run
/// with `table2 --ext`.
pub fn extension_rows(size: Size, reps: usize, filter: Option<&str>) -> Vec<Row> {
    let want = |name: &str| filter.map(|f| name.contains(f)).unwrap_or(true);
    let mut rows = Vec::new();
    if want("BlockedLU") {
        let p = match size {
            Size::Tiny => lu::LuParams::tiny(),
            _ => lu::LuParams::scaled(),
        };
        rows.push(run_row(
            "BlockedLU",
            reps,
            || {
                std::hint::black_box(lu::lu_seq_blocked(&p));
            },
            move |ctx| {
                lu::lu_run(ctx, &p, false);
            },
        ));
    }
    if want("SOR") {
        let p = match size {
            Size::Tiny => sor::SorParams::tiny(),
            _ => sor::SorParams::scaled(),
        };
        rows.push(run_row(
            "SOR",
            reps,
            || {
                std::hint::black_box(sor::sor_seq(&p));
            },
            move |ctx| {
                sor::sor_run(ctx, &p, false);
            },
        ));
    }
    if want("Pipeline") {
        let p = match size {
            Size::Tiny => pipeline::PipelineParams::tiny(),
            _ => pipeline::PipelineParams::scaled(),
        };
        rows.push(run_row(
            "Pipeline",
            reps,
            || {
                std::hint::black_box(pipeline::pipeline_seq(&p));
            },
            move |ctx| {
                pipeline::pipeline_run(ctx, &p, false);
            },
        ));
    }
    rows
}

/// Serializes rows (plus derived slowdowns) as a JSON document.
///
/// Hand-rolled: the schema is a flat array of flat objects with numeric
/// and (escape-free, compile-time-known) string fields, so no JSON
/// dependency is warranted.
pub fn rows_to_json(rows: &[Row]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "  {{\"name\": \"{}\", \"tasks\": {}, \"nt_joins\": {}, ",
                "\"shared_mem\": {}, \"avg_readers\": {:.6}, \"seq_ms\": {:.3}, ",
                "\"racedet_ms\": {:.3}, \"slowdown\": {:.3}, \"races\": {}}}{}\n"
            ),
            r.name,
            r.tasks,
            r.nt_joins,
            r.shared_mem,
            r.avg_readers,
            r.seq_ms,
            r.racedet_ms,
            r.slowdown(),
            r.races,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push(']');
    out
}

/// Formats rows as the paper's Table 2.
pub fn format_table(rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:>12} {:>10} {:>14} {:>12} {:>12} {:>12} {:>9}\n",
        "Benchmark",
        "#Tasks",
        "#NTJoins",
        "#SharedMem",
        "#AvgReaders",
        "Seq(ms)",
        "Racedet(ms)",
        "Slowdown"
    ));
    out.push_str(&"-".repeat(103));
    out.push('\n');
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:>12} {:>10} {:>14} {:>12.3} {:>12.1} {:>12.1} {:>8.2}x\n",
            r.name,
            r.tasks,
            r.nt_joins,
            r.shared_mem,
            r.avg_readers,
            r.seq_ms,
            r.racedet_ms,
            r.slowdown()
        ));
    }
    out
}

/// Panics if any row detected races — every Table-2 and extension
/// benchmark is race-free, so a nonzero count means a detector or
/// benchmark regression.
pub fn assert_race_free(rows: &[Row]) {
    for r in rows {
        assert_eq!(r.races, 0, "{} must be race-free", r.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_table_has_seven_race_free_rows() {
        let rows = table2_rows(Size::Tiny, 1, None);
        assert_eq!(rows.len(), 7);
        for r in &rows {
            assert_eq!(r.races, 0, "{} must be race-free", r.name);
            assert!(r.tasks > 0, "{} creates tasks", r.name);
            assert!(r.shared_mem > 0);
        }
        // The af rows have zero non-tree joins; the dependence-driven
        // benchmarks have plenty.
        let by_name = |n: &str| rows.iter().find(|r| r.name == n).unwrap();
        assert_eq!(by_name("Series-af").nt_joins, 0);
        assert_eq!(by_name("Series-future").nt_joins, 0);
        assert_eq!(by_name("Crypt-af").nt_joins, 0);
        assert_eq!(by_name("Crypt-future").nt_joins, 0);
        assert!(by_name("Jacobi").nt_joins > 0);
        assert!(by_name("Smith-Waterman").nt_joins > 0);
        assert!(by_name("Strassen").nt_joins > 0);
    }

    #[test]
    fn filter_selects_subset() {
        let rows = table2_rows(Size::Tiny, 1, Some("Jacobi"));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].name, "Jacobi");
    }

    #[test]
    fn formatting_contains_all_columns() {
        let rows = table2_rows(Size::Tiny, 1, Some("Series-af"));
        let table = format_table(&rows);
        assert!(table.contains("#NTJoins"));
        assert!(table.contains("Series-af"));
        assert!(table.contains('x'));
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;

    #[test]
    fn extension_rows_are_race_free() {
        let rows = extension_rows(Size::Tiny, 1, None);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert_eq!(r.races, 0, "{}", r.name);
        }
        // LU and Pipeline exercise non-tree joins; SOR is pure async-finish.
        assert!(rows.iter().filter(|r| r.nt_joins > 0).count() == 2);
        assert_eq!(rows.iter().find(|r| r.name == "SOR").unwrap().nt_joins, 0);
    }

    #[test]
    fn json_output_is_wellformed_enough() {
        let rows = table2_rows(Size::Tiny, 1, Some("Series-af"));
        let json = rows_to_json(&rows);
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        assert!(json.contains("\"name\": \"Series-af\""));
        assert!(json.contains("\"slowdown\":"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
