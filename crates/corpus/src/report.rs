//! The corpus aggregate report: one deterministic JSON document plus a
//! human-oriented markdown rendering.
//!
//! Determinism contract (ISSUE 7 acceptance): the JSON must be
//! byte-identical across `--max-parallel` levels and across kill/resume,
//! so it contains only corpus facts — verdicts, agreement counts,
//! deterministic per-trace metrics (event counts, cache hits). Run
//! telemetry that legitimately varies between executions (wall-clock
//! percentiles, jobs run vs resumed-skipped) lives only in the markdown.

#![warn(missing_docs)]

use crate::manifest::{JobKind, JobRecord, RecStatus};
use futrace_util::stats::{percentiles_f64, percentiles_u64, Percentiles};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Cap on drift/damage entries listed in the report (totals are always
/// exact; the caps only bound the enumerations). Deterministic: entries
/// are sorted before truncation.
const MAX_LISTED: usize = 200;

/// Agreement of one non-reference detector against the reference, over
/// the traces where both produced a verdict.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MatrixRow {
    /// Detector name.
    pub detector: String,
    /// Both clean.
    pub agree_clean: u64,
    /// Both racy.
    pub agree_racy: u64,
    /// Detector racy, reference clean (over-report / false positive).
    pub over_report: u64,
    /// Detector clean, reference racy (under-report / miss).
    pub under_report: u64,
    /// Detector's analyze job failed on the trace.
    pub failed: u64,
    /// No record for the detector on the trace (cancelled / not run).
    pub missing: u64,
    /// Detector succeeded but the reference did not, so no comparison.
    pub no_reference: u64,
}

/// One trace where a detector's verdict differs from the reference's.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DriftEntry {
    /// Trace (relative path).
    pub trace: String,
    /// Disagreeing detector.
    pub detector: String,
    /// That detector's verdict.
    pub detector_racy: bool,
    /// The reference's verdict.
    pub reference_racy: bool,
}

/// One trace with at least one failed analyze job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DamagedTrace {
    /// Trace (relative path).
    pub trace: String,
    /// `(detector, error)` pairs, in detector run order.
    pub failures: Vec<(String, String)>,
}

/// Corpus-level verdict counts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Summary {
    /// Traces the reference detector found racy.
    pub racy_traces: u64,
    /// Traces the reference detector found clean (empty ones included).
    pub clean_traces: u64,
    /// Traces with ≥ 1 failed analyze job.
    pub damaged_traces: u64,
    /// Clean traces that held zero events (valid header, no chunks).
    pub empty_traces: u64,
    /// Traces where ≥ 1 detector disagreed with the reference.
    pub disagreeing_traces: u64,
    /// Analyze jobs that completed successfully.
    pub analyze_ok: u64,
    /// Analyze jobs that failed.
    pub analyze_failed: u64,
    /// Analyze jobs with no record at all (cancelled or never reached).
    pub analyze_missing: u64,
}

/// The aggregate report (see module docs for the determinism split).
#[derive(Clone, Debug)]
pub struct CorpusReport {
    /// Number of traces discovered.
    pub traces: u64,
    /// Detector run order.
    pub detectors: Vec<String>,
    /// The reference detector name.
    pub reference: String,
    /// True iff the run aborted under `--failure-policy abort`.
    pub aborted: bool,
    /// Verdict counts.
    pub summary: Summary,
    /// One row per non-reference detector, in run order.
    pub matrix: Vec<MatrixRow>,
    /// All drift pairs, sorted by (trace, detector order).
    pub drift: Vec<DriftEntry>,
    /// All damaged traces, sorted by trace.
    pub damaged: Vec<DamagedTrace>,
    /// Events-per-trace percentiles over reference-ok traces.
    pub events_pct: Option<Percentiles<u64>>,
    /// Cache-hit percentiles over ok `dtrg` analyze jobs (the only cached
    /// detector); `None` when dtrg is not in the run or nothing succeeded.
    pub cache_hits_pct: Option<Percentiles<u64>>,
}

/// Execution telemetry for the markdown rendering only (varies between
/// runs by design).
#[derive(Clone, Debug, Default)]
pub(crate) struct RunTelemetry {
    /// Jobs whose runner executed this run.
    pub jobs_ran: u64,
    /// Jobs skipped because a resume manifest already recorded them.
    pub jobs_skipped: u64,
    /// Retry dispatches absorbed by `--job-retries` this run.
    pub jobs_retried: u64,
    /// Wall-ms percentiles over this run's analyze jobs.
    pub wall_ms_pct: Option<Percentiles<f64>>,
}

/// Record store keyed by job identity.
pub(crate) type RecordMap = HashMap<(JobKind, String, String), JobRecord>;

/// Builds the aggregate from the settled record store.
///
/// `traces` must be in discovery order, `detectors` in run order; both
/// orders are reproduced verbatim in the report, which is what makes the
/// JSON byte-stable.
pub(crate) fn build(
    traces: &[String],
    detectors: &[String],
    reference: &str,
    records: &RecordMap,
    aborted: bool,
) -> CorpusReport {
    let analyze = |trace: &str, det: &str| {
        records.get(&(JobKind::Analyze, trace.to_string(), det.to_string()))
    };
    let mut summary = Summary::default();
    let mut matrix: Vec<MatrixRow> = detectors
        .iter()
        .filter(|d| d.as_str() != reference)
        .map(|d| MatrixRow {
            detector: d.clone(),
            ..MatrixRow::default()
        })
        .collect();
    let mut drift = Vec::new();
    let mut damaged = Vec::new();
    let mut events_samples = Vec::new();
    let mut cache_samples = Vec::new();

    for trace in traces {
        let ref_rec = analyze(trace, reference);
        let ref_verdict = match ref_rec {
            Some(r) if r.status == RecStatus::Ok => {
                events_samples.push(r.events);
                if r.racy {
                    summary.racy_traces += 1;
                } else {
                    summary.clean_traces += 1;
                    if r.events == 0 {
                        summary.empty_traces += 1;
                    }
                }
                Some(r.racy)
            }
            _ => None,
        };
        let mut failures = Vec::new();
        let mut disagreed = false;
        for det in detectors {
            let rec = analyze(trace, det);
            match rec {
                Some(r) if r.status == RecStatus::Ok => {
                    summary.analyze_ok += 1;
                    if det == "dtrg" {
                        cache_samples.push(r.cache_hits);
                    }
                }
                Some(r) => {
                    summary.analyze_failed += 1;
                    if let RecStatus::Failed(msg) = &r.status {
                        failures.push((det.clone(), msg.clone()));
                    }
                }
                None => summary.analyze_missing += 1,
            }
            if det == reference {
                continue;
            }
            let row = matrix
                .iter_mut()
                .find(|m| &m.detector == det)
                .expect("row per non-reference detector");
            match rec {
                Some(r) if r.status == RecStatus::Ok => match ref_verdict {
                    Some(ref_racy) => match (r.racy, ref_racy) {
                        (false, false) => row.agree_clean += 1,
                        (true, true) => row.agree_racy += 1,
                        (true, false) => row.over_report += 1,
                        (false, true) => row.under_report += 1,
                    },
                    None => row.no_reference += 1,
                },
                Some(_) => row.failed += 1,
                None => row.missing += 1,
            }
            if let (Some(r), Some(ref_racy)) = (rec, ref_verdict) {
                if r.status == RecStatus::Ok && r.racy != ref_racy {
                    disagreed = true;
                    drift.push(DriftEntry {
                        trace: trace.clone(),
                        detector: det.clone(),
                        detector_racy: r.racy,
                        reference_racy: ref_racy,
                    });
                }
            }
        }
        if disagreed {
            summary.disagreeing_traces += 1;
        }
        if !failures.is_empty() {
            summary.damaged_traces += 1;
            damaged.push(DamagedTrace {
                trace: trace.clone(),
                failures,
            });
        }
    }

    events_samples.sort_unstable();
    cache_samples.sort_unstable();
    CorpusReport {
        traces: traces.len() as u64,
        detectors: detectors.to_vec(),
        reference: reference.to_string(),
        aborted,
        summary,
        matrix,
        drift,
        damaged,
        events_pct: percentiles_u64(&events_samples),
        cache_hits_pct: percentiles_u64(&cache_samples),
    }
}

/// JSON string escaping (quotes, backslashes, control characters).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn pct_json(p: &Option<Percentiles<u64>>) -> String {
    match p {
        Some(p) => format!(
            "{{\"p50\": {}, \"p90\": {}, \"p99\": {}}}",
            p.p50, p.p90, p.p99
        ),
        None => "null".into(),
    }
}

impl CorpusReport {
    /// Renders the deterministic JSON document. Stable key order, no
    /// floats, no wall-clock data.
    pub(crate) fn to_json(&self) -> String {
        let mut o = String::new();
        o.push_str("{\n");
        o.push_str("  \"schema\": \"futrace-corpus-report-v1\",\n");
        let _ = writeln!(o, "  \"traces\": {},", self.traces);
        let dets: Vec<String> = self
            .detectors
            .iter()
            .map(|d| format!("\"{}\"", esc(d)))
            .collect();
        let _ = writeln!(o, "  \"detectors\": [{}],", dets.join(", "));
        let _ = writeln!(o, "  \"reference\": \"{}\",", esc(&self.reference));
        let _ = writeln!(o, "  \"aborted\": {},", self.aborted);
        let s = &self.summary;
        let _ = writeln!(
            o,
            "  \"summary\": {{\"racy_traces\": {}, \"clean_traces\": {}, \
             \"damaged_traces\": {}, \"empty_traces\": {}, \
             \"disagreeing_traces\": {}, \"analyze_ok\": {}, \
             \"analyze_failed\": {}, \"analyze_missing\": {}}},",
            s.racy_traces,
            s.clean_traces,
            s.damaged_traces,
            s.empty_traces,
            s.disagreeing_traces,
            s.analyze_ok,
            s.analyze_failed,
            s.analyze_missing
        );
        o.push_str("  \"agreement_matrix\": [\n");
        for (i, m) in self.matrix.iter().enumerate() {
            let _ = write!(
                o,
                "    {{\"detector\": \"{}\", \"agree_clean\": {}, \
                 \"agree_racy\": {}, \"over_report\": {}, \"under_report\": {}, \
                 \"failed\": {}, \"missing\": {}, \"no_reference\": {}}}",
                esc(&m.detector),
                m.agree_clean,
                m.agree_racy,
                m.over_report,
                m.under_report,
                m.failed,
                m.missing,
                m.no_reference
            );
            o.push_str(if i + 1 == self.matrix.len() { "\n" } else { ",\n" });
        }
        o.push_str("  ],\n");
        let _ = writeln!(o, "  \"drift\": {{\"total\": {}, \"entries\": [", self.drift.len());
        let listed = self.drift.len().min(MAX_LISTED);
        for (i, d) in self.drift[..listed].iter().enumerate() {
            let _ = write!(
                o,
                "    {{\"trace\": \"{}\", \"detector\": \"{}\", \
                 \"detector_racy\": {}, \"reference_racy\": {}}}",
                esc(&d.trace),
                esc(&d.detector),
                d.detector_racy,
                d.reference_racy
            );
            o.push_str(if i + 1 == listed { "\n" } else { ",\n" });
        }
        o.push_str("  ]},\n");
        let _ = writeln!(
            o,
            "  \"damaged\": {{\"total\": {}, \"entries\": [",
            self.damaged.len()
        );
        let listed = self.damaged.len().min(MAX_LISTED);
        for (i, d) in self.damaged[..listed].iter().enumerate() {
            let fails: Vec<String> = d
                .failures
                .iter()
                .map(|(det, err)| {
                    format!("{{\"detector\": \"{}\", \"error\": \"{}\"}}", esc(det), esc(err))
                })
                .collect();
            let _ = write!(
                o,
                "    {{\"trace\": \"{}\", \"failures\": [{}]}}",
                esc(&d.trace),
                fails.join(", ")
            );
            o.push_str(if i + 1 == listed { "\n" } else { ",\n" });
        }
        o.push_str("  ]},\n");
        let _ = writeln!(
            o,
            "  \"percentiles\": {{\"events\": {}, \"cache_hits\": {}}}",
            pct_json(&self.events_pct),
            pct_json(&self.cache_hits_pct)
        );
        o.push('}');
        o.push('\n');
        o
    }

    /// Renders the markdown report: the JSON facts plus this run's
    /// telemetry (wall-ms percentiles, resume stats).
    pub(crate) fn to_markdown(&self, telemetry: &RunTelemetry) -> String {
        let mut o = String::new();
        o.push_str("# Corpus report\n\n");
        let s = &self.summary;
        let _ = writeln!(
            o,
            "{} trace(s), {} detector(s), reference `{}`{}\n",
            self.traces,
            self.detectors.len(),
            self.reference,
            if self.aborted { " — **run aborted**" } else { "" }
        );
        o.push_str("## Summary\n\n");
        o.push_str("| metric | count |\n|---|---|\n");
        let _ = writeln!(o, "| racy traces (reference) | {} |", s.racy_traces);
        let _ = writeln!(o, "| clean traces | {} |", s.clean_traces);
        let _ = writeln!(o, "| empty traces (0 events) | {} |", s.empty_traces);
        let _ = writeln!(o, "| damaged traces | {} |", s.damaged_traces);
        let _ = writeln!(o, "| disagreeing traces | {} |", s.disagreeing_traces);
        let _ = writeln!(
            o,
            "| analyze jobs ok / failed / missing | {} / {} / {} |",
            s.analyze_ok, s.analyze_failed, s.analyze_missing
        );
        o.push_str("\n## Agreement matrix (vs reference)\n\n");
        o.push_str(
            "| detector | agree clean | agree racy | over-report | \
             under-report | failed | missing | no ref |\n\
             |---|---|---|---|---|---|---|---|\n",
        );
        for m in &self.matrix {
            let _ = writeln!(
                o,
                "| {} | {} | {} | {} | {} | {} | {} | {} |",
                m.detector,
                m.agree_clean,
                m.agree_racy,
                m.over_report,
                m.under_report,
                m.failed,
                m.missing,
                m.no_reference
            );
        }
        o.push_str("\n## Verdict drift\n\n");
        if self.drift.is_empty() {
            o.push_str("none — every detector matched the reference.\n");
        } else {
            let listed = self.drift.len().min(MAX_LISTED);
            for d in &self.drift[..listed] {
                let _ = writeln!(
                    o,
                    "- `{}`: `{}` says {}, reference says {}",
                    d.trace,
                    d.detector,
                    if d.detector_racy { "racy" } else { "clean" },
                    if d.reference_racy { "racy" } else { "clean" }
                );
            }
            if self.drift.len() > listed {
                let _ = writeln!(o, "- … and {} more", self.drift.len() - listed);
            }
        }
        o.push_str("\n## Damaged traces\n\n");
        if self.damaged.is_empty() {
            o.push_str("none.\n");
        } else {
            let listed = self.damaged.len().min(MAX_LISTED);
            for d in &self.damaged[..listed] {
                let what: Vec<String> = d
                    .failures
                    .iter()
                    .map(|(det, err)| format!("{det}: {err}"))
                    .collect();
                let _ = writeln!(o, "- `{}` — {}", d.trace, what.join("; "));
            }
            if self.damaged.len() > listed {
                let _ = writeln!(o, "- … and {} more", self.damaged.len() - listed);
            }
        }
        o.push_str("\n## Percentiles\n\n");
        o.push_str("| metric | p50 | p90 | p99 |\n|---|---|---|---|\n");
        if let Some(p) = &self.events_pct {
            let _ = writeln!(o, "| events / trace | {} | {} | {} |", p.p50, p.p90, p.p99);
        }
        if let Some(p) = &self.cache_hits_pct {
            let _ = writeln!(o, "| dtrg cache hits | {} | {} | {} |", p.p50, p.p90, p.p99);
        }
        if let Some(p) = &telemetry.wall_ms_pct {
            let _ = writeln!(
                o,
                "| wall ms / analyze job | {:.3} | {:.3} | {:.3} |",
                p.p50, p.p90, p.p99
            );
        }
        o.push_str("\n## Run telemetry (not in JSON)\n\n");
        let _ = writeln!(
            o,
            "jobs run: {}; resumed (skipped via manifest): {}; \
             retries absorbed: {}\n",
            telemetry.jobs_ran, telemetry.jobs_skipped, telemetry.jobs_retried
        );
        o
    }
}

/// Wall-ms percentiles over a record set (markdown telemetry).
pub(crate) fn wall_ms_percentiles(records: &RecordMap) -> Option<Percentiles<f64>> {
    let samples: Vec<f64> = records
        .values()
        .filter(|r| r.kind == JobKind::Analyze && r.status == RecStatus::Ok)
        .map(|r| r.wall_ms)
        .collect();
    percentiles_f64(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(trace: &str, det: &str, racy: bool, events: u64) -> ((JobKind, String, String), JobRecord) {
        (
            (JobKind::Analyze, trace.into(), det.into()),
            JobRecord {
                kind: JobKind::Analyze,
                trace: trace.into(),
                detector: det.into(),
                trace_len: 10,
                trace_crc: 0,
                status: RecStatus::Ok,
                racy,
                races: racy as u64,
                events,
                skipped_chunks: 0,
                cache_hits: events / 2,
                cache_misses: 1,
                wall_ms: 0.5,
                disagreeing: vec![],
                retries: 0,
            },
        )
    }

    fn failed(trace: &str, det: &str, msg: &str) -> ((JobKind, String, String), JobRecord) {
        let (k, mut r) = rec(trace, det, false, 0);
        r.status = RecStatus::Failed(msg.into());
        (k, r)
    }

    #[test]
    fn matrix_and_summary_account_for_every_trace() {
        let traces: Vec<String> = vec!["a.ftrc".into(), "b.ftrc".into(), "c.ftrc".into()];
        let detectors: Vec<String> = vec!["dtrg".into(), "espbags".into()];
        let mut records = RecordMap::new();
        // a: both clean; b: dtrg racy + espbags clean (under-report);
        // c: dtrg ok-clean-empty + espbags failed.
        for (k, v) in [
            rec("a.ftrc", "dtrg", false, 40),
            rec("a.ftrc", "espbags", false, 40),
            rec("b.ftrc", "dtrg", true, 60),
            rec("b.ftrc", "espbags", false, 60),
            rec("c.ftrc", "dtrg", false, 0),
            failed("c.ftrc", "espbags", "decode error"),
        ] {
            records.insert(k, v);
        }
        let rep = build(&traces, &detectors, "dtrg", &records, false);
        assert_eq!(rep.summary.racy_traces, 1);
        assert_eq!(rep.summary.clean_traces, 2);
        assert_eq!(rep.summary.empty_traces, 1);
        assert_eq!(rep.summary.damaged_traces, 1);
        assert_eq!(rep.summary.disagreeing_traces, 1);
        assert_eq!(rep.summary.analyze_ok, 5);
        assert_eq!(rep.summary.analyze_failed, 1);
        assert_eq!(rep.matrix.len(), 1, "reference excluded from matrix");
        let m = &rep.matrix[0];
        assert_eq!(
            (m.agree_clean, m.agree_racy, m.over_report, m.under_report, m.failed),
            (1, 0, 0, 1, 1)
        );
        assert_eq!(rep.drift.len(), 1);
        assert_eq!(rep.drift[0].trace, "b.ftrc");
        assert_eq!(rep.damaged.len(), 1);
        assert_eq!(rep.damaged[0].failures[0].0, "espbags");
        // Events percentiles over reference-ok traces: {0, 40, 60}.
        let p = rep.events_pct.unwrap();
        assert_eq!((p.p50, p.p99), (40, 60));
    }

    #[test]
    fn json_is_stable_and_escapes_strings() {
        let traces: Vec<String> = vec!["we\"ird\\name.ftrc".into()];
        let detectors: Vec<String> = vec!["dtrg".into()];
        let mut records = RecordMap::new();
        let (k, v) = failed("we\"ird\\name.ftrc", "dtrg", "line1\nline2");
        records.insert(k, v);
        let rep = build(&traces, &detectors, "dtrg", &records, false);
        let json = rep.to_json();
        assert_eq!(json, rep.to_json(), "rendering is a pure function");
        assert!(json.contains("we\\\"ird\\\\name.ftrc"));
        assert!(json.contains("line1\\nline2"));
        assert!(json.contains("\"schema\": \"futrace-corpus-report-v1\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn markdown_mentions_every_section() {
        let traces: Vec<String> = vec!["a.ftrc".into()];
        let detectors: Vec<String> = vec!["dtrg".into(), "vc".into()];
        let mut records = RecordMap::new();
        for (k, v) in [rec("a.ftrc", "dtrg", false, 5), rec("a.ftrc", "vc", false, 5)] {
            records.insert(k, v);
        }
        let rep = build(&traces, &detectors, "dtrg", &records, false);
        let md = rep.to_markdown(&RunTelemetry {
            jobs_ran: 3,
            jobs_skipped: 1,
            jobs_retried: 2,
            wall_ms_pct: None,
        });
        for section in [
            "# Corpus report",
            "## Summary",
            "## Agreement matrix",
            "## Verdict drift",
            "## Damaged traces",
            "## Percentiles",
            "## Run telemetry",
        ] {
            assert!(md.contains(section), "missing {section}");
        }
        assert!(md.contains("resumed (skipped via manifest): 1"));
    }
}
