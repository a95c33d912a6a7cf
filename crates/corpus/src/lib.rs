//! # futrace-corpus — fleet-scale batch analysis
//!
//! Turns "analyze a trace" into "operate a fleet of analyses": discover
//! every `.ftrc` under a directory, run one analyze job per trace ×
//! detector on a std-only worker pool with a `max_parallel` cap and a
//! continue-vs-abort failure policy, persist each job's outcome in a
//! CRC-framed manifest so a killed run resumes by skipping finished
//! work, and once the pool drains emit one deterministic JSON +
//! markdown report (agreement matrix vs the DTRG reference, verdict
//! drift, damaged-trace inventory, corpus percentiles).
//!
//! Layering note: this crate hosts the [`analyze`] front door, the
//! `Analyze` builder, next to the [`detectors`] registry it runs by name,
//! because corpus jobs run *every* detector and this is the lowest crate
//! that sees them all; `futrace-bench` (`tracetool`, the fuzzer) sits
//! above it, and the umbrella crate re-exports the builder as
//! `futrace::Analyze`. Every analysis here, as in `tracetool`, goes
//! through that builder.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod detectors;
pub(crate) mod discover;
pub(crate) mod manifest;
mod pool;
pub(crate) mod report;

pub use analyze::{Analyze, AnalyzeError, DetectorOutcome, DetectorRun};
use detectors::{is_detector, is_shardable};
use discover::TraceEntry;
use futrace_util::stats::Timer;
use manifest::{JobRecord, ManifestError, RecStatus, RunConfig, MANIFEST_FILE};
pub use pool::FailurePolicy;
use pool::{ExecPlan, JobId, JobStatus};
use report::CorpusReport;
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// File name of the deterministic JSON report inside the output dir.
pub(crate) const REPORT_JSON: &str = "report.json";
/// File name of the markdown report inside the output dir.
pub(crate) const REPORT_MD: &str = "report.md";

/// Options for one corpus run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorpusOptions {
    /// Detector names in run order. The reference is `dtrg` when
    /// present, else the first entry.
    pub detectors: Vec<String>,
    /// Worker-pool width (≥ 1).
    pub max_parallel: usize,
    /// Continue past failed jobs or abort the whole run on the first
    /// failure.
    pub policy: FailurePolicy,
    /// Shard count for shardable detectors (`dtrg`, `vc`); others always
    /// run serial. `None` = everything serial.
    pub shards: Option<usize>,
    /// Lenient trace reads: drop damaged chunks (CRC, payload or event
    /// count) instead of failing, and check a truncated trace up to its
    /// cut, by the rule every lenient reader applies.
    pub lenient: bool,
    /// Ignore (truncate) any existing manifest instead of resuming.
    pub fresh: bool,
    /// Suspend dispatch after this many analyze-job completions — the
    /// deterministic kill-midway hook for resume tests.
    pub stop_after_jobs: Option<u64>,
    /// Per-job wall-clock deadline: a job still running past it is
    /// recorded failed (`timed out after Nms`), and a fresh worker takes
    /// its slot, so at most `max_parallel` live jobs run and the rest of
    /// the corpus goes on past a wedged job. The runner is not killed:
    /// its late result is discarded, and the run ends only when it
    /// returns. `None` = no deadline.
    pub job_timeout: Option<std::time::Duration>,
    /// Re-queue a failed or timed-out job up to this many times before
    /// it settles failed (0 = the first strike settles).
    pub job_retries: u64,
    /// Output directory for manifest + reports (created if missing).
    pub out_dir: PathBuf,
}

impl CorpusOptions {
    /// Defaults: all detectors, serial, single worker, continue policy,
    /// strict reads, writing into `out_dir`.
    pub fn new(out_dir: impl Into<PathBuf>) -> Self {
        CorpusOptions {
            detectors: detectors::DETECTOR_NAMES
                .iter()
                .map(|s| s.to_string())
                .collect(),
            max_parallel: 1,
            policy: FailurePolicy::Continue,
            shards: None,
            lenient: false,
            fresh: false,
            stop_after_jobs: None,
            job_timeout: None,
            job_retries: 0,
            out_dir: out_dir.into(),
        }
    }
}

/// Any way a corpus run can fail before producing an outcome.
#[derive(Debug)]
pub enum CorpusError {
    /// Invalid option combination.
    Config(String),
    /// Discovery or output-dir filesystem error.
    Io(io::Error),
    /// The resume manifest exists but cannot be used (see
    /// `ManifestError`); `--fresh` discards it.
    Manifest(ManifestError),
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Config(msg) => write!(f, "invalid corpus options: {msg}"),
            CorpusError::Io(e) => write!(f, "corpus io error: {e}"),
            CorpusError::Manifest(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CorpusError {}

impl From<io::Error> for CorpusError {
    fn from(e: io::Error) -> Self {
        CorpusError::Io(e)
    }
}

impl From<ManifestError> for CorpusError {
    fn from(e: ManifestError) -> Self {
        CorpusError::Manifest(e)
    }
}

/// Corpus-level exit verdict, ordered by severity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExitVerdict {
    /// No races, no failures: exit 0.
    Clean,
    /// At least one analyze job failed or never completed (or the run
    /// aborted): exit 1.
    Damage,
    /// The reference detector found races in at least one trace: exit 3.
    Races,
}

impl ExitVerdict {
    /// Process exit code for the CLI.
    pub fn code(self) -> i32 {
        match self {
            ExitVerdict::Clean => 0,
            ExitVerdict::Damage => 1,
            ExitVerdict::Races => 3,
        }
    }
}

/// Everything a finished (or suspended) corpus run reports back.
#[derive(Debug)]
pub struct CorpusOutcome {
    /// Traces discovered.
    pub traces: usize,
    /// Jobs whose runner executed this run.
    pub jobs_ran: u64,
    /// Jobs skipped because the resume manifest already recorded them.
    pub jobs_skipped: u64,
    /// Retry dispatches absorbed by `--job-retries` this run.
    pub jobs_retried: u64,
    /// True iff `stop_after_jobs` suspended dispatch (no report then).
    pub suspended: bool,
    /// True iff the run aborted under [`FailurePolicy::Abort`].
    pub aborted: bool,
    /// The aggregate report (`None` when suspended).
    pub report: Option<CorpusReport>,
    /// Where the JSON report was written (`None` when suspended).
    pub report_json: Option<PathBuf>,
    /// Where the markdown report was written (`None` when suspended).
    pub report_md: Option<PathBuf>,
    /// Exit verdict (suspended runs report [`ExitVerdict::Clean`] — the
    /// stop was operator-requested, resume to finish).
    pub exit: ExitVerdict,
}

fn validate(opts: &CorpusOptions) -> Result<(), CorpusError> {
    if opts.detectors.is_empty() {
        return Err(CorpusError::Config("at least one detector required".into()));
    }
    for d in &opts.detectors {
        if !is_detector(d) {
            return Err(CorpusError::Config(format!("unknown detector {d:?}")));
        }
    }
    for (i, d) in opts.detectors.iter().enumerate() {
        if opts.detectors[..i].contains(d) {
            return Err(CorpusError::Config(format!("duplicate detector {d:?}")));
        }
    }
    if opts.max_parallel == 0 {
        return Err(CorpusError::Config("--max-parallel must be >= 1".into()));
    }
    if opts.shards == Some(0) {
        return Err(CorpusError::Config("--shards must be >= 1".into()));
    }
    Ok(())
}

/// Runs one detector over a trace blob along the configured path
/// (serial or sharded). Detectors that cannot shard run serially
/// whatever the options.
fn analyze_trace(name: &str, blob: &[u8], opts: &CorpusOptions) -> Result<DetectorOutcome, String> {
    let shards = opts.shards.filter(|_| is_shardable(name));
    let analysis = Analyze::trace_bytes(blob)
        .lenient(opts.lenient)
        .shards(shards);
    match analysis.run_named(name).map_err(|e| e.to_string())? {
        DetectorRun::Completed(out) => Ok(out),
        DetectorRun::Suspended { .. } => unreachable!("no stop_after requested"),
    }
}

/// Runs the whole corpus pipeline. See the module docs; this is the
/// only entry point the CLI needs.
pub fn run_corpus(root: &Path, opts: &CorpusOptions) -> Result<CorpusOutcome, CorpusError> {
    validate(opts)?;
    let traces = discover::discover(root)?;
    std::fs::create_dir_all(&opts.out_dir)?;

    let reference = if opts.detectors.iter().any(|d| d == "dtrg") {
        "dtrg".to_string()
    } else {
        opts.detectors[0].clone()
    };
    let config = RunConfig {
        detectors: opts.detectors.clone(),
        shards: opts.shards.unwrap_or(0) as u64,
        lenient: opts.lenient,
    };
    let manifest_path = opts.out_dir.join(MANIFEST_FILE);

    // Load (or start) the manifest; resumed records seed the store.
    let mut store: report::RecordMap = HashMap::new();
    let writer = if opts.fresh {
        manifest::ManifestWriter::create(&manifest_path, &config)?
    } else {
        match manifest::load(&manifest_path, &config)? {
            None => manifest::ManifestWriter::create(&manifest_path, &config)?,
            Some(m) => {
                for rec in m.records {
                    store.insert((rec.trace.clone(), rec.detector.clone()), rec);
                }
                manifest::ManifestWriter::open_append(&manifest_path, m.ignored_tail)?
            }
        }
    };
    // A record resumes its job only if the trace file is unchanged —
    // length AND content hash, so a same-size rewrite re-runs too. Stale
    // records are dropped so the report never mixes results from a
    // replaced trace file.
    store.retain(|(rel, _), rec| {
        traces
            .iter()
            .find(|t| &t.rel == rel)
            .is_some_and(|t| t.len == rec.trace_len && t.crc == rec.trace_crc)
    });

    // One analyze job per (trace, detector), numbered in discovery ×
    // detector order, which (with the pool's lowest-id dispatch) pins the
    // canonical --max-parallel 1 order.
    let jobs: Vec<(&TraceEntry, &String)> = traces
        .iter()
        .flat_map(|t| opts.detectors.iter().map(move |d| (t, d)))
        .collect();
    let preset = jobs
        .iter()
        .map(|(t, det)| {
            let rec = store.get(&(t.rel.clone(), det.to_string()))?;
            Some(match &rec.status {
                RecStatus::Ok => JobStatus::Ok,
                RecStatus::Failed(msg) => JobStatus::Failed(msg.clone()),
            })
        })
        .collect();
    let blank = |id: JobId, status: RecStatus| {
        let (t, det) = jobs[id];
        JobRecord {
            trace: t.rel.clone(),
            detector: det.clone(),
            trace_len: t.len,
            trace_crc: t.crc,
            status,
            racy: false,
            events: 0,
            cache_hits: 0,
            wall_ms: 0.0,
        }
    };

    let runner = |id: JobId| -> Result<JobRecord, String> {
        let (t, det) = jobs[id];
        let timer = Timer::start();
        let blob = std::fs::read(&t.path).map_err(|e| format!("cannot read trace: {e}"))?;
        let out = analyze_trace(det, &blob, opts)?;
        Ok(JobRecord {
            racy: out.report.has_races(),
            events: out.engine.events,
            cache_hits: out.engine.cache_hits,
            wall_ms: timer.elapsed_ms(),
            ..blank(id, RecStatus::Ok)
        })
    };
    // The pool calls this once per job it settles, with the live
    // attempt's outcome only, so the manifest and the store never see a
    // timed-out runner's late result.
    let store = Mutex::new(store);
    let writer = Mutex::new(writer);
    let record = |id: JobId, outcome: &Result<JobRecord, String>| -> Result<(), String> {
        let rec = match outcome {
            Ok(rec) => rec.clone(),
            Err(msg) => blank(id, RecStatus::Failed(msg.clone())),
        };
        writer
            .lock()
            .expect("the manifest writer is only locked to append")
            .append(&rec)
            .map_err(|e| format!("manifest append failed: {e}"))?;
        store
            .lock()
            .expect("the record store is only locked to insert")
            .insert((rec.trace.clone(), rec.detector.clone()), rec);
        Ok(())
    };

    let plan = ExecPlan {
        max_parallel: opts.max_parallel,
        policy: opts.policy,
        stop_after_jobs: opts.stop_after_jobs,
        job_timeout: opts.job_timeout,
        job_retries: opts.job_retries,
    };
    let run = pool::execute(&plan, preset, runner, record);
    let store = store
        .into_inner()
        .expect("the record store is only locked to insert");

    // A suspended run writes no report: resume to finish it.
    let report = (!run.suspended).then(|| {
        let rel_names: Vec<String> = traces.iter().map(|t| t.rel.clone()).collect();
        report::build(&rel_names, &opts.detectors, &reference, &store, run.aborted)
    });
    let (report_json, report_md) = match &report {
        Some(rep) => {
            let json_path = opts.out_dir.join(REPORT_JSON);
            let md_path = opts.out_dir.join(REPORT_MD);
            std::fs::write(&json_path, rep.to_json())?;
            std::fs::write(&md_path, rep.to_markdown(&run, &store))?;
            (Some(json_path), Some(md_path))
        }
        None => (None, None),
    };

    let exit = match &report {
        None => ExitVerdict::Clean,
        Some(r) if r.summary.racy_traces > 0 => ExitVerdict::Races,
        Some(r) if run.aborted || run.any_failed() || r.summary.analyze_missing > 0 => {
            ExitVerdict::Damage
        }
        Some(_) => ExitVerdict::Clean,
    };

    Ok(CorpusOutcome {
        traces: traces.len(),
        jobs_ran: run.ran,
        jobs_skipped: run.skipped,
        jobs_retried: run.retried,
        suspended: run.suspended,
        aborted: run.aborted,
        report,
        report_json,
        report_md,
        exit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_bad_options() {
        let base = CorpusOptions::new(std::env::temp_dir());
        let mut o = base.clone();
        o.detectors.clear();
        assert!(matches!(run_err(&o), CorpusError::Config(_)));
        let mut o = base.clone();
        o.detectors = vec!["banana".into()];
        assert!(matches!(run_err(&o), CorpusError::Config(_)));
        let mut o = base.clone();
        o.detectors = vec!["dtrg".into(), "dtrg".into()];
        assert!(matches!(run_err(&o), CorpusError::Config(_)));
        let mut o = base.clone();
        o.max_parallel = 0;
        assert!(matches!(run_err(&o), CorpusError::Config(_)));
        let mut o = base;
        o.shards = Some(0);
        assert!(matches!(run_err(&o), CorpusError::Config(_)));
    }

    fn run_err(opts: &CorpusOptions) -> CorpusError {
        validate(opts).unwrap_err()
    }

    #[test]
    fn empty_corpus_is_clean() {
        let root =
            std::env::temp_dir().join(format!("futrace_corpus_empty_{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        std::fs::create_dir_all(&root).unwrap();
        let mut opts = CorpusOptions::new(root.join("out"));
        opts.detectors = vec!["dtrg".into()];
        let out = run_corpus(&root, &opts).unwrap();
        assert_eq!(out.traces, 0);
        assert_eq!(out.exit, ExitVerdict::Clean);
        let rep = out.report.unwrap();
        assert_eq!(rep.traces, 0);
        assert!(rep.events_pct.is_none());
        std::fs::remove_dir_all(&root).ok();
    }
}
