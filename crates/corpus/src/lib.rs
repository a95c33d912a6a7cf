//! # futrace-corpus — fleet-scale batch analysis
//!
//! Turns "analyze a trace" into "operate a fleet of analyses": discover
//! every `.ftrc` under a directory, build a job DAG (per-trace ×
//! per-detector analyze jobs → a per-trace compare job → one final
//! aggregate job), execute it on a std-only worker pool with a
//! `max_parallel` cap and a continue-vs-abort failure policy, persist
//! per-job completion in a CRC-framed manifest so a killed run resumes
//! by skipping finished work, and emit one deterministic JSON +
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
pub mod dag;
pub mod detectors;
pub mod discover;
pub mod manifest;
pub mod report;

pub use analyze::{Analyze, AnalyzeError, DetectorOutcome, DetectorRun};
pub use dag::{Dag, DagRun, ExecPlan, FailurePolicy, JobId, JobStatus};
pub use discover::TraceEntry;
pub use manifest::{JobKind, JobRecord, ManifestError, RecStatus, RunConfig, MANIFEST_FILE};
pub use report::{CorpusReport, RunTelemetry};

use detectors::{is_detector, is_shardable};
use futrace_util::stats::Timer;
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// File name of the deterministic JSON report inside the output dir.
pub const REPORT_JSON: &str = "report.json";
/// File name of the markdown report inside the output dir.
pub const REPORT_MD: &str = "report.md";

/// Options for one corpus run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorpusOptions {
    /// Detector names in run order. The reference is `dtrg` when
    /// present, else the first entry.
    pub detectors: Vec<String>,
    /// Worker-pool width (≥ 1).
    pub max_parallel: usize,
    /// Continue past failed jobs (poisoning only their dependents) or
    /// abort the whole run on the first failure.
    pub policy: FailurePolicy,
    /// Shard count for shardable detectors (`dtrg`, `vc`); others always
    /// run serial. `None` = everything serial.
    pub shards: Option<usize>,
    /// Run shardable detectors under the fault-tolerant supervisor.
    pub supervised: bool,
    /// Lenient trace reads: drop damaged chunks (CRC, payload or event
    /// count) instead of failing, and check a truncated trace up to its
    /// cut, by the rule every lenient reader applies.
    pub lenient: bool,
    /// Ignore (truncate) any existing manifest instead of resuming.
    pub fresh: bool,
    /// Suspend dispatch after this many job completions — the
    /// deterministic kill-midway hook for resume tests.
    pub stop_after_jobs: Option<u64>,
    /// Per-job wall-clock deadline: a job still running past it is
    /// marked failed (its compare job poisoned) so one wedged trace
    /// cannot stall the corpus. `None` = no deadline.
    pub job_timeout: Option<std::time::Duration>,
    /// Re-queue a failed or timed-out job up to this many times before
    /// it settles failed and poisons its dependents (0 = first strike
    /// settles, the historical behavior).
    pub job_retries: u64,
    /// Output directory for manifest + reports (created if missing).
    pub out_dir: PathBuf,
}

impl CorpusOptions {
    /// Defaults: all detectors, serial, single worker, continue policy,
    /// strict reads, writing into `out_dir`.
    pub fn new(out_dir: impl Into<PathBuf>) -> Self {
        CorpusOptions {
            detectors: detectors::DETECTOR_NAMES.iter().map(|s| s.to_string()).collect(),
            max_parallel: 1,
            policy: FailurePolicy::Continue,
            shards: None,
            supervised: false,
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
    /// [`ManifestError`]); `--fresh` discards it.
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
    /// At least one job failed / was poisoned / never completed (or the
    /// run aborted): exit 1.
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
/// (serial / sharded / supervised). Detectors that cannot shard run
/// serially whatever the options.
fn analyze_trace(name: &str, blob: &[u8], opts: &CorpusOptions) -> Result<DetectorOutcome, String> {
    let shards = opts.shards.filter(|_| is_shardable(name));
    let analysis = Analyze::trace_bytes(blob)
        .lenient(opts.lenient)
        .shards(shards)
        .supervised(opts.supervised && shards.is_some());
    match analysis.run_named(name).map_err(|e| e.to_string())? {
        DetectorRun::Completed(out) => Ok(out),
        DetectorRun::Suspended { .. } => unreachable!("no stop_after requested"),
    }
}

enum JobSpec {
    Analyze { trace: usize, detector: usize },
    Compare { trace: usize },
    Aggregate,
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
        supervised: opts.supervised,
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
                    store.insert(
                        (rec.kind, rec.trace.clone(), rec.detector.clone()),
                        rec,
                    );
                }
                manifest::ManifestWriter::open_append(&manifest_path)?
            }
        }
    };

    // Build the DAG: analyze jobs per (trace, detector), one compare per
    // trace, one aggregate barrier over everything. Ids are assigned in
    // discovery × detector order, which (with the executor's lowest-id
    // dispatch) pins the canonical --max-parallel 1 order.
    let mut dag = Dag::new();
    let mut specs = Vec::new();
    let mut preset = Vec::new();
    let mut all_ids = Vec::new();
    // A record resumes a job only if the trace file is unchanged —
    // length AND content hash, so a same-size rewrite re-runs too.
    let preset_for = |kind: JobKind, trace: &TraceEntry, det: &str| -> Option<JobStatus> {
        let rec = store.get(&(kind, trace.rel.clone(), det.to_string()))?;
        if rec.trace_len != trace.len || rec.trace_crc != trace.crc {
            return None;
        }
        Some(match &rec.status {
            RecStatus::Ok => JobStatus::Ok,
            RecStatus::Failed(msg) => JobStatus::Failed(msg.clone()),
        })
    };
    for (ti, trace) in traces.iter().enumerate() {
        let mut analyze_ids = Vec::new();
        for (di, det) in opts.detectors.iter().enumerate() {
            let id = dag.add(format!("analyze {} [{det}]", trace.rel), &[]);
            specs.push(JobSpec::Analyze {
                trace: ti,
                detector: di,
            });
            preset.push(preset_for(JobKind::Analyze, trace, det));
            analyze_ids.push(id);
        }
        let id = dag.add(format!("compare {}", trace.rel), &analyze_ids);
        specs.push(JobSpec::Compare { trace: ti });
        preset.push(preset_for(JobKind::Compare, trace, ""));
        all_ids.extend(analyze_ids);
        all_ids.push(id);
    }
    let aggregate_id = dag.add_barrier("aggregate", &all_ids);
    specs.push(JobSpec::Aggregate);
    preset.push(None);

    // Drop stale records (changed length or content) so the report
    // never mixes results from a replaced trace file.
    store.retain(|(_, rel, _), rec| {
        traces
            .iter()
            .find(|t| &t.rel == rel)
            .is_some_and(|t| t.len == rec.trace_len && t.crc == rec.trace_crc)
    });

    let store = Mutex::new(store);
    let writer = Mutex::new(writer);
    let fresh_failure = AtomicBool::new(false);
    // Per-job runner invocations, so a retried job's manifest record
    // carries how many attempts its verdict absorbed.
    let invocations: Vec<std::sync::atomic::AtomicU64> =
        (0..dag.len()).map(|_| std::sync::atomic::AtomicU64::new(0)).collect();
    let report_slot: Mutex<Option<CorpusReport>> = Mutex::new(None);
    let rel_names: Vec<String> = traces.iter().map(|t| t.rel.clone()).collect();

    let record = |rec: JobRecord| -> Result<(), String> {
        let failed = matches!(rec.status, RecStatus::Failed(_));
        let err = match &rec.status {
            RecStatus::Failed(msg) => Some(msg.clone()),
            RecStatus::Ok => None,
        };
        writer
            .lock()
            .unwrap()
            .append(&rec)
            .map_err(|e| format!("manifest append failed: {e}"))?;
        store
            .lock()
            .unwrap()
            .insert((rec.kind, rec.trace.clone(), rec.detector.clone()), rec);
        if failed {
            Err(err.unwrap())
        } else {
            Ok(())
        }
    };

    let runner = |id: JobId| -> Result<(), String> {
        let prior_attempts = invocations[id].fetch_add(1, Ordering::SeqCst);
        match &specs[id] {
            JobSpec::Analyze { trace, detector } => {
                let t = &traces[*trace];
                let det = &opts.detectors[*detector];
                let timer = Timer::start();
                let mut rec = JobRecord {
                    kind: JobKind::Analyze,
                    trace: t.rel.clone(),
                    detector: det.clone(),
                    trace_len: t.len,
                    trace_crc: t.crc,
                    status: RecStatus::Ok,
                    racy: false,
                    races: 0,
                    events: 0,
                    skipped_chunks: 0,
                    cache_hits: 0,
                    cache_misses: 0,
                    wall_ms: 0.0,
                    disagreeing: vec![],
                    retries: prior_attempts,
                };
                let result = std::fs::read(&t.path)
                    .map_err(|e| format!("cannot read trace: {e}"))
                    .and_then(|blob| {
                        // A detector panic fails this job with its message,
                        // recorded like any other failure.
                        dag::catch_panic(|| analyze_trace(det, &blob, opts))
                    });
                match result {
                    Ok(out) => {
                        rec.racy = out.report.has_races();
                        rec.races = out.report.race_count();
                        rec.events = out.engine.events;
                        rec.skipped_chunks = out.engine.skipped_chunks;
                        rec.cache_hits = out.engine.cache_hits;
                        rec.cache_misses = out.engine.cache_misses;
                    }
                    Err(msg) => rec.status = RecStatus::Failed(msg),
                }
                rec.wall_ms = timer.elapsed_ms();
                if matches!(rec.status, RecStatus::Failed(_))
                    && opts.policy == FailurePolicy::Abort
                {
                    fresh_failure.store(true, Ordering::SeqCst);
                }
                record(rec)
            }
            JobSpec::Compare { trace } => {
                let t = &traces[*trace];
                let timer = Timer::start();
                let st = store.lock().unwrap();
                let get = |det: &str| {
                    st.get(&(JobKind::Analyze, t.rel.clone(), det.to_string()))
                        .cloned()
                };
                let ref_rec = get(&reference)
                    .ok_or_else(|| "reference analyze record missing".to_string())?;
                let mut disagreeing = Vec::new();
                for det in &opts.detectors {
                    let rec = get(det)
                        .ok_or_else(|| format!("analyze record for {det} missing"))?;
                    if rec.racy != ref_rec.racy {
                        disagreeing.push(det.clone());
                    }
                }
                drop(st);
                record(JobRecord {
                    kind: JobKind::Compare,
                    trace: t.rel.clone(),
                    detector: String::new(),
                    trace_len: t.len,
                    trace_crc: t.crc,
                    status: RecStatus::Ok,
                    racy: ref_rec.racy,
                    races: ref_rec.races,
                    events: ref_rec.events,
                    skipped_chunks: ref_rec.skipped_chunks,
                    cache_hits: 0,
                    cache_misses: 0,
                    wall_ms: timer.elapsed_ms(),
                    disagreeing,
                    retries: prior_attempts,
                })
            }
            JobSpec::Aggregate => {
                // Barrier: every other job has settled, so the store is
                // final. Build the deterministic report now.
                let st = store.lock().unwrap();
                let rep = report::build(
                    &rel_names,
                    &opts.detectors,
                    &reference,
                    &st,
                    fresh_failure.load(Ordering::SeqCst),
                );
                drop(st);
                *report_slot.lock().unwrap() = Some(rep);
                Ok(())
            }
        }
    };

    let plan = ExecPlan {
        max_parallel: opts.max_parallel,
        policy: opts.policy,
        stop_after_jobs: opts.stop_after_jobs,
        job_timeout: opts.job_timeout,
        job_retries: opts.job_retries,
    };
    let run = dag::execute(&dag, &plan, preset, runner);

    let report = report_slot.into_inner().unwrap();
    let suspended = run.suspended;
    debug_assert_eq!(
        report.is_some(),
        run.status[aggregate_id].is_ok(),
        "report exists iff the aggregate barrier ran"
    );

    let (report_json, report_md) = match &report {
        Some(rep) => {
            let json_path = opts.out_dir.join(REPORT_JSON);
            let md_path = opts.out_dir.join(REPORT_MD);
            std::fs::write(&json_path, rep.to_json())?;
            let telemetry = RunTelemetry {
                jobs_ran: run.ran,
                jobs_skipped: run.skipped,
                jobs_retried: run.retried,
                wall_ms_pct: report::wall_ms_percentiles(&store.lock().unwrap()),
            };
            std::fs::write(&md_path, rep.to_markdown(&telemetry))?;
            (Some(json_path), Some(md_path))
        }
        None => (None, None),
    };

    let exit = if suspended {
        ExitVerdict::Clean
    } else if report.as_ref().is_some_and(|r| r.summary.racy_traces > 0) {
        ExitVerdict::Races
    } else if run.aborted
        || run.any_failed()
        || report
            .as_ref()
            .is_some_and(|r| r.summary.analyze_missing > 0)
    {
        ExitVerdict::Damage
    } else {
        ExitVerdict::Clean
    };

    Ok(CorpusOutcome {
        traces: traces.len(),
        jobs_ran: run.ran,
        jobs_skipped: run.skipped,
        jobs_retried: run.retried,
        suspended,
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
        let root = std::env::temp_dir().join(format!("futrace_corpus_empty_{}", std::process::id()));
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
