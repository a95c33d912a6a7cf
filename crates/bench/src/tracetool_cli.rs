//! Argument parsing for the `tracetool` binary, kept out of the binary so
//! it is unit-testable (the old inline parser silently accepted unknown
//! benchmark names and only failed after flag processing).
//!
//! Conventions: unknown flags and missing values are errors (exit 2 via
//! the binary); `--bench` is validated against the benchsuite
//! [`registry`](futrace_benchsuite::registry) *at parse time* — as is
//! `--planted`, which only plantable workloads accept; when both
//! `--tiny` and `--scaled` appear, the last one wins (explicitly tested,
//! since scripts commonly append overrides).

use crate::detectors::{is_detector, is_shardable, DETECTOR_NAMES};
use futrace_benchsuite::registry;

/// A parsed `tracetool` invocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// `tracetool record …`
    Record(RecordArgs),
    /// `tracetool analyze …`
    Analyze(AnalyzeArgs),
    /// `tracetool compare …`
    Compare(CompareArgs),
    /// `tracetool info FILE`
    Info {
        /// Trace file to summarize.
        file: String,
    },
    /// `tracetool verify FILE`
    Verify {
        /// Trace file to fully validate.
        file: String,
    },
    /// `tracetool exec …`
    Exec(ExecArgs),
    /// `tracetool fuzz …`
    Fuzz(FuzzArgs),
    /// `tracetool corpus DIR …`
    Corpus(CorpusArgs),
    /// `tracetool serve --listen ADDR …`
    Serve(ServeArgs),
    /// `tracetool client ADDR FILE …` / `tracetool client ADDR --shutdown`
    Client(ClientArgs),
    /// `tracetool help` / `--help` / `-h`: print usage + exit-code table
    /// to stdout and exit 0 (unlike a usage *error*, which exits 2).
    Help,
}

/// Options for `tracetool record`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordArgs {
    /// Benchmark name (guaranteed to be a registry key).
    pub bench: String,
    /// Output trace path.
    pub out: String,
    /// Tiny input size (`--scaled` clears it; last flag wins).
    pub tiny: bool,
    /// Plant a determinacy race.
    pub planted: bool,
    /// Write the framed v2 format incrementally instead of buffering the
    /// whole event log.
    pub stream: bool,
    /// Target chunk payload size for `--stream` (bytes).
    pub chunk_bytes: Option<usize>,
    /// Seed for deterministic write-fault injection (`--stream` only):
    /// derives a [`futrace_util::faultinject::FaultPlan`] and wraps the
    /// sink in a `FaultyWriter`.
    pub inject: Option<u64>,
}

/// Options for `tracetool exec` (instrumented parallel execution with
/// online detection — no trace file anywhere).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecArgs {
    /// Benchmark name (guaranteed to be a registry key).
    pub bench: String,
    /// Executor worker threads (≥ 1).
    pub threads: usize,
    /// Detector to run online (currently only `dtrg`; validated at
    /// parse time).
    pub detector: String,
    /// Tiny input size (`--scaled` clears it; last flag wins, as in
    /// `record`).
    pub tiny: bool,
    /// Plant a determinacy race (plantable workloads only).
    pub planted: bool,
    /// Seed for randomized steal order (schedule exploration).
    pub steal_seed: Option<u64>,
}

/// Options for `tracetool analyze`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AnalyzeArgs {
    /// Trace file to analyze.
    pub file: String,
    /// Detector to run (guaranteed to be one of
    /// [`crate::detectors::DETECTOR_NAMES`]; defaults to `dtrg`).
    pub detector: String,
    /// Run the sharded offline pipeline with this many detect workers
    /// instead of the serial replay (loc-routable detectors only).
    pub shards: Option<usize>,
    /// Drop damaged framed chunks whole instead of aborting, and analyze
    /// the complete chunks before a truncation (serial or sharded).
    pub lenient: bool,
    /// Also rebuild the step-level computation graph.
    pub graph: bool,
    /// Write the computation graph as Graphviz to this path.
    pub dot: Option<String>,
    /// Seed for deterministic fault injection: read faults on the trace
    /// file plus worker panic/stall faults in the supervised pipeline.
    pub inject: Option<u64>,
    /// Barrier-snapshot every N chunk boundaries (supervised pipeline).
    /// When absent but `--inject` is given on a framed trace, the tool
    /// defaults an interval so the replay buffer stays bounded.
    pub checkpoint_every: Option<u64>,
    /// Write a resumable checkpoint to this path when the run suspends.
    pub checkpoint: Option<String>,
    /// Resume from a checkpoint file written by an earlier `--checkpoint`
    /// run.
    pub resume: Option<String>,
    /// Suspend after this many trace chunks (absolute count; requires
    /// `--checkpoint` to receive the snapshot).
    pub stop_after: Option<u64>,
}

impl AnalyzeArgs {
    /// True iff any fault-tolerance flag was given, which routes the run
    /// through the supervised pipeline instead of the plain sharded one.
    pub fn supervised(&self) -> bool {
        self.inject.is_some()
            || self.checkpoint_every.is_some()
            || self.checkpoint.is_some()
            || self.resume.is_some()
            || self.stop_after.is_some()
    }
}

/// Options for `tracetool fuzz` (the differential fuzzing mode; see
/// `crate::fuzzdiff`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuzzArgs {
    /// Programs per fuzzing batch.
    pub programs: u32,
    /// Base seed (batch `k` of a time-budgeted run derives its own seed).
    pub seed: u64,
    /// Program-generator preset: `nontree` (default), `future-heavy`, or
    /// `default`.
    pub gen: String,
    /// Directory receiving minimized counterexample traces.
    pub out_dir: String,
    /// Keep fuzzing fresh batches until this many seconds have elapsed.
    pub time_budget_secs: Option<u64>,
    /// Test-only fault injection: invert the named detector's verdict so
    /// the disagreement/shrink/repro pipeline can be exercised end to end.
    pub break_detector: Option<String>,
}

/// Options for `tracetool corpus` (DAG-scheduled batch analysis over a
/// directory of traces; see `futrace_corpus`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorpusArgs {
    /// Corpus root directory (every `*.ftrc` under it, recursively).
    pub dir: String,
    /// Output directory for the manifest and reports. Defaults to
    /// `<dir>/corpus-out` in the binary when absent.
    pub out: Option<String>,
    /// Detectors to run per trace, in order (each valid and unique;
    /// defaults to all of [`crate::detectors::DETECTOR_NAMES`]).
    pub detectors: Vec<String>,
    /// Worker-pool width (≥ 1; default 1).
    pub max_parallel: usize,
    /// `--failure-policy abort`: stop the whole run on the first failed
    /// job instead of poisoning only its dependents.
    pub abort: bool,
    /// Shard count for shardable detectors' analyze jobs.
    pub shards: Option<usize>,
    /// Run shardable detectors under the fault-tolerant supervisor
    /// (requires `--shards`).
    pub supervised: bool,
    /// Skip damaged framed chunks instead of failing the analyze job.
    pub lenient: bool,
    /// Discard any existing resume manifest and start over.
    pub fresh: bool,
    /// Suspend dispatch after N completed jobs (kill-midway hook for
    /// resume testing; the run exits 0 and resumes on the next call).
    pub stop_after_jobs: Option<u64>,
    /// Fail any single job that runs longer than this many milliseconds
    /// (its dependents are poisoned); absent = no deadline.
    pub job_timeout_ms: Option<u64>,
    /// Re-queue a failed or timed-out job up to this many times before it
    /// settles `Failed` and poisons its dependents (default 0).
    pub job_retries: u64,
}

/// Options for `tracetool serve` (the analysis daemon).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeArgs {
    /// Listen address (`host:port`; port 0 picks one and prints it).
    pub listen: String,
    /// Worker threads — concurrently analyzed sessions (default 4).
    pub workers: usize,
    /// Accepted-but-unclaimed connections queued before `accept` blocks
    /// (default 16).
    pub queue_depth: usize,
    /// Directory for per-session FCKP checkpoint files (default `.`).
    pub checkpoint_dir: Option<String>,
    /// Reopen matching checkpoint files when sessions reconnect.
    pub resume: bool,
    /// Suspend a session to its checkpoint after this much client
    /// silence instead of letting it pin a worker forever.
    pub idle_timeout_ms: Option<u64>,
    /// Per-frame socket write deadline (default 30 000; a stalled reader
    /// cannot wedge a worker past it).
    pub io_deadline_ms: Option<u64>,
    /// Live-session quota: an `Open` past it is shed with `Busy`
    /// (absent = unlimited).
    pub max_sessions: Option<usize>,
    /// Seed for per-connection network fault injection (chaos testing).
    pub inject_net: Option<u64>,
}

/// Options for `tracetool client` (streams a trace to a daemon).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClientArgs {
    /// Daemon address (`host:port`).
    pub addr: String,
    /// Trace file to stream (absent only with `--shutdown`).
    pub file: Option<String>,
    /// Ask the daemon to checkpoint the session every N chunks.
    pub checkpoint_every: Option<u64>,
    /// Skip damaged framed chunks instead of failing, as `analyze
    /// --lenient` does.
    pub lenient: bool,
    /// Session name keying the daemon-side checkpoint file (defaults to
    /// the trace file's basename).
    pub name: Option<String>,
    /// Re-chunk the trace to this many events per chunk before sending.
    pub chunk_events: Option<usize>,
    /// Send `Suspend` after this many chunks instead of finishing.
    pub suspend_after: Option<u64>,
    /// Ask the daemon to drain and exit instead of streaming a trace.
    pub shutdown: bool,
    /// Reconnect attempts after a torn connection or `Busy` shed
    /// (default 0: fail on the first fault).
    pub retries: u32,
    /// Wall-clock cap in milliseconds across all reconnect attempts.
    pub retry_budget_ms: Option<u64>,
    /// Seed for per-attempt network fault injection (chaos testing).
    pub inject_net: Option<u64>,
}

/// Options for `tracetool compare`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompareArgs {
    /// Trace file to analyze.
    pub file: String,
    /// Detectors to run, in order (each valid and unique; defaults to all
    /// of [`crate::detectors::DETECTOR_NAMES`]).
    pub detectors: Vec<String>,
    /// Skip damaged framed chunks instead of aborting.
    pub lenient: bool,
}

fn value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> Result<&'a str, String> {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} requires a value"))
}

/// Parses `--inject`'s seed: any u64, but nothing else (a mistyped seed
/// must not silently become a different fault plan).
fn parse_seed(args: &[String], i: &mut usize) -> Result<u64, String> {
    parse_seed_flag(args, i, "--inject")
}

fn parse_seed_flag(args: &[String], i: &mut usize, flag: &'static str) -> Result<u64, String> {
    let v = value(args, i, flag)?;
    v.parse::<u64>()
        .map_err(|_| format!("{flag}: invalid seed `{v}` (expected an unsigned 64-bit integer)"))
}

fn parse_positive_u64(args: &[String], i: &mut usize, flag: &'static str) -> Result<u64, String> {
    let v = value(args, i, flag)?;
    let n: u64 = v
        .parse()
        .map_err(|_| format!("{flag}: invalid count `{v}` (expected a positive integer)"))?;
    if n == 0 {
        return Err(format!("{flag} must be at least 1"));
    }
    Ok(n)
}

fn validate_bench(name: &str) -> Result<String, String> {
    if registry::find(name).is_none() {
        return Err(format!(
            "unknown benchmark `{name}` (expected one of: {})",
            registry::names().join(", ")
        ));
    }
    Ok(name.to_string())
}

fn validate_planted(bench: &str, planted: bool) -> Result<(), String> {
    if planted && !registry::find(bench).expect("validated above").plantable {
        return Err(format!(
            "benchmark `{bench}` has no planted-race variant; drop --planted"
        ));
    }
    Ok(())
}

fn parse_record(args: &[String]) -> Result<RecordArgs, String> {
    let mut bench = None;
    let mut out = None;
    let mut tiny = true;
    let mut planted = false;
    let mut stream = false;
    let mut chunk_bytes = None;
    let mut inject = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--bench" => bench = Some(validate_bench(value(args, &mut i, "--bench")?)?),
            "--out" => out = Some(value(args, &mut i, "--out")?.to_string()),
            "--tiny" => tiny = true,
            "--scaled" => tiny = false,
            "--planted" => planted = true,
            "--stream" => stream = true,
            "--chunk-bytes" => {
                let v = value(args, &mut i, "--chunk-bytes")?;
                chunk_bytes = Some(
                    v.parse::<usize>()
                        .map_err(|_| format!("--chunk-bytes: invalid byte count `{v}`"))?,
                );
            }
            "--inject" => inject = Some(parse_seed(args, &mut i)?),
            other => return Err(format!("record: unknown argument `{other}`")),
        }
        i += 1;
    }
    if chunk_bytes.is_some() && !stream {
        return Err("--chunk-bytes only applies to --stream recording".into());
    }
    if inject.is_some() && !stream {
        return Err("--inject only applies to --stream recording".into());
    }
    let bench = bench.ok_or("record: --bench is required")?;
    validate_planted(&bench, planted)?;
    let out = out.ok_or("record: --out is required")?;
    Ok(RecordArgs {
        bench,
        out,
        tiny,
        planted,
        stream,
        chunk_bytes,
        inject,
    })
}

fn parse_shards(args: &[String], i: &mut usize) -> Result<usize, String> {
    let v = value(args, i, "--shards")?;
    let n: usize = v
        .parse()
        .map_err(|_| format!("--shards: invalid count `{v}` (expected a positive integer)"))?;
    if n == 0 {
        return Err("--shards must be at least 1".into());
    }
    Ok(n)
}

fn validate_detector(name: &str) -> Result<String, String> {
    if is_detector(name) {
        Ok(name.to_string())
    } else {
        Err(format!(
            "unknown detector `{name}` (expected one of: {})",
            DETECTOR_NAMES.join(", ")
        ))
    }
}

fn parse_analyze(args: &[String]) -> Result<AnalyzeArgs, String> {
    let mut file = None;
    let mut detector = "dtrg".to_string();
    let mut shards = None;
    let mut lenient = false;
    let mut graph = false;
    let mut dot = None;
    let mut inject = None;
    let mut checkpoint_every = None;
    let mut checkpoint = None;
    let mut resume = None;
    let mut stop_after = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--detector" => detector = validate_detector(value(args, &mut i, "--detector")?)?,
            "--shards" => shards = Some(parse_shards(args, &mut i)?),
            "--lenient" => lenient = true,
            "--graph" => graph = true,
            "--dot" => {
                dot = Some(value(args, &mut i, "--dot")?.to_string());
                graph = true;
            }
            "--inject" => inject = Some(parse_seed(args, &mut i)?),
            "--checkpoint-every" => {
                checkpoint_every = Some(parse_positive_u64(args, &mut i, "--checkpoint-every")?)
            }
            "--checkpoint" => checkpoint = Some(value(args, &mut i, "--checkpoint")?.to_string()),
            "--resume" => resume = Some(value(args, &mut i, "--resume")?.to_string()),
            "--stop-after" => {
                stop_after = Some(parse_positive_u64(args, &mut i, "--stop-after")?)
            }
            f if !f.starts_with('-') && file.is_none() => file = Some(f.to_string()),
            other => return Err(format!("analyze: unknown argument `{other}`")),
        }
        i += 1;
    }
    if graph && shards.is_some() {
        return Err("--graph/--dot require the serial path; drop --shards".into());
    }
    if graph && detector != "dtrg" {
        return Err("--graph/--dot only apply to the dtrg detector".into());
    }
    if shards.is_some() && !is_shardable(&detector) {
        return Err(format!(
            "detector `{detector}` needs the global access order and cannot run sharded; \
             drop --shards (shardable: dtrg, vc)"
        ));
    }
    let supervised_flag = inject.is_some()
        || checkpoint_every.is_some()
        || checkpoint.is_some()
        || resume.is_some()
        || stop_after.is_some();
    if supervised_flag && !is_shardable(&detector) {
        return Err(format!(
            "detector `{detector}` cannot run under the supervised pipeline; \
             --inject/--checkpoint*/--resume/--stop-after need a shardable detector (dtrg, vc)"
        ));
    }
    if supervised_flag && graph {
        return Err("--graph/--dot require the serial path; drop the fault-tolerance flags".into());
    }
    if stop_after.is_some() && checkpoint.is_none() {
        return Err("--stop-after needs --checkpoint FILE to receive the snapshot".into());
    }
    Ok(AnalyzeArgs {
        file: file.ok_or("analyze: trace file is required")?,
        detector,
        shards,
        lenient,
        graph,
        dot,
        inject,
        checkpoint_every,
        checkpoint,
        resume,
        stop_after,
    })
}

fn parse_exec(args: &[String]) -> Result<ExecArgs, String> {
    let mut bench = None;
    let mut threads = None;
    let mut detector = "dtrg".to_string();
    let mut tiny = true;
    let mut planted = false;
    let mut steal_seed = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--bench" => bench = Some(validate_bench(value(args, &mut i, "--bench")?)?),
            "--threads" => {
                let n = parse_positive_u64(args, &mut i, "--threads")?;
                threads = Some(
                    usize::try_from(n)
                        .map_err(|_| format!("--threads: `{n}` exceeds the usize range"))?,
                );
            }
            "--detector" => detector = validate_detector(value(args, &mut i, "--detector")?)?,
            "--tiny" => tiny = true,
            "--scaled" => tiny = false,
            "--planted" => planted = true,
            "--steal-seed" => {
                steal_seed = Some(parse_seed_flag(args, &mut i, "--steal-seed")?)
            }
            other => return Err(format!("exec: unknown argument `{other}`")),
        }
        i += 1;
    }
    if detector != "dtrg" {
        return Err(format!(
            "detector `{detector}` cannot run online; exec currently supports dtrg \
             (use `record` + `analyze` for replay-only detectors)"
        ));
    }
    let bench = bench.ok_or("exec: --bench is required")?;
    validate_planted(&bench, planted)?;
    Ok(ExecArgs {
        bench,
        threads: threads.ok_or("exec: --threads N is required")?,
        detector,
        tiny,
        planted,
        steal_seed,
    })
}

/// The detector panel of `compare` and `corpus`, named by any mix of
/// `--detector NAME` and `--detectors A,B,…` arguments.
#[derive(Default)]
struct DetectorList(Vec<String>);

impl DetectorList {
    /// Parses the `--detector` or `--detectors` argument at `args[*i]`.
    fn parse(&mut self, args: &[String], i: &mut usize) -> Result<(), String> {
        if args[*i] == "--detectors" {
            for name in value(args, i, "--detectors")?.split(',') {
                self.0.push(validate_detector(name.trim())?);
            }
        } else {
            self.0.push(validate_detector(value(args, i, "--detector")?)?);
        }
        Ok(())
    }

    /// The named detectors, or all of them when none was named; `command`
    /// prefixes the error for a detector named twice.
    fn finish(self, command: &str) -> Result<Vec<String>, String> {
        if self.0.is_empty() {
            return Ok(DETECTOR_NAMES.iter().map(|s| s.to_string()).collect());
        }
        for (k, d) in self.0.iter().enumerate() {
            if self.0[..k].contains(d) {
                return Err(format!("{command}: detector `{d}` listed twice"));
            }
        }
        Ok(self.0)
    }
}

fn parse_compare(args: &[String]) -> Result<CompareArgs, String> {
    let mut file = None;
    let mut detectors = DetectorList::default();
    let mut lenient = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--detector" | "--detectors" => detectors.parse(args, &mut i)?,
            "--lenient" => lenient = true,
            f if !f.starts_with('-') && file.is_none() => file = Some(f.to_string()),
            other => return Err(format!("compare: unknown argument `{other}`")),
        }
        i += 1;
    }
    let detectors = detectors.finish("compare")?;
    Ok(CompareArgs {
        file: file.ok_or("compare: trace file is required")?,
        detectors,
        lenient,
    })
}

fn parse_fuzz(args: &[String]) -> Result<FuzzArgs, String> {
    let mut programs: u32 = 256;
    let mut seed: u64 = 7;
    let mut gen = "nontree".to_string();
    let mut out_dir = ".".to_string();
    let mut time_budget_secs = None;
    let mut break_detector = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--programs" => {
                let n = parse_positive_u64(args, &mut i, "--programs")?;
                programs = u32::try_from(n)
                    .map_err(|_| format!("--programs: `{n}` exceeds the u32 range"))?;
            }
            "--seed" => {
                let v = value(args, &mut i, "--seed")?;
                seed = v.parse::<u64>().map_err(|_| {
                    format!("--seed: invalid seed `{v}` (expected an unsigned 64-bit integer)")
                })?;
            }
            "--gen" => {
                let v = value(args, &mut i, "--gen")?;
                if !matches!(v, "nontree" | "future-heavy" | "default") {
                    return Err(format!(
                        "--gen: unknown preset `{v}` (expected nontree, future-heavy, or default)"
                    ));
                }
                gen = v.to_string();
            }
            "--out-dir" => out_dir = value(args, &mut i, "--out-dir")?.to_string(),
            "--time-budget-secs" => {
                time_budget_secs = Some(parse_positive_u64(args, &mut i, "--time-budget-secs")?)
            }
            "--break-detector" => {
                break_detector = Some(validate_detector(value(args, &mut i, "--break-detector")?)?)
            }
            other => return Err(format!("fuzz: unknown argument `{other}`")),
        }
        i += 1;
    }
    Ok(FuzzArgs {
        programs,
        seed,
        gen,
        out_dir,
        time_budget_secs,
        break_detector,
    })
}

fn parse_corpus(args: &[String]) -> Result<CorpusArgs, String> {
    let mut dir = None;
    let mut out = None;
    let mut detectors = DetectorList::default();
    let mut max_parallel: usize = 1;
    let mut abort = false;
    let mut shards = None;
    let mut supervised = false;
    let mut lenient = false;
    let mut fresh = false;
    let mut stop_after_jobs = None;
    let mut job_timeout_ms = None;
    let mut job_retries = 0u64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => out = Some(value(args, &mut i, "--out")?.to_string()),
            "--detector" | "--detectors" => detectors.parse(args, &mut i)?,
            "--max-parallel" => {
                let n = parse_positive_u64(args, &mut i, "--max-parallel")?;
                max_parallel = usize::try_from(n)
                    .map_err(|_| format!("--max-parallel: `{n}` exceeds the usize range"))?;
            }
            "--failure-policy" => match value(args, &mut i, "--failure-policy")? {
                "continue" => abort = false,
                "abort" => abort = true,
                other => {
                    return Err(format!(
                        "--failure-policy: unknown policy `{other}` (expected continue or abort)"
                    ))
                }
            },
            "--shards" => shards = Some(parse_shards(args, &mut i)?),
            "--supervised" => supervised = true,
            "--lenient" => lenient = true,
            "--fresh" => fresh = true,
            "--stop-after-jobs" => {
                stop_after_jobs = Some(parse_positive_u64(args, &mut i, "--stop-after-jobs")?)
            }
            "--job-timeout-ms" => {
                job_timeout_ms = Some(parse_positive_u64(args, &mut i, "--job-timeout-ms")?)
            }
            "--job-retries" => {
                job_retries = parse_positive_u64(args, &mut i, "--job-retries")?
            }
            d if !d.starts_with('-') && dir.is_none() => dir = Some(d.to_string()),
            other => return Err(format!("corpus: unknown argument `{other}`")),
        }
        i += 1;
    }
    if supervised && shards.is_none() {
        return Err("--supervised needs --shards N (it is sharding plus recovery)".into());
    }
    let detectors = detectors.finish("corpus")?;
    Ok(CorpusArgs {
        dir: dir.ok_or("corpus: a corpus directory is required")?,
        out,
        detectors,
        max_parallel,
        abort,
        shards,
        supervised,
        lenient,
        fresh,
        stop_after_jobs,
        job_timeout_ms,
        job_retries,
    })
}

fn parse_serve(args: &[String]) -> Result<ServeArgs, String> {
    let mut listen = None;
    let mut workers: usize = 4;
    let mut queue_depth: usize = 16;
    let mut checkpoint_dir = None;
    let mut resume = false;
    let mut idle_timeout_ms = None;
    let mut io_deadline_ms = None;
    let mut max_sessions = None;
    let mut inject_net = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--listen" => listen = Some(value(args, &mut i, "--listen")?.to_string()),
            "--workers" => {
                let n = parse_positive_u64(args, &mut i, "--workers")?;
                workers = usize::try_from(n)
                    .map_err(|_| format!("--workers: `{n}` exceeds the usize range"))?;
            }
            "--queue-depth" => {
                let n = parse_positive_u64(args, &mut i, "--queue-depth")?;
                queue_depth = usize::try_from(n)
                    .map_err(|_| format!("--queue-depth: `{n}` exceeds the usize range"))?;
            }
            "--checkpoint-dir" => {
                checkpoint_dir = Some(value(args, &mut i, "--checkpoint-dir")?.to_string())
            }
            "--resume" => resume = true,
            "--idle-timeout-ms" => {
                idle_timeout_ms = Some(parse_positive_u64(args, &mut i, "--idle-timeout-ms")?)
            }
            "--io-deadline-ms" => {
                io_deadline_ms = Some(parse_positive_u64(args, &mut i, "--io-deadline-ms")?)
            }
            "--max-sessions" => {
                let n = parse_positive_u64(args, &mut i, "--max-sessions")?;
                max_sessions = Some(
                    usize::try_from(n)
                        .map_err(|_| format!("--max-sessions: `{n}` exceeds the usize range"))?,
                );
            }
            "--inject-net" => {
                inject_net = Some(parse_seed_flag(args, &mut i, "--inject-net")?)
            }
            other => return Err(format!("serve: unknown argument `{other}`")),
        }
        i += 1;
    }
    Ok(ServeArgs {
        listen: listen.ok_or("serve: --listen ADDR is required")?,
        workers,
        queue_depth,
        checkpoint_dir,
        resume,
        idle_timeout_ms,
        io_deadline_ms,
        max_sessions,
        inject_net,
    })
}

fn parse_client(args: &[String]) -> Result<ClientArgs, String> {
    let mut addr = None;
    let mut file = None;
    let mut checkpoint_every = None;
    let mut lenient = false;
    let mut name = None;
    let mut chunk_events = None;
    let mut suspend_after = None;
    let mut shutdown = false;
    let mut retries = 0u32;
    let mut retry_budget_ms = None;
    let mut inject_net = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--checkpoint-every" => {
                checkpoint_every = Some(parse_positive_u64(args, &mut i, "--checkpoint-every")?)
            }
            "--lenient" => lenient = true,
            "--name" => name = Some(value(args, &mut i, "--name")?.to_string()),
            "--chunk-events" => {
                let n = parse_positive_u64(args, &mut i, "--chunk-events")?;
                chunk_events = Some(
                    usize::try_from(n)
                        .map_err(|_| format!("--chunk-events: `{n}` exceeds the usize range"))?,
                );
            }
            "--suspend-after" => {
                // 0 is meaningful: suspend before sending any chunk.
                let v = value(args, &mut i, "--suspend-after")?;
                suspend_after = Some(v.parse::<u64>().map_err(|_| {
                    format!("--suspend-after: invalid count `{v}` (expected an integer)")
                })?);
            }
            "--shutdown" => shutdown = true,
            "--retries" => {
                // 0 is meaningful: explicitly keep single-shot behavior.
                let v = value(args, &mut i, "--retries")?;
                retries = v.parse::<u32>().map_err(|_| {
                    format!("--retries: invalid count `{v}` (expected an integer)")
                })?;
            }
            "--retry-budget-ms" => {
                retry_budget_ms = Some(parse_positive_u64(args, &mut i, "--retry-budget-ms")?)
            }
            "--inject-net" => {
                inject_net = Some(parse_seed_flag(args, &mut i, "--inject-net")?)
            }
            a if !a.starts_with('-') && addr.is_none() => addr = Some(a.to_string()),
            f if !f.starts_with('-') && file.is_none() => file = Some(f.to_string()),
            other => return Err(format!("client: unknown argument `{other}`")),
        }
        i += 1;
    }
    let addr = addr.ok_or("client: a daemon address is required")?;
    if shutdown && file.is_some() {
        return Err("client: --shutdown takes no trace file".into());
    }
    if !shutdown && file.is_none() {
        return Err("client: a trace file is required (or --shutdown)".into());
    }
    Ok(ClientArgs {
        addr,
        file,
        checkpoint_every,
        lenient,
        name,
        chunk_events,
        suspend_after,
        shutdown,
        retries,
        retry_budget_ms,
        inject_net,
    })
}

fn parse_single_file(sub: &str, args: &[String]) -> Result<String, String> {
    match args {
        [f] if !f.starts_with('-') => Ok(f.clone()),
        [] => Err(format!("{sub}: trace file is required")),
        _ => Err(format!("{sub}: expected exactly one trace file")),
    }
}

/// Parses a full `tracetool` argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command, String> {
    match args.split_first() {
        Some((sub, rest)) => match sub.as_str() {
            "record" => parse_record(rest).map(Command::Record),
            "analyze" => parse_analyze(rest).map(Command::Analyze),
            "exec" => parse_exec(rest).map(Command::Exec),
            "compare" => parse_compare(rest).map(Command::Compare),
            "info" => parse_single_file("info", rest).map(|file| Command::Info { file }),
            "verify" => parse_single_file("verify", rest).map(|file| Command::Verify { file }),
            "fuzz" => parse_fuzz(rest).map(Command::Fuzz),
            "corpus" => parse_corpus(rest).map(Command::Corpus),
            "serve" => parse_serve(rest).map(Command::Serve),
            "client" => parse_client(rest).map(Command::Client),
            "help" | "--help" | "-h" => Ok(Command::Help),
            other => Err(format!("unknown subcommand `{other}`")),
        },
        None => Err("a subcommand is required".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn bench_name_is_validated_up_front() {
        // Regression: the old parser deferred validation until after flag
        // processing, so a typo'd bench name died with a generic usage
        // message after side effects. Now it is a parse error naming the
        // valid set — even when later flags are themselves broken.
        let err = parse(&argv(
            "record --bench jacobii --out t.trace --chunk-bytes nope",
        ))
        .unwrap_err();
        assert!(err.contains("unknown benchmark `jacobii`"), "{err}");
        assert!(err.contains("jacobi, smithwaterman, lu, pipeline"), "{err}");
        assert!(
            err.contains("prodcons") && err.contains("actor"),
            "the error names the future-structured families too: {err}"
        );
    }

    #[test]
    fn planted_requires_a_plantable_workload() {
        // series_future and crypt have no plant_race switch; requesting
        // one is a parse error, not a runtime panic.
        let err =
            parse(&argv("record --bench series_future --out t --planted")).unwrap_err();
        assert!(err.contains("no planted-race variant"), "{err}");
        let Command::Record(r) =
            parse(&argv("record --bench prodcons --out t --planted")).unwrap()
        else {
            panic!()
        };
        assert!(r.planted);
        // Unplanted recording of non-plantable workloads stays fine.
        assert!(parse(&argv("record --bench crypt --out t")).is_ok());
    }

    #[test]
    fn fuzz_defaults_and_flags() {
        let Command::Fuzz(f) = parse(&argv("fuzz")).unwrap() else {
            panic!()
        };
        assert_eq!((f.programs, f.seed, f.gen.as_str()), (256, 7, "nontree"));
        assert_eq!(f.out_dir, ".");
        assert!(f.time_budget_secs.is_none() && f.break_detector.is_none());

        let Command::Fuzz(f) = parse(&argv(
            "fuzz --programs 64 --seed 9 --gen future-heavy --out-dir /tmp/cx \
             --time-budget-secs 30 --break-detector vc",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!((f.programs, f.seed), (64, 9));
        assert_eq!(f.gen, "future-heavy");
        assert_eq!(f.out_dir, "/tmp/cx");
        assert_eq!(f.time_budget_secs, Some(30));
        assert_eq!(f.break_detector.as_deref(), Some("vc"));
    }

    #[test]
    fn fuzz_flag_validation() {
        let err = parse(&argv("fuzz --programs 0")).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = parse(&argv("fuzz --gen chaotic")).unwrap_err();
        assert!(err.contains("unknown preset `chaotic`"), "{err}");
        let err = parse(&argv("fuzz --break-detector dtrgg")).unwrap_err();
        assert!(err.contains("unknown detector `dtrgg`"), "{err}");
        let err = parse(&argv("fuzz --seed nope")).unwrap_err();
        assert!(err.contains("invalid seed `nope`"), "{err}");
        let err = parse(&argv("fuzz --bench jacobi")).unwrap_err();
        assert!(err.contains("unknown argument"), "{err}");
    }

    #[test]
    fn last_size_flag_wins() {
        let Command::Record(r) =
            parse(&argv("record --bench lu --out t --tiny --scaled")).unwrap()
        else {
            panic!()
        };
        assert!(!r.tiny, "--scaled came last");
        let Command::Record(r) =
            parse(&argv("record --bench lu --out t --scaled --tiny")).unwrap()
        else {
            panic!()
        };
        assert!(r.tiny, "--tiny came last");
    }

    #[test]
    fn record_defaults_and_stream_flags() {
        let Command::Record(r) = parse(&argv("record --bench jacobi --out x.trace")).unwrap()
        else {
            panic!()
        };
        assert!(r.tiny && !r.planted && !r.stream && r.chunk_bytes.is_none());

        let Command::Record(r) = parse(&argv(
            "record --bench jacobi --out x.trace --stream --chunk-bytes 4096 --planted",
        ))
        .unwrap() else {
            panic!()
        };
        assert!(r.stream && r.planted);
        assert_eq!(r.chunk_bytes, Some(4096));

        let err = parse(&argv("record --bench jacobi --out x --chunk-bytes 64")).unwrap_err();
        assert!(err.contains("--stream"), "{err}");
    }

    #[test]
    fn record_missing_required_flags() {
        assert!(parse(&argv("record --out t")).unwrap_err().contains("--bench"));
        assert!(parse(&argv("record --bench lu"))
            .unwrap_err()
            .contains("--out"));
        assert!(parse(&argv("record --bench")).unwrap_err().contains("value"));
    }

    #[test]
    fn analyze_flags() {
        let Command::Analyze(a) =
            parse(&argv("analyze t.trace --shards 4 --lenient")).unwrap()
        else {
            panic!()
        };
        assert_eq!(a.file, "t.trace");
        assert_eq!(a.detector, "dtrg");
        assert_eq!(a.shards, Some(4));
        assert!(a.lenient && !a.graph);

        assert!(parse(&argv("analyze t --shards 2 --graph"))
            .unwrap_err()
            .contains("serial"));
        let Command::Analyze(a) = parse(&argv("analyze t --dot g.dot")).unwrap() else {
            panic!()
        };
        assert!(a.graph, "--dot implies --graph");
    }

    #[test]
    fn analyze_shard_count_is_validated_up_front() {
        // Neither zero nor garbage may reach the pipeline: both are
        // structured usage errors at parse time.
        let err = parse(&argv("analyze t --shards 0")).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = parse(&argv("analyze t --shards four")).unwrap_err();
        assert!(err.contains("invalid count `four`"), "{err}");
        assert!(err.contains("positive integer"), "{err}");
        let err = parse(&argv("analyze t --shards -2")).unwrap_err();
        assert!(err.contains("invalid count `-2`"), "{err}");
        assert!(parse(&argv("analyze t --shards"))
            .unwrap_err()
            .contains("value"));
    }

    #[test]
    fn analyze_detector_selection() {
        let Command::Analyze(a) = parse(&argv("analyze t --detector espbags")).unwrap() else {
            panic!()
        };
        assert_eq!(a.detector, "espbags");

        let err = parse(&argv("analyze t --detector dtrgg")).unwrap_err();
        assert!(err.contains("unknown detector `dtrgg`"), "{err}");
        assert!(err.contains("dtrg, espbags"), "error lists valid names: {err}");

        // Sharding is a capability, not a universal feature.
        let Command::Analyze(a) = parse(&argv("analyze t --detector vc --shards 2")).unwrap()
        else {
            panic!()
        };
        assert_eq!((a.detector.as_str(), a.shards), ("vc", Some(2)));
        let err = parse(&argv("analyze t --detector closure --shards 2")).unwrap_err();
        assert!(err.contains("cannot run sharded"), "{err}");
        let err = parse(&argv("analyze t --detector vc --graph")).unwrap_err();
        assert!(err.contains("dtrg"), "{err}");
    }

    #[test]
    fn exec_defaults_and_flags() {
        let Command::Exec(e) = parse(&argv("exec --bench jacobi --threads 4")).unwrap() else {
            panic!()
        };
        assert_eq!((e.bench.as_str(), e.threads), ("jacobi", 4));
        assert_eq!(e.detector, "dtrg");
        assert!(e.tiny && !e.planted);
        assert!(e.steal_seed.is_none());

        let Command::Exec(e) = parse(&argv(
            "exec --bench sor --threads 2 --detector dtrg --scaled --planted --steal-seed 9",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!((e.bench.as_str(), e.threads), ("sor", 2));
        assert!(!e.tiny && e.planted);
        assert_eq!(e.steal_seed, Some(9));
    }

    #[test]
    fn exec_validation_shares_analyze_and_record_rules() {
        // Bench names, detector names, thread counts, seeds, and planted
        // variants are all validated by the same helpers the other
        // subcommands use — structured errors at parse time.
        let err = parse(&argv("exec --bench jacobii --threads 2")).unwrap_err();
        assert!(err.contains("unknown benchmark `jacobii`"), "{err}");
        assert!(err.contains("jacobi, smithwaterman"), "{err}");

        let err = parse(&argv("exec --bench jacobi --threads 2 --detector dtrgg")).unwrap_err();
        assert!(err.contains("unknown detector `dtrgg`"), "{err}");

        let err = parse(&argv("exec --bench jacobi --threads 2 --detector vc")).unwrap_err();
        assert!(err.contains("cannot run online"), "{err}");

        let err = parse(&argv("exec --bench jacobi --threads 0")).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = parse(&argv("exec --bench jacobi --threads four")).unwrap_err();
        assert!(err.contains("invalid count `four`"), "{err}");

        let err = parse(&argv("exec --bench jacobi --threads 2 --shards 2")).unwrap_err();
        assert!(err.contains("unknown argument `--shards`"), "{err}");
        let err = parse(&argv("exec --bench jacobi --threads 2 --steal-seed nope")).unwrap_err();
        assert!(err.contains("invalid seed `nope`"), "{err}");

        let err = parse(&argv("exec --bench series_future --threads 2 --planted")).unwrap_err();
        assert!(err.contains("no planted-race variant"), "{err}");

        assert!(parse(&argv("exec --threads 2")).unwrap_err().contains("--bench"));
        assert!(parse(&argv("exec --bench jacobi")).unwrap_err().contains("--threads"));
        let err = parse(&argv("exec --bench jacobi --threads 2 --out t")).unwrap_err();
        assert!(err.contains("unknown argument"), "{err}");
    }

    #[test]
    fn exec_last_size_flag_wins() {
        let Command::Exec(e) =
            parse(&argv("exec --bench lu --threads 2 --tiny --scaled")).unwrap()
        else {
            panic!()
        };
        assert!(!e.tiny);
        let Command::Exec(e) =
            parse(&argv("exec --bench lu --threads 2 --scaled --tiny")).unwrap()
        else {
            panic!()
        };
        assert!(e.tiny);
    }

    #[test]
    fn compare_defaults_to_all_detectors() {
        let Command::Compare(c) = parse(&argv("compare t.trace")).unwrap() else {
            panic!()
        };
        assert_eq!(c.file, "t.trace");
        assert_eq!(c.detectors, DETECTOR_NAMES);
        assert!(!c.lenient);
    }

    #[test]
    fn compare_detector_lists() {
        let Command::Compare(c) =
            parse(&argv("compare t --detectors dtrg,espbags --lenient")).unwrap()
        else {
            panic!()
        };
        assert_eq!(c.detectors, ["dtrg", "espbags"]);
        assert!(c.lenient);

        let Command::Compare(c) =
            parse(&argv("compare t --detector vc --detector closure")).unwrap()
        else {
            panic!()
        };
        assert_eq!(c.detectors, ["vc", "closure"]);

        let err = parse(&argv("compare t --detectors dtrg,bogus")).unwrap_err();
        assert!(err.contains("unknown detector `bogus`"), "{err}");
        let err = parse(&argv("compare t --detectors dtrg,dtrg")).unwrap_err();
        assert!(err.contains("listed twice"), "{err}");
        assert!(parse(&argv("compare")).unwrap_err().contains("required"));
    }

    #[test]
    fn inject_seed_is_validated_up_front() {
        // A mistyped seed must be a structured usage error, never a
        // silently different fault plan.
        for bad in ["banana", "-1", "0x2a", "1.5", "18446744073709551616"] {
            let err = parse(&argv(&format!("analyze t --inject {bad}"))).unwrap_err();
            assert!(err.contains(&format!("invalid seed `{bad}`")), "{err}");
            assert!(err.contains("unsigned 64-bit"), "{err}");
        }
        assert!(parse(&argv("analyze t --inject")).unwrap_err().contains("value"));

        let Command::Analyze(a) = parse(&argv("analyze t --inject 42")).unwrap() else {
            panic!()
        };
        assert_eq!(a.inject, Some(42));
        assert!(a.supervised());

        // record-side: same validation, and --stream is required.
        let err =
            parse(&argv("record --bench lu --out t --stream --inject nope")).unwrap_err();
        assert!(err.contains("invalid seed `nope`"), "{err}");
        let err = parse(&argv("record --bench lu --out t --inject 7")).unwrap_err();
        assert!(err.contains("--stream"), "{err}");
        let Command::Record(r) =
            parse(&argv("record --bench lu --out t --stream --inject 7")).unwrap()
        else {
            panic!()
        };
        assert_eq!(r.inject, Some(7));
    }

    #[test]
    fn checkpoint_flags() {
        let Command::Analyze(a) = parse(&argv(
            "analyze t --shards 2 --checkpoint-every 4 --stop-after 8 --checkpoint c.ckpt",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(a.checkpoint_every, Some(4));
        assert_eq!(a.stop_after, Some(8));
        assert_eq!(a.checkpoint.as_deref(), Some("c.ckpt"));
        assert!(a.supervised());

        let Command::Analyze(a) = parse(&argv("analyze t --resume c.ckpt")).unwrap() else {
            panic!()
        };
        assert_eq!(a.resume.as_deref(), Some("c.ckpt"));
        assert!(a.supervised());

        let Command::Analyze(a) = parse(&argv("analyze t --shards 2")).unwrap() else {
            panic!()
        };
        assert!(!a.supervised(), "plain sharding is not the supervised path");

        let err = parse(&argv("analyze t --stop-after 3")).unwrap_err();
        assert!(err.contains("--checkpoint"), "{err}");
        let err = parse(&argv("analyze t --checkpoint-every 0")).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = parse(&argv("analyze t --stop-after many --checkpoint c")).unwrap_err();
        assert!(err.contains("invalid count `many`"), "{err}");
        let err = parse(&argv("analyze t --detector spbags --inject 1")).unwrap_err();
        assert!(err.contains("supervised"), "{err}");
        let err = parse(&argv("analyze t --graph --resume c.ckpt")).unwrap_err();
        assert!(err.contains("serial"), "{err}");
    }

    #[test]
    fn corpus_defaults() {
        let Command::Corpus(c) = parse(&argv("corpus traces/")).unwrap() else {
            panic!()
        };
        assert_eq!(c.dir, "traces/");
        assert!(c.out.is_none());
        assert_eq!(c.detectors, DETECTOR_NAMES);
        assert_eq!(c.max_parallel, 1);
        assert!(!c.abort && !c.supervised && !c.lenient && !c.fresh);
        assert!(c.shards.is_none() && c.stop_after_jobs.is_none());
        assert!(c.job_timeout_ms.is_none());
    }

    #[test]
    fn corpus_job_timeout_flag() {
        let Command::Corpus(c) = parse(&argv("corpus d --job-timeout-ms 5000")).unwrap() else {
            panic!()
        };
        assert_eq!(c.job_timeout_ms, Some(5000));
        let err = parse(&argv("corpus d --job-timeout-ms 0")).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = parse(&argv("corpus d --job-timeout-ms soon")).unwrap_err();
        assert!(err.contains("invalid count `soon`"), "{err}");
    }

    #[test]
    fn serve_flags() {
        let Command::Serve(s) = parse(&argv("serve --listen 127.0.0.1:0")).unwrap() else {
            panic!()
        };
        assert_eq!(s.listen, "127.0.0.1:0");
        assert_eq!((s.workers, s.queue_depth), (4, 16));
        assert!(s.checkpoint_dir.is_none() && !s.resume);

        let Command::Serve(s) = parse(&argv(
            "serve --listen 0.0.0.0:7333 --workers 8 --queue-depth 32 \
             --checkpoint-dir /tmp/ckpts --resume",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!((s.workers, s.queue_depth), (8, 32));
        assert_eq!(s.checkpoint_dir.as_deref(), Some("/tmp/ckpts"));
        assert!(s.resume);

        assert!(parse(&argv("serve")).unwrap_err().contains("--listen"));
        let err = parse(&argv("serve --listen a:1 --workers 0")).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn serve_self_protection_flags() {
        let Command::Serve(s) = parse(&argv("serve --listen a:1")).unwrap() else {
            panic!()
        };
        assert!(s.idle_timeout_ms.is_none() && s.io_deadline_ms.is_none());
        assert!(s.max_sessions.is_none() && s.inject_net.is_none());

        let Command::Serve(s) = parse(&argv(
            "serve --listen a:1 --idle-timeout-ms 2000 --io-deadline-ms 500 \
             --max-sessions 8 --inject-net 42",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(s.idle_timeout_ms, Some(2000));
        assert_eq!(s.io_deadline_ms, Some(500));
        assert_eq!(s.max_sessions, Some(8));
        assert_eq!(s.inject_net, Some(42));

        let err = parse(&argv("serve --listen a:1 --max-sessions 0")).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = parse(&argv("serve --listen a:1 --inject-net banana")).unwrap_err();
        assert!(err.contains("invalid seed `banana`"), "{err}");
    }

    #[test]
    fn client_flags() {
        let Command::Client(c) = parse(&argv("client 127.0.0.1:7333 t.ftrc --lenient")).unwrap()
        else {
            panic!()
        };
        assert_eq!(c.addr, "127.0.0.1:7333");
        assert_eq!(c.file.as_deref(), Some("t.ftrc"));
        assert!(c.lenient && !c.shutdown);

        let Command::Client(c) = parse(&argv(
            "client h:1 t --name fixture --chunk-events 64 --checkpoint-every 2 \
             --suspend-after 3",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(c.name.as_deref(), Some("fixture"));
        assert_eq!(c.chunk_events, Some(64));
        assert_eq!(c.checkpoint_every, Some(2));
        assert_eq!(c.suspend_after, Some(3));

        let Command::Client(c) = parse(&argv("client h:1 --shutdown")).unwrap() else {
            panic!()
        };
        assert!(c.shutdown && c.file.is_none());

        assert!(parse(&argv("client")).unwrap_err().contains("address"));
        let err = parse(&argv("client h:1")).unwrap_err();
        assert!(err.contains("trace file"), "{err}");
        let err = parse(&argv("client h:1 t --shutdown")).unwrap_err();
        assert!(err.contains("--shutdown"), "{err}");
    }

    #[test]
    fn client_has_no_shards_flag() {
        // The daemon checks every session with its live engine; one-shot
        // `analyze --shards N` is the sharded path.
        let err = parse(&argv("client h:1 t --shards 2")).unwrap_err();
        assert!(err.contains("client: unknown argument `--shards`"), "{err}");
    }

    #[test]
    fn client_reconnect_flags() {
        let Command::Client(c) = parse(&argv("client h:1 t")).unwrap() else {
            panic!()
        };
        assert_eq!(c.retries, 0);
        assert!(c.retry_budget_ms.is_none() && c.inject_net.is_none());

        let Command::Client(c) = parse(&argv(
            "client h:1 t --retries 5 --retry-budget-ms 30000 --inject-net 7",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(c.retries, 5);
        assert_eq!(c.retry_budget_ms, Some(30000));
        assert_eq!(c.inject_net, Some(7));

        // --retries 0 is explicit single-shot, not an error.
        let Command::Client(c) = parse(&argv("client h:1 t --retries 0")).unwrap() else {
            panic!()
        };
        assert_eq!(c.retries, 0);

        let err = parse(&argv("client h:1 t --retries many")).unwrap_err();
        assert!(err.contains("invalid count `many`"), "{err}");
        let err = parse(&argv("client h:1 t --retry-budget-ms 0")).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn corpus_full_flag_set() {
        let Command::Corpus(c) = parse(&argv(
            "corpus traces --out run1 --detectors dtrg,vc --max-parallel 4 \
             --failure-policy abort --shards 2 --supervised --lenient --fresh \
             --stop-after-jobs 9",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(c.dir, "traces");
        assert_eq!(c.out.as_deref(), Some("run1"));
        assert_eq!(c.detectors, ["dtrg", "vc"]);
        assert_eq!(c.max_parallel, 4);
        assert!(c.abort && c.supervised && c.lenient && c.fresh);
        assert_eq!(c.shards, Some(2));
        assert_eq!(c.stop_after_jobs, Some(9));
    }

    #[test]
    fn corpus_job_retries_flag() {
        let Command::Corpus(c) = parse(&argv("corpus d")).unwrap() else {
            panic!()
        };
        assert_eq!(c.job_retries, 0);
        let Command::Corpus(c) = parse(&argv("corpus d --job-retries 3")).unwrap() else {
            panic!()
        };
        assert_eq!(c.job_retries, 3);
        let err = parse(&argv("corpus d --job-retries 0")).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn corpus_validation_errors() {
        assert!(parse(&argv("corpus")).unwrap_err().contains("required"));
        let err = parse(&argv("corpus d --max-parallel 0")).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = parse(&argv("corpus d --failure-policy sometimes")).unwrap_err();
        assert!(err.contains("unknown policy `sometimes`"), "{err}");
        assert!(err.contains("continue or abort"), "{err}");
        let err = parse(&argv("corpus d --detectors dtrg,dtrg")).unwrap_err();
        assert!(err.contains("listed twice"), "{err}");
        let err = parse(&argv("corpus d --detectors dtrg,bogus")).unwrap_err();
        assert!(err.contains("unknown detector `bogus`"), "{err}");
        let err = parse(&argv("corpus d --supervised")).unwrap_err();
        assert!(err.contains("--shards"), "{err}");
        let err = parse(&argv("corpus d --shards 0")).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = parse(&argv("corpus d --stop-after-jobs 0")).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = parse(&argv("corpus d --frobnicate")).unwrap_err();
        assert!(err.contains("unknown argument"), "{err}");
    }

    #[test]
    fn help_is_a_command_not_an_error() {
        for h in ["help", "--help", "-h"] {
            assert_eq!(parse(&argv(h)).unwrap(), Command::Help, "{h}");
        }
    }

    #[test]
    fn info_verify_and_errors() {
        assert_eq!(
            parse(&argv("info t.trace")).unwrap(),
            Command::Info {
                file: "t.trace".into()
            }
        );
        assert_eq!(
            parse(&argv("verify t.trace")).unwrap(),
            Command::Verify {
                file: "t.trace".into()
            }
        );
        assert!(parse(&argv("verify")).unwrap_err().contains("required"));
        assert!(parse(&argv("frobnicate x")).unwrap_err().contains("unknown subcommand"));
        assert!(parse(&[]).unwrap_err().contains("subcommand"));
    }
}
