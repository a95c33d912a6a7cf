//! Argument parsing for the `tracetool` binary, kept out of the binary so
//! it is unit-testable (the old inline parser silently accepted unknown
//! benchmark names and only failed after flag processing).
//!
//! Conventions: unknown flags and missing values are errors (exit 2 via
//! the binary); `--bench` is validated against the benchsuite
//! [`registry`] *at parse time* — as is `--planted`, which only plantable
//! workloads accept; when both `--tiny` and `--scaled` appear, the last
//! one wins (explicitly tested, since scripts commonly append overrides).
//!
//! `serve`, `client`, `corpus`, `fuzz` and `exec` parse straight into the
//! library's option structs, starting from their own defaults, so each
//! default is written once: [`ServeOptions`], [`ClientOptions`],
//! [`CorpusOptions`], [`FuzzOptions`] and [`OnlineOptions`].

use crate::detectors::{is_detector, is_shardable, DETECTOR_NAMES};
use crate::fuzzdiff::FuzzOptions;
use futrace_benchsuite::randomprog::GenParams;
use futrace_benchsuite::registry::{self, Scale, Workload};
use futrace_corpus::{CorpusOptions, FailurePolicy};
use futrace_offline::framed::MAX_CHUNK_BYTES;
use futrace_runtime::online::OnlineOptions;
use futrace_service::{ClientOptions, ServeOptions};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::Duration;

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
    /// `tracetool exec …`: the program to run live on the instrumented
    /// executor, with online detection and no trace file anywhere.
    Exec(BenchProgram, OnlineOptions),
    /// `tracetool fuzz …`
    Fuzz(FuzzOptions, FuzzArgs),
    /// `tracetool corpus DIR …`
    Corpus {
        /// Corpus root directory (every `*.ftrc` under it, recursively).
        dir: String,
        /// The run's options; `--out` defaults to `DIR/corpus-out`.
        opts: CorpusOptions,
    },
    /// `tracetool serve --listen ADDR …`
    Serve(ServeOptions),
    /// `tracetool client ADDR FILE …` / `tracetool client ADDR --shutdown`
    Client(ClientOptions, ClientArgs),
    /// `tracetool help` / `--help` / `-h`: print usage + exit-code table
    /// to stdout and exit 0 (unlike a usage *error*, which exits 2).
    Help,
}

/// The benchsuite program `record` and `exec` run: `--bench NAME`,
/// `--tiny` (the default) or `--scaled`, and `--planted`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BenchProgram {
    /// Benchmark name (guaranteed to be a registry key).
    pub bench: String,
    /// Input size (`--tiny`/`--scaled`; the last flag wins).
    pub scale: Scale,
    /// Plant a determinacy race (plantable workloads only).
    pub planted: bool,
}

impl BenchProgram {
    /// The registry entry `bench` names.
    pub fn workload(&self) -> &'static Workload {
        registry::find(&self.bench).expect("parser admits only known benches")
    }

    /// The group before any flag: no benchmark named yet, tiny, unplanted.
    fn empty() -> Self {
        BenchProgram {
            bench: String::new(),
            scale: Scale::Tiny,
            planted: false,
        }
    }

    /// Applies the flag at the cursor if it is one of the group's;
    /// `false` when it is not.
    fn take(&mut self, flags: &mut Flags) -> Result<bool, String> {
        match flags.flag {
            "--bench" => self.bench = validate_bench(flags.str()?)?,
            "--tiny" => self.scale = Scale::Tiny,
            "--scaled" => self.scale = Scale::Scaled,
            "--planted" => self.planted = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Checks that `--bench` was given and that `--planted` has a variant.
    fn finish(self, command: &str) -> Result<Self, String> {
        if self.bench.is_empty() {
            return Err(format!("{command}: --bench is required"));
        }
        validate_planted(&self.bench, self.planted)?;
        Ok(self)
    }
}

/// Options for `tracetool record`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordArgs {
    /// The program to record.
    pub program: BenchProgram,
    /// Output trace path.
    pub out: String,
    /// Target chunk payload size (bytes).
    pub chunk_bytes: Option<usize>,
    /// Seed for deterministic write-fault injection: derives a
    /// [`futrace_util::faultinject::FaultPlan`] whose write faults the
    /// sink injects.
    pub inject: Option<u64>,
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
    /// Barrier-snapshot every N chunk boundaries, so a restarted shard
    /// reads the trace again only from its last snapshot (without one, a
    /// restart under `--inject` reads it from the start).
    pub checkpoint_every: Option<u64>,
    /// Write a resumable checkpoint to this path when the run suspends
    /// (requires `--stop-after`: only a suspend writes one).
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
    pub(crate) fn supervised(&self) -> bool {
        self.inject.is_some()
            || self.checkpoint_every.is_some()
            || self.checkpoint.is_some()
            || self.resume.is_some()
            || self.stop_after.is_some()
    }
}

/// What `tracetool fuzz` needs beyond [`FuzzOptions`] (the differential
/// fuzzing mode; see `crate::fuzzdiff`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuzzArgs {
    /// Name of the `--gen` preset in `FuzzOptions::params`, for the batch
    /// banner and the replay line.
    pub gen: &'static str,
    /// Directory receiving minimized counterexample traces.
    pub out_dir: String,
    /// Keep fuzzing fresh batches until this many seconds have elapsed.
    pub time_budget_secs: Option<u64>,
}

/// What `tracetool client` needs beyond [`ClientOptions`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClientArgs {
    /// Trace file to stream (absent only with `--shutdown`).
    pub file: Option<String>,
    /// Ask the daemon to drain and exit instead of streaming a trace.
    pub shutdown: bool,
}

/// Options for `tracetool compare`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompareArgs {
    /// Trace file to analyze.
    pub file: String,
    /// Detectors to run, in order (each valid and unique; defaults to all
    /// of [`crate::detectors::DETECTOR_NAMES`]).
    pub detectors: Vec<String>,
    /// Skip damaged framed chunks instead of aborting, and check the
    /// complete chunks before a truncation.
    pub lenient: bool,
}

/// `fuzz --gen` presets by name.
fn gen_presets() -> [(&'static str, GenParams); 3] {
    [
        ("nontree", GenParams::nontree_heavy()),
        ("future-heavy", GenParams::future_heavy()),
        ("default", GenParams::default()),
    ]
}

/// A cursor over one subcommand's arguments. `next_flag` steps to the
/// next argument; each value reader takes the argument after it as that
/// flag's value and names the flag in its errors.
struct Flags<'a> {
    args: &'a [String],
    next: usize,
    /// The argument `next_flag` stepped to last.
    flag: &'a str,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Self {
        Flags {
            args,
            next: 0,
            flag: "",
        }
    }

    fn next_flag(&mut self) -> Option<&'a str> {
        self.flag = self.args.get(self.next).map(String::as_str)?;
        self.next += 1;
        Some(self.flag)
    }

    /// The flag's value, as given.
    fn str(&mut self) -> Result<&'a str, String> {
        let v = self.args.get(self.next);
        self.next += 1;
        v.map(String::as_str)
            .ok_or_else(|| format!("{} requires a value", self.flag))
    }

    fn string(&mut self) -> Result<String, String> {
        self.str().map(str::to_string)
    }

    /// A count of at least 1, in the target integer type.
    fn positive<T: TryFrom<u64>>(&mut self) -> Result<T, String> {
        let (flag, v) = (self.flag, self.str()?);
        let n: u64 = v
            .parse()
            .map_err(|_| format!("{flag}: invalid count `{v}` (expected a positive integer)"))?;
        if n == 0 {
            return Err(format!("{flag} must be at least 1"));
        }
        T::try_from(n).map_err(|_| {
            format!(
                "{flag}: `{n}` exceeds the {} range",
                std::any::type_name::<T>()
            )
        })
    }

    /// A count for which 0 is meaningful.
    fn count<T: FromStr>(&mut self) -> Result<T, String> {
        let (flag, v) = (self.flag, self.str()?);
        v.parse()
            .map_err(|_| format!("{flag}: invalid count `{v}` (expected an integer)"))
    }

    /// Any u64, but nothing else (a mistyped seed must not silently
    /// become a different fault plan or schedule).
    fn seed(&mut self) -> Result<u64, String> {
        let (flag, v) = (self.flag, self.str()?);
        v.parse().map_err(|_| {
            format!("{flag}: invalid seed `{v}` (expected an unsigned 64-bit integer)")
        })
    }

    /// A registry detector name.
    fn detector(&mut self) -> Result<String, String> {
        validate_detector(self.str()?)
    }
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

fn parse_record(args: &[String]) -> Result<RecordArgs, String> {
    let mut program = BenchProgram::empty();
    let mut out = None;
    let mut chunk_bytes = None;
    let mut inject = None;
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next_flag() {
        match arg {
            "--out" => out = Some(flags.string()?),
            "--chunk-bytes" => {
                let v = flags.str()?;
                let n = v
                    .parse::<usize>()
                    .map_err(|_| format!("--chunk-bytes: invalid byte count `{v}`"))?;
                if n > MAX_CHUNK_BYTES {
                    return Err(format!(
                        "--chunk-bytes: {n} is above the largest chunk ({MAX_CHUNK_BYTES})"
                    ));
                }
                chunk_bytes = Some(n);
            }
            "--inject" => inject = Some(flags.seed()?),
            _ if program.take(&mut flags)? => {}
            other => return Err(format!("record: unknown argument `{other}`")),
        }
    }
    let program = program.finish("record")?;
    let out = out.ok_or("record: --out is required")?;
    Ok(RecordArgs {
        program,
        out,
        chunk_bytes,
        inject,
    })
}

fn parse_analyze(args: &[String]) -> Result<AnalyzeArgs, String> {
    let mut file = None;
    let mut a = AnalyzeArgs {
        file: String::new(),
        detector: "dtrg".to_string(),
        shards: None,
        lenient: false,
        graph: false,
        dot: None,
        inject: None,
        checkpoint_every: None,
        checkpoint: None,
        resume: None,
        stop_after: None,
    };
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next_flag() {
        match arg {
            "--detector" => a.detector = flags.detector()?,
            "--shards" => a.shards = Some(flags.positive()?),
            "--lenient" => a.lenient = true,
            "--graph" => a.graph = true,
            "--dot" => {
                a.dot = Some(flags.string()?);
                a.graph = true;
            }
            "--inject" => a.inject = Some(flags.seed()?),
            "--checkpoint-every" => a.checkpoint_every = Some(flags.positive()?),
            "--checkpoint" => a.checkpoint = Some(flags.string()?),
            "--resume" => a.resume = Some(flags.string()?),
            "--stop-after" => a.stop_after = Some(flags.positive()?),
            f if !f.starts_with('-') && file.is_none() => file = Some(f.to_string()),
            other => return Err(format!("analyze: unknown argument `{other}`")),
        }
    }
    if a.graph && a.shards.is_some() {
        return Err("--graph/--dot require the serial path; drop --shards".into());
    }
    if a.graph && a.detector != "dtrg" {
        return Err("--graph/--dot only apply to the dtrg detector".into());
    }
    if a.shards.is_some() && !is_shardable(&a.detector) {
        return Err(format!(
            "detector `{}` needs the global access order and cannot run sharded; \
             drop --shards (shardable: dtrg, vc)",
            a.detector
        ));
    }
    if a.supervised() && !is_shardable(&a.detector) {
        return Err(format!(
            "detector `{}` cannot run under the supervised pipeline; \
             --inject/--checkpoint*/--resume/--stop-after need a shardable detector (dtrg, vc)",
            a.detector
        ));
    }
    if a.supervised() && a.graph {
        return Err("--graph/--dot require the serial path; drop the fault-tolerance flags".into());
    }
    if a.stop_after.is_some() && a.checkpoint.is_none() {
        return Err("--stop-after needs --checkpoint FILE to receive the snapshot".into());
    }
    if a.checkpoint.is_some() && a.stop_after.is_none() {
        return Err(
            "--checkpoint FILE is written only when the run suspends; add --stop-after N".into(),
        );
    }
    a.file = file.ok_or("analyze: trace file is required")?;
    Ok(a)
}

fn parse_exec(args: &[String]) -> Result<Command, String> {
    let mut program = BenchProgram::empty();
    let mut threads = None;
    let mut steal_seed = None;
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next_flag() {
        match arg {
            "--threads" => threads = Some(flags.positive()?),
            "--detector" => {
                let detector = flags.detector()?;
                if detector != "dtrg" {
                    return Err(format!(
                        "detector `{detector}` cannot run online; exec currently supports dtrg \
                         (use `record` + `analyze` for replay-only detectors)"
                    ));
                }
            }
            "--steal-seed" => steal_seed = Some(flags.seed()?),
            _ if program.take(&mut flags)? => {}
            other => return Err(format!("exec: unknown argument `{other}`")),
        }
    }
    let program = program.finish("exec")?;
    let threads = threads.ok_or("exec: --threads N is required")?;
    let opts = OnlineOptions {
        steal_seed,
        ..OnlineOptions::threads(threads)
    };
    Ok(Command::Exec(program, opts))
}

/// The detector panel of `compare` and `corpus`, named by any mix of
/// `--detector NAME` and `--detectors A,B,…` arguments.
#[derive(Default)]
struct DetectorList(Vec<String>);

impl DetectorList {
    /// Parses the value of the `--detector` or `--detectors` flag at the
    /// cursor.
    fn take(&mut self, flags: &mut Flags) -> Result<(), String> {
        if flags.flag == "--detectors" {
            for name in flags.str()?.split(',') {
                self.0.push(validate_detector(name.trim())?);
            }
        } else {
            self.0.push(flags.detector()?);
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
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next_flag() {
        match arg {
            "--detector" | "--detectors" => detectors.take(&mut flags)?,
            "--lenient" => lenient = true,
            f if !f.starts_with('-') && file.is_none() => file = Some(f.to_string()),
            other => return Err(format!("compare: unknown argument `{other}`")),
        }
    }
    let detectors = detectors.finish("compare")?;
    Ok(CompareArgs {
        file: file.ok_or("compare: trace file is required")?,
        detectors,
        lenient,
    })
}

fn parse_fuzz(args: &[String]) -> Result<Command, String> {
    let mut opts = FuzzOptions::default();
    let default_gen = gen_presets()
        .into_iter()
        .find(|&(_, params)| params == opts.params);
    let mut fuzz = FuzzArgs {
        gen: default_gen.expect("the default generator is a preset").0,
        out_dir: ".".to_string(),
        time_budget_secs: None,
    };
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next_flag() {
        match arg {
            "--programs" => opts.programs = flags.positive()?,
            "--seed" => opts.seed = flags.seed()?,
            "--gen" => {
                let v = flags.str()?;
                let (name, params) = gen_presets()
                    .into_iter()
                    .find(|&(name, _)| name == v)
                    .ok_or_else(|| {
                        format!(
                            "--gen: unknown preset `{v}` (expected nontree, future-heavy, or default)"
                        )
                    })?;
                fuzz.gen = name;
                opts.params = params;
            }
            "--out-dir" => fuzz.out_dir = flags.string()?,
            "--time-budget-secs" => fuzz.time_budget_secs = Some(flags.positive()?),
            "--break-detector" => opts.broken_detector = Some(flags.detector()?),
            other => return Err(format!("fuzz: unknown argument `{other}`")),
        }
    }
    Ok(Command::Fuzz(opts, fuzz))
}

fn parse_corpus(args: &[String]) -> Result<Command, String> {
    let mut dir = None;
    let mut out = None;
    let mut detectors = DetectorList::default();
    let mut opts = CorpusOptions::new(PathBuf::new());
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next_flag() {
        match arg {
            "--out" => out = Some(flags.string()?),
            "--detector" | "--detectors" => detectors.take(&mut flags)?,
            "--max-parallel" => opts.max_parallel = flags.positive()?,
            "--failure-policy" => {
                opts.policy = match flags.str()? {
                    "continue" => FailurePolicy::Continue,
                    "abort" => FailurePolicy::Abort,
                    other => {
                        return Err(format!(
                        "--failure-policy: unknown policy `{other}` (expected continue or abort)"
                    ))
                    }
                }
            }
            "--shards" => opts.shards = Some(flags.positive()?),
            "--lenient" => opts.lenient = true,
            "--fresh" => opts.fresh = true,
            "--stop-after-jobs" => opts.stop_after_jobs = Some(flags.positive()?),
            "--job-timeout-ms" => opts.job_timeout = Some(Duration::from_millis(flags.positive()?)),
            "--job-retries" => opts.job_retries = flags.positive()?,
            d if !d.starts_with('-') && dir.is_none() => dir = Some(d.to_string()),
            other => return Err(format!("corpus: unknown argument `{other}`")),
        }
    }
    opts.detectors = detectors.finish("corpus")?;
    let dir = dir.ok_or("corpus: a corpus directory is required")?;
    opts.out_dir = match out {
        Some(out) => PathBuf::from(out),
        None => Path::new(&dir).join("corpus-out"),
    };
    Ok(Command::Corpus { dir, opts })
}

fn parse_serve(args: &[String]) -> Result<Command, String> {
    let mut listen = None;
    let mut opts = ServeOptions::default();
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next_flag() {
        match arg {
            "--listen" => listen = Some(flags.string()?),
            "--workers" => opts.workers = flags.positive()?,
            "--queue-depth" => opts.queue_depth = flags.positive()?,
            "--checkpoint-dir" => opts.checkpoint_dir = PathBuf::from(flags.str()?),
            "--resume" => opts.resume = true,
            "--idle-timeout-ms" => {
                opts.idle_timeout = Some(Duration::from_millis(flags.positive()?))
            }
            "--io-deadline-ms" => opts.io_deadline = Some(Duration::from_millis(flags.positive()?)),
            "--max-sessions" => opts.max_sessions = flags.positive()?,
            "--inject-net" => opts.inject_net = Some(flags.seed()?),
            other => return Err(format!("serve: unknown argument `{other}`")),
        }
    }
    opts.addr = listen.ok_or("serve: --listen ADDR is required")?;
    Ok(Command::Serve(opts))
}

fn parse_client(args: &[String]) -> Result<Command, String> {
    let mut addr = None;
    let mut name = None;
    let mut opts = ClientOptions::default();
    let mut client = ClientArgs {
        file: None,
        shutdown: false,
    };
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next_flag() {
        match arg {
            "--checkpoint-every" => opts.checkpoint_every = Some(flags.positive()?),
            "--lenient" => opts.lenient = true,
            "--name" => name = Some(flags.string()?),
            "--chunk-events" => opts.chunk_events = Some(flags.positive()?),
            // 0 is meaningful: suspend before sending any chunk.
            "--suspend-after" => opts.suspend_after = Some(flags.count()?),
            "--shutdown" => client.shutdown = true,
            // 0 is meaningful: explicitly keep single-shot behavior.
            "--retries" => opts.retries = flags.count()?,
            "--retry-budget-ms" => opts.retry_budget_ms = Some(flags.positive()?),
            "--inject-net" => opts.inject_net = Some(flags.seed()?),
            a if !a.starts_with('-') && addr.is_none() => addr = Some(a.to_string()),
            f if !f.starts_with('-') && client.file.is_none() => client.file = Some(f.to_string()),
            other => return Err(format!("client: unknown argument `{other}`")),
        }
    }
    opts.addr = addr.ok_or("client: a daemon address is required")?;
    if client.shutdown && client.file.is_some() {
        return Err("client: --shutdown takes no trace file".into());
    }
    if !client.shutdown && client.file.is_none() {
        return Err("client: a trace file is required (or --shutdown)".into());
    }
    // The session name keys the daemon's checkpoint file: `--name`, else
    // the trace file's stem.
    let stem = client
        .file
        .as_deref()
        .and_then(|f| Path::new(f).file_stem());
    if let Some(name) = name.or_else(|| stem.map(|s| s.to_string_lossy().into_owned())) {
        opts.trace_name = name;
    }
    Ok(Command::Client(opts, client))
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
            "exec" => parse_exec(rest),
            "compare" => parse_compare(rest).map(Command::Compare),
            "info" => parse_single_file("info", rest).map(|file| Command::Info { file }),
            "verify" => parse_single_file("verify", rest).map(|file| Command::Verify { file }),
            "fuzz" => parse_fuzz(rest),
            "corpus" => parse_corpus(rest),
            "serve" => parse_serve(rest),
            "client" => parse_client(rest),
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
        let err = parse(&argv("record --bench series_future --out t --planted")).unwrap_err();
        assert!(err.contains("no planted-race variant"), "{err}");
        let Command::Record(r) = parse(&argv("record --bench prodcons --out t --planted")).unwrap()
        else {
            panic!()
        };
        assert!(r.program.planted);
        // Unplanted recording of non-plantable workloads stays fine.
        assert!(parse(&argv("record --bench crypt --out t")).is_ok());
    }

    #[test]
    fn fuzz_defaults_and_flags() {
        let Command::Fuzz(o, f) = parse(&argv("fuzz")).unwrap() else {
            panic!()
        };
        assert_eq!((o.programs, o.seed, f.gen), (256, 7, "nontree"));
        assert_eq!(f.out_dir, ".");
        assert!(f.time_budget_secs.is_none() && o.broken_detector.is_none());

        let Command::Fuzz(o, f) = parse(&argv(
            "fuzz --programs 64 --seed 9 --gen future-heavy --out-dir /tmp/cx \
             --time-budget-secs 30 --break-detector vc",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!((o.programs, o.seed), (64, 9));
        assert_eq!(f.gen, "future-heavy");
        assert_eq!(f.out_dir, "/tmp/cx");
        assert_eq!(f.time_budget_secs, Some(30));
        assert_eq!(o.broken_detector.as_deref(), Some("vc"));
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
        let Command::Record(r) = parse(&argv("record --bench lu --out t --tiny --scaled")).unwrap()
        else {
            panic!()
        };
        assert_eq!(r.program.scale, Scale::Scaled, "--scaled came last");
        let Command::Record(r) = parse(&argv("record --bench lu --out t --scaled --tiny")).unwrap()
        else {
            panic!()
        };
        assert_eq!(r.program.scale, Scale::Tiny, "--tiny came last");
    }

    #[test]
    fn record_defaults_and_chunk_flags() {
        let Command::Record(r) = parse(&argv("record --bench jacobi --out x.trace")).unwrap()
        else {
            panic!()
        };
        assert!(r.program.scale == Scale::Tiny && !r.program.planted);
        assert!(r.chunk_bytes.is_none() && r.inject.is_none());

        let Command::Record(r) = parse(&argv(
            "record --bench jacobi --out x.trace --chunk-bytes 4096 --planted",
        ))
        .unwrap() else {
            panic!()
        };
        assert!(r.program.planted);
        assert_eq!(r.chunk_bytes, Some(4096));

        // A chunk's payload length is a u32 in its header, and the writer
        // reserves a whole chunk up front, so the size is bounded.
        let max = MAX_CHUNK_BYTES;
        let ok = format!("record --bench jacobi --out x --chunk-bytes {max}");
        let Command::Record(r) = parse(&argv(&ok)).unwrap() else {
            panic!()
        };
        assert_eq!(r.chunk_bytes, Some(max));
        for n in [(max + 1).to_string(), usize::MAX.to_string()] {
            let err = parse(&argv(&format!(
                "record --bench jacobi --out x --chunk-bytes {n}"
            )))
            .unwrap_err();
            assert!(err.contains("above the largest chunk"), "{err}");
        }

        // There is one trace format, so there is no format flag.
        let err = parse(&argv("record --bench jacobi --out x --stream")).unwrap_err();
        assert!(err.contains("unknown argument `--stream`"), "{err}");
    }

    #[test]
    fn record_missing_required_flags() {
        assert!(parse(&argv("record --out t"))
            .unwrap_err()
            .contains("--bench"));
        assert!(parse(&argv("record --bench lu"))
            .unwrap_err()
            .contains("--out"));
        assert!(parse(&argv("record --bench"))
            .unwrap_err()
            .contains("value"));
    }

    #[test]
    fn analyze_flags() {
        let Command::Analyze(a) = parse(&argv("analyze t.trace --shards 4 --lenient")).unwrap()
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
        assert!(
            err.contains("dtrg, espbags"),
            "error lists valid names: {err}"
        );

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
        let Command::Exec(p, o) = parse(&argv("exec --bench jacobi --threads 4")).unwrap() else {
            panic!()
        };
        assert_eq!((p.bench.as_str(), o.threads), ("jacobi", 4));
        assert!(p.scale == Scale::Tiny && !p.planted);
        assert!(o.steal_seed.is_none());

        let Command::Exec(p, o) = parse(&argv(
            "exec --bench sor --threads 2 --detector dtrg --scaled --planted --steal-seed 9",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!((p.bench.as_str(), o.threads), ("sor", 2));
        assert!(p.scale == Scale::Scaled && p.planted);
        assert_eq!(o.steal_seed, Some(9));
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

        assert!(parse(&argv("exec --threads 2"))
            .unwrap_err()
            .contains("--bench"));
        assert!(parse(&argv("exec --bench jacobi"))
            .unwrap_err()
            .contains("--threads"));
        let err = parse(&argv("exec --bench jacobi --threads 2 --out t")).unwrap_err();
        assert!(err.contains("unknown argument"), "{err}");
    }

    #[test]
    fn exec_last_size_flag_wins() {
        let Command::Exec(p, _) =
            parse(&argv("exec --bench lu --threads 2 --tiny --scaled")).unwrap()
        else {
            panic!()
        };
        assert_eq!(p.scale, Scale::Scaled);
        let Command::Exec(p, _) =
            parse(&argv("exec --bench lu --threads 2 --scaled --tiny")).unwrap()
        else {
            panic!()
        };
        assert_eq!(p.scale, Scale::Tiny);
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
        assert!(parse(&argv("analyze t --inject"))
            .unwrap_err()
            .contains("value"));

        let Command::Analyze(a) = parse(&argv("analyze t --inject 42")).unwrap() else {
            panic!()
        };
        assert_eq!(a.inject, Some(42));
        assert!(a.supervised());

        // record-side: same validation.
        let err = parse(&argv("record --bench lu --out t --inject nope")).unwrap_err();
        assert!(err.contains("invalid seed `nope`"), "{err}");
        let Command::Record(r) = parse(&argv("record --bench lu --out t --inject 7")).unwrap()
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
    fn checkpoint_without_stop_after_is_a_usage_error() {
        // Only a suspend writes `--checkpoint FILE`; without `--stop-after`
        // the run would finish and silently write nothing.
        for line in [
            "analyze t --checkpoint c.ckpt",
            "analyze t --shards 2 --checkpoint-every 1 --checkpoint c.ckpt",
            "analyze t --resume r.ckpt --checkpoint c.ckpt",
        ] {
            let err = parse(&argv(line)).unwrap_err();
            assert!(
                err.contains("--checkpoint") && err.contains("--stop-after"),
                "{err}"
            );
        }
        let Command::Analyze(a) = parse(&argv(
            "analyze t --resume r.ckpt --stop-after 5 --checkpoint c.ckpt",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(
            (a.stop_after, a.checkpoint.as_deref()),
            (Some(5), Some("c.ckpt"))
        );
    }

    #[test]
    fn corpus_defaults() {
        let Command::Corpus { dir, opts: c } = parse(&argv("corpus traces/")).unwrap() else {
            panic!()
        };
        assert_eq!(dir, "traces/");
        assert_eq!(c.out_dir, Path::new("traces/").join("corpus-out"));
        assert_eq!(c.detectors, DETECTOR_NAMES);
        assert_eq!(c.max_parallel, 1);
        assert_eq!(c.policy, FailurePolicy::Continue);
        assert!(!c.lenient && !c.fresh);
        assert!(c.shards.is_none() && c.stop_after_jobs.is_none());
        assert!(c.job_timeout.is_none());
    }

    #[test]
    fn corpus_job_timeout_flag() {
        let Command::Corpus { opts: c, .. } =
            parse(&argv("corpus d --job-timeout-ms 5000")).unwrap()
        else {
            panic!()
        };
        assert_eq!(c.job_timeout, Some(Duration::from_millis(5000)));
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
        assert_eq!(s.addr, "127.0.0.1:0");
        assert_eq!((s.workers, s.queue_depth), (4, 16));
        assert!(s.checkpoint_dir == Path::new(".") && !s.resume);

        let Command::Serve(s) = parse(&argv(
            "serve --listen 0.0.0.0:7333 --workers 8 --queue-depth 32 \
             --checkpoint-dir /tmp/ckpts --resume",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!((s.workers, s.queue_depth), (8, 32));
        assert_eq!(s.checkpoint_dir, Path::new("/tmp/ckpts"));
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
        assert!(s.idle_timeout.is_none());
        assert_eq!(s.io_deadline, ServeOptions::default().io_deadline);
        assert!(s.max_sessions == 0 && s.inject_net.is_none());

        let Command::Serve(s) = parse(&argv(
            "serve --listen a:1 --idle-timeout-ms 2000 --io-deadline-ms 500 \
             --max-sessions 8 --inject-net 42",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(s.idle_timeout, Some(Duration::from_millis(2000)));
        assert_eq!(s.io_deadline, Some(Duration::from_millis(500)));
        assert_eq!(s.max_sessions, 8);
        assert_eq!(s.inject_net, Some(42));

        let err = parse(&argv("serve --listen a:1 --max-sessions 0")).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = parse(&argv("serve --listen a:1 --inject-net banana")).unwrap_err();
        assert!(err.contains("invalid seed `banana`"), "{err}");
    }

    #[test]
    fn client_flags() {
        let Command::Client(o, c) = parse(&argv("client 127.0.0.1:7333 t.ftrc --lenient")).unwrap()
        else {
            panic!()
        };
        assert_eq!(o.addr, "127.0.0.1:7333");
        assert_eq!(c.file.as_deref(), Some("t.ftrc"));
        assert!(o.lenient && !c.shutdown);

        let Command::Client(o, _) = parse(&argv(
            "client h:1 t --name fixture --chunk-events 64 --checkpoint-every 2 \
             --suspend-after 3",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(o.trace_name, "fixture");
        assert_eq!(o.chunk_events, Some(64));
        assert_eq!(o.checkpoint_every, Some(2));
        assert_eq!(o.suspend_after, Some(3));

        let Command::Client(_, c) = parse(&argv("client h:1 --shutdown")).unwrap() else {
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
        let Command::Client(o, _) = parse(&argv("client h:1 t")).unwrap() else {
            panic!()
        };
        assert_eq!(o.retries, 0);
        assert!(o.retry_budget_ms.is_none() && o.inject_net.is_none());

        let Command::Client(o, _) = parse(&argv(
            "client h:1 t --retries 5 --retry-budget-ms 30000 --inject-net 7",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(o.retries, 5);
        assert_eq!(o.retry_budget_ms, Some(30000));
        assert_eq!(o.inject_net, Some(7));

        // --retries 0 is explicit single-shot, not an error.
        let Command::Client(o, _) = parse(&argv("client h:1 t --retries 0")).unwrap() else {
            panic!()
        };
        assert_eq!(o.retries, 0);

        let err = parse(&argv("client h:1 t --retries many")).unwrap_err();
        assert!(err.contains("invalid count `many`"), "{err}");
        let err = parse(&argv("client h:1 t --retry-budget-ms 0")).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn corpus_full_flag_set() {
        let Command::Corpus { dir, opts: c } = parse(&argv(
            "corpus traces --out run1 --detectors dtrg,vc --max-parallel 4 \
             --failure-policy abort --shards 2 --lenient --fresh \
             --stop-after-jobs 9",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(dir, "traces");
        assert_eq!(c.out_dir, Path::new("run1"));
        assert_eq!(c.detectors, ["dtrg", "vc"]);
        assert_eq!(c.max_parallel, 4);
        assert_eq!(c.policy, FailurePolicy::Abort);
        assert!(c.lenient && c.fresh);
        assert_eq!(c.shards, Some(2));
        assert_eq!(c.stop_after_jobs, Some(9));
    }

    #[test]
    fn corpus_job_retries_flag() {
        let Command::Corpus { opts: c, .. } = parse(&argv("corpus d")).unwrap() else {
            panic!()
        };
        assert_eq!(c.job_retries, 0);
        let Command::Corpus { opts: c, .. } = parse(&argv("corpus d --job-retries 3")).unwrap()
        else {
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
        let err = parse(&argv("corpus d --shards 0")).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = parse(&argv("corpus d --stop-after-jobs 0")).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = parse(&argv("corpus d --frobnicate")).unwrap_err();
        assert!(err.contains("unknown argument"), "{err}");
    }

    // Each subcommand that parses into a library option struct: a minimal
    // line gives the library default plus its required values, and a line
    // setting every flag gives the whole expected struct.

    #[test]
    fn serve_parses_into_serve_options() {
        assert_eq!(
            parse(&argv("serve --listen h:1")).unwrap(),
            Command::Serve(ServeOptions {
                addr: "h:1".into(),
                ..ServeOptions::default()
            })
        );
        assert_eq!(
            parse(&argv(
                "serve --listen h:1 --workers 8 --queue-depth 32 --checkpoint-dir ck \
                 --resume --idle-timeout-ms 2000 --io-deadline-ms 500 --max-sessions 3 \
                 --inject-net 42",
            ))
            .unwrap(),
            Command::Serve(ServeOptions {
                addr: "h:1".into(),
                workers: 8,
                queue_depth: 32,
                checkpoint_dir: PathBuf::from("ck"),
                resume: true,
                idle_timeout: Some(Duration::from_millis(2000)),
                io_deadline: Some(Duration::from_millis(500)),
                max_sessions: 3,
                inject_net: Some(42),
            })
        );
    }

    #[test]
    fn client_parses_into_client_options() {
        let stream = |file: &str| ClientArgs {
            file: Some(file.into()),
            shutdown: false,
        };
        // The session name defaults to the trace file's stem.
        assert_eq!(
            parse(&argv("client h:1 traces/t.ftrc")).unwrap(),
            Command::Client(
                ClientOptions {
                    addr: "h:1".into(),
                    trace_name: "t".into(),
                    ..ClientOptions::default()
                },
                stream("traces/t.ftrc")
            )
        );
        assert_eq!(
            parse(&argv("client h:1 --shutdown")).unwrap(),
            Command::Client(
                ClientOptions {
                    addr: "h:1".into(),
                    ..ClientOptions::default()
                },
                ClientArgs {
                    file: None,
                    shutdown: true
                }
            )
        );
        assert_eq!(
            parse(&argv(
                "client h:1 t.ftrc --checkpoint-every 2 --lenient --name fx \
                 --chunk-events 64 --suspend-after 0 --retries 5 --retry-budget-ms 30000 \
                 --inject-net 7",
            ))
            .unwrap(),
            Command::Client(
                ClientOptions {
                    addr: "h:1".into(),
                    checkpoint_every: Some(2),
                    lenient: true,
                    trace_name: "fx".into(),
                    chunk_events: Some(64),
                    suspend_after: Some(0),
                    retries: 5,
                    retry_budget_ms: Some(30000),
                    inject_net: Some(7),
                },
                stream("t.ftrc")
            )
        );
    }

    #[test]
    fn corpus_parses_into_corpus_options() {
        assert_eq!(
            parse(&argv("corpus d")).unwrap(),
            Command::Corpus {
                dir: "d".into(),
                opts: CorpusOptions::new(Path::new("d").join("corpus-out")),
            }
        );
        assert_eq!(
            parse(&argv(
                "corpus d --out o --detectors vc,dtrg --max-parallel 4 --failure-policy abort \
                 --shards 2 --lenient --fresh --stop-after-jobs 9 \
                 --job-timeout-ms 5000 --job-retries 3",
            ))
            .unwrap(),
            Command::Corpus {
                dir: "d".into(),
                opts: CorpusOptions {
                    detectors: vec!["vc".into(), "dtrg".into()],
                    max_parallel: 4,
                    policy: FailurePolicy::Abort,
                    shards: Some(2),
                    lenient: true,
                    fresh: true,
                    stop_after_jobs: Some(9),
                    job_timeout: Some(Duration::from_millis(5000)),
                    job_retries: 3,
                    out_dir: PathBuf::from("o"),
                },
            }
        );
    }

    #[test]
    fn fuzz_parses_into_fuzz_options() {
        assert_eq!(
            parse(&argv("fuzz")).unwrap(),
            Command::Fuzz(
                FuzzOptions::default(),
                FuzzArgs {
                    gen: "nontree",
                    out_dir: ".".into(),
                    time_budget_secs: None,
                }
            )
        );
        assert_eq!(
            parse(&argv(
                "fuzz --programs 64 --seed 9 --gen default --out-dir cx \
                 --time-budget-secs 30 --break-detector vc",
            ))
            .unwrap(),
            Command::Fuzz(
                FuzzOptions {
                    programs: 64,
                    seed: 9,
                    params: GenParams::default(),
                    max_shrink_steps: FuzzOptions::default().max_shrink_steps,
                    broken_detector: Some("vc".into()),
                },
                FuzzArgs {
                    gen: "default",
                    out_dir: "cx".into(),
                    time_budget_secs: Some(30),
                }
            )
        );
        // A positive count past the target type's range names the type.
        let err = parse(&argv("fuzz --programs 4294967296")).unwrap_err();
        assert!(err.contains("`4294967296` exceeds the u32 range"), "{err}");
    }

    #[test]
    fn exec_parses_into_online_options() {
        assert_eq!(
            parse(&argv("exec --bench jacobi --threads 4")).unwrap(),
            Command::Exec(
                BenchProgram {
                    bench: "jacobi".into(),
                    scale: Scale::Tiny,
                    planted: false,
                },
                OnlineOptions::threads(4)
            )
        );
        assert_eq!(
            parse(&argv(
                "exec --bench sor --threads 2 --detector dtrg --scaled --planted --steal-seed 9",
            ))
            .unwrap(),
            Command::Exec(
                BenchProgram {
                    bench: "sor".into(),
                    scale: Scale::Scaled,
                    planted: true,
                },
                OnlineOptions {
                    threads: 2,
                    steal_seed: Some(9),
                }
            )
        );
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
        assert!(parse(&argv("frobnicate x"))
            .unwrap_err()
            .contains("unknown subcommand"));
        assert!(parse(&[]).unwrap_err().contains("subcommand"));
    }
}
