//! The measurement loop: repetitions of every program through every
//! path, the verdict check on every operation, the exact-repeat guard,
//! and the end-to-end metrics.

use crate::clock::{timed, Times};
use crate::paths::{self, Daemon, Path, Verdict};
use crate::programs::{Program, Workload};
use crate::traced::{self, Tracer};
use futrace::benchsuite::registry::Scale;
use futrace::detector::RaceDetector;
use futrace::offline::trace_events;
use futrace::runtime::engine::{run_analysis, source};
use futrace::runtime::{run_serial, Event, NullMonitor};
use futrace::service::ClientOutcome;
use std::collections::btree_map::{BTreeMap, Entry};
use std::path::PathBuf;
use std::time::Instant;

/// Online runs per program in an untraced pass, which takes their
/// median: a run that grows the pool costs several times a normal one,
/// and with one run per repetition such bursts tripled the spread of
/// `online_s` on `racy`. A traced pass makes one, so its span times one
/// call.
const ONLINE_SAMPLES: usize = 3;

/// Repetitions a time-bounded run makes at least: a median needs two
/// values, and a traced run measures everything twice per repetition.
fn min_reps(traced: bool) -> usize {
    if traced {
        1
    } else {
        2
    }
}

/// The budget, as a multiple of `--seconds`, within which a third
/// repetition must end. The median of three is the first that one slow
/// repetition cannot move, so the third may overrun; on a loaded host
/// a `loops` or `racy` repetition takes 20 s or more, and a run then
/// stops at two.
const THIRD_REP_BUDGET: f64 = 1.5;

/// One benchmark run.
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Measuring budget in wall seconds: repetitions start while the
    /// longest one so far still fits, or for the third, while it fits in
    /// [`THIRD_REP_BUDGET`] times the budget.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end run.
    pub traced: bool,
    pub scale: Scale,
    /// Exactly this many repetitions, ignoring `seconds` (the self-test).
    pub reps: Option<usize>,
    /// Where daemon checkpoints and span files go.
    pub out_dir: PathBuf,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub repetitions: usize,
    pub metrics: Vec<Metric>,
    /// Human-readable findings of a traced run (attribution, overhead).
    pub notes: Vec<String>,
}

/// The end-to-end metrics, in output order, with their units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("serial_s", "s"),
    ("replay_s", "s"),
    ("sharded_s", "s"),
    ("supervised_s", "s"),
    ("online_s", "s"),
    ("daemon_s", "s"),
    ("footprint_entries", "count"),
];

/// Operation tally, verdict checks and the exact-repeat guard.
pub struct Checker {
    workload: &'static str,
    seed: u64,
    pub attempted: u64,
    pub failed: u64,
    /// First value seen per (program, metric), and where it was seen.
    seen: BTreeMap<(String, &'static str), (u64, String)>,
}

impl Checker {
    fn new(workload: Workload, seed: u64) -> Checker {
        Checker {
            workload: workload.name(),
            seed,
            attempted: 0,
            failed: 0,
            seen: BTreeMap::new(),
        }
    }

    /// Checks one operation: no error, the program's known answer (clean
    /// or racy), and the serial verdict text of the same repetition when
    /// `serial` is given. A failure is reported and counted, and the run
    /// goes on; only the exact-repeat guard aborts it.
    pub fn verdict(
        &mut self,
        rep: usize,
        prog: &Program,
        op: &str,
        outcome: Result<Verdict, String>,
        serial: Option<&str>,
    ) -> Result<(), String> {
        self.attempted += 1;
        let why = match &outcome {
            Err(e) => Some(format!("error: {e}")),
            Ok(v) if (v.races > 0) != prog.expect_races() => Some(format!(
                "{} race(s), expected the program to be {}",
                v.races,
                if prog.expect_races() {
                    "racy"
                } else {
                    "race-free"
                }
            )),
            Ok(v) => serial
                .filter(|s| *s != v.text)
                .map(|s| format!("verdict {:?} differs from serial's {s:?}", v.text)),
        };
        if let Some(why) = why {
            self.failed += 1;
            eprintln!(
                "FAILED workload={} seed={} rep={rep} program={} path={op}: {why}",
                self.workload,
                self.seed,
                prog.label()
            );
            return Ok(());
        }
        let v = outcome.expect("checked above");
        let source = || format!("{op} at rep {rep}");
        self.repeat(prog, "core.races_detected", v.races, source())?;
        if let Some(events) = v.events {
            self.repeat(prog, "runtime.events", events, source())?;
        }
        if let Some(f) = &v.footprint {
            self.repeat(
                prog,
                "footprint_entries",
                paths::footprint_entries(f),
                source(),
            )?;
        }
        if let Some((calls, expansions)) = v.precede {
            self.repeat(prog, "core.precede_calls", calls, source())?;
            self.repeat(prog, "core.visit_expansions", expansions, source())?;
        }
        Ok(())
    }

    /// The exact-repeat guard: a count must read the same on every
    /// repetition and every path that reports it.
    pub fn repeat(
        &mut self,
        prog: &Program,
        metric: &'static str,
        value: u64,
        source: String,
    ) -> Result<(), String> {
        match self.seen.entry((prog.label(), metric)) {
            Entry::Vacant(e) => {
                e.insert((value, source));
                Ok(())
            }
            Entry::Occupied(e) if e.get().0 == value => Ok(()),
            Entry::Occupied(e) => Err(format!(
                "exact-repeat guard: {metric} of {} is {value} in {source} but {} in {}",
                prog.label(),
                e.get().0,
                e.get().1
            )),
        }
    }
}

/// Median; 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median of each clock separately.
fn median_times(samples: &[Times]) -> Times {
    let pick = |f: fn(&Times) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    Times {
        cpu: pick(|t| t.cpu),
        wall: pick(|t| t.wall),
    }
}

/// What one pass over every program measured.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Recording every program.
    pub setup: Times,
    /// Each path over every program, indexed by [`Path`].
    pub paths: [Times; 6],
    pub footprint: u64,
    /// Counters for the per-layer metrics and, in a traced pass, the CPU
    /// seconds of every span name.
    pub sums: BTreeMap<&'static str, f64>,
}

impl Pass {
    fn add(&mut self, name: &'static str, value: f64) {
        *self.sums.entry(name).or_default() += value;
    }
}

/// One pass: every program recorded, then through every path, each
/// operation checked; online detection takes the median of
/// [`ONLINE_SAMPLES`] runs. With a recording tracer the pass instead
/// runs online detection once on every program, puts a span around
/// every layer call, and adds the operations only the per-layer metrics
/// need: an uninstrumented run, decoding and checking as separate
/// stages, and a directly driven `Session`.
pub fn pass(
    workload: Workload,
    rep: usize,
    programs: &[Program],
    daemon: &Daemon,
    checker: &mut Checker,
    tr: &mut Tracer,
) -> Result<Pass, String> {
    let first_span = tr.spans.len();
    let mut p = Pass::default();
    for prog in programs {
        let (recorded, secs) = tr.op(rep, prog, "runtime.record", |_| paths::record(prog));
        let (blob, events) =
            recorded.map_err(|e| format!("recording {} failed: {e}", prog.label()))?;
        p.setup += secs;
        let source = format!("record at rep {rep}");
        checker.repeat(
            prog,
            "offline.trace_bytes",
            blob.len() as u64,
            source.clone(),
        )?;
        checker.repeat(prog, "runtime.events", events, source)?;
        p.add("offline.trace_bytes", blob.len() as f64);
        p.add("runtime.events", events as f64);

        if tr.recording() {
            tr.op(rep, prog, "runtime.exec", |_| {
                run_serial(&mut NullMonitor, |ctx| prog.run(ctx))
            });
        }

        let ((report, counters), secs) =
            tr.op(rep, prog, Path::Serial.span(), |_| paths::serial(prog));
        p.paths[Path::Serial as usize] += secs;
        p.footprint += paths::footprint_entries(&report.footprint);
        let serial = Verdict::of_dtrg(&report, &counters);
        let reference = serial.text.clone();
        checker.verdict(rep, prog, Path::Serial.name(), Ok(serial), None)?;

        if tr.recording() {
            // The detector alone over pre-decoded events, and the
            // decoding alone: the two stages `replay_s` runs fused.
            let (checked, _) = tr.op(rep, prog, "replay.layers", |tr| {
                // Sized up front, so the span times decoding, not growth.
                let mut decoded: Vec<Event> = Vec::with_capacity(events as usize);
                tr.span("offline.decode", |_| {
                    for e in trace_events(&blob, false) {
                        decoded.push(e?);
                    }
                    Ok::<_, futrace::offline::TraceError>(())
                })
                .map_err(|e| e.to_string())?;
                Ok::<_, String>(tr.span("core.check", |_| {
                    run_analysis(source::recorded(&decoded), RaceDetector::new())
                }))
            });
            let checked = checked.map(|out| match out {
                Ok(out) => out,
                Err(never) => match never {},
            });
            if let Ok(out) = &checked {
                let (stats, f) = (&out.report.stats.dtrg, &out.report.footprint);
                p.add("core.precede_calls", stats.precede_calls as f64);
                p.add("core.visit_expansions", stats.visit_expansions as f64);
                p.add(
                    "core.races_detected",
                    out.report.report.total_detected as f64,
                );
                p.add("core.dtrg_tasks", f.dtrg_tasks as f64);
                p.add("core.nt_edges", f.stored_nt_edges as f64);
                p.add("core.shadow_cells", f.shadow_cells as f64);
                p.add("core.stored_readers", f.stored_readers as f64);
                p.add("checks", out.counters.checks() as f64);
                p.add("shadow_hits", stats.shadow_hits as f64);
                p.add("memo_hits", stats.memo_hits as f64);
                p.add("memo_lookups", (stats.memo_hits + stats.memo_misses) as f64);
            }
            let checked = checked.map(|out| Verdict::of_dtrg(&out.report, &out.counters));
            checker.verdict(rep, prog, "check", checked, Some(&reference))?;
        }

        for path in [Path::Replay, Path::Sharded, Path::Supervised] {
            let (out, secs) = tr.op(rep, prog, path.span(), |_| paths::offline(path, &blob));
            p.paths[path as usize] += secs;
            if let Ok(out) = &out {
                if let (Path::Sharded, Some(s)) = (path, &out.sharding) {
                    let max = s.per_shard_accesses.iter().copied().max().unwrap_or(0);
                    p.add("shard_max", max as f64);
                    p.add("shard_mean", s.accesses as f64 / s.shards.max(1) as f64);
                    p.add("offline.control_events", s.control_events as f64);
                }
                if let (Path::Supervised, Some(s)) = (path, &out.supervision) {
                    p.add("offline.snapshots", s.snapshots_taken as f64);
                    p.add("offline.restarts", s.shard_restarts as f64);
                }
            }
            let verdict = out.map(|o| Verdict::of_outcome(&o, path == Path::Replay));
            checker.verdict(rep, prog, path.name(), verdict, Some(&reference))?;
        }

        if prog.gates_online() || tr.recording() {
            let samples = if tr.recording() { 1 } else { ONLINE_SAMPLES };
            let mut times = Vec::with_capacity(samples);
            for _ in 0..samples {
                let (out, secs) = tr.op(rep, prog, Path::Online.span(), |_| paths::online(prog));
                times.push(secs);
                if let Some(s) = out.as_ref().ok().and_then(|o| o.online.as_ref()) {
                    p.add("runtime.online.frontier_waits", s.frontier_waits as f64);
                    p.add("runtime.online.publishes", s.publishes as f64);
                    p.add("runtime.online.batches", s.batches as f64);
                }
                let verdict = out.map(|o| Verdict::of_outcome(&o, false));
                checker.verdict(rep, prog, Path::Online.name(), verdict, Some(&reference))?;
            }
            if prog.gates_online() {
                p.paths[Path::Online as usize] += median_times(&times);
            }
        }

        // Session names only need to be unique while open; the suffix
        // keeps a traced run's two passes apart.
        let suffix = if tr.recording() { "t" } else { "e" };
        let name = format!("{}-{}-{suffix}{rep}", workload.name(), prog.label());
        let (out, secs) = tr.op(rep, prog, Path::Daemon.span(), |_| {
            paths::daemon(&daemon.addr, name, &blob)
        });
        p.paths[Path::Daemon as usize] += secs;
        if let Ok(ClientOutcome::Finished { chunks_sent, .. }) = &out {
            // Open/Hello and Finish/Final, plus one Chunk/VerdictDelta
            // exchange per chunk.
            p.add("service.round_trips", (chunks_sent + 2) as f64);
        }
        let verdict = out.and_then(Verdict::of_client);
        checker.verdict(rep, prog, Path::Daemon.name(), verdict, Some(&reference))?;

        if tr.recording() {
            let (out, _) = tr.op(rep, prog, "service.session", |tr| {
                traced::drive_session(tr, &blob)
            });
            if let Ok((_, counts)) = &out {
                p.add("offline.chunks", counts.chunks as f64);
                p.add("service.checkpoints", counts.checkpoints as f64);
                p.add("replayed_chunks", counts.replayed as f64);
            }
            let verdict = out.map(|(o, _)| Verdict::of_outcome(&o, false));
            checker.verdict(rep, prog, "session", verdict, Some(&reference))?;
        }
    }
    for span in &tr.spans[first_span..] {
        p.add(span.name, (span.cpu.1 - span.cpu.0).as_secs_f64());
    }
    Ok(p)
}

/// Runs the benchmark: repetitions until the budget is spent, then the
/// medians.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let programs = cfg.workload.programs(cfg.scale, cfg.seed);
    let checkpoint_dir = cfg.out_dir.join(format!("daemon-{}", std::process::id()));
    let (daemon, bind) = timed(|| Daemon::start(&checkpoint_dir));
    let daemon = daemon?;
    let mut checker = Checker::new(cfg.workload, cfg.seed);
    let mut tracer = Tracer::new(true);
    let mut passes: Vec<Pass> = Vec::new();
    let mut layers: Vec<BTreeMap<&'static str, f64>> = Vec::new();

    let start = Instant::now();
    let mut longest = 0.0f64;
    let measured = (|| -> Result<(), String> {
        loop {
            let rep = passes.len();
            let rep_start = Instant::now();
            let mut run_pass =
                |tr: &mut Tracer| pass(cfg.workload, rep, &programs, &daemon, &mut checker, tr);
            let plain = run_pass(&mut Tracer::new(false))?;
            eprintln!(
                "rep {rep}: setup {:.4} s cpu {:.4} s wall; paths cpu {:.4?} s, wall {:.4?} s",
                plain.setup.cpu,
                plain.setup.wall,
                plain.paths.map(|t| t.cpu),
                plain.paths.map(|t| t.wall)
            );
            if cfg.traced {
                let traced = run_pass(&mut tracer)?;
                layers.push(traced::layer_sums(traced, &plain));
            }
            passes.push(plain);
            longest = longest.max(rep_start.elapsed().as_secs_f64());
            let budget = if passes.len() < 3 {
                THIRD_REP_BUDGET * cfg.seconds
            } else {
                cfg.seconds
            };
            let enough = match cfg.reps {
                Some(n) => passes.len() >= n,
                None => {
                    passes.len() >= min_reps(cfg.traced)
                        && start.elapsed().as_secs_f64() + longest > budget
                }
            };
            if enough {
                return Ok(());
            }
        }
    })();
    let stopped = daemon.stop();
    let _ = std::fs::remove_dir_all(&checkpoint_dir);
    measured?;
    stopped?;

    let mut report = Report {
        attempted: checker.attempted,
        failed: checker.failed,
        repetitions: passes.len(),
        metrics: Vec::new(),
        notes: Vec::new(),
    };
    if cfg.traced {
        tracer.check_nesting()?;
        let spans = cfg.out_dir.join(format!(
            "spans-{}-seed{}.jsonl",
            cfg.workload.name(),
            cfg.seed
        ));
        tracer
            .write_jsonl(&spans)
            .map_err(|e| format!("cannot write {}: {e}", spans.display()))?;
        report
            .notes
            .push(format!("spans written to {}", spans.display()));
        traced::metrics(&layers, &mut report);
        return Ok(report);
    }

    let med = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    for (name, unit) in END_TO_END {
        let value = match name {
            "setup_s" => med(&|p| p.setup.cpu) + bind.cpu,
            "footprint_entries" => med(&|p| p.footprint as f64),
            _ => {
                let path = Path::ALL
                    .into_iter()
                    .find(|p| p.metric() == name)
                    .expect("every timed metric names a path");
                med(&|p| p.paths[path as usize].cpu)
            }
        };
        report.metrics.push(Metric { name, value, unit });
    }
    Ok(report)
}
