//! `dtrgperf` — measured perf harness for the DTRG detector's hot path.
//!
//! For each selected benchsuite program the harness:
//!
//! 1. records the serial depth-first event stream once ([`EventLog`]);
//! 2. times the **uninstrumented** execution (the DSL under
//!    [`NullMonitor`] — the denominator of the paper's slowdown column);
//! 3. times the detector over the recorded stream with the hot-path
//!    caches **on** (the default [`DetectorConfig`]) and **off**
//!    (`caching: false`), replayed through the engine (`run_analysis`),
//!    which dispatches one event at a time as every path does;
//! 4. asserts the two verdicts are identical, and
//! 5. emits one JSON object per program into `BENCH_dtrg.json`:
//!    median ns/event for each mode, the cached-vs-uncached improvement
//!    factor, slowdown vs the uninstrumented run, and the cache
//!    hit/miss counters (memo + shadow fast path).
//!
//! Sampling reuses the in-tree runner's protocol
//! ([`futrace_bench::runner`]): `FUTRACE_BENCH_WARMUP` untimed then
//! `FUTRACE_BENCH_SAMPLES` timed iterations, median-of-samples (robust
//! to scheduling noise in CI). The comparison pairs — cached vs
//! uncached, serial-live vs online — are sampled *interleaved*
//! (`Group::bench_pair`) so a noise burst on a shared machine hits both
//! sides of the reported ratio instead of skewing one.
//!
//! Usage: `dtrgperf [--out PATH] [--programs a,b,...] [--list]`

use futrace_bench::runner::Runner;
use futrace_benchsuite::registry::{self, Scale, Workload};
use futrace_detector::{DetectorConfig, RaceDetector};
use futrace_runtime::engine::{run_analysis, source, Analysis, Engine};
use futrace_runtime::online::{run_online, OnlineOptions};
use futrace_runtime::{Event, EventLog, NullMonitor};

/// Executor worker threads for the online rows. Detection runs on one
/// more thread, the canonical walker, overlapping with execution.
const ONLINE_THREADS: usize = 4;

/// Programs that also get online rows: live serial-instrumented wall
/// time vs `run_online` at [`ONLINE_THREADS`] threads. The stencil /
/// wavefront / block workloads, where per-task kernels are heavy enough
/// for execution to overlap detection.
const ONLINE_PROGRAMS: &[&str] = &["jacobi", "sor", "smithwaterman", "crypt"];

/// The profiled subset of the benchsuite registry: every workload with
/// `perf: true`, at [`Scale::Perf`] sizes (scaled sizes except where the
/// kernel would dominate the measurement — see `SeriesParams::perf`).
fn all_workloads() -> Vec<&'static Workload> {
    registry::workloads().iter().filter(|w| w.perf).collect()
}

/// One program's measurements, serialized as one JSON object.
struct ProgramResult {
    name: &'static str,
    events: u64,
    accesses: u64,
    races: u64,
    uninstrumented_median_ns: u64,
    cached_median_ns: u64,
    uncached_median_ns: u64,
    cache_hits: u64,
    cache_misses: u64,
    memo_hits: u64,
    memo_misses: u64,
    shadow_hits: u64,
    online: Option<OnlineResult>,
}

/// Online rows for the [`ONLINE_PROGRAMS`] subset: serial instrumented
/// execution (run + detect on one thread) vs the overlapped pipeline.
struct OnlineResult {
    threads: usize,
    serial_live_median_ns: u64,
    online_median_ns: u64,
}

impl OnlineResult {
    /// Serial-instrumented vs online wall-time speedup (>1 means the
    /// overlapped pipeline wins).
    fn speedup(&self) -> f64 {
        self.serial_live_median_ns as f64 / self.online_median_ns.max(1) as f64
    }
}

impl ProgramResult {
    fn cached_ns_per_event(&self) -> f64 {
        self.cached_median_ns as f64 / self.events.max(1) as f64
    }

    fn uncached_ns_per_event(&self) -> f64 {
        self.uncached_median_ns as f64 / self.events.max(1) as f64
    }

    /// Cached-vs-uncached median speedup (>1 means the caches help).
    fn improvement(&self) -> f64 {
        self.uncached_median_ns as f64 / self.cached_median_ns.max(1) as f64
    }

    fn slowdown_cached(&self) -> f64 {
        self.cached_median_ns as f64 / self.uninstrumented_median_ns.max(1) as f64
    }

    fn slowdown_uncached(&self) -> f64 {
        self.uncached_median_ns as f64 / self.uninstrumented_median_ns.max(1) as f64
    }

    fn to_json(&self) -> String {
        let online = self.online.as_ref().map_or(String::new(), |o| {
            format!(
                concat!(
                    ",\"online_threads\":{},\"serial_live_median_ns\":{},",
                    "\"online_median_ns\":{},\"online_speedup\":{:.3}"
                ),
                o.threads,
                o.serial_live_median_ns,
                o.online_median_ns,
                o.speedup()
            )
        });
        format!(
            concat!(
                "    {{\"name\":\"{}\",\"events\":{},\"accesses\":{},\"races\":{},",
                "\"uninstrumented_median_ns\":{},\"cached_median_ns\":{},",
                "\"uncached_median_ns\":{},\"cached_ns_per_event\":{:.3},",
                "\"uncached_ns_per_event\":{:.3},\"improvement\":{:.3},",
                "\"slowdown_cached\":{:.3},\"slowdown_uncached\":{:.3},",
                "\"cache_hits\":{},\"cache_misses\":{},\"memo_hits\":{},",
                "\"memo_misses\":{},\"shadow_hits\":{}{}}}"
            ),
            self.name,
            self.events,
            self.accesses,
            self.races,
            self.uninstrumented_median_ns,
            self.cached_median_ns,
            self.uncached_median_ns,
            self.cached_ns_per_event(),
            self.uncached_ns_per_event(),
            self.improvement(),
            self.slowdown_cached(),
            self.slowdown_uncached(),
            self.cache_hits,
            self.cache_misses,
            self.memo_hits,
            self.memo_misses,
            self.shadow_hits,
            online,
        )
    }
}

fn measure(w: &Workload, runner: &mut Runner) -> ProgramResult {
    // Record the stream once; every detector run replays it, so the
    // detector timings exclude DSL execution cost.
    let log: EventLog = w.record(Scale::Perf, false);
    let events = log.events;
    let accesses = events
        .iter()
        .filter(|e| matches!(e, Event::Read(..) | Event::Write(..)))
        .count() as u64;

    let cached_cfg = DetectorConfig::default();
    let uncached_cfg = DetectorConfig {
        caching: false,
        ..DetectorConfig::default()
    };
    let replay = |cfg: &DetectorConfig| match run_analysis(
        source::recorded(&events),
        RaceDetector::with_config(cfg.clone()),
    ) {
        Ok(out) => out,
        Err(never) => match never {},
    };

    // The caches must never change the verdict (the equivalence suite
    // checks this over random programs; re-assert on the real workloads).
    let cached_out = replay(&cached_cfg);
    let uncached_out = replay(&uncached_cfg);
    assert_eq!(
        cached_out.report.report.races, uncached_out.report.report.races,
        "{}: cached and uncached verdicts must be identical",
        w.name
    );
    let dtrg = &cached_out.report.stats.dtrg;
    let (cache_hits, cache_misses) = (dtrg.memo_hits + dtrg.shadow_hits, dtrg.memo_misses);

    // One detector engine on the walker thread, as
    // `Analyze::program_parallel` runs it; reports whether the execution
    // completed, and the finished detector report.
    let online = || {
        let mut engine = Engine::new(RaceDetector::new());
        let run = run_online(OnlineOptions::threads(ONLINE_THREADS), &mut engine, |ctx| {
            w.run_parallel_into(ctx, Scale::Perf, false)
        });
        (run.result.is_ok(), engine.into_parts().0.finish())
    };
    let with_online = ONLINE_PROGRAMS.contains(&w.name);
    if with_online {
        // The online run must agree with the replayed verdict before we
        // bother timing it.
        let (completed, online_report) = online();
        assert!(completed, "{}: online run failed", w.name);
        assert_eq!(
            online_report.report.races, cached_out.report.report.races,
            "{}: online and replayed verdicts must be identical",
            w.name
        );
    }

    let mut group = runner.benchmark_group(format!("dtrgperf/{}", w.name));
    group.bench_function("uninstrumented", |b| {
        b.iter(|| {
            let mut nm = NullMonitor;
            w.run_into(&mut nm, Scale::Perf, false);
        })
    });
    // The reported numbers are *ratios* (improvement, online speedup), so
    // both sides of each pair are sampled interleaved: background-noise
    // bursts on a shared box then hit cached and uncached equally instead
    // of whichever block happened to be running.
    group.bench_pair(
        "cached",
        || replay(&cached_cfg),
        "uncached",
        || replay(&uncached_cfg),
    );
    if with_online {
        // End-to-end wall time, execution included: one instrumented
        // serial thread vs the work-stealing executor with detection
        // overlapped on the walker thread.
        group.bench_pair(
            "serial-live",
            || {
                let mut engine = Engine::new(RaceDetector::new());
                w.run_into(&mut engine, Scale::Perf, false);
                let (analysis, _) = engine.into_parts();
                analysis.finish()
            },
            "online",
            online,
        );
    }
    group.finish();

    let recs = runner.records();
    let median = |suffix: &str| {
        recs.iter()
            .rev()
            .find(|r| r.bench == suffix && r.group.ends_with(w.name))
            .expect("record just measured")
            .median_ns
    };
    ProgramResult {
        name: w.name,
        events: events.len() as u64,
        accesses,
        races: cached_out.report.report.total_detected,
        uninstrumented_median_ns: median("uninstrumented"),
        cached_median_ns: median("cached"),
        uncached_median_ns: median("uncached"),
        cache_hits,
        cache_misses,
        memo_hits: dtrg.memo_hits,
        memo_misses: dtrg.memo_misses,
        shadow_hits: dtrg.shadow_hits,
        online: with_online.then(|| OnlineResult {
            threads: ONLINE_THREADS,
            serial_live_median_ns: median("serial-live"),
            online_median_ns: median("online"),
        }),
    }
}

fn main() {
    let mut out_path = String::from("BENCH_dtrg.json");
    let mut selected: Option<Vec<String>> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--programs" => {
                selected = Some(
                    args.next()
                        .expect("--programs needs a comma-separated list")
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .collect(),
                )
            }
            "--list" => {
                for w in all_workloads() {
                    println!("{}", w.name);
                }
                return;
            }
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!("usage: dtrgperf [--out PATH] [--programs a,b,...] [--list]");
                std::process::exit(2);
            }
        }
    }

    let workloads: Vec<&Workload> = all_workloads()
        .into_iter()
        .filter(|w| {
            selected
                .as_ref()
                .is_none_or(|names| names.iter().any(|n| n == w.name))
        })
        .collect();
    if let Some(names) = &selected {
        let known: Vec<&str> = workloads.iter().map(|w| w.name).collect();
        for n in names {
            assert!(
                known.contains(&n.as_str()),
                "unknown program {n:?} (try --list)"
            );
        }
    }

    let mut runner = Runner::from_env();
    let results: Vec<ProgramResult> = workloads.iter().map(|w| measure(w, &mut runner)).collect();

    println!();
    println!(
        "{:<14} {:>9} {:>12} {:>12} {:>12} {:>8} {:>12}",
        "program", "events", "uninstr", "cached", "uncached", "improve", "cache h/m"
    );
    for r in &results {
        println!(
            "{:<14} {:>9} {:>10.1}ms {:>10.1}ms {:>10.1}ms {:>7.2}x {:>7}/{}",
            r.name,
            r.events,
            r.uninstrumented_median_ns as f64 / 1e6,
            r.cached_median_ns as f64 / 1e6,
            r.uncached_median_ns as f64 / 1e6,
            r.improvement(),
            r.cache_hits,
            r.cache_misses,
        );
    }
    let online_rows: Vec<&ProgramResult> = results.iter().filter(|r| r.online.is_some()).collect();
    if !online_rows.is_empty() {
        println!();
        println!(
            "{:<14} {:>12} {:>12} {:>8}",
            "online", "serial-live", "online", "speedup"
        );
        for r in &online_rows {
            let o = r.online.as_ref().expect("filtered on is_some");
            println!(
                "{:<14} {:>10.1}ms {:>10.1}ms {:>7.2}x",
                format!("{}@{}t", r.name, o.threads),
                o.serial_live_median_ns as f64 / 1e6,
                o.online_median_ns as f64 / 1e6,
                o.speedup(),
            );
        }
    }

    let body: Vec<String> = results.iter().map(|r| r.to_json()).collect();
    let json = format!(
        "{{\n  \"harness\": \"dtrgperf\",\n  \"unit\": \"ns\",\n  \"programs\": [\n{}\n  ]\n}}\n",
        body.join(",\n")
    );
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("\nwrote {out_path}");
}
