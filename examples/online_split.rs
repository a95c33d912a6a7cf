//! Where the online path's CPU goes: runs one registry program through
//! four stages, each a superset of the one before, and prints every
//! stage's process CPU time and minor page faults per run.
//!
//! * `serial` — serial detection: the program on the serial executor,
//!   driving the DTRG detector (Table 2's Racedet).
//! * `pool` — the bare work-stealing pool (`run_parallel`), nothing
//!   recorded.
//! * `walk` — the pool with recording and the canonical walker, driving a
//!   `NullMonitor` (`run_online`): everything of online detection but the
//!   check.
//! * `online` — full online detection (`Analyze::program_parallel`).
//!
//! CPU time and faults are read from `/proc/self/stat` (`utime`, `stime`
//! and `minflt`), so the example is Linux only. The times come in clock
//! ticks of 10 ms (`USER_HZ` is 100), so each measurement repeats the
//! stage until the batch runs for about a second, and reports the batch
//! divided by its runs. The stages take turns, `REPS` rounds of all four,
//! so a drift of the host spreads over every stage alike.
//!
//! ```text
//! cargo run --release --example online_split -- futtree
//! cargo run --release --example online_split -- crypt scaled 2 5
//! ```
//!
//! Arguments: `PROGRAM[+race] [tiny|scaled] [THREADS] [REPS]`, by
//! default `scaled`, 2 threads and 5 rounds.

use futrace::benchsuite::registry::{self, Scale, Workload};
use futrace::detector::RaceDetector;
use futrace::runtime::engine::Engine;
use futrace::runtime::online::{run_online, OnlineOptions, OnlineStats};
use futrace::runtime::{run_parallel, NullMonitor};
use futrace::Analyze;
use std::time::{Duration, Instant};

/// Wall time one measured batch should last at least.
const BATCH: Duration = Duration::from_secs(1);

/// Seconds per clock tick of `/proc/self/stat`.
const TICK_S: f64 = 0.01;

/// Process CPU ticks (user + system) and minor faults so far.
fn cpu_and_faults() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name may hold spaces; every field after it is numeric.
    let rest = &stat[stat.rfind(')').expect("comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| -> u64 { fields[n - 3].parse().expect("numeric stat field") };
    (field(14) + field(15), field(10))
}

#[derive(Clone, Copy)]
enum Stage {
    Serial,
    Pool,
    Walk,
    Online,
}

const STAGES: [Stage; 4] = [Stage::Serial, Stage::Pool, Stage::Walk, Stage::Online];

impl Stage {
    fn name(self) -> &'static str {
        match self {
            Stage::Serial => "serial",
            Stage::Pool => "pool",
            Stage::Walk => "walk",
            Stage::Online => "online",
        }
    }

    /// Runs the stage once; the walk stage returns its pipeline counters.
    fn run(
        self,
        w: &'static Workload,
        scale: Scale,
        planted: bool,
        threads: usize,
    ) -> Option<OnlineStats> {
        match self {
            Stage::Serial => {
                let mut engine = Engine::new(RaceDetector::new());
                w.run_into(&mut engine, scale, planted);
                None
            }
            Stage::Pool => {
                run_parallel(threads, |ctx| w.run_parallel_into(ctx, scale, planted))
                    .expect("the program does not deadlock");
                None
            }
            Stage::Walk => {
                let run = run_online(OnlineOptions::threads(threads), &mut NullMonitor, |ctx| {
                    w.run_parallel_into(ctx, scale, planted)
                });
                run.result.expect("the program does not deadlock");
                Some(run.stats)
            }
            Stage::Online => {
                Analyze::program_parallel(threads, move |ctx| {
                    w.run_parallel_into(ctx, scale, planted)
                })
                .run()
                .expect("online detection completes");
                None
            }
        }
    }
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = || -> ! {
        eprintln!("usage: online_split PROGRAM[+race] [tiny|scaled] [THREADS] [REPS]");
        std::process::exit(2);
    };
    let Some(program) = args.first() else { usage() };
    let (name, planted) = match program.strip_suffix("+race") {
        Some(name) => (name, true),
        None => (program.as_str(), false),
    };
    let Some(w) = registry::find(name) else {
        eprintln!(
            "no registry program `{name}`; known: {}",
            registry::names().join(", ")
        );
        std::process::exit(2);
    };
    if planted && !w.plantable {
        eprintln!("`{name}` has no planted-race variant");
        std::process::exit(2);
    }
    let scale = match args.get(1).map(String::as_str) {
        None | Some("scaled") => Scale::Scaled,
        Some("tiny") => Scale::Tiny,
        Some(_) => usage(),
    };
    let number = |i: usize, default: usize| match args.get(i) {
        None => default,
        Some(s) => s
            .parse()
            .ok()
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| usage()),
    };
    let threads = number(2, 2);
    let reps = number(3, 5);

    // One timed run per stage sizes its batch; it also warms the heap.
    let batches: Vec<usize> = STAGES
        .iter()
        .map(|&stage| {
            let start = Instant::now();
            stage.run(w, scale, planted, threads);
            let once = start.elapsed().max(Duration::from_micros(1));
            (BATCH.as_secs_f64() / once.as_secs_f64()).ceil() as usize
        })
        .collect();

    let mut cpu: Vec<Vec<f64>> = vec![Vec::new(); STAGES.len()];
    let mut faults: Vec<Vec<f64>> = vec![Vec::new(); STAGES.len()];
    let mut walk_stats = None;
    for _ in 0..reps {
        for (i, &stage) in STAGES.iter().enumerate() {
            let (ticks0, faults0) = cpu_and_faults();
            for _ in 0..batches[i] {
                if let Some(stats) = stage.run(w, scale, planted, threads) {
                    walk_stats = Some(stats);
                }
            }
            let (ticks1, faults1) = cpu_and_faults();
            let runs = batches[i] as f64;
            cpu[i].push((ticks1 - ticks0) as f64 * TICK_S / runs);
            faults[i].push((faults1 - faults0) as f64 / runs);
        }
    }

    println!(
        "{program} ({}, {threads} thread(s)): CPU s and minor faults per run, \
         {reps} round(s)",
        if scale == Scale::Tiny {
            "tiny"
        } else {
            "scaled"
        }
    );
    println!(
        "{:<8} {:>6} {:>10} {:>10} {:>10} {:>12}",
        "stage", "runs", "best_s", "median_s", "worst_s", "minflt"
    );
    for (i, stage) in STAGES.iter().enumerate() {
        let best = cpu[i].iter().copied().fold(f64::INFINITY, f64::min);
        let worst = cpu[i].iter().copied().fold(0.0, f64::max);
        println!(
            "{:<8} {:>6} {:>10.4} {:>10.4} {:>10.4} {:>12.0}",
            stage.name(),
            batches[i],
            best,
            median(&mut cpu[i]),
            worst,
            median(&mut faults[i])
        );
    }
    if let Some(stats) = walk_stats {
        println!("walk: {stats}");
    }
}
