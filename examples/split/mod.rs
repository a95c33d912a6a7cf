//! What `decode_split` and `daemon_split` share: the `[tiny|scaled]
//! [REPS]` arguments, the four `loops` traces they time, and the loop
//! that times their runs in turns.
//!
//! CPU time is read from `/proc/self/stat` (`utime` and `stime`), so both
//! examples are Linux only. The times come in clock ticks of 10 ms
//! (`USER_HZ` is 100), so each measurement repeats its run until the
//! batch lasts about a second, and reports the batch divided by its
//! runs. The runs take turns, `REPS` rounds of all of them, so a drift of
//! the host spreads over every run alike.

use futrace::benchsuite::registry::{self, Scale};
use futrace::offline::StreamWriter;
use std::time::{Duration, Instant};

/// The programs of perfbench's `loops` workload.
pub const PROGRAMS: [&str; 4] = ["jacobi", "smithwaterman", "sor", "crypt"];

/// Wall time one measured batch should last at least.
const BATCH: Duration = Duration::from_secs(1);

/// Seconds per clock tick of `/proc/self/stat`.
const TICK_S: f64 = 0.01;

/// Process CPU ticks (user + system) so far.
fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name may hold spaces; every field after it is numeric.
    let rest = &stat[stat.rfind(')').expect("comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| -> u64 { fields[n - 3].parse().expect("numeric stat field") };
    field(14) + field(15)
}

pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// The arguments `[tiny|scaled] [REPS]`, by default `scaled` and 5
/// rounds; anything else prints `example`'s usage and exits 2.
pub fn scale_and_reps(example: &str) -> (Scale, usize) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = || -> ! {
        eprintln!("usage: {example} [tiny|scaled] [REPS]");
        std::process::exit(2);
    };
    let scale = match args.first().map(String::as_str) {
        None | Some("scaled") => Scale::Scaled,
        Some("tiny") => Scale::Tiny,
        Some(_) => usage(),
    };
    let reps = match args.get(1) {
        None => 5,
        Some(s) => s
            .parse()
            .ok()
            .filter(|&n: &usize| n >= 1)
            .unwrap_or_else(|| usage()),
    };
    (scale, reps)
}

/// The [`PROGRAMS`] recorded as framed traces through `StreamWriter`.
pub struct Traces {
    pub blobs: Vec<Vec<u8>>,
    pub events: u64,
    pub bytes: u64,
    pub chunks: u64,
}

impl Traces {
    pub fn record(scale: Scale) -> Traces {
        let mut traces = Traces {
            blobs: Vec::new(),
            events: 0,
            bytes: 0,
            chunks: 0,
        };
        for name in PROGRAMS {
            let w = registry::find(name).expect("registry program");
            let mut writer = StreamWriter::new(Vec::new()).expect("in-memory sink");
            w.run_into(&mut writer, scale, false);
            let (blob, stats) = writer.finish().expect("in-memory sink");
            traces.blobs.push(blob);
            traces.events += stats.events;
            traces.bytes += stats.bytes_written;
            traces.chunks += stats.chunks;
        }
        traces
    }

    /// The first line of a report: the programs, the scale and the
    /// totals.
    pub fn heading(&self, scale: Scale, reps: usize) -> String {
        format!(
            "{} ({}): {} events, {} bytes, {} chunks; \
             CPU s per pass over all four, {reps} round(s)",
            PROGRAMS.join(", "),
            if scale == Scale::Tiny {
                "tiny"
            } else {
                "scaled"
            },
            self.events,
            self.bytes,
            self.chunks
        )
    }
}

/// Times `runs` kinds of run in turns, calling `run(i)` for kind `i`:
/// one timed call per kind sizes its batch (and warms the heap), then
/// `reps` rounds time one batch of every kind. Returns each kind's batch
/// size and its process CPU seconds per call, one entry per round.
pub fn take_turns(
    runs: usize,
    reps: usize,
    mut run: impl FnMut(usize),
) -> (Vec<usize>, Vec<Vec<f64>>) {
    let batches: Vec<usize> = (0..runs)
        .map(|i| {
            let start = Instant::now();
            run(i);
            let once = start.elapsed().max(Duration::from_micros(1));
            (BATCH.as_secs_f64() / once.as_secs_f64()).ceil() as usize
        })
        .collect();
    let mut cpu: Vec<Vec<f64>> = vec![Vec::new(); runs];
    for _ in 0..reps {
        for i in 0..runs {
            let ticks0 = cpu_ticks();
            for _ in 0..batches[i] {
                run(i);
            }
            let ticks1 = cpu_ticks();
            cpu[i].push((ticks1 - ticks0) as f64 * TICK_S / batches[i] as f64);
        }
    }
    (batches, cpu)
}
