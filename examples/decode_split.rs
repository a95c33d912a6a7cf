//! Where the offline path's CPU goes, from trace bytes to a verdict:
//! records the four loop kernels of perfbench's `loops` workload
//! (`jacobi`, `smithwaterman`, `sor`, `crypt`) as framed traces through
//! `StreamWriter`, then times five stages over all four traces and prints
//! each stage's process CPU time and ns/event.
//!
//! * `crc` — a CRC-only walk of the chunks (`framed::chunks`): framing
//!   and checksums, no decoding.
//! * `decode` — the chunk reader (`trace_chunks`): every chunk checked
//!   and decoded into the compact form, as every offline backend reads
//!   it.
//! * `replay` — serial offline detection, `Analyze::trace_bytes(..).run()`.
//! * `sharded` — the same on two shard workers, `.shards(2).run()`.
//! * `serial` — serial detection while the program runs (Table 2's
//!   Racedet), which decodes nothing: what replay would cost if decoding
//!   were free.
//!
//! CPU time is read from `/proc/self/stat` (`utime` and `stime`), so the
//! example is Linux only. The times come in clock ticks of 10 ms
//! (`USER_HZ` is 100), so each measurement repeats the stage until the
//! batch runs for about a second, and reports the batch divided by its
//! runs. The stages take turns, `REPS` rounds of all five, so a drift of
//! the host spreads over every stage alike.
//!
//! ```text
//! cargo run --release --example decode_split
//! cargo run --release --example decode_split -- scaled 7
//! ```
//!
//! Arguments: `[tiny|scaled] [REPS]`, by default `scaled` and 5 rounds.

use futrace::benchsuite::registry::{self, Scale};
use futrace::detector::RaceDetector;
use futrace::offline::{framed, trace_chunks, StreamWriter};
use futrace::runtime::engine::Engine;
use futrace::Analyze;
use std::time::{Duration, Instant};

/// The programs of perfbench's `loops` workload.
const PROGRAMS: [&str; 4] = ["jacobi", "smithwaterman", "sor", "crypt"];

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

#[derive(Clone, Copy)]
enum Stage {
    Crc,
    Decode,
    Replay,
    Sharded,
    Serial,
}

const STAGES: [Stage; 5] = [
    Stage::Crc,
    Stage::Decode,
    Stage::Replay,
    Stage::Sharded,
    Stage::Serial,
];

impl Stage {
    fn name(self) -> &'static str {
        match self {
            Stage::Crc => "crc",
            Stage::Decode => "decode",
            Stage::Replay => "replay",
            Stage::Sharded => "sharded",
            Stage::Serial => "serial",
        }
    }

    /// Runs the stage once over every trace (or, for `serial`, every
    /// program).
    fn run(self, traces: &[Vec<u8>], scale: Scale) {
        for (name, blob) in PROGRAMS.iter().zip(traces) {
            match self {
                Stage::Crc => {
                    for chunk in framed::chunks(blob) {
                        chunk.expect("the recorded trace is intact");
                    }
                }
                Stage::Decode => {
                    for chunk in trace_chunks(blob, false) {
                        chunk.expect("the recorded trace decodes");
                    }
                }
                Stage::Replay => {
                    Analyze::trace_bytes(blob).run().expect("replay completes");
                }
                Stage::Sharded => {
                    Analyze::trace_bytes(blob)
                        .shards(2)
                        .run()
                        .expect("the sharded run completes");
                }
                Stage::Serial => {
                    let w = registry::find(name).expect("registry program");
                    let mut engine = Engine::new(RaceDetector::new());
                    w.run_into(&mut engine, scale, false);
                }
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
        eprintln!("usage: decode_split [tiny|scaled] [REPS]");
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

    let (mut events, mut bytes, mut chunks) = (0u64, 0u64, 0u64);
    let traces: Vec<Vec<u8>> = PROGRAMS
        .iter()
        .map(|name| {
            let w = registry::find(name).expect("registry program");
            let mut writer = StreamWriter::new(Vec::new()).expect("in-memory sink");
            w.run_into(&mut writer, scale, false);
            let (blob, stats) = writer.finish().expect("in-memory sink");
            (events, bytes, chunks) = (
                events + stats.events,
                bytes + stats.bytes_written,
                chunks + stats.chunks,
            );
            blob
        })
        .collect();

    // One timed run per stage sizes its batch; it also warms the heap.
    let batches: Vec<usize> = STAGES
        .iter()
        .map(|&stage| {
            let start = Instant::now();
            stage.run(&traces, scale);
            let once = start.elapsed().max(Duration::from_micros(1));
            (BATCH.as_secs_f64() / once.as_secs_f64()).ceil() as usize
        })
        .collect();

    let mut cpu: Vec<Vec<f64>> = vec![Vec::new(); STAGES.len()];
    for _ in 0..reps {
        for (i, &stage) in STAGES.iter().enumerate() {
            let ticks0 = cpu_ticks();
            for _ in 0..batches[i] {
                stage.run(&traces, scale);
            }
            let ticks1 = cpu_ticks();
            cpu[i].push((ticks1 - ticks0) as f64 * TICK_S / batches[i] as f64);
        }
    }

    println!(
        "{} ({}): {events} events, {bytes} bytes, {chunks} chunks; \
         CPU s per pass over all four, {reps} round(s)",
        PROGRAMS.join(", "),
        if scale == Scale::Tiny {
            "tiny"
        } else {
            "scaled"
        }
    );
    println!(
        "{:<8} {:>6} {:>10} {:>10} {:>10} {:>10}",
        "stage", "runs", "best_s", "median_s", "worst_s", "ns/event"
    );
    for (i, stage) in STAGES.iter().enumerate() {
        let best = cpu[i].iter().copied().fold(f64::INFINITY, f64::min);
        let worst = cpu[i].iter().copied().fold(0.0, f64::max);
        let med = median(&mut cpu[i]);
        println!(
            "{:<8} {:>6} {:>10.4} {:>10.4} {:>10.4} {:>10.2}",
            stage.name(),
            batches[i],
            best,
            med,
            worst,
            med * 1e9 / events.max(1) as f64
        );
    }
}
