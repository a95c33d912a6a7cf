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
//! The stages take turns, `REPS` rounds of all five, each measured as
//! process CPU time over a batch of about a second (`split::take_turns`;
//! Linux only, as it reads `/proc/self/stat`).
//!
//! ```text
//! cargo run --release --example decode_split
//! cargo run --release --example decode_split -- scaled 7
//! ```
//!
//! Arguments: `[tiny|scaled] [REPS]`, by default `scaled` and 5 rounds.

mod split;

use futrace::benchsuite::registry::{self, Scale};
use futrace::detector::RaceDetector;
use futrace::offline::{framed, trace_chunks};
use futrace::runtime::engine::Engine;
use futrace::Analyze;
use split::{median, take_turns, Traces, PROGRAMS};

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

fn main() {
    let (scale, reps) = split::scale_and_reps("decode_split");
    let traces = Traces::record(scale);
    let (batches, mut cpu) =
        take_turns(STAGES.len(), reps, |i| STAGES[i].run(&traces.blobs, scale));

    println!("{}", traces.heading(scale, reps));
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
            med * 1e9 / traces.events.max(1) as f64
        );
    }
}
