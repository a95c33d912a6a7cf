//! Where the daemon path's CPU goes, from a trace file to a streamed
//! verdict: records the four loop kernels of perfbench's `loops` workload
//! (`jacobi`, `smithwaterman`, `sor`, `crypt`) as framed traces through
//! `StreamWriter`, starts an in-process daemon with one worker on a
//! loopback port, as perfbench does, then times seven runs over all four
//! traces and prints each run's process CPU time and the stage split
//! derived from them.
//!
//! * `prep` — `stream_trace` to a port nothing listens on: everything the
//!   client does before it dials (the truncation cut, the CRC walk of the
//!   chunks, the frame-cap check), plus one refused connect.
//! * `prep_lenient` — the same with `lenient`, which also decodes every
//!   chunk to drop the damaged ones.
//! * `feed` — a `Session` fed the same chunks directly, then finished:
//!   the daemon's decode and check, with no wire.
//! * `cut` — `feed`, plus `Session::checkpoint` every 64 chunks,
//!   perfbench's cadence.
//! * `persist` — `cut`, plus each checkpoint's `Checkpoint::encode` and
//!   its write to a temporary file renamed over the checkpoint file, as
//!   the daemon persists one.
//! * `stream` — `stream_trace` to the daemon, without checkpoints.
//! * `daemon` — `stream_trace` to the daemon with a checkpoint every 64
//!   chunks: perfbench's `daemon_s` path.
//!
//! The stages are differences of the runs' medians: the client's
//! preparation is `prep`; the wire is `stream - feed - prep` (framing,
//! both CRC checks, the copies and the socket, both ends); the session
//! feed is `feed`; the checkpoint cut is `cut - feed`; the checkpoint
//! encode and file write are `persist - cut`. Perfbench's traced
//! `service.wire_s` counts the daemon's encode and write as wire; this
//! split does not.
//!
//! The runs take turns, `REPS` rounds of all seven, each measured as
//! process CPU time over a batch of about a second (`split::take_turns`;
//! Linux only, as it reads `/proc/self/stat`). Process CPU time covers
//! the daemon's thread too.
//!
//! ```text
//! cargo run --release --example daemon_split
//! cargo run --release --example daemon_split -- scaled 7
//! ```
//!
//! Arguments: `[tiny|scaled] [REPS]`, by default `scaled` and 5 rounds.

mod split;

use futrace::offline::framed;
use futrace::service::{
    self, checkpoint_path, ClientOptions, ServeOptions, Server, Session, SessionConfig,
};
use split::{median, take_turns, Traces, PROGRAMS};
use std::path::{Path, PathBuf};

/// Perfbench's daemon checkpoint interval, in chunks.
const CHECKPOINT_EVERY: u64 = 64;

#[derive(Clone, Copy, PartialEq)]
enum Run {
    Prep,
    PrepLenient,
    Feed,
    Cut,
    Persist,
    Stream,
    Daemon,
}

const RUNS: [Run; 7] = [
    Run::Prep,
    Run::PrepLenient,
    Run::Feed,
    Run::Cut,
    Run::Persist,
    Run::Stream,
    Run::Daemon,
];

/// Where the runs send their traces.
struct Targets {
    /// The in-process daemon.
    daemon: String,
    /// A loopback port nothing listens on.
    closed: String,
    /// Where `persist` writes its checkpoints.
    dir: PathBuf,
}

impl Run {
    fn name(self) -> &'static str {
        match self {
            Run::Prep => "prep",
            Run::PrepLenient => "prep_lenient",
            Run::Feed => "feed",
            Run::Cut => "cut",
            Run::Persist => "persist",
            Run::Stream => "stream",
            Run::Daemon => "daemon",
        }
    }

    /// Runs once over every trace.
    fn run(self, traces: &[Vec<u8>], to: &Targets) {
        for (name, blob) in PROGRAMS.iter().zip(traces) {
            match self {
                Run::Prep | Run::PrepLenient => {
                    let opts = ClientOptions {
                        addr: to.closed.clone(),
                        lenient: self == Run::PrepLenient,
                        ..ClientOptions::default()
                    };
                    let refused = service::stream_trace(&opts, blob);
                    assert!(
                        matches!(refused, Err(service::ClientError::Io(_))),
                        "only the dial may fail: {refused:?}"
                    );
                }
                Run::Feed => feed(blob, None, None),
                Run::Cut => feed(blob, Some(CHECKPOINT_EVERY), None),
                Run::Persist => feed(
                    blob,
                    Some(CHECKPOINT_EVERY),
                    Some(&checkpoint_path(&to.dir, name)),
                ),
                Run::Stream | Run::Daemon => {
                    let opts = ClientOptions {
                        addr: to.daemon.clone(),
                        checkpoint_every: (self == Run::Daemon).then_some(CHECKPOINT_EVERY),
                        trace_name: name.to_string(),
                        ..ClientOptions::default()
                    };
                    service::stream_trace(&opts, blob).expect("the daemon streams the trace");
                }
            }
        }
    }
}

/// Feeds a trace's chunks to a session, as the daemon's worker does, with
/// a checkpoint cut every `every` chunks, each persisted to `file` when
/// one is given.
fn feed(blob: &[u8], every: Option<u64>, file: Option<&Path>) {
    let mut session = Session::open(SessionConfig::default()).expect("a valid configuration");
    for chunk in framed::chunks(blob) {
        let chunk = chunk.expect("the recorded trace is intact");
        let delta = session
            .feed_chunk(chunk.payload)
            .expect("the chunk decodes");
        if every.is_some_and(|every| delta.chunks.is_multiple_of(every)) {
            let cp = session
                .checkpoint()
                .expect("a checkpoint")
                .expect("chunks were fed");
            if let Some(file) = file {
                let tmp = file.with_extension("fckp.tmp");
                std::fs::write(&tmp, cp.encode()).expect("the checkpoint is written");
                std::fs::rename(&tmp, file).expect("the checkpoint is renamed");
            }
        }
    }
    session.finish().expect("the session finishes");
}

fn main() {
    let (scale, reps) = split::scale_and_reps("daemon_split");
    let traces = Traces::record(scale);

    let dir = std::env::temp_dir().join(format!("daemon_split-{}", std::process::id()));
    let server = Server::bind(ServeOptions {
        workers: 1,
        queue_depth: 1,
        checkpoint_dir: dir.join("daemon"),
        ..ServeOptions::default()
    })
    .expect("a loopback port");
    let daemon = server.local_addr().expect("the bound address").to_string();
    let serving = std::thread::spawn(move || server.run());
    let closed = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("a loopback port")
        .to_string();
    let to = Targets {
        daemon,
        closed,
        dir: dir.clone(),
    };

    let (batches, mut cpu) = take_turns(RUNS.len(), reps, |i| RUNS[i].run(&traces.blobs, &to));
    service::shutdown(&to.daemon).expect("the daemon drains");
    serving
        .join()
        .expect("the daemon thread")
        .expect("the daemon");
    std::fs::remove_dir_all(&dir).ok();

    println!("{}", traces.heading(scale, reps));
    println!(
        "{:<13} {:>6} {:>10} {:>10} {:>10}",
        "run", "runs", "best_s", "median_s", "worst_s"
    );
    let mut med = [0.0; RUNS.len()];
    for (i, run) in RUNS.iter().enumerate() {
        let best = cpu[i].iter().copied().fold(f64::INFINITY, f64::min);
        let worst = cpu[i].iter().copied().fold(0.0, f64::max);
        med[i] = median(&mut cpu[i]);
        println!(
            "{:<13} {:>6} {:>10.4} {:>10.4} {:>10.4}",
            run.name(),
            batches[i],
            best,
            med[i],
            worst
        );
    }
    let at = |run: Run| med[RUNS.iter().position(|&r| r == run).expect("a run")];
    let stages = [
        ("client prep", at(Run::Prep)),
        ("wire", at(Run::Stream) - at(Run::Feed) - at(Run::Prep)),
        ("session feed", at(Run::Feed)),
        ("checkpoint cut", at(Run::Cut) - at(Run::Feed)),
        ("encode + write", at(Run::Persist) - at(Run::Cut)),
    ];
    println!("{:<16} {:>10}", "stage", "median_s");
    for (name, s) in stages {
        println!("{name:<16} {s:>10.4}");
    }
    let sum: f64 = stages.iter().map(|(_, s)| s).sum();
    println!(
        "{:<16} {:>10.4} (daemon run: {:.4})",
        "sum",
        sum,
        at(Run::Daemon)
    );
    println!("{:<16} {:>10.4}", "lenient prep", at(Run::PrepLenient));
}
