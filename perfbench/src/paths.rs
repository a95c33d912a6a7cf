//! The analysis paths under test, each called through the library's
//! public API exactly as a user calls it.

use crate::programs::Program;
use futrace::detector::{DtrgReport, MemoryFootprint, RaceDetector, RaceReport};
use futrace::offline::StreamWriter;
use futrace::runtime::engine::{Analysis, Engine, EngineCounters};
use futrace::runtime::run_serial;
use futrace::service::{self, render_verdict, ClientOptions, ClientOutcome, ServeOptions, Server};
use futrace::{AnalysisOutcome, Analyze};
use std::path::Path as FsPath;
use std::thread::JoinHandle;

/// Detect workers of the sharded and supervised paths.
pub const SHARDS: usize = 2;
/// Pool workers of the online path.
pub const ONLINE_THREADS: usize = 2;
/// Snapshot interval of the supervised path, in chunks (the CLI's
/// historical default).
pub const SUPERVISE_EVERY: u64 = 8;
/// Checkpoint interval of the daemon sessions, in chunks.
pub const DAEMON_CHECKPOINT_EVERY: u64 = 64;

/// One analysis path. `Serial` is Table 2's Racedet; every other path
/// must reproduce its verdict text byte for byte. The discriminant
/// indexes per-path arrays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    Serial,
    Replay,
    Sharded,
    Supervised,
    Online,
    Daemon,
}

impl Path {
    pub const ALL: [Path; 6] = [
        Path::Serial,
        Path::Replay,
        Path::Sharded,
        Path::Supervised,
        Path::Online,
        Path::Daemon,
    ];

    /// The end-to-end metric this path's time is reported under.
    pub fn metric(self) -> &'static str {
        match self {
            Path::Serial => "serial_s",
            Path::Replay => "replay_s",
            Path::Sharded => "sharded_s",
            Path::Supervised => "supervised_s",
            Path::Online => "online_s",
            Path::Daemon => "daemon_s",
        }
    }

    /// The traced run's wall-time counterpart of [`Path::metric`].
    pub fn wall_metric(self) -> &'static str {
        match self {
            Path::Serial => "serial_wall_s",
            Path::Replay => "replay_wall_s",
            Path::Sharded => "sharded_wall_s",
            Path::Supervised => "supervised_wall_s",
            Path::Online => "online_wall_s",
            Path::Daemon => "daemon_wall_s",
        }
    }

    /// The root span of this path's operations in the traced run.
    pub fn span(self) -> &'static str {
        match self {
            Path::Serial => "core.serial",
            Path::Replay => "analyze.replay",
            Path::Sharded => "analyze.sharded",
            Path::Supervised => "analyze.supervised",
            Path::Online => "runtime.online",
            Path::Daemon => "service.stream_trace",
        }
    }

    pub fn name(self) -> &'static str {
        let m = self.metric();
        &m[..m.len() - 2]
    }
}

/// What one operation returned, reduced to what every pass checks.
#[derive(Clone, Debug, Default)]
pub struct Verdict {
    /// `render_verdict` text.
    pub text: String,
    /// Races detected (uncapped).
    pub races: u64,
    /// Events the analysis consumed, where the path reports them.
    pub events: Option<u64>,
    /// Theorem 1's space terms, where one serial detector ran.
    pub footprint: Option<MemoryFootprint>,
    /// `Precede` calls and `Visit` expansions, where one serial detector
    /// ran (sharded replicas each keep their own memo).
    pub precede: Option<(u64, u64)>,
}

impl Verdict {
    pub fn of_report(report: &RaceReport) -> Verdict {
        Verdict {
            text: render_verdict(report),
            races: report.total_detected,
            ..Verdict::default()
        }
    }

    /// A serial detector's report plus its engine's counters.
    pub fn of_dtrg(report: &DtrgReport, counters: &EngineCounters) -> Verdict {
        Verdict {
            events: Some(counters.events),
            footprint: Some(report.footprint),
            precede: Some((
                report.stats.dtrg.precede_calls,
                report.stats.dtrg.visit_expansions,
            )),
            ..Verdict::of_report(&report.report)
        }
    }

    /// An `Analyze` outcome; `serial_detector` says whether its footprint
    /// and reachability counters come from one serial detector.
    pub fn of_outcome(out: &AnalysisOutcome, serial_detector: bool) -> Verdict {
        let mut v = Verdict::of_report(&out.races);
        v.events = Some(out.engine.events);
        if serial_detector {
            v.footprint = Some(out.footprint);
            v.precede = Some((
                out.stats.dtrg.precede_calls,
                out.stats.dtrg.visit_expansions,
            ));
        }
        v
    }

    pub fn of_client(out: ClientOutcome) -> Result<Verdict, String> {
        match out {
            ClientOutcome::Finished { races, verdict, .. } => Ok(Verdict {
                text: verdict,
                races,
                ..Verdict::default()
            }),
            ClientOutcome::Suspended { chunks } => {
                Err(format!("session suspended after {chunks} chunk(s)"))
            }
        }
    }
}

/// Sum of Theorem 1's space terms.
pub fn footprint_entries(f: &MemoryFootprint) -> u64 {
    (f.dtrg_tasks + f.stored_nt_edges + f.shadow_cells + f.stored_readers) as u64
}

/// Records `prog`'s framed trace in memory, the way `tracetool record
/// --stream` writes it to a file. Returns the blob and its event count.
pub fn record(prog: &Program) -> Result<(Vec<u8>, u64), String> {
    let mut writer = StreamWriter::new(Vec::new()).map_err(|e| e.to_string())?;
    run_serial(&mut writer, |ctx| prog.run(ctx));
    let (blob, stats) = writer.finish().map_err(|e| e.to_string())?;
    Ok((blob, stats.events))
}

/// On-the-fly serial detection (Table 2's Racedet).
pub fn serial(prog: &Program) -> (DtrgReport, EngineCounters) {
    let mut engine = Engine::new(RaceDetector::new());
    run_serial(&mut engine, |ctx| prog.run(ctx));
    let (detector, counters) = engine.into_parts();
    (Analysis::finish(detector), counters)
}

/// Offline analysis of a recorded trace: serial, sharded or supervised.
pub fn offline(path: Path, blob: &[u8]) -> Result<AnalysisOutcome, String> {
    let analyze = Analyze::trace_bytes(blob);
    let analyze = match path {
        Path::Replay => analyze,
        Path::Sharded => analyze.shards(SHARDS),
        Path::Supervised => analyze.shards(SHARDS).checkpoint_every(SUPERVISE_EVERY),
        other => unreachable!("{other:?} is not an offline path"),
    };
    analyze.run().map_err(|e| e.to_string())
}

/// Online detection while the program runs on the work-stealing pool.
pub fn online(prog: &Program) -> Result<AnalysisOutcome, String> {
    let prog = *prog;
    Analyze::program_parallel(ONLINE_THREADS, move |ctx| prog.run(ctx))
        .run()
        .map_err(|e| e.to_string())
}

/// Streams `blob` to the daemon at `addr` as one durable session named
/// `session`.
pub fn daemon(addr: &str, session: String, blob: &[u8]) -> Result<ClientOutcome, String> {
    let opts = ClientOptions {
        addr: addr.to_string(),
        checkpoint_every: Some(DAEMON_CHECKPOINT_EVERY),
        trace_name: session,
        ..ClientOptions::default()
    };
    service::stream_trace(&opts, blob).map_err(|e| e.to_string())
}

/// An in-process analysis daemon on a loopback port, with one worker.
pub struct Daemon {
    pub addr: String,
    thread: JoinHandle<std::io::Result<service::ServeSummary>>,
}

impl Daemon {
    /// Binds the daemon and starts serving on a thread of its own.
    pub fn start(checkpoint_dir: &FsPath) -> Result<Daemon, String> {
        let server = Server::bind(ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_depth: 1,
            checkpoint_dir: checkpoint_dir.to_path_buf(),
            ..ServeOptions::default()
        })
        .map_err(|e| format!("cannot bind the daemon: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("cannot read the daemon's address: {e}"))?
            .to_string();
        let thread = std::thread::spawn(move || server.run());
        Ok(Daemon { addr, thread })
    }

    /// Drains the daemon and waits for its thread.
    pub fn stop(self) -> Result<(), String> {
        service::shutdown(&self.addr).map_err(|e| format!("daemon shutdown failed: {e}"))?;
        self.thread
            .join()
            .map_err(|_| "the daemon thread panicked".to_string())?
            .map_err(|e| format!("the daemon failed: {e}"))?;
        Ok(())
    }
}
