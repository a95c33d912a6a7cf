//! Propcheck: the reconnecting client reaches the fault-free verdict
//! under seeded network fault injection.
//!
//! One in-process daemon, one generated trace. For a range of seeds the
//! client streams the trace with `inject_net` wrapping its socket in
//! [`futrace_util::faultinject::NetFaults`] — short ops, transient
//! `Interrupted`/`WouldBlock` bursts, and mid-frame connection cuts —
//! and a bounded reconnect budget. Every seed must converge on the
//! byte-identical fault-free verdict; the final allowed attempt runs
//! clean, so convergence is guaranteed whenever the daemon itself is
//! healthy.

use futrace_benchsuite::randomprog::{self, GenParams};
use futrace_offline::StreamWriter;
use futrace_runtime::{replay, run_serial, EventLog};
use futrace_service::{shutdown, stream_trace, ClientOptions, ClientOutcome, ServeOptions, Server};
use futrace_util::faultinject::NetFaults;
use futrace_util::rng::splitmix64;
use std::path::PathBuf;

/// Seeds exercised per run. Each seed draws independent read/write fault
/// schedules for every connection attempt, so a few dozen lanes cover
/// clean, short-op, transient-burst, and cut scenarios in both
/// directions.
const SEEDS: u64 = 24;

/// Reconnect budget per seed; generous enough that even a seed whose
/// first few lanes all cut still reaches the guaranteed-clean attempt.
const RETRIES: u32 = 4;

fn gen_trace_n(seed: u64, programs: usize) -> Vec<u8> {
    let mut state = seed;
    let progs: Vec<_> = (0..programs)
        .map(|_| randomprog::generate(splitmix64(&mut state), &GenParams::future_heavy()))
        .collect();
    let mut log = EventLog::new();
    run_serial(&mut log, |ctx| {
        for prog in &progs {
            randomprog::execute(ctx, prog);
        }
    });
    // Small chunks: many wire frames per session, so byte-offset cuts
    // land mid-stream rather than before the handshake.
    let mut w = StreamWriter::with_chunk_bytes(Vec::new(), 512).expect("writing to a Vec");
    replay(&log.events, &mut w);
    let (blob, _) = w.finish().expect("writing to a Vec");
    blob
}

/// Concatenates generated programs until the trace outspans the injected
/// cut range (200..20_000 bytes), so every write-cut lane actually tears
/// the connection mid-stream.
fn gen_trace(seed: u64) -> Vec<u8> {
    let mut programs = 64;
    loop {
        let blob = gen_trace_n(seed, programs);
        if blob.len() >= 24_000 || programs >= 4096 {
            return blob;
        }
        programs *= 2;
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("futrace-reconnect-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn start_daemon(
    dir: &PathBuf,
) -> (
    String,
    std::thread::JoinHandle<futrace_service::ServeSummary>,
) {
    let server = Server::bind(ServeOptions {
        checkpoint_dir: dir.clone(),
        resume: true,
        ..ServeOptions::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || server.run().expect("serve"));
    (addr, handle)
}

fn opts(addr: &str, name: &str) -> ClientOptions {
    ClientOptions {
        addr: addr.to_string(),
        trace_name: name.to_string(),
        ..ClientOptions::default()
    }
}

#[test]
fn seeded_faults_converge_on_the_fault_free_verdict() {
    let dir = scratch_dir("prop");
    let (addr, handle) = start_daemon(&dir);
    let blob = gen_trace(0xF00D);

    let baseline = match stream_trace(&opts(&addr, "baseline"), &blob) {
        Ok(ClientOutcome::Finished {
            races,
            verdict,
            attempts,
            ..
        }) => {
            assert_eq!(attempts, 1, "fault-free run must not reconnect");
            (races, verdict)
        }
        other => panic!("fault-free baseline did not finish: {other:?}"),
    };

    let mut reconnected = 0u64;
    for seed in 0..SEEDS {
        let mut o = opts(&addr, &format!("prop-{seed}"));
        o.inject_net = Some(seed);
        o.retries = RETRIES;
        match stream_trace(&o, &blob) {
            Ok(ClientOutcome::Finished {
                races,
                verdict,
                attempts,
                ..
            }) => {
                assert_eq!(
                    (races, &verdict),
                    (baseline.0, &baseline.1),
                    "seed {seed} diverged from the fault-free verdict"
                );
                assert!(
                    attempts >= 1 && attempts <= RETRIES + 1,
                    "seed {seed}: attempts {attempts} outside budget"
                );
                if attempts > 1 {
                    reconnected += 1;
                }
            }
            other => panic!("seed {seed} did not finish: {other:?}"),
        }
    }
    // The seed range must actually exercise the reconnect path — a
    // regression that stops injecting cuts would otherwise pass silently.
    assert!(
        reconnected > 0,
        "no seed in 0..{SEEDS} forced a reconnect; injection is inert"
    );

    shutdown(&addr).expect("shutdown");
    let summary = handle.join().expect("daemon thread");
    assert_eq!(summary.busy_rejected, 0, "no quota in play");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retries_zero_surfaces_the_raw_error() {
    let dir = scratch_dir("raw");
    let (addr, handle) = start_daemon(&dir);
    let blob = gen_trace(0xBEEF);

    // Find a seed whose first lane cuts the write half early, so the
    // single allowed (and still faulted) attempt is guaranteed to tear.
    let seed = (0..1024)
        .find(|&s| matches!(NetFaults::from_seed(s, 0).write.hard_error_at, Some(at) if at < 4096))
        .expect("some seed cuts writes early");

    let mut o = opts(&addr, "raw");
    o.inject_net = Some(seed);
    o.retries = 0;
    let err = stream_trace(&o, &blob).expect_err("a cut with retries=0 must fail");
    // Historical single-shot behavior: the raw error, not RetriesExhausted.
    match err {
        futrace_service::ClientError::Io(_) | futrace_service::ClientError::Proto(_) => {}
        other => panic!("expected a raw torn-connection error, got {other}"),
    }

    // The same seed with a reconnect budget converges.
    let mut o = opts(&addr, "raw-retry");
    o.inject_net = Some(seed);
    o.retries = RETRIES;
    match stream_trace(&o, &blob) {
        Ok(ClientOutcome::Finished { attempts, .. }) => {
            assert!(attempts > 1, "the cut seed must have forced a reconnect")
        }
        other => panic!("retrying run did not finish: {other:?}"),
    }

    shutdown(&addr).expect("shutdown");
    handle.join().expect("daemon thread");
    std::fs::remove_dir_all(&dir).ok();
}
