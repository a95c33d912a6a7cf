//! Property test over the `Analyze` builder's option matrix: every
//! combination of source (event slice, framed blob of one chunk, framed
//! blob of many), shard count, leniency, and supervision either
//! reproduces the serial baseline's verdict exactly or fails up front
//! with a structured [`AnalyzeError::Config`] — never a panic and never a
//! silently different backend. Input that is not a framed trace fails
//! with `FrameError::NotFramed` on every backend.

use futrace::benchsuite::randomprog::{execute, generate, GenParams};
use futrace::detector::DetectorConfig;
use futrace::offline::{framed, FrameError, StreamWriter};
use futrace::runtime::{replay, run_serial, trace, Event, EventLog};
use futrace::service::{self, ClientError, ClientOptions};
use futrace::util::crc32::crc32;
use futrace::util::propcheck::{self, strategies, Config};
use futrace::{AnalysisOutcome, Analyze, AnalyzeError};

fn record(seed: u64) -> EventLog {
    let prog = generate(seed, &GenParams::nontree_heavy());
    let mut log = EventLog::new();
    run_serial(&mut log, |ctx| {
        execute(ctx, &prog);
    });
    log
}

/// Framed-v2 encoding with a small chunk size, so even short programs
/// span several chunks and exercise the chunk-boundary paths.
fn framed(events: &[Event], chunk_bytes: usize) -> Vec<u8> {
    let mut w = StreamWriter::with_chunk_bytes(Vec::new(), chunk_bytes)
        .expect("writing to a Vec cannot fail");
    replay(events, &mut w);
    w.finish().expect("writing to a Vec cannot fail").0
}

/// The three source forms, rebuilt per run because `Analyze` is a
/// by-value builder.
fn source<'a>(which: usize, events: &'a [Event], whole: &'a [u8], v2: &'a [u8]) -> Analyze<'a> {
    match which {
        0 => Analyze::events(events),
        1 => Analyze::trace_bytes(whole),
        _ => Analyze::trace_bytes(v2),
    }
}

const SOURCES: [&str; 3] = ["events", "framed, one chunk", "framed, 128 B chunks"];

#[test]
fn every_option_combination_matches_the_serial_verdict() {
    let config = Config::named("cargo test --test analyze_matrix").cases(24);
    propcheck::check(&config, &strategies::any_u64(), |seed| {
        let log = record(seed);
        // 1 MiB chunks: one chunk holds any of these programs' traces.
        let whole = framed(&log.events, 1 << 20);
        let v2 = framed(&log.events, 128);
        let baseline = Analyze::events(&log.events).run().expect("serial baseline");

        for (which, name) in SOURCES.iter().enumerate() {
            for shards in [None, Some(1), Some(2), Some(4)] {
                for lenient in [false, true] {
                    let mut a = source(which, &log.events, &whole, &v2).lenient(lenient);
                    if let Some(n) = shards {
                        a = a.shards(n);
                    }
                    let out = a.run().unwrap_or_else(|e| {
                        panic!("seed {seed} {name} shards {shards:?} lenient {lenient}: {e}")
                    });
                    assert_eq!(
                        out.races.races, baseline.races.races,
                        "seed {seed} {name} shards {shards:?} lenient {lenient}"
                    );
                    assert_eq!(
                        out.races.total_detected, baseline.races.total_detected,
                        "seed {seed} {name} shards {shards:?} lenient {lenient}"
                    );
                }
            }

            // Supervised (checkpointing) backend, same verdict.
            let out = source(which, &log.events, &whole, &v2)
                .shards(2)
                .checkpoint_every(2)
                .run()
                .unwrap_or_else(|e| panic!("seed {seed} {name} supervised: {e}"));
            assert_eq!(
                out.races.races, baseline.races.races,
                "seed {seed} {name} supervised"
            );

            // A capped detector config changes how much is reported,
            // never whether a race exists.
            let out = source(which, &log.events, &whole, &v2)
                .detector(DetectorConfig {
                    first_race_only: true,
                    ..DetectorConfig::default()
                })
                .run()
                .unwrap_or_else(|e| panic!("seed {seed} {name} first-race: {e}"));
            assert_eq!(
                out.has_races(),
                baseline.has_races(),
                "seed {seed} {name} first-race"
            );
        }
    });
}

#[test]
fn invalid_options_are_structured_errors_for_every_source() {
    let log = record(7);
    let whole = framed(&log.events, 1 << 20);
    let v2 = framed(&log.events, 128);

    for (which, name) in SOURCES.iter().enumerate() {
        let err = source(which, &log.events, &whole, &v2)
            .shards(0)
            .run()
            .expect_err("shards(0) must not run");
        assert!(matches!(err, AnalyzeError::Config(_)), "{name}: {err}");

        let err = source(which, &log.events, &whole, &v2)
            .checkpoint_every(0)
            .run()
            .expect_err("checkpoint_every(0) must not run");
        assert!(matches!(err, AnalyzeError::Config(_)), "{name}: {err}");

        // The error wins even when combined with otherwise-valid options.
        let err = source(which, &log.events, &whole, &v2)
            .shards(0)
            .checkpoint_every(4)
            .lenient(true)
            .run()
            .expect_err("shards(0) must not run supervised either");
        assert!(matches!(err, AnalyzeError::Config(_)), "{name}: {err}");
    }
}

#[test]
fn non_framed_input_is_not_framed_on_every_backend() {
    let flat = trace::encode(&record(7).events);
    for blob in [&flat[..], &[], &[0xFF, 0xFE, 0xFD]] {
        for lenient in [false, true] {
            let backends = [
                ("serial", Analyze::trace_bytes(blob)),
                ("shards(2)", Analyze::trace_bytes(blob).shards(2)),
                (
                    "supervised",
                    Analyze::trace_bytes(blob).shards(2).checkpoint_every(1),
                ),
            ];
            for (name, a) in backends {
                let err = a.lenient(lenient).run().expect_err("not a trace");
                assert!(
                    matches!(err, AnalyzeError::Trace(FrameError::NotFramed)),
                    "{name} lenient {lenient}: {err}"
                );
            }
            // The client refuses it before dialing the daemon, with
            // either chunking.
            for chunk_events in [None, Some(8)] {
                let opts = ClientOptions {
                    addr: "127.0.0.1:1".to_string(),
                    lenient,
                    chunk_events,
                    ..ClientOptions::default()
                };
                match service::stream_trace(&opts, blob) {
                    Err(ClientError::Trace(FrameError::NotFramed)) => {}
                    other => panic!("client lenient {lenient} {chunk_events:?}: {other:?}"),
                }
            }
        }
    }
}

/// The log cut into chunks of at most 16 events, with its longest run of
/// consecutive accesses (at least two) a chunk of its own, whose index is
/// returned with the chunks. Dropping an access-only chunk leaves a stream
/// every backend can check. `None` when the log has no such run.
fn chunks_around_an_access_run(events: &[Event]) -> Option<(Vec<&[Event]>, usize)> {
    let mut run = 0..0;
    let mut start = None;
    for (i, e) in events.iter().enumerate() {
        if matches!(e, Event::Read(..) | Event::Write(..)) {
            let s = *start.get_or_insert(i);
            if i + 1 - s > run.len() {
                run = s..i + 1;
            }
        } else {
            start = None;
        }
    }
    if run.len() < 2 {
        return None;
    }
    let mut chunks: Vec<&[Event]> = events[..run.start].chunks(16).collect();
    let victim = chunks.len();
    chunks.push(&events[run.clone()]);
    chunks.extend(events[run.end..].chunks(16));
    Some((chunks, victim))
}

/// Chunk-local damage a lenient read must drop whole.
#[derive(Clone, Copy, Debug)]
enum Damage {
    /// A payload byte flipped after its CRC was taken.
    CrcFlip,
    /// A CRC-valid chunk whose header declares one event fewer than it
    /// holds.
    Miscount,
    /// A CRC-valid chunk whose payload stops decoding after half its
    /// events.
    StopsDecoding,
}

/// Frames `chunks` one framed chunk each, with `damage` done to chunk
/// `victim`.
fn damaged_blob(chunks: &[&[Event]], victim: usize, damage: Damage) -> Vec<u8> {
    let mut blob = Vec::from(framed::MAGIC);
    blob.push(framed::VERSION);
    for (i, chunk) in chunks.iter().enumerate() {
        let mut payload = trace::encode(chunk);
        let mut declared = chunk.len() as u32;
        let mut crc = crc32(&payload);
        if i == victim {
            match damage {
                Damage::CrcFlip => payload[0] ^= 0x40,
                Damage::Miscount => declared -= 1,
                Damage::StopsDecoding => {
                    payload = trace::encode(&chunk[..chunk.len() / 2]);
                    payload.push(99); // no event has tag 99
                    crc = crc32(&payload);
                }
            }
        }
        blob.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        blob.extend_from_slice(&declared.to_le_bytes());
        blob.extend_from_slice(&crc.to_le_bytes());
        blob.extend_from_slice(&payload);
    }
    blob
}

/// Fault seed whose plan panics a worker at its fifth op and stalls none.
const PANIC_SEED: u64 = 29;

/// Backends [`backend`] picks from.
const BACKENDS: usize = 7;

/// The first of the backends whose worker panics.
const PANICKING: usize = 5;

/// `Analyze` over `blob` through backend `which` of [`BACKENDS`]: serial,
/// `shards` 1, 2 and 4, supervised with a snapshot at every chunk, and
/// `shards` 2 with a worker that panics, without snapshots and with one
/// at every chunk. Without, the replacement reads the whole trace again;
/// with, it reads again only up to the router's last round, and the
/// router has already taken the chunks after it.
fn backend(blob: &[u8], which: usize) -> Analyze<'_> {
    let a = Analyze::trace_bytes(blob);
    match which {
        0 => a,
        1 => a.shards(1),
        2 => a.shards(2),
        3 => a.shards(4),
        4 => a.shards(2).checkpoint_every(1),
        5 => a.shards(2).fault_plan(PANIC_SEED),
        _ => a.shards(2).checkpoint_every(1).fault_plan(PANIC_SEED),
    }
}

/// A panicking backend recovers by one restart, which reads the trace
/// again; no other backend needs any.
fn assert_restarted_once(got: &AnalysisOutcome, which: usize, ctx: &str) {
    let recovery = got.supervision.map(|s| (s.shard_restarts, s.degradations));
    let want = if which >= PANICKING { (1, 0) } else { (0, 0) };
    assert_eq!(recovery.unwrap_or_default(), want, "{ctx}");
}

#[test]
fn every_lenient_backend_checks_exactly_the_intact_chunks() {
    let config = Config::named("cargo test --test analyze_matrix").cases(16);
    let damaged = std::cell::Cell::new(0u32);
    propcheck::check(&config, &strategies::any_u64(), |seed| {
        let log = record(seed);
        let Some((chunks, victim)) = chunks_around_an_access_run(&log.events) else {
            return; // no access run to damage
        };
        damaged.set(damaged.get() + 1);
        let intact: Vec<Event> = chunks
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != victim)
            .flat_map(|(_, chunk)| chunk.iter().cloned())
            .collect();
        let want = Analyze::events(&intact)
            .run()
            .expect("the intact events check");

        for damage in [Damage::CrcFlip, Damage::Miscount, Damage::StopsDecoding] {
            let blob = damaged_blob(&chunks, victim, damage);
            for which in 0..BACKENDS {
                let ctx = format!("seed {seed} {damage:?} backend {which}");
                let got = backend(&blob, which)
                    .lenient(true)
                    .run()
                    .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                assert_eq!(
                    got.engine.events, want.engine.events,
                    "{ctx}: events checked"
                );
                assert_eq!(got.races.races, want.races.races, "{ctx}");
                assert_eq!(got.races.total_detected, want.races.total_detected, "{ctx}");
                assert_eq!(got.engine.skipped_chunks, 1, "{ctx}");
                assert_restarted_once(&got, which, &ctx);

                let err = backend(&blob, which).run().expect_err("strict reads fail");
                assert!(matches!(err, AnalyzeError::Trace(_)), "{ctx}: {err}");
                assert!(
                    err.to_string().contains(&format!("chunk {victim} ")),
                    "{ctx}: {err}"
                );
            }
        }
    });
    assert!(
        damaged.get() > 8,
        "too few programs with an access run ({})",
        damaged.get()
    );
}

#[test]
fn every_lenient_backend_cuts_a_truncated_tail() {
    let config = Config::named("cargo test --test analyze_matrix").cases(16);
    propcheck::check(&config, &strategies::any_u64(), |seed| {
        let log = record(seed);
        let chunks: Vec<&[Event]> = log.events.chunks(16).collect();
        let Some(last) = chunks.len().checked_sub(1) else {
            return; // nothing to cut
        };
        // Intact framing (no chunk is the victim), then cut inside the
        // last chunk.
        let mut blob = damaged_blob(&chunks, chunks.len(), Damage::CrcFlip);
        blob.truncate(blob.len() - 5);
        let kept = chunks[..last].concat();
        let want = Analyze::events(&kept).run().expect("the kept events check");

        for which in 0..BACKENDS {
            let ctx = format!("seed {seed} backend {which}");
            let got = backend(&blob, which)
                .lenient(true)
                .run()
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            let events = (got.engine.events, want.engine.events);
            assert_eq!(events.0, events.1, "{ctx}: events checked");
            assert_eq!(got.races.races, want.races.races, "{ctx}");
            assert_eq!(got.races.total_detected, want.races.total_detected, "{ctx}");
            assert_eq!(got.engine.skipped_chunks, 0, "{ctx}");
            assert_restarted_once(&got, which, &ctx);
            let inside = format!("truncated inside chunk {last} ");
            let cut = got.truncated.expect("the outcome names the cut");
            assert!(cut.to_string().contains(&inside), "{ctx}: {cut}");

            let err = backend(&blob, which).run().expect_err("strict reads fail");
            assert!(matches!(err, AnalyzeError::Trace(_)), "{ctx}: {err}");
            assert!(err.to_string().contains(&inside), "{ctx}: {err}");
        }
    });
}
