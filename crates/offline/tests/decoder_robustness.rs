//! Decoder robustness under hostile input: mutate and truncate valid
//! framed trace blobs, and the bare event-codec payloads they carry, and
//! assert the decoders never panic, always surface a structured error
//! (never garbage events silently), and that the lenient trace read skips
//! damaged chunks instead of aborting.
//!
//! Replays: `FUTRACE_PROPCHECK_SEED=<seed>` (printed on failure).

use futrace_benchsuite::randomprog::{self, GenParams};
use futrace_offline::{trace_events, FrameError, StreamWriter};
use futrace_runtime::{run_serial, trace, Event, EventLog};
use futrace_util::propcheck::{self, strategies, Config};

/// A few structurally different base traces, as (the whole log in the
/// event codec, framed, events). Small chunk size forces several chunks
/// per framed blob so chunk boundaries are actually exercised.
fn base_traces() -> Vec<(Vec<u8>, Vec<u8>, Vec<Event>)> {
    // Bigger than the default profile so each trace spans several chunks.
    let params = GenParams {
        max_depth: 5,
        max_stmts: 12,
        locs: 8,
        ..GenParams::default()
    };
    [1_u64, 42, 0xdead]
        .iter()
        .map(|&seed| {
            let prog = randomprog::generate(seed, &params);
            let mut log = EventLog::new();
            run_serial(&mut log, |ctx| {
                randomprog::execute(ctx, &prog);
            });
            let codec = trace::encode(&log.events);
            let mut w = StreamWriter::with_chunk_bytes(Vec::new(), 64).unwrap();
            for e in &log.events {
                w.record(e);
            }
            let (v2, stats) = w.finish().unwrap();
            assert!(stats.chunks >= 2, "base trace should span chunks");
            (codec, v2, log.events)
        })
        .collect()
}

#[derive(Clone, Copy, Debug)]
enum Mutation {
    Truncate,
    FlipByte,
    Insert,
    Delete,
}

fn mutate(data: &[u8], op: u8, pos: u32, byte: u8) -> (Mutation, Vec<u8>) {
    let pos = pos as usize % data.len().max(1);
    match op % 4 {
        0 => (Mutation::Truncate, data[..pos].to_vec()),
        1 => {
            let mut d = data.to_vec();
            d[pos] ^= byte | 1; // never a no-op flip
            (Mutation::FlipByte, d)
        }
        2 => {
            let mut d = data.to_vec();
            d.insert(pos, byte);
            (Mutation::Insert, d)
        }
        _ => {
            let mut d = data.to_vec();
            d.remove(pos);
            (Mutation::Delete, d)
        }
    }
}

/// Consumes a trace iterator, asserting the error contract: events before
/// any error are well-formed, at most one error is yielded, and the
/// iterator fuses afterwards. Returns (events decoded, error seen).
fn drain(
    mut it: impl Iterator<Item = Result<Event, FrameError>>,
) -> (Vec<Event>, Option<FrameError>) {
    let mut events = Vec::new();
    let mut error = None;
    for item in it.by_ref() {
        match item {
            Ok(e) => events.push(e),
            Err(e) => {
                assert!(!e.to_string().is_empty(), "errors must be descriptive");
                error = Some(e);
                break;
            }
        }
    }
    assert!(it.next().is_none(), "iterator must fuse after end/error");
    (events, error)
}

#[test]
fn unmutated_bases_decode_cleanly() {
    for (codec, v2, events) in base_traces() {
        assert_eq!(trace::decode(&codec).unwrap(), events);
        let (got, err) = drain(trace_events(&v2, false));
        assert!(err.is_none());
        assert_eq!(got, events);
    }
}

#[test]
fn mutated_streams_never_panic_and_error_structurally() {
    let bases = base_traces();
    let strat = strategies::tuple3(
        strategies::u8_range(0..4),        // mutation kind
        strategies::u32_range(0..1 << 20), // position (reduced mod len)
        strategies::u8_range(0..255),      // inserted/xored byte
    );
    propcheck::check(&Config::with_cases(384), &strat, |(op, pos, byte)| {
        for (codec, v2, _) in &bases {
            // The bare codec: decode() must yield a structured
            // DecodeError rather than panic.
            let (_, m) = mutate(codec, op, pos, byte);
            if let Err(e) = trace::decode(&m) {
                assert!(!e.to_string().is_empty());
            }

            // v2 strict: drain checks the fuse-after-error contract.
            let (kind, m) = mutate(v2, op, pos, byte);
            let (strict_events, strict_err) = drain(trace_events(&m, false));

            // v2 lenient: never worse than strict — decodes at least as
            // many events, and any surviving error is structural
            // (truncation / header damage), never chunk-local damage (a
            // CRC mismatch, an undecodable payload, a miscount).
            let it = trace_events(&m, true);
            let (lenient_events, lenient_err) = {
                let mut it = it;
                let mut events = Vec::new();
                let mut error = None;
                for item in it.by_ref() {
                    match item {
                        Ok(e) => events.push(e),
                        Err(e) => {
                            error = Some(e);
                            break;
                        }
                    }
                }
                assert!(it.next().is_none());
                (events, error)
            };
            assert!(
                lenient_events.len() >= strict_events.len(),
                "{kind:?}: lenient decoded fewer events than strict"
            );
            if let Some(e) = &lenient_err {
                assert!(
                    !matches!(
                        e,
                        FrameError::CorruptChunk { .. } | FrameError::Decode { .. }
                    ),
                    "lenient mode must drop damaged chunks, got {e}"
                );
            }
            let _ = strict_err;
        }
    });
}

#[test]
fn every_truncation_point_is_handled() {
    // Exhaustive rather than sampled: every strict prefix of a framed
    // blob either decodes cleanly (prefix ends exactly at a chunk
    // boundary) or errors — never panics, never fabricates events beyond
    // what intact chunks contain.
    let (_, v2, events) = base_traces().swap_remove(0);
    for cut in 0..v2.len() {
        let (got, err) = drain(trace_events(&v2[..cut], false));
        assert!(got.len() <= events.len());
        assert_eq!(got, events[..got.len()], "prefix events must match");
        // A strict prefix can only decode cleanly if it ends exactly on
        // a chunk boundary past the header; an empty or partial-magic
        // prefix is not framed, and must error, not pass.
        if err.is_none() {
            assert!(cut >= 5, "partial header must error, cut={cut}");
        }
    }
}
