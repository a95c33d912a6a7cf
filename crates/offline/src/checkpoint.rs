//! Checkpoint files for suspend/resume of a sharded analysis (DESIGN S38).
//!
//! A checkpoint captures a *consistent cut* of the supervised pipeline at
//! a chunk boundary: every event of the completed chunks has been routed
//! and incorporated by its shard, and nothing past the boundary has been
//! touched. The file holds
//!
//! * the compact **control-event prefix** (v1 codec) — cheap to store
//!   because control events are rare relative to accesses (the same
//!   asymmetry that makes sharding work), and sufficient to rebuild every
//!   control-derived structure (DTRG replicas, vector clocks, allocation
//!   names) exactly, by replay;
//! * one opaque **state blob per shard** — the access-derived state
//!   ([`futrace_runtime::engine::Checkpointable::save_state`]): shadow
//!   cells, discovered races, counters;
//! * router progress (events consumed, next access index, chunk count,
//!   routing statistics) so a resumed run continues numbering accesses
//!   from the same global sequence;
//! * an optional **trace fingerprint** so `--resume` against the wrong
//!   trace fails loudly instead of producing garbage.
//!
//! The whole payload is CRC-32-guarded; a truncated or bit-flipped
//! checkpoint is rejected with a structured error, never silently
//! half-restored. [`rebuild_replica`] turns a control prefix and a shard's
//! state blobs back into that shard's replica, as every replica is built.

use futrace_runtime::engine::{Checkpointable, StateError};
use futrace_runtime::trace::{self, DecodeError};
use futrace_runtime::Event;
use futrace_util::crc32::crc32;
use futrace_util::ids::TaskId;
use futrace_util::wire::{self, WireError};

/// File magic: "FCKP" (futrace checkpoint).
pub(crate) const MAGIC: [u8; 4] = *b"FCKP";

/// Current checkpoint format version.
pub(crate) const VERSION: u64 = 1;

/// How many leading trace bytes the fingerprint hashes.
pub const FINGERPRINT_HEAD: usize = 4096;

/// Cheap identity of the trace a checkpoint belongs to: total length plus
/// a CRC of the first [`FINGERPRINT_HEAD`] bytes. Not cryptographic —
/// it guards against *mistakes* (resuming against the wrong file), not
/// adversaries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceFingerprint {
    /// Total trace length in bytes.
    pub len: u64,
    /// CRC-32 of the first [`FINGERPRINT_HEAD`] bytes (or all of them if
    /// shorter).
    pub head_crc: u32,
}

impl TraceFingerprint {
    /// Fingerprints a trace blob.
    pub fn of(data: &[u8]) -> TraceFingerprint {
        let head = &data[..data.len().min(FINGERPRINT_HEAD)];
        TraceFingerprint {
            len: data.len() as u64,
            head_crc: crc32(head),
        }
    }
}

/// Router-side progress counters frozen into a checkpoint, so the resumed
/// run's final statistics match a fresh run's.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouterProgress {
    /// Total events consumed from the trace stream.
    pub events: u64,
    /// Control events broadcast.
    pub control_events: u64,
    /// Read accesses routed.
    pub reads: u64,
    /// Write accesses routed.
    pub writes: u64,
}

/// A suspended sharded analysis, ready to be serialized with
/// [`Checkpoint::encode`] or resumed by the supervisor.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Number of shard workers the snapshot was taken across. A resume
    /// must use the same count — access routing is `loc % shards`.
    pub shards: usize,
    /// Events consumed from the trace stream (the resume skip count).
    pub events_consumed: u64,
    /// The next global access index the router will assign.
    pub next_access_index: u64,
    /// Chunks fully consumed at the snapshot boundary.
    pub chunks_completed: u64,
    /// Router progress counters.
    pub router: RouterProgress,
    /// The control-event prefix (all control events among the consumed
    /// events, in order).
    pub control_events: Vec<Event>,
    /// Per-shard access counts at the snapshot.
    pub per_shard_accesses: Vec<u64>,
    /// Per-shard access-derived state blobs
    /// ([`futrace_runtime::engine::Checkpointable`]).
    pub shard_states: Vec<Vec<u8>>,
    /// Fingerprint of the source trace, if known.
    pub fingerprint: Option<TraceFingerprint>,
}

/// Why a checkpoint file could not be decoded or used.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// The blob does not start with `MAGIC`.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u64),
    /// The payload CRC does not match: the file is truncated or corrupt.
    BadCrc {
        /// CRC stored in the file.
        stored: u32,
        /// CRC computed over the payload actually present.
        computed: u32,
    },
    /// A field could not be parsed.
    Wire(WireError),
    /// The embedded control-event prefix is malformed.
    Control(DecodeError),
    /// Structural inconsistency (e.g. shard counts disagree).
    Inconsistent(String),
    /// The checkpoint does not belong to the trace being resumed.
    TraceMismatch {
        /// Fingerprint stored in the checkpoint.
        expected: TraceFingerprint,
        /// Fingerprint of the trace handed to resume.
        actual: TraceFingerprint,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::BadVersion(v) => {
                write!(f, "unsupported checkpoint version {v} (expected {VERSION})")
            }
            CheckpointError::BadCrc { stored, computed } => write!(
                f,
                "checkpoint corrupt: expected crc {stored:#010x}, actual {computed:#010x}"
            ),
            CheckpointError::Wire(e) => write!(f, "checkpoint malformed: {e}"),
            CheckpointError::Control(e) => {
                write!(f, "checkpoint control prefix malformed: {e}")
            }
            CheckpointError::Inconsistent(why) => {
                write!(f, "checkpoint inconsistent: {why}")
            }
            CheckpointError::TraceMismatch { expected, actual } => write!(
                f,
                "checkpoint does not match this trace: recorded {} byte(s) with head crc \
                 {:#010x}, got {} byte(s) with head crc {:#010x}",
                expected.len, expected.head_crc, actual.len, actual.head_crc
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<WireError> for CheckpointError {
    fn from(e: WireError) -> Self {
        CheckpointError::Wire(e)
    }
}

impl Checkpoint {
    /// Serializes the checkpoint: magic, varint-framed payload, trailing
    /// CRC-32 over everything after the magic.
    ///
    /// The output is allocated once, from the header's, the control
    /// prefix's and the state blobs' lengths.
    pub fn encode(&self) -> Vec<u8> {
        let control = trace::encode(&self.control_events);
        let states: usize = self
            .shard_states
            .iter()
            .map(|state| 2 * wire::MAX_VARINT_LEN + state.len())
            .sum();
        // Magic, the eleven header varints and the fingerprint's CRC, the
        // control prefix and its length, the shard count, the states, the
        // trailing CRC.
        let capacity = MAGIC.len()
            + 11 * wire::MAX_VARINT_LEN
            + 4
            + wire::MAX_VARINT_LEN
            + control.len()
            + wire::MAX_VARINT_LEN
            + states
            + 4;
        let mut out = Vec::with_capacity(capacity);
        out.extend_from_slice(&MAGIC);
        wire::put_varint(&mut out, VERSION);
        wire::put_varint(&mut out, self.shards as u64);
        wire::put_varint(&mut out, self.events_consumed);
        wire::put_varint(&mut out, self.next_access_index);
        wire::put_varint(&mut out, self.chunks_completed);
        wire::put_varint(&mut out, self.router.events);
        wire::put_varint(&mut out, self.router.control_events);
        wire::put_varint(&mut out, self.router.reads);
        wire::put_varint(&mut out, self.router.writes);
        match self.fingerprint {
            Some(fp) => {
                wire::put_varint(&mut out, 1);
                wire::put_varint(&mut out, fp.len);
                wire::put_u32_le(&mut out, fp.head_crc);
            }
            None => wire::put_varint(&mut out, 0),
        }
        wire::put_bytes(&mut out, &control);
        wire::put_varint(&mut out, self.shard_states.len() as u64);
        for (state, &accesses) in self.shard_states.iter().zip(&self.per_shard_accesses) {
            wire::put_varint(&mut out, accesses);
            wire::put_bytes(&mut out, state);
        }
        let crc = crc32(&out[MAGIC.len()..]);
        wire::put_u32_le(&mut out, crc);
        out
    }

    /// Parses and CRC-validates a checkpoint blob.
    pub fn decode(data: &[u8]) -> Result<Checkpoint, CheckpointError> {
        if data.len() < MAGIC.len() + 4 || data[..MAGIC.len()] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let payload = &data[MAGIC.len()..data.len() - 4];
        let stored = u32::from_le_bytes(data[data.len() - 4..].try_into().unwrap());
        let computed = crc32(payload);
        if stored != computed {
            return Err(CheckpointError::BadCrc { stored, computed });
        }

        let mut c = wire::Cursor::new(payload);
        let version = c.varint("checkpoint version")?;
        if version != VERSION {
            return Err(CheckpointError::BadVersion(version));
        }
        let shards = c.varint("shard count")? as usize;
        let events_consumed = c.varint("events consumed")?;
        let next_access_index = c.varint("next access index")?;
        let chunks_completed = c.varint("chunks completed")?;
        let router = RouterProgress {
            events: c.varint("router events")?,
            control_events: c.varint("router control events")?,
            reads: c.varint("router reads")?,
            writes: c.varint("router writes")?,
        };
        let fingerprint = match c.varint("fingerprint flag")? {
            0 => None,
            1 => Some(TraceFingerprint {
                len: c.varint("fingerprint length")?,
                head_crc: c.u32_le("fingerprint head crc")?,
            }),
            other => {
                return Err(CheckpointError::Inconsistent(format!(
                    "invalid fingerprint flag {other}"
                )))
            }
        };
        let control_blob = c.bytes("control prefix")?;
        let control_events =
            trace::decode(control_blob).map_err(CheckpointError::Control)?;
        validate_control(&control_events)?;
        let n_states = c.varint("shard state count")? as usize;
        if n_states != shards {
            return Err(CheckpointError::Inconsistent(format!(
                "{n_states} shard state blob(s) for {shards} shard(s)"
            )));
        }
        // Each shard takes at least two bytes (access count, blob length),
        // so a crafted count cannot reserve more than the payload holds.
        let cap = n_states.min(c.remaining() / 2);
        let mut per_shard_accesses = Vec::with_capacity(cap);
        let mut shard_states = Vec::with_capacity(cap);
        for _ in 0..n_states {
            per_shard_accesses.push(c.varint("shard accesses")?);
            shard_states.push(c.bytes("shard state")?.to_vec());
        }
        if !c.is_empty() {
            return Err(CheckpointError::Inconsistent(format!(
                "{} trailing byte(s) in checkpoint payload",
                c.remaining()
            )));
        }

        Ok(Checkpoint {
            shards,
            events_consumed,
            next_access_index,
            chunks_completed,
            router,
            control_events,
            per_shard_accesses,
            shard_states,
            fingerprint,
        })
    }

    /// Checks that this checkpoint was taken from `trace` (no-op if the
    /// checkpoint carries no fingerprint).
    pub fn matches_trace(&self, trace: &[u8]) -> Result<(), CheckpointError> {
        if let Some(expected) = self.fingerprint {
            let actual = TraceFingerprint::of(trace);
            if expected != actual {
                return Err(CheckpointError::TraceMismatch { expected, actual });
            }
        }
        Ok(())
    }
}

/// Rebuilds the replica of shard `shard` of `shards` from checkpointed
/// parts: a fresh analysis from `factory`, assigned its shard before it
/// sees any event, then the control prefix replayed, then `states`
/// restored in order (one full blob, then any deltas cut after it). This
/// is how every replica is made: fresh (no prefix, no states), resumed
/// from a checkpoint file, or restarted from the supervisor's snapshot
/// chain.
pub fn rebuild_replica<'a, A: Checkpointable>(
    factory: impl FnOnce() -> A,
    shard: usize,
    shards: usize,
    control: impl IntoIterator<Item = &'a Event>,
    states: &[Vec<u8>],
) -> Result<A, StateError> {
    let mut analysis = factory();
    analysis.assign_shard(shard, shards);
    for e in control {
        analysis.apply_control(e);
    }
    for state in states {
        analysis.restore_state(state)?;
    }
    Ok(analysis)
}

/// Checks that a control prefix is one a serial depth-first execution can
/// emit, as far as replaying it into a detector relies on: tasks act only
/// while they are the innermost running task, children are created with
/// dense ids, and only tasks that have ended are awaited or joined (the
/// main task, `T0`, never is). A CRC-valid file whose prefix breaks a rule
/// would otherwise index task tables out of bounds, or break the DTRG's
/// set-label invariant, during the replay (DESIGN S38).
///
/// Joined tasks must also be younger than the task that closes the finish
/// (a finish joins only tasks spawned inside its scope). That keeps every
/// running task the owner of its set's label: the sets a merge absorbs
/// then never hold an enclosing running task.
fn validate_control(events: &[Event]) -> Result<(), CheckpointError> {
    // `running[t]`: task `t` has been created and has not ended. The
    // stack holds the running tasks, innermost last.
    let mut running = vec![true];
    let mut stack = vec![0u32];
    let bad = |i: usize, why: String| {
        Err(CheckpointError::Inconsistent(format!(
            "control event {i} of the prefix: {why}"
        )))
    };
    let ended = |running: &[bool], t: TaskId| running.get(t.index()) == Some(&false);
    for (i, e) in events.iter().enumerate() {
        let actor = match e {
            Event::TaskCreate { parent, .. } => Some(*parent),
            Event::TaskEnd(t) | Event::FinishStart(t, _) | Event::FinishEnd(t, _, _) => Some(*t),
            Event::Get { waiter, .. } => Some(*waiter),
            Event::Alloc(..) => None,
            Event::Read(..) | Event::Write(..) => {
                return bad(i, "an access event in the control prefix".into())
            }
        };
        if let Some(actor) = actor {
            if stack.last() != Some(&actor.0) {
                return bad(i, format!("{actor} acts while it is not the running task"));
            }
        }
        match e {
            Event::TaskCreate { child, .. } => {
                if child.index() != running.len() {
                    return bad(
                        i,
                        format!("child {child} is not the next task id T{}", running.len()),
                    );
                }
                running.push(true);
                stack.push(child.0);
            }
            Event::TaskEnd(t) => {
                running[t.index()] = false;
                stack.pop();
            }
            Event::FinishEnd(t, _, joined) => {
                if let Some(b) = joined.iter().find(|b| !ended(&running, **b) || b.0 <= t.0) {
                    return bad(i, format!("{t} joins {b}, not a younger task that ended"));
                }
            }
            Event::Get { awaited, .. } if awaited.0 == 0 || !ended(&running, *awaited) => {
                return bad(i, format!("{awaited} is awaited before it ended"));
            }
            _ => {}
        }
    }
    Ok(())
}

/// True if `data` looks like a checkpoint file (magic match only).
pub fn is_checkpoint(data: &[u8]) -> bool {
    data.len() >= MAGIC.len() && data[..MAGIC.len()] == MAGIC
}

#[cfg(test)]
mod tests {
    use super::*;
    use futrace_util::ids::{FinishId, LocId, TaskId};
    use futrace_runtime::monitor::TaskKind;

    fn sample() -> Checkpoint {
        Checkpoint {
            shards: 2,
            events_consumed: 17,
            next_access_index: 9,
            chunks_completed: 3,
            router: RouterProgress {
                events: 17,
                control_events: 8,
                reads: 5,
                writes: 4,
            },
            control_events: vec![
                Event::Alloc(LocId(0), 4, "a".into()),
                Event::TaskCreate {
                    parent: TaskId(0),
                    child: TaskId(1),
                    kind: TaskKind::Future,
                    ief: FinishId(0),
                },
                Event::TaskEnd(TaskId(1)),
            ],
            per_shard_accesses: vec![5, 4],
            shard_states: vec![vec![1, 2, 3], vec![4, 5]],
            fingerprint: Some(TraceFingerprint {
                len: 1234,
                head_crc: 0xDEAD_BEEF,
            }),
        }
    }

    #[test]
    fn roundtrip() {
        let cp = sample();
        let blob = cp.encode();
        assert!(is_checkpoint(&blob));
        assert_eq!(Checkpoint::decode(&blob).unwrap(), cp);

        let mut no_fp = sample();
        no_fp.fingerprint = None;
        assert_eq!(Checkpoint::decode(&no_fp.encode()).unwrap(), no_fp);
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        assert_eq!(
            Checkpoint::decode(b"nope"),
            Err(CheckpointError::BadMagic)
        );
        let blob = sample().encode();
        let err = Checkpoint::decode(&blob[..blob.len() - 3]).unwrap_err();
        assert!(matches!(err, CheckpointError::BadCrc { .. }), "{err}");
        assert!(err.to_string().contains("crc"));
    }

    #[test]
    fn rejects_bit_flip_anywhere() {
        let blob = sample().encode();
        for i in (MAGIC.len()..blob.len()).step_by(7) {
            let mut bad = blob.clone();
            bad[i] ^= 0x40;
            assert!(
                Checkpoint::decode(&bad).is_err(),
                "flip at byte {i} must not decode cleanly"
            );
        }
    }

    #[test]
    fn fingerprint_guards_resume() {
        let trace = vec![7u8; 8192];
        let mut cp = sample();
        cp.fingerprint = Some(TraceFingerprint::of(&trace));
        cp.matches_trace(&trace).unwrap();
        let other = vec![8u8; 8192];
        let err = cp.matches_trace(&other).unwrap_err();
        assert!(matches!(err, CheckpointError::TraceMismatch { .. }));
        assert!(err.to_string().contains("does not match"));
        cp.fingerprint = None;
        cp.matches_trace(&other).unwrap();
    }

    #[test]
    fn crafted_shard_count_is_an_error_not_an_allocation() {
        // 30 bytes with a valid CRC claiming 2^40 shards (and as many
        // state blobs) but holding none: decode must fail on the missing
        // bytes instead of reserving room for 2^40 entries up front.
        let mut out = MAGIC.to_vec();
        wire::put_varint(&mut out, VERSION);
        wire::put_varint(&mut out, 1 << 40);
        for _ in 0..7 {
            wire::put_varint(&mut out, 0); // progress and router counters
        }
        wire::put_varint(&mut out, 0); // no fingerprint
        wire::put_bytes(&mut out, &trace::encode(&[]));
        wire::put_varint(&mut out, 1 << 40);
        let crc = crc32(&out[MAGIC.len()..]);
        wire::put_u32_le(&mut out, crc);
        assert_eq!(out.len(), 30);
        let err = Checkpoint::decode(&out).unwrap_err();
        assert!(matches!(err, CheckpointError::Wire(_)), "{err}");
    }

    #[test]
    fn encode_allocates_the_file_once() {
        // Grown from an empty `Vec`, a file holding a 100 kB state would
        // end with about twice its length as capacity.
        let mut cp = sample();
        cp.shard_states[0] = vec![7; 100_000];
        let blob = cp.encode();
        assert!(
            blob.capacity() - blob.len() < 256,
            "{} bytes in a {}-byte allocation",
            blob.len(),
            blob.capacity()
        );
        assert_eq!(Checkpoint::decode(&blob).unwrap(), cp);
    }

    #[test]
    fn shard_state_count_must_match() {
        let mut cp = sample();
        cp.shard_states.pop();
        cp.per_shard_accesses.pop();
        // encode writes shard_states.len(), which no longer equals shards.
        let err = Checkpoint::decode(&cp.encode()).unwrap_err();
        assert!(matches!(err, CheckpointError::Inconsistent(_)), "{err}");
    }
}
