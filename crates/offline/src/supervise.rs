//! The sharded analysis stage: parallel replay of an event stream with a
//! verdict identical to the serial detector's (DESIGN S35), run under a
//! supervisor whose recovery is a policy of the [`SupervisorPlan`]
//! (DESIGN S38). [`run_supervised`] is the only sharded entry point.
//!
//! ## Why sharding is sound
//!
//! The detector splits into two halves (see
//! [`futrace_runtime::engine::Analysis::apply_control`]):
//!
//! * **DTRG maintenance** is driven only by control events (task
//!   create/end, finish start/end, `get`) — a few per *task*, not per
//!   *access*. Broadcasting them gives every shard a byte-identical DTRG
//!   replica, because DTRG updates never depend on shadow memory.
//! * **Shadow checks** (Algorithms 8–9) touch exactly one location each
//!   and only *read* the DTRG. Routing accesses by `loc % N` therefore
//!   partitions the check work with no cross-shard communication at all,
//!   and the shadow memory with it: each replica is assigned its shard
//!   ([`futrace_runtime::engine::LocRoutable::assign_shard`]) before it
//!   sees an event and holds only its own locations' cells, so the `N`
//!   replicas hold the serial detector's `v` cells between them.
//!
//! Each access carries its global index from the router's single pass, so
//! per-shard race reports can be merged back into exactly the serial
//! detection order: the serial detector reports races in increasing
//! access index, ties (several races at one access) happen within one
//! location and therefore one shard, and the per-location dedup/cap logic
//! makes identical decisions because each shard sees its locations' full
//! access subsequence. A stable merge by access index followed by the
//! global report cap is thus byte-identical to the serial report
//! (`tests/shard_equivalence.rs` asserts this over random programs).
//!
//! The pipeline is decode → route → N workers over bounded channels
//! ([`crate::channel`]), so decode backpressure bounds memory and the
//! shadow-check hot path runs on all cores. The router reads whole
//! decoded chunks ([`crate::trace_chunks`] for a trace blob,
//! [`event_chunks`] for an in-memory event list) and routes each chunk's
//! events by reference; the chunk boundaries are the stream's only
//! snapshot and suspend points, and a chunk a lenient read dropped still
//! counts as one.
//!
//! ## Supervision
//!
//! * **Workers are spawned detached** (`std::thread::spawn`, not a scope),
//!   and each incarnation has its own input and its own reply channel.
//!   A worker panic unwinds its thread and drops both, so the supervisor
//!   sees a disconnected channel instead of a process abort. A wedged
//!   worker can be *abandoned*: the supervisor drops both channels and
//!   moves on, which a scoped join could never do, and the old
//!   incarnation's late replies then have nowhere to go.
//! * **The watchdog** bounds every wait: sends use
//!   [`crate::channel::Sender::send_timeout`], waits for replies use
//!   [`crate::channel::Receiver::recv_timeout`]. A deadline expiring means
//!   a worker is stalled; it is treated exactly like a dead one.
//! * **Restart-from-snapshot**: at chunk boundaries the supervisor can
//!   barrier-snapshot every worker. A shard's first snapshot is full
//!   ([`Checkpointable::save_state`]); later ones are deltas
//!   ([`Checkpointable::save_cells`]) of the locations the worker checked
//!   since its previous snapshot, until the deltas since the last full
//!   add up to that full's size, when the next one is full again. So a
//!   run serializes O(accesses) bytes in all, not O(barriers × state),
//!   and a shard holds under two full snapshots' worth. Every full
//!   snapshot is [`Checkpointable::save_state`], which scans only the
//!   cells the shard holds. A replacement worker is rebuilt from scratch
//!   ([`rebuild_replica`]) — shard assignment, control-prefix replay,
//!   restore of the last full snapshot and every delta after it, in
//!   order — and then the supervisor reads the source again: a fresh
//!   `make_chunks()` read, from the last snapshot's chunk boundary, whose
//!   every control event and whose accesses `loc % N` sends the shard
//!   are routed to the replacement up to the end of the last routing
//!   round its predecessor was sent. The supervisor keeps no copy of
//!   what it routed: the shard's state depends only on the stream prefix
//!   it has seen, and the source holds that prefix. Injected faults are
//!   one-shot, modelling the transient failures restart is for.
//! * **Degrade-to-serial**: when restarts are exhausted (or recovery
//!   itself fails), the supervisor falls back to a fresh single-threaded
//!   [`run_analysis`] over the whole stream's chunks — slower, but the
//!   verdict is identical by the sharding soundness argument with `N = 1`.
//! * **Suspend/resume**: `stop_after_chunks` turns the barrier snapshot,
//!   always full there, into a [`Checkpoint`] and returns
//!   [`SupervisedOutcome::Suspended`]; a later run passes the checkpoint
//!   back, skips whole chunks up to its consumed events (a skip that
//!   would end inside a chunk is [`CheckpointError::Inconsistent`]), and
//!   continues from the boundary with byte-identical results
//!   (`tests/fault_tolerance.rs` proves this over random programs and
//!   kill points).
//!
//! Plain sharding is the policy that takes no snapshots. A worker that
//! dies or stalls then restarts by reading the source again from the
//! start (or from the resumed checkpoint's boundary), within the same
//! `max_restarts`, and only a spent budget degrades the run to the
//! serial pass.
//!
//! Every decision is recorded in a [`SupervisionReport`] so `tracetool
//! analyze` can surface restarts, degradations, and resumes without
//! changing the verdict lines CI diffs against.

use crate::channel::{self, Receiver, RecvTimeout, SendTimeout, Sender};
use crate::checkpoint::{
    rebuild_replica, Checkpoint, CheckpointError, RouterProgress, TraceFingerprint,
};
use futrace_runtime::engine::{run_analysis, Checkpointable, EngineCounters, StateError};
use futrace_runtime::Event;
use futrace_util::faultinject::{FaultPlan, WorkerFault};
use futrace_util::ids::{LocId, TaskId};
use std::cmp::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Routing parameters of the shard stage.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// Number of detect workers (≥ 1).
    pub shards: usize,
    /// Events per routed batch (amortizes channel locking).
    pub batch_events: usize,
    /// In-flight batches per worker channel (backpressure bound).
    pub channel_capacity: usize,
}

impl Default for ShardPlan {
    fn default() -> Self {
        ShardPlan {
            shards: 4,
            batch_events: 4096,
            channel_capacity: 4,
        }
    }
}

impl ShardPlan {
    /// Plan with an explicit shard count and defaults elsewhere.
    pub fn with_shards(shards: usize) -> Self {
        ShardPlan {
            shards,
            ..ShardPlan::default()
        }
    }
}

/// Pipeline accounting.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Workers used.
    pub shards: usize,
    /// Total events routed.
    pub events: u64,
    /// Control events broadcast to every shard.
    pub control_events: u64,
    /// Read/write events (each routed to exactly one shard).
    pub accesses: u64,
    /// Reads among the accesses.
    pub reads: u64,
    /// Writes among the accesses.
    pub writes: u64,
    /// Accesses checked per shard (indexed by shard).
    pub per_shard_accesses: Vec<u64>,
    /// Damaged chunks a lenient read dropped, each counted once however
    /// often a restart reads the source again.
    pub skipped_chunks: u64,
}

impl ShardStats {
    /// The engine counters of a sharded run: this routing accounting and
    /// the run's wall time. The cache totals stay 0; they come from the
    /// merged report.
    pub fn engine_counters(&self, wall_ms: f64) -> EngineCounters {
        EngineCounters {
            events: self.events,
            control_events: self.control_events,
            reads: self.reads,
            writes: self.writes,
            skipped_chunks: self.skipped_chunks,
            wall_ms,
            ..EngineCounters::default()
        }
    }
}

/// Chunk size for in-memory event lists, which have no framed boundaries
/// of their own: the granularity at which an `Analyze` run over an event
/// list reads it, and so lets the supervisor snapshot it.
pub const SYNTHETIC_CHUNK_EVENTS: usize = 4096;

/// An in-memory event list as the shard stage reads it: slices of
/// [`SYNTHETIC_CHUNK_EVENTS`] events, each a chunk, routed by reference.
pub fn event_chunks<'a, E: 'a>(
    events: &'a [Event],
) -> impl Iterator<Item = Result<Option<&'a [Event]>, E>> + 'a {
    events
        .chunks(SYNTHETIC_CHUNK_EVENTS)
        .map(|chunk| Ok(Some(chunk)))
}

/// Supervisor configuration.
#[derive(Clone, Debug)]
pub struct SupervisorPlan {
    /// The routing parameters.
    pub shard: ShardPlan,
    /// Deadline for any single wait on a worker. Expiry marks the worker
    /// stalled and triggers recovery.
    pub watchdog: Duration,
    /// Barrier-snapshot every N chunk boundaries, so that a restarted
    /// worker reads the source again only from its last snapshot. Each
    /// worker then records the locations it checks, and a shard's
    /// snapshot is a delta of those cells unless a full one is due: the
    /// shard has none yet, or its deltas since the last full add up to
    /// that full's size. `None` disables snapshots; a restart then reads
    /// the source again from the start (or from the resumed checkpoint's
    /// boundary).
    pub checkpoint_every_chunks: Option<u64>,
    /// Suspend into a [`Checkpoint`] once this many chunks (absolute,
    /// including chunks skipped over by a resume) are consumed.
    pub stop_after_chunks: Option<u64>,
    /// Worker restarts allowed before degrading to serial.
    pub max_restarts: u32,
    /// Fingerprint stamped into produced checkpoints, if known.
    pub fingerprint: Option<TraceFingerprint>,
    /// Injected fault: panic a worker at its Nth processed op (one-shot).
    pub worker_panic: Option<WorkerFault>,
    /// Injected fault: stall a worker at its Nth processed op (one-shot).
    pub worker_stall: Option<WorkerFault>,
    /// How long an injected stall sleeps.
    pub stall_for: Duration,
}

impl Default for SupervisorPlan {
    fn default() -> Self {
        SupervisorPlan {
            shard: ShardPlan::default(),
            watchdog: Duration::from_secs(30),
            checkpoint_every_chunks: None,
            stop_after_chunks: None,
            max_restarts: 2,
            fingerprint: None,
            worker_panic: None,
            worker_stall: None,
            stall_for: Duration::from_millis(100),
        }
    }
}

impl SupervisorPlan {
    /// `shards` detect workers ([`ShardPlan::default`]'s count when
    /// `None`) and defaults elsewhere: plain sharding, which takes no
    /// snapshots until a caller sets an interval or a stop point.
    pub fn for_shards(shards: Option<usize>) -> Self {
        SupervisorPlan {
            shard: ShardPlan::with_shards(shards.unwrap_or(ShardPlan::default().shards)),
            ..SupervisorPlan::default()
        }
    }

    /// Copies the worker-level faults out of a [`FaultPlan`] (I/O faults
    /// are applied at the reader/writer layer, not here).
    pub fn with_faults(mut self, faults: &FaultPlan) -> Self {
        self.worker_panic = faults.worker_panic;
        self.worker_stall = faults.worker_stall;
        self
    }
}

/// What the supervisor had to do during a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SupervisionReport {
    /// Workers restarted: rebuilt from the last snapshot (or from
    /// scratch) and routed their ops again from a fresh read.
    pub shard_restarts: u64,
    /// Falls back to a fresh serial run (0 or 1).
    pub degradations: u64,
    /// 1 if this run was resumed from a checkpoint.
    pub resumed_from_checkpoint: u64,
    /// Watchdog deadlines that expired (stalled worker detections).
    pub watchdog_timeouts: u64,
    /// Barrier snapshots completed.
    pub snapshots_taken: u64,
    /// Barrier snapshots at which some shard cut a full snapshot (its
    /// first, or one that starts a new delta chain); at every other
    /// barrier each shard cut only a delta.
    pub full_snapshots: u64,
    /// Bytes of shard state cut at barriers, full snapshots and deltas.
    pub snapshot_bytes: u64,
}

impl SupervisionReport {
    /// True if anything noteworthy happened (drives conditional output).
    pub fn any(&self) -> bool {
        *self != SupervisionReport::default()
    }
}

/// Outcome of a supervised run.
pub enum SupervisedOutcome<R> {
    /// The stream was fully analyzed.
    Completed {
        /// Merged analysis report (identical to the serial verdict).
        report: R,
        /// Pipeline accounting.
        stats: ShardStats,
        /// What the supervisor did.
        supervision: SupervisionReport,
    },
    /// The run was suspended at a chunk boundary (`stop_after_chunks`).
    Suspended {
        /// The resumable snapshot.
        checkpoint: Checkpoint,
        /// What the supervisor did.
        supervision: SupervisionReport,
    },
}

/// Why a supervised run failed outright (recoverable faults never surface
/// here — they restart or degrade).
#[derive(Debug)]
pub enum SuperviseError<E> {
    /// The event stream itself failed (strict-mode decode error).
    Stream(E),
    /// A checkpoint could not be applied to this run.
    Checkpoint(CheckpointError),
    /// Restoring a shard's state blob failed.
    Restore(StateError),
}

impl<E: std::fmt::Display> std::fmt::Display for SuperviseError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SuperviseError::Stream(e) => write!(f, "{e}"),
            SuperviseError::Checkpoint(e) => write!(f, "{e}"),
            SuperviseError::Restore(e) => write!(f, "{e}"),
        }
    }
}

impl<E: std::fmt::Debug + std::fmt::Display> std::error::Error for SuperviseError<E> {}

/// One routed op in 16 bytes: an access of `task` to `loc`, whose `word`
/// holds its global index shifted left once over its write bit, or, when
/// `word` is [`Op::CONTROL`], the batch's next control event.
#[derive(Clone, Copy)]
struct Op {
    task: TaskId,
    loc: LocId,
    word: u64,
}

impl Op {
    /// The `word` of a control marker; no access index reaches it.
    const CONTROL: u64 = u64::MAX;

    fn control() -> Op {
        Op {
            task: TaskId(0),
            loc: LocId(0),
            word: Op::CONTROL,
        }
    }
}

/// The routing rule, one event at a time: an access becomes the 16-byte
/// op numbered `*index` and is returned with its shard, `loc % n`; a
/// control event goes on `controls`, the round's control list, and `None`
/// tells the caller to mark its place in every shard's ops. The router's
/// rounds and a restart's re-read both route through it.
#[inline(always)]
fn route(e: &Event, n: usize, index: &mut u64, controls: &mut Vec<Event>) -> Option<(usize, Op)> {
    let (task, loc, write) = match *e {
        Event::Read(task, loc) => (task, loc, false),
        Event::Write(task, loc) => (task, loc, true),
        ref control => {
            controls.push(control.clone());
            return None;
        }
    };
    let word = *index << 1 | write as u64;
    *index += 1;
    let op = Op { task, loc, word };
    Some((loc.index() % n, op))
}

/// One shard's share of a routing round. The router routes in rounds and
/// flushes every shard's buffer at once, so a round's control events are
/// stored once, in `controls`, which every shard's batch of the round and
/// the supervisor's control prefix share; each shard's `ops` mark where
/// they fall among its accesses.
struct Batch {
    controls: Arc<Vec<Event>>,
    ops: Vec<Op>,
}

impl Batch {
    /// Applies the batch to `analysis` op by op, calling `each` before
    /// every op and `on_access` for every access.
    fn apply<A: Checkpointable>(
        &self,
        analysis: &mut A,
        mut each: impl FnMut(),
        mut on_access: impl FnMut(LocId),
    ) {
        let mut controls = self.controls.iter();
        for op in &self.ops {
            each();
            if op.word == Op::CONTROL {
                analysis.apply_control(controls.next().expect("one control event per marker"));
                continue;
            }
            on_access(op.loc);
            let index = op.word >> 1;
            if op.word & 1 == 1 {
                analysis.check_write_at(op.task, op.loc, index);
            } else {
                analysis.check_read_at(op.task, op.loc, index);
            }
        }
    }
}

enum ToWorker {
    /// Ops to apply.
    Batch(Batch),
    /// Cut a snapshot.
    Snapshot(Cut),
}

/// What a barrier asks a worker to cut.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Cut {
    /// The cells of the locations checked since the last snapshot.
    Delta,
    /// Every dirty cell the shard holds ([`Checkpointable::save_state`]).
    Full,
}

/// The distinct locations a worker checked since its last snapshot: a
/// bitset answers membership on the access path, the list is what a delta
/// serializes.
#[derive(Default)]
struct Touched {
    bits: Vec<u64>,
    locs: Vec<LocId>,
}

impl Touched {
    #[inline]
    fn insert(&mut self, loc: LocId) {
        let (word, bit) = (loc.index() / 64, 1u64 << (loc.index() % 64));
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        if self.bits[word] & bit == 0 {
            self.bits[word] |= bit;
            self.locs.push(loc);
        }
    }

    fn clear(&mut self) {
        for loc in self.locs.drain(..) {
            self.bits[loc.index() / 64] = 0;
        }
    }
}

/// A worker's reply, on its incarnation's own channel.
enum FromWorker<R> {
    Snapshot { state: Vec<u8>, accesses: u64 },
    Done { report: R, accesses: u64 },
}

/// Replies a worker can owe at once: one, since the supervisor takes
/// every barrier's snapshots before it routes on, and a worker reports
/// only once its input closes.
const REPLY_CAPACITY: usize = 1;

/// Spawns a detached worker around `analysis` with an input of
/// `capacity` batches, and returns its input and its reply channel. A
/// panic unwinds the thread and drops both ends.
fn spawn_worker<A>(
    shard: usize,
    mut analysis: A,
    mut accesses: u64,
    mut touched: Option<Touched>,
    capacity: usize,
    panic_at: Option<u64>,
    stall: Option<(u64, Duration)>,
) -> (Sender<ToWorker>, Receiver<FromWorker<A::Report>>)
where
    A: Checkpointable + Send + 'static,
    A::Report: Send + 'static,
{
    let (tx, rx) = channel::bounded(capacity);
    let (reply_tx, reply_rx) = channel::bounded(REPLY_CAPACITY);
    std::thread::spawn(move || {
        let mut ops_done = 0u64;
        let mut stall = stall;
        loop {
            match rx.recv() {
                Some(ToWorker::Batch(batch)) => batch.apply(
                    &mut analysis,
                    || {
                        ops_done += 1;
                        if let Some((at, dur)) = stall {
                            if ops_done == at {
                                stall = None;
                                std::thread::sleep(dur);
                            }
                        }
                        if panic_at == Some(ops_done) {
                            panic!("injected worker fault (shard {shard}, op {ops_done})");
                        }
                    },
                    |loc| {
                        accesses += 1;
                        if let Some(touched) = &mut touched {
                            touched.insert(loc);
                        }
                    },
                ),
                Some(ToWorker::Snapshot(cut)) => {
                    let mut state = Vec::new();
                    match (&touched, cut) {
                        (Some(touched), Cut::Delta) => {
                            analysis.save_cells(&touched.locs, &mut state)
                        }
                        _ => analysis.save_state(&mut state),
                    }
                    if let Some(touched) = &mut touched {
                        touched.clear();
                    }
                    if reply_tx
                        .send(FromWorker::Snapshot { state, accesses })
                        .is_err()
                    {
                        return;
                    }
                }
                None => {
                    let report = analysis.finish();
                    let _ = reply_tx.send(FromWorker::Done { report, accesses });
                    return;
                }
            }
        }
    });
    (tx, reply_rx)
}

struct Slot<R> {
    /// The live incarnation's input; `None` once closed.
    tx: Option<Sender<ToWorker>>,
    /// The live incarnation's replies; `None` before the first spawn.
    rx: Option<Receiver<FromWorker<R>>>,
    /// This shard's access-derived state at the last snapshot, as the last
    /// full snapshot followed by every delta cut since (empty before the
    /// first snapshot). A restart restores them in order.
    chain: Vec<Vec<u8>>,
    snapshot_accesses: u64,
    panic_at: Option<u64>,
    stall_at: Option<(u64, Duration)>,
}

/// Signals "stop supervising, fall back to a fresh serial run".
struct Degrade;

impl<R> Slot<R> {
    /// True when this shard's next snapshot must be full: it has none yet,
    /// or its deltas since the last full add up to that full's size, which
    /// keeps the chain under two full snapshots and the bytes serialized
    /// over a run O(accesses).
    fn full_due(&self) -> bool {
        match self.chain.split_first() {
            None => true,
            Some((full, deltas)) => deltas.iter().map(Vec::len).sum::<usize>() >= full.len(),
        }
    }
}

/// A point in the stream the router reached: the events it routed and
/// the access index it assigns next.
#[derive(Clone, Copy, Default)]
struct Mark {
    events: u64,
    index: u64,
}

struct Supervisor<A: Checkpointable + Send + 'static, F: Fn() -> A, MF>
where
    A::Report: Send + 'static,
{
    factory: F,
    /// A fresh read of the source on every call: a restart reads the
    /// stream again from `snapshot_at`, the degrade pass from the start.
    make_chunks: MF,
    plan: SupervisorPlan,
    n: usize,
    slots: Vec<Slot<A::Report>>,
    /// Every control event consumed so far, as the routing rounds' shared
    /// control lists — what a restart rebuilds a replica from, and what a
    /// checkpoint file holds. Small by the control/access asymmetry that
    /// justifies sharding in the first place. Kept only when the plan can
    /// snapshot; a restart without snapshots reads from the start (or
    /// from the resumed checkpoint's boundary) instead.
    control_prefix: Vec<Arc<Vec<Event>>>,
    /// `control_prefix` length, in rounds, at the last completed snapshot.
    snapshot_control_len: usize,
    /// Where the last completed snapshot cut the stream: the resume point
    /// or the start before the first one.
    snapshot_at: Mark,
    /// Where the last routing round whose batches every shard was sent
    /// ended.
    round_end: Mark,
    supervision: SupervisionReport,
}

impl<A, F, MF, I, C, E> Supervisor<A, F, MF>
where
    A: Checkpointable + Send + 'static,
    A::Report: Send + 'static,
    F: Fn() -> A,
    MF: Fn() -> I,
    I: Iterator<Item = Result<Option<C>, E>>,
    C: AsRef<[Event]>,
{
    /// Starts shard `shard`'s next incarnation around a replica rebuilt
    /// from the control prefix up to the last snapshot and the shard's
    /// snapshot chain ([`rebuild_replica`]). Replacing the slot's channels
    /// drops the previous incarnation's, which abandons it: its input
    /// closes, and its late replies have nowhere to go.
    fn spawn(&mut self, shard: usize) -> Result<(), StateError> {
        let analysis = rebuild_replica(
            &self.factory,
            shard,
            self.n,
            self.control_prefix[..self.snapshot_control_len]
                .iter()
                .flat_map(|round| round.iter()),
            &self.slots[shard].chain,
        )?;
        let touched = self
            .plan
            .checkpoint_every_chunks
            .is_some()
            .then(Touched::default);
        let slot = &mut self.slots[shard];
        let (tx, rx) = spawn_worker(
            shard,
            analysis,
            slot.snapshot_accesses,
            touched,
            self.plan.shard.channel_capacity,
            slot.panic_at.take(),
            slot.stall_at.take(),
        );
        slot.tx = Some(tx);
        slot.rx = Some(rx);
        Ok(())
    }

    /// Replaces shard `shard`'s worker ([`Supervisor::spawn`]) and routes
    /// it again what its predecessor was sent since the last snapshot: a
    /// fresh read of the source, skipped to `snapshot_at`, up to
    /// `round_end`, in batches of at most `batch_events` ops. Returns
    /// `Degrade` when the restart budget is exhausted or recovery itself
    /// fails.
    fn restart(&mut self, shard: usize) -> Result<(), Degrade> {
        if self.supervision.shard_restarts >= self.plan.max_restarts as u64 {
            return Err(Degrade);
        }
        self.supervision.shard_restarts += 1;
        self.spawn(shard).map_err(|_| Degrade)?;
        let (mut events, mut index) = (self.snapshot_at.events, self.snapshot_at.index);
        let mut chunks = (self.make_chunks)();
        skip(&mut chunks, events).map_err(|_| Degrade)?;
        let cap = self.plan.shard.batch_events.max(1);
        let (mut controls, mut ops) = (Vec::new(), Vec::with_capacity(cap));
        while events < self.round_end.events {
            let chunk = chunks.next().ok_or(Degrade)?.map_err(|_| Degrade)?;
            let chunk = chunk.as_ref().map_or(&[][..], C::as_ref);
            for e in chunk.iter().take((self.round_end.events - events) as usize) {
                events += 1;
                match route(e, self.n, &mut index, &mut controls) {
                    Some((to, op)) if to == shard => ops.push(op),
                    Some(_) => {}
                    None => ops.push(Op::control()),
                }
                if ops.len() >= cap || (events == self.round_end.events && !ops.is_empty()) {
                    let batch = Batch {
                        controls: Arc::new(std::mem::take(&mut controls)),
                        ops: std::mem::replace(&mut ops, Vec::with_capacity(cap)),
                    };
                    self.send(shard, ToWorker::Batch(batch), false)?;
                }
            }
        }
        Ok(())
    }

    /// Sends `msg` to shard `shard` under the watchdog. An input still
    /// full at the deadline means the worker stalled (a watchdog timeout),
    /// a disconnected one that it died. Either way the shard restarts and
    /// `msg` goes once more, to the replacement, when `recover` is set;
    /// otherwise the run degrades.
    fn send(&mut self, shard: usize, msg: ToWorker, recover: bool) -> Result<(), Degrade> {
        let Some(tx) = &self.slots[shard].tx else {
            return Err(Degrade);
        };
        let msg = match tx.send_timeout(msg, self.plan.watchdog) {
            SendTimeout::Sent => return Ok(()),
            SendTimeout::Full(msg) => {
                self.supervision.watchdog_timeouts += 1;
                msg
            }
            SendTimeout::Disconnected(msg) => msg,
        };
        if !recover {
            return Err(Degrade);
        }
        self.restart(shard)?;
        self.send(shard, msg, false)
    }

    /// Takes one reply from every shard, each from its own channel, with
    /// every wait bounded by the watchdog. A shard whose channel
    /// disconnects (its worker died) restarts. When a wait expires, the
    /// expiry counts once, and every shard that has not replied by then
    /// restarts. `renew` asks each replacement for what its predecessor
    /// owed.
    fn gather(
        &mut self,
        renew: impl Fn(&mut Self, usize) -> Result<(), Degrade>,
    ) -> Result<Vec<FromWorker<A::Report>>, Degrade> {
        let mut replies: Vec<Option<FromWorker<A::Report>>> = (0..self.n).map(|_| None).collect();
        while replies.iter().any(Option::is_none) {
            let mut expired = false;
            for (shard, reply) in replies.iter_mut().enumerate() {
                if reply.is_some() {
                    continue;
                }
                let wait = if expired {
                    Duration::ZERO
                } else {
                    self.plan.watchdog
                };
                let rx = self.slots[shard]
                    .rx
                    .as_ref()
                    .expect("every shard was spawned");
                match rx.recv_timeout(wait) {
                    RecvTimeout::Item(got) => {
                        *reply = Some(got);
                        continue;
                    }
                    // The first expiry counts; the shards still silent
                    // after it restart without a wait of their own.
                    RecvTimeout::Timeout if !expired => {
                        self.supervision.watchdog_timeouts += 1;
                        expired = true;
                    }
                    RecvTimeout::Timeout | RecvTimeout::Disconnected => {}
                }
                self.restart(shard)?;
                renew(self, shard)?;
            }
        }
        Ok(replies.into_iter().flatten().collect())
    }

    /// Barrier snapshot: every worker saves its state at a consistent cut
    /// (all routed batches FIFO-precede the snapshot request), in full
    /// when `suspend` is set (a checkpoint file holds one blob per shard)
    /// or [`Slot::full_due`], else as a delta appended to the shard's
    /// chain. The cut falls where the last round ended, which a later
    /// restart reads from. Dead or stalled workers are restarted and
    /// re-asked, within the restart budget.
    fn snapshot_barrier(&mut self, suspend: bool) -> Result<(), Degrade> {
        let cuts: Vec<Cut> = self
            .slots
            .iter()
            .map(|slot| {
                if suspend || slot.full_due() {
                    Cut::Full
                } else {
                    Cut::Delta
                }
            })
            .collect();
        let ask =
            |sup: &mut Self, shard: usize| sup.send(shard, ToWorker::Snapshot(cuts[shard]), true);
        for shard in 0..self.n {
            ask(self, shard)?;
        }
        for (shard, reply) in self.gather(ask)?.into_iter().enumerate() {
            let FromWorker::Snapshot { state, accesses } = reply else {
                unreachable!("a worker whose input is open only answers snapshot requests");
            };
            self.supervision.snapshot_bytes += state.len() as u64;
            let slot = &mut self.slots[shard];
            if cuts[shard] != Cut::Delta {
                slot.chain.clear();
            }
            slot.chain.push(state);
            slot.snapshot_accesses = accesses;
        }
        self.snapshot_control_len = self.control_prefix.len();
        self.snapshot_at = self.round_end;
        self.supervision.snapshots_taken += 1;
        if cuts.iter().any(|&cut| cut != Cut::Delta) {
            self.supervision.full_snapshots += 1;
        }
        Ok(())
    }

    /// Closes every input and collects one report per shard, restarting
    /// (and at once closing) replacements for workers that die or stall
    /// while they finish.
    fn collect(&mut self) -> Result<Vec<(A::Report, u64)>, Degrade> {
        for slot in &mut self.slots {
            slot.tx = None;
        }
        let replies = self.gather(|sup, shard| {
            sup.slots[shard].tx = None;
            Ok(())
        })?;
        Ok(replies
            .into_iter()
            .map(|reply| match reply {
                FromWorker::Done { report, accesses } => (report, accesses),
                FromWorker::Snapshot { .. } => unreachable!("every snapshot request was answered"),
            })
            .collect())
    }
}

/// Takes whole chunks off `chunks` until they hold `events` events, and
/// returns how many it took and how many of those a lenient read dropped.
/// A resume skips its checkpoint's consumed prefix this way, and a
/// restart the stream before its last snapshot; a skip that would end
/// inside a chunk is [`CheckpointError::Inconsistent`].
fn skip<C: AsRef<[Event]>, E>(
    chunks: &mut impl Iterator<Item = Result<Option<C>, E>>,
    events: u64,
) -> Result<(u64, u64), SuperviseError<E>> {
    let (mut taken, mut dropped, mut passed) = (0u64, 0u64, 0u64);
    while passed < events {
        match chunks.next() {
            Some(Ok(Some(chunk))) => passed += chunk.as_ref().len() as u64,
            Some(Ok(None)) => dropped += 1,
            Some(Err(e)) => return Err(SuperviseError::Stream(e)),
            None => break,
        }
        taken += 1;
    }
    let why = match passed.cmp(&events) {
        Ordering::Equal => return Ok((taken, dropped)),
        Ordering::Less => "trace is shorter than the checkpoint's consumed prefix",
        Ordering::Greater => "the checkpoint's consumed prefix ends inside a chunk",
    };
    Err(SuperviseError::Checkpoint(CheckpointError::Inconsistent(
        why.into(),
    )))
}

/// Runs the shard stage: control events are broadcast to `N` replicas
/// built by `factory`, each assigned its shard, accesses are routed by
/// `loc % N` carrying global indices, and the per-shard reports are
/// merged by a fresh `factory()`
/// instance's [`futrace_runtime::engine::LocRoutable::merge_sharded`] into
/// the serial verdict. `plan` sets when the supervisor snapshots, and so
/// how far back a restarted worker reads the source again.
///
/// The stage reads decoded chunks: `Ok(Some(events))` is a chunk to
/// route, `Ok(None)` a damaged chunk a lenient read dropped, which still
/// counts as a chunk boundary, and once in [`ShardStats::skipped_chunks`].
/// Chunk boundaries are the only points where the supervisor snapshots or
/// suspends, so a fresh and a resumed run cut the stream identically;
/// [`crate::trace_chunks`] yields a trace blob's chunks, [`event_chunks`]
/// an in-memory event list's.
///
/// `make_chunks` must produce a *fresh* stream over the same trace on
/// every call: a restarted worker's ops are read again from it, and the
/// degrade-to-serial pass reads it again from the start.
/// On a stream error the workers are shut down first, then the error is
/// returned as [`SuperviseError::Stream`]: no partial verdict is reported.
pub fn run_supervised<A, C, E, I, MF, F>(
    make_chunks: MF,
    factory: F,
    plan: &SupervisorPlan,
    resume: Option<&Checkpoint>,
) -> Result<SupervisedOutcome<A::Report>, SuperviseError<E>>
where
    A: Checkpointable + Send + 'static,
    A::Report: Send + 'static,
    C: AsRef<[Event]>,
    I: Iterator<Item = Result<Option<C>, E>>,
    MF: Fn() -> I,
    F: Fn() -> A,
{
    let n = match resume {
        Some(cp) => cp.shards.max(1),
        None => plan.shard.shards.max(1),
    };
    let batch_cap = plan.shard.batch_events.max(1);
    if let Some(cp) = resume {
        if cp.shard_states.len() != n || cp.per_shard_accesses.len() != n {
            return Err(SuperviseError::Checkpoint(CheckpointError::Inconsistent(
                format!("{} state blob(s) for {} shard(s)", cp.shard_states.len(), n),
            )));
        }
    }

    // A resumed shard starts from the checkpoint's control prefix and its
    // state blob, as a restart starts from the last snapshot.
    let control_prefix =
        resume.map_or_else(Vec::new, |cp| vec![Arc::new(cp.control_events.clone())]);
    let start = resume.map_or_else(Mark::default, |cp| Mark {
        events: cp.events_consumed,
        index: cp.next_access_index,
    });
    let mut sup = Supervisor {
        factory,
        make_chunks,
        plan: plan.clone(),
        n,
        slots: (0..n)
            .map(|shard| Slot {
                tx: None,
                rx: None,
                chain: resume.map_or_else(Vec::new, |cp| vec![cp.shard_states[shard].clone()]),
                snapshot_accesses: resume.map_or(0, |cp| cp.per_shard_accesses[shard]),
                panic_at: plan
                    .worker_panic
                    .as_ref()
                    .and_then(|f| f.trigger_for(shard, n)),
                stall_at: plan
                    .worker_stall
                    .as_ref()
                    .and_then(|f| f.trigger_for(shard, n))
                    .map(|at| (at, plan.stall_for)),
            })
            .collect(),
        snapshot_control_len: control_prefix.len(),
        control_prefix,
        snapshot_at: start,
        round_end: start,
        supervision: SupervisionReport {
            resumed_from_checkpoint: resume.is_some() as u64,
            ..SupervisionReport::default()
        },
    };
    for shard in 0..n {
        sup.spawn(shard).map_err(SuperviseError::Restore)?;
    }

    let mut chunks = (sup.make_chunks)();
    let (mut events_consumed, mut index) = (start.events, start.index);
    let mut router = resume.map_or_else(RouterProgress::default, |cp| cp.router);
    // Chunks taken from the stream, and those of them a lenient read
    // dropped. A resume skips the whole chunks the checkpoint already
    // incorporated.
    let (mut seen, mut dropped) = skip(&mut chunks, events_consumed)?;
    // The chunk boundary the router last crossed: the index of the last
    // chunk it routed events from.
    let mut cur_chunks = seen.saturating_sub(1);

    let snapshots = plan.checkpoint_every_chunks.is_some() || plan.stop_after_chunks.is_some();
    let mut buffers: Vec<Vec<Op>> = (0..n).map(|_| Vec::with_capacity(batch_cap)).collect();
    // The current round's control events, one copy for every shard.
    let mut round_controls: Vec<Event> = Vec::new();
    let mut last_snapshot_chunk = cur_chunks;
    let mut degraded = false;
    let mut stream_err: Option<E> = None;
    let mut suspend: Option<Checkpoint> = None;

    // Ends the round after `$events` events: every shard with ops gets its
    // batch, sharing the round's control events with the others and the
    // control prefix. Only once every shard was sent its batch is the
    // round complete, and a restart routes it again.
    macro_rules! flush_round {
        ($events:expr) => {{
            let controls = Arc::new(std::mem::take(&mut round_controls));
            if snapshots && !controls.is_empty() {
                sup.control_prefix.push(Arc::clone(&controls));
            }
            for shard in 0..n {
                if buffers[shard].is_empty() {
                    continue;
                }
                let ops = std::mem::replace(&mut buffers[shard], Vec::with_capacity(batch_cap));
                let batch = Batch {
                    controls: Arc::clone(&controls),
                    ops,
                };
                if sup.send(shard, ToWorker::Batch(batch), true).is_err() {
                    degraded = true;
                    break;
                }
            }
            sup.round_end = Mark {
                events: $events,
                index,
            };
        }};
    }

    'route: while !degraded {
        let chunk = match chunks.next() {
            None => break 'route,
            Some(Ok(Some(chunk))) => chunk,
            Some(Ok(None)) => {
                seen += 1;
                dropped += 1;
                continue;
            }
            Some(Err(err)) => {
                stream_err = Some(err);
                break 'route;
            }
        };
        let boundary = seen;
        seen += 1;
        let events = chunk.as_ref();
        if events.is_empty() {
            continue;
        }

        if boundary > cur_chunks {
            cur_chunks = boundary;
            let stop_here = plan
                .stop_after_chunks
                .map(|stop| cur_chunks >= stop)
                .unwrap_or(false);
            let snapshot_here = plan
                .checkpoint_every_chunks
                .map(|every| cur_chunks - last_snapshot_chunk >= every)
                .unwrap_or(false);
            if stop_here || snapshot_here {
                // Snapshot BEFORE routing this chunk: the cut covers
                // exactly the completed chunks.
                flush_round!(events_consumed);
                if degraded {
                    break 'route;
                }
                if sup.snapshot_barrier(stop_here).is_err() {
                    degraded = true;
                    break 'route;
                }
                last_snapshot_chunk = cur_chunks;
                if stop_here {
                    suspend = Some(Checkpoint {
                        shards: n,
                        events_consumed,
                        next_access_index: index,
                        chunks_completed: cur_chunks,
                        router,
                        control_events: sup
                            .control_prefix
                            .iter()
                            .flat_map(|round| round.iter().cloned())
                            .collect(),
                        per_shard_accesses: sup.slots.iter().map(|s| s.snapshot_accesses).collect(),
                        shard_states: sup
                            .slots
                            .iter()
                            .map(|s| match s.chain.as_slice() {
                                [full] => full.clone(),
                                _ => unreachable!("a suspend barrier cuts full snapshots"),
                            })
                            .collect(),
                        fingerprint: plan.fingerprint,
                    });
                    break 'route;
                }
            }
        }

        events_consumed += events.len() as u64;
        router.events += events.len() as u64;
        let mut rest = events.iter();
        while let Some(e) = rest.next() {
            let full = match route(e, n, &mut index, &mut round_controls) {
                Some((shard, op)) => {
                    router.writes += op.word & 1;
                    router.reads += !op.word & 1;
                    buffers[shard].push(op);
                    buffers[shard].len() >= batch_cap
                }
                None => {
                    router.control_events += 1;
                    for buffer in &mut buffers {
                        buffer.push(Op::control());
                    }
                    buffers.iter().any(|b| b.len() >= batch_cap)
                }
            };
            if full {
                flush_round!(events_consumed - rest.len() as u64);
                if degraded {
                    break 'route;
                }
            }
        }
    }

    if let Some(err) = stream_err {
        // Shut the workers down cleanly, then report the stream error.
        let _ = sup.collect();
        return Err(SuperviseError::Stream(err));
    }

    if let Some(checkpoint) = suspend {
        let _ = sup.collect();
        return Ok(SupervisedOutcome::Suspended {
            checkpoint,
            supervision: sup.supervision,
        });
    }

    if !degraded {
        flush_round!(events_consumed);
    }

    let collected = if degraded {
        Err(Degrade)
    } else {
        sup.collect()
    };
    let (report, stats) = match collected {
        Ok(results) => {
            let (reports, per_shard_accesses) = results.into_iter().unzip();
            let stats = ShardStats {
                shards: n,
                events: router.events,
                control_events: router.control_events,
                reads: router.reads,
                writes: router.writes,
                accesses: index,
                per_shard_accesses,
                skipped_chunks: dropped,
            };
            ((sup.factory)().merge_sharded(reports), stats)
        }
        Err(Degrade) => {
            // Last line of defense: a fresh, single-threaded pass over the
            // whole stream. Slower, but the verdict is the serial one by
            // construction.
            sup.supervision.degradations += 1;
            // Abandon every worker: its input closes and its replies have
            // nowhere to go.
            sup.slots.clear();
            let mut dropped = 0;
            let fresh = (sup.make_chunks)().filter_map(|chunk| {
                dropped += u64::from(matches!(chunk, Ok(None)));
                chunk.transpose()
            });
            let out = run_analysis(fresh, (sup.factory)()).map_err(SuperviseError::Stream)?;
            let c = out.counters;
            let stats = ShardStats {
                shards: 1,
                events: c.events,
                control_events: c.control_events,
                accesses: c.checks(),
                reads: c.reads,
                writes: c.writes,
                per_shard_accesses: vec![c.checks()],
                skipped_chunks: dropped,
            };
            (out.report, stats)
        }
    };
    Ok(SupervisedOutcome::Completed {
        report,
        stats,
        supervision: sup.supervision,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FrameError;
    use futrace_detector::{DetectorConfig, RaceDetector, RaceReport};
    use futrace_runtime::{replay, run_serial, EventLog, TaskCtx};

    fn racy_log() -> EventLog {
        let mut log = EventLog::new();
        run_serial(&mut log, |ctx| {
            let a = ctx.shared_array(8, 0u64, "a");
            ctx.finish(|ctx| {
                for i in 0..8usize {
                    let aw = a.clone();
                    ctx.async_task(move |ctx| aw.write(ctx, i, 1));
                }
            });
            for i in 0..8usize {
                a.write(ctx, i, 2);
            }
            let aw = a.clone();
            let _f = ctx.future(move |ctx| aw.write(ctx, 3, 9));
            let _ = a.read(ctx, 3); // racy
        });
        log
    }

    fn serial_report(log: &EventLog) -> RaceReport {
        let mut det = RaceDetector::new();
        replay(&log.events, &mut det);
        det.into_report()
    }

    fn plan_for_tests(shards: usize) -> SupervisorPlan {
        SupervisorPlan {
            shard: ShardPlan {
                shards,
                batch_events: 3,
                channel_capacity: 2,
            },
            watchdog: Duration::from_millis(500),
            stall_for: Duration::from_millis(40),
            ..SupervisorPlan::default()
        }
    }

    /// The log as chunks of five events.
    fn chunks_of(log: &EventLog) -> impl Iterator<Item = Result<Option<&[Event]>, FrameError>> {
        log.events.chunks(5).map(|chunk| Ok(Some(chunk)))
    }

    #[test]
    fn clean_supervised_run_matches_serial() {
        let log = racy_log();
        let serial = serial_report(&log);
        let out = run_supervised(
            || chunks_of(&log),
            RaceDetector::new,
            &plan_for_tests(3),
            None,
        )
        .unwrap();
        let SupervisedOutcome::Completed {
            report,
            stats,
            supervision,
        } = out
        else {
            panic!("expected completion");
        };
        assert_eq!(report.report.races, serial.races);
        assert_eq!(report.report.total_detected, serial.total_detected);
        assert!(!supervision.any(), "clean run must report nothing");
        assert_eq!(stats.per_shard_accesses.iter().sum::<u64>(), stats.accesses);
    }

    #[test]
    fn injected_panic_restarts_with_checkpointing() {
        let log = racy_log();
        let serial = serial_report(&log);
        let mut plan = plan_for_tests(2);
        plan.checkpoint_every_chunks = Some(1);
        plan.worker_panic = Some(WorkerFault { shard: 1, at_op: 9 });
        let out = run_supervised(|| chunks_of(&log), RaceDetector::new, &plan, None).unwrap();
        let SupervisedOutcome::Completed {
            report,
            supervision,
            stats,
        } = out
        else {
            panic!("expected completion");
        };
        assert_eq!(
            report.report.races, serial.races,
            "verdict survives restart"
        );
        assert!(
            supervision.shard_restarts >= 1,
            "panic must be recovered by restart: {supervision:?}"
        );
        assert_eq!(supervision.degradations, 0);
        // Exactly-once delivery across the restart: the batch re-sent
        // after recovery must not ALSO be routed again by the re-read,
        // which would inflate the per-shard access counters.
        assert_eq!(
            stats.per_shard_accesses.iter().sum::<u64>(),
            stats.accesses,
            "restart must not double-apply any batch"
        );
    }

    #[test]
    fn a_plain_run_restarts_a_dead_worker_by_reading_the_source_again() {
        // No snapshots: the replacement is rebuilt from nothing and reads
        // the source again from chunk 0, up to the last round its
        // predecessor was sent, then takes the batch that failed.
        let log = racy_log();
        let serial = serial_report(&log);
        let mut plan = plan_for_tests(2);
        plan.worker_panic = Some(WorkerFault { shard: 0, at_op: 5 });
        let out = run_supervised(|| chunks_of(&log), RaceDetector::new, &plan, None).unwrap();
        let (report, stats, supervision) = completed(out);
        assert_eq!(
            report.report.races, serial.races,
            "verdict survives restart"
        );
        assert_eq!(
            (supervision.shard_restarts, supervision.degradations),
            (1, 0),
            "{supervision:?}"
        );
        assert_eq!(stats.shards, 2, "a restarted run stays sharded");
        assert_eq!(stats.per_shard_accesses.iter().sum::<u64>(), stats.accesses);
    }

    #[test]
    fn a_resumed_run_restarts_from_its_resume_point() {
        // The resumed run takes no snapshot, so a restart rebuilds the
        // replica from the checkpoint and reads the source again from the
        // resume point's chunk, not from chunk 0.
        let log = racy_log();
        let serial = serial_report(&log);
        let mut stop_plan = plan_for_tests(2);
        stop_plan.stop_after_chunks = Some(2);
        let SupervisedOutcome::Suspended { checkpoint, .. } =
            run_supervised(|| chunks_of(&log), RaceDetector::new, &stop_plan, None).unwrap()
        else {
            panic!("expected suspension");
        };
        let mut plan = plan_for_tests(2);
        plan.worker_panic = Some(WorkerFault { shard: 1, at_op: 6 });
        let out = run_supervised(
            || chunks_of(&log),
            RaceDetector::new,
            &plan,
            Some(&checkpoint),
        );
        let (report, stats, supervision) = completed(out.unwrap());
        assert_eq!(report.report.races, serial.races);
        assert_eq!(report.report.total_detected, serial.total_detected);
        assert_eq!(
            (supervision.shard_restarts, supervision.degradations),
            (1, 0),
            "{supervision:?}"
        );
        assert_eq!(stats.events, log.events.len() as u64);
        assert_eq!(stats.per_shard_accesses.iter().sum::<u64>(), stats.accesses);
    }

    #[test]
    fn injected_panic_degrades_without_restart_budget() {
        let log = racy_log();
        let serial = serial_report(&log);
        let mut plan = plan_for_tests(2);
        plan.max_restarts = 0;
        plan.worker_panic = Some(WorkerFault { shard: 0, at_op: 5 });
        let out = run_supervised(|| chunks_of(&log), RaceDetector::new, &plan, None).unwrap();
        let SupervisedOutcome::Completed {
            report,
            supervision,
            stats,
        } = out
        else {
            panic!("expected completion");
        };
        assert_eq!(
            report.report.races, serial.races,
            "degraded verdict is serial"
        );
        assert_eq!(supervision.degradations, 1);
        assert_eq!(stats.shards, 1, "degraded run is serial");
    }

    #[test]
    fn injected_stall_is_caught_by_watchdog() {
        let log = racy_log();
        let serial = serial_report(&log);
        let mut plan = plan_for_tests(2);
        plan.watchdog = Duration::from_millis(30);
        plan.stall_for = Duration::from_millis(400);
        plan.checkpoint_every_chunks = Some(1);
        plan.worker_stall = Some(WorkerFault { shard: 0, at_op: 7 });
        let out = run_supervised(|| chunks_of(&log), RaceDetector::new, &plan, None).unwrap();
        let SupervisedOutcome::Completed {
            report,
            supervision,
            stats,
        } = out
        else {
            panic!("expected completion");
        };
        assert_eq!(report.report.races, serial.races);
        assert_eq!(
            (
                supervision.shard_restarts,
                supervision.degradations,
                supervision.watchdog_timeouts
            ),
            (1, 0, 1),
            "one watchdog expiry, one restart: {supervision:?}"
        );
        assert_eq!(
            stats.per_shard_accesses.iter().sum::<u64>(),
            stats.accesses,
            "stall recovery must not double-apply any batch"
        );
    }

    #[test]
    fn a_late_reply_from_an_abandoned_worker_is_ignored() {
        // One-event chunks, each 5 ms apart, keep routing going for about
        // 280 ms, so the stalled incarnation wakes after its replacement
        // took over and still answers the snapshot request it was sent,
        // then reports when its input closes. Neither reply may count.
        let log = racy_log();
        let serial = serial_report(&log);
        let mut plan = plan_for_tests(2);
        plan.watchdog = Duration::from_millis(20);
        plan.stall_for = Duration::from_millis(60);
        plan.checkpoint_every_chunks = Some(1);
        plan.worker_stall = Some(WorkerFault { shard: 0, at_op: 7 });
        let paced = || {
            log.events.chunks(1).map(|chunk| {
                std::thread::sleep(Duration::from_millis(5));
                Ok::<_, FrameError>(Some(chunk))
            })
        };
        let (report, stats, supervision) =
            completed(run_supervised(paced, RaceDetector::new, &plan, None).unwrap());
        assert_eq!(report.report.races, serial.races);
        assert_eq!(report.report.total_detected, serial.total_detected);
        assert_eq!(stats.per_shard_accesses.iter().sum::<u64>(), stats.accesses);
        assert_eq!(
            (
                supervision.shard_restarts,
                supervision.degradations,
                supervision.watchdog_timeouts
            ),
            (1, 0, 1),
            "{supervision:?}"
        );
    }

    #[test]
    fn suspend_and_resume_is_identical_to_fresh() {
        let log = racy_log();
        let serial = serial_report(&log);
        let mut stop_plan = plan_for_tests(2);
        stop_plan.stop_after_chunks = Some(2);
        let out = run_supervised(|| chunks_of(&log), RaceDetector::new, &stop_plan, None).unwrap();
        let SupervisedOutcome::Suspended {
            checkpoint,
            supervision,
        } = out
        else {
            panic!("expected suspension");
        };
        assert_eq!(supervision.snapshots_taken, 1);
        assert!(checkpoint.events_consumed > 0);
        assert!(checkpoint.events_consumed < log.events.len() as u64);

        // Round-trip the checkpoint through its codec, like the CLI does.
        let restored = Checkpoint::decode(&checkpoint.encode()).unwrap();
        let out = run_supervised(
            || chunks_of(&log),
            RaceDetector::new,
            &plan_for_tests(2),
            Some(&restored),
        )
        .unwrap();
        let SupervisedOutcome::Completed {
            report,
            supervision,
            stats,
        } = out
        else {
            panic!("expected completion");
        };
        assert_eq!(
            report.report.races, serial.races,
            "resumed verdict identical"
        );
        assert_eq!(report.report.total_detected, serial.total_detected);
        assert_eq!(supervision.resumed_from_checkpoint, 1);
        assert_eq!(
            stats.events,
            log.events.len() as u64,
            "router progress carries across the suspend"
        );
    }

    #[test]
    fn resume_with_wrong_shard_count_is_rejected() {
        let log = racy_log();
        let mut stop_plan = plan_for_tests(2);
        stop_plan.stop_after_chunks = Some(1);
        let SupervisedOutcome::Suspended { mut checkpoint, .. } =
            run_supervised(|| chunks_of(&log), RaceDetector::new, &stop_plan, None).unwrap()
        else {
            panic!("expected suspension");
        };
        checkpoint.shard_states.pop();
        checkpoint.per_shard_accesses.pop();
        match run_supervised(
            || chunks_of(&log),
            RaceDetector::new,
            &plan_for_tests(2),
            Some(&checkpoint),
        ) {
            Err(SuperviseError::Checkpoint(_)) => {}
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("inconsistent checkpoint must be rejected"),
        }
    }

    fn completed<R>(out: SupervisedOutcome<R>) -> (R, ShardStats, SupervisionReport) {
        match out {
            SupervisedOutcome::Completed {
                report,
                stats,
                supervision,
            } => (report, stats, supervision),
            SupervisedOutcome::Suspended { .. } => panic!("expected completion"),
        }
    }

    #[test]
    fn sharded_matches_serial_on_racy_program() {
        let log = racy_log();
        let serial = serial_report(&log);
        assert!(serial.has_races());
        for shards in [1usize, 2, 3, 8] {
            // Tiny batches and channels stress the routing path.
            let plan = plan_for_tests(shards);
            let out = run_supervised(|| chunks_of(&log), RaceDetector::new, &plan, None).unwrap();
            let (report, stats, supervision) = completed(out);
            assert_eq!(report.report.total_detected, serial.total_detected);
            assert_eq!(report.report.races, serial.races, "shards={shards}");
            assert!(!supervision.any(), "shards={shards}: clean run");
            assert_eq!(stats.shards, shards);
            assert_eq!(stats.per_shard_accesses.iter().sum::<u64>(), stats.accesses);
            assert_eq!(stats.reads + stats.writes, stats.accesses);
        }
    }

    #[test]
    fn blob_entrypoint_matches_serial() {
        let log = racy_log();
        let serial = serial_report(&log);
        let mut w = crate::StreamWriter::with_chunk_bytes(Vec::new(), 128).unwrap();
        for e in &log.events {
            w.record(e);
        }
        let (blob, _) = w.finish().unwrap();
        for shards in [2, 3] {
            let plan = SupervisorPlan::for_shards(Some(shards));
            let chunks = || crate::trace_chunks(&blob, false);
            let out = run_supervised(chunks, RaceDetector::new, &plan, None);
            let (report, _, _) = completed(out.unwrap());
            assert_eq!(report.report.races, serial.races, "shards={shards}");
        }
    }

    #[test]
    fn stream_error_propagates_cleanly() {
        // One CRC-valid chunk whose payload ends in an unknown tag.
        let log = racy_log();
        let mut payload = futrace_runtime::trace::encode(&log.events);
        payload.push(99);
        let mut blob = Vec::from(crate::framed::MAGIC);
        blob.push(crate::framed::VERSION);
        let declared = log.events.len() as u32 + 1;
        blob.extend_from_slice(&crate::framed::chunk_header(&payload, declared));
        blob.extend_from_slice(&payload);
        let plan = SupervisorPlan::for_shards(Some(2));
        let chunks = || crate::trace_chunks(&blob, false);
        match run_supervised(chunks, RaceDetector::new, &plan, None) {
            Err(SuperviseError::Stream(e)) => assert!(e.to_string().contains("malformed"), "{e}"),
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("a damaged trace must not produce a verdict"),
        }
    }

    #[test]
    fn report_cap_is_global_not_per_shard() {
        // 8 distinct racy locations; cap at 3 reports. The sharded merge
        // must keep the *first three in serial order*, not three per shard.
        let mut log = EventLog::new();
        run_serial(&mut log, |ctx| {
            let a = ctx.shared_array(8, 0u64, "a");
            for i in 0..8usize {
                let aw = a.clone();
                ctx.async_task(move |ctx| aw.write(ctx, i, 1));
            }
            for i in 0..8usize {
                a.write(ctx, i, 2);
            }
        });
        let config = DetectorConfig {
            max_reports: 3,
            ..DetectorConfig::default()
        };
        let mut det = RaceDetector::with_config(config.clone());
        replay(&log.events, &mut det);
        let serial = det.into_report();
        assert_eq!(serial.races.len(), 3);

        let plan = SupervisorPlan::for_shards(Some(4));
        let factory = || RaceDetector::with_config(config.clone());
        let out = run_supervised(|| chunks_of(&log), factory, &plan, None).unwrap();
        let (report, _, _) = completed(out);
        assert_eq!(report.report.races, serial.races);
        assert_eq!(report.report.total_detected, serial.total_detected);
    }

    /// The batch the router sends shard `shard` of `n` for `events`: every
    /// control event, and the accesses `loc % n` routes there, numbered
    /// in the one global sequence from `first_index`.
    fn batch_for(events: &[Event], first_index: u64, shard: usize, n: usize) -> Batch {
        let (mut index, mut controls, mut ops) = (first_index, Vec::new(), Vec::new());
        for e in events {
            match route(e, n, &mut index, &mut controls) {
                Some((to, op)) if to == shard => ops.push(op),
                Some(_) => {}
                None => ops.push(Op::control()),
            }
        }
        Batch {
            controls: Arc::new(controls),
            ops,
        }
    }

    /// Applies `batch` to `det` the way a worker does.
    fn apply(det: &mut RaceDetector, batch: &Batch) {
        batch.apply(det, || {}, |_| {});
    }

    /// Spawns a tracking worker around `analysis`, sends it `batch`, and
    /// returns the state it cuts for `cut`.
    fn cut_by_worker(analysis: RaceDetector, batch: Batch, cut: Cut) -> Vec<u8> {
        let touched = Some(Touched::default());
        let (tx, rx) = spawn_worker(0, analysis, 0, touched, 2, None, None);
        assert!(tx.send(ToWorker::Batch(batch)).is_ok());
        assert!(tx.send(ToWorker::Snapshot(cut)).is_ok());
        match rx.recv_timeout(Duration::from_secs(10)) {
            RecvTimeout::Item(FromWorker::Snapshot { state, .. }) => state,
            _ => panic!("the worker must answer the snapshot request"),
        }
    }

    /// The shadow section of a DTRG state blob: the shadow length, then
    /// each listed cell's global index and its other varints.
    fn shadow_section(state: &[u8]) -> (u64, Vec<(u64, Vec<u64>)>) {
        let mut c = futrace_util::wire::Cursor::new(state);
        let mut next = || c.varint("field").unwrap();
        let _version = next();
        let len = next();
        let cells = (0..next())
            .map(|_| {
                let idx = next();
                let mut fields = vec![next()];
                if fields[0] == 1 {
                    fields.push(next()); // writer
                }
                let readers = next();
                fields.push(readers);
                fields.extend((0..readers).map(|_| next()));
                let clean = next();
                fields.push(clean);
                if clean == 1 {
                    fields.extend([next(), next(), next()]); // clean task, kind, DTRG stamp
                }
                fields.push(next()); // probe miss streak
                (idx, fields)
            })
            .collect();
        (len, cells)
    }

    #[test]
    fn a_shards_full_cut_lists_the_serial_dirty_cells_it_owns() {
        // A replica holds only its shard's cells, yet its full cut names
        // them by global index under the global shadow length: exactly
        // the serial detector's dirty cells that the shard owns. The rest
        // of the blob is what a replica holding every cell would cut.
        let log = racy_log();
        let mut serial = RaceDetector::new();
        apply(&mut serial, &batch_for(&log.events, 0, 0, 1));
        let mut whole = Vec::new();
        serial.save_state(&mut whole);
        let (serial_len, serial_cells) = shadow_section(&whole);
        for n in [1usize, 2, 3] {
            for shard in 0..n {
                let batch = batch_for(&log.events, 0, shard, n);
                let mut unsharded = RaceDetector::new();
                apply(&mut unsharded, &batch);
                let mut want = Vec::new();
                unsharded.save_state(&mut want);
                let replica = rebuild_replica(RaceDetector::new, shard, n, &[], &[]).unwrap();
                let got = cut_by_worker(replica, batch, Cut::Full);
                assert!(got == want, "shard {shard} of {n}");

                let (len, cells) = shadow_section(&got);
                assert_eq!(len, serial_len, "shard {shard} of {n}: global length");
                let owned: Vec<(u64, Vec<u64>)> = serial_cells
                    .iter()
                    .filter(|(idx, _)| *idx as usize % n == shard)
                    .cloned()
                    .collect();
                assert!(!owned.is_empty(), "shard {shard} of {n} checked some cell");
                assert_eq!(cells, owned, "shard {shard} of {n}");
            }
        }
    }

    #[test]
    fn restored_worker_full_snapshot_keeps_cells_it_never_checked() {
        // Restore shard state at the last future's creation, then let a
        // worker check the rest (one location). Its full snapshot must
        // still list every restored cell.
        let log = racy_log();
        let cut_at = log
            .events
            .iter()
            .rposition(|e| matches!(e, Event::TaskCreate { .. }))
            .unwrap();
        let (before, after) = log.events.split_at(cut_at);
        let is_access = |e: &&Event| matches!(e, Event::Read(..) | Event::Write(..));
        let accesses_before = before.iter().filter(is_access).count() as u64;
        for shard in 0..2 {
            let done = batch_for(before, 0, shard, 2);
            let rest = batch_for(after, accesses_before, shard, 2);
            let mut straight = RaceDetector::new();
            apply(&mut straight, &done);
            apply(&mut straight, &rest);
            let mut want = Vec::new();
            straight.save_state(&mut want);

            let mut first = RaceDetector::new();
            apply(&mut first, &done);
            let mut blob = Vec::new();
            first.save_state(&mut blob);
            let control: Vec<Event> = before.iter().filter(|e| !is_access(e)).cloned().collect();
            let restored = rebuild_replica(RaceDetector::new, shard, 2, &control, &[blob]).unwrap();
            let got = cut_by_worker(restored, rest, Cut::Full);
            assert!(got == want, "shard {shard}");
        }
    }

    #[test]
    fn a_dropped_chunk_is_a_boundary() {
        // Chunks 0, 2 and 3 routed, chunk 1 dropped by a lenient read:
        // barriers fall before chunks 2 and 3, as for four intact chunks
        // with nothing in chunk 1. A worker that dies in chunk 2 restarts
        // by reading the source again across the dropped chunk, which
        // still counts once.
        let log = racy_log();
        let (a, rest) = log.events.split_at(10);
        let (b, c) = rest.split_at(10);
        let chunks = || {
            [Some(a), None, Some(b), Some(c)]
                .into_iter()
                .map(Ok::<_, FrameError>)
        };
        let mut plan = plan_for_tests(2);
        plan.checkpoint_every_chunks = Some(1);
        let in_chunk_0 = batch_for(a, 0, 1, 2).ops.len() as u64;
        plan.worker_panic = Some(WorkerFault {
            shard: 1,
            at_op: in_chunk_0 + 1,
        });
        let (report, stats, supervision) =
            completed(run_supervised(chunks, RaceDetector::new, &plan, None).unwrap());
        assert_eq!(supervision.snapshots_taken, 2);
        assert_eq!(
            (supervision.shard_restarts, supervision.degradations),
            (1, 0),
            "{supervision:?}"
        );
        assert_eq!(stats.events, log.events.len() as u64);
        assert_eq!(stats.skipped_chunks, 1);
        assert_eq!(stats.per_shard_accesses.iter().sum::<u64>(), stats.accesses);
        assert_eq!(report.report.races, serial_report(&log).races);
    }

    #[test]
    fn a_resume_must_land_on_a_chunk_boundary() {
        let log = racy_log();
        let mut stop_plan = plan_for_tests(2);
        stop_plan.stop_after_chunks = Some(2);
        let SupervisedOutcome::Suspended { checkpoint, .. } =
            run_supervised(|| chunks_of(&log), RaceDetector::new, &stop_plan, None).unwrap()
        else {
            panic!("expected suspension");
        };
        assert_eq!(checkpoint.events_consumed, 10);
        // Chunks of three events pass 9, then 12: never exactly 10.
        let thirds = || log.events.chunks(3).map(|c| Ok::<_, FrameError>(Some(c)));
        match run_supervised(
            thirds,
            RaceDetector::new,
            &plan_for_tests(2),
            Some(&checkpoint),
        ) {
            Err(SuperviseError::Checkpoint(CheckpointError::Inconsistent(why))) => {
                assert!(why.contains("inside a chunk"), "{why}")
            }
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("a resume that lands inside a chunk must be refused"),
        }
    }
}
