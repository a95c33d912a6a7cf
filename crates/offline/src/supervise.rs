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
//! * **Workers are spawned detached** (`std::thread::spawn`, not a scope)
//!   with the analysis loop under `catch_unwind`, so a worker panic
//!   becomes a `FromWorker::Died` message instead of a process abort,
//!   and a wedged worker can be *abandoned* — the supervisor drops its
//!   sender and moves on, which a scoped join could never do.
//! * **The watchdog** bounds every wait: routing uses
//!   [`crate::channel::Sender::send_timeout`], collection uses
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
//!   order — and then replays the batches routed since the last snapshot
//!   (the supervisor retains them, shared with the worker they were sent
//!   to; their volume is bounded by the checkpoint interval and capped
//!   by [`SupervisorPlan::max_replay_ops`] — on overflow the buffer is
//!   dropped and a death in that window degrades to serial instead of
//!   hoarding memory). Injected faults are one-shot, modelling the
//!   transient failures restart is for.
//! * **Degrade-to-serial**: when restarts are exhausted (or recovery
//!   itself fails), the supervisor falls back to a fresh single-threaded
//!   [`run_analysis`] over the whole stream's chunks
//!   ([`source::chunks`]) — slower, but the verdict is identical by the
//!   sharding soundness argument with `N = 1`.
//! * **Suspend/resume**: `stop_after_chunks` turns the barrier snapshot,
//!   always full there, into a [`Checkpoint`] and returns
//!   [`SupervisedOutcome::Suspended`]; a later run passes the checkpoint
//!   back, skips whole chunks up to its consumed events (a skip that
//!   would end inside a chunk is [`CheckpointError::Inconsistent`]), and
//!   continues from the boundary with byte-identical results
//!   (`tests/fault_tolerance.rs` proves this over random programs and
//!   kill points).
//!
//! Plain sharding is the policy that keeps nothing for recovery
//! ([`SupervisorPlan::plain`]): no snapshots and no retained batches. A
//! worker that dies or stalls then cannot be restarted, so it degrades
//! the run to the serial pass.
//!
//! Every decision is recorded in a [`SupervisionReport`] so `tracetool
//! analyze` can surface restarts, degradations, and resumes without
//! changing the verdict lines CI diffs against.

use crate::channel::{self, Receiver, RecvTimeout, SendTimeout, Sender};
use crate::checkpoint::{
    rebuild_replica, Checkpoint, CheckpointError, RouterProgress, TraceFingerprint,
};
use futrace_runtime::engine::{run_analysis, source, Checkpointable, EngineCounters, StateError};
use futrace_runtime::Event;
use futrace_util::faultinject::{FaultPlan, WorkerFault};
use futrace_util::ids::{LocId, TaskId};
use std::panic::{catch_unwind, AssertUnwindSafe};
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
}

impl ShardStats {
    /// The engine counters of a sharded run: this routing accounting, what
    /// `supervision` did, and the run's wall time. The cache totals stay
    /// 0; they come from the merged report.
    pub fn engine_counters(&self, supervision: &SupervisionReport, wall_ms: f64) -> EngineCounters {
        EngineCounters {
            events: self.events,
            control_events: self.control_events,
            reads: self.reads,
            writes: self.writes,
            wall_ms,
            shard_restarts: supervision.shard_restarts,
            degradations: supervision.degradations,
            resumed_from_checkpoint: supervision.resumed_from_checkpoint,
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
    /// Barrier-snapshot every N chunk boundaries (enables worker restart
    /// and bounds replay-buffer memory). Each worker then records the
    /// locations it checks, and a shard's snapshot is a delta of those
    /// cells unless a full one is due: the shard has none yet, or its
    /// deltas since the last full add up to that full's size. `None`
    /// disables snapshots; worker death then degrades to serial unless a
    /// restart can replay from the stream start (it can, while the stream
    /// prefix still fits under [`SupervisorPlan::max_replay_ops`]).
    pub checkpoint_every_chunks: Option<u64>,
    /// Suspend into a [`Checkpoint`] once this many chunks (absolute,
    /// including chunks skipped over by a resume) are consumed.
    pub stop_after_chunks: Option<u64>,
    /// Worker restarts allowed before degrading to serial.
    pub max_restarts: u32,
    /// Cap on ops retained in one shard's replay buffer between
    /// snapshots. Without a cap a run with snapshots disabled (or a huge
    /// interval) would hold a second full copy of the op stream, defeating
    /// the streaming design. On overflow the buffer is discarded and the
    /// shard is marked unrestartable until the next snapshot; a worker
    /// death in that window degrades to serial instead of exhausting
    /// memory. `0` retains nothing at all (plain sharding, see
    /// [`SupervisorPlan::plain`]).
    pub max_replay_ops: u64,
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
            max_replay_ops: 1 << 20,
            fingerprint: None,
            worker_panic: None,
            worker_stall: None,
            stall_for: Duration::from_millis(100),
        }
    }
}

impl SupervisorPlan {
    /// Plain sharding over `shard`: no snapshots and no retained batches,
    /// so a worker that dies or stalls cannot be restarted and the run
    /// degrades to a serial pass with the same verdict.
    pub fn plain(shard: ShardPlan) -> Self {
        SupervisorPlan {
            shard,
            max_replay_ops: 0,
            ..SupervisorPlan::default()
        }
    }

    /// `shards` detect workers ([`ShardPlan::default`]'s count when
    /// `None`), under the full supervisor when `supervised`, else plain.
    pub fn for_shards(shards: Option<usize>, supervised: bool) -> Self {
        let shard = ShardPlan::with_shards(shards.unwrap_or(ShardPlan::default().shards));
        if supervised {
            SupervisorPlan {
                shard,
                ..SupervisorPlan::default()
            }
        } else {
            SupervisorPlan::plain(shard)
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
    /// Workers restarted from a snapshot (or from scratch via replay).
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

enum Op {
    Control(Event),
    Access {
        task: TaskId,
        loc: LocId,
        write: bool,
        index: u64,
    },
}

enum ToWorker {
    /// Ops to apply, shared with the supervisor's replay buffer.
    Batch(Arc<Vec<Op>>),
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

enum FromWorker<R> {
    Snapshot {
        shard: usize,
        epoch: u64,
        state: Vec<u8>,
        accesses: u64,
    },
    Done {
        shard: usize,
        epoch: u64,
        report: R,
        accesses: u64,
    },
    Died {
        shard: usize,
        epoch: u64,
    },
}

fn spawn_worker<A>(
    shard: usize,
    epoch: u64,
    mut analysis: A,
    mut accesses: u64,
    mut touched: Option<Touched>,
    rx: Receiver<ToWorker>,
    tx: Sender<FromWorker<A::Report>>,
    panic_at: Option<u64>,
    stall: Option<(u64, Duration)>,
) where
    A: Checkpointable + Send + 'static,
    A::Report: Send + 'static,
{
    std::thread::spawn(move || {
        let died_tx = tx.clone();
        let outcome = catch_unwind(AssertUnwindSafe(move || {
            let mut ops_done = 0u64;
            let mut stall = stall;
            loop {
                match rx.recv() {
                    Some(ToWorker::Batch(batch)) => {
                        for op in batch.iter() {
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
                            match *op {
                                Op::Control(ref e) => analysis.apply_control(e),
                                Op::Access {
                                    task,
                                    loc,
                                    write,
                                    index,
                                } => {
                                    accesses += 1;
                                    if let Some(touched) = &mut touched {
                                        touched.insert(loc);
                                    }
                                    if write {
                                        analysis.check_write_at(task, loc, index);
                                    } else {
                                        analysis.check_read_at(task, loc, index);
                                    }
                                }
                            }
                        }
                    }
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
                        if tx
                            .send(FromWorker::Snapshot {
                                shard,
                                epoch,
                                state,
                                accesses,
                            })
                            .is_err()
                        {
                            return;
                        }
                    }
                    None => {
                        let report = analysis.finish();
                        let _ = tx.send(FromWorker::Done {
                            shard,
                            epoch,
                            report,
                            accesses,
                        });
                        return;
                    }
                }
            }
        }));
        if outcome.is_err() {
            let _ = died_tx.send(FromWorker::Died { shard, epoch });
        }
    });
}

struct Slot {
    tx: Option<Sender<ToWorker>>,
    epoch: u64,
    /// Batches routed since the last completed snapshot, for replay into a
    /// replacement worker: the very batches the worker was sent, shared,
    /// not copies. Volume is bounded by the checkpoint interval and, as a
    /// backstop, by [`SupervisorPlan::max_replay_ops`].
    replay: Vec<Arc<Vec<Op>>>,
    /// Ops currently retained in `replay`.
    replay_ops: u64,
    /// The replay buffer overflowed [`SupervisorPlan::max_replay_ops`] and
    /// was discarded; the shard cannot be restarted until the next
    /// snapshot resets it.
    replay_lost: bool,
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

impl Slot {
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

struct Supervisor<A: Checkpointable + Send + 'static, F: Fn() -> A>
where
    A::Report: Send + 'static,
{
    factory: F,
    plan: SupervisorPlan,
    n: usize,
    slots: Vec<Slot>,
    results_tx: Sender<FromWorker<A::Report>>,
    results_rx: Receiver<FromWorker<A::Report>>,
    /// Current-epoch messages rescued by [`Supervisor::drain_results`] —
    /// e.g. another shard's Snapshot reply queued behind a dead shard's
    /// notices. The barrier/collect loops consume these before waiting on
    /// the channel, so a drain never costs a watchdog timeout.
    stash: std::collections::VecDeque<FromWorker<A::Report>>,
    next_epoch: u64,
    /// Every control event consumed so far — the replay source for both
    /// worker restart and checkpoint files. Small by the control/access
    /// asymmetry that justifies sharding in the first place. Kept only
    /// when the plan can snapshot; a restart without snapshots replays
    /// from the start (or from the resumed checkpoint's prefix).
    control_prefix: Vec<Event>,
    /// `control_prefix` length at the last completed snapshot.
    snapshot_control_len: usize,
    supervision: SupervisionReport,
}

impl<A, F> Supervisor<A, F>
where
    A: Checkpointable + Send + 'static,
    A::Report: Send + 'static,
    F: Fn() -> A,
{
    /// Spawns shard `shard`'s worker around `analysis`, a replica built by
    /// [`rebuild_replica`].
    fn spawn_slot(&mut self, shard: usize, analysis: A, accesses: u64) {
        let (tx, rx) = channel::bounded(self.plan.shard.channel_capacity.max(1));
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        let touched = self
            .plan
            .checkpoint_every_chunks
            .is_some()
            .then(Touched::default);
        let slot = &mut self.slots[shard];
        slot.tx = Some(tx);
        slot.epoch = epoch;
        spawn_worker(
            shard,
            epoch,
            analysis,
            accesses,
            touched,
            rx,
            self.results_tx.clone(),
            slot.panic_at.take(),
            slot.stall_at.take(),
        );
    }

    /// Rebuilds shard `shard`'s worker: a replica rebuilt from the
    /// control prefix up to the last snapshot and the snapshot chain
    /// ([`rebuild_replica`]), then replay of the retained post-snapshot
    /// batches. Returns `Degrade` when the restart budget is exhausted or
    /// recovery itself fails.
    fn restart(&mut self, shard: usize) -> Result<(), Degrade> {
        if self.supervision.shard_restarts >= self.plan.max_restarts as u64
            || self.slots[shard].replay_lost
        {
            return Err(Degrade);
        }
        self.supervision.shard_restarts += 1;
        self.slots[shard].tx = None; // abandon the old incarnation

        let analysis = rebuild_replica(
            &self.factory,
            shard,
            self.n,
            &self.control_prefix[..self.snapshot_control_len],
            &self.slots[shard].chain,
        )
        .map_err(|_| Degrade)?;
        let accesses = self.slots[shard].snapshot_accesses;
        self.spawn_slot(shard, analysis, accesses);

        let replay = self.slots[shard].replay.clone();
        for batch in replay {
            self.send_batch(shard, batch, false)?;
        }
        Ok(())
    }

    /// Sends one batch with the watchdog; on stall or death, recovers (at
    /// most once per call when `recover` is set) and re-sends.
    fn send_batch(
        &mut self,
        shard: usize,
        batch: Arc<Vec<Op>>,
        recover: bool,
    ) -> Result<(), Degrade> {
        let Some(tx) = &self.slots[shard].tx else {
            return Err(Degrade);
        };
        match tx.send_timeout(ToWorker::Batch(batch), self.plan.watchdog) {
            SendTimeout::Sent => Ok(()),
            SendTimeout::Full(item) => {
                self.supervision.watchdog_timeouts += 1;
                if !recover {
                    return Err(Degrade);
                }
                self.restart(shard)?;
                let ToWorker::Batch(batch) = item else {
                    unreachable!()
                };
                self.send_batch(shard, batch, false)
            }
            SendTimeout::Disconnected(item) => {
                if !recover {
                    return Err(Degrade);
                }
                self.drain_results();
                self.restart(shard)?;
                let ToWorker::Batch(batch) = item else {
                    unreachable!()
                };
                self.send_batch(shard, batch, false)
            }
        }
    }

    /// Consumes any queued worker messages without blocking. Stale-epoch
    /// messages (notices from abandoned incarnations) are dropped;
    /// current-epoch ones are stashed for [`Supervisor::next_result`] —
    /// discarding them would throw away e.g. another shard's Snapshot
    /// reply and burn a watchdog timeout (and restart) recovering it.
    fn drain_results(&mut self) {
        while let RecvTimeout::Item(msg) = self.results_rx.recv_timeout(Duration::ZERO) {
            let (shard, epoch) = Self::msg_key(&msg);
            if epoch == self.slots[shard].epoch {
                self.stash.push_back(msg);
            }
        }
    }

    fn msg_key(msg: &FromWorker<A::Report>) -> (usize, u64) {
        match msg {
            FromWorker::Snapshot { shard, epoch, .. }
            | FromWorker::Done { shard, epoch, .. }
            | FromWorker::Died { shard, epoch } => (*shard, *epoch),
        }
    }

    /// Next worker message: a still-current stashed one if any (entries can
    /// go stale after a restart bumps the epoch), else a bounded wait on
    /// the results channel.
    fn next_result(&mut self, timeout: Duration) -> RecvTimeout<FromWorker<A::Report>> {
        while let Some(msg) = self.stash.pop_front() {
            let (shard, epoch) = Self::msg_key(&msg);
            if epoch == self.slots[shard].epoch {
                return RecvTimeout::Item(msg);
            }
        }
        self.results_rx.recv_timeout(timeout)
    }

    /// Routes a batch and retains it, shared with the worker, for
    /// post-snapshot replay. It is retained only *after* the send
    /// succeeds: `restart` replays the whole buffer, so retaining first
    /// would deliver a failed batch twice (once via replay, once via the
    /// recovery re-send), duplicating control events and inflating access
    /// counts in the replacement worker.
    ///
    /// A batch that would overflow [`SupervisorPlan::max_replay_ops`] is
    /// never retained: once it is sent, the buffer is dropped instead. The
    /// shard is then no longer restartable until the next snapshot resets
    /// it (death degrades to serial), which is what plain sharding
    /// (`max_replay_ops == 0`) asks for from its first batch on.
    fn dispatch(&mut self, shard: usize, batch: Vec<Op>) -> Result<(), Degrade> {
        let slot = &self.slots[shard];
        let len = batch.len() as u64;
        let batch = Arc::new(batch);
        let retained = (!slot.replay_lost && slot.replay_ops + len <= self.plan.max_replay_ops)
            .then(|| Arc::clone(&batch));
        self.send_batch(shard, batch, true)?;
        let slot = &mut self.slots[shard];
        match retained {
            Some(retained) => {
                slot.replay_ops += len;
                slot.replay.push(retained);
            }
            None => {
                slot.replay = Vec::new();
                slot.replay_ops = 0;
                slot.replay_lost = true;
            }
        }
        Ok(())
    }

    /// Barrier snapshot: every worker saves its state at a consistent cut
    /// (all routed batches FIFO-precede the snapshot request), in full
    /// when `suspend` is set (a checkpoint file holds one blob per shard)
    /// or [`Slot::full_due`], else as a delta appended to the shard's
    /// chain. On success the replay buffers reset. Dead or stalled workers
    /// are restarted and re-asked, within the restart budget.
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
        for (shard, &cut) in cuts.iter().enumerate() {
            self.request_snapshot(shard, cut)?;
        }
        let mut pending: Vec<Option<(Vec<u8>, u64)>> = vec![None; self.n];
        let mut got = 0usize;
        while got < self.n {
            match self.next_result(self.plan.watchdog) {
                RecvTimeout::Item(FromWorker::Snapshot {
                    shard,
                    epoch,
                    state,
                    accesses,
                }) => {
                    if epoch == self.slots[shard].epoch && pending[shard].is_none() {
                        pending[shard] = Some((state, accesses));
                        got += 1;
                    }
                }
                RecvTimeout::Item(FromWorker::Died { shard, epoch }) => {
                    if epoch == self.slots[shard].epoch {
                        self.restart(shard)?;
                        self.request_snapshot(shard, cuts[shard])?;
                    }
                }
                RecvTimeout::Item(FromWorker::Done { .. }) => {
                    // Stale Done from an abandoned incarnation; ignore.
                }
                RecvTimeout::Timeout => {
                    self.supervision.watchdog_timeouts += 1;
                    // Restart every shard that has not answered yet.
                    for shard in 0..self.n {
                        if pending[shard].is_none() {
                            self.restart(shard)?;
                            self.request_snapshot(shard, cuts[shard])?;
                        }
                    }
                }
                RecvTimeout::Disconnected => return Err(Degrade),
            }
        }
        for (shard, entry) in pending.into_iter().enumerate() {
            let (state, accesses) = entry.expect("barrier collected all shards");
            self.supervision.snapshot_bytes += state.len() as u64;
            let slot = &mut self.slots[shard];
            if cuts[shard] != Cut::Delta {
                slot.chain.clear();
            }
            slot.chain.push(state);
            slot.snapshot_accesses = accesses;
            slot.replay.clear();
            slot.replay_ops = 0;
            slot.replay_lost = false;
        }
        self.snapshot_control_len = self.control_prefix.len();
        self.supervision.snapshots_taken += 1;
        if cuts.iter().any(|&cut| cut != Cut::Delta) {
            self.supervision.full_snapshots += 1;
        }
        Ok(())
    }

    fn request_snapshot(&mut self, shard: usize, cut: Cut) -> Result<(), Degrade> {
        let Some(tx) = &self.slots[shard].tx else {
            return Err(Degrade);
        };
        match tx.send_timeout(ToWorker::Snapshot(cut), self.plan.watchdog) {
            SendTimeout::Sent => Ok(()),
            SendTimeout::Full(_) => {
                self.supervision.watchdog_timeouts += 1;
                self.restart(shard)?;
                self.request_snapshot_once(shard, cut)
            }
            SendTimeout::Disconnected(_) => {
                self.drain_results();
                self.restart(shard)?;
                self.request_snapshot_once(shard, cut)
            }
        }
    }

    fn request_snapshot_once(&mut self, shard: usize, cut: Cut) -> Result<(), Degrade> {
        let Some(tx) = &self.slots[shard].tx else {
            return Err(Degrade);
        };
        match tx.send_timeout(ToWorker::Snapshot(cut), self.plan.watchdog) {
            SendTimeout::Sent => Ok(()),
            _ => Err(Degrade),
        }
    }

    /// Closes all inputs and collects one report per shard, restarting
    /// (and immediately closing) replacements for workers that die or
    /// stall during finalization.
    fn collect(&mut self) -> Result<Vec<(A::Report, u64)>, Degrade> {
        for slot in &mut self.slots {
            slot.tx = None;
        }
        let mut reports: Vec<Option<(A::Report, u64)>> =
            (0..self.n).map(|_| None).collect();
        let mut got = 0usize;
        while got < self.n {
            match self.next_result(self.plan.watchdog) {
                RecvTimeout::Item(FromWorker::Done {
                    shard,
                    epoch,
                    report,
                    accesses,
                }) => {
                    if epoch == self.slots[shard].epoch && reports[shard].is_none() {
                        reports[shard] = Some((report, accesses));
                        got += 1;
                    }
                }
                RecvTimeout::Item(FromWorker::Died { shard, epoch }) => {
                    if epoch == self.slots[shard].epoch && reports[shard].is_none() {
                        self.restart(shard)?;
                        self.slots[shard].tx = None; // close → it will finish
                    }
                }
                RecvTimeout::Item(FromWorker::Snapshot { .. }) => {}
                RecvTimeout::Timeout => {
                    self.supervision.watchdog_timeouts += 1;
                    for shard in 0..self.n {
                        if reports[shard].is_none() {
                            self.restart(shard)?;
                            self.slots[shard].tx = None;
                        }
                    }
                }
                RecvTimeout::Disconnected => return Err(Degrade),
            }
        }
        Ok(reports
            .into_iter()
            .map(|r| r.expect("collected all shards"))
            .collect())
    }
}

/// Runs the shard stage: control events are broadcast to `N` replicas
/// built by `factory`, each assigned its shard, accesses are routed by
/// `loc % N` carrying global indices, and the per-shard reports are
/// merged by a fresh `factory()`
/// instance's [`futrace_runtime::engine::LocRoutable::merge_sharded`] into
/// the serial verdict. `plan` sets what the supervisor keeps for recovery
/// ([`SupervisorPlan::plain`] keeps nothing).
///
/// The stage reads decoded chunks: `Ok(Some(events))` is a chunk to
/// route, `Ok(None)` a damaged chunk a lenient read dropped, which still
/// counts as a chunk boundary (the caller that reads the trace counts the
/// dropped ones, in [`EngineCounters::skipped_chunks`]). Chunk boundaries are the only points where the supervisor snapshots or
/// suspends, so a fresh and a resumed run cut the stream identically;
/// [`crate::trace_chunks`] yields a trace blob's chunks, [`event_chunks`]
/// an in-memory event list's.
///
/// `make_chunks` must produce a *fresh* stream over the same trace on
/// every call: the degrade-to-serial pass reads it again from the start.
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
    let (results_tx, results_rx) = channel::bounded(n.max(4) * 4);

    let mut sup = Supervisor {
        factory,
        plan: plan.clone(),
        n,
        slots: (0..n)
            .map(|shard| Slot {
                tx: None,
                epoch: 0,
                replay: Vec::new(),
                replay_ops: 0,
                replay_lost: false,
                chain: Vec::new(),
                snapshot_accesses: 0,
                panic_at: plan.worker_panic.as_ref().and_then(|f| f.trigger_for(shard, n)),
                stall_at: plan
                    .worker_stall
                    .as_ref()
                    .and_then(|f| f.trigger_for(shard, n))
                    .map(|at| (at, plan.stall_for)),
            })
            .collect(),
        results_tx,
        results_rx,
        stash: std::collections::VecDeque::new(),
        next_epoch: 1,
        control_prefix: Vec::new(),
        snapshot_control_len: 0,
        supervision: SupervisionReport::default(),
    };

    let mut chunks = make_chunks();
    let mut index = 0u64;
    let mut router = RouterProgress::default();
    // Chunks taken from the stream.
    let mut seen = 0u64;
    // The chunk boundary the router last crossed: the index of the last
    // chunk it routed events from.
    let mut cur_chunks = 0u64;

    // Resume: rebuild every shard from the checkpoint, then skip the
    // whole chunks the checkpoint already incorporated.
    if let Some(cp) = resume {
        if cp.shard_states.len() != n || cp.per_shard_accesses.len() != n {
            return Err(SuperviseError::Checkpoint(CheckpointError::Inconsistent(
                format!(
                    "{} state blob(s) for {} shard(s)",
                    cp.shard_states.len(),
                    n
                ),
            )));
        }
        sup.supervision.resumed_from_checkpoint = 1;
        sup.control_prefix = cp.control_events.clone();
        sup.snapshot_control_len = sup.control_prefix.len();
        index = cp.next_access_index;
        router = cp.router;
        for shard in 0..n {
            let chain = vec![cp.shard_states[shard].clone()];
            let analysis = rebuild_replica(&sup.factory, shard, n, &sup.control_prefix, &chain)
                .map_err(SuperviseError::Restore)?;
            sup.slots[shard].chain = chain;
            sup.slots[shard].snapshot_accesses = cp.per_shard_accesses[shard];
            sup.spawn_slot(shard, analysis, cp.per_shard_accesses[shard]);
        }
        let mut passed = 0u64;
        while passed < cp.events_consumed {
            match chunks.next() {
                Some(Ok(Some(chunk))) => passed += chunk.as_ref().len() as u64,
                Some(Ok(None)) => {}
                Some(Err(e)) => return Err(SuperviseError::Stream(e)),
                None => {
                    return Err(SuperviseError::Checkpoint(CheckpointError::Inconsistent(
                        "trace is shorter than the checkpoint's consumed prefix".into(),
                    )))
                }
            }
            seen += 1;
        }
        if passed != cp.events_consumed {
            return Err(SuperviseError::Checkpoint(CheckpointError::Inconsistent(
                "the checkpoint's consumed prefix ends inside a chunk".into(),
            )));
        }
        cur_chunks = seen.saturating_sub(1);
    } else {
        for shard in 0..n {
            let analysis = rebuild_replica(&sup.factory, shard, n, &[], &[])
                .map_err(SuperviseError::Restore)?;
            sup.spawn_slot(shard, analysis, 0);
        }
    }

    let snapshots = plan.checkpoint_every_chunks.is_some() || plan.stop_after_chunks.is_some();
    let mut buffers: Vec<Vec<Op>> = (0..n).map(|_| Vec::with_capacity(batch_cap)).collect();
    let mut last_snapshot_chunk = cur_chunks;
    let mut events_consumed = resume.map(|cp| cp.events_consumed).unwrap_or(0);
    let mut degraded = false;
    let mut stream_err: Option<E> = None;
    let mut suspend: Option<Checkpoint> = None;

    macro_rules! flush_shard {
        ($shard:expr) => {{
            let shard = $shard;
            if !buffers[shard].is_empty() {
                let batch = std::mem::replace(&mut buffers[shard], Vec::with_capacity(batch_cap));
                if sup.dispatch(shard, batch).is_err() {
                    degraded = true;
                }
            }
        }};
    }

    'route: while !degraded {
        let chunk = match chunks.next() {
            None => break 'route,
            Some(Ok(Some(chunk))) => chunk,
            Some(Ok(None)) => {
                seen += 1;
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
                for shard in 0..n {
                    flush_shard!(shard);
                    if degraded {
                        break 'route;
                    }
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
                        control_events: sup.control_prefix.clone(),
                        per_shard_accesses: sup
                            .slots
                            .iter()
                            .map(|s| s.snapshot_accesses)
                            .collect(),
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
        for e in events {
            match *e {
                Event::Read(task, loc) | Event::Write(task, loc) => {
                    let write = matches!(e, Event::Write(..));
                    if write {
                        router.writes += 1;
                    } else {
                        router.reads += 1;
                    }
                    let shard = loc.index() % n;
                    buffers[shard].push(Op::Access {
                        task,
                        loc,
                        write,
                        index,
                    });
                    index += 1;
                    if buffers[shard].len() >= batch_cap {
                        flush_shard!(shard);
                        if degraded {
                            break 'route;
                        }
                    }
                }
                ref control => {
                    router.control_events += 1;
                    if snapshots {
                        sup.control_prefix.push(control.clone());
                    }
                    for shard in 0..n {
                        buffers[shard].push(Op::Control(control.clone()));
                        if buffers[shard].len() >= batch_cap {
                            flush_shard!(shard);
                            if degraded {
                                break 'route;
                            }
                        }
                    }
                }
            }
        }
    }

    if let Some(err) = stream_err {
        // Shut the workers down cleanly, then report the stream error.
        for slot in &mut sup.slots {
            slot.tx = None;
        }
        let _ = sup.collect();
        return Err(SuperviseError::Stream(err));
    }

    if let Some(checkpoint) = suspend {
        for slot in &mut sup.slots {
            slot.tx = None;
        }
        let _ = sup.collect();
        return Ok(SupervisedOutcome::Suspended {
            checkpoint,
            supervision: sup.supervision,
        });
    }

    if !degraded {
        for shard in 0..n {
            flush_shard!(shard);
        }
    }

    let collected = if degraded { Err(Degrade) } else { sup.collect() };
    match collected {
        Ok(results) => {
            let mut stats = ShardStats {
                shards: n,
                events: router.events,
                control_events: router.control_events,
                reads: router.reads,
                writes: router.writes,
                accesses: index,
                per_shard_accesses: Vec::with_capacity(n),
            };
            let mut reports = Vec::with_capacity(n);
            for (report, accesses) in results {
                stats.per_shard_accesses.push(accesses);
                reports.push(report);
            }
            let report = (sup.factory)().merge_sharded(reports);
            Ok(SupervisedOutcome::Completed {
                report,
                stats,
                supervision: sup.supervision,
            })
        }
        Err(Degrade) => {
            // Last line of defense: a fresh, single-threaded pass over the
            // whole stream. Slower, but the verdict is the serial one by
            // construction.
            sup.supervision.degradations += 1;
            for slot in &mut sup.slots {
                slot.tx = None;
            }
            drop(sup.results_rx);
            let fresh = make_chunks().filter_map(Result::transpose);
            let out = run_analysis(source::chunks(fresh), (sup.factory)())
                .map_err(SuperviseError::Stream)?;
            let c = out.counters;
            let stats = ShardStats {
                shards: 1,
                events: c.events,
                control_events: c.control_events,
                accesses: c.checks(),
                reads: c.reads,
                writes: c.writes,
                per_shard_accesses: vec![c.checks()],
            };
            Ok(SupervisedOutcome::Completed {
                report: out.report,
                stats,
                supervision: sup.supervision,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceError;
    use futrace_detector::{DetectorConfig, RaceDetector, RaceReport};
    use futrace_runtime::engine::Analysis;
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
    fn chunks_of(log: &EventLog) -> impl Iterator<Item = Result<Option<&[Event]>, TraceError>> {
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
        assert_eq!(report.report.races, serial.races, "verdict survives restart");
        assert!(
            supervision.shard_restarts >= 1,
            "panic must be recovered by restart: {supervision:?}"
        );
        assert_eq!(supervision.degradations, 0);
        // Exactly-once delivery across the restart: a batch re-sent after
        // recovery must not ALSO be replayed from the retention buffer,
        // which would inflate the per-shard access counters.
        assert_eq!(
            stats.per_shard_accesses.iter().sum::<u64>(),
            stats.accesses,
            "restart must not double-apply any batch"
        );
    }

    #[test]
    fn replay_overflow_degrades_to_serial() {
        // With no snapshots and a tiny replay cap, the buffer overflows
        // immediately; a worker death in that window cannot restart and
        // must degrade to the (still correct) serial path rather than
        // retain the whole stream. A cap of 0 is plain sharding, which
        // retains nothing from the first batch on.
        let log = racy_log();
        let serial = serial_report(&log);
        for max_replay_ops in [1, 0] {
            let mut plan = plan_for_tests(2);
            plan.max_replay_ops = max_replay_ops;
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
            let context = format!("max_replay_ops {max_replay_ops}");
            assert_eq!(report.report.races, serial.races, "{context}: verdict is serial");
            assert_eq!(supervision.degradations, 1, "{context}");
            assert_eq!(supervision.shard_restarts, 0, "{context}");
            assert_eq!(stats.shards, 1, "degraded run is serial: {context}");
            assert_eq!(stats.events, log.events.len() as u64, "{context}");
            assert_eq!(stats.per_shard_accesses, vec![stats.accesses], "{context}");
        }
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
        assert_eq!(report.report.races, serial.races, "degraded verdict is serial");
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
        assert!(
            supervision.watchdog_timeouts >= 1 || supervision.degradations == 1,
            "stall must be detected: {supervision:?}"
        );
        assert_eq!(
            stats.per_shard_accesses.iter().sum::<u64>(),
            stats.accesses,
            "stall recovery must not double-apply any batch"
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
        assert_eq!(report.report.races, serial.races, "resumed verdict identical");
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
            let plan = SupervisorPlan::plain(plan_for_tests(shards).shard);
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
    fn blob_entrypoint_handles_both_formats() {
        let log = racy_log();
        let serial = serial_report(&log);
        let v1 = futrace_runtime::trace::encode(&log.events);
        let plan = SupervisorPlan::plain(ShardPlan::with_shards(2));
        let chunks = || crate::trace_chunks(&v1, false);
        let out = run_supervised(chunks, RaceDetector::new, &plan, None);
        assert_eq!(completed(out.unwrap()).0.report.races, serial.races);

        let mut w = crate::StreamWriter::with_chunk_bytes(Vec::new(), 128).unwrap();
        for e in &log.events {
            w.record(e);
        }
        let (v2, _) = w.finish().unwrap();
        let plan = SupervisorPlan::plain(ShardPlan::with_shards(3));
        let chunks = || crate::trace_chunks(&v2, false);
        let out = run_supervised(chunks, RaceDetector::new, &plan, None);
        let (report, _, _) = completed(out.unwrap());
        assert_eq!(report.report.races, serial.races);
    }

    #[test]
    fn stream_error_propagates_cleanly() {
        let log = racy_log();
        let mut blob = futrace_runtime::trace::encode(&log.events);
        blob.push(99); // unknown tag at the tail
        let plan = SupervisorPlan::plain(ShardPlan::with_shards(2));
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

        let plan = SupervisorPlan::plain(ShardPlan::with_shards(4));
        let factory = || RaceDetector::with_config(config.clone());
        let out = run_supervised(|| chunks_of(&log), factory, &plan, None).unwrap();
        let (report, _, _) = completed(out);
        assert_eq!(report.report.races, serial.races);
        assert_eq!(report.report.total_detected, serial.total_detected);
    }

    /// The ops the router sends shard `shard` of `n` for `events`: every
    /// control event, and the accesses `loc % n` routes there, numbered
    /// in the one global sequence.
    fn ops_for(events: &[Event], shard: usize, n: usize) -> Vec<Op> {
        let mut index = 0;
        let mut ops = Vec::new();
        for e in events {
            match *e {
                Event::Read(task, loc) | Event::Write(task, loc) => {
                    if loc.index() % n == shard {
                        let write = matches!(e, Event::Write(..));
                        ops.push(Op::Access {
                            task,
                            loc,
                            write,
                            index,
                        });
                    }
                    index += 1;
                }
                ref control => ops.push(Op::Control(control.clone())),
            }
        }
        ops
    }

    /// Applies `ops` to `det` the way a worker does.
    fn apply(det: &mut RaceDetector, ops: &[Op]) {
        for op in ops {
            match *op {
                Op::Control(ref e) => Analysis::apply_control(det, e),
                Op::Access {
                    task,
                    loc,
                    write: true,
                    index,
                } => det.check_write_at(task, loc, index),
                Op::Access {
                    task, loc, index, ..
                } => det.check_read_at(task, loc, index),
            }
        }
    }

    /// Spawns a tracking worker around `analysis`, sends it `ops` as one
    /// batch, and returns the state it cuts for `cut`.
    fn cut_by_worker(analysis: RaceDetector, ops: Vec<Op>, cut: Cut) -> Vec<u8> {
        let (tx, rx) = channel::bounded(2);
        let (results_tx, results_rx) = channel::bounded(2);
        let touched = Some(Touched::default());
        spawn_worker(0, 1, analysis, 0, touched, rx, results_tx, None, None);
        assert!(tx.send(ToWorker::Batch(Arc::new(ops))).is_ok());
        assert!(tx.send(ToWorker::Snapshot(cut)).is_ok());
        match results_rx.recv_timeout(Duration::from_secs(10)) {
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
                    fields.extend([next(), next(), next()]); // task, kind, epoch
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
        apply(&mut serial, &ops_for(&log.events, 0, 1));
        let mut whole = Vec::new();
        serial.save_state(&mut whole);
        let (serial_len, serial_cells) = shadow_section(&whole);
        for n in [1usize, 2, 3] {
            for shard in 0..n {
                let ops = ops_for(&log.events, shard, n);
                let mut unsharded = RaceDetector::new();
                apply(&mut unsharded, &ops);
                let mut want = Vec::new();
                unsharded.save_state(&mut want);
                let replica = rebuild_replica(RaceDetector::new, shard, n, &[], &[]).unwrap();
                let got = cut_by_worker(replica, ops, Cut::Full);
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
        for shard in 0..2 {
            let ops = ops_for(&log.events, shard, 2);
            let done = ops_for(&log.events[..cut_at], shard, 2).len();
            let mut straight = RaceDetector::new();
            apply(&mut straight, &ops);
            let mut want = Vec::new();
            straight.save_state(&mut want);

            let mut first = RaceDetector::new();
            apply(&mut first, &ops[..done]);
            let mut blob = Vec::new();
            first.save_state(&mut blob);
            let control: Vec<Event> = log.events[..cut_at]
                .iter()
                .filter(|e| !matches!(e, Event::Read(..) | Event::Write(..)))
                .cloned()
                .collect();
            let restored =
                rebuild_replica(RaceDetector::new, shard, 2, &control, &[blob]).unwrap();
            let rest = ops_for(&log.events, shard, 2).split_off(done);
            let got = cut_by_worker(restored, rest, Cut::Full);
            assert!(got == want, "shard {shard}");
        }
    }

    #[test]
    fn a_dropped_chunk_is_a_boundary() {
        // Chunks 0, 2 and 3 routed, chunk 1 dropped by a lenient read:
        // barriers fall before chunks 2 and 3, as for four intact chunks
        // with nothing in chunk 1.
        let log = racy_log();
        let (a, rest) = log.events.split_at(10);
        let (b, c) = rest.split_at(10);
        let chunks = || {
            [Some(a), None, Some(b), Some(c)]
                .into_iter()
                .map(Ok::<_, TraceError>)
        };
        let mut plan = plan_for_tests(2);
        plan.checkpoint_every_chunks = Some(1);
        let (report, stats, supervision) =
            completed(run_supervised(chunks, RaceDetector::new, &plan, None).unwrap());
        assert_eq!(supervision.snapshots_taken, 2);
        assert_eq!(stats.events, log.events.len() as u64);
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
        let thirds = || log.events.chunks(3).map(|c| Ok::<_, TraceError>(Some(c)));
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
