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
//!   partitions the check work with no cross-shard communication at all.
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
//! shadow-check hot path runs on all cores.
//!
//! ## Supervision
//!
//! * **Workers are spawned detached** (`std::thread::spawn`, not a scope)
//!   with the analysis loop under `catch_unwind`, so a worker panic
//!   becomes a [`FromWorker::Died`] message instead of a process abort,
//!   and a wedged worker can be *abandoned* — the supervisor drops its
//!   sender and moves on, which a scoped join could never do.
//! * **The watchdog** bounds every wait: routing uses
//!   [`crate::channel::Sender::send_timeout`], collection uses
//!   [`crate::channel::Receiver::recv_timeout`]. A deadline expiring means
//!   a worker is stalled; it is treated exactly like a dead one.
//! * **Restart-from-snapshot**: at chunk boundaries the supervisor can
//!   barrier-snapshot every worker ([`Checkpointable::save_state`]). A
//!   replacement worker is rebuilt from scratch — control-prefix replay,
//!   state restore, then replay of the batches routed since the snapshot
//!   (the supervisor retains them; their volume is bounded by the
//!   checkpoint interval and capped by
//!   [`SupervisorPlan::max_replay_ops`] — on overflow the buffer is
//!   dropped and a death in that window degrades to serial instead of
//!   hoarding memory). Injected faults are one-shot, modelling the
//!   transient failures restart is for.
//! * **Degrade-to-serial**: when restarts are exhausted (or recovery
//!   itself fails), the supervisor falls back to a fresh single-threaded
//!   [`run_analysis`] over the whole stream — slower, but the verdict is
//!   identical by the sharding soundness argument with `N = 1`.
//! * **Suspend/resume**: `stop_after_chunks` turns the barrier snapshot
//!   into a [`Checkpoint`] and returns
//!   [`SupervisedOutcome::Suspended`]; a later run passes the checkpoint
//!   back and continues from the boundary with byte-identical results
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
use crate::checkpoint::{Checkpoint, CheckpointError, RouterProgress, TraceFingerprint};
use futrace_runtime::engine::{run_analysis, source, Checkpointable, StateError};
use futrace_runtime::Event;
use futrace_util::faultinject::{FaultPlan, WorkerFault};
use futrace_util::ids::{LocId, TaskId};
use std::panic::{catch_unwind, AssertUnwindSafe};
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
    /// Damaged chunks skipped by a lenient framed read (0 otherwise).
    pub skipped_chunks: u64,
}

/// An event stream that knows how many trace chunks it has fully
/// consumed. Chunk boundaries are the only points where the supervisor
/// snapshots or suspends — they are stable across runs (a fresh run and a
/// resumed run cut the stream identically), which is what makes
/// checkpoint/resume deterministic.
pub trait ChunkedEvents: Iterator {
    /// Chunks fully consumed so far (monotone).
    fn chunks_consumed(&self) -> u64;

    /// Damaged chunks skipped so far (lenient framed reads; 0 otherwise).
    fn skipped_chunks(&self) -> u64 {
        0
    }
}

impl ChunkedEvents for crate::framed::FramedEvents<'_> {
    fn chunks_consumed(&self) -> u64 {
        crate::framed::FramedEvents::chunks_consumed(self)
    }
    fn skipped_chunks(&self) -> u64 {
        crate::framed::FramedEvents::skipped_chunks(self)
    }
}

impl ChunkedEvents for crate::TraceEvents<'_> {
    fn chunks_consumed(&self) -> u64 {
        crate::TraceEvents::chunks_consumed(self)
    }
    fn skipped_chunks(&self) -> u64 {
        crate::TraceEvents::skipped_chunks(self)
    }
}

/// Synthetic chunk size for in-memory event lists, which have no framed
/// boundaries of their own: the granularity at which the session layer
/// and corpus runs let the supervisor snapshot a decoded event list.
pub const SYNTHETIC_CHUNK_EVENTS: u64 = 4096;

/// Imposes synthetic chunk boundaries (every `every` events) on any event
/// iterator, so in-memory event streams can exercise checkpoint/resume
/// without a framed encoding round-trip.
pub struct SyntheticChunks<I> {
    inner: I,
    every: u64,
    pulled: u64,
}

impl<I> SyntheticChunks<I> {
    /// Wraps `inner` with a boundary after every `every` events (≥ 1).
    pub fn new(inner: I, every: u64) -> Self {
        SyntheticChunks {
            inner,
            every: every.max(1),
            pulled: 0,
        }
    }
}

impl<I: Iterator> Iterator for SyntheticChunks<I> {
    type Item = I::Item;
    fn next(&mut self) -> Option<I::Item> {
        let item = self.inner.next();
        if item.is_some() {
            self.pulled += 1;
        }
        item
    }
}

impl<I: Iterator> ChunkedEvents for SyntheticChunks<I> {
    fn chunks_consumed(&self) -> u64 {
        // A chunk is complete once an event *past* it has been pulled, so
        // the event just returned is never part of a "consumed" chunk —
        // matching the framed reader's accounting.
        self.pulled.saturating_sub(1) / self.every
    }
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
    /// and bounds replay-buffer memory). `None` disables snapshots;
    /// worker death then degrades to serial unless a restart can replay
    /// from the stream start (it can, while the stream prefix still fits
    /// under [`SupervisorPlan::max_replay_ops`]).
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

#[derive(Clone)]
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
    Batch(Vec<Op>),
    Snapshot,
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
                        for op in batch {
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
                            match op {
                                Op::Control(e) => analysis.apply_control(&e),
                                Op::Access {
                                    task,
                                    loc,
                                    write,
                                    index,
                                } => {
                                    accesses += 1;
                                    if write {
                                        analysis.check_write_at(task, loc, index);
                                    } else {
                                        analysis.check_read_at(task, loc, index);
                                    }
                                }
                            }
                        }
                    }
                    Some(ToWorker::Snapshot) => {
                        let mut state = Vec::new();
                        analysis.save_state(&mut state);
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
    /// replacement worker. Volume is bounded by the checkpoint interval
    /// and, as a backstop, by [`SupervisorPlan::max_replay_ops`].
    replay: Vec<Vec<Op>>,
    /// Ops currently retained in `replay`.
    replay_ops: u64,
    /// The replay buffer overflowed [`SupervisorPlan::max_replay_ops`] and
    /// was discarded; the shard cannot be restarted until the next
    /// snapshot resets it.
    replay_lost: bool,
    /// Last snapshot of this shard's access-derived state.
    snapshot: Option<Vec<u8>>,
    snapshot_accesses: u64,
    panic_at: Option<u64>,
    stall_at: Option<(u64, Duration)>,
}

/// Signals "stop supervising, fall back to a fresh serial run".
struct Degrade;

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
    fn spawn_slot(&mut self, shard: usize, analysis: A, accesses: u64) {
        let (tx, rx) = channel::bounded(self.plan.shard.channel_capacity.max(1));
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        let slot = &mut self.slots[shard];
        slot.tx = Some(tx);
        slot.epoch = epoch;
        spawn_worker(
            shard,
            epoch,
            analysis,
            accesses,
            rx,
            self.results_tx.clone(),
            slot.panic_at.take(),
            slot.stall_at.take(),
        );
    }

    /// Rebuilds shard `shard`'s worker: fresh analysis, control-prefix
    /// replay up to the last snapshot, state restore, then replay of the
    /// retained post-snapshot batches. Returns `Degrade` when the restart
    /// budget is exhausted or recovery itself fails.
    fn restart(&mut self, shard: usize) -> Result<(), Degrade> {
        if self.supervision.shard_restarts >= self.plan.max_restarts as u64
            || self.slots[shard].replay_lost
        {
            return Err(Degrade);
        }
        self.supervision.shard_restarts += 1;
        self.slots[shard].tx = None; // abandon the old incarnation

        let mut analysis = (self.factory)();
        for e in &self.control_prefix[..self.snapshot_control_len] {
            analysis.apply_control(e);
        }
        if let Some(state) = &self.slots[shard].snapshot {
            if analysis.restore_state(state).is_err() {
                return Err(Degrade);
            }
        }
        let accesses = self.slots[shard].snapshot_accesses;
        self.spawn_slot(shard, analysis, accesses);

        let replay: Vec<Vec<Op>> = self.slots[shard].replay.clone();
        for batch in replay {
            self.send_batch(shard, batch, false)?;
        }
        Ok(())
    }

    /// Sends one batch with the watchdog; on stall or death, recovers (at
    /// most once per call when `recover` is set) and re-sends.
    fn send_batch(&mut self, shard: usize, batch: Vec<Op>, recover: bool) -> Result<(), Degrade> {
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

    /// Routes a batch and retains it for post-snapshot replay. The copy is
    /// pushed only *after* the send succeeds: `restart` replays the whole
    /// buffer, so retaining first would deliver a failed batch twice (once
    /// via replay, once via the recovery re-send), duplicating control
    /// events and inflating access counts in the replacement worker.
    ///
    /// A batch that would overflow [`SupervisorPlan::max_replay_ops`] is
    /// never copied: once it is sent, the buffer is dropped instead. The
    /// shard is then no longer restartable until the next snapshot resets
    /// it (death degrades to serial), which is what plain sharding
    /// (`max_replay_ops == 0`) asks for from its first batch on.
    fn dispatch(&mut self, shard: usize, batch: Vec<Op>) -> Result<(), Degrade> {
        let slot = &self.slots[shard];
        let len = batch.len() as u64;
        let retained = (!slot.replay_lost && slot.replay_ops + len <= self.plan.max_replay_ops)
            .then(|| batch.clone());
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
    /// (all routed batches FIFO-precede the snapshot request). On success
    /// the replay buffers reset. Dead or stalled workers are restarted and
    /// re-asked, within the restart budget.
    fn snapshot_barrier(&mut self) -> Result<(), Degrade> {
        for shard in 0..self.n {
            self.request_snapshot(shard)?;
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
                        self.request_snapshot(shard)?;
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
                            self.request_snapshot(shard)?;
                        }
                    }
                }
                RecvTimeout::Disconnected => return Err(Degrade),
            }
        }
        for (shard, entry) in pending.into_iter().enumerate() {
            let (state, accesses) = entry.expect("barrier collected all shards");
            let slot = &mut self.slots[shard];
            slot.snapshot = Some(state);
            slot.snapshot_accesses = accesses;
            slot.replay.clear();
            slot.replay_ops = 0;
            slot.replay_lost = false;
        }
        self.snapshot_control_len = self.control_prefix.len();
        self.supervision.snapshots_taken += 1;
        Ok(())
    }

    fn request_snapshot(&mut self, shard: usize) -> Result<(), Degrade> {
        let Some(tx) = &self.slots[shard].tx else {
            return Err(Degrade);
        };
        match tx.send_timeout(ToWorker::Snapshot, self.plan.watchdog) {
            SendTimeout::Sent => Ok(()),
            SendTimeout::Full(_) => {
                self.supervision.watchdog_timeouts += 1;
                self.restart(shard)?;
                self.request_snapshot_once(shard)
            }
            SendTimeout::Disconnected(_) => {
                self.drain_results();
                self.restart(shard)?;
                self.request_snapshot_once(shard)
            }
        }
    }

    fn request_snapshot_once(&mut self, shard: usize) -> Result<(), Degrade> {
        let Some(tx) = &self.slots[shard].tx else {
            return Err(Degrade);
        };
        match tx.send_timeout(ToWorker::Snapshot, self.plan.watchdog) {
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
/// built by `factory`, accesses are routed by `loc % N` carrying global
/// indices, and the per-shard reports are merged by a fresh `factory()`
/// instance's [`futrace_runtime::engine::LocRoutable::merge_sharded`] into
/// the serial verdict. `plan` sets what the supervisor keeps for recovery
/// ([`SupervisorPlan::plain`] keeps nothing).
///
/// `make_events` must produce a *fresh* stream over the same trace on
/// every call — the supervisor re-reads from the start for degradation
/// and resume skipping. Any stream error type fits (v1
/// [`futrace_runtime::trace::DecodeError`], framed [`crate::FrameError`],
/// unified [`crate::TraceError`]). On a stream error the workers are shut
/// down first, then the error is returned as [`SuperviseError::Stream`]:
/// no partial verdict is reported.
pub fn run_supervised<A, I, E, MF, F>(
    make_events: MF,
    factory: F,
    plan: &SupervisorPlan,
    resume: Option<&Checkpoint>,
) -> Result<SupervisedOutcome<A::Report>, SuperviseError<E>>
where
    A: Checkpointable + Send + 'static,
    A::Report: Send + 'static,
    I: ChunkedEvents + Iterator<Item = Result<Event, E>>,
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
                snapshot: None,
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

    let mut events = make_events();
    let mut index = 0u64;
    let mut router = RouterProgress::default();

    // Resume: rebuild every shard from the checkpoint, then skip the
    // already-incorporated prefix of the stream.
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
            let mut analysis = (sup.factory)();
            for e in &sup.control_prefix {
                analysis.apply_control(e);
            }
            analysis
                .restore_state(&cp.shard_states[shard])
                .map_err(SuperviseError::Restore)?;
            sup.slots[shard].snapshot = Some(cp.shard_states[shard].clone());
            sup.slots[shard].snapshot_accesses = cp.per_shard_accesses[shard];
            sup.spawn_slot(shard, analysis, cp.per_shard_accesses[shard]);
        }
        for _ in 0..cp.events_consumed {
            match events.next() {
                Some(Ok(_)) => {}
                Some(Err(e)) => return Err(SuperviseError::Stream(e)),
                None => {
                    return Err(SuperviseError::Checkpoint(CheckpointError::Inconsistent(
                        "trace is shorter than the checkpoint's consumed prefix".into(),
                    )))
                }
            }
        }
    } else {
        for shard in 0..n {
            let analysis = (sup.factory)();
            sup.spawn_slot(shard, analysis, 0);
        }
    }

    let snapshots = plan.checkpoint_every_chunks.is_some() || plan.stop_after_chunks.is_some();
    let mut buffers: Vec<Vec<Op>> = (0..n).map(|_| Vec::with_capacity(batch_cap)).collect();
    let mut cur_chunks = events.chunks_consumed();
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
        let item = events.next();
        let boundary = events.chunks_consumed();
        let Some(item) = item else {
            break 'route;
        };
        let e = match item {
            Ok(e) => e,
            Err(err) => {
                stream_err = Some(err);
                break 'route;
            }
        };

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
                // Snapshot BEFORE routing the already-pulled event: the cut
                // covers exactly the completed chunks.
                for shard in 0..n {
                    flush_shard!(shard);
                    if degraded {
                        break 'route;
                    }
                }
                if sup.snapshot_barrier().is_err() {
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
                            .map(|s| s.snapshot.clone().expect("barrier just completed"))
                            .collect(),
                        fingerprint: plan.fingerprint,
                    });
                    break 'route;
                }
            }
        }

        events_consumed += 1;
        router.events += 1;
        match e {
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
                }
            }
            control => {
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
                skipped_chunks: events.skipped_chunks(),
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
            let mut fresh = make_events();
            let out = run_analysis(source::stream(&mut fresh), (sup.factory)())
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
                skipped_chunks: fresh.skipped_chunks(),
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

    fn events_of(log: &EventLog) -> impl Fn() -> SyntheticChunks<
        std::iter::Map<
            std::vec::IntoIter<futrace_runtime::Event>,
            fn(futrace_runtime::Event) -> Result<futrace_runtime::Event, TraceError>,
        >,
    > + '_ {
        move || {
            SyntheticChunks::new(
                log.events
                    .clone()
                    .into_iter()
                    .map(Ok as fn(_) -> Result<_, TraceError>),
                5,
            )
        }
    }

    #[test]
    fn clean_supervised_run_matches_serial() {
        let log = racy_log();
        let serial = serial_report(&log);
        let out = run_supervised(
            events_of(&log),
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
        let out =
            run_supervised(events_of(&log), RaceDetector::new, &plan, None).unwrap();
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
            let out =
                run_supervised(events_of(&log), RaceDetector::new, &plan, None).unwrap();
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
        let out =
            run_supervised(events_of(&log), RaceDetector::new, &plan, None).unwrap();
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
        let out =
            run_supervised(events_of(&log), RaceDetector::new, &plan, None).unwrap();
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
        let out = run_supervised(
            events_of(&log),
            RaceDetector::new,
            &stop_plan,
            None,
        )
        .unwrap();
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
            events_of(&log),
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
        let SupervisedOutcome::Suspended { mut checkpoint, .. } = run_supervised(
            events_of(&log),
            RaceDetector::new,
            &stop_plan,
            None,
        )
        .unwrap() else {
            panic!("expected suspension");
        };
        checkpoint.shard_states.pop();
        checkpoint.per_shard_accesses.pop();
        match run_supervised(
            events_of(&log),
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
            let out = run_supervised(events_of(&log), RaceDetector::new, &plan, None).unwrap();
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
        let events = || crate::trace_events(&v1, false);
        let out = run_supervised(events, RaceDetector::new, &plan, None);
        assert_eq!(completed(out.unwrap()).0.report.races, serial.races);

        let mut w = crate::StreamWriter::with_chunk_bytes(Vec::new(), 128).unwrap();
        for e in &log.events {
            w.record(e);
        }
        let (v2, _) = w.finish().unwrap();
        let plan = SupervisorPlan::plain(ShardPlan::with_shards(3));
        let events = || crate::trace_events(&v2, false);
        let out = run_supervised(events, RaceDetector::new, &plan, None);
        let (report, stats, _) = completed(out.unwrap());
        assert_eq!(report.report.races, serial.races);
        assert_eq!(stats.skipped_chunks, 0);
    }

    #[test]
    fn stream_error_propagates_cleanly() {
        let log = racy_log();
        let mut blob = futrace_runtime::trace::encode(&log.events);
        blob.push(99); // unknown tag at the tail
        let plan = SupervisorPlan::plain(ShardPlan::with_shards(2));
        let events = || crate::trace_events(&blob, false);
        match run_supervised(events, RaceDetector::new, &plan, None) {
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
        let out = run_supervised(events_of(&log), factory, &plan, None).unwrap();
        let (report, _, _) = completed(out);
        assert_eq!(report.report.races, serial.races);
        assert_eq!(report.report.total_detected, serial.total_detected);
    }

    #[test]
    fn synthetic_chunks_count_like_framed() {
        let mut it = SyntheticChunks::new(0..10u32, 4);
        assert_eq!(it.chunks_consumed(), 0);
        for _ in 0..4 {
            it.next();
        }
        assert_eq!(it.chunks_consumed(), 0, "4th event ends chunk 0, not past it");
        it.next();
        assert_eq!(it.chunks_consumed(), 1, "5th event is inside chunk 1");
    }
}
