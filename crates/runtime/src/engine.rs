//! The analysis-engine layer: one driver for every detector and every
//! event source.
//!
//! The paper's whole experimental argument rests on all analyses observing
//! *identical* serial depth-first executions. Before this module existed,
//! that guarantee was re-implemented ad hoc by every consumer: the bench
//! harness wired a [`Monitor`] by hand, `tracetool` had its own replay
//! loop, and each test suite drove detectors with bespoke code. The engine
//! centralizes the contract in two small traits:
//!
//! * [`Analysis`] — the consumer side. Promotes the DTRG detector's
//!   `apply_control` / `check_read_at` / `check_write_at` split to a
//!   workspace-level interface: **control events** (task create/end,
//!   finish start/end, `get`, alloc) mutate analysis-global state, while
//!   **access checks** are addressed to a single location and carry an
//!   explicit global access index. The split is what makes offline
//!   sharding possible (broadcast control, route accesses by location);
//!   analyses whose checks really are location-independent additionally
//!   implement [`LocRoutable`].
//! * [`EventSource`] — the producer side. Live serial execution, an
//!   in-memory recorded event log, and decoded trace chunks (flat v1 or
//!   framed v2, strict or lenient) all implement it, so
//!   [`run_analysis`] is the single entry point replacing every bespoke
//!   loop.
//!
//! The driver also does the bookkeeping every consumer used to duplicate:
//! events consumed, checks performed, and wall time are accumulated in
//! [`EngineCounters`] and returned with the analysis report in an
//! [`Outcome`].
//!
//! ```
//! use futrace_runtime::engine::{run_analysis, source, Analysis};
//! use futrace_runtime::{Event, EventLog, run_serial};
//! use futrace_util::ids::{LocId, TaskId};
//!
//! /// Toy analysis: counts write checks.
//! #[derive(Default)]
//! struct WriteCounter(u64);
//! impl Analysis for WriteCounter {
//!     type Report = u64;
//!     fn apply_control(&mut self, _e: &Event) {}
//!     fn check_read_at(&mut self, _t: TaskId, _l: LocId, _i: u64) {}
//!     fn check_write_at(&mut self, _t: TaskId, _l: LocId, _i: u64) {
//!         self.0 += 1;
//!     }
//!     fn finish(self) -> u64 {
//!         self.0
//!     }
//! }
//!
//! // Live execution and replay of a recording go through the same driver.
//! let program = |ctx: &mut futrace_runtime::SerialCtx<_>| {};
//! let live = run_analysis(source::live(program), WriteCounter::default()).unwrap();
//! let mut log = EventLog::new();
//! run_serial(&mut log, |_ctx| {});
//! let replayed = run_analysis(source::recorded(&log.events), WriteCounter::default()).unwrap();
//! assert_eq!(live.report, replayed.report);
//! ```

#![warn(missing_docs)]

use crate::monitor::{self, Event, Monitor, TaskKind};
use crate::serial::{run_serial, SerialCtx};
use futrace_util::ids::{FinishId, LocId, TaskId};
use futrace_util::stats::Timer;
use std::convert::Infallible;

/// A trace analysis: anything that consumes the instrumentation event
/// stream split into control events and loc-addressed access checks.
///
/// The contract mirrors the serial depth-first execution the paper
/// requires (§4.1): `apply_control` receives every non-access event in
/// order, and each `Read`/`Write` event becomes exactly one
/// `check_read_at` / `check_write_at` call carrying the access's index in
/// the *global* access stream. The index is assigned by the driver (or by
/// the sharded router, from one pass) so reports produced on different
/// backends can be aligned and merged deterministically.
pub trait Analysis {
    /// What the analysis produces when the stream ends.
    type Report;

    /// Applies one control event (never `Read`/`Write`).
    fn apply_control(&mut self, e: &Event);

    /// Checks a shared-memory read by `task` at `loc`; `index` is the
    /// access's position in the global access stream.
    fn check_read_at(&mut self, task: TaskId, loc: LocId, index: u64);

    /// Checks a shared-memory write by `task` at `loc`.
    fn check_write_at(&mut self, task: TaskId, loc: LocId, index: u64);

    /// Checks a flat run of consecutive accesses; `ops[k]` carries global
    /// index `first_index + k`. The default implementation dispatches each
    /// op to `check_read_at`/`check_write_at`, so the contract is exactly
    /// the per-event one; analyses may override it to amortize per-check
    /// overhead across a run (the batched decode path produces long runs —
    /// real traces are access-dominated).
    fn check_batch(&mut self, ops: &[AccessOp], first_index: u64) {
        for (k, op) in ops.iter().enumerate() {
            let index = first_index + k as u64;
            if op.write {
                self.check_write_at(op.task, op.loc, index);
            } else {
                self.check_read_at(op.task, op.loc, index);
            }
        }
    }

    /// Consumes the analysis and produces its final report (runs any
    /// deferred work, e.g. the closure detector's whole analysis).
    fn finish(self) -> Self::Report;
}

/// One flattened shared-memory access: an element of a batched run of
/// consecutive `Read`/`Write` events (see [`Analysis::check_batch`] and
/// [`Engine::consume_slice`]). Three words, `Copy`, no enum dispatch —
/// the batched hot path moves these instead of [`Event`] values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessOp {
    /// The accessing task.
    pub task: TaskId,
    /// The accessed location.
    pub loc: LocId,
    /// True for a write, false for a read.
    pub write: bool,
}

/// Capability marker for analyses whose access checks are independent per
/// location: control events may be broadcast to replicas and accesses
/// routed by `loc % N` without changing any verdict.
///
/// The DTRG detector and the vector-clock baseline qualify (their
/// control-driven state never depends on shadow memory, and each check
/// touches exactly one shadow cell). Baselines that need the global
/// access order — or that finalize over the whole recorded graph, like
/// the transitive-closure oracle — simply do not implement this trait,
/// which is what "opting out" of the sharded backend means.
pub trait LocRoutable: Analysis {
    /// Makes this fresh instance the replica of shard `shard` of `shards`:
    /// it will be sent every control event but only the accesses with
    /// `loc % shards == shard`, so it need keep per-location state for
    /// those locations alone. The shard stage calls this before the
    /// replica sees any event; an instance never assigned is shard 0 of 1,
    /// which is routed every access (the serial analysis).
    fn assign_shard(&mut self, shard: usize, shards: usize);

    /// Merges per-shard reports (given in shard order) into the report the
    /// serial run would have produced. `self` is a fresh, unused instance
    /// whose configuration (e.g. report caps) governs the merge.
    fn merge_sharded(self, shards: Vec<Self::Report>) -> Self::Report;
}

/// Error restoring an analysis from a checkpoint state blob: the blob is
/// truncated, corrupt, or was written by an incompatible analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateError(pub String);

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "analysis state restore failed: {}", self.0)
    }
}

impl std::error::Error for StateError {}

impl From<futrace_util::wire::WireError> for StateError {
    fn from(e: futrace_util::wire::WireError) -> Self {
        StateError(e.to_string())
    }
}

/// A [`LocRoutable`] analysis whose *access-derived* state can be
/// serialized and restored, enabling checkpoint/resume (DESIGN S38).
///
/// The split matters: control-driven state (the DTRG, vector clocks,
/// task/finish bookkeeping) is rebuilt exactly by replaying the compact
/// control-event prefix through [`Analysis::apply_control`] — the same
/// property that makes sharding sound. Only state produced by access
/// *checks* (shadow cells, discovered races, dedup sets, access
/// counters) needs to round-trip through `save_state`/`restore_state`.
/// A checkpoint is therefore: control prefix (v1 codec) + one opaque
/// state blob per shard.
///
/// Contract: for any event prefix P and suffix S, running P, saving,
/// restoring into a fresh instance that replayed P's control events, and
/// running S must produce the same report as running P then S directly.
/// Backend-cost counters (e.g. DTRG query expansions) are exempt, as they
/// already are for the sharded merge.
///
/// A state can also be restored from a chain: one full blob
/// ([`Checkpointable::save_state`]) followed, in order, by deltas
/// ([`Checkpointable::save_cells`]) cut later in the same run, each
/// listing at least the locations checked since the blob before it. The
/// fresh instance replays the control prefix up to the *last* cut, then
/// restores the full blob and every delta in order; the result must equal
/// restoring a full blob cut at the last point.
///
/// Blobs name shadow cells by *global* location and carry the global
/// shadow length, whatever shard cut them, so a shard replica's blob is
/// the one a replica holding every cell would cut. A blob restores only
/// into an instance assigned the same shard
/// ([`LocRoutable::assign_shard`]).
pub trait Checkpointable: LocRoutable {
    /// Appends the access-derived state to `out` (self-delimiting).
    fn save_state(&self, out: &mut Vec<u8>);

    /// Appends a delta of the access-derived state to `out`: the
    /// [`Checkpointable::save_state`] format, listing only the shadow
    /// cells of `locs`, by global location, but every other
    /// access-derived field in full.
    ///
    /// An instance that was never restored holds non-default cells only
    /// where it checked an access, so `save_cells` over every location it
    /// checked, in ascending order, restores what `save_state` restores
    /// (a listed cell that is still default restores as one).
    fn save_cells(&self, locs: &[LocId], out: &mut Vec<u8>);

    /// Restores access-derived state saved by [`Checkpointable::save_state`]
    /// or [`Checkpointable::save_cells`] into `self`, which must be a fresh
    /// instance, assigned the shard that cut the blob, that has already
    /// replayed the checkpoint's control-event prefix (and restored the
    /// chain's earlier blobs, for a delta). It overwrites the cells the
    /// blob lists and replaces every other access-derived field. A blob
    /// listing a cell of another shard is an error.
    fn restore_state(&mut self, state: &[u8]) -> Result<(), StateError>;
}

/// Driver bookkeeping: what one [`run_analysis`] call consumed and did.
/// Replaces the one-off event/check counting individual consumers used to
/// maintain.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EngineCounters {
    /// Total events consumed (control + accesses).
    pub events: u64,
    /// Control events applied.
    pub control_events: u64,
    /// Read checks performed.
    pub reads: u64,
    /// Write checks performed.
    pub writes: u64,
    /// Wall-clock time of the whole run (drive + finish), in ms.
    pub wall_ms: f64,
    /// Shard workers restarted from a checkpoint after dying or stalling
    /// (supervised pipeline only; 0 elsewhere).
    pub shard_restarts: u64,
    /// Runs degraded from the sharded to the serial path after an
    /// unrecoverable worker failure (0 or 1 per run).
    pub degradations: u64,
    /// Runs that started from a checkpoint instead of the beginning of
    /// the trace (0 or 1 per run).
    pub resumed_from_checkpoint: u64,
    /// Hot-path cache hits reported by the analysis (0 for analyses
    /// without caches). The engine never fills these itself: consumers
    /// copy them from analysis statistics after the run so the display
    /// can surface them next to the driver's own counts.
    pub cache_hits: u64,
    /// Hot-path cache misses reported by the analysis (0 for analyses
    /// without caches).
    pub cache_misses: u64,
    /// Damaged trace chunks a lenient read dropped whole (0 otherwise).
    /// Like the cache totals, filled in by the consumer that read the
    /// trace, and not part of the display.
    pub skipped_chunks: u64,
}

impl EngineCounters {
    /// Access checks performed (reads + writes).
    pub fn checks(&self) -> u64 {
        self.reads + self.writes
    }

    /// True when the supervised pipeline recorded any recovery action.
    pub fn had_supervision_events(&self) -> bool {
        self.shard_restarts > 0 || self.degradations > 0 || self.resumed_from_checkpoint > 0
    }
}

impl std::fmt::Display for EngineCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} events ({} control, {} checks: {} reads + {} writes) in {:.2} ms",
            self.events,
            self.control_events,
            self.checks(),
            self.reads,
            self.writes,
            self.wall_ms
        )?;
        // Cache statistics are appended only when the analysis has a
        // cache, so output consumed by CI diffs is unchanged elsewhere.
        if self.cache_hits > 0 || self.cache_misses > 0 {
            write!(
                f,
                "; cache: {} hit(s), {} miss(es)",
                self.cache_hits, self.cache_misses
            )?;
        }
        // Supervision outcomes are appended only when something happened,
        // so output consumed by CI diffs is unchanged for clean runs.
        if self.had_supervision_events() {
            write!(
                f,
                "; supervision: {} restart(s), {} degradation(s), {} resume(s)",
                self.shard_restarts, self.degradations, self.resumed_from_checkpoint
            )?;
        }
        Ok(())
    }
}

/// An analysis report plus the driver's counters.
#[derive(Clone, Debug)]
pub struct Outcome<R> {
    /// What [`Analysis::finish`] produced.
    pub report: R,
    /// Driver bookkeeping for the run.
    pub counters: EngineCounters,
}

/// The engine core: wraps an [`Analysis`], numbers the access stream, and
/// keeps [`EngineCounters`]. Implements [`Monitor`] so the serial executor
/// can drive it directly (the live source), and exposes [`Engine::consume`]
/// for replayed event streams — both paths are guaranteed to split the
/// stream identically.
pub struct Engine<A: Analysis> {
    analysis: A,
    counters: EngineCounters,
    next_index: u64,
    /// Reused batch buffer for [`Engine::consume_slice`], so flattening a
    /// run of accesses allocates only on growth.
    batch: Vec<AccessOp>,
}

impl<A: Analysis> Engine<A> {
    /// Fresh engine around `analysis`.
    pub fn new(analysis: A) -> Self {
        Engine::resumed(analysis, EngineCounters::default(), 0)
    }

    /// Engine around an analysis restored from a checkpoint: counting
    /// continues from `counters` and access numbering from `next_index`,
    /// so the rest of the stream is counted and numbered exactly as in
    /// an uninterrupted run.
    pub fn resumed(analysis: A, counters: EngineCounters, next_index: u64) -> Self {
        Engine {
            analysis,
            counters,
            next_index,
            batch: Vec::new(),
        }
    }

    /// A peek at the running analysis, for incremental drivers (the
    /// session layer reads races-so-far between chunks without tearing
    /// the engine down).
    pub fn analysis(&self) -> &A {
        &self.analysis
    }

    /// A peek at the counters accumulated so far (the finished totals
    /// come from [`Engine::into_parts`]).
    pub fn counters(&self) -> &EngineCounters {
        &self.counters
    }

    /// The global index the next access check will carry.
    pub fn next_index(&self) -> u64 {
        self.next_index
    }

    /// Feeds a slice of events, batching each run of consecutive
    /// `Read`/`Write` events into one [`Analysis::check_batch`] call.
    /// Equivalent to calling [`Engine::consume`] per event (same splits,
    /// same indices, same counters) — only the dispatch granularity
    /// changes, which is what the batched decode paths are for.
    pub fn consume_slice(&mut self, events: &[Event]) {
        let mut i = 0;
        while i < events.len() {
            match events[i] {
                Event::Read(..) | Event::Write(..) => {
                    self.batch.clear();
                    let mut writes = 0u64;
                    while let Some(e) = events.get(i) {
                        let op = match *e {
                            Event::Read(task, loc) => AccessOp {
                                task,
                                loc,
                                write: false,
                            },
                            Event::Write(task, loc) => {
                                writes += 1;
                                AccessOp {
                                    task,
                                    loc,
                                    write: true,
                                }
                            }
                            _ => break,
                        };
                        self.batch.push(op);
                        i += 1;
                    }
                    let n = self.batch.len() as u64;
                    self.counters.events += n;
                    self.counters.writes += writes;
                    self.counters.reads += n - writes;
                    let first = self.next_index;
                    self.next_index = first + n;
                    self.analysis.check_batch(&self.batch, first);
                }
                ref control => {
                    self.counters.events += 1;
                    self.counters.control_events += 1;
                    self.analysis.apply_control(control);
                    i += 1;
                }
            }
        }
    }

    /// Feeds one event: control events go to
    /// [`Analysis::apply_control`], accesses become numbered checks.
    pub fn consume(&mut self, e: &Event) {
        match *e {
            Event::Read(task, loc) => self.read_check(task, loc),
            Event::Write(task, loc) => self.write_check(task, loc),
            ref control => {
                self.counters.events += 1;
                self.counters.control_events += 1;
                self.analysis.apply_control(control);
            }
        }
    }

    #[inline]
    fn read_check(&mut self, task: TaskId, loc: LocId) {
        self.counters.events += 1;
        self.counters.reads += 1;
        let i = self.next_index;
        self.next_index = i + 1;
        self.analysis.check_read_at(task, loc, i);
    }

    #[inline]
    fn write_check(&mut self, task: TaskId, loc: LocId) {
        self.counters.events += 1;
        self.counters.writes += 1;
        let i = self.next_index;
        self.next_index = i + 1;
        self.analysis.check_write_at(task, loc, i);
    }

    /// Decomposes the engine into the analysis and the counters collected
    /// so far (`wall_ms` is filled in by [`run_analysis`]).
    pub fn into_parts(self) -> (A, EngineCounters) {
        (self.analysis, self.counters)
    }
}

impl<A: Analysis> Monitor for Engine<A> {
    fn task_create(&mut self, parent: TaskId, child: TaskId, kind: TaskKind, ief: FinishId) {
        self.consume(&Event::TaskCreate {
            parent,
            child,
            kind,
            ief,
        });
    }
    fn task_end(&mut self, task: TaskId) {
        self.consume(&Event::TaskEnd(task));
    }
    fn finish_start(&mut self, task: TaskId, finish: FinishId) {
        self.consume(&Event::FinishStart(task, finish));
    }
    fn finish_end(&mut self, task: TaskId, finish: FinishId, joined: &[TaskId]) {
        self.consume(&Event::FinishEnd(task, finish, joined.to_vec()));
    }
    fn get(&mut self, waiter: TaskId, awaited: TaskId) {
        self.consume(&Event::Get { waiter, awaited });
    }
    // Hot path: skip building an Event value for accesses.
    fn read(&mut self, task: TaskId, loc: LocId) {
        self.read_check(task, loc);
    }
    fn write(&mut self, task: TaskId, loc: LocId) {
        self.write_check(task, loc);
    }
    fn alloc(&mut self, base: LocId, n: u32, name: &str) {
        self.consume(&Event::Alloc(base, n, name.to_string()));
    }
}

/// A producer of instrumentation events for one analysis run.
///
/// The three ways events exist today — live serial execution, an
/// in-memory recording, and streamed trace decoding — are all sources;
/// [`run_analysis`] is generic over them. The trait is parameterized by
/// the analysis so the live source can name the concrete monitor type the
/// serial executor is instantiated with.
pub trait EventSource<A: Analysis> {
    /// Stream-level failure (decode error, damaged chunk, …).
    /// [`Infallible`] for live execution and in-memory recordings.
    type Error;

    /// Produces every event of the run, in serial depth-first order, into
    /// the engine.
    fn drive(self, engine: &mut Engine<A>) -> Result<(), Self::Error>;
}

/// Event-source constructors. See [`live`](source::live),
/// [`recorded`](source::recorded), and [`chunks`](source::chunks).
pub mod source {
    use super::*;

    /// Live serial depth-first execution of a DSL program (see
    /// [`live`]).
    pub struct Live<F>(F);

    /// Source that executes `f` under the serial depth-first executor,
    /// feeding the instrumentation stream straight into the analysis —
    /// no events are materialized for the access hot path.
    pub fn live<F>(f: F) -> Live<F> {
        Live(f)
    }

    impl<A, F> EventSource<A> for Live<F>
    where
        A: Analysis,
        F: FnOnce(&mut SerialCtx<Engine<A>>),
    {
        type Error = Infallible;
        fn drive(self, engine: &mut Engine<A>) -> Result<(), Infallible> {
            run_serial(engine, self.0);
            Ok(())
        }
    }

    /// An in-memory recorded event stream (see [`recorded`]).
    pub struct Recorded<'a>(&'a [Event]);

    /// Source that replays a recorded event slice (an
    /// [`crate::EventLog`]'s `events`, or anything decoded up front).
    pub fn recorded(events: &[Event]) -> Recorded<'_> {
        Recorded(events)
    }

    impl<A: Analysis> EventSource<A> for Recorded<'_> {
        type Error = Infallible;
        fn drive(self, engine: &mut Engine<A>) -> Result<(), Infallible> {
            // The whole recording is one in-memory slice: drive it through
            // the batched path so access runs dispatch as flat slices.
            engine.consume_slice(self.0);
            Ok(())
        }
    }

    /// A fallible stream of decoded event chunks (see [`chunks`]).
    pub struct Chunks<I>(I);

    /// Source over an iterator of whole decoded chunks (the trace
    /// reader's per-chunk event vectors, or slices of an event list).
    /// Each chunk is fed through the batched [`Engine::consume_slice`]
    /// path, so runs of consecutive accesses dispatch as flat
    /// [`AccessOp`] slices instead of one event at a time. The first chunk
    /// error aborts the run and is returned from [`run_analysis`].
    pub fn chunks<I, C, E>(it: I) -> Chunks<I>
    where
        I: Iterator<Item = Result<C, E>>,
        C: AsRef<[Event]>,
    {
        Chunks(it)
    }

    impl<A, I, C, E> EventSource<A> for Chunks<I>
    where
        A: Analysis,
        I: Iterator<Item = Result<C, E>>,
        C: AsRef<[Event]>,
    {
        type Error = E;
        fn drive(self, engine: &mut Engine<A>) -> Result<(), E> {
            for chunk in self.0 {
                engine.consume_slice(chunk?.as_ref());
            }
            Ok(())
        }
    }
}

/// Runs `analysis` over every event `source` produces and returns its
/// report plus the driver's counters. This is the *only* sanctioned way
/// to drive a detector: live runs, replays, and trace streams all come
/// through here, so they are guaranteed to observe identical splits of
/// the event stream (and identical global access indices).
pub fn run_analysis<A, S>(source: S, analysis: A) -> Result<Outcome<A::Report>, S::Error>
where
    A: Analysis,
    S: EventSource<A>,
{
    let t = Timer::start();
    let mut engine = Engine::new(analysis);
    source.drive(&mut engine)?;
    let (analysis, mut counters) = engine.into_parts();
    let report = analysis.finish();
    counters.wall_ms = t.elapsed_ms();
    Ok(Outcome { report, counters })
}

/// [`run_analysis`] over live serial execution — infallible, so the
/// outcome is returned directly.
pub fn run_analysis_live<A, F>(f: F, analysis: A) -> Outcome<A::Report>
where
    A: Analysis,
    F: FnOnce(&mut SerialCtx<Engine<A>>),
{
    match run_analysis(source::live(f), analysis) {
        Ok(outcome) => outcome,
        Err(never) => match never {},
    }
}

/// [`run_analysis`] over an in-memory recording — infallible.
pub fn run_analysis_recorded<A: Analysis>(
    events: &[Event],
    analysis: A,
) -> Outcome<A::Report> {
    match run_analysis(source::recorded(events), analysis) {
        Ok(outcome) => outcome,
        Err(never) => match never {},
    }
}

/// Adapter for [`Monitor`]-based analyses: forwards one control event to
/// the corresponding monitor callback. `Analysis::apply_control`
/// implementations over existing monitors are one call to this.
pub fn control_to_monitor<M: Monitor>(mon: &mut M, e: &Event) {
    debug_assert!(
        !matches!(e, Event::Read(..) | Event::Write(..)),
        "accesses must go through check_read_at/check_write_at"
    );
    monitor::apply(mon, e);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::TaskCtx;
    use crate::monitor::EventLog;

    /// Analysis that re-records the stream it sees (control + indexed
    /// accesses), for asserting the driver's routing.
    #[derive(Debug, Default)]
    struct Probe {
        control: Vec<Event>,
        checks: Vec<(bool, TaskId, LocId, u64)>,
    }

    impl Analysis for Probe {
        type Report = Self;
        fn apply_control(&mut self, e: &Event) {
            self.control.push(e.clone());
        }
        fn check_read_at(&mut self, task: TaskId, loc: LocId, index: u64) {
            self.checks.push((false, task, loc, index));
        }
        fn check_write_at(&mut self, task: TaskId, loc: LocId, index: u64) {
            self.checks.push((true, task, loc, index));
        }
        fn finish(self) -> Self {
            self
        }
    }

    fn demo_program(ctx: &mut SerialCtx<Engine<Probe>>) {
        let x = ctx.shared_var(0u64, "x");
        x.write(ctx, 1);
        let x2 = x.clone();
        let f = ctx.future(move |ctx| {
            let _ = x2.read(ctx);
        });
        ctx.get(&f);
        let _ = x.read(ctx);
    }

    #[test]
    fn live_splits_and_numbers_the_stream() {
        let out = run_analysis_live(demo_program, Probe::default());
        let probe = out.report;
        // alloc, task create/end, get, implicit finish end, main task end.
        assert!(probe
            .control
            .iter()
            .any(|e| matches!(e, Event::Alloc(_, 1, name) if name == "x")));
        assert!(probe
            .control
            .iter()
            .any(|e| matches!(e, Event::Get { .. })));
        // write(main), read(future), read(main) — indices are global.
        let kinds: Vec<(bool, u64)> = probe.checks.iter().map(|c| (c.0, c.3)).collect();
        assert_eq!(kinds, vec![(true, 0), (false, 1), (false, 2)]);
        assert_eq!(out.counters.reads, 2);
        assert_eq!(out.counters.writes, 1);
        assert_eq!(out.counters.checks(), 3);
        assert_eq!(
            out.counters.events,
            out.counters.control_events + out.counters.checks()
        );
        assert!(out.counters.wall_ms >= 0.0);
    }

    #[test]
    fn live_and_recorded_observe_identical_streams() {
        let mut log = EventLog::new();
        run_serial(&mut log, |ctx| {
            let x = ctx.shared_var(0u64, "x");
            x.write(ctx, 1);
            let x2 = x.clone();
            let f = ctx.future(move |ctx| {
                let _ = x2.read(ctx);
            });
            ctx.get(&f);
            let _ = x.read(ctx);
        });
        let live = run_analysis_live(demo_program, Probe::default());
        let replayed = run_analysis_recorded(&log.events, Probe::default());
        assert_eq!(live.report.control, replayed.report.control);
        assert_eq!(live.report.checks, replayed.report.checks);
        let (mut a, mut b) = (live.counters, replayed.counters);
        a.wall_ms = 0.0;
        b.wall_ms = 0.0;
        assert_eq!(a, b);
    }

    #[test]
    fn consume_slice_matches_per_event_consume() {
        let mut log = EventLog::new();
        run_serial(&mut log, |ctx| {
            let a = ctx.shared_array(4, 0u64, "a");
            a.write(ctx, 0, 1);
            a.write(ctx, 1, 2);
            let a2 = a.clone();
            let f = ctx.future(move |ctx| {
                let _ = a2.read(ctx, 0);
                let _ = a2.read(ctx, 1);
                a2.write(ctx, 2, 3);
            });
            ctx.get(&f);
            let _ = a.read(ctx, 2);
        });

        let mut per_event = Engine::new(Probe::default());
        for e in &log.events {
            per_event.consume(e);
        }
        let mut batched = Engine::new(Probe::default());
        batched.consume_slice(&log.events);

        let (pa, ca) = per_event.into_parts();
        let (pb, cb) = batched.into_parts();
        assert_eq!(pa.control, pb.control);
        assert_eq!(pa.checks, pb.checks, "same checks, same global indices");
        assert_eq!(ca, cb);
    }

    #[test]
    fn resumed_engine_continues_counts_and_numbering() {
        let mut log = EventLog::new();
        run_serial(&mut log, |ctx| {
            let a = ctx.shared_array(2, 0u64, "a");
            a.write(ctx, 0, 1);
            let a2 = a.clone();
            let f = ctx.future(move |ctx| a2.write(ctx, 1, 2));
            ctx.get(&f);
            let _ = a.read(ctx, 1);
        });
        let mut whole = Engine::new(Probe::default());
        whole.consume_slice(&log.events);

        let mid = log.events.len() / 2;
        let mut head = Engine::new(Probe::default());
        head.consume_slice(&log.events[..mid]);
        let mut tail =
            Engine::resumed(Probe::default(), head.counters().clone(), head.next_index());
        tail.consume_slice(&log.events[mid..]);

        let (w, wc) = whole.into_parts();
        let (t, tc) = tail.into_parts();
        assert_eq!(tc, wc, "counting continues from the head's counters");
        let split = w.checks.len() - t.checks.len();
        assert!(split > 0, "the head checked some accesses");
        assert_eq!(t.checks, w.checks[split..], "numbering continues");
    }

    #[test]
    fn chunks_source_matches_recorded_source() {
        let mut log = EventLog::new();
        run_serial(&mut log, |ctx| {
            let x = ctx.shared_var(0u64, "x");
            x.write(ctx, 1);
            let x2 = x.clone();
            let f = ctx.future(move |ctx| {
                let _ = x2.read(ctx);
            });
            ctx.get(&f);
            let _ = x.read(ctx);
        });

        // Split the recording into uneven chunks (including an empty one).
        let cuts = [0, 1, log.events.len() / 2, log.events.len()];
        let chunks: Vec<Result<Vec<Event>, &str>> = cuts
            .windows(2)
            .map(|w| Ok(log.events[w[0]..w[1]].to_vec()))
            .collect();
        let chunked = run_analysis(source::chunks(chunks.into_iter()), Probe::default()).unwrap();
        let recorded = run_analysis_recorded(&log.events, Probe::default());
        assert_eq!(chunked.report.control, recorded.report.control);
        assert_eq!(chunked.report.checks, recorded.report.checks);
        // Borrowed slices work the same as owned chunks.
        let slices = cuts
            .windows(2)
            .map(|w| Ok::<_, &str>(&log.events[w[0]..w[1]]));
        let sliced = run_analysis(source::chunks(slices), Probe::default()).unwrap();
        assert_eq!(sliced.report.checks, recorded.report.checks);

        // Errors propagate from the chunk stream.
        let bad: Vec<Result<Vec<Event>, &str>> = vec![Ok(Vec::new()), Err("damaged")];
        let err = run_analysis(source::chunks(bad.into_iter()), Probe::default()).unwrap_err();
        assert_eq!(err, "damaged");
    }

    #[test]
    fn counters_display_shows_cache_stats_only_when_present() {
        let c = EngineCounters {
            events: 3,
            ..EngineCounters::default()
        };
        assert!(!c.to_string().contains("cache"), "{c}");
        let cached = EngineCounters {
            cache_hits: 5,
            cache_misses: 2,
            ..c
        };
        assert!(
            cached.to_string().contains("cache: 5 hit(s), 2 miss(es)"),
            "{cached}"
        );
    }

    #[test]
    fn counters_display_is_informative() {
        let c = EngineCounters {
            events: 10,
            control_events: 4,
            reads: 4,
            writes: 2,
            wall_ms: 1.25,
            ..EngineCounters::default()
        };
        let s = c.to_string();
        assert!(s.contains("10 events"), "{s}");
        assert!(s.contains("6 checks"), "{s}");
        assert!(
            !s.contains("supervision"),
            "clean runs keep the legacy wording: {s}"
        );
        let supervised = EngineCounters {
            shard_restarts: 2,
            degradations: 1,
            resumed_from_checkpoint: 1,
            ..c
        };
        let s = supervised.to_string();
        assert!(
            s.contains("supervision: 2 restart(s), 1 degradation(s), 1 resume(s)"),
            "{s}"
        );
    }
}
