//! The analysis-engine layer: one driver for every detector and every
//! event source.
//!
//! The paper's whole experimental argument rests on all analyses observing
//! *identical* serial depth-first executions. Before this module existed,
//! that guarantee was re-implemented ad hoc by every consumer: the bench
//! harness wired a [`Monitor`] by hand, `tracetool` had its own replay
//! loop, and each test suite drove detectors with bespoke code. The engine
//! centralizes the contract in one trait and two entry points:
//!
//! * [`Analysis`] — a [`Monitor`] that also produces a report. Its
//!   provided methods split the stream the way offline sharding needs:
//!   **control events** (task create/end, finish start/end, `get`, alloc)
//!   mutate analysis-global state, while **access checks** are addressed
//!   to a single location and carry an explicit global access index. A
//!   detector writes its `Monitor` callbacks once and its report once, in
//!   [`Analysis::finish`]; analyses whose checks really are
//!   location-independent additionally implement [`LocRoutable`].
//! * [`run_analysis`] drives an analysis over any stream of event chunks
//!   (an in-memory recording via [`source::recorded`], or the decoded
//!   chunks of a framed trace, strict or lenient), and
//!   [`run_analysis_live`] over live serial execution.
//!
//! The driver also does the bookkeeping every consumer used to duplicate:
//! events consumed, checks performed, and wall time are accumulated in
//! [`EngineCounters`] and returned with the analysis report in an
//! [`Outcome`].
//!
//! ```
//! use futrace_runtime::engine::{run_analysis, run_analysis_live, source, Analysis};
//! use futrace_runtime::{run_serial, EventLog, Monitor};
//! use futrace_util::ids::{LocId, TaskId};
//!
//! /// Toy analysis: counts write checks.
//! #[derive(Default)]
//! struct WriteCounter(u64);
//! impl Monitor for WriteCounter {}
//! impl Analysis for WriteCounter {
//!     type Report = u64;
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
//! let live = run_analysis_live(program, WriteCounter::default());
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

/// A trace analysis: a [`Monitor`] over the instrumentation event stream
/// that produces a report when the stream ends.
///
/// The contract mirrors the serial depth-first execution the paper
/// requires (§4.1): `apply_control` receives every non-access event in
/// order, and each `Read`/`Write` event becomes exactly one
/// `check_read_at` / `check_write_at` call carrying the access's index in
/// the *global* access stream. The index is assigned by the driver (or by
/// the sharded router, from one pass) so reports produced on different
/// backends can be aligned and merged deterministically.
///
/// All three are provided: they forward to the `Monitor` callbacks, the
/// checks ignoring the index, so an analysis implements `Monitor` and
/// [`Analysis::finish`] only. An analysis that orders its reports by the
/// global index (the DTRG detector) overrides the two checks.
pub trait Analysis: Monitor {
    /// What the analysis produces when the stream ends.
    type Report;

    /// Applies one control event (never `Read`/`Write`): control events
    /// (task create/end, finish start/end, get, alloc) update the
    /// analysis-global state but perform no shadow-memory *checks*, which
    /// go through [`Analysis::check_read_at`] /
    /// [`Analysis::check_write_at`] instead.
    ///
    /// This split is what makes offline sharding possible: control events
    /// are cheap and can be broadcast to every shard (each maintains an
    /// identical replica of the control-driven state), while the hot
    /// access checks are independent per location and can be partitioned.
    fn apply_control(&mut self, e: &Event) {
        debug_assert!(
            !matches!(e, Event::Read(..) | Event::Write(..)),
            "accesses must go through check_read_at/check_write_at"
        );
        monitor::apply(self, e);
    }

    /// Checks a shared-memory read by `task` at `loc`; `index` is the
    /// access's position in the global access stream.
    fn check_read_at(&mut self, task: TaskId, loc: LocId, index: u64) {
        let _ = index;
        self.read(task, loc);
    }

    /// Checks a shared-memory write by `task` at `loc`.
    fn check_write_at(&mut self, task: TaskId, loc: LocId, index: u64) {
        let _ = index;
        self.write(task, loc);
    }

    /// Consumes the analysis and produces its final report (runs any
    /// deferred work, e.g. the closure detector's whole analysis).
    fn finish(self) -> Self::Report;
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
/// can drive it directly (the live source), and exposes `Engine::consume`
/// for replayed event streams — both paths are guaranteed to split the
/// stream identically.
pub struct Engine<A: Analysis> {
    analysis: A,
    counters: EngineCounters,
    next_index: u64,
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

    /// Feeds a slice of events, in order, through `Engine::consume`.
    pub fn consume_slice(&mut self, events: &[Event]) {
        for e in events {
            self.consume(e);
        }
    }

    /// Feeds one event: control events go to
    /// [`Analysis::apply_control`], accesses become numbered checks.
    pub(crate) fn consume(&mut self, e: &Event) {
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

    /// Finishes the analysis; `t` timed the whole run.
    fn into_outcome(self, t: Timer) -> Outcome<A::Report> {
        let (analysis, mut counters) = self.into_parts();
        let report = analysis.finish();
        counters.wall_ms = t.elapsed_ms();
        Outcome { report, counters }
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

/// Event streams for [`run_analysis`] beyond a plain chunk iterator.
pub mod source {
    use crate::monitor::Event;
    use std::convert::Infallible;

    /// The one-chunk stream of an in-memory recording (an
    /// [`crate::EventLog`]'s `events`, or anything decoded up front); it
    /// cannot fail.
    pub fn recorded(events: &[Event]) -> std::iter::Once<Result<&[Event], Infallible>> {
        std::iter::once(Ok(events))
    }
}

/// Runs `analysis` over every event of `chunks`, in order, and returns its
/// report plus the driver's counters. A chunk is any event slice: the
/// trace reader's decoded per-chunk vectors, slices of an event list, or
/// a whole recording ([`source::recorded`]). The first chunk error aborts
/// the run and is returned.
///
/// This and [`run_analysis_live`] are the *only* sanctioned ways to drive
/// a detector: live runs, replays, and trace streams all come through the
/// same [`Engine`], so they are guaranteed to observe identical splits of
/// the event stream (and identical global access indices).
pub fn run_analysis<A, I, C, E>(chunks: I, analysis: A) -> Result<Outcome<A::Report>, E>
where
    A: Analysis,
    I: IntoIterator<Item = Result<C, E>>,
    C: AsRef<[Event]>,
{
    let t = Timer::start();
    let mut engine = Engine::new(analysis);
    for chunk in chunks {
        engine.consume_slice(chunk?.as_ref());
    }
    Ok(engine.into_outcome(t))
}

/// Runs `analysis` over live serial execution of `f`, feeding the
/// instrumentation stream straight into the engine — no events are
/// materialized for the access hot path.
pub fn run_analysis_live<A, F>(f: F, analysis: A) -> Outcome<A::Report>
where
    A: Analysis,
    F: FnOnce(&mut SerialCtx<Engine<A>>),
{
    let t = Timer::start();
    let mut engine = Engine::new(analysis);
    run_serial(&mut engine, f);
    engine.into_outcome(t)
}

/// [`run_analysis`] over an in-memory recording — infallible.
pub fn run_analysis_recorded<A: Analysis>(events: &[Event], analysis: A) -> Outcome<A::Report> {
    match run_analysis(source::recorded(events), analysis) {
        Ok(outcome) => outcome,
        Err(never) => match never {},
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::TaskCtx;
    use crate::monitor::EventLog;

    /// Analysis that re-records the stream it sees (control + indexed
    /// accesses), for asserting the driver's routing. Control events reach
    /// it through the provided `apply_control` and its `Monitor`
    /// callbacks, which record them as [`EventLog`] does.
    #[derive(Debug, Default)]
    struct Probe {
        control: Vec<Event>,
        checks: Vec<(bool, TaskId, LocId, u64)>,
    }

    impl Monitor for Probe {
        fn task_create(&mut self, parent: TaskId, child: TaskId, kind: TaskKind, ief: FinishId) {
            self.control.push(Event::TaskCreate {
                parent,
                child,
                kind,
                ief,
            });
        }
        fn task_end(&mut self, task: TaskId) {
            self.control.push(Event::TaskEnd(task));
        }
        fn finish_start(&mut self, task: TaskId, finish: FinishId) {
            self.control.push(Event::FinishStart(task, finish));
        }
        fn finish_end(&mut self, task: TaskId, finish: FinishId, joined: &[TaskId]) {
            self.control
                .push(Event::FinishEnd(task, finish, joined.to_vec()));
        }
        fn get(&mut self, waiter: TaskId, awaited: TaskId) {
            self.control.push(Event::Get { waiter, awaited });
        }
        fn alloc(&mut self, base: LocId, n: u32, name: &str) {
            self.control.push(Event::Alloc(base, n, name.to_string()));
        }
    }

    impl Analysis for Probe {
        type Report = Self;
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
        assert!(probe.control.iter().any(|e| matches!(e, Event::Get { .. })));
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
        let chunked = run_analysis(chunks, Probe::default()).unwrap();
        let recorded = run_analysis_recorded(&log.events, Probe::default());
        assert_eq!(chunked.report.control, recorded.report.control);
        assert_eq!(chunked.report.checks, recorded.report.checks);
        // Borrowed slices work the same as owned chunks.
        let slices = cuts
            .windows(2)
            .map(|w| Ok::<_, &str>(&log.events[w[0]..w[1]]));
        let sliced = run_analysis(slices, Probe::default()).unwrap();
        assert_eq!(sliced.report.checks, recorded.report.checks);

        // Errors propagate from the chunk stream.
        let bad: Vec<Result<Vec<Event>, &str>> = vec![Ok(Vec::new()), Err("damaged")];
        let err = run_analysis(bad, Probe::default()).unwrap_err();
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
    }
}
