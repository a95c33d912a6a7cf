//! # futrace — determinacy race detection for task parallelism with futures
//!
//! Umbrella crate re-exporting the whole `futrace` workspace: a Rust
//! reproduction of *"Dynamic Determinacy Race Detection for Task Parallelism
//! with Futures"* (Surendran & Sarkar, SPAA 2016).
//!
//! Quick tour:
//!
//! * [`runtime`] — the async/finish/future programming model (serial
//!   depth-first executor with instrumentation, plus a parallel
//!   work-stealing executor), and the analysis engine
//!   ([`runtime::engine`]): every detector implements one
//!   [`runtime::engine::Analysis`] trait and runs live, from replayed
//!   traces, or sharded through the same `run_analysis` driver.
//! * [`detector`] — the paper's contribution: the dynamic task reachability
//!   graph (DTRG) on-the-fly race detector.
//! * [`compgraph`] — step-level computation graphs and the ground-truth
//!   reachability oracle.
//! * [`baselines`] — SP-bags, ESP-bags, vector-clock, and transitive-closure
//!   detectors for comparison.
//! * [`benchsuite`] — the Table-2 benchmarks (Series, Crypt, Jacobi,
//!   Smith-Waterman, Strassen) and random-program generators.
//! * [`offline`] — framed streaming trace format (v2) and the sharded
//!   offline detection pipeline (serial-identical verdicts on N workers).
//! * [`corpus`] — fleet-scale batch analysis: DAG-scheduled corpus runs
//!   over directories of traces, with resume manifests and an aggregated
//!   agreement report (plus the named-detector registry and the
//!   [`Analyze`] builder, re-exported here).
//! * [`service`] — the session layer: live chunk-fed analyses with
//!   suspend/resume, the `tracetool serve` TCP daemon, and its streaming
//!   client.
//! * [`util`] — union-find, interval labels, hashing, stats.
//!
//! ## Two driving surfaces
//!
//! Everything public funnels through two entry points:
//!
//! * [`Analyze`] — the builder covering every *source* (DSL program,
//!   instrumented parallel execution, trace file, trace blob, event
//!   slice) and every *backend* (serial, sharded, supervised, online
//!   parallel), always returning one [`AnalysisOutcome`].
//! * [`runtime::Monitor`] — the trait a custom analysis implements to
//!   consume the serial-elision event stream, driven either by a serial
//!   execution ([`runtime::run_serial`]) or, while the program runs on
//!   the work-stealing pool, by the canonical walker
//!   ([`runtime::online::run_online`]).
//!
//! ```
//! use futrace::prelude::*;
//!
//! // A racy program: two async tasks write the same shared cell without
//! // synchronization.
//! let outcome = Analyze::program(|ctx| {
//!     let x = ctx.shared_var(0i64, "x");
//!     ctx.finish(|ctx| {
//!         let xa = x.clone();
//!         ctx.async_task(move |ctx| xa.write(ctx, 1));
//!         let xb = x.clone();
//!         ctx.async_task(move |ctx| xb.write(ctx, 2));
//!     });
//! })
//! .run()
//! .unwrap();
//! assert!(outcome.has_races());
//!
//! // The same program, detected online while it executes on 2 worker
//! // threads: byte-identical verdict, plus pipeline telemetry.
//! let online = Analyze::program_parallel(2, |ctx| {
//!     let x = ctx.shared_var(0i64, "x");
//!     ctx.finish(|ctx| {
//!         let xa = x.clone();
//!         ctx.async_task(move |ctx| xa.write(ctx, 1));
//!         let xb = x.clone();
//!         ctx.async_task(move |ctx| xb.write(ctx, 2));
//!     });
//! })
//! .run()
//! .unwrap();
//! assert_eq!(online.races.races, outcome.races.races);
//! assert!(online.online.is_some());
//! ```

pub mod analyze;

pub use analyze::{AnalysisOutcome, Analyze, AnalyzeError, DetectorOutcome, DetectorRun};

pub use futrace_baselines as baselines;
pub use futrace_benchsuite as benchsuite;
pub use futrace_compgraph as compgraph;
pub use futrace_corpus as corpus;
pub use futrace_detector as detector;
pub use futrace_offline as offline;
pub use futrace_runtime as runtime;
pub use futrace_service as service;
pub use futrace_util as util;

/// Convenience prelude for examples and downstream users.
///
/// The two driving surfaces are [`Analyze`] (every source, every
/// backend, one outcome shape) and [`runtime::Monitor`] (custom analyses
/// over the serial-elision stream, driven by [`runtime::run_serial`] or
/// [`runtime::online::run_online`]). For one detector run over a program,
/// `Analyze::program(f).run()` returns races, statistics and footprint
/// together.
pub mod prelude {
    pub use crate::analyze::{AnalysisOutcome, Analyze, AnalyzeError};
    pub use futrace_detector::{
        DetectorConfig, DtrgReport, MemoryFootprint, RaceDetector, RaceReport,
    };
    pub use futrace_runtime::accumulator::Accumulator;
    pub use futrace_runtime::engine::{
        run_analysis, run_analysis_live, run_analysis_recorded, Analysis, Engine, EngineCounters,
    };
    pub use futrace_runtime::memory::{SharedArray, SharedVar};
    pub use futrace_runtime::monitor::Monitor;
    pub use futrace_runtime::online::{run_online, OnlineOptions, OnlineRun, OnlineStats};
    pub use futrace_runtime::serial::{run_serial, FutureHandle, SerialCtx};
    pub use futrace_runtime::{run_parallel, run_parallel_seeded, ParCtx, TaskCtx};
    pub use futrace_util::ids::{LocId, StepId, TaskId};
}
