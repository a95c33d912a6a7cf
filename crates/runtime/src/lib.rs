//! Task-parallel programming model with `async`, `finish`, and futures.
//!
//! This crate is the substrate the paper's race detector runs on: an
//! embedded Rust DSL providing the Habanero-Java–style constructs the paper
//! targets (§2):
//!
//! * `async { S }` — spawn a child task ([`api::TaskCtx::async_task`]),
//! * `finish { S }` — wait for all tasks transitively spawned in `S`
//!   ([`api::TaskCtx::finish`]),
//! * `future<T> f = async<T> Expr` / `f.get()` — first-class task handles
//!   with point-to-point joins ([`api::TaskCtx::future`] /
//!   [`api::TaskCtx::get`]).
//!
//! Two executors implement the model:
//!
//! * [`serial`] — **serial depth-first execution** (the serial-elision
//!   order): every spawned body runs to completion at its spawn point. This
//!   is the execution order the paper's detector requires (§4.1) and the
//!   one on which every instrumentation [`monitor::Monitor`] is driven.
//! * [`parallel`] — a help-first work-stealing pool with blocking futures
//!   and finish counters, used to demonstrate the paper's determinism
//!   property (race-free ⇒ same answer as the serial elision) and the
//!   Appendix-A deadlock scenario, which [`parallel`] detects via global
//!   stall detection. Under [`online`]'s driver the same pool records
//!   per-task buffers from which a canonical walker reconstructs the
//!   serial-elision stream *while the program runs* and drives one
//!   [`monitor::Monitor`] with it, as the serial executor does
//!   ([`labels`] carries the DePa-style fork-path labels that certify
//!   the walk order).
//!
//! Shared memory ([`memory::SharedVar`], [`memory::SharedArray`]) routes
//! every read and write through the active executor so instrumentation sees
//! the full access stream.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod accumulator;
pub mod api;
pub mod engine;
pub mod labels;
pub mod memory;
pub mod monitor;
pub mod online;
pub mod parallel;
pub mod serial;
pub mod sync;
pub mod trace;

pub use api::TaskCtx;
pub use engine::{
    run_analysis, run_analysis_live, run_analysis_recorded, Analysis, Checkpointable, Engine,
    EngineCounters, EventSource, LocRoutable, StateError,
};
pub use labels::TaskLabel;
pub use memory::{SharedArray, SharedVar};
pub use monitor::{replay, Event, EventLog, Monitor, NullMonitor, TaskKind};
pub use online::{run_online, OnlineError, OnlineOptions, OnlineRun, OnlineStats};
pub use parallel::{run_parallel, run_parallel_seeded, DeadlockError, ParCtx, ParHandle};
pub use serial::{run_serial, FutureHandle, SerialCtx};
