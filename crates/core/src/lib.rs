//! # futrace-detector — determinacy race detection for futures
//!
//! The core contribution of *"Dynamic Determinacy Race Detection for Task
//! Parallelism with Futures"* (Surendran & Sarkar, SPAA 2016): a sound and
//! precise on-the-fly determinacy race detector for programs built from
//! `async`, `finish`, and `future` constructs — the first race detector
//! supporting the **non-strict** computation graphs futures create
//! (multiple joins per task, joins to non-ancestors).
//!
//! The detector runs over a **serial depth-first execution** of the program
//! (provided by [`futrace_runtime::run_serial`]) and maintains:
//!
//! * a [`dtrg::Dtrg`] — the *dynamic task reachability graph*: disjoint
//!   sets over tree joins, spawn-tree interval labels, non-tree predecessor
//!   lists, and lowest-significant-ancestor pointers (§4.1, Algorithms
//!   1–7, 10);
//! * a [`shadow::ShadowMemory`] — per-location last writer and parallel
//!   reader set (§4.2, Algorithms 8–9).
//!
//! One detector run analyzes *all* executions for the given input: a race
//! is reported iff one exists (Theorem 2, first-race semantics), and
//! race-freedom certifies the program determinate and deadlock-free for
//! that input (Appendix A).
//!
//! ```
//! use futrace_detector::RaceDetector;
//! use futrace_runtime::engine::run_analysis_live;
//! use futrace_runtime::TaskCtx;
//!
//! let out = run_analysis_live(
//!     |ctx| {
//!         let x = ctx.shared_var(0u64, "x");
//!         let x2 = x.clone();
//!         let f = ctx.future(move |ctx| x2.write(ctx, 42));
//!         ctx.get(&f); // join before reading: race-free
//!         assert_eq!(x.read(ctx), 42);
//!     },
//!     RaceDetector::new(),
//! );
//! assert!(!out.report.report.has_races());
//! ```
//!
//! Downstream users should prefer the `futrace::Analyze` builder in the
//! umbrella crate, which fronts this detector and the offline backends
//! with one entry point.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod detector;
pub mod dot;
pub mod dtrg;
pub mod report;
pub mod shadow;
pub mod stats;

pub use detector::{DetectorConfig, DtrgReport, MemoryFootprint, RaceDetector};
pub use dtrg::{Dtrg, DtrgCounters, SetData};
pub use report::{AccessKind, Race, RaceReport};
pub use shadow::{Readers, ShadowCell, ShadowMemory};
pub use stats::DetectorStats;
