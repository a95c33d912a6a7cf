//! Baseline determinacy race detectors.
//!
//! The paper positions the DTRG detector against three families of prior
//! work (§1, §6); this crate implements one representative of each, all as
//! [`futrace_runtime::Monitor`]s over the same serial depth-first event
//! stream, so they are directly comparable in the bench harness:
//!
//! * [`spbags::SpBags`] — Feng & Leiserson's SP-bags for Cilk's
//!   **spawn-sync** (fully strict) model.
//! * [`espbags::EspBags`] — Raman et al.'s ESP-bags extension to
//!   **async-finish** (terminally strict) programs; the algorithm the
//!   paper's slowdowns are compared against. ESP-bags *does not model
//!   futures*: `get()` edges are invisible to it, so it reports false
//!   races on future-synchronized programs — the precise gap the paper
//!   fills (demonstrated by tests here).
//! * [`offsetspan::OffsetSpan`] — Mellor-Crummey's Offset-Span labeling
//!   for nested fork-join, adapted to async-finish via
//!   continuation-as-branch emulation; labels grow with nesting, the cost
//!   the DTRG's constant-size interval labels avoid.
//! * [`dpst::Spd3`] — Raman et al.'s SPD3 query over the Dynamic Program
//!   Structure Tree (LCA-based may-happen-in-parallel for async-finish),
//!   ported to run sequentially.
//! * [`vectorclock::VectorClockDetector`] — the classic vector-clock
//!   happens-before detector, precise for arbitrary graphs but with
//!   per-task clocks whose size grows with the number of tasks (the
//!   "impractical for dynamic task parallelism" contender).
//! * [`closure::ClosureDetector`] — brute force: build the whole step
//!   graph, take the transitive closure, check every access pair
//!   (Definition 3 literally). Exact but Θ(steps²) space.
//!
//! Every baseline implements [`BaselineDetector`] so harness code can run
//! them interchangeably.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod closure;
pub(crate) mod dpst;
pub(crate) mod offsetspan;
pub(crate) mod espbags;
pub(crate) mod spbags;
pub mod vectorclock;

use futrace_runtime::Monitor;

pub use closure::{ClosureDetector, ClosureReport};
pub use dpst::Spd3;
pub use offsetspan::OffsetSpan;
pub use espbags::EspBags;
pub use spbags::SpBags;
pub use vectorclock::VectorClockDetector;

/// Uniform interface over the baseline detectors for benches and tests.
pub trait BaselineDetector: Monitor {
    /// Short name for tables ("sp-bags", "esp-bags", "vector-clock",
    /// "closure").
    fn name(&self) -> &'static str;

    /// Called once after the monitored run completes (the closure detector
    /// does its whole analysis here; others are already final).
    fn finalize(&mut self) {}

    /// Number of race checks that failed (after `finalize`).
    fn race_count(&self) -> u64;

    /// True iff any race was detected (after `finalize`).
    fn has_races(&self) -> bool {
        self.race_count() > 0
    }
}

/// Runs `f` under the serial executor with baseline `det`, finalizing it.
pub fn run_baseline<D: BaselineDetector, R>(
    det: &mut D,
    f: impl FnOnce(&mut futrace_runtime::SerialCtx<D>) -> R,
) -> R {
    let r = futrace_runtime::run_serial(det, f);
    det.finalize();
    r
}

/// Summary report of a baseline run under the engine layer
/// ([`futrace_runtime::engine::Analysis::finish`]'s output for every
/// baseline except the closure detector, whose report also carries the
/// computation graph).
///
/// Baselines don't produce the DTRG detector's structured per-race
/// records; what they have in common is a race count and
/// algorithm-specific cost/approximation notes (ignored `get()`s, peak
/// clock width, peak label length), which comparisons print verbatim.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BaselineReport {
    /// The detector's short table name (same as
    /// [`BaselineDetector::name`]).
    pub name: &'static str,
    /// Race checks that failed.
    pub races: u64,
    /// Human-readable, algorithm-specific observations.
    pub notes: Vec<String>,
}

impl BaselineReport {
    /// True iff any race check failed.
    pub fn has_races(&self) -> bool {
        self.races > 0
    }
}
