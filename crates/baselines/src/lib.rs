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
//! Every baseline is a [`futrace_runtime::engine::Analysis`]: it
//! implements the `Monitor` callbacks and builds its report in `finish`,
//! so harness code runs them interchangeably through the engine
//! (`run_analysis_live`, `run_analysis`) and reads the verdict from the
//! report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod closure;
pub(crate) mod dpst;
pub(crate) mod espbags;
pub(crate) mod offsetspan;
pub(crate) mod spbags;
pub mod vectorclock;

pub use closure::{ClosureDetector, ClosureReport};
pub use dpst::Spd3;
pub use espbags::EspBags;
pub use offsetspan::OffsetSpan;
pub use spbags::SpBags;
pub use vectorclock::VectorClockDetector;

/// Summary report of a baseline run
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
    /// The detector's short table name ("sp-bags", "esp-bags",
    /// "offset-span", "spd3-dpst", "vector-clock").
    pub name: &'static str,
    /// Race checks that failed.
    pub races: u64,
    /// `get()` edges the detector cannot model and dropped (0 for the
    /// detectors that model futures); nonzero means the verdict may
    /// over-approximate.
    pub ignored_gets: u64,
    /// Human-readable, algorithm-specific observations.
    pub notes: Vec<String>,
}

impl BaselineReport {
    /// The report of detector `name`: `notes`, then the dropped-`get()`
    /// note when `ignored_gets` is nonzero, worded alike for every
    /// detector.
    pub(crate) fn new(
        name: &'static str,
        races: u64,
        ignored_gets: u64,
        mut notes: Vec<String>,
    ) -> Self {
        if ignored_gets > 0 {
            notes.push(format!(
                "ignored {ignored_gets} get() edge(s): verdict may over-approximate on futures"
            ));
        }
        BaselineReport {
            name,
            races,
            ignored_gets,
            notes,
        }
    }

    /// True iff any race check failed.
    pub fn has_races(&self) -> bool {
        self.races > 0
    }
}

#[cfg(test)]
mod tests {
    use futrace_runtime::engine::{run_analysis_live, Analysis, Engine};
    use futrace_runtime::SerialCtx;

    /// Runs `f` live under `det` and returns its report.
    pub(crate) fn run<A: Analysis>(det: A, f: impl FnOnce(&mut SerialCtx<Engine<A>>)) -> A::Report {
        run_analysis_live(f, det).report
    }
}
