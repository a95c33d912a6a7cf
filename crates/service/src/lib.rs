//! Session layer and daemon for incremental trace analysis.
//!
//! This crate turns the one-shot "read a trace, run a backend, print a
//! verdict" pipeline into a long-lived service:
//!
//! * `session` — [`Session`] owns one daemon session's live analysis:
//!   it checks trace chunks as they arrive, emits a [`VerdictDelta`] per
//!   chunk, says when its checkpoint cadence is due, can suspend to an
//!   FCKP checkpoint and resume with skip-completed-chunk semantics, and
//!   finishes with its live engine's verdict. [`AnalysisOutcome`], the
//!   result shape (defined in `futrace-offline`, re-exported here), is
//!   shared with the one-shot `Analyze` builder in `futrace-corpus`,
//!   which runs its serial, sharded and supervised backends itself.
//! * `server` — `tracetool serve`: a std-only TCP daemon multiplexing
//!   N concurrent sessions over a fixed worker pool, with bounded-queue
//!   backpressure on accept, graceful drain (every in-flight session is
//!   suspended to its FCKP file), and `--resume` to pick those sessions
//!   back up.
//! * `client` — `tracetool client`: streams a trace file to a daemon
//!   chunk by chunk over the framed wire protocol
//!   (`futrace_util::wire::proto`) and returns the final verdict.
//!
//! The verdict text is rendered by [`render_verdict`], shared by the
//! one-shot CLI and the daemon so streamed and batch analysis stay
//! byte-identical — CI diffs them.

pub(crate) mod client;
pub(crate) mod server;
pub(crate) mod session;

pub use client::{shutdown, stream_trace, ClientError, ClientOptions, ClientOutcome};
pub use futrace_offline::AnalysisOutcome;
pub use server::{checkpoint_path, ServeOptions, ServeSummary, Server};
pub use session::{Session, SessionConfig, SessionError, VerdictDelta};

use futrace_detector::RaceReport;
use std::fmt::Write as _;

/// Renders the race verdict exactly as `tracetool` has always printed
/// it: a leading blank line, the race count with up to five samples, or
/// the clean-verdict line. No trailing newline — callers `println!` the
/// returned string, and the daemon ships it verbatim in `Final` frames,
/// so streamed and one-shot verdict sections diff byte-identical.
pub fn render_verdict(report: &RaceReport) -> String {
    let mut out = String::new();
    if report.has_races() {
        let _ = write!(
            out,
            "\n{} determinacy race(s); first {}:",
            report.total_detected,
            report.races.len().min(5)
        );
        for r in report.races.iter().take(5) {
            let _ = write!(out, "\n  {r}");
        }
    } else {
        let _ = write!(
            out,
            "\nno determinacy races: the traced program is determinate"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_verdict_text_is_stable() {
        let report = RaceReport::default();
        assert_eq!(
            render_verdict(&report),
            "\nno determinacy races: the traced program is determinate"
        );
    }
}
