//! Differential fuzzing of the detector zoo with counterexample
//! minimization.
//!
//! `tracetool fuzz` drives this module: generate seeded random
//! async/finish/future programs ([`futrace_benchsuite::randomprog`],
//! future-heavy presets), record each one, and replay the trace through
//! every detector in [`crate::detectors::DETECTOR_NAMES`] — plus the
//! sharded pipeline at 1/2/4 workers for the loc-routable detectors —
//! comparing every verdict against the serial DTRG reference.
//!
//! Not every disagreement is a bug. Each baseline carries a documented
//! unsoundness envelope (the same facts `AnyReport::notes` prints):
//!
//! - **dtrg, vc, closure** are exact — any divergence among them is a
//!   detector bug.
//! - **espbags, spd3** are sound for pure async-finish programs but may
//!   over-report once futures appear; over-reporting on a future-*free*
//!   program is a bug.
//! - **spbags, offsetspan** run in lenient mode (out-of-model edges
//!   dropped), so they may over-report on any program here.
//! - **Under-reporting** — missing a race the reference finds — is a bug
//!   for every detector, always.
//! - **Sharded vs serial** runs of the same detector must agree exactly.
//!
//! Disagreements inside the envelope are tallied as *expected*; anything
//! outside it fails the property, and the [`propcheck`] shrinker distills
//! the offending program before [`run`] returns it as a
//! [`Counterexample`] complete with a replayable `.ftrc` encoding of its
//! trace.

use crate::detectors;
use futrace_benchsuite::randomprog::{self, GenParams, Program};
use futrace_offline::{event_chunks, StreamWriter, SupervisedOutcome, SupervisorPlan};
use futrace_runtime::{replay, run_serial, EventLog};
use futrace_util::propcheck::{self, Config, Strategy};
use futrace_util::rng::Rng;
use std::cell::{Cell, RefCell};
use std::convert::Infallible;

/// Counts accumulated over a fuzz run (and, via [`Tally::absorb`], over
/// the batches of a time-boxed campaign).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Programs that passed the differential check.
    pub programs: u64,
    /// Individual detector executions (serial and sharded).
    pub detector_runs: u64,
    /// Verdict divergences inside a baseline's documented unsoundness
    /// envelope (e.g. SP-bags over-reporting under futures).
    pub expected_disagreements: u64,
}

impl Tally {
    /// Adds another tally's counts into this one.
    pub fn absorb(&mut self, other: &Tally) {
        self.programs += other.programs;
        self.detector_runs += other.detector_runs;
        self.expected_disagreements += other.expected_disagreements;
    }
}

/// One fuzz batch's configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuzzOptions {
    /// Programs to generate and check.
    pub programs: u32,
    /// Base seed; each case derives its own seed from it.
    pub seed: u64,
    /// Generator preset (`GenParams::nontree_heavy()` biases toward the
    /// non-tree join structure the exact detectors exist for).
    pub params: GenParams,
    /// Shrink budget once a case fails.
    pub max_shrink_steps: u32,
    /// Fault injection for testing the harness itself: the named
    /// detector's verdict is inverted everywhere it is consulted, which
    /// must surface as an unexpected disagreement.
    pub broken_detector: Option<String>,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            programs: 256,
            seed: 7,
            params: GenParams::nontree_heavy(),
            max_shrink_steps: 2048,
            broken_detector: None,
        }
    }
}

/// A minimized program on which some detector disagreed outside its
/// unsoundness envelope.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// Case seed — `FUTRACE_PROPCHECK_SEED=<seed>` replays it.
    pub seed: u64,
    /// Zero-based index of the failing case in its batch.
    pub case: u32,
    /// Shrink candidates evaluated while minimizing.
    pub shrink_steps: u32,
    /// The minimal failing program.
    pub program: Program,
    /// What disagreed and why it is a bug.
    pub detail: String,
    /// The program's recorded trace, framed-v2 encoded — ready to write
    /// to an `.ftrc` file and feed back through `tracetool compare`.
    pub trace: Vec<u8>,
}

/// Result of one fuzz batch.
#[derive(Clone, Debug)]
pub struct FuzzReport {
    /// Counts over the batch.
    pub tally: Tally,
    /// The first unexpected disagreement, minimized — `None` on a clean
    /// sweep.
    pub counterexample: Option<Counterexample>,
}

/// How far a detector's verdict may stray from the exact reference.
enum Expectation {
    /// Must match exactly (dtrg, vc, closure).
    Exact,
    /// May over-report, but only on programs that create futures
    /// (espbags, spd3).
    OverReportOnFutures,
    /// May over-report on any program (spbags, offsetspan, which run
    /// lenient here).
    OverReportAlways,
}

fn expectation(name: &str) -> Expectation {
    match name {
        "dtrg" | "vc" | "closure" => Expectation::Exact,
        "espbags" | "spd3" => Expectation::OverReportOnFutures,
        "spbags" | "offsetspan" => Expectation::OverReportAlways,
        other => panic!("unknown detector {other:?}"),
    }
}

/// The verdict as the harness sees it, with the deliberate fault applied.
fn observed(broken: Option<&str>, name: &str, racy: bool) -> bool {
    if broken == Some(name) {
        !racy
    } else {
        racy
    }
}

/// Records `prog` under the serial executor.
fn record(prog: &Program) -> EventLog {
    let mut log = EventLog::new();
    run_serial(&mut log, |ctx| {
        randomprog::execute(ctx, prog);
    });
    log
}

/// Encodes a recorded log as a framed-v2 trace blob.
fn encode_trace(log: &EventLog) -> Vec<u8> {
    let mut w = StreamWriter::with_chunk_bytes(Vec::new(), 4096)
        .expect("writing to a Vec cannot fail");
    replay(&log.events, &mut w);
    let (blob, _stats) = w.finish().expect("writing to a Vec cannot fail");
    blob
}

/// Runs one program through the full detector matrix. `Ok` means every
/// verdict was either identical to the reference or inside the detector's
/// unsoundness envelope; `Err` carries the description of the first
/// disagreement outside it.
fn check_program(prog: &Program, broken: Option<&str>, tally: &mut Tally) -> Result<(), String> {
    let log = record(prog);
    let has_futures = randomprog::stmt_census(&prog.body)[4] > 0;

    let reference = detectors::run_on_recorded("dtrg", &log.events);
    tally.detector_runs += 1;
    let ref_racy = observed(broken, "dtrg", reference.report.has_races());

    let mut serial = Vec::new();
    for &name in detectors::DETECTOR_NAMES {
        let racy = if name == "dtrg" {
            ref_racy
        } else {
            let out = detectors::run_on_recorded(name, &log.events);
            tally.detector_runs += 1;
            observed(broken, name, out.report.has_races())
        };
        serial.push((name, racy));
        if racy == ref_racy {
            continue;
        }
        if ref_racy && !racy {
            return Err(format!(
                "{name} under-reports: the dtrg reference finds a race but {name} reports \
                 race-free — under-reporting is a bug for every detector"
            ));
        }
        match expectation(name) {
            Expectation::Exact => {
                return Err(format!(
                    "{name} diverges from the dtrg reference: dtrg reports race-free, {name} \
                     reports a race — {name} is an exact detector, any divergence is a bug"
                ));
            }
            Expectation::OverReportOnFutures if !has_futures => {
                return Err(format!(
                    "{name} over-reports on a future-free program: dtrg reports race-free, \
                     {name} reports a race — {name} is sound for pure async-finish programs"
                ));
            }
            Expectation::OverReportOnFutures | Expectation::OverReportAlways => {
                tally.expected_disagreements += 1;
            }
        }
    }

    // Sharding must be verdict-preserving: compare each loc-routable
    // detector's sharded runs against its own serial verdict.
    for &(name, serial_racy) in serial.iter().filter(|(n, _)| detectors::is_shardable(n)) {
        for shards in [1usize, 2, 4] {
            let chunks = || event_chunks::<Infallible>(&log.events);
            let plan = SupervisorPlan::for_shards(Some(shards), false);
            let Ok(SupervisedOutcome::Completed { report, .. }) =
                detectors::run_supervised_on_events(name, chunks, &plan, None)
            else {
                unreachable!("an in-memory stream without a resume always completes");
            };
            tally.detector_runs += 1;
            let racy = observed(broken, name, report.has_races());
            if racy != serial_racy {
                return Err(format!(
                    "{name} sharded over {shards} worker(s) diverges from its serial verdict \
                     (serial: {}, sharded: {}) — sharding must never change the verdict",
                    if serial_racy { "racy" } else { "race-free" },
                    if racy { "racy" } else { "race-free" },
                ));
            }
        }
    }

    tally.programs += 1;
    Ok(())
}

struct ProgStrategy {
    params: GenParams,
}

impl Strategy for ProgStrategy {
    type Repr = Program;
    type Value = Program;

    fn generate(&self, rng: &mut Rng) -> Program {
        randomprog::generate_with(rng, &self.params)
    }

    fn realize(&self, repr: &Program) -> Program {
        repr.clone()
    }

    fn shrink(&self, repr: &Program) -> Vec<Program> {
        randomprog::shrink(repr)
    }
}

/// Runs one fuzz batch: `opts.programs` random programs through the full
/// detector matrix, shrinking the first unexpected disagreement.
pub fn run(opts: &FuzzOptions) -> FuzzReport {
    let strategy = ProgStrategy { params: opts.params };
    let config = Config {
        cases: opts.programs,
        max_shrink_steps: opts.max_shrink_steps,
        seed: opts.seed,
        suite: Some("tracetool fuzz"),
    };
    let broken = opts.broken_detector.as_deref();
    // The shrinker reruns the property on ever-smaller candidates; only
    // pre-failure cases should count, so stop absorbing once one fails.
    let tally = RefCell::new(Tally::default());
    let failed = Cell::new(false);

    let failure = propcheck::check_silent(&config, &strategy, |prog: Program| {
        let mut case = Tally::default();
        match check_program(&prog, broken, &mut case) {
            Ok(()) => {
                if !failed.get() {
                    tally.borrow_mut().absorb(&case);
                }
            }
            Err(detail) => {
                failed.set(true);
                panic!("{detail}");
            }
        }
    });

    let counterexample = failure.map(|f| {
        let trace = encode_trace(&record(&f.repr));
        Counterexample {
            seed: f.seed,
            case: f.case,
            shrink_steps: f.shrink_steps,
            program: f.repr,
            detail: f.message,
            trace,
        }
    });
    FuzzReport {
        tally: tally.into_inner(),
        counterexample,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use futrace_benchsuite::randomprog::stmt_census;
    use futrace_offline::trace_events;

    /// Serial runs of all seven detectors plus sharded dtrg/vc at each of
    /// three worker counts.
    const RUNS_PER_PROGRAM: u64 = 7 + 2 * 3;

    #[test]
    fn clean_sweep_has_no_counterexample_and_full_coverage() {
        let opts = FuzzOptions {
            programs: 64,
            seed: 7,
            ..FuzzOptions::default()
        };
        let report = run(&opts);
        assert!(
            report.counterexample.is_none(),
            "unexpected disagreement: {:?}",
            report.counterexample
        );
        assert_eq!(report.tally.programs, 64);
        assert_eq!(report.tally.detector_runs, 64 * RUNS_PER_PROGRAM);
        // The nontree-heavy preset reliably produces programs on which
        // the lenient bags baselines over-report; a sweep with zero
        // expected disagreements would mean the classifier is not
        // actually exercising the envelope.
        assert!(report.tally.expected_disagreements > 0);
    }

    #[test]
    fn broken_detector_yields_a_minimized_replayable_counterexample() {
        let opts = FuzzOptions {
            programs: 16,
            seed: 3,
            broken_detector: Some("vc".to_string()),
            ..FuzzOptions::default()
        };
        let report = run(&opts);
        let cx = report
            .counterexample
            .expect("an inverted vc verdict must surface as an unexpected disagreement");
        assert!(cx.detail.contains("vc"), "detail: {}", cx.detail);
        // The shrinker strips the program down to (nearly) nothing: with
        // vc inverted the property fails on every program, including the
        // empty one.
        let stmts: u64 = stmt_census(&cx.program.body).iter().sum();
        assert!(stmts <= 2, "not minimized: {:?}", cx.program);
        // The attached trace is a decodable framed blob of the minimal
        // program's recording.
        let decoded: Result<Vec<_>, _> = trace_events(&cx.trace, false).collect();
        let decoded = decoded.expect("counterexample trace must decode");
        assert_eq!(decoded, record(&cx.program).events);
        // And the minimal program still fails the check directly.
        let mut t = Tally::default();
        assert!(check_program(&cx.program, Some("vc"), &mut t).is_err());
    }

    #[test]
    fn broken_reference_is_caught_via_the_exact_detectors() {
        // Inverting the reference itself must also be flagged: vc and
        // closure still tell the truth, so the first program disagrees.
        let opts = FuzzOptions {
            programs: 4,
            seed: 5,
            broken_detector: Some("dtrg".to_string()),
            ..FuzzOptions::default()
        };
        let report = run(&opts);
        assert!(report.counterexample.is_some());
    }

    #[test]
    fn tally_absorb_sums_counts() {
        let mut a = Tally {
            programs: 1,
            detector_runs: 13,
            expected_disagreements: 2,
        };
        a.absorb(&Tally {
            programs: 2,
            detector_runs: 26,
            expected_disagreements: 0,
        });
        assert_eq!(
            a,
            Tally {
                programs: 3,
                detector_runs: 39,
                expected_disagreements: 2,
            }
        );
    }

    #[test]
    fn observed_inverts_only_the_broken_detector() {
        assert!(observed(Some("vc"), "vc", false));
        assert!(!observed(Some("vc"), "vc", true));
        assert!(observed(Some("vc"), "dtrg", true));
        assert!(!observed(None, "vc", false));
    }
}
