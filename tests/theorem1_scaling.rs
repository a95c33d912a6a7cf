//! Theorem 1 on control events: the DTRG's work per event stays flat when
//! a future-structured program doubles in size.
//!
//! Theorem 1 bounds detection by O(T·(f+1)·(n+1)·α). That bound holds only
//! if the non-tree predecessor (`nt`) sets are kept up in amortized O(1)
//! per join: a duplicate check that scans the set makes non-tree joins
//! Θ(n²) in total, which per-query `Visit` counts never show. The DTRG's
//! counters are exact, so this check does not depend on the host:
//!
//! * `nt_probe_steps` + `nt_moved` + `visit_expansions` per event is the
//!   DTRG's total work per event, control events included;
//! * `visit_expansions` per `precede` call is the cost of one query.
//!
//! Each of the five future families runs at its registry-scaled size and
//! at twice its main size parameter; neither ratio may grow by more than
//! [`MAX_GROWTH`].

use futrace::benchsuite::{actor, futlist, futtree, graphwalk, prodcons};
use futrace::detector::RaceDetector;
use futrace::runtime::engine::{run_analysis_live, Engine};
use futrace::runtime::SerialCtx;

/// Largest growth allowed in either ratio when the program doubles.
const MAX_GROWTH: f64 = 1.25;

/// Runs a family's clean variant at registry-scaled size with its main
/// size parameter multiplied by the given factor.
type Runner = fn(&mut SerialCtx<'_, Engine<RaceDetector>>, usize);

const FAMILIES: [(&str, Runner); 5] = [
    ("prodcons", |ctx, k| {
        let mut p = prodcons::ProdConsParams::scaled();
        p.items *= k;
        prodcons::prodcons_run(ctx, &p, false);
    }),
    ("futlist", |ctx, k| {
        let mut p = futlist::FutListParams::scaled();
        p.n *= k;
        futlist::futlist_run(ctx, &p, false);
    }),
    ("futtree", |ctx, k| {
        let mut p = futtree::FutTreeParams::scaled();
        p.leaves *= k;
        futtree::futtree_run(ctx, &p, false);
    }),
    ("graphwalk", |ctx, k| {
        let mut p = graphwalk::GraphWalkParams::scaled();
        p.n *= k;
        graphwalk::graphwalk_run(ctx, &p, false);
    }),
    ("actor", |ctx, k| {
        let mut p = actor::ActorParams::scaled();
        p.requests *= k;
        actor::actor_run(ctx, &p, false);
    }),
];

/// The two ratios of one run.
struct Cost {
    work_per_event: f64,
    expansions_per_query: f64,
}

fn cost(name: &str, run: Runner, k: usize) -> Cost {
    let out = run_analysis_live(|ctx| run(ctx, k), RaceDetector::new());
    assert!(
        !out.report.report.has_races(),
        "{name} ×{k}: the clean variant must be race-free"
    );
    let d = out.report.stats.dtrg;
    assert!(d.precede_calls > 0, "{name} ×{k}: no Precede queries");
    let work = d.nt_probe_steps + d.nt_moved + d.visit_expansions;
    Cost {
        work_per_event: work as f64 / out.counters.events as f64,
        expansions_per_query: d.visit_expansions as f64 / d.precede_calls as f64,
    }
}

#[test]
fn dtrg_work_per_event_stays_flat_when_future_programs_double() {
    for (name, run) in FAMILIES {
        let base = cost(name, run, 1);
        let double = cost(name, run, 2);
        for (what, small, large) in [
            (
                "DTRG work per event",
                base.work_per_event,
                double.work_per_event,
            ),
            (
                "Visit expansions per Precede",
                base.expansions_per_query,
                double.expansions_per_query,
            ),
        ] {
            assert!(
                large <= small * MAX_GROWTH,
                "{name}: {what} grew {:.2}× when the program doubled \
                 ({small:.2} -> {large:.2})",
                large / small
            );
        }
    }
}
