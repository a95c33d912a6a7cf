//! The benchsuite workload registry — one table driving `tracetool
//! record`, `dtrgperf`, and the golden-trace fixtures.
//!
//! Each entry names a workload, describes its join structure, and carries
//! a monomorphic runner `fn(&mut dyn Monitor, Scale, bool)` so tools can
//! look workloads up by name at runtime without being generic over the
//! monitor. (The `&mut dyn Monitor` indirection is what the blanket
//! `impl Monitor for &mut M` in the runtime exists for.)

use crate::{
    actor, crypt, futlist, futtree, graphwalk, jacobi, lu, pipeline, prodcons, series,
    smithwaterman, sor,
};
use futrace_runtime::{run_serial, EventLog, Monitor, ParCtx};

/// Problem-size selector for registry runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Unit-test sizes (hundreds of events).
    Tiny,
    /// Laptop-scale sizes, as in the Table-2 rows.
    Scaled,
    /// Profiling sizes for `dtrgperf`: many cheap tasks so per-event
    /// medians measure the detector, not the kernel. Identical to
    /// `Scaled` except where a workload's scaled kernel dominates
    /// (currently `series_future`).
    Perf,
}

/// A registered workload.
pub struct Workload {
    /// Registry key, as accepted by `tracetool record --bench`.
    pub name: &'static str,
    /// Which Table-2 family / extension group the workload belongs to.
    pub family: &'static str,
    /// One-line description of the join structure the workload stresses.
    pub join_structure: &'static str,
    /// Whether the workload has a `plant_race` variant.
    pub plantable: bool,
    /// Whether `dtrgperf` profiles this workload.
    pub perf: bool,
    runner: fn(&mut dyn Monitor, Scale, bool),
    par_runner: fn(&mut ParCtx, Scale, bool),
}

impl Workload {
    /// Runs the workload under the serial instrumented executor, feeding
    /// `mon`. Panics if `planted` is requested for a workload without a
    /// planted-race variant (the CLI validates this earlier).
    pub fn run_into(&self, mon: &mut dyn Monitor, scale: Scale, planted: bool) {
        assert!(
            !planted || self.plantable,
            "workload `{}` has no planted-race variant",
            self.name
        );
        (self.runner)(mon, scale, planted);
    }

    /// Records the workload into a fresh [`EventLog`].
    pub fn record(&self, scale: Scale, planted: bool) -> EventLog {
        let mut log = EventLog::new();
        self.run_into(&mut log, scale, planted);
        log
    }

    /// Runs the workload's kernel inside an already-running parallel
    /// context — the body `futrace_runtime::online::run_online` (or plain
    /// `run_parallel`) hands out. Same monomorphization of the same
    /// generic kernel the serial runner uses, so the canonical access
    /// stream is identical. Panics like [`Workload::run_into`] on a
    /// `planted` request without a planted variant.
    pub fn run_parallel_into(&self, ctx: &mut ParCtx, scale: Scale, planted: bool) {
        assert!(
            !planted || self.plantable,
            "workload `{}` has no planted-race variant",
            self.name
        );
        (self.par_runner)(ctx, scale, planted);
    }
}

macro_rules! runner {
    ($params:ty, $run:path) => {
        |mut mon: &mut dyn Monitor, scale: Scale, planted: bool| {
            let p = match scale {
                Scale::Tiny => <$params>::tiny(),
                Scale::Scaled | Scale::Perf => <$params>::scaled(),
            };
            run_serial(&mut mon, |ctx| {
                $run(ctx, &p, planted);
            });
        }
    };
}

macro_rules! par_runner {
    ($params:ty, $run:path) => {
        |ctx: &mut ParCtx, scale: Scale, planted: bool| {
            let p = match scale {
                Scale::Tiny => <$params>::tiny(),
                Scale::Scaled | Scale::Perf => <$params>::scaled(),
            };
            $run(ctx, &p, planted);
        }
    };
}

fn run_series_future(mut mon: &mut dyn Monitor, scale: Scale, _planted: bool) {
    let p = match scale {
        Scale::Tiny => series::SeriesParams::tiny(),
        Scale::Scaled => series::SeriesParams::scaled(),
        Scale::Perf => series::SeriesParams::perf(),
    };
    run_serial(&mut mon, |ctx| {
        series::series_future(ctx, &p);
    });
}

fn run_crypt_future(mut mon: &mut dyn Monitor, scale: Scale, _planted: bool) {
    let p = match scale {
        Scale::Tiny => crypt::CryptParams::tiny(),
        Scale::Scaled | Scale::Perf => crypt::CryptParams::scaled(),
    };
    run_serial(&mut mon, |ctx| {
        crypt::crypt_run(ctx, &p, crypt::CryptVariant::Future);
    });
}

fn par_series_future(ctx: &mut ParCtx, scale: Scale, _planted: bool) {
    let p = match scale {
        Scale::Tiny => series::SeriesParams::tiny(),
        Scale::Scaled => series::SeriesParams::scaled(),
        Scale::Perf => series::SeriesParams::perf(),
    };
    series::series_future(ctx, &p);
}

fn par_crypt_future(ctx: &mut ParCtx, scale: Scale, _planted: bool) {
    let p = match scale {
        Scale::Tiny => crypt::CryptParams::tiny(),
        Scale::Scaled | Scale::Perf => crypt::CryptParams::scaled(),
    };
    crypt::crypt_run(ctx, &p, crypt::CryptVariant::Future);
}

static WORKLOADS: &[Workload] = &[
    Workload {
        name: "jacobi",
        family: "table2",
        join_structure: "per-tile futures, gets on 5 neighbour tiles of the previous sweep",
        plantable: true,
        perf: true,
        runner: runner!(jacobi::JacobiParams, jacobi::jacobi_run),
        par_runner: par_runner!(jacobi::JacobiParams, jacobi::jacobi_run),
    },
    Workload {
        name: "smithwaterman",
        family: "table2",
        join_structure: "tiled wavefront DP, gets on left/up/up-left tiles",
        plantable: true,
        perf: true,
        runner: runner!(smithwaterman::SwParams, smithwaterman::sw_run),
        par_runner: par_runner!(smithwaterman::SwParams, smithwaterman::sw_run),
    },
    Workload {
        name: "lu",
        family: "extension",
        join_structure: "blocked LU, three-way block dependences (densest joins/task)",
        plantable: true,
        perf: false,
        runner: runner!(lu::LuParams, lu::lu_run),
        par_runner: par_runner!(lu::LuParams, lu::lu_run),
    },
    Workload {
        name: "pipeline",
        family: "extension",
        join_structure: "stage-to-stage future chains, all edges pointing upstream",
        plantable: true,
        perf: true,
        runner: runner!(pipeline::PipelineParams, pipeline::pipeline_run),
        par_runner: par_runner!(pipeline::PipelineParams, pipeline::pipeline_run),
    },
    Workload {
        name: "sor",
        family: "table2",
        join_structure: "red-black sweep futures over neighbour tiles",
        plantable: true,
        perf: true,
        runner: runner!(sor::SorParams, sor::sor_run),
        par_runner: par_runner!(sor::SorParams, sor::sor_run),
    },
    Workload {
        name: "series_future",
        family: "table2",
        join_structure: "independent coefficient futures, zero non-tree joins",
        plantable: false,
        perf: true,
        runner: run_series_future,
        par_runner: par_series_future,
    },
    Workload {
        name: "crypt",
        family: "table2",
        join_structure: "per-block futures joined by main, handle-table traffic",
        plantable: false,
        perf: true,
        runner: run_crypt_future,
        par_runner: par_crypt_future,
    },
    Workload {
        name: "prodcons",
        family: "futures",
        join_structure:
            "bounded-buffer ring: item-ready edges upstream + slot-free edges downstream",
        plantable: true,
        perf: true,
        runner: runner!(prodcons::ProdConsParams, prodcons::prodcons_run),
        par_runner: par_runner!(prodcons::ProdConsParams, prodcons::prodcons_run),
    },
    Workload {
        name: "futlist",
        family: "futures",
        join_structure: "future-linked list: depth-n sibling get chain + detached readers",
        plantable: true,
        perf: true,
        runner: runner!(futlist::FutListParams, futlist::futlist_run),
        par_runner: par_runner!(futlist::FutListParams, futlist::futlist_run),
    },
    Workload {
        name: "futtree",
        family: "futures",
        join_structure: "bottom-up combine tree living entirely in future edges",
        plantable: true,
        perf: true,
        runner: runner!(futtree::FutTreeParams, futtree::futtree_run),
        par_runner: par_runner!(futtree::FutTreeParams, futtree::futtree_run),
    },
    Workload {
        name: "graphwalk",
        family: "futures",
        join_structure: "seeded irregular DAG, 1..=maxdeg sibling gets per node",
        plantable: true,
        perf: true,
        runner: runner!(graphwalk::GraphWalkParams, graphwalk::graphwalk_run),
        par_runner: par_runner!(graphwalk::GraphWalkParams, graphwalk::graphwalk_run),
    },
    Workload {
        name: "actor",
        family: "futures",
        join_structure: "per-actor mailbox chains braided with request-to-client edges",
        plantable: true,
        perf: true,
        runner: runner!(actor::ActorParams, actor::actor_run),
        par_runner: par_runner!(actor::ActorParams, actor::actor_run),
    },
];

/// All registered workloads, in registry order.
pub fn workloads() -> &'static [Workload] {
    WORKLOADS
}

/// Looks a workload up by registry key.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// All registry keys, in registry order (for CLI help text).
pub fn names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_findable() {
        let names = names();
        for (i, n) in names.iter().enumerate() {
            assert!(!names[i + 1..].contains(n), "duplicate name {n}");
            assert_eq!(find(n).unwrap().name, *n);
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn every_workload_records_tiny_events() {
        for w in workloads() {
            let log = w.record(Scale::Tiny, false);
            assert!(
                !log.events.is_empty(),
                "workload `{}` recorded no events",
                w.name
            );
        }
    }

    #[test]
    fn plantable_workloads_record_planted_variants() {
        for w in workloads().iter().filter(|w| w.plantable) {
            let clean = w.record(Scale::Tiny, false);
            let racy = w.record(Scale::Tiny, true);
            assert_ne!(
                clean.events.len(),
                0,
                "workload `{}` clean variant empty",
                w.name
            );
            // The planted variant drops joins, so the traces differ.
            assert_ne!(
                clean.events, racy.events,
                "workload `{}` planted variant identical to clean",
                w.name
            );
        }
    }

    #[test]
    #[should_panic(expected = "no planted-race variant")]
    fn planting_a_nonplantable_workload_panics() {
        find("series_future").unwrap().record(Scale::Tiny, true);
    }

    #[test]
    fn parallel_runner_reproduces_the_serial_stream() {
        use futrace_runtime::online::{run_online, OnlineOptions};
        for w in workloads() {
            let serial = w.record(Scale::Tiny, false);
            let mut log = EventLog::new();
            let run = run_online(OnlineOptions::threads(2), &mut log, |ctx| {
                w.run_parallel_into(ctx, Scale::Tiny, false)
            });
            assert!(run.result.is_ok(), "workload `{}` failed online", w.name);
            assert_eq!(
                log.events, serial.events,
                "workload `{}` online stream diverged from the serial elision",
                w.name
            );
        }
    }
}
