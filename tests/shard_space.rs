//! Theorem 1's `v` term across shard replicas: the shard stage's `N`
//! replicas hold the serial detector's shadow cells between them, not `N`
//! copies of them.
//!
//! Each loop kernel runs at tiny scale under N ∈ {1, 2, 4}. Every DTRG and
//! vector-clock replica of shard `s` is built as the shard stage builds it
//! (assigned its shard, then fed every control event and the accesses with
//! `loc % N == s`), and must hold at most ⌈v/N⌉ shadow cells, `v` being the
//! serial detector's count. The replicas' cells add up to `v`: exactly for
//! the DTRG detector, whose `Alloc`s size its shadow memory, and within `N`
//! for the vector-clock detector, which grows only on access. The shard
//! stage's merged footprint is the serial one.

use futrace::baselines::vectorclock::VectorClockDetector;
use futrace::benchsuite::registry::{self, Scale};
use futrace::detector::RaceDetector;
use futrace::runtime::engine::{run_analysis_recorded, LocRoutable};
use futrace::runtime::Event;
use futrace::Analyze;

const KERNELS: [&str; 4] = ["jacobi", "smithwaterman", "sor", "crypt"];
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// The replica of shard `shard` of `n`, fed what the router sends it.
fn replica<A: LocRoutable>(mut analysis: A, events: &[Event], shard: usize, n: usize) -> A {
    analysis.assign_shard(shard, n);
    let mut index = 0u64;
    for e in events {
        match *e {
            Event::Read(task, loc) | Event::Write(task, loc) => {
                if loc.index() % n == shard {
                    if matches!(e, Event::Write(..)) {
                        analysis.check_write_at(task, loc, index);
                    } else {
                        analysis.check_read_at(task, loc, index);
                    }
                }
                index += 1;
            }
            ref control => analysis.apply_control(control),
        }
    }
    analysis
}

/// Asserts the per-replica bound and returns the replicas' total.
fn replica_cells(kernel: &str, detector: &str, v: usize, n: usize, cells: &[usize]) -> usize {
    for (shard, &held) in cells.iter().enumerate() {
        assert!(
            held <= v.div_ceil(n),
            "{kernel} {detector}: shard {shard} of {n} holds {held} cells, over ⌈{v}/{n}⌉"
        );
    }
    cells.iter().sum()
}

#[test]
fn shard_replicas_partition_the_serial_shadow_cells() {
    for kernel in KERNELS {
        let log = registry::find(kernel)
            .expect("kernel registered")
            .record(Scale::Tiny, false);
        let events = &log.events;
        let v_dtrg = run_analysis_recorded(events, RaceDetector::new())
            .report
            .footprint
            .shadow_cells;
        let v_vc = replica(VectorClockDetector::new(), events, 0, 1).shadow_cells();
        assert!(
            v_dtrg > 0 && v_vc > 0,
            "{kernel}: the kernel touches memory"
        );
        for n in SHARD_COUNTS {
            let dtrg: Vec<usize> = (0..n)
                .map(|s| {
                    let det = replica(RaceDetector::new(), events, s, n);
                    det.memory_footprint().shadow_cells
                })
                .collect();
            let total = replica_cells(kernel, "dtrg", v_dtrg, n, &dtrg);
            assert_eq!(total, v_dtrg, "{kernel} dtrg, {n} shards: {dtrg:?}");

            let vc: Vec<usize> = (0..n)
                .map(|s| replica(VectorClockDetector::new(), events, s, n).shadow_cells())
                .collect();
            let total = replica_cells(kernel, "vc", v_vc, n, &vc);
            assert!(
                total <= v_vc && total + n >= v_vc,
                "{kernel} vc, {n} shards: {vc:?} against {v_vc}"
            );

            let sharded = Analyze::events(events)
                .shards(n)
                .run()
                .expect("sharded run");
            assert_eq!(
                sharded.footprint.shadow_cells, v_dtrg,
                "{kernel}, {n} shards: the merged footprint is the serial one"
            );
        }
    }
}
