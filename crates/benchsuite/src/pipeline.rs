//! Dataflow pipeline — an extension workload (beyond Table 2) exercising
//! long chains of non-tree joins.
//!
//! `stages × items` future tasks: task `(s, i)` processes item `i` at
//! stage `s`, waiting for the same item's previous stage `(s−1, i)` and
//! for the stage's previous item `(s, i−1)` (stages keep per-stage state,
//! so they process items in order — the classic software-pipeline shape).
//! Both dependences are sibling `get()`s: **non-tree joins** with chain
//! length up to `stages + items`, probing the `Precede` traversal depth
//! the paper's benchmarks keep at 1–2 hops (§5: "the producer and
//! consumer tasks … are closely located").

use futrace_runtime::memory::SharedArray;
use futrace_runtime::TaskCtx;

/// Problem size for the pipeline benchmark.
#[derive(Clone, Copy, Debug)]
pub struct PipelineParams {
    /// Number of stages.
    pub stages: usize,
    /// Number of items flowing through.
    pub items: usize,
    /// Per-task compute rounds (work knob).
    pub rounds: u32,
    /// Input seed.
    pub seed: u64,
}

impl PipelineParams {
    /// Laptop-scale configuration.
    pub fn scaled() -> Self {
        PipelineParams {
            stages: 8,
            items: 256,
            rounds: 64,
            seed: 0x9199,
        }
    }

    /// Minimal configuration for unit tests.
    pub fn tiny() -> Self {
        PipelineParams {
            stages: 3,
            items: 5,
            rounds: 4,
            seed: 0x9199,
        }
    }
}

/// The per-task kernel: a few rounds of integer mixing.
fn work(mut x: u64, rounds: u32) -> u64 {
    for _ in 0..rounds {
        x = x
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29)
            .wrapping_add(0x6A09_E667);
    }
    x
}

/// Reference (serial-elision) implementation: returns the final item
/// values after the last stage.
// Stage/item indices are the domain concept here; iterator forms obscure
// the (s, i) wavefront structure.
#[allow(clippy::needless_range_loop)]
pub fn pipeline_seq(p: &PipelineParams) -> Vec<u64> {
    let mut items: Vec<u64> = (0..p.items as u64).map(|i| i ^ p.seed).collect();
    let mut state = vec![0u64; p.stages];
    for s in 0..p.stages {
        for i in 0..p.items {
            // Each stage folds its running state into the item.
            let v = work(items[i] ^ state[s], p.rounds);
            state[s] = state[s].wrapping_add(v);
            items[i] = v;
        }
    }
    items
}

/// DSL run; returns the item array after the final stage.
///
/// `plant_race` (tests only) drops the dependence on the stage's previous
/// item, racing on the per-stage state cell.
#[allow(clippy::needless_range_loop)]
pub fn pipeline_run<C: TaskCtx>(
    ctx: &mut C,
    p: &PipelineParams,
    plant_race: bool,
) -> SharedArray<u64> {
    let items = ctx.shared_array(p.items, 0u64, "pipe.items");
    let state = ctx.shared_array(p.stages, 0u64, "pipe.state");
    for i in 0..p.items {
        items.poke(i, i as u64 ^ p.seed); // input seeding
    }

    // prev_item[s] = handle of (s, i−1); prev_stage[i] = handle of (s−1, i).
    let mut prev_item: Vec<Option<C::Handle<()>>> = vec![None; p.stages];
    let mut prev_stage: Vec<Option<C::Handle<()>>> = vec![None; p.items];
    for s in 0..p.stages {
        for i in 0..p.items {
            let mut deps: Vec<C::Handle<()>> = Vec::with_capacity(2);
            if let Some(h) = &prev_stage[i] {
                deps.push(h.clone());
            }
            if !plant_race {
                if let Some(h) = &prev_item[s] {
                    deps.push(h.clone());
                }
            }
            let (items_h, state_h) = (items.clone(), state.clone());
            let rounds = p.rounds;
            let h = ctx.future(move |ctx| {
                for d in &deps {
                    ctx.get(d);
                }
                let x = items_h.read(ctx, i);
                let st = state_h.read(ctx, s);
                let v = work(x ^ st, rounds);
                state_h.write(ctx, s, st.wrapping_add(v));
                items_h.write(ctx, i, v);
            });
            prev_item[s] = Some(h.clone());
            prev_stage[i] = Some(h);
        }
    }
    for h in prev_stage.iter().flatten() {
        ctx.get(h);
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::detect_races_with_stats;
    use futrace_runtime::run_parallel;

    /// Expected dynamic task count: `stages × items`.
    fn expected_tasks(p: &PipelineParams) -> u64 {
        (p.stages * p.items) as u64
    }

    /// Expected non-tree joins: one per prev-stage dep (`(stages−1)·items`)
    /// plus one per prev-item dep (`stages·(items−1)`).
    fn expected_nt_joins(p: &PipelineParams) -> u64 {
        let (s, n) = (p.stages as u64, p.items as u64);
        (s - 1) * n + s * (n - 1)
    }

    #[test]
    fn dsl_matches_reference_and_is_race_free() {
        let p = PipelineParams::tiny();
        let want = pipeline_seq(&p);
        let (rep, stats) = detect_races_with_stats(|ctx| {
            let out = pipeline_run(ctx, &p, false);
            assert_eq!(out.snapshot(), want);
        });
        assert!(!rep.has_races());
        assert_eq!(stats.tasks, expected_tasks(&p));
        assert_eq!(stats.nt_joins(), expected_nt_joins(&p));
    }

    #[test]
    fn planted_race_is_detected() {
        let p = PipelineParams::tiny();
        let (rep, _) = detect_races_with_stats(|ctx| {
            let _ = pipeline_run(ctx, &p, true);
        });
        assert!(rep.has_races(), "dropping the in-stage order must race");
    }

    #[test]
    fn parallel_execution_matches_reference() {
        let p = PipelineParams::tiny();
        let want = pipeline_seq(&p);
        let got = run_parallel(4, |ctx| pipeline_run(ctx, &p, false).snapshot()).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn single_stage_single_item_edge_cases() {
        let p = PipelineParams {
            stages: 1,
            items: 1,
            rounds: 2,
            seed: 7,
        };
        let want = pipeline_seq(&p);
        let (rep, stats) = detect_races_with_stats(|ctx| {
            let out = pipeline_run(ctx, &p, false);
            assert_eq!(out.snapshot(), want);
        });
        assert!(!rep.has_races());
        assert_eq!(stats.tasks, 1);
        assert_eq!(stats.nt_joins(), 0);
    }

    #[test]
    fn work_is_deterministic_nontrivial() {
        assert_eq!(work(1, 8), work(1, 8));
        assert_ne!(work(1, 8), work(2, 8));
        assert_ne!(work(1, 8), 1);
    }
}
