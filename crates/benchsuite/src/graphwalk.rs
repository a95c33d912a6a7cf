//! Irregular graph traversal — a seeded random DAG evaluated by one
//! future per node, joining an irregular predecessor set.
//!
//! The DAG is generated deterministically from the seed: node `j` draws
//! `1..=maxdeg` predecessors from a sliding window of earlier nodes, so
//! in-degree, fan-out, and edge span all vary node to node. Every node is
//! a future spawned by main; each predecessor edge is a sibling `get()`
//! — a **non-tree join** — so the computation graph is an arbitrary DAG
//! rather than anything series-parallel, the regime the DTRG `nt`/`lsa`
//! machinery exists for. Unlike the pipeline families there is no
//! regular stride for a detector to get lucky with: reachability queries
//! walk genuinely irregular non-tree edges.
//!
//! `plant_race` makes the *last* node skip all of its `get()`s while
//! still reading its predecessors' cells — with no alternative ordering
//! path, every one of those reads races with the predecessor's write.

use futrace_runtime::memory::SharedArray;
use futrace_runtime::TaskCtx;
use futrace_util::rng::Rng;

/// Problem size for the graph-walk benchmark.
#[derive(Clone, Copy, Debug)]
pub struct GraphWalkParams {
    /// Number of DAG nodes (≥ 2).
    pub n: usize,
    /// Maximum in-degree drawn per node (≥ 1).
    pub maxdeg: usize,
    /// Predecessors are drawn from the `window` nodes before `j` (≥ 1).
    pub window: usize,
    /// Per-node compute rounds (work knob).
    pub rounds: u32,
    /// Structure + input seed.
    pub seed: u64,
}

impl GraphWalkParams {
    /// Laptop-scale configuration.
    pub fn scaled() -> Self {
        GraphWalkParams {
            n: 20_000,
            maxdeg: 4,
            window: 64,
            rounds: 8,
            seed: 0xDA6,
        }
    }

    /// Minimal configuration for unit tests.
    pub fn tiny() -> Self {
        GraphWalkParams {
            n: 10,
            maxdeg: 3,
            window: 4,
            rounds: 4,
            seed: 0xDA6,
        }
    }

    fn validate(&self) {
        assert!(self.n >= 2, "a DAG walk needs at least one edge");
        assert!(self.maxdeg >= 1 && self.window >= 1);
    }
}

/// The deterministic DAG: `edges(p)[j]` is node `j`'s sorted, deduplicated
/// predecessor list (empty only for the source node 0).
pub(crate) fn edges(p: &GraphWalkParams) -> Vec<Vec<usize>> {
    p.validate();
    let mut rng = Rng::seeded(p.seed ^ 0x6A09_E667_F3BC_C908);
    let mut preds = Vec::with_capacity(p.n);
    preds.push(Vec::new());
    for j in 1..p.n {
        let lo = j.saturating_sub(p.window);
        let deg = 1 + rng.gen_range(0..p.maxdeg as u64) as usize;
        let mut ps: Vec<usize> = (0..deg)
            .map(|_| lo + rng.gen_range(0..(j - lo) as u64) as usize)
            .collect();
        ps.sort_unstable();
        ps.dedup();
        preds.push(ps);
    }
    preds
}

/// The per-node kernel: fold the predecessor values into the node seed.
fn fold(j: usize, seed: u64, inputs: &[u64], rounds: u32) -> u64 {
    let mut x = j as u64 ^ seed;
    for &v in inputs {
        x = x.rotate_left(13) ^ v.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    }
    for _ in 0..rounds {
        x = x
            .wrapping_mul(0xC4CE_B9FE_1A85_EC53)
            .rotate_left(27)
            .wrapping_add(seed);
    }
    x
}

/// DSL run; returns the node cell array.
pub fn graphwalk_run<C: TaskCtx>(
    ctx: &mut C,
    p: &GraphWalkParams,
    plant_race: bool,
) -> SharedArray<u64> {
    let preds = edges(p);
    let cells = ctx.shared_array(p.n, 0u64, "gw.cells");
    let rounds = p.rounds;
    let seed = p.seed;

    let mut handles: Vec<C::Handle<()>> = Vec::with_capacity(p.n);
    for (j, ps) in preds.into_iter().enumerate() {
        let skip_joins = plant_race && j == p.n - 1;
        let pred_handles: Vec<C::Handle<()>> = if skip_joins {
            Vec::new()
        } else {
            ps.iter().map(|&k| handles[k].clone()).collect()
        };
        let cells = cells.clone();
        let h = ctx.future(move |ctx| {
            for h in &pred_handles {
                ctx.get(h); // non-tree join: irregular sibling edge
            }
            let inputs: Vec<u64> = ps.iter().map(|&k| cells.read(ctx, k)).collect();
            cells.write(ctx, j, fold(j, seed, &inputs, rounds));
        });
        handles.push(h);
    }

    for h in &handles {
        ctx.get(h); // tree joins: main awaits its own children
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::detect_races_with_stats;
    use futrace_runtime::run_parallel;

    /// Reference (serial-elision) implementation: every node value.
    fn graphwalk_seq(p: &GraphWalkParams) -> Vec<u64> {
        let preds = edges(p);
        let mut cells = vec![0u64; p.n];
        for j in 0..p.n {
            let inputs: Vec<u64> = preds[j].iter().map(|&k| cells[k]).collect();
            cells[j] = fold(j, p.seed, &inputs, p.rounds);
        }
        cells
    }

    /// Expected dynamic task count: one future per node.
    fn expected_tasks(p: &GraphWalkParams) -> u64 {
        p.n as u64
    }

    /// Expected non-tree joins: the DAG's total edge count.
    fn expected_nt_joins(p: &GraphWalkParams) -> u64 {
        edges(p).iter().map(|ps| ps.len() as u64).sum()
    }

    #[test]
    fn structure_is_deterministic_and_acyclic() {
        let p = GraphWalkParams::tiny();
        let a = edges(&p);
        let b = edges(&p);
        assert_eq!(a, b);
        assert_eq!(a.len(), p.n);
        assert!(a[0].is_empty());
        for (j, ps) in a.iter().enumerate().skip(1) {
            assert!(!ps.is_empty(), "node {j} must have a predecessor");
            assert!(ps.iter().all(|&k| k < j), "edges must point backwards");
        }
    }

    #[test]
    fn dsl_matches_reference_and_is_race_free() {
        let p = GraphWalkParams::tiny();
        let want = graphwalk_seq(&p);
        let (rep, stats) = detect_races_with_stats(|ctx| {
            let out = graphwalk_run(ctx, &p, false);
            assert_eq!(out.snapshot(), want);
        });
        assert!(!rep.has_races());
        assert_eq!(stats.tasks, expected_tasks(&p));
        assert_eq!(stats.nt_joins(), expected_nt_joins(&p));
    }

    #[test]
    fn planted_race_is_detected() {
        let p = GraphWalkParams::tiny();
        let (rep, _) = detect_races_with_stats(|ctx| {
            let _ = graphwalk_run(ctx, &p, true);
        });
        assert!(
            rep.has_races(),
            "the unjoined sink node must race with its predecessors"
        );
    }

    #[test]
    fn parallel_execution_matches_reference() {
        let p = GraphWalkParams::tiny();
        let want = graphwalk_seq(&p);
        let got = run_parallel(4, |ctx| graphwalk_run(ctx, &p, false).snapshot()).unwrap();
        assert_eq!(got, want);
    }
}
