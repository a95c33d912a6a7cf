//! Ground-truth reachability and the brute-force race oracle.
//!
//! This is the "brute force approach … building the transitive closure of
//! the happens-before relation" that the paper's DTRG avoids (§1). We build
//! it anyway, because it is the ideal *test oracle*: Definition 2's `u ≺ v`
//! is computed exactly, and Definition 3's race check is evaluated over all
//! access pairs. Every property test in the repository compares the DTRG
//! detector's verdict against this module.
//!
//! Space is Θ(steps²) bits and time Θ(steps · edges / 64); use on small and
//! medium executions only.

use crate::graph::{Access, CompGraph};
use futrace_util::ids::StepId;

/// Dense transitive-closure reachability over the computation graph.
pub struct Reachability {
    n: usize,
    words: usize,
    /// Row `v` = bitset of steps reachable from `v` (excluding `v` itself).
    rows: Vec<u64>,
}

impl Reachability {
    /// Builds the closure. Relies on step ids being a topological order,
    /// which [`crate::builder::GraphBuilder`] guarantees.
    pub fn build(g: &CompGraph) -> Self {
        let n = g.step_count();
        let words = n.div_ceil(64);
        let mut rows = vec![0u64; n * words];
        let adj = g.successors();
        // Reverse topological order: successors' rows are complete.
        for v in (0..n).rev() {
            for &s in &adj[v] {
                let si = s.index();
                debug_assert!(si > v, "step ids must be topological");
                // row[v] |= row[s]; row[v] |= bit(s)
                let (lo, hi) = (si * words, (si + 1) * words);
                let (dlo, _dhi) = (v * words, (v + 1) * words);
                // Split-borrow via indices (si > v so ranges are disjoint).
                let (head, tail) = rows.split_at_mut(lo);
                let dst = &mut head[dlo..dlo + words];
                let src = &tail[..hi - lo];
                for (d, s) in dst.iter_mut().zip(src) {
                    *d |= s;
                }
                rows[v * words + si / 64] |= 1u64 << (si % 64);
            }
        }
        Reachability { n, words, rows }
    }

    /// Definition 2: true iff there is a path from `u` to `v` (strict:
    /// `reaches(u, u)` is false for acyclic graphs).
    pub fn reaches(&self, u: StepId, v: StepId) -> bool {
        let (u, v) = (u.index(), v.index());
        debug_assert!(u < self.n && v < self.n);
        self.rows[u * self.words + v / 64] >> (v % 64) & 1 == 1
    }

    /// The paper's `u ∥ v`: distinct steps with no path either way.
    pub fn parallel(&self, u: StepId, v: StepId) -> bool {
        u != v && !self.reaches(u, v) && !self.reaches(v, u)
    }
}

/// A determinacy race found by the oracle (Definition 3): two accesses to
/// the same location, at least one a write, on logically parallel steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OracleRace {
    /// The earlier access (in serial execution order).
    pub first: Access,
    /// The later access.
    pub second: Access,
}

/// Exhaustively checks Definition 3 over all access pairs, location by
/// location. Returns every racing pair (deduplicated by step pair), in
/// serial execution order of the second access.
pub fn find_races(g: &CompGraph) -> Vec<OracleRace> {
    let reach = Reachability::build(g);
    find_races_with(g, &reach)
}

/// As [`find_races`], reusing a prebuilt closure.
pub(crate) fn find_races_with(g: &CompGraph, reach: &Reachability) -> Vec<OracleRace> {
    let mut races = Vec::new();
    let mut seen = futrace_util::FxHashSet::default();
    for accs in g.accesses_by_loc().values() {
        for (i, a) in accs.iter().enumerate() {
            for b in &accs[i + 1..] {
                if !(a.is_write || b.is_write) {
                    continue;
                }
                if a.step != b.step && reach.parallel(a.step, b.step) {
                    let key = (a.loc, a.step.min(b.step), a.step.max(b.step));
                    if seen.insert(key) {
                        races.push(OracleRace {
                            first: *a,
                            second: *b,
                        });
                    }
                }
            }
        }
    }
    races.sort_by_key(|r| (r.second.step, r.first.step, r.first.loc.0));
    races
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use futrace_runtime::{run_serial, TaskCtx};

    fn graph_of(f: impl FnOnce(&mut futrace_runtime::SerialCtx<GraphBuilder>)) -> CompGraph {
        let mut b = GraphBuilder::new();
        run_serial(&mut b, f);
        b.into_graph()
    }

    #[test]
    fn linear_chain_reaches_everything() {
        let g = graph_of(|ctx| {
            let x = ctx.shared_var(0u64, "x");
            x.write(ctx, 1);
            let _ = x.read(ctx);
        });
        let r = Reachability::build(&g);
        // Single task; every earlier step reaches later ones via continue
        // edges (steps beyond 0 exist because of the implicit finish end).
        for u in 0..g.step_count() {
            for v in (u + 1)..g.step_count() {
                assert!(r.reaches(StepId::from_index(u), StepId::from_index(v)));
            }
        }
        assert!(!r.reaches(StepId(1), StepId(0)));
        assert!(!r.reaches(StepId(0), StepId(0)), "strict reachability");
    }

    #[test]
    fn async_without_sync_is_parallel_to_continuation() {
        let g = graph_of(|ctx| {
            let x = ctx.shared_var(0u64, "x");
            let x2 = x.clone();
            ctx.async_task(move |ctx| x2.write(ctx, 1));
            x.write(ctx, 2); // parallel with the child: race
        });
        let races = find_races(&g);
        assert_eq!(races.len(), 1);
        assert!(races[0].first.is_write && races[0].second.is_write);
    }

    #[test]
    fn finish_orders_child_before_continuation() {
        let g = graph_of(|ctx| {
            let x = ctx.shared_var(0u64, "x");
            ctx.finish(|ctx| {
                let x2 = x.clone();
                ctx.async_task(move |ctx| x2.write(ctx, 1));
            });
            x.write(ctx, 2); // ordered by the finish: no race
        });
        assert!(find_races(&g).is_empty());
    }

    #[test]
    fn future_get_orders_accesses() {
        let g = graph_of(|ctx| {
            let x = ctx.shared_var(0u64, "x");
            let x2 = x.clone();
            let f = ctx.future(move |ctx| x2.write(ctx, 1));
            ctx.get(&f);
            let _ = x.read(ctx); // after get: ordered
        });
        assert!(find_races(&g).is_empty());
    }

    #[test]
    fn read_without_get_races_with_future_write() {
        let g = graph_of(|ctx| {
            let x = ctx.shared_var(0u64, "x");
            let x2 = x.clone();
            let _f = ctx.future(move |ctx| x2.write(ctx, 1));
            let _ = x.read(ctx); // no get: racy
        });
        let races = find_races(&g);
        assert_eq!(races.len(), 1);
        assert!(races[0].first.is_write);
        assert!(!races[0].second.is_write);
    }

    #[test]
    fn two_reads_never_race() {
        let g = graph_of(|ctx| {
            let x = ctx.shared_var(0u64, "x");
            let x2 = x.clone();
            ctx.async_task(move |ctx| {
                let _ = x2.read(ctx);
            });
            let _ = x.read(ctx);
        });
        assert!(find_races(&g).is_empty());
    }

    #[test]
    fn transitive_dependence_through_two_gets() {
        // Figure 1's transitive-join shape: main never gets B directly, but
        // C gets B and main gets C, so B's effects are ordered before main's
        // final read.
        let g = graph_of(|ctx| {
            let x = ctx.shared_var(0u64, "x");
            let xb = x.clone();
            let b = ctx.future(move |ctx| xb.write(ctx, 1));
            let c = ctx.future(move |ctx| {
                ctx.get(&b);
            });
            ctx.get(&c);
            let _ = x.read(ctx);
        });
        assert!(find_races(&g).is_empty());
    }

    #[test]
    fn sibling_get_makes_non_tree_order() {
        // T_A writes; T_B gets T_A then reads: ordered via a non-tree join.
        let g = graph_of(|ctx| {
            let x = ctx.shared_var(0u64, "x");
            let xa = x.clone();
            let a = ctx.future(move |ctx| xa.write(ctx, 1));
            let xb = x.clone();
            let _b = ctx.future(move |ctx| {
                ctx.get(&a);
                let _ = xb.read(ctx);
            });
        });
        assert_eq!(g.non_tree_join_count(), 1);
        assert!(find_races(&g).is_empty());
    }

    #[test]
    fn same_task_accesses_never_race() {
        let g = graph_of(|ctx| {
            let x = ctx.shared_var(0u64, "x");
            x.write(ctx, 1);
            x.write(ctx, 2);
            let _ = x.read(ctx);
        });
        assert!(find_races(&g).is_empty());
    }

    #[test]
    fn racy_pair_counted_once() {
        let g = graph_of(|ctx| {
            let x = ctx.shared_var(0u64, "x");
            let x2 = x.clone();
            ctx.async_task(move |ctx| {
                x2.write(ctx, 1);
            });
            x.write(ctx, 3);
        });
        assert_eq!(find_races(&g).len(), 1);
    }
}
