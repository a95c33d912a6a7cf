//! Bounded-buffer producer–consumer pipeline — tunable stage count, the
//! canonical future pattern whose join structure is *not* series-parallel.
//!
//! `stages × items` future tasks connected by a ring buffer of `cap`
//! cells per stage boundary. Task `(s, i)` consumes item `i` from buffer
//! `s−1` and produces into buffer `s`; before overwriting slot
//! `i mod cap` it must wait for the *downstream* task `(s+1, i−cap)` that
//! last read the slot. Both the item-ready edge and the slot-free edge
//! are sibling `get()`s — **non-tree joins** — and the slot-free edge
//! points *down* the pipeline, so the DTRG reachability queries cross
//! between subtrees in both directions (unlike [`crate::pipeline`],
//! whose dependences all point upstream). Dropping the slot-free edge
//! (`plant_race`) is the classic bounded-buffer bug: the producer
//! overwrites a slot the consumer is still reading.

use futrace_runtime::memory::SharedArray;
use futrace_runtime::TaskCtx;

/// Problem size for the producer–consumer benchmark.
#[derive(Clone, Copy, Debug)]
pub struct ProdConsParams {
    /// Number of pipeline stages (≥ 2).
    pub stages: usize,
    /// Number of items flowing through (> `cap`).
    pub items: usize,
    /// Ring-buffer capacity per stage boundary (≥ 2).
    pub cap: usize,
    /// Per-task compute rounds (work knob).
    pub rounds: u32,
    /// Input seed.
    pub seed: u64,
}

impl ProdConsParams {
    /// Laptop-scale configuration.
    pub fn scaled() -> Self {
        ProdConsParams {
            stages: 6,
            items: 2048,
            cap: 8,
            rounds: 16,
            seed: 0xBCAF,
        }
    }

    /// Minimal configuration for unit tests.
    pub fn tiny() -> Self {
        ProdConsParams {
            stages: 3,
            items: 6,
            cap: 2,
            rounds: 4,
            seed: 0xBCAF,
        }
    }

    fn validate(&self) {
        assert!(self.stages >= 2, "need at least a producer and a consumer");
        assert!(
            self.cap >= 2,
            "slot-free edges must point to earlier spawns"
        );
        assert!(self.items > self.cap, "ring buffer must wrap at least once");
    }
}

/// The per-task kernel: a few rounds of integer mixing.
fn work(mut x: u64, rounds: u32) -> u64 {
    for _ in 0..rounds {
        x = x
            .wrapping_mul(0x2545_F491_4F6C_DD1D)
            .rotate_left(23)
            .wrapping_add(0x9E37_79B9);
    }
    x
}

/// Per-stage salt folded into the item (stages are pure functions of the
/// item, so the final values are schedule-independent).
fn salt(s: usize) -> u64 {
    (s as u64).wrapping_mul(0xA076_1D64_78BD_642F) ^ 0x5851_F42D
}

/// DSL run; returns the output array written by the final stage.
///
/// `plant_race` (tests only) drops the slot-free dependence, so producers
/// overwrite ring slots concurrently with the downstream reads.
pub fn prodcons_run<C: TaskCtx>(
    ctx: &mut C,
    p: &ProdConsParams,
    plant_race: bool,
) -> SharedArray<u64> {
    p.validate();
    let (stages, items, cap) = (p.stages, p.items, p.cap);
    // One ring buffer per stage boundary 0..stages−1 (stage s writes
    // buffer s, stage s+1 reads it); the last stage writes `out`.
    let bufs: Vec<SharedArray<u64>> = (0..stages - 1)
        .map(|b| ctx.shared_array(cap, 0u64, &format!("pc.buf{b}")))
        .collect();
    let input = ctx.shared_array(items, 0u64, "pc.input");
    let out = ctx.shared_array(items, 0u64, "pc.out");
    for i in 0..items {
        input.poke(i, i as u64 ^ p.seed); // input seeding
    }

    // handles[s][i] = handle of task (s, i), filled in wavefront order so
    // both dependences exist before their dependents spawn.
    let mut handles: Vec<Vec<Option<C::Handle<()>>>> = vec![vec![None; items]; stages];
    for d in 0..(stages + items - 1) {
        for s in 0..stages.min(d + 1) {
            let i = d - s;
            if i >= items {
                continue;
            }
            // Item-ready: the same item one stage upstream.
            let ready = (s > 0).then(|| handles[s - 1][i].clone().expect("wavefront order"));
            // Slot-free: the downstream task that last read the slot this
            // task is about to overwrite (only stages that write a ring
            // buffer, only once the ring has wrapped).
            let free = (!plant_race && s + 1 < stages && i >= cap)
                .then(|| handles[s + 1][i - cap].clone().expect("wavefront order"));
            let src = (s > 0).then(|| bufs[s - 1].clone());
            let dst = if s + 1 < stages {
                bufs[s].clone()
            } else {
                out.clone()
            };
            let input = input.clone();
            let rounds = p.rounds;
            let h = ctx.future(move |ctx| {
                if let Some(h) = &ready {
                    ctx.get(h);
                }
                if let Some(h) = &free {
                    ctx.get(h);
                }
                let v = match &src {
                    Some(buf) => buf.read(ctx, i % cap),
                    None => input.read(ctx, i),
                };
                let v = work(v ^ salt(s), rounds);
                if s + 1 < stages {
                    dst.write(ctx, i % cap, v);
                } else {
                    dst.write(ctx, i, v);
                }
            });
            handles[s][i] = Some(h);
        }
    }
    for h in handles[stages - 1].iter().flatten() {
        ctx.get(h); // tree joins: main awaits its own children
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::detect_races_with_stats;
    use futrace_runtime::run_parallel;

    /// Reference (serial-elision) implementation: the items after the last
    /// stage.
    fn prodcons_seq(p: &ProdConsParams) -> Vec<u64> {
        p.validate();
        (0..p.items as u64)
            .map(|i| {
                let mut v = i ^ p.seed;
                for s in 0..p.stages {
                    v = work(v ^ salt(s), p.rounds);
                }
                v
            })
            .collect()
    }

    /// Expected dynamic task count: `stages × items`.
    fn expected_tasks(p: &ProdConsParams) -> u64 {
        (p.stages * p.items) as u64
    }

    /// Expected non-tree joins: one item-ready edge per non-source task
    /// (`(stages−1)·items`) plus one slot-free edge per ring-writing task
    /// past the first wrap (`(stages−1)·(items−cap)`).
    fn expected_nt_joins(p: &ProdConsParams) -> u64 {
        let (s, n, c) = (p.stages as u64, p.items as u64, p.cap as u64);
        (s - 1) * n + (s - 1) * (n - c)
    }

    #[test]
    fn dsl_matches_reference_and_is_race_free() {
        let p = ProdConsParams::tiny();
        let want = prodcons_seq(&p);
        let (rep, stats) = detect_races_with_stats(|ctx| {
            let out = prodcons_run(ctx, &p, false);
            assert_eq!(out.snapshot(), want);
        });
        assert!(!rep.has_races());
        assert_eq!(stats.tasks, expected_tasks(&p));
        assert_eq!(stats.nt_joins(), expected_nt_joins(&p));
    }

    #[test]
    fn planted_race_is_detected() {
        let p = ProdConsParams::tiny();
        let (rep, _) = detect_races_with_stats(|ctx| {
            let _ = prodcons_run(ctx, &p, true);
        });
        assert!(
            rep.has_races(),
            "dropping the slot-free edge must race on the ring buffer"
        );
    }

    #[test]
    fn parallel_execution_matches_reference() {
        let p = ProdConsParams::tiny();
        let want = prodcons_seq(&p);
        let got = run_parallel(4, |ctx| prodcons_run(ctx, &p, false).snapshot()).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn deeper_pipeline_still_clean() {
        let p = ProdConsParams {
            stages: 5,
            items: 9,
            cap: 3,
            rounds: 2,
            seed: 7,
        };
        let want = prodcons_seq(&p);
        let (rep, stats) = detect_races_with_stats(|ctx| {
            let out = prodcons_run(ctx, &p, false);
            assert_eq!(out.snapshot(), want);
        });
        assert!(!rep.has_races());
        assert_eq!(stats.nt_joins(), expected_nt_joins(&p));
    }
}
