//! Seeded random async/finish/future programs with realizable handle flow.
//!
//! Property tests need a large space of structurally diverse programs —
//! racy and race-free — on which the DTRG detector can be compared against
//! the transitive-closure oracle. This module generates such programs as
//! small ASTs and interprets them over any [`TaskCtx`].
//!
//! **Handle flow is realizable by construction**: a `Get(k)` statement may
//! reference only futures whose handles are *in scope* at that point —
//! futures created earlier by the same task or by an ancestor before the
//! current task was spawned (handles propagate into children by closure
//! capture, exactly as a real program would pass them). This matches
//! Lemma 1's observation that handle availability itself is a
//! happens-before constraint, and means generated programs never deadlock
//! and never perform "impossible" joins. Races on *data* locations remain
//! entirely possible, which is the point.

use crate::randomprog::Stmt::*;
use futrace_runtime::TaskCtx;

/// One statement of a generated program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Stmt {
    /// Read shared location `loc`.
    Read(u8),
    /// Write the given value to shared location `loc`. Values are unique
    /// per statement so schedule-independent final memory can be checked
    /// for race-free programs.
    Write(u8, u64),
    /// Spawn an async task with the given body.
    Async(Vec<Stmt>),
    /// Execute a finish scope around the body.
    Finish(Vec<Stmt>),
    /// Spawn a future task with the given body. The handle is appended to
    /// the *handle environment* visible to subsequent statements and
    /// descendants.
    Future(Vec<Stmt>),
    /// `get()` the `k`-th handle of the current handle environment
    /// (index modulo the environment size; no-op if empty).
    Get(usize),
}

/// A generated program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Program {
    /// Top-level (main task) statements.
    pub body: Vec<Stmt>,
    /// Number of shared locations the program touches.
    pub locs: u8,
}

/// Generation knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GenParams {
    /// Maximum nesting depth of tasks/finishes.
    pub max_depth: usize,
    /// Maximum statements per body.
    pub max_stmts: usize,
    /// Number of shared locations.
    pub locs: u8,
    /// Per-statement probability weights:
    /// (read, write, async, finish, future, get).
    pub weights: [u32; 6],
    /// Extra `get` weight inside nested bodies (depth > 0). Sibling gets
    /// performed by tasks other than the spawner are what make a join
    /// *non-tree*, so this knob biases toward the structure the DTRG
    /// machinery exists for. `0` leaves the generated streams identical
    /// to the pre-knob generator.
    pub deep_get_bonus: u32,
    /// Percent chance that a generated future immediately `get`s the most
    /// recently visible future — chaining futures into linked-list /
    /// pipeline shapes. `0` draws no randomness and leaves streams
    /// identical to the pre-knob generator.
    pub link_pct: u8,
}

impl Default for GenParams {
    fn default() -> Self {
        GenParams {
            max_depth: 4,
            max_stmts: 6,
            locs: 3,
            weights: [3, 3, 2, 1, 3, 3],
            deep_get_bonus: 0,
            link_pct: 0,
        }
    }
}

impl GenParams {
    /// Parameters biased toward many futures and gets (non-tree joins),
    /// for the ablation sweeps.
    pub fn future_heavy() -> Self {
        GenParams {
            max_depth: 3,
            max_stmts: 8,
            locs: 4,
            weights: [2, 2, 1, 1, 5, 6],
            deep_get_bonus: 0,
            link_pct: 0,
        }
    }

    /// Parameters producing pure async-finish programs (no futures).
    pub fn async_finish_only() -> Self {
        GenParams {
            max_depth: 4,
            max_stmts: 6,
            locs: 3,
            weights: [3, 3, 3, 2, 0, 0],
            deep_get_bonus: 0,
            link_pct: 0,
        }
    }

    /// Parameters biased toward *non-tree* join structure: futures linked
    /// into chains (`link_pct`) and sibling gets performed deep in the
    /// spawn tree (`deep_get_bonus`), the regime where SP-based detectors
    /// diverge from the DTRG reference. The differential fuzzer's default.
    pub fn nontree_heavy() -> Self {
        GenParams {
            max_depth: 4,
            max_stmts: 8,
            locs: 4,
            weights: [2, 3, 2, 1, 5, 4],
            deep_get_bonus: 6,
            link_pct: 60,
        }
    }
}

fn gen_body(
    rng: &mut futrace_util::rng::Rng,
    p: &GenParams,
    depth: usize,
    visible_futures: &mut usize,
) -> Vec<Stmt> {
    let n = rng.gen_range(1..=p.max_stmts);
    let mut body = Vec::with_capacity(n);
    // Effective weights at this depth: `deep_get_bonus` only applies
    // inside spawned bodies, where a `get` is a *sibling* (non-tree) join.
    let mut weights = p.weights;
    if depth > 0 {
        weights[5] += p.deep_get_bonus;
    }
    let total: u32 = weights.iter().sum();
    for _ in 0..n {
        let mut pick = rng.gen_range(0..total);
        let mut kind = 0;
        for (i, w) in weights.iter().enumerate() {
            if pick < *w {
                kind = i;
                break;
            }
            pick -= w;
        }
        match kind {
            0 => body.push(Read(rng.gen_range(0..p.locs))),
            1 => body.push(Write(rng.gen_range(0..p.locs), rng.next_u64())),
            2 if depth < p.max_depth => {
                // Children see the handles visible at their spawn point but
                // must not leak their own futures upward (the parent holds
                // no reference to them) — restore the count afterwards.
                let mut inner = *visible_futures;
                body.push(Async(gen_body(rng, p, depth + 1, &mut inner)));
            }
            3 if depth < p.max_depth => {
                let mut inner = *visible_futures;
                body.push(Finish(gen_body(rng, p, depth + 1, &mut inner)));
            }
            4 if depth < p.max_depth => {
                let mut inner = *visible_futures;
                let mut b = gen_body(rng, p, depth + 1, &mut inner);
                // Chain futures: the new future's first act is joining the
                // previously visible one (the linked-list/pipeline shape).
                // Guarded on the knob so `link_pct == 0` draws nothing and
                // preserves pre-knob streams bit for bit.
                if p.link_pct > 0
                    && *visible_futures > 0
                    && rng.gen_range(0..100u32) < u32::from(p.link_pct)
                {
                    b.insert(0, Get(*visible_futures - 1));
                }
                body.push(Future(b));
                *visible_futures += 1;
            }
            5 => {
                if *visible_futures > 0 {
                    body.push(Get(rng.gen_range(0..*visible_futures)));
                }
            }
            _ => body.push(Read(rng.gen_range(0..p.locs))),
        }
    }
    body
}

/// Generates a program from a caller-provided RNG (the propcheck
/// [`Strategy`](futrace_util::propcheck::Strategy) entry point — the
/// fuzzer's strategy draws from the case's seeded RNG).
pub fn generate_with(rng: &mut futrace_util::rng::Rng, p: &GenParams) -> Program {
    let mut visible = 0usize;
    Program {
        body: gen_body(rng, p, 0, &mut visible),
        locs: p.locs.max(1),
    }
}

/// Generates a deterministic random program from a seed.
pub fn generate(seed: u64, p: &GenParams) -> Program {
    let mut rng = futrace_util::rng::seeded(seed);
    generate_with(&mut rng, p)
}

/// Counts statements of each kind `(reads, writes, asyncs, finishes,
/// futures, gets)`, recursively.
pub fn stmt_census(body: &[Stmt]) -> [u64; 6] {
    let mut c = [0u64; 6];
    for s in body {
        match s {
            Read(_) => c[0] += 1,
            Write(..) => c[1] += 1,
            Async(b) => {
                c[2] += 1;
                let inner = stmt_census(b);
                for (a, b) in c.iter_mut().zip(inner) {
                    *a += b;
                }
            }
            Finish(b) => {
                c[3] += 1;
                let inner = stmt_census(b);
                for (a, b) in c.iter_mut().zip(inner) {
                    *a += b;
                }
            }
            Future(b) => {
                c[4] += 1;
                let inner = stmt_census(b);
                for (a, b) in c.iter_mut().zip(inner) {
                    *a += b;
                }
            }
            Get(_) => c[5] += 1,
        }
    }
    c
}

fn shrink_body(body: &[Stmt]) -> Vec<Vec<Stmt>> {
    let mut out = Vec::new();
    let n = body.len();
    // Halves first (most aggressive), then single-statement drops.
    if n >= 2 {
        out.push(body[..n / 2].to_vec());
        out.push(body[n - n / 2..].to_vec());
    }
    for i in 0..n {
        let mut v = body.to_vec();
        v.remove(i);
        out.push(v);
    }
    // Splice a block's contents in place of the block: removes one layer
    // of task/finish structure while keeping the accesses that race.
    for (i, s) in body.iter().enumerate() {
        if let Async(b) | Finish(b) | Future(b) = s {
            let mut v = body.to_vec();
            v.splice(i..=i, b.iter().cloned());
            out.push(v);
        }
    }
    // Recursively shrink block bodies, re-wrapped in the same constructor.
    for (i, s) in body.iter().enumerate() {
        let rewrap: Option<(fn(Vec<Stmt>) -> Stmt, &Vec<Stmt>)> = match s {
            Async(b) => Some((Async, b)),
            Finish(b) => Some((Finish, b)),
            Future(b) => Some((Future, b)),
            _ => None,
        };
        if let Some((wrap, b)) = rewrap {
            for smaller in shrink_body(b) {
                let mut v = body.to_vec();
                v[i] = wrap(smaller);
                out.push(v);
            }
        }
    }
    out
}

/// Shrink candidates for a program, most aggressive first: drop halves of
/// a body, drop single statements, inline a task/finish/future body in
/// place of the block, and recurse into nested bodies. Every candidate
/// remains executable — `Get` indices are modulo the (possibly smaller)
/// handle environment and a `Get` in an empty environment is a no-op —
/// so the propcheck shrinker can apply these unconditionally.
pub fn shrink(prog: &Program) -> Vec<Program> {
    shrink_body(&prog.body)
        .into_iter()
        .map(|body| Program {
            body,
            locs: prog.locs,
        })
        .collect()
}

fn exec_body<C: TaskCtx>(
    ctx: &mut C,
    body: &[Stmt],
    mem: &futrace_runtime::SharedArray<u64>,
    env: &mut Vec<C::Handle<()>>,
) {
    for s in body {
        match s {
            Read(l) => {
                let _ = mem.read(ctx, *l as usize % mem.len());
            }
            Write(l, v) => {
                mem.write(ctx, *l as usize % mem.len(), *v);
            }
            Async(b) => {
                // The child captures a snapshot of the handles visible now.
                let b = b.clone();
                let mem = mem.clone();
                let mut child_env = env.clone();
                ctx.async_task(move |ctx| exec_body(ctx, &b, &mem, &mut child_env));
            }
            Finish(b) => {
                // A finish body runs in the same task: it shares the
                // parent's environment (and may extend it).
                ctx.finish(|ctx| exec_body(ctx, b, mem, env));
            }
            Future(b) => {
                let b = b.clone();
                let mem = mem.clone();
                let mut child_env = env.clone();
                let h = ctx.future(move |ctx| exec_body(ctx, &b, &mem, &mut child_env));
                env.push(h);
            }
            Get(k) => {
                if !env.is_empty() {
                    let h = env[k % env.len()].clone();
                    ctx.get(&h);
                }
            }
        }
    }
}

/// Executes a program under any task context, returning its shared memory
/// so callers can compare final states across executors (for race-free
/// programs the final state is schedule-independent).
pub fn execute<C: TaskCtx>(ctx: &mut C, prog: &Program) -> futrace_runtime::SharedArray<u64> {
    let mem = ctx.shared_array(prog.locs as usize, 0u64, "randprog.mem");
    let mut env: Vec<C::Handle<()>> = Vec::new();
    exec_body(ctx, &prog.body, &mem, &mut env);
    mem
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::detect_races;
    use futrace_baselines::ClosureDetector;
    use futrace_runtime::engine::run_analysis_live;
    use futrace_runtime::{run_serial, EventLog};

    #[test]
    fn generation_is_deterministic() {
        let p = GenParams::default();
        assert_eq!(generate(42, &p), generate(42, &p));
        assert_ne!(generate(1, &p), generate(2, &p));
    }

    #[test]
    fn execution_is_deterministic() {
        let prog = generate(7, &GenParams::default());
        let run = || {
            let mut log = EventLog::new();
            run_serial(&mut log, |ctx| execute(ctx, &prog));
            log.events
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn async_finish_only_generates_no_futures() {
        for seed in 0..20 {
            let prog = generate(seed, &GenParams::async_finish_only());
            let c = stmt_census(&prog.body);
            assert_eq!(c[4], 0, "no futures");
            assert_eq!(c[5], 0, "no gets");
        }
    }

    #[test]
    fn future_heavy_generates_futures() {
        let mut any = false;
        for seed in 0..20 {
            let c = stmt_census(&generate(seed, &GenParams::future_heavy()).body);
            if c[4] > 0 {
                any = true;
            }
        }
        assert!(any, "future-heavy params must produce futures");
    }

    #[test]
    fn nontree_heavy_generates_deep_gets_and_chains() {
        // The knobs must actually bias the population: across a seed
        // sweep, nontree-heavy programs carry more gets than the plain
        // future-heavy preset, and linked futures (a Future whose body
        // starts with a Get) appear.
        fn has_linked_future(body: &[Stmt]) -> bool {
            body.iter().any(|s| match s {
                Future(b) => matches!(b.first(), Some(Get(_))) || has_linked_future(b),
                Async(b) | Finish(b) => has_linked_future(b),
                _ => false,
            })
        }
        let (mut nt_gets, mut fh_gets, mut chains) = (0u64, 0u64, 0u64);
        for seed in 0..60u64 {
            let nt = generate(seed, &GenParams::nontree_heavy());
            nt_gets += stmt_census(&nt.body)[5];
            fh_gets += stmt_census(&generate(seed, &GenParams::future_heavy()).body)[5];
            if has_linked_future(&nt.body) {
                chains += 1;
            }
        }
        assert!(
            nt_gets > fh_gets,
            "deep_get_bonus biases gets: {nt_gets} vs {fh_gets}"
        );
        assert!(chains > 10, "link_pct produces future chains: {chains}/60");
    }

    #[test]
    fn zero_knobs_preserve_generator_streams() {
        // deep_get_bonus = 0 / link_pct = 0 must not consume randomness,
        // so the zero-knob presets keep their historical streams — the
        // fixed-seed suites across the workspace replay those. Golden
        // values captured from the pre-knob generator.
        let d = generate(42, &GenParams::default());
        assert_eq!(stmt_census(&d.body), [32, 19, 7, 3, 15, 21]);
        assert_eq!(d.locs, 3);

        let fh = generate(7, &GenParams::future_heavy());
        assert_eq!(
            fh,
            Program {
                body: vec![Write(2, 7880630202246103356)],
                locs: 4
            }
        );
    }

    #[test]
    fn shrink_candidates_are_smaller_and_executable() {
        let count = |prog: &Program| stmt_census(&prog.body).iter().sum::<u64>();
        let mut produced = 0usize;
        for seed in 0..20u64 {
            let prog = generate(seed, &GenParams::nontree_heavy());
            for cand in shrink(&prog) {
                produced += 1;
                assert!(
                    count(&cand) < count(&prog),
                    "candidate not smaller: {cand:?} vs {prog:?}"
                );
                // Executable: no panics, no impossible joins.
                let mut log = EventLog::new();
                run_serial(&mut log, |ctx| {
                    execute(ctx, &cand);
                });
            }
        }
        assert!(produced > 0, "shrinker produced no candidates");
    }

    #[test]
    fn shrink_inlines_block_bodies() {
        // [Future [Write, Read]] must offer the spliced [Write, Read]
        // (plus the empty and recursively-shrunk variants).
        let prog = Program {
            body: vec![Future(vec![Write(0, 1), Read(1)])],
            locs: 2,
        };
        let candidates = shrink(&prog);
        assert!(
            candidates
                .iter()
                .any(|c| c.body == vec![Write(0, 1), Read(1)]),
            "splice candidate missing: {candidates:?}"
        );
        assert!(candidates.iter().any(|c| c.body.is_empty()));
    }

    #[test]
    fn detector_agrees_with_oracle_on_a_seed_sweep() {
        // A quick deterministic slice of the big property test in tests/.
        for seed in 0..60u64 {
            let prog = generate(seed, &GenParams::default());
            let report = detect_races(|ctx| {
                execute(ctx, &prog);
            });
            let oracle = run_analysis_live(
                |ctx| {
                    execute(ctx, &prog);
                },
                ClosureDetector::new(),
            )
            .report;
            assert_eq!(
                report.has_races(),
                oracle.has_races(),
                "seed {seed}: detector={} oracle={} prog={prog:?}",
                report.has_races(),
                oracle.has_races()
            );
        }
    }
}
