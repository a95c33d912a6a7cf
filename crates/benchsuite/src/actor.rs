//! Actor-style request/response — per-actor state serialized by future
//! chains, with client tasks joining individual responses.
//!
//! `requests` futures target `actors` stateful actors round-robin. Each
//! request `get()`s the *previous* request to the same actor before
//! touching the actor's state cell — the future chain IS the actor's
//! mailbox ordering, so mutable state is race-free without locks. Client
//! async tasks (inside an explicit `finish`) `get()` the individual
//! request futures they care about and read the response cells. Both
//! edge kinds are sibling `get()`s — **non-tree joins** — and they
//! interleave two different join disciplines (per-actor chains crossing
//! request-to-client edges), so the DTRG reachability structure is an
//! irregular braid rather than a pipeline.
//!
//! `plant_race` drops the per-actor chain `get()`: requests to the same
//! actor then race on its state cell (read/write and write/write).

use futrace_runtime::memory::SharedArray;
use futrace_runtime::TaskCtx;

/// Problem size for the actor benchmark.
#[derive(Clone, Copy, Debug)]
pub struct ActorParams {
    /// Number of stateful actors (≥ 1).
    pub actors: usize,
    /// Number of requests, round-robin over the actors (> `actors`).
    pub requests: usize,
    /// Number of client tasks collecting responses (≥ 1).
    pub clients: usize,
    /// Per-request compute rounds (work knob).
    pub rounds: u32,
    /// Input seed.
    pub seed: u64,
}

impl ActorParams {
    /// Laptop-scale configuration.
    pub fn scaled() -> Self {
        ActorParams {
            actors: 16,
            requests: 8192,
            clients: 8,
            rounds: 8,
            seed: 0xAC70,
        }
    }

    /// Minimal configuration for unit tests.
    pub fn tiny() -> Self {
        ActorParams {
            actors: 3,
            requests: 9,
            clients: 2,
            rounds: 4,
            seed: 0xAC70,
        }
    }

    fn validate(&self) {
        assert!(self.actors >= 1 && self.clients >= 1);
        assert!(
            self.requests > self.actors,
            "every actor chain needs at least one link"
        );
    }
}

/// Request payload for request `r`.
fn payload(seed: u64, r: usize) -> u64 {
    (r as u64 ^ seed).wrapping_mul(0x2545_F491_4F6C_DD1D) | 1
}

/// The per-request kernel: fold the payload into the actor state.
fn work(mut x: u64, rounds: u32) -> u64 {
    for _ in 0..rounds {
        x = x
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(19)
            .wrapping_add(0x7F4A_7C15);
    }
    x
}

/// DSL run; returns the per-client digest array.
pub fn actor_run<C: TaskCtx>(ctx: &mut C, p: &ActorParams, plant_race: bool) -> SharedArray<u64> {
    p.validate();
    let state = ctx.shared_array(p.actors, 0u64, "actor.state");
    let resp = ctx.shared_array(p.requests, 0u64, "actor.resp");
    let out = ctx.shared_array(p.clients, 0u64, "actor.out");
    let rounds = p.rounds;
    let seed = p.seed;

    // Request futures; last[a] is the tail of actor a's mailbox chain.
    let mut handles: Vec<C::Handle<()>> = Vec::with_capacity(p.requests);
    let mut last: Vec<Option<C::Handle<()>>> = vec![None; p.actors];
    for r in 0..p.requests {
        let a = r % p.actors;
        let prev = if plant_race { None } else { last[a].clone() };
        let state = state.clone();
        let resp = resp.clone();
        let h = ctx.future(move |ctx| {
            if let Some(h) = &prev {
                ctx.get(h); // non-tree join: the actor's mailbox order
            }
            let s = state.read(ctx, a);
            let v = work(s ^ payload(seed, r), rounds);
            state.write(ctx, a, v);
            resp.write(ctx, r, v);
        });
        last[a] = Some(h.clone());
        handles.push(h);
    }

    // Clients collect their responses inside an explicit finish, so main
    // is ordered after every digest write (and, transitively through the
    // clients' gets, after every request).
    {
        let handles = &handles;
        let resp = &resp;
        let out = &out;
        ctx.finish(|ctx| {
            for c in 0..p.clients {
                let mine: Vec<(usize, C::Handle<()>)> = (c..p.requests)
                    .step_by(p.clients)
                    .map(|r| (r, handles[r].clone()))
                    .collect();
                let resp = resp.clone();
                let out = out.clone();
                ctx.async_task(move |ctx| {
                    let mut acc = 0u64;
                    for (r, h) in &mine {
                        ctx.get(h); // non-tree join: response edge
                        acc = acc.rotate_left(7) ^ resp.read(ctx, *r);
                    }
                    out.write(ctx, c, acc);
                });
            }
        });
    }
    for c in 0..p.clients {
        let _ = out.read(ctx, c); // ordered by the finish join
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::detect_races_with_stats;
    use futrace_runtime::run_parallel;

    /// Reference (serial-elision) implementation: the per-client digests.
    fn actor_seq(p: &ActorParams) -> Vec<u64> {
        p.validate();
        let mut state = vec![0u64; p.actors];
        let mut resp = vec![0u64; p.requests];
        for r in 0..p.requests {
            let a = r % p.actors;
            let v = work(state[a] ^ payload(p.seed, r), p.rounds);
            state[a] = v;
            resp[r] = v;
        }
        let mut out = vec![0u64; p.clients];
        for (r, &v) in resp.iter().enumerate() {
            let c = r % p.clients;
            out[c] = out[c].rotate_left(7) ^ v;
        }
        out
    }

    /// Expected dynamic task count: the requests plus the clients.
    fn expected_tasks(p: &ActorParams) -> u64 {
        (p.requests + p.clients) as u64
    }

    /// Expected non-tree joins: one chain edge per request after each
    /// actor's first (`requests − actors`) plus one response edge per
    /// request (`requests`).
    fn expected_nt_joins(p: &ActorParams) -> u64 {
        (p.requests - p.actors + p.requests) as u64
    }

    #[test]
    fn dsl_matches_reference_and_is_race_free() {
        let p = ActorParams::tiny();
        let want = actor_seq(&p);
        let (rep, stats) = detect_races_with_stats(|ctx| {
            let out = actor_run(ctx, &p, false);
            assert_eq!(out.snapshot(), want);
        });
        assert!(!rep.has_races());
        assert_eq!(stats.tasks, expected_tasks(&p));
        assert_eq!(stats.nt_joins(), expected_nt_joins(&p));
    }

    #[test]
    fn planted_race_is_detected() {
        let p = ActorParams::tiny();
        let (rep, _) = detect_races_with_stats(|ctx| {
            let _ = actor_run(ctx, &p, true);
        });
        assert!(
            rep.has_races(),
            "unchained requests must race on the actor state"
        );
    }

    #[test]
    fn parallel_execution_matches_reference() {
        let p = ActorParams::tiny();
        let want = actor_seq(&p);
        let got = run_parallel(4, |ctx| actor_run(ctx, &p, false).snapshot()).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn single_client_edge_case() {
        let p = ActorParams {
            actors: 2,
            requests: 5,
            clients: 1,
            rounds: 2,
            seed: 3,
        };
        let want = actor_seq(&p);
        let (rep, stats) = detect_races_with_stats(|ctx| {
            let out = actor_run(ctx, &p, false);
            assert_eq!(out.snapshot(), want);
        });
        assert!(!rep.has_races());
        assert_eq!(stats.nt_joins(), expected_nt_joins(&p));
    }
}
