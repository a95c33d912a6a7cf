//! A minimal in-tree property-testing framework — seeded generation,
//! configurable case counts, and deterministic shrinking — replacing the
//! external `proptest` dependency so the whole workspace builds offline.
//!
//! # Model
//!
//! A [`Strategy`] produces values in two stages: it *generates* an internal
//! representation ([`Strategy::Repr`]) from a seeded [`Rng`], and then
//! *realizes* the value the property actually sees ([`Strategy::Value`]).
//! Shrinking operates on the representation, so mapped strategies (e.g.
//! "random char soup, repaired into a balanced bracket string") shrink at
//! the source and re-map — the same integrated-shrinking structure proptest
//! uses, in miniature.
//!
//! # Determinism and replay
//!
//! Every case's seed is derived from a fixed base seed via splitmix64, so a
//! run is bit-for-bit reproducible. On failure, [`check`] panics with the
//! *minimal* shrunk counterexample and the exact case seed; re-running with
//! `FUTRACE_PROPCHECK_SEED=<that seed>` replays only that case (generation,
//! failure, and shrink all included). `FUTRACE_PROPCHECK_CASES` overrides
//! the case count globally.
//!
//! # Example
//!
//! ```
//! use futrace_util::propcheck::{self, strategies, Config};
//!
//! // Addition of small numbers is commutative.
//! propcheck::check(
//!     &Config::default(),
//!     &strategies::tuple2(strategies::u64_range(0..1000), strategies::u64_range(0..1000)),
//!     |(a, b)| assert_eq!(a + b, b + a),
//! );
//! ```

use crate::rng::{splitmix64, Rng};
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// How a property check runs: case count, shrink budget, base seed.
#[derive(Clone, Debug)]
pub struct Config {
    /// Number of random cases to generate (proptest's default was 256; we
    /// keep the same floor so ported suites never run fewer cases).
    pub cases: u32,
    /// Upper bound on shrink candidate evaluations after a failure.
    pub max_shrink_steps: u32,
    /// Base seed from which all case seeds are derived.
    pub seed: u64,
    /// Human-readable suite name appended to the replay invocation in the
    /// failure message (e.g. `cargo test -p futrace equivalence` or
    /// `tracetool fuzz`), so the panic line is copy-pasteable as-is.
    pub suite: Option<&'static str>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: 256,
            max_shrink_steps: 8192,
            seed: 0xF07_7ACE,
            suite: None,
        }
    }
}

impl Config {
    /// A config running `cases` cases (other fields default).
    pub fn with_cases(cases: u32) -> Self {
        Config {
            cases,
            ..Config::default()
        }
    }

    /// A config naming the suite whose invocation replays a failure
    /// (other fields default).
    pub fn named(suite: &'static str) -> Self {
        Config {
            suite: Some(suite),
            ..Config::default()
        }
    }

    /// Same config with `cases` cases.
    pub fn cases(self, cases: u32) -> Self {
        Config { cases, ..self }
    }

    /// The exact command line (environment variable plus suite invocation,
    /// when known) that replays the failing case with this seed.
    pub(crate) fn replay_invocation(&self, seed: u64) -> String {
        match self.suite {
            Some(suite) => format!("FUTRACE_PROPCHECK_SEED={seed:#x} {suite}"),
            None => format!("FUTRACE_PROPCHECK_SEED={seed:#x}"),
        }
    }
}

/// A generator of test values with deterministic shrinking. See the module
/// docs for the Repr/Value split.
pub trait Strategy {
    /// Internal representation: what is generated and shrunk.
    type Repr: Clone + Debug;
    /// What the property function receives (via [`Strategy::realize`]).
    type Value;

    /// Generates a representation from the RNG.
    fn generate(&self, rng: &mut Rng) -> Self::Repr;

    /// Maps a representation to the value under test.
    fn realize(&self, repr: &Self::Repr) -> Self::Value;

    /// Proposes smaller representations, most aggressive first. The runner
    /// keeps any candidate on which the property still fails.
    fn shrink(&self, _repr: &Self::Repr) -> Vec<Self::Repr> {
        Vec::new()
    }
}

/// A failed property: the minimal counterexample found plus everything
/// needed to replay it.
#[derive(Clone, Debug)]
pub struct Failure<R> {
    /// Seed of the failing case — `FUTRACE_PROPCHECK_SEED=<seed>` replays it.
    pub seed: u64,
    /// Zero-based index of the failing case in this run.
    pub case: u32,
    /// Number of shrink candidates evaluated.
    pub shrink_steps: u32,
    /// Minimal failing representation.
    pub repr: R,
    /// Panic message of the minimal failing run.
    pub message: String,
}

/// The text a caught panic carried (`panic!` with a literal or a format
/// string), or a placeholder for any other payload.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Derives the seed of case `i` from the base seed.
fn case_seed(base: u64, i: u32) -> u64 {
    let mut state = base ^ (u64::from(i)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut state)
}

/// Runs the property on one realized value, capturing panics.
fn run_case<S, P>(strategy: &S, repr: &S::Repr, prop: &P) -> Result<(), String>
where
    S: Strategy,
    P: Fn(S::Value),
{
    let value = strategy.realize(repr);
    catch_unwind(AssertUnwindSafe(|| prop(value))).map_err(panic_message)
}

/// Like [`check`], but returns the failure instead of panicking — used by
/// the framework's own tests and available for callers that want to
/// inspect counterexamples programmatically.
pub fn check_silent<S, P>(config: &Config, strategy: &S, prop: P) -> Option<Failure<S::Repr>>
where
    S: Strategy,
    P: Fn(S::Value),
{
    let replay = std::env::var("FUTRACE_PROPCHECK_SEED").ok().and_then(|v| {
        let v = v.trim();
        if let Some(hex) = v.strip_prefix("0x") {
            u64::from_str_radix(hex, 16).ok()
        } else {
            v.parse().ok()
        }
    });
    let cases = std::env::var("FUTRACE_PROPCHECK_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(config.cases);

    let seeds: Vec<(u32, u64)> = match replay {
        // Replay mode: exactly the one requested case.
        Some(seed) => vec![(0, seed)],
        None => (0..cases).map(|i| (i, case_seed(config.seed, i))).collect(),
    };

    for (case, seed) in seeds {
        let mut rng = Rng::seeded(seed);
        let repr = strategy.generate(&mut rng);
        if let Err(first_message) = run_case(strategy, &repr, &prop) {
            let (repr, message, shrink_steps) =
                shrink_failure(config, strategy, repr, first_message, &prop);
            return Some(Failure {
                seed,
                case,
                shrink_steps,
                repr,
                message,
            });
        }
    }
    None
}

fn shrink_failure<S, P>(
    config: &Config,
    strategy: &S,
    mut repr: S::Repr,
    mut message: String,
    prop: &P,
) -> (S::Repr, String, u32)
where
    S: Strategy,
    P: Fn(S::Value),
{
    let mut steps = 0u32;
    'outer: loop {
        for candidate in strategy.shrink(&repr) {
            if steps >= config.max_shrink_steps {
                break 'outer;
            }
            steps += 1;
            if let Err(m) = run_case(strategy, &candidate, prop) {
                repr = candidate;
                message = m;
                continue 'outer;
            }
        }
        break; // no candidate still fails: local minimum reached
    }
    (repr, message, steps)
}

/// Checks `prop` on `config.cases` generated values; on failure, shrinks
/// to a minimal counterexample and panics with a message containing the
/// minimal value, the original assertion message, and the replay seed.
pub fn check<S, P>(config: &Config, strategy: &S, prop: P)
where
    S: Strategy,
    P: Fn(S::Value),
{
    if let Some(f) = check_silent(config, strategy, prop) {
        panic!(
            "propcheck: property failed (case {}/{}, {} shrink steps)\n  \
             minimal counterexample: {:?}\n  \
             failure: {}\n  \
             replay with: {}",
            f.case + 1,
            config.cases,
            f.shrink_steps,
            f.repr,
            f.message,
            config.replay_invocation(f.seed),
        );
    }
}

/// Built-in strategies and combinators.
pub mod strategies {
    use super::Strategy;
    use crate::rng::Rng;
    use std::marker::PhantomData;
    use std::ops::Range;

    /// Integer shrink candidates: toward zero (or the range start).
    fn shrink_toward(lo: u64, v: u64) -> Vec<u64> {
        let mut out = Vec::new();
        if v > lo {
            out.push(lo);
            let mid = lo + (v - lo) / 2;
            if mid != lo && mid != v {
                out.push(mid);
            }
            out.push(v - 1);
        }
        out.dedup();
        out
    }

    /// Any `u64` (full range), shrinking toward 0.
    pub struct AnyU64;

    impl Strategy for AnyU64 {
        type Repr = u64;
        type Value = u64;
        fn generate(&self, rng: &mut Rng) -> u64 {
            rng.next_u64()
        }
        fn realize(&self, r: &u64) -> u64 {
            *r
        }
        fn shrink(&self, r: &u64) -> Vec<u64> {
            shrink_toward(0, *r)
        }
    }

    /// Any `u64`, shrinking toward 0.
    pub fn any_u64() -> AnyU64 {
        AnyU64
    }

    /// Uniform integer in a half-open range, shrinking toward the start.
    pub struct IntRange<T> {
        lo: u64,
        hi: u64,
        _marker: PhantomData<T>,
    }

    macro_rules! impl_int_range_strategy {
        ($($fn_name:ident, $t:ty);*) => {$(
            /// Uniform value in `range`, shrinking toward `range.start`.
            pub fn $fn_name(range: Range<$t>) -> IntRange<$t> {
                assert!(range.start < range.end, "empty range");
                IntRange { lo: range.start as u64, hi: range.end as u64, _marker: PhantomData }
            }

            impl Strategy for IntRange<$t> {
                type Repr = $t;
                type Value = $t;
                fn generate(&self, rng: &mut Rng) -> $t {
                    rng.gen_range(self.lo..self.hi) as $t
                }
                fn realize(&self, r: &$t) -> $t {
                    *r
                }
                fn shrink(&self, r: &$t) -> Vec<$t> {
                    shrink_toward(self.lo, *r as u64)
                        .into_iter()
                        .map(|v| v as $t)
                        .collect()
                }
            }
        )*};
    }

    impl_int_range_strategy!(
        u8_range, u8;
        u16_range, u16;
        u32_range, u32;
        u64_range, u64;
        usize_range, usize
    );

    /// Vectors of `elem` values with length in `[min_len, max_len)`.
    ///
    /// Shrinks by dropping the back half, dropping single elements, and
    /// shrinking individual elements (one replacement per position per
    /// round), never going below `min_len`.
    pub struct VecOf<S> {
        elem: S,
        min_len: usize,
        max_len: usize,
    }

    /// Vector strategy over `elem` with `len ∈ [min_len, max_len)`.
    pub fn vec_of<S: Strategy>(elem: S, min_len: usize, max_len: usize) -> VecOf<S> {
        assert!(min_len < max_len, "empty length range");
        VecOf {
            elem,
            min_len,
            max_len,
        }
    }

    impl<S: Strategy> Strategy for VecOf<S> {
        type Repr = Vec<S::Repr>;
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut Rng) -> Vec<S::Repr> {
            let len = rng.gen_range(self.min_len..self.max_len);
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }

        fn realize(&self, r: &Vec<S::Repr>) -> Vec<S::Value> {
            r.iter().map(|e| self.elem.realize(e)).collect()
        }

        fn shrink(&self, r: &Vec<S::Repr>) -> Vec<Vec<S::Repr>> {
            let mut out = Vec::new();
            let n = r.len();
            // Drop the back half, then the front half.
            if n / 2 >= self.min_len && n >= 2 {
                out.push(r[..n / 2].to_vec());
                out.push(r[n - n / 2..].to_vec());
            }
            // Drop single elements.
            if n > self.min_len {
                for i in 0..n {
                    let mut v = r.clone();
                    v.remove(i);
                    out.push(v);
                }
            }
            // Shrink elements in place (first candidate per position).
            for i in 0..n {
                if let Some(smaller) = self.elem.shrink(&r[i]).into_iter().next() {
                    let mut v = r.clone();
                    v[i] = smaller;
                    out.push(v);
                }
            }
            out
        }
    }

    /// Maps a strategy's output through a pure function; shrinking happens
    /// on the underlying representation and re-maps.
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    /// `map(s, f)`: realize as `f(s_value)`.
    pub fn map<S, F, V>(inner: S, f: F) -> Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> V,
    {
        Map { inner, f }
    }

    impl<S, F, V> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> V,
    {
        type Repr = S::Repr;
        type Value = V;
        fn generate(&self, rng: &mut Rng) -> S::Repr {
            self.inner.generate(rng)
        }
        fn realize(&self, r: &S::Repr) -> V {
            (self.f)(self.inner.realize(r))
        }
        fn shrink(&self, r: &S::Repr) -> Vec<S::Repr> {
            self.inner.shrink(r)
        }
    }

    macro_rules! impl_tuple_strategy {
        ($fn_name:ident; $($S:ident $idx:tt),+) => {
            /// Tuple of independent strategies; shrinks one component at a
            /// time.
            #[allow(non_snake_case)]
            pub fn $fn_name<$($S: Strategy),+>($($S: $S),+) -> ($($S,)+) {
                ($($S,)+)
            }

            impl<$($S: Strategy),+> Strategy for ($($S,)+) {
                type Repr = ($($S::Repr,)+);
                type Value = ($($S::Value,)+);

                fn generate(&self, rng: &mut Rng) -> Self::Repr {
                    ($(self.$idx.generate(rng),)+)
                }

                fn realize(&self, r: &Self::Repr) -> Self::Value {
                    ($(self.$idx.realize(&r.$idx),)+)
                }

                fn shrink(&self, r: &Self::Repr) -> Vec<Self::Repr> {
                    let mut out = Vec::new();
                    $(
                        for cand in self.$idx.shrink(&r.$idx) {
                            let mut v = r.clone();
                            v.$idx = cand;
                            out.push(v);
                        }
                    )+
                    out
                }
            }
        };
    }

    impl_tuple_strategy!(tuple2; A 0, B 1);
    impl_tuple_strategy!(tuple3; A 0, B 1, C 2);
    impl_tuple_strategy!(tuple4; A 0, B 1, C 2, D 3);
}

#[cfg(test)]
mod tests {
    use super::strategies::*;
    use super::*;

    #[test]
    fn passing_property_returns_none() {
        let failure = check_silent(&Config::with_cases(64), &any_u64(), |v| {
            assert_eq!(v, v);
        });
        assert!(failure.is_none());
    }

    #[test]
    fn failing_property_reports_seed_and_minimum() {
        // v >= 1000 fails; shrinking toward 0 must land exactly on 1000.
        let cfg = Config::with_cases(64);
        let failure = check_silent(&cfg, &any_u64(), |v| {
            assert!(v < 1000, "too big: {v}");
        })
        .expect("property must fail");
        assert_eq!(failure.repr, 1000, "minimal counterexample");
        assert!(failure.message.contains("too big"));
        // The reported seed deterministically regenerates the failing case.
        let mut rng = Rng::seeded(failure.seed);
        let regenerated = any_u64().generate(&mut rng);
        assert!(regenerated >= 1000, "replay seed must reproduce a failure");
    }

    #[test]
    fn vec_shrinks_to_minimal_length() {
        // "Contains at least 3 elements" fails; minimum is any 3-vector,
        // and element shrinking takes every entry to 0.
        let cfg = Config::default();
        let failure = check_silent(&cfg, &vec_of(u32_range(0..100), 0, 40), |v| {
            assert!(v.len() < 3);
        })
        .expect("property must fail");
        assert_eq!(failure.repr.len(), 3);
        assert!(failure.repr.iter().all(|&x| x == 0));
    }

    #[test]
    fn tuple_components_shrink_independently() {
        let cfg = Config::default();
        let strat = tuple2(u32_range(0..50), u32_range(0..50));
        let failure = check_silent(&cfg, &strat, |(a, b)| {
            assert!(a + b < 30);
        })
        .expect("property must fail");
        let (a, b) = failure.repr;
        // Local minimum of a+b >= 30 under per-component shrinking: the
        // sum sits exactly on the boundary.
        assert_eq!(a + b, 30, "shrunk to the boundary, got ({a}, {b})");
    }

    /// The planted-bug shrinker self-test: bracket strings (depth-first
    /// spawn trees, as in `futrace-util::interval`'s suite) with a bug
    /// that trips whenever nesting depth reaches 3. propcheck must shrink
    /// any failure to the minimal counterexample `(((` and report a
    /// replayable seed.
    #[test]
    fn shrinker_finds_minimal_deep_nesting() {
        // Char soup repaired into a balanced-prefix bracket string —
        // the same construction as the interval-label suite.
        let brackets = map(vec_of(u8_range(0..2), 0, 120), |bits: Vec<u8>| {
            let mut depth = 0i32;
            let mut s = String::new();
            for b in bits {
                match b {
                    1 => {
                        depth += 1;
                        s.push('(');
                    }
                    _ if depth > 0 => {
                        depth -= 1;
                        s.push(')');
                    }
                    _ => {}
                }
            }
            s
        });
        let max_depth = |s: &str| {
            let mut d = 0i32;
            let mut max = 0i32;
            for c in s.chars() {
                d += if c == '(' { 1 } else { -1 };
                max = max.max(d);
            }
            max
        };
        let cfg = Config::default();
        let failure = check_silent(&cfg, &brackets, |s| {
            // Planted bug: "fails for nesting depth >= 3".
            assert!(max_depth(&s) < 3, "deep nesting: {s:?}");
        })
        .expect("the planted bug must be found within the default cases");
        // Minimal counterexample: exactly three opens, nothing else.
        assert_eq!(failure.repr, vec![1, 1, 1], "repr is the char soup");
        assert!(failure.message.contains("deep nesting"));

        // The reported seed replays the same failing case from scratch.
        let mut rng = Rng::seeded(failure.seed);
        let repr = brackets.generate(&mut rng);
        let s = brackets.realize(&repr);
        assert!(max_depth(&s) >= 3, "replayed case must still fail");
    }

    #[test]
    fn failure_message_contains_the_replay_invocation() {
        // The panic message is an operator interface: it must carry the
        // exact environment-variable invocation (with the suite name when
        // configured) so a failure can be replayed by copy-paste.
        let run = |cfg: Config| {
            let payload = catch_unwind(AssertUnwindSafe(|| {
                check(&cfg, &any_u64(), |v| assert!(v < 1000, "too big: {v}"));
            }))
            .expect_err("property must fail");
            panic_message(payload)
        };

        let msg = run(Config::named("cargo test -p futrace-util propcheck").cases(64));
        assert!(msg.starts_with("propcheck: property failed (case "), "{msg}");
        assert!(msg.contains("/64, "), "case count of the config: {msg}");
        assert!(msg.contains("minimal counterexample: 1000"), "{msg}");
        assert!(msg.contains("failure: too big: "), "{msg}");
        let replay_line = msg
            .lines()
            .find(|l| l.trim_start().starts_with("replay with: "))
            .expect("replay line present");
        assert!(
            replay_line
                .trim_start()
                .strip_prefix("replay with: FUTRACE_PROPCHECK_SEED=0x")
                .is_some_and(|rest| {
                    rest.split_once(' ').is_some_and(|(seed, suite)| {
                        u64::from_str_radix(seed, 16).is_ok()
                            && suite == "cargo test -p futrace-util propcheck"
                    })
                }),
            "replay line is `FUTRACE_PROPCHECK_SEED=<hex> <suite>`: {replay_line}"
        );

        // Without a suite name the invocation is just the env var.
        let msg = run(Config::with_cases(64));
        let replay_line = msg
            .lines()
            .find(|l| l.trim_start().starts_with("replay with: "))
            .expect("replay line present");
        let rest = replay_line
            .trim_start()
            .strip_prefix("replay with: FUTRACE_PROPCHECK_SEED=0x")
            .expect("env var prefix");
        assert!(
            u64::from_str_radix(rest.trim(), 16).is_ok(),
            "bare seed parses as hex: {replay_line}"
        );
    }

    #[test]
    fn replay_invocation_formats() {
        assert_eq!(
            Config::default().replay_invocation(0x2a),
            "FUTRACE_PROPCHECK_SEED=0x2a"
        );
        assert_eq!(
            Config::named("tracetool fuzz --programs 1").replay_invocation(7),
            "FUTRACE_PROPCHECK_SEED=0x7 tracetool fuzz --programs 1"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let collect = || {
            let seen = std::cell::RefCell::new(Vec::new());
            let failure = check_silent(&Config::with_cases(32), &any_u64(), |v| {
                seen.borrow_mut().push(v);
            });
            assert!(failure.is_none());
            seen.into_inner()
        };
        assert_eq!(collect(), collect());
    }
}
