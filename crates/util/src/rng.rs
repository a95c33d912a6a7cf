//! Deterministic random-number generation for workload generation and
//! property testing — std-only, no external crates.
//!
//! Every random workload in the repository (random programs, synthetic
//! inputs for Crypt, etc.) is generated from an explicit `u64` seed via
//! these helpers, so experiments and property-test counterexamples are
//! reproducible bit-for-bit. The generator is **xoshiro256++** seeded
//! through **splitmix64**, both fully specified here in ~30 lines of
//! integer arithmetic: the exact output streams are part of this crate's
//! contract (locked by golden-vector tests) so a counterexample seed
//! printed by [`crate::propcheck`] today replays identically on any
//! platform and after any refactor.

use std::ops::{Range, RangeInclusive};

/// One step of the splitmix64 sequence: advances `state` and returns the
/// next output. Used for seed expansion ([`Rng::seeded`]).
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The project-standard small, fast, deterministic RNG: xoshiro256++.
///
/// 256 bits of state, period 2^256 − 1, and excellent statistical quality
/// for workload generation. Not cryptographic.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates an RNG from a `u64` seed by expanding it with splitmix64
    /// (the initialization the xoshiro authors recommend; it also
    /// guarantees a nonzero state for every seed, including 0).
    pub fn seeded(seed: u64) -> Rng {
        let mut state = seed;
        Rng {
            s: [
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
            ],
        }
    }

    /// Next 64 random bits (the xoshiro256++ output function).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// A uniform value in `range`, which may be a half-open (`lo..hi`) or
    /// inclusive (`lo..=hi`) range over the unsigned integer types /
    /// `usize`, or a half-open `f64` range.
    ///
    /// # Panics
    /// Panics if the range is empty.
    #[inline]
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// Fills `buf` with random bytes (little-endian chunks of
    /// [`Rng::next_u64`]).
    pub(crate) fn fill(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rest.copy_from_slice(&bytes[..rest.len()]);
        }
    }

    /// A uniform `u64` in `[0, span)` via Lemire's multiply-shift method.
    /// The bias is at most `span / 2^64` — irrelevant for workload
    /// generation, and the method is branch-free and deterministic.
    #[inline]
    fn below(&mut self, span: u64) -> u64 {
        assert!(span > 0, "gen_range called with an empty range");
        ((self.next_u64() as u128 * span as u128) >> 64) as u64
    }
}

/// Ranges [`Rng::gen_range`] can sample from.
pub trait SampleRange {
    /// The element type produced.
    type Output;
    /// Draws one uniform sample.
    fn sample(self, rng: &mut Rng) -> Self::Output;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "gen_range called with an empty range");
                let span = (self.end - self.start) as u64;
                self.start + rng.below(span) as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range called with an empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + rng.below(span + 1) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize);

impl SampleRange for Range<f64> {
    type Output = f64;
    #[inline]
    fn sample(self, rng: &mut Rng) -> f64 {
        assert!(self.start < self.end, "gen_range called with an empty range");
        self.start + (self.end - self.start) * rng.next_f64()
    }
}

/// Creates the project-standard small, fast, deterministic RNG from a seed.
pub fn seeded(seed: u64) -> Rng {
    Rng::seeded(seed)
}

/// Fills a byte buffer deterministically from a seed (used for Crypt's
/// plaintext, mirroring JGF's pseudorandom input generation).
pub fn fill_bytes(seed: u64, buf: &mut [u8]) {
    let mut rng = seeded(seed);
    rng.fill(buf);
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Rng {
        /// Next 32 random bits (upper half of [`Rng::next_u64`]).
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }
    }

    #[test]
    fn seeded_is_deterministic() {
        let a: Vec<u32> = {
            let mut r = seeded(7);
            (0..32).map(|_| r.next_u32()).collect()
        };
        let b: Vec<u32> = {
            let mut r = seeded(7);
            (0..32).map(|_| r.next_u32()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = seeded(1);
        let mut b = seeded(2);
        let va: Vec<u32> = (0..8).map(|_| a.next_u32()).collect();
        let vb: Vec<u32> = (0..8).map(|_| b.next_u32()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn fill_bytes_deterministic() {
        let mut x = [0u8; 64];
        let mut y = [0u8; 64];
        fill_bytes(3, &mut x);
        fill_bytes(3, &mut y);
        assert_eq!(x, y);
        assert_ne!(x, [0u8; 64]);
    }

    #[test]
    fn fill_handles_non_multiple_of_eight() {
        // A 13-byte buffer must equal the prefix of a 16-byte buffer from
        // the same seed (chunked little-endian consumption).
        let mut short = [0u8; 13];
        let mut long = [0u8; 16];
        fill_bytes(9, &mut short);
        fill_bytes(9, &mut long);
        assert_eq!(short[..], long[..13]);
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = seeded(11);
        for _ in 0..2000 {
            let v = r.gen_range(3u32..17);
            assert!((3..17).contains(&v));
            let w = r.gen_range(1usize..=6);
            assert!((1..=6).contains(&w));
            let f = r.gen_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&f));
            let b = r.gen_range(0u8..4);
            assert!(b < 4);
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = seeded(5);
        assert!(!(0..100).any(|_| r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }

    // ---- Golden vectors ------------------------------------------------
    //
    // These lock the exact output streams. If any of them ever changes,
    // every recorded propcheck counterexample seed and every seeded
    // workload in EXPERIMENTS.md silently changes meaning — so a failure
    // here must be treated as a bug in the change, not in the test.

    #[test]
    fn golden_splitmix64() {
        // First outputs from state 0 and from state 42.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut s), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(&mut s), 0x06C4_5D18_8009_454F);
        let mut s = 42u64;
        assert_eq!(splitmix64(&mut s), 0xBDD7_3226_2FEB_6E95);
    }

    #[test]
    fn golden_xoshiro_from_known_state() {
        // First output for state [1, 2, 3, 4], derivable by hand:
        // rotl(s0 + s3, 23) + s0 = rotl(5, 23) + 1 = (5 << 23) + 1.
        let mut r = Rng { s: [1, 2, 3, 4] };
        assert_eq!(r.next_u64(), (5u64 << 23) + 1);
    }

    #[test]
    fn golden_seeded_streams() {
        let first4 = |seed: u64| {
            let mut r = seeded(seed);
            [r.next_u64(), r.next_u64(), r.next_u64(), r.next_u64()]
        };
        assert_eq!(
            first4(0),
            [
                0x5317_5D61_490B_23DF,
                0x61DA_6F3D_C380_D507,
                0x5C0F_DF91_EC9A_7BFC,
                0x02EE_BF8C_3BBE_5E1A,
            ]
        );
        assert_eq!(
            first4(42),
            [
                0xD076_4D4F_4476_689F,
                0x519E_4174_576F_3791,
                0xFBE0_7CFB_0C24_ED8C,
                0xB37D_9F60_0CD8_35B8,
            ]
        );
    }

    #[test]
    fn golden_fill_bytes() {
        let mut buf = [0u8; 12];
        fill_bytes(7, &mut buf);
        assert_eq!(
            buf,
            [0x3D, 0x91, 0xAE, 0x2A, 0x00, 0x1A, 0x2C, 0x0E, 0x14, 0x9E, 0x4E, 0xFA]
        );
    }
}
