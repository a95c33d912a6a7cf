//! Integer moments and tallies, percentiles and timing helpers shared by
//! the detector's instrumentation counters and the Table-2 bench harness.

use std::time::{Duration, Instant};

/// Exact moments of a stream of `u32` samples: count, sum, sum of
/// squares, min and max, all integers.
///
/// A push is a handful of integer adds and compares, with no division,
/// and [`Moments::merge`] is exact, so per-shard moments add up to the
/// serial run's bit for bit. Neither sum can overflow: a sample is below
/// 2^32 and the count below 2^64, so the sum stays below 2^96 and the sum
/// of squares below 2^128.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Moments {
    /// Number of samples.
    pub count: u64,
    /// Sum of the samples.
    pub sum: u128,
    /// Sum of the squared samples.
    pub sum_sq: u128,
    /// Smallest sample (`u32::MAX` while empty).
    pub min: u32,
    /// Largest sample (0 while empty).
    pub max: u32,
}

impl Default for Moments {
    fn default() -> Self {
        Moments {
            count: 0,
            sum: 0,
            sum_sq: 0,
            min: u32::MAX,
            max: 0,
        }
    }
}

impl Moments {
    /// Adds one sample.
    #[inline]
    pub fn push(&mut self, x: u32) {
        let x64 = u64::from(x);
        self.count += 1;
        self.sum += u128::from(x);
        self.sum_sq += u128::from(x64 * x64);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Mean of the samples (0.0 if empty — convenient for the #AvgReaders
    /// column, which is defined as an average over accesses and is zero when
    /// no access occurred).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest sample (None if empty).
    pub fn max(&self) -> Option<u32> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another stream's moments into this one (parallel reduction).
    /// Exact: the result equals pushing both streams into one accumulator.
    pub fn merge(&mut self, other: &Moments) {
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// [`Moments`] with the small samples counted per value: pushing a sample
/// below `Tally::SMALL` is one increment, where [`Moments::push`] is
/// five read-modify-writes. [`Tally::moments`] folds the counts back into
/// exact moments; larger samples go straight to them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    small: [u64; Tally::SMALL],
    large: Moments,
}

impl Tally {
    /// Samples below this are counted per value.
    pub(crate) const SMALL: usize = 4;

    /// Adds one sample.
    #[inline]
    pub fn push(&mut self, x: u32) {
        match self.small.get_mut(x as usize) {
            Some(n) => *n += 1,
            None => self.large.push(x),
        }
    }

    /// The exact moments of every sample pushed (or carried in through
    /// `From<Moments>`).
    pub fn moments(&self) -> Moments {
        let mut m = self.large;
        for (x, &n) in (0u32..).zip(&self.small) {
            if n > 0 {
                let (wide, times) = (u128::from(x), u128::from(n));
                m.merge(&Moments {
                    count: n,
                    sum: wide * times,
                    sum_sq: wide * wide * times,
                    min: x,
                    max: x,
                });
            }
        }
        m
    }
}

impl From<Moments> for Tally {
    /// A tally that continues from these moments.
    fn from(large: Moments) -> Self {
        Tally {
            small: [0; Tally::SMALL],
            large,
        }
    }
}

/// Wall-clock timer for the Seq/Racedet columns of Table 2.
pub struct Timer {
    start: Instant,
}

impl Timer {
    /// Starts timing now.
    pub fn start() -> Self {
        Timer {
            start: Instant::now(),
        }
    }

    /// Elapsed time since `start`.
    pub(crate) fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed milliseconds as `f64` (Table 2's unit).
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed().as_secs_f64() * 1e3
    }
}

/// Nearest-rank percentile over an already **sorted ascending** slice.
///
/// For `p` in `(0, 100]` the rank is `ceil(p * n / 100)` (1-indexed), so
/// the result is always an actual sample — never an interpolated value —
/// which keeps aggregate reports byte-deterministic. `p = 0` is clamped
/// to the first sample. Returns `None` on an empty slice.
///
/// Deterministic on ties by construction: equal samples are
/// indistinguishable, so any stable or unstable sort yields the same
/// value at every rank.
///
/// # Panics
///
/// Panics if `p > 100`.
pub(crate) fn nearest_rank<T: Copy>(sorted: &[T], p: u32) -> Option<T> {
    assert!(p <= 100, "percentile must be in 0..=100, got {p}");
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    // ceil(p * n / 100) without floats: exact for every n, p that fits.
    let rank = ((p as u128 * n as u128).div_ceil(100)).max(1) as usize;
    Some(sorted[rank - 1])
}

/// The p50/p90/p99 summary the corpus aggregate report uses.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentiles<T> {
    /// Median (nearest-rank).
    pub p50: T,
    /// 90th percentile (nearest-rank).
    pub p90: T,
    /// 99th percentile (nearest-rank).
    pub p99: T,
}

/// p50/p90/p99 of integer samples (sorted internally; input order is
/// irrelevant to the result). Returns `None` on an empty slice.
pub fn percentiles_u64(samples: &[u64]) -> Option<Percentiles<u64>> {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    Some(Percentiles {
        p50: nearest_rank(&sorted, 50)?,
        p90: nearest_rank(&sorted, 90)?,
        p99: nearest_rank(&sorted, 99)?,
    })
}

/// p50/p90/p99 of float samples, totally ordered via [`f64::total_cmp`]
/// (NaNs sort last rather than poisoning the sort). Returns `None` on an
/// empty slice.
pub fn percentiles_f64(samples: &[f64]) -> Option<Percentiles<f64>> {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    Some(Percentiles {
        p50: nearest_rank(&sorted, 50)?,
        p90: nearest_rank(&sorted, 90)?,
        p99: nearest_rank(&sorted, 99)?,
    })
}

/// Runs `f` a total of `reps` times and returns the mean wall-clock
/// milliseconds, mirroring the paper's "mean execution time of 10 runs
/// repeated in the same JVM instance".
pub fn mean_time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    assert!(reps > 0);
    let mut total = 0.0;
    for _ in 0..reps {
        let t = Timer::start();
        let out = f();
        total += t.elapsed_ms();
        std::hint::black_box(out);
    }
    total / reps as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Moments {
        /// Sample variance (`n-1` denominator); 0.0 with fewer than two samples.
        fn variance(&self) -> f64 {
            if self.count < 2 {
                return 0.0;
            }
            let n = self.count as f64;
            let spread = self.sum_sq as f64 - (self.sum as f64) * (self.sum as f64) / n;
            spread.max(0.0) / (n - 1.0)
        }

        /// Smallest sample (None if empty).
        fn min(&self) -> Option<u32> {
            (self.count > 0).then_some(self.min)
        }
    }

    #[test]
    fn empty_moments() {
        let m = Moments::default();
        assert_eq!(m.count, 0);
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.variance(), 0.0);
        assert!(m.min().is_none());
        assert!(m.max().is_none());
    }

    #[test]
    fn mean_min_max() {
        let mut m = Moments::default();
        for x in [2, 4, 6] {
            m.push(x);
        }
        assert_eq!((m.count, m.sum, m.sum_sq), (3, 12, 56));
        assert!((m.mean() - 4.0).abs() < 1e-12);
        assert_eq!(m.min(), Some(2));
        assert_eq!(m.max(), Some(6));
        assert!((m.variance() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn merge_matches_sequential_exactly() {
        let xs: Vec<u32> = (0..50u32).map(|i| (i * 7919) % 23).collect();
        let mut whole = Moments::default();
        for &x in &xs {
            whole.push(x);
        }
        for split in [0, 1, 20, 50] {
            let (mut left, mut right) = (Moments::default(), Moments::default());
            xs[..split].iter().for_each(|&x| left.push(x));
            xs[split..].iter().for_each(|&x| right.push(x));
            left.merge(&right);
            assert_eq!(left, whole, "split at {split}");
        }
    }

    #[test]
    fn extreme_samples_do_not_overflow() {
        let mut m = Moments::default();
        m.push(u32::MAX);
        m.push(u32::MAX);
        let big = u128::from(u32::MAX);
        assert_eq!((m.sum, m.sum_sq), (2 * big, 2 * big * big));
        assert_eq!((m.min(), m.max()), (Some(u32::MAX), Some(u32::MAX)));
    }

    #[test]
    fn tally_folds_into_the_moments_of_every_sample() {
        let xs: Vec<u32> = (0..200u32).map(|i| (i * 7919) % 9).collect();
        let (mut tally, mut moments) = (Tally::default(), Moments::default());
        for &x in &xs {
            tally.push(x);
            moments.push(x);
        }
        assert_eq!(tally.moments(), moments);
        // Continuing from restored moments is the same as never stopping.
        let mut resumed = Tally::from(tally.moments());
        let mut straight = tally.clone();
        for x in [0, 3, 4, u32::MAX] {
            resumed.push(x);
            straight.push(x);
        }
        assert_eq!(resumed.moments(), straight.moments());
        assert_eq!(Tally::default().moments(), Moments::default());
    }

    #[test]
    fn nearest_rank_matches_hand_computed_ranks() {
        // n = 5: rank(p) = ceil(5p/100) → p50→3rd, p90→5th, p99→5th.
        let sorted = [10u64, 20, 30, 40, 50];
        assert_eq!(nearest_rank(&sorted, 50), Some(30));
        assert_eq!(nearest_rank(&sorted, 90), Some(50));
        assert_eq!(nearest_rank(&sorted, 99), Some(50));
        assert_eq!(nearest_rank(&sorted, 100), Some(50));
        // p=0 clamps to the first sample instead of rank 0.
        assert_eq!(nearest_rank(&sorted, 0), Some(10));
        // Boundary exactness: p20 of 5 samples is exactly the 1st.
        assert_eq!(nearest_rank(&sorted, 20), Some(10));
        assert_eq!(nearest_rank(&sorted, 21), Some(20));
    }

    #[test]
    fn nearest_rank_single_sample_and_empty() {
        assert_eq!(nearest_rank(&[7u64], 50), Some(7));
        assert_eq!(nearest_rank(&[7u64], 99), Some(7));
        assert_eq!(nearest_rank::<u64>(&[], 50), None);
        assert!(percentiles_u64(&[]).is_none());
        assert!(percentiles_f64(&[]).is_none());
    }

    #[test]
    fn percentiles_are_actual_samples_and_order_independent() {
        let fwd: Vec<u64> = (1..=100).collect();
        let rev: Vec<u64> = (1..=100).rev().collect();
        let p = percentiles_u64(&fwd).unwrap();
        assert_eq!(p, percentiles_u64(&rev).unwrap());
        assert_eq!((p.p50, p.p90, p.p99), (50, 90, 99));
        assert!(fwd.contains(&p.p50) && fwd.contains(&p.p90) && fwd.contains(&p.p99));
    }

    #[test]
    fn percentiles_deterministic_on_ties() {
        // All-equal samples: every rank returns the same value no matter
        // how the sort permutes them.
        let samples = [4u64; 17];
        let p = percentiles_u64(&samples).unwrap();
        assert_eq!((p.p50, p.p90, p.p99), (4, 4, 4));
        let f = percentiles_f64(&[2.5; 9]).unwrap();
        assert_eq!((f.p50, f.p90, f.p99), (2.5, 2.5, 2.5));
    }

    #[test]
    fn float_percentiles_use_total_order() {
        let samples = [3.0, 1.0, f64::NAN, 2.0];
        let p = percentiles_f64(&samples).unwrap();
        // NaN sorts last under total_cmp, so the median of 4 is the 2nd.
        assert_eq!(p.p50, 2.0);
        assert!(p.p99.is_nan());
    }

    #[test]
    #[should_panic(expected = "percentile must be in 0..=100")]
    fn nearest_rank_rejects_out_of_range_p() {
        let _ = nearest_rank(&[1u64], 101);
    }

    #[test]
    fn mean_time_measures_something() {
        let ms = mean_time_ms(3, || {
            let mut s = 0u64;
            for i in 0..10_000u64 {
                s = s.wrapping_add(i * i);
            }
            s
        });
        assert!(ms >= 0.0);
        assert!(ms < 10_000.0);
    }
}
