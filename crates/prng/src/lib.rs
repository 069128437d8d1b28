#![warn(missing_docs)]

//! # subwarp-prng — deterministic pseudo-random number generation
//!
//! A minimal, dependency-free xoshiro256++ generator with SplitMix64
//! seeding, used wherever the reproduction needs reproducible randomness:
//! scene soups, suite trace profiles, megakernel scatter directions, and
//! the differential fuzzer's program generator.
//!
//! The API mirrors the subset of `rand`'s `SmallRng` the codebase uses
//! (`seed_from_u64`, `gen_range` over float and integer ranges), so call
//! sites read identically while the workspace stays fully offline-buildable.
//!
//! ```
//! use subwarp_prng::SmallRng;
//!
//! let mut rng = SmallRng::seed_from_u64(7);
//! let x = rng.gen_range(-4.0..4.0f32);
//! assert!((-4.0..4.0).contains(&x));
//! let n = rng.gen_range(0..10u32);
//! assert!(n < 10);
//! // Deterministic: the same seed replays the same stream.
//! assert_eq!(SmallRng::seed_from_u64(7).next_u64(), SmallRng::seed_from_u64(7).next_u64());
//! ```

use std::ops::{Range, RangeInclusive};

/// SplitMix64 step — used to expand a 64-bit seed into generator state.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small, fast xoshiro256++ generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    /// Builds a generator whose state is expanded from `seed` via SplitMix64.
    pub fn seed_from_u64(seed: u64) -> SmallRng {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SmallRng { s }
    }

    /// The next 64 random bits (xoshiro256++).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform `f32` in `[0, 1)`.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// A uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform sample from `range` (`lo..hi` or `lo..=hi`).
    ///
    /// # Panics
    /// Panics if the range is empty.
    #[inline]
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// A uniform `bool`.
    #[inline]
    pub fn gen_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// Range types [`SmallRng::gen_range`] can sample from.
///
/// The sampled type is a trait *parameter* (not an associated type) so the
/// calling context can pin `T` first and float literals in the range then
/// infer it — matching how `rand`'s `gen_range` reads at call sites.
pub trait SampleRange<T> {
    /// Draws one uniform sample.
    fn sample(self, rng: &mut SmallRng) -> T;
}

impl SampleRange<f32> for Range<f32> {
    #[inline]
    fn sample(self, rng: &mut SmallRng) -> f32 {
        assert!(self.start < self.end, "empty range {:?}", self);
        self.start + rng.next_f32() * (self.end - self.start)
    }
}

impl SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample(self, rng: &mut SmallRng) -> f64 {
        assert!(self.start < self.end, "empty range {:?}", self);
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample(self, rng: &mut SmallRng) -> $t {
                assert!(self.start < self.end, "empty range {:?}", self);
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = (rng.next_u64() as u128 % span) as i128;
                (self.start as i128 + off) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample(self, rng: &mut SmallRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range {lo}..={hi}");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let off = (rng.next_u64() as u128 % span) as i128;
                (lo as i128 + off) as $t
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SmallRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn float_ranges_stay_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = rng.gen_range(-4.0..4.0f32);
            assert!((-4.0..4.0).contains(&x));
            let y = rng.gen_range(0.5..3.0f32);
            assert!((0.5..3.0).contains(&y));
        }
    }

    #[test]
    fn int_ranges_cover_and_stay_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let n = rng.gen_range(0..10u32);
            seen[n as usize] = true;
            let m = rng.gen_range(3..=7usize);
            assert!((3..=7).contains(&m));
            let s = rng.gen_range(-5..5i64);
            assert!((-5..5).contains(&s));
        }
        assert!(seen.iter().all(|&b| b), "all buckets hit: {seen:?}");
    }

    #[test]
    fn rough_uniformity() {
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
