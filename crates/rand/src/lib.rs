//! Offline stand-in for the [`rand`](https://crates.io/crates/rand) crate.
//!
//! The build environment has no network access to a crates registry, so the
//! workspace vendors this minimal, dependency-free implementation of the
//! exact API surface shelfsim uses: `SmallRng` (xoshiro256++ seeded through
//! SplitMix64), the `Rng`/`SeedableRng` traits with `gen`, `gen_range`, and
//! `seq::SliceRandom::shuffle`.
//!
//! The streams are deterministic in the seed — which is all the simulator
//! requires — but do **not** bit-match the real `rand` crate. Every
//! experiment in this repository is therefore reproducible against this
//! shim, not against upstream `rand`.

pub mod rngs;
pub mod seq;

pub use rngs::SmallRng;

/// Core entropy source: everything derives from `next_u64`.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Deterministic construction from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// User-facing sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Samples a value of `T` from its standard distribution
    /// (`f64` in `[0, 1)`, uniform `bool`, full-range integers).
    #[inline]
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Samples uniformly from `range` (half-open or inclusive).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        Self: Sized,
        R: SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Standard distribution of a type (the shim's stand-in for
/// `Distribution<T> for Standard`).
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        // 53 mantissa bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for u64 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for u32 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

/// A type that can be sampled uniformly from a bounded interval (the shim's
/// stand-in for `rand::distributions::uniform::SampleUniform`).
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform draw from `[lo, hi)`.
    fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
    /// Uniform draw from `[lo, hi]`.
    fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
}

/// `x % span`, with a 64-bit division whenever `span` fits in 64 bits.
/// Only a full-range inclusive 64-bit draw (span 2^64) needs 128 bits.
#[inline]
fn reduce(x: u64, span: u128) -> u128 {
    match u64::try_from(span) {
        Ok(span) => (x % span) as u128,
        Err(_) => x as u128 % span,
    }
}

macro_rules! impl_int_sample_uniform {
    ($($t:ty),* $(,)?) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> $t {
                let span = (hi as i128 - lo as i128) as u128;
                (lo as i128 + reduce(rng.next_u64(), span) as i128) as $t
            }

            #[inline]
            fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> $t {
                let span = (hi as i128 - lo as i128) as u128 + 1;
                (lo as i128 + reduce(rng.next_u64(), span) as i128) as $t
            }
        }
    )*};
}

impl_int_sample_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    #[inline]
    fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> f64 {
        lo + f64::sample(rng) * (hi - lo)
    }

    #[inline]
    fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> f64 {
        lo + f64::sample(rng) * (hi - lo)
    }
}

/// A range that can be sampled uniformly (the shim's stand-in for
/// `rand::distributions::uniform::SampleRange`).
///
/// Implemented once over all [`SampleUniform`] types — a single generic impl
/// is what lets integer-literal ranges infer their type from the use site,
/// exactly as with the real crate.
pub trait SampleRange<T> {
    /// Draws one value in the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for core::ops::Range<T> {
    #[inline]
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "cannot sample empty range");
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for core::ops::RangeInclusive<T> {
    #[inline]
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "cannot sample empty range");
        T::sample_inclusive(lo, hi, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SmallRng::seed_from_u64(43);
        assert_ne!(SmallRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn unit_f64_stays_in_range() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..10_000 {
            let a = rng.gen_range(3u8..9);
            assert!((3..9).contains(&a));
            let b = rng.gen_range(0usize..=4);
            assert!(b <= 4);
            let c = rng.gen_range(-5i32..5);
            assert!((-5..5).contains(&c));
            let d = rng.gen_range(1.5f64..2.5);
            assert!((1.5..2.5).contains(&d));
        }
    }

    #[test]
    fn gen_range_covers_every_value() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut seen = [false; 6];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..6)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = SmallRng::seed_from_u64(0);
        let _ = rng.gen_range(5u32..5);
    }

    #[test]
    fn reduce_matches_the_128_bit_remainder() {
        let mut rng = SmallRng::seed_from_u64(9);
        let spans = [1u128, u64::MAX as u128]
            .into_iter()
            .chain((1..64).map(|k| 1u128 << k))
            .chain([3, 1000, (1u128 << 63) + 1]);
        for span in spans {
            for x in [0, 1, u64::MAX, u64::MAX - 1]
                .into_iter()
                .chain((0..64).map(|_| rng.next_u64()))
            {
                assert_eq!(reduce(x, span), x as u128 % span, "{x} % {span}");
            }
        }
    }

    #[test]
    fn full_range_inclusive_draws_return_the_raw_bits() {
        // A span of 2^64 takes the 128-bit path: every raw value is a
        // valid draw and comes back unchanged (offset from `lo`).
        let mut a = SmallRng::seed_from_u64(13);
        let mut b = a.clone();
        for _ in 0..256 {
            let raw = b.next_u64();
            assert_eq!(a.gen_range(0u64..=u64::MAX), raw);
            let raw = b.next_u64();
            assert_eq!(a.gen_range(i64::MIN..=i64::MAX), (raw as i64) ^ i64::MIN);
        }
        assert_eq!(reduce(u64::MAX, 1 << 64), u64::MAX as u128);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        use crate::seq::SliceRandom;
        let mut v: Vec<u32> = (0..100).collect();
        let mut rng = SmallRng::seed_from_u64(3);
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "a 100-element shuffle should not be identity");
    }
}
