//! Shim for `rand` 0.8: the [`Rng`] trait (`gen`, `gen_range`, `gen_bool`),
//! the [`RngCore`]/[`SeedableRng`] core traits and `seq::SliceRandom`
//! (`choose`, `shuffle`). Uniform range sampling uses rejection sampling so
//! distributions are unbiased, though not bit-compatible with the real crate.

#![forbid(unsafe_code)]

/// Core RNG interface: a source of uniformly distributed 64-bit words.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Deterministic construction of an RNG from a seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that can be sampled uniformly from the full value domain by
/// [`Rng::gen`].
pub trait Standard: Sized {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

/// Integer types uniform-sampleable over half-open/inclusive ranges.
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform draw from `[low, high)`; `low < high` must hold.
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
    /// `self + 1`, saturating; used to turn `..=hi` into an exclusive bound.
    fn successor(self) -> Self;
}

macro_rules! impl_sample_uniform {
    ($($ty:ty),*) => {$(
        impl SampleUniform for $ty {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                let span = (high as u64).wrapping_sub(low as u64);
                debug_assert!(span > 0, "empty sample range");
                // Rejection sampling to avoid modulo bias.
                let zone = u64::MAX - (u64::MAX % span);
                loop {
                    let draw = rng.next_u64();
                    if draw < zone {
                        return low.wrapping_add((draw % span) as $ty);
                    }
                }
            }
            fn successor(self) -> Self {
                self.saturating_add(1)
            }
        }
    )*};
}

impl_sample_uniform!(u8, u16, u32, u64, usize);

/// Range argument accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "cannot sample empty range");
        T::sample_range(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (low, high) = self.into_inner();
        assert!(low <= high, "cannot sample empty range");
        T::sample_range(rng, low, high.successor())
    }
}

/// User-facing RNG interface, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a value uniformly over the type's full domain.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Draws a value uniformly from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// Draws `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        <f64 as Standard>::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod seq {
    //! Sequence sampling helpers (`SliceRandom`).

    use super::{Rng, RngCore};

    /// Random selection and shuffling over slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;
        /// A uniformly random element, or `None` for an empty slice.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
        /// Fisher-Yates shuffle in place.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.gen_range(0..=i));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::seq::SliceRandom;
    use super::*;

    struct Counter(u64);
    impl RngCore for Counter {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Counter(42);
        for _ in 0..1000 {
            let x: u32 = rng.gen_range(3..10);
            assert!((3..10).contains(&x));
            let y: usize = rng.gen_range(0..=4);
            assert!(y <= 4);
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_bool_respects_extremes() {
        let mut rng = Counter(1);
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn slice_helpers() {
        let mut rng = Counter(7);
        let v = [1, 2, 3];
        assert!(v.choose(&mut rng).is_some());
        let empty: [i32; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
        let mut w: Vec<u32> = (0..50).collect();
        w.shuffle(&mut rng);
        let mut sorted = w.clone();
        sorted.sort();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
