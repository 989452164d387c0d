//! Offline drop-in subset of the `rand` crate.
//!
//! The workspace builds in environments with no access to crates.io, so this
//! vendored stub provides exactly the API surface the workspace uses:
//! [`rngs::StdRng`], [`SeedableRng::seed_from_u64`], [`Rng::gen_range`] over
//! integer ranges, and [`Rng::gen_bool`].
//!
//! The generator is SplitMix64 — statistically solid for simulation and test
//! workloads and deterministic in the seed, which is all the workspace
//! requires (seeds pin traces, not specific upstream `rand` streams).

/// A low-level source of random 64-bit words.
pub trait RngCore {
    /// Returns the next pseudo-random `u64`.
    fn next_u64(&mut self) -> u64;
}

/// Construction of a generator from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Creates a generator whose output is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// User-facing sampling helpers, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Samples uniformly from an integer range (`a..b` or `a..=b`).
    ///
    /// # Panics
    ///
    /// Panics when the range is empty.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p out of [0, 1]: {p}");
        // 53 uniform mantissa bits in [0, 1); strictly below 1.0, so p = 1.0
        // always succeeds and p = 0.0 never does.
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }
}

impl<R: RngCore> Rng for R {}

/// A range that can be sampled uniformly.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_single<R: RngCore>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for ::core::ops::Range<$t> {
            fn sample_single<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as u128).wrapping_sub(self.start as u128);
                self.start + (rng.next_u64() as u128 % span) as $t
            }
        }
        impl SampleRange<$t> for ::core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "gen_range: empty range");
                let span = (end as u128) - (start as u128) + 1;
                start + (rng.next_u64() as u128 % span) as $t
            }
        }
    )*};
}

impl_sample_range!(u8, u16, u32, u64, usize);

/// The generators shipped by this stub.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The standard seeded generator: SplitMix64.
    ///
    /// Deterministic in the seed; not cryptographically secure (neither is
    /// upstream `StdRng` a stability guarantee — only determinism is).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng { state: seed }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_in_the_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0..1_000_000u64), b.gen_range(0..1_000_000u64));
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x = rng.gen_range(3..17usize);
            assert!((3..17).contains(&x));
            let y = rng.gen_range(5..=5u32);
            assert_eq!(y, 5);
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            assert!(rng.gen_bool(1.0));
            assert!(!rng.gen_bool(0.0));
        }
    }

    #[test]
    fn gen_bool_is_roughly_fair() {
        let mut rng = StdRng::seed_from_u64(3);
        let heads = (0..10_000).filter(|_| rng.gen_bool(0.5)).count();
        assert!((4_000..6_000).contains(&heads), "heads = {heads}");
    }
}
