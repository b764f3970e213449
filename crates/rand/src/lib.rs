//! Vendored stand-in for the subset of the `rand` crate used by this
//! workspace (the sandbox has no registry access, so the upstream crate
//! cannot be downloaded).
//!
//! Provided surface:
//!
//! * [`RngCore`] — raw 64-bit generator interface;
//! * [`Rng`] (re-exported as [`RngExt`]) — `random::<T>()` and
//!   `random_range(range)` convenience methods, blanket-implemented for
//!   every `RngCore`;
//! * [`SeedableRng::seed_from_u64`];
//! * [`rngs::StdRng`] — xoshiro256++ seeded through SplitMix64.
//!
//! The generator is *not* the upstream ChaCha12 `StdRng`, so absolute
//! random streams differ from the real crate; everything in this
//! repository treats seeds as opaque reproducibility handles, which this
//! shim honours: equal seeds give equal streams, forever.

#![warn(missing_docs)]

use std::ops::Range;

/// Raw generator interface: everything derives from `next_u64`.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniformly random bits (upper half of [`Self::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types that can be drawn uniformly by [`RngExt::random`].
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 random mantissa bits.
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for u64 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for bool {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges usable with [`RngExt::random_range`].
pub trait SampleRange<T> {
    /// Draws one value from the range.
    ///
    /// # Panics
    /// Panics when the range is empty.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Unbiased integer draw in `[0, bound)` via Lemire's multiply-shift
/// rejection.
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    assert!(bound > 0, "cannot sample from an empty range");
    loop {
        let x = rng.next_u64();
        let m = (x as u128) * (bound as u128);
        let lo = m as u64;
        if lo >= bound || lo >= (u64::MAX - bound + 1) % bound {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from an empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start + uniform_below(rng, span) as $t
            }
        }
    )*};
}

impl_int_range!(usize, u64, u32, u16, u8);

impl SampleRange<f64> for Range<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample from an empty range");
        let u = f64::from_rng(rng);
        self.start + (self.end - self.start) * u
    }
}

/// Marker trait used in generic bounds (`R: Rng + ?Sized`), mirroring the
/// upstream split between the core trait and the extension methods.
pub trait Rng: RngCore {}

impl<R: RngCore + ?Sized> Rng for R {}

/// Convenience methods over any [`RngCore`].
pub trait RngExt: RngCore {
    /// Draws one uniformly random `T`.
    fn random<T: Standard>(&mut self) -> T {
        T::from_rng(self)
    }

    /// Draws one value uniformly from `range`.
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// Bernoulli draw with success probability `p`.
    fn random_bool(&mut self, p: f64) -> bool {
        f64::from_rng(self) < p
    }
}

impl<R: RngCore + ?Sized> RngExt for R {}

/// Deterministic construction from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256++ (Blackman &
    /// Vigna), state expanded from the seed with SplitMix64. Fast,
    /// equidistributed in 4 dimensions, and with a 2²⁵⁶−1 period — more
    /// than enough for simulation workloads.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 state expansion, as recommended by the xoshiro
            // authors: guarantees a non-zero state for every seed.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
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
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{RngCore, RngExt, SeedableRng};

    #[test]
    fn equal_seeds_equal_streams() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert!((0..10).any(|_| a.next_u64() != b.next_u64()));
    }

    #[test]
    fn unit_floats_in_range_and_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u: f64 = rng.random();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn int_ranges_cover_and_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.random_range(0..10usize);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn float_ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..1000 {
            let v = rng.random_range(-5.0..5.0);
            assert!((-5.0..5.0).contains(&v));
        }
    }

    #[test]
    fn works_through_mut_reference() {
        fn draw<R: super::RngCore + ?Sized>(rng: &mut R) -> f64 {
            rng.random::<f64>()
        }
        let mut rng = StdRng::seed_from_u64(3);
        let direct = draw(&mut rng);
        let mut rng2 = StdRng::seed_from_u64(3);
        let via_ref = draw(&mut &mut rng2);
        assert_eq!(direct, via_ref);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = rng.random_range(5..5usize);
    }
}
