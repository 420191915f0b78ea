// Vendored offline shim (see shims/README.md): not held to workspace lint
// standards so the call-site-compatible surface can stay close to upstream.
#![allow(clippy::all)]

//! Workspace-local stand-in for the `rand` crate.
//!
//! Implements the subset the workspace uses: `RngCore`, the `Rng`
//! extension trait (`gen`, `gen_range`, `gen_bool`), `SeedableRng`
//! with `seed_from_u64`, and `rngs::StdRng` (xoshiro256++ seeded through
//! splitmix64). `StdRng::seed_from_u64` is fully deterministic, which is
//! what the workload generators and the fault plane rely on for
//! replayable runs; there is no ambient-entropy source. Numeric streams differ from the
//! real rand crate; all in-repo consumers only require determinism and
//! reasonable uniformity, not stream compatibility.

use std::ops::{Range, RangeInclusive};

// ---------------------------------------------------------------------------
// Core traits
// ---------------------------------------------------------------------------

pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Extension methods; blanket-implemented for every `RngCore`.
pub trait Rng: RngCore {
    fn gen<T>(&mut self) -> T
    where
        distributions::Standard: distributions::Distribution<T>,
        Self: Sized,
    {
        distributions::Distribution::sample(&distributions::Standard, self)
    }

    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample_single(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        debug_assert!((0.0..=1.0).contains(&p), "gen_bool p out of range: {p}");
        uniform_f64(self.next_u64()) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

// ---------------------------------------------------------------------------
// Distributions (only Standard, for `gen::<f64>()`)
// ---------------------------------------------------------------------------

pub mod distributions {
    use super::{uniform_f64, RngCore};

    pub trait Distribution<T> {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
    }

    pub struct Standard;

    impl Distribution<f64> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
            uniform_f64(rng.next_u64())
        }
    }
}

/// Uniform f64 in [0, 1) from the high 53 bits of a u64.
fn uniform_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

// ---------------------------------------------------------------------------
// Ranges for gen_range
// ---------------------------------------------------------------------------

pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Types `gen_range` can sample uniformly. The single generic
/// `SampleRange` impl below unifies the range's element type with the
/// expected output type, so untyped literals like `0..40` infer from
/// context exactly as they do with the real crate.
pub trait SampleUniform: Copy + PartialOrd {
    /// Sample from `[lo, hi)`; caller guarantees `lo < hi`.
    fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
    /// Sample from `[lo, hi]`; caller guarantees `lo <= hi`.
    fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
}

macro_rules! int_sample_uniform {
    ($($t:ty),* $(,)?) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                let span = (hi as u64).wrapping_sub(lo as u64);
                lo.wrapping_add(bounded_u64(rng, span) as $t)
            }

            fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                let span = (hi as u64).wrapping_sub(lo as u64);
                if span == u64::MAX {
                    return lo.wrapping_add(rng.next_u64() as $t);
                }
                lo.wrapping_add(bounded_u64(rng, span + 1) as $t)
            }
        }
    )*};
}

int_sample_uniform!(u8, u32, u64, usize, i32, i64);

impl SampleUniform for f64 {
    fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
        lo + uniform_f64(rng.next_u64()) * (hi - lo)
    }

    fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
        lo + uniform_f64(rng.next_u64()) * (hi - lo)
    }
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "gen_range: empty range");
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (start, end) = (*self.start(), *self.end());
        assert!(start <= end, "gen_range: empty range");
        T::sample_inclusive(start, end, rng)
    }
}

/// Unbiased sample from [0, bound) via Lemire-style rejection.
fn bounded_u64<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    if bound.is_power_of_two() {
        return rng.next_u64() & (bound - 1);
    }
    let threshold = bound.wrapping_neg() % bound;
    loop {
        let r = rng.next_u64();
        let hi = ((r as u128 * bound as u128) >> 64) as u64;
        let lo = r.wrapping_mul(bound);
        if lo >= threshold {
            return hi;
        }
    }
}

// ---------------------------------------------------------------------------
// StdRng (xoshiro256++)
// ---------------------------------------------------------------------------

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic PRNG: xoshiro256++ with splitmix64 seed expansion.
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut state = seed;
            let mut s = [0u64; 4];
            for slot in &mut s {
                *slot = splitmix64(&mut state);
            }
            // xoshiro must not start from the all-zero state.
            if s == [0, 0, 0, 0] {
                s[0] = 0x9e37_79b9_7f4a_7c15;
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0]
                .wrapping_add(s[3])
                .rotate_left(23)
                .wrapping_add(s[0]);
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
    use super::*;

    #[test]
    fn std_rng_is_deterministic() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v: usize = rng.gen_range(0..5);
            assert!(v < 5);
            let w: i64 = rng.gen_range(-3..=3);
            assert!((-3..=3).contains(&w));
            let f: f64 = rng.gen_range(-0.01..0.01);
            assert!((-0.01..0.01).contains(&f));
        }
    }

    #[test]
    fn gen_f64_uniform_ish() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean was {mean}");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(13);
        let hits = (0..20_000).filter(|_| rng.gen_bool(0.25)).count();
        let frac = hits as f64 / 20_000.0;
        assert!((frac - 0.25).abs() < 0.02, "frac was {frac}");
    }
}
