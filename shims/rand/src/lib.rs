//! Offline shim of the `rand 0.8` API surface used by this workspace.
//!
//! The build environment cannot reach crates.io, so this crate stands in
//! for the real `rand`: same trait names, same call signatures, simpler
//! internals. Streams are deterministic per seed but are **not**
//! bit-compatible with upstream `rand` — nothing in the workspace depends
//! on upstream streams, only on determinism.
//!
//! What is frozen is this shim's own mapping from words to values: every
//! generated dataset, sampler fingerprint and co-simulation golden in the
//! workspace hangs off it. [`distributions::WeightedIndex`] is the one
//! distribution with a data structure behind it — a guide table over the
//! cumulative weights that returns, word for word, the index a binary
//! search for "first cumulative weight above the target" returns.

pub mod distributions;
pub mod seq;

pub use distributions::{Distribution, Standard};

/// The core RNG interface: a source of uniformly random 64-bit words.
pub trait RngCore {
    /// Returns the next random `u64`.
    fn next_u64(&mut self) -> u64;

    /// Returns the next random `u32` (upper half of a `u64` draw).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Returns the next random `u128`: two `u64` draws, the first in the
    /// high half. Generators that buffer their output override this to
    /// read both halves at once; the value must stay the same.
    fn next_u128(&mut self) -> u128 {
        u128::from(self.next_u64()) << 64 | u128::from(self.next_u64())
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let word = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&word[..rem.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }

    fn next_u128(&mut self) -> u128 {
        (**self).next_u128()
    }
}

/// An RNG constructible from a fixed-size seed.
pub trait SeedableRng: Sized {
    /// The seed byte array type.
    type Seed: Default + AsMut<[u8]>;

    /// Builds the RNG from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the RNG from a `u64`, expanding it with SplitMix64 (the
    /// same expansion upstream `rand` uses).
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let bytes = z.to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&bytes[..n]);
        }
        Self::from_seed(seed)
    }
}

/// Ranges that `Rng::gen_range` accepts.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let draw = rng.next_u128() % span;
                (self.start as i128 + draw as i128) as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let span = (end as i128 - start as i128) as u128 + 1;
                let draw = rng.next_u128() % span;
                (start as i128 + draw as i128) as $t
            }
        }
    )*};
}
int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let unit: $t = Standard.sample(rng);
                self.start + (self.end - self.start) * unit
            }
        }
    )*};
}
float_sample_range!(f32, f64);

/// Convenience methods over any [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a value from the [`Standard`] distribution.
    fn gen<T>(&mut self) -> T
    where
        Standard: Distribution<T>,
    {
        Standard.sample(self)
    }

    /// Draws uniformly from `range` (half-open or inclusive).
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p must be in [0, 1]");
        self.gen::<f64>() < p
    }

    /// Draws a value from `distr`.
    fn sample<T, D: Distribution<T>>(&mut self, distr: D) -> T {
        distr.sample(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::*;

    struct Lcg(u64);
    impl RngCore for Lcg {
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
        let mut rng = Lcg(42);
        for _ in 0..1000 {
            let v: usize = rng.gen_range(3..17);
            assert!((3..17).contains(&v));
            let w: i64 = rng.gen_range(-5..=5);
            assert!((-5..=5).contains(&w));
            let f: f64 = rng.gen_range(0.7..1.3);
            assert!((0.7..1.3).contains(&f));
        }
    }

    #[test]
    fn unit_floats_in_unit_interval() {
        let mut rng = Lcg(7);
        for _ in 0..1000 {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
            let g: f32 = rng.gen();
            assert!((0.0..1.0).contains(&g));
        }
    }

    /// Answers `next_u128` from a side channel, so a caller that reaches
    /// the override is told apart from one that pairs up `next_u64`s.
    struct Marked(Lcg);
    impl RngCore for Marked {
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
        fn next_u128(&mut self) -> u128 {
            7
        }
    }

    #[test]
    fn next_u128_defaults_to_two_u64s_high_half_first() {
        let (mut a, mut b) = (Lcg(5), Lcg(5));
        for _ in 0..100 {
            let expect = u128::from(b.next_u64()) << 64 | u128::from(b.next_u64());
            assert_eq!(a.next_u128(), expect);
        }
    }

    #[test]
    fn next_u128_override_is_reached_through_mut_refs_and_gen_range() {
        fn through<R: RngCore>(mut rng: R) -> (u128, usize) {
            (rng.next_u128(), rng.gen_range(10..=12usize))
        }
        let mut rng = Marked(Lcg(1));
        assert_eq!(through(&mut rng), (7, 10 + 7 % 3));
        assert_eq!(through(&mut &mut rng), (7, 10 + 7 % 3));
        assert_eq!(rng.gen_range(0..5u32), 7 % 5);
        assert_eq!(rng.gen::<u128>(), 7);
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = Lcg(1);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }
}
