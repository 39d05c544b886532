//! The `rand::distributions` subset: `Distribution`, `Standard`,
//! `WeightedIndex`.

use crate::RngCore;
use std::borrow::Borrow;

/// A distribution over values of `T`.
pub trait Distribution<T> {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
}

impl<T, D: Distribution<T> + ?Sized> Distribution<T> for &D {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T {
        (**self).sample(rng)
    }
}

/// The "natural" uniform distribution per type: full range for integers,
/// `[0, 1)` for floats, fair coin for `bool`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Standard;

macro_rules! standard_int {
    ($($t:ty),*) => {$(
        impl Distribution<$t> for Standard {
            fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Distribution<u128> for Standard {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> u128 {
        rng.next_u128()
    }
}

impl Distribution<bool> for Standard {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Distribution<f64> for Standard {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        // 53 significant bits → uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Distribution<f32> for Standard {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f32 {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Error building a [`WeightedIndex`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WeightedError {
    /// No weights were provided.
    NoItem,
    /// A weight was negative or non-finite.
    InvalidWeight,
    /// All weights are zero.
    AllWeightsZero,
}

impl std::fmt::Display for WeightedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WeightedError::NoItem => write!(f, "no weights provided"),
            WeightedError::InvalidWeight => write!(f, "negative or non-finite weight"),
            WeightedError::AllWeightsZero => write!(f, "all weights are zero"),
        }
    }
}

impl std::error::Error for WeightedError {}

/// Samples indices `0..n` proportionally to the given weights.
#[derive(Debug, Clone)]
pub struct WeightedIndex {
    cumulative: Vec<f64>,
    total: f64,
}

impl WeightedIndex {
    /// Builds the distribution from non-negative finite weights.
    pub fn new<I>(weights: I) -> Result<WeightedIndex, WeightedError>
    where
        I: IntoIterator,
        I::Item: Borrow<f64>,
    {
        let mut cumulative = Vec::new();
        let mut total = 0.0f64;
        for w in weights {
            let w = *w.borrow();
            if !w.is_finite() || w < 0.0 {
                return Err(WeightedError::InvalidWeight);
            }
            total += w;
            cumulative.push(total);
        }
        if cumulative.is_empty() {
            return Err(WeightedError::NoItem);
        }
        if total <= 0.0 {
            return Err(WeightedError::AllWeightsZero);
        }
        Ok(WeightedIndex { cumulative, total })
    }
}

impl Distribution<usize> for WeightedIndex {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> usize {
        let unit: f64 = Standard.sample(rng);
        let target = unit * self.total;
        // First cumulative weight strictly above the target.
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&target).expect("finite weights"))
        {
            Ok(i) => (i + 1).min(self.cumulative.len() - 1),
            Err(i) => i.min(self.cumulative.len() - 1),
        }
    }
}

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
    fn weighted_index_respects_zero_weights() {
        let dist = WeightedIndex::new([0.0, 1.0, 0.0]).unwrap();
        let mut rng = Lcg(3);
        for _ in 0..200 {
            assert_eq!(dist.sample(&mut rng), 1);
        }
    }

    #[test]
    fn weighted_index_rejects_bad_inputs() {
        assert!(matches!(
            WeightedIndex::new(std::iter::empty::<f64>()),
            Err(WeightedError::NoItem)
        ));
        assert!(matches!(
            WeightedIndex::new([0.0, 0.0]),
            Err(WeightedError::AllWeightsZero)
        ));
        assert!(matches!(
            WeightedIndex::new([-1.0]),
            Err(WeightedError::InvalidWeight)
        ));
    }

    #[test]
    fn weighted_index_is_roughly_proportional() {
        let dist = WeightedIndex::new([1.0, 3.0]).unwrap();
        let mut rng = Lcg(9);
        let hits = (0..4000).filter(|_| dist.sample(&mut rng) == 1).count();
        assert!((2500..3500).contains(&hits), "hits {hits}");
    }
}
