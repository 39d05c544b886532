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

/// The 53 high bits of `word` as a float in `[0, 1)`.
fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl Distribution<f64> for Standard {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        unit_f64(rng.next_u64())
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
///
/// A draw takes one 64-bit word, scales it to `target` in `[0, total)` and
/// returns the first index whose cumulative weight is strictly above
/// `target` (zero-weight items are never returned). The search is a guide
/// table: `[0, total)` is cut into a power-of-two number of equal buckets,
/// at least two per item, and `guide[b]` holds the answer for the lower
/// bound of bucket `b`; a draw reads its bucket off the top bits of the
/// word and walks forward from there — half a step on average whatever the
/// skew, against `log2 n` mispredicted branches for a binary search.
#[derive(Debug, Clone)]
pub struct WeightedIndex {
    cumulative: Vec<f64>,
    total: f64,
    /// `guide[b]` = first index whose cumulative weight exceeds bucket
    /// `b`'s lower bound `(b / guide.len()) * total`.
    guide: Vec<usize>,
    /// `64 - log2(guide.len())`: a word's bucket is `word >> bucket_shift`.
    bucket_shift: u32,
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
        // A power of two, and far fewer than 2^53 for any array that fits
        // in memory: a bucket is a whole number of the 2^-53 steps
        // `unit_f64` takes, so `word >> bucket_shift` is exactly the bucket
        // of the unit float.
        let buckets = (2 * cumulative.len()).next_power_of_two();
        let mut guide = Vec::with_capacity(buckets);
        let mut index = 0;
        for b in 0..buckets {
            let bound = b as f64 / buckets as f64 * total;
            while index + 1 < cumulative.len() && cumulative[index] <= bound {
                index += 1;
            }
            guide.push(index);
        }
        Ok(WeightedIndex {
            cumulative,
            total,
            guide,
            bucket_shift: 64 - buckets.trailing_zeros(),
        })
    }
}

impl Distribution<usize> for WeightedIndex {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> usize {
        let word = rng.next_u64();
        let target = unit_f64(word) * self.total;
        // The unit float is at least `bucket / buckets`, and multiplying
        // by `total` rounds monotonically, so `target` is at least the
        // bucket's bound and the answer is at or after its guide entry.
        let mut index = self.guide[(word >> self.bucket_shift) as usize];
        while index + 1 < self.cumulative.len() && self.cumulative[index] <= target {
            index += 1;
        }
        index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// Hands out the words it was given, in order.
    struct Words(std::vec::IntoIter<u64>);
    impl RngCore for Words {
        fn next_u64(&mut self) -> u64 {
            self.0.next().expect("one word per draw")
        }
    }

    /// What the binary search this table replaced computed on a strictly
    /// increasing array, and the right answer on any other.
    fn oracle(dist: &WeightedIndex, word: u64) -> usize {
        let target = unit_f64(word) * dist.total;
        dist.cumulative
            .partition_point(|&c| c <= target)
            .min(dist.cumulative.len() - 1)
    }

    /// `words`, plus the first and last word of every bucket they fall in
    /// and of its neighbours.
    fn with_bucket_edges(dist: &WeightedIndex, words: &[u64]) -> Vec<u64> {
        let mut all = vec![0, u64::MAX];
        for &w in words {
            let first = w >> dist.bucket_shift << dist.bucket_shift;
            let width = 1u64 << dist.bucket_shift;
            all.extend([
                w,
                first,
                first.wrapping_sub(1),
                first.wrapping_add(width - 1),
                first.wrapping_add(width),
            ]);
        }
        all
    }

    fn assert_matches_oracle(dist: &WeightedIndex, weights: &[f64], words: Vec<u64>) {
        let mut rng = Words(words.clone().into_iter());
        for word in words {
            let got = dist.sample(&mut rng);
            assert_eq!(got, oracle(dist, word), "word {word:#018x}");
            assert!(weights[got] > 0.0, "word {word:#018x} drew a zero weight");
        }
    }

    proptest! {
        /// Zeros at the front, in the middle and at the end, one item to
        /// five thousand, totals from 1e-300 to 1e300.
        #[test]
        fn guide_table_finds_what_partition_point_finds(
            raw in prop::collection::vec(0.0f64..1.0, 1..5000),
            zeros in (0usize..4, 0usize..4, 0usize..4),
            magnitude in 0usize..3,
            words in prop::collection::vec(any::<u64>(), 48),
        ) {
            let n = raw.len();
            let scale = [1e-300, 1.0, 1e300][magnitude] / n as f64;
            let mut weights: Vec<f64> = raw.iter().map(|w| (w + 1e-3) * scale).collect();
            let (front, middle, end) = zeros;
            let zeroed = (0..front).chain(n / 2..n / 2 + middle).chain(n - end.min(n)..n);
            for i in zeroed.filter(|&i| i < n) {
                weights[i] = 0.0;
            }
            // Never all zero.
            weights[front.min(n - 1)] = scale;
            let dist = WeightedIndex::new(&weights).unwrap();
            let words = with_bucket_edges(&dist, &words);
            assert_matches_oracle(&dist, &weights, words);
        }

        /// Integer weights summing to a power of two: every cumulative
        /// value is hit exactly by some word, including values repeated by
        /// zero weights — where the binary search could land on the
        /// zero-weight item. The weights span 1..64, so most of those
        /// values fall inside a bucket, not on its bound.
        #[test]
        fn targets_on_exact_cumulative_values(
            ints in prop::collection::vec(0u32..64, 1..200),
        ) {
            let ints: Vec<u32> = ints.iter().map(|&w| if w % 4 == 0 { 0 } else { w }).collect();
            let sum: u32 = ints.iter().sum();
            let total = (sum + 1).next_power_of_two();
            let mut weights: Vec<f64> = ints.iter().map(|&w| f64::from(w)).collect();
            weights.push(f64::from(total - sum));
            let dist = WeightedIndex::new(&weights).unwrap();
            prop_assert_eq!(dist.total, f64::from(total));
            // unit = c / total exactly, so target = c exactly.
            let on_value = |c: f64| ((c / dist.total * (1u64 << 53) as f64) as u64) << 11;
            let mut words = Vec::new();
            for &c in dist.cumulative.iter().filter(|&&c| c < dist.total) {
                let word = on_value(c);
                prop_assert_eq!(unit_f64(word) * dist.total, c);
                words.extend([word, word.wrapping_sub(1 << 11), word + (1 << 11)]);
            }
            let words = with_bucket_edges(&dist, &words);
            assert_matches_oracle(&dist, &weights, words);
        }
    }

    #[test]
    fn single_item_is_always_drawn() {
        let dist = WeightedIndex::new([2.5]).unwrap();
        assert_matches_oracle(&dist, &[2.5], vec![0, 1 << 63, u64::MAX]);
        assert_eq!(dist.sample(&mut Words(vec![u64::MAX].into_iter())), 0);
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
