//! Walker's alias method for O(1) weighted sampling.
//!
//! The weighted k-hop sampler draws neighbors by binary search over a
//! per-vertex CDF — `O(log degree)` per draw. The alias method trades a
//! linear preprocessing pass for `O(1)` draws, which pays off when the
//! same vertex is sampled many times (hot hubs under weighted sampling).
//! This module is also a reusable building block for custom samplers.

use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// A Walker alias table over `n` weighted outcomes.
///
/// # Examples
///
/// ```
/// use gnnlab_sampling::alias::AliasTable;
/// use rand::SeedableRng;
///
/// let t = AliasTable::new(&[1.0, 3.0]).unwrap();
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let mut hits = [0u32; 2];
/// for _ in 0..4000 {
///     hits[t.sample(&mut rng)] += 1;
/// }
/// assert!(hits[1] > 2 * hits[0]); // ~3x more likely
/// ```
#[derive(Debug, Clone)]
pub struct AliasTable {
    prob: Vec<f32>,
    alias: Vec<u32>,
}

impl AliasTable {
    /// Builds the table in `O(n)`. Returns `None` if `weights` is empty,
    /// contains a negative/non-finite value, or sums to zero.
    pub fn new(weights: &[f32]) -> Option<AliasTable> {
        let n = weights.len();
        if n == 0 || weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return None;
        }
        let total: f64 = weights.iter().map(|&w| f64::from(w)).sum();
        if total <= 0.0 {
            return None;
        }
        // Scaled probabilities around 1.0.
        let mut scaled: Vec<f64> = weights
            .iter()
            .map(|&w| f64::from(w) * n as f64 / total)
            .collect();
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &p) in scaled.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        let mut prob = vec![1.0f32; n];
        let mut alias: Vec<u32> = (0..n as u32).collect();
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            prob[s as usize] = scaled[s as usize] as f32;
            alias[s as usize] = l;
            scaled[l as usize] -= 1.0 - scaled[s as usize];
            if scaled[l as usize] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Leftovers (numerical residue) keep prob = 1.
        Some(AliasTable { prob, alias })
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether the table is empty (never true for a constructed table).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws one outcome in `O(1)`: one uniform slot + one biased coin.
    pub fn sample(&self, rng: &mut ChaCha8Rng) -> usize {
        let i = rng.gen_range(0..self.prob.len());
        if rng.gen::<f32>() < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(11)
    }

    fn empirical(t: &AliasTable, draws: usize) -> Vec<f64> {
        let mut counts = vec![0usize; t.len()];
        let mut r = rng();
        for _ in 0..draws {
            counts[t.sample(&mut r)] += 1;
        }
        counts.iter().map(|&c| c as f64 / draws as f64).collect()
    }

    #[test]
    fn matches_target_distribution() {
        let weights = [1.0f32, 2.0, 3.0, 4.0];
        let t = AliasTable::new(&weights).unwrap();
        let freq = empirical(&t, 100_000);
        for (i, &w) in weights.iter().enumerate() {
            let expect = f64::from(w) / 10.0;
            assert!(
                (freq[i] - expect).abs() < 0.01,
                "outcome {i}: {} vs {expect}",
                freq[i]
            );
        }
    }

    #[test]
    fn uniform_weights_are_uniform() {
        let t = AliasTable::new(&[5.0; 8]).unwrap();
        let freq = empirical(&t, 80_000);
        for f in freq {
            assert!((f - 0.125).abs() < 0.01, "freq {f}");
        }
    }

    #[test]
    fn zero_weight_outcomes_never_drawn() {
        let t = AliasTable::new(&[0.0, 1.0, 0.0, 1.0]).unwrap();
        let freq = empirical(&t, 20_000);
        assert_eq!(freq[0], 0.0);
        assert_eq!(freq[2], 0.0);
    }

    #[test]
    fn extreme_skew_is_handled() {
        let t = AliasTable::new(&[1e-6, 1e6]).unwrap();
        let freq = empirical(&t, 10_000);
        assert!(freq[1] > 0.999);
    }

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(AliasTable::new(&[]).is_none());
        assert!(AliasTable::new(&[0.0, 0.0]).is_none());
        assert!(AliasTable::new(&[1.0, -1.0]).is_none());
        assert!(AliasTable::new(&[f32::NAN]).is_none());
    }

    #[test]
    fn single_outcome_always_wins() {
        let t = AliasTable::new(&[42.0]).unwrap();
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(t.sample(&mut r), 0);
        }
    }
}
