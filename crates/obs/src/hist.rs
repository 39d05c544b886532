//! Streaming log-bucketed histograms with quantile estimation.
//!
//! The registry's old `Histogram` kept only count/sum/min/max, so a
//! metrics dump could not answer "what was the p99 Extract latency?" —
//! the one question a straggler hunt starts with. This histogram keeps
//! those exact scalars *and* a sparse set of logarithmic buckets
//! (DDSketch-style): a value `v > 0` lands in bucket
//! `i = ceil(ln v / ln γ)`, which covers `(γ^(i-1), γ^i]`, and every
//! value in a bucket is estimated by the bucket midpoint `2γ^i/(γ+1)`.
//! With the growth factor [`GAMMA`] the estimate's relative error is
//! bounded by `(γ-1)/(γ+1)` ≈ 2.4% — comfortably inside the ≤ 10%
//! budget the telemetry contract promises — at a memory cost of one
//! `(i32, u64)` entry per occupied bucket (a few dozen for real latency
//! distributions; the maps are sparse, never pre-allocated).
//!
//! Negative values (e.g. `scheduler.switch_profit`) mirror into a second
//! bucket map; values with magnitude below [`ZERO_THRESHOLD`] share one
//! exact zero bucket. Quantiles are clamped into `[min, max]`, so `p0`
//! and `p100` are exact.

use std::collections::BTreeMap;

/// Bucket growth factor. Relative quantile error ≤ (γ-1)/(γ+1) ≈ 2.44%.
pub const GAMMA: f64 = 1.05;

/// Magnitudes below this are counted in the exact zero bucket.
pub const ZERO_THRESHOLD: f64 = 1e-12;

/// A streaming distribution summary: exact count/sum/min/max plus
/// log-bucketed quantile estimation.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (`+inf` when empty).
    pub min: f64,
    /// Largest observation (`-inf` when empty).
    pub max: f64,
    /// Observations with `|v| < ZERO_THRESHOLD`.
    zero: u64,
    /// Log buckets for positive values: index → count.
    pos: BTreeMap<i32, u64>,
    /// Log buckets for negative values, keyed by the index of `|v|`.
    neg: BTreeMap<i32, u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            zero: 0,
            pos: BTreeMap::new(),
            neg: BTreeMap::new(),
        }
    }
}

/// The log-bucket index of a magnitude `m >= ZERO_THRESHOLD`.
fn bucket_index(m: f64) -> i32 {
    (m.ln() / GAMMA.ln()).ceil() as i32
}

/// The midpoint estimate for bucket `i` (covering `(γ^(i-1), γ^i]`).
fn bucket_estimate(i: i32) -> f64 {
    2.0 * GAMMA.powi(i) / (GAMMA + 1.0)
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one observation in. Non-finite values are counted in
    /// min/max/count but not bucketed (they would destroy every quantile).
    pub fn observe(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if !v.is_finite() || v.abs() < ZERO_THRESHOLD {
            self.zero += 1;
        } else if v > 0.0 {
            *self.pos.entry(bucket_index(v)).or_insert(0) += 1;
        } else {
            *self.neg.entry(bucket_index(-v)).or_insert(0) += 1;
        }
    }

    /// Whether nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The estimated `q`-quantile (`q` in `[0, 1]`), or `None` when
    /// empty. Relative error ≤ (γ-1)/(γ+1); estimates are clamped into
    /// the exact `[min, max]` envelope.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest-rank: the target observation's index in ascending
        // order, so `p99` of three samples is the largest one.
        let rank = ((q * self.count as f64).ceil() as u64)
            .saturating_sub(1)
            .min(self.count - 1);
        // The extreme ranks are the exact min/max we already track.
        if rank == 0 {
            return Some(self.min);
        }
        if rank == self.count - 1 {
            return Some(self.max);
        }
        let mut seen = 0u64;
        // Ascending value order: most-negative first (largest |v| index),
        // then the zero bucket, then positives.
        for (&i, &c) in self.neg.iter().rev() {
            seen += c;
            if seen > rank {
                return Some(self.clamp(-bucket_estimate(i)));
            }
        }
        seen += self.zero;
        if seen > rank {
            return Some(self.clamp(0.0));
        }
        for (&i, &c) in self.pos.iter() {
            seen += c;
            if seen > rank {
                return Some(self.clamp(bucket_estimate(i)));
            }
        }
        // Only reachable via floating-point edge cases; the largest
        // observation is always a valid answer.
        Some(self.max)
    }

    fn clamp(&self, v: f64) -> f64 {
        v.clamp(self.min, self.max)
    }

    /// Median estimate (`None` when empty).
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate (`None` when empty).
    pub fn p90(&self) -> Option<f64> {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate (`None` when empty).
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }
}

/// JSON export: count/sum/min/max/mean plus the three canonical
/// quantiles. Empty histograms export zeros, never `min: +inf` — the
/// shimmed serde_json would render non-finite floats as `null`, which
/// downstream parsers read as "field missing" (the PR-1 export bug).
impl serde::Serialize for Histogram {
    fn to_value(&self) -> serde::Value {
        let finite_or_zero = |v: f64| if v.is_finite() { v } else { 0.0 };
        serde::Value::Object(vec![
            ("count".to_string(), serde::Value::U64(self.count)),
            (
                "sum".to_string(),
                serde::Value::F64(finite_or_zero(self.sum)),
            ),
            (
                "min".to_string(),
                serde::Value::F64(finite_or_zero(self.min)),
            ),
            (
                "max".to_string(),
                serde::Value::F64(finite_or_zero(self.max)),
            ),
            (
                "mean".to_string(),
                serde::Value::F64(finite_or_zero(self.mean())),
            ),
            (
                "p50".to_string(),
                serde::Value::F64(finite_or_zero(self.p50().unwrap_or(0.0))),
            ),
            (
                "p90".to_string(),
                serde::Value::F64(finite_or_zero(self.p90().unwrap_or(0.0))),
            ),
            (
                "p99".to_string(),
                serde::Value::F64(finite_or_zero(self.p99().unwrap_or(0.0))),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact `q`-quantile of a sorted slice, matching the
    /// nearest-rank rule the streaming estimate targets.
    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize)
            .saturating_sub(1)
            .min(sorted.len() - 1);
        sorted[rank]
    }

    #[test]
    fn scalars_stay_exact() {
        let mut h = Histogram::new();
        for v in [3.0, 1.0, 4.0, 1.5] {
            h.observe(v);
        }
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 9.5);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 4.0);
        assert!((h.mean() - 2.375).abs() < 1e-12);
    }

    #[test]
    fn quantiles_of_uniform_range_are_within_the_error_bound() {
        let mut h = Histogram::new();
        let values: Vec<f64> = (1..=10_000).map(|i| i as f64).collect();
        for &v in &values {
            h.observe(v);
        }
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let exact = exact_quantile(&values, q);
            let est = h.quantile(q).unwrap();
            let rel = (est - exact).abs() / exact;
            assert!(rel <= 0.05, "q={q}: est {est} vs exact {exact} (rel {rel})");
        }
        // Extremes are exact thanks to the min/max clamp.
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(1.0), Some(10_000.0));
    }

    #[test]
    fn negative_and_zero_values_are_ordered_correctly() {
        let mut h = Histogram::new();
        for v in [-100.0, -1.0, 0.0, 1.0, 100.0] {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.0), Some(-100.0));
        let p50 = h.quantile(0.5).unwrap();
        assert!(p50.abs() < 1e-9, "median of symmetric set is 0, got {p50}");
        assert_eq!(h.quantile(1.0), Some(100.0));
        // The -1.0 estimate is within the relative error bound.
        let p25 = h.quantile(0.25).unwrap();
        assert!((p25 - -1.0).abs() <= 0.05, "p25 {p25}");
    }

    #[test]
    fn empty_histogram_has_no_quantiles_and_serializes_finite() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        let text = serde_json::to_string(&h).unwrap();
        assert!(
            !text.contains("null") && !text.contains("inf"),
            "empty histogram leaked non-finite values: {text}"
        );
        let back = serde_json::from_str(&text).unwrap();
        assert_eq!(back.get("min").and_then(|v| v.as_f64()), Some(0.0));
        assert_eq!(back.get("count").and_then(|v| v.as_u64()), Some(0));
    }

    #[test]
    fn serialization_exports_the_quantiles() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.observe(i as f64);
        }
        let doc = serde_json::to_value(&h);
        let p99 = doc.get("p99").and_then(|v| v.as_f64()).unwrap();
        assert!((p99 - 990.0).abs() / 990.0 <= 0.05, "p99 {p99}");
        let p50 = doc.get("p50").and_then(|v| v.as_f64()).unwrap();
        assert!((p50 - 500.0).abs() / 500.0 <= 0.05, "p50 {p50}");
    }

    #[test]
    fn non_finite_observations_do_not_poison_quantiles() {
        let mut h = Histogram::new();
        h.observe(f64::INFINITY);
        h.observe(1.0);
        h.observe(2.0);
        assert_eq!(h.count, 3);
        // Quantiles stay finite (the non-finite observation sits in the
        // zero bucket; min/max still reflect it).
        assert!(h.quantile(0.5).unwrap().is_finite());
    }

    #[test]
    fn bucket_memory_is_logarithmic() {
        let mut h = Histogram::new();
        for i in 0..100_000 {
            h.observe(1.0 + (i % 1000) as f64);
        }
        // 1..=1000 spans ln(1000)/ln(1.05) ≈ 142 buckets.
        let buckets = h.pos.len() + h.neg.len() + usize::from(h.zero > 0);
        assert!(buckets < 200, "buckets {buckets}");
    }
}
