//! Medians, quartiles and percentiles over the benchmark's samples, and
//! the choice of repetitions the end-to-end timings are read from.

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) does, so the
/// spread this tool prints is the one the driver's acceptance check sees.
/// A single sample has no spread: both quartiles are that sample.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let m = v.len();
    if m == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Indices of the fastest quarter of the repetitions whose wall seconds
/// are `wall_s` — the lowest values, never fewer than three while that
/// many exist.
///
/// The timed repetitions report means over these instead of medians over
/// all. On a shared host a neighbour's burst only ever adds time, in
/// episodes of seconds to a minute: the median of a run flips between
/// "mostly inside a burst" and "mostly outside", the fastest repetitions
/// are the ones no burst touched. Over 22 s windows of one unchanged
/// binary, across such an episode, the windows' medians spread 18 % of
/// their median and their fastest-quarter means 8 % (README, "Noise
/// floor"). A change to the program moves every repetition, so it moves
/// this as it moves the median.
pub fn fastest_quarter(wall_s: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..wall_s.len()).collect();
    order.sort_unstable_by(|&a, &b| wall_s[a].total_cmp(&wall_s[b]));
    order.truncate((wall_s.len() / 4).max(3));
    order
}

/// Nearest-rank 99th percentile, reported only where at least ten samples
/// lie beyond it (so from 1 000 samples up); a tail estimated from fewer
/// is noise.
pub fn p99(values: &[f64]) -> Option<f64> {
    if values.len() < 1000 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let rank = (0.99 * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Arithmetic mean (0 for no samples — used for exact per-batch counts).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// One metric's reading: the value the contract line carries plus the
/// spread and sample count the full report keeps beside it.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
    pub p99: Option<f64>,
}

impl Reading {
    /// Median, quartiles and (from 1 000 samples) p99 of `samples`.
    pub fn of(samples: &[f64]) -> Self {
        let (q1, q3) = quartiles(samples);
        Reading {
            value: median(samples),
            q1,
            q3,
            n: samples.len(),
            p99: p99(samples),
        }
    }

    /// The mean of `samples` over the repetitions `chosen` as the value,
    /// with the quartiles and count of all of them beside it.
    ///
    /// # Panics
    ///
    /// Panics when `chosen` is empty or indexes past `samples`.
    pub fn mean_over(samples: &[f64], chosen: &[usize]) -> Self {
        Reading {
            value: chosen.iter().map(|&i| samples[i]).sum::<f64>() / chosen.len() as f64,
            ..Reading::of(samples)
        }
    }

    /// This reading with value, quartiles and p99 multiplied by `factor`.
    pub fn scaled(&self, factor: f64) -> Self {
        Reading {
            value: self.value * factor,
            q1: self.q1 * factor,
            q3: self.q3 * factor,
            n: self.n,
            p99: self.p99.map(|p| p * factor),
        }
    }

    /// A single exact or derived number with no spread of its own.
    pub fn exact(value: f64) -> Self {
        Reading {
            value,
            q1: value,
            q3: value,
            n: 1,
            p99: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[2.0, 3.0, 1.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn fastest_quarter_is_a_quarter_and_at_least_three() {
        // 16 repetitions: the four fastest, fastest first.
        let v: Vec<f64> = (1..=16).rev().map(f64::from).collect();
        assert_eq!(fastest_quarter(&v), [15, 14, 13, 12]);
        // 8 repetitions: a quarter would be two, three are taken.
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(fastest_quarter(&v), [0, 1, 2]);
        // Fewer than three: all of them.
        assert_eq!(fastest_quarter(&[4.0, 2.0]), [1, 0]);
    }

    #[test]
    fn a_burst_over_most_repetitions_moves_the_median_not_the_fastest_quarter() {
        let quiet = [
            1.0, 1.01, 1.02, 1.0, 1.01, 1.02, 1.0, 1.01, 1.02, 1.0, 1.01, 1.02,
        ];
        let mut burst = quiet;
        for x in &mut burst[3..] {
            *x *= 1.4;
        }
        assert!(median(&burst) > 1.3 * median(&quiet));
        let a = Reading::mean_over(&quiet, &fastest_quarter(&quiet));
        let b = Reading::mean_over(&burst, &fastest_quarter(&burst));
        assert!((b.value - a.value).abs() < 0.02, "{a:?} vs {b:?}");
        assert_eq!(b.n, 12);
        assert!(b.q1 < b.q3 && b.value < b.q1);
        // Another column read over the same repetitions.
        let cpu: Vec<f64> = burst.iter().map(|w| w * 1.5).collect();
        let c = Reading::mean_over(&cpu, &fastest_quarter(&burst));
        assert!((c.value - 1.5 * b.value).abs() < 1e-12);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let few: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(p99(&few), None);
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(p99(&many), Some(990.0));
    }

    #[test]
    fn reading_carries_spread_and_count() {
        let r = Reading::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((r.value, r.n, r.p99), (3.0, 5, None));
        assert!(r.q1 < r.value && r.value < r.q3);
        assert_eq!(Reading::exact(2.0).q3, 2.0);
        let half = r.scaled(0.5);
        assert_eq!((half.value, half.q1, half.n), (1.5, r.q1 / 2.0, 5));
    }
}
