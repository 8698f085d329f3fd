//! Sample statistics: the quartiles the driver's steadiness rule uses and
//! the tail-percentile picker. Percentiles themselves are the program's
//! own (`stack::percentile`).

use crate::stack::percentile;

/// Ascending-sorted copy of `values` (timings are never NaN).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(values,
/// n=4)` (the default "exclusive" method) gives them — the figures the
/// driver's steadiness rule is computed from. A single value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values);
    let m = data.len();
    if m < 2 {
        return (data[0], data[0], data[0]);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median — the "spread" every
/// end-to-end metric must keep inside its bound.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        ((q3 - q1) / med).abs()
    }
}

/// The highest of p50/p90/p99/p99.9 that still has at least ten samples
/// beyond it in a sample of `n` — a tail percentile resting on fewer is
/// one slow call, not a distribution. `None` below twenty samples.
pub fn tail_quantile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|q| (n as f64) * (1.0 - q) >= 10.0 - 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picker_needs_ten_samples_beyond() {
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(99), Some(0.5));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(999), Some(0.9));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(9_999), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 20.0, 40.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert_eq!(median(&[3.0, 1.0, 4.0, 2.0]), 2.5);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
