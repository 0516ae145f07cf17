//! The arithmetic every reported number goes through: medians, percentiles,
//! the tail percentile rule, quartile spread and span self time.

/// Median of `values` (mean of the two middle samples for an even count);
/// `0.0` for an empty slice, so a metric with no samples reads as zero.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending `sorted` slice. The percentile is
/// given per mille (`500` = p50, `999` = p99.9) so that ranks are exact
/// integers: `99.9 / 100 * 10_000` is not 9990 in floating point.
pub fn percentile_sorted(sorted: &[f64], per_mille: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), per_mille) - 1]
}

/// 1-based nearest rank of a per-mille percentile among `n ≥ 1` samples.
fn rank(n: usize, per_mille: usize) -> usize {
    (n * per_mille).div_ceil(1000).clamp(1, n)
}

/// Sorted copy of `values`, for repeated [`percentile_sorted`] calls.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// The highest of p99.9 / p99 / p95 / p90 that still has at least ten samples
/// beyond it, as `(per mille, value)`; `None` below 100 samples. A percentile
/// with fewer samples beyond it is one outlier, not a distribution.
pub fn tail_percentile(sorted: &[f64]) -> Option<(usize, f64)> {
    [999, 990, 950, 900]
        .into_iter()
        .find(|&p| !sorted.is_empty() && sorted.len() - rank(sorted.len(), p) >= 10)
        .map(|p| (p, percentile_sorted(sorted, p)))
}

/// Distance between the first and third quartile as a share of the median —
/// the spread the benchmark driver holds against a metric's bound. Quartiles
/// follow Python's `statistics.quantiles(values, n=4)` (exclusive method).
pub fn quartile_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let s = sorted(values);
    let quantile = |k: f64| {
        let pos = k * (s.len() as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, s.len() - 1);
        s[lo - 1] + (s[lo] - s[lo - 1]) * (pos - lo as f64)
    };
    ratio((quantile(3.0) - quantile(1.0)).abs(), median(&s).abs())
}

/// Self time of a span: its duration minus what its direct children cover,
/// never negative (clock granularity can make children sum past the parent).
pub fn self_time(total: u64, children: u64) -> u64 {
    total.saturating_sub(children)
}

/// `num / den`, or `0.0` when the denominator is zero — layer ratios of a phase
/// a workload never ran read as zero, not NaN.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 500), 50.0);
        assert_eq!(percentile_sorted(&s, 990), 99.0);
        assert_eq!(percentile_sorted(&s, 999), 100.0);
        assert_eq!(percentile_sorted(&s, 1000), 100.0);
        assert_eq!(percentile_sorted(&s[..1], 990), 1.0);
        assert_eq!(percentile_sorted(&[], 500), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let s = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail_percentile(&s(0)), None);
        assert_eq!(tail_percentile(&s(99)), None);
        assert_eq!(tail_percentile(&s(100)), Some((900, 89.0)));
        assert_eq!(tail_percentile(&s(200)).map(|t| t.0), Some(950));
        assert_eq!(tail_percentile(&s(1000)).map(|t| t.0), Some(990));
        assert_eq!(tail_percentile(&s(10_000)), Some((999, 9989.0)));
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert!((quartile_spread(&[1.0, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[7.0, 7.0, 7.0]), 0.0);
        assert_eq!(quartile_spread(&[7.0]), 0.0);
    }

    #[test]
    fn self_time_and_ratio_saturate() {
        assert_eq!(self_time(100, 30), 70);
        assert_eq!(self_time(100, 130), 0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
