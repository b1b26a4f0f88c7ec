//! Exact order statistics over raw samples.
//!
//! Benchmark output never goes through `dlm_metrics::Histogram`: its
//! quarter-octave buckets move a percentile by 25 % when the true value
//! crosses a bucket edge, which is more than any bound this benchmark
//! sets. Every percentile here is an element of the sorted sample.

/// The `q`-quantile (`0.0..=1.0`) of `sorted` by the nearest-rank rule:
/// the smallest element with at least `q` of the sample at or below it.
/// `None` on an empty sample.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sort `samples` in place and return `(p50, p99)`. `p99` is reported only
/// from 1000 samples up (ten samples beyond it); below that the tail is not
/// supported by the data and the caller gets `None`.
pub fn p50_p99(samples: &mut [u64]) -> (Option<u64>, Option<u64>) {
    samples.sort_unstable();
    let p50 = quantile_sorted(samples, 0.50);
    let p99 = if samples.len() >= 1000 {
        quantile_sorted(samples, 0.99)
    } else {
        None
    };
    (p50, p99)
}

/// Median of a small set of floats (mean of the middle pair on even
/// counts). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// First and third quartile by the exclusive method, matching Python's
/// `statistics.quantiles(values, n=4)` — the estimator the driver applies
/// to ten runs. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |k: usize| {
        // Position k·(n+1)/4 on a 1-based axis; like Python, the index is
        // clamped into the sample and the fraction is not, so tiny samples
        // extrapolate past their ends.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// the driver holds against each metric's bound.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_sample_elements_by_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.50), Some(50));
        assert_eq!(quantile_sorted(&v, 0.99), Some(99));
        assert_eq!(quantile_sorted(&v, 1.0), Some(100));
        assert_eq!(quantile_sorted(&v, 0.0), Some(1));
        assert_eq!(quantile_sorted(&[7], 0.99), Some(7));
        assert_eq!(quantile_sorted(&[], 0.5), None);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let mut small: Vec<u64> = (0..999).rev().collect();
        assert_eq!(p50_p99(&mut small), (Some(499), None));
        let mut enough: Vec<u64> = (0..1000).rev().collect();
        assert_eq!(p50_p99(&mut enough), (Some(499), Some(989)));
    }

    #[test]
    fn a_value_on_a_histogram_bucket_edge_does_not_jump() {
        // 1536 and 1792 are neighbouring quarter-octave bucket bounds; the
        // exact estimator moves by the one microsecond the data moved.
        let mut a = vec![1535u64; 501];
        a.extend([4000u64; 500]);
        let mut b = vec![1536u64; 501];
        b.extend([4000u64; 500]);
        assert_eq!(p50_p99(&mut a).0, Some(1535));
        assert_eq!(p50_p99(&mut b).0, Some(1536));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!((q1, q3), (1.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let (q1, q3) = quartiles(&[10.0, 20.0]).unwrap();
        assert_eq!((q1, q3), (7.5, 22.5));
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
    }
}
