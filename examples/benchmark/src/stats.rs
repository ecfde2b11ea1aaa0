//! Order statistics for the report: medians, quartiles and the tail
//! percentile a sample is large enough to support.

/// Median of `values` (mean of the two middle values for an even count).
/// `NaN` for an empty slice, so a missing measurement can never pass for
/// a number.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method) so the
/// spreads printed here are the ones the acceptance rule is stated in.
/// With fewer than two values both quartiles are the single value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let cut = |i: usize| {
        // Position i*(n+1)/4 on a 1-based scale; the index is clamped
        // into the sample, the weight is not (tiny samples extrapolate,
        // as Python's do).
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Nearest-rank `p`-th percentile of `values`; `NaN` for an empty slice.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n => v[(p as usize * n).div_ceil(100).max(1) - 1],
    }
}

/// Percentiles a tail may be reported at, ascending. The ladder stops at
/// 95: a 99th percentile needs a thousand samples before ten lie beyond
/// it, more than a measured window of seconds yields.
const LADDER: [u32; 4] = [50, 75, 90, 95];
/// Samples that must lie beyond a percentile for it to be reported.
const BEYOND: usize = 10;

/// The highest ladder percentile with at least ten samples beyond it,
/// with its nearest-rank value: `(percentile, value)`. A sample too small
/// to support anything above its median (fewer than 40 values) reports
/// the median.
pub fn tail(values: &[f64]) -> (u32, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = |p: u32| (p as usize * n).div_ceil(100).max(1);
    match LADDER.iter().rev().find(|&&p| n >= rank(p) + BEYOND) {
        Some(&p) if p > 50 => (p, v[rank(p) - 1]),
        _ => (50, median(values)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), (1.0, 4.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let sample = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 200 values: rank(95) = 190 leaves exactly 10 beyond.
        assert_eq!(tail(&sample(200)), (95, 190.0));
        // 199 values: rank(95) = 190 leaves 9 beyond, so 90 it is.
        assert_eq!(tail(&sample(199)), (90, 180.0));
        assert_eq!(tail(&sample(100)), (90, 90.0));
        assert_eq!(tail(&sample(99)), (75, 75.0));
        // 40 values: p75 leaves exactly 10; below that only the median.
        assert_eq!(tail(&sample(40)), (75, 30.0));
        assert_eq!(tail(&sample(39)), (50, 20.0));
        assert_eq!(tail(&sample(4)), (50, 2.5));
        // The ladder stops at 95 however large the sample.
        assert_eq!(tail(&sample(100_000)), (95, 95_000.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 95), 190.0);
        assert_eq!(percentile(&v, 50), 100.0);
        // Fifteen values: the 10th percentile is the second lowest, the
        // 90th the second highest.
        let v: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!((percentile(&v, 10), percentile(&v, 90)), (2.0, 14.0));
        assert_eq!(percentile(&[7.0], 10), 7.0);
        assert!(percentile(&[], 95).is_nan());
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v: Vec<f64> = (1..=200).map(f64::from).collect();
        v.reverse();
        assert_eq!(tail(&v), (95, 190.0));
    }
}
