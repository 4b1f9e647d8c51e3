//! Order statistics: latency percentiles and run-to-run quartiles.

/// Percentiles a latency distribution may be reported at, in per mille,
/// lowest first.
const LADDER_PERMILLE: [u32; 5] = [500, 900, 950, 990, 999];

/// Samples a percentile must leave beyond it before it is reported.
const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `permille / 1000` of the samples at or below
/// it. Infinite samples (failed requests) sort last and are returned as
/// such. `NaN` for an empty slice.
pub fn percentile(sorted: &[f64], permille: u32) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), permille).max(1) - 1]
}

/// `ceil(n * permille / 1000)` in exact integer arithmetic.
fn rank(n: usize, permille: u32) -> usize {
    (n * permille as usize).div_ceil(1000)
}

/// Samples strictly beyond the nearest-rank percentile.
pub fn beyond(n: usize, permille: u32) -> usize {
    n - rank(n, permille)
}

/// The highest ladder percentile that leaves at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the median does not.
pub fn tail_permille(n: usize) -> Option<u32> {
    LADDER_PERMILLE
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Ascending copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut out = samples.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Median of `samples` (nearest rank); `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 500)
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// `exclusive` method), so a spread printed here matches one computed
/// from the result files with the standard library. A single value is
/// its own quartiles; `None` when empty.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let ld = data.len();
    match ld {
        0 => return None,
        1 => return Some([data[0]; 3]),
        _ => {}
    }
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4i64) {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        // Negative when the clamp moved `j` up (two samples): Python
        // extrapolates below the first sample there, and so does this.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median.
pub fn spread([q1, q2, q3]: [f64; 3]) -> f64 {
    (q3 - q1) / q2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_permille(19), None);
        assert_eq!(tail_permille(20), Some(500));
        assert_eq!(tail_permille(30), Some(500));
        assert_eq!(tail_permille(99), Some(500));
        assert_eq!(tail_permille(100), Some(900));
        assert_eq!(tail_permille(199), Some(900));
        assert_eq!(tail_permille(200), Some(950));
        assert_eq!(tail_permille(1000), Some(990));
        assert_eq!(tail_permille(9_999), Some(990));
        assert_eq!(tail_permille(10_000), Some(999));
        // Exact integer ranks: 0.99 * 1000 must not round up to 991.
        assert_eq!(beyond(1000, 990), 10);
        assert_eq!(beyond(100, 900), 10);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 500), 50.0);
        assert_eq!(percentile(&xs, 900), 90.0);
        assert_eq!(percentile(&xs, 999), 100.0);
        assert_eq!(percentile(&[7.0], 500), 7.0);
        assert!(percentile(&[], 500).is_nan());
        // A refused request is an infinite sample and lands in the tail.
        let mut with_failure = xs.clone();
        with_failure.push(f64::INFINITY);
        assert_eq!(percentile(&sorted(&with_failure), 999), f64::INFINITY);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([5, 1, 3, 2, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[4.0]), Some([4.0; 3]));
        assert_eq!(quartiles(&[]), None);
        assert_eq!(spread([9.0, 10.0, 11.0]), 0.2);
    }
}
