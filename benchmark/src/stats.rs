//! Order statistics for latency samples.

/// The `p`-th percentile (0..=100) of `values` by linear interpolation
/// between closest ranks; 0.0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values`; 0.0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The arithmetic mean of `values`; 0.0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Percentiles a tail may be reported at, lowest first, in tenths of a
/// percent so that "ten samples beyond it" is exact integer arithmetic.
const TAIL_LADDER_PERMILLE: [usize; 5] = [750, 900, 950, 990, 999];

/// How many samples must lie beyond a percentile for it to be reported.
const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile of the ladder that still has at least ten samples
/// beyond it, or the median when the sample supports none of them.
pub fn tail_percentile(samples: usize) -> f64 {
    TAIL_LADDER_PERMILLE
        .iter()
        .copied()
        .rfind(|permille| samples * (1000 - permille) >= TAIL_MIN_BEYOND * 1000)
        .map_or(50.0, |permille| permille as f64 / 10.0)
}

/// `(percentile, value)` of the tail of `values` under [`tail_percentile`].
pub fn tail(values: &[f64]) -> (f64, f64) {
    let p = tail_percentile(values.len());
    (p, percentile(values, p))
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles of Python's `statistics.quantiles(values, n=4)` (the
/// exclusive method), which is how the driver judges run-to-run spread.
pub fn iqr_share(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let quartile = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    let med = median(&sorted);
    if med == 0.0 {
        0.0
    } else {
        (quartile(3) - quartile(1)) / med
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates_even_samples() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 39 samples: a quarter is 9.75 < 10, so only the median is supported.
        assert_eq!(tail_percentile(39), 50.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(99), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(0), 50.0);
    }

    #[test]
    fn tail_reports_the_value_at_its_percentile() {
        let values: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(tail(&values), (90.0, 91.0));
    }

    #[test]
    fn iqr_share_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&values) - 1.0).abs() < 1e-12);
    }
}
