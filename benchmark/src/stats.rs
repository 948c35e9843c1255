//! Percentiles, medians and the median-of-segments rule every timing
//! metric of the benchmark is reported by.

/// Nearest-rank percentile of an already sorted slice; `NaN` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Sorts ascending; the samples are durations and counts, never `NaN`.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.total_cmp(b));
    values
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median with the midpoint rule for even counts; `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The median over the segments that produced a value. A segment in
/// which nothing was sampled (`NaN`) does not vote: a neighbour's burst
/// can silence a whole segment, and that is the noise the rule is for.
pub fn median_of_segments(per_segment: &[f64]) -> f64 {
    let seen: Vec<f64> = per_segment
        .iter()
        .copied()
        .filter(|v| v.is_finite())
        .collect();
    median(&seen)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them — the rule the acceptance check of
/// the benchmark is written in, so `aa` reproduces it exactly.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values.to_vec());
    let m = v.len();
    if m < 2 {
        let only = v.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median (0 when the median
/// is 0, so a constant-zero count reads as perfectly steady).
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1).abs() / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_on_sorted_input() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 6.0);
        assert_eq!(percentile(&v, 90.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 11.0);
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn median_of_segments_ignores_silent_segments_and_one_burst() {
        // Six quiet segments and one hit by a neighbour's burst: the
        // burst does not move the reported value.
        let quiet = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8];
        let mut with_burst = quiet.to_vec();
        with_burst.push(24.0);
        assert!((median_of_segments(&with_burst) - 10.0).abs() < 0.11);
        assert_eq!(
            median_of_segments(&[f64::NAN, 5.0, f64::NAN, 7.0, 6.0]),
            6.0
        );
        assert!(median_of_segments(&[f64::NAN]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4) == [1.25, 3.5, 5.75]
        let (q1, q3) = quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]);
        assert!((q1 - 1.25).abs() < 1e-12 && (q3 - 5.75).abs() < 1e-12);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[0.0, 0.0, 0.0]), 0.0);
    }
}
