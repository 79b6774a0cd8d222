//! Summary statistics over measured samples: median, quartiles and the
//! nearest-rank percentile with its sample-support rule.

/// Fewest samples that must lie strictly beyond a percentile's rank for the
/// percentile to be reported.
pub const MIN_BEYOND: usize = 10;

/// `values` sorted ascending.
///
/// # Panics
/// Panics if a value is NaN.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    v
}

/// The median (the mean of the two middle values for an even count), or
/// `None` for no samples.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First, second and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (its default, "exclusive"
/// interpolation), or `None` for fewer than two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        // Negative (extrapolating) below the first sample, as in Python.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Nearest-rank `p`-th percentile of `values` — element `⌈p/100 · n⌉`
/// (1-indexed) of the sorted samples — or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond that rank, so the sample cannot
/// support the percentile.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&one_to(10)), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1..9], n=4) == [2.5, 5.0, 7.5]
        assert_eq!(quartiles(&one_to(9)), Some([2.5, 5.0, 7.5]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = one_to(1000);
        assert_eq!(percentile(&v, 50.0), Some(500.0));
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        // ⌈0.999 · 1000⌉ = 999 leaves one sample beyond: unsupported.
        assert_eq!(percentile(&v, 99.9), None);
        let mut shuffled = v.clone();
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 99.0), Some(990.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_its_rank() {
        // p99 of n samples has rank ⌈0.99 n⌉: n = 1000 leaves exactly ten
        // beyond it, n = 999 leaves nine.
        assert_eq!(percentile(&one_to(1000), 99.0), Some(990.0));
        assert_eq!(percentile(&one_to(999), 99.0), None);
        // The median needs twenty samples: rank 10 of 20 leaves ten beyond.
        assert_eq!(percentile(&one_to(20), 50.0), Some(10.0));
        assert_eq!(percentile(&one_to(19), 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }
}
