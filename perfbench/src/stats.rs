//! Order statistics over small samples.

/// Median (the mean of the middle pair for even lengths); NaN when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile `q` in `0..=1`; NaN when empty.
#[must_use]
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The tail quantile for `n` samples: the highest of 0.999, 0.99, 0.9
/// and 0.5 with at least 10 samples beyond it (0.5 when none has).
#[must_use]
pub fn tail_quantile(n: usize) -> f64 {
    [0.999, 0.99, 0.9]
        .into_iter()
        .find(|q| n as f64 * (1.0 - q) >= 10.0 - 1e-9)
        .unwrap_or(0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(10_000), 0.999);
        assert_eq!(tail_quantile(2048), 0.99);
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(128), 0.9);
        assert_eq!(tail_quantile(50), 0.5);
    }
}
