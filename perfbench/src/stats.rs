//! The host clock and order statistics over its samples.

use std::time::Instant;

/// Reads the host's monotonic clock: the benchmark's one wall-clock site,
/// since host time is what it measures.
#[allow(clippy::disallowed_methods)]
pub fn now() -> Instant {
    // astra-lint: allow(wall-clock, the benchmark measures host time)
    Instant::now()
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Quantile `p` (0 < p < 1) by linear interpolation between order
/// statistics at rank `(n + 1) p` — the method of Python's
/// `statistics.quantiles` (its default, "exclusive"). Empty input gives 0.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    let mut xs = samples.to_vec();
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    let m = (n as f64 + 1.0) * p;
    let j = m.floor() as usize;
    if j < 1 {
        return xs[0];
    }
    if j >= n {
        return xs[n - 1];
    }
    xs[j - 1] + (m - j as f64) * (xs[j] - xs[j - 1])
}

/// The median (quantile 0.5).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Distance between the first and third quartile as a share of the
/// median: the run-to-run spread the benchmark's bounds are judged by.
pub fn spread(samples: &[f64]) -> f64 {
    let mid = median(samples);
    if samples.len() < 2 || mid == 0.0 {
        return 0.0;
    }
    (quantile(samples, 0.75) - quantile(samples, 0.25)) / mid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_exclusive_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.25), 2.75);
        assert_eq!(median(&xs), 5.5);
        assert_eq!(quantile(&xs, 0.75), 8.25);
        assert_eq!(median(&[4.0]), 4.0);
        assert_eq!(median(&[]), 0.0);
    }
}
