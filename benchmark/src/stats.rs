//! Order statistics: medians, Python-compatible quartiles, and the
//! tail-percentile rule ("at least ten samples beyond it").

/// The median of `values` (mean of the middle two for even counts).
/// Panics on an empty slice: every caller has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default exclusive method) gives them — the driver's spread rule.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |i: usize| {
        // j / delta of m * i / 4 with m = n + 1, clamped as Python does.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Inter-quartile range as a share of the median.
pub fn spread_frac(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Samples strictly beyond the nearest-rank `q`-quantile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - rank(n, q) - 1
}

fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank quantile of an ascending-sorted slice.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    sorted[rank(sorted.len(), q)]
}

/// The highest of p50/p90/p95/p99 that still has at least ten samples
/// beyond it in a population of `n` (p50 when nothing does).
pub fn tail_quantile(n: usize) -> f64 {
    [0.99, 0.95, 0.90]
        .into_iter()
        .find(|&q| samples_beyond(n, q) >= 10)
        .unwrap_or(0.50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 4.5));
        assert_eq!(spread_frac(&v), 1.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        // 1000 samples: rank 989 (0-based) is p99, ten samples lie beyond.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(tail_quantile(1000), 0.99);
        // 999 samples leave only nine beyond p99: fall to p95.
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(tail_quantile(999), 0.95);
        assert_eq!(tail_quantile(150), 0.90);
        assert_eq!(tail_quantile(30), 0.50);
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile_sorted(&sorted, 0.99), 990);
        assert_eq!(quantile_sorted(&sorted, 0.50), 500);
    }
}
