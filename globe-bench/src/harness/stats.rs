//! Order statistics the harness reports: nearest-rank percentiles with
//! the "ten samples beyond" rule, medians, and the quartiles the
//! acceptance check uses.

/// Nearest-rank percentile of an ascending slice: the value at rank
/// `ceil(permille/1000 · N)`, in integer arithmetic so `0.99 × 1000`
/// cannot round a rank past its bucket. `None` when empty.
pub fn nearest_rank(sorted: &[f64], permille: usize) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (permille * sorted.len()).div_ceil(1000);
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// How many samples lie strictly beyond the nearest-rank position of
/// `permille` in a sample of `count`.
pub fn samples_beyond(count: usize, permille: usize) -> usize {
    count.saturating_sub((permille * count).div_ceil(1000).clamp(1, count.max(1)))
}

/// The highest of p99 / p95 / p90 / p50 that still has at least ten
/// samples beyond it, as `(permille, value)`. A tail read off fewer
/// samples is one outlier, not a percentile; full-scale runs assert the
/// answer is p99, `--tiny` runs report whatever the sample supports.
/// `None` only when the sample is empty.
pub fn supported_tail(sorted: &[f64]) -> Option<(usize, f64)> {
    for permille in [990, 950, 900] {
        if samples_beyond(sorted.len(), permille) >= 10 {
            return nearest_rank(sorted, permille).map(|v| (permille, v));
        }
    }
    nearest_rank(sorted, 500).map(|v| (500, v))
}

/// Sorts ascending; NaNs (never produced by the harness) sort last.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
}

/// Median: the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives
/// them, because that is what the acceptance check computes. Needs at
/// least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median — the "spread" the
/// acceptance check compares with a metric's bound.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_is_exact_at_bucket_edges() {
        let v = ramp(1000);
        assert_eq!(nearest_rank(&v, 990), Some(990.0));
        assert_eq!(nearest_rank(&v, 500), Some(500.0));
        assert_eq!(nearest_rank(&v, 999), Some(999.0));
        // 0.95 × 20 = 19.000000000000004 in floats; integer ranks don't care.
        assert_eq!(nearest_rank(&ramp(20), 950), Some(19.0));
        assert_eq!(nearest_rank(&[], 500), None);
        assert_eq!(nearest_rank(&[7.0], 990), Some(7.0));
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(1000, 990), 10);
        assert_eq!(samples_beyond(999, 990), 9);
        assert_eq!(supported_tail(&ramp(1000)), Some((990, 990.0)));
        // 999 samples: p99 has only 9 beyond, so p95 is the honest tail.
        assert_eq!(supported_tail(&ramp(999)).map(|t| t.0), Some(950));
        assert_eq!(supported_tail(&ramp(150)).map(|t| t.0), Some(900));
        assert_eq!(supported_tail(&ramp(50)).map(|t| t.0), Some(500));
        assert_eq!(supported_tail(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&ramp(10)), Some(1.0));
    }

    #[test]
    fn median_handles_both_parities() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
