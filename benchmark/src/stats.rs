//! Order statistics for the ledger: medians over repetitions/segments,
//! nearest-rank percentiles over raw latency samples, and the spread
//! measure (`IQR ÷ median`) the bounds in `BENCHMARK.json` are sized from.

/// Median of `values` (mean of the two middle values for an even count).
/// `None` for an empty slice — a metric with no samples is a failed run,
/// never a silent zero.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 })
}

/// The smallest of `values`: the least-disturbed repetition. On the
/// sandbox interference only ever adds time and comes in stretches of
/// seconds to minutes, so the best of several repetitions repeats far
/// more tightly than their median (see the README's noise section).
pub fn best(values: &[f64]) -> Option<f64> {
    values.iter().copied().min_by(f64::total_cmp)
}

/// Nearest-rank percentile `p` (in `(0, 1]`) of an ascending slice: the
/// smallest sample with at least `p` of the mass at or below it.
pub fn percentile_sorted(sorted: &[u32], p: f64) -> Option<u32> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len()) - 1).copied()
}

/// The tail percentiles the ledger reports, lowest first.
const TAILS: [f64; 4] = [0.9, 0.99, 0.999, 0.9999];

/// The highest of [`TAILS`] that still has at least ten samples beyond
/// it among `n` — a percentile estimated from fewer is one outlier's
/// position, not a property of the system. `None` below 100 samples.
pub fn highest_supported_tail(n: usize) -> Option<f64> {
    TAILS.iter().rev().copied().find(|&p| samples_beyond(n, p) >= 10)
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`.
fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives — the same arithmetic the driver applies to
/// ten runs. `None` with fewer than two values or a zero median.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |q: f64| {
        // Exclusive method: position q·(n+1) on a 1-based axis, clamped
        // to the data, linear between neighbours.
        let pos = (q * (v.len() + 1) as f64).clamp(1.0, v.len() as f64);
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo - 1] + (v[hi - 1] - v[lo - 1]) * (pos - lo as f64)
    };
    let med = median(&v)?;
    (med != 0.0).then(|| (quartile(0.75) - quartile(0.25)) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn best_is_the_minimum() {
        assert_eq!(best(&[3.0, 1.5, 2.0]), Some(1.5));
        assert_eq!(best(&[]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.5), Some(50));
        assert_eq!(percentile_sorted(&v, 0.99), Some(99));
        assert_eq!(percentile_sorted(&v, 1.0), Some(100));
        assert_eq!(percentile_sorted(&v, 0.001), Some(1));
        assert_eq!(percentile_sorted(&[], 0.5), None);
        // Ties and a short slice.
        assert_eq!(percentile_sorted(&[5, 5, 9], 0.5), Some(5));
        assert_eq!(percentile_sorted(&[5, 5, 9], 0.9), Some(9));
    }

    #[test]
    fn highest_tail_needs_ten_samples_beyond_it() {
        // 99 samples: p90 has rank 90, 9 beyond — not enough.
        assert_eq!(highest_supported_tail(99), None);
        // 100 samples: p90 has rank 90, exactly 10 beyond.
        assert_eq!(highest_supported_tail(100), Some(0.9));
        // 1,000: p99 has 10 beyond; p99.9 has 1.
        assert_eq!(highest_supported_tail(999), Some(0.9));
        assert_eq!(highest_supported_tail(1_000), Some(0.99));
        assert_eq!(highest_supported_tail(9_999), Some(0.99));
        assert_eq!(highest_supported_tail(10_000), Some(0.999));
        assert_eq!(highest_supported_tail(100_000), Some(0.9999));
        assert_eq!(highest_supported_tail(0), None);
    }

    #[test]
    fn iqr_share_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let got = iqr_share(&v).unwrap();
        assert!((got - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{got}");
        // statistics.quantiles([10, 12, 11, 13, 40], n=4) == [10.5, 12.0, 26.5]
        let got = iqr_share(&[10.0, 12.0, 11.0, 13.0, 40.0]).unwrap();
        assert!((got - 16.0 / 12.0).abs() < 1e-12, "{got}");
        assert_eq!(iqr_share(&[1.0]), None);
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), None);
    }
}
