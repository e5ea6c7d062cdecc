//! Paired-bootstrap significance testing for metric differences.
//!
//! "Method A scores 0.79, method B scores 0.78" means little without a
//! significance statement; published evaluations (and R-Table 2's
//! narrative in EXPERIMENTS.md) report whether differences survive a
//! paired bootstrap over articles: resample the article set with
//! replacement, recompute the metric for both methods on the same
//! resample, and look at the distribution of the difference.

use crate::metrics::{ndcg_at_k, pairwise_accuracy_auto, spearman};
use srand::rngs::SmallRng;
use srand::{Rng, SeedableRng};

/// Which metric to bootstrap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BootstrapMetric {
    /// Spearman rank correlation against the ground truth (fast and
    /// well-behaved under resampling; the default).
    Spearman,
    /// Pairwise accuracy ([`pairwise_accuracy_auto`]): its pair sample is
    /// seeded alike for both methods, so a replicate scores them on the
    /// same pairs.
    PairwiseAccuracy,
    /// NDCG at the given cutoff.
    NdcgAt(usize),
}

impl BootstrapMetric {
    /// The metric of `scores` against `truth`.
    pub fn eval(self, truth: &[f64], scores: &[f64]) -> f64 {
        match self {
            BootstrapMetric::Spearman => spearman(truth, scores),
            BootstrapMetric::PairwiseAccuracy => pairwise_accuracy_auto(truth, scores, 0xfeed),
            BootstrapMetric::NdcgAt(k) => ndcg_at_k(truth, scores, k),
        }
    }
}

/// Result of a paired bootstrap comparison of two methods.
#[derive(Debug, Clone, PartialEq)]
pub struct BootstrapResult {
    /// Point estimate of `metric(A) − metric(B)` on the full data.
    pub observed_delta: f64,
    /// Mean of the bootstrap deltas.
    pub mean_delta: f64,
    /// 2.5th percentile of the bootstrap deltas.
    pub ci_low: f64,
    /// 97.5th percentile of the bootstrap deltas.
    pub ci_high: f64,
    /// Two-sided bootstrap p-value for "the difference is zero".
    pub p_value: f64,
    /// Number of bootstrap replicates used.
    pub replicates: usize,
}

impl BootstrapResult {
    /// `true` when the 95% interval excludes zero.
    pub fn significant(&self) -> bool {
        self.ci_low > 0.0 || self.ci_high < 0.0
    }
}

/// Paired bootstrap over articles: is `scores_a` better than `scores_b`
/// at recovering `truth`?
///
/// Deterministic given `seed`. Panics on length mismatches or fewer than
/// 10 items.
pub fn paired_bootstrap(
    truth: &[f64],
    scores_a: &[f64],
    scores_b: &[f64],
    metric: BootstrapMetric,
    replicates: usize,
    seed: u64,
) -> BootstrapResult {
    assert_eq!(truth.len(), scores_a.len(), "length mismatch (A)");
    assert_eq!(truth.len(), scores_b.len(), "length mismatch (B)");
    let n = truth.len();
    assert!(n >= 10, "need at least 10 items to bootstrap");
    assert!(replicates >= 10, "need at least 10 replicates");

    let observed_delta = metric.eval(truth, scores_a) - metric.eval(truth, scores_b);

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut deltas = Vec::with_capacity(replicates);
    let mut t = vec![0.0; n];
    let mut a = vec![0.0; n];
    let mut b = vec![0.0; n];
    for _ in 0..replicates {
        for slot in 0..n {
            let idx = rng.gen_range(0..n);
            t[slot] = truth[idx];
            a[slot] = scores_a[idx];
            b[slot] = scores_b[idx];
        }
        let d = metric.eval(&t, &a) - metric.eval(&t, &b);
        if d.is_finite() {
            deltas.push(d);
        }
    }
    assert!(!deltas.is_empty(), "all bootstrap replicates degenerate");
    deltas.sort_by(|x, y| x.partial_cmp(y).unwrap());
    let m = deltas.len();
    let mean_delta = deltas.iter().sum::<f64>() / m as f64;
    let pct = |q: f64| deltas[((q * (m - 1) as f64).round() as usize).min(m - 1)];
    let ci_low = pct(0.025);
    let ci_high = pct(0.975);
    let frac_le = deltas.iter().filter(|&&d| d <= 0.0).count() as f64 / m as f64;
    let frac_ge = deltas.iter().filter(|&&d| d >= 0.0).count() as f64 / m as f64;
    let p_value = (2.0 * frac_le.min(frac_ge)).min(1.0);

    BootstrapResult { observed_delta, mean_delta, ci_low, ci_high, p_value, replicates: m }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_truth(n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        // truth = i; A = truth + small noise; B = mostly noise.
        let mut state = 42u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 32) as f64 / u32::MAX as f64) - 0.5
        };
        let truth: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let a: Vec<f64> = (0..n).map(|i| i as f64 + 3.0 * next()).collect();
        let b: Vec<f64> = (0..n).map(|i| 0.05 * i as f64 + 100.0 * next()).collect();
        (truth, a, b)
    }

    #[test]
    fn clearly_better_method_is_significant() {
        let (t, a, b) = noisy_truth(300);
        let res = paired_bootstrap(&t, &a, &b, BootstrapMetric::Spearman, 500, 1);
        assert!(res.observed_delta > 0.2);
        assert!(res.significant(), "CI [{}, {}]", res.ci_low, res.ci_high);
        assert!(res.p_value < 0.05);
        assert!(res.ci_low <= res.mean_delta && res.mean_delta <= res.ci_high);
    }

    #[test]
    fn method_vs_itself_is_not_significant() {
        let (t, a, _) = noisy_truth(300);
        let res = paired_bootstrap(&t, &a, &a, BootstrapMetric::Spearman, 300, 2);
        assert_eq!(res.observed_delta, 0.0);
        assert!(!res.significant());
        assert!(res.p_value > 0.9);
    }

    #[test]
    fn every_metric_finds_the_clearly_better_method() {
        let (t, a, b) = noisy_truth(300);
        for metric in [BootstrapMetric::PairwiseAccuracy, BootstrapMetric::NdcgAt(20)] {
            let res = paired_bootstrap(&t, &a, &b, metric, 200, 4);
            assert!(res.significant() && res.observed_delta > 0.0, "{metric:?}: {res:?}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let (t, a, b) = noisy_truth(100);
        let r1 = paired_bootstrap(&t, &a, &b, BootstrapMetric::Spearman, 200, 9);
        let r2 = paired_bootstrap(&t, &a, &b, BootstrapMetric::Spearman, 200, 9);
        assert_eq!(r1, r2);
    }

    #[test]
    fn sign_flips_with_order() {
        let (t, a, b) = noisy_truth(200);
        let ab = paired_bootstrap(&t, &a, &b, BootstrapMetric::Spearman, 200, 3);
        let ba = paired_bootstrap(&t, &b, &a, BootstrapMetric::Spearman, 200, 3);
        assert!((ab.observed_delta + ba.observed_delta).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least 10 items")]
    fn tiny_input_panics() {
        paired_bootstrap(&[1.0; 3], &[1.0; 3], &[1.0; 3], BootstrapMetric::Spearman, 100, 0);
    }
}
