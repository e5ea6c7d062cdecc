//! Rescaled ranking (Mariani, Medo & Zhang 2016): z-score any ranker's
//! output within publication-year windows.
//!
//! Instead of re-weighting the walk (TWPR) or adding priors (QRank), the
//! rescaling approach removes age effects *after the fact*: an article's
//! score is expressed relative to the mean and standard deviation of the
//! scores of articles published around the same time. An article is then
//! ranked by how exceptional it is *for its age*, which mechanically
//! de-biases any underlying method — at the cost of making scores
//! incomparable in absolute terms (a so-so article in a weak year can
//! outrank a good article from a strong year).

use crate::context::RankContext;
use crate::ranker::Ranker;
use crate::telemetry::RankOutput;
use scholar_corpus::Year;

/// Wraps any ranker and z-scores its output within publication-year
/// windows of `window_years`.
pub struct RescaledRanker {
    /// The underlying ranker.
    pub inner: Box<dyn Ranker>,
    /// Width of the year bucket used for normalization (1 = per-year).
    pub window_years: i32,
}

impl RescaledRanker {
    /// Rescale `inner` within `window_years`-wide year buckets.
    pub fn new(inner: Box<dyn Ranker>, window_years: i32) -> Self {
        assert!(window_years > 0, "window must be positive");
        RescaledRanker { inner, window_years }
    }
}

/// The relative spread (`std / |mean|`) at or below which a bucket's
/// scores count as tied: far below any walk's tolerance, far above the
/// rounding of a mean.
const TIED_SPREAD: f64 = 1e-12;

/// Z-score `scores` within `window_years`-wide buckets of the per-article
/// `years`; buckets with fewer than 2 articles (or zero variance) get
/// z = 0 for their members. A bucket's variance counts as zero when its
/// standard deviation is at most 1e-12 of its mean: a bucket of equal
/// scores has a mean that rounds, and so a variance of ~1e-37, not 0,
/// which would hand the whole bucket one z decided by the last bit of the
/// walk. The output is shifted/renormalized into a distribution
/// (min-shifted to non-negative, then L1-normalized) so the [`Ranker`]
/// contract holds.
pub fn rescale_by_years(years: &[Year], scores: &[f64], window_years: i32) -> Vec<f64> {
    assert_eq!(scores.len(), years.len(), "score length mismatch");
    assert!(window_years > 0, "window must be positive");
    let n = scores.len();
    if n == 0 {
        return Vec::new();
    }
    let first = years.iter().copied().min().expect("non-empty corpus");
    // Bucket index per article.
    let bucket_of: Vec<usize> =
        years.iter().map(|&y| ((y - first).max(0) / window_years) as usize).collect();
    let num_buckets = bucket_of.iter().copied().max().unwrap_or(0) + 1;
    let mut count = vec![0usize; num_buckets];
    let mut sum = vec![0.0f64; num_buckets];
    for (i, &b) in bucket_of.iter().enumerate() {
        count[b] += 1;
        sum[b] += scores[i];
    }
    let mean: Vec<f64> =
        sum.iter().zip(&count).map(|(&s, &c)| if c > 0 { s / c as f64 } else { 0.0 }).collect();
    let mut var = vec![0.0f64; num_buckets];
    for (i, &b) in bucket_of.iter().enumerate() {
        let d = scores[i] - mean[b];
        var[b] += d * d;
    }
    let std: Vec<f64> = var
        .iter()
        .zip(&count)
        .zip(&mean)
        .map(|((&v, &c), &m)| {
            let std = if c > 1 { (v / c as f64).sqrt() } else { 0.0 };
            if std > TIED_SPREAD * m.abs() {
                std
            } else {
                0.0
            }
        })
        .collect();

    let mut z: Vec<f64> = (0..n)
        .map(|i| {
            let b = bucket_of[i];
            if std[b] > 0.0 {
                (scores[i] - mean[b]) / std[b]
            } else {
                0.0
            }
        })
        .collect();
    // Shift to non-negative and normalize into a distribution.
    let min = z.iter().copied().fold(f64::INFINITY, f64::min);
    for v in &mut z {
        *v -= min;
    }
    crate::scores::normalize_or_uniform(&mut z);
    z
}

impl Ranker for RescaledRanker {
    fn name(&self) -> String {
        format!("Rescaled[{}]({}y)", self.inner.name(), self.window_years)
    }

    fn solve_ctx(&self, ctx: &RankContext) -> RankOutput {
        let inner = self.inner.solve_ctx(ctx);
        if inner.scores.is_empty() {
            return inner;
        }
        let scores = rescale_by_years(ctx.years(), &inner.scores, self.window_years);
        // The rescaling itself is closed-form; the telemetry that matters
        // (iterations, convergence, walls) is the wrapped solve's.
        RankOutput { scores, telemetry: inner.telemetry }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::citation_count::CitationCount;
    use crate::pagerank::PageRank;
    use crate::scores::top_k;
    use scholar_corpus::generator::Preset;
    use scholar_corpus::CorpusBuilder;

    #[test]
    fn z_scoring_within_buckets() {
        // Two years; within each year one article (a star) dominates.
        let years = [1990, 1990, 1991, 1991];
        // Raw scores: 1990 articles are an order of magnitude higher.
        let raw = [1.0, 0.5, 0.1, 0.05];
        let z = rescale_by_years(&years, &raw, 1);
        // After rescaling, the two stars tie (each is +1σ of its year).
        assert!((z[0] - z[2]).abs() < 1e-12, "stars should tie: {z:?}");
        assert!((z[1] - z[3]).abs() < 1e-12, "mehs should tie: {z:?}");
        assert!(z[0] > z[1]);
        assert!((z.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn removes_age_bias_from_pagerank() {
        let c = Preset::Tiny.generate(91);
        let (lo, hi) = c.year_range().unwrap();
        let mid = (lo + hi) / 2;
        let old_in_top = |scores: &[f64]| {
            top_k(scores, 30).iter().filter(|&&i| c.articles()[i].year <= mid).count()
        };
        let pr = PageRank::default().rank(&c);
        let rescaled = RescaledRanker::new(Box::new(PageRank::default()), 1).rank(&c);
        assert!(
            old_in_top(&rescaled) < old_in_top(&pr),
            "rescaling should de-skew the top ({} vs {})",
            old_in_top(&rescaled),
            old_in_top(&pr)
        );
    }

    #[test]
    fn degenerate_buckets_are_safe() {
        // Single article per year: all z = 0 -> uniform.
        let z = rescale_by_years(&[2000, 2001], &[0.9, 0.1], 1);
        assert_eq!(z, vec![0.5, 0.5]);
    }

    #[test]
    fn a_bucket_of_equal_scores_is_tied() {
        // 0.1 × 3 rounds (0.30000000000000004), so the mean is not 0.1 and
        // the computed variance is not 0; the bucket still ties, and the
        // other bucket's order survives.
        let (years, raw) = ([2000, 2000, 2000, 2001, 2001], [0.1, 0.1, 0.1, 0.3, 0.2]);
        let mean = raw[..3].iter().sum::<f64>() / 3.0;
        assert_ne!(mean, 0.1, "the test needs a mean that rounds");
        let z = rescale_by_years(&years, &raw, 1);
        assert_eq!(z[0], z[1]);
        assert_eq!(z[1], z[2]);
        // The tied bucket sits at z = 0, midway between the other's ±1σ.
        let want = [0.2, 0.2, 0.2, 0.4, 0.0];
        assert!(z.iter().zip(want).all(|(a, b)| (a - b).abs() < 1e-12), "{z:?}");
    }

    #[test]
    fn wider_window_merges_buckets() {
        // With a 5-year window both land in one bucket; scores differ.
        let z = rescale_by_years(&[2000, 2001], &[0.9, 0.1], 5);
        assert!(z[0] > z[1]);
    }

    #[test]
    fn ranker_wrapper_name_and_contract() {
        let c = Preset::Tiny.generate(92);
        let r = RescaledRanker::new(Box::new(CitationCount), 3);
        assert_eq!(r.name(), "Rescaled[CitCount](3y)");
        let s = r.rank(&c);
        assert_eq!(s.len(), c.num_articles());
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(s.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn empty_corpus() {
        let c = CorpusBuilder::new().finish().unwrap();
        let r = RescaledRanker::new(Box::new(CitationCount), 1);
        assert!(r.rank(&c).is_empty());
    }
}
