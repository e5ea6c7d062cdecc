//! Rank fusion: combine several rankers into one ranking.
//!
//! Production search systems rarely ship a single signal; they fuse. Two
//! classic unsupervised fusions are provided:
//!
//! * **Reciprocal rank fusion** (Cormack, Clarke & Büttcher 2009):
//!   `score(a) = Σ_r 1 / (k + rank_r(a))` — robust to score-scale
//!   differences, the default.
//! * **Borda count**: `score(a) = Σ_r (n − rank_r(a))` — the classic
//!   voting rule.
//!
//! Both consume *ranks*, not raw scores, so wildly different score
//! distributions (see R-Table 7) fuse sanely.

use crate::context::RankContext;
use crate::ranker::Ranker;
use crate::scores::{competition_ranks, normalize};
use crate::telemetry::{RankOutput, SolveTelemetry};

/// Which fusion rule to apply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FusionRule {
    /// Reciprocal rank fusion with the given `k` (60 is the literature
    /// default).
    ReciprocalRank {
        /// Smoothing constant; larger = flatter contribution of top ranks.
        k: f64,
    },
    /// Borda count.
    Borda,
}

impl Default for FusionRule {
    fn default() -> Self {
        FusionRule::ReciprocalRank { k: 60.0 }
    }
}

/// Fuse pre-computed score vectors (all over the same items).
pub fn fuse_scores(score_lists: &[Vec<f64>], rule: FusionRule) -> Vec<f64> {
    assert!(!score_lists.is_empty(), "need at least one ranking to fuse");
    let n = score_lists[0].len();
    for s in score_lists {
        assert_eq!(s.len(), n, "all rankings must cover the same items");
    }
    if let FusionRule::ReciprocalRank { k } = rule {
        assert!(k > 0.0, "RRF k must be positive");
    }
    let mut fused = vec![0.0f64; n];
    for scores in score_lists {
        let ranks = competition_ranks(scores);
        for (i, &r) in ranks.iter().enumerate() {
            match rule {
                FusionRule::ReciprocalRank { k } => fused[i] += 1.0 / (k + r as f64),
                FusionRule::Borda => fused[i] += (n - r) as f64,
            }
        }
    }
    normalize(&mut fused);
    fused
}

/// A [`Ranker`] that fuses the rankings of several inner rankers.
pub struct FusedRanker {
    /// The inner rankers.
    pub rankers: Vec<Box<dyn Ranker>>,
    /// The fusion rule.
    pub rule: FusionRule,
}

impl FusedRanker {
    /// Fuse the given rankers under `rule`.
    pub fn new(rankers: Vec<Box<dyn Ranker>>, rule: FusionRule) -> Self {
        assert!(!rankers.is_empty(), "need at least one ranker");
        FusedRanker { rankers, rule }
    }
}

impl Ranker for FusedRanker {
    fn name(&self) -> String {
        let inner: Vec<String> = self.rankers.iter().map(|r| r.name()).collect();
        let rule = match self.rule {
            FusionRule::ReciprocalRank { .. } => "RRF",
            FusionRule::Borda => "Borda",
        };
        format!("{rule}[{}]", inner.join("+"))
    }

    fn solve_ctx(&self, ctx: &RankContext) -> RankOutput {
        let outputs: Vec<RankOutput> = self.rankers.iter().map(|r| r.solve_ctx(ctx)).collect();
        // Aggregate telemetry across the fused solves: total work and worst
        // convergence.
        let telemetry = SolveTelemetry {
            iterations: outputs.iter().map(|o| o.telemetry.iterations).sum(),
            converged: outputs.iter().all(|o| o.telemetry.converged),
            residuals: Vec::new(),
            build_secs: outputs.iter().map(|o| o.telemetry.build_secs).sum(),
            solve_secs: outputs.iter().map(|o| o.telemetry.solve_secs).sum(),
        };
        let lists: Vec<Vec<f64>> = outputs.into_iter().map(|o| o.scores).collect();
        RankOutput { scores: fuse_scores(&lists, self.rule), telemetry }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::citation_count::CitationCount;
    use crate::time_weighted::TimeWeightedPageRank;

    #[test]
    fn fusing_identical_rankings_preserves_order() {
        let s = vec![vec![0.5, 0.3, 0.2], vec![0.6, 0.3, 0.1]]; // same order
        for rule in [FusionRule::default(), FusionRule::Borda] {
            let fused = fuse_scores(&s, rule);
            assert!(fused[0] > fused[1] && fused[1] > fused[2]);
            assert!((fused.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn disagreement_lands_in_the_middle() {
        // Ranker A: 0 > 1 > 2. Ranker B: 2 > 1 > 0. Item 1 is everyone's
        // second choice and must win under Borda.
        let s = vec![vec![3.0, 2.0, 1.0], vec![1.0, 2.0, 3.0]];
        let borda = fuse_scores(&s, FusionRule::Borda);
        assert!(borda[1] >= borda[0] && borda[1] >= borda[2]);
        // RRF favors anything that was ranked first somewhere, so 1 ties
        // or loses — either way all scores are positive and normalized.
        let rrf = fuse_scores(&s, FusionRule::default());
        assert!((rrf.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((rrf[0] - rrf[2]).abs() < 1e-12, "symmetric items fuse symmetrically");
    }

    #[test]
    fn scale_invariance() {
        // RRF depends only on ranks: multiplying one input by 1000
        // changes nothing.
        let a = vec![vec![0.5, 0.3, 0.2], vec![9.0, 1.0, 5.0]];
        let b = vec![vec![500.0, 300.0, 200.0], vec![0.009, 0.001, 0.005]];
        let fa = fuse_scores(&a, FusionRule::default());
        let fb = fuse_scores(&b, FusionRule::default());
        for (x, y) in fa.iter().zip(&fb) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn fused_ranker_end_to_end() {
        let c = scholar_corpus::generator::Preset::Tiny.generate(21);
        let fused = FusedRanker::new(
            vec![Box::new(CitationCount), Box::new(TimeWeightedPageRank::default())],
            FusionRule::default(),
        );
        assert!(fused.name().starts_with("RRF["));
        let s = fused.rank(&c);
        assert_eq!(s.len(), c.num_articles());
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "same items")]
    fn mismatched_lengths_panic() {
        fuse_scores(&[vec![1.0], vec![1.0, 2.0]], FusionRule::Borda);
    }

    #[test]
    #[should_panic(expected = "at least one ranking")]
    fn empty_input_panics() {
        fuse_scores(&[], FusionRule::Borda);
    }
}
