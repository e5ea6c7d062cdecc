//! Cold-start scoring of brand-new articles.
//!
//! A submission that is not yet in the corpus has no citations, but it
//! *does* have a venue and an author list — and QRank's final venue and
//! author score vectors price those immediately. [`ColdStartScorer`]
//! freezes one QRank run and scores hypothetical new articles against it,
//! which is how a production search system would rank just-published work
//! between reindexing runs.

use crate::qrank::QRankResult;
use scholar_corpus::model::{author_position_weights, AuthorId, VenueId};
use scholar_corpus::Corpus;

/// Scores not-yet-indexed articles from a frozen [`QRankResult`].
#[derive(Debug, Clone)]
pub struct ColdStartScorer {
    venue_scores: Vec<f64>,
    author_scores: Vec<f64>,
    /// λ_V / (λ_V + λ_U): how venue and author signal split for an article
    /// with no citation signal at all.
    venue_share: f64,
    /// Mean article score, used to express results on the same scale as
    /// indexed articles.
    mean_article_score: f64,
}

impl ColdStartScorer {
    /// Build a scorer from a finished QRank run.
    ///
    /// `lambda_venue` / `lambda_author` are the weights the run used (the
    /// citation share is dropped and the remaining weights renormalized,
    /// since a cold article has no citation signal).
    pub fn new(result: &QRankResult, lambda_venue: f64, lambda_author: f64) -> Self {
        assert!(lambda_venue >= 0.0 && lambda_author >= 0.0, "weights must be >= 0");
        let total = lambda_venue + lambda_author;
        let venue_share = if total > 0.0 { lambda_venue / total } else { 0.5 };
        let n = result.article_scores.len();
        ColdStartScorer {
            venue_scores: result.venue_scores.clone(),
            author_scores: result.author_scores.clone(),
            venue_share,
            mean_article_score: if n == 0 {
                0.0
            } else {
                result.article_scores.iter().sum::<f64>() / n as f64
            },
        }
    }

    /// [`Self::new`] with the weights taken from the
    /// [`MixParams`](crate::engine::MixParams) the result was solved under.
    pub fn from_mix(result: &QRankResult, mix: &crate::engine::MixParams) -> Self {
        Self::new(result, mix.lambda_venue, mix.lambda_author)
    }

    /// Score a hypothetical new article by venue and byline.
    ///
    /// Returned on the article-score scale of the underlying run (so it is
    /// directly comparable with `QRankResult::article_scores`): the
    /// venue/author mix is expressed relative to the *mean* venue/author
    /// prestige and multiplied by the mean indexed-article score.
    pub fn score(&self, venue: VenueId, authors: &[AuthorId]) -> f64 {
        let nv = self.venue_scores.len();
        let na = self.author_scores.len();
        assert!(venue.index() < nv, "venue {venue} out of bounds");
        let mean_v = if nv == 0 { 0.0 } else { 1.0 / nv as f64 };
        let mean_u = if na == 0 { 0.0 } else { 1.0 / na as f64 };

        let v_rel = if mean_v > 0.0 { self.venue_scores[venue.index()] / mean_v } else { 0.0 };
        let u_rel = if authors.is_empty() || mean_u == 0.0 {
            0.0
        } else {
            let w = author_position_weights(authors.len());
            let mixed: f64 = authors
                .iter()
                .zip(&w)
                .map(|(&u, &pw)| {
                    assert!(u.index() < na, "author {u} out of bounds");
                    pw * self.author_scores[u.index()]
                })
                .sum();
            mixed / mean_u
        };
        let rel = self.venue_share * v_rel + (1.0 - self.venue_share) * u_rel;
        rel * self.mean_article_score
    }

    /// Rank several hypothetical submissions, best first. Returns indices
    /// into `candidates` with their scores.
    pub fn rank_candidates(&self, candidates: &[(VenueId, Vec<AuthorId>)]) -> Vec<(usize, f64)> {
        let mut scored: Vec<(usize, f64)> =
            candidates.iter().enumerate().map(|(i, (v, us))| (i, self.score(*v, us))).collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        scored
    }

    /// The percentile (0 = worst, 1 = best) a cold score would take among
    /// the indexed articles of `corpus` under `result`'s article scores.
    pub fn percentile_among(&self, score: f64, result: &QRankResult, corpus: &Corpus) -> f64 {
        let n = corpus.num_articles();
        if n == 0 {
            return 0.0;
        }
        let below = result.article_scores.iter().filter(|&&s| s < score).count();
        below as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QRankConfig;
    use crate::qrank::QRank;
    use scholar_corpus::CorpusBuilder;

    fn setup() -> (Corpus, QRankResult, ColdStartScorer) {
        let mut b = CorpusBuilder::new();
        let good = b.venue("Good");
        let dull = b.venue("Dull");
        let star = b.author("Star");
        let newbie = b.author("Newbie");
        let hit = b.add_article("hit", 1990, good, vec![star], vec![], None);
        for i in 0..6 {
            let citer = b.author(&format!("c{i}"));
            b.add_article(&format!("c{i}"), 1995 + i, dull, vec![citer], vec![hit], None);
        }
        b.add_article("n", 2010, dull, vec![newbie], vec![hit], None);
        let c = b.finish().unwrap();
        let cfg = QRankConfig::default();
        let res = QRank::new(cfg.clone()).run(&c);
        let scorer = ColdStartScorer::new(&res, cfg.lambda_venue, cfg.lambda_author);
        (c, res, scorer)
    }

    #[test]
    fn strong_venue_and_author_beat_weak_ones() {
        let (_, _, scorer) = setup();
        let strong = scorer.score(VenueId(0), &[AuthorId(0)]); // Good venue, Star
        let weak = scorer.score(VenueId(1), &[AuthorId(1)]); // Dull venue, Newbie
        assert!(strong > weak, "{strong} vs {weak}");
    }

    #[test]
    fn venue_only_and_author_only_contributions() {
        let (_, _, scorer) = setup();
        let no_authors = scorer.score(VenueId(0), &[]);
        assert!(no_authors > 0.0, "venue signal alone must produce a score");
        let weak_venue_strong_author = scorer.score(VenueId(1), &[AuthorId(0)]);
        let weak_both = scorer.score(VenueId(1), &[AuthorId(1)]);
        assert!(weak_venue_strong_author > weak_both);
    }

    #[test]
    fn rank_candidates_orders_descending() {
        let (_, _, scorer) = setup();
        let cands = vec![
            (VenueId(1), vec![AuthorId(1)]),
            (VenueId(0), vec![AuthorId(0)]),
            (VenueId(0), vec![AuthorId(1)]),
        ];
        let ranked = scorer.rank_candidates(&cands);
        assert_eq!(ranked[0].0, 1, "strongest candidate first");
        assert!(ranked[0].1 >= ranked[1].1 && ranked[1].1 >= ranked[2].1);
    }

    #[test]
    fn percentile_is_monotone() {
        let (c, res, scorer) = setup();
        let strong = scorer.score(VenueId(0), &[AuthorId(0)]);
        let weak = scorer.score(VenueId(1), &[AuthorId(1)]);
        let ps = scorer.percentile_among(strong, &res, &c);
        let pw = scorer.percentile_among(weak, &res, &c);
        assert!(ps >= pw);
        assert!((0.0..=1.0).contains(&ps));
    }

    #[test]
    fn byline_order_matters() {
        let (_, _, scorer) = setup();
        let star_first = scorer.score(VenueId(1), &[AuthorId(0), AuthorId(1)]);
        let star_last = scorer.score(VenueId(1), &[AuthorId(1), AuthorId(0)]);
        assert!(
            star_first > star_last,
            "first-author weighting must matter ({star_first} vs {star_last})"
        );
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn unknown_venue_panics() {
        let (_, _, scorer) = setup();
        scorer.score(VenueId(99), &[]);
    }
}
