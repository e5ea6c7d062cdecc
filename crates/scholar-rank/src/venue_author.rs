//! Venue leaderboards derived from article scores.
//!
//! These are the aggregation primitives the examples use to print "top
//! venues" tables, and the simplest form of the venue signal QRank folds
//! back into article ranking. Per-author means are the authorship
//! bipartite's [`sgraph::Bipartite::aggregate_to_left`], which
//! [`crate::context::RankContext::authorship`] caches.

use crate::context::RankContext;
use scholar_corpus::{Corpus, Year};

/// Mean article score per venue (0 for venues with no articles).
pub fn venue_scores_from_articles(corpus: &Corpus, article_scores: &[f64]) -> Vec<f64> {
    venue_scores_from_articles_ctx(&RankContext::new(corpus), article_scores)
}

/// [`venue_scores_from_articles`] against a prepared context, reusing its
/// cached publication bipartite.
pub fn venue_scores_from_articles_ctx(ctx: &RankContext, article_scores: &[f64]) -> Vec<f64> {
    assert_eq!(article_scores.len(), ctx.num_articles(), "score length mismatch");
    ctx.publication().aggregate_to_left(article_scores)
}

/// Venue scores restricted to a publication-year window — prestige of a
/// venue "in its era", which avoids a venue coasting on decades-old hits.
pub fn venue_scores_in_window(
    corpus: &Corpus,
    article_scores: &[f64],
    from: Year,
    to: Year,
) -> Vec<f64> {
    assert_eq!(article_scores.len(), corpus.num_articles(), "score length mismatch");
    let mut sums = vec![0.0f64; corpus.num_venues()];
    let mut counts = vec![0usize; corpus.num_venues()];
    for a in corpus.articles() {
        if a.year >= from && a.year <= to {
            sums[a.venue.index()] += article_scores[a.id.index()];
            counts[a.venue.index()] += 1;
        }
    }
    for (s, &c) in sums.iter_mut().zip(&counts) {
        if c > 0 {
            *s /= c as f64;
        }
    }
    sums
}

/// The classic journal impact factor, simulated on the corpus: for each
/// venue, citations made by articles published *in* `year` to the venue's
/// articles published in the preceding `window` years, divided by the
/// number of such articles. (`window = 2` gives the standard 2-year JIF.)
///
/// Included as the bibliometric reference point the venue-prestige
/// leaderboards are compared against; venues with no eligible articles
/// score 0.
pub fn impact_factor(corpus: &Corpus, year: Year, window: i32) -> Vec<f64> {
    assert!(window > 0, "window must be positive");
    let from = year - window;
    let to = year - 1;
    let mut eligible = vec![0usize; corpus.num_venues()];
    for a in corpus.articles() {
        if a.year >= from && a.year <= to {
            eligible[a.venue.index()] += 1;
        }
    }
    let mut cites = vec![0usize; corpus.num_venues()];
    for citing in corpus.articles() {
        if citing.year != year {
            continue;
        }
        for &r in &citing.references {
            let cited = corpus.article(r);
            if cited.year >= from && cited.year <= to {
                cites[cited.venue.index()] += 1;
            }
        }
    }
    cites
        .iter()
        .zip(&eligible)
        .map(|(&c, &e)| if e > 0 { c as f64 / e as f64 } else { 0.0 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use scholar_corpus::CorpusBuilder;

    fn corpus() -> Corpus {
        let mut b = CorpusBuilder::new();
        let v0 = b.venue("Good");
        let v1 = b.venue("Meh");
        let u0 = b.author("Solo");
        let u1 = b.author("Duo1");
        let u2 = b.author("Duo2");
        b.add_article("a0", 2000, v0, vec![u0], vec![], None);
        b.add_article("a1", 2005, v0, vec![u1, u2], vec![], None);
        b.add_article("a2", 2010, v1, vec![u2], vec![], None);
        b.finish().unwrap()
    }

    #[test]
    fn venue_mean() {
        let c = corpus();
        let scores = [0.6, 0.3, 0.1];
        let v = venue_scores_from_articles(&c, &scores);
        assert!((v[0] - 0.45).abs() < 1e-12);
        assert!((v[1] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn author_weighted_mean() {
        let c = corpus();
        let scores = [0.6, 0.3, 0.1];
        // The author aggregation QRank runs: the authorship bipartite's
        // byline-weighted mean, first authors weighing most.
        let a = RankContext::new(&c).authorship().aggregate_to_left(&scores);
        assert!((a[0] - 0.6).abs() < 1e-12); // Solo: only a0
        assert!((a[1] - 0.3).abs() < 1e-12); // Duo1: only a1
                                             // Duo2: weighted mean of a1 (weight 1/3) and a2 (weight 1):
                                             // (1/3·0.3 + 1·0.1) / (1/3 + 1) = 0.2/1.3333 = 0.15
        assert!((a[2] - 0.15).abs() < 1e-12);
    }

    #[test]
    fn impact_factor_classic_definition() {
        // v0 publishes a0 (2008), a1 (2009). In 2010, two articles cite
        // a0 and one cites a1: JIF(v0, 2010, 2y) = 3 / 2 = 1.5.
        let mut b = CorpusBuilder::new();
        let v0 = b.venue("v0");
        let v1 = b.venue("v1");
        let a0 = b.add_article("a0", 2008, v0, vec![], vec![], None);
        let a1 = b.add_article("a1", 2009, v0, vec![], vec![], None);
        // Old article: outside the window, citations to it don't count.
        let old = b.add_article("old", 2000, v0, vec![], vec![], None);
        b.add_article("c1", 2010, v1, vec![], vec![a0, a1, old], None);
        b.add_article("c2", 2010, v1, vec![], vec![a0], None);
        let c = b.finish().unwrap();
        let jif = impact_factor(&c, 2010, 2);
        assert!((jif[0] - 1.5).abs() < 1e-12, "JIF(v0) = {}", jif[0]);
        assert_eq!(jif[1], 0.0, "v1 has no eligible articles");
    }

    #[test]
    fn impact_factor_empty_window_is_zero() {
        let c = corpus();
        let jif = impact_factor(&c, 1900, 2);
        assert!(jif.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn windowed_venue_scores() {
        let c = corpus();
        let scores = [0.6, 0.3, 0.1];
        let v = venue_scores_in_window(&c, &scores, 2004, 2011);
        assert!((v[0] - 0.3).abs() < 1e-12); // only a1 in window
        assert!((v[1] - 0.1).abs() < 1e-12);
        let empty = venue_scores_in_window(&c, &scores, 1980, 1985);
        assert_eq!(empty, vec![0.0, 0.0]);
    }
}
