//! Personalized PageRank over the citation graph.
//!
//! Query-independent ranking is the headline, but the same machinery
//! supports seeded exploration: "important articles *from the point of
//! view of this reading list*". The teleport vector concentrates on the
//! seed articles. The walk is the citation walk of
//! [`crate::time_weighted`] at ρ = 0 with that seed jump, entered through
//! [`citation_walk`] like PageRank's, so on a colstore context it sweeps
//! the same unit-weight shard file.

use crate::context::RankContext;
use crate::pagerank::PageRankConfig;
use crate::telemetry::RankOutput;
use crate::time_weighted::citation_walk;
use scholar_corpus::{ArticleId, Corpus};
use sgraph::JumpVector;

/// Personalized PageRank parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PersonalizedConfig {
    /// Underlying power-iteration parameters.
    pub pagerank: PageRankConfig,
    /// Probability mass reserved for the seed set in the teleport vector
    /// (the remainder is spread uniformly, which keeps scores defined on
    /// components unreachable from the seeds).
    pub seed_mass: f64,
}

impl Default for PersonalizedConfig {
    fn default() -> Self {
        PersonalizedConfig { pagerank: PageRankConfig::default(), seed_mass: 0.9 }
    }
}

/// Rank all articles from the perspective of `seeds` (e.g. a reading
/// list) against a prepared context, so repeated seeded walks (or a
/// seeded walk plus the global one) share the citation graph. Returns
/// scores summing to 1, plus the solve's telemetry.
///
/// # Panics
/// Panics if `seeds` is empty, contains out-of-range ids, or `seed_mass`
/// is not in (0, 1].
pub fn personalized_pagerank(
    ctx: &RankContext,
    seeds: &[ArticleId],
    config: &PersonalizedConfig,
) -> RankOutput {
    assert!(!seeds.is_empty(), "need at least one seed article");
    assert!(config.seed_mass > 0.0 && config.seed_mass <= 1.0, "seed_mass must be in (0, 1]");
    let n = ctx.num_articles();
    let uniform_mass = (1.0 - config.seed_mass) / n as f64;
    let per_seed = config.seed_mass / seeds.len() as f64;
    let mut jump = vec![uniform_mass; n];
    for &s in seeds {
        assert!(s.index() < n, "seed {s} out of bounds");
        jump[s.index()] += per_seed;
    }
    citation_walk(ctx, 0.0, JumpVector::weighted(jump), &config.pagerank)
}

/// The `k` most related articles to the seed set, excluding the seeds
/// themselves: personalized PageRank minus the global (uniform) PageRank,
/// ranked by the difference. Positive difference = "more important from
/// this perspective than in general". Both walks share one prepared
/// context (the citation graph is built once).
pub fn related_articles(
    corpus: &Corpus,
    seeds: &[ArticleId],
    k: usize,
    config: &PersonalizedConfig,
) -> Vec<(ArticleId, f64)> {
    let ctx = RankContext::new(corpus);
    let pers = personalized_pagerank(&ctx, seeds, config).scores;
    let global = citation_walk(&ctx, 0.0, JumpVector::Uniform, &config.pagerank).scores;
    let mut lift: Vec<(ArticleId, f64)> = (0..corpus.num_articles())
        .filter(|i| !seeds.iter().any(|s| s.index() == *i))
        .map(|i| (ArticleId(i as u32), pers[i] - global[i]))
        .collect();
    lift.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    lift.truncate(k);
    lift
}

#[cfg(test)]
mod tests {
    use super::*;
    use scholar_corpus::CorpusBuilder;

    fn chain_corpus() -> Corpus {
        // Two disconnected chains: 2->1->0 and 5->4->3.
        let mut b = CorpusBuilder::new();
        let v = b.venue("V");
        let a0 = b.add_article("a0", 1990, v, vec![], vec![], None);
        let a1 = b.add_article("a1", 1995, v, vec![], vec![a0], None);
        b.add_article("a2", 2000, v, vec![], vec![a1], None);
        let a3 = b.add_article("a3", 1990, v, vec![], vec![], None);
        let a4 = b.add_article("a4", 1995, v, vec![], vec![a3], None);
        b.add_article("a5", 2000, v, vec![], vec![a4], None);
        b.finish().unwrap()
    }

    #[test]
    fn mass_concentrates_near_seeds() {
        let c = chain_corpus();
        let out =
            personalized_pagerank(&RankContext::new(&c), &[ArticleId(2)], &Default::default());
        let s = out.scores;
        assert!(out.telemetry.converged);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // The seeded chain dominates the other chain.
        let seeded: f64 = s[0] + s[1] + s[2];
        let other: f64 = s[3] + s[4] + s[5];
        assert!(seeded > 3.0 * other, "seeded {seeded} vs other {other}");
    }

    #[test]
    fn related_articles_finds_the_ancestry() {
        let c = chain_corpus();
        let related = related_articles(&c, &[ArticleId(2)], 3, &Default::default());
        // The chain ancestors of the seed top the list (direct parent a1
        // gets the largest lift, then a0).
        assert!(matches!(related[0].0, ArticleId(0) | ArticleId(1)));
        assert!(matches!(related[1].0, ArticleId(0) | ArticleId(1)));
        assert!(related[0].1 > 0.0 && related[1].1 > 0.0);
        assert!(related.iter().all(|&(id, _)| id != ArticleId(2)), "seeds are excluded");
    }

    #[test]
    fn multiple_seeds_split_mass() {
        let c = chain_corpus();
        let s = personalized_pagerank(
            &RankContext::new(&c),
            &[ArticleId(2), ArticleId(5)],
            &Default::default(),
        )
        .scores;
        let left: f64 = s[0] + s[1] + s[2];
        let right: f64 = s[3] + s[4] + s[5];
        assert!((left - right).abs() < 1e-9, "symmetric seeds ⇒ symmetric mass");
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn empty_seeds_panics() {
        personalized_pagerank(&RankContext::new(&chain_corpus()), &[], &Default::default());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bad_seed_panics() {
        personalized_pagerank(
            &RankContext::new(&chain_corpus()),
            &[ArticleId(99)],
            &Default::default(),
        );
    }
}
