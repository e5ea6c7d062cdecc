//! Per-article score explanations.
//!
//! "Why is this article ranked here?" decomposes exactly along QRank's
//! mixture: a citation contribution (λ_P · TWPR), a venue contribution
//! (λ_V · venue term), and an author contribution (λ_U · author term) —
//! plus the strongest citing articles behind the citation part. Useful
//! both for debugging rankings and as end-user provenance.

use crate::config::QRankConfig;
use crate::engine::QRankEngine;
use crate::hetnet::HetNet;
use crate::qrank::QRankResult;
use scholar_corpus::{ArticleId, Corpus};
use sgraph::stochastic::normalize_l1;
use sgraph::NodeId;

/// One article's score decomposition. The three contributions sum to the
/// article's final (unnormalized-mixture) score up to the global
/// renormalization factor, so their *shares* are exact.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The article being explained.
    pub article: ArticleId,
    /// Final QRank score.
    pub score: f64,
    /// Citation-signal share of the mixture (λ_P · P, as a fraction of
    /// the mixture total).
    pub citation_share: f64,
    /// Venue share.
    pub venue_share: f64,
    /// Author share.
    pub author_share: f64,
    /// The citing articles contributing most to the citation signal, as
    /// `(citing article, fraction of this article's in-flow)`, strongest
    /// first.
    pub top_citers: Vec<(ArticleId, f64)>,
}

/// Computes [`Explanation`]s against a finished QRank run.
pub struct Explainer<'a> {
    corpus: &'a Corpus,
    result: &'a QRankResult,
    net: &'a HetNet,
    venue_term: Vec<f64>,
    author_term: Vec<f64>,
    /// Each article's out-weight sum in the decayed citation graph.
    out_sums: Vec<f64>,
}

impl<'a> Explainer<'a> {
    /// Build an explainer for `result`, a solve of `engine` (the prepared
    /// plan of `corpus`), borrowing the plan's heterogeneous network.
    pub fn from_engine(
        corpus: &'a Corpus,
        engine: &'a QRankEngine,
        result: &'a QRankResult,
    ) -> Self {
        let net = engine.net();
        assert_eq!(
            result.article_scores.len(),
            corpus.num_articles(),
            "result does not match corpus"
        );
        let mut venue_term = net.publication.aggregate_to_right(&result.venue_scores);
        normalize_l1(&mut venue_term);
        let mut author_term = net.authorship.aggregate_to_right(&result.author_scores);
        normalize_l1(&mut author_term);
        let out_sums = net.citation.out_weight_sums();
        Explainer { corpus, result, net, venue_term, author_term, out_sums }
    }

    /// Explain one article, reporting at most `max_citers` contributing
    /// citers.
    pub fn explain(
        &self,
        article: ArticleId,
        max_citers: usize,
        config: &QRankConfig,
    ) -> Explanation {
        let i = article.index();
        assert!(i < self.corpus.num_articles(), "article {article} out of bounds");
        let p = config.lambda_article * self.result.twpr_scores[i];
        let v = config.lambda_venue * self.venue_term[i];
        let u = config.lambda_author * self.author_term[i];
        let total = p + v + u;
        let (citation_share, venue_share, author_share) =
            if total > 0.0 { (p / total, v / total, u / total) } else { (0.0, 0.0, 0.0) };

        // In-flow decomposition of the TWPR signal: contribution of citer
        // c is twpr[c] · transition(c → article), using the decayed edge
        // weights normalized over c's out-weights.
        let node = NodeId(article.0);
        let mut citers: Vec<(ArticleId, f64)> = self
            .net
            .citation
            .in_neighbors(node)
            .iter()
            .zip(self.net.citation.in_edge_weights(node))
            .map(|(&c, &w)| {
                let out_sum = self.out_sums[c.index()];
                let p_edge = if out_sum > 0.0 { w / out_sum } else { 0.0 };
                (ArticleId(c.0), self.result.twpr_scores[c.index()] * p_edge)
            })
            .collect();
        let inflow: f64 = citers.iter().map(|c| c.1).sum();
        if inflow > 0.0 {
            for c in &mut citers {
                c.1 /= inflow;
            }
        }
        citers.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        citers.truncate(max_citers);

        Explanation {
            article,
            score: self.result.article_scores[i],
            citation_share,
            venue_share,
            author_share,
            top_citers: citers,
        }
    }
}

impl Explanation {
    /// Render a short human-readable explanation.
    pub fn render(&self, corpus: &Corpus) -> String {
        let a = corpus.article(self.article);
        let mut out = format!(
            "\"{}\" ({}, {}) — score {:.6}\n  signal mix: citations {:.0}%, venue {:.0}%, authors {:.0}%\n",
            a.title,
            a.year,
            corpus.venue(a.venue).name,
            self.score,
            self.citation_share * 100.0,
            self.venue_share * 100.0,
            self.author_share * 100.0,
        );
        for (citer, frac) in &self.top_citers {
            let c = corpus.article(*citer);
            out.push_str(&format!(
                "  <- {:.0}% of citation in-flow from \"{}\" ({})\n",
                frac * 100.0,
                c.title,
                c.year
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MixParams;
    use scholar_corpus::CorpusBuilder;

    /// A small corpus, the default config, its plan and the plan's solve.
    fn setup() -> (Corpus, QRankConfig, QRankEngine, QRankResult) {
        let mut b = CorpusBuilder::new();
        let v = b.venue("V");
        let w = b.venue("W");
        let u0 = b.author("Ada");
        let a0 = b.add_article("classic", 1990, v, vec![u0], vec![], None);
        let big = b.add_article("big-citer", 2000, w, vec![u0], vec![a0], None);
        b.add_article("small-citer", 2005, w, vec![], vec![a0, big], None);
        b.add_article("isolated", 2010, w, vec![], vec![], None);
        let c = b.finish().unwrap();
        let cfg = QRankConfig::default();
        let engine = QRankEngine::build(&c, &cfg);
        let res = engine.solve(&MixParams::from_config(&cfg));
        (c, cfg, engine, res)
    }

    #[test]
    fn shares_sum_to_one() {
        let (c, cfg, engine, res) = setup();
        let ex = Explainer::from_engine(&c, &engine, &res);
        for i in 0..c.num_articles() {
            let e = ex.explain(ArticleId(i as u32), 5, &cfg);
            let sum = e.citation_share + e.venue_share + e.author_share;
            assert!((sum - 1.0).abs() < 1e-9, "shares must sum to 1, got {sum}");
        }
    }

    #[test]
    fn top_citers_are_ranked_and_normalized() {
        let (c, cfg, engine, res) = setup();
        let ex = Explainer::from_engine(&c, &engine, &res);
        let e = ex.explain(ArticleId(0), 5, &cfg);
        assert_eq!(e.top_citers.len(), 2);
        let total: f64 = e.top_citers.iter().map(|x| x.1).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(e.top_citers[0].1 >= e.top_citers[1].1);
    }

    #[test]
    fn isolated_article_explanation_invariants() {
        // An uncited article has no citers to report, and (with the
        // recency jump disabled) its absolute citation component is just
        // the teleport floor — far below a heavily-cited article's.
        let (c, ..) = setup();
        let cfg = QRankConfig::default().with_tau(0.0);
        let engine = QRankEngine::build(&c, &cfg);
        let res = engine.solve(&MixParams::from_config(&cfg));
        let ex = Explainer::from_engine(&c, &engine, &res);
        let e = ex.explain(ArticleId(3), 5, &cfg);
        assert!(e.top_citers.is_empty());
        let classic = ex.explain(ArticleId(0), 5, &cfg);
        assert!(
            res.twpr_scores[3] < res.twpr_scores[0] / 2.0,
            "uncited TWPR {} vs cited {}",
            res.twpr_scores[3],
            res.twpr_scores[0]
        );
        assert!(e.score < classic.score);
    }

    #[test]
    fn render_mentions_title_and_mix() {
        let (c, cfg, engine, res) = setup();
        let ex = Explainer::from_engine(&c, &engine, &res);
        let text = ex.explain(ArticleId(0), 2, &cfg).render(&c);
        assert!(text.contains("classic"));
        assert!(text.contains("signal mix"));
        assert!(text.contains("in-flow"));
    }

    #[test]
    fn truncation_respects_max_citers() {
        let (c, cfg, engine, res) = setup();
        let ex = Explainer::from_engine(&c, &engine, &res);
        let e = ex.explain(ArticleId(0), 1, &cfg);
        assert_eq!(e.top_citers.len(), 1);
    }
}
