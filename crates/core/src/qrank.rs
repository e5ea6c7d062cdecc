//! The QRank algorithm: time-weighted citation walk + venue/author mutual
//! reinforcement.

use crate::config::QRankConfig;
use crate::engine::{MixParams, QRankEngine};
use scholar_corpus::Corpus;
use scholar_rank::diagnostics::Diagnostics;
use scholar_rank::telemetry::Stopwatch;
use scholar_rank::telemetry::{RankOutput, SolveTelemetry};
use scholar_rank::{RankContext, Ranker};

/// The QRank ranker. See the crate docs for the model.
#[derive(Debug, Clone, Default)]
pub struct QRank {
    /// Parameters.
    pub config: QRankConfig,
}

/// Everything QRank computes in one run.
#[derive(Debug, Clone)]
pub struct QRankResult {
    /// Final article scores (sum 1) — the ranking.
    pub article_scores: Vec<f64>,
    /// Final venue scores (sum 1).
    pub venue_scores: Vec<f64>,
    /// Final author scores (sum 1).
    pub author_scores: Vec<f64>,
    /// The pure citation signal (TWPR stationary distribution), kept for
    /// ablation and diagnosis.
    pub twpr_scores: Vec<f64>,
    /// Convergence of the inner TWPR walk.
    pub twpr_diagnostics: Diagnostics,
    /// Convergence of the outer mutual-reinforcement fixpoint.
    pub outer: Diagnostics,
}

impl QRankResult {
    /// One telemetry record for both fixpoints: the inner walk's
    /// iterations are added to the outer loop's, both must have
    /// converged, and the residuals are the outer loop's.
    pub fn telemetry(&self, build_secs: f64, solve_secs: f64) -> SolveTelemetry {
        SolveTelemetry {
            iterations: self.outer.iterations + self.twpr_diagnostics.iterations,
            converged: self.outer.converged && self.twpr_diagnostics.converged,
            residuals: self.outer.residuals.clone(),
            build_secs,
            solve_secs,
        }
    }
}

impl QRank {
    /// QRank with the given configuration.
    pub fn new(config: QRankConfig) -> Self {
        config.assert_valid();
        QRank { config }
    }

    /// Run the full framework.
    ///
    /// This is `QRankEngine::build` + one solve; callers that vary only
    /// mixture parameters across runs should hold a [`QRankEngine`] and
    /// call [`QRankEngine::solve`] to skip the rebuild.
    pub fn run(&self, corpus: &Corpus) -> QRankResult {
        QRankEngine::build(corpus, &self.config).solve(&MixParams::from_config(&self.config))
    }
}

impl Ranker for QRank {
    fn name(&self) -> String {
        "QRank".into()
    }

    fn solve_ctx(&self, ctx: &RankContext) -> RankOutput {
        self.config.assert_valid();
        if ctx.num_articles() == 0 {
            return RankOutput::closed_form(Vec::new());
        }
        let built = Stopwatch::start();
        let engine = QRankEngine::build(ctx.rows(), &self.config);
        let build_secs = built.secs();
        let solved = Stopwatch::start();
        let res = engine.solve(&MixParams::from_config(&self.config));
        let telemetry = res.telemetry(build_secs, solved.secs());
        RankOutput { scores: res.article_scores, telemetry }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scholar_corpus::generator::Preset;
    use scholar_corpus::CorpusBuilder;
    use scholar_rank::TwprConfig;
    use sgraph::stochastic::l1_distance;

    fn assert_distribution(v: &[f64]) {
        assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-9, "sum {}", v.iter().sum::<f64>());
        assert!(v.iter().all(|&x| x >= 0.0 && x.is_finite()));
    }

    #[test]
    fn converges_on_generated_corpus() {
        let c = Preset::Tiny.generate(1);
        let res = QRank::default().run(&c);
        assert!(res.twpr_diagnostics.converged);
        assert!(res.outer.converged, "outer loop should converge: {:?}", res.outer.iterations);
        assert_distribution(&res.article_scores);
        assert_distribution(&res.venue_scores);
        assert_distribution(&res.author_scores);
        assert_distribution(&res.twpr_scores);
    }

    #[test]
    fn lambda_article_one_reduces_to_twpr() {
        let c = Preset::Tiny.generate(2);
        let res = QRank::new(QRankConfig::default().with_lambdas(1.0, 0.0, 0.0)).run(&c);
        let diff = l1_distance(&res.article_scores, &res.twpr_scores);
        assert!(diff < 1e-9, "pure-article QRank must equal TWPR, diff {diff}");
        // And it converges in one outer iteration.
        assert!(res.outer.iterations <= 2);
    }

    #[test]
    fn venue_signal_lifts_uncited_articles_in_good_venues() {
        // Two uncited 2010 articles; one in the venue that hosts a classic,
        // one in a venue nobody cites.
        let mut b = CorpusBuilder::new();
        let good = b.venue("Good");
        let dull = b.venue("Dull");
        let u = b.author("Someone");
        let hit = b.add_article("classic", 1990, good, vec![u], vec![], None);
        for i in 0..6 {
            let citer = b.author(&format!("c{i}"));
            b.add_article(&format!("citer{i}"), 1995 + i, dull, vec![citer], vec![hit], None);
        }
        b.add_article("new-good", 2010, good, vec![], vec![hit], None);
        b.add_article("new-dull", 2010, dull, vec![], vec![hit], None);
        let c = b.finish().unwrap();
        let res = QRank::new(QRankConfig::default().with_lambdas(0.4, 0.6, 0.0)).run(&c);
        let s = &res.article_scores;
        assert!(
            s[7] > s[8],
            "venue prestige must lift the good-venue newcomer ({} vs {})",
            s[7],
            s[8]
        );
    }

    #[test]
    fn author_signal_lifts_new_articles_by_strong_authors() {
        let mut b = CorpusBuilder::new();
        let v = b.venue("V");
        let star = b.author("Star");
        let newbie = b.author("Newbie");
        let hit = b.add_article("hit", 1990, v, vec![star], vec![], None);
        for i in 0..6 {
            let citer = b.author(&format!("c{i}"));
            b.add_article(&format!("citer{i}"), 1995 + i, v, vec![citer], vec![hit], None);
        }
        b.add_article("star-new", 2010, v, vec![star], vec![], None);
        b.add_article("newbie-new", 2010, v, vec![newbie], vec![], None);
        let c = b.finish().unwrap();
        let res = QRank::new(QRankConfig::default().with_lambdas(0.4, 0.0, 0.6)).run(&c);
        let s = &res.article_scores;
        assert!(
            s[7] > s[8],
            "author prestige must lift the star's new article ({} vs {})",
            s[7],
            s[8]
        );
        assert!(res.author_scores[0] > res.author_scores[1]);
    }

    #[test]
    fn cold_start_articles_get_nonzero_scores() {
        // Pure citation methods give fresh uncited articles only the
        // teleport floor; QRank must give them strictly more when their
        // venue/authors have standing.
        let c = Preset::Tiny.generate(3);
        let res = QRank::default().run(&c);
        let last_year = c.year_range().unwrap().1;
        let fresh: Vec<usize> =
            c.articles().iter().filter(|a| a.year == last_year).map(|a| a.id.index()).collect();
        assert!(!fresh.is_empty());
        for &i in &fresh {
            assert!(res.article_scores[i] > 0.0);
        }
    }

    #[test]
    fn deterministic() {
        let c = Preset::Tiny.generate(4);
        let a = QRank::default().rank(&c);
        let b = QRank::default().rank(&c);
        assert_eq!(a, b);
    }

    #[test]
    fn threads_do_not_change_result() {
        let c = Preset::Tiny.generate(5);
        let seq = QRank::new(QRankConfig::default().with_threads(1)).rank(&c);
        let par = QRank::new(QRankConfig::default().with_threads(4)).rank(&c);
        assert!(l1_distance(&seq, &par) < 1e-9);
    }

    #[test]
    fn empty_corpus() {
        let c = CorpusBuilder::new().finish().unwrap();
        let res = QRank::default().run(&c);
        assert!(res.article_scores.is_empty());
        assert!(res.outer.converged);
    }

    #[test]
    fn corpus_without_authors_or_venue_citations() {
        // One venue, no authors, straight citation chain: the venue/author
        // terms degrade gracefully (venue term becomes uniform-ish over the
        // single venue, author term all-zero and is renormalized away).
        let mut b = CorpusBuilder::new();
        let v = b.venue("Only");
        let a0 = b.add_article("a0", 1990, v, vec![], vec![], None);
        let a1 = b.add_article("a1", 1995, v, vec![], vec![a0], None);
        b.add_article("a2", 2000, v, vec![], vec![a1], None);
        let c = b.finish().unwrap();
        let res = QRank::default().run(&c);
        assert_distribution(&res.article_scores);
        assert!(res.article_scores[0] > res.article_scores[2]);
    }

    #[test]
    fn outer_residuals_shrink() {
        let c = Preset::Tiny.generate(6);
        let res = QRank::new(QRankConfig {
            twpr: TwprConfig::default(),
            outer_tol: 0.0, // force full run
            outer_max_iter: 30,
            ..Default::default()
        })
        .run(&c);
        let r = &res.outer.residuals;
        assert!(r.len() >= 10);
        assert!(r[r.len() - 1] < r[0], "outer fixpoint should contract: {r:?}");
    }
}
