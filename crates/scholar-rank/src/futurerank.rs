//! FutureRank (Sayyadi & Getoor, SDM 2009).
//!
//! FutureRank predicts an article's *future* PageRank by mixing three
//! signals in one fixpoint:
//!
//! ```text
//! Rᴾ = α · (citation propagation of Rᴾ)
//!    + β · (authorship propagation of Rᴬ)
//!    + γ · (recency personalization)
//!    + (1 − α − β − γ) · uniform
//! Rᴬ = authorship propagation of Rᴾ
//! ```
//!
//! The recency vector is `∝ exp(-ρ·(T_now − year))`. Author scores are
//! recomputed from article scores each round (mutual reinforcement over
//! the authorship bipartite), which is the part QRank generalizes to
//! venues as well.

use crate::context::RankContext;
use crate::diagnostics::Diagnostics;
use crate::ranker::Ranker;
use crate::telemetry::Stopwatch;
use crate::telemetry::{RankOutput, SolveTelemetry};
use scholar_corpus::Year;
use sgraph::stochastic::{fixpoint, normalize_l1};
use sgraph::{JumpVector, RowStochastic};

/// FutureRank parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct FutureRankConfig {
    /// Weight of the citation-propagation term (α).
    pub alpha: f64,
    /// Weight of the authorship term (β).
    pub beta: f64,
    /// Weight of the recency-personalization term (γ).
    pub gamma: f64,
    /// Recency rate ρ (per year).
    pub rho: f64,
    /// "Now"; defaults to the corpus's last year.
    pub now: Option<Year>,
    /// L1 convergence tolerance.
    pub tol: f64,
    /// Iteration cap.
    pub max_iter: usize,
}

impl Default for FutureRankConfig {
    fn default() -> Self {
        // α/β/γ follow the original paper's tuned mix; ρ = 0.62/yr is the
        // value reported there.
        FutureRankConfig {
            alpha: 0.4,
            beta: 0.1,
            gamma: 0.3,
            rho: 0.62,
            now: None,
            tol: 1e-10,
            max_iter: 200,
        }
    }
}

impl FutureRankConfig {
    /// Panics on an invalid mixture.
    pub fn assert_valid(&self) {
        assert!(self.alpha >= 0.0 && self.beta >= 0.0 && self.gamma >= 0.0, "weights must be >= 0");
        assert!(
            self.alpha + self.beta + self.gamma <= 1.0 + 1e-12,
            "alpha + beta + gamma must be <= 1"
        );
        assert!(self.rho >= 0.0, "rho must be >= 0");
        assert!(self.max_iter > 0, "need at least one iteration");
    }
}

/// The FutureRank baseline.
#[derive(Debug, Clone, Default)]
pub struct FutureRank {
    /// Parameters.
    pub config: FutureRankConfig,
}

/// Article and author scores plus convergence info.
#[derive(Debug, Clone)]
pub struct FutureRankResult {
    /// Article scores (sum 1).
    pub article_scores: Vec<f64>,
    /// Author scores (sum 1; empty if the corpus has no authors).
    pub author_scores: Vec<f64>,
    /// Convergence diagnostics.
    pub diagnostics: Diagnostics,
}

impl FutureRank {
    /// FutureRank with the given configuration.
    pub fn new(config: FutureRankConfig) -> Self {
        config.assert_valid();
        FutureRank { config }
    }

    /// Run the full fixpoint, returning author scores too: the citation
    /// graph and authorship bipartite come from the context's caches and
    /// the iteration runs on the sgraph fixpoint driver with
    /// preallocated term buffers.
    pub fn run_ctx(&self, ctx: &RankContext) -> FutureRankResult {
        let cfg = &self.config;
        cfg.assert_valid();
        let n = ctx.num_articles();
        if n == 0 {
            return FutureRankResult {
                article_scores: Vec::new(),
                author_scores: Vec::new(),
                diagnostics: Diagnostics::closed_form(),
            };
        }
        let now = cfg.now.unwrap_or_else(|| ctx.now());
        let citation = ctx.citation_graph();
        let cite_op = RowStochastic::new(&citation.graph);
        let authorship = ctx.authorship();

        // Recency personalization: the recency jump's distribution.
        let time_vec = ctx.recency_jump(cfg.rho, now).to_dense(n);

        let delta = (1.0 - cfg.alpha - cfg.beta - cfg.gamma).max(0.0);
        let uniform = 1.0 / n as f64;

        let mut author = vec![0.0; ctx.rows().num_authors()];
        let mut cite_term = vec![0.0; n];
        let res = fixpoint(vec![uniform; n], cfg.tol, cfg.max_iter, |p, next| {
            // Author scores from current article scores (mass-conserving
            // distribution over the bipartite), normalized.
            author = authorship.distribute_to_left(p);
            normalize_l1(&mut author);

            // Citation propagation with dangling mass re-emitted uniformly
            // (damping 1 here: the mixture handles teleportation).
            cite_op.apply(p, &mut cite_term, 1.0, &JumpVector::Uniform);

            // Author → article term, normalized to a distribution so β
            // means what it says. With no signed article the term has no
            // mass, and β's share falls back to the uniform teleport —
            // otherwise a β-only mixture would rank nothing at all.
            let mut author_term = authorship.distribute_to_right(&author);
            crate::scores::normalize_or_uniform(&mut author_term);

            for (i, slot) in next.iter_mut().enumerate() {
                *slot = cfg.alpha * cite_term[i]
                    + cfg.beta * author_term[i]
                    + cfg.gamma * time_vec[i]
                    + delta * uniform;
            }
            normalize_l1(next);
        });

        FutureRankResult {
            article_scores: res.scores,
            author_scores: author,
            diagnostics: Diagnostics {
                iterations: res.iterations,
                converged: res.converged,
                residuals: res.residuals,
            },
        }
    }
}

impl Ranker for FutureRank {
    fn name(&self) -> String {
        "FutureRank".into()
    }

    fn solve_ctx(&self, ctx: &RankContext) -> RankOutput {
        self.config.assert_valid();
        let built = Stopwatch::start();
        let _ = ctx.citation_graph();
        let _ = ctx.authorship();
        let build_secs = built.secs();
        let solved = Stopwatch::start();
        let res = self.run_ctx(ctx);
        let telemetry = SolveTelemetry::timed(&res.diagnostics, build_secs, solved.secs());
        RankOutput { scores: res.article_scores, telemetry }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scholar_corpus::generator::Preset;
    use scholar_corpus::CorpusBuilder;

    #[test]
    fn converges_and_normalizes() {
        let c = Preset::Tiny.generate(6);
        let res = FutureRank::default().run_ctx(&RankContext::new(&c));
        assert!(res.diagnostics.converged);
        assert!((res.article_scores.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((res.author_scores.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(res.article_scores.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn gamma_only_reduces_to_recency_ranking() {
        let mut b = CorpusBuilder::new();
        let v = b.venue("V");
        b.add_article("old", 1990, v, vec![], vec![], None);
        b.add_article("mid", 2005, v, vec![], vec![], None);
        b.add_article("new", 2010, v, vec![], vec![], None);
        let c = b.finish().unwrap();
        let fr = FutureRank::new(FutureRankConfig {
            alpha: 0.0,
            beta: 0.0,
            gamma: 1.0,
            ..Default::default()
        });
        let s = fr.rank(&c);
        assert!(s[2] > s[1] && s[1] > s[0], "pure-γ FutureRank ranks by recency: {s:?}");
    }

    #[test]
    fn good_authors_lift_their_new_articles() {
        // Star author wrote a heavily-cited old article and one brand-new
        // uncited article; a rival new article has a fresh author. With
        // β > 0 the star author's new article must outrank the rival's.
        let mut b = CorpusBuilder::new();
        let v = b.venue("V");
        let star = b.author("Star");
        let nobody = b.author("Nobody");
        let hit = b.add_article("hit", 1995, v, vec![star], vec![], None);
        for i in 0..8 {
            b.add_article(&format!("citer{i}"), 2000 + i, v, vec![], vec![hit], None);
        }
        b.add_article("star-new", 2010, v, vec![star], vec![hit], None);
        b.add_article("nobody-new", 2010, v, vec![nobody], vec![hit], None);
        let c = b.finish().unwrap();
        let res = FutureRank::new(FutureRankConfig { beta: 0.3, ..Default::default() })
            .run_ctx(&RankContext::new(&c));
        let star_new = res.article_scores[9];
        let nobody_new = res.article_scores[10];
        assert!(
            star_new > nobody_new,
            "author reputation should lift the new article ({star_new} vs {nobody_new})"
        );
        // And the star author outranks the fresh one.
        assert!(res.author_scores[0] > res.author_scores[1]);
    }

    #[test]
    #[should_panic(expected = "alpha + beta + gamma")]
    fn overweight_mixture_panics() {
        FutureRank::new(FutureRankConfig {
            alpha: 0.6,
            beta: 0.3,
            gamma: 0.3,
            ..Default::default()
        });
    }

    #[test]
    fn empty_corpus() {
        let c = CorpusBuilder::new().finish().unwrap();
        let res = FutureRank::default().run_ctx(&RankContext::new(&c));
        assert!(res.article_scores.is_empty());
        assert!(res.diagnostics.converged);
    }

    #[test]
    fn authorless_corpus_survives_beta() {
        let mut b = CorpusBuilder::new();
        let v = b.venue("V");
        let a0 = b.add_article("a0", 2000, v, vec![], vec![], None);
        b.add_article("a1", 2005, v, vec![], vec![a0], None);
        let c = b.finish().unwrap();
        let s = FutureRank::default().rank(&c);
        assert_eq!(s.len(), 2);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // β alone on an unsigned corpus: the massless author term is the
        // uniform teleport, not a vector of zeros.
        let beta_only =
            FutureRankConfig { alpha: 0.0, beta: 1.0, gamma: 0.0, ..Default::default() };
        assert_eq!(FutureRank::new(beta_only).rank(&c), vec![0.5, 0.5]);
    }
}
