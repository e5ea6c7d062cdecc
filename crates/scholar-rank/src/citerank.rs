//! CiteRank (Walker, Xie, Yan & Maslov 2007): "ranking scientific
//! publications using a model of network traffic".
//!
//! A random researcher starts reading at a *recent* paper — the start
//! distribution decays exponentially with article age,
//! `p(start = a) ∝ exp(−age(a)/τ_dir)` — and then follows chains of
//! references, continuing with probability `alpha` at each step. The
//! stationary visit distribution models current reader traffic, which
//! makes CiteRank the classic pre-QRank answer to the old-paper bias and
//! an important baseline: it has the recency-personalized jump but *no*
//! per-edge decay and *no* venue/author layer.
//!
//! As a walk, CiteRank is the citation walk of [`crate::time_weighted`]
//! at ρ = 0 with τ = 1/τ_dir and damping α: [`CiteRank::solve_ctx`] is
//! one [`citation_walk`] call, sequential, under CiteRank's own tolerance
//! and iteration cap.

use crate::context::RankContext;
use crate::pagerank::PageRankConfig;
use crate::ranker::Ranker;
use crate::telemetry::RankOutput;
use crate::time_weighted::citation_walk;
use scholar_corpus::Year;

/// CiteRank parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CiteRankConfig {
    /// Probability of following a reference at each step (the paper's
    /// α; equivalent to PageRank damping).
    pub alpha: f64,
    /// Characteristic decay time of the start distribution, in years
    /// (the paper's τ_dir; ~2.6 years fit physics corpora).
    pub tau_dir: f64,
    /// "Now"; defaults to the corpus's last year.
    pub now: Option<Year>,
    /// L1 convergence tolerance.
    pub tol: f64,
    /// Iteration cap.
    pub max_iter: usize,
}

impl Default for CiteRankConfig {
    fn default() -> Self {
        CiteRankConfig { alpha: 0.5, tau_dir: 2.6, now: None, tol: 1e-10, max_iter: 200 }
    }
}

impl CiteRankConfig {
    /// Panics on out-of-range parameters.
    pub fn assert_valid(&self) {
        assert!((0.0..1.0).contains(&self.alpha), "alpha must be in [0, 1)");
        assert!(self.tau_dir > 0.0, "tau_dir must be positive");
        // The walk's recency rate is 1/tau_dir; an infinite rate turns the
        // newest article's weight exp(-inf·0) into NaN.
        assert!((1.0 / self.tau_dir).is_finite(), "tau_dir must have a finite reciprocal");
        assert!(self.max_iter > 0, "need at least one iteration");
    }
}

/// The CiteRank baseline.
#[derive(Debug, Clone, Default)]
pub struct CiteRank {
    /// Parameters.
    pub config: CiteRankConfig,
}

impl CiteRank {
    /// CiteRank with the given configuration.
    pub fn new(config: CiteRankConfig) -> Self {
        config.assert_valid();
        CiteRank { config }
    }
}

impl Ranker for CiteRank {
    fn name(&self) -> String {
        format!("CiteRank(α={:.2},τ={:.1})", self.config.alpha, self.config.tau_dir)
    }

    fn solve_ctx(&self, ctx: &RankContext) -> RankOutput {
        self.config.assert_valid();
        let now = self.config.now.unwrap_or_else(|| ctx.now());
        // The start distribution decays with article age: the paper's
        // reader-traffic model. 1/tau_dir plays the role of τ.
        let jump = ctx.recency_jump(1.0 / self.config.tau_dir, now);
        let walk = PageRankConfig {
            damping: self.config.alpha,
            tol: self.config.tol,
            max_iter: self.config.max_iter,
            threads: 1,
        };
        citation_walk(ctx, 0.0, jump, &walk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagerank::PageRank;
    use scholar_corpus::generator::Preset;
    use scholar_corpus::CorpusBuilder;

    #[test]
    fn converges_and_normalizes() {
        let c = Preset::Tiny.generate(12);
        let out = CiteRank::default().solve_ctx(&RankContext::new(&c));
        let s = out.scores;
        assert!(out.telemetry.converged);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(s.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn recent_uncited_articles_beat_old_uncited_ones() {
        let mut b = CorpusBuilder::new();
        let v = b.venue("V");
        b.add_article("old-uncited", 1980, v, vec![], vec![], None);
        b.add_article("new-uncited", 2010, v, vec![], vec![], None);
        let c = b.finish().unwrap();
        let s = CiteRank::default().rank(&c);
        assert!(s[1] > s[0], "reader traffic starts at recent papers: {} vs {}", s[1], s[0]);
        // Plain PageRank is indifferent.
        let pr = PageRank::default().rank(&c);
        assert!((pr[0] - pr[1]).abs() < 1e-12);
    }

    #[test]
    fn recently_cited_classic_beats_forgotten_contemporary() {
        // Two 1990 articles; only one is cited by a 2010 paper. Traffic
        // reaches it through the recent paper's references.
        let mut b = CorpusBuilder::new();
        let v = b.venue("V");
        let alive = b.add_article("alive", 1990, v, vec![], vec![], None);
        b.add_article("forgotten", 1990, v, vec![], vec![], None);
        b.add_article("recent", 2010, v, vec![], vec![alive], None);
        let c = b.finish().unwrap();
        let s = CiteRank::default().rank(&c);
        assert!(s[0] > s[1]);
    }

    #[test]
    fn large_tau_approaches_pagerank_with_same_damping() {
        let c = Preset::Tiny.generate(14);
        let cr = CiteRank::new(CiteRankConfig { tau_dir: 1e7, alpha: 0.85, ..Default::default() })
            .rank(&c);
        let pr = PageRank::default().rank(&c);
        let l1: f64 = cr.iter().zip(&pr).map(|(a, b)| (a - b).abs()).sum();
        assert!(l1 < 1e-4, "tau→∞ should recover PageRank, L1 = {l1}");
    }

    #[test]
    fn shifts_mass_toward_recent_articles() {
        // The defining property of the traffic model: total score mass on
        // recent articles is far larger than under plain PageRank, which
        // structurally starves them (citation edges only point backwards).
        let c = Preset::Tiny.generate(15);
        let (_, last) = c.year_range().unwrap();
        let recent_mass = |scores: &[f64]| -> f64 {
            c.articles().iter().filter(|a| last - a.year < 3).map(|a| scores[a.id.index()]).sum()
        };
        let cr = recent_mass(&CiteRank::default().rank(&c));
        let pr = recent_mass(&PageRank::default().rank(&c));
        assert!(
            cr > 2.0 * pr,
            "CiteRank should concentrate mass on recent articles ({cr:.3} vs {pr:.3})"
        );
    }

    #[test]
    fn empty_corpus() {
        let c = CorpusBuilder::new().finish().unwrap();
        assert!(CiteRank::default().rank(&c).is_empty());
    }

    #[test]
    #[should_panic(expected = "tau_dir")]
    fn invalid_tau_panics() {
        CiteRank::new(CiteRankConfig { tau_dir: 0.0, ..Default::default() });
    }

    /// A subnormal τ_dir is positive, but 1/τ_dir overflows to ∞ and the
    /// recency jump would be NaN; construction refuses it.
    #[test]
    #[should_panic(expected = "finite reciprocal")]
    fn tau_dir_with_an_infinite_reciprocal_panics() {
        CiteRank::new(CiteRankConfig { tau_dir: 1e-310, ..Default::default() });
    }
}
