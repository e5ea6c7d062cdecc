//! Ablation variants of QRank (R-Table 5).
//!
//! Each variant disables exactly one design decision so the benches can
//! attribute accuracy to components:
//!
//! * **NoVenue** — λ_V redistributed to λ_P; venue layer unused.
//! * **NoAuthor** — λ_U redistributed to λ_P; author layer unused.
//! * **NoTimeDecay** — ρ = τ = 0; citation edges unweighted, uniform jump.
//! * **CitationOnly** — λ = (1, 0, 0): bare TWPR.
//! * **PlainPageRank** — all of the above off: classic PageRank.

use crate::config::QRankConfig;
use crate::engine::{MixParams, QRankEngine, SolveScratch};
use crate::qrank::{QRank, QRankResult};
use scholar_corpus::Corpus;
use scholar_rank::Ranker;

/// A named ablation of the full model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ablation {
    /// The full model (no ablation) — baseline row of R-Table 5.
    Full,
    /// Venue layer removed.
    NoVenue,
    /// Author layer removed.
    NoAuthor,
    /// Time decay removed (ρ = τ = 0).
    NoTimeDecay,
    /// Age-adaptive weighting *added* (σ = 3): the design alternative the
    /// default deliberately does not use (see `QRankConfig::maturity_years`).
    AdaptiveMix,
    /// Venue and author layers removed (bare TWPR).
    CitationOnly,
    /// Everything removed: plain PageRank.
    PlainPageRank,
}

impl Ablation {
    /// All variants in table order.
    pub fn all() -> [Ablation; 7] {
        [
            Ablation::Full,
            Ablation::NoVenue,
            Ablation::NoAuthor,
            Ablation::NoTimeDecay,
            Ablation::AdaptiveMix,
            Ablation::CitationOnly,
            Ablation::PlainPageRank,
        ]
    }

    /// Display name for tables.
    pub fn name(self) -> &'static str {
        match self {
            Ablation::Full => "QRank (full)",
            Ablation::NoVenue => "  - venue layer",
            Ablation::NoAuthor => "  - author layer",
            Ablation::NoTimeDecay => "  - time decay",
            Ablation::AdaptiveMix => "  + age-adaptive mix",
            Ablation::CitationOnly => "  - both layers (TWPR)",
            Ablation::PlainPageRank => "  - everything (PageRank)",
        }
    }

    /// Apply this ablation to a base configuration.
    pub fn apply(self, base: &QRankConfig) -> QRankConfig {
        let mut cfg = base.clone();
        match self {
            Ablation::Full => {}
            Ablation::NoVenue => {
                cfg.lambda_article += cfg.lambda_venue;
                cfg.lambda_venue = 0.0;
            }
            Ablation::NoAuthor => {
                cfg.lambda_article += cfg.lambda_author;
                cfg.lambda_author = 0.0;
            }
            Ablation::NoTimeDecay => {
                cfg.twpr.rho = 0.0;
                cfg.twpr.tau = 0.0;
            }
            Ablation::AdaptiveMix => {
                cfg.maturity_years = 3.0;
            }
            Ablation::CitationOnly => {
                cfg.lambda_article = 1.0;
                cfg.lambda_venue = 0.0;
                cfg.lambda_author = 0.0;
            }
            Ablation::PlainPageRank => {
                cfg.lambda_article = 1.0;
                cfg.lambda_venue = 0.0;
                cfg.lambda_author = 0.0;
                cfg.twpr.rho = 0.0;
                cfg.twpr.tau = 0.0;
            }
        }
        cfg.assert_valid();
        cfg
    }

    /// Rank a corpus under this ablation of `base`.
    pub fn rank(self, base: &QRankConfig, corpus: &Corpus) -> Vec<f64> {
        QRank::new(self.apply(base)).rank(corpus)
    }

    /// Run every ablation of `base` over one corpus, sharing prepared
    /// [`QRankEngine`]s between variants that agree structurally.
    ///
    /// Only `NoTimeDecay` and `PlainPageRank` change structural
    /// parameters (they zero ρ/τ), so the seven variants need just two
    /// engine builds instead of seven full runs — the graph derivation
    /// and the walks dominate, making the shared sweep several
    /// times faster than per-variant [`Ablation::rank`] calls.
    pub fn sweep(base: &QRankConfig, corpus: &Corpus) -> Vec<(Ablation, QRankResult)> {
        let mut engines: Vec<QRankEngine> = Vec::new();
        let mut scratch = SolveScratch::new();
        Ablation::all()
            .into_iter()
            .map(|ab| {
                let cfg = ab.apply(base);
                let engine = match engines.iter().position(|e| e.supports(&cfg)) {
                    Some(i) => &engines[i],
                    None => {
                        engines.push(QRankEngine::build(corpus, &cfg));
                        engines.last().unwrap()
                    }
                };
                let res = engine.solve_with(&MixParams::from_config(&cfg), &mut scratch);
                (ab, res)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scholar_corpus::generator::Preset;
    use scholar_rank::{PageRank, TimeWeightedPageRank, TwprConfig};
    use sgraph::stochastic::l1_distance;

    #[test]
    fn all_variants_produce_valid_configs() {
        let base = QRankConfig::default();
        for ab in Ablation::all() {
            let cfg = ab.apply(&base);
            cfg.assert_valid();
            assert!(!ab.name().is_empty());
        }
    }

    #[test]
    fn plain_pagerank_ablation_matches_pagerank() {
        let c = Preset::Tiny.generate(7);
        let ab = Ablation::PlainPageRank.rank(&QRankConfig::default(), &c);
        let pr = PageRank::default().rank(&c);
        assert!(l1_distance(&ab, &pr) < 1e-9);
    }

    #[test]
    fn citation_only_matches_twpr() {
        let c = Preset::Tiny.generate(7);
        let base = QRankConfig::default();
        let ab = Ablation::CitationOnly.rank(&base, &c);
        let twpr = TimeWeightedPageRank::new(TwprConfig::default()).rank(&c);
        assert!(l1_distance(&ab, &twpr) < 1e-9);
    }

    #[test]
    fn ablations_actually_change_the_ranking() {
        let c = Preset::Tiny.generate(7);
        let base = QRankConfig::default();
        let full = Ablation::Full.rank(&base, &c);
        for ab in
            [Ablation::NoVenue, Ablation::NoAuthor, Ablation::NoTimeDecay, Ablation::AdaptiveMix]
        {
            let scores = ab.rank(&base, &c);
            assert!(
                l1_distance(&full, &scores) > 1e-6,
                "{:?} should differ from the full model",
                ab
            );
        }
    }

    #[test]
    fn shared_engine_sweep_matches_per_variant_runs() {
        let c = Preset::Tiny.generate(11);
        let base = QRankConfig::default();
        let swept = Ablation::sweep(&base, &c);
        assert_eq!(swept.len(), 7);
        for (ab, res) in &swept {
            let fresh = QRank::new(ab.apply(&base)).run(&c);
            let diff = l1_distance(&res.article_scores, &fresh.article_scores);
            assert!(diff <= 1e-12, "{ab:?} differs from fresh run by {diff}");
        }
    }

    #[test]
    fn lambda_mass_is_preserved() {
        let base = QRankConfig::default();
        for ab in Ablation::all() {
            let cfg = ab.apply(&base);
            let sum = cfg.lambda_article + cfg.lambda_venue + cfg.lambda_author;
            assert!((sum - 1.0).abs() < 1e-9);
        }
    }
}
