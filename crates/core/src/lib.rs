#![warn(missing_docs)]

//! # qrank — query-independent scholarly article ranking
//!
//! This crate implements the primary contribution of the reconstructed
//! ICDE 2018 paper *"Query Independent Scholarly Article Ranking"* (see
//! DESIGN.md for the reconstruction notice): a ranking framework that
//! combines
//!
//! 1. **Time-weighted PageRank** over the article citation graph
//!    (exponential decay on citation age + recency-personalized
//!    teleportation — implemented in `scholar-rank::time_weighted`), and
//! 2. **Mutual reinforcement with venues and authors** over the
//!    heterogeneous academic network: venue and author prestige is
//!    computed both *structurally* (a time-weighted walk over the
//!    aggregated venue citation graph; each author's byline-weighted
//!    citation count) and *by aggregation* (from the current article
//!    scores), then folded back into every article's score. Iterated to a
//!    fixpoint.
//!
//! Because venue and author prestige exist from the day an article is
//! published, QRank addresses the **cold-start problem**: a new article
//! with zero citations still inherits `λ_V·V + λ_U·U`. The
//! [`cold_start`] module exposes this directly for articles that are not
//! even in the corpus yet.
//!
//! ## Quick start
//!
//! ```
//! use qrank::{QRank, QRankConfig};
//! use scholar_corpus::generator::Preset;
//! use scholar_rank::Ranker;
//!
//! let corpus = Preset::Tiny.generate(42);
//! let result = QRank::new(QRankConfig::default()).run(&corpus);
//! assert_eq!(result.article_scores.len(), corpus.num_articles());
//! assert!(result.outer.converged);
//!
//! // Or through the common Ranker interface:
//! let scores = QRank::default().rank(&corpus);
//! assert!((scores.iter().sum::<f64>() - 1.0).abs() < 1e-9);
//! ```
//!
//! ## Build once, solve many
//!
//! [`QRank::run`] rebuilds the heterogeneous network and re-derives the
//! structural priors every call. Parameter sweeps, ablations, and tuning
//! grids vary only the mixture parameters, so they should prepare a
//! [`QRankEngine`] once and solve many times:
//!
//! ```
//! use qrank::{MixParams, QRankConfig, QRankEngine};
//! use scholar_corpus::generator::Preset;
//!
//! let corpus = Preset::Tiny.generate(42);
//! let base = QRankConfig::default();
//! let engine = QRankEngine::build(&corpus, &base); // expensive, once
//! for lambda_venue in [0.05, 0.10, 0.15] {
//!     let cfg = base.clone().with_lambdas(0.9 - lambda_venue, lambda_venue, 0.1);
//!     let res = engine.solve(&MixParams::from_config(&cfg)); // cheap
//!     assert!(res.outer.converged);
//! }
//! ```

/// Named fault-injection site (see `scholar-testkit`). With the
/// `failpoints` feature on, evaluates the site in the testkit registry:
/// the unit form can delay or panic; the two-argument form additionally
/// runs its second argument when the site's schedule says *trigger*.
/// Without the feature the macro expands to nothing at all — no branch,
/// no registry, no dependency.
#[cfg(feature = "failpoints")]
macro_rules! failpoint {
    ($site:literal) => {
        let _ = ::scholar_testkit::fp::hit($site);
    };
    ($site:literal, $on_trigger:expr) => {
        if ::scholar_testkit::fp::hit($site) {
            $on_trigger
        }
    };
}
#[cfg(not(feature = "failpoints"))]
macro_rules! failpoint {
    ($site:literal) => {};
    ($site:literal, $on_trigger:expr) => {};
}

pub mod ablation;
pub mod cold_start;
pub mod config;
pub mod engine;
pub mod explain;
pub mod hetnet;
pub mod incremental;
pub mod qrank;

pub use ablation::Ablation;
pub use cold_start::ColdStartScorer;
pub use config::QRankConfig;
pub use engine::{MixParams, QRankEngine, SolveScratch};
pub use explain::{Explainer, Explanation};
pub use hetnet::HetNet;
pub use incremental::{grow_corpus, IncrementalRanker, UpdateStats};
pub use qrank::{QRank, QRankResult};
