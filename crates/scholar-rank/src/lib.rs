#![warn(missing_docs)]

//! # scholar-rank — baseline scholarly ranking algorithms
//!
//! Every comparison method from the reconstructed evaluation lives here:
//!
//! | ranker | module | signal used |
//! |---|---|---|
//! | Citation count | [`citation_count`] | raw in-degree |
//! | PageRank | [`pagerank`] | citation graph walk |
//! | Time-weighted PageRank | [`time_weighted`] | citation walk with exponential age decay |
//! | HITS (authority) | [`hits`] | hub/authority mutual reinforcement |
//! | CiteRank | [`citerank`] | reader-traffic model: recency-started walk (Walker et al. 2007) |
//! | FutureRank | [`futurerank`] | citation walk + author bipartite + recency personalization (Sayyadi & Getoor 2009) |
//! | P-Rank | [`prank`] | one walk over the combined paper/author/venue graph |
//! | Citations/year, recent-window citations | [`age_normalized`] | bibliometric normalizations |
//! | Monte-Carlo PageRank | [`monte_carlo`] | walk-simulation approximation |
//! | Personalized PageRank | [`personalized`] | seeded exploration / related articles |
//!
//! All rankers implement the object-safe [`Ranker`] trait and return one
//! non-negative score per article normalized to sum 1, so scores are
//! comparable across methods and corpus snapshots. The primary entry
//! point is [`Ranker::solve_ctx`], which runs against a shared
//! [`context::RankContext`] — a prepared layer that caches the citation
//! graphs, bipartite maps, citation counts and year vectors (structures,
//! never solves), so a whole evaluation suite builds each structure
//! once — and
//! reports unified [`telemetry::SolveTelemetry`] (iterations, residuals,
//! convergence, build/solve wall time). `Ranker::rank(&Corpus)` remains
//! as a convenience over a throwaway context.
//!
//! The paper's own method (QRank) builds on these pieces and lives in the
//! `qrank` crate.

pub mod age_normalized;
pub mod citation_count;
pub mod citerank;
pub mod context;
pub mod diagnostics;
pub mod fusion;
pub mod futurerank;
pub mod hits;
pub mod monte_carlo;
pub mod pagerank;
pub mod personalized;
pub mod prank;
pub mod ranker;
pub mod rescaled;
pub mod scores;
pub mod telemetry;
pub mod time_weighted;
pub mod venue_author;

pub use age_normalized::{AgeNormalizedCitations, RecentCitations};
pub use citation_count::CitationCount;
pub use citerank::{CiteRank, CiteRankConfig};
pub use context::{DecayedCitation, DecayedPlan, RankContext};
pub use diagnostics::Diagnostics;
pub use fusion::{fuse_scores, FusedRanker, FusionRule};
pub use futurerank::{FutureRank, FutureRankConfig};
pub use hits::{Hits, HitsConfig};
pub use monte_carlo::{MonteCarloConfig, MonteCarloPageRank};
pub use pagerank::{PageRank, PageRankConfig};
pub use personalized::{personalized_pagerank, related_articles, PersonalizedConfig};
pub use prank::{PRank, PRankConfig};
pub use ranker::Ranker;
pub use rescaled::{rescale_by_years, RescaledRanker};
pub use telemetry::{RankOutput, SolveTelemetry};
pub use time_weighted::{TimeWeightedPageRank, TwprConfig};
