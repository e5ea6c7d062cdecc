//! P-Rank (Yan, Ding & Sugimoto, JASIST 2011): one random walk over the
//! combined paper–author–venue network.
//!
//! The heterogeneous graph has `P + A + V` nodes:
//!
//! * paper → cited paper (citation edges, weight `lambda_cite` split over
//!   the reference list),
//! * paper ↔ author (byline-position weights),
//! * paper ↔ venue (unit weight),
//!
//! and PageRank runs on the whole thing at once; the paper slice of the
//! stationary distribution, renormalized, is the article ranking. Unlike
//! QRank there is no time modeling and no two-level structure — prestige
//! simply diffuses through the mixed graph.

use crate::context::RankContext;
use crate::diagnostics::Diagnostics;
use crate::pagerank::{pagerank_on_store, PageRankConfig};
use crate::ranker::Ranker;
use crate::telemetry::Stopwatch;
use crate::telemetry::{RankOutput, SolveTelemetry};
use scholar_corpus::model::author_position_weights;
use scholar_corpus::Rows;
use sgraph::{CsrGraph, GraphBuilder, JumpVector, NodeId, RowStochastic};

/// P-Rank parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PRankConfig {
    /// Underlying power-iteration parameters.
    pub pagerank: PageRankConfig,
    /// Relative out-weight a paper sends into its reference list.
    pub lambda_cite: f64,
    /// Relative out-weight a paper sends to its authors.
    pub lambda_author: f64,
    /// Relative out-weight a paper sends to its venue.
    pub lambda_venue: f64,
}

impl Default for PRankConfig {
    fn default() -> Self {
        PRankConfig {
            pagerank: PageRankConfig::default(),
            lambda_cite: 0.6,
            lambda_author: 0.25,
            lambda_venue: 0.15,
        }
    }
}

impl PRankConfig {
    /// Panics on an invalid configuration.
    pub fn assert_valid(&self) {
        self.pagerank.assert_valid();
        assert!(
            self.lambda_cite >= 0.0 && self.lambda_author >= 0.0 && self.lambda_venue >= 0.0,
            "layer weights must be >= 0"
        );
        assert!(
            self.lambda_cite + self.lambda_author + self.lambda_venue > 0.0,
            "at least one layer weight must be positive"
        );
    }
}

/// The P-Rank baseline.
#[derive(Debug, Clone, Default)]
pub struct PRank {
    /// Parameters.
    pub config: PRankConfig,
}

/// Scores for all three entity classes plus convergence info.
#[derive(Debug, Clone)]
pub struct PRankResult {
    /// Article scores (renormalized to sum 1).
    pub article_scores: Vec<f64>,
    /// Author scores (renormalized to sum 1).
    pub author_scores: Vec<f64>,
    /// Venue scores (renormalized to sum 1).
    pub venue_scores: Vec<f64>,
    /// Convergence diagnostics of the combined walk.
    pub diagnostics: Diagnostics,
}

impl PRank {
    /// P-Rank with the given configuration.
    pub fn new(config: PRankConfig) -> Self {
        config.assert_valid();
        PRank { config }
    }

    /// Run the combined walk over any structural view (in-RAM corpus or
    /// mmap colstore), returning scores for all entity classes: one
    /// edge-insertion sequence, so the combined graph — and therefore
    /// every score — is bit-identical across backends.
    pub fn run(&self, store: &dyn Rows) -> PRankResult {
        let cfg = &self.config;
        cfg.assert_valid();
        let np = store.num_articles() as u32;
        let na = store.num_authors() as u32;
        let nv = store.num_venues() as u32;
        if np == 0 {
            return PRankResult {
                article_scores: Vec::new(),
                author_scores: vec![0.0; na as usize],
                venue_scores: vec![0.0; nv as usize],
                diagnostics: Diagnostics::closed_form(),
            };
        }
        let g = self.combined_graph(store);
        let (scores, diagnostics) =
            pagerank_on_store(&RowStochastic::new(&g), &cfg.pagerank, JumpVector::Uniform);

        let mut article_scores = scores[..np as usize].to_vec();
        let mut author_scores = scores[np as usize..(np + na) as usize].to_vec();
        let mut venue_scores = scores[(np + na) as usize..].to_vec();
        sgraph::stochastic::normalize_l1(&mut article_scores);
        sgraph::stochastic::normalize_l1(&mut author_scores);
        sgraph::stochastic::normalize_l1(&mut venue_scores);
        PRankResult { article_scores, author_scores, venue_scores, diagnostics }
    }

    /// The combined graph the walk runs over: papers `0..P`, then authors,
    /// then venues, in one edge-insertion sequence per view.
    pub fn combined_graph(&self, store: &dyn Rows) -> CsrGraph {
        let cfg = &self.config;
        let np = store.num_articles() as u32;
        let na = store.num_authors() as u32;
        let nv = store.num_venues() as u32;
        let paper = |p: u32| NodeId(p);
        let author = |a: u32| NodeId(np + a);
        let venue = |v: u32| NodeId(np + na + v);

        let mut b = GraphBuilder::new(np + na + nv).self_loops(false);
        let (mut byline, mut refs) = (Vec::new(), Vec::new());
        for p in 0..np {
            // Citations: lambda_cite split across the reference list.
            let refs = store.refs(p as usize, &mut refs);
            if !refs.is_empty() {
                let w = cfg.lambda_cite / refs.len() as f64;
                for &r in refs {
                    b.add_edge(paper(p), paper(r), w);
                }
            }
            // Authors: lambda_author split by byline position, symmetric.
            let authors = store.byline(p as usize, &mut byline);
            if !authors.is_empty() {
                let pos = author_position_weights(authors.len());
                for (&u, &pw) in authors.iter().zip(&pos) {
                    b.add_edge(paper(p), author(u), cfg.lambda_author * pw);
                    b.add_edge(author(u), paper(p), pw);
                }
            }
            // Venue: symmetric unit link scaled by lambda_venue.
            let v = store.venue(p as usize);
            b.add_edge(paper(p), venue(v), cfg.lambda_venue);
            b.add_edge(venue(v), paper(p), 1.0);
        }
        b.build()
    }
}

impl Ranker for PRank {
    fn name(&self) -> String {
        "P-Rank".into()
    }

    fn solve_ctx(&self, ctx: &RankContext) -> RankOutput {
        self.config.assert_valid();
        // The combined paper/author/venue graph is P-Rank-specific (it
        // depends on the layer weights), so it is not shared through the
        // context: every solve builds it from the context's view.
        let solved = Stopwatch::start();
        let res = self.run(ctx.rows());
        let telemetry = SolveTelemetry::timed(&res.diagnostics, 0.0, solved.secs());
        RankOutput { scores: res.article_scores, telemetry }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scholar_corpus::generator::Preset;
    use scholar_corpus::CorpusBuilder;

    #[test]
    fn converges_and_normalizes_all_classes() {
        let c = Preset::Tiny.generate(6);
        let res = PRank::default().run(&c);
        assert!(res.diagnostics.converged);
        for v in [&res.article_scores, &res.author_scores, &res.venue_scores] {
            assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(v.iter().all(|&x| x >= 0.0));
        }
        assert_eq!(res.article_scores.len(), c.num_articles());
        assert_eq!(res.author_scores.len(), c.num_authors());
        assert_eq!(res.venue_scores.len(), c.num_venues());
    }

    #[test]
    fn cited_article_outranks_citing() {
        let mut b = CorpusBuilder::new();
        let v = b.venue("V");
        let u = b.author("U");
        let a0 = b.add_article("cited", 1990, v, vec![u], vec![], None);
        b.add_article("citing", 2000, v, vec![u], vec![a0], None);
        let c = b.finish().unwrap();
        let s = PRank::default().rank(&c);
        assert!(s[0] > s[1]);
    }

    #[test]
    fn venue_prestige_flows_to_articles() {
        // Two isolated (uncited) new articles; one in a venue whose other
        // articles are heavily cited, one in a fresh venue.
        let mut b = CorpusBuilder::new();
        let good = b.venue("Good");
        let meh = b.venue("Meh");
        let hit = b.add_article("hit", 1990, good, vec![], vec![], None);
        for i in 0..6 {
            b.add_article(&format!("c{i}"), 1995 + i, meh, vec![], vec![hit], None);
        }
        b.add_article("new-good", 2010, good, vec![], vec![], None);
        let fresh = b.venue("Fresh");
        b.add_article("new-meh-venue", 2010, fresh, vec![], vec![], None);
        let c = b.finish().unwrap();
        let s = PRank::default().rank(&c);
        let new_good = s[7];
        let new_fresh = s[8];
        assert!(
            new_good > new_fresh,
            "venue prestige should lift the uncited article ({new_good} vs {new_fresh})"
        );
    }

    #[test]
    fn author_scores_track_their_articles() {
        let mut b = CorpusBuilder::new();
        let v = b.venue("V");
        let star = b.author("Star");
        let newbie = b.author("Newbie");
        let hit = b.add_article("hit", 1990, v, vec![star], vec![], None);
        for i in 0..5 {
            b.add_article(&format!("c{i}"), 2000 + i, v, vec![newbie], vec![hit], None);
        }
        let c = b.finish().unwrap();
        let res = PRank::default().run(&c);
        assert!(res.author_scores[0] > res.author_scores[1]);
    }

    #[test]
    fn zero_venue_weight_disconnects_venues() {
        let c = Preset::Tiny.generate(3);
        let cfg = PRankConfig { lambda_venue: 0.0, ..Default::default() };
        let res = PRank::new(cfg).run(&c);
        // Venues still get visited (venue -> paper edges exist) but papers
        // never push into them... they receive no mass from papers, and the
        // jump gives them mass which they push out. Scores exist and are sane.
        assert!((res.article_scores.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn all_zero_layers_panic() {
        PRank::new(PRankConfig {
            lambda_cite: 0.0,
            lambda_author: 0.0,
            lambda_venue: 0.0,
            ..Default::default()
        });
    }

    #[test]
    fn empty_corpus() {
        let c = CorpusBuilder::new().finish().unwrap();
        let res = PRank::default().run(&c);
        assert!(res.article_scores.is_empty());
    }
}
