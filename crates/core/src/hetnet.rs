//! The heterogeneous academic network QRank walks over.
//!
//! Built once per `(corpus, config)` pair; every derived structure shares
//! the same exponential citation-age decay `exp(-ρ·Δt)` so the time model
//! is consistent across layers (DESIGN.md §2.2).
//!
//! There is no author citation graph: the author prior is a
//! byline-weighted count of decayed citations, one gather of `citation`'s
//! in-weights through `authorship` ([`crate::QRankEngine`]).

use crate::config::QRankConfig;
use scholar_corpus::rows::{self, Rows};
use scholar_rank::TimeWeightedPageRank;
use sgraph::{Bipartite, CsrGraph};

/// All derived graphs of a corpus under one decay configuration.
#[derive(Debug, Clone)]
pub struct HetNet {
    /// Article citation graph, edge weight `exp(-ρ·citation_age)`.
    pub citation: CsrGraph,
    /// Aggregated venue citation graph (decayed weights summed, venue
    /// self-loops dropped).
    pub venue_graph: CsrGraph,
    /// Author ↔ article bipartite with harmonic byline weights.
    pub authorship: Bipartite,
    /// Venue ↔ article bipartite with unit weights.
    pub publication: Bipartite,
}

impl HetNet {
    /// Build the network from any structural view of a corpus.
    pub fn build<V: Rows + ?Sized>(corpus: &V, config: &QRankConfig) -> Self {
        let decay = TimeWeightedPageRank::decay(config.twpr.rho);
        let all = 0..corpus.num_articles();
        HetNet {
            citation: rows::citation_edges(corpus, all.clone(), decay).build(),
            venue_graph: rows::venue_edges(corpus, all, decay).build(),
            authorship: rows::authorship_bipartite(corpus),
            publication: rows::publication_bipartite(corpus),
        }
    }

    /// Grow the network of `grown`'s first `old_n` articles into the
    /// network of all of them, in place — the result equals
    /// [`HetNet::build`] on `grown` in every offset, id and weight bit
    /// (DESIGN.md §2.4, "Growing a plan").
    ///
    /// A citation's weight depends only on the two publication years, and
    /// only an appended article can cite, so everything the old articles
    /// contributed to the two graphs stands; the newcomers' edges are
    /// staged by the same functions a full build calls and built
    /// [onto](sgraph::GraphBuilder::build_onto) each graph. An old
    /// article's byline and venue stand too, so the two bipartites grow
    /// the same way: the newcomers' edges, whose right nodes are all new,
    /// built [onto](sgraph::BipartiteBuilder::build_onto) each.
    pub fn extend<V: Rows + ?Sized>(&mut self, grown: &V, config: &QRankConfig, old_n: usize) {
        assert_eq!(self.num_articles(), old_n, "the network to grow covers the old articles");
        let decay = TimeWeightedPageRank::decay(config.twpr.rho);
        let new = old_n..grown.num_articles();
        rows::citation_edges(grown, new.clone(), decay).build_onto(&mut self.citation);
        rows::venue_edges(grown, new.clone(), decay).build_onto(&mut self.venue_graph);
        rows::authorship_edges(grown, new.clone()).build_onto(&mut self.authorship);
        rows::publication_edges(grown, new).build_onto(&mut self.publication);
    }

    /// Number of articles.
    pub fn num_articles(&self) -> usize {
        self.citation.len()
    }

    /// Number of venues.
    pub fn num_venues(&self) -> usize {
        self.venue_graph.len()
    }

    /// Number of authors.
    pub fn num_authors(&self) -> usize {
        self.authorship.num_left() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scholar_corpus::{Corpus, CorpusBuilder};

    fn corpus() -> Corpus {
        let mut b = CorpusBuilder::new();
        let v0 = b.venue("V0");
        let v1 = b.venue("V1");
        let u0 = b.author("U0");
        let u1 = b.author("U1");
        let a0 = b.add_article("a0", 1990, v0, vec![u0], vec![], None);
        let a1 = b.add_article("a1", 2000, v0, vec![u0, u1], vec![a0], None);
        b.add_article("a2", 2010, v1, vec![u1], vec![a0, a1], None);
        b.finish().unwrap()
    }

    #[test]
    fn shapes_match_corpus() {
        let c = corpus();
        let net = HetNet::build(&c, &QRankConfig::default());
        assert_eq!(net.num_articles(), 3);
        assert_eq!(net.num_venues(), 2);
        assert_eq!(net.num_authors(), 2);
        assert_eq!(net.citation.num_edges(), 3);
        assert_eq!(net.authorship.num_edges(), 4);
        assert_eq!(net.publication.num_edges(), 3);
    }

    #[test]
    fn decay_is_consistent_across_layers() {
        let c = corpus();
        let cfg = QRankConfig::default().with_rho(0.1);
        let net = HetNet::build(&c, &cfg);
        // Citation a1 -> a0 spans 10 years.
        let w = net.citation.edge_weight(sgraph::NodeId(1), sgraph::NodeId(0)).unwrap();
        assert!((w - (-1.0f64).exp()).abs() < 1e-12);
        // Venue edge v1 -> v0 aggregates a2's two cross-venue citations:
        // a2->a0 spans 20y, a2->a1 spans 10y.
        let vw = net.venue_graph.edge_weight(sgraph::NodeId(1), sgraph::NodeId(0)).unwrap();
        assert!((vw - ((-2.0f64).exp() + (-1.0f64).exp())).abs() < 1e-12);
    }

    #[test]
    fn rho_zero_gives_unit_weights() {
        let c = corpus();
        let cfg = QRankConfig::default().with_rho(0.0);
        let net = HetNet::build(&c, &cfg);
        assert_eq!(net.citation.out_weight_sums().iter().sum::<f64>(), 3.0);
    }

    /// The author prior by hand, at ρ = 0.1. a0 is cited 10 years on by a1
    /// and 20 years on by a2, a1 10 years on by a2, a2 never: decayed
    /// counts e⁻¹ + e⁻², e⁻¹ and 0. u0 signs a0 alone (weight 1) and a1
    /// first (harmonic weights 1 : 1/2, so 2/3); u1 signs a1 second (1/3)
    /// and a2 alone. A self-citation counts like any other: a1 [u0, u1]
    /// citing a0 [u0] is one of a0's two.
    #[test]
    fn author_prior_is_the_byline_weighted_citation_count() {
        let cfg = QRankConfig::default().with_rho(0.1);
        let su = crate::QRankEngine::build(&corpus(), &cfg).structural_stationaries().1.to_vec();
        let (e1, e2) = ((-1.0f64).exp(), (-2.0f64).exp());
        let counts = [1.0 + (e1 + e2) + 2.0 / 3.0 * e1, 1.0 + 1.0 / 3.0 * e1];
        let total = counts[0] + counts[1];
        assert!(su.iter().zip(counts).all(|(s, c)| (s - c / total).abs() < 1e-15), "{su:?}");
    }
}
