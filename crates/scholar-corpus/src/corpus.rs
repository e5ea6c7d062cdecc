//! The [`Corpus`] container, its builder and its indexes.

use crate::model::{Article, ArticleId, Author, AuthorId, Venue, VenueId, Year};
use crate::rows::{self, Rows};
use crate::{CorpusError, Result};
use sgraph::CsrGraph;
use std::collections::HashMap;

/// An immutable scholarly corpus: articles, authors, venues, and the
/// citation structure. Build one with [`CorpusBuilder`], the synthetic
/// [`crate::generator`], or a [`crate::loader`]. The default is the empty
/// corpus.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Corpus {
    pub(crate) articles: Vec<Article>,
    pub(crate) authors: Vec<Author>,
    pub(crate) venues: Vec<Venue>,
}

impl Corpus {
    /// Assemble a corpus from already-validated parts (crate-internal;
    /// public construction goes through [`CorpusBuilder`] and friends).
    pub(crate) fn from_parts(
        articles: Vec<Article>,
        authors: Vec<Author>,
        venues: Vec<Venue>,
    ) -> Self {
        Corpus { articles, authors, venues }
    }

    /// Reassemble a corpus from parts previously extracted from a live
    /// `Corpus` — the snapshot-restore path. Unlike [`CorpusBuilder`],
    /// this does **not** intern by name (two distinct authors may share a
    /// name; interning would silently merge them), but it re-runs the
    /// structural checks so corrupt or tampered inputs surface as typed
    /// errors instead of panics downstream: dense ids, in-bounds
    /// venue/author/reference ids, sorted deduplicated references, no
    /// self-citations.
    pub fn assemble(
        articles: Vec<Article>,
        authors: Vec<Author>,
        venues: Vec<Venue>,
    ) -> Result<Self> {
        let n_articles = articles.len() as u32;
        let n_authors = authors.len() as u32;
        let n_venues = venues.len() as u32;
        let dense = |what: &'static str, got: u32, want: usize| {
            Err(CorpusError::Corrupt {
                file: "<assemble>".to_owned(),
                message: format!("{what} id {got} at position {want} is not dense"),
            })
        };
        for (i, u) in authors.iter().enumerate() {
            if u.id.index() != i {
                return dense("author", u.id.0, i);
            }
        }
        for (i, v) in venues.iter().enumerate() {
            if v.id.index() != i {
                return dense("venue", v.id.0, i);
            }
        }
        for (i, art) in articles.iter().enumerate() {
            if art.id.index() != i {
                return dense("article", art.id.0, i);
            }
            if art.venue.0 >= n_venues {
                return Err(CorpusError::DanglingReference {
                    kind: "venue",
                    id: art.venue.0,
                    article: art.id.0,
                });
            }
            for &u in &art.authors {
                if u.0 >= n_authors {
                    return Err(CorpusError::DanglingReference {
                        kind: "author",
                        id: u.0,
                        article: art.id.0,
                    });
                }
            }
            let mut prev: Option<ArticleId> = None;
            for &r in &art.references {
                if r.0 >= n_articles {
                    return Err(CorpusError::DanglingReference {
                        kind: "article",
                        id: r.0,
                        article: art.id.0,
                    });
                }
                if r == art.id || prev.is_some_and(|p| p >= r) {
                    return Err(CorpusError::Corrupt {
                        file: "<assemble>".to_owned(),
                        message: format!(
                            "article {} has unsorted, duplicate, or self references",
                            art.id.0
                        ),
                    });
                }
                prev = Some(r);
            }
        }
        Ok(Corpus::from_parts(articles, authors, venues))
    }

    /// This corpus with `batch` appended: a copy of every table plus the
    /// batch under [`CorpusBuilder::finish`]'s per-article rules — ids
    /// reassigned densely from `num_articles()` on, references sorted and
    /// deduplicated (they may name any article of the grown corpus, the
    /// batch included), a self-citation dropped, a venue, author or
    /// reference id out of bounds a [`CorpusError::DanglingReference`].
    /// Nothing is re-interned, so existing ids never move — not even when
    /// two authors share a name, which [`Corpus::assemble`] admits.
    pub fn grown(&self, batch: Vec<Article>) -> Result<Corpus> {
        let bounds = Bounds {
            articles: (self.articles.len() + batch.len()) as u32,
            authors: self.authors.len() as u32,
            venues: self.venues.len() as u32,
        };
        let mut articles = Vec::with_capacity(bounds.articles as usize);
        articles.extend_from_slice(&self.articles);
        for mut art in batch {
            art.id = ArticleId(articles.len() as u32);
            bounds.canonicalize(&mut art)?;
            articles.push(art);
        }
        Ok(Corpus::from_parts(articles, self.authors.clone(), self.venues.clone()))
    }

    /// All articles, indexed by [`ArticleId`].
    pub fn articles(&self) -> &[Article] {
        &self.articles
    }

    /// All authors, indexed by [`AuthorId`].
    pub fn authors(&self) -> &[Author] {
        &self.authors
    }

    /// All venues, indexed by [`VenueId`].
    pub fn venues(&self) -> &[Venue] {
        &self.venues
    }

    /// Number of articles.
    pub fn num_articles(&self) -> usize {
        self.articles.len()
    }

    /// Number of authors.
    pub fn num_authors(&self) -> usize {
        self.authors.len()
    }

    /// Number of venues.
    pub fn num_venues(&self) -> usize {
        self.venues.len()
    }

    /// Total number of citations (sum of reference-list lengths).
    pub fn num_citations(&self) -> usize {
        self.articles.iter().map(|a| a.references.len()).sum()
    }

    /// Article lookup.
    pub fn article(&self, id: ArticleId) -> &Article {
        &self.articles[id.index()]
    }

    /// Author lookup.
    pub fn author(&self, id: AuthorId) -> &Author {
        &self.authors[id.index()]
    }

    /// Venue lookup.
    pub fn venue(&self, id: VenueId) -> &Venue {
        &self.venues[id.index()]
    }

    /// `(min_year, max_year)` across all articles; `None` when empty.
    pub fn year_range(&self) -> Option<(Year, Year)> {
        rows::year_range(self)
    }

    /// The citation graph: one node per article, edge **citing → cited**,
    /// unit weights. In-degree is citation count. Every other derived
    /// structure is a function in [`crate::rows`] over the [`Rows`] view.
    pub fn citation_graph(&self) -> CsrGraph {
        rows::citation_graph(self)
    }

    /// Citation counts per article (in-degree of the citation graph,
    /// computed directly without building the graph).
    pub fn citation_counts(&self) -> Vec<u32> {
        rows::citation_counts(self)
    }

    /// Articles grouped by venue: `by_venue[v]` lists the article ids
    /// published at venue `v`.
    pub fn articles_by_venue(&self) -> Vec<Vec<ArticleId>> {
        let mut by = vec![Vec::new(); self.venues.len()];
        for a in &self.articles {
            by[a.venue.index()].push(a.id);
        }
        by
    }

    /// Articles grouped by author.
    pub fn articles_by_author(&self) -> Vec<Vec<ArticleId>> {
        let mut by = vec![Vec::new(); self.authors.len()];
        for a in &self.articles {
            for &u in &a.authors {
                by[u.index()].push(a.id);
            }
        }
        by
    }
}

/// The in-RAM view: rows are the article table; ids are copied out of
/// their newtypes into the scratch.
impl Rows for Corpus {
    fn num_articles(&self) -> usize {
        self.articles.len()
    }

    fn num_authors(&self) -> usize {
        self.authors.len()
    }

    fn num_venues(&self) -> usize {
        self.venues.len()
    }

    fn num_citations(&self) -> usize {
        Corpus::num_citations(self)
    }

    fn year(&self, i: usize) -> Year {
        self.articles[i].year
    }

    fn venue(&self, i: usize) -> u32 {
        self.articles[i].venue.0
    }

    fn byline<'a>(&'a self, i: usize, scratch: &'a mut Vec<u32>) -> &'a [u32] {
        scratch.clear();
        scratch.extend(self.articles[i].authors.iter().map(|u| u.0));
        scratch
    }

    fn refs<'a>(&'a self, i: usize, scratch: &'a mut Vec<u32>) -> &'a [u32] {
        scratch.clear();
        scratch.extend(self.articles[i].references.iter().map(|r| r.0));
        scratch
    }
}

/// Incremental corpus assembly with name interning and integrity checks.
#[derive(Debug, Default)]
pub struct CorpusBuilder {
    articles: Vec<Article>,
    authors: Vec<Author>,
    venues: Vec<Venue>,
    author_by_name: HashMap<String, AuthorId>,
    venue_by_name: HashMap<String, VenueId>,
}

impl CorpusBuilder {
    /// A fresh builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern an author by name, returning a stable id.
    pub fn author(&mut self, name: &str) -> AuthorId {
        if let Some(&id) = self.author_by_name.get(name) {
            return id;
        }
        let id = AuthorId(self.authors.len() as u32);
        self.authors.push(Author { id, name: name.to_owned() });
        self.author_by_name.insert(name.to_owned(), id);
        id
    }

    /// Intern a venue by name, returning a stable id.
    pub fn venue(&mut self, name: &str) -> VenueId {
        if let Some(&id) = self.venue_by_name.get(name) {
            return id;
        }
        let id = VenueId(self.venues.len() as u32);
        self.venues.push(Venue { id, name: name.to_owned() });
        self.venue_by_name.insert(name.to_owned(), id);
        id
    }

    /// Number of articles added so far (the next article's id).
    pub fn next_article_id(&self) -> ArticleId {
        ArticleId(self.articles.len() as u32)
    }

    /// Add an article. Its id is assigned densely in insertion order and
    /// returned. References may point to not-yet-added articles; they are
    /// validated in [`CorpusBuilder::finish`].
    #[allow(clippy::too_many_arguments)]
    pub fn add_article(
        &mut self,
        title: &str,
        year: Year,
        venue: VenueId,
        authors: Vec<AuthorId>,
        references: Vec<ArticleId>,
        merit: Option<f64>,
    ) -> ArticleId {
        let id = self.next_article_id();
        self.articles.push(Article {
            id,
            title: title.to_owned(),
            year,
            venue,
            authors,
            references,
            merit,
        });
        id
    }

    /// Replace the reference list of an article already added: a loader
    /// can resolve external ids only once every article is in.
    pub(crate) fn set_references(&mut self, id: ArticleId, references: Vec<ArticleId>) {
        self.articles[id.index()].references = references;
    }

    /// Validate and produce the immutable [`Corpus`].
    ///
    /// Checks: venue/author/reference ids in bounds, no self-citations, no
    /// duplicate references (duplicates are silently deduplicated).
    /// Citation chronology is not checked: real datasets contain a few
    /// citations of newer articles (preprints, in-press citations).
    pub fn finish(mut self) -> Result<Corpus> {
        let bounds = Bounds {
            articles: self.articles.len() as u32,
            authors: self.authors.len() as u32,
            venues: self.venues.len() as u32,
        };
        for art in &mut self.articles {
            bounds.canonicalize(art)?;
        }
        Ok(Corpus::from_parts(self.articles, self.authors, self.venues))
    }
}

/// The table sizes an article's ids are checked against.
struct Bounds {
    articles: u32,
    authors: u32,
    venues: u32,
}

impl Bounds {
    /// The per-article half of [`CorpusBuilder::finish`], shared with
    /// [`Corpus::grown`]: check the venue and byline ids, bring the
    /// reference list into canonical form (sorted, deduplicated, no
    /// self-citation) and check every reference.
    fn canonicalize(&self, art: &mut Article) -> Result<()> {
        if art.venue.0 >= self.venues {
            return Err(CorpusError::DanglingReference {
                kind: "venue",
                id: art.venue.0,
                article: art.id.0,
            });
        }
        for &u in &art.authors {
            if u.0 >= self.authors {
                return Err(CorpusError::DanglingReference {
                    kind: "author",
                    id: u.0,
                    article: art.id.0,
                });
            }
        }
        art.references.sort_unstable();
        art.references.dedup();
        // Drop self-citations silently (an article citing itself is
        // always data noise).
        let own = art.id;
        art.references.retain(|&r| r != own);
        for &r in &art.references {
            if r.0 >= self.articles {
                return Err(CorpusError::DanglingReference {
                    kind: "article",
                    id: r.0,
                    article: art.id.0,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgraph::NodeId;

    /// A small hand-built corpus used across this crate's tests:
    /// 4 articles, 3 authors, 2 venues.
    ///
    /// a0 (1990, v0, [u0])      — cited by a1, a2, a3
    /// a1 (1995, v0, [u0, u1])  — cites a0; cited by a2
    /// a2 (2000, v1, [u1])      — cites a0, a1
    /// a3 (2005, v1, [u2, u0])  — cites a0
    pub(crate) fn tiny() -> Corpus {
        let mut b = CorpusBuilder::new();
        let v0 = b.venue("VLDB");
        let v1 = b.venue("ICDE");
        let u0 = b.author("Ada");
        let u1 = b.author("Bob");
        let u2 = b.author("Cyd");
        let a0 = b.add_article("Foundations", 1990, v0, vec![u0], vec![], Some(3.0));
        let a1 = b.add_article("Extensions", 1995, v0, vec![u0, u1], vec![a0], Some(2.0));
        b.add_article("Survey", 2000, v1, vec![u1], vec![a0, a1], Some(1.0));
        b.add_article("Modern", 2005, v1, vec![u2, u0], vec![a0], Some(1.5));
        b.finish().unwrap()
    }

    #[test]
    fn counts_and_lookups() {
        let c = tiny();
        assert_eq!(c.num_articles(), 4);
        assert_eq!(c.num_authors(), 3);
        assert_eq!(c.num_venues(), 2);
        assert_eq!(c.num_citations(), 4);
        assert_eq!(c.article(ArticleId(1)).title, "Extensions");
        assert_eq!(c.author(AuthorId(2)).name, "Cyd");
        assert_eq!(c.venue(VenueId(0)).name, "VLDB");
        assert_eq!(c.year_range(), Some((1990, 2005)));
    }

    #[test]
    fn interning_is_stable() {
        let mut b = CorpusBuilder::new();
        let u1 = b.author("X");
        let u2 = b.author("X");
        assert_eq!(u1, u2);
        let v1 = b.venue("V");
        let v2 = b.venue("V");
        assert_eq!(v1, v2);
    }

    #[test]
    fn citation_graph_direction() {
        let c = tiny();
        let g = c.citation_graph();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        // a2 cites a0: edge 2 -> 0.
        assert!(g.has_edge(NodeId(2), NodeId(0)));
        assert!(!g.has_edge(NodeId(0), NodeId(2)));
        // in-degree = citation count.
        assert_eq!(g.in_degree(NodeId(0)), 3);
        assert_eq!(c.citation_counts(), vec![3, 1, 0, 0]);
    }

    #[test]
    fn weighted_citation_graph_applies_f() {
        let c = tiny();
        let g = rows::citation_edges(&c, 0..4, |citing, cited| (citing - cited) as f64).build();
        assert_eq!(g.edge_weight(NodeId(2), NodeId(0)), Some(10.0));
        assert_eq!(g.edge_weight(NodeId(3), NodeId(0)), Some(15.0));
    }

    #[test]
    fn authorship_bipartite_weights() {
        let c = tiny();
        let bp = rows::authorship_bipartite(&c);
        assert_eq!(bp.num_left(), 3);
        assert_eq!(bp.num_right(), 4);
        // Article 1 has two authors with harmonic weights 2/3, 1/3.
        let ws = bp.left_weights_of(1);
        assert!((ws[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((ws[1] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn publication_bipartite_shape() {
        let c = tiny();
        let bp = rows::publication_bipartite(&c);
        assert_eq!(bp.num_left(), 2);
        assert_eq!(bp.right_of(0).len(), 2); // v0 has a0, a1
        assert_eq!(bp.right_of(1).len(), 2); // v1 has a2, a3
    }

    #[test]
    fn venue_graph_aggregates_and_drops_self_loops() {
        let c = tiny();
        let g = rows::venue_edges(&c, 0..4, |_, _| 1.0).build();
        // a2 (v1) cites a0, a1 (v0): weight 2. a3 (v1) cites a0 (v0): +1.
        assert_eq!(g.edge_weight(NodeId(1), NodeId(0)), Some(3.0));
        // a1 (v0) cites a0 (v0): self-loop dropped.
        assert!(!g.has_edge(NodeId(0), NodeId(0)));
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn groupings() {
        let c = tiny();
        let by_v = c.articles_by_venue();
        assert_eq!(by_v[0], vec![ArticleId(0), ArticleId(1)]);
        let by_a = c.articles_by_author();
        assert_eq!(by_a[0], vec![ArticleId(0), ArticleId(1), ArticleId(3)]);
        assert_eq!(by_a[2], vec![ArticleId(3)]);
    }

    #[test]
    fn finish_rejects_dangling_ids() {
        let mut b = CorpusBuilder::new();
        let v = b.venue("V");
        b.add_article("t", 2000, v, vec![AuthorId(9)], vec![], None);
        assert!(matches!(b.finish(), Err(CorpusError::DanglingReference { kind: "author", .. })));

        let mut b = CorpusBuilder::new();
        let v = b.venue("V");
        b.add_article("t", 2000, v, vec![], vec![ArticleId(7)], None);
        assert!(matches!(b.finish(), Err(CorpusError::DanglingReference { kind: "article", .. })));

        let mut b = CorpusBuilder::new();
        b.add_article("t", 2000, VenueId(3), vec![], vec![], None);
        assert!(matches!(b.finish(), Err(CorpusError::DanglingReference { kind: "venue", .. })));
    }

    #[test]
    fn finish_dedups_references_and_drops_self_citation() {
        let mut b = CorpusBuilder::new();
        let v = b.venue("V");
        let a0 = b.add_article("first", 2000, v, vec![], vec![], None);
        let next = b.next_article_id();
        b.add_article("second", 2001, v, vec![], vec![a0, a0, next], None);
        let c = b.finish().unwrap();
        assert_eq!(c.article(ArticleId(1)).references, vec![a0]);

        // A forward citation (of a later, newer article: a preprint, an
        // in-press paper) is kept.
        let mut b = CorpusBuilder::new();
        let v = b.venue("V");
        let future = ArticleId(1);
        b.add_article("old", 2000, v, vec![], vec![future], None);
        b.add_article("new", 2010, v, vec![], vec![], None);
        assert_eq!(b.finish().unwrap().article(ArticleId(0)).references, vec![future]);
    }

    #[test]
    fn empty_corpus() {
        let c = CorpusBuilder::new().finish().unwrap();
        assert_eq!(c.num_articles(), 0);
        assert_eq!(c.year_range(), None);
        assert!(c.citation_graph().is_empty());
    }

    fn new_article(year: Year, venue: u32, authors: &[u32], references: &[u32]) -> Article {
        Article {
            id: ArticleId(0), // reassigned by `grown`
            title: format!("new-{year}"),
            year,
            venue: VenueId(venue),
            authors: authors.iter().map(|&u| AuthorId(u)).collect(),
            references: references.iter().map(|&r| ArticleId(r)).collect(),
            merit: None,
        }
    }

    #[test]
    fn grown_equals_a_replay_through_the_builder() {
        // The builder replay `grow_corpus` used to be: on a corpus whose
        // names are unique the two must agree on every table.
        let base = crate::generator::Preset::Tiny.generate(40);
        let n = base.num_articles() as u32;
        let batch = vec![
            new_article(2011, 0, &[0, 3], &[5, 0, 5, n + 1]),
            new_article(2012, 1, &[], &[n, n + 1, 7]),
        ];
        let mut b = CorpusBuilder::new();
        for v in base.venues() {
            b.venue(&v.name);
        }
        for u in base.authors() {
            b.author(&u.name);
        }
        for a in base.articles().iter().chain(&batch) {
            b.add_article(
                &a.title,
                a.year,
                a.venue,
                a.authors.clone(),
                a.references.clone(),
                a.merit,
            );
        }
        let replayed = b.finish().unwrap();
        let grown = base.grown(batch).unwrap();
        assert_eq!(grown, replayed);
        // Sorted, deduplicated, the self-citation gone, the forward
        // reference into the batch kept.
        assert_eq!(
            grown.article(ArticleId(n)).references,
            vec![ArticleId(0), ArticleId(5), ArticleId(n + 1)]
        );
        assert_eq!(grown.article(ArticleId(n + 1)).references, vec![ArticleId(7), ArticleId(n)]);
    }

    #[test]
    fn grown_keeps_two_authors_with_one_name_apart() {
        // `assemble` admits homonyms; re-interning by name would merge
        // them and shift every later author id.
        let author = |id: u32, name: &str| Author { id: AuthorId(id), name: name.to_owned() };
        let base = Corpus::assemble(
            vec![Article { id: ArticleId(0), ..new_article(2000, 0, &[0, 1, 2], &[]) }],
            vec![author(0, "J. Smith"), author(1, "J. Smith"), author(2, "K. Jones")],
            vec![Venue { id: VenueId(0), name: "V".to_owned() }],
        )
        .unwrap();
        let grown = base.grown(vec![new_article(2001, 0, &[2, 1], &[0])]).unwrap();
        assert_eq!(grown.authors(), base.authors());
        assert_eq!(grown.articles()[..1], base.articles()[..]);
        assert_eq!(grown.article(ArticleId(1)).authors, vec![AuthorId(2), AuthorId(1)]);
    }

    #[test]
    fn grown_rejects_dangling_ids() {
        let base = tiny();
        for (bad, kind) in [
            (new_article(2010, 9, &[0], &[]), "venue"),
            (new_article(2010, 0, &[9], &[]), "author"),
            (new_article(2010, 0, &[0], &[5]), "article"),
        ] {
            match base.grown(vec![bad]) {
                Err(CorpusError::DanglingReference { kind: k, article: 4, .. }) => {
                    assert_eq!(k, kind)
                }
                other => panic!("dangling {kind} id: {other:?}"),
            }
        }
    }
}
