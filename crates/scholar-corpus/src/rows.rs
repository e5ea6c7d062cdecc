//! One structural view of a corpus, and every structure derived from it.
//!
//! Everything a ranker walks — the citation CSR and its decayed
//! variants, the venue supernode graph, the two bipartites (whose product
//! with the citation graph *is* the author graph, which is therefore
//! never derived), citation counts, year and age vectors, the recency
//! jump — is a deterministic function of four columns per article (year,
//! venue, byline, references) plus the entity counts. [`Rows`] is exactly
//! that surface; the in-RAM [`Corpus`](crate::Corpus) and the mmap-backed
//! [`ColStore`](crate::ColStore) implement it, and each derivation is
//! written once, below, over any view (`&dyn Rows` included).
//!
//! ## Bit identity
//!
//! `sgraph::GraphBuilder` is deterministic: replaying the same `add_edge`
//! sequence yields a byte-identical `CsrGraph`. Every function here
//! visits articles in ascending id, references in stored (ascending)
//! order and bylines in byline order, so two views that agree row for row
//! derive *the same* structure, and every score computed downstream is
//! bit-for-bit unchanged — across backends by construction, not by two
//! loops kept in step.
//!
//! The edge functions take the citing articles as a range and return the
//! staged, unbuilt [`GraphBuilder`] (or [`BipartiteBuilder`]): staging `0..n` and
//! [building](GraphBuilder::build) gives the whole graph; staging only
//! the articles appended since a graph was built and building them
//! [onto](GraphBuilder::build_onto) it gives the same graph, bit for bit.
//! Weight kernels receive `(citing_year, cited_year)`: publication years
//! are the only article attribute any edge weight in the stack reads.

use crate::model::{author_position_weights, Year};
use sgraph::{Bipartite, BipartiteBuilder, CsrGraph, GraphBuilder, JumpVector, NodeId};
use std::ops::Range;

/// Read-only structural access to a corpus: entity counts and, per
/// article, `(year, venue, byline, references)`.
///
/// Infallible by design — a view is handed to rankers after the store
/// under it was opened and validated. The list accessors take a scratch
/// buffer an implementation may decode into and return the ids as a
/// slice, so a full scan allocates nothing per article and a view that
/// holds flat id columns can hand them back without a copy.
pub trait Rows {
    /// Number of articles; rows are `0..num_articles()`.
    fn num_articles(&self) -> usize;
    /// Number of distinct authors.
    fn num_authors(&self) -> usize;
    /// Number of distinct venues.
    fn num_venues(&self) -> usize;
    /// Total number of citation edges.
    fn num_citations(&self) -> usize;
    /// Publication year of article `i`.
    fn year(&self, i: usize) -> Year;
    /// Venue id of article `i`.
    fn venue(&self, i: usize) -> u32;
    /// Author ids of article `i`, in byline order.
    fn byline<'a>(&'a self, i: usize, scratch: &'a mut Vec<u32>) -> &'a [u32];
    /// Cited article ids of article `i`, strictly ascending.
    fn refs<'a>(&'a self, i: usize, scratch: &'a mut Vec<u32>) -> &'a [u32];
}

/// `(earliest, latest)` publication year, `None` when empty.
pub fn year_range<V: Rows + ?Sized>(rows: &V) -> Option<(Year, Year)> {
    let mut years = (0..rows.num_articles()).map(|i| rows.year(i));
    let first = years.next()?;
    Some(years.fold((first, first), |(lo, hi), y| (lo.min(y), hi.max(y))))
}

/// Publication year per article.
pub fn years<V: Rows + ?Sized>(rows: &V) -> Vec<Year> {
    (0..rows.num_articles()).map(|i| rows.year(i)).collect()
}

/// Article ages in years relative to `now`, clamped at 0.
pub fn ages<V: Rows + ?Sized>(rows: &V, now: Year) -> Vec<f64> {
    (0..rows.num_articles()).map(|i| (now - rows.year(i)).max(0) as f64).collect()
}

/// The recency-personalized jump vector `j(v) ∝ exp(-τ·age(v))` (uniform
/// when `τ = 0` or there are no articles).
///
/// Weighed as `exp(-τ·(age − youngest age))`, the same distribution once
/// normalised: the youngest article weighs exactly 1, so a `now` far past
/// the last year cannot underflow every weight to zero. Under the default
/// `now` (the last year) the youngest age is 0 and the weights are
/// unchanged, bit for bit.
pub fn recency_jump<V: Rows + ?Sized>(rows: &V, tau: f64, now: Year) -> JumpVector {
    if tau == 0.0 || rows.num_articles() == 0 {
        return JumpVector::Uniform;
    }
    let mut weights = ages(rows, now);
    let youngest = weights.iter().copied().fold(f64::INFINITY, f64::min);
    for w in &mut weights {
        *w = (-tau * (*w - youngest)).exp();
    }
    JumpVector::weighted(weights)
}

/// Citation count (in-degree) per article, without building the graph.
pub fn citation_counts<V: Rows + ?Sized>(rows: &V) -> Vec<u32> {
    let mut counts = vec![0u32; rows.num_articles()];
    let mut scratch = Vec::new();
    for i in 0..counts.len() {
        for &r in rows.refs(i, &mut scratch) {
            counts[r as usize] += 1;
        }
    }
    counts
}

/// The one references × kernel loop: for each article of `citing`, in
/// order, hand `sink` its id, its reference list and the weight
/// `f(citing_year, cited_year)` of each reference. The dense citation
/// graph, the venue graph and the out-of-core shard writer are all sinks
/// of this loop.
pub fn weighted_refs<V: Rows + ?Sized>(
    rows: &V,
    citing: Range<usize>,
    mut f: impl FnMut(Year, Year) -> f64,
    mut sink: impl FnMut(usize, &[u32], &[f64]),
) {
    let (mut scratch, mut weights) = (Vec::new(), Vec::new());
    for i in citing {
        let refs = rows.refs(i, &mut scratch);
        let year = rows.year(i);
        weights.clear();
        weights.extend(refs.iter().map(|&r| f(year, rows.year(r as usize))));
        sink(i, refs, &weights);
    }
}

/// The citation edges (citing → cited) of the articles in `citing`,
/// weighted by `f(citing_year, cited_year)`.
pub fn citation_edges<V: Rows + ?Sized>(
    rows: &V,
    citing: Range<usize>,
    f: impl FnMut(Year, Year) -> f64,
) -> GraphBuilder {
    let n = rows.num_articles();
    // The whole graph's edge count is known up front; a batch's is small.
    let expected = if citing == (0..n) { rows.num_citations() } else { 0 };
    let mut b = GraphBuilder::new(n as u32).with_edge_capacity(expected).self_loops(false);
    weighted_refs(rows, citing, f, |i, refs, weights| {
        for (&r, &w) in refs.iter().zip(weights) {
            b.add_edge(NodeId(i as u32), NodeId(r), w);
        }
    });
    b
}

/// The unweighted citation CSR: one node per article, unit weights;
/// in-degree is citation count.
pub fn citation_graph<V: Rows + ?Sized>(rows: &V) -> CsrGraph {
    citation_edges(rows, 0..rows.num_articles(), |_, _| 1.0).build()
}

/// The contributions of the articles in `citing` to the venue-aggregated
/// citation graph: edge `V(u) → V(v)` with weight `Σ f` over article
/// citations `u → v`; within-venue citations (self-loops) are dropped.
pub fn venue_edges<V: Rows + ?Sized>(
    rows: &V,
    citing: Range<usize>,
    f: impl FnMut(Year, Year) -> f64,
) -> GraphBuilder {
    let mut b = GraphBuilder::new(rows.num_venues() as u32).self_loops(false);
    weighted_refs(rows, citing, f, |i, refs, weights| {
        let from = NodeId(rows.venue(i));
        for (&r, &w) in refs.iter().zip(weights) {
            b.add_edge(from, NodeId(rows.venue(r as usize)), w);
        }
    });
    b
}

/// The authorship edges of the articles in `articles`: left = authors,
/// right = articles, harmonic byline-position weights (first author
/// heaviest). Staging `0..n` and [building](BipartiteBuilder::build) gives
/// the whole bipartite; staging the articles appended since it was built
/// and building them [onto](BipartiteBuilder::build_onto) it gives the
/// same one, bit for bit.
pub fn authorship_edges<V: Rows + ?Sized>(rows: &V, articles: Range<usize>) -> BipartiteBuilder {
    let mut b = BipartiteBuilder::new(rows.num_authors() as u32, rows.num_articles() as u32);
    let mut scratch = Vec::new();
    for i in articles {
        let byline = rows.byline(i, &mut scratch);
        let w = author_position_weights(byline.len());
        for (&author, &weight) in byline.iter().zip(&w) {
            b.add_edge(author, i as u32, weight);
        }
    }
    b
}

/// Authorship bipartite of the whole corpus ([`authorship_edges`]).
pub fn authorship_bipartite<V: Rows + ?Sized>(rows: &V) -> Bipartite {
    authorship_edges(rows, 0..rows.num_articles()).build()
}

/// The publication edges of the articles in `articles`: left = venues,
/// right = articles, unit weights; staged like [`authorship_edges`].
pub fn publication_edges<V: Rows + ?Sized>(rows: &V, articles: Range<usize>) -> BipartiteBuilder {
    let mut b = BipartiteBuilder::new(rows.num_venues() as u32, rows.num_articles() as u32);
    for i in articles {
        b.add_edge(rows.venue(i), i as u32, 1.0);
    }
    b
}

/// Publication bipartite of the whole corpus ([`publication_edges`]).
pub fn publication_bipartite<V: Rows + ?Sized>(rows: &V) -> Bipartite {
    publication_edges(rows, 0..rows.num_articles()).build()
}

#[cfg(all(test, not(miri)))]
mod tests {
    use super::*;
    use crate::colstore::{ColStore, ColWriter};
    use crate::generator::Preset;
    use crate::{Corpus, CorpusBuilder};

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("rows-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn decay(citing: Year, cited: Year) -> f64 {
        (-0.15 * ((citing - cited) as f64).max(0.0)).exp()
    }

    /// An unsigned article without references, a signed one citing it, an
    /// unsigned one that cites, a signed one nobody cites, and a byline
    /// sharing an author with an article it cites.
    fn odd_shapes() -> Corpus {
        let mut b = CorpusBuilder::new();
        let (v0, v1) = (b.venue("V0"), b.venue("V1"));
        let (u0, u1, u2) = (b.author("U0"), b.author("U1"), b.author("U2"));
        let a0 = b.add_article("a0", 1990, v0, vec![], vec![], None);
        let a1 = b.add_article("a1", 1995, v0, vec![u0, u1], vec![a0], None);
        b.add_article("a2", 1995, v1, vec![], vec![a0, a1], None);
        let a3 = b.add_article("a3", 2001, v1, vec![u1], vec![], None);
        b.add_article("a4", 2004, v0, vec![u2, u0], vec![a1, a3], None);
        b.finish().unwrap()
    }

    type Row = (Year, u32, Vec<u32>, Vec<u32>);

    fn row(rows: &dyn Rows, i: usize) -> Row {
        let (mut byline, mut refs) = (Vec::new(), Vec::new());
        (
            rows.year(i),
            rows.venue(i),
            rows.byline(i, &mut byline).to_vec(),
            rows.refs(i, &mut refs).to_vec(),
        )
    }

    /// The two views of one corpus agree row for row — which is all the
    /// derivations can see — and, as the consequence this file's header
    /// promises, on every derived structure.
    fn assert_backends_agree(label: &str, corpus: &Corpus) {
        let dir = tmpdir(label);
        corpus.write_colstore(&dir).unwrap();
        let store = ColStore::open(&dir).unwrap();
        let (ram, mm): (&dyn Rows, &dyn Rows) = (corpus, &store);

        let n = ram.num_articles();
        assert_eq!(n, mm.num_articles(), "{label}: articles");
        assert_eq!(ram.num_authors(), mm.num_authors(), "{label}: authors");
        assert_eq!(ram.num_venues(), mm.num_venues(), "{label}: venues");
        assert_eq!(ram.num_citations(), mm.num_citations(), "{label}: citations");
        for i in 0..n {
            assert_eq!(row(ram, i), row(mm, i), "{label}: row {i}");
        }

        assert_eq!(year_range(ram), year_range(mm), "{label}: year range");
        assert_eq!(years(ram), years(mm), "{label}: years");
        let now = year_range(ram).map_or(0, |(_, hi)| hi);
        assert_eq!(ages(ram, now), ages(mm, now), "{label}: ages");
        assert_eq!(recency_jump(ram, 0.1, now), recency_jump(mm, 0.1, now), "{label}: jump");
        assert_eq!(citation_counts(ram), citation_counts(mm), "{label}: citation counts");
        assert_eq!(citation_graph(ram), citation_graph(mm), "{label}: citation graph");
        assert_eq!(
            citation_edges(ram, 0..n, decay).build(),
            citation_edges(mm, 0..n, decay).build(),
            "{label}: decayed citation graph"
        );
        assert_eq!(
            venue_edges(ram, 0..n, decay).build(),
            venue_edges(mm, 0..n, decay).build(),
            "{label}: venue graph"
        );
        assert_eq!(authorship_bipartite(ram), authorship_bipartite(mm), "{label}: authorship");
        assert_eq!(publication_bipartite(ram), publication_bipartite(mm), "{label}: publication");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn backends_derive_identical_structures() {
        let mut one = CorpusBuilder::new();
        let (v, u) = (one.venue("V"), one.author("U"));
        one.add_article("only", 2000, v, vec![u], vec![], None);
        for (label, corpus) in [
            ("empty", CorpusBuilder::new().finish().unwrap()),
            ("one-article", one.finish().unwrap()),
            ("odd-shapes", odd_shapes()),
            ("tiny", Preset::Tiny.generate(9)),
            ("aan", Preset::AanLike.generate(9)),
        ] {
            assert_backends_agree(label, &corpus);
        }
    }

    /// A `now` far enough past the last year used to underflow every
    /// `exp(-τ·age)` to zero, and `JumpVector::weighted` panics on a
    /// massless vector. The youngest article now anchors the weights.
    #[test]
    fn recency_jump_survives_a_now_far_past_the_last_year() {
        let corpus = odd_shapes();
        let last = year_range(&corpus).unwrap().1;
        let anchored = recency_jump(&corpus, 0.1, last);
        for (tau, now) in [(1e4, last + 1), (0.1, last + 8000), (0.1, last)] {
            let jump = recency_jump(&corpus, tau, now).to_dense(corpus.num_articles());
            assert!(jump.iter().all(|w| w.is_finite() && *w >= 0.0), "τ {tau}, now {now}");
            assert!((jump.iter().sum::<f64>() - 1.0).abs() < 1e-12, "τ {tau}, now {now}");
            // The youngest article (a4, 2004) always weighs the most.
            assert_eq!(jump[4], jump.iter().copied().fold(0.0, f64::max), "τ {tau}, now {now}");
        }
        // Shifting `now` by whole years leaves the distribution alone.
        let shifted = recency_jump(&corpus, 0.1, last + 30).to_dense(corpus.num_articles());
        for (a, b) in anchored.to_dense(corpus.num_articles()).iter().zip(&shifted) {
            assert!((a - b).abs() < 1e-15, "{a} vs {b}");
        }
    }

    /// PR 19's law through the mmap view: the edges of the articles
    /// appended since a graph was built, built onto it, are the graph of
    /// the grown store.
    #[test]
    fn staged_onto_a_prefix_store_equals_the_whole_store() {
        let corpus = Preset::Tiny.generate(9);
        let n = corpus.num_articles();
        let old_n = n - 25;
        let (full_dir, prefix_dir) = (tmpdir("grown-full"), tmpdir("grown-prefix"));
        corpus.write_colstore(&full_dir).unwrap();
        let full = ColStore::open(&full_dir).unwrap();
        let mut w = ColWriter::create(&prefix_dir).unwrap();
        let (mut byline, mut refs) = (Vec::new(), Vec::new());
        for i in 0..old_n {
            let (byline, refs) = (full.byline(i, &mut byline), full.refs(i, &mut refs));
            w.push(full.year(i), full.venue(i), byline, refs, "", None).unwrap();
        }
        let names = |count| std::iter::repeat_n("", count);
        w.finish(names(full.num_authors()), names(full.num_venues())).unwrap();
        let prefix = ColStore::open(&prefix_dir).unwrap();

        type Stage = fn(&ColStore, Range<usize>) -> GraphBuilder;
        let stages: [(&str, Stage); 2] = [
            ("citation", |s, r| citation_edges(s, r, decay)),
            ("venue", |s, r| venue_edges(s, r, decay)),
        ];
        for (label, stage) in stages {
            let mut grown = stage(&prefix, 0..old_n).build();
            stage(&full, old_n..n).build_onto(&mut grown);
            assert_eq!(grown, stage(&full, 0..n).build(), "{label} graph");
        }
        for dir in [full_dir, prefix_dir] {
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
