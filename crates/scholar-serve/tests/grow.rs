//! A grown index is the built index. Every generation
//! [`ScoreIndex::grow`] makes from the previous one must equal
//! [`ScoreIndex::build`] of the same `(corpus, scores)` — every array,
//! compared through `PartialEq` — and give every `/top` (unfiltered,
//! venue, author, year windows and their mixes) and every `/article`
//! answer byte for byte, through the connection core
//! ([`Ctx::write_answer`]) and through the router ([`respond`]) alike.

use qrank::incremental::{grow_corpus, IncrementalRanker};
use qrank::QRankConfig;
use scholar_corpus::generator::Preset;
use scholar_corpus::model::{Article, ArticleId, Author, AuthorId, Venue, VenueId};
use scholar_corpus::{Corpus, CorpusBuilder};
use scholar_rank::Ranker;
use scholar_serve::conn::Ctx;
use scholar_serve::http::{parse_target, write_response_head};
use scholar_serve::{respond, Metrics, ScoreIndex, SharedIndex};
use std::sync::Arc;

/// A deterministic stream (SplitMix64) for the scripted batches.
struct Stream(u64);

impl Stream {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n.max(1) as u64) as usize
    }
}

/// `count` articles shaped like a churn batch: the last year (one batch in
/// four opens a new one), a random venue, one to three authors and up to
/// five references into the base, and one to the batch's previous article.
fn batch(rng: &mut Stream, base: &Corpus, count: usize, step: usize) -> Vec<Article> {
    let last = base.year_range().map_or(2000, |(_, hi)| hi) + i32::from(step % 4 == 3);
    let n = base.num_articles();
    (0..count)
        .map(|j| {
            let mut refs: Vec<ArticleId> =
                (0..rng.below(6)).map(|_| ArticleId(rng.below(n) as u32)).collect();
            if j > 0 {
                refs.push(ArticleId((n + j - 1) as u32));
            }
            Article {
                id: ArticleId(0),
                title: format!("grown-{step}-{j} \"quoted\" \\ é"),
                year: last,
                venue: VenueId(rng.below(base.num_venues()) as u32),
                authors: (0..1 + rng.below(3))
                    .map(|_| AuthorId(rng.below(base.num_authors()) as u32))
                    .collect(),
                references: refs,
                merit: None,
            }
        })
        .collect()
}

/// One answer through the connection core (its own cache-cold context)
/// and through the router: `(core bytes, router bytes)`.
fn answer(ctx: &mut Ctx, index: &ScoreIndex, target: &str) -> (Vec<u8>, Vec<u8>) {
    let req = parse_target(target);
    let mut core = Vec::new();
    ctx.write_answer(&req, target.as_bytes(), index, false, &mut core);
    let (status, body) = respond(&req, index, &Metrics::new());
    let rendered = body.to_string_compact();
    let mut router = Vec::new();
    write_response_head(&mut router, status, rendered.len(), false);
    router.extend_from_slice(rendered.as_bytes());
    (core, router)
}

/// Every `/top` and `/article` target of `index`: all venues, every
/// `author_stride`-th author plus the last, every year window, some
/// mixed filters, and every article.
fn targets(index: &ScoreIndex, author_stride: usize) -> Vec<String> {
    let corpus = index.corpus();
    let n = corpus.num_articles();
    // The whole order, up to the router's cap on k.
    let all = n.clamp(1, 10_000);
    let mut out: Vec<String> = [1, 10, all].iter().map(|k| format!("/top?k={k}")).collect();
    for v in corpus.venues() {
        out.push(format!("/top?k=10&venue={}", v.name));
    }
    let authors = corpus.authors();
    let picked = authors.iter().step_by(author_stride.max(1)).chain(authors.last());
    for u in picked {
        out.push(format!("/top?k=10&author={}", u.name));
        if let Some(v) = corpus.venues().first() {
            out.push(format!("/top?k=5&author={}&venue={}", u.name, v.name));
        }
    }
    if let Some((lo, hi)) = corpus.year_range() {
        for y0 in lo..=hi {
            out.push(format!("/top?k=10&year_min={y0}"));
            out.push(format!("/top?k=10&year_max={y0}"));
            for y1 in (y0..=hi).step_by(3) {
                out.push(format!("/top?k=10&year_min={y0}&year_max={y1}"));
            }
        }
        if let Some(v) = corpus.venues().last() {
            out.push(format!("/top?k=7&venue={}&year_min={}", v.name, (lo + hi) / 2));
        }
    }
    out.extend((0..n).map(|a| format!("/article/{a}")));
    out
}

/// Grow `prev` onto `(corpus, scores)`, build the same pair from scratch,
/// and hold the two to each other; returns the grown index.
fn assert_grown_is_built(
    label: &str,
    prev: &ScoreIndex,
    corpus: Arc<Corpus>,
    scores: Vec<f64>,
    author_stride: usize,
) -> ScoreIndex {
    let grown = ScoreIndex::grow(prev, Arc::clone(&corpus), scores.clone());
    let built = ScoreIndex::build(corpus, scores);
    let shared = Arc::new(SharedIndex::new(ScoreIndex::build(Arc::default(), Vec::new())));
    let (mut on_grown, mut on_built) = (
        Ctx::new(Arc::clone(&shared), Arc::new(Metrics::new()), None),
        Ctx::new(shared, Arc::new(Metrics::new()), None),
    );
    for target in targets(&built, author_stride) {
        let (grown_core, grown_router) = answer(&mut on_grown, &grown, &target);
        let (built_core, built_router) = answer(&mut on_built, &built, &target);
        assert!(grown_core.starts_with(b"HTTP/1.1 200 "), "{label}: {target}: not answered");
        assert!(grown_core == built_core, "{label}: {target}: the core's bytes differ");
        assert!(grown_router == built_router, "{label}: {target}: the router's bytes differ");
    }
    assert!(grown == built, "{label}: the grown index's arrays differ from the built one's");
    grown
}

/// Tiny and AAN-like, grown by the pipeline a publish runs: the corpus by
/// `grow_corpus`, the scores by an incremental QRank publish.
#[test]
fn a_grown_index_is_the_built_index_over_scripted_batches() {
    for (name, corpus, steps, stride) in
        [("tiny", Preset::Tiny.generate(19), 5, 1), ("aan", Preset::AanLike.generate(19), 2, 29)]
    {
        let mut rng = Stream(19);
        let mut ranker = IncrementalRanker::new(QRankConfig::default(), corpus);
        let mut index =
            ScoreIndex::build(ranker.shared_corpus(), ranker.result().article_scores.clone());
        for step in 0..steps {
            let count = [8, 1, 0, 20, 8][step % 5];
            let grown = grow_corpus(ranker.corpus(), batch(&mut rng, ranker.corpus(), count, step));
            ranker.extend(grown);
            let label = format!("{name}, step {step}");
            let scores = ranker.result().article_scores.clone();
            index = assert_grown_is_built(&label, &index, ranker.shared_corpus(), scores, stride);
        }
    }
}

/// Entity tables of the given names, ids in order.
fn tables(venues: &[&str], authors: &[&str]) -> (Vec<Venue>, Vec<Author>) {
    let venues =
        (0u32..).zip(venues).map(|(i, &n)| Venue { id: VenueId(i), name: n.into() }).collect();
    let authors =
        (0u32..).zip(authors).map(|(i, &n)| Author { id: AuthorId(i), name: n.into() }).collect();
    (venues, authors)
}

fn article(id: u32, year: i32, venue: u32, authors: &[u32], refs: &[u32]) -> Article {
    Article {
        id: ArticleId(id),
        title: format!("t{id}"),
        year,
        venue: VenueId(venue),
        authors: authors.iter().copied().map(AuthorId).collect(),
        references: refs.iter().copied().map(ArticleId).collect(),
        merit: None,
    }
}

/// Tables that grow — a new venue and new authors, one of whom shares an
/// old author's name, beside two old authors who already share one — an
/// all-ties score vector, and a publish that adds no article.
#[test]
fn grown_tables_shared_names_and_ties_match_the_build() {
    let old = [
        article(0, 2000, 0, &[0, 1], &[]),
        article(1, 2001, 1, &[2], &[0]),
        article(2, 2001, 0, &[1, 2], &[0, 1]),
        article(3, 2003, 1, &[], &[2]),
    ];
    let (venues, authors) = tables(&["V0", "V1"], &["Ann", "Bo", "Ann"]);
    let base = Corpus::assemble(old.to_vec(), authors, venues).unwrap();
    let mut new = old.to_vec();
    new.extend([article(4, 2003, 2, &[3, 0], &[1, 3]), article(5, 2004, 0, &[4], &[4])]);
    let (venues, authors) = tables(&["V0", "V1", "V2"], &["Ann", "Bo", "Ann", "Cy", "Bo"]);
    let grown = Arc::new(Corpus::assemble(new, authors, venues).unwrap());

    let ties = |n: usize| vec![1.0 / n as f64; n];
    let prev = ScoreIndex::build(Arc::new(base), ties(4));
    assert_eq!(prev.author_id("Ann"), Some(2), "a shared name resolves to the last id");
    let index = assert_grown_is_built("grown tables, ties", &prev, Arc::clone(&grown), ties(6), 1);
    assert_eq!(index.author_id("Bo"), Some(4), "a new namesake resolves to the new id");
    assert_eq!(index.venue_id("V2"), Some(2));
    // A re-score without new articles, ties broken the other way round.
    let scores: Vec<f64> = (0..6).map(|i| f64::from(i % 2)).collect();
    assert_grown_is_built("no new article", &index, grown, scores, 1);
}

/// Grown from the index over no article, and onto it.
#[test]
fn an_empty_base_grows_into_the_built_index() {
    let empty = ScoreIndex::build(Arc::default(), Vec::new());
    assert_grown_is_built("empty onto empty", &empty, Arc::default(), Vec::new(), 1);
    let corpus = Preset::Tiny.generate(7);
    let scores = scholar_rank::PageRank::default().rank(&corpus);
    assert_grown_is_built("tiny onto empty", &empty, Arc::new(corpus), scores, 1);
    // An empty base whose tables are not: every name is already known.
    let mut b = CorpusBuilder::new();
    let (v, u) = (b.venue("V"), b.author("U"));
    let tables_only = b.finish().unwrap();
    let prev = ScoreIndex::build(Arc::new(tables_only.clone()), Vec::new());
    let grown = tables_only.grown(vec![article(0, 1999, v.0, &[u.0], &[])]).unwrap();
    assert_grown_is_built("one article onto tables only", &prev, Arc::new(grown), vec![1.0], 1);
}

/// `serve-churn`'s shape on the DBLP-like preset: sixteen batches of
/// eight, each published by the incremental pipeline and grown onto the
/// previous index — every fragment and every posting list equal to a
/// build. CI runs it with
/// `cargo test --release -p scholar-serve --test grow -- --ignored`.
#[test]
#[ignore = "large preset; run in release builds"]
fn dblp_like_churn_grows_the_built_index() {
    let mut rng = Stream(48);
    let mut ranker = IncrementalRanker::new(QRankConfig::default(), Preset::DblpLike.generate(48));
    let mut index =
        ScoreIndex::build(ranker.shared_corpus(), ranker.result().article_scores.clone());
    for step in 0..16 {
        let grown = grow_corpus(ranker.corpus(), batch(&mut rng, ranker.corpus(), 8, 0));
        ranker.extend(grown);
        let scores = ranker.result().article_scores.clone();
        let next = ScoreIndex::grow(&index, ranker.shared_corpus(), scores.clone());
        assert!(next == ScoreIndex::build(ranker.shared_corpus(), scores), "batch {step}");
        index = next;
    }
}
