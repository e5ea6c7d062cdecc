//! Incremental re-ranking when the corpus grows.
//!
//! A production index re-ranks after every crawl, and a crawl appends: new
//! articles cite old ones, never the reverse. [`IncrementalRanker`] owns
//! the current corpus, its prepared plan and its result, and folds in
//! batches of new articles at a cost close to the batch's own:
//!
//! * the plan is **grown**, not rebuilt — [`QRankEngine::extend`] patches
//!   the batch's edges into the graphs it holds and re-derives the rest,
//!   giving exactly the plan a build from scratch would (which is what a
//!   ranker without a plan, fresh from [`IncrementalRanker::restore`],
//!   does on its first update: the scores cannot tell the two apart);
//! * the inner citation walk needs no head start: its edges point back in
//!   time, so one reverse sweep over the grown graph solves it exactly
//!   (`sgraph::reverse_sweep`), and the publish is a cold solve of the
//!   grown plan — the same bits [`crate::QRank::run`] gives on the grown
//!   corpus.

use crate::config::QRankConfig;
use crate::engine::{MixParams, QRankEngine};
use crate::qrank::QRankResult;
use scholar_corpus::model::Article;
use scholar_corpus::Corpus;
use std::sync::{Arc, OnceLock};

/// Maintains a QRank ranking across corpus updates.
///
/// Holds the prepared [`QRankEngine`] for the current corpus, so
/// mixture-only re-solves (and score explanations via
/// [`crate::Explainer::from_engine`]) come free between updates; each
/// [`IncrementalRanker::extend`] grows that plan to cover the batch and
/// solves it.
#[derive(Debug)]
pub struct IncrementalRanker {
    config: QRankConfig,
    /// Shared with every index built from this generation.
    corpus: Arc<Corpus>,
    /// Lazily built so [`IncrementalRanker::restore`] is O(corpus): a
    /// ranker resurrected from a snapshot only pays for the engine plan
    /// when the first update (or explanation) actually needs it.
    engine: OnceLock<QRankEngine>,
    result: QRankResult,
}

/// What one incremental update did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateStats {
    /// Articles added in this batch.
    pub added_articles: usize,
}

impl IncrementalRanker {
    /// Rank `corpus` from scratch and start tracking it.
    pub fn new(config: QRankConfig, corpus: Corpus) -> Self {
        config.assert_valid();
        let engine = QRankEngine::build(&corpus, &config);
        let result = engine.solve(&MixParams::from_config(&config));
        let cell = OnceLock::new();
        let _ = cell.set(engine);
        IncrementalRanker { config, corpus: Arc::new(corpus), engine: cell, result }
    }

    /// Resume tracking a corpus whose ranking was already computed — the
    /// crash-safe restart path. No solve happens and no engine plan is
    /// built; the caller asserts that `result` is the fixpoint for
    /// `corpus` under `config` (e.g. it was decoded from a checksummed
    /// snapshot that was written from a live ranker). Scores must match
    /// the corpus dimensions or this panics.
    pub fn restore(config: QRankConfig, corpus: Corpus, result: QRankResult) -> Self {
        config.assert_valid();
        assert_eq!(
            result.article_scores.len(),
            corpus.num_articles(),
            "restored article scores must match the corpus"
        );
        assert_eq!(
            result.venue_scores.len(),
            corpus.num_venues(),
            "restored venue scores must match the corpus"
        );
        assert_eq!(
            result.author_scores.len(),
            corpus.num_authors(),
            "restored author scores must match the corpus"
        );
        assert_eq!(
            result.twpr_scores.len(),
            corpus.num_articles(),
            "restored walk scores must match the corpus"
        );
        IncrementalRanker { config, corpus: Arc::new(corpus), engine: OnceLock::new(), result }
    }

    /// The current corpus.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// The current corpus, shared: what an index over this generation
    /// holds instead of a copy.
    pub fn shared_corpus(&self) -> Arc<Corpus> {
        Arc::clone(&self.corpus)
    }

    /// The prepared engine for the current corpus, built on first use
    /// after a [`IncrementalRanker::restore`].
    pub fn engine(&self) -> &QRankEngine {
        self.engine.get_or_init(|| QRankEngine::build(&*self.corpus, &self.config))
    }

    /// The current ranking.
    pub fn result(&self) -> &QRankResult {
        &self.result
    }

    /// Fold in a batch of new articles: grow the plan
    /// ([`QRankEngine::extend`]; built from scratch when this ranker holds
    /// none yet), then solve it. Which of the two ways the plan came to be
    /// leaves no trace in any score, so a ranker
    /// restored from `(corpus, result)` and this one stay bit-identical
    /// under the same batches.
    ///
    /// The batch is appended to the corpus: its ids must be dense
    /// continuations, its references may point anywhere in the grown
    /// corpus, and any new authors/venues must already have been appended
    /// to the tables — in practice callers construct the grown corpus with
    /// [`grow_corpus`].
    ///
    /// # Append-only contract
    ///
    /// Growing the plan is only sound when the retained prefix is
    /// **identical** to the
    /// tracked corpus: an edit to an old article's references, year,
    /// venue, or byline changes edges the plan already holds and the
    /// fixpoint with them, and the update would silently produce scores
    /// for a corpus the caller never declared. `extend` therefore verifies
    /// the whole prefix — id, year, venue, authors, and references of
    /// every retained article — and panics on the first mutation. The
    /// check is O(old articles + old references) per update, which is
    /// linear in the data the solver is about to traverse many times
    /// over, so it is noise next to the solve itself.
    pub fn extend(&mut self, grown: Corpus) -> UpdateStats {
        // Chaos site: a slow or dying solve inside the reindex pipeline.
        // A panic here must stay contained to the reindexer thread and
        // leave the previously published index serving.
        failpoint!("incremental.extend");
        let old_n = self.corpus.num_articles();
        let new_n = grown.num_articles();
        assert!(new_n >= old_n, "corpus can only grow");
        for (old, new) in self.corpus.articles().iter().zip(grown.articles()) {
            assert_eq!(old.id, new.id, "existing article ids must be stable");
            assert_eq!(
                old.year, new.year,
                "append-only contract violated: article {} changed year",
                old.id
            );
            assert_eq!(
                old.venue, new.venue,
                "append-only contract violated: article {} changed venue",
                old.id
            );
            assert_eq!(
                old.authors, new.authors,
                "append-only contract violated: article {} changed its byline",
                old.id
            );
            assert_eq!(
                old.references, new.references,
                "append-only contract violated: article {} changed its references",
                old.id
            );
        }
        // The plan leaves its cell before it is touched and returns only
        // whole: a panic from here on (the reindexer contains those) finds
        // the old corpus, the old result and no plan, which `engine()`
        // rebuilds on demand. A ranker that holds none builds one.
        let engine = match self.engine.take() {
            Some(plan) => plan.extend(&grown, old_n),
            None => QRankEngine::build(&grown, &self.config),
        };
        let result = engine.solve(&MixParams::from_config(&self.config));
        let stats = UpdateStats { added_articles: new_n - old_n };
        self.corpus = Arc::new(grown);
        let _ = self.engine.set(engine);
        self.result = result;
        stats
    }
}

/// Append a batch of articles to a corpus, producing the grown corpus
/// ([`Corpus::grown`]). New articles get the next dense ids; their
/// references may cite both old and new articles. Venue/author tables are
/// carried over as they are (the batch must only use existing
/// [`scholar_corpus::VenueId`]s / [`scholar_corpus::AuthorId`]s).
///
/// # Panics
/// Panics if a batch article names a venue, author or article the grown
/// corpus does not have.
pub fn grow_corpus(base: &Corpus, batch: Vec<Article>) -> Corpus {
    base.grown(batch).expect("grown corpus must be consistent")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qrank::QRank;
    use scholar_corpus::generator::Preset;
    use scholar_corpus::model::{ArticleId, AuthorId, VenueId};
    use scholar_corpus::snapshot_until;

    fn batch_article(id_hint: usize, year: i32, refs: Vec<ArticleId>) -> Article {
        Article {
            id: ArticleId(0), // reassigned by grow_corpus
            title: format!("new-{id_hint}"),
            year,
            venue: VenueId(0),
            authors: vec![AuthorId(0)],
            references: refs,
            merit: None,
        }
    }

    #[test]
    fn grow_preserves_base() {
        let base = Preset::Tiny.generate(40);
        let n = base.num_articles();
        let grown =
            grow_corpus(&base, vec![batch_article(0, 2011, vec![ArticleId(0), ArticleId(5)])]);
        assert_eq!(grown.num_articles(), n + 1);
        assert_eq!(grown.num_venues(), base.num_venues());
        assert_eq!(grown.num_authors(), base.num_authors());
        for (a, b) in base.articles().iter().zip(grown.articles()) {
            assert_eq!(a.references, b.references);
            assert_eq!(a.year, b.year);
        }
        assert_eq!(grown.articles()[n].references, vec![ArticleId(0), ArticleId(5)]);
    }

    /// The batch that grows a year-`last − 1` snapshot of `full` into the
    /// whole corpus: the final year's articles, references remapped.
    fn final_year(full: &Corpus) -> (Corpus, Vec<Article>) {
        let (_, last) = full.year_range().unwrap();
        let snap = snapshot_until(full, last - 1);
        let batch = full
            .articles()
            .iter()
            .filter(|a| a.year == last)
            .map(|a| Article {
                id: ArticleId(0),
                title: a.title.clone(),
                year: a.year,
                venue: a.venue,
                authors: a.authors.clone(),
                references: a.references.iter().filter_map(|&r| snap.to_snapshot(r)).collect(),
                merit: a.merit,
            })
            .collect();
        (snap.corpus, batch)
    }

    /// An incremental publish is a cold run on the grown corpus, bit for
    /// bit: every score vector and both solves' diagnostics — for a batch
    /// of a whole year, and for one whose articles cite both the base and
    /// each other.
    #[test]
    fn an_incremental_publish_is_a_cold_run_bit_for_bit() {
        let (base, year) = final_year(&Preset::Tiny.generate(42));
        let n = base.num_articles() as u32;
        // Each cites the next one too: nineteen forward references and one
        // back, so the grown walk has back edges and takes several passes.
        let mixed: Vec<Article> = (0..20u32)
            .map(|i| {
                let refs = vec![ArticleId(i * 7 % 50), ArticleId(n + (i + 1) % 20)];
                batch_article(i as usize, 2011, refs)
            })
            .collect();
        for (what, batch) in [("final year", year), ("self-citing batch", mixed)] {
            let mut inc = IncrementalRanker::new(QRankConfig::default(), base.clone());
            let grown = grow_corpus(&base, batch);
            let stats = inc.extend(grown.clone());
            assert_eq!(stats.added_articles, grown.num_articles() - base.num_articles());
            let (got, cold) = (inc.result(), QRank::default().run(&grown));
            assert_eq!(got.article_scores, cold.article_scores, "{what}");
            assert_eq!(got.venue_scores, cold.venue_scores, "{what}");
            assert_eq!(got.author_scores, cold.author_scores, "{what}");
            assert_eq!(got.twpr_scores, cold.twpr_scores, "{what}");
            assert_eq!(got.twpr_diagnostics, cold.twpr_diagnostics, "{what}");
            assert_eq!(got.outer, cold.outer, "{what}");
        }
    }

    /// Build a grown corpus whose retained prefix has been tampered with
    /// by `mutate`, then feed it to `extend`.
    fn extend_with_mutated_prefix(mutate: impl Fn(&mut Article)) {
        let base = Preset::Tiny.generate(44);
        let mut inc = IncrementalRanker::new(QRankConfig::default(), base.clone());
        let mut grown = grow_corpus(&base, vec![batch_article(0, 2011, vec![ArticleId(3)])]);
        // Rebuild the grown corpus with article 5 of the prefix mutated —
        // the id space stays dense and valid, only the content lies.
        let mut articles: Vec<Article> = grown.articles().to_vec();
        mutate(&mut articles[5]);
        let mut b = scholar_corpus::CorpusBuilder::new();
        for v in grown.venues() {
            b.venue(&v.name);
        }
        for u in grown.authors() {
            b.author(&u.name);
        }
        for a in &articles {
            b.add_article(&a.title, a.year, a.venue, a.authors.clone(), a.references.clone(), None);
        }
        grown = b.finish().expect("mutated corpus is still structurally valid");
        inc.extend(grown);
    }

    #[test]
    #[should_panic(expected = "changed its references")]
    fn mutated_prefix_references_rejected() {
        extend_with_mutated_prefix(|a| {
            if a.references.is_empty() {
                a.references.push(ArticleId(0));
            } else {
                a.references.clear();
            }
        });
    }

    #[test]
    #[should_panic(expected = "changed year")]
    fn mutated_prefix_year_rejected() {
        extend_with_mutated_prefix(|a| a.year -= 1);
    }

    #[test]
    #[should_panic(expected = "changed venue")]
    fn mutated_prefix_venue_rejected() {
        extend_with_mutated_prefix(|a| {
            a.venue = VenueId(if a.venue.0 == 0 { 1 } else { 0 });
        });
    }

    #[test]
    #[should_panic(expected = "changed its byline")]
    fn mutated_prefix_byline_rejected() {
        extend_with_mutated_prefix(|a| {
            if a.authors.is_empty() {
                a.authors.push(AuthorId(0));
            } else {
                a.authors.clear();
            }
        });
    }

    #[test]
    #[should_panic(expected = "only grow")]
    fn shrinking_panics() {
        let base = Preset::Tiny.generate(43);
        let smaller = snapshot_until(&base, base.year_range().unwrap().1 - 3).corpus;
        let mut inc = IncrementalRanker::new(QRankConfig::default(), base);
        inc.extend(smaller);
    }
}
