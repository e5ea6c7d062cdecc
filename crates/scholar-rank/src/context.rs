//! The shared prepared-corpus substrate under every ranker.
//!
//! A [`RankContext`] is built once per corpus and lazily caches every
//! derived structure the ranker suite needs: the author/venue bipartite
//! maps, citation counts, per-article year vectors and the citation
//! graphs keyed by their decay rate ρ — ρ = 0 is the unit citation CSR
//! ([`RankContext::citation_graph`]), one cache entry like any other
//! rate. It caches structures, never answers: every
//! [`crate::ranker::Ranker::solve_ctx`] call runs its own solve against
//! the cached structures. Walk operators are not cached either: a
//! [`sgraph::RowStochastic`] borrows the graph it steps over and holds
//! only per-node sums, so a ranker builds one in a pass over the graph.
//! Rankers implement
//! [`crate::ranker::Ranker::solve_ctx`] against this context; the old
//! `rank(&Corpus)` entry point survives as a thin wrapper that builds a
//! throwaway context.
//!
//! The context reads its corpus through the [`Rows`] structural view:
//! [`RankContext::new`] wraps the in-RAM [`Corpus`],
//! [`RankContext::from_colstore`] wraps an mmap-backed [`ColStore`], and
//! every structure is derived by the one function `scholar_corpus::rows`
//! has for it — so the backends are bit-identical by construction and
//! every ranker produces the same scores either way. On the mmap backend
//! the citation walk ([`crate::time_weighted::citation_walk`], which
//! TWPR, PageRank, CiteRank and personalized PageRank share) stays *out
//! of core* via [`RankContext::decayed_plan`], which materializes a
//! sharded [`MmapCsr`] next to the store instead of a dense graph.
//!
//! Invalidation is by construction: a context borrows an immutable
//! backing store and is dropped when the store changes (there is no
//! in-place mutation to track). Caches are interior-mutable
//! (`OnceLock`/`Mutex`) so a shared `&RankContext` works from the
//! evaluation harness without threading `&mut` everywhere.

use crate::time_weighted::TimeWeightedPageRank;
use scholar_corpus::colstore::ColStore;
use scholar_corpus::rows::{self, Rows};
use scholar_corpus::{Corpus, Year};
use sgraph::mmap_csr::{MmapCsr, MmapCsrBuilder};
use sgraph::{Bipartite, CsrGraph, JumpVector};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// A time-decayed citation graph (`exp(-ρ·citation_age)` edge weights),
/// cached per ρ inside [`RankContext`]. Citation age is the year
/// difference of the two endpoints, so the graph is independent of the
/// caller's "now".
#[derive(Debug)]
pub struct DecayedCitation {
    /// CSR with exponentially decayed edge weights.
    pub graph: CsrGraph,
}

/// Where a context's decayed citation graph lives — the solve plan
/// returned by [`RankContext::decayed_plan`].
///
/// A walk over either (a [`sgraph::RowStochastic`] borrowing the dense
/// graph, or the shard file itself) implements `sgraph::CsrStore` and
/// produces bit-identical power-iteration trajectories; the partitioned
/// variant's peak memory is two iterate vectors plus one shard.
#[derive(Clone)]
pub enum DecayedPlan {
    /// Dense in-RAM graph (the in-RAM backend's plan).
    Dense(Arc<DecayedCitation>),
    /// Mmap-backed shard file (the colstore backend's plan).
    Partitioned(Arc<MmapCsr>),
}

enum Backing<'c> {
    Ram(&'c Corpus),
    Mmap(&'c ColStore),
}

/// Prepared, lazily-cached derived structures for one corpus.
///
/// Build once with [`RankContext::new`] (in-RAM) or
/// [`RankContext::from_colstore`] (mmap-backed), then hand `&ctx` to any
/// number of rankers: the first user of each structure pays for its
/// construction, everyone after reads the cache.
pub struct RankContext<'c> {
    backing: Backing<'c>,
    now: Option<Year>,
    authorship: OnceLock<Bipartite>,
    publication: OnceLock<Bipartite>,
    citation_counts: OnceLock<Vec<u32>>,
    years: OnceLock<Vec<Year>>,
    decayed: Mutex<BTreeMap<u64, Arc<DecayedCitation>>>,
    partitioned: Mutex<BTreeMap<u64, Arc<MmapCsr>>>,
}

impl<'c> RankContext<'c> {
    /// A fresh context over the in-RAM `corpus`. Cheap: nothing is built
    /// until a ranker asks for it.
    pub fn new(corpus: &'c Corpus) -> Self {
        Self::over(Backing::Ram(corpus))
    }

    /// A fresh context over an mmap-backed columnar store. Rankers see
    /// the same interface and produce bit-identical scores; the decayed
    /// citation graph can stay out of core via
    /// [`RankContext::decayed_plan`].
    pub fn from_colstore(store: &'c ColStore) -> Self {
        Self::over(Backing::Mmap(store))
    }

    fn over(backing: Backing<'c>) -> Self {
        let mut ctx = RankContext {
            backing,
            now: None,
            authorship: OnceLock::new(),
            publication: OnceLock::new(),
            citation_counts: OnceLock::new(),
            years: OnceLock::new(),
            decayed: Mutex::new(BTreeMap::new()),
            partitioned: Mutex::new(BTreeMap::new()),
        };
        ctx.now = rows::year_range(ctx.rows()).map(|(_, hi)| hi);
        ctx
    }

    /// The structural view this context derives everything from.
    pub fn rows(&self) -> &'c dyn Rows {
        match &self.backing {
            Backing::Ram(c) => *c,
            Backing::Mmap(s) => *s,
        }
    }

    /// Number of articles (ranking vectors have this length).
    pub fn num_articles(&self) -> usize {
        self.rows().num_articles()
    }

    /// The corpus's last publication year; the default "now" for
    /// recency-aware rankers.
    ///
    /// Returns the documented sentinel `0` for an *empty* corpus. That
    /// is safe: with no articles there are no ages to decay and every
    /// ranker returns an empty score vector.
    pub fn now(&self) -> Year {
        self.now.unwrap_or(0)
    }

    /// The unweighted citation CSR: the ρ = 0 entry of the decayed cache
    /// (`exp(-0·Δt)` is exactly 1.0), so every user shares one build.
    pub fn citation_graph(&self) -> Arc<DecayedCitation> {
        self.decayed_citation(0.0)
    }

    /// Authorship bipartite (left = authors, right = articles, harmonic
    /// byline weights).
    pub fn authorship(&self) -> &Bipartite {
        self.authorship.get_or_init(|| rows::authorship_bipartite(self.rows()))
    }

    /// Publication bipartite (left = venues, right = articles, unit
    /// weights).
    pub fn publication(&self) -> &Bipartite {
        self.publication.get_or_init(|| rows::publication_bipartite(self.rows()))
    }

    /// Citation counts per article (in-degree).
    pub fn citation_counts(&self) -> &[u32] {
        self.citation_counts.get_or_init(|| rows::citation_counts(self.rows()))
    }

    /// Publication year per article.
    pub fn years(&self) -> &[Year] {
        self.years.get_or_init(|| rows::years(self.rows()))
    }

    /// The recency-personalized jump vector `j(v) ∝ exp(-τ·age(v))`
    /// (uniform when `τ = 0` or the corpus is empty).
    pub fn recency_jump(&self, tau: f64, now: Year) -> JumpVector {
        rows::recency_jump(self.rows(), tau, now)
    }

    /// The time-decayed citation graph for decay rate `rho`, cached per
    /// rate: the in-RAM backend's [`DecayedPlan`], which the citation
    /// walk solves against.
    pub fn decayed_citation(&self, rho: f64) -> Arc<DecayedCitation> {
        let key = rho.to_bits();
        if let Some(hit) = self.decayed.lock().unwrap().get(&key) {
            return Arc::clone(hit);
        }
        let rows = self.rows();
        let decay = TimeWeightedPageRank::decay(rho);
        let graph = rows::citation_edges(rows, 0..rows.num_articles(), decay).build();
        let entry = Arc::new(DecayedCitation { graph });
        self.decayed.lock().unwrap().entry(key).or_insert_with(|| Arc::clone(&entry));
        entry
    }

    /// The decayed-citation *solve plan* for decay rate `rho`: dense on
    /// the in-RAM backend, a sharded mmap CSR on the colstore backend.
    ///
    /// On the colstore backend the shard file is materialized next to
    /// the columns as `csr-rho<bits>-g<generation>.scsr`, streamed
    /// straight from the reference postings (the dense graph is never
    /// built), and reused across contexts: an existing file whose
    /// header tag matches the store generation is opened as-is. Callers
    /// sharing one context wait for a build in progress rather than start
    /// their own, so each rate is opened or built once per context.
    ///
    /// # Panics
    /// Panics if the colstore backend cannot write or reopen the shard
    /// file (disk full, permissions); ranking cannot proceed without it.
    pub fn decayed_plan(&self, rho: f64) -> DecayedPlan {
        let store = match &self.backing {
            Backing::Ram(_) => return DecayedPlan::Dense(self.decayed_citation(rho)),
            Backing::Mmap(s) => *s,
        };
        let key = rho.to_bits();
        // Held across open-or-build: two builds of one file would write
        // the same spill and tmp names, and one's cleanup would delete
        // the other's files.
        let mut partitioned = self.partitioned.lock().unwrap();
        if let Some(hit) = partitioned.get(&key) {
            return DecayedPlan::Partitioned(Arc::clone(hit));
        }
        let tag = store.generation();
        let path = store.dir().join(format!("csr-rho{:016x}-g{tag:016x}.scsr", key));
        let opened = match MmapCsr::open(&path, Some(tag)) {
            Ok(csr) => csr,
            Err(_) => {
                // Build (or rebuild a stale/corrupt cache) by streaming
                // the reference postings through the shard writer.
                let n = store.num_articles();
                let shard_size = (n.div_ceil(8)).max(1024);
                let mut b =
                    MmapCsrBuilder::new(&path, n, shard_size).expect("create decayed shard file");
                let decay = TimeWeightedPageRank::decay(rho);
                rows::weighted_refs(store, 0..n, decay, |_, refs, weights| {
                    b.add_source(refs, weights).expect("spill decayed shard edges");
                });
                b.finish(tag).expect("publish decayed shard file");
                MmapCsr::open(&path, Some(tag)).expect("reopen decayed shard file")
            }
        };
        let entry = Arc::new(opened);
        partitioned.insert(key, Arc::clone(&entry));
        DecayedPlan::Partitioned(entry)
    }
}

impl std::fmt::Debug for RankContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RankContext")
            .field("articles", &self.num_articles())
            .field(
                "backing",
                &match &self.backing {
                    Backing::Ram(_) => "ram",
                    Backing::Mmap(_) => "mmap",
                },
            )
            .field("now", &self.now)
            .field("decayed_entries", &self.decayed.lock().unwrap().len())
            .field("partitioned_entries", &self.partitioned.lock().unwrap().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scholar_corpus::generator::Preset;

    #[test]
    fn citation_graph_is_built_exactly_once() {
        let c = Preset::Tiny.generate(3);
        let ctx = RankContext::new(&c);
        let first = ctx.citation_graph();
        assert!(Arc::ptr_eq(&first, &ctx.citation_graph()), "one build per context");
        assert!(Arc::ptr_eq(&first, &ctx.decayed_citation(0.0)), "the unit graph is ρ = 0");
        match ctx.decayed_plan(0.0) {
            DecayedPlan::Dense(d) => assert!(Arc::ptr_eq(&first, &d), "the RAM plan at ρ = 0"),
            DecayedPlan::Partitioned(_) => panic!("a RAM context plans dense"),
        }
        assert_eq!(first.graph, rows::citation_graph(&c), "unit weights, same CSR");
    }

    #[test]
    fn decayed_citation_caches_per_parameter_pair() {
        let c = Preset::Tiny.generate(3);
        let ctx = RankContext::new(&c);
        let a = ctx.decayed_citation(0.15);
        let b = ctx.decayed_citation(0.15);
        assert!(Arc::ptr_eq(&a, &b), "same decay rate must share one entry");
        let other = ctx.decayed_citation(0.3);
        assert!(!Arc::ptr_eq(&a, &other));
        assert_eq!(a.graph.num_nodes() as usize, c.num_articles());
    }

    #[test]
    fn years_and_ages_align_with_articles() {
        let c = Preset::Tiny.generate(3);
        let ctx = RankContext::new(&c);
        assert_eq!(ctx.years().len(), c.num_articles());
        let ages = rows::ages(ctx.rows(), ctx.now());
        assert_eq!(ages.len(), c.num_articles());
        assert!(ages.iter().all(|&a| a >= 0.0));
        assert_eq!(ctx.now(), c.year_range().unwrap().1);
    }

    #[test]
    fn empty_corpus_context() {
        let c = scholar_corpus::CorpusBuilder::new().finish().unwrap();
        let ctx = RankContext::new(&c);
        assert_eq!(ctx.now(), 0, "documented sentinel for the unchecked accessor");
        assert_eq!(ctx.num_articles(), 0);
        assert_eq!(ctx.citation_graph().graph.num_nodes(), 0);
        assert_eq!(ctx.citation_counts().len(), 0);
    }

    /// Regression for the `now` fallback: recency-aware rankers over an
    /// empty corpus must return cleanly instead of exploding decay
    /// weights off year-0 "now".
    #[test]
    fn empty_corpus_rankers_do_not_explode() {
        use crate::ranker::Ranker;
        let c = scholar_corpus::CorpusBuilder::new().finish().unwrap();
        let ctx = RankContext::new(&c);
        assert!(matches!(ctx.recency_jump(0.1, ctx.now()), JumpVector::Uniform));
        let out = crate::time_weighted::TimeWeightedPageRank::default().solve_ctx(&ctx);
        assert!(out.scores.is_empty());
        let out = crate::futurerank::FutureRank::default().solve_ctx(&ctx);
        assert!(out.scores.is_empty());
    }
}
