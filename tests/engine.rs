//! Prepared-engine equivalence: a cached `QRankEngine` must answer every
//! mixture exactly like a fresh `QRank` run — across corpus presets,
//! ablation variants and thread counts — and a plan grown
//! batch by batch must be, bit for bit, the plan built from scratch.

use scholar::core::engine::{MixParams, QRankEngine, SolveScratch};
use scholar::core::{grow_corpus, Ablation, IncrementalRanker};
use scholar::corpus::generator::Preset;
use scholar::corpus::model::{Article, ArticleId, AuthorId};
use scholar::corpus::{Corpus, CorpusGenerator};
use scholar::{GeneratorConfig, QRank, QRankConfig};
use sgraph::stochastic::l1_distance;
use srand::{rngs::SmallRng, Rng, SeedableRng};

/// Corpora spanning the generator presets (the larger presets scaled down
/// so the suite stays fast while still crossing the parallel-kernel
/// threshold).
fn preset_corpora() -> Vec<(&'static str, Corpus)> {
    vec![
        ("tiny-1", Preset::Tiny.generate(1)),
        ("tiny-9", Preset::Tiny.generate(9)),
        (
            "aan-scaled",
            CorpusGenerator::new(GeneratorConfig {
                initial_articles_per_year: 60.0,
                ..Preset::AanLike.config(7)
            })
            .generate(),
        ),
        (
            "dblp-scaled",
            CorpusGenerator::new(GeneratorConfig {
                initial_articles_per_year: 25.0,
                ..Preset::DblpLike.config(3)
            })
            .generate(),
        ),
    ]
}

fn assert_result_close(name: &str, a: &scholar::QRankResult, b: &scholar::QRankResult) {
    for (label, x, y) in [
        ("article", &a.article_scores, &b.article_scores),
        ("venue", &a.venue_scores, &b.venue_scores),
        ("author", &a.author_scores, &b.author_scores),
        ("twpr", &a.twpr_scores, &b.twpr_scores),
    ] {
        let l1 = l1_distance(x, y);
        assert!(l1 <= 1e-12, "{name}: {label} scores differ by L1 {l1}");
    }
}

#[test]
fn cached_engine_matches_fresh_run_across_presets() {
    for (name, corpus) in preset_corpora() {
        let cfg = QRankConfig::default();
        let engine = QRankEngine::build(&corpus, &cfg);
        let mut scratch = SolveScratch::new();
        // Solve repeatedly against the same plan — reused scratch, varied
        // mixtures — and check each answer against a from-scratch run.
        for cfg in [
            cfg.clone(),
            cfg.clone().with_lambdas(0.7, 0.2, 0.1),
            cfg.clone().with_maturity(3.0),
            QRankConfig { mu_venue: 0.9, mu_author: 0.1, ..cfg.clone() },
        ] {
            let cached = engine.solve_with(&MixParams::from_config(&cfg), &mut scratch);
            let fresh = QRank::new(cfg).run(&corpus);
            assert_result_close(name, &cached, &fresh);
        }
    }
}

#[test]
fn shared_engine_ablation_sweep_matches_fresh_runs() {
    let corpus = Preset::Tiny.generate(5);
    let base = QRankConfig::default();
    let swept = Ablation::sweep(&base, &corpus);
    assert_eq!(swept.len(), Ablation::all().len());
    for (ab, res) in &swept {
        let fresh = QRank::new(ab.apply(&base)).run(&corpus);
        assert_result_close(ab.name(), res, &fresh);
        assert!(res.outer.converged, "{} did not converge", ab.name());
    }
}

#[test]
fn thread_count_does_not_change_any_score() {
    // Large enough to cross the parallel threshold so the balanced-range
    // kernels actually engage; the parallel partitions must be bitwise
    // equivalent to sequential execution.
    let corpus = CorpusGenerator::new(GeneratorConfig {
        initial_articles_per_year: 60.0,
        ..Preset::AanLike.config(11)
    })
    .generate();
    assert!(corpus.num_articles() > 4096, "corpus must exercise the parallel kernels");
    let reference: Option<scholar::QRankResult> = None;
    let mut reference = reference;
    for threads in [1usize, 2, 8] {
        let cfg = QRankConfig::default().with_threads(threads);
        let engine = QRankEngine::build(&corpus, &cfg);
        let res = engine.solve(&MixParams::from_config(&cfg));
        match &reference {
            None => reference = Some(res),
            Some(base) => {
                assert_eq!(
                    base.article_scores, res.article_scores,
                    "article scores changed at {threads} threads"
                );
                assert_eq!(
                    base.venue_scores, res.venue_scores,
                    "venue scores changed at {threads} threads"
                );
                assert_eq!(
                    base.author_scores, res.author_scores,
                    "author scores changed at {threads} threads"
                );
            }
        }
    }
}

// ---- Growing a plan: patched ≡ rebuilt, bit for bit (DESIGN.md §2.4) ----

/// How many batches [`batch_for`] scripts.
const STEPS: usize = 6;

/// The `step`-th batch to fold into `live`: one scripted article (or a
/// few) that exercises a named edge case of the three aggregations, plus
/// a handful of seeded random ones for bulk.
fn batch_for(live: &IncrementalRanker, step: usize) -> Vec<Article> {
    let corpus = live.corpus();
    let n = corpus.num_articles() as u32;
    let (_, last) = corpus.year_range().unwrap();
    let article = |year, venue, authors: Vec<AuthorId>, references: Vec<ArticleId>| Article {
        id: ArticleId(0), // reassigned by grow_corpus
        title: format!("step-{step}"),
        year,
        venue,
        authors,
        references,
        merit: None,
    };
    // An old citation between two signed articles of different lead
    // authors and different venues.
    let (citing, cited) = corpus
        .articles()
        .iter()
        .flat_map(|a| a.references.iter().map(move |&r| (a, corpus.article(r))))
        .find(|(a, r)| {
            !a.authors.is_empty()
                && !r.authors.is_empty()
                && a.authors[0] != r.authors[0]
                && a.venue != r.venue
        })
        .expect("a cross-venue citation between signed articles");

    let mut batch = match step {
        // A second citation between an author pair the corpus already holds.
        0 => vec![article(last, citing.venue, vec![citing.authors[0]], vec![cited.id])],
        // Two contributions to a *new* pair inside one batch: one article
        // citing two papers by the same author.
        1 => {
            let by_author = corpus.articles_by_author();
            let (q, papers) = by_author
                .iter()
                .enumerate()
                .find(|(_, papers)| papers.len() >= 2)
                .expect("an author of two papers");
            let q = AuthorId(q as u32);
            let cites_q = |paper: &ArticleId| {
                corpus.article(*paper).references.iter().any(|r| papers.contains(r))
            };
            let p = corpus
                .authors()
                .iter()
                .map(|u| u.id)
                .find(|&p| p != q && !by_author[p.index()].iter().any(cites_q))
                .expect("an author who never cited q");
            vec![article(last, citing.venue, vec![p], vec![papers[0], papers[1]])]
        }
        // An unsigned article, and references to articles of the same
        // batch (one of them to the unsigned one).
        2 => vec![
            article(last, citing.venue, vec![], vec![cited.id]),
            article(last, cited.venue, vec![cited.authors[0]], vec![ArticleId(n), citing.id]),
            article(last, citing.venue, vec![citing.authors[0]], vec![ArticleId(n + 1)]),
        ],
        // An author citing themselves in their own venue: counted by the
        // author prior like any citation, dropped from the venue graph, kept
        // in the citation graph.
        3 => vec![article(last, cited.venue, vec![cited.authors[0]], vec![cited.id])],
        // A year that moves `now`, and with it every age and jump weight.
        4 => vec![article(last + 1, citing.venue, citing.authors.clone(), vec![cited.id])],
        // Nothing at all.
        _ => return Vec::new(),
    };
    let mut rng = SmallRng::seed_from_u64(0x9e0 + step as u64);
    for _ in 0..4 {
        let authors = (0..rng.gen_range(1usize..4))
            .map(|_| AuthorId(rng.gen_range(0..corpus.num_authors() as u32)))
            .collect();
        let references =
            (0..rng.gen_range(0usize..6)).map(|_| ArticleId(rng.gen_range(0..n))).collect();
        let venue = corpus.article(ArticleId(rng.gen_range(0..n))).venue;
        batch.push(article(last, venue, authors, references));
    }
    batch
}

/// The corpora the growth tests fold batches into.
fn growth_corpora() -> Vec<(&'static str, Corpus)> {
    vec![("tiny", Preset::Tiny.generate(19)), ("aan", Preset::AanLike.generate(19))]
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// FNV-1a over the bits of `v`, in order.
fn digest(v: &[f64]) -> u64 {
    let mut h = sgraph::sfile::Fnv::new();
    v.iter().for_each(|x| h.update(&x.to_bits().to_le_bytes()));
    h.finish()
}

/// The author prior is the only structural score the byline-weighted count
/// changed: the TWPR stationary and the venue walk's `sv` are the bits the
/// plan held when `su` was the stationary of a walk over the author
/// citation graph, pinned here by digest.
#[test]
fn the_author_prior_moves_neither_twpr_nor_sv() {
    let pinned = [
        ("tiny", Preset::Tiny.generate(1), 0xd41b_e76a_8958_ac4d, 0x84fb_8fef_aad6_f29f),
        ("aan", Preset::AanLike.generate(19), 0xd350_7b70_4826_365c, 0x2c7a_9404_445a_5213),
    ];
    for (name, corpus, twpr, sv) in pinned {
        let plan = QRankEngine::build(&corpus, &QRankConfig::default());
        assert_eq!(digest(plan.twpr().0), twpr, "{name}: twpr");
        assert_eq!(digest(plan.structural_stationaries().0), sv, "{name}: sv");
    }
}

/// Digests of what the citation graph's out side feeds: HITS authorities
/// and hubs, Monte-Carlo PageRank, the explainer's citer shares for every
/// 7th article, and the citation walk's dangling sets at the default ρ and
/// at ρ = 1e4 (where every citation older than a year weighs 0).
fn out_side_digests(corpus: &Corpus) -> [u64; 6] {
    use scholar::core::Explainer;
    use scholar::rank::{hits::hits_on_graph, MonteCarloPageRank, RankContext, Ranker};
    let ctx = RankContext::new(corpus);
    let hits = hits_on_graph(&ctx.citation_graph().graph, &Default::default());
    let mc = MonteCarloPageRank::default().rank(corpus);
    let cfg = QRankConfig::default();
    let plan = QRankEngine::build(corpus, &cfg);
    let result = plan.solve(&MixParams::from_config(&cfg));
    let explainer = Explainer::from_engine(corpus, &plan, &result);
    let mut shares = Vec::new();
    for i in (0..corpus.num_articles()).step_by(7) {
        for (citer, share) in explainer.explain(ArticleId(i as u32), 5, &cfg).top_citers {
            shares.extend([f64::from(citer.0), share]);
        }
    }
    let dangling = |g: &sgraph::CsrGraph| -> Vec<f64> {
        sgraph::RowStochastic::new(g).dangling().iter().map(|&u| f64::from(u)).collect()
    };
    [
        digest(&hits.authorities),
        digest(&hits.hubs),
        digest(&mc),
        digest(&shares),
        digest(&dangling(&ctx.decayed_citation(cfg.twpr.rho).graph)),
        digest(&dangling(&ctx.decayed_citation(1e4).graph)),
    ]
}

/// HITS's hub step, Monte-Carlo PageRank's sampler, the explainer's
/// out-sums and the walk's dangling set read the citation graph's out side
/// from its in-rows; each is pinned here by digest to the bits it had
/// when the graph also stored its out-rows.
#[test]
fn the_out_side_readers_keep_their_bits() {
    let pinned = [
        (
            "tiny",
            Preset::Tiny.generate(1),
            [
                0x7ee3_8bdf_0bb4_fff6,
                0xd224_d4d5_fb2a_0d43,
                0xc0a5_41c0_7f89_9229,
                0xe4d3_7494_8256_573e,
                0x2104_d09a_6261_a7e3,
                0x8306_722c_8c44_2218,
            ],
        ),
        (
            "aan",
            Preset::AanLike.generate(19),
            [
                0x3805_953c_d30a_8d18,
                0xd864_76e9_23f8_4789,
                0xefb3_78eb_7b7e_21b9,
                0x62cb_7261_3152_888d,
                0xfb35_4f59_cb7b_8568,
                0x1e38_3119_185d_6a66,
            ],
        ),
    ];
    let labels = [
        "hits authorities",
        "hits hubs",
        "mc pagerank",
        "citer shares",
        "dangling",
        "dangling, rho 1e4",
    ];
    for (name, corpus, want) in pinned {
        let got = out_side_digests(&corpus);
        for ((label, got), want) in labels.iter().zip(got).zip(want) {
            assert_eq!(got, want, "{name}: {label}");
        }
    }
}

#[test]
fn a_grown_ranker_scores_bit_identically_to_one_that_rebuilt() {
    for (name, corpus) in growth_corpora() {
        let cfg = QRankConfig::default();
        let mut live = IncrementalRanker::new(cfg.clone(), corpus);
        for step in 0..STEPS {
            // Restored from what a snapshot carries, the second ranker has
            // no plan to grow: its `extend` builds one from scratch.
            let mut rebuilt = IncrementalRanker::restore(
                cfg.clone(),
                live.corpus().clone(),
                live.result().clone(),
            );
            let grown = grow_corpus(live.corpus(), batch_for(&live, step));
            let stats = live.extend(grown.clone());
            assert_eq!(stats, rebuilt.extend(grown), "{name}, step {step}");
            let (a, b) = (live.result(), rebuilt.result());
            for (label, x, y) in [
                ("article", &a.article_scores, &b.article_scores),
                ("venue", &a.venue_scores, &b.venue_scores),
                ("author", &a.author_scores, &b.author_scores),
                ("twpr", &a.twpr_scores, &b.twpr_scores),
                ("inner residuals", &a.twpr_diagnostics.residuals, &b.twpr_diagnostics.residuals),
                ("outer residuals", &a.outer.residuals, &b.outer.residuals),
            ] {
                assert!(bits(x) == bits(y), "{name}, step {step}: {label} differ");
            }
        }
    }
}

#[test]
fn a_grown_plan_is_the_built_plan_structure_by_structure() {
    // `{:?}` prints an f64 as the shortest string that reads back to the
    // same bits, so equal debug text is equal structure, bit for bit.
    fn same<T: std::fmt::Debug>(patched: &T, built: &T) -> bool {
        format!("{patched:?}") == format!("{built:?}")
    }
    for (name, corpus) in growth_corpora() {
        let cfg = QRankConfig::default();
        let mut live = IncrementalRanker::new(cfg.clone(), corpus);
        for step in 0..STEPS {
            let old_now = live.engine().now();
            let grown = grow_corpus(live.corpus(), batch_for(&live, step));
            live.extend(grown);
            let (patched, built) = (live.engine(), QRankEngine::build(live.corpus(), &cfg));
            // The live plan has solved its inner walk: so does the built one,
            // and the cached walks are compared too.
            built.twpr();
            assert_eq!(patched.now() > old_now, step == 4, "{name}: only step 4 moves now");
            if same(patched, &built) {
                continue;
            }
            // Name the first structure that differs.
            let (p, b) = (patched.net(), built.net());
            let (p_stat, b_stat) =
                (patched.structural_stationaries(), built.structural_stationaries());
            let part = [
                ("citation graph", same(&p.citation, &b.citation)),
                ("venue graph", same(&p.venue_graph, &b.venue_graph)),
                ("authorship bipartite", same(&p.authorship, &b.authorship)),
                ("publication bipartite", same(&p.publication, &b.publication)),
                ("sv", bits(p_stat.0) == bits(b_stat.0)),
                ("su", bits(p_stat.1) == bits(b_stat.1)),
            ]
            .iter()
            .find(|(_, same)| !same)
            .map_or("jump vector, ages, partitions or now", |(part, _)| part);
            panic!("{name}, step {step}: the grown plan's {part} is not the built plan's");
        }
    }
}
