//! Integration of the production features on one corpus: cold-start
//! scoring, explanations, incremental re-ranking, and rank fusion working
//! together the way a deployed system would use them.

use scholar::core::{grow_corpus, Explainer, IncrementalRanker};
use scholar::corpus::model::Article;
use scholar::corpus::{snapshot_until, ArticleId, Preset};
use scholar::rank::fusion::{FusedRanker, FusionRule};
use scholar::rank::scores::top_k;
use scholar::{
    CitationCount, ColdStartScorer, MixParams, QRank, QRankConfig, QRankEngine, Ranker,
    TimeWeightedPageRank,
};

#[test]
fn cold_start_scores_align_with_eventual_reality() {
    // Freeze the world two years early; cold-score the articles that are
    // about to appear from their venue/byline alone; check the scores
    // correlate with the citations those articles eventually receive.
    // Needs an AAN-shaped corpus — on the tiny preset the future cohort is
    // ~100 articles with near-tied citation counts and the measurement is
    // pure noise.
    let full = scholar::corpus::CorpusGenerator::new(scholar::GeneratorConfig {
        initial_articles_per_year: 50.0,
        ..Preset::AanLike.config(42)
    })
    .generate();
    let (_, last) = full.year_range().unwrap();
    let snap = snapshot_until(&full, last - 2);
    let cfg = QRankConfig::default();
    let result = QRank::new(cfg.clone()).run(&snap.corpus);
    let scorer = ColdStartScorer::new(&result, cfg.lambda_venue, cfg.lambda_author);

    let final_counts = full.citation_counts();
    let mut preds = Vec::new();
    let mut actuals = Vec::new();
    for a in full.articles() {
        if a.year <= last - 2 || a.authors.is_empty() {
            continue;
        }
        // Authors that existed before the cutoff keep their ids (author
        // table is shared across snapshots).
        let known: Vec<_> =
            a.authors.iter().copied().filter(|u| u.index() < snap.corpus.num_authors()).collect();
        if known.is_empty() {
            continue;
        }
        preds.push(scorer.score(a.venue, &known));
        actuals.push(final_counts[a.id.index()] as f64);
    }
    assert!(preds.len() > 50, "need a meaningful future cohort, got {}", preds.len());
    let acc = scholar::eval::metrics::pairwise_accuracy(&actuals, &preds);
    assert!(
        acc > 0.55,
        "venue/author priors alone should beat chance at predicting the future cohort's citations, got {acc:.3}"
    );
}

#[test]
fn explanations_cover_the_whole_top_ten() {
    let corpus = Preset::Tiny.generate(82);
    let cfg = QRankConfig::default();
    let engine = QRankEngine::build(&corpus, &cfg);
    let result = engine.solve(&MixParams::from_config(&cfg));
    let explainer = Explainer::from_engine(&corpus, &engine, &result);
    for idx in top_k(&result.article_scores, 10) {
        let e = explainer.explain(ArticleId(idx as u32), 3, &cfg);
        let share_sum = e.citation_share + e.venue_share + e.author_share;
        assert!((share_sum - 1.0).abs() < 1e-9);
        assert!(e.top_citers.len() <= 3);
        let text = e.render(&corpus);
        assert!(text.contains("signal mix"));
    }
}

#[test]
fn incremental_pipeline_tracks_cold_recompute_through_growth() {
    let full = Preset::Tiny.generate(83);
    let (_, last) = full.year_range().unwrap();
    let base = snapshot_until(&full, last - 3);
    let mut index = IncrementalRanker::new(QRankConfig::default(), base.corpus.clone());

    let mut current = base;
    for year in (last - 2)..=last {
        let next = snapshot_until(&full, year);
        let batch: Vec<Article> = full
            .articles()
            .iter()
            .filter(|a| a.year == year)
            .map(|a| Article {
                id: ArticleId(0),
                title: a.title.clone(),
                year: a.year,
                venue: a.venue,
                authors: a.authors.clone(),
                references: a.references.iter().filter_map(|&r| current.to_snapshot(r)).collect(),
                merit: a.merit,
            })
            .collect();
        let grown = grow_corpus(index.corpus(), batch);
        index.extend(grown);
        current = next;
    }

    // After all updates the incremental index must match a from-scratch
    // run on the final snapshot.
    let cold = QRank::default().run(index.corpus());
    let l1: f64 = index
        .result()
        .article_scores
        .iter()
        .zip(&cold.article_scores)
        .map(|(a, b)| (a - b).abs())
        .sum();
    assert!(l1 < 1e-6, "incremental drifted from cold recompute by {l1}");
}

#[test]
fn fusion_is_at_least_as_stable_as_its_parts() {
    // Rank-fused output under citation subsampling should not be less
    // stable than its most fragile component.
    let corpus = Preset::Tiny.generate(84);
    let sparse = scholar::corpus::perturb::sample_citations(&corpus, 0.5, 7);

    let stability = |ranker: &dyn Ranker| {
        let full = ranker.rank(&corpus);
        let thin = ranker.rank(&sparse);
        scholar::eval::metrics::kendall_tau_b(&full, &thin)
    };

    let fused = FusedRanker::new(
        vec![Box::new(CitationCount), Box::new(TimeWeightedPageRank::default())],
        FusionRule::default(),
    );
    let s_fused = stability(&fused);
    let s_cc = stability(&CitationCount);
    let s_twpr = stability(&TimeWeightedPageRank::default());
    let worst = s_cc.min(s_twpr);
    assert!(
        s_fused > worst - 0.05,
        "fusion stability {s_fused:.3} fell below its weakest part {worst:.3}"
    );
}

#[test]
fn rbo_confirms_method_families() {
    // RBO over the top of the ranking should group time-aware methods
    // together and away from plain PageRank.
    let corpus = Preset::Tiny.generate(85);
    let twpr = TimeWeightedPageRank::default().rank(&corpus);
    let qrank = QRank::default().rank(&corpus);
    let pagerank = scholar::PageRank::default().rank(&corpus);
    let within_family = scholar::eval::metrics::rbo(&twpr, &qrank, 0.9, 100);
    let across = scholar::eval::metrics::rbo(&pagerank, &qrank, 0.9, 100);
    assert!(
        within_family > across,
        "TWPR↔QRank head agreement ({within_family:.3}) should exceed PageRank↔QRank ({across:.3})"
    );
}
