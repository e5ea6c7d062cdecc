//! Trait-level conformance suite: every registered ranker must honor the
//! [`Ranker`] contract on generated corpora — finite non-negative scores,
//! one per article, summing to 1 — and the context path must agree with
//! the plain-corpus path bit-for-bit (within 1e-12 L1).

use scholar::rank::{
    AgeNormalizedCitations, FusedRanker, FusionRule, MonteCarloPageRank, RankContext,
    RecentCitations, RescaledRanker,
};
use scholar::{CitationCount, Corpus, PageRank, Preset, Ranker};
use sgraph::stochastic::l1_distance;

/// Every ranker exposed by the stack: the R-Table evaluation suite plus
/// the auxiliary/bibliometric rankers and the two combinators.
fn registered_rankers() -> Vec<Box<dyn Ranker>> {
    let mut rankers = scholar::evaluation_rankers();
    rankers.push(Box::new(MonteCarloPageRank::default()));
    rankers.push(Box::new(AgeNormalizedCitations::default()));
    rankers.push(Box::new(RecentCitations::default()));
    rankers.push(Box::new(RescaledRanker::new(Box::new(PageRank::default()), 5)));
    rankers.push(Box::new(FusedRanker::new(
        vec![Box::new(CitationCount), Box::new(PageRank::default())],
        FusionRule::ReciprocalRank { k: 60.0 },
    )));
    rankers
}

fn assert_distribution(name: &str, corpus: &Corpus, scores: &[f64]) {
    assert_eq!(
        scores.len(),
        corpus.num_articles(),
        "{name}: one score per article ({} vs {})",
        scores.len(),
        corpus.num_articles()
    );
    for (i, &s) in scores.iter().enumerate() {
        assert!(s.is_finite(), "{name}: score[{i}] = {s} is not finite");
        assert!(s >= 0.0, "{name}: score[{i}] = {s} is negative");
    }
    let sum: f64 = scores.iter().sum();
    assert!((sum - 1.0).abs() <= 1e-9, "{name}: scores sum to {sum}, want 1 ± 1e-9");
}

fn check_preset(preset: Preset, seed: u64) {
    let corpus = preset.generate(seed);
    let ctx = RankContext::new(&corpus);
    for ranker in registered_rankers() {
        let name = ranker.name();
        let out = ranker.solve_ctx(&ctx);
        assert_distribution(&name, &corpus, &out.scores);
        let t = &out.telemetry;
        assert!(t.build_secs >= 0.0 && t.solve_secs >= 0.0, "{name}: negative wall time");
        assert!(
            t.residuals.iter().all(|r| r.is_finite()),
            "{name}: non-finite residual in telemetry"
        );
    }
}

#[test]
fn every_ranker_emits_a_distribution_on_tiny() {
    for seed in [1, 7] {
        check_preset(Preset::Tiny, seed);
    }
}

#[test]
fn rank_ctx_matches_rank() {
    let corpus = Preset::Tiny.generate(3);
    let ctx = RankContext::new(&corpus);
    for ranker in registered_rankers() {
        let name = ranker.name();
        let via_ctx = ranker.rank_ctx(&ctx);
        let via_corpus = ranker.rank(&corpus);
        let drift = l1_distance(&via_ctx, &via_corpus);
        assert!(drift <= 1e-12, "{name}: rank vs rank_ctx drift {drift:.3e} > 1e-12");
    }
}

#[test]
fn repeated_solves_on_one_context_are_bitwise_stable() {
    let corpus = Preset::Tiny.generate(4);
    let ctx = RankContext::new(&corpus);
    for ranker in registered_rankers() {
        let first = ranker.rank_ctx(&ctx);
        let second = ranker.rank_ctx(&ctx);
        assert_eq!(first, second, "{}: repeat solve on one context drifted", ranker.name());
    }
}

#[test]
fn full_suite_builds_the_citation_graph_exactly_once() {
    let corpus = Preset::Tiny.generate(5);
    assert_eq!(corpus.citation_graph_builds(), 0);
    let ctx = RankContext::new(&corpus);
    for ranker in registered_rankers() {
        let _ = ranker.rank_ctx(&ctx);
    }
    assert_eq!(
        corpus.citation_graph_builds(),
        1,
        "a shared-context suite must derive the citation CSR exactly once"
    );
}

/// The larger presets take minutes in debug builds; run explicitly with
/// `cargo test --release -- --ignored` for full-preset coverage.
#[test]
#[ignore = "large presets; run in release builds"]
fn every_ranker_emits_a_distribution_on_large_presets() {
    for preset in [Preset::AanLike, Preset::DblpLike, Preset::MagLike] {
        check_preset(preset, 11);
    }
}

/// Top-k under total order (score desc, id asc) — ties included, so two
/// backends only agree if every tied score is bit-identical too.
fn full_order(scores: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap().then(a.cmp(&b)));
    idx
}

/// Backend equivalence: every registered ranker over the same corpus via
/// the in-RAM and mmap (colstore) backends must produce ≤ 1e-12 L1
/// drift, the identical full ranking order (ties resolved by the same
/// deterministic rule on both sides), and identical solver iteration
/// counts — the out-of-core path is a storage change, not an algorithm
/// change.
#[test]
fn mmap_backend_is_score_identical_to_ram() {
    for seed in [3, 12] {
        let corpus = Preset::Tiny.generate(seed);
        let dir =
            std::env::temp_dir().join(format!("scholar-conformance-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        corpus.write_colstore(&dir).unwrap();
        let store = scholar::corpus::colstore::ColStore::open(&dir).unwrap();

        let ram = RankContext::new(&corpus);
        let mmap = RankContext::from_colstore(&store);
        for ranker in registered_rankers() {
            let name = ranker.name();
            let a = ranker.solve_ctx(&ram);
            let b = ranker.solve_ctx(&mmap);
            assert_distribution(&name, &corpus, &b.scores);
            let drift = l1_distance(&a.scores, &b.scores);
            assert!(drift <= 1e-12, "{name}: backend drift {drift:.3e} > 1e-12 (seed {seed})");
            assert_eq!(
                full_order(&a.scores),
                full_order(&b.scores),
                "{name}: backends disagree on ranking order (seed {seed})"
            );
            assert_eq!(
                a.telemetry.iterations, b.telemetry.iterations,
                "{name}: backends took different iteration counts (seed {seed})"
            );
            assert_eq!(
                a.telemetry.converged, b.telemetry.converged,
                "{name}: backends disagree on convergence (seed {seed})"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// However a QRank plan comes to be — straight off either view of the
/// corpus, or through a context over either — it solves to the same bits
/// in all four score vectors (the venue/author stationaries feed the
/// mixture, the inner walk's feeds warm starts).
#[test]
fn qrank_engine_matches_across_backends() {
    let corpus = Preset::Tiny.generate(21);
    let dir =
        std::env::temp_dir().join(format!("scholar-conformance-qrank-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    corpus.write_colstore(&dir).unwrap();
    let store = scholar::corpus::colstore::ColStore::open(&dir).unwrap();

    let cfg = scholar::QRankConfig::default();
    let mix = scholar::MixParams::from_config(&cfg);
    let plans = [
        ("build(&colstore)", scholar::QRankEngine::build(&store, &cfg)),
        ("build_from_ctx(ram)", {
            scholar::QRankEngine::build_from_ctx(&RankContext::new(&corpus), &cfg)
        }),
        ("build_from_ctx(mmap)", {
            scholar::QRankEngine::build_from_ctx(&RankContext::from_colstore(&store), &cfg)
        }),
    ];
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let want = scholar::QRankEngine::build(&corpus, &cfg).solve(&mix);
    for (how, plan) in plans {
        let got = plan.solve(&mix);
        assert_eq!(bits(&got.article_scores), bits(&want.article_scores), "{how}: article");
        assert_eq!(bits(&got.venue_scores), bits(&want.venue_scores), "{how}: venue");
        assert_eq!(bits(&got.author_scores), bits(&want.author_scores), "{how}: author");
        assert_eq!(bits(&got.twpr_scores), bits(&want.twpr_scores), "{how}: twpr");
        assert_eq!(got.outer.iterations, want.outer.iterations, "{how}");
        assert_eq!(got.twpr_diagnostics.iterations, want.twpr_diagnostics.iterations, "{how}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// TWPR on the mmap backend solves through the *partitioned* shard file
/// (not a dense operator rebuilt in RAM); the shard cache must appear in
/// the store directory and a second context must reuse it.
#[test]
fn mmap_twpr_materializes_and_reuses_the_shard_cache() {
    let corpus = Preset::Tiny.generate(33);
    let dir = std::env::temp_dir().join(format!("scholar-conformance-scsr-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    corpus.write_colstore(&dir).unwrap();
    let store = scholar::corpus::colstore::ColStore::open(&dir).unwrap();

    let ranker = scholar::TimeWeightedPageRank::default();
    let baseline = ranker.rank(&corpus);
    let first = ranker.solve_ctx(&RankContext::from_colstore(&store));
    let shards: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "scsr"))
        .collect();
    assert_eq!(shards.len(), 1, "TWPR over mmap must leave one shard cache file");
    assert!(l1_distance(&baseline, &first.scores) <= 1e-12);

    // A fresh context reopens the cached shard file instead of rebuilding.
    let mtime = shards[0].metadata().unwrap().modified().unwrap();
    let again = ranker.solve_ctx(&RankContext::from_colstore(&store));
    assert_eq!(first.scores, again.scores);
    assert_eq!(
        shards[0].metadata().unwrap().modified().unwrap(),
        mtime,
        "second solve must reuse the shard cache, not rewrite it"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
