//! Trait-level conformance suite: every registered ranker must honor the
//! [`Ranker`] contract on generated corpora — finite non-negative scores,
//! one per article, summing to 1 — and the context path must agree with
//! the plain-corpus path bit-for-bit (within 1e-12 L1).

use scholar::core::{grow_corpus, IncrementalRanker};
use scholar::corpus::model::{Article, ArticleId, AuthorId};
use scholar::corpus::CorpusBuilder;
use scholar::rank::{
    fuse_scores, personalized_pagerank, rescale_by_years, AgeNormalizedCitations, CiteRankConfig,
    DecayedPlan, FusedRanker, FusionRule, FutureRankConfig, Hits, HitsConfig, MonteCarloPageRank,
    PRankConfig, PageRankConfig, PersonalizedConfig, RankContext, RankOutput, RecentCitations,
    RescaledRanker, TwprConfig,
};
use scholar::{
    CitationCount, CiteRank, ColStore, Corpus, FutureRank, MixParams, PRank, PageRank, Preset,
    QRank, QRankConfig, QRankEngine, QRankResult, Ranker, Rows, TimeWeightedPageRank,
};
use sgraph::stochastic::{
    fixpoint, l1_distance, normalize_l1, PowerIterationOpts, PowerIterationResult,
};
use sgraph::JumpVector;

mod oracle;

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
    let ctx = RankContext::new(&corpus);
    let unit = ctx.citation_graph();
    for ranker in registered_rankers() {
        let _ = ranker.rank_ctx(&ctx);
    }
    assert!(
        std::sync::Arc::ptr_eq(&unit, &ctx.citation_graph()),
        "a shared-context suite must derive the citation CSR exactly once"
    );
    assert!(
        std::sync::Arc::ptr_eq(&unit, &ctx.decayed_citation(0.0)),
        "the unit citation CSR is the ρ = 0 decayed graph"
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
        let (dir, store) = colstore_of(&corpus, &format!("seed{seed}"));

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
/// corpus, or inside `QRank::solve_ctx` over a context on either — it
/// solves to the same bits (the plan in all four score vectors: the
/// venue/author stationaries feed the mixture, and the inner walk's is
/// published with every snapshot).
#[test]
fn qrank_engine_matches_across_backends() {
    let corpus = Preset::Tiny.generate(21);
    let (dir, store) = colstore_of(&corpus, "qrank");

    let cfg = scholar::QRankConfig::default();
    let mix = scholar::MixParams::from_config(&cfg);
    let want = scholar::QRankEngine::build(&corpus, &cfg).solve(&mix);
    let got = scholar::QRankEngine::build(&store, &cfg).solve(&mix);
    let how = "build(&colstore)";
    assert_eq!(bits(&got.article_scores), bits(&want.article_scores), "{how}: article");
    assert_eq!(bits(&got.venue_scores), bits(&want.venue_scores), "{how}: venue");
    assert_eq!(bits(&got.author_scores), bits(&want.author_scores), "{how}: author");
    assert_eq!(bits(&got.twpr_scores), bits(&want.twpr_scores), "{how}: twpr");
    assert_eq!(got.outer.iterations, want.outer.iterations, "{how}");
    assert_eq!(got.twpr_diagnostics.iterations, want.twpr_diagnostics.iterations, "{how}");

    let contexts = [
        ("solve_ctx(ram)", RankContext::new(&corpus)),
        ("solve_ctx(colstore)", RankContext::from_colstore(&store)),
    ];
    for (how, ctx) in contexts {
        let got = QRank::new(cfg.clone()).solve_ctx(&ctx);
        assert_eq!(bits(&got.scores), bits(&want.article_scores), "{how}: article");
        let iterations = want.outer.iterations + want.twpr_diagnostics.iterations;
        assert_eq!(got.telemetry.iterations, iterations, "{how}: inner + outer iterations");
        assert_eq!(got.telemetry.residuals, want.outer.residuals, "{how}: outer residuals");
        assert!(got.telemetry.converged, "{how}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// QRank's inner walk is the standalone TWPR solve under the same
/// config, bit for bit, whichever way TWPR walks: over the dense decayed
/// graph of a RAM context, or sweeping the SCSR shard file of a colstore
/// context while QRank builds its dense graph from the store's rows.
#[test]
fn qrank_inner_walk_is_the_standalone_twpr_solve() {
    let (dir, store, corpus) = mag_scale_5k("inner", 36);
    let qrank = QRank::default().run(&corpus);
    assert!(qrank.twpr_diagnostics.converged);

    let contexts =
        [("ram", RankContext::new(&corpus)), ("colstore", RankContext::from_colstore(&store))];
    for (backend, ctx) in contexts {
        if backend == "colstore" {
            assert_sharded(&ctx, TwprConfig::default().rho);
        }
        let twpr = TimeWeightedPageRank::default().solve_ctx(&ctx);
        assert_eq!(bits(&qrank.twpr_scores), bits(&twpr.scores), "{backend}: scores");
        assert_eq!(
            qrank.twpr_diagnostics.iterations, twpr.telemetry.iterations,
            "{backend}: iterations"
        );
        assert_eq!(qrank.twpr_diagnostics.residuals, twpr.telemetry.residuals, "{backend}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An empty temp dir of this process named for `tag` (every
/// non-alphanumeric becomes `-`).
fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let tag = tag.replace(|c: char| !c.is_ascii_alphanumeric(), "-");
    let dir =
        std::env::temp_dir().join(format!("scholar-conformance-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `corpus` written as a colstore in [`fresh_dir`]`(tag)`, and opened.
fn colstore_of(corpus: &Corpus, tag: &str) -> (std::path::PathBuf, ColStore) {
    let dir = fresh_dir(tag);
    corpus.write_colstore(&dir).unwrap();
    let store = ColStore::open(&dir).unwrap();
    (dir, store)
}

/// A 5,000-article MAG-scale colstore (more than one shard at
/// `decayed_plan`'s shard size) in [`fresh_dir`]`(tag)`, opened, and the
/// same corpus materialized in RAM.
fn mag_scale_5k(tag: &str, seed: u64) -> (std::path::PathBuf, ColStore, Corpus) {
    let dir = fresh_dir(tag);
    scholar::corpus::generator::generate_mag_scale(&dir, 5000, seed).unwrap();
    let store = ColStore::open(&dir).unwrap();
    let corpus = store.materialize().unwrap();
    (dir, store, corpus)
}

/// Panics unless `ctx` plans decay rate `rho` as a multi-shard file.
fn assert_sharded(ctx: &RankContext, rho: f64) {
    match ctx.decayed_plan(rho) {
        DecayedPlan::Partitioned(csr) => assert!(csr.num_shards() > 1, "one shard"),
        DecayedPlan::Dense(_) => panic!("a colstore context must plan a shard file"),
    }
}

/// `got` is the solve `want` is: the same score bits, residuals and
/// iteration count.
fn assert_same_solve(label: &str, got: &RankOutput, want: &RankOutput) {
    assert_eq!(bits(&got.scores), bits(&want.scores), "{label}: scores");
    assert_eq!(got.telemetry.residuals, want.telemetry.residuals, "{label}: residuals");
    assert_eq!(got.telemetry.iterations, want.telemetry.iterations, "{label}: iterations");
}

/// TWPR on the mmap backend solves through the *partitioned* shard file
/// (not a dense operator rebuilt in RAM); the shard cache must appear in
/// the store directory and a second context must reuse it.
#[test]
fn mmap_twpr_materializes_and_reuses_the_shard_cache() {
    let corpus = Preset::Tiny.generate(33);
    let (dir, store) = colstore_of(&corpus, "scsr");

    let ranker = scholar::TimeWeightedPageRank::default();
    let baseline = ranker.rank(&corpus);
    let first = ranker.solve_ctx(&RankContext::from_colstore(&store));
    let shards: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "scsr"))
        .collect();
    assert_eq!(shards.len(), 1, "TWPR over mmap must leave one shard cache file");
    assert!(first.telemetry.converged, "TWPR over the mmap shards must converge");
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

/// The shard sweep runs on `pagerank.threads` workers. At any count,
/// TWPR over a multi-shard colstore is the RAM backend's sequential solve:
/// the same score bits, residuals and iterations.
#[test]
fn mmap_twpr_is_the_sequential_ram_solve_at_every_thread_count() {
    let (dir, store, corpus) = mag_scale_5k("par", 35);
    let twpr = |threads| {
        TimeWeightedPageRank::new(TwprConfig {
            pagerank: PageRankConfig { threads, ..PageRankConfig::default() },
            ..TwprConfig::default()
        })
    };
    let ram = twpr(1).solve_ctx(&RankContext::new(&corpus));
    for threads in [1, 2, 8] {
        let ctx = RankContext::from_colstore(&store);
        assert_sharded(&ctx, twpr(threads).config.rho);
        assert_same_solve(&format!("{threads} threads"), &twpr(threads).solve_ctx(&ctx), &ram);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// PageRank, CiteRank and personalized PageRank are the citation walk at
/// ρ = 0: on a colstore context each sweeps the unit-weight shard file,
/// and each is the RAM context's dense walk, bit for bit.
#[test]
fn rho_zero_walks_are_the_ram_solve_on_a_colstore_context() {
    let (dir, store, corpus) = mag_scale_5k("rho0", 37);
    let (ram, mmap) = (RankContext::new(&corpus), RankContext::from_colstore(&store));
    assert_sharded(&mmap, 0.0);
    let rankers: [Box<dyn Ranker>; 2] =
        [Box::new(PageRank::default()), Box::new(CiteRank::default())];
    for ranker in rankers {
        let want = ranker.solve_ctx(&ram);
        assert!(want.telemetry.converged, "{}", ranker.name());
        assert_same_solve(&ranker.name(), &ranker.solve_ctx(&mmap), &want);
    }
    let seeds = [ArticleId(7), ArticleId(2500), ArticleId(4999)];
    let cfg = PersonalizedConfig::default();
    let want = personalized_pagerank(&ram, &seeds, &cfg);
    assert!(want.telemetry.converged);
    assert_same_solve("personalized", &personalized_pagerank(&mmap, &seeds, &cfg), &want);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A shard file from a build that wrote SCSRv1 (`w / out_sum` per edge),
/// SCSRv2 (an `f64` weight per edge) or SCSRv3 (sources coded through a
/// per-shard boundary list) sits at the path `decayed_plan` caches under:
/// it is refused, rebuilt in place as SCSRv4, and never walked.
#[test]
fn a_version_1_shard_cache_is_refused_and_rebuilt() {
    let corpus = Preset::Tiny.generate(34);
    let (dir, store) = colstore_of(&corpus, "v1");

    let ranker = TimeWeightedPageRank::default();
    let fresh = ranker.solve_ctx(&RankContext::from_colstore(&store));
    let shard = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "scsr"))
        .expect("the solve leaves a shard cache");
    for old in [b"SCSRv1\0\0", b"SCSRv2\0\0", b"SCSRv3\0\0"] {
        let mut bytes = std::fs::read(&shard).unwrap();
        bytes[..8].copy_from_slice(old);
        std::fs::write(&shard, &bytes).unwrap();

        let again = ranker.solve_ctx(&RankContext::from_colstore(&store));
        assert_eq!(bits(&again.scores), bits(&fresh.scores));
        assert_eq!(&std::fs::read(&shard).unwrap()[..8], b"SCSRv4\0\0", "rebuilt in place");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Two solves that share one colstore context and start together get one
/// shard build between them, and the same score bits. Each used to build
/// the file itself under the same spill and tmp names, and one's cleanup
/// deleted the other's files mid-build.
#[test]
fn concurrent_solves_on_one_colstore_context_build_the_shard_file_once() {
    let dir = fresh_dir("race");
    scholar::corpus::generator::generate_mag_scale(&dir, 20_000, 36).unwrap();
    let store = ColStore::open(&dir).unwrap();
    let ctx = RankContext::from_colstore(&store);
    let start = std::sync::Barrier::new(2);
    let solve = || {
        start.wait();
        TimeWeightedPageRank::default().solve_ctx(&ctx)
    };
    let (a, b) = std::thread::scope(|s| {
        let (a, b) = (s.spawn(solve), s.spawn(solve));
        (a.join().expect("first solve"), b.join().expect("second solve"))
    });
    assert_eq!(bits(&a.scores), bits(&b.scores));
    let left: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().is_some_and(|f| f.to_string_lossy().starts_with("csr-")))
        .collect();
    assert_eq!(left.len(), 1, "one shard file and no spill or tmp file: {left:?}");
    assert_eq!(left[0].extension().unwrap(), "scsr");
    std::fs::remove_dir_all(&dir).unwrap();
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `got` orders every pair as `want` (an oracle's) does, pairs within
/// 1e-12 relative of each other in `want` aside.
fn assert_same_order(label: &str, got: &[f64], want: &[f64]) {
    for pair in full_order(got).windows(2) {
        let (hi, lo) = (pair[0], pair[1]);
        assert!(
            want[lo] <= want[hi] * (1.0 + 1e-12),
            "{label}: ranks {hi} over {lo}, the oracle has {:e} < {:e}",
            want[hi],
            want[lo]
        );
    }
}

/// Hand-built corpora at the numerical edges of the walks.
/// `spec` lists articles as `(year, byline, references)`; every author
/// named exists, plus `spare_authors` nobody signs for.
fn edge_corpus(spare_authors: u32, spec: &[(i32, &[u32], &[u32])]) -> Corpus {
    let mut b = CorpusBuilder::new();
    let venues = [b.venue("V0"), b.venue("V1")];
    let named = spec.iter().flat_map(|(_, byline, _)| byline.iter()).max().map_or(0, |m| m + 1);
    let authors: Vec<AuthorId> =
        (0..named + spare_authors).map(|u| b.author(&format!("U{u}"))).collect();
    for (i, (year, byline, refs)) in spec.iter().enumerate() {
        b.add_article(
            &format!("a{i}"),
            *year,
            venues[i % 2],
            byline.iter().map(|&u| authors[u as usize]).collect(),
            refs.iter().map(|&r| ArticleId(r)).collect(),
            None,
        );
    }
    b.finish().unwrap()
}

// ---- The numerical edge battery ----
//
// One set of hand-built corpora at the numerical edges of every walk in
// the stack, run by the distribution contract below — every registered
// ranker, QRank's four score vectors and both structural priors, plus the
// rankers' own settings at their edges, on both `Rows` backends — and by
// the author-prior oracle after it.

/// The battery's corpora.
fn edge_cases() -> Vec<(&'static str, Corpus)> {
    vec![
        ("empty corpus", edge_corpus(0, &[])),
        ("one article", edge_corpus(0, &[(2000, &[0], &[])])),
        ("authors but no articles", edge_corpus(3, &[])),
        // Nobody cites anybody: every article, author and venue dangles.
        ("every node dangling", edge_corpus(1, &[(1999, &[0, 1], &[]), (2003, &[2], &[])])),
        // a0 unsigned and cited; a2 unsigned and citing; a3 cites both.
        (
            "unsigned citing and unsigned cited",
            edge_corpus(
                0,
                &[
                    (1990, &[], &[]),
                    (1994, &[0], &[0]),
                    (1997, &[], &[0, 1]),
                    (2001, &[1, 0], &[0, 2]),
                ],
            ),
        ),
        // u0 only ever cites u0's solo papers; u1 cites u0.
        (
            "solo self-citer",
            edge_corpus(
                0,
                &[(1990, &[0], &[]), (1995, &[0], &[0]), (2000, &[0], &[0, 1]), (2002, &[1], &[1])],
            ),
        ),
        // u0 is cited by u0 alone (twice, at different ages) but also cites
        // u1: not dangling, and everything it gathers it must subtract.
        (
            "mass only from oneself",
            edge_corpus(
                0,
                &[
                    (1990, &[0], &[]),
                    (1991, &[1], &[]),
                    (1996, &[0, 2], &[0, 1]),
                    (2003, &[0], &[0, 1, 2]),
                ],
            ),
        ),
        // The bipartite merges u0's two positions on a1 and on a2.
        (
            "one author named twice",
            edge_corpus(
                0,
                &[
                    (1990, &[1], &[]),
                    (1995, &[0, 0], &[0]),
                    (1999, &[0, 1, 0], &[0, 1]),
                    (2002, &[1, 2], &[1, 2]),
                ],
            ),
        ),
        // Authors exist but sign nothing: every authorship term is
        // massless, so a walk that leans on it alone has nothing to walk.
        (
            "every article unsigned",
            edge_corpus(2, &[(1990, &[], &[]), (1995, &[], &[0]), (2001, &[], &[0, 1])]),
        ),
        // Same-year citations beside older ones: under ρ = 1e4 only the
        // same-year ones keep weight, every other edge weighs exactly 0.
        (
            "same-year and older citations",
            edge_corpus(
                0,
                &[
                    (2000, &[0], &[]),
                    (2000, &[1], &[0]),
                    (2001, &[2, 0], &[0, 1]),
                    (2001, &[1], &[2]),
                ],
            ),
        ),
    ]
}

/// The battery's parameter points: the defaults, ρ so large that `exp(−ρ·Δt)` underflows to 0 for every Δt ≥ 1, ρ that
/// leaves every Δt = 1 citation a subnormal weight (`x / out_sum` would
/// overflow), and two `(τ, now)` pairs under which `exp(−τ·age)`
/// underflows for every article — `last` is the corpus's last year.
fn edge_points(last: i32) -> Vec<(String, QRankConfig)> {
    let base = QRankConfig::default();
    let at = |tau: f64, now: i32| {
        let mut cfg = base.clone().with_tau(tau);
        cfg.twpr.now = Some(now);
        cfg
    };
    vec![
        ("defaults".into(), base.clone()),
        ("rho=1e4".into(), base.clone().with_rho(1e4)),
        ("rho=720".into(), base.clone().with_rho(720.0)),
        ("tau=1e4, now=last+1".into(), at(1e4, last + 1)),
        ("tau=0.1, now=last+8000".into(), at(0.1, last + 8000)),
    ]
}

/// Every registered ranker, plus the rankers with a decay rate, a recency
/// rate or a `now` configured at `cfg`'s.
fn rankers_at(cfg: &QRankConfig) -> Vec<Box<dyn Ranker>> {
    let twpr = &cfg.twpr;
    let mut rankers = registered_rankers();
    rankers.push(Box::new(TimeWeightedPageRank::new(twpr.clone())));
    rankers.push(Box::new(QRank::new(cfg.clone())));
    rankers.push(Box::new(CiteRank::new(CiteRankConfig {
        tau_dir: 1.0 / twpr.tau,
        now: twpr.now,
        ..CiteRankConfig::default()
    })));
    rankers.push(Box::new(FutureRank::new(FutureRankConfig {
        rho: twpr.tau,
        now: twpr.now,
        ..FutureRankConfig::default()
    })));
    rankers
}

/// The rankers' own settings at their edges, beside the shared
/// `QRankConfig` points above: one HITS round and a tolerance no round
/// can meet, P-Rank with each layer alone, CiteRank with no reference
/// following and a start distribution that is all-recent or all-equal,
/// and FutureRank with each term alone and with none (pure teleport).
fn ranker_points() -> Vec<Box<dyn Ranker>> {
    let hits = |max_iter, tol| Box::new(Hits::new(HitsConfig { tol, max_iter })) as Box<dyn Ranker>;
    let prank = |lambda_cite, lambda_author, lambda_venue| {
        Box::new(PRank::new(PRankConfig {
            lambda_cite,
            lambda_author,
            lambda_venue,
            ..PRankConfig::default()
        })) as Box<dyn Ranker>
    };
    let citerank = |alpha, tau_dir| {
        Box::new(CiteRank::new(CiteRankConfig { alpha, tau_dir, ..CiteRankConfig::default() }))
            as Box<dyn Ranker>
    };
    let futurerank = |alpha, beta, gamma| {
        Box::new(FutureRank::new(FutureRankConfig {
            alpha,
            beta,
            gamma,
            ..FutureRankConfig::default()
        })) as Box<dyn Ranker>
    };
    vec![
        hits(1, HitsConfig::default().tol),
        hits(HitsConfig::default().max_iter, 0.0),
        prank(1.0, 0.0, 0.0),
        prank(0.0, 1.0, 0.0),
        prank(0.0, 0.0, 1.0),
        citerank(0.0, CiteRankConfig::default().tau_dir),
        citerank(CiteRankConfig::default().alpha, 1e-300),
        citerank(CiteRankConfig::default().alpha, 1e300),
        futurerank(1.0, 0.0, 0.0),
        futurerank(0.0, 1.0, 0.0),
        futurerank(0.0, 0.0, 1.0),
        futurerank(0.0, 0.0, 0.0),
    ]
}

/// The battery's contract for one score vector: finite, non-negative and
/// summing to 1 — or, with nothing to score, the documented empty result
/// (no entries, or all zeros when `zeros_ok`).
fn assert_edge_scores(label: &str, scores: &[f64], zeros_ok: bool) {
    assert!(scores.iter().all(|s| s.is_finite() && *s >= 0.0), "{label}: {scores:?}");
    let sum: f64 = scores.iter().sum();
    let empty = scores.is_empty() || (zeros_ok && sum == 0.0);
    assert!(empty || (sum - 1.0).abs() <= 1e-9, "{label}: scores sum to {sum}");
}

/// The battery's contract over one view of `corpus`.
fn assert_edges_on<V: Rows + ?Sized>(label: &str, view: &V, ctx: &RankContext, cfg: &QRankConfig) {
    let n = view.num_articles();
    for ranker in rankers_at(cfg) {
        let name = format!("{label}: {}", ranker.name());
        let out = ranker.solve_ctx(ctx);
        assert_eq!(out.scores.len(), n, "{name}: one score per article");
        assert_edge_scores(&name, &out.scores, false);
    }
    let plan = QRankEngine::build(view, cfg);
    let (sv, su) = plan.structural_stationaries();
    assert_edge_scores(&format!("{label}: venue walk"), sv, false);
    assert_edge_scores(&format!("{label}: author prior"), su, false);
    let res = plan.solve(&MixParams::from_config(cfg));
    for (what, scores) in [
        ("article", &res.article_scores),
        ("venue", &res.venue_scores),
        ("author", &res.author_scores),
        ("twpr", &res.twpr_scores),
    ] {
        assert_edge_scores(&format!("{label}: QRank {what}"), scores, n == 0);
    }
}

#[test]
fn every_walk_survives_the_numerical_edges() {
    for (name, corpus) in edge_cases() {
        let (dir, store) = colstore_of(&corpus, &format!("edges-{name}"));
        let last = corpus.year_range().map_or(2000, |(_, last)| last);
        for (point, cfg) in edge_points(last) {
            let label = format!("{name}, {point}");
            assert_edges_on(&label, &corpus, &RankContext::new(&corpus), &cfg);
            let mmap = RankContext::from_colstore(&store);
            assert_edges_on(&format!("{label} (colstore)"), &store, &mmap, &cfg);
        }
        let (ram, mmap) = (RankContext::new(&corpus), RankContext::from_colstore(&store));
        for ranker in ranker_points() {
            for (backend, ctx) in [("corpus", &ram), ("colstore", &mmap)] {
                let label = format!("{name}, {} ({backend})", ranker.name());
                let out = ranker.solve_ctx(ctx);
                assert_eq!(
                    out.scores.len(),
                    corpus.num_articles(),
                    "{label}: one score per article"
                );
                assert_edge_scores(&label, &out.scores, false);
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

// ---- The reverse sweep against the power iteration's floor ----
//
// Every citation walk is solved by `sgraph::reverse_sweep`; the power
// iteration run to its floor is its oracle. On every corpus of the edge
// battery, plus one whose citations break the chronological order every
// way a real crawl does, the sweep lands ≤ 1e-12 L1 from the floor, and
// the colstore's shard file sweeps to the RAM graph's bits and passes at
// any thread count.

/// Citations against publication order: a same-year pair citing each
/// other (a cycle, and a forward reference from a1 to a2), an article
/// citing one published seven years after it and stored after it (a
/// time-travel forward reference), and a time-travel citation stored
/// after what it cites.
fn back_edge_corpus() -> Corpus {
    edge_corpus(
        0,
        &[
            (2000, &[0], &[]),
            (2000, &[1], &[2, 0]),
            (2000, &[0, 1], &[1]),
            (1998, &[2], &[4]),
            (2005, &[1], &[0, 3]),
            (2003, &[0], &[4, 2]),
        ],
    )
}

/// The row on one corpus, given a context on each backend and its last
/// year: at PageRank's, TWPR's and an underflowing decay, the sweep run to
/// the floor is ≤ 1e-12 from the power iteration's floor by `distance`, and
/// every backend × thread count sweeps to the same bits, residuals and
/// passes. Returns the most iterations a point took.
fn assert_sweeps_to_the_floor(
    label: &str,
    ram: &RankContext,
    mmap: &RankContext,
    last: i32,
    distance: fn(&[f64], &[f64]) -> f64,
) -> usize {
    let mut most = 0;
    for (rho, tau) in [(0.0, 0.0), (0.15, 0.1), (1e4, 0.1)] {
        let label = format!("{label}, rho {rho}, tau {tau}");
        let floor = sgraph::RowStochastic::new(&ram.decayed_citation(rho).graph)
            .stationary(&walk_opts(&FLOOR, ram.recency_jump(tau, last)));
        let twpr = |threads| {
            TimeWeightedPageRank::new(TwprConfig {
                pagerank: PageRankConfig { threads, ..FLOOR },
                rho,
                tau,
                now: Some(last),
            })
        };
        let want = twpr(1).solve_ctx(ram);
        let l1 = distance(&want.scores, &floor.scores);
        assert!(l1 <= 1e-12, "{label}: {l1:e} from the power iteration's floor");
        most = most.max(want.telemetry.iterations);
        for threads in [1, 2, 8] {
            for (backend, ctx) in [("ram", ram), ("colstore", mmap)] {
                let got = twpr(threads).solve_ctx(ctx);
                let label = format!("{label} ({backend}, threads {threads})");
                assert_eq!(bits(&got.scores), bits(&want.scores), "{label}: scores");
                assert_eq!(got.telemetry.residuals, want.telemetry.residuals, "{label}");
                assert_eq!(got.telemetry.iterations, want.telemetry.iterations, "{label}");
            }
        }
    }
    most
}

#[test]
fn reverse_sweep_is_the_power_iteration_floor_on_every_edge_corpus() {
    let mut cases = edge_cases();
    cases.push(("back edges", back_edge_corpus()));
    for (name, corpus) in cases {
        let (dir, store) = colstore_of(&corpus, &format!("sweep-{name}"));
        let last = corpus.year_range().map_or(2000, |(_, last)| last);
        let (ram, mmap) = (RankContext::new(&corpus), RankContext::from_colstore(&store));
        let most = assert_sweeps_to_the_floor(name, &ram, &mmap, last, l1_distance);
        if name == "back edges" {
            assert!(most > 2, "back edges take more than one pass");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// `Σ v`, compensated (Neumaier): exact to the last bit or so.
fn exact_sum(v: &[f64]) -> f64 {
    let (mut sum, mut carry) = (0.0f64, 0.0f64);
    for &x in v {
        let t = sum + x;
        carry += if sum.abs() >= x.abs() { (sum - t) + x } else { (x - t) + sum };
        sum = t;
    }
    sum + carry
}

/// L1 between `a` and `b`, each over its exact sum: the distance between
/// the distributions, without the mass error each solve's naive sums leave.
fn shape_distance(a: &[f64], b: &[f64]) -> f64 {
    let (sa, sb) = (exact_sum(a), exact_sum(b));
    a.iter().zip(b).map(|(x, y)| (x / sa - y / sb).abs()).sum()
}

/// The same row on the DBLP-like and MAG-like presets and on a
/// 100k-article MAG-scale colstore (eight shards); seconds in a release
/// build, so CI runs it with `cargo test --release --test conformance --
/// --ignored reverse_sweep`. At 10⁵ articles a naively summed vector is
/// off its unit mass by ~1e-12, and the power iteration amplifies its own
/// dangling-mass error by 1/(1 − d): on MAG-like at ρ = 1e4 its floor sums
/// to 1 + 2.6e-12, the sweep's scores to 1 + 8e-13. So here the two are
/// compared as distributions (`shape_distance`).
#[test]
#[ignore = "large presets; run in release builds"]
fn reverse_sweep_is_the_power_iteration_floor_on_large_presets() {
    for (name, preset) in [("dblp", Preset::DblpLike), ("mag", Preset::MagLike)] {
        let corpus = preset.generate(20180416);
        let (dir, store) = colstore_of(&corpus, &format!("sweep-{name}"));
        let last = corpus.year_range().unwrap().1;
        let (ram, mmap) = (RankContext::new(&corpus), RankContext::from_colstore(&store));
        let most = assert_sweeps_to_the_floor(name, &ram, &mmap, last, shape_distance);
        assert_eq!(most, 2, "{name}: one pass");
        std::fs::remove_dir_all(&dir).unwrap();
    }
    let dir = fresh_dir("sweep-mag-scale");
    scholar::corpus::generator::generate_mag_scale(&dir, 100_000, 7).unwrap();
    let store = ColStore::open(&dir).unwrap();
    let corpus = store.materialize().unwrap();
    let (ram, mmap) = (RankContext::new(&corpus), RankContext::from_colstore(&store));
    assert_sharded(&mmap, 0.15);
    let last = corpus.year_range().unwrap().1;
    let most = assert_sweeps_to_the_floor("mag-scale 100k", &ram, &mmap, last, shape_distance);
    assert_eq!(most, 2, "mag-scale 100k: one pass");
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---- The author prior against a naive count ----
//
// QRank's structural author prior is a byline-weighted count of decayed
// citations (DESIGN.md §2.2): one gather of the citation graph's
// in-weights through the authorship bipartite. `tests/oracle` counts it
// the naive way, from the reference lists and the bylines, and the plan
// must match it by bits on both `Rows` backends.

/// The plan's `su` over `view` under `cfg`, held to the oracle's count.
fn assert_prior_is_the_count<V: Rows + ?Sized>(
    label: &str,
    view: &V,
    cfg: &QRankConfig,
) -> Vec<f64> {
    let su = QRankEngine::build(view, cfg).structural_stationaries().1.to_vec();
    let want = oracle::author_prior(view, cfg);
    assert_eq!(bits(&su), bits(&want), "{label}: su is the naive count");
    su
}

/// Over each corpus of `cases`, at the default ρ, at ρ = 0 (every citation
/// counts 1) and at ρ = 1e4 (only same-year citations keep any weight).
fn assert_prior_is_the_count_over(cases: Vec<(&str, Corpus)>) {
    for (name, corpus) in cases {
        let (dir, store) = colstore_of(&corpus, &format!("prior-{name}"));
        for rho in [QRankConfig::default().twpr.rho, 0.0, 1e4] {
            let (cfg, label) = (QRankConfig::default().with_rho(rho), format!("{name}, rho {rho}"));
            let ram = assert_prior_is_the_count(&label, &corpus, &cfg);
            let mm = assert_prior_is_the_count(&format!("{label} (colstore)"), &store, &cfg);
            assert_eq!(bits(&ram), bits(&mm), "{label}: su across backends");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn author_prior_matches_the_naive_count() {
    assert_prior_is_the_count_over(vec![
        ("tiny", Preset::Tiny.generate(31)),
        ("aan", Preset::AanLike.generate(31)),
    ]);
}

/// The numerical edge battery's corpora.
#[test]
fn author_prior_survives_the_numerical_edges() {
    assert_prior_is_the_count_over(edge_cases());
}

/// A published batch of a solo self-citation, an unsigned citer and a
/// citation of an unsigned article, into a corpus where no author has been
/// cited yet: the self-citation counts like any other, the unsigned citer
/// credits the authors it cites, the spare author keeps the smoothing
/// count alone — and the grown plan is still the built plan.
#[test]
fn a_batch_that_leaves_every_author_dangling_grows_like_it_builds() {
    let base = edge_corpus(1, &[(1990, &[0], &[]), (1992, &[], &[]), (1995, &[1], &[])]);
    let cfg = QRankConfig::default();
    let mut live = IncrementalRanker::new(cfg.clone(), base);
    assert_eq!(live.engine().structural_stationaries().1, &[1.0 / 3.0; 3], "nobody cited yet");
    let article = |year, authors: &[u32], refs: &[u32]| Article {
        id: ArticleId(0), // reassigned by grow_corpus
        title: "batch".into(),
        year,
        venue: live.corpus().article(ArticleId(0)).venue,
        authors: authors.iter().map(|&u| AuthorId(u)).collect(),
        references: refs.iter().map(|&r| ArticleId(r)).collect(),
        merit: None,
    };
    let batch =
        vec![article(1999, &[0], &[0]), article(2000, &[], &[0, 2]), article(2001, &[2], &[1])];
    live.extend(grow_corpus(live.corpus(), batch));

    let (grown, built) = (live.engine(), QRankEngine::build(live.corpus(), &cfg));
    let (su, built_su) = (grown.structural_stationaries().1, built.structural_stationaries().1);
    assert_eq!(bits(su), bits(built_su), "grown su is built su");
    // a0 is cited 9 years on by u0's self-citation and 10 years on by the
    // unsigned citer, a2 5 years on by the unsigned citer; a1 is unsigned.
    let d = |years: f64| TimeWeightedPageRank::edge_weight(cfg.twpr.rho, years);
    let counts = [1.0 + (d(9.0) + d(10.0)), 1.0 + d(5.0), 1.0];
    let total: f64 = counts.iter().sum();
    assert!(su.iter().zip(counts).all(|(s, c)| (s - c / total).abs() < 1e-15), "{su:?}");
    assert_prior_is_the_count("after extend", live.corpus(), &cfg);
}

// ---- The borrowing walk operator against the copying one ----
//
// `sgraph::RowStochastic` borrows the graph it steps over and pre-scales
// the iterate, `z = x / out_sum`, then pulls raw weights; the operator it
// replaced — kept verbatim in `tests/oracle` — stored `w / out_sum` per
// edge. Each product is rounded differently, so the contract is not bits
// but: ≤ 1e-12 L1 on every score a walk drives and the same order beyond
// 1e-12 relative — for every registered ranker, QRank's four score vectors
// and `sv`, on both `Rows` backends. A cyclic walk (power iteration on
// both sides) must also take the same iterations and converge alike. A
// citation walk is solved by the reverse sweep, which is exact to
// rounding, so its oracle is the copying power iteration run to its floor
// (`FLOOR`), and the sweep must report convergence.

/// A damped walk over `graph` by the copying operator.
fn copying_walk(
    graph: &scholar::graph::CsrGraph,
    jump: JumpVector,
    pr: &PageRankConfig,
) -> PowerIterationResult {
    oracle::RowStochastic::new(graph).stationary(&walk_opts(pr, jump))
}

/// The power iteration run to its floor: the oracle of every reverse sweep.
const FLOOR: PageRankConfig =
    PageRankConfig { damping: 0.85, tol: 1e-15, max_iter: 1000, threads: 1 };

/// The solver options of a walk with teleport `jump` under `pr`.
fn walk_opts(pr: &PageRankConfig, jump: JumpVector) -> PowerIterationOpts {
    PowerIterationOpts {
        damping: pr.damping,
        jump,
        tol: pr.tol,
        max_iter: pr.max_iter,
        threads: pr.threads,
    }
}

/// A citation walk over `graph` by the copying operator, run to its floor
/// at `pr`'s damping.
fn copying_floor(
    graph: &scholar::graph::CsrGraph,
    jump: JumpVector,
    pr: &PageRankConfig,
) -> PowerIterationResult {
    copying_walk(graph, jump, &PageRankConfig { damping: pr.damping, ..FLOOR })
}

/// `(scores, Some((iterations, converged)))` of a power-iteration solve;
/// `None` for a solve whose walk sweeps, held by its scores alone.
type Solved = (Vec<f64>, Option<(usize, bool)>);

fn solved(res: PowerIterationResult) -> Solved {
    (res.scores, Some((res.iterations, res.converged)))
}

fn swept(res: PowerIterationResult) -> Solved {
    (res.scores, None)
}

/// FutureRank's fixpoint with its citation step taken by the copying
/// operator.
fn future_rank_by_copying(ctx: &RankContext) -> Solved {
    let cfg = FutureRankConfig::default();
    let n = ctx.num_articles();
    let citation = ctx.citation_graph();
    let op = oracle::RowStochastic::new(&citation.graph);
    let authorship = ctx.authorship();
    let time_vec = ctx.recency_jump(cfg.rho, ctx.now()).to_dense(n);
    let delta = (1.0 - cfg.alpha - cfg.beta - cfg.gamma).max(0.0);
    let uniform = 1.0 / n as f64;
    let mut cite_term = vec![0.0; n];
    solved(fixpoint(vec![uniform; n], cfg.tol, cfg.max_iter, |p, next| {
        let mut author = authorship.distribute_to_left(p);
        normalize_l1(&mut author);
        op.apply(p, &mut cite_term, 1.0, &JumpVector::Uniform);
        let mut author_term = authorship.distribute_to_right(&author);
        normalize_l1(&mut author_term);
        for (i, slot) in next.iter_mut().enumerate() {
            *slot = cfg.alpha * cite_term[i]
                + cfg.beta * author_term[i]
                + cfg.gamma * time_vec[i]
                + delta * uniform;
        }
        normalize_l1(next);
    }))
}

/// The default plan over `ctx` with its inner walk (to the floor) and `sv`
/// taken by the copying operator (`su` is the factorised walk's, which no
/// operator change touches).
fn qrank_by_copying(ctx: &RankContext) -> QRankEngine {
    let cfg = QRankConfig::default();
    let plan = QRankEngine::build(ctx.rows(), &cfg);
    let (net, pr) = (plan.net(), &cfg.twpr.pagerank);
    let twpr = copying_floor(&net.citation, ctx.recency_jump(cfg.twpr.tau, plan.now()), pr);
    let mut sv = copying_walk(&net.venue_graph, JumpVector::Uniform, pr).scores;
    normalize_l1(&mut sv);
    let su = plan.structural_stationaries().1.to_vec();
    let cold = (twpr.scores.clone(), twpr.into());
    plan.with_structural_stationaries(sv, su, Some(cold))
}

/// What the registered ranker `name` scores on `ctx` with every walk
/// stepped by the copying operator — `None` for a ranker that walks
/// nothing, and a panic for one this table does not know yet.
fn under_copying_operator(name: &str, ctx: &RankContext) -> Option<Solved> {
    let pagerank = || {
        let unit = &ctx.citation_graph().graph;
        swept(copying_floor(unit, JumpVector::Uniform, &PageRankConfig::default()))
    };
    Some(match name {
        "CitCount" | "HITS" | "CitPerYear" => return None,
        n if n.starts_with("MC-PageRank") || n.starts_with("RecentCit") => return None,
        "PageRank" => pagerank(),
        "P-Rank" => {
            let cfg = PRankConfig::default();
            let np = ctx.num_articles();
            let g = PRank::new(cfg.clone()).combined_graph(ctx.rows());
            let (mut scores, steps) = solved(copying_walk(&g, JumpVector::Uniform, &cfg.pagerank));
            scores.truncate(np);
            normalize_l1(&mut scores);
            (scores, steps)
        }
        "FutureRank" => future_rank_by_copying(ctx),
        "QRank" => {
            let plan = qrank_by_copying(ctx);
            (plan.solve(&MixParams::from_config(plan.config())).article_scores, None)
        }
        n if n.starts_with("TWPR") => {
            let cfg = TwprConfig::default();
            let jump = ctx.recency_jump(cfg.tau, ctx.now());
            swept(copying_floor(&ctx.decayed_citation(cfg.rho).graph, jump, &cfg.pagerank))
        }
        n if n.starts_with("CiteRank") => {
            let cfg = CiteRankConfig::default();
            let jump = ctx.recency_jump(1.0 / cfg.tau_dir, ctx.now());
            let pr = PageRankConfig {
                damping: cfg.alpha,
                tol: cfg.tol,
                max_iter: cfg.max_iter,
                threads: 1,
            };
            swept(copying_floor(&ctx.citation_graph().graph, jump, &pr))
        }
        "Rescaled[PageRank](5y)" => {
            let (scores, steps) = pagerank();
            (rescale_by_years(ctx.years(), &scores, 5), steps)
        }
        // Reciprocal-rank fusion reads only the order of its inputs, which
        // the PageRank row holds to the oracle's beyond 1e-12 relative.
        // Pairs inside that margin may fall either way and then swap whole
        // rank positions, so the fusion is held to the same fusion of the
        // borrowing PageRank.
        "RRF[CitCount+PageRank]" => {
            let lists = [CitationCount.solve_ctx(ctx).scores, PageRank::default().rank_ctx(ctx)];
            (fuse_scores(&lists, FusionRule::ReciprocalRank { k: 60.0 }), None)
        }
        other => panic!("{other}: no copying-operator oracle for this ranker"),
    })
}

fn assert_close_to(label: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{label}: lengths");
    let l1 = l1_distance(got, want);
    assert!(l1 <= 1e-12, "{label}: L1 {l1:e} from the copying operator's");
    assert_same_order(label, got, want);
}

/// The whole row on `corpus`, through both `Rows` backends.
fn assert_borrowing_matches_copying(label: &str, corpus: &Corpus) {
    let (dir, store) = colstore_of(corpus, &format!("copying-{label}"));
    let oracle_ctx = RankContext::new(corpus);
    let backends =
        [("ram", RankContext::new(corpus)), ("colstore", RankContext::from_colstore(&store))];

    for ranker in registered_rankers() {
        let name = ranker.name();
        let Some((want, steps)) = under_copying_operator(&name, &oracle_ctx) else {
            continue;
        };
        for (backend, ctx) in &backends {
            let label = format!("{label} ({backend}): {name}");
            let got = ranker.solve_ctx(ctx);
            assert_close_to(&label, &got.scores, &want);
            let (got_steps, converged) = (got.telemetry.iterations, got.telemetry.converged);
            match steps {
                Some(steps) => assert_eq!((got_steps, converged), steps, "{label}: iterations"),
                None => assert!(converged, "{label}: the sweep must converge"),
            }
        }
    }

    let fed = qrank_by_copying(&oracle_ctx);
    let want = fed.solve(&MixParams::from_config(fed.config()));
    let views: [(&str, &dyn Rows); 2] = [("ram", corpus), ("colstore", &store)];
    for (backend, view) in views {
        let label = format!("{label} ({backend}): QRank");
        let plan = QRankEngine::build(view, fed.config());
        let (sv, want_sv) = (plan.structural_stationaries().0, fed.structural_stationaries().0);
        assert_close_to(&format!("{label} sv"), sv, want_sv);
        let got = plan.solve(&MixParams::from_config(fed.config()));
        for (what, x, y) in [
            ("article", &got.article_scores, &want.article_scores),
            ("venue", &got.venue_scores, &want.venue_scores),
            ("author", &got.author_scores, &want.author_scores),
            ("twpr", &got.twpr_scores, &want.twpr_scores),
        ] {
            assert_close_to(&format!("{label} {what}"), x, y);
        }
        assert!(got.twpr_diagnostics.converged, "{label}: inner sweep");
        assert_eq!(got.outer.iterations, want.outer.iterations, "{label}: outer iterations");
        assert_eq!(got.outer.converged, want.outer.converged, "{label}: outer convergence");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn borrowing_operator_matches_the_copying_operator() {
    assert_borrowing_matches_copying("tiny", &Preset::Tiny.generate(41));
    assert_borrowing_matches_copying("aan", &Preset::AanLike.generate(41));
}

/// The same row on a 90k-article corpus; minutes in a debug build, so CI
/// runs it with `cargo test --release --test conformance -- --ignored
/// copying_operator`.
#[test]
#[ignore = "large preset; run in release builds"]
fn borrowing_operator_matches_the_copying_operator_on_dblp() {
    assert_borrowing_matches_copying("dblp", &Preset::DblpLike.generate(20180416));
}

/// The shard file `decayed_plan` writes for a 200k-article MAG-scale store
/// is byte for byte the file the sort-based writer kept in `tests/oracle`
/// writes from the same reference postings.
#[test]
#[ignore = "200k-article store; run in release builds"]
fn scsr_oracle_matches_decayed_plan_on_a_mag_scale_store() {
    let dir = fresh_dir("scsr-oracle");
    scholar::corpus::generator::generate_mag_scale(&dir, 200_000, 7303).unwrap();
    let store = ColStore::open(&dir).unwrap();
    let rho = TimeWeightedPageRank::default().config.rho;
    let shard_size = match RankContext::from_colstore(&store).decayed_plan(rho) {
        DecayedPlan::Partitioned(csr) => csr.shard_size(),
        DecayedPlan::Dense(_) => panic!("a colstore context must plan out of core"),
    };
    let got = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "scsr"))
        .expect("decayed_plan leaves a shard file");

    let want = dir.join("oracle.bin");
    let n = store.num_articles();
    let mut b = oracle::scsr::SortingScsrBuilder::new(&want, n, shard_size).unwrap();
    let decay = TimeWeightedPageRank::decay(rho);
    scholar::corpus::rows::weighted_refs(&store, 0..n, decay, |_, refs, weights| {
        b.add_source(refs, weights).unwrap();
    });
    b.finish(store.generation()).unwrap();
    let (got, want) = (std::fs::read(&got).unwrap(), std::fs::read(&want).unwrap());
    assert_eq!(got.len(), want.len(), "file length");
    assert!(got == want, "the shard file differs from the sort-based writer's");
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---- Out-weight sums against the shard file's ----

/// The dense graph's out-weight sums, gathered from its in-rows, are the
/// sums the shard writer stores when fed the same reference rows: the same
/// bits on every node that does not dangle, and the same dangling set.
fn assert_out_sums_are_the_shard_files(name: &str, corpus: &Corpus) {
    let dir = fresh_dir(&format!("out-sums-{name}"));
    std::fs::create_dir_all(&dir).unwrap();
    let ctx = RankContext::new(corpus);
    let n = corpus.num_articles();
    for rho in [QRankConfig::default().twpr.rho, 0.0, 0.15, 1.0, 1e4] {
        let label = format!("{name}, rho {rho}");
        let decayed = ctx.decayed_citation(rho);
        let sums = decayed.graph.out_weight_sums();
        let path = dir.join(format!("rho-{:016x}.scsr", rho.to_bits()));
        let mut b = sgraph::MmapCsrBuilder::new(&path, n, 7).unwrap();
        let decay = TimeWeightedPageRank::decay(rho);
        scholar::corpus::rows::weighted_refs(corpus, 0..n, decay, |_, refs, weights| {
            b.add_source(refs, weights).unwrap();
        });
        b.finish(1).unwrap();
        let stored = oracle::scsr::stored_out_sums(&path).unwrap();
        let dangling = sgraph::RowStochastic::new(&decayed.graph).dangling().to_vec();
        let file = sgraph::MmapCsr::open(&path, Some(1)).unwrap();
        assert_eq!(dangling, file.dangling(), "{label}: dangling sets");
        for u in (0..n).filter(|&u| dangling.binary_search(&(u as u32)).is_err()) {
            assert_eq!(sums[u].to_bits(), stored[u].to_bits(), "{label}: out-sum of {u}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn out_weight_sums_are_the_shard_files_sums() {
    let presets = [("tiny", Preset::Tiny.generate(53)), ("aan", Preset::AanLike.generate(53))];
    for (name, corpus) in presets.into_iter().chain(edge_cases()) {
        assert_out_sums_are_the_shard_files(name, &corpus);
    }
}

// ---- The state directory against the SNAPv1 oracle ----

/// Strings and merit the SCOLv2 columns must carry exactly: titles and
/// names that need JSON escaping or are multi-byte UTF-8 (a NUL byte
/// included), empty ones, two authors sharing one name, an empty byline,
/// an author twice on one byline, a forward reference, and merit absent,
/// zero, negative zero and tiny.
fn adversarial_strings() -> Corpus {
    use scholar::corpus::model::{Author, Venue, VenueId};
    let article =
        |i: u32, title: &str, year, venue, authors: &[u32], refs: &[u32], merit| Article {
            id: ArticleId(i),
            title: title.to_owned(),
            year,
            venue: VenueId(venue),
            authors: authors.iter().map(|&u| AuthorId(u)).collect(),
            references: refs.iter().map(|&r| ArticleId(r)).collect(),
            merit,
        };
    let authors = ["Ada Lovelace", "Ada Lovelace", "Zoë \"Z\" \u{1d518}", ""];
    let venues = ["", "V\u{0}nul / \\ \u{2028}"];
    Corpus::assemble(
        vec![
            article(0, "", 1990, 0, &[], &[], None),
            article(1, "\"quoted\" \\ tab\tnewline\n\u{1}", 1995, 1, &[0, 1], &[0, 2], Some(0.25)),
            article(2, "Über naïve 数据 🦀", 1995, 0, &[1, 1], &[0], Some(-0.0)),
            article(3, "</script>&amp;", 2001, 1, &[2, 3], &[0, 1, 2], Some(0.0)),
            article(4, "tiny merit", 2003, 0, &[0], &[3], Some(f64::MIN_POSITIVE / 8.0)),
        ],
        authors
            .iter()
            .enumerate()
            .map(|(i, name)| Author { id: AuthorId(i as u32), name: (*name).to_owned() })
            .collect(),
        venues
            .iter()
            .enumerate()
            .map(|(i, name)| Venue { id: VenueId(i as u32), name: (*name).to_owned() })
            .collect(),
    )
    .unwrap()
}

/// Score vectors whose bits a lossy codec would move: signed zero, a
/// subnormal, an infinity, a NaN with a payload, and falling values.
fn awkward_scores(corpus: &Corpus) -> QRankResult {
    let special =
        [-0.0, f64::MIN_POSITIVE / 3.0, f64::INFINITY, f64::from_bits(0x7ff8_0000_0000_0abc)];
    let vector = |n: usize, salt: usize| -> Vec<f64> {
        (0..n)
            .map(|i| match (i + salt) % 3 {
                0 => special[(i + salt) % special.len()],
                _ => 1.0 / (i + salt + 1) as f64,
            })
            .collect()
    };
    QRankResult {
        article_scores: vector(corpus.num_articles(), 0),
        venue_scores: vector(corpus.num_venues(), 1),
        author_scores: vector(corpus.num_authors(), 2),
        twpr_scores: vector(corpus.num_articles(), 3),
        twpr_diagnostics: scholar::rank::Diagnostics::closed_form(),
        outer: scholar::rank::Diagnostics::closed_form(),
    }
}

/// Write one state both ways — the SNAPv1 oracle's single file, and the
/// SCOLv2 store + SNAPv2 scores — and hold the new restore to what the
/// oracle round-trips: every article field (merit by bits), both name
/// tables, and every score bit.
fn assert_state_matches_snapv1(label: &str, corpus: &Corpus, result: &QRankResult, wal_seq: u64) {
    let base = fresh_dir(&format!("snapv1-{label}"));
    let (v1, v2) = (base.join("v1"), base.join("v2"));
    oracle::snapv1::write_snapshot(&v1, corpus, result, wal_seq).unwrap();
    let want = oracle::snapv1::load_snapshot(&v1).unwrap();
    scholar::serve::write_snapshot(&v2, corpus, result, wal_seq).unwrap();
    let got = scholar::serve::load_snapshot(&v2).unwrap();

    assert_eq!(got.wal_seq, want.wal_seq, "{label}: wal_seq");
    let (g, w) = (&got.corpus, &want.corpus);
    assert_eq!(g.num_articles(), w.num_articles(), "{label}: article count");
    for (a, b) in g.articles().iter().zip(w.articles()) {
        let id = a.id;
        assert_eq!(
            (a.id, &a.title, a.year, a.venue, &a.authors, &a.references),
            (b.id, &b.title, b.year, b.venue, &b.authors, &b.references),
            "{label}: article {id}"
        );
        assert_eq!(a.merit.map(f64::to_bits), b.merit.map(f64::to_bits), "{label}: merit {id}");
    }
    assert_eq!(g.authors(), w.authors(), "{label}: author names");
    assert_eq!(g.venues(), w.venues(), "{label}: venue names");
    let vectors = |r: &QRankResult| {
        [&r.article_scores, &r.venue_scores, &r.author_scores, &r.twpr_scores].map(|v| bits(v))
    };
    assert!(vectors(&got.result) == vectors(&want.result), "{label}: score bits");
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn state_directory_restores_what_snapv1_round_trips() {
    for seed in 0..3 {
        let corpus = Preset::Tiny.generate(seed);
        let result = QRank::default().run(&corpus);
        assert_state_matches_snapv1(&format!("tiny-{seed}"), &corpus, &result, seed);
    }
    let aan = Preset::AanLike.generate(43);
    assert_state_matches_snapv1("aan", &aan, &awkward_scores(&aan), 9);
    let cases = edge_cases().into_iter().chain([("adversarial strings", adversarial_strings())]);
    for (i, (name, corpus)) in cases.enumerate() {
        assert_state_matches_snapv1(name, &corpus, &awkward_scores(&corpus), i as u64);
    }
}

/// The same row on a 90k-article corpus with its real ranking; CI runs
/// it with `cargo test --release --test conformance -- --ignored snapv1`.
#[test]
#[ignore = "large preset; run in release builds"]
fn state_directory_restores_what_snapv1_round_trips_on_dblp() {
    let corpus = Preset::DblpLike.generate(20180416);
    let result = QRank::default().run(&corpus);
    assert_state_matches_snapv1("dblp", &corpus, &result, 3);
}
