//! Trait-level conformance suite: every registered ranker must honor the
//! [`Ranker`] contract on generated corpora — finite non-negative scores,
//! one per article, summing to 1 — and the context path must agree with
//! the plain-corpus path bit-for-bit (within 1e-12 L1).

use scholar::core::{grow_corpus, IncrementalRanker};
use scholar::corpus::model::{Article, ArticleId, AuthorId};
use scholar::corpus::CorpusBuilder;
use scholar::rank::{
    fuse_scores, rescale_by_years, AgeNormalizedCitations, CiteRankConfig, DecayedPlan,
    FusedRanker, FusionRule, FutureRankConfig, Hits, HitsConfig, MonteCarloPageRank, PRankConfig,
    PageRankConfig, RankContext, RecentCitations, RescaledRanker, TwprConfig,
};
use scholar::{
    CitationCount, CiteRank, ColStore, Corpus, FutureRank, MixParams, PRank, PageRank, Preset,
    QRank, QRankConfig, QRankEngine, QRankResult, Ranker, Rows, TimeWeightedPageRank,
};
use sgraph::stochastic::{
    fixpoint, l1_distance, normalize_l1, PowerIterationOpts, PowerIterationResult,
};
use sgraph::{stationary_store, JumpVector, ProjectedWalk};

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
    let dir = std::env::temp_dir().join(format!("scholar-conformance-par-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    scholar::corpus::generator::generate_mag_scale(&dir, 5000, 35).unwrap();
    let store = ColStore::open(&dir).unwrap();
    let corpus = store.materialize().unwrap();
    let twpr = |threads| {
        TimeWeightedPageRank::new(TwprConfig {
            pagerank: PageRankConfig { threads, ..PageRankConfig::default() },
            ..TwprConfig::default()
        })
    };
    let ram = twpr(1).solve_ctx(&RankContext::new(&corpus));
    for threads in [1, 2, 8] {
        // A fresh context each time, so no solve is served from the memo.
        let ctx = RankContext::from_colstore(&store);
        match ctx.decayed_plan(twpr(threads).config.rho) {
            DecayedPlan::Partitioned(csr) => assert!(csr.num_shards() > 1, "one shard"),
            DecayedPlan::Dense(_) => panic!("a colstore context must plan a shard file"),
        }
        let mmap = twpr(threads).solve_ctx(&ctx);
        assert!(!mmap.telemetry.cached);
        assert_eq!(bits(&mmap.scores), bits(&ram.scores), "{threads} threads");
        assert_eq!(mmap.telemetry.residuals, ram.telemetry.residuals, "{threads} threads");
        assert_eq!(mmap.telemetry.iterations, ram.telemetry.iterations, "{threads} threads");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A shard file from a build that wrote SCSRv1 (`w / out_sum` per edge)
/// sits at the path `decayed_plan` caches under: it is refused, rebuilt in
/// place, and never walked.
#[test]
fn a_version_1_shard_cache_is_refused_and_rebuilt() {
    let corpus = Preset::Tiny.generate(34);
    let dir = std::env::temp_dir().join(format!("scholar-conformance-v1-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    corpus.write_colstore(&dir).unwrap();
    let store = ColStore::open(&dir).unwrap();

    let ranker = TimeWeightedPageRank::default();
    let fresh = ranker.solve_ctx(&RankContext::from_colstore(&store));
    let shard = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "scsr"))
        .expect("the solve leaves a shard cache");
    let mut bytes = std::fs::read(&shard).unwrap();
    bytes[..8].copy_from_slice(b"SCSRv1\0\0");
    std::fs::write(&shard, &bytes).unwrap();

    let again = ranker.solve_ctx(&RankContext::from_colstore(&store));
    assert_eq!(bits(&again.scores), bits(&fresh.scores));
    assert_eq!(&std::fs::read(&shard).unwrap()[..8], b"SCSRv2\0\0", "rebuilt in place");
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---- The factorised author walk against the materialised graph ----
//
// The author graph `B_U·G_A·B_Uᵀ − diag` is never built (DESIGN.md §2.2);
// `sgraph::ProjectedWalk` re-associates every row sum of it, so the
// contract is not bits but: ≤ 1e-12 L1 on `su` and on all four score
// vectors against a plan fed the walk over the materialised graph
// (`tests/oracle`), the same dangling set, the same iteration count, the
// same full author order by `su` (exact ties aside) and the same article
// top-k.

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

/// Build the plan over `view`, hold its author walk and every score it
/// solves to against the oracle, and hand back `(su, scores)` so callers
/// can compare views by bits.
fn assert_factorised_matches_materialised<V: Rows + ?Sized>(
    label: &str,
    view: &V,
    cfg: &QRankConfig,
) -> (Vec<f64>, QRankResult) {
    let plan = QRankEngine::build(view, cfg);
    let net = plan.net();
    let walk = ProjectedWalk::new(&net.citation, &net.authorship, cfg.drop_self_citations);
    let got = stationary_store(&walk, &oracle::structural_opts(cfg));
    let (op, want) = oracle::author_walk(&oracle::author_graph(view, cfg), cfg);

    assert_eq!(walk.dangling(), op.dangling(), "{label}: dangling authors");
    assert_eq!(got.iterations, want.iterations, "{label}: author-walk iterations");
    assert_eq!(got.converged, want.converged, "{label}: author-walk convergence");
    let su = plan.structural_stationaries().1.to_vec();
    let (mut got_su, mut want_su) = (got.scores, want.scores);
    normalize_l1(&mut got_su);
    normalize_l1(&mut want_su);
    assert_eq!(bits(&su), bits(&got_su), "{label}: the plan's su is this walk's stationary");
    assert!(su.iter().all(|s| s.is_finite() && *s > 0.0), "{label}: su finite and positive");
    let l1 = l1_distance(&su, &want_su);
    assert!(l1 <= 1e-12, "{label}: su differs from the materialised walk's by L1 {l1:e}");
    // The two walks rank every author alike. Authors the graph cannot tell
    // apart (mirror-image bylines; whole families of them at ρ = 0, where
    // every citation weighs 1) tie exactly on paper and fall either way in
    // the last ulps, so a pair counts as ordered only beyond 1e-12 relative.
    assert_same_order(&format!("{label}: su"), &su, &want_su);

    let mix = MixParams::from_config(cfg);
    let factorised = plan.solve(&mix);
    let sv = plan.structural_stationaries().0.to_vec();
    let fed = plan.with_structural_stationaries(sv, want_su).solve(&mix);
    for (what, x, y) in [
        ("article", &factorised.article_scores, &fed.article_scores),
        ("venue", &factorised.venue_scores, &fed.venue_scores),
        ("author", &factorised.author_scores, &fed.author_scores),
        ("twpr", &factorised.twpr_scores, &fed.twpr_scores),
    ] {
        assert!(x.iter().all(|s| s.is_finite() && *s >= 0.0), "{label}: {what} scores finite");
        let l1 = l1_distance(x, y);
        assert!(l1 <= 1e-12, "{label}: {what} scores differ by L1 {l1:e}");
    }
    let k = 100.min(factorised.article_scores.len());
    assert_eq!(
        full_order(&factorised.article_scores)[..k],
        full_order(&fed.article_scores)[..k],
        "{label}: article top-{k}"
    );
    assert_eq!(factorised.outer.iterations, fed.outer.iterations, "{label}: outer iterations");
    (su, factorised)
}

/// [`assert_factorised_matches_materialised`] through both `Rows`
/// backends, which must then agree with each other by bits.
fn assert_factorised_on_both_backends(label: &str, corpus: &Corpus, cfg: &QRankConfig) {
    let dir = std::env::temp_dir().join(format!(
        "scholar-conformance-factorised-{}-{}",
        std::process::id(),
        label.replace(|c: char| !c.is_ascii_alphanumeric(), "-")
    ));
    let _ = std::fs::remove_dir_all(&dir);
    corpus.write_colstore(&dir).unwrap();
    let store = ColStore::open(&dir).unwrap();
    let (ram_su, ram) = assert_factorised_matches_materialised(label, corpus, cfg);
    let (mm_su, mm) =
        assert_factorised_matches_materialised(&format!("{label} (colstore)"), &store, cfg);
    assert_eq!(bits(&ram_su), bits(&mm_su), "{label}: su across backends");
    assert_eq!(bits(&ram.article_scores), bits(&mm.article_scores), "{label}: across backends");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `drop_self_citations ∈ {true, false}` × `ρ ∈ {0, default}`.
fn structural_grid() -> Vec<(String, QRankConfig)> {
    let mut grid = Vec::new();
    for drop_self_citations in [true, false] {
        for rho in [0.0, QRankConfig::default().twpr.rho] {
            let cfg = QRankConfig { drop_self_citations, ..QRankConfig::default().with_rho(rho) };
            grid.push((format!("drop_self={drop_self_citations}, rho={rho}"), cfg));
        }
    }
    grid
}

#[test]
fn factorised_author_walk_matches_the_materialised_graph() {
    for (name, corpus) in
        [("tiny", Preset::Tiny.generate(31)), ("aan", Preset::AanLike.generate(31))]
    {
        for (point, cfg) in structural_grid() {
            assert_factorised_on_both_backends(&format!("{name}, {point}"), &corpus, &cfg);
        }
    }
}

/// The same law where the author graph was 3.9M edges; minutes in a debug
/// build, so CI runs it with `cargo test --release --test conformance --
/// --ignored factorised`.
#[test]
#[ignore = "large presets; run in release builds"]
fn factorised_author_walk_matches_the_materialised_graph_on_large_presets() {
    for (name, preset) in [("dblp", Preset::DblpLike), ("mag", Preset::MagLike)] {
        let corpus = preset.generate(20180416);
        for (point, cfg) in structural_grid() {
            assert_factorised_matches_materialised(&format!("{name}, {point}"), &corpus, &cfg);
        }
    }
}

/// Hand-built corpora at the numerical edges of the factorised kernel.
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
// the stack, run by the factorised-vs-materialised row above and by the
// distribution contract below: every registered ranker, QRank's four
// score vectors and both structural walks, plus the rankers' own settings
// at their edges, on both `Rows` backends.

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

/// The battery's parameter points: the defaults, self-citations kept, ρ
/// so large that `exp(−ρ·Δt)` underflows to 0 for every Δt ≥ 1, ρ that
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
        ("self-citations kept".into(), QRankConfig { drop_self_citations: false, ..base.clone() }),
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
    assert_edge_scores(&format!("{label}: author walk"), su, false);
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
        let dir = std::env::temp_dir().join(format!(
            "scholar-conformance-edges-{}-{}",
            std::process::id(),
            name.replace(|c: char| !c.is_ascii_alphanumeric(), "-")
        ));
        let _ = std::fs::remove_dir_all(&dir);
        corpus.write_colstore(&dir).unwrap();
        let store = ColStore::open(&dir).unwrap();
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

#[test]
fn factorised_author_walk_survives_the_numerical_edges() {
    let cases = edge_cases();
    for (name, corpus) in &cases {
        for (point, cfg) in structural_grid() {
            assert_factorised_on_both_backends(&format!("{name}, {point}"), corpus, &cfg);
        }
    }

    // The solo self-citer is dangling *exactly* when self-citations are
    // dropped — its row sum is a sum of zeros, not a rounding residue.
    let solo = &cases.iter().find(|(name, _)| *name == "solo self-citer").unwrap().1;
    let plan = QRankEngine::build(solo, &QRankConfig::default());
    let walk = ProjectedWalk::new(&plan.net().citation, &plan.net().authorship, true);
    assert_eq!(walk.row_sums()[0].to_bits(), 0.0f64.to_bits());
    assert_eq!(walk.dangling(), &[0]);

    // ρ so large that `exp(−ρ·Δt)` underflows to 0 for every Δt ≥ 1: only
    // same-year citations keep weight, every other author pair vanishes.
    let corpus =
        &cases.iter().find(|(name, _)| *name == "same-year and older citations").unwrap().1;
    for drop_self_citations in [true, false] {
        let cfg = QRankConfig { drop_self_citations, ..QRankConfig::default().with_rho(1e4) };
        assert_eq!((-cfg.twpr.rho).exp(), 0.0);
        assert_factorised_on_both_backends("rho underflow", corpus, &cfg);
    }
}

/// A published batch of solo self-citations, an unsigned citer and a
/// citation of an unsigned article adds no author-to-author weight: every
/// author dangles before it and after it, and the grown plan is still the
/// built plan.
#[test]
fn a_batch_that_leaves_every_author_dangling_grows_like_it_builds() {
    let base = edge_corpus(1, &[(1990, &[0], &[]), (1992, &[], &[]), (1995, &[1], &[])]);
    let cfg = QRankConfig::default();
    let mut live = IncrementalRanker::new(cfg.clone(), base);
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
    let net = grown.net();
    let walk = ProjectedWalk::new(&net.citation, &net.authorship, true);
    assert_eq!(walk.dangling(), &[0, 1, 2], "every author dangles after the batch");
    let (su, built_su) = (grown.structural_stationaries().1, built.structural_stationaries().1);
    assert_eq!(bits(su), bits(built_su), "grown su is built su");
    assert_eq!(su, &[1.0 / 3.0; 3], "all-dangling walk is the uniform jump");
    assert_factorised_on_both_backends("all dangling after extend", live.corpus(), &cfg);
}

// ---- The borrowing walk operator against the copying one ----
//
// `sgraph::RowStochastic` borrows the graph it steps over and pre-scales
// the iterate, `z = x / out_sum`, then pulls raw weights; the operator it
// replaced — kept verbatim in `tests/oracle` — stored `w / out_sum` per
// edge. Each product is rounded differently, so the contract is not bits
// but: ≤ 1e-12 L1 on every score a walk drives, the same iteration counts
// and convergence, and the same order beyond 1e-12 relative — for every
// registered ranker, QRank's four score vectors and `sv`, on both `Rows`
// backends.

/// A damped walk over `graph` by the copying operator.
fn copying_walk(
    graph: &scholar::graph::CsrGraph,
    jump: JumpVector,
    pr: &PageRankConfig,
) -> PowerIterationResult {
    oracle::RowStochastic::new(graph).stationary(&PowerIterationOpts {
        damping: pr.damping,
        jump,
        tol: pr.tol,
        max_iter: pr.max_iter,
        threads: pr.threads,
        warm_start: None,
    })
}

/// `(scores, iterations, converged)` of a solve.
type Solved = (Vec<f64>, usize, bool);

fn solved(res: PowerIterationResult) -> Solved {
    (res.scores, res.iterations, res.converged)
}

/// FutureRank's fixpoint with its citation step taken by the copying
/// operator.
fn future_rank_by_copying(ctx: &RankContext) -> Solved {
    let cfg = FutureRankConfig::default();
    let n = ctx.num_articles();
    let op = oracle::RowStochastic::new(ctx.citation_graph());
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

/// The default plan over `ctx` with its inner walk and `sv` taken by the
/// copying operator (`su` is the factorised walk's, which no operator
/// change touches), and the inner walk's iterations and convergence.
fn qrank_by_copying(ctx: &RankContext) -> (QRankEngine, usize, bool) {
    let cfg = QRankConfig::default();
    let plan = QRankEngine::build_from_ctx(ctx, &cfg);
    let (net, pr) = (plan.net(), &cfg.twpr.pagerank);
    let twpr = copying_walk(&net.citation, ctx.recency_jump(cfg.twpr.tau, plan.now()), pr);
    let mut sv = copying_walk(&net.venue_graph, JumpVector::Uniform, pr).scores;
    normalize_l1(&mut sv);
    let su = plan.structural_stationaries().1.to_vec();
    let (iterations, converged) = (twpr.iterations, twpr.converged);
    let plan = plan.with_structural_stationaries(sv, su);
    plan.prime_twpr(twpr.scores.clone(), twpr.into());
    (plan, iterations, converged)
}

/// What the registered ranker `name` scores on `ctx` with every walk
/// stepped by the copying operator — `None` for a ranker that walks
/// nothing, and a panic for one this table does not know yet.
fn under_copying_operator(name: &str, ctx: &RankContext) -> Option<Solved> {
    let pagerank = || {
        solved(copying_walk(ctx.citation_graph(), JumpVector::Uniform, &PageRankConfig::default()))
    };
    Some(match name {
        "CitCount" | "HITS" | "CitPerYear" => return None,
        n if n.starts_with("MC-PageRank") || n.starts_with("RecentCit") => return None,
        "PageRank" => pagerank(),
        "P-Rank" => {
            let cfg = PRankConfig::default();
            let np = ctx.num_articles();
            let g = PRank::new(cfg.clone()).combined_graph(ctx.rows());
            let (mut scores, iterations, converged) =
                solved(copying_walk(&g, JumpVector::Uniform, &cfg.pagerank));
            scores.truncate(np);
            normalize_l1(&mut scores);
            (scores, iterations, converged)
        }
        "FutureRank" => future_rank_by_copying(ctx),
        "QRank" => {
            let (plan, iterations, converged) = qrank_by_copying(ctx);
            let res = plan.solve(&MixParams::from_config(plan.config()));
            (
                res.article_scores,
                res.outer.iterations + iterations,
                res.outer.converged && converged,
            )
        }
        n if n.starts_with("TWPR") => {
            let cfg = TwprConfig::default();
            let jump = ctx.recency_jump(cfg.tau, ctx.now());
            solved(copying_walk(&ctx.decayed_citation(cfg.rho).graph, jump, &cfg.pagerank))
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
            solved(copying_walk(ctx.citation_graph(), jump, &pr))
        }
        "Rescaled[PageRank](5y)" => {
            let (scores, iterations, converged) = pagerank();
            (rescale_by_years(ctx.years(), &scores, 5), iterations, converged)
        }
        // Reciprocal-rank fusion reads only the order of its inputs, which
        // the PageRank row holds to the oracle's beyond 1e-12 relative.
        // Pairs inside that margin may fall either way and then swap whole
        // rank positions, so the fusion is held to the same fusion of the
        // borrowing PageRank, and its walk's iterations to the oracle's.
        "RRF[CitCount+PageRank]" => {
            let (_, iterations, converged) = pagerank();
            let lists = [CitationCount.solve_ctx(ctx).scores, PageRank::default().rank_ctx(ctx)];
            (fuse_scores(&lists, FusionRule::ReciprocalRank { k: 60.0 }), iterations, converged)
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
    let dir = std::env::temp_dir()
        .join(format!("scholar-conformance-copying-{}-{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    corpus.write_colstore(&dir).unwrap();
    let store = ColStore::open(&dir).unwrap();
    let oracle_ctx = RankContext::new(corpus);
    let backends =
        [("ram", RankContext::new(corpus)), ("colstore", RankContext::from_colstore(&store))];

    for ranker in registered_rankers() {
        let name = ranker.name();
        let Some((want, iterations, converged)) = under_copying_operator(&name, &oracle_ctx) else {
            continue;
        };
        for (backend, ctx) in &backends {
            let label = format!("{label} ({backend}): {name}");
            let got = ranker.solve_ctx(ctx);
            assert_close_to(&label, &got.scores, &want);
            assert_eq!(got.telemetry.iterations, iterations, "{label}: iterations");
            assert_eq!(got.telemetry.converged, converged, "{label}: convergence");
        }
    }

    let (fed, twpr_iterations, _) = qrank_by_copying(&oracle_ctx);
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
        assert_eq!(got.twpr_diagnostics.iterations, twpr_iterations, "{label}: inner iterations");
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
    let dir = std::env::temp_dir()
        .join(format!("scholar-conformance-scsr-oracle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
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
    let base = std::env::temp_dir()
        .join(format!("scholar-conformance-snapv1-{}-{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
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
