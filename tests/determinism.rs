//! Determinism guarantees: every component of the stack is bit-stable
//! across repeated runs, seeds, and thread counts.

use scholar::{GeneratorConfig, Preset, QRank, QRankConfig, QRankEngine, Ranker};

#[test]
fn generator_is_seed_deterministic() {
    let a = Preset::Tiny.generate(123);
    let b = Preset::Tiny.generate(123);
    assert_eq!(a, b);
    let c = Preset::Tiny.generate(124);
    assert_ne!(a, c, "different seeds must differ");
}

#[test]
fn every_ranker_is_deterministic() {
    let corpus = Preset::Tiny.generate(55);
    for ranker in scholar::evaluation_rankers() {
        let a = ranker.rank(&corpus);
        let b = ranker.rank(&corpus);
        assert_eq!(a, b, "{} must be deterministic", ranker.name());
    }
}

#[test]
fn thread_count_does_not_change_qrank() {
    let corpus = Preset::Tiny.generate(56);
    let seq = QRank::new(QRankConfig::default().with_threads(1)).rank(&corpus);
    for threads in [2, 3, 8] {
        let par = QRank::new(QRankConfig::default().with_threads(threads)).rank(&corpus);
        let diff: f64 = seq.iter().zip(&par).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff < 1e-9, "threads={threads} changed the result by {diff}");
    }
}

/// The author prior is one gather per author, partitioned by author: `su`
/// is the same bits at any thread count. (The corpus is past the kernels'
/// parallel gate, so the partitions really differ.)
#[test]
fn thread_count_does_not_change_the_author_walk() {
    let corpus = scholar::corpus::CorpusGenerator::new(GeneratorConfig {
        initial_articles_per_year: 60.0,
        ..Preset::AanLike.config(59)
    })
    .generate();
    assert!(corpus.num_articles() > 4096, "corpus must exercise the parallel kernels");
    let su = |threads| {
        let plan = QRankEngine::build(&corpus, &QRankConfig::default().with_threads(threads));
        plan.structural_stationaries().1.iter().map(|s| s.to_bits()).collect::<Vec<u64>>()
    };
    let sequential = su(1);
    for threads in [2, 8] {
        assert!(su(threads) == sequential, "su changed at {threads} threads");
    }
}

#[test]
fn sampled_metrics_are_seed_deterministic() {
    let corpus = Preset::Tiny.generate(57);
    let scores = QRank::default().rank(&corpus);
    let truth = scholar::eval::groundtruth::planted_merit(&corpus).unwrap();
    let a = scholar::eval::metrics::pairwise_accuracy_sampled(&truth.values, &scores, 50_000, 3);
    let b = scholar::eval::metrics::pairwise_accuracy_sampled(&truth.values, &scores, 50_000, 3);
    assert_eq!(a, b);
}

#[test]
fn ground_truth_builders_are_deterministic() {
    let corpus = Preset::Tiny.generate(58);
    let a1 = scholar::eval::groundtruth::award_set(&corpus, 5, 0.05);
    let a2 = scholar::eval::groundtruth::award_set(&corpus, 5, 0.05);
    assert_eq!(a1, a2);
    let p1 = scholar::eval::groundtruth::expert_pairs(&corpus, 300, 2.0, 11);
    let p2 = scholar::eval::groundtruth::expert_pairs(&corpus, 300, 2.0, 11);
    assert_eq!(p1, p2);
}
