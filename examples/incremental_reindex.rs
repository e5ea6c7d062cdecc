//! Incremental re-ranking: fold this year's publications into an existing
//! index without recomputing from scratch.
//!
//! ```sh
//! cargo run --release --example incremental_reindex
//! ```

use scholar::core::{grow_corpus, IncrementalRanker};
use scholar::corpus::model::Article;
use scholar::corpus::{snapshot_until, ArticleId, Preset};
use scholar::rank::scores::top_k;
use scholar::QRankConfig;

fn main() {
    // The world as of two years before the end of the corpus.
    let full = Preset::Tiny.generate(77);
    let (_, last) = full.year_range().unwrap();
    let snap = snapshot_until(&full, last - 2);
    println!("initial index: {} articles (through {})", snap.corpus.num_articles(), last - 2);

    let mut index = IncrementalRanker::new(QRankConfig::default(), snap.corpus.clone());
    println!("initial ranking: {} inner iterations\n", index.result().twpr_diagnostics.iterations);

    // Two yearly update batches arrive.
    let mut current_snap = snap;
    for year in (last - 1)..=last {
        let next_snap = snapshot_until(&full, year);
        let batch: Vec<Article> = full
            .articles()
            .iter()
            .filter(|a| a.year == year)
            .map(|a| Article {
                id: ArticleId(0), // reassigned on growth
                title: a.title.clone(),
                year: a.year,
                venue: a.venue,
                authors: a.authors.clone(),
                references: a
                    .references
                    .iter()
                    .filter_map(|&r| current_snap.to_snapshot(r))
                    .collect(),
                merit: a.merit,
            })
            .collect();
        let grown = grow_corpus(index.corpus(), batch);
        let stats = index.extend(grown);
        println!(
            "year {year}: +{} articles, re-rank took {} inner iterations",
            stats.added_articles,
            index.result().twpr_diagnostics.iterations
        );
        current_snap = next_snap;
    }

    println!("\ntop 5 after the final update:");
    let result = index.result();
    for (pos, i) in top_k(&result.article_scores, 5).into_iter().enumerate() {
        let a = &index.corpus().articles()[i];
        println!("  {}. [{:.5}] {} ({})", pos + 1, result.article_scores[i], a.title, a.year);
    }
}
