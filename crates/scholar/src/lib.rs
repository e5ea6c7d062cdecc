#![warn(missing_docs)]

//! # scholar — the full qrank stack behind one import
//!
//! A facade over the five crates of the stack. Downstream users depend on
//! this one crate and get:
//!
//! * [`corpus`] — data model, synthetic generation, loaders
//!   (re-export of `scholar-corpus`).
//! * [`rank`] — the baseline rankers (re-export of `scholar-rank`).
//! * [`core`] — the paper's method (re-export of the `qrank` crate).
//! * [`eval`] — ground truth, metrics, experiment harness
//!   (re-export of `scholar-eval`).
//! * [`graph`] — the underlying graph substrate (re-export of `sgraph`).
//! * [`serve`] — the query-serving subsystem: filtered top-k index,
//!   hot-swap layer, HTTP server (re-export of `scholar-serve`).
//!
//! The most common items are additionally re-exported at the top level.
//!
//! ```
//! use scholar::{Preset, QRank, Ranker};
//!
//! let corpus = Preset::Tiny.generate(42);
//! let scores = QRank::default().rank(&corpus);
//! let best = scholar::rank::scores::top_k(&scores, 3);
//! assert_eq!(best.len(), 3);
//! ```

pub use qrank as core;
pub use scholar_corpus as corpus;
pub use scholar_eval as eval;
pub use scholar_rank as rank;
pub use scholar_serve as serve;
pub use sgraph as graph;

pub use qrank::{
    Ablation, ColdStartScorer, MixParams, QRank, QRankConfig, QRankEngine, QRankResult,
};
pub use scholar_corpus::{
    colstore::ColStore, Corpus, CorpusBuilder, GeneratorConfig, Preset, Rows,
};
pub use scholar_eval::GroundTruth;
pub use scholar_rank::{
    CitationCount, CiteRank, FutureRank, Hits, PRank, PageRank, Ranker, TimeWeightedPageRank,
};

/// The full comparison suite used by the R-Tables: every baseline plus
/// QRank, in table order.
pub fn evaluation_rankers() -> Vec<Box<dyn Ranker>> {
    vec![
        Box::new(CitationCount),
        Box::new(PageRank::default()),
        Box::new(Hits::default()),
        Box::new(CiteRank::default()),
        Box::new(TimeWeightedPageRank::default()),
        Box::new(FutureRank::default()),
        Box::new(PRank::default()),
        Box::new(QRank::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_reexports_work_together() {
        let corpus = Preset::Tiny.generate(1);
        for ranker in evaluation_rankers() {
            let scores = ranker.rank(&corpus);
            assert_eq!(scores.len(), corpus.num_articles());
            assert!(
                (scores.iter().sum::<f64>() - 1.0).abs() < 1e-6,
                "{} must emit a distribution",
                ranker.name()
            );
        }
    }

    #[test]
    fn ranker_suite_has_unique_names() {
        let names: Vec<String> = evaluation_rankers().iter().map(|r| r.name()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate ranker names: {names:?}");
        assert_eq!(names.last().map(String::as_str), Some("QRank"));
    }
}
