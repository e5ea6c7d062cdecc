//! The experiment harness: run rankers, score them, produce table rows.

use crate::groundtruth::GroundTruth;
use crate::metrics;
use scholar_corpus::Corpus;
use scholar_rank::{RankContext, Ranker, SolveTelemetry};
use std::collections::HashSet;
use std::time::Instant;

/// One evaluated `(ranker, ground truth)` cell — a row of an R-Table.
#[derive(Debug, Clone)]
pub struct EvalRow {
    /// Ranker display name.
    pub method: String,
    /// Pairwise accuracy against the graded truth (0.5 = chance).
    pub pairwise_accuracy: f64,
    /// Spearman ρ against the graded truth.
    pub spearman: f64,
    /// Kendall τ-b against the graded truth.
    pub kendall: f64,
    /// NDCG@50 against the graded truth.
    pub ndcg_at_50: f64,
    /// Wall-clock seconds spent producing the ranking.
    pub seconds: f64,
    /// Solver telemetry of the ranking (iterations, convergence, build vs.
    /// solve wall time). Default (zeroed) when the row was
    /// scored from a bare score vector.
    pub telemetry: SolveTelemetry,
}

/// Score one ranking against a graded ground truth.
pub fn evaluate_ranking(
    truth: &GroundTruth,
    scores: &[f64],
    method: &str,
    seconds: f64,
) -> EvalRow {
    assert_eq!(truth.values.len(), scores.len(), "truth/scores length mismatch");
    EvalRow {
        method: method.to_owned(),
        pairwise_accuracy: metrics::pairwise_accuracy_auto(&truth.values, scores, 0xfeed),
        spearman: metrics::spearman(&truth.values, scores),
        kendall: metrics::kendall_tau_b(&truth.values, scores),
        ndcg_at_50: metrics::ndcg_at_k(&truth.values, scores, 50),
        seconds,
        telemetry: SolveTelemetry::default(),
    }
}

/// A batch experiment: a corpus, a graded ground truth over its articles,
/// and a set of rankers to compare.
pub struct Experiment<'a> {
    /// The (snapshot) corpus every ranker sees.
    pub corpus: &'a Corpus,
    /// The ground truth to score against.
    pub truth: &'a GroundTruth,
}

impl<'a> Experiment<'a> {
    /// Run every ranker and produce one row each, in input order. All
    /// rankers share one [`RankContext`], so the citation graph and its
    /// derived operators are built exactly once for the whole suite.
    pub fn run(&self, rankers: &[Box<dyn Ranker>]) -> Vec<EvalRow> {
        let ctx = RankContext::new(self.corpus);
        rankers
            .iter()
            .map(|r| {
                let start = Instant::now();
                let out = r.solve_ctx(&ctx);
                let seconds = start.elapsed().as_secs_f64();
                let mut row = evaluate_ranking(self.truth, &out.scores, &r.name(), seconds);
                row.telemetry = out.telemetry;
                row
            })
            .collect()
    }
}

/// Award-list evaluation: precision@k, NDCG-style MRR, and recall@k of an
/// award set under each ranker (R-Table 3 rows).
#[derive(Debug, Clone)]
pub struct AwardRow {
    /// Ranker display name.
    pub method: String,
    /// Precision@k.
    pub precision_at_k: f64,
    /// Recall@k.
    pub recall_at_k: f64,
    /// Mean reciprocal rank of award articles.
    pub mrr: f64,
}

/// Evaluate rankers against an award set.
pub fn run_award_experiment(
    corpus: &Corpus,
    awards: &HashSet<usize>,
    rankers: &[Box<dyn Ranker>],
    k: usize,
) -> Vec<AwardRow> {
    let ctx = RankContext::new(corpus);
    rankers
        .iter()
        .map(|r| {
            let scores = r.rank_ctx(&ctx);
            AwardRow {
                method: r.name(),
                precision_at_k: metrics::precision_at_k(awards, &scores, k),
                recall_at_k: metrics::recall_at_k(awards, &scores, k),
                mrr: metrics::mrr(awards, &scores),
            }
        })
        .collect()
}

/// One method's aggregate over a temporal cross-validation: the same
/// evaluation repeated at several cutoff years, reported as mean ± std.
#[derive(Debug, Clone)]
pub struct CvRow {
    /// Ranker display name.
    pub method: String,
    /// Mean pairwise accuracy across cutoffs.
    pub mean_pairwise: f64,
    /// Population standard deviation of pairwise accuracy.
    pub std_pairwise: f64,
    /// Mean Spearman ρ across cutoffs.
    pub mean_spearman: f64,
    /// Population standard deviation of Spearman ρ.
    pub std_spearman: f64,
    /// Number of cutoffs evaluated.
    pub folds: usize,
}

fn mean_std(values: &[f64]) -> (f64, f64) {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let n = finite.len() as f64;
    let mean = finite.iter().sum::<f64>() / n;
    let var = finite.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Temporal cross-validation: evaluate every ranker at several timeline
/// cutoffs (fractions of the year span) against the future-citation
/// ground truth, and aggregate per method. A single 80% split (R-Table 2)
/// can flatter a method that happens to fit that era; the spread across
/// cutoffs is the robustness check.
pub fn run_temporal_cv(
    corpus: &scholar_corpus::Corpus,
    rankers: &[Box<dyn Ranker>],
    cutoff_fracs: &[f64],
    window_years: i32,
) -> Vec<CvRow> {
    assert!(!cutoff_fracs.is_empty(), "need at least one cutoff");
    let (first, last) = corpus.year_range().expect("non-empty corpus");
    let mut pairwise: Vec<Vec<f64>> = vec![Vec::new(); rankers.len()];
    let mut spearman: Vec<Vec<f64>> = vec![Vec::new(); rankers.len()];
    for &frac in cutoff_fracs {
        assert!((0.0..=1.0).contains(&frac), "cutoff fraction must be in [0, 1]");
        let cutoff = first + ((last - first) as f64 * frac).round() as i32;
        let snap = scholar_corpus::snapshot_until(corpus, cutoff);
        if snap.corpus.num_articles() < 10 {
            continue;
        }
        let truth = crate::groundtruth::future_citations(corpus, &snap, window_years);
        let ctx = RankContext::new(&snap.corpus);
        for (ri, ranker) in rankers.iter().enumerate() {
            let scores = ranker.rank_ctx(&ctx);
            pairwise[ri].push(metrics::pairwise_accuracy_auto(&truth.values, &scores, 0xcb));
            spearman[ri].push(metrics::spearman(&truth.values, &scores));
        }
    }
    rankers
        .iter()
        .enumerate()
        .map(|(ri, ranker)| {
            let (mp, sp) = mean_std(&pairwise[ri]);
            let (ms, ss) = mean_std(&spearman[ri]);
            CvRow {
                method: ranker.name(),
                mean_pairwise: mp,
                std_pairwise: sp,
                mean_spearman: ms,
                std_spearman: ss,
                folds: pairwise[ri].len(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groundtruth::{future_citations, planted_merit};
    use scholar_corpus::generator::Preset;
    use scholar_corpus::snapshot_until;
    use scholar_rank::{CitationCount, PageRank};

    #[test]
    fn run_produces_one_row_per_ranker() {
        let c = Preset::Tiny.generate(3);
        let truth = planted_merit(&c).unwrap();
        let exp = Experiment { corpus: &c, truth: &truth };
        let rankers: Vec<Box<dyn Ranker>> =
            vec![Box::new(CitationCount), Box::new(PageRank::default())];
        let rows = exp.run(&rankers);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].method, "CitCount");
        for row in &rows {
            assert!(row.pairwise_accuracy > 0.4, "{}: {}", row.method, row.pairwise_accuracy);
            assert!(row.seconds >= 0.0);
            assert!(row.kendall.abs() <= 1.0);
        }
    }

    #[test]
    fn future_citation_truth_favors_real_signal() {
        // Sanity: citation count at the snapshot should beat random at
        // predicting future citations on the generated corpus.
        let c = Preset::Tiny.generate(1);
        let cutoff = {
            let (lo, hi) = c.year_range().unwrap();
            lo + ((hi - lo) as f64 * 0.8) as i32
        };
        let snap = snapshot_until(&c, cutoff);
        let truth = future_citations(&c, &snap, 5);
        let exp = Experiment { corpus: &snap.corpus, truth: &truth };
        let rankers: Vec<Box<dyn Ranker>> = vec![Box::new(CitationCount)];
        let rows = exp.run(&rankers);
        assert!(
            rows[0].pairwise_accuracy > 0.6,
            "citation count should predict future citations: {}",
            rows[0].pairwise_accuracy
        );
    }

    #[test]
    fn temporal_cv_aggregates_sanely() {
        let c = Preset::Tiny.generate(2);
        let rankers: Vec<Box<dyn Ranker>> =
            vec![Box::new(CitationCount), Box::new(PageRank::default())];
        let rows = run_temporal_cv(&c, &rankers, &[0.6, 0.7, 0.8], 5);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.folds, 3);
            assert!(row.mean_pairwise > 0.5, "{}: {}", row.method, row.mean_pairwise);
            assert!(row.std_pairwise >= 0.0 && row.std_pairwise < 0.2);
            assert!(row.mean_spearman.is_finite());
        }
    }

    #[test]
    fn mean_std_helper() {
        let (m, s) = mean_std(&[1.0, 2.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert!((s - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
        let (m2, _) = mean_std(&[f64::NAN, 4.0]);
        assert_eq!(m2, 4.0);
        let (m3, s3) = mean_std(&[]);
        assert!(m3.is_nan() && s3.is_nan());
    }

    #[test]
    fn award_experiment_rows() {
        let c = Preset::Tiny.generate(4);
        let awards = crate::groundtruth::award_set(&c, 5, 0.05);
        let rankers: Vec<Box<dyn Ranker>> =
            vec![Box::new(CitationCount), Box::new(PageRank::default())];
        let rows = run_award_experiment(&c, &awards, &rankers, 20);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!((0.0..=1.0).contains(&row.precision_at_k));
            assert!((0.0..=1.0).contains(&row.recall_at_k));
            assert!(row.mrr > 0.0);
        }
    }
}
