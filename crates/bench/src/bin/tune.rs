//! `tune` — side-by-side view of overall vs cold-start accuracy for a
//! grid of QRank configurations on the AAN-like validation split. This is
//! the tool the shipped defaults were chosen with (see EXPERIMENTS.md
//! "default selection").
//!
//! Every grid point differs only in mixture parameters (λs, σ), so the
//! whole sweep shares one prepared [`QRankEngine`]: the graphs and the
//! structural walks are built once and each configuration costs only the cheap
//! outer fixpoint.
//!
//! ```sh
//! cargo run --release -p scholar-bench --bin tune
//! ```

use scholar::core::SolveScratch;
use scholar::eval::groundtruth::future_citations;
use scholar::eval::metrics::pairwise_accuracy_auto;
use scholar::eval::tables::{fmt_metric, Table};
use scholar::{MixParams, Preset, QRankConfig, QRankEngine};
use scholar_bench::{snapshot_at_frac, FUTURE_WINDOW_YEARS, SEED};

fn main() {
    let c = Preset::AanLike.generate(SEED);
    let snap = snapshot_at_frac(&c, 0.8);
    let truth = future_citations(&c, &snap, FUTURE_WINDOW_YEARS);

    let young: Vec<usize> = snap
        .corpus
        .articles()
        .iter()
        .filter(|a| snap.cutoff - a.year < 2)
        .map(|a| a.id.index())
        .collect();
    let slice = |scores: &[f64], keep: &[usize]| -> f64 {
        let t: Vec<f64> = keep.iter().map(|&i| truth.values[i]).collect();
        let p: Vec<f64> = keep.iter().map(|&i| scores[i]).collect();
        pairwise_accuracy_auto(&t, &p, 0xfeed)
    };

    let mut table = Table::new(
        "QRank configuration sweep: overall vs cold-start (age < 2y) pairwise accuracy",
        &["config", "overall", "cold-start"],
    );

    // One engine serves the whole grid: λ/σ are mixture-only parameters.
    let engine = QRankEngine::build(&snap.corpus, &QRankConfig::default());
    let mut scratch = SolveScratch::new();

    // Reference: pure TWPR — exactly the engine's cached inner walk.
    let (twpr, _) = engine.twpr();
    table.row(vec![
        "TWPR (reference)".into(),
        fmt_metric(pairwise_accuracy_auto(&truth.values, twpr, 0xfeed)),
        fmt_metric(slice(twpr, &young)),
    ]);

    for (lp, lv, lu) in [
        (0.95, 0.03, 0.02),
        (0.9, 0.1, 0.0),
        (0.85, 0.15, 0.0),
        (0.8, 0.2, 0.0),
        (0.9, 0.05, 0.05),
        (0.85, 0.10, 0.05),
        (0.8, 0.1, 0.1),
        (0.7, 0.15, 0.15),
        (0.6, 0.2, 0.2),
    ] {
        for sigma in [0.0, 3.0] {
            let cfg = QRankConfig::default().with_lambdas(lp, lv, lu).with_maturity(sigma);
            let result = engine.solve_with(&MixParams::from_config(&cfg), &mut scratch);
            table.row(vec![
                format!("λ=({lp:.2},{lv:.2},{lu:.2}) σ={sigma:.0}"),
                fmt_metric(pairwise_accuracy_auto(&truth.values, &result.article_scores, 0xfeed)),
                fmt_metric(slice(&result.article_scores, &young)),
            ]);
        }
    }
    println!("{table}");
}
