//! One function per R-Table / R-Figure (DESIGN.md §4).

use crate::{corpus, snapshot_at_frac, FUTURE_WINDOW_YEARS, SEED};
use scholar::corpus::stats::corpus_stats;
use scholar::eval::experiment::{run_award_experiment, EvalRow, Experiment};
use scholar::eval::groundtruth::{award_set, future_citations};
use scholar::eval::metrics::kendall_tau_b;
use scholar::eval::series::SeriesSet;
use scholar::eval::tables::{fmt_metric, fmt_seconds, Table};
use scholar::rank::RankContext;
use scholar::{
    Ablation, CitationCount, PageRank, Preset, QRank, QRankConfig, Ranker, TimeWeightedPageRank,
};
use std::time::Instant;

/// R-Table 1: dataset statistics per preset.
pub fn table1() -> Table {
    let mut t = Table::new(
        "R-Table 1: dataset statistics (synthetic substitutes, DESIGN.md §5)",
        &[
            "dataset",
            "articles",
            "citations",
            "authors",
            "venues",
            "years",
            "refs/art",
            "gini",
            "alpha",
        ],
    );
    for preset in Preset::evaluation_suite() {
        let c = corpus(preset);
        let s = corpus_stats(&c);
        t.row(vec![
            preset.name().to_string(),
            s.articles.to_string(),
            s.citations.to_string(),
            s.authors.to_string(),
            s.venues.to_string(),
            format!("{}-{}", s.first_year, s.last_year),
            format!("{:.1}", s.mean_references),
            format!("{:.3}", s.citation_gini),
            s.citation_alpha.map_or("n/a".into(), |a| format!("{a:.2}")),
        ]);
    }
    t
}

/// An experiment's rows as two tables: the quality columns, which every run
/// reproduces, and the wall-clock seconds, which it does not.
fn quality_and_timing(title: &str, rows: Vec<EvalRow>) -> (Table, Table) {
    let mut quality = Table::new(title, &["method", "pairwise", "spearman", "kendall", "ndcg@50"]);
    let mut timing = Table::new(&format!("{title}: wall time"), &["method", "time"]);
    for r in rows {
        quality.row(vec![
            r.method.clone(),
            fmt_metric(r.pairwise_accuracy),
            fmt_metric(r.spearman),
            fmt_metric(r.kendall),
            fmt_metric(r.ndcg_at_50),
        ]);
        timing.row(vec![r.method, fmt_seconds(r.seconds)]);
    }
    (quality, timing)
}

/// R-Table 2: ranking quality vs future-citation ground truth, one block
/// per dataset preset, each with its wall-time table.
pub fn table2() -> Vec<(Table, Table)> {
    Preset::evaluation_suite()
        .iter()
        .map(|&preset| {
            let c = corpus(preset);
            let snap = snapshot_at_frac(&c, 0.8);
            let truth = future_citations(&c, &snap, FUTURE_WINDOW_YEARS);
            let exp = Experiment { corpus: &snap.corpus, truth: &truth };
            let title = format!(
                "R-Table 2 [{}]: future-citation prediction ({} articles at cutoff {}, {})",
                preset.name(),
                snap.corpus.num_articles(),
                snap.cutoff,
                truth.description
            );
            quality_and_timing(&title, exp.run(&scholar::evaluation_rankers()))
        })
        .collect()
}

/// R-Table 3: award-article retrieval (planted-merit awards).
pub fn table3() -> Table {
    let c = corpus(Preset::AanLike);
    let awards = award_set(&c, 5, 0.02);
    let k = awards.len().max(10);
    let rows = run_award_experiment(&c, &awards, &scholar::evaluation_rankers(), k);
    let mut t = Table::new(
        &format!(
            "R-Table 3 [AAN-like]: award-article retrieval ({} awards, k = {k})",
            awards.len()
        ),
        &["method", "P@k", "R@k", "MRR"],
    );
    for r in rows {
        t.row(vec![
            r.method,
            fmt_metric(r.precision_at_k),
            fmt_metric(r.recall_at_k),
            fmt_metric(r.mrr),
        ]);
    }
    t
}

fn robustness_rankers() -> Vec<Box<dyn Ranker>> {
    vec![
        Box::new(CitationCount),
        Box::new(PageRank::default()),
        Box::new(TimeWeightedPageRank::default()),
        Box::new(QRank::default()),
    ]
}

/// R-Table 4: robustness over time — Kendall τ between the ranking
/// computed at a cutoff and the final ranking, over the articles visible
/// at the cutoff.
pub fn table4() -> Table {
    let c = corpus(Preset::AanLike);
    let fracs = [0.6, 0.7, 0.8, 0.9];
    let rankers = robustness_rankers();
    let final_scores: Vec<Vec<f64>> = rankers.iter().map(|r| r.rank(&c)).collect();
    let mut t = Table::new(
        "R-Table 4 [AAN-like]: rank stability — Kendall tau(ranking at cutoff, final ranking)",
        &["method", "60%", "70%", "80%", "90%"],
    );
    let mut rows: Vec<Vec<String>> = rankers.iter().map(|r| vec![r.name()]).collect();
    for &frac in &fracs {
        let snap = snapshot_at_frac(&c, frac);
        for (ri, ranker) in rankers.iter().enumerate() {
            let snap_scores = ranker.rank(&snap.corpus);
            // Gather the final scores of the same (visible) articles.
            let final_sub: Vec<f64> = (0..snap.corpus.num_articles())
                .map(|i| {
                    let full = snap.full_of[i];
                    final_scores[ri][full.index()]
                })
                .collect();
            let tau = kendall_tau_b(&snap_scores, &final_sub);
            rows[ri].push(fmt_metric(tau));
        }
    }
    for row in rows {
        t.row(row);
    }
    t
}

/// R-Table 5: component ablation on future-citation accuracy. The seven
/// variants run through [`Ablation::sweep`], which shares prepared
/// engines between structurally identical variants (two builds total).
pub fn table5() -> Table {
    let c = corpus(Preset::AanLike);
    let snap = snapshot_at_frac(&c, 0.8);
    let truth = future_citations(&c, &snap, FUTURE_WINDOW_YEARS);
    let base = QRankConfig::default();
    let mut t = Table::new(
        "R-Table 5 [AAN-like]: ablation of QRank components (pairwise accuracy)",
        &["variant", "pairwise", "spearman"],
    );
    for (ab, res) in Ablation::sweep(&base, &snap.corpus) {
        let scores = &res.article_scores;
        t.row(vec![
            ab.name().to_string(),
            fmt_metric(scholar::eval::metrics::pairwise_accuracy_auto(
                &truth.values,
                scores,
                0xfeed,
            )),
            fmt_metric(scholar::eval::metrics::spearman(&truth.values, scores)),
        ]);
    }
    t
}

/// Pairwise accuracy of one config against the standard AAN-like split.
fn accuracy_of(cfg: &QRankConfig, snap_corpus: &scholar::Corpus, truth: &[f64]) -> f64 {
    let scores = QRank::new(cfg.clone()).rank(snap_corpus);
    scholar::eval::metrics::pairwise_accuracy_auto(truth, &scores, 0xfeed)
}

/// R-Fig 1: sensitivity to the edge-decay rate ρ.
pub fn fig1() -> SeriesSet {
    let c = corpus(Preset::AanLike);
    let snap = snapshot_at_frac(&c, 0.8);
    let truth = future_citations(&c, &snap, FUTURE_WINDOW_YEARS);
    let rhos = [0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.6];
    let mut acc = Vec::new();
    for &rho in &rhos {
        acc.push(accuracy_of(&QRankConfig::default().with_rho(rho), &snap.corpus, &truth.values));
    }
    let mut fig = SeriesSet::new(
        "R-Fig 1 [AAN-like]: pairwise accuracy vs edge-decay rho",
        "rho",
        rhos.to_vec(),
    );
    fig.add("QRank", acc);
    fig
}

/// R-Fig 2: sensitivity over the (λ_P, λ_V, λ_U) simplex (step 0.2).
/// Rendered as one series per λ_V with λ_P on the x-axis. All grid points
/// share one structural configuration, so one prepared engine answers the
/// entire simplex.
pub fn fig2() -> SeriesSet {
    let c = corpus(Preset::AanLike);
    let snap = snapshot_at_frac(&c, 0.8);
    let truth = future_citations(&c, &snap, FUTURE_WINDOW_YEARS);
    let steps = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];
    let engine = scholar::QRankEngine::build(&snap.corpus, &QRankConfig::default());
    let mut scratch = scholar::core::SolveScratch::new();
    let mut fig = SeriesSet::new(
        "R-Fig 2 [AAN-like]: pairwise accuracy over the lambda simplex (lambda_U = 1 - P - V)",
        "lambda_P",
        steps.to_vec(),
    );
    for &lv in &steps {
        let mut series = Vec::new();
        for &lp in &steps {
            let lu = 1.0 - lp - lv;
            if lu < -1e-9 {
                series.push(f64::NAN);
            } else {
                let cfg = QRankConfig::default().with_lambdas(lp, lv, lu.max(0.0));
                let res = engine.solve_with(&scholar::MixParams::from_config(&cfg), &mut scratch);
                series.push(scholar::eval::metrics::pairwise_accuracy_auto(
                    &truth.values,
                    &res.article_scores,
                    0xfeed,
                ));
            }
        }
        fig.add(&format!("lambda_V={lv:.1}"), series);
    }
    fig
}

/// R-Fig 3: convergence — L1 residual per iteration for PageRank, TWPR
/// (inner walk), and QRank's outer reinforcement loop.
pub fn fig3() -> SeriesSet {
    let c = corpus(Preset::AanLike);
    let max_pts = 30usize;
    let pad = |mut v: Vec<f64>| -> Vec<f64> {
        v.truncate(max_pts);
        while v.len() < max_pts {
            v.push(f64::NAN);
        }
        v
    };
    let ctx = RankContext::new(&c);
    let pr = PageRank::default().solve_ctx(&ctx).telemetry;
    let twpr = TimeWeightedPageRank::default().solve_ctx(&ctx).telemetry;
    let qr = QRank::default().run(&c);
    let mut fig = SeriesSet::new(
        "R-Fig 3 [AAN-like]: L1 residual by iteration",
        "iteration",
        (1..=max_pts).map(|i| i as f64).collect(),
    );
    fig.add("PageRank", pad(pr.residuals));
    fig.add("TWPR", pad(twpr.residuals));
    fig.add("QRank outer", pad(qr.outer.residuals));
    fig
}

/// R-Fig 4a: wall-time vs corpus size (citation-edge count) for PageRank
/// and QRank. R-Fig 4b: wall-time vs thread count for the article walk on
/// the MAG-like corpus.
pub fn fig4() -> (SeriesSet, SeriesSet) {
    // --- 4a: size scaling. ---
    let rates = [40.0, 80.0, 160.0, 300.0];
    let mut edges_axis = Vec::new();
    let mut pr_times = Vec::new();
    let mut qr_times = Vec::new();
    for &rate in &rates {
        let cfg = scholar::GeneratorConfig {
            initial_articles_per_year: rate,
            ..Preset::MagLike.config(SEED)
        };
        let c = scholar::corpus::CorpusGenerator::new(cfg).generate();
        edges_axis.push(c.num_citations() as f64);
        let t0 = Instant::now();
        let _ = PageRank::default().rank(&c);
        pr_times.push(t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        let _ = QRank::default().rank(&c);
        qr_times.push(t1.elapsed().as_secs_f64());
    }
    let mut fig_a = SeriesSet::new(
        "R-Fig 4a [MAG-like family]: wall seconds vs citation count",
        "citations",
        edges_axis,
    );
    fig_a.add("PageRank", pr_times);
    fig_a.add("QRank", qr_times);

    // --- 4b: thread scaling of the walk kernel itself (graph build and
    // operator setup excluded — those are one-time costs). ---
    let c = corpus(Preset::MagLike);
    let g = c.citation_graph();
    let op = sgraph::RowStochastic::new(&g);
    let n = g.len();
    let mut x = vec![1.0; n];
    sgraph::stochastic::normalize_l1(&mut x);
    let mut y = vec![0.0; n];
    let steps = 50;
    let threads = [1usize, 2, 4, 8];
    let mut times = Vec::new();
    for &th in &threads {
        let t0 = Instant::now();
        for _ in 0..steps {
            op.apply_parallel(&x, &mut y, 0.85, &sgraph::JumpVector::Uniform, th);
            std::mem::swap(&mut x, &mut y);
        }
        times.push(t0.elapsed().as_secs_f64());
    }
    let mut fig_b = SeriesSet::new(
        &format!(
            "R-Fig 4b [MAG-like]: {steps} walk steps ({} edges), wall seconds vs threads",
            g.num_edges()
        ),
        "threads",
        threads.iter().map(|&t| t as f64).collect(),
    );
    fig_b.add("walk kernel", times);
    (fig_a, fig_b)
}

/// R-Fig 5: cold start — pairwise accuracy restricted to articles at most
/// `k` years old at the cutoff, per method.
pub fn fig5() -> SeriesSet {
    let c = corpus(Preset::AanLike);
    let snap = snapshot_at_frac(&c, 0.8);
    let truth = future_citations(&c, &snap, FUTURE_WINDOW_YEARS);
    let ages: Vec<i32> = (1..=8).collect();
    let rankers: Vec<Box<dyn Ranker>> = scholar::evaluation_rankers();
    // Pre-rank once per method; slice per age bucket.
    let all_scores: Vec<Vec<f64>> = rankers.iter().map(|r| r.rank(&snap.corpus)).collect();
    let mut fig = SeriesSet::new(
        "R-Fig 5 [AAN-like]: pairwise accuracy on articles <= k years old at cutoff",
        "max age (years)",
        ages.iter().map(|&a| a as f64).collect(),
    );
    for (ri, ranker) in rankers.iter().enumerate() {
        let mut series = Vec::new();
        for &age in &ages {
            let keep: Vec<usize> = snap
                .corpus
                .articles()
                .iter()
                .filter(|a| snap.cutoff - a.year < age)
                .map(|a| a.id.index())
                .collect();
            let sub_truth: Vec<f64> = keep.iter().map(|&i| truth.values[i]).collect();
            let sub_scores: Vec<f64> = keep.iter().map(|&i| all_scores[ri][i]).collect();
            series.push(scholar::eval::metrics::pairwise_accuracy_auto(
                &sub_truth,
                &sub_scores,
                0xfeed,
            ));
        }
        fig.add(&ranker.name(), series);
    }
    fig
}

/// R-Fig 7: robustness to citation sparsity — Kendall τ between each
/// method's ranking on a subsampled corpus and its ranking on the full
/// corpus, as the kept fraction of citations varies.
pub fn fig7() -> SeriesSet {
    let c = corpus(Preset::AanLike);
    let fractions = [0.2, 0.4, 0.6, 0.8, 1.0];
    let rankers = robustness_rankers();
    let full_scores: Vec<Vec<f64>> = rankers.iter().map(|r| r.rank(&c)).collect();
    let mut fig = SeriesSet::new(
        "R-Fig 7 [AAN-like]: rank stability under citation subsampling (tau vs full ranking)",
        "kept fraction",
        fractions.to_vec(),
    );
    for (ri, ranker) in rankers.iter().enumerate() {
        let mut series = Vec::new();
        for &f in &fractions {
            let sparse = scholar::corpus::perturb::sample_citations(&c, f, SEED);
            let scores = ranker.rank(&sparse);
            series.push(kendall_tau_b(&scores, &full_scores[ri]));
        }
        fig.add(&ranker.name(), series);
    }
    fig
}

/// The power iteration on `ctx`'s TWPR walk at the default parameters and
/// tolerance `tol`: what R-Figs 8 and 9 compare the reverse sweep with.
fn twpr_power_iteration(ctx: &RankContext, tol: f64) -> sgraph::stochastic::PowerIterationResult {
    use sgraph::stochastic::PowerIterationOpts;
    let cfg = scholar::rank::TwprConfig::default();
    let graph = &ctx.decayed_citation(cfg.rho).graph;
    sgraph::RowStochastic::new(graph).stationary(&PowerIterationOpts {
        jump: ctx.recency_jump(cfg.tau, ctx.now()),
        tol,
        ..Default::default()
    })
}

/// R-Fig 8: incremental updates — inner-walk iterations per yearly corpus
/// growth step: the reverse sweep every publish runs, against the power
/// iteration to the same tolerance.
pub fn fig8() -> SeriesSet {
    use scholar::corpus::snapshot_until;
    let c = corpus(Preset::AanLike);
    let (_, last) = c.year_range().unwrap();
    let years: Vec<i32> = ((last - 6)..=last).collect();
    let config = scholar::QRankConfig::default();

    let (mut power_iters, mut sweep_iters) = (Vec::new(), Vec::new());
    for &y in &years {
        let snap = snapshot_until(&c, y);
        let ctx = RankContext::new(&snap.corpus);
        let power = twpr_power_iteration(&ctx, config.twpr.pagerank.tol);
        power_iters.push(power.iterations as f64);
        let swept = QRank::new(config.clone()).run(&snap.corpus);
        sweep_iters.push(swept.twpr_diagnostics.iterations as f64);
    }
    let mut fig = SeriesSet::new(
        "R-Fig 8 [AAN-like]: inner-walk iterations per yearly update, power iteration vs reverse sweep",
        "snapshot year",
        years.iter().map(|&y| y as f64).collect(),
    );
    fig.add("power iteration", power_iters);
    fig.add("reverse sweep", sweep_iters);
    fig
}

/// R-Table 6: extended baselines (bibliometric normalizations and the
/// Monte-Carlo PageRank approximation) on the standard AAN-like split, and
/// its wall-time table.
pub fn table6() -> (Table, Table) {
    use scholar::rank::{
        AgeNormalizedCitations, FusedRanker, FusionRule, MonteCarloPageRank, RecentCitations,
        RescaledRanker,
    };
    let c = corpus(Preset::AanLike);
    let snap = snapshot_at_frac(&c, 0.8);
    let truth = future_citations(&c, &snap, FUTURE_WINDOW_YEARS);
    let exp = Experiment { corpus: &snap.corpus, truth: &truth };
    let rankers: Vec<Box<dyn Ranker>> = vec![
        Box::new(CitationCount),
        Box::new(AgeNormalizedCitations::default()),
        Box::new(RecentCitations::default()),
        Box::new(MonteCarloPageRank::default()),
        Box::new(PageRank::default()),
        Box::new(RescaledRanker::new(Box::new(PageRank::default()), 3)),
        Box::new(TimeWeightedPageRank::default()),
        Box::new(QRank::default()),
        Box::new(FusedRanker::new(
            vec![Box::new(QRank::default()), Box::new(RecentCitations::default())],
            FusionRule::default(),
        )),
    ];
    quality_and_timing(
        "R-Table 6 [AAN-like]: extended baselines, future-citation prediction",
        exp.run(&rankers),
    )
}

/// R-Table 2b: paired-bootstrap significance of each method's Spearman
/// advantage over PageRank on the AAN-like future-citation split.
pub fn significance() -> Table {
    use scholar::eval::significance::{paired_bootstrap, BootstrapMetric};
    let c = corpus(Preset::AanLike);
    let snap = snapshot_at_frac(&c, 0.8);
    let truth = future_citations(&c, &snap, FUTURE_WINDOW_YEARS);
    let baseline = PageRank::default().rank(&snap.corpus);
    let mut t = Table::new(
        "R-Table 2b [AAN-like]: paired bootstrap (Spearman delta vs PageRank, 1000 replicates)",
        &["method", "delta", "95% CI low", "95% CI high", "p", "significant"],
    );
    for ranker in scholar::evaluation_rankers() {
        if ranker.name() == "PageRank" {
            continue;
        }
        let scores = ranker.rank(&snap.corpus);
        let res = paired_bootstrap(
            &truth.values,
            &scores,
            &baseline,
            BootstrapMetric::Spearman,
            1000,
            0xb007,
        );
        t.row(vec![
            ranker.name(),
            format!("{:+.4}", res.observed_delta),
            format!("{:+.4}", res.ci_low),
            format!("{:+.4}", res.ci_high),
            format!("{:.3}", res.p_value),
            if res.significant() { "yes".into() } else { "no".into() },
        ]);
    }
    t
}

/// `g`'s edges as `(source, target, weight)`, ordered by source and then
/// target: its in-edges, target-ascending as stored, stably sorted by
/// source.
fn edges_by_source(g: &sgraph::CsrGraph) -> Vec<(u32, u32, f64)> {
    let mut edges: Vec<(u32, u32, f64)> = g
        .nodes()
        .flat_map(|v| {
            let row = g.in_neighbors(v).iter().zip(g.in_edge_weights(v));
            row.map(move |(&u, &w)| (u.0, v.0, w))
        })
        .collect();
    edges.sort_by_key(|e| e.0);
    edges
}

/// The reverse sweep on `ctx`'s TWPR walk at tolerance `tol` with article
/// `i` renumbered `new_id[i]`: how the pass count depends on the ids
/// following publication order.
fn twpr_sweep_renumbered(
    ctx: &RankContext,
    tol: f64,
    new_id: &[u32],
) -> sgraph::stochastic::PowerIterationResult {
    use sgraph::stochastic::{JumpVector, PowerIterationOpts};
    let cfg = scholar::rank::TwprConfig::default();
    let graph = &ctx.decayed_citation(cfg.rho).graph;
    let mut b = sgraph::GraphBuilder::new(graph.num_nodes());
    for (u, v, w) in edges_by_source(graph) {
        b.add_edge(sgraph::NodeId(new_id[u as usize]), sgraph::NodeId(new_id[v as usize]), w);
    }
    let renumbered = b.build();
    let jump = ctx.recency_jump(cfg.tau, ctx.now()).to_dense(new_id.len());
    let mut moved = vec![0.0; jump.len()];
    for (i, &j) in new_id.iter().enumerate() {
        moved[j as usize] = jump[i];
    }
    let opts = PowerIterationOpts { jump: JumpVector::weighted(moved), tol, ..Default::default() };
    sgraph::reverse_sweep(&sgraph::RowStochastic::new(&renumbered), &opts)
}

/// R-Fig 9: solver comparison — L1 residual per iteration (power
/// iteration) or per pass (reverse sweep, whose last entry is its residual
/// step) on the AAN-like TWPR walk; the sweep also on the same walk with
/// the article ids shuffled and reversed (newest first), where citations
/// no longer run from larger ids to smaller ones.
pub fn fig9() -> SeriesSet {
    let c = corpus(Preset::AanLike);
    let ctx = RankContext::new(&c);
    let power = twpr_power_iteration(&ctx, 1e-12);
    let sweep = TimeWeightedPageRank::new(scholar::rank::TwprConfig {
        pagerank: scholar::rank::PageRankConfig { tol: 1e-12, ..Default::default() },
        ..Default::default()
    })
    .solve_ctx(&ctx)
    .telemetry;
    let n = c.num_articles() as u32;
    // A fixed pseudo-random order: ids sorted by a SplitMix64 hash.
    let mix = |i: u32| {
        let mut x = (i as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    };
    let mut order: Vec<u32> = (0..n).collect();
    order.sort_by_key(|&i| mix(i));
    let mut shuffled = vec![0u32; n as usize];
    for (k, &i) in order.iter().enumerate() {
        shuffled[i as usize] = k as u32;
    }
    let newest_first: Vec<u32> = (0..n).rev().collect();
    let series = [
        ("power iteration", power.residuals),
        ("reverse sweep", sweep.residuals),
        ("sweep, shuffled ids", twpr_sweep_renumbered(&ctx, 1e-12, &shuffled).residuals),
        ("sweep, newest-first ids", twpr_sweep_renumbered(&ctx, 1e-12, &newest_first).residuals),
    ];
    let max_pts = 40usize.min(series.iter().map(|(_, r)| r.len()).max().unwrap_or(0));
    let mut fig = SeriesSet::new(
        "R-Fig 9 [AAN-like]: solver comparison, L1 residual per iteration or pass (d = 0.85)",
        "iteration",
        (1..=max_pts).map(|i| i as f64).collect(),
    );
    for (name, mut residuals) in series {
        residuals.resize(max_pts, f64::NAN);
        fig.add(name, residuals);
    }
    fig
}

/// R-Table 8: temporal cross-validation — the R-Table 2 evaluation
/// repeated at five cutoffs (60%–90% of the timeline), mean ± std per
/// method. Guards against a single lucky split.
pub fn table8() -> Table {
    let c = corpus(Preset::AanLike);
    let rows = scholar::eval::run_temporal_cv(
        &c,
        &scholar::evaluation_rankers(),
        &[0.6, 0.675, 0.75, 0.825, 0.9],
        FUTURE_WINDOW_YEARS,
    );
    let mut t = Table::new(
        "R-Table 8 [AAN-like]: temporal cross-validation over 5 cutoffs (mean ± std)",
        &["method", "pairwise", "spearman", "folds"],
    );
    for r in rows {
        t.row(vec![
            r.method,
            format!("{:.4} ± {:.4}", r.mean_pairwise, r.std_pairwise),
            format!("{:.4} ± {:.4}", r.mean_spearman, r.std_spearman),
            r.folds.to_string(),
        ]);
    }
    t
}

/// R-Table 7: score-distribution concentration per method (AAN-like).
pub fn table7() -> Table {
    let c = corpus(Preset::AanLike);
    let mut t = Table::new(
        "R-Table 7 [AAN-like]: score concentration per method",
        &["method", "gini", "top1% mass", "top10% mass", "max/mean", "dead tail"],
    );
    for ranker in scholar::evaluation_rankers() {
        let scores = ranker.rank(&c);
        let Some(s) = scholar::eval::score_stats::score_stats(&scores) else {
            continue;
        };
        t.row(vec![
            ranker.name(),
            format!("{:.3}", s.gini),
            format!("{:.3}", s.top1pct_mass),
            format!("{:.3}", s.top10pct_mass),
            format!("{:.0}", s.max_over_mean),
            format!("{:.3}", s.dead_tail_fraction),
        ]);
    }
    t
}

/// R-Fig 6: sensitivity to damping d and jump recency τ.
pub fn fig6() -> (SeriesSet, SeriesSet) {
    let c = corpus(Preset::AanLike);
    let snap = snapshot_at_frac(&c, 0.8);
    let truth = future_citations(&c, &snap, FUTURE_WINDOW_YEARS);

    let dampings = [0.5, 0.65, 0.8, 0.85, 0.9, 0.95];
    let mut d_acc = Vec::new();
    for &d in &dampings {
        d_acc.push(accuracy_of(
            &QRankConfig::default().with_damping(d),
            &snap.corpus,
            &truth.values,
        ));
    }
    let mut fig_d = SeriesSet::new(
        "R-Fig 6a [AAN-like]: pairwise accuracy vs damping",
        "damping",
        dampings.to_vec(),
    );
    fig_d.add("QRank", d_acc);

    let taus = [0.0, 0.025, 0.05, 0.1, 0.2, 0.4];
    let mut t_acc = Vec::new();
    for &tau in &taus {
        t_acc.push(accuracy_of(&QRankConfig::default().with_tau(tau), &snap.corpus, &truth.values));
    }
    let mut fig_t = SeriesSet::new(
        "R-Fig 6b [AAN-like]: pairwise accuracy vs jump recency tau",
        "tau",
        taus.to_vec(),
    );
    fig_t.add("QRank", t_acc);
    (fig_d, fig_t)
}

/// The author walk QRank's structural author prior was before it became a
/// count: the stationary of the walk over the author citation graph
/// `B_U·G_A·B_Uᵀ − diag` (decayed citations between the authors' harmonic
/// byline weights, self-citations dropped), here materialised. R-Table 9's
/// baseline row.
fn author_walk_prior(net: &scholar::core::HetNet, cfg: &QRankConfig) -> Vec<f64> {
    use sgraph::{GraphBuilder, JumpVector, NodeId, RowStochastic};
    let (g, b) = (&net.citation, &net.authorship);
    let mut edges = GraphBuilder::new(b.num_left()).self_loops(false);
    for (src, dst, w) in edges_by_source(g) {
        for (&u, &bu) in b.left_of(src).iter().zip(b.left_weights_of(src)) {
            for (&v, &bv) in b.left_of(dst).iter().zip(b.left_weights_of(dst)) {
                edges.add_edge(NodeId(u), NodeId(v), bu * w * bv);
            }
        }
    }
    let graph = edges.build();
    let walk = RowStochastic::new(&graph);
    let (mut su, _) =
        scholar::rank::pagerank::pagerank_on_store(&walk, &cfg.twpr.pagerank, JumpVector::Uniform);
    sgraph::stochastic::normalize_l1(&mut su);
    su
}

/// R-Table 9: what the structural author prior buys. QRank at its default
/// mix with `su` the author walk's stationary (the prior until it became a
/// count), the byline-weighted raw citation count (the shipped prior at
/// ρ = 0, where every citation weighs exactly 1), and the shipped count
/// of decayed citations: the Spearman correlation of each `su` with the
/// walk's; pairwise accuracy overall and on articles under 2 years old at
/// the cutoff; nDCG@50. Each count's cells carry its paired-bootstrap
/// delta against the walk (200 replicates, 95% interval).
pub fn table9() -> Table {
    use scholar::eval::metrics::spearman;
    use scholar::eval::significance::{paired_bootstrap, BootstrapMetric};
    let mut t = Table::new(
        "R-Table 9: the author prior, walk vs byline-weighted citation count \
         (delta vs walk [95% CI], 200 paired-bootstrap replicates)",
        &["dataset", "su", "rho_s(su, walk)", "pairwise", "pairwise <2y", "ndcg@50"],
    );
    let columns = [
        (BootstrapMetric::PairwiseAccuracy, false),
        (BootstrapMetric::PairwiseAccuracy, true),
        (BootstrapMetric::NdcgAt(50), false),
    ];
    for preset in Preset::evaluation_suite() {
        let c = corpus(preset);
        let snap = snapshot_at_frac(&c, 0.8);
        let truth = future_citations(&c, &snap, FUTURE_WINDOW_YEARS);
        let cfg = QRankConfig::default();
        let mut plan = scholar::QRankEngine::build(&snap.corpus, &cfg);
        let (sv, decayed) = {
            let (sv, su) = plan.structural_stationaries();
            (sv.to_vec(), su.to_vec())
        };
        let walk = author_walk_prior(plan.net(), &cfg);
        let raw_plan = scholar::QRankEngine::build(&snap.corpus, &cfg.clone().with_rho(0.0));
        let raw = raw_plan.structural_stationaries().1.to_vec();
        let young: Vec<usize> = snap
            .corpus
            .articles()
            .iter()
            .filter(|a| snap.cutoff - a.year < 2)
            .map(|a| a.id.index())
            .collect();
        let slice = |v: &[f64], young_only: bool| match young_only {
            true => young.iter().map(|&i| v[i]).collect(),
            false => v.to_vec(),
        };

        let mut base = Vec::new();
        let priors =
            [("author walk", walk.clone()), ("raw count", raw), ("decayed count", decayed)];
        for (name, su) in priors {
            let rho = spearman(&walk, &su);
            plan = plan.with_structural_stationaries(sv.clone(), su, None);
            let scores = plan.solve(&scholar::MixParams::from_config(&cfg)).article_scores;
            if base.is_empty() {
                base = scores.clone();
            }
            let mut cells = vec![preset.name().to_string(), name.to_string(), format!("{rho:.4}")];
            for (metric, young_only) in columns {
                let (truth, got, want) = (
                    slice(&truth.values, young_only),
                    slice(&scores, young_only),
                    slice(&base, young_only),
                );
                let value = fmt_metric(metric.eval(&truth, &got));
                cells.push(if name == "author walk" {
                    value
                } else {
                    let d = paired_bootstrap(&truth, &got, &want, metric, 200, 0xb007);
                    format!(
                        "{value} ({:+.4} [{:+.4}, {:+.4}])",
                        d.observed_delta, d.ci_low, d.ci_high
                    )
                });
            }
            t.row(cells);
        }
    }
    t
}
