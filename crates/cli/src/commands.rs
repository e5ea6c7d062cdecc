//! Subcommand implementations. Every command writes human output to a
//! caller-provided sink so the logic is unit-testable.

use crate::args::Args;
use scholar::corpus::loader::{aan, jsonl, mag, LoadOptions, MissingYearPolicy};
use scholar::corpus::stats::corpus_stats;
use scholar::corpus::{snapshot_until, Preset};
use scholar::eval::groundtruth::future_citations;
use scholar::eval::tables::{fmt_metric, fmt_seconds, Table};
use scholar::eval::Experiment;
use scholar::rank::personalized::{related_articles, PersonalizedConfig};
use scholar::rank::scores::top_k;
use scholar::rank::{PageRankConfig, RankContext, RankOutput, TwprConfig};
use scholar::{Corpus, QRank, QRankConfig, Ranker};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

type CmdResult = Result<(), String>;

fn wr<W: Write>(out: &mut W, text: std::fmt::Arguments<'_>) -> CmdResult {
    out.write_fmt(text).map_err(|e| e.to_string())
}

macro_rules! outln {
    ($out:expr, $($arg:tt)*) => {
        wr($out, format_args!("{}\n", format_args!($($arg)*)))?
    };
}

/// Loader options from the command line: `--missing-year error|drop|YEAR`
/// (default `error` — records without a year abort the load instead of
/// silently becoming year-0 articles that time-decay kernels zero out).
fn load_options(args: &Args) -> Result<LoadOptions, String> {
    let mut opts = LoadOptions::default();
    if let Some(policy) = args.get("missing-year") {
        opts.missing_year = match policy {
            "error" => MissingYearPolicy::Error,
            "drop" => MissingYearPolicy::Drop,
            other => match other.parse() {
                Ok(y) => MissingYearPolicy::Impute(y),
                Err(_) => {
                    return Err(format!("invalid --missing-year '{other}' (error|drop|YEAR)"))
                }
            },
        };
    }
    Ok(opts)
}

fn load_corpus(path: &str, args: &Args) -> Result<Corpus, String> {
    jsonl::read_jsonl_file(Path::new(path), &load_options(args)?)
        .map_err(|e| format!("cannot load '{path}': {e}"))
}

/// Read the QRank configuration: `--config file.json` (partial JSON —
/// missing fields keep their defaults) or the built-in defaults. A
/// `--threads N` flag overrides the worker count from either source
/// (`--threads 1` forces sequential execution; the `SCHOLAR_THREADS`
/// environment variable sets the default instead).
fn qrank_config(args: &Args) -> Result<QRankConfig, String> {
    let mut cfg = match args.get("config") {
        None => QRankConfig::default(),
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read config '{path}': {e}"))?;
            let cfg = QRankConfig::from_json_str(&text)
                .map_err(|e| format!("bad config '{path}': {e}"))?;
            cfg.validate().map_err(|e| format!("invalid config '{path}': {e}"))?;
            cfg
        }
    };
    if let Some(t) = args.get("threads") {
        let threads: usize =
            t.parse().map_err(|_| format!("invalid --threads '{t}' (positive integer)"))?;
        if threads == 0 {
            return Err("--threads must be >= 1".into());
        }
        cfg.twpr.pagerank.threads = threads;
    }
    Ok(cfg)
}

/// `scholar generate --preset tiny --seed 1 --out corpus.jsonl`, or the
/// out-of-core form `--preset mag-scale --articles N --out DIR`, which
/// streams a columnar store instead of materializing a corpus in RAM.
pub fn generate<W: Write>(args: &Args, out: &mut W) -> CmdResult {
    let seed: u64 = args.get_parsed("seed", 42)?;
    let out_path = args.get("out").ok_or("missing --out FILE")?;
    let preset = match args.get("preset").unwrap_or("tiny") {
        "tiny" => Preset::Tiny,
        "aan" => Preset::AanLike,
        "dblp" => Preset::DblpLike,
        "mag" => Preset::MagLike,
        "mag-scale" => {
            let articles: usize = args.get_parsed("articles", 10_000_000)?;
            std::fs::create_dir_all(out_path)
                .map_err(|e| format!("cannot create '{out_path}': {e}"))?;
            let stats =
                scholar::corpus::generator::generate_mag_scale(Path::new(out_path), articles, seed)
                    .map_err(|e| e.to_string())?;
            outln!(
                out,
                "wrote colstore {}: {} articles, {} citations, {} authors, {} venues (generation {:016x})",
                out_path,
                stats.articles,
                stats.citations,
                stats.authors,
                stats.venues,
                stats.generation
            );
            return Ok(());
        }
        other => return Err(format!("unknown preset '{other}' (tiny|aan|dblp|mag|mag-scale)")),
    };
    let corpus = preset.generate(seed);
    jsonl::write_jsonl_file(&corpus, Path::new(out_path)).map_err(|e| e.to_string())?;
    outln!(
        out,
        "wrote {}: {} articles, {} citations",
        out_path,
        corpus.num_articles(),
        corpus.num_citations()
    );
    Ok(())
}

/// `scholar stats corpus.jsonl`
pub fn stats<W: Write>(args: &Args, out: &mut W) -> CmdResult {
    let corpus = load_corpus(args.positional(0, "corpus path")?, args)?;
    outln!(out, "{}", corpus_stats(&corpus));
    let report = scholar::corpus::validate::quality_report(&corpus);
    outln!(
        out,
        "\ndata quality: {} time-travel citations, {} authorless, {} reference-less",
        report.time_travel_citations,
        report.articles_without_authors,
        report.articles_without_references
    );
    Ok(())
}

/// The power-iteration settings `--method twpr|pagerank` solve with: the
/// defaults, on the worker count `--threads` or the config chose.
fn walk_config(cfg: &QRankConfig) -> PageRankConfig {
    PageRankConfig { threads: cfg.twpr.pagerank.threads, ..PageRankConfig::default() }
}

/// The ranker `--method NAME` selects, configured by `--config` and
/// `--threads` through `cfg`.
fn ranker_by_name(name: &str, cfg: &QRankConfig) -> Result<Box<dyn Ranker>, String> {
    let walk = walk_config(cfg);
    Ok(match name {
        "qrank" => Box::new(QRank::new(cfg.clone())),
        "twpr" => Box::new(scholar::TimeWeightedPageRank::new(TwprConfig {
            pagerank: walk,
            ..TwprConfig::default()
        })),
        "pagerank" => Box::new(scholar::PageRank::new(walk)),
        "cc" => Box::new(scholar::CitationCount),
        "hits" => Box::new(scholar::Hits::default()),
        "citerank" => Box::new(scholar::CiteRank::default()),
        "futurerank" => Box::new(scholar::FutureRank::default()),
        "prank" => Box::new(scholar::PRank::default()),
        other => {
            return Err(format!(
                "unknown method '{other}' (qrank|twpr|pagerank|cc|hits|citerank|futurerank|prank)"
            ))
        }
    })
}

/// `scholar rank corpus.jsonl --method qrank --top 20 [--explain] [--json]`,
/// or `scholar rank STORE_DIR --store mmap ...` to rank an out-of-core
/// columnar store through the mmap backend.
pub fn rank<W: Write>(args: &Args, out: &mut W) -> CmdResult {
    match args.get("store").unwrap_or("ram") {
        "ram" => {}
        "mmap" => return rank_mmap(args, out),
        other => return Err(format!("unknown --store '{other}' (ram|mmap)")),
    }
    let corpus = load_corpus(args.positional(0, "corpus path")?, args)?;
    let method = args.get("method").unwrap_or("qrank");
    let top: usize = args.get_parsed("top", 20)?;
    let cfg = qrank_config(args)?;
    if args.has_switch("explain") && method != "qrank" {
        return Err("--explain is only available for --method qrank".into());
    }
    // The qrank path goes through the prepared engine so one build + one
    // solve serves both the score listing and the optional explanations.
    let (method_name, scores, telemetry, qrank_run) = if method == "qrank" {
        let built = Instant::now();
        let engine = scholar::QRankEngine::build(&corpus, &cfg);
        let build_secs = built.elapsed().as_secs_f64();
        let solved = Instant::now();
        let result = engine.solve(&scholar::MixParams::from_config(&cfg));
        let telemetry = result.telemetry(build_secs, solved.elapsed().as_secs_f64());
        let scores = result.article_scores.clone();
        ("QRank".to_string(), scores, telemetry, Some((engine, result)))
    } else {
        let ranker = ranker_by_name(method, &cfg)?;
        let solved = ranker.solve_ctx(&RankContext::new(&corpus));
        (ranker.name(), solved.scores, solved.telemetry, None)
    };
    let best = top_k(&scores, top);

    if args.has_switch("json") {
        let rows: Vec<sjson::Value> = best
            .iter()
            .enumerate()
            .map(|(pos, &i)| {
                let a = &corpus.articles()[i];
                sjson::ObjectBuilder::new()
                    .field("rank", pos + 1)
                    .field("id", u64::from(a.id.0))
                    .field("title", a.title.as_str())
                    .field("year", a.year)
                    .field("venue", corpus.venue(a.venue).name.as_str())
                    .field("score", scores[i])
                    .build()
            })
            .collect();
        outln!(out, "{}", sjson::Value::Array(rows).to_string_pretty());
        return Ok(());
    }

    outln!(out, "top {} articles by {}:", best.len(), method_name);
    for (pos, &i) in best.iter().enumerate() {
        let a = &corpus.articles()[i];
        outln!(
            out,
            "{:>3}. [{:.6}] {} ({}, {})",
            pos + 1,
            scores[i],
            a.title,
            a.year,
            corpus.venue(a.venue).name
        );
    }
    if telemetry.iterations == 0 {
        outln!(
            out,
            "\nsolver: closed form (build {}, solve {})",
            fmt_seconds(telemetry.build_secs),
            fmt_seconds(telemetry.solve_secs)
        );
    } else {
        outln!(
            out,
            "\nsolver: {} iterations{}, final residual {:.2e}, build {}, solve {}",
            telemetry.iterations,
            if telemetry.converged { "" } else { " (NOT converged)" },
            telemetry.final_residual().unwrap_or(0.0),
            fmt_seconds(telemetry.build_secs),
            fmt_seconds(telemetry.solve_secs)
        );
    }

    if args.has_switch("explain") {
        let (engine, result) = qrank_run.as_ref().expect("--explain implies the qrank path ran");
        let explainer = scholar::core::Explainer::from_engine(&corpus, engine, result);
        outln!(out, "\nexplanations:");
        for &i in best.iter().take(5) {
            let e = explainer.explain(scholar::corpus::ArticleId(i as u32), 3, &cfg);
            wr(out, format_args!("{}", e.render(&corpus)))?;
        }
    }
    Ok(())
}

/// The `--store mmap` arm of [`rank`]: open a columnar store directory
/// and rank it through the mmap backend without materializing the corpus
/// in RAM. Scores are bit-identical to the in-RAM path; only the listing
/// is leaner (ids and years — it reads none of the store's string columns).
fn rank_mmap<W: Write>(args: &Args, out: &mut W) -> CmdResult {
    let dir = args.positional(0, "colstore directory")?;
    let method = args.get("method").unwrap_or("qrank");
    let top: usize = args.get_parsed("top", 20)?;
    let cfg = qrank_config(args)?;
    if args.has_switch("explain") {
        return Err(
            "--explain needs article metadata; it is not available with --store mmap".into()
        );
    }
    let store = scholar::corpus::colstore::ColStore::open(Path::new(dir))
        .map_err(|e| format!("cannot open colstore '{dir}': {e}"))?;
    let ctx = RankContext::from_colstore(&store);
    let ranker = ranker_by_name(method, &cfg)?;
    let RankOutput { scores, telemetry } = ranker.solve_ctx(&ctx);
    let best = top_k(&scores, top);
    let years = ctx.years();

    if args.has_switch("json") {
        let rows: Vec<sjson::Value> = best
            .iter()
            .enumerate()
            .map(|(pos, &i)| {
                sjson::ObjectBuilder::new()
                    .field("rank", pos + 1)
                    .field("id", i as u64)
                    .field("year", years[i])
                    .field("score", scores[i])
                    .build()
            })
            .collect();
        outln!(out, "{}", sjson::Value::Array(rows).to_string_pretty());
        return Ok(());
    }

    outln!(out, "top {} articles by {} (colstore {}):", best.len(), ranker.name(), dir);
    for (pos, &i) in best.iter().enumerate() {
        outln!(out, "{:>3}. [{:.6}] article-{} ({})", pos + 1, scores[i], i, years[i]);
    }
    outln!(
        out,
        "\nsolver: {} iterations{}, build {}, solve {}",
        telemetry.iterations,
        if telemetry.converged { "" } else { " (NOT converged)" },
        fmt_seconds(telemetry.build_secs),
        fmt_seconds(telemetry.solve_secs)
    );
    Ok(())
}

/// `scholar ablate corpus.jsonl [--json] [--config FILE] [--threads N]`
///
/// Runs all seven ablation variants of R-Table 5 over one corpus, sharing
/// prepared engines between structurally identical variants, and reports
/// how far each ablated ranking drifts from the full model.
pub fn ablate<W: Write>(args: &Args, out: &mut W) -> CmdResult {
    let corpus = load_corpus(args.positional(0, "corpus path")?, args)?;
    let cfg = qrank_config(args)?;
    let swept = scholar::Ablation::sweep(&cfg, &corpus);
    let full = swept
        .iter()
        .find(|(ab, _)| *ab == scholar::Ablation::Full)
        .map(|(_, res)| res.article_scores.clone())
        .expect("sweep always contains the full model");

    if args.has_switch("json") {
        let rows: Vec<sjson::Value> = swept
            .iter()
            .map(|(ab, res)| {
                sjson::ObjectBuilder::new()
                    .field("variant", ab.name().trim())
                    .field("outer_iterations", res.outer.iterations)
                    .field("inner_iterations", res.twpr_diagnostics.iterations)
                    .field("converged", res.outer.converged)
                    .field(
                        "l1_vs_full",
                        scholar::graph::stochastic::l1_distance(&res.article_scores, &full),
                    )
                    .field("top_article", top_k(&res.article_scores, 1)[0])
                    .build()
            })
            .collect();
        outln!(out, "{}", sjson::Value::Array(rows).to_string_pretty());
        return Ok(());
    }

    let mut table = Table::new(
        &format!("ablation sweep over {} articles (shared engines)", corpus.num_articles()),
        &["variant", "outer iters", "inner iters", "L1 vs full", "top article"],
    );
    for (ab, res) in &swept {
        let l1 = scholar::graph::stochastic::l1_distance(&res.article_scores, &full);
        let best = top_k(&res.article_scores, 1)[0];
        table.row(vec![
            ab.name().to_string(),
            format!("{}", res.outer.iterations),
            format!("{}", res.twpr_diagnostics.iterations),
            format!("{l1:.3e}"),
            corpus.articles()[best].title.clone(),
        ]);
    }
    outln!(out, "{table}");
    Ok(())
}

/// `scholar related corpus.jsonl --seeds 12,99 --top 10`
pub fn related<W: Write>(args: &Args, out: &mut W) -> CmdResult {
    let corpus = load_corpus(args.positional(0, "corpus path")?, args)?;
    let seeds_raw = args.get("seeds").ok_or("missing --seeds ID[,ID...]")?;
    let top: usize = args.get_parsed("top", 10)?;
    let mut seeds = Vec::new();
    for tok in seeds_raw.split(',') {
        let id: u32 =
            tok.trim().parse().map_err(|_| format!("invalid article id '{tok}' in --seeds"))?;
        if id as usize >= corpus.num_articles() {
            return Err(format!(
                "article id {id} out of range (corpus has {})",
                corpus.num_articles()
            ));
        }
        seeds.push(scholar::corpus::ArticleId(id));
    }
    outln!(out, "seeds:");
    for &s in &seeds {
        let a = corpus.article(s);
        outln!(out, "  - [{}] {} ({})", s, a.title, a.year);
    }
    let hits = related_articles(&corpus, &seeds, top, &PersonalizedConfig::default());
    outln!(out, "\nrelated articles (personalized lift over global PageRank):");
    for (pos, (id, lift)) in hits.iter().enumerate() {
        let a = corpus.article(*id);
        outln!(out, "{:>3}. [{:+.3e}] {} ({})", pos + 1, lift, a.title, a.year);
    }
    Ok(())
}

/// `scholar analyze corpus.jsonl`
pub fn analyze<W: Write>(args: &Args, out: &mut W) -> CmdResult {
    use scholar::corpus::analysis::{
        citation_age_histogram, h_index, mean_citation_age, self_citation_rate, venue_insularity,
    };
    let corpus = load_corpus(args.positional(0, "corpus path")?, args)?;
    outln!(out, "{}", corpus_stats(&corpus));

    if let Some(age) = mean_citation_age(&corpus) {
        outln!(out, "\nmean citation age: {age:.1} years");
        let hist = citation_age_histogram(&corpus);
        let total: usize = hist.iter().sum();
        for (a, &n) in hist.iter().enumerate().take(8) {
            let bar = "#".repeat((n * 40 / total.max(1)).min(40));
            outln!(out, "  {a:>2}y {n:>6} {bar}");
        }
    }
    if let Some(rate) = self_citation_rate(&corpus) {
        outln!(out, "self-citation rate: {:.1}%", rate * 100.0);
    }
    let ins = venue_insularity(&corpus);
    let by_venue = corpus.articles_by_venue();
    let mut venues: Vec<usize> = (0..corpus.num_venues()).collect();
    venues.sort_by_key(|&v| std::cmp::Reverse(by_venue[v].len()));
    outln!(out, "\nlargest venues (insularity = in-venue citation share):");
    for &v in venues.iter().take(5) {
        outln!(
            out,
            "  {:<24} {:>6} articles, {:>5.1}% insular",
            corpus.venues()[v].name,
            by_venue[v].len(),
            ins[v] * 100.0
        );
    }
    let h = h_index(&corpus);
    let hf: Vec<f64> = h.iter().map(|&x| x as f64).collect();
    outln!(out, "\ntop authors by within-corpus h-index:");
    for idx in top_k(&hf, 5) {
        outln!(out, "  h={:<3} {}", h[idx], corpus.authors()[idx].name);
    }
    Ok(())
}

/// `scholar coldstart corpus.jsonl --venue NAME --authors NAME[,NAME...]`
pub fn coldstart<W: Write>(args: &Args, out: &mut W) -> CmdResult {
    let corpus = load_corpus(args.positional(0, "corpus path")?, args)?;
    let venue_name = args.get("venue").ok_or("missing --venue NAME")?;
    let venue = corpus
        .venues()
        .iter()
        .find(|v| v.name == venue_name)
        .map(|v| v.id)
        .ok_or_else(|| format!("unknown venue '{venue_name}'"))?;
    let mut authors = Vec::new();
    if let Some(names) = args.get("authors") {
        for name in names.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let id = corpus
                .authors()
                .iter()
                .find(|u| u.name == name)
                .map(|u| u.id)
                .ok_or_else(|| format!("unknown author '{name}'"))?;
            authors.push(id);
        }
    }
    let cfg = qrank_config(args)?;
    let mix = scholar::MixParams::from_config(&cfg);
    let result = QRank::new(cfg).run(&corpus);
    let scorer = scholar::ColdStartScorer::from_mix(&result, &mix);
    let score = scorer.score(venue, &authors);
    let pct = scorer.percentile_among(score, &result, &corpus) * 100.0;
    outln!(
        out,
        "a new submission at '{venue_name}' by [{}]",
        authors.iter().map(|&u| corpus.author(u).name.clone()).collect::<Vec<_>>().join(", ")
    );
    outln!(out, "  cold-start score: {score:.3e}");
    outln!(out, "  would enter the index at the {pct:.1}th percentile");
    Ok(())
}

/// `scholar eval corpus.jsonl --cutoff-frac 0.8 --window 5`
pub fn eval<W: Write>(args: &Args, out: &mut W) -> CmdResult {
    let corpus = load_corpus(args.positional(0, "corpus path")?, args)?;
    let frac: f64 = args.get_parsed("cutoff-frac", 0.8)?;
    let window: i32 = args.get_parsed("window", 5)?;
    if !(0.0..=1.0).contains(&frac) {
        return Err("--cutoff-frac must be in [0, 1]".into());
    }
    let (first, last) = corpus.year_range().ok_or("corpus is empty")?;
    let cutoff = first + ((last - first) as f64 * frac) as i32;
    let snap = snapshot_until(&corpus, cutoff);
    if snap.corpus.num_articles() < 10 {
        return Err(format!("only {} articles at cutoff {cutoff}", snap.corpus.num_articles()));
    }
    let truth = future_citations(&corpus, &snap, window);
    let exp = Experiment { corpus: &snap.corpus, truth: &truth };
    let rows = exp.run(&scholar::evaluation_rankers());
    let mut table = Table::new(
        &format!(
            "future-citation prediction: {} articles at cutoff {cutoff}, {}",
            snap.corpus.num_articles(),
            truth.description
        ),
        &["method", "pairwise", "spearman", "kendall", "ndcg@50", "iters", "build/solve", "time"],
    );
    for r in rows {
        let t = &r.telemetry;
        table.row(vec![
            r.method,
            fmt_metric(r.pairwise_accuracy),
            fmt_metric(r.spearman),
            fmt_metric(r.kendall),
            fmt_metric(r.ndcg_at_50),
            format!("{}{}", t.iterations, if t.converged { "" } else { "*" }),
            format!("{}/{}", fmt_seconds(t.build_secs), fmt_seconds(t.solve_secs)),
            fmt_seconds(r.seconds),
        ]);
    }
    outln!(out, "{table}");
    Ok(())
}

/// `scholar convert --from aan|mag ... --out FILE`
pub fn convert<W: Write>(args: &Args, out: &mut W) -> CmdResult {
    let out_path = args.get("out").ok_or("missing --out FILE")?;
    let corpus = match args.get("from") {
        Some("aan") => {
            let meta = args.get("meta").ok_or("missing --meta FILE")?;
            let cites = args.get("cites").ok_or("missing --cites FILE")?;
            aan::read_aan_files(Path::new(meta), Path::new(cites), &LoadOptions::default())
                .map_err(|e| e.to_string())?
        }
        Some("mag") => {
            let papers = args.get("papers").ok_or("missing --papers FILE")?;
            let authors = args.get("authors").ok_or("missing --authors FILE")?;
            let refs = args.get("refs").ok_or("missing --refs FILE")?;
            mag::read_mag_files(
                Path::new(papers),
                Path::new(authors),
                Path::new(refs),
                &LoadOptions::default(),
            )
            .map_err(|e| e.to_string())?
        }
        Some(other) => return Err(format!("unknown source format '{other}' (aan|mag)")),
        None => return Err("missing --from aan|mag".into()),
    };
    jsonl::write_jsonl_file(&corpus, Path::new(out_path)).map_err(|e| e.to_string())?;
    outln!(
        out,
        "wrote {}: {} articles, {} citations, {} authors, {} venues",
        out_path,
        corpus.num_articles(),
        corpus.num_citations(),
        corpus.num_authors(),
        corpus.num_venues()
    );
    Ok(())
}

/// `scholar serve corpus.jsonl [--addr HOST:PORT] [--workers N]
/// [--read-timeout-ms MS] [--max-conns N] [--duration SECS] [--state DIR]
/// [--snapshot-every N]`
///
/// Rank the corpus, then serve it over HTTP: `GET /top`,
/// `GET /article/{id}`, `GET /health`, `GET /metrics`. Without
/// `--duration` the server runs until stdin closes (Ctrl-D); with it, for
/// that many seconds. Either way shutdown is graceful — in-flight
/// requests drain before the process moves on. The server is the
/// nonblocking epoll event loop, `--workers` shards of it; it needs
/// Linux.
///
/// With `--state DIR` the server is crash-safe: accepted batches are
/// journaled to `DIR/wal.log` before they are acknowledged, the ranked
/// state is snapshotted to `DIR/snapshot.snap` every `--snapshot-every`
/// batches (default 8), and a restart restores from the snapshot plus
/// journal replay — milliseconds instead of a full re-rank, losing no
/// accepted batch.
pub fn serve<W: Write>(args: &Args, out: &mut W) -> CmdResult {
    let corpus_path = args.positional(0, "corpus path")?;
    let config = qrank_config(args)?;
    let duration: Option<u64> = match args.get("duration") {
        Some(raw) => {
            Some(raw.parse().map_err(|_| format!("invalid --duration '{raw}' (seconds)"))?)
        }
        None => None,
    };
    // --record PATH arms the sampled request recorder; the ring is
    // flushed to an RLOGv1 file at shutdown (and keeps the most recent
    // --record-cap samples until then).
    let recorder = match args.get("record") {
        Some(path) => {
            let sample = args.get_parsed("sample", 1u64)?;
            if sample == 0 {
                return Err("--sample must be >= 1".into());
            }
            let cap = args.get_parsed("record-cap", 65536usize)?;
            Some(std::sync::Arc::new(scholar::serve::Recorder::new(path, sample, cap)))
        }
        None => None,
    };
    let serve_config = scholar::serve::ServeConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:7171").to_string(),
        workers: args.get_parsed("workers", 4)?,
        read_timeout: std::time::Duration::from_millis(args.get_parsed("read-timeout-ms", 5000)?),
        max_conns: args.get_parsed("max-conns", 1024)?,
        recorder: recorder.clone(),
        ..Default::default()
    };
    let metrics = std::sync::Arc::new(scholar::serve::Metrics::new());
    let swap_metrics = std::sync::Arc::clone(&metrics);
    let on_publish = move |_| swap_metrics.record_swap();
    let (shared, reindexer) = match args.get("state") {
        Some(dir) => {
            let mut opts = scholar::serve::DurableOptions::new(dir);
            opts.snapshot_every = args.get_parsed("snapshot-every", opts.snapshot_every)?;
            let started = Instant::now();
            // A restart serves what the snapshot holds, so the corpus file
            // is not even opened. Should the snapshot vanish after this
            // look, the restore fails; it never falls back to ranking a
            // corpus that was not loaded.
            let recovered = if scholar::serve::snapshot::snapshot_path(Path::new(dir)).exists() {
                scholar::serve::Reindexer::restore_durable(config, opts, on_publish)
            } else {
                let corpus = load_corpus(corpus_path, args)?;
                scholar::serve::Reindexer::start_durable(config, corpus, opts, on_publish)
            };
            let (shared, reindexer, report) =
                recovered.map_err(|e| format!("cannot recover state in '{dir}': {e}"))?;
            if report.restored_from_snapshot {
                outln!(
                    out,
                    "restored snapshot generation {:016x} + {} journaled batches \
                     ({} articles{}) in {:?}",
                    report.snapshot_generation,
                    report.replayed_batches,
                    report.replayed_articles,
                    if report.torn_tail { ", torn journal tail discarded" } else { "" },
                    started.elapsed()
                );
            } else {
                outln!(
                    out,
                    "cold start: ranked and wrote snapshot generation {:016x} in {:?}",
                    report.snapshot_generation,
                    started.elapsed()
                );
            }
            (shared, reindexer)
        }
        None => {
            let corpus = load_corpus(corpus_path, args)?;
            outln!(out, "ranking {} articles...", corpus.num_articles());
            scholar::serve::Reindexer::start(config, corpus, on_publish)
        }
    };
    let mut server = scholar::serve::serve(
        std::sync::Arc::clone(&shared),
        std::sync::Arc::clone(&metrics),
        &serve_config,
    )
    .map_err(|e| format!("cannot bind {}: {e}", serve_config.addr))?;
    outln!(out, "listening on http://{}", server.addr());
    outln!(out, "endpoints: /top /article/{{id}} /health /metrics");

    match duration {
        Some(secs) => std::thread::sleep(std::time::Duration::from_secs(secs)),
        None => {
            outln!(out, "press Ctrl-D (close stdin) to stop");
            let mut line = String::new();
            while std::io::stdin().read_line(&mut line).map(|n| n > 0).unwrap_or(false) {
                line.clear();
            }
        }
    }

    server.shutdown();
    reindexer.shutdown();
    let rel = std::sync::atomic::Ordering::Relaxed;
    outln!(
        out,
        "served {} requests ({} ok, {} client errors, {} shed), p50 {}us, p99 {}us",
        metrics.requests.load(rel),
        metrics.ok.load(rel),
        metrics.client_errors.load(rel),
        metrics.shed.load(rel),
        metrics.latency_quantile_us(0.50),
        metrics.latency_quantile_us(0.99)
    );
    if let Some(r) = &recorder {
        match r.flush() {
            Ok(n) => outln!(
                out,
                "recorded {} requests to {} ({} dropped to ring contention)",
                n,
                r.path().display(),
                r.dropped()
            ),
            Err(e) => outln!(out, "request log flush failed (recording degraded): {e}"),
        }
    }
    Ok(())
}

/// `scholar replay LOG.rlog --addr HOST:PORT [--connections N]
/// [--no-keep-alive] [--expect DIGESTS] [--write-digests FILE] [--json]`
///
/// Re-issue a recorded RLOGv1 request log against a running server,
/// preserving per-connection request order, and digest the responses
/// per endpoint. With `--expect FILE` the digests are compared against
/// a previously written sidecar and any drift is an error — the
/// regression-gate mode CI uses. `--write-digests FILE` records the
/// sidecar for a future `--expect`.
pub fn replay<W: Write>(args: &Args, out: &mut W) -> CmdResult {
    let log_path = args.positional(0, "request log path")?;
    let log = scholar::serve::read_rlog(Path::new(log_path))
        .map_err(|e| format!("cannot read '{log_path}': {e}"))?;
    if log.torn_tail {
        outln!(out, "note: {log_path} has a torn tail; replaying the clean prefix");
    }
    if log.records.is_empty() {
        return Err(format!("'{log_path}' holds no records"));
    }
    let addr_raw = args.get("addr").ok_or("missing --addr HOST:PORT")?;
    let addr = resolve_addr(addr_raw)?;
    let config = scholar_loadgen::ReplayConfig {
        addr,
        connections: args.get_parsed("connections", 2)?,
        keep_alive: !args.has_switch("no-keep-alive"),
    };
    let report = scholar_loadgen::replay(&log.records, &config).map_err(|e| e.to_string())?;
    if args.has_switch("json") {
        outln!(out, "{}", report.to_json().to_string_pretty());
    } else {
        outln!(
            out,
            "replayed {} of {} records in {:?}: {} transport errors, {} status mismatches",
            report.replayed,
            log.records.len(),
            report.elapsed,
            report.transport_errors,
            report.status_mismatches
        );
        for line in report.format_digests().lines() {
            outln!(out, "  {line}");
        }
    }
    // Before any sidecar is written: digests from a replay that lost
    // requests must never reach disk, where a later --expect would trust them.
    if report.transport_errors > 0 {
        return Err(format!("{} transport errors — digests unusable", report.transport_errors));
    }
    if let Some(path) = args.get("write-digests") {
        std::fs::write(path, report.format_digests())
            .map_err(|e| format!("cannot write '{path}': {e}"))?;
        outln!(out, "wrote digests to {path}");
    }
    if let Some(path) = args.get("expect") {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
        let expected = scholar_loadgen::parse_digests(&text)
            .map_err(|e| format!("bad digest file '{path}': {e}"))?;
        let drift = report.diff_digests(&expected);
        if !drift.is_empty() {
            return Err(format!("response digest drift vs {path}:\n  {}", drift.join("\n  ")));
        }
        outln!(out, "digests match {path}");
    }
    Ok(())
}

/// Resolve `HOST:PORT` to one socket address.
fn resolve_addr(raw: &str) -> Result<std::net::SocketAddr, String> {
    use std::net::ToSocketAddrs;
    raw.to_socket_addrs()
        .map_err(|e| format!("cannot resolve '{raw}': {e}"))?
        .next()
        .ok_or_else(|| format!("'{raw}' resolves to no address"))
}

/// `scholar snapshot corpus.jsonl --state DIR [--config FILE]`
///
/// Rank the corpus offline and publish the result as a durable state
/// directory (`DIR/snapshot.snap` + an empty `DIR/wal.log`), exactly
/// what a cold `serve --state DIR` would write — so the first real
/// `serve --state DIR` restores in milliseconds instead of ranking.
pub fn snapshot<W: Write>(args: &Args, out: &mut W) -> CmdResult {
    let corpus = load_corpus(args.positional(0, "corpus path")?, args)?;
    let config = qrank_config(args)?;
    let dir = std::path::PathBuf::from(args.get("state").ok_or("missing --state DIR")?);
    outln!(out, "ranking {} articles...", corpus.num_articles());
    let started = Instant::now();
    let ranker = scholar::core::IncrementalRanker::new(config, corpus);
    let ranked_in = started.elapsed();
    let generation = scholar::serve::write_snapshot(&dir, ranker.corpus(), ranker.result(), 0)
        .map_err(|e| format!("cannot write snapshot in '{}': {e}", dir.display()))?;
    scholar::serve::Wal::create(&dir, 0)
        .map_err(|e| format!("cannot create journal in '{}': {e}", dir.display()))?;
    outln!(
        out,
        "wrote {} generation {:016x} ({} articles, ranked in {:?})",
        scholar::serve::snapshot::snapshot_path(&dir).display(),
        generation,
        ranker.corpus().num_articles(),
        ranked_in
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch;

    fn tmpdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "scholar_cli_test_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn run(argv: &[&str]) -> Result<String, String> {
        let parsed = Args::parse(argv.iter().map(|s| s.to_string()))?;
        let mut buf = Vec::new();
        dispatch(&parsed, &mut buf)?;
        Ok(String::from_utf8(buf).unwrap())
    }

    fn corpus_file(dir: &std::path::Path) -> String {
        let path = dir.join("c.jsonl");
        let c = Preset::Tiny.generate(5);
        jsonl::write_jsonl_file(&c, &path).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn generate_mag_scale_writes_colstore_and_rank_mmap_reads_it() {
        let dir = tmpdir();
        let store = dir.join("store");
        let store_s = store.to_string_lossy().into_owned();
        let out = run(&[
            "generate",
            "--preset",
            "mag-scale",
            "--articles",
            "3000",
            "--seed",
            "7",
            "--out",
            &store_s,
        ])
        .unwrap();
        assert!(out.contains("wrote colstore"), "{out}");
        assert!(out.contains("3000 articles"), "{out}");

        // Rank it through the mmap backend, plain and JSON.
        let ranked =
            run(&["rank", &store_s, "--store", "mmap", "--method", "twpr", "--top", "5"]).unwrap();
        assert!(ranked.contains("top 5 articles by TWPR"), "{ranked}");
        assert!(ranked.contains("article-"), "{ranked}");
        let js =
            run(&["rank", &store_s, "--store", "mmap", "--method", "pagerank", "--json"]).unwrap();
        assert!(js.contains("\"score\""), "{js}");

        // QRank end-to-end through the engine path.
        let q = run(&["rank", &store_s, "--store", "mmap", "--top", "3"]).unwrap();
        assert!(q.contains("top 3 articles by QRank"), "{q}");

        // Guard rails: --explain needs RAM metadata; unknown stores fail.
        let err = run(&["rank", &store_s, "--store", "mmap", "--explain"]).unwrap_err();
        assert!(err.contains("--store mmap"), "{err}");
        let err = run(&["rank", &store_s, "--store", "tape"]).unwrap_err();
        assert!(err.contains("unknown --store"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mmap_backend_scores_match_ram_backend() {
        // The same corpus written both ways must rank identically: write
        // a small generated corpus to a colstore and compare solve_ctx
        // outputs across backends through the public CLI-facing APIs.
        let dir = tmpdir();
        let store = dir.join("eqstore");
        let c = Preset::Tiny.generate(11);
        c.write_colstore(&store).unwrap();
        let cs = scholar::corpus::colstore::ColStore::open(&store).unwrap();
        let ram = RankContext::new(&c);
        let mm = RankContext::from_colstore(&cs);
        for ranker in scholar::evaluation_rankers() {
            let a = ranker.solve_ctx(&ram);
            let b = ranker.solve_ctx(&mm);
            let drift: f64 = a.scores.iter().zip(&b.scores).map(|(x, y)| (x - y).abs()).sum();
            assert!(drift <= 1e-12, "{} drifted {drift}", ranker.name());
            assert_eq!(a.telemetry.iterations, b.telemetry.iterations, "{}", ranker.name());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The `(id, score)` rows of a `--json` listing.
    fn listing(argv: &[&str]) -> Vec<(u64, f64)> {
        let out = run(argv).unwrap();
        let rows = sjson::parse(&out).unwrap();
        let rows = rows.as_array().unwrap();
        let num = |r: &sjson::Value, k: &str| r.get(k).and_then(sjson::Value::as_f64).unwrap();
        rows.iter().map(|r| (num(r, "id") as u64, num(r, "score"))).collect()
    }

    /// The JSONL corpus file of `dir` and the same corpus written as the
    /// colstore `dir/name`: both paths, and the corpus.
    fn jsonl_and_colstore(dir: &Path, name: &str) -> (String, String, scholar::Corpus) {
        let path = corpus_file(dir);
        let corpus = jsonl::read_jsonl_file(Path::new(&path), &LoadOptions::default()).unwrap();
        corpus.write_colstore(&dir.join(name)).unwrap();
        (path, dir.join(name).to_string_lossy().into_owned(), corpus)
    }

    #[test]
    fn rank_mmap_pagerank_and_citerank_sweep_one_unit_shard_file() {
        // PageRank and CiteRank are the citation walk at ρ = 0: on a
        // colstore both sweep one ρ = 0 shard file, which later runs reuse,
        // and list exactly what the RAM path lists.
        let dir = tmpdir();
        let (path, store, corpus) = jsonl_and_colstore(&dir, "unitstore");
        let all = corpus.num_articles().to_string();
        let mut first = None;
        for method in ["pagerank", "citerank", "pagerank"] {
            let argv = ["--method", method, "--top", &all, "--json"];
            let ram = listing(&[&["rank", &path][..], &argv].concat());
            let mmap = listing(&[&["rank", &store, "--store", "mmap"][..], &argv].concat());
            assert_eq!(ram.len(), corpus.num_articles(), "{method}: every article listed");
            assert_eq!(mmap, ram, "{method}: --store mmap lists the RAM ids and scores");
            let files: Vec<_> = std::fs::read_dir(&store)
                .unwrap()
                .map(|e| e.unwrap())
                .filter(|e| e.file_name().to_string_lossy().ends_with(".scsr"))
                .map(|e| (e.file_name(), e.metadata().unwrap().modified().unwrap()))
                .collect();
            let [(name, _)] = &files[..] else { panic!("{method}: one shard file, got {files:?}") };
            assert!(name.to_string_lossy().starts_with("csr-rho0000000000000000-g"), "{name:?}");
            // Later runs reopen the first run's file instead of rebuilding it.
            assert_eq!(first.get_or_insert_with(|| files.clone()), &files, "{method}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rank_mmap_qrank_reads_the_config_file() {
        // One corpus as JSONL and as a colstore, and a config that moves
        // the ranking: `--store mmap --method qrank` must apply it exactly
        // as the RAM path does.
        let dir = tmpdir();
        let (path, store, _) = jsonl_and_colstore(&dir, "cfgstore");
        let cfg_path = dir.join("mix.json");
        std::fs::write(
            &cfg_path,
            r#"{"lambda_article": 0.2, "lambda_venue": 0.2, "lambda_author": 0.6}"#,
        )
        .unwrap();
        let cfg = cfg_path.to_string_lossy().into_owned();
        let qrank = ["--method", "qrank", "--top", "50", "--json"];
        let ram = listing(&[&["rank", &path, "--config", &cfg][..], &qrank].concat());
        let mmap =
            listing(&[&["rank", &store, "--store", "mmap", "--config", &cfg][..], &qrank].concat());
        assert_eq!(mmap, ram, "--store mmap ranks under the --config mixture");
        let default = listing(&[&["rank", &store, "--store", "mmap"][..], &qrank].concat());
        assert_ne!(default, mmap, "the config moves the ranking");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn serve_binds_ranks_and_shuts_down_cleanly() {
        let dir = tmpdir();
        let path = corpus_file(&dir);
        // --duration 0: bind, publish generation 1, drain, exit.
        let out =
            run(&["serve", &path, "--addr", "127.0.0.1:0", "--workers", "1", "--duration", "0"])
                .unwrap();
        assert!(out.contains("listening on http://127.0.0.1:"), "{out}");
        assert!(out.contains("served 0 requests"), "{out}");
        let err = run(&["serve", &path, "--duration", "soon"]).unwrap_err();
        assert!(err.contains("--duration"), "{err}");
        // A flag serve does not read is an error naming it, not ignored.
        for key in ["backend", "shadow"] {
            let flag = format!("--{key}");
            let err = run(&["serve", &path, &flag, "--duration", "0"]).unwrap_err();
            assert!(err.contains(&format!("unknown flag {flag} for 'scholar serve'")), "{err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_refuses_a_version_1_state_directory_instead_of_cold_starting() {
        let dir = tmpdir();
        let path = corpus_file(&dir);
        let state = dir.join("v1-state");
        std::fs::create_dir_all(&state).unwrap();
        // A SNAPv1 file opens with its magic, and the loader refuses on
        // the magic before it reads anything else.
        let mut v1 = b"SNAPv1\0\0".to_vec();
        v1.resize(4096, 0);
        std::fs::write(state.join("snapshot.snap"), &v1).unwrap();
        let state_s = state.to_string_lossy().into_owned();
        let argv =
            ["serve", &path, "--addr", "127.0.0.1:0", "--state", &state_s, "--duration", "0"];
        let err = run(&argv).unwrap_err();
        assert!(err.contains("snapshot.snap is SNAPv1; this build reads only SNAPv2"), "{err}");
        // Nothing was ranked or written over the old state.
        let names: Vec<_> =
            std::fs::read_dir(&state).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(names, ["snapshot.snap"]);
        assert_eq!(std::fs::read(state.join("snapshot.snap")).unwrap(), v1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generate_stats_roundtrip() {
        let dir = tmpdir();
        let path = dir.join("gen.jsonl").to_string_lossy().into_owned();
        let out = run(&["generate", "--preset", "tiny", "--seed", "3", "--out", &path]).unwrap();
        assert!(out.contains("articles"));
        let stats_out = run(&["stats", &path]).unwrap();
        assert!(stats_out.contains("citations"));
        assert!(stats_out.contains("data quality"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rank_text_and_json() {
        let dir = tmpdir();
        let path = corpus_file(&dir);
        let text = run(&["rank", &path, "--method", "pagerank", "--top", "3"]).unwrap();
        assert!(text.contains("top 3 articles by PageRank"));
        let json = run(&["rank", &path, "--method", "cc", "--top", "2", "--json"]).unwrap();
        let parsed = sjson::parse(&json).unwrap();
        let rows = parsed.as_array().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("rank").unwrap().as_usize(), Some(1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_misspelt_flag_fails_instead_of_running_with_the_default() {
        let dir = tmpdir();
        let path = corpus_file(&dir);
        let err = run(&["rank", &path, "--metod", "twpr"]).unwrap_err();
        assert!(err.contains("unknown flag --metod for 'scholar rank'"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The flag table is the set of flags the commands read: every key an
    /// `args.get*`/`has_switch` call in this file names is in some
    /// command's row, and every row names only such keys.
    #[test]
    fn flag_table_holds_exactly_the_flags_the_commands_read() {
        let src = include_str!("commands.rs");
        let code: String = src[..src.find("#[cfg(test)]").unwrap()].split_whitespace().collect();
        let mut read = std::collections::BTreeSet::new();
        for call in ["args.get(\"", "args.get_parsed(\"", "args.has_switch(\""] {
            for (at, _) in code.match_indices(call) {
                let key = &code[at + call.len()..];
                read.insert(&key[..key.find('"').unwrap()]);
            }
        }
        let table = crate::FLAGS.iter().flat_map(|(_, o, s)| o.iter().chain(s.iter())).copied();
        assert_eq!(read, table.collect());
    }

    #[test]
    fn rank_explain_requires_qrank() {
        let dir = tmpdir();
        let path = corpus_file(&dir);
        let err = run(&["rank", &path, "--method", "cc", "--explain"]).unwrap_err();
        assert!(err.contains("only available"));
        let ok = run(&["rank", &path, "--method", "qrank", "--top", "2", "--explain"]).unwrap();
        assert!(ok.contains("signal mix"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ablate_text_and_json() {
        let dir = tmpdir();
        let path = corpus_file(&dir);
        let text = run(&["ablate", &path]).unwrap();
        assert!(text.contains("ablation sweep"));
        assert!(text.contains("QRank (full)"));
        assert!(text.contains("PageRank"));
        let json = run(&["ablate", &path, "--json"]).unwrap();
        let parsed = sjson::parse(&json).unwrap();
        let rows = parsed.as_array().unwrap();
        assert_eq!(rows.len(), 7);
        assert_eq!(rows[0].get("variant").unwrap().as_str(), Some("QRank (full)"));
        assert_eq!(rows[0].get("l1_vs_full").unwrap().as_f64(), Some(0.0));
        assert_eq!(rows[0].get("converged").unwrap().as_bool(), Some(true));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn threads_flag_is_validated_and_accepted() {
        let dir = tmpdir();
        let path = corpus_file(&dir);
        // --threads 1 (the sequential escape hatch) must give the same
        // ranking as the default thread count. The trailing solver line
        // carries wall-clock times, so compare everything above it.
        let ranking_lines = |s: &str| -> Vec<String> {
            s.lines().filter(|l| !l.starts_with("solver:")).map(str::to_owned).collect()
        };
        let seq =
            run(&["rank", &path, "--method", "qrank", "--top", "3", "--threads", "1"]).unwrap();
        let par =
            run(&["rank", &path, "--method", "qrank", "--top", "3", "--threads", "4"]).unwrap();
        assert_eq!(ranking_lines(&seq), ranking_lines(&par));
        assert!(seq.contains("solver: "), "rank output reports solver telemetry");
        let err = run(&["rank", &path, "--threads", "0"]).unwrap_err();
        assert!(err.contains("--threads"));
        let err2 = run(&["rank", &path, "--threads", "lots"]).unwrap_err();
        assert!(err2.contains("invalid --threads"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn threads_flag_reaches_the_twpr_and_pagerank_solves() {
        let args = Args::parse(["rank", "c.jsonl", "--threads", "3"].map(String::from)).unwrap();
        let walk = walk_config(&qrank_config(&args).unwrap());
        assert_eq!(walk, PageRankConfig { threads: 3, ..PageRankConfig::default() });

        // The mmap sweep runs on that many workers and its listing is the
        // same bytes at any count.
        let dir = tmpdir();
        let store = dir.join("threads-store").to_string_lossy().into_owned();
        let gen = ["generate", "--preset", "mag-scale", "--articles", "3000", "--out", &store];
        run(&gen).unwrap();
        for method in ["twpr", "pagerank"] {
            let rank = |threads| {
                run(&[
                    "rank",
                    &store,
                    "--store",
                    "mmap",
                    "--method",
                    method,
                    "--json",
                    "--threads",
                    threads,
                ])
                .unwrap()
            };
            assert_eq!(rank("1"), rank("2"), "--method {method}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn related_finds_neighbors() {
        let dir = tmpdir();
        let path = corpus_file(&dir);
        let out = run(&["related", &path, "--seeds", "0,1", "--top", "4"]).unwrap();
        assert!(out.contains("related articles"));
        assert!(
            out.lines().filter(|l| l.trim_start().starts_with(['1', '2', '3', '4'])).count() >= 4
        );
        let err = run(&["related", &path, "--seeds", "999999"]).unwrap_err();
        assert!(err.contains("out of range"));
        let err2 = run(&["related", &path, "--seeds", "abc"]).unwrap_err();
        assert!(err2.contains("invalid article id"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn eval_produces_table() {
        let dir = tmpdir();
        let path = corpus_file(&dir);
        let out = run(&["eval", &path, "--cutoff-frac", "0.8", "--window", "5"]).unwrap();
        assert!(out.contains("future-citation prediction"));
        assert!(out.contains("QRank"));
        assert!(out.contains("PageRank"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_then_serve_state_restores_instead_of_ranking() {
        let dir = tmpdir();
        let path = corpus_file(&dir);
        let state = dir.join("state").to_string_lossy().into_owned();
        let out = run(&["snapshot", &path, "--state", &state]).unwrap();
        assert!(out.contains("generation"), "{out}");
        let out =
            run(&["serve", &path, "--state", &state, "--addr", "127.0.0.1:0", "--duration", "0"])
                .unwrap();
        assert!(out.contains("restored snapshot generation"), "{out}");
        // A restart never opens the corpus file; a cold start needs it.
        let gone = dir.join("gone.jsonl").to_string_lossy().into_owned();
        let serve = |state: &str| {
            run(&["serve", &gone, "--state", state, "--addr", "127.0.0.1:0", "--duration", "0"])
        };
        let out = serve(&state).unwrap();
        assert!(out.contains("restored snapshot generation"), "{out}");
        let empty = dir.join("empty-state").to_string_lossy().into_owned();
        let err = serve(&empty).unwrap_err();
        assert!(err.contains("cannot load") && err.contains("gone.jsonl"), "{err}");
        let err = run(&["snapshot", &path]).unwrap_err();
        assert!(err.contains("--state"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_with_transport_errors_writes_no_digest_sidecar() {
        let dir = tmpdir();
        let rlog = dir.join("lost.rlog");
        let record = scholar::serve::ReqRecord {
            conn: 1,
            seq: 0,
            generation: 1,
            status: 200,
            latency_us: 0,
            target: "/health".to_string(),
        };
        scholar::serve::write_rlog(&rlog, &[record], 1).unwrap();
        // A port that was just bound and released: every connect is refused.
        let addr = std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        let digests = dir.join("lost.digests");
        let err = run(&[
            "replay",
            &rlog.to_string_lossy(),
            "--addr",
            &addr.to_string(),
            "--write-digests",
            &digests.to_string_lossy(),
        ])
        .unwrap_err();
        assert!(err.contains("transport errors"), "{err}");
        assert!(!digests.exists(), "a failed replay left a digest sidecar behind");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn convert_aan_roundtrip() {
        let dir = tmpdir();
        let c = Preset::Tiny.generate(6);
        let meta = dir.join("meta.txt");
        let cites = dir.join("cites.txt");
        std::fs::write(&meta, aan::write_metadata(&c)).unwrap();
        std::fs::write(&cites, aan::write_citations(&c)).unwrap();
        let out_path = dir.join("converted.jsonl").to_string_lossy().into_owned();
        let out = run(&[
            "convert",
            "--from",
            "aan",
            "--meta",
            &meta.to_string_lossy(),
            "--cites",
            &cites.to_string_lossy(),
            "--out",
            &out_path,
        ])
        .unwrap();
        assert!(out.contains(&format!("{} articles", c.num_articles())));
        let loaded = load_corpus(&out_path, &Args::default()).unwrap();
        assert_eq!(loaded.num_citations(), c.num_citations());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn analyze_prints_diagnostics() {
        let dir = tmpdir();
        let path = corpus_file(&dir);
        let out = run(&["analyze", &path]).unwrap();
        assert!(out.contains("mean citation age"));
        assert!(out.contains("self-citation rate"));
        assert!(out.contains("h-index"));
        assert!(out.contains("insular"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn coldstart_by_name() {
        let dir = tmpdir();
        let path = corpus_file(&dir);
        // Use names that exist in the generated corpus.
        let out = run(&["coldstart", &path, "--venue", "Venue-0000", "--authors", "Author-000000"])
            .unwrap();
        assert!(out.contains("cold-start score"));
        assert!(out.contains("percentile"));
        let err = run(&["coldstart", &path, "--venue", "Nope"]).unwrap_err();
        assert!(err.contains("unknown venue"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn config_file_overrides_defaults() {
        let dir = tmpdir();
        let path = corpus_file(&dir);
        let cfg_path = dir.join("cfg.json");
        std::fs::write(
            &cfg_path,
            r#"{"lambda_article": 1.0, "lambda_venue": 0.0, "lambda_author": 0.0}"#,
        )
        .unwrap();
        let out = run(&[
            "rank",
            &path,
            "--method",
            "qrank",
            "--top",
            "3",
            "--config",
            &cfg_path.to_string_lossy(),
        ])
        .unwrap();
        assert!(out.contains("top 3 articles"));
        // Invalid config is rejected with a clear message.
        std::fs::write(&cfg_path, r#"{"lambda_article": 2.0}"#).unwrap();
        let err =
            run(&["rank", &path, "--method", "qrank", "--config", &cfg_path.to_string_lossy()])
                .unwrap_err();
        assert!(err.contains("invalid config"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_year_policy_flag() {
        let dir = tmpdir();
        let path = dir.join("yearless.jsonl");
        std::fs::write(
            &path,
            "{\"id\": \"A\"}\n{\"id\": \"B\", \"year\": 2000, \"references\": [\"A\"]}\n",
        )
        .unwrap();
        let path = path.to_string_lossy().into_owned();
        // Default: the yearless record aborts the load.
        let err = run(&["stats", &path]).unwrap_err();
        assert!(err.contains("no publication year"), "{err}");
        // Explicit policies let the load proceed.
        let article_count = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("articles"))
                .and_then(|l| l.split_whitespace().last())
                .map(str::to_owned)
        };
        let dropped = run(&["stats", &path, "--missing-year", "drop"]).unwrap();
        assert_eq!(article_count(&dropped).as_deref(), Some("1"), "{dropped}");
        let imputed = run(&["stats", &path, "--missing-year", "1995"]).unwrap();
        assert_eq!(article_count(&imputed).as_deref(), Some("2"), "{imputed}");
        let bad = run(&["stats", &path, "--missing-year", "whenever"]).unwrap_err();
        assert!(bad.contains("invalid --missing-year"), "{bad}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn error_paths() {
        assert!(run(&["nonsense"]).unwrap_err().contains("unknown command"));
        assert!(run(&["rank", "/no/such/file.jsonl"]).unwrap_err().contains("cannot load"));
        assert!(run(&["generate", "--preset", "bogus", "--out", "/tmp/x"])
            .unwrap_err()
            .contains("unknown preset"));
        assert!(run(&["convert", "--out", "/tmp/x"]).unwrap_err().contains("--from"));
        let help = run(&["help"]).unwrap();
        assert!(help.contains("USAGE"));
    }
}
