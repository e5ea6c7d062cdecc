//! The prepared QRank execution plan: build once, solve many.
//!
//! [`QRank::run`](crate::QRank::run) does two very different kinds of
//! work. The *structural* part — deriving the [`HetNet`], running the
//! venue walk to its stationary distribution and counting each author's
//! byline-weighted citations (the author prior) — depends only on the
//! corpus and the structural half of the configuration (everything in
//! `twpr`; see [`QRankConfig::same_structure`]). The *mixture* part — the
//! outer mutual-reinforcement fixpoint over λ/μ/σ — is cheap, and it is
//! the only thing parameter sweeps, ablations, and tuning grids vary.
//!
//! [`QRankEngine`] splits the two phases. `build` pays the structural
//! cost once; [`QRankEngine::solve`] answers any mixture of
//! [`MixParams`] against the cached plan, running only the outer
//! fixpoint. The outer loop is allocation-free at steady state (all
//! buffers live in a reusable [`SolveScratch`] and are ping-ponged) and
//! parallel (aggregations and the combine step partition their output
//! index space exactly like `RowStochastic::apply_parallel`, so results
//! are bitwise identical at any thread count).
//!
//! A plan answers for one corpus. Articles *appended* to that corpus are
//! absorbed by [`QRankEngine::extend`], which grows the plan into exactly
//! the plan `build` would derive from the grown corpus; any other change
//! to the corpus, or to a structural parameter, needs a new `build`
//! ([`QRankEngine::supports`] tells whether a config can reuse this
//! plan).

use crate::config::QRankConfig;
use crate::hetnet::HetNet;
use crate::qrank::QRankResult;
use scholar_corpus::rows::{self, Rows};
use scholar_rank::diagnostics::Diagnostics;
use scholar_rank::pagerank::{ensure, pagerank_on_store, sweep_on_store};
use sgraph::par::PAR_THRESHOLD;
use sgraph::stochastic::{blend_into, l1_distance, normalize_l1};
use sgraph::{JumpVector, RowStochastic};
use std::ops::Range;
use std::sync::OnceLock;

/// The mixture-side parameters of one QRank solve: everything a
/// [`QRankEngine`] does *not* bake into its cached plan.
#[derive(Debug, Clone, PartialEq)]
pub struct MixParams {
    /// Weight of the citation (TWPR) signal, λ_P.
    pub lambda_article: f64,
    /// Weight of the venue signal, λ_V.
    pub lambda_venue: f64,
    /// Weight of the author signal, λ_U.
    pub lambda_author: f64,
    /// Structural-vs-aggregated venue blend μ_V.
    pub mu_venue: f64,
    /// Structural-vs-aggregated author blend μ_U.
    pub mu_author: f64,
    /// Citation-evidence maturity constant σ (years, 0 = disabled).
    pub maturity_years: f64,
    /// L1 tolerance of the outer fixpoint.
    pub outer_tol: f64,
    /// Iteration cap of the outer fixpoint.
    pub outer_max_iter: usize,
}

impl MixParams {
    /// Extract the mixture parameters of a full configuration.
    pub fn from_config(cfg: &QRankConfig) -> Self {
        MixParams {
            lambda_article: cfg.lambda_article,
            lambda_venue: cfg.lambda_venue,
            lambda_author: cfg.lambda_author,
            mu_venue: cfg.mu_venue,
            mu_author: cfg.mu_author,
            maturity_years: cfg.maturity_years,
            outer_tol: cfg.outer_tol,
            outer_max_iter: cfg.outer_max_iter,
        }
    }

    /// `Err` naming the first invalid mixture parameter.
    pub fn validate(&self) -> Result<(), String> {
        let (lp, lv, lu) = (self.lambda_article, self.lambda_venue, self.lambda_author);
        ensure(lp >= 0.0 && lv >= 0.0 && lu >= 0.0, "lambda weights must be >= 0")?;
        let sum = lp + lv + lu;
        ensure((sum - 1.0).abs() < 1e-9, &format!("lambda weights must sum to 1 (got {sum})"))?;
        ensure((0.0..=1.0).contains(&self.mu_venue), "mu_venue must be in [0, 1]")?;
        ensure((0.0..=1.0).contains(&self.mu_author), "mu_author must be in [0, 1]")?;
        ensure(
            self.maturity_years >= 0.0 && self.maturity_years.is_finite(),
            "maturity_years must be finite and >= 0",
        )?;
        ensure(self.outer_max_iter > 0, "need at least one outer iteration")?;
        ensure(self.outer_tol >= 0.0, "outer tolerance must be >= 0")
    }

    /// Panics with [`Self::validate`]'s message on invalid parameters.
    pub fn assert_valid(&self) {
        self.validate().unwrap_or_else(|msg| panic!("{msg}"));
    }
}

impl From<&QRankConfig> for MixParams {
    fn from(cfg: &QRankConfig) -> Self {
        MixParams::from_config(cfg)
    }
}

/// Reusable per-solve buffers; hand the same scratch to repeated
/// [`QRankEngine::solve_with`] calls and the outer fixpoint allocates
/// nothing after the first solve.
#[derive(Debug, Clone, Default)]
pub struct SolveScratch {
    f: Vec<f64>,
    next: Vec<f64>,
    av: Vec<f64>,
    au: Vec<f64>,
    venue_scores: Vec<f64>,
    author_scores: Vec<f64>,
    venue_term: Vec<f64>,
    author_term: Vec<f64>,
    weights: Vec<(f64, f64, f64)>,
}

impl SolveScratch {
    /// Empty scratch; buffers grow to fit on first use.
    pub fn new() -> Self {
        SolveScratch::default()
    }

    fn resize_for(&mut self, n: usize, nv: usize, nu: usize) {
        self.f.resize(n, 0.0);
        self.next.resize(n, 0.0);
        self.av.resize(nv, 0.0);
        self.au.resize(nu, 0.0);
        self.venue_scores.resize(nv, 0.0);
        self.author_scores.resize(nu, 0.0);
        self.venue_term.resize(n, 0.0);
        self.author_term.resize(n, 0.0);
    }
}

/// A prepared QRank execution plan for one `(corpus,
/// structural-config)` pair; solving never changes it, and
/// [`QRankEngine::extend`] is the only thing that does.
///
/// Caches the heterogeneous network, the recency jump vector, the
/// per-article ages, the structural venue stationary distribution and
/// author prior, and (lazily, on the first cold solve) the TWPR
/// stationary distribution. It holds no walk operator: each walk borrows
/// the network's graph for as long as it runs. `solve` then runs only the
/// outer mutual-reinforcement fixpoint. Shared-reference solves are safe
/// from multiple threads.
#[derive(Debug)]
pub struct QRankEngine {
    config: QRankConfig,
    now: i32,
    net: HetNet,
    jump: JumpVector,
    /// TWPR stationary + diagnostics; computed on the first solve, so a
    /// plan built only to be grown or explained never pays for the walk.
    inner_walk: OnceLock<(Vec<f64>, Diagnostics)>,
    /// Normalized structural venue stationary.
    sv: Vec<f64>,
    /// Normalized structural author prior (see `author_prior`).
    su: Vec<f64>,
    /// Per-article age in years, clamped at 0.
    ages: Vec<f64>,
    pub_left_ranges: Vec<Range<usize>>,
    pub_right_ranges: Vec<Range<usize>>,
    auth_left_ranges: Vec<Range<usize>>,
    auth_right_ranges: Vec<Range<usize>>,
    article_ranges: Vec<Range<usize>>,
}

/// One full output range when the work is too small (or the config too
/// sequential) to be worth fanning out.
fn gated_ranges(
    len: usize,
    work: usize,
    threads: usize,
    make: impl FnOnce() -> Vec<Range<usize>>,
) -> Vec<Range<usize>> {
    if threads <= 1 || work < PAR_THRESHOLD {
        std::iter::once(0..len).collect()
    } else {
        make()
    }
}

/// The structural author prior: each author's byline-weighted count of
/// the citations their articles received, each citation weighted by its
/// decay, `su[a] ∝ 1 + Σ_{p ∈ papers(a)} w(a,p)·c(p)` with
/// `c(p) = Σ_{q→p} exp(−ρ·Δt)` — `w` the harmonic byline weight of the
/// authorship bipartite, `c(p)` the in-weight of `p` in the decayed
/// citation graph, and the `1` a smoothing count that leaves no author,
/// cited or not, at zero — normalised to sum 1. One gather per author
/// over `ranges`, a partition of the authors, each by one fixed-order
/// loop: the prior is the same bits at any thread count.
fn author_prior(net: &HetNet, ranges: &[Range<usize>]) -> Vec<f64> {
    let g = &net.citation;
    let cited: Vec<f64> = g.nodes().map(|p| g.in_edge_weights(p).iter().sum()).collect();
    let mut su = vec![0.0; net.num_authors()];
    net.authorship.sum_to_left_into_par(&cited, &mut su, ranges);
    su.iter_mut().for_each(|s| *s += 1.0);
    normalize_l1(&mut su);
    su
}

impl QRankEngine {
    /// Build the plan: derive the heterogeneous network, run the
    /// structural venue walk, count the author prior, and precompute the
    /// balanced parallel partitions. O(corpus) — this is
    /// the expensive phase; amortize it across solves. Any structural
    /// view will do (a [`Corpus`](scholar_corpus::Corpus), a
    /// [`ColStore`](scholar_corpus::ColStore)): the engine needs derived
    /// structures and the year column, never article strings.
    pub fn build<V: Rows + ?Sized>(corpus: &V, config: &QRankConfig) -> Self {
        config.assert_valid();
        Self::from_net(corpus, config, HetNet::build(corpus, config))
    }

    /// Grow the plan for `grown`'s first `old_n` articles into the plan for
    /// all of them. The one contract: the result is indistinguishable,
    /// bit for bit, from [`QRankEngine::build`] on `grown` — so it does
    /// not matter to any later score whether a plan was grown or, as after
    /// a restart, built (DESIGN.md §2.4, "Growing a plan").
    ///
    /// Only the network is patched ([`HetNet::extend`]); the venue walk
    /// (solved as in `build`), the author prior, `now`, the jump vector,
    /// the ages and the partitions are derived from it by the code `build`
    /// runs. The caller vouches that the retained articles are unchanged
    /// ([`crate::IncrementalRanker::extend`] checks). Consumes the plan, so
    /// a panic half way leaves none behind rather than a half-grown one.
    pub fn extend<V: Rows + ?Sized>(self, grown: &V, old_n: usize) -> Self {
        let QRankEngine { config, mut net, .. } = self;
        net.extend(grown, &config, old_n);
        Self::from_net(grown, &config, net)
    }

    /// The plan over `net`, the network of `corpus` under `config`.
    fn from_net<V: Rows + ?Sized>(corpus: &V, config: &QRankConfig, net: HetNet) -> Self {
        let now =
            config.twpr.now.or_else(|| rows::year_range(corpus).map(|(_, last)| last)).unwrap_or(0);
        let jump = rows::recency_jump(corpus, config.twpr.tau, now);
        let ages = rows::ages(corpus, now);
        let n = net.num_articles();

        let pr = &config.twpr.pagerank;
        let venue_walk = RowStochastic::new(&net.venue_graph);
        let (mut sv, _) = pagerank_on_store(&venue_walk, pr, JumpVector::Uniform);
        normalize_l1(&mut sv);

        let threads = pr.threads;
        let nv = net.num_venues();
        let nu = net.num_authors();
        let pub_edges = net.publication.num_edges();
        let auth_edges = net.authorship.num_edges();
        let pub_left_ranges =
            gated_ranges(nv, pub_edges, threads, || net.publication.left_ranges(threads));
        let pub_right_ranges =
            gated_ranges(n, pub_edges, threads, || net.publication.right_ranges(threads));
        let auth_left_ranges =
            gated_ranges(nu, auth_edges, threads, || net.authorship.left_ranges(threads));
        let auth_right_ranges =
            gated_ranges(n, auth_edges, threads, || net.authorship.right_ranges(threads));
        let article_ranges =
            gated_ranges(n, n, threads, || sgraph::par::uniform_ranges(n, threads));
        let su = author_prior(&net, &auth_left_ranges);

        QRankEngine {
            config: config.clone(),
            now,
            net,
            jump,
            inner_walk: OnceLock::new(),
            sv,
            su,
            ages,
            pub_left_ranges,
            pub_right_ranges,
            auth_left_ranges,
            auth_right_ranges,
            article_ranges,
        }
    }

    /// The configuration the plan was built from (its mixture half is
    /// only a default — any [`MixParams`] can be solved against the
    /// plan).
    pub fn config(&self) -> &QRankConfig {
        &self.config
    }

    /// `true` when `cfg` can be answered by this plan, i.e. it agrees
    /// with the build config on every structural parameter.
    pub fn supports(&self, cfg: &QRankConfig) -> bool {
        self.config.same_structure(cfg)
    }

    /// The cached heterogeneous network.
    pub fn net(&self) -> &HetNet {
        &self.net
    }

    /// The normalized structural priors, `(venue, author)`: the venue
    /// walk's stationary and the byline-weighted citation count (DESIGN.md
    /// §2.2).
    pub fn structural_stationaries(&self) -> (&[f64], &[f64]) {
        (&self.sv, &self.su)
    }

    /// The plan with its structural stationaries replaced by `sv` and
    /// `su`, taken as the normalized distributions
    /// [`Self::structural_stationaries`] returns, and, given `twpr`, its
    /// inner walk replaced by those scores and diagnostics (what
    /// [`Self::twpr`] returns) — the seam through which the conformance
    /// suite feeds a plan walks run by its test-side oracles, and the
    /// evaluation feeds it alternative author priors.
    ///
    /// # Panics
    /// Panics if `sv` is not one score per venue, `su` one per author or
    /// `twpr` one per article.
    pub fn with_structural_stationaries(
        mut self,
        sv: Vec<f64>,
        su: Vec<f64>,
        twpr: Option<(Vec<f64>, Diagnostics)>,
    ) -> Self {
        assert_eq!(sv.len(), self.net.num_venues(), "one structural score per venue");
        assert_eq!(su.len(), self.net.num_authors(), "one structural score per author");
        (self.sv, self.su) = (sv, su);
        if let Some(walk) = twpr {
            assert_eq!(walk.0.len(), self.net.num_articles(), "one inner-walk score per article");
            self.inner_walk = OnceLock::from(walk);
        }
        self
    }

    /// The reference year used for ages and recency.
    pub fn now(&self) -> i32 {
        self.now
    }

    /// The TWPR stationary distribution (computing it on first call),
    /// with its convergence diagnostics.
    pub fn twpr(&self) -> (&[f64], &Diagnostics) {
        let (scores, diag) = self.inner_walk.get_or_init(|| self.run_inner_walk());
        (scores, diag)
    }

    /// The inner citation walk, by reverse sweeps over the network's
    /// decayed citation graph: the solve `citation_walk` runs for TWPR.
    fn run_inner_walk(&self) -> (Vec<f64>, Diagnostics) {
        let walk = RowStochastic::new(&self.net.citation);
        sweep_on_store(&walk, &self.config.twpr.pagerank, self.jump.clone())
    }

    /// Solve one mixture against the plan (inner walk cached after the
    /// first solve).
    pub fn solve(&self, mix: &MixParams) -> QRankResult {
        self.solve_with(mix, &mut SolveScratch::new())
    }

    /// [`Self::solve`] against caller-owned scratch buffers: repeated
    /// calls with the same scratch run the outer fixpoint without
    /// allocating.
    pub fn solve_with(&self, mix: &MixParams, scratch: &mut SolveScratch) -> QRankResult {
        mix.assert_valid();
        let n = self.net.num_articles();
        if n == 0 {
            return QRankResult {
                article_scores: Vec::new(),
                venue_scores: vec![0.0; self.net.num_venues()],
                author_scores: vec![0.0; self.net.num_authors()],
                twpr_scores: Vec::new(),
                twpr_diagnostics: Diagnostics::closed_form(),
                outer: Diagnostics::closed_form(),
            };
        }
        scratch.resize_for(n, self.net.num_venues(), self.net.num_authors());
        let SolveScratch {
            ref mut f,
            ref mut next,
            ref mut av,
            ref mut au,
            ref mut venue_scores,
            ref mut author_scores,
            ref mut venue_term,
            ref mut author_term,
            ref mut weights,
        } = *scratch;

        // ---- Inner citation walk, cached in the plan. ----
        let (twpr, twpr_diagnostics) = self.twpr();
        let twpr_diagnostics = twpr_diagnostics.clone();

        // ---- Age-adaptive per-article weights (see QRankConfig docs). ----
        let sigma = mix.maturity_years;
        let prior_total = mix.lambda_venue + mix.lambda_author;
        weights.clear();
        weights.extend(self.ages.iter().map(|&age| {
            let g = if sigma > 0.0 { 1.0 - (-age / sigma).exp() } else { 1.0 };
            let spill = (1.0 - g) * mix.lambda_article;
            if prior_total > 0.0 {
                (
                    mix.lambda_article * g,
                    mix.lambda_venue + spill * (mix.lambda_venue / prior_total),
                    mix.lambda_author + spill * (mix.lambda_author / prior_total),
                )
            } else {
                // No priors configured: nothing to spill into.
                (mix.lambda_article, 0.0, 0.0)
            }
        }));

        // ---- Outer mutual-reinforcement fixpoint, zero-alloc. ----
        f.clear();
        f.extend_from_slice(twpr);
        let mut residuals = Vec::with_capacity(mix.outer_max_iter.min(64));
        let mut converged = false;
        let mut iterations = 0;

        while iterations < mix.outer_max_iter {
            // Aggregated venue/author scores from current article scores.
            self.net.publication.aggregate_to_left_into_par(f, av, &self.pub_left_ranges);
            normalize_l1(av);
            self.net.authorship.aggregate_to_left_into_par(f, au, &self.auth_left_ranges);
            normalize_l1(au);

            // Blend structural and aggregated prestige.
            blend_into(&self.sv, av, mix.mu_venue, venue_scores);
            blend_into(&self.su, au, mix.mu_author, author_scores);

            // Push venue/author prestige back down to articles.
            self.net.publication.aggregate_to_right_into_par(
                venue_scores,
                venue_term,
                &self.pub_right_ranges,
            );
            normalize_l1(venue_term);
            self.net.authorship.aggregate_to_right_into_par(
                author_scores,
                author_term,
                &self.auth_right_ranges,
            );
            normalize_l1(author_term);

            // Combine the three signals per article.
            {
                let vt: &[f64] = venue_term;
                let at: &[f64] = author_term;
                let w: &[(f64, f64, f64)] = weights;
                sgraph::par::for_each_range_mut(next, &self.article_ranges, |range, chunk| {
                    for (i, slot) in range.zip(chunk.iter_mut()) {
                        let (wp, wv, wu) = w[i];
                        *slot = wp * twpr[i] + wv * vt[i] + wu * at[i];
                    }
                });
            }
            normalize_l1(next);

            iterations += 1;
            let r = l1_distance(f, next);
            residuals.push(r);
            std::mem::swap(f, next);
            if r < mix.outer_tol {
                converged = true;
                break;
            }
        }

        QRankResult {
            article_scores: f.clone(),
            venue_scores: venue_scores.clone(),
            author_scores: author_scores.clone(),
            twpr_scores: twpr.to_vec(),
            twpr_diagnostics,
            outer: Diagnostics { iterations, converged, residuals },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scholar_corpus::generator::Preset;

    #[test]
    fn worker_count_used_for_partitions_is_the_configured_one() {
        let c = Preset::Tiny.generate(1);
        let engine = QRankEngine::build(&c, &QRankConfig::default().with_threads(3));
        assert_eq!(engine.config().twpr.pagerank.threads, 3);
        // Tiny corpus: everything below the parallel threshold collapses
        // to a single sequential range.
        assert_eq!(engine.article_ranges.len(), 1);
    }

    #[test]
    fn structural_stationaries_are_distributions() {
        let c = Preset::Tiny.generate(2);
        let engine = QRankEngine::build(&c, &QRankConfig::default());
        assert!((engine.sv.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((engine.su.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let (tw, diag) = engine.twpr();
        assert!(diag.converged);
        assert!((tw.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn supports_follows_structural_equality() {
        let c = Preset::Tiny.generate(3);
        let base = QRankConfig::default();
        let engine = QRankEngine::build(&c, &base);
        assert!(engine.supports(&base));
        assert!(engine.supports(&base.clone().with_lambdas(0.5, 0.3, 0.2)));
        assert!(engine.supports(&base.clone().with_maturity(3.0)));
        assert!(!engine.supports(&base.clone().with_rho(0.0)));
        assert!(!engine.supports(&base.with_tau(0.0)));
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        let c = Preset::Tiny.generate(4);
        let cfg = QRankConfig::default();
        let engine = QRankEngine::build(&c, &cfg);
        let mut scratch = SolveScratch::new();
        let mixes = [
            MixParams::from_config(&cfg),
            MixParams::from_config(&cfg.clone().with_lambdas(0.5, 0.25, 0.25)),
            MixParams::from_config(&cfg.clone().with_maturity(2.0)),
        ];
        for mix in &mixes {
            let reused = engine.solve_with(mix, &mut scratch);
            let fresh = engine.solve(mix);
            assert_eq!(reused.article_scores, fresh.article_scores);
            assert_eq!(reused.venue_scores, fresh.venue_scores);
            assert_eq!(reused.author_scores, fresh.author_scores);
        }
    }

    #[test]
    fn empty_corpus_solve() {
        let c = scholar_corpus::CorpusBuilder::new().finish().unwrap();
        let engine = QRankEngine::build(&c, &QRankConfig::default());
        let res = engine.solve(&MixParams::from_config(&QRankConfig::default()));
        assert!(res.article_scores.is_empty());
        assert!(res.outer.converged);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn invalid_mix_panics() {
        let mix = MixParams {
            lambda_article: 0.5,
            lambda_venue: 0.5,
            lambda_author: 0.5,
            mu_venue: 0.5,
            mu_author: 0.5,
            maturity_years: 0.0,
            outer_tol: 1e-10,
            outer_max_iter: 100,
        };
        mix.assert_valid();
    }
}
