//! Plain PageRank on the citation graph, and the two entry points through
//! which the ranking layer maps a [`PageRankConfig`] onto a walk solver:
//! [`sweep_on_store`] for the citation walks, [`pagerank_on_store`] for
//! the cyclic ones.
//!
//! PageRank is the citation walk of [`crate::time_weighted`] at ρ = 0
//! with the uniform jump: [`PageRank::solve_ctx`] is
//! [`citation_walk`]`(ctx, 0.0, Uniform, config)`.

use crate::context::RankContext;
use crate::diagnostics::Diagnostics;
use crate::ranker::Ranker;
use crate::telemetry::RankOutput;
use crate::time_weighted::citation_walk;
use sgraph::stochastic::PowerIterationOpts;
use sgraph::JumpVector;

/// PageRank parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PageRankConfig {
    /// Damping factor `d` ∈ [0, 1). 0.85 is canonical.
    pub damping: f64,
    /// L1 convergence tolerance.
    pub tol: f64,
    /// Iteration cap.
    pub max_iter: usize,
    /// Worker threads for the SpMV (1 = sequential). Defaults to
    /// [`sgraph::par::default_threads`] (all cores, capped at 16;
    /// `SCHOLAR_THREADS=1` or `--threads 1` forces sequential).
    pub threads: usize,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig {
            damping: 0.85,
            tol: 1e-10,
            max_iter: 200,
            threads: sgraph::par::default_threads(),
        }
    }
}

/// `Err(msg)` unless `ok`: one validation rule, read as an `assert!`.
pub fn ensure(ok: bool, msg: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg.to_owned())
    }
}

impl PageRankConfig {
    /// `Err` naming the first out-of-range parameter.
    pub fn validate(&self) -> Result<(), String> {
        ensure((0.0..1.0).contains(&self.damping), "damping must be in [0, 1)")?;
        ensure(self.tol >= 0.0, "tolerance must be >= 0")?;
        ensure(self.max_iter > 0, "need at least one iteration")
    }

    /// Panics with [`Self::validate`]'s message on out-of-range parameters.
    pub fn assert_valid(&self) {
        self.validate().unwrap_or_else(|msg| panic!("{msg}"));
    }

    /// Overlay fields present in a parsed JSON object onto `self`
    /// (partial configs keep defaults; unknown keys are ignored).
    pub fn merge_json(&mut self, v: &sjson::Value) -> Result<(), String> {
        let obj = v.as_object().ok_or("'pagerank' must be an object")?;
        for (key, val) in obj {
            match key.as_str() {
                "damping" => self.damping = val.as_f64().ok_or("'damping' must be a number")?,
                "tol" => self.tol = val.as_f64().ok_or("'tol' must be a number")?,
                "max_iter" => {
                    self.max_iter = val.as_usize().ok_or("'max_iter' must be an integer")?
                }
                "threads" => self.threads = val.as_usize().ok_or("'threads' must be an integer")?,
                _ => {}
            }
        }
        Ok(())
    }

    /// This config as a JSON object.
    pub fn to_json(&self) -> sjson::Value {
        sjson::ObjectBuilder::new()
            .field("damping", self.damping)
            .field("tol", self.tol)
            .field("max_iter", self.max_iter)
            .field("threads", self.threads)
            .build()
    }

    /// The solver options for a walk with teleport `jump` under `self`.
    fn opts(&self, jump: JumpVector) -> PowerIterationOpts {
        self.assert_valid();
        PowerIterationOpts {
            damping: self.damping,
            jump,
            tol: self.tol,
            max_iter: self.max_iter,
            threads: self.threads,
        }
    }
}

/// The PageRank baseline over the unweighted citation graph.
#[derive(Debug, Clone, Default)]
pub struct PageRank {
    /// Parameters.
    pub config: PageRankConfig,
}

impl PageRank {
    /// PageRank with the given configuration.
    pub fn new(config: PageRankConfig) -> Self {
        config.assert_valid();
        PageRank { config }
    }
}

/// Run damped power iteration over any [`sgraph::CsrStore`] and return
/// `(scores, diagnostics)`: the solver of the cyclic walks (the venue
/// graph, P-Rank's combined graph). Every
/// backing drives the identical loop, so scores and iteration counts are
/// bit-identical across them.
pub fn pagerank_on_store<S: sgraph::CsrStore + ?Sized>(
    store: &S,
    config: &PageRankConfig,
    jump: JumpVector,
) -> (Vec<f64>, Diagnostics) {
    let mut res = sgraph::stationary_store(store, &config.opts(jump));
    (std::mem::take(&mut res.scores), res.into())
}

/// Solve a citation walk by reverse sweeps ([`sgraph::reverse_sweep`]) and
/// return `(scores, diagnostics)`: the solver behind
/// [`citation_walk`] and QRank's inner walk. The in-RAM graph and the
/// mmap shard file take the same passes, so scores, residuals and
/// iteration counts are bit-identical across them and across `threads`.
pub fn sweep_on_store<S: sgraph::ReverseSweep + ?Sized>(
    store: &S,
    config: &PageRankConfig,
    jump: JumpVector,
) -> (Vec<f64>, Diagnostics) {
    let mut res = sgraph::reverse_sweep(store, &config.opts(jump));
    (std::mem::take(&mut res.scores), res.into())
}

impl Ranker for PageRank {
    fn name(&self) -> String {
        "PageRank".into()
    }

    fn solve_ctx(&self, ctx: &RankContext) -> RankOutput {
        self.config.assert_valid();
        citation_walk(ctx, 0.0, JumpVector::Uniform, &self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scholar_corpus::generator::Preset;
    use scholar_corpus::{Corpus, CorpusBuilder};

    fn line_corpus() -> Corpus {
        // a2 -> a1 -> a0: importance flows to the oldest.
        let mut b = CorpusBuilder::new();
        let v = b.venue("V");
        let a0 = b.add_article("a0", 1990, v, vec![], vec![], None);
        let a1 = b.add_article("a1", 1995, v, vec![], vec![a0], None);
        b.add_article("a2", 2000, v, vec![], vec![a1], None);
        b.finish().unwrap()
    }

    #[test]
    fn importance_flows_to_cited() {
        let c = line_corpus();
        let out = PageRank::default().solve_ctx(&RankContext::new(&c));
        let s = out.scores;
        assert!(out.telemetry.converged);
        assert!(s[0] > s[1], "cited more transitively should score higher");
        assert!(s[1] > s[2]);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn damping_zero_gives_uniform() {
        let c = line_corpus();
        let pr = PageRank::new(PageRankConfig { damping: 0.0, ..Default::default() });
        let s = pr.rank(&c);
        for &x in &s {
            assert!((x - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn old_paper_bias_is_real() {
        // On a generated corpus, the top of plain PageRank skews old. This
        // is the defect TWPR/QRank address; assert it exists so the
        // comparison in the benches is meaningful.
        let c = Preset::Tiny.generate(2);
        let s = PageRank::default().rank(&c);
        let (lo, hi) = c.year_range().unwrap();
        let mid = (lo + hi) / 2;
        let top = crate::scores::top_k(&s, 20);
        let old = top.iter().filter(|&&i| c.articles()[i].year <= mid).count();
        assert!(old >= 14, "expected PageRank's top-20 to skew old, got {old}/20 old");
    }

    #[test]
    #[should_panic(expected = "damping")]
    fn invalid_damping_panics() {
        PageRank::new(PageRankConfig { damping: 1.0, ..Default::default() });
    }

    #[test]
    fn parallel_matches_sequential() {
        let c = Preset::Tiny.generate(9);
        let seq = PageRank::new(PageRankConfig { threads: 1, ..Default::default() }).rank(&c);
        let par = PageRank::new(PageRankConfig { threads: 4, ..Default::default() }).rank(&c);
        let diff: f64 = seq.iter().zip(&par).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff < 1e-9, "thread count must not change the answer (diff {diff})");
    }

    #[test]
    fn empty_corpus() {
        let c = CorpusBuilder::new().finish().unwrap();
        assert!(PageRank::default().rank(&c).is_empty());
    }
}
