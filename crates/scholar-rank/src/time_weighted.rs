//! Time-weighted PageRank (TWPR) — the citation walk at the heart of the
//! reconstructed method.
//!
//! Two time effects, both exponential (see DESIGN.md §2.1):
//!
//! * **Edge decay** — the weight of a citation `u → v` decays with the
//!   *citation age* `year(u) − year(v)`: `w = exp(-ρ·Δt)`. Importance
//!   flowing toward much older work is discounted, counteracting
//!   PageRank's old-paper bias. `ρ = 0` recovers plain PageRank edge
//!   weights.
//! * **Recency-personalized jump** — the teleport vector favors recent
//!   articles: `j(v) ∝ exp(-τ·(T_now − year(v)))`. `τ = 0` recovers the
//!   uniform jump.
//!
//! Plain PageRank (ρ = 0, τ = 0), CiteRank (ρ = 0, τ = 1/τ_dir) and
//! personalized PageRank (ρ = 0, a seed jump) are configurations of this
//! one walk: each enters it through [`citation_walk`].

use crate::context::{DecayedPlan, RankContext};
use crate::pagerank::{ensure, sweep_on_store, PageRankConfig};
use crate::ranker::Ranker;
use crate::telemetry::Stopwatch;
use crate::telemetry::{RankOutput, SolveTelemetry};
use scholar_corpus::Year;
use sgraph::{JumpVector, RowStochastic};

/// TWPR parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TwprConfig {
    /// Underlying power-iteration parameters.
    pub pagerank: PageRankConfig,
    /// Edge decay rate ρ (per year of citation age); >= 0.
    pub rho: f64,
    /// Jump recency rate τ (per year of article age); >= 0.
    pub tau: f64,
    /// "Now" for the recency jump; defaults to the corpus's last year.
    pub now: Option<Year>,
}

impl Default for TwprConfig {
    fn default() -> Self {
        TwprConfig { pagerank: PageRankConfig::default(), rho: 0.15, tau: 0.1, now: None }
    }
}

impl TwprConfig {
    /// `Err` naming the first out-of-range parameter.
    pub fn validate(&self) -> Result<(), String> {
        self.pagerank.validate()?;
        ensure(self.rho >= 0.0 && self.rho.is_finite(), "rho must be finite and >= 0")?;
        ensure(self.tau >= 0.0 && self.tau.is_finite(), "tau must be finite and >= 0")
    }

    /// Panics with [`Self::validate`]'s message on out-of-range parameters.
    pub fn assert_valid(&self) {
        self.validate().unwrap_or_else(|msg| panic!("{msg}"));
    }

    /// Overlay fields present in a parsed JSON object onto `self`
    /// (partial configs keep defaults; unknown keys are ignored).
    pub fn merge_json(&mut self, v: &sjson::Value) -> Result<(), String> {
        let obj = v.as_object().ok_or("'twpr' must be an object")?;
        for (key, val) in obj {
            match key.as_str() {
                "pagerank" => self.pagerank.merge_json(val)?,
                "rho" => self.rho = val.as_f64().ok_or("'rho' must be a number")?,
                "tau" => self.tau = val.as_f64().ok_or("'tau' must be a number")?,
                "now" => {
                    self.now = if val.is_null() {
                        None
                    } else {
                        Some(
                            val.as_i64()
                                .and_then(|y| i32::try_from(y).ok())
                                .ok_or("'now' must be a year")?,
                        )
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// This config as a JSON object.
    pub fn to_json(&self) -> sjson::Value {
        let mut b = sjson::ObjectBuilder::new()
            .field("pagerank", self.pagerank.to_json())
            .field("rho", self.rho)
            .field("tau", self.tau);
        b = match self.now {
            Some(y) => b.field("now", y),
            None => b.field("now", sjson::Value::Null),
        };
        b.build()
    }
}

/// Time-weighted PageRank ranker.
#[derive(Debug, Clone, Default)]
pub struct TimeWeightedPageRank {
    /// Parameters.
    pub config: TwprConfig,
}

impl TimeWeightedPageRank {
    /// TWPR with the given configuration.
    pub fn new(config: TwprConfig) -> Self {
        config.assert_valid();
        TimeWeightedPageRank { config }
    }

    /// The edge-decay weight for a citation of age `delta_years`.
    /// Negative ages (time-travel citations in noisy data) clamp to 0.
    pub fn edge_weight(rho: f64, delta_years: f64) -> f64 {
        (-rho * delta_years.max(0.0)).exp()
    }

    /// The edge-weight kernel `(citing_year, cited_year) ↦ exp(-ρ·Δt)`
    /// every layer of the stack weighs a citation by.
    pub fn decay(rho: f64) -> impl Fn(Year, Year) -> f64 + Copy {
        move |citing, cited| Self::edge_weight(rho, (citing - cited) as f64)
    }
}

impl Ranker for TimeWeightedPageRank {
    fn name(&self) -> String {
        format!("TWPR(ρ={:.2},τ={:.2})", self.config.rho, self.config.tau)
    }

    fn solve_ctx(&self, ctx: &RankContext) -> RankOutput {
        self.config.assert_valid();
        let now = self.config.now.unwrap_or_else(|| ctx.now());
        let jump = ctx.recency_jump(self.config.tau, now);
        citation_walk(ctx, self.config.rho, jump, &self.config.pagerank)
    }
}

/// The citation walk: the damped walk with teleport `jump` over the
/// context's citation graph decayed at rate `rho` (`rho = 0` is the unit
/// graph), solved by reverse sweeps ([`sweep_on_store`]). It walks
/// [`RankContext::decayed_plan`], so a colstore context sweeps the `rho`
/// shard file and never builds the dense graph. Telemetry splits the
/// plan's open-or-build from the solve.
pub fn citation_walk(
    ctx: &RankContext,
    rho: f64,
    jump: JumpVector,
    config: &PageRankConfig,
) -> RankOutput {
    if ctx.num_articles() == 0 {
        return RankOutput::closed_form(Vec::new());
    }
    let built = Stopwatch::start();
    let plan = ctx.decayed_plan(rho);
    let build_secs = built.secs();
    let solved = Stopwatch::start();
    let (scores, diag) = match &plan {
        DecayedPlan::Dense(decayed) => {
            sweep_on_store(&RowStochastic::new(&decayed.graph), config, jump)
        }
        DecayedPlan::Partitioned(shards) => sweep_on_store(&**shards, config, jump),
    };
    RankOutput { scores, telemetry: SolveTelemetry::timed(&diag, build_secs, solved.secs()) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagerank::PageRank;
    use scholar_corpus::generator::Preset;
    use scholar_corpus::CorpusBuilder;

    #[test]
    fn rho_zero_tau_zero_equals_pagerank() {
        let c = Preset::Tiny.generate(4);
        let twpr =
            TimeWeightedPageRank::new(TwprConfig { rho: 0.0, tau: 0.0, ..Default::default() })
                .rank(&c);
        let pr = PageRank::default().rank(&c);
        assert_eq!(twpr, pr, "TWPR(0,0) is PageRank, bit for bit");
    }

    #[test]
    fn edge_weight_decays() {
        assert_eq!(TimeWeightedPageRank::edge_weight(0.2, 0.0), 1.0);
        let w5 = TimeWeightedPageRank::edge_weight(0.2, 5.0);
        let w10 = TimeWeightedPageRank::edge_weight(0.2, 10.0);
        assert!(w5 > w10 && w10 > 0.0);
        // Time-travel citations clamp, not explode.
        assert_eq!(TimeWeightedPageRank::edge_weight(0.2, -3.0), 1.0);
    }

    #[test]
    fn decay_shifts_mass_toward_recent_targets() {
        // a2 (2020) cites both a0 (1990) and a1 (2015). Under plain PR both
        // get equal shares of a2's push; under TWPR the recent one wins.
        let mut b = CorpusBuilder::new();
        let v = b.venue("V");
        let a0 = b.add_article("old", 1990, v, vec![], vec![], None);
        let a1 = b.add_article("recent", 2015, v, vec![], vec![], None);
        b.add_article("citer", 2020, v, vec![], vec![a0, a1], None);
        let c = b.finish().unwrap();

        let pr = PageRank::default().rank(&c);
        assert!((pr[0] - pr[1]).abs() < 1e-9, "plain PR is indifferent");

        let twpr =
            TimeWeightedPageRank::new(TwprConfig { rho: 0.3, tau: 0.0, ..Default::default() })
                .rank(&c);
        assert!(
            twpr[1] > twpr[0],
            "TWPR should favor the recent citation target ({} vs {})",
            twpr[1],
            twpr[0]
        );
    }

    #[test]
    fn recency_jump_favors_new_articles() {
        let mut b = CorpusBuilder::new();
        let v = b.venue("V");
        b.add_article("old", 1990, v, vec![], vec![], None);
        b.add_article("new", 2020, v, vec![], vec![], None);
        let c = b.finish().unwrap();
        let twpr =
            TimeWeightedPageRank::new(TwprConfig { rho: 0.0, tau: 0.2, ..Default::default() })
                .rank(&c);
        assert!(twpr[1] > twpr[0], "tau > 0 must favor the newer article");
    }

    #[test]
    fn reduces_old_paper_bias_on_generated_corpus() {
        let c = Preset::Tiny.generate(2);
        let (lo, hi) = c.year_range().unwrap();
        let mid = (lo + hi) / 2;
        let count_old = |s: &[f64]| {
            crate::scores::top_k(s, 20).iter().filter(|&&i| c.articles()[i].year <= mid).count()
        };
        let pr_old = count_old(&PageRank::default().rank(&c));
        let twpr_old = count_old(
            &TimeWeightedPageRank::new(TwprConfig { rho: 0.4, tau: 0.1, ..Default::default() })
                .rank(&c),
        );
        assert!(
            twpr_old < pr_old,
            "TWPR top-20 should be less old-skewed than PageRank ({twpr_old} vs {pr_old})"
        );
    }

    #[test]
    fn scores_sum_to_one_and_converge() {
        let c = Preset::Tiny.generate(8);
        let out = TimeWeightedPageRank::default().solve_ctx(&RankContext::new(&c));
        let s = out.scores;
        assert!(out.telemetry.converged);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(s.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn explicit_now_changes_jump() {
        let mut b = CorpusBuilder::new();
        let v = b.venue("V");
        b.add_article("a", 2000, v, vec![], vec![], None);
        b.add_article("b", 2010, v, vec![], vec![], None);
        let c = b.finish().unwrap();
        let base = TimeWeightedPageRank::new(TwprConfig {
            tau: 0.3,
            now: Some(2010),
            ..Default::default()
        })
        .rank(&c);
        let future = TimeWeightedPageRank::new(TwprConfig {
            tau: 0.3,
            now: Some(2030),
            ..Default::default()
        })
        .rank(&c);
        // Pushing "now" forward ages both articles; their *relative* jump
        // weights stay in the same order but the gap narrows in ratio terms
        // only via the same exponent — the scores must remain ordered.
        assert!(base[1] > base[0]);
        assert!(future[1] > future[0]);
    }

    #[test]
    fn empty_corpus() {
        let c = CorpusBuilder::new().finish().unwrap();
        let out = TimeWeightedPageRank::default().solve_ctx(&RankContext::new(&c));
        assert!(out.scores.is_empty());
        assert!(out.telemetry.converged);
    }

    #[test]
    #[should_panic(expected = "rho")]
    fn negative_rho_panics() {
        TimeWeightedPageRank::new(TwprConfig { rho: -0.1, ..Default::default() });
    }

    #[test]
    fn name_reflects_parameters() {
        let r = TimeWeightedPageRank::default();
        assert!(r.name().contains("TWPR"));
    }
}
