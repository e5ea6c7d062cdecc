//! QRank configuration.

use crate::engine::MixParams;
use scholar_rank::TwprConfig;

/// All parameters of the QRank framework.
///
/// Defaults are the values tuned on the synthetic AAN-like validation
/// corpus (see EXPERIMENTS.md R-Fig 1/2/6); `TwprConfig`'s defaults carry
/// the citation-walk parameters (damping 0.85, ρ = 0.15/yr, τ = 0.05/yr).
#[derive(Debug, Clone, PartialEq)]
pub struct QRankConfig {
    /// Parameters of the article-level time-weighted walk; its `rho` also
    /// drives the decay used when aggregating the venue graph.
    pub twpr: TwprConfig,
    /// Weight of the citation (TWPR) signal, λ_P.
    pub lambda_article: f64,
    /// Weight of the venue signal, λ_V.
    pub lambda_venue: f64,
    /// Weight of the author signal, λ_U.
    pub lambda_author: f64,
    /// Mix between the *structural* venue score (walk on the venue
    /// citation graph) and the *aggregated* venue score (mean member
    /// article score): `V = μ·structural + (1-μ)·aggregated`.
    pub mu_venue: f64,
    /// Same mix for authors.
    pub mu_author: f64,
    /// Citation-evidence maturity time constant σ (years). When positive,
    /// the citation signal of an article of age `a` carries weight
    /// `λ_P · (1 − exp(−a/σ))` and the un-matured remainder spills to the
    /// venue/author priors in proportion to λ_V : λ_U, so brand-new
    /// articles lean harder on prestige priors.
    ///
    /// Default `0` (disabled): the configuration sweep recorded in
    /// EXPERIMENTS.md found the *fixed* small-prior mix strictly better on
    /// this corpus family — the fixed prior already acts as the
    /// cold-start tiebreaker, and shifting scores of young articles onto
    /// the flatter prior distribution distorts cross-age comparisons. The
    /// mechanism is kept as a configurable variant (R-Table 5's
    /// "+ age-adaptive mix" row).
    pub maturity_years: f64,
    /// L1 tolerance of the outer mutual-reinforcement fixpoint.
    pub outer_tol: f64,
    /// Iteration cap of the outer fixpoint.
    pub outer_max_iter: usize,
}

impl Default for QRankConfig {
    fn default() -> Self {
        QRankConfig {
            twpr: TwprConfig::default(),
            lambda_article: 0.85,
            lambda_venue: 0.10,
            lambda_author: 0.05,
            mu_venue: 0.5,
            mu_author: 0.5,
            maturity_years: 0.0,
            outer_tol: 1e-10,
            outer_max_iter: 100,
        }
    }
}

impl QRankConfig {
    /// Panics with [`Self::validate`]'s message on an invalid configuration.
    pub fn assert_valid(&self) {
        self.validate().unwrap_or_else(|msg| panic!("{msg}"));
    }

    /// Non-panicking validation, for configurations read from files: the
    /// walk's rules ([`TwprConfig::validate`]), then the mixture's
    /// ([`MixParams::validate`]).
    pub fn validate(&self) -> Result<(), String> {
        self.twpr.validate()?;
        MixParams::from_config(self).validate()
    }

    /// Set the λ mixture (must sum to 1).
    pub fn with_lambdas(mut self, article: f64, venue: f64, author: f64) -> Self {
        self.lambda_article = article;
        self.lambda_venue = venue;
        self.lambda_author = author;
        self.assert_valid();
        self
    }

    /// Set the edge-decay rate ρ.
    pub fn with_rho(mut self, rho: f64) -> Self {
        self.twpr.rho = rho;
        self.assert_valid();
        self
    }

    /// Set the jump-recency rate τ.
    pub fn with_tau(mut self, tau: f64) -> Self {
        self.twpr.tau = tau;
        self.assert_valid();
        self
    }

    /// Set the damping factor of every walk in the framework.
    pub fn with_damping(mut self, damping: f64) -> Self {
        self.twpr.pagerank.damping = damping;
        self.assert_valid();
        self
    }

    /// Set worker threads for the article-level SpMV.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.twpr.pagerank.threads = threads;
        self
    }

    /// Set the citation-evidence maturity constant σ (0 disables
    /// age-adaptive weighting).
    pub fn with_maturity(mut self, years: f64) -> Self {
        self.maturity_years = years;
        self.assert_valid();
        self
    }

    /// Parse a (possibly partial) JSON config: fields present in the text
    /// override the tuned defaults, including inside the nested `twpr` /
    /// `twpr.pagerank` objects; unknown keys are ignored. The result is
    /// *not* validated — call [`Self::validate`] on it.
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        let v = sjson::parse(text).map_err(|e| e.to_string())?;
        let obj = v.as_object().ok_or("config must be a JSON object")?;
        let mut cfg = QRankConfig::default();
        for (key, val) in obj {
            let num = |name: &str| val.as_f64().ok_or_else(|| format!("'{name}' must be a number"));
            match key.as_str() {
                "twpr" => cfg.twpr.merge_json(val)?,
                "lambda_article" => cfg.lambda_article = num("lambda_article")?,
                "lambda_venue" => cfg.lambda_venue = num("lambda_venue")?,
                "lambda_author" => cfg.lambda_author = num("lambda_author")?,
                "mu_venue" => cfg.mu_venue = num("mu_venue")?,
                "mu_author" => cfg.mu_author = num("mu_author")?,
                "maturity_years" => cfg.maturity_years = num("maturity_years")?,
                "outer_tol" => cfg.outer_tol = num("outer_tol")?,
                "outer_max_iter" => {
                    cfg.outer_max_iter =
                        val.as_usize().ok_or("'outer_max_iter' must be an integer")?
                }
                _ => {}
            }
        }
        Ok(cfg)
    }

    /// Serialize the full configuration as a JSON object.
    pub fn to_json(&self) -> sjson::Value {
        sjson::ObjectBuilder::new()
            .field("twpr", self.twpr.to_json())
            .field("lambda_article", self.lambda_article)
            .field("lambda_venue", self.lambda_venue)
            .field("lambda_author", self.lambda_author)
            .field("mu_venue", self.mu_venue)
            .field("mu_author", self.mu_author)
            .field("maturity_years", self.maturity_years)
            .field("outer_tol", self.outer_tol)
            .field("outer_max_iter", self.outer_max_iter)
            .build()
    }

    /// `true` when `other` shares every *structural* parameter with
    /// `self` — the parameters that determine the derived graphs, the
    /// recency jump and the structural priors a [`crate::QRankEngine`]
    /// caches (everything in `twpr`). Configs that agree here can share
    /// one prepared engine and differ only in mix parameters.
    pub fn same_structure(&self, other: &QRankConfig) -> bool {
        self.twpr == other.twpr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        QRankConfig::default().assert_valid();
    }

    #[test]
    fn json_roundtrip() {
        let cfg = QRankConfig::default().with_lambdas(0.7, 0.2, 0.1).with_rho(0.3);
        let json = cfg.to_json().to_string_compact();
        let back = QRankConfig::from_json_str(&json).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn partial_json_fills_defaults() {
        // Users can override a subset of knobs in a config file.
        let cfg = QRankConfig::from_json_str(
            r#"{"lambda_article": 0.9, "lambda_venue": 0.1, "lambda_author": 0.0, "twpr": {"tau": 0.2}}"#,
        )
        .unwrap();
        cfg.assert_valid();
        assert_eq!(cfg.lambda_article, 0.9);
        assert_eq!(cfg.twpr.tau, 0.2);
        // Untouched knobs keep their defaults.
        assert_eq!(cfg.twpr.rho, QRankConfig::default().twpr.rho);
        assert_eq!(cfg.outer_max_iter, QRankConfig::default().outer_max_iter);
    }

    /// A config file written before the author prior was a count may still
    /// carry `drop_self_citations`: like any unknown key it is ignored, and
    /// `to_json` no longer writes it.
    #[test]
    fn a_retired_key_is_ignored() {
        let cfg = QRankConfig::from_json_str(r#"{"drop_self_citations": false}"#).unwrap();
        assert_eq!(cfg, QRankConfig::default());
        let json = QRankConfig::default().to_json().to_string_compact();
        assert!(!json.contains("drop_self_citations"), "{json}");
    }

    #[test]
    fn builder_methods() {
        let cfg = QRankConfig::default()
            .with_lambdas(0.5, 0.3, 0.2)
            .with_rho(0.2)
            .with_tau(0.1)
            .with_damping(0.9)
            .with_threads(4);
        assert_eq!(cfg.lambda_venue, 0.3);
        assert_eq!(cfg.twpr.rho, 0.2);
        assert_eq!(cfg.twpr.pagerank.damping, 0.9);
        assert_eq!(cfg.twpr.pagerank.threads, 4);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn lambdas_must_sum_to_one() {
        QRankConfig::default().with_lambdas(0.5, 0.5, 0.5);
    }

    /// `validate` is the walk's rules then the mixture's, so a NaN
    /// tolerance is refused here, as the solve's own check refuses it.
    #[test]
    fn validate_refuses_what_the_solve_refuses() {
        let mut cfg = QRankConfig::default();
        cfg.twpr.pagerank.tol = f64::NAN;
        assert_eq!(cfg.validate(), Err("tolerance must be >= 0".into()));
        let cfg = QRankConfig { outer_tol: f64::NAN, ..Default::default() };
        assert_eq!(cfg.validate(), Err("outer tolerance must be >= 0".into()));
    }

    #[test]
    #[should_panic(expected = "mu_venue")]
    fn mu_out_of_range_panics() {
        let cfg = QRankConfig { mu_venue: 1.5, ..Default::default() };
        cfg.assert_valid();
    }
}
