//! The chronological corpus-generation engine.

use super::config::GeneratorConfig;
use crate::corpus::{Corpus, CorpusBuilder};
use crate::model::{ArticleId, AuthorId, VenueId, Year};
use srand::rngs::SmallRng;
use srand::{Rng, SeedableRng};

/// Runs the generative process described in [`crate::generator`].
///
/// ```
/// use scholar_corpus::{CorpusGenerator, GeneratorConfig};
/// let corpus = CorpusGenerator::new(GeneratorConfig::default()).generate();
/// assert!(corpus.num_articles() > 500);
/// // Deterministic given the seed:
/// let again = CorpusGenerator::new(GeneratorConfig::default()).generate();
/// assert_eq!(corpus.num_articles(), again.num_articles());
/// ```
#[derive(Debug)]
pub struct CorpusGenerator {
    cfg: GeneratorConfig,
    rng: SmallRng,
}

/// Per-article working state kept outside the builder.
struct ArticleState {
    year: Year,
    merit: f64,
    in_degree: u32,
}

impl CorpusGenerator {
    /// Create a generator; panics if the configuration is invalid.
    pub fn new(cfg: GeneratorConfig) -> Self {
        cfg.assert_valid();
        let rng = SmallRng::seed_from_u64(cfg.seed);
        CorpusGenerator { cfg, rng }
    }

    /// Run the process and return the corpus.
    pub fn generate(mut self) -> Corpus {
        let cfg = self.cfg.clone();
        let mut builder = CorpusBuilder::new();

        // ---- Venues: Zipf prestige, normalized selectivity in [0, 1]. ----
        let venue_prestige: Vec<f64> = (0..cfg.num_venues)
            .map(|k| 1.0 / ((k + 1) as f64).powf(cfg.venue_zipf_exponent))
            .collect();
        let max_prestige = venue_prestige[0];
        let selectivity: Vec<f64> = venue_prestige.iter().map(|&p| p / max_prestige).collect();
        let venue_ids: Vec<VenueId> =
            (0..cfg.num_venues).map(|k| builder.venue(&format!("Venue-{k:04}"))).collect();

        // ---- Author pool (grows lazily). ----
        let mut author_ability: Vec<f64> = Vec::new();
        let mut author_pubs: Vec<u32> = Vec::new();
        let mut author_ids: Vec<AuthorId> = Vec::new();

        // ---- Article working state. ----
        let mut articles: Vec<ArticleState> = Vec::new();

        // Citation-kernel weights, recomputed once per year.
        let mut cum_weights: Vec<f64> = Vec::new();

        for year in cfg.start_year..=cfg.end_year {
            // Poisson-distributed yearly output around the schedule.
            let expected = cfg.expected_articles_in(year);
            let count = self.poisson(expected).max(1);

            // Recompute the citation kernel over all *existing* articles.
            cum_weights.clear();
            cum_weights.reserve(articles.len());
            let mut acc = 0.0f64;
            for st in &articles {
                let age = (year - st.year) as f64;
                let w = (st.in_degree as f64 + 1.0).powf(cfg.pa_strength)
                    * st.merit.powf(cfg.merit_strength)
                    * (-age / cfg.recency_tau).exp();
                acc += w;
                cum_weights.push(acc);
            }
            let total_weight = acc;

            for _ in 0..count {
                // ---- Team. ----
                let team_size = self.team_size();
                let mut team: Vec<AuthorId> = Vec::with_capacity(team_size);
                let mut ability_sum = 0.0;
                for _ in 0..team_size {
                    let idx = if author_ability.is_empty()
                        || self.rng.gen::<f64>() < cfg.new_author_prob
                    {
                        let k = author_ability.len();
                        author_ability.push(self.lognormal(0.0, cfg.author_ability_sigma));
                        author_pubs.push(0);
                        author_ids.push(builder.author(&format!("Author-{k:06}")));
                        k
                    } else {
                        self.pick_author(&author_pubs)
                    };
                    if !team.contains(&author_ids[idx]) {
                        team.push(author_ids[idx]);
                        ability_sum += author_ability[idx];
                    }
                }
                for &a in &team {
                    author_pubs[a.index()] += 1;
                }
                let mean_ability = ability_sum / team.len() as f64;

                // ---- Merit. ----
                let base_merit = self.lognormal(cfg.merit_mu, cfg.merit_sigma)
                    * mean_ability.powf(cfg.author_merit_coupling);

                // ---- Venue: prestige raised to a merit-dependent power. ----
                // The article's standing within the merit distribution is
                // known analytically for the log-normal base (before the
                // ability boost we use the combined value's log directly).
                let merit_z =
                    ((base_merit.ln() - cfg.merit_mu) / cfg.merit_sigma.max(1e-9)).clamp(-3.0, 3.0);
                let percentile = 0.5 * (1.0 + erf(merit_z / std::f64::consts::SQRT_2));
                let exponent = 1.0 + cfg.venue_merit_coupling * percentile;
                let venue_idx = self.pick_venue(&venue_prestige, exponent);
                let venue = venue_ids[venue_idx];
                let merit = base_merit * (1.0 + cfg.venue_merit_boost * selectivity[venue_idx]);

                // ---- References (strictly older articles). ----
                let refs = self.pick_references(
                    &cum_weights,
                    total_weight,
                    articles.len(),
                    cfg.mean_references,
                    cfg.max_references,
                );
                for &r in &refs {
                    articles[r.index()].in_degree += 1;
                }

                let id = builder.add_article(
                    &format!("Article #{:06} ({year})", articles.len()),
                    year,
                    venue,
                    team,
                    refs,
                    Some(merit),
                );
                debug_assert_eq!(id.index(), articles.len());
                articles.push(ArticleState { year, merit, in_degree: 0 });
            }
        }

        builder.finish().expect("generator produced an inconsistent corpus")
    }

    /// Poisson sample via Knuth's method (fine for the λ ranges used here)
    /// with a normal approximation above λ = 64.
    fn poisson(&mut self, lambda: f64) -> usize {
        if lambda <= 0.0 {
            return 0;
        }
        if lambda > 64.0 {
            // Normal approximation with continuity correction.
            let z = self.standard_normal();
            return (lambda + lambda.sqrt() * z).round().max(0.0) as usize;
        }
        let l = (-lambda).exp();
        let mut k = 0usize;
        let mut p = 1.0;
        loop {
            p *= self.rng.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    /// Shifted-geometric team size with the configured mean, capped.
    fn team_size(&mut self) -> usize {
        let mean = self.cfg.mean_team_size;
        if mean <= 1.0 {
            return 1;
        }
        // Geometric on {1, 2, ...} with success prob 1/mean has mean `mean`.
        let p = 1.0 / mean;
        let mut k = 1usize;
        while k < self.cfg.max_team_size && self.rng.gen::<f64>() >= p {
            k += 1;
        }
        k
    }

    /// Existing author ∝ publications + 1 (Lotka-style rich-get-richer).
    fn pick_author(&mut self, pubs: &[u32]) -> usize {
        let total: u64 = pubs.iter().map(|&p| p as u64 + 1).sum();
        let mut target = self.rng.gen_range(0..total);
        for (i, &p) in pubs.iter().enumerate() {
            let w = p as u64 + 1;
            if target < w {
                return i;
            }
            target -= w;
        }
        pubs.len() - 1
    }

    /// Venue ∝ prestige^exponent.
    fn pick_venue(&mut self, prestige: &[f64], exponent: f64) -> usize {
        let weights: Vec<f64> = prestige.iter().map(|&p| p.powf(exponent)).collect();
        let total: f64 = weights.iter().sum();
        let mut target = self.rng.gen::<f64>() * total;
        for (i, &w) in weights.iter().enumerate() {
            if target < w {
                return i;
            }
            target -= w;
        }
        weights.len() - 1
    }

    /// Sample a reference list from the cumulative citation kernel.
    fn pick_references(
        &mut self,
        cum_weights: &[f64],
        total_weight: f64,
        num_existing: usize,
        mean_refs: f64,
        max_refs: usize,
    ) -> Vec<ArticleId> {
        if num_existing == 0 || total_weight <= 0.0 {
            return Vec::new();
        }
        let want = self.poisson(mean_refs).min(max_refs).min(num_existing);
        let mut refs: Vec<ArticleId> = Vec::with_capacity(want);
        // Rejection on duplicates; cap attempts to stay O(want) expected.
        let mut attempts = 0usize;
        while refs.len() < want && attempts < want * 8 + 16 {
            attempts += 1;
            let target = self.rng.gen::<f64>() * total_weight;
            let idx = cum_weights.partition_point(|&c| c <= target).min(num_existing - 1);
            let id = ArticleId(idx as u32);
            if !refs.contains(&id) {
                refs.push(id);
            }
        }
        refs
    }

    fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.standard_normal()).exp()
    }

    /// Box–Muller standard normal.
    fn standard_normal(&mut self) -> f64 {
        let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.rng.gen::<f64>();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

/// Abramowitz–Stegun rational approximation of erf (|error| < 1.5e-7),
/// plenty for mapping merit to a venue-choice percentile.
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::Preset;
    use crate::validate::validate;

    fn small() -> Corpus {
        CorpusGenerator::new(GeneratorConfig::default()).generate()
    }

    #[test]
    fn deterministic_per_seed() {
        let a = small();
        let b = small();
        assert_eq!(a, b);
        let c = CorpusGenerator::new(GeneratorConfig { seed: 7, ..Default::default() }).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn output_is_valid_and_chronological() {
        let c = small();
        validate(&c).unwrap();
        // Every citation points to a strictly earlier year, so years fall
        // along every path and the citation graph is acyclic.
        for a in c.articles() {
            for &r in &a.references {
                assert!(
                    c.article(r).year < a.year,
                    "generated citation must point strictly backwards in time"
                );
            }
        }
    }

    #[test]
    fn scale_matches_schedule() {
        let c = small();
        let expected = GeneratorConfig::default().expected_total_articles();
        let n = c.num_articles() as f64;
        assert!(
            (n - expected).abs() < expected * 0.2,
            "generated {n} articles, expected ~{expected}"
        );
    }

    #[test]
    fn merit_is_planted_and_positive() {
        let c = small();
        for a in c.articles() {
            let m = a.merit.expect("generator must plant merit");
            assert!(m > 0.0 && m.is_finite());
        }
    }

    #[test]
    fn citations_correlate_with_merit() {
        // The whole evaluation design rests on this: articles with higher
        // planted merit accrue more citations. Check rank correlation on
        // the older half (which had time to accrue).
        let c = small();
        let counts = c.citation_counts();
        let (lo, hi) = c.year_range().unwrap();
        let mid = (lo + hi) / 2;
        let mut pairs: Vec<(f64, u32)> = c
            .articles()
            .iter()
            .filter(|a| a.year <= mid)
            .map(|a| (a.merit.unwrap(), counts[a.id.index()]))
            .collect();
        assert!(pairs.len() > 100);
        // Split by merit median; compare mean citations.
        pairs.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap());
        let half = pairs.len() / 2;
        let low_mean: f64 = pairs[..half].iter().map(|p| p.1 as f64).sum::<f64>() / half as f64;
        let high_mean: f64 =
            pairs[half..].iter().map(|p| p.1 as f64).sum::<f64>() / (pairs.len() - half) as f64;
        assert!(
            high_mean > 1.5 * low_mean,
            "high-merit articles should be cited clearly more ({high_mean:.2} vs {low_mean:.2})"
        );
    }

    #[test]
    fn venue_prestige_correlates_with_merit() {
        let c = small();
        // Venue 0 is the most prestigious; its mean article merit should
        // exceed the mean of the bottom half of venues.
        let by_venue = c.articles_by_venue();
        let mean_merit = |ids: &[ArticleId]| -> f64 {
            if ids.is_empty() {
                return 0.0;
            }
            ids.iter().map(|&i| c.article(i).merit.unwrap()).sum::<f64>() / ids.len() as f64
        };
        let top = mean_merit(&by_venue[0]);
        let tail_ids: Vec<ArticleId> =
            by_venue[by_venue.len() / 2..].iter().flatten().copied().collect();
        let tail = mean_merit(&tail_ids);
        assert!(
            top > tail,
            "prestigious venue should host higher-merit articles ({top:.3} vs {tail:.3})"
        );
    }

    #[test]
    fn citation_counts_are_heavy_tailed() {
        let c = CorpusGenerator::new(GeneratorConfig {
            initial_articles_per_year: 150.0,
            ..Default::default()
        })
        .generate();
        let g = c.citation_graph();
        let stats = sgraph::stats::in_degree_stats(&g);
        assert!(
            stats.gini > 0.5,
            "citation distribution should be concentrated, gini = {}",
            stats.gini
        );
        assert!(stats.max as f64 > 10.0 * stats.mean.max(0.5));
    }

    #[test]
    fn references_prefer_recent_articles() {
        let c = small();
        // Mean citation age should be within a few multiples of the kernel
        // time constant, far below the corpus age span.
        let mut total_age = 0f64;
        let mut count = 0usize;
        for a in c.articles() {
            for &r in &a.references {
                total_age += (a.year - c.article(r).year) as f64;
                count += 1;
            }
        }
        let mean_age = total_age / count as f64;
        let cfg = GeneratorConfig::default();
        assert!(
            mean_age < 3.0 * cfg.recency_tau,
            "mean citation age {mean_age:.1} should reflect the recency kernel"
        );
    }

    #[test]
    fn tiny_preset_is_fast_and_valid() {
        let c = Preset::Tiny.generate(1);
        validate(&c).unwrap();
        assert!(c.num_articles() > 300, "tiny preset too small: {}", c.num_articles());
        assert!(c.num_articles() < 3000);
    }

    #[test]
    fn no_duplicate_references() {
        let c = small();
        for a in c.articles() {
            let mut sorted = a.references.clone();
            sorted.dedup();
            assert_eq!(sorted.len(), a.references.len());
        }
    }

    #[test]
    fn erf_sanity() {
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(1.0) - 0.8427007).abs() < 1e-5);
        assert!((erf(-1.0) + 0.8427007).abs() < 1e-5);
        assert!(erf(5.0) > 0.99999);
    }

    #[test]
    fn zero_mean_references_gives_no_citations() {
        let c = CorpusGenerator::new(GeneratorConfig {
            mean_references: 0.0,
            initial_articles_per_year: 10.0,
            end_year: 1995,
            ..Default::default()
        })
        .generate();
        assert_eq!(c.num_citations(), 0);
    }
}
