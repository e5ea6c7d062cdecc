//! Age-aware citation-count baselines.
//!
//! Two standard bibliometric normalizations of the raw citation count:
//!
//! * [`AgeNormalizedCitations`] — citations per year since publication
//!   ("CPY"), the simplest correction of the old-paper bias.
//! * [`RecentCitations`] — citations received from articles published in
//!   the last `window` years only ("current impact"), a strong predictor
//!   of near-future citations that needs no graph iteration at all.

use crate::context::RankContext;
use crate::ranker::Ranker;
use crate::telemetry::RankOutput;
use scholar_corpus::Year;

/// Citations per year since publication.
#[derive(Debug, Clone, Copy, Default)]
pub struct AgeNormalizedCitations {
    /// "Now"; `None` = the corpus's last year.
    pub now: Option<Year>,
}

impl Ranker for AgeNormalizedCitations {
    fn name(&self) -> String {
        "CitPerYear".into()
    }

    fn solve_ctx(&self, ctx: &RankContext) -> RankOutput {
        if ctx.num_articles() == 0 {
            return RankOutput::closed_form(Vec::new());
        }
        let now = self.now.unwrap_or_else(|| ctx.now());
        let counts = ctx.citation_counts();
        let mut scores: Vec<f64> = ctx
            .years()
            .iter()
            .zip(counts)
            .map(|(&year, &c)| {
                let age = (now - year).max(0) as f64 + 1.0; // publication year counts
                c as f64 / age
            })
            .collect();
        crate::scores::normalize_or_uniform(&mut scores);
        RankOutput::closed_form(scores)
    }
}

/// Citations received from recently published articles only.
#[derive(Debug, Clone, Copy)]
pub struct RecentCitations {
    /// Width of the citing-article window (years).
    pub window: i32,
    /// "Now"; `None` = the corpus's last year.
    pub now: Option<Year>,
}

impl Default for RecentCitations {
    fn default() -> Self {
        RecentCitations { window: 3, now: None }
    }
}

impl Ranker for RecentCitations {
    fn name(&self) -> String {
        format!("RecentCit({}y)", self.window)
    }

    fn solve_ctx(&self, ctx: &RankContext) -> RankOutput {
        if ctx.num_articles() == 0 {
            return RankOutput::closed_form(Vec::new());
        }
        assert!(self.window > 0, "window must be positive");
        let now = self.now.unwrap_or_else(|| ctx.now());
        let from = now - self.window + 1;
        let mut scores = vec![0.0f64; ctx.num_articles()];
        let (rows, mut refs) = (ctx.rows(), Vec::new());
        for (i, &year) in ctx.years().iter().enumerate() {
            if year >= from && year <= now {
                for &cited in rows.refs(i, &mut refs) {
                    scores[cited as usize] += 1.0;
                }
            }
        }
        crate::scores::normalize_or_uniform(&mut scores);
        RankOutput::closed_form(scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scholar_corpus::{Corpus, CorpusBuilder};

    fn corpus() -> Corpus {
        // a0 (1990): cited in 1995 and 2010. a1 (2008): cited in 2010.
        let mut b = CorpusBuilder::new();
        let v = b.venue("V");
        let a0 = b.add_article("old", 1990, v, vec![], vec![], None);
        b.add_article("mid", 1995, v, vec![], vec![a0], None);
        let a1 = b.add_article("newish", 2008, v, vec![], vec![], None);
        b.add_article("latest", 2010, v, vec![], vec![a0, a1], None);
        b.finish().unwrap()
    }

    #[test]
    fn cit_per_year_boosts_young_articles() {
        let c = corpus();
        let s = AgeNormalizedCitations::default().rank(&c);
        // a0: 2 citations over 21 years; a1: 1 citation over 3 years.
        assert!(s[2] > s[0], "younger article with faster accrual should win: {s:?}");
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn recent_citations_ignore_old_citations() {
        let c = corpus();
        let s = RecentCitations { window: 3, now: None }.rank(&c);
        // Window = 2008..=2010: only "latest" cites count: a0 and a1 get 1 each.
        assert_eq!(s[0], s[2]);
        assert!(s[0] > 0.0);
        assert_eq!(s[1], 0.0);
        // Wide window sees the 1995 citation too.
        let wide = RecentCitations { window: 30, now: None }.rank(&c);
        assert!(wide[0] > wide[2]);
    }

    #[test]
    fn explicit_now() {
        let c = corpus();
        // As of 1996, only the 1995 citation exists in a 3y window.
        let s = RecentCitations { window: 3, now: Some(1996) }.rank(&c);
        assert!(s[0] > 0.0);
        assert_eq!(s[2], 0.0);
    }

    #[test]
    fn empty_corpus() {
        let c = CorpusBuilder::new().finish().unwrap();
        assert!(AgeNormalizedCitations::default().rank(&c).is_empty());
        assert!(RecentCitations::default().rank(&c).is_empty());
    }
}
