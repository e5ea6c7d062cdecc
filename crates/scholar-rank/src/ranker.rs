//! The common ranker interface.

use crate::context::RankContext;
use crate::telemetry::RankOutput;
use scholar_corpus::Corpus;

/// A query-independent article ranker.
///
/// Implementations score every article of a corpus; scores are
/// non-negative and normalized to sum 1 (so they are comparable across
/// methods and corpus snapshots). Higher is more important.
///
/// The primary entry point is [`Ranker::solve_ctx`], which consumes a
/// shared prepared [`RankContext`] and reports unified
/// [`crate::telemetry::SolveTelemetry`]; [`Ranker::rank`] survives as a
/// convenience that builds a throwaway context, so callers without a
/// context to share keep working.
///
/// The trait is object-safe: the evaluation harness iterates over
/// `Vec<Box<dyn Ranker>>`.
pub trait Ranker {
    /// Short display name used in experiment tables (e.g. `"PageRank"`).
    fn name(&self) -> String;

    /// Score every article using the prepared context, returning scores
    /// plus solve telemetry. Implementations should pull every derived
    /// structure they need (graphs, bipartites, year vectors)
    /// from `ctx` so repeated solves over one corpus share the builds.
    fn solve_ctx(&self, ctx: &RankContext) -> RankOutput;

    /// Scores only, via the prepared context.
    fn rank_ctx(&self, ctx: &RankContext) -> Vec<f64> {
        self.solve_ctx(ctx).scores
    }

    /// Score every article of `corpus` through a throwaway context.
    fn rank(&self, corpus: &Corpus) -> Vec<f64> {
        self.rank_ctx(&RankContext::new(corpus))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scholar_corpus::generator::Preset;

    struct Constant;
    impl Ranker for Constant {
        fn name(&self) -> String {
            "Constant".into()
        }
        fn solve_ctx(&self, ctx: &RankContext) -> RankOutput {
            let n = ctx.num_articles();
            RankOutput::closed_form(vec![1.0 / n as f64; n])
        }
    }

    #[test]
    fn trait_is_object_safe() {
        let rankers: Vec<Box<dyn Ranker>> = vec![Box::new(Constant)];
        let c = Preset::Tiny.generate(5);
        for r in &rankers {
            let scores = r.rank(&c);
            assert_eq!(scores.len(), c.num_articles());
            assert_eq!(r.name(), "Constant");
        }
    }

    #[test]
    fn default_rank_goes_through_a_context() {
        let c = Preset::Tiny.generate(5);
        let ctx = RankContext::new(&c);
        let via_ctx = Constant.rank_ctx(&ctx);
        let via_corpus = Constant.rank(&c);
        assert_eq!(via_ctx, via_corpus);
        let out = Constant.solve_ctx(&ctx);
        assert!(out.telemetry.converged);
    }
}
