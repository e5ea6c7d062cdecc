//! Monte-Carlo PageRank approximation.
//!
//! Instead of iterating the full operator to convergence, simulate `R`
//! geometric-length random walks from every node and estimate the
//! stationary distribution from visit counts (the "complete path"
//! estimator of Avrachenkov et al. 2007). Useful when an approximate
//! ranking is enough: one pass over `R·V·E[length]` steps, trivially
//! restartable, and the accuracy/cost trade-off is explicit.
//!
//! The repro harness compares its accuracy and cost against power
//! iteration (an ablation of the "exact walk" design choice).

use crate::context::RankContext;
use crate::diagnostics::Diagnostics;
use crate::ranker::Ranker;
use crate::telemetry::Stopwatch;
use crate::telemetry::{RankOutput, SolveTelemetry};
use sgraph::CsrGraph;
use srand::rngs::SmallRng;
use srand::{Rng, SeedableRng};

/// Monte-Carlo PageRank parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarloConfig {
    /// Damping factor (walk continues with this probability).
    pub damping: f64,
    /// Walks started per node.
    pub walks_per_node: usize,
    /// RNG seed (estimates are deterministic given the seed).
    pub seed: u64,
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        MonteCarloConfig { damping: 0.85, walks_per_node: 16, seed: 0x5eed }
    }
}

impl MonteCarloConfig {
    /// Panics on invalid parameters.
    pub fn assert_valid(&self) {
        assert!((0.0..1.0).contains(&self.damping), "damping must be in [0, 1)");
        assert!(self.walks_per_node > 0, "need at least one walk per node");
    }
}

/// Estimate PageRank on an arbitrary weighted graph by walk simulation.
///
/// Every node starts `walks_per_node` walks; each step either stops (with
/// probability `1 − damping`) or moves along an out-edge chosen
/// proportionally to edge weight; dangling nodes stop the walk. Visit
/// counts (including the start) normalized over all visits estimate the
/// stationary distribution.
pub fn monte_carlo_pagerank(g: &CsrGraph, config: &MonteCarloConfig) -> (Vec<f64>, Diagnostics) {
    config.assert_valid();
    let n = g.len();
    if n == 0 {
        return (Vec::new(), Diagnostics::closed_form());
    }
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut visits = vec![0u64; n];
    let mut total: u64 = 0;

    // Each node's out-row as (target, cumulative weight) pairs for
    // O(log d) stepping, transposed from the in-rows in one pass: targets
    // arrive ascending, so each running sum adds in out-row order.
    let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
    for v in g.nodes() {
        for (&u, &w) in g.in_neighbors(v).iter().zip(g.in_edge_weights(v)) {
            let row = &mut rows[u.index()];
            let acc = row.last().map_or(0.0, |&(_, c)| c) + w;
            row.push((v.0, acc));
        }
    }

    for start in 0..n {
        for _ in 0..config.walks_per_node {
            let mut v = start;
            loop {
                visits[v] += 1;
                total += 1;
                if rng.gen::<f64>() >= config.damping {
                    break;
                }
                let row = &rows[v];
                let Some(&(_, sum)) = row.last() else { break };
                if sum <= 0.0 {
                    break; // dangling
                }
                let target = rng.gen::<f64>() * sum;
                let idx = row.partition_point(|&(_, c)| c <= target).min(row.len() - 1);
                v = row[idx].0 as usize;
            }
        }
    }

    let scores: Vec<f64> = visits.iter().map(|&c| c as f64 / total as f64).collect();
    (
        scores,
        Diagnostics { iterations: config.walks_per_node, converged: true, residuals: Vec::new() },
    )
}

/// Monte-Carlo PageRank as an article ranker (unweighted citation graph).
#[derive(Debug, Clone, Default)]
pub struct MonteCarloPageRank {
    /// Parameters.
    pub config: MonteCarloConfig,
}

impl MonteCarloPageRank {
    /// Monte-Carlo PageRank with the given configuration.
    pub fn new(config: MonteCarloConfig) -> Self {
        config.assert_valid();
        MonteCarloPageRank { config }
    }
}

impl Ranker for MonteCarloPageRank {
    fn name(&self) -> String {
        format!("MC-PageRank(R={})", self.config.walks_per_node)
    }

    fn solve_ctx(&self, ctx: &RankContext) -> RankOutput {
        self.config.assert_valid();
        let built = Stopwatch::start();
        let g = ctx.citation_graph();
        let build_secs = built.secs();
        let solved = Stopwatch::start();
        let (scores, diag) = monte_carlo_pagerank(&g.graph, &self.config);
        let telemetry = SolveTelemetry::timed(&diag, build_secs, solved.secs());
        RankOutput { scores, telemetry }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgraph::{GraphBuilder, RowStochastic};

    #[test]
    fn approximates_power_iteration() {
        // Random-ish graph; MC with many walks should land near the exact
        // answer in L1.
        let mut edges = Vec::new();
        let mut state = 5u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32
        };
        for _ in 0..3000 {
            edges.push((next() % 300, next() % 300, 1.0 + (next() % 4) as f64));
        }
        let g = GraphBuilder::from_weighted_edges(300, &edges);
        let exact = RowStochastic::new(&g).stationary(&Default::default()).scores;
        let (mc, _) = monte_carlo_pagerank(
            &g,
            &MonteCarloConfig { walks_per_node: 300, ..Default::default() },
        );
        let l1: f64 = exact.iter().zip(&mc).map(|(a, b)| (a - b).abs()).sum();
        assert!(l1 < 0.08, "MC estimate too far from exact: L1 = {l1}");
    }

    #[test]
    fn more_walks_means_better_estimates() {
        let g = GraphBuilder::from_edges(50, &(0..49).map(|i| (i, i + 1)).collect::<Vec<_>>());
        let exact = RowStochastic::new(&g).stationary(&Default::default()).scores;
        let l1_of = |walks: usize| {
            let (mc, _) = monte_carlo_pagerank(
                &g,
                &MonteCarloConfig { walks_per_node: walks, seed: 1, ..Default::default() },
            );
            exact.iter().zip(&mc).map(|(a, b)| (a - b).abs()).sum::<f64>()
        };
        let coarse = l1_of(4);
        let fine = l1_of(512);
        assert!(fine < coarse, "more walks must reduce error ({fine} vs {coarse})");
    }

    #[test]
    fn deterministic_per_seed() {
        let g = GraphBuilder::from_edges(10, &[(0, 1), (1, 2), (2, 0)]);
        let cfg = MonteCarloConfig::default();
        let (a, _) = monte_carlo_pagerank(&g, &cfg);
        let (b, _) = monte_carlo_pagerank(&g, &cfg);
        assert_eq!(a, b);
        let (c, _) =
            monte_carlo_pagerank(&g, &MonteCarloConfig { seed: 999, ..Default::default() });
        assert_ne!(a, c);
    }

    #[test]
    fn scores_form_distribution() {
        let c = scholar_corpus::generator::Preset::Tiny.generate(13);
        let s = MonteCarloPageRank::default().rank(&c);
        assert_eq!(s.len(), c.num_articles());
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(s.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn empty_graph() {
        let (s, d) = monte_carlo_pagerank(&sgraph::CsrGraph::empty(0), &Default::default());
        assert!(s.is_empty());
        assert!(d.converged);
    }

    #[test]
    #[should_panic(expected = "walk per node")]
    fn zero_walks_panics() {
        MonteCarloPageRank::new(MonteCarloConfig { walks_per_node: 0, ..Default::default() });
    }
}
